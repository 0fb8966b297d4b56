"""Reservoir systems driven by stochastic inputs.

Constructive reservoirs (shift registers, nilpotent state-affine systems,
block echo state networks), trained readouts, stationary process samplers,
and Monte Carlo L^p approximation metrics, with a CLI harness.
"""

from .core import (
    FunctionalSpec,
    evaluate_functional_batch,
    nilpotent_product,
    read_window_csv,
    truncated_conditional_error,
    write_window_csv,
)
from .metrics import LpEstimate, approx_error, lp_norm
from .processes import (
    MomentDiagnostic,
    MomentVerdict,
    ProcessSampler,
    arma,
    exp_moment_check,
    garch11,
    iid_gaussian,
    iid_lognormal,
    iid_uniform_bounded,
    sample_paths,
    shift_invariance_probe,
)
from .targets import (
    TargetCatalogEntry,
    catalog,
    check_sampler,
    constant,
    entry_by_name,
    finite_poly,
    garch_vol,
    geometric_ma,
    log_sine,
    peak_hold,
    random_finite_poly,
    trig_product,
    truncation_bound,
)
from .readouts import (
    LinearReadout,
    NetworkReadout,
    PolynomialReadout,
    eval_readout,
    poly_features,
)
from .reservoirs import (
    EchoStateNetwork,
    EspNotCertifiedError,
    EspReport,
    LinearReservoir,
    StateOverflowError,
    TrigPolynomial,
    TrigSAS,
    build_block_esn,
    build_nilpotent_trig_sas,
    build_shift_register,
    block_esn_functional,
    certify_esp,
    direct_sum_sas,
    final_states,
    fit_identity_network,
    random_esn,
    random_trig_sas,
    system_from_dict,
    system_to_dict,
    washout_decay,
)
from .training import (
    fit_linear_readout,
    fit_network_readout,
    fit_polynomial_readout,
    sample_states,
)

__version__ = "0.1.0"
