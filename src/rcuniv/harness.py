"""Experiment harness: validated configs, family runners, verify suites.

A config names an input process, a target functional, a system family,
and a capacity grid; run_experiment trains or constructs the system of
each capacity point, certifies it, estimates the approximation error on
fresh evaluation paths, and writes a CSV results table plus one JSON
artifact per point.  Where capacity sizes only the readout (linear_poly,
linear_nn), every point shares one system, one training draw and one
evaluation pass.  Identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics, processes, reservoirs, targets, training
from .core import (_finite_real, _integer, _seed, nilpotent_product, truncated_conditional_error,
                   write_window_csv)
from .readouts import ACTIVATIONS, LinearReadout, eval_readout
from .reservoirs import (
    EspNotCertifiedError,
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
    washout_decay,
)

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "load_sampler",
    "run_experiment",
    "PropertyCheck",
    "verify_suite",
    "VERIFY_SUITES",
]

SCHEMA_VERSION = 1


def _number(v, lo: float = -math.inf, strict: bool = False) -> bool:
    """A finite real, not a boolean, >= lo (> lo when strict)."""
    return _finite_real(v) and (v > lo if strict else v >= lo)


# family -> (smallest capacity, or None when the family ignores the value and
# takes a single entry; family_params defaults, where memory None means the
# target's memory).  The trig_sas and esn params are the keyword arguments of
# random_trig_sas and random_esn.
_FAMILIES = {
    "linear_poly": (0, {"memory": None}),
    "linear_nn": (1, {"memory": None, "activation": "tanh"}),
    "trig_sas": (1, {"terms": 4, "contraction": 0.9, "freq_scale": 1.0}),
    "esn": (1, {"activation": "tanh", "spectral": 0.9, "input_scale": 0.1,
                "bias_scale": 0.1}),
    "constructed_shift": (None, {}),
    "constructed_nilpotent_sas": (None, {}),
    "constructed_block_esn": (1, {"identity_units": 24, "half_width": 3.0,
                                  "activation": "logistic"}),
}
FAMILIES = tuple(_FAMILIES)

# family_params key -> (check, what the check asks for)
_PARAM_RULES = {
    "memory": (lambda v: _integer(v, 0), "an integer >= 0"),
    "activation": (lambda v: isinstance(v, str) and v in ACTIVATIONS,
                   f"one of {sorted(ACTIVATIONS)}"),
    "terms": (lambda v: _integer(v, 1), "an integer >= 1"),
    "contraction": (_number, "a finite number"),
    "freq_scale": (_number, "a finite number"),
    "spectral": (lambda v: _number(v, 0, strict=True), "a finite number > 0"),
    "input_scale": (_number, "a finite number"),
    "bias_scale": (lambda v: _number(v, 0), "a finite number >= 0"),
    "identity_units": (lambda v: _integer(v, 1), "an integer >= 1"),
    "half_width": (lambda v: _number(v, 0, strict=True), "a finite number > 0"),
}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _require_keys(doc, required: set, optional: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    keys = set(doc)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see load_config for the JSON form."""

    family: str
    capacity: tuple[int, ...]
    sampler: processes.ProcessSampler
    target: targets.TargetCatalogEntry
    p: float
    T: int
    M_train: int
    M_eval: int
    ridge: float
    seed_train: int
    seed_eval: int
    family_params: dict = field(default_factory=dict)


def load_config(doc: dict) -> ExperimentConfig:
    """Validate a config document; unknown keys and bad values are rejected at
    every level.  family_params come back with the family's defaults filled in."""
    _require_keys(
        doc,
        required={"schema_version", "family", "capacity", "sampler", "target",
                  "p", "T", "washout", "M_train", "M_eval", "ridge", "seeds"},
        optional={"family_params"},
        where="config",
    )
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version {doc['schema_version']!r} unsupported; this build "
            f"reads version {SCHEMA_VERSION}"
        )
    family = doc["family"]
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; choices {list(FAMILIES)}")
    floor, defaults = _FAMILIES[family]

    cap = doc["capacity"]
    if not isinstance(cap, list) or not cap or not all(_integer(c) for c in cap):
        raise ConfigError("capacity must be a non-empty list of integers")
    if len(set(cap)) != len(cap):
        raise ConfigError("capacity entries must be unique")
    if floor is None and len(cap) != 1:
        raise ConfigError(f"family {family!r} takes a single capacity entry")
    if floor is not None and min(cap) < floor:
        raise ConfigError(f"family {family!r} needs capacity entries >= {floor}")

    sampler = load_sampler(doc["sampler"])

    tdoc = doc["target"]
    _require_keys(tdoc, {"name"}, {"params"}, "target")
    try:
        params = dict(tdoc.get("params", {}))
        if tdoc["name"] in ("finite_poly",):
            # JSON represents exponent tuples as lists of [exponents, coeff]
            raw = params.get("coefficients", {})
            if isinstance(raw, list):
                params["coefficients"] = {tuple(mi): c for mi, c in raw}
        entry = targets.entry_by_name(tdoc["name"], params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"target: {exc}") from exc

    seeds = doc["seeds"]
    _require_keys(seeds, {"train", "eval"}, set(), "seeds")
    for k in ("train", "eval"):
        if not _seed(seeds[k]):
            raise ConfigError(f"seeds.{k} must be an integer in [0, 2**64)")
    if seeds["train"] == seeds["eval"]:
        raise ConfigError("seeds.train and seeds.eval must differ")

    fp = doc.get("family_params", {})
    _require_keys(fp, set(), set(defaults), f"family_params of family {family!r}")
    for key, value in fp.items():
        check, want = _PARAM_RULES[key]
        if not check(value):
            raise ConfigError(f"family_params.{key} must be {want}, got {value!r}")
    family_params = {**defaults, **fp}
    if "memory" in family_params and family_params["memory"] is None:
        if entry.spec.memory is None:
            raise ConfigError(
                "target has unbounded memory; set family_params.memory to the "
                "shift-register depth"
            )
        family_params["memory"] = entry.spec.memory

    p = doc["p"]
    if not _number(p, 1):
        raise ConfigError("p must be a finite number >= 1")
    for k, lo in (("T", 1), ("M_train", 5), ("M_eval", 2)):
        if not _integer(doc[k], lo):
            raise ConfigError(f"{k} must be an integer >= {lo}")
    # schema 1 requires washout; it is validated, but nothing reads it
    if not _integer(doc["washout"], 0) or doc["washout"] >= doc["T"]:
        raise ConfigError("washout must be an integer in [0, T)")
    ridge = doc["ridge"]
    if not _number(ridge, 0):
        raise ConfigError("ridge must be a finite number >= 0")

    if sampler.n != entry.spec.n:
        raise ConfigError(
            f"sampler has {sampler.n} channels but target expects {entry.spec.n}"
        )
    try:
        targets.check_sampler(entry.spec, sampler)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if entry.spec.memory is not None and doc["T"] < entry.spec.memory + 1:
        raise ConfigError(
            f"T = {doc['T']} is shorter than the target memory {entry.spec.memory}"
        )
    if family == "constructed_shift" and entry.spec.kind != "finite_poly":
        raise ConfigError("constructed_shift requires a finite_poly target")
    if family == "constructed_nilpotent_sas" and entry.spec.kind != "trig_product":
        raise ConfigError("constructed_nilpotent_sas requires a trig_product target")
    if family == "constructed_block_esn" and entry.spec.memory is None:
        raise ConfigError("constructed_block_esn requires a finite-memory target")

    return ExperimentConfig(
        family=family,
        capacity=tuple(cap),
        sampler=sampler,
        target=entry,
        p=float(p),
        T=doc["T"],
        M_train=doc["M_train"],
        M_eval=doc["M_eval"],
        ridge=float(ridge),
        seed_train=seeds["train"],
        seed_eval=seeds["eval"],
        family_params=family_params,
    )


def load_sampler(doc: dict) -> processes.ProcessSampler:
    """Validate a sampler document {"kind", "n"?, "params"?}."""
    _require_keys(doc, {"kind"}, {"n", "params"}, "sampler")
    n, params = doc.get("n", 1), doc.get("params", {})
    if not _integer(n, 1):
        raise ConfigError("sampler: n must be an integer >= 1")
    if not isinstance(params, dict):
        raise ConfigError("sampler: params must be a JSON object")
    try:
        return processes.ProcessSampler(doc["kind"], n, dict(params))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"sampler: {exc}") from exc


# ---------------------------------------------------------------------------
# family builders


def _point_groups(cfg: ExperimentConfig) -> list[tuple[int, ...]]:
    """Capacity points that share one system, in config order.

    In linear_poly and linear_nn, capacity sizes the readout of one shift
    register, so all points share it; in every other family capacity
    builds the system, so each point stands alone.
    """
    if cfg.family in ("linear_poly", "linear_nn"):
        return [cfg.capacity]
    return [(c,) for c in cfg.capacity]


def _build_group(cfg: ExperimentConfig, capacities: tuple[int, ...]):
    """Build and certify one system and fit one readout per capacity.

    Returns (system, esp, fits, extras): fits holds one (readout, training
    diag) per capacity, all from one training stage; extras are artifact
    fields of the group's points.
    """
    spec, sampler, n, fp = cfg.target.spec, cfg.sampler, cfg.sampler.n, cfg.family_params
    fit_args = dict(ridge=cfg.ridge, seed=cfg.seed_train)
    extras: dict = {}

    def train(system):
        return training.sample_states(system, spec, sampler, cfg.T, cfg.M_train,
                                      cfg.seed_train)

    if cfg.family == "linear_poly":
        system = build_shift_register(n, fp["memory"])
        states, y = train(system)
        fits = [training.fit_polynomial_readout(states, y, c, **fit_args) for c in capacities]
    elif cfg.family == "linear_nn":
        system = build_shift_register(n, fp["memory"])
        states, y = train(system)
        fits = [training.fit_network_readout(states, y, c, **fit_args, activation=fp["activation"])
                for c in capacities]
    else:
        (capacity,) = capacities
        if cfg.family == "trig_sas":
            system = random_trig_sas(capacity, n, seed=cfg.seed_train, **fp)
            fits = [training.fit_linear_readout(*train(system), **fit_args)]
        elif cfg.family == "esn":
            system = random_esn(capacity, n, seed=cfg.seed_train, **fp)
            fits = [training.fit_linear_readout(*train(system), **fit_args)]
        elif cfg.family == "constructed_shift":
            system = build_shift_register(n, spec.memory)
            fits = [(targets._window_readout(spec), None)]
        elif cfg.family == "constructed_nilpotent_sas":
            system, readout = build_nilpotent_trig_sas(spec.params["freqs"],
                                                       spec.params["sine_lags"])
            fits = [(readout, None)]
        else:  # constructed_block_esn
            states, y = train(build_shift_register(n, spec.memory))
            inner, diag = training.fit_network_readout(
                states, y, capacity, **fit_args, activation=fp["activation"],
            )
            id_nets, eps = fit_identity_network(
                n, half_width=fp["half_width"], hidden_units=fp["identity_units"],
                activation=fp["activation"], seed=cfg.seed_train + 1,
            )
            system, readout = build_block_esn(inner, id_nets, n)
            fits = [(readout, diag)]
            extras["identity_sup_error"] = eps

    esp = certify_esp(system)
    if not esp.certified:
        raise EspNotCertifiedError(
            f"{cfg.family} at capacity {', '.join(map(str, capacities))}: certificate "
            f"failed ({esp.method}, bound {esp.bound:.4g})"
        )
    return system, esp, fits, extras


def run_experiment(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Run every capacity point and write results.csv plus JSON artifacts.

    Points that share a system (_point_groups) share its training stage
    and one evaluation pass; the values do not depend on the grouping.
    """
    out = Path(out_dir)
    if cfg.family == "linear_poly":  # polynomial density needs an exponential moment
        memory = cfg.target.spec.memory
        screen = processes.exp_moment_check(
            cfg.sampler, alpha=1.0, K=2 if memory is None else min(2, memory))
        if screen.verdict is processes.MomentVerdict.SUSPECT_INFINITE:  # proved per kind; warn only
            warnings.warn("input law flagged by the exponential-moment screen; polynomial "
                          "readout families may not be dense for this process",
                          RuntimeWarning, stacklevel=2)
    tail = targets.truncation_bound(cfg.target, cfg.sampler, cfg.T, cfg.p)
    rows = []
    for capacities in _point_groups(cfg):
        system, esp, fits, extras = _build_group(cfg, capacities)
        out.mkdir(parents=True, exist_ok=True)  # only once a point is built and certified
        estimates = metrics.approx_error(
            cfg.target.spec, system, [readout for readout, _ in fits],
            cfg.sampler, cfg.p, cfg.T, cfg.M_eval, cfg.seed_eval, train_seed=cfg.seed_train,
        )
        for capacity, (_, diag), est in zip(capacities, fits, estimates):
            metrics.warn_on_truncation(tail, est)
            rows.append({
                "family": cfg.family,
                "N": system.N,
                "target": cfg.target.name,
                "p": cfg.p,
                "value": est.value,
                "stderr": est.stderr,
                "M": est.M,
                "seed": est.seed,
            })
            artifact = {
                "schema_version": SCHEMA_VERSION,
                "family": cfg.family,
                "capacity": capacity,
                "state_dimension": system.N,
                "esp": esp.summary(),
                "training": diag,
                "truncation_bound": tail,
                "estimate": {"p": est.p, "value": est.value, "stderr": est.stderr,
                             "M": est.M, "seed": est.seed},
                **extras,
            }
            path = out / f"run_{cfg.family}_c{capacity}.json"
            path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    _write_rows_csv(out / "results.csv", rows)
    return rows


def _write_rows_csv(path: Path, rows: list[dict]) -> None:
    cols = ["family", "N", "target", "p", "value", "stderr", "M", "seed"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([
                row["family"], row["N"], row["target"], repr(row["p"]),
                repr(row["value"]), repr(row["stderr"]), row["M"], row["seed"],
            ])


def write_sample_paths(sampler: processes.ProcessSampler, T: int, M: int,
                       seed: int, out_dir) -> list[Path]:
    """Emit one window CSV per path; used by the sample subcommand.

    The paths are drawn first, so bad arguments raise before out_dir exists.
    """
    data = processes.sample_paths(sampler, T, M, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(M):
        p = out / f"path_{i:04d}.csv"
        write_window_csv(data[i], p)
        paths.append(p)
    return paths


# ---------------------------------------------------------------------------
# verify suites


@dataclass(frozen=True)
class PropertyCheck:
    """One verified property with its measured margin (<= 1 passes)."""

    name: str
    passed: bool
    margin: float
    detail: str


def _check(name: str, margin: float, detail: str) -> PropertyCheck:
    return PropertyCheck(name, bool(margin <= 1.0), float(margin), detail)


def _verify_product_rule() -> list[PropertyCheck]:
    import itertools

    worst = 0.0
    count = 0
    for N in range(2, 5):
        shifts = [np.zeros((N, N)) for _ in range(N)]
        for j in range(1, N):
            shifts[j][j, j - 1] = 1.0
        for L in range(1, 6):
            for idx in itertools.product(range(1, N), repeat=L):
                dense = np.eye(N)
                for j in idx:
                    dense = shifts[j] @ dense
                fast = nilpotent_product(N, idx)
                worst = max(worst, float(np.max(np.abs(dense - fast))))
                count += 1
    return [_check("shift_product_rule", worst / 1e-12 if worst else 0.0,
                   f"{count} index sequences, max deviation {worst:.1e}")]


def _verify_conditional_truncation() -> list[PropertyCheck]:
    entry = targets.geometric_ma(0.5)
    sampler = processes.iid_gaussian()
    lam = 0.5
    worst = 0.0
    cutoffs = (1, 3)
    estimates = truncated_conditional_error(
        entry.spec, cutoffs, sampler, p=2.0, M=4000, seed=11,
        window_length=40, inner_samples=100,
    )
    for K, est in zip(cutoffs, estimates):
        exact = lam ** (K + 1) / math.sqrt(1 - lam**2)
        worst = max(worst, abs(est.value - exact) / (3 * est.stderr))
    return [_check("conditional_truncation", worst,
                   f"max |estimate - closed form| over K in {cutoffs}: "
                   f"{worst:.2f} of 3 stderr")]


def _esp_fixtures():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    A *= 0.7 / np.linalg.norm(A, 2)
    yield "linear_contractive", reservoirs.LinearReservoir(A, rng.standard_normal((6, 2))), 2
    yield "shift_register", build_shift_register(2, 2), 2
    yield "nilpotent_sas", build_nilpotent_trig_sas(rng.standard_normal((3, 2)), (1,))[0], 2
    yield "contractive_sas", random_trig_sas(4, 2, terms=3, seed=7, contraction=0.8), 2
    yield "esn_logistic", reservoirs.EchoStateNetwork(
        3.0 * A[:4, :4], rng.standard_normal((4, 2)), rng.uniform(-0.1, 0.1, 4),
        "logistic"), 2
    yield "esn_tanh", random_esn(5, 2, seed=9, activation="tanh", spectral=0.9), 2


def _verify_esp() -> list[PropertyCheck]:
    sampler = processes.iid_gaussian(n=2)
    out = []
    slack = 1.0 + 1e-9
    for name, system, n in _esp_fixtures():
        rep = certify_esp(system)
        if not rep.certified:
            out.append(_check(f"esp_{name}", math.inf, "certificate failed"))
            continue
        worst = 0.0
        data = processes.sample_paths(sampler, 12, 10, seed=23)
        for d in washout_decay(system, data, seed=31):
            if d[0] == 0:
                continue
            for t in range(1, d.shape[0]):
                if rep.nilpotency_index is not None and t >= rep.nilpotency_index:
                    worst = max(worst, math.inf if d[t] != 0.0 else 0.0)
                else:
                    bound = d[0] * rep.bound**t * slack
                    worst = max(worst, d[t] / bound if bound > 0 else math.inf)
        out.append(_check(f"esp_{name}", worst,
                          f"method {rep.method}, bound {rep.bound:.3f}"))
    return out


def _verify_direct_sum() -> list[PropertyCheck]:
    rng = np.random.default_rng(17)
    sampler = processes.iid_gaussian(n=2)
    worst = 0.0
    for trial in range(5):
        K1, K2 = rng.integers(0, 4), rng.integers(0, 4)
        s1, r1 = build_nilpotent_trig_sas(
            rng.standard_normal((K1 + 1, 2)),
            [k for k in range(K1 + 1) if rng.uniform() < 0.5],
        )
        s2, r2 = build_nilpotent_trig_sas(
            rng.standard_normal((K2 + 1, 2)),
            [k for k in range(K2 + 1) if rng.uniform() < 0.5],
        )
        data = processes.sample_paths(sampler, max(K1, K2) + 2, 10, seed=trial * 10)
        y1 = eval_readout(r1, final_states(s1, data))
        y2 = eval_readout(r2, final_states(s2, data))
        states = final_states(direct_sum_sas(s1, s2), data)
        for lam in (-1.0, 2.5):
            y = eval_readout(LinearReadout(np.concatenate([r1.W, lam * r2.W])), states)
            worst = max(worst, float(np.max(np.abs(y - (y1 + lam * y2)))))
    return [_check("direct_sum_linearity", worst / 1e-10,
                   f"max |H - (H1 + lam H2)| = {worst:.1e}")]


def _verify_block_esn() -> list[PropertyCheck]:
    rng = np.random.default_rng(29)
    sampler = processes.iid_gaussian(n=1)
    worst = 0.0
    for activation in ("logistic", "tanh"):
        for K in (1, 2):
            inner = _random_inner_net(rng, n=1, K=K, units=10, activation=activation)
            id_nets, _ = fit_identity_network(1, 2.5, 12, activation, seed=3)
            system, readout = build_block_esn(inner, id_nets, n=1)
            data = processes.sample_paths(sampler, K + 2, 20, seed=41)
            direct = block_esn_functional(inner, id_nets, data)
            run = eval_readout(readout, final_states(system, data))
            worst = max(worst, float(np.max(np.abs(run - direct)
                                            / np.maximum(1.0, np.abs(direct)))))
    return [_check("block_esn_equivalence", worst / 1e-8,
                   f"max relative deviation {worst:.1e}")]


def _random_inner_net(rng, n: int, K: int, units: int, activation: str):
    from .readouts import NetworkReadout

    return NetworkReadout(
        rng.standard_normal(units),
        rng.standard_normal((units, n * (K + 1))),
        rng.standard_normal(units),
        activation,
    )


def _verify_stationarity() -> list[PropertyCheck]:
    entry = targets.geometric_ma(0.5)
    sampler = processes.iid_gaussian()
    probes = processes.shift_invariance_probe(
        sampler, entry.spec, p=2.0, shifts=(0, -5), T=40, M=4000, seed=53,
    )
    (e1, e2) = probes.values()
    gap = abs(e1.value - e2.value) / (3 * math.hypot(e1.stderr, e2.stderr))
    return [_check("stationarity_shift_probe", gap,
                   f"shift gap {gap:.2f} of 3 combined stderr")]


VERIFY_SUITES = {
    "product_rule": _verify_product_rule,
    "conditional_truncation": _verify_conditional_truncation,
    "esp": _verify_esp,
    "direct_sum": _verify_direct_sum,
    "block_esn": _verify_block_esn,
    "stationarity": _verify_stationarity,
}


def verify_suite(name: str = "all") -> list[PropertyCheck]:
    """Run one named suite, or every suite for 'all'."""
    if name == "all":
        out = []
        for fn in VERIFY_SUITES.values():
            out.extend(fn())
        return out
    try:
        fn = VERIFY_SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choices {sorted(VERIFY_SUITES)} or 'all'"
        ) from None
    return fn()
