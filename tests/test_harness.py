"""Experiment configs, the run/verify/sample CLI, and output artifacts."""

import importlib
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rcuniv as rc
from rcuniv import cli, harness
from rcuniv.harness import ConfigError, load_config, run_experiment, verify_suite


def _base_doc(**overrides):
    doc = {
        "schema_version": 1,
        "family": "constructed_shift",
        "capacity": [1],
        "sampler": {"kind": "iid_gaussian", "n": 1, "params": {}},
        "target": {
            "name": "finite_poly",
            "params": {
                "n": 1,
                "K": 1,
                "degree": 2,
                "coefficients": [[[1, 1], 1.0], [[2, 0], 0.5]],
            },
        },
        "p": 2.0,
        "T": 6,
        "washout": 0,
        "M_train": 50,
        "M_eval": 200,
        "ridge": 1e-10,
        "seeds": {"train": 11, "eval": 12},
    }
    doc.update(overrides)
    return doc


_GMA = {"name": "geometric_ma", "params": {"decay": 0.5}}
_TRIG = {"name": "trig_product", "params": {"freqs": [[1.0], [0.5]], "sine_lags": [1]}}


def _family(family, capacity=4, target=_GMA, **family_params):
    """A mutation that switches the base doc to another family."""
    return lambda d: d.update(family=family, capacity=[capacity], target=target,
                              family_params=family_params)


# ---------------------------------------------------------------------------
# config validation


def test_load_config_happy_path():
    cfg = load_config(_base_doc())
    assert cfg.family == "constructed_shift"
    assert cfg.capacity == (1,)
    assert cfg.sampler.kind == "iid_gaussian"
    assert cfg.target.kind == "finite_poly"
    assert cfg.seed_train == 11 and cfg.seed_eval == 12
    # defaults filled in, memory taken from the target
    assert load_config(_base_doc(family="linear_poly", capacity=[2])).family_params == {
        "memory": 1}
    doc = _base_doc(family="esn", capacity=[4], target=_GMA)
    assert load_config(doc).family_params == {
        "activation": "tanh", "spectral": 0.9, "input_scale": 0.1, "bias_scale": 0.1}


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(schema_version=2),
        lambda d: d.update(family="quantum"),
        lambda d: d.update(capacity=[]),
        lambda d: d.update(capacity=[2, 2]),
        lambda d: d.update(capacity=[True]),
        lambda d: d.update(capacity="3"),
        lambda d: d.update(p=0.5),
        lambda d: d.update(T=1),
        lambda d: d.update(washout=6),
        lambda d: d.update(M_train=2),
        lambda d: d.update(M_eval=1),
        lambda d: d.update(surprise=1),
        lambda d: d.update(seeds={"train": 3, "eval": 3}),
        lambda d: d.update(seeds={"train": 3}),
        lambda d: d.pop("ridge"),
        lambda d: d["sampler"].update(model="extra"),
        lambda d: d["sampler"].update(kind="levy"),
        lambda d: d["target"].update(name="mystery"),
        lambda d: d.update(capacity=[1, 2]),  # constructed family: one point
        # one case per family_params rule
        _family("linear_poly", memory=-1),
        _family("linear_nn", memory="3"),
        lambda d: d.update(family="linear_poly", family_params={"memory": None}),
        _family("esn", activation="relu"),
        _family("linear_nn", memory=3, activation=5),
        _family("trig_sas", terms=0),
        _family("trig_sas", terms="4"),
        _family("trig_sas", terms=2.5),
        _family("trig_sas", contraction=math.nan),
        _family("trig_sas", freq_scale=math.inf),
        _family("esn", spectral=0),
        _family("esn", spectral=-0.5),
        _family("esn", spectral="0.9"),
        _family("esn", spectral=True),
        _family("esn", input_scale=math.nan),
        _family("esn", bias_scale=-0.1),
        _family("constructed_block_esn", target=_TRIG, identity_units=0),
        _family("constructed_block_esn", target=_TRIG, half_width=0.0),
        # capacity floors
        _family("linear_poly", capacity=-1, memory=3),
        _family("linear_nn", capacity=0, memory=3),
        _family("trig_sas", capacity=0),
        _family("esn", capacity=0),
        _family("constructed_block_esn", capacity=0, target=_TRIG),
        # targets the constructed families cannot build
        _family("constructed_shift", capacity=1),
        _family("constructed_nilpotent_sas", capacity=1, target=_GMA),
        _family("constructed_block_esn", target=_GMA),
        # non-finite and boolean scalars
        lambda d: d.update(p=math.inf),
        lambda d: d.update(p=math.nan),
        lambda d: d.update(ridge=math.nan),
        lambda d: d.update(ridge=math.inf),
        lambda d: d.update(washout=True),
        # malformed sub-documents
        lambda d: d.update(sampler=5),
        lambda d: d.update(seeds=5),
        lambda d: d.update(target=7),
        lambda d: d.update(family_params=5),
        lambda d: d["sampler"].update(n=1.7),
        lambda d: d["sampler"].update(n=True),
        lambda d: d["sampler"].update(n=0),
        lambda d: d["sampler"].update(params=5),
        lambda d: d["sampler"].update(params={"std": "1"}),
    ],
)
def test_load_config_rejections(mutate):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(ConfigError):
        load_config(doc)


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(seed=3) or d.pop("washout"),
     "missing keys ['washout'] and unknown keys ['seed'] in config"),
    (lambda d: d.update(sampler=[1]),
     "sampler: the sampler document must be a JSON object, got list"),
    (lambda d: d["sampler"].pop("kind"), "sampler: missing keys ['kind'] in the sampler document"),
    (lambda d: d["sampler"].update(params={"mean": 0.0, "mu": 1.0}),
     "sampler: unknown keys ['mu'] in iid_gaussian params"),
    (lambda d: d["seeds"].update(test=3), "unknown keys ['test'] in seeds"),
    (lambda d: d.update(target={"params": {}}), "missing keys ['name'] in target"),
    (lambda d: d.update(family_params={"memoryy": 2}),
     "unknown keys ['memoryy'] in family_params of family 'constructed_shift'"),
    (lambda d: d.update(p=0.5), "p must be a finite number >= 1, got 0.5"),
    (lambda d: d.update(T=2.0), "T must be an integer >= 1, got 2.0"),
    (lambda d: d.update(M_train=4), "M_train must be an integer >= 5, got 4"),
    (lambda d: d.update(M_eval=True), "M_eval must be an integer >= 2, got True"),
    (lambda d: d.update(washout=-1), "washout must be an integer >= 0, got -1"),
    (lambda d: d.update(washout=6), "washout must be below T = 6, got 6"),
    (lambda d: d.update(ridge=-1e-3), "ridge must be a finite number >= 0, got -0.001"),
    (lambda d: d["seeds"].update(train=2**64), "seeds.train must be an integer in [0, 2**64)"),
    (lambda d: d.update(family="nope"),
     "family must be one of ['constructed_block_esn', 'constructed_nilpotent_sas', "
     "'constructed_shift', 'esn', 'linear_nn', 'linear_poly', 'trig_sas'], got 'nope'"),
    (lambda d: d["sampler"].update(kind=["iid_gaussian"]),
     "sampler: kind must be one of ['arma', 'garch11', 'iid_gaussian', 'iid_lognormal', "
     "'iid_uniform_bounded'], got ['iid_gaussian']"),
    (lambda d: d["target"].update(name="nope"), "target: name must be one of ['constant', "),
    (lambda d: d.update(target={"name": "geometric_ma", "params": {"decay": 0.5, "x": 1}}),
     "target: unknown keys ['x'] in params of target 'geometric_ma'"),
    (lambda d: d.update(target={"name": "geometric_ma", "params": {}}),
     "target: missing keys ['decay'] in params of target 'geometric_ma'"),
    (lambda d: d.update(target={"name": "geometric_ma", "params": 5}),
     "target: params of target 'geometric_ma' must be a JSON object, got int"),
    (lambda d: d.update(target={"name": "geometric_ma", "params": [["decay", 0.5]]}),
     "target: params of target 'geometric_ma' must be a JSON object, got list"),
    (lambda d: d.update(target={"name": "peak_hold", "params": None}),
     "target: params of target 'peak_hold' must be a JSON object, got NoneType"),
    (lambda d: d["target"]["params"].update(coefficients=5),
     "target: coefficients must be a list of [exponents, coefficient] pairs, got 5"),
    (lambda d: d["target"]["params"].update(coefficients="x"),
     "target: coefficients must be a list of [exponents, coefficient] pairs, got 'x'"),
], ids=["config_keys", "sampler_not_object", "sampler_kind", "sampler_params", "seeds_keys",
        "target_keys", "family_params_keys", "p", "T", "M_train", "M_eval", "washout_negative",
        "washout_T", "ridge", "seed", "unknown_family", "unknown_sampler_kind",
        "unknown_target", "target_params_unknown", "target_params_missing",
        "target_params_number", "target_params_pairs", "target_params_null", "coefficients_number",
        "coefficients_string"])
def test_load_config_names_what_is_wrong(mutate, message):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(doc)


def test_load_config_rejects_bad_sampler_params():
    doc = _base_doc(
        sampler={"kind": "garch11", "n": 1,
                 "params": {"omega": 0.1, "alpha": 0.5, "beta": 0.5}},
        target={"name": "geometric_ma", "params": {"decay": 0.5}},
        family="linear_poly",
        family_params={"memory": 3},
    )
    with pytest.raises(ConfigError, match="stationar"):
        load_config(doc)


def test_load_config_rejects_channel_mismatch():
    doc = _base_doc()
    doc["sampler"]["n"] = 2
    with pytest.raises(ConfigError):
        load_config(doc)


def test_load_config_needs_memory_for_unbounded_target():
    doc = _base_doc(
        family="linear_poly",
        target={"name": "geometric_ma", "params": {"decay": 0.5}},
        T=12,
    )
    with pytest.raises(ConfigError, match="memory"):
        load_config(doc)
    doc["family_params"] = {"memory": 4}
    cfg = load_config(doc)
    assert cfg.family_params["memory"] == 4


def test_load_config_rejects_unknown_family_params():
    doc = _base_doc(family_params={"memoryy": 2})
    with pytest.raises(ConfigError):
        load_config(doc)


def test_family_defaults_pass_their_rules():
    keys = {key for _, defaults in harness._FAMILIES.values() for key in defaults}
    assert keys == set(harness._PARAM_RULES)
    for _, defaults in harness._FAMILIES.values():
        for key, value in defaults.items():
            raiser, bounds = harness._PARAM_RULES[key]
            # memory None means "the target's memory", resolved by load_config
            if not (key == "memory" and value is None):
                raiser(*bounds, **{key: value})


# family_params key -> (a value it refuses, the exact message load_config gives)
_PARAM_MESSAGES = {
    "memory": (-1, "family_params.memory must be an integer >= 0, got -1"),
    "activation": ("relu", "family_params.activation must be one of "
                           "['hard_sigmoid', 'logistic', 'tanh'], got 'relu'"),
    "terms": (0, "family_params.terms must be an integer >= 1, got 0"),
    "contraction": (0.0, "family_params.contraction must be a finite number > 0, got 0.0"),
    "freq_scale": ("1", "family_params.freq_scale must be a finite number, got '1'"),
    "spectral": (-1, "family_params.spectral must be a finite number > 0, got -1"),
    "input_scale": (math.nan, "family_params.input_scale must be a finite number, got nan"),
    "bias_scale": (-0.5, "family_params.bias_scale must be a finite number >= 0, got -0.5"),
    "identity_units": (True, "family_params.identity_units must be an integer >= 1, got True"),
    "half_width": (0, "family_params.half_width must be a finite number > 0, got 0"),
}


@pytest.mark.parametrize("key", sorted(_PARAM_MESSAGES))
def test_each_family_param_keeps_its_message(key):
    assert set(_PARAM_MESSAGES) == set(harness._PARAM_RULES)
    family = next(f for f, (_, defaults) in harness._FAMILIES.items() if key in defaults)
    value, message = _PARAM_MESSAGES[key]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(_base_doc(family=family, capacity=[2], target=_GMA,
                              family_params={key: value}))


def test_readme_family_param_ranges_begin_with_their_rules():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    lines = text[text.index("| family | key | type and range | default |"):].splitlines()
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        _, key, cell, _ = (c.strip() for c in line.strip("|").split("|"))
        raiser, bounds = harness._PARAM_RULES[key.strip("`")]
        with pytest.raises(ValueError) as refused:
            raiser(*bounds, v=object())
        # "v must be an integer >= 0, got ..." reads "integer >= 0" in the table, and a
        # choice list ['a', 'b'] reads `a`, `b`
        words = re.sub(r"^an? ", "", str(refused.value).split(" must be ")[1].rsplit(", got ")[0])
        words = words.replace("[", "").replace("]", "").replace("'", "`")
        assert cell.startswith(words), (key, cell, words)


def test_readme_quick_start_prints_what_it_says(capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    with pytest.warns(RuntimeWarning, match="kurtosis"):
        exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert printed == "relative L2 error 0.119 +- 0.002\n"
    assert f"This prints `{printed.strip()}`" in text


def test_readme_lists_every_family_param_and_default():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    lines = text[text.index("| family | key | type and range | default |"):].splitlines()
    listed = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        family, key, _, default = (c.strip().strip("`") for c in line.strip("|").split("|"))
        listed[family, key] = None if default == "target memory" else json.loads(default)
    assert listed == {(family, key): value
                      for family, (_, defaults) in harness._FAMILIES.items()
                      for key, value in defaults.items()}


def test_readme_moment_table_names_each_kinds_verdict():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    lines = text[text.index("| kind | verdict | reason |"):].splitlines()
    verdicts = {}
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        kind, verdict, _ = (c.strip() for c in line.strip("|").split("|"))
        verdicts[kind.strip("`")] = verdict
    # each kind's factory with its defaults, and the required params where it has none
    defaults = {"iid_gaussian": rc.iid_gaussian(), "iid_lognormal": rc.iid_lognormal(),
                "iid_uniform_bounded": rc.iid_uniform_bounded(0.0, 1.0), "arma": rc.arma(),
                "garch11": rc.garch11(0.1, 0.1, 0.8)}
    assert set(verdicts) == set(rc.processes._KINDS) == set(defaults)
    for kind, sampler in defaults.items():
        assert f"`{rc.exp_moment_check(sampler).verdict.value}`" in verdicts[kind], kind
    assert all(f"`{v.value}`" in verdicts["garch11"] for v in rc.MomentVerdict)


def test_readme_dotted_names_resolve():
    # a backticked `rcuniv.<module>` or `rcuniv.<module>.<name>` names code that exists
    text = (Path(__file__).parents[1] / "README.md").read_text()
    names = sorted(set(re.findall(r"`rcuniv\.(\w+)(?:\.(\w+))?`", text)))
    assert names
    unresolved = []
    for module, name in names:
        try:
            found = importlib.import_module(f"rcuniv.{module}")
        except ImportError:
            found = None
        if found is None or (name and not hasattr(found, name)):
            unresolved.append(".".join(filter(None, ("rcuniv", module, name))))
    assert not unresolved, f"README names code that does not exist: {unresolved}"


def test_readme_example_config_loads():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    (block,) = [b.split("```", 1)[0] for b in text.split("```json\n")[1:]]
    doc = json.loads(block)
    cfg = load_config(doc)
    assert (cfg.family, cfg.capacity, cfg.T, doc["washout"]) == ("esn", (50, 100, 200), 60, 20)


# ---------------------------------------------------------------------------
# experiments


def test_constructed_shift_run_is_exact(tmp_path):
    cfg = load_config(_base_doc())
    rows = run_experiment(cfg, tmp_path)
    assert len(rows) == 1
    assert rows[0]["value"] < 1e-10
    assert rows[0]["N"] == 2
    art = json.loads((tmp_path / "run_constructed_shift_c1.json").read_text())
    assert art["esp"]["method"] == "nilpotent"
    assert art["truncation_bound"] == 0.0


def test_run_outputs_are_byte_identical(tmp_path):
    cfg = load_config(_base_doc())
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, a)
    run_experiment(cfg, b)
    for name in ("results.csv", "run_constructed_shift_c1.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_linear_poly_capacity_sweep(tmp_path):
    doc = _base_doc(
        family="linear_poly",
        capacity=[1, 2],
        target={"name": "geometric_ma", "params": {"decay": 0.5}},
        family_params={"memory": 3},
        T=12,
        M_train=200,
        M_eval=200,
        ridge=1e-8,
    )
    rows = run_experiment(load_config(doc), tmp_path)
    assert [r["N"] for r in rows] == [4, 4]
    assert all(np.isfinite(r["value"]) for r in rows)
    csv_lines = (tmp_path / "results.csv").read_text().splitlines()
    assert csv_lines[0] == "family,N,target,p,value,stderr,M,seed"
    assert len(csv_lines) == 3
    art = json.loads((tmp_path / "run_linear_poly_c2.json").read_text())
    assert set(art["training"]) >= {"lambda", "rmse_train", "rmse_holdout"}


def test_results_name_the_target_by_its_kind(tmp_path):
    # random_finite_poly builds a finite_poly, and the csv names what was built
    doc = _base_doc(target={"name": "random_finite_poly",
                            "params": {"n": 1, "K": 1, "degree": 2, "seed": 4}})
    run_experiment(load_config(doc), tmp_path)
    header, row = (tmp_path / "results.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["target"] == "finite_poly"


_GARCH = {"omega": 0.1, "alpha": 0.1, "beta": 0.8}
# the garch_poly benchmark law at small M, and a linear_nn sweep
_SHARED_SWEEPS = {
    "linear_poly_garch": dict(
        family="linear_poly", capacity=[2, 3], T=10, M_train=300, M_eval=400,
        sampler={"kind": "garch11", "n": 1, "params": _GARCH},
        target={"name": "garch_vol", "params": _GARCH}, family_params={"memory": 3}),
    "linear_nn": dict(
        family="linear_nn", capacity=[4, 9], T=12, M_train=300, M_eval=400, ridge=1e-6,
        target=_GMA, family_params={"memory": 3}),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_SHARED_SWEEPS))
def test_shared_points_write_the_bytes_of_single_point_runs(tmp_path, name):
    doc = _base_doc(**_SHARED_SWEEPS[name])
    family, capacity = doc["family"], doc["capacity"]
    run_experiment(load_config(doc), tmp_path / "sweep")
    sweep_rows = (tmp_path / "sweep" / "results.csv").read_text().splitlines()
    assert len(sweep_rows) == 1 + len(capacity)
    for i, c in enumerate(capacity):
        single = tmp_path / f"c{c}"
        run_experiment(load_config({**doc, "capacity": [c]}), single)
        assert (single / "results.csv").read_text().splitlines() == [
            sweep_rows[0], sweep_rows[1 + i]]
        artifact = f"run_{family}_c{c}.json"
        assert (single / artifact).read_bytes() == (tmp_path / "sweep" / artifact).read_bytes()


def _draw_spy(monkeypatch):
    """Record (T, M, seed, path_offset) of every path draw of training and metrics."""
    draws = []
    for module in (rc.training, rc.metrics):
        monkeypatch.setattr(module, "sample_paths",
                            lambda s, T, M, seed, path_offset=0, _draw=module.sample_paths:
                            draws.append((T, M, seed, path_offset))
                            or _draw(s, T, M, seed, path_offset=path_offset))
    return draws


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_linear_sweep_draws_each_window_once_whatever_the_capacity_count(tmp_path, monkeypatch):
    # M_eval 2100 is two evaluation chunks: 2048 paths, then 52
    doc = _base_doc(**{**_SHARED_SWEEPS["linear_poly_garch"], "M_eval": 2100})
    draws = _draw_spy(monkeypatch)
    want = [(10, 300, 11, 0), (10, 2048, 12, 0), (10, 52, 12, 2048)]
    for capacity in ([2], [1, 2, 3]):
        draws.clear()
        rows = run_experiment(load_config({**doc, "capacity": capacity}), tmp_path / "out")
        assert len(rows) == len(capacity)
        assert draws == want


def test_esn_sweep_still_draws_per_point(tmp_path, monkeypatch):
    # each esn point builds its own system, so it trains and evaluates alone
    doc = _base_doc(family="esn", capacity=[4, 6], target=_GMA, T=12, M_train=40, M_eval=30)
    draws = _draw_spy(monkeypatch)
    run_experiment(load_config(doc), tmp_path)
    assert draws == [(12, 40, 11, 0), (12, 30, 12, 0)] * 2


def test_run_warns_when_the_truncation_bound_is_not_negligible(tmp_path):
    # geometric_ma(0.9) at T = 8: the tail bound 0.9^8 sqrt(1 / 0.19) = 0.99 dwarfs
    # a tenth of any stderr at M_eval 400; the warning fires once per point
    doc = _base_doc(family="esn", capacity=[4, 6], T=8, M_train=40, M_eval=400,
                    target={"name": "geometric_ma", "params": {"decay": 0.9}})
    with pytest.warns(RuntimeWarning, match="truncation bound") as record:
        run_experiment(load_config(doc), tmp_path)
    assert len([w for w in record if "truncation bound" in str(w.message)]) == 2
    # a finite-memory target has bound 0 at T >= memory + 1: no warning
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        run_experiment(load_config(_base_doc()), tmp_path / "exact")
    assert not [w for w in record if "truncation bound" in str(w.message)]


def test_moment_screen_warns_once_per_experiment(tmp_path, monkeypatch):
    screens = []
    screen = rc.processes.exp_moment_check
    monkeypatch.setattr(rc.processes, "exp_moment_check",
                        lambda *a, **k: screens.append((a, k)) or screen(*a, **k))
    doc = _base_doc(
        family="linear_poly",
        capacity=[1, 2],
        sampler={"kind": "iid_lognormal", "n": 1},
        target={"name": "log_sine"},
        T=2,
        M_train=200,
        M_eval=200,
        ridge=1e-8,
    )
    with pytest.warns(RuntimeWarning, match="exponential-moment screen") as record:
        run_experiment(load_config(doc), tmp_path)
    assert len([w for w in record if "moment" in str(w.message)]) == 1
    assert screens == [((rc.iid_lognormal(1),), {})]


def test_each_point_proves_its_certificate_once(tmp_path, monkeypatch):
    # training, the point builder and the artifact all ask for the certificate
    proofs = []
    prove = rc.reservoirs._support_nilpotency_index
    monkeypatch.setattr(rc.reservoirs, "_support_nilpotency_index",
                        lambda support: proofs.append(support.shape) or prove(support))
    doc = _base_doc(
        family="esn",
        capacity=[4, 6],
        target={"name": "geometric_ma", "params": {"decay": 0.5}},
        T=12,
        M_train=40,
        M_eval=30,
    )
    run_experiment(load_config(doc), tmp_path)
    assert proofs == [(4, 4), (6, 6)]


def test_trig_sas_family_runs(tmp_path):
    doc = _base_doc(
        family="trig_sas",
        capacity=[4],
        target={"name": "geometric_ma", "params": {"decay": 0.5}},
        family_params={"terms": 3, "contraction": 0.8},
        T=10,
        M_train=100,
        M_eval=100,
        ridge=1e-6,
    )
    rows = run_experiment(load_config(doc), tmp_path)
    assert rows[0]["N"] == 4 and np.isfinite(rows[0]["value"])
    art = json.loads((tmp_path / "run_trig_sas_c4.json").read_text())
    assert art["esp"]["certified"] is True


def test_constructed_block_esn_family_runs(tmp_path):
    doc = _base_doc(
        family="constructed_block_esn",
        capacity=[16],
        target={
            "name": "trig_product",
            "params": {"freqs": [[1.0], [0.7]], "sine_lags": [0]},
        },
        family_params={"identity_units": 16, "half_width": 3.0},
        T=6,
        M_train=300,
        M_eval=200,
        ridge=1e-8,
    )
    rows = run_experiment(load_config(doc), tmp_path)
    art = json.loads((tmp_path / "run_constructed_block_esn_c16.json").read_text())
    assert art["esp"]["method"] == "nilpotent"
    assert art["identity_sup_error"] < 0.05
    # target norm is ~0.55; the trained block system should land well below
    assert rows[0]["value"] < 0.2


def test_block_esn_identity_seed_stays_in_64_bits(tmp_path, monkeypatch):
    # the identity networks take the train seed plus one, wrapped at 2**64 - 1
    seeds = []
    fit = harness.fit_identity_network
    monkeypatch.setattr(harness, "fit_identity_network",
                        lambda *a, **k: seeds.append(k["seed"]) or fit(*a, **k))
    for train in (5, 2**64 - 1):
        doc = _base_doc(
            family="constructed_block_esn", capacity=[4], seeds={"train": train, "eval": 1},
            target={"name": "trig_product", "params": {"freqs": [[1.0], [0.7]]}},
            family_params={"identity_units": 4}, M_train=20, M_eval=20,
        )
        run_experiment(load_config(doc), tmp_path / str(train))
    assert seeds == [6, 0]


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_import_loads_no_scipy():
    code = ("import sys, rcuniv, rcuniv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_cli_run_ok(tmp_path, capsys):
    rcfile = _write_cfg(tmp_path, _base_doc())
    code = cli.main(["run", rcfile, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "results.csv").exists()
    assert "constructed_shift" in capsys.readouterr().out


def test_cli_run_bad_configs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad), "--out", str(tmp_path / "o1")]) == 2
    assert cli.main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o2")]) == 2
    doc = _base_doc(schema_version=9)
    assert cli.main(["run", _write_cfg(tmp_path, doc), "--out", str(tmp_path / "o3")]) == 2
    capsys.readouterr()


def test_cli_run_bad_value_exits_before_any_work(tmp_path, monkeypatch, capsys):
    screens = []
    screen = rc.processes.exp_moment_check
    monkeypatch.setattr(rc.processes, "exp_moment_check",
                        lambda *a, **k: screens.append(k) or screen(*a, **k))
    doc = _base_doc(
        family="linear_poly",
        capacity=[2],
        sampler={"kind": "garch11", "n": 1,
                 "params": {"omega": 0.1, "alpha": 0.1, "beta": 0.8}},
        target=_GMA,
        family_params={"memory": -1},
        T=12,
    )
    out = tmp_path / "out"
    assert cli.main(["run", _write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert "config error: family_params.memory" in capsys.readouterr().err
    assert not (out / "results.csv").exists()
    assert screens == []


def _poly(coefficients, degree=2, K=1):
    return {"name": "finite_poly",
            "params": {"n": 1, "K": K, "degree": degree, "coefficients": coefficients}}


def _esn(name, **params):
    """An esn run of a target that the family would otherwise accept."""
    return dict(family="esn", capacity=[4], target={"name": name, "params": params})


_BIG = 10**400  # an integer past float range


@pytest.mark.parametrize("overrides, message", [
    (dict(family="linear_poly", capacity=[2], target={"name": "peak_hold"},
          family_params={"memory": 3}), "requires a sampler"),
    (dict(family="linear_poly", capacity=[2], target={"name": "log_sine"}),
     "requires a sampler"),
    (dict(target=_poly([[[1, 1, 1], 1.0]])), "bad multi-index"),
    (dict(target=_poly([[[2, 1], 1.0]])), "exceeds degree"),
    (dict(target=_poly([[[1, 1], math.nan]])), "non-finite coefficient"),
    (dict(target=_poly([], degree=-1)), "degree must be an integer >= 0, got -1"),
    (_esn("constant", value=math.nan), "value must be a finite number, got nan"),
    (_esn("constant", value=math.inf), "value must be a finite number, got inf"),
    (_esn("garch_vol", omega=math.nan, alpha=0.1, beta=0.8), "omega must be a finite number"),
    # the input law is the sampler's alone: the removed tail param is an unknown key
    (_esn("geometric_ma", decay=0.5, step_bound=1.0),
     "config error: target: unknown keys ['step_bound'] in params of target 'geometric_ma'"),
    (dict(family="constructed_nilpotent_sas",
          target={"name": "trig_product", "params": {"freqs": [[1.0], [math.nan]]}}),
     "config error: target: freqs has non-finite entries"),
    (dict(family="constructed_nilpotent_sas",
          target={"name": "trig_product", "params": {"freqs": [[[1.0]]]}}), "freqs must be"),
    (dict(target={"name": "random_finite_poly",
                  "params": {"n": 1, "K": 1, "degree": 2, "seed": 0, "density": 2.0}}),
     "density must lie in [0, 1]"),
    (dict(target=_poly([[[1, 1], 1.0]], K=True)), "K must be an integer >= 0, got True"),
    (dict(target=_poly([[[1, 1], "1.0"]])), "non-finite coefficient"),
    (dict(target=_poly([[[1.5, 0], 1.0]])), "bad multi-index"),
    (dict(target=_poly([[[1, 1], 1.0]], degree=2.7)), "degree must be an integer >= 0, got 2.7"),
    # a repeated exponent pair is refused, not overwritten by the last one
    (dict(target=_poly([[[1, 1], 1.0], [[1, 1], 2.0]])),
     "config error: target: exponents [1, 1] appear twice in the polynomial coefficients"),
    (dict(target=_poly([5])),
     "config error: target: polynomial term 0 must be [exponents, coefficient], got 5"),
    (dict(target=_poly([[5, 1.0]])),
     "config error: target: exponents of polynomial term 0 must be a list, got 5"),
], ids=["peak_hold_sampler", "log_sine_sampler", "exponent_length", "above_degree",
        "nan_coefficient", "negative_degree", "constant_nan", "constant_inf",
        "garch_vol_nan_omega", "step_bound",
        "freqs_nan", "freqs_3d", "density_above_1", "bool_memory", "string_coefficient",
        "fractional_exponent", "fractional_degree", "duplicate_exponents", "term_not_a_pair",
        "exponents_not_a_list"])
def test_cli_run_bad_target_exits_2_and_writes_nothing(tmp_path, capsys, overrides, message):
    out = tmp_path / "out"
    assert cli.main(["run", _write_cfg(tmp_path, _base_doc(**overrides)), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("contraction", [-0.5, 0])
def test_cli_run_nonpositive_contraction_exits_2_and_writes_nothing(tmp_path, capsys, contraction):
    doc = _base_doc(family="trig_sas", capacity=[4], target=_GMA,
                    family_params={"contraction": contraction})
    out = tmp_path / "out"
    assert cli.main(["run", _write_cfg(tmp_path, doc), "--out", str(out)]) == 2
    assert ("config error: family_params.contraction must be a finite number > 0, "
            f"got {contraction!r}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    dict(ridge=_BIG),
    dict(p=_BIG),
    dict(family="esn", capacity=[4], target=_GMA, family_params={"spectral": _BIG}),
], ids=["ridge", "p", "spectral"])
def test_cli_run_huge_integer_exits_2_and_writes_nothing(tmp_path, capsys, overrides):
    out = tmp_path / "out"
    assert cli.main(["run", _write_cfg(tmp_path, _base_doc(**overrides)), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    dict(seeds={"train": 0, "eval": 2**64}),  # 2**64 would redraw the training paths
    dict(family="esn", capacity=[4], target=_GMA, seeds={"train": -1, "eval": 12}),
], ids=["eval_2_to_64", "esn_train_negative"])
def test_cli_run_seed_outside_64_bits_exits_2_and_writes_nothing(tmp_path, capsys, overrides):
    out = tmp_path / "out"
    assert cli.main(["run", _write_cfg(tmp_path, _base_doc(**overrides)), "--out", str(out)]) == 2
    assert "must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_esp_failure_exit_code(tmp_path, capsys):
    doc = _base_doc(
        family="esn",
        capacity=[6],
        target={"name": "geometric_ma", "params": {"decay": 0.5}},
        family_params={"spectral": 1.3},
        T=8,
        M_train=30,
        M_eval=20,
        ridge=1e-6,
    )
    code = cli.main(["run", _write_cfg(tmp_path, doc), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "certification" in capsys.readouterr().err


def test_cli_run_esp_failure_leaves_no_out_dir(tmp_path, capsys):
    doc = _base_doc(family="esn", capacity=[4], target=_GMA, family_params={"spectral": 5.0})
    out = tmp_path / "out"
    assert cli.main(["run", _write_cfg(tmp_path, doc), "--out", str(out)]) == 3
    assert "certification" in capsys.readouterr().err
    assert not out.exists()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_artifacts_are_strict_json(tmp_path, monkeypatch):
    # garch_vol on GARCH inputs has no known L^2 tail bound: null, not Infinity
    garch = {"omega": 0.1, "alpha": 0.1, "beta": 0.8}
    doc = _base_doc(family="linear_poly", capacity=[1, 2], T=8, M_train=200, M_eval=100,
                    sampler={"kind": "garch11", "n": 1, "params": garch},
                    target={"name": "garch_vol", "params": garch},
                    family_params={"memory": 2})
    calls = []
    bound = harness.targets.truncation_bound
    monkeypatch.setattr(harness.targets, "truncation_bound",
                        lambda *a: calls.append(a) or bound(*a))
    with pytest.warns(RuntimeWarning, match="exponential-moment"):
        run_experiment(load_config(doc), tmp_path)
    assert len(calls) == 1  # once per run, not per capacity point
    for c in (1, 2):
        art = json.loads((tmp_path / f"run_linear_poly_c{c}.json").read_text(),
                         parse_constant=_reject_constant)
        assert art["truncation_bound"] is None


def test_cli_run_overflow_exit_code(tmp_path, monkeypatch, capsys):
    def boom(cfg, out):
        raise rc.StateOverflowError("state left binary64 range")

    monkeypatch.setattr(harness, "run_experiment", boom)
    code = cli.main(["run", _write_cfg(tmp_path, _base_doc()), "--out", str(tmp_path / "out")])
    assert code == 4
    assert "overflow" in capsys.readouterr().err


def test_cli_verify_selectors(capsys):
    assert cli.main(["verify", "product_rule"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert cli.main(["verify", "nosuch"]) == 2
    capsys.readouterr()


def test_cli_verify_json_report(capsys):
    assert cli.main(["verify", "direct_sum", "--json"]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("[") :]
    report = json.loads(payload)
    assert report[0]["passed"] is True


def test_record_formats_are_pinned(tmp_path, capsys):
    # literal key lists, so a field added to LpEstimate, EspReport or PropertyCheck
    # shows here before it changes an artifact or the verify report
    run_experiment(load_config(_base_doc()), tmp_path)
    art = json.loads((tmp_path / "run_constructed_shift_c1.json").read_text())
    assert sorted(art) == ["capacity", "esp", "estimate", "family", "schema_version",
                           "state_dimension", "training", "truncation_bound"]
    assert sorted(art["estimate"]) == ["M", "p", "seed", "stderr", "value"]
    assert sorted(art["esp"]) == ["bound", "certified", "method", "nilpotency_index"]
    assert cli.main(["verify", "product_rule", "--json"]) == 0
    out = capsys.readouterr().out
    (entry,) = json.loads(out[out.index("[") :])
    assert sorted(entry) == ["detail", "margin", "name", "passed"]


def test_cli_sample_round_trip(tmp_path, capsys):
    samp = tmp_path / "sampler.json"
    samp.write_text(json.dumps({
        "kind": "iid_uniform_bounded", "n": 2,
        "params": {"a_min": -1.0, "a_max": 1.0},
    }))
    out = tmp_path / "paths"
    code = cli.main(["sample", str(samp), "-T", "5", "-M", "3",
                     "--seed", "21", "--out", str(out)])
    assert code == 0
    files = sorted(out.iterdir())
    assert [f.name for f in files] == ["path_0000.csv", "path_0001.csv", "path_0002.csv"]
    data = rc.sample_paths(rc.iid_uniform_bounded(-1.0, 1.0, n=2), 5, 3, 21)
    for i, f in enumerate(files):
        np.testing.assert_array_equal(rc.read_window_csv(f), data[i])
    capsys.readouterr()


def test_cli_sample_writes_the_pinned_bytes(tmp_path, capsys):
    # csv's \r\n rows and repr floats: the exact text the sample subcommand has always written
    samp = tmp_path / "sampler.json"
    samp.write_text(json.dumps({"kind": "iid_gaussian", "n": 2,
                                "params": {"mean": 0.5, "std": 2.0}}))
    out = tmp_path / "paths"
    assert cli.main(["sample", str(samp), "-T", "3", "-M", "2", "--seed", "5",
                     "--out", str(out)]) == 0
    assert (out / "path_0000.csv").read_bytes() == (
        b"lag,ch0,ch1\r\n"
        b"0,-2.68396903934249,2.4434517849804185\r\n"
        b"1,1.4521146064350154,1.4924068644378967\r\n"
        b"2,1.6691553606760134,3.113447093202015\r\n")
    assert (out / "path_0001.csv").read_bytes() == (
        b"lag,ch0,ch1\r\n"
        b"0,1.356804750314461,0.6633786424229259\r\n"
        b"1,-2.4541292595052493,-2.5393373031940816\r\n"
        b"2,-1.1378099154714911,0.9289742221667904\r\n")
    assert sorted(f.name for f in out.iterdir()) == ["path_0000.csv", "path_0001.csv"]
    capsys.readouterr()


def test_cli_sample_rejects_unknown_keys(tmp_path, capsys):
    samp = tmp_path / "sampler.json"
    for doc in ({"kind": "iid_gaussian", "n": 1, "mu": 0.0},
                {"kind": "iid_gaussian", "n": 2.7},  # not an integer channel count
                [{"kind": "iid_gaussian"}]):
        samp.write_text(json.dumps(doc))
        assert cli.main(["sample", str(samp), "-T", "2", "-M", "1",
                         "--seed", "0", "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
    # a valid sampler with arguments sample_paths rejects: the paths are drawn first
    samp.write_text(json.dumps({"kind": "iid_gaussian", "n": 1}))
    for T, M, seed in (("0", "1", "0"), ("2", "0", "0"), ("2", "1", "-1"),
                       ("2", "1", str(2**64))):
        assert cli.main(["sample", str(samp), "-T", T, "-M", M,
                         "--seed", seed, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
    capsys.readouterr()


@pytest.mark.parametrize("params", [{"mu": 3.0}, {"std": math.nan}, {"mean": math.inf}],
                         ids=["unknown_key", "nan", "infinite"])
def test_cli_sample_rejects_bad_sampler_params(tmp_path, capsys, params):
    samp = tmp_path / "sampler.json"
    samp.write_text(json.dumps({"kind": "iid_gaussian", "n": 1, "params": params}))
    assert cli.main(["sample", str(samp), "-T", "2", "-M", "1",
                     "--seed", "0", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: sampler: ")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# verify suites as a library


def test_verify_suite_all_passes():
    checks = verify_suite("all")
    assert len(checks) == len(
        [c for s in harness.VERIFY_SUITES.values() for c in [s]]
    ) or len(checks) >= 6
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_conditional_truncation_margin_equals_two_single_cutoff_calls():
    # the suite scores K = 1 and 3 in one sweep call; each cutoff's estimate,
    # and so the margin, must be that of its own single-cutoff call
    spec = rc.geometric_ma(0.5)
    kw = dict(sampler=rc.iid_gaussian(), p=2.0, M=4000, seed=11, window_length=40,
              inner_samples=1)
    worst = 0.0
    for K in (1, 3):
        (est,) = rc.truncated_conditional_error(spec, (K,), **kw)
        exact = 0.5 ** (K + 1) / math.sqrt(1 - 0.5**2)
        worst = max(worst, abs(est.value - exact) / (3 * est.stderr))
    (check,) = verify_suite("conditional_truncation")
    assert (check.name, check.margin) == ("conditional_truncation", worst)


def test_product_rule_fails_on_a_reversed_link(monkeypatch):
    build = harness.build_nilpotent_trig_sas

    def reversed_link(freqs, sine_lags=()):
        system, readout = build(freqs, sine_lags)
        P = system.P
        cos_mats = P.cos_mats.copy()
        cos_mats[-1] = cos_mats[-1].T  # the chain's first link points up, not down
        P = rc.TrigPolynomial(cos_mats, P.sin_mats, P.cos_freqs, P.sin_freqs)
        return rc.TrigSAS(P, system.Q), readout

    (check,) = verify_suite("product_rule")
    assert (check.name, check.passed, check.margin) == ("shift_product_rule", True, 0.0)
    monkeypatch.setattr(harness, "build_nilpotent_trig_sas", reversed_link)
    (check,) = verify_suite("product_rule")
    assert check.name == "shift_product_rule" and not check.passed and check.margin > 1.0


def test_verify_suite_unknown_name():
    with pytest.raises(ValueError, match=r"^suite must be one of \['all', 'block_esn', .*, got 'bogus'$"):
        verify_suite("bogus")


def test_property_check_margin_semantics():
    good = harness.PropertyCheck("x", True, 0.5, "ok")
    assert good.passed and good.margin <= 1.0
