"""Experiment configs, the run/verify/sample CLI, and output artifacts."""

import json
import math
import subprocess
import sys
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
    assert cfg.target.name == "finite_poly"
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
            check, want = harness._PARAM_RULES[key]
            # memory None means "the target's memory", resolved by load_config
            assert (key == "memory" and value is None) or check(value), (key, value, want)


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


def test_moment_screen_warns_once_per_experiment(tmp_path, monkeypatch):
    screens = []
    screen = rc.processes.exp_moment_check
    monkeypatch.setattr(rc.processes, "exp_moment_check",
                        lambda *a, **k: screens.append(k) or screen(*a, **k))
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
    assert screens == [{"alpha": 1.0, "K": 0}]


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
    (dict(target=_poly([], degree=-1)), "degree must be >= 0"),
    (_esn("constant", value=math.nan), "value must be a finite real"),
    (_esn("constant", value=math.inf), "value must be a finite real"),
    (_esn("garch_vol", omega=math.nan, alpha=0.1, beta=0.8), "omega must be a finite real"),
    (_esn("geometric_ma", decay=0.5, step_bound=math.nan), "step_bound must be a finite real"),
    (_esn("geometric_ma", decay=0.5, step_bound=-1.0), "step_bound must be a finite real"),
    (_esn("geometric_ma", decay=0.5, step_bound=_BIG), "step_bound must be a finite real"),
    (dict(family="constructed_nilpotent_sas",
          target={"name": "trig_product", "params": {"freqs": [[1.0], [math.nan]]}}),
     "freqs must be"),
    (dict(family="constructed_nilpotent_sas",
          target={"name": "trig_product", "params": {"freqs": [[[1.0]]]}}), "freqs must be"),
    (dict(target={"name": "random_finite_poly",
                  "params": {"n": 1, "K": 1, "degree": 2, "seed": 0, "density": 2.0}}),
     "density must lie in [0, 1]"),
    (dict(target=_poly([[[1, 1], 1.0]], K=True)), "need integers n >= 1 and K >= 0"),
    (dict(target=_poly([[[1, 1], "1.0"]])), "non-finite coefficient"),
    (dict(target=_poly([[[1.5, 0], 1.0]])), "bad multi-index"),
    (dict(target=_poly([[[1, 1], 1.0]], degree=2.7)), "degree must be >= 0 and an integer"),
], ids=["peak_hold_sampler", "log_sine_sampler", "exponent_length", "above_degree",
        "nan_coefficient", "negative_degree", "constant_nan", "constant_inf",
        "garch_vol_nan_omega", "step_bound_nan", "step_bound_negative", "step_bound_huge",
        "freqs_nan", "freqs_3d", "density_above_1", "bool_memory", "string_coefficient",
        "fractional_exponent", "fractional_degree"])
def test_cli_run_bad_target_exits_2_and_writes_nothing(tmp_path, capsys, overrides, message):
    out = tmp_path / "out"
    assert cli.main(["run", _write_cfg(tmp_path, _base_doc(**overrides)), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
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


def test_verify_suite_unknown_name():
    with pytest.raises(ValueError):
        verify_suite("bogus")


def test_property_check_margin_semantics():
    good = harness.PropertyCheck("x", True, 0.5, "ok")
    assert good.passed and good.margin <= 1.0
