import math

import numpy as np

import gate
from run import parse_importtime

REF = [[50, 0.7311213419436716, 0.007907371069233566],
       [100, 0.3129014566823087, 0.003903021862358281]]


def _points(values=None, certified=True):
    values = values or [(r[1], r[2]) for r in REF]
    return [{"N": r[0], "value": v, "stderr": s, "certified": certified}
            for r, (v, s) in zip(REF, values)]


def test_gate_accepts_exact_and_rounding_level_values():
    assert gate.point_failures(_points(), REF) == [None, None]
    nudged = [(float(np.nextafter(v, 1.0)), s * (1 + 4e-16)) for _, v, s in REF]
    assert gate.point_failures(_points(nudged), REF) == [None, None]
    amplified = [(v * (1 + 1e-12), s * (1 - 1e-12)) for _, v, s in REF]
    assert gate.point_failures(_points(amplified), REF) == [None, None]


def test_gate_rejects_a_perturbed_value_or_stderr():
    moved = [(REF[0][1] * (1 + 1e-6), REF[0][2]), (REF[1][1], REF[1][2])]
    out = gate.point_failures(_points(moved), REF)
    assert out[0] is not None and out[1] is None
    # a stderr with ddof 0 instead of 1 moves by about 1 / (2 M)
    ddof0 = [(v, s * math.sqrt(4999 / 5000)) for _, v, s in REF]
    assert all(r is not None for r in gate.point_failures(_points(ddof0), REF))


def test_gate_rejects_uncertified_missing_and_non_finite_points():
    assert gate.point_failures(_points(certified=False), REF)[0] == "not certified"
    assert gate.point_failures([None, _points()[1]], REF)[0] == "missing from outputs"
    nan = [(math.nan, REF[0][2]), (REF[1][1], math.inf)]
    assert gate.point_failures(_points(nan), REF) == ["value not finite"] * 2


def test_gate_without_reference_requires_identical_reruns():
    first = _points()
    assert gate.point_failures(first) == [None, None]
    assert gate.point_failures(_points(), previous=first) == [None, None]
    nudged = [(float(np.nextafter(REF[0][1], 1.0)), REF[0][2]), (REF[1][1], REF[1][2])]
    assert gate.point_failures(_points(nudged), previous=first)[0] is not None


def test_verify_gate_flags_fail_and_missing_checks():
    out = ("PASS a margin=0.1 (x)\n"
           "FAIL b margin=2 (y)\n"
           "PASS extra margin=0 (z)\n")
    assert gate.verify_failures(out, ["a", "b", "c"]) == {
        "a": None, "b": "FAIL", "c": "missing", "extra": None}


def test_read_points_from_cli_outputs(tmp_path):
    (tmp_path / "results.csv").write_text(
        "family,N,target,p,value,stderr,M,seed\n"
        f"esn,50,geometric_ma,2.0,{REF[0][1]!r},{REF[0][2]!r},5000,12\n")
    (tmp_path / "run_esn_c50.json").write_text('{"esp": {"certified": true}}')
    points = gate.read_points(tmp_path, "esn", [50, 100])
    assert points[0] == {"N": 50, "value": REF[0][1], "stderr": REF[0][2], "certified": True}
    assert points[1] is None


def test_parse_importtime_sums_outermost_scipy_modules():
    text = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy
import time:       300 |        300 |       scipy._lib
import time:       200 |        700 |     scipy
import time:        50 |        900 |   scipy.stats
import time:        40 |         40 |     scipy.signal.nested
import time:        10 |         60 |   scipy.signal
import time:        20 |       1200 | rcuniv
"""
    out = parse_importtime(text)
    assert out["import.rcuniv_s"] == 1200e-6
    assert math.isclose(out["import.scipy_s"], 960e-6)


def test_benchmark_json_lists_exactly_the_printed_metrics():
    import json
    from pathlib import Path

    import run

    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_seed_zero_is_the_readme_config():
    import run

    cfg = run.workload_config("esn_sweep", 0)
    assert cfg["seeds"] == {"train": 11, "eval": 12}
    assert run.workload_config("garch_poly", 3)["seeds"] == {"train": 3011, "eval": 3012}
