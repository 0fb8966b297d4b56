"""Golden pins: one small config per harness family, outputs pinned exactly.

For each family the pinned fields are the results.csv value and stderr as
repr strings and the per-point artifact's esp and training blocks.  A
change that moves a pinned number must rewrite the pins in the same change
and say which numbers moved, by how much, and why.  Rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import sys
from pathlib import Path

import pytest

from rcuniv import harness

GOLDEN = Path(__file__).with_name("golden.json")

_SHIFT_POLY = {
    "n": 1, "K": 1, "degree": 2,
    "coefficients": [[[1, 1], 1.0], [[2, 0], 0.5]],
}
_TRIG = {"freqs": [[1.0], [0.5]], "sine_lags": [1]}

CONFIGS = {
    "linear_poly": dict(
        capacity=[2], T=6,
        target={"name": "finite_poly", "params": _SHIFT_POLY},
    ),
    "linear_nn": dict(
        capacity=[8], T=12,
        target={"name": "geometric_ma", "params": {"decay": 0.5}},
        family_params={"memory": 3},
    ),
    "trig_sas": dict(
        capacity=[6], T=12,
        target={"name": "geometric_ma", "params": {"decay": 0.5}},
        family_params={"terms": 2},
    ),
    "esn": dict(
        capacity=[10], T=12,
        sampler={"kind": "arma", "n": 1, "params": {"ar": [0.5], "ma": [0.3]}},
        target={"name": "geometric_ma", "params": {"decay": 0.5}},
    ),
    "constructed_shift": dict(
        capacity=[1], T=6,
        target={"name": "finite_poly", "params": _SHIFT_POLY},
    ),
    "constructed_nilpotent_sas": dict(
        capacity=[1], T=6,
        target={"name": "trig_product", "params": _TRIG},
    ),
    "constructed_block_esn": dict(
        capacity=[6], T=6,
        target={"name": "trig_product", "params": _TRIG},
        family_params={"identity_units": 8},
    ),
}


def _doc(family: str) -> dict:
    doc = {
        "schema_version": 1,
        "family": family,
        "sampler": {"kind": "iid_gaussian", "n": 1},
        "p": 2.0,
        "washout": 0,
        "M_train": 200,
        "M_eval": 300,
        "ridge": 1e-6,
        "seeds": {"train": 11, "eval": 12},
    }
    doc.update(CONFIGS[family])
    return doc


def _outputs(family: str, out_dir: Path) -> dict:
    cfg = harness.load_config(_doc(family))
    harness.run_experiment(cfg, out_dir)
    with (out_dir / "results.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    points = []
    for capacity, row in zip(cfg.capacity, rows):
        art = json.loads((out_dir / f"run_{family}_c{capacity}.json").read_text())
        points.append({
            "value": row["value"],
            "stderr": row["stderr"],
            "esp": art["esp"],
            "training": art["training"],
        })
    return {"points": points}


def test_every_family_has_a_golden_config():
    assert set(CONFIGS) == set(harness.FAMILIES)


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_golden_outputs_match_pins(family, tmp_path):
    pins = json.loads(GOLDEN.read_text())
    assert _outputs(family, tmp_path) == pins[family]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {f: _outputs(f, Path(tmp) / f) for f in sorted(CONFIGS)}
    GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
