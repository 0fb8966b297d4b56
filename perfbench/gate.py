"""Correctness gate: checks each workload invocation's outputs.

An operation is one capacity point of `rcuniv run`, or one check of
`rcuniv verify`.  A point fails when its invocation exited nonzero, when it
is missing from the outputs, when its certificate did not hold, when its
value or standard error is not finite, or when either departs from the
pinned reference by more than REL_TOL.  Where no reference is pinned for a
seed, every invocation must reproduce the first one's outputs exactly.
A verify check fails when it prints FAIL or a pinned check is missing.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

# Admits last-bit changes (about 4e-16 per state update, amplified by the
# ridge solve) and rejects any change of estimator, sample or stream.
REL_TOL = 1e-9

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def read_points(out_dir: Path, family: str, capacities) -> list[dict | None]:
    """Per capacity point: N, value, stderr and certified, or None if missing."""
    try:
        with (out_dir / "results.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    points = []
    for i, cap in enumerate(capacities):
        try:
            row = rows[i]
            art = json.loads((out_dir / f"run_{family}_c{cap}.json").read_text())
            points.append({
                "N": int(row["N"]),
                "value": float(row["value"]),
                "stderr": float(row["stderr"]),
                "certified": art["esp"]["certified"] is True,
            })
        except (IndexError, KeyError, TypeError, ValueError, OSError):
            points.append(None)
    return points


def point_failures(points, reference=None, previous=None) -> list[str | None]:
    """Reason each point fails, or None where it passes.

    reference is a list of [N, value, stderr] per point; previous is the
    point list of an earlier invocation of the same seed, compared exactly.
    """
    out = []
    for i, pt in enumerate(points):
        if pt is None:
            out.append("missing from outputs")
        elif not pt["certified"]:
            out.append("not certified")
        elif not (math.isfinite(pt["value"]) and math.isfinite(pt["stderr"])):
            out.append("value not finite")
        elif reference is not None and (
                reference[i][0] != pt["N"]
                or not close(pt["value"], reference[i][1])
                or not close(pt["stderr"], reference[i][2])):
            out.append(f"departs from reference {reference[i]}: "
                       f"{[pt['N'], pt['value'], pt['stderr']]}")
        elif previous is not None and previous[i] != pt:
            out.append("differs from an earlier run of the same seed")
        else:
            out.append(None)
    return out


_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) ")


def verify_failures(stdout: str, pinned) -> dict[str, str | None]:
    """Reason each verify check fails, or None where it passes."""
    seen = {}
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            seen[m.group(2)] = m.group(1)
    out = {name: None if seen.get(name) == "PASS" else
           ("missing" if name not in seen else "FAIL") for name in pinned}
    for name, status in seen.items():
        if name not in out:
            out[name] = None if status == "PASS" else "FAIL"
    return out
