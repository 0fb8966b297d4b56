"""Pin the correctness gate's references from the current sources.

    python3 perfbench/pin.py --seeds 0 1 2

Runs each `rcuniv run` workload once per seed, and `rcuniv verify all`
once, and writes perfbench/reference.json: [N, value, stderr] per capacity
point, and the verify check names.  Re-pin only in a change that says
which numbers moved, by how much, and why.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil

import gate
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    empty = {"runs": {}, "verify_all": []}
    pins = {"runs": {}, "verify_all": []}
    for name, base in run.WORKLOADS.items():
        for seed in args.seeds if base is not None else [0]:
            work = run.WORK / f"pin-{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = run.Workload(name, seed, work, empty)
            report = wl.invoke("run", run.RUN_BUDGET_S)
            if base is None:
                stdout = (work / "stdout_001.txt").read_text()
                pins["verify_all"] = re.findall(r"^(?:PASS|FAIL) (\S+) ", stdout, re.M)
                if report is None or "FAIL" in stdout:
                    raise SystemExit(f"verify all failed:\n{stdout}")
            else:
                if report is None or wl.first_points is None:
                    raise SystemExit(f"{name} seed {seed} failed: {wl.failures}")
                pins["runs"].setdefault(name, {})[str(seed)] = [
                    [p["N"], p["value"], p["stderr"]] for p in wl.first_points]
            print(f"pinned {name} seed {seed}", flush=True)
    gate.REFERENCE_FILE.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
