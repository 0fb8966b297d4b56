"""rcuniv benchmark: CLI workloads timed end to end, layers timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/rcuniv`).  Each
invocation is `rcuniv run <config>` or `rcuniv verify all` in a fresh
interpreter (perfbench/child.py), with OpenBLAS pinned to BLAS_THREADS
threads and RCUNIV_WORKERS left at the library default.  Invocations
repeat, one at a time, until S seconds have passed and at least
MIN_INVOCATIONS have run.

--trace 0 prints the end-to-end metrics: medians over the invocations of
wall time, set-up time (spawn until `import rcuniv` and config validation
are done), main-call time and peak resident memory.  --trace 1 alternates
untraced and traced invocations and prints the per-layer metrics of the
traced ones (medians), import times from a `-X importtime` child, CPU use
and the tracing overhead.  Every invocation's outputs go through the
correctness gate (perfbench/gate.py).

The last stdout line is the result object; the line before it is the run
manifest.  Work files go to .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).with_name("child.py")
WORK = ROOT / ".perfbench_work"

BLAS_THREADS = 1
MIN_INVOCATIONS = 2
MIN_SETUPS = 5
RUN_BUDGET_S = 165.0  # stop launching invocations that would end after this

# metrics printed with --trace 0 (name -> unit) and with --trace 1 (names)
END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = ("import.rcuniv_s", "import.scipy_s", *Tracer().layer_metrics(),
             "process.cpu_s", "process.cpu_util", "trace.overhead_frac", "ops_failed_frac")

_ESN = {
    "schema_version": 1,
    "family": "esn",
    "capacity": [50, 100, 200],
    "sampler": {"kind": "iid_gaussian", "n": 1, "params": {"mean": 0.0, "std": 1.0}},
    "target": {"name": "geometric_ma", "params": {"decay": 0.9}},
    "p": 2.0,
    "T": 60,
    "washout": 20,
    "M_train": 2000,
    "M_eval": 5000,
    "ridge": 1e-6,
    "family_params": {"activation": "tanh", "spectral": 0.95},
}
_TRIG_SAS = {**_ESN, "family": "trig_sas", "capacity": [25, 50], "M_eval": 2000,
             "family_params": {"terms": 4}}
_GARCH = {
    "schema_version": 1,
    "family": "linear_poly",
    "capacity": [2, 3],
    "sampler": {"kind": "garch11", "n": 1,
                "params": {"omega": 0.1, "alpha": 0.1, "beta": 0.8}},
    "target": {"name": "garch_vol", "params": {"omega": 0.1, "alpha": 0.1, "beta": 0.8}},
    "p": 1.0,
    "T": 40,
    "washout": 0,
    "M_train": 2000,
    "M_eval": 5000,
    "ridge": 1e-6,
    "family_params": {"memory": 5},
}
# name -> base config of an `rcuniv run` workload, or None for `rcuniv verify all`
WORKLOADS = {
    "esn_sweep": _ESN,
    "trig_sas_sweep": _TRIG_SAS,
    "garch_poly": _GARCH,
    "verify_all": None,
}


def workload_config(name: str, seed: int) -> dict:
    """The config of a run workload; seed 0 gives the README's seeds 11 and 12."""
    return {**WORKLOADS[name], "seeds": {"train": 11 + 1000 * seed, "eval": 12 + 1000 * seed}}


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("RCUNIV_WORKERS", "PYTHONPATH", "PYTHONHOME")}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Workload:
    """One workload's inputs, invocations and correctness bookkeeping."""

    def __init__(self, name: str, seed: int, work: Path, reference: dict):
        self.work = work
        self.env = _child_env()
        self.config = None
        self.configs_sha256 = {}
        if WORKLOADS[name] is None:
            self.argv = ["verify", "all"]
            self.pinned = reference["verify_all"]
        else:
            self.config = workload_config(name, seed)
            text = json.dumps(self.config, indent=2, sort_keys=True) + "\n"
            path = work / "config.json"
            path.write_text(text)
            self.configs_sha256[path.name] = hashlib.sha256(text.encode()).hexdigest()
            self.argv = ["run", str(path)]
            self.pinned = reference["runs"].get(name, {}).get(str(seed))
        self.first_points = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.count = 0

    def invoke(self, mode: str, timeout: float) -> dict | None:
        """Run one child in mode setup, run or trace; its report, or None if it failed."""
        self.count += 1
        tag = f"{self.count:03d}"
        report = self.work / f"report_{tag}.json"
        argv = list(self.argv)
        if self.config is not None and mode != "setup":
            argv += ["--out", str(self.work / f"out_{tag}")]
        env = dict(self.env)
        with (self.work / f"stdout_{tag}.txt").open("w") as out, \
                (self.work / f"stderr_{tag}.txt").open("w") as err:
            spawn = _now()
            env["PERFBENCH_SPAWN_NS"] = str(spawn)
            proc = subprocess.Popen([sys.executable, str(CHILD), str(report), mode, "--", *argv],
                                    cwd=ROOT, env=env, stdout=out, stderr=err)
            try:
                proc.wait(timeout=max(1.0, timeout))
            except subprocess.TimeoutExpired:
                pass  # killed below; the invocation counts as failed
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        code = proc.returncode
        wall = (_now() - spawn) / 1e9
        result = json.loads(report.read_text()) if code == 0 and report.exists() else None
        if mode != "setup":
            self._check(tag, code, result)
            if self.config is not None:
                shutil.rmtree(self.work / f"out_{tag}", ignore_errors=True)
        if result is not None:
            result["wall_s"] = wall
        return result

    def _check(self, tag: str, code: int, result) -> None:
        if self.config is None:
            stdout = (self.work / f"stdout_{tag}.txt").read_text()
            reasons = gate.verify_failures(stdout, self.pinned)
        else:
            caps = self.config["capacity"]
            points = gate.read_points(self.work / f"out_{tag}", self.config["family"], caps)
            found = gate.point_failures(points, self.pinned, self.first_points)
            if self.first_points is None and all(r is None for r in found):
                self.first_points = points
            reasons = {f"capacity {c}": r for c, r in zip(caps, found)}
        if code != 0 or result is None:
            reasons = {k: f"invocation {tag} exited with code {code}" for k in reasons}
        self.attempted += len(reasons)
        for op, reason in reasons.items():
            if reason is not None:
                self.failed += 1
                self.failures.append(f"{tag} {op}: {reason}")


def import_times(env: dict, work: Path) -> dict:
    """Cumulative import times of rcuniv and of all scipy modules, from -X importtime."""
    err_path = work / "importtime.txt"
    with err_path.open("w") as err:
        subprocess.run([sys.executable, "-X", "importtime", "-c", "import rcuniv"],
                       cwd=ROOT, env=env, stderr=err, stdout=subprocess.DEVNULL,
                       timeout=60, check=False)
    return parse_importtime(err_path.read_text())


def parse_importtime(text: str) -> dict:
    """Parse `-X importtime` output into rcuniv and outermost-scipy seconds.

    Each line is `import time: self | cumulative | <indent>name`; a module's
    nested imports precede it with deeper indentation.  scipy time is the
    sum of cumulative times of scipy modules not nested in another one.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    out = {"import.rcuniv_s": 0.0, "import.scipy_s": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        in_scipy = any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors)
        if name == "rcuniv":
            out["import.rcuniv_s"] += cumulative
        if (name == "scipy" or name.startswith("scipy.")) and not in_scipy:
            out["import.scipy_s"] += cumulative
        ancestors.append((depth, name))
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = _now()
    manifest = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
        "platform": platform.platform(), "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
    }
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = Workload(name, seed, work, gate.load_reference())
    manifest["configs_sha256"] = wl.configs_sha256

    # warm the bytecode and file caches; users do not pay these on every run
    subprocess.run([sys.executable, "-c", "import rcuniv"], cwd=ROOT, env=wl.env,
                   timeout=60, check=False)
    layers = import_times(wl.env, work) if trace else {}

    plain, traced, setups = [], [], []
    durations = []

    def budget_left() -> float:
        return RUN_BUDGET_S - (_now() - started) / 1e9

    while True:
        elapsed = (_now() - started) / 1e9
        enough = len(plain) + len(traced) >= MIN_INVOCATIONS
        if (enough and elapsed >= seconds) or (durations and max(durations) > budget_left()):
            break
        t0 = _now()
        mode = "trace" if trace and len(traced) < len(plain) else "run"
        report = wl.invoke(mode, budget_left())
        durations.append((_now() - t0) / 1e9)
        if report is None:
            break
        (traced if mode == "trace" else plain).append(report)
    # set-up time is a median over at least MIN_SETUPS spawns
    while (not trace and plain and len(plain) + len(setups) < MIN_SETUPS
           and budget_left() > 10.0):
        report = wl.invoke("setup", budget_left())
        if report is None:
            break
        setups.append(report["setup_s"])

    if plain:
        manifest.update(plain[0]["manifest"])
    manifest["invocations"] = {"untraced": len(plain), "traced": len(traced)}
    manifest["failures"] = wl.failures[:20]
    if trace:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(layers)
        for key in traced[0]["layers"] if traced else ():
            metrics[key] = _median([r["layers"][key] for r in traced])
        cpu = _median([r["cpu_s"] for r in plain])
        wall = _median([r["wall_s"] for r in plain])
        run_plain = _median([r["run_s"] for r in plain])
        run_traced = _median([r["run_s"] for r in traced])
        metrics["process.cpu_s"] = cpu
        metrics["process.cpu_util"] = cpu / wall if wall else 0.0
        metrics["trace.overhead_frac"] = run_traced / run_plain - 1.0 if run_plain else 0.0
        metrics["ops_failed_frac"] = wl.failed / max(1, wl.attempted)
        units = {k: unit_of(k) for k in PER_LAYER}
    else:
        samples = {k: [r[k] for r in plain] for k in END_TO_END}
        samples["setup_s"] += setups
        manifest["samples"] = samples
        metrics = {k: _median(v) for k, v in samples.items()}
        units = END_TO_END
    result = {
        "correct": wl.failed == 0 and wl.attempted > 0,
        "attempted": max(1, wl.attempted),
        "failed": wl.failed if wl.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return manifest, result


def unit_of(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("gflops_computed"):
        return "GFLOP"
    if key.endswith(("_ratio", "_frac", "_util", "calls_per_point")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rcuniv" / "__init__.py").is_file():
        print(f"no rcuniv sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that a running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    manifest, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    record = {"manifest": manifest, "result": result}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
