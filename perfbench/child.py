"""One workload invocation, run by perfbench/run.py in a fresh interpreter.

    python3 perfbench/child.py REPORT.json MODE -- <rcuniv CLI arguments>

Reads the parent's spawn time (CLOCK_MONOTONIC, ns) from PERFBENCH_SPAWN_NS,
imports rcuniv, validates the config of a `run` command, and records that
moment as the end of set-up.  MODE `setup` reports set-up time and stops
there.  Otherwise it runs `rcuniv.cli.main` on the given arguments, timing
the main call (`harness.run_experiment` or `harness.verify_suite`), and
writes a JSON report.  In MODE `trace` the tracer wraps the package's
public functions first; the per-layer metrics go into the report and the
spans into REPORT.spans.json.  The exit code is the CLI's.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main() -> int:
    report_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv or mode not in ("setup", "run", "trace"):
        raise SystemExit("usage: child.py REPORT.json setup|run|trace -- <rcuniv arguments>")
    spawn = int(os.environ["PERFBENCH_SPAWN_NS"])

    import rcuniv
    from rcuniv import cli, harness

    if argv[0] == "run":
        harness.load_config(json.loads(Path(argv[1]).read_text()))
    setup_done = _now()
    if mode == "setup":
        Path(report_path).write_text(json.dumps({"setup_s": (setup_done - spawn) / 1e9}))
        return 0

    tracer = None
    if mode == "trace":
        sys.path.insert(0, str(Path(__file__).parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main_name = "run_experiment" if argv[0] == "run" else "verify_suite"
    main_fn = getattr(harness, main_name)
    run_ns = []

    def timed(*args, **kwargs):
        t0 = _now()
        try:
            return main_fn(*args, **kwargs)
        finally:
            run_ns.append(_now() - t0)

    setattr(harness, main_name, timed)
    try:
        code = cli.main(argv)
    finally:
        setattr(harness, main_name, main_fn)
        if tracer is not None:
            tracer.uninstall()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "setup_s": (setup_done - spawn) / 1e9,
        "run_s": sum(run_ns) / 1e9,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit": code,
        "manifest": _manifest(rcuniv),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        spans = {
            "names": tracer.names,
            "name_ids": tracer.name_ids.tolist(),
            "parents": tracer.parents.tolist(),
            "start_ns": tracer.starts.tolist(),
            "end_ns": tracer.ends.tolist(),
        }
        Path(report_path).with_suffix(".spans.json").write_text(json.dumps(spans))
    Path(report_path).write_text(json.dumps(report))
    return code


def _version(name: str) -> str:
    # read from the loaded module; importing one here would add to the wall time
    module = sys.modules.get(name)
    if module is not None:
        return module.__version__
    import importlib.metadata

    return importlib.metadata.version(name)


def _manifest(rcuniv) -> dict:
    numpy = sys.modules.get("numpy")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    worker_count = getattr(rcuniv.metrics, "_worker_count", None)
    return {
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": blas,
        "rcuniv": getattr(rcuniv, "__version__", "unknown"),
        "rcuniv_workers_env": os.environ.get("RCUNIV_WORKERS"),
        "rcuniv_workers_effective": worker_count() if worker_count else None,
    }


if __name__ == "__main__":
    sys.exit(main())
