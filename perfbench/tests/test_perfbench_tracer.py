import sys

import pytest

from tracer import Tracer, self_times


def test_self_time_nested_spans():
    # root [0, 100) > a [10, 40) > a1 [20, 30);  root > b [50, 70)
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 70]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [50, 20, 10, 20]
    assert sum(self_times(starts, ends, parents)) == 100


def test_self_time_overlapping_children_counted_once():
    # two worker-thread children overlap on [30, 50); a third runs past the parent's end
    starts = [0, 10, 30, 90]
    ends = [100, 50, 70, 120]
    parents = [-1, 0, 0, 0]
    assert self_times(starts, ends, parents) == [100 - 60 - 10, 40, 40, 30]


def test_self_time_disjoint_roots_and_leaf():
    assert self_times([0, 5], [3, 9], [-1, -1]) == [3, 4]
    assert self_times([], [], []) == []


def test_wrapped_calls_record_parents_and_self_time():
    ticks = iter(range(0, 1000, 10))
    tr = Tracer(clock=lambda: next(ticks))

    tr_leaf = tr.wrap(lambda: 1, "core.leaf")
    tr_outer = tr.wrap(lambda: tr_leaf() + tr_leaf(), "harness.outer")
    assert tr_outer() == 2
    assert [tr.names[i] for i in tr.name_ids] == ["harness.outer", "core.leaf", "core.leaf"]
    assert list(tr.parents) == [-1, 0, 0]
    # outer [0, 50), leaves [10, 20) and [30, 40)
    assert self_times(tr.starts, tr.ends, tr.parents) == [30, 10, 10]
    m = tr.layer_metrics()
    assert m["core.self_s"] == pytest.approx(20e-9)
    assert m["harness.self_s"] == pytest.approx(30e-9)
    assert m["trace.root_s"] == pytest.approx(50e-9)


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap(boom, "core.boom")()
    assert tr.ends[0] >= tr.starts[0]
    assert tr._stack() == []


def _bindings():
    import rcuniv  # noqa: F401
    from rcuniv import harness

    snap = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "rcuniv" or name.startswith("rcuniv."))}
    snap["VERIFY_SUITES"] = dict(harness.VERIFY_SUITES)
    return snap


def test_install_rebinds_every_alias_and_uninstall_restores_them():
    from rcuniv import harness, processes, reservoirs, training
    import rcuniv

    before = _bindings()
    original = reservoirs.certify_esp
    tr = Tracer()
    tr.install()
    try:
        wrapped = reservoirs.certify_esp
        assert wrapped is not original and wrapped.__wrapped__ is original
        for mod in (training, harness, rcuniv):
            assert mod.certify_esp is wrapped
        assert training.sample_paths is processes.sample_paths is rcuniv.sample_paths
        assert training.final_states is reservoirs.final_states
        assert all(hasattr(fn, "__wrapped__") for fn in harness.VERIFY_SUITES.values())
        # classes and private helpers stay as they were
        assert reservoirs.EchoStateNetwork is before["rcuniv.reservoirs"]["EchoStateNetwork"]
        assert reservoirs._step is before["rcuniv.reservoirs"]["_step"]
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for key in before:
        changed = [k for k in before[key] if after[key].get(k) is not before[key][k]]
        assert changed == [], key


def test_traced_pipeline_counts_match_a_hand_count(tmp_path):
    from rcuniv import harness

    doc = {
        "schema_version": 1, "family": "esn", "capacity": [4, 6],
        "sampler": {"kind": "iid_gaussian", "n": 1},
        "target": {"name": "geometric_ma", "params": {"decay": 0.5}},
        "p": 2.0, "T": 12, "washout": 2, "M_train": 40, "M_eval": 30, "ridge": 1e-6,
        "seeds": {"train": 3, "eval": 4},
    }
    cfg = harness.load_config(doc)
    plain = harness.run_experiment(cfg, tmp_path / "plain")
    tr = Tracer()
    tr.install()
    try:
        traced = harness.run_experiment(cfg, tmp_path / "traced")
    finally:
        tr.uninstall()
    assert traced == plain
    m = tr.layer_metrics()
    assert m["harness.points"] == 2
    assert m["reservoirs.certify_esp.calls_per_point"] == 2.0
    # per point: 40 train + 30 eval paths; the same 70 keys are redrawn at the second point
    assert m["processes.sample_paths.paths"] == 140
    assert m["processes.sample_paths.unique_ratio"] == 70 / 140
    assert m["processes.path_rng.calls"] == 140
    assert m["reservoirs.final_states.esn.state_steps"] == 140 * 12
    assert m["reservoirs.final_states.esn.gflops_computed"] == pytest.approx(
        (70 * 12 * 2 * 4 * 5 + 70 * 12 * 2 * 6 * 7) / 1e9)
    assert m["metrics.eval_paths"] == 60
    layer_self = sum(m[f"{layer}.self_s"] for layer in
                     ("processes", "core", "reservoirs", "readouts", "training",
                      "metrics", "harness"))
    assert layer_self == pytest.approx(m["harness.run_experiment.s"])


def test_worker_thread_spans_hang_under_the_main_span_without_lost_updates():
    import threading

    tr = Tracer()
    leaf = tr.wrap(lambda: None, "core.leaf")
    per_thread, threads = 3000, 6

    def work():
        for _ in range(per_thread):
            leaf()

    def fan_out():
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        return [t.is_alive() for t in pool]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        alive = tr.wrap(fan_out, "metrics.fan_out")()
    finally:
        sys.setswitchinterval(old)
    assert not any(alive)
    n = threads * per_thread + 1
    assert len(tr.starts) == len(tr.ends) == len(tr.parents) == len(tr.name_ids) == n
    assert all(p == 0 for p in list(tr.parents)[1:])
    assert all(e >= s for s, e in zip(tr.starts, tr.ends))
    selfs = self_times(tr.starts, tr.ends, tr.parents)
    assert 0 <= selfs[0] <= tr.ends[0] - tr.starts[0]
