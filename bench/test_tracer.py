"""Self-checks of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_tracer.py
"""

import importlib
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import tracer as T  # noqa: E402


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def test_self_time_is_span_minus_children():
    t = T.Tracer(clock=FakeClock())
    clock = t.clock

    def leaf():
        clock()  # one tick of own work

    def middle():
        clock()
        leaf_w()
        leaf_w()

    def outer():
        middle_w()
        clock()

    leaf_w = t.wrap("x.leaf", leaf)
    middle_w = t.wrap("x.middle", middle)
    outer_w = t.wrap("x.outer", outer)
    outer_w()

    # every clock reading is one tick: a leaf span is 2 ticks (its own
    # work and the end reading), middle is 8 with 4 inside its leaves,
    # outer is 11 with 8 inside middle
    assert t.names == ["x.outer", "x.middle", "x.leaf", "x.leaf"]
    assert t.parents == [-1, 0, 1, 1]
    assert [e - s for s, e in zip(t.starts, t.ends)] == [11.0, 8.0, 2.0, 2.0]
    assert t.self_times() == [3.0, 4.0, 2.0, 2.0]
    assert t.calls == {"x.outer": 1, "x.middle": 1, "x.leaf": 2}


def test_self_times_add_up_to_the_root_span():
    t = T.Tracer(clock=FakeClock(0.5))
    inner = t.wrap("x.inner", lambda: t.clock())
    outer = t.wrap("x.outer", lambda: [inner() for _ in range(3)])
    outer()
    assert sum(t.self_times()) == t.ends[0] - t.starts[0]


def test_hook_work_stays_out_of_the_callers_self_time():
    t = T.Tracer(clock=FakeClock())
    leaf = t.wrap("x.leaf", lambda: None, on_result=lambda tr, *_: tr.clock())
    outer = t.wrap("x.outer", lambda: leaf())
    outer()
    assert t.names == ["x.outer", "x.leaf", "trace.hook"]
    assert t.parents == [-1, 0, 0]
    # outer spans 6 ticks: leaf 1, the hook 2 (its tick and its end)
    assert t.self_times() == [3.0, 1.0, 2.0]


def test_errors_are_counted_and_reraised():
    t = T.Tracer(clock=FakeClock())

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        t.wrap("linalg.boom", boom)()
    assert t.errors["linalg"] == 1
    assert t.ends[0] > t.starts[0] and not t._stack


def _holders():
    """For every target: the (owner, attribute) pairs that hold the
    original object before installation."""
    out = []
    for _name, module, path, *_ in T.SPAN_TARGETS + T.COUNT_TARGETS:
        owner, attr = T._resolve(module, path)
        original = getattr(owner, attr)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for m in T.package_modules() if vars(m).get(attr) is original]
        out.append((attr, original, holders))
    return out


def test_wrappers_bound_everywhere_and_restored():
    child.import_package()
    importlib.import_module("necklaces.verify")
    before = _holders()
    assert T.find_wrappers() == []
    homology = sys.modules["necklaces.homology"]
    linalg = sys.modules["necklaces.linalg"]
    assert homology.column_echelon_int is linalg.column_echelon_int
    t = T.Tracer()
    with t:
        for attr, original, holders in before:
            assert holders, attr
            for holder in holders:
                now = getattr(holder, attr)
                assert getattr(now, T.WRAPPED, False), (holder, attr)
                assert now.__wrapped__ is original
        # the names homology imported from linalg are wrapped too
        assert getattr(homology.column_echelon_int, T.WRAPPED, False)
        assert getattr(homology.kernel_basis, T.WRAPPED, False)
        assert len(T.find_wrappers()) >= len(before)
    for attr, original, holders in before:
        for holder in holders:
            assert getattr(holder, attr) is original, (holder, attr)
    assert T.find_wrappers() == []


def test_a_missing_target_is_recorded_not_fatal(monkeypatch):
    child.import_package()
    monkeypatch.setattr(
        T, "SPAN_TARGETS", T.SPAN_TARGETS + (("linalg.gone", "necklaces.linalg", "no_such_function", None),)
    )
    with T.Tracer() as t:
        assert t.missing == ["necklaces.linalg:no_such_function"]
    assert T.find_wrappers() == []


def test_traced_calls_are_counted_on_real_code():
    child.import_package()
    linalg = sys.modules["necklaces.linalg"]
    m = linalg.SparseRationalMatrix(2, 3, [{0: 1}, {0: 2}, {1: 3}])
    with T.Tracer() as t:
        assert t.missing == []
        assert sys.modules["necklaces.homology"].column_echelon_int(m) == {0: {0: 1}, 1: {1: 1}}
        linalg.rank(m)  # rank calls column_echelon_int through its module global
    metrics = t.metrics()
    assert metrics["linalg.echelon.calls"] == 2
    assert metrics["linalg.echelon.distinct"] == 1
    assert metrics["linalg.echelon.rank_total"] == 4
    assert metrics["linalg.echelon.max_bits"] == 1
    assert set(metrics) == {name for name, _, _ in T.LAYER_METRICS} - {"trace.overhead_s"}


def test_untraced_iteration_installs_no_wrappers():
    _inputs, _run, tracer = child.prepare("deform-g2", 0, trace=False)
    assert tracer is None
    assert T.find_wrappers() == []


def test_benchmark_json_lists_what_the_benchmark_prints():
    import json

    import run
    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(T.LAYER_METRICS)
