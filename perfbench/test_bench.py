"""Self-checks for the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Span, Tally, Tracer, percentile, self_times  # noqa: E402


def span(id, start, end, parent=None, name="x"):
    return Span(id, name, start, end, parent, "run")


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 2.0, 5.0, parent=0),  # overlaps span 1, as parallel shards do
        span(3, 8.0, 12.0, parent=0),  # outlives its parent; only 8..10 counts
        span(4, 1.5, 2.5, parent=1),  # a grandchild changes only span 1
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_self_time_of_nested_traced_calls():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["outer"]
    assert all(s.parent == top.id for s in by_name["inner"])
    selfs = self_times(tracer.spans)
    children = sum(s.duration for s in by_name["inner"])
    assert selfs[top.id] == pytest.approx(top.duration - children)


def test_worker_thread_spans_adopt_the_waiting_coordinator_as_parent():
    tracer = Tracer()
    work = tracer.wrap("shard", lambda: None)

    def coordinate():
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)

    tracer.wrap("coordinator", coordinate)()
    (top,) = [s for s in tracer.spans if s.name == "coordinator"]
    assert [s.parent for s in tracer.spans if s.name == "shard"] == [top.id, top.id]


def test_failed_share_counts_every_check():
    tally = Tally()
    assert tally.failed_share == 0.0
    for ok in (True, False, True, True):
        tally.check(ok)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failed_share == 0.25


def test_wrapper_passes_arguments_results_and_exceptions_through_unchanged():
    tracer = Tracer()
    marker = object()
    seen = []

    def fn(*args, **kwargs):
        seen.append((args, kwargs))
        return marker

    args, kwargs = (1, [2]), {"key": {"v": 3}}
    assert tracer.wrap("fn", fn)(*args, **kwargs) is marker
    assert seen[0][0][1] is args[1] and seen[0][1]["key"] is kwargs["key"]

    error = ValueError("planted")

    def boom():
        raise error

    with pytest.raises(ValueError) as caught:
        tracer.wrap("boom", boom, note=lambda a, k, r, e: type(e).__name__)()
    assert caught.value is error
    assert [(s.name, s.note) for s in tracer.spans] == [("fn", None), ("boom", "ValueError")]


def test_patching_replaces_every_reference_and_unpatch_restores_them():
    import types

    def target():
        return 7

    package = types.ModuleType("pkg_under_test")
    child = types.ModuleType("pkg_under_test.child")
    package.target = child.alias = target
    sys.modules.update({"pkg_under_test": package, "pkg_under_test.child": child})
    try:
        tracer = Tracer()
        tracer.patch_function("pkg_under_test", target, "target")
        assert package.target is not target and child.alias is not target
        assert package.target() == 7 and child.alias() == 7
        assert len(tracer.spans) == 2
        tracer.unpatch()
        assert package.target is target and child.alias is target
    finally:
        del sys.modules["pkg_under_test"], sys.modules["pkg_under_test.child"]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([], 0.5) == 0.0
