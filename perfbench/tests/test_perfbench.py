"""Tests of the benchmark's own machinery: spans, tail rule, restore, seeds.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import sys
import threading
import time
import types

import pytest

import metrics
from ops import run_op
from tracing import Span, Tracer, children_index, covered, current_attributes, self_time
from workloads import WORKLOADS


def _span(id, start, end, parent=None, thread=0):
    return Span(id, f"s{id}", start, end, parent, 0, thread, True)


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0
    assert covered(0.0, 10.0, [(11.0, 12.0), (-2.0, -1.0)]) == 0.0
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.0, 3.0)]) == 1.0


def test_self_time_subtracts_the_union_of_children_across_threads():
    parent = _span(0, 0.0, 10.0)
    children = [
        _span(1, 1.0, 4.0, parent=0, thread=1),
        _span(2, 3.0, 6.0, parent=0, thread=2),   # overlaps span 1 on another thread
        _span(3, 5.0, 5.5, parent=0, thread=1),   # inside span 2's interval
        _span(4, 8.0, 9.0, parent=0, thread=2),
    ]
    spans = [parent] + children
    kids = children_index(spans)
    assert self_time(parent, kids[0]) == pytest.approx(10.0 - 5.0 - 1.0)
    # summing child durations instead of their union would go negative here
    assert sum(c.duration for c in children) > 0.0
    assert self_time(parent, kids[0]) >= 0.0


@pytest.fixture
def toy_module(monkeypatch):
    module = types.ModuleType("perfbench_toy")

    def leaf(seconds):
        time.sleep(seconds)
        return seconds

    def fan_out(seconds):
        workers = [threading.Thread(target=module.leaf, args=(seconds,)) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)
        return seconds

    module.leaf = leaf
    module.fan_out = fan_out
    monkeypatch.setitem(sys.modules, "perfbench_toy", module)
    return module


def test_worker_thread_spans_hang_under_the_op_threads_open_span(toy_module):
    targets = (("perfbench_toy", "fan_out", "toy.fan_out", None),
               ("perfbench_toy", "leaf", "toy.leaf", None))
    tracer = Tracer(targets)
    with tracer:
        root = tracer.begin_op(7, "op")
        toy_module.fan_out(0.05)
        tracer.end_op(root, True)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (fan,) = by_name["toy.fan_out"]
    leaves = by_name["toy.leaf"]
    assert fan.parent == root.id and len(leaves) == 2
    assert all(leaf.parent == fan.id and leaf.op == 7 for leaf in leaves)
    assert len({leaf.thread for leaf in leaves}) == 2
    # the two leaves run at once: the parent's self time is what their union leaves
    kids = children_index(tracer.spans)
    assert self_time(fan, kids[fan.id]) < fan.duration - max(l.duration for l in leaves) + 0.02


def test_tail_is_the_value_with_ten_samples_beyond_it():
    value, percentile, count = metrics.tail([float(x) for x in range(100, 0, -1)])
    assert (value, percentile, count) == (90.0, 90.0, 100)
    value, percentile, count = metrics.tail([5.0] + [1.0] * 10)
    assert value == 1.0 and count == 11 and percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        metrics.tail([1.0] * 10)


def test_end_to_end_does_not_depend_on_how_many_blocks_a_run_completes():
    latencies = [0.1 * (i % 7 + 1) for i in range(22)]
    block = metrics.BlockSummary(latencies=latencies, succeeded=22, work_done=44,
                                 work_time=sum(latencies), digests=["d"],
                                 failures={}, errors=set())
    one = metrics.end_to_end([block], 1.0, 100.0)
    three = metrics.end_to_end([block] * 3, 1.0, 100.0)
    assert one == three
    assert one["op_tail_s"][0] == metrics.tail(latencies)[0]
    assert one["work_units_per_s"][0] == pytest.approx(44 / sum(latencies))


def test_traced_pass_restores_every_wrapped_attribute():
    before = current_attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            during = current_attributes()
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("the pass failed")
    assert all(a is b for a, b in zip(before, current_attributes()))


def test_traced_and_untraced_ops_give_the_same_digests():
    ops = WORKLOADS["small_queries"](3).ops[:60]
    plain = [run_op(op).digest for op in ops]
    tracer = Tracer()
    with tracer:
        traced = [run_op(op, tracer).digest for op in ops]
    assert plain == traced
    assert tracer.spans


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_generators_reproduce_their_inputs(name):
    first, again, other = WORKLOADS[name](11), WORKLOADS[name](11), WORKLOADS[name](12)
    assert first == again
    assert first.ops != other.ops
    assert [op.id for op in first.ops + first.census] == list(
        range(len(first.ops) + len(first.census)))
