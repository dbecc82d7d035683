"""Tests of the benchmark's span arithmetic and instrumentation.

    python3 -m pytest -q perfbench/test_spans.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

from spans import Span, Tracer, aggregate, roots, self_times

SRC = Path(__file__).resolve().parent.parent / "src"


def _tree():
    # run_scenario [0, 10]
    #   ergodic_capacity [1, 6]
    #     pool [2, 5]
    #   run_feedback_session [7, 9]
    #     waterfill_batch [7.5, 8]
    return [
        Span("harness.run_scenario", 0.0, 10.0, None),
        Span("capacity.ergodic_capacity", 1.0, 6.0, 0),
        Span("capacity.pool", 2.0, 5.0, 1),
        Span("lloydfb.run_feedback_session", 7.0, 9.0, 0),
        Span("capacity.waterfill_batch", 7.5, 8.0, 3),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_tree()) == [3.0, 2.0, 3.0, 1.5, 0.5]


def test_self_times_sum_to_root_duration():
    spans = _tree()
    assert math.fsum(self_times(spans)) == spans[roots(spans)[0]].duration


def test_overlapping_children_are_counted_once():
    spans = [Span("a", 0.0, 10.0, None), Span("b", 1.0, 5.0, 0), Span("c", 3.0, 7.0, 0)]
    assert self_times(spans)[0] == 4.0


def test_child_outside_parent_is_clipped():
    spans = [Span("a", 0.0, 2.0, None), Span("b", 1.0, 5.0, 0)]
    assert self_times(spans)[0] == 1.0


def test_aggregate_counts_calls_and_skips_nested_same_name():
    spans = [Span("f", 0.0, 4.0, None), Span("f", 1.0, 3.0, 0), Span("g", 1.5, 2.0, 1)]
    agg = aggregate(spans)
    assert agg["f"] == {"calls": 2, "s": 4.0, "self_s": 3.5}
    assert agg["g"] == {"calls": 1, "s": 0.5, "self_s": 0.5}


def test_tracer_records_parent_links():
    tr = Tracer()

    def pool_work():
        idx = tr.open("capacity.pool")
        tr.close(idx)

    ergodic = tr.wrap("capacity.ergodic_capacity", pool_work)
    scenario = tr.wrap("harness.run_scenario", lambda: (ergodic(), ergodic()))
    scenario()
    names = [(s.name, s.parent) for s in tr.spans]
    assert names == [
        ("harness.run_scenario", None),
        ("capacity.ergodic_capacity", 0),
        ("capacity.pool", 1),
        ("capacity.ergodic_capacity", 0),
        ("capacity.pool", 3),
    ]
    assert math.isclose(math.fsum(self_times(tr.spans)), tr.spans[0].duration,
                        rel_tol=1e-12)


def test_tracer_closes_span_when_call_raises():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("f", boom)()
    assert tr.spans[0].end >= tr.spans[0].start
    assert tr.open("g") == 1 and tr.spans[1].parent is None


def test_out_of_order_close_is_refused():
    tr = Tracer()
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_instrumented_scenario_pool_span_sits_under_ergodic_capacity():
    sys.path.insert(0, str(SRC))
    from diffcsi import capacity, harness
    from instrument import LAYERS, Instrumentation

    original = capacity.ergodic_capacity
    cfg = harness.ExperimentConfig(scenario="fig4", workers=2, c_fb=[1.0], t_min=1,
                                   t_max=2, trials=4096, seed=3)
    plain = harness.run_scenario(cfg)
    instr = Instrumentation()
    with instr:
        traced = harness.run_scenario(cfg)
    assert capacity.ergodic_capacity is original
    assert traced == plain

    spans = instr.tracer.spans
    pools = [s for s in spans if s.name == "capacity.pool"]
    assert len(pools) == 2
    assert all(spans[p.parent].name == "capacity.ergodic_capacity" for p in pools)
    m = instr.metrics()
    assert m["capacity.pool.created"] == 2
    assert m["capacity.ergodic_capacity.calls"] == 2
    assert m["capacity.block_trials"] == 4096 * (2 * 1 + 2 * 2)
    assert m["capacity.chunks"] == 4
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert math.isclose(layers, m["harness.run_scenario.s"], rel_tol=1e-9)
