"""Tests for the technology model and buffer placement."""

import gc

import pytest

from repro.components import branch, default_environment, fork, merge, mux, operator, tagger
from repro.core.exprhigh import ExprHigh
from repro.hls.area import (
    COMPONENT_PROFILES,
    OP_PROFILES,
    analyze,
    base_op,
    latency_of,
    op_profile,
)
from repro.hls.buffers import place_buffers


def loop_graph(tagged=False):
    g = ExprHigh()
    g.add_node("m", merge() if tagged else mux())
    g.add_node("op", operator("fadd", 2, tagged=tagged))
    g.add_node("br", branch(tagged=tagged))
    g.add_node("f", fork(2))
    if tagged:
        g.add_node("tg", tagger(tags=8))
        g.connect("tg", "out0", "m", "in1")
        g.connect("br", "out1", "tg", "in1")
        g.mark_input(0, "tg", "in0")
        g.mark_output(1, "tg", "out1")
    else:
        g.mark_input(0, "m", "in1" if not tagged else "in1")
        g.mark_output(1, "br", "out1")
    g.connect("m", "out0", "op", "in0")
    g.connect("op", "out0", "f", "in0")
    g.connect("f", "out0", "br", "in0")
    g.connect("f", "out1", "br", "cond")
    g.connect("br", "out0", "m", "in0")
    if tagged:
        g.mark_input(1, "op", "in1")
        g.mark_input(2, "m", "cond") if not tagged else None
        g.mark_output(0, "tg", "out0") if False else None
    # Close remaining ports generically.
    index = 10
    for endpoint in list(g.unconnected_inputs()):
        g.mark_input(index, endpoint.node, endpoint.port)
        index += 1
    for endpoint in list(g.unconnected_outputs()):
        g.mark_output(index, endpoint.node, endpoint.port)
        index += 1
    return g


class TestBaseOp:
    def test_plain_ops(self):
        assert base_op("fadd") == "fadd"

    def test_partial_ops_keep_base(self):
        assert base_op("sub.k1.1") == "sub"
        assert base_op("select.k2.0.0") == "select"

    def test_array_reads_are_loads(self):
        assert base_op("read.A") == "load"

    def test_unknown_op_gets_default_profile(self):
        profile = op_profile("mystery")
        assert profile.latency >= 1


class TestLatency:
    def test_operator_latency_from_op(self):
        assert latency_of("Operator", {"op": "fadd"}) == OP_PROFILES["fadd"].latency

    def test_steering_is_combinational(self):
        assert latency_of("Fork", {}) == 0
        assert latency_of("Join", {}) == 0
        assert latency_of("Init", {}) == 0

    def test_sequencing_points_are_registered(self):
        assert latency_of("Mux", {}) == 1
        assert latency_of("Branch", {}) == 1
        assert latency_of("Merge", {}) == 1


class TestAnalyze:
    def test_dsp_counting(self):
        g = ExprHigh()
        g.add_node("m1", operator("fmul", 2))
        g.add_node("m2", operator("mul", 2))
        for index, (node, port) in enumerate(
            [("m1", "in0"), ("m1", "in1"), ("m2", "in0"), ("m2", "in1")]
        ):
            g.mark_input(index, node, port)
        g.mark_output(0, "m1", "out0")
        g.mark_output(1, "m2", "out0")
        report = analyze(g)
        assert report.dsps == 6  # 5 (fmul) + 1 (int mul)

    def test_tagger_ffs_grow_with_tags(self):
        def tagger_graph(tags):
            g = ExprHigh()
            g.add_node("tg", tagger(tags=tags))
            g.mark_input(0, "tg", "in0")
            g.mark_input(1, "tg", "in1")
            g.mark_output(0, "tg", "out0")
            g.mark_output(1, "tg", "out1")
            return g

        small = analyze(tagger_graph(4))
        large = analyze(tagger_graph(50))
        assert large.ffs > small.ffs + 2000  # the Table 3 matvec effect

    def test_tagged_components_worsen_clock(self):
        plain = analyze(loop_graph(tagged=False))
        tagged = analyze(loop_graph(tagged=True))
        assert tagged.clock_period > plain.clock_period

    def test_buffer_slots_cost_ffs(self):
        g = loop_graph()
        assert analyze(g, extra_buffer_slots=10).ffs == analyze(g).ffs + 340

    def test_execution_time(self):
        report = analyze(loop_graph())
        assert report.execution_time(100) == pytest.approx(100 * report.clock_period)


class TestBufferPlacement:
    def test_every_edge_gets_a_capacity(self):
        g = loop_graph()
        placement = place_buffers(g)
        assert set(placement.capacities) == {
            (src, dst) for dst, src in g.connections.items()
        }

    def test_default_two_slots(self):
        g = loop_graph()
        placement = place_buffers(g)
        assert all(slots >= 2 for slots in placement.capacities.values())

    def test_loop_back_edge_gets_extra_slack(self):
        g = loop_graph()
        placement = place_buffers(g)
        assert max(placement.capacities.values()) >= 3

    def test_tagged_region_widened_to_tag_budget(self):
        g = loop_graph(tagged=True)
        placement = place_buffers(g, tags=8)
        assert max(placement.capacities.values()) >= 8

    def test_extra_slots_accounted(self):
        g = loop_graph(tagged=True)
        assert place_buffers(g, tags=8).extra_slots > place_buffers(g).extra_slots

    def test_placement_leaves_no_cyclic_garbage(self):
        # A reference cycle through the back-edge walk would pin the whole
        # graph until the cyclic collector runs, which a work unit defers.
        g = loop_graph()
        gc.collect()
        gc.disable()
        try:
            placement = place_buffers(g)
            assert gc.collect() == 0
        finally:
            gc.enable()
        back = {(src.node, dst.node) for (src, dst), slots in placement.capacities.items()
                if slots == 3}
        assert back == {("f", "br")}
