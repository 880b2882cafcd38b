"""Fingerprint semantics: stability, sensitivity, and key coverage."""

import numpy as np
import pytest

from repro import Session
from repro.benchmarks import matvec
from repro.components import default_environment, fork, mux
from repro.core import ExprHigh
from repro.exec import hashing
from repro.exec.hashing import (
    eval_unit_key,
    fingerprint,
    graph_fingerprint,
    obligation_fingerprint,
    program_fingerprint,
    stimuli_fingerprint,
)
from repro.hls.frontend import compile_program
from repro.refinement.checker import check_rewrite_obligation
from repro.rewriting.rules import VERIFY_FACTORY_SPECS, build_rewrite
from repro.rewriting.rules.combine import mux_combine


def small_graph() -> ExprHigh:
    graph = ExprHigh()
    graph.add_node("cfork", fork(2))
    graph.add_node("m_a", mux())
    graph.add_node("m_b", mux())
    graph.connect("cfork", "out0", "m_a", "cond")
    graph.connect("cfork", "out1", "m_b", "cond")
    graph.mark_input(0, "cfork", "in0")
    graph.mark_input(1, "m_a", "in0")
    graph.mark_input(2, "m_a", "in1")
    graph.mark_input(3, "m_b", "in0")
    graph.mark_input(4, "m_b", "in1")
    graph.mark_output(0, "m_a", "out0")
    graph.mark_output(1, "m_b", "out0")
    return graph


class TestFingerprint:
    def test_part_boundaries_matter(self):
        assert fingerprint("ab", "c") != fingerprint("a", "bc")

    def test_deterministic(self):
        assert fingerprint("x", "y") == fingerprint("x", "y")


class TestGraphFingerprint:
    def test_copy_is_identical(self):
        graph = small_graph()
        assert graph_fingerprint(graph) == graph_fingerprint(graph.copy())

    def test_insertion_order_does_not_matter(self):
        graph = small_graph()
        other = ExprHigh()
        # Same graph, nodes added in a different order.
        other.add_node("m_b", mux())
        other.add_node("m_a", mux())
        other.add_node("cfork", fork(2))
        other.connect("cfork", "out0", "m_a", "cond")
        other.connect("cfork", "out1", "m_b", "cond")
        for index, (node, port) in enumerate(
            [("cfork", "in0"), ("m_a", "in0"), ("m_a", "in1"), ("m_b", "in0"), ("m_b", "in1")]
        ):
            other.mark_input(index, node, port)
        other.mark_output(0, "m_a", "out0")
        other.mark_output(1, "m_b", "out0")
        assert graph_fingerprint(graph) == graph_fingerprint(other)

    def test_param_edit_changes_hash(self):
        graph = small_graph()
        edited = graph.copy()
        edited.nodes["m_a"] = edited.nodes["m_a"].with_params(tagged=True)
        assert graph_fingerprint(graph) != graph_fingerprint(edited)

    def test_connection_edit_changes_hash(self):
        graph = small_graph()
        edited = small_graph()
        edited.disconnect("m_b", "cond")
        edited.connect("cfork", "out1", "m_b", "cond")  # same edge: identical again
        assert graph_fingerprint(graph) == graph_fingerprint(edited)
        edited.disconnect("m_b", "cond")
        assert graph_fingerprint(graph) != graph_fingerprint(edited)


class TestEnvironmentSignature:
    def test_capacity_changes_signature(self):
        assert (
            default_environment(capacity=1).signature()
            != default_environment(capacity=2).signature()
        )

    def test_function_registration_changes_signature(self):
        env = default_environment()
        before = env.signature()
        env.register_function("extra_fn", lambda value: value, 1)
        assert env.signature() != before


class TestProgramAndStimuli:
    def test_program_fingerprint_sensitive_to_arrays(self):
        program = matvec(4)
        before = program_fingerprint(program)
        program.arrays["x"][0] += 1.0
        assert program_fingerprint(program) != before

    def test_stimuli_fingerprint_order_insensitive(self):
        assert stimuli_fingerprint({"a": (1, 2), "b": (3,)}) == stimuli_fingerprint(
            {"b": (3,), "a": (1, 2)}
        )
        assert stimuli_fingerprint({"a": (1, 2)}) != stimuli_fingerprint({"a": (2, 1)})


class TestUnitKeys:
    def test_eval_unit_key_is_stable_and_distinguishes_programs(self):
        env = default_environment()
        program = matvec(4)
        key = eval_unit_key(program, compile_program(program, env), env)
        again = matvec(4)
        assert eval_unit_key(again, compile_program(again, env), env) == key

        other = matvec(4)
        other.arrays["x"][...] = np.arange(len(other.arrays["x"]))
        other_compiled = compile_program(other, default_environment())
        assert eval_unit_key(other, other_compiled, env) != key

        larger = matvec(5)
        assert eval_unit_key(larger, compile_program(larger, env), env) != key

    def test_obligation_fingerprint_stable_per_rewrite(self):
        first = obligation_fingerprint("mux-combine", list(mux_combine().obligation()))
        second = obligation_fingerprint("mux-combine", list(mux_combine().obligation()))
        assert first == second


#: ``(certificate_key, sat_cross_check_key)`` of every library rule's one
#: obligation instance, with ``TOOL_VERSION`` pinned to ``"pinned"``.  A
#: key that drifts turns every user's warm cache cold, and nothing else
#: notices: benchmarks and CI always start from an empty cache.
PINNED_KEYS = {
    "mux_combine": (
        "4473cd558967eccdab4249f7c99744684aa2aa113a705fd307f2c7d3e5091327",
        "2fa26ff1d09809c4cffd17e0df69f7bcb1016e7f51ce9bf76ee32c0c9b7abdfb",
    ),
    "merge_combine": (
        "a1bb629288c4411df94f2335b0374b00b61c3a6b69893b1b96eee8ecdd889e0b",
        "c0dac90d06f7d6bb349d5daa3ee061308b48da0874700a27c00ea6582e0036fe",
    ),
    "branch_combine": (
        "bc255b96c6d7e1309b442d0699e3caebda1094041f20b0cf385fd19ea5a5b04c",
        "e464fba7fa1f359830623f9f58c6eb6914320b7562298d24a08ee5cdce22d039",
    ),
    "split_join_elim": (
        "d184108627f32bdb24df3d46a5cb274db09180c910494bbc01929dd5ece8cfb1",
        "abbc3aa3690963b5db3b96969437eaec286afd6d037b1734c7e6409792fb8ceb",
    ),
    "join_split_elim": (
        "8fe2d7ab4643623710716bee56fa3f3a6f78a1e02ca78f3201df73c1801c56cc",
        "20fde173fe867e2ba560d6921e421883480b6cdbca557d1bbe6850fa803a7a37",
    ),
    "fork_sink_elim": (
        "f6b404b27b9dba7bc5a438706a60e084e5df53a344c09629ce1e9d20962a389a",
        "3dd184debd6fe35f56fde264b8294d2ddf87b7e551f82ed41a3dfad26feda07e",
    ),
    "pure_id_elim": (
        "9e7c01d68583c0e519f566a92fa4e4a072c57bb0a4d363e42befd62586ff64a4",
        "31fab7913a432a7ee0a2ae49309ac6c59d4932561d095294004c74623a31c412",
    ),
    "op1_to_pure": (
        "3f7cd85b7ef91a7ab3559678eaf69eb7fbc4ca8e1a0cb6ff068ef334b5d58e4c",
        "e1ddf72f5715a63fceeb1cc826146a794cef9b837af756f15388218cf165496f",
    ),
    "op2_to_pure": (
        "77d3c78523ca987553cca8a00b020b9ce10a7e935230bf9f6e8c75017a6408f7",
        "cf8afa80067de4840b41c63312bacdc02fa86f0c9421b81f1875de18206a9057",
    ),
    "fork_lift_pure": (
        "e3a489713e1b0253b97c93505811f4f5d28adcf47df03930dc62920fdaa52726",
        "fe7153c0987e63719fd1ba9acfe5de4b24c5493e7d2353be65d0533f273c1431",
    ),
    "fork_to_pure": (
        "efda072f47d07450df3e95b3380ab63d8a7e88c199ee671d135000a8cf242c9f",
        "f603c8dfb3418dd3f1cbb07c1cb8703918fd4a058b0cf4b74f8f430c0708caf2",
    ),
    "pure_compose": (
        "8e1fd58fefeec47c48987b0bfcf417eed409b73312303bc08056c891657adb0f",
        "d4ec19cb0e9c7a8f62394c88c118e72229197acded60fd5c17e2ece26bc9e18c",
    ),
    "join_pure_left": (
        "3465c3c354f439d841f5b12a3d8ffe553b9e336b42f31b80af22e9dda086af04",
        "06d40f332ad2e3058db52e571e43c0621fce4a4ef68895a638d7b16d9f50bfea",
    ),
    "join_pure_right": (
        "1d3d6b215ad588cac19d0cd7e05109367b58879ea761acaf61c3e45156c4ba70",
        "3863e58a886196e5b5744dfa3c850426f8ddb00cd810cfab9e188c5c9c681aa3",
    ),
    "split_pure_left": (
        "3d401196ae015bb2c4ba0660930ad6db96a4b28d0a0fdd9acc1c0a6de34631b9",
        "7b166578f3d15cdb88f15d37b2bd30f3f50870286593bad470d1042839398cf2",
    ),
    "split_pure_right": (
        "1c8f2b4eadaf2ec515b822456afd5a1d435df8a2f89ebf636bd1bdcb4b87ae51",
        "fa45541fa9ece92633f3137f7d59571b80310f60ff9392249eccea4e1732f1ae",
    ),
    "join_assoc": (
        "e32eca033cd699dbdd98a9af7c86e241be5168ada4f11d7d3f98ab92680d9971",
        "7aa5f9236e1f2d43c28bae976038d5897a0f63b49dc7569f3833193036706a5d",
    ),
    "join_swap": (
        "01322e492261cda7f9083309e72b792cae7d6a34bcdfee51b6e0ab193e6471d2",
        "3b7c3738d04e075f634773a79b4d27214516aa5b6699641473b24424c95687e1",
    ),
    "ooo_loop": (
        "1418618c7009f89e7636453e4ee73740eebef2f45082eb87f4cdc234a624a62c",
        "ea8c8865c3fe34394d196a2767efec5d4ea3ee4aff9c618e25d79940f5a8f691",
    ),
}


class _KeySeen(Exception):
    pass


class _KeyRecorder:
    """A cache that records the key it is asked for, then stops the check."""

    def __init__(self):
        self.keys = []

    def get_bytes(self, key):
        self.keys.append(key)
        raise _KeySeen


class TestPinnedKeys:
    @pytest.fixture(autouse=True)
    def pinned_version(self, monkeypatch):
        monkeypatch.setattr(hashing, "TOOL_VERSION", "pinned")

    def test_certificate_keys_are_pinned(self):
        for spec in VERIFY_FACTORY_SPECS:
            recorder = _KeyRecorder()
            for lhs, rhs, env, stimuli in build_rewrite(*spec).obligation():
                with pytest.raises(_KeySeen):
                    check_rewrite_obligation(lhs, rhs, env, stimuli, cache=recorder)
            assert recorder.keys == [PINNED_KEYS[spec[1]][0]], spec[1]

    def test_sat_cross_check_keys_are_pinned(self, monkeypatch):
        session = Session(jobs=1, use_cache=False)
        units = []
        monkeypatch.setattr(session.executor, "run", units.extend)
        session.sat_check()
        assert {unit.uid: unit.cache_key for unit in units} == {
            f"sat-check:{build_rewrite(*spec).name}": PINNED_KEYS[spec[1]][1]
            for spec in VERIFY_FACTORY_SPECS
        }
