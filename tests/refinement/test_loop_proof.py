"""Executable section 5: flushing lemma, state invariant, refinement.

These tests replay the paper's proof decomposition on bounded instances:
lemma 5.1 (the sequential loop flushes each terminating input to fⁿ(i)),
lemma 5.2 (ψ is preserved by internal transitions of the tagged loop), and
theorem 5.3 (𝓘 ⊑ 𝓢), for two different loop bodies.
"""

import pytest

from repro.components import default_environment
from repro.errors import RefinementError
from repro.refinement.loop_proof import (
    OutOfOrderLoop,
    SequentialLoop,
    check_flushing_lemma,
    check_loop_refinement,
    check_state_invariant,
    orbit,
    state_accessors,
)


def dec_step(n):
    return n - 1, n - 1 > 0


def collatz_step(n):
    nxt = n // 2 if n % 2 == 0 else 3 * n + 1
    return nxt, nxt != 1


@pytest.fixture
def env():
    env = default_environment(capacity=1)
    env.register_function("dec_step", dec_step, 1)
    env.register_function("collatz_step", collatz_step, 1)
    return env


class TestOrbit:
    def test_terminating_orbit_includes_final_output(self):
        assert orbit(dec_step, 3) == [3, 2, 1, 0]

    def test_divergent_orbit_detected(self):
        with pytest.raises(RefinementError):
            orbit(lambda n: (n, True), 1, bound=8)

    def test_collatz_orbit(self):
        # 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 -> 1 (loop exits emitting 1)
        assert orbit(collatz_step, 3)[-1] == 1


class TestStateAccessors:
    def test_accessors_partition_the_state(self, env):
        loop = SequentialLoop.build("dec_step", env)
        (state,) = loop.module.init
        pieces = [loop.accessors[name](state) for name in sorted(loop.graph.nodes)]
        # Re-nesting the pieces right-associatively rebuilds the state.
        rebuilt = pieces[-1]
        for piece in reversed(pieces[:-1]):
            rebuilt = (piece, rebuilt)
        assert rebuilt == state


class TestFlushingLemma:
    def test_dec_loop_flushes(self, env):
        assert check_flushing_lemma("dec_step", env, [1, 2, 3]) == 3

    def test_collatz_loop_flushes(self, env):
        assert check_flushing_lemma("collatz_step", env, [3, 5]) == 2

    def test_omega_holds_initially(self, env):
        loop = SequentialLoop.build("dec_step", env)
        (state,) = loop.module.init
        assert loop.omega(state)


class TestStateInvariant:
    def test_psi_preserved_dec(self, env):
        visited = check_state_invariant("dec_step", env, inputs=(1, 2), tags=2)
        assert visited > 50  # a real exploration, not a vacuous pass

    def test_psi_preserved_single_tag(self, env):
        assert check_state_invariant("dec_step", env, inputs=(2,), tags=1) > 10

    def test_psi_initially(self, env):
        loop = OutOfOrderLoop.build("dec_step", env, tags=2, inputs=(1, 2))
        (state,) = loop.module.init
        assert loop.psi(state)
        assert loop.tagged_values(state) == []


class TestLoopRefinement:
    def test_theorem_5_3_dec(self, env):
        certificate = check_loop_refinement("dec_step", env, inputs=(1, 2), tags=2)
        assert certificate.relation

    def test_theorem_5_3_single_tag(self, env):
        assert check_loop_refinement("dec_step", env, inputs=(1,), tags=1).relation

    def test_broken_body_fails(self, env):
        """A body that mangles values is caught by the refinement check."""
        env.register_function("bad_step", lambda n: (n - 2, n - 2 > 0), 1)

        from repro.core.ports import IOPort
        from repro.core.semantics import denote
        from repro.refinement.simulation import find_weak_simulation
        from repro.rewriting.rules.common import instantiate
        from repro.rewriting.rules.loop_rewrite import ooo_loop_rhs, sequential_loop_lhs

        # Input 3: bad_step yields -1 on exit, dec_step yields 0 — an
        # observable output mismatch (iteration counts alone would not be).
        impl = denote(ooo_loop_rhs("bad_step", 2).lower(), env)
        sequential = instantiate(sequential_loop_lhs(), {"F": "dec_step"})
        spec = denote(sequential.lower(), env.with_capacity(4))
        result = find_weak_simulation(impl, spec, {IOPort(0): (3,)})
        assert not result.holds
