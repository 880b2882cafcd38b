"""Verify the out-of-order loop rewrite, piece by piece (section 5).

Replays the paper's proof decomposition executable-style:

* lemma 5.1 — the sequential loop flushes each input to fⁿ(i);
* lemma 5.2 — ψ (no-duplication / in-order / iterate) is an invariant of
  the tagged loop;
* theorem 5.3 — the simulation game decides 𝓘 ⊑ 𝓢;
* and, for contrast, a deliberately broken loop body is refuted.

Run with:  python examples/verify_rewrite.py
"""

import time

from repro.components import default_environment
from repro.core.ports import IOPort
from repro.core.semantics import denote
from repro.errors import RefinementError
from repro.refinement.loop_proof import (
    check_flushing_lemma,
    check_loop_refinement,
    check_state_invariant,
)
from repro.refinement.simulation import find_weak_simulation
from repro.rewriting.rules.common import instantiate
from repro.rewriting.rules.loop_rewrite import ooo_loop_rhs, sequential_loop_lhs


def main() -> None:
    env = default_environment(capacity=1)
    env.register_function("dec_step", lambda n: (n - 1, n - 1 > 0), 1)

    print("Lemma 5.1 (flushing): the sequential loop computes f^n(i)")
    t0 = time.perf_counter()
    checked = check_flushing_lemma("dec_step", env, inputs=[1, 2, 3, 4])
    print(f"  {checked} inputs flushed correctly ({time.perf_counter() - t0:.2f}s)")

    print("Lemma 5.2 (state invariant): ψ preserved by internal steps")
    t0 = time.perf_counter()
    states = check_state_invariant("dec_step", env, inputs=(1, 2), tags=2)
    print(f"  ψ holds across {states} reachable states ({time.perf_counter() - t0:.2f}s)")

    print("Theorem 5.3 (refinement): out-of-order ⊑ sequential")
    t0 = time.perf_counter()
    certificate = check_loop_refinement("dec_step", env, inputs=(1, 2), tags=2)
    print(
        f"  simulation relation with {len(certificate.relation)} pairs over "
        f"{certificate.impl_states} impl states ({time.perf_counter() - t0:.2f}s)"
    )

    print("Counterexample check: a broken body must be refuted")
    env.register_function("bad_step", lambda n: (n - 2, n - 2 > 0), 1)
    impl = denote(ooo_loop_rhs("bad_step", 2).lower(), env)
    sequential = instantiate(sequential_loop_lhs(), {"F": "dec_step"})
    spec = denote(sequential.lower(), env.with_capacity(4))
    result = find_weak_simulation(impl, spec, {IOPort(0): (3,)})
    assert not result.holds
    print(f"  refuted: {result.violation}")


if __name__ == "__main__":
    main()
