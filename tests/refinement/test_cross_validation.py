"""Cross-validation: the simulation game vs. the trace semantics.

Refinement implies trace inclusion (section 4.4).  For every rewrite
obligation in the library the two checkers must agree: obligations the game
discharges have no trace counterexample, and obligations the game refutes
have one (within the explored depth).  Disagreement would mean a bug in one
of the two semantics — this suite is the library checking itself.
"""

import pytest

from repro.errors import RefinementError
from repro.refinement.checker import check_rewrite_obligation, check_rewrite_obligation_traces
from repro.rewriting.rules import combine, pure_gen, reduction, shuffle

from ..rewriting.normalizers import buffer_elim

AGREEING_RULES = [
    combine.mux_combine,
    combine.merge_combine,
    reduction.split_join_elim,
    reduction.fork_sink_elim,
    reduction.pure_id_elim,
    pure_gen.op1_to_pure,
    pure_gen.op2_to_pure,
    pure_gen.fork_lift_pure,
    pure_gen.fork_to_pure,
    pure_gen.pure_compose,
    shuffle.join_pure_left,
    shuffle.join_pure_right,
    shuffle.split_pure_left,
    shuffle.split_pure_right,
    shuffle.join_assoc,
    shuffle.join_swap,
    buffer_elim,
]


@pytest.mark.parametrize("factory", AGREEING_RULES, ids=lambda f: f.__name__)
def test_discharged_obligations_have_no_trace_counterexample(factory):
    rewrite = factory()
    for lhs, rhs, env, stimuli in rewrite.obligation():
        check_rewrite_obligation(lhs, rhs, env, stimuli)
        check_rewrite_obligation_traces(lhs, rhs, env, stimuli, depth=4)


def test_refuted_obligation_has_trace_witness():
    """join-split-elim fails the game; traces must find a witness too."""
    rewrite = reduction.join_split_elim()
    (lhs, rhs, env, stimuli) = next(iter(rewrite.obligation()))
    with pytest.raises(RefinementError):
        check_rewrite_obligation(lhs, rhs, env, stimuli)
    with pytest.raises(RefinementError):
        check_rewrite_obligation_traces(lhs, rhs, env, stimuli, depth=3)


def test_branch_combine_refutation_needs_depth():
    """branch-combine's counterexample is 7 events deep: shallow trace
    exploration misses it, the game does not — bounded-depth trace checking
    is the weaker oracle, which is why the game is the primary checker."""
    rewrite = combine.branch_combine()
    (lhs, rhs, env, stimuli) = next(iter(rewrite.obligation()))
    with pytest.raises(RefinementError):
        check_rewrite_obligation(lhs, rhs, env, stimuli)
    # depth 4 is too shallow to see the reordering
    check_rewrite_obligation_traces(lhs, rhs, env, stimuli, depth=4)
    with pytest.raises(RefinementError):
        check_rewrite_obligation_traces(lhs, rhs, env, stimuli, depth=7)
