"""Refinement obligations of the rewrite library, discharged.

This is the test-suite counterpart of the paper's Lean proofs: every
verified rewrite's ``rhs ⊑ lhs`` obligation is checked on its bounded
instances — including the core out-of-order loop rewrite (theorem 5.3) —
and the two rewrites the paper leaves unverified are shown to *fail* their
naive compositional obligation, with the counterexamples the docstrings
describe.  Each obligation is discharged directly through
:func:`check_rewrite_obligation`, which also reaches ``buffer_elim``: the
library driver (``Session.check_obligations``, covered by
``tests/refinement/test_obligation_verdicts.py``) only knows the rules in
``VERIFY_FACTORY_SPECS``.
"""

import pytest

from repro.errors import RefinementError
from repro.exec.hashing import graph_fingerprint
from repro.refinement.checker import check_rewrite_obligation
from repro.rewriting.matcher import first_match
from repro.rewriting.rules import (
    VERIFY_FACTORY_SPECS,
    build_rewrite,
    combine,
    loop_rewrite,
    pure_gen,
    reduction,
    shuffle,
)

from .normalizers import buffer_elim

VERIFIED_RULES = [
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

UNVERIFIED_RULES = [combine.branch_combine, reduction.join_split_elim]


def discharge(rewrite) -> int:
    """Check every bounded instance of *rewrite*'s ``rhs ⊑ lhs``; return how
    many there were.  Raises :class:`RefinementError` on a counterexample."""
    instances = list(rewrite.obligation())
    for lhs, rhs, env, stimuli in instances:
        check_rewrite_obligation(lhs, rhs, env, stimuli)
    return len(instances)


class TestVerifiedObligations:
    @pytest.mark.parametrize("factory", VERIFIED_RULES, ids=lambda f: f.__name__)
    def test_obligation_discharges(self, factory):
        rewrite = factory()
        assert rewrite.verified, f"{rewrite.name} should be marked verified"
        assert discharge(rewrite) > 0

    def test_ooo_loop_obligation_discharges(self):
        """The bounded analogue of theorem 5.3: 𝓘 ⊑ 𝓢."""
        rewrite = loop_rewrite.ooo_loop(tags=2)
        assert rewrite.verified
        assert discharge(rewrite) > 0


class TestUnverifiedObligations:
    """The paper's limitation section says the minor rewrites of figures
    3a-3c are unverified; for these two the naive compositional obligation
    genuinely fails, so the flags are not just missing proofs."""

    @pytest.mark.parametrize("factory", UNVERIFIED_RULES, ids=lambda f: f.__name__)
    def test_marked_unverified(self, factory):
        assert not factory().verified

    def test_branch_combine_counterexample(self):
        # The splits after the combined branch buffer results, letting the
        # true-side output overtake an older false-side token.
        with pytest.raises(RefinementError):
            discharge(combine.branch_combine())

    def test_join_split_elim_counterexample(self):
        # Join;Split synchronises; two bare wires do not.
        with pytest.raises(RefinementError):
            discharge(reduction.join_split_elim())

    def test_library_size_matches_the_paper_scale(self):
        """Section 3.1: ~20 rewrites, one verified core + minor helpers;
        these are the obligations ``repro refine`` discharges."""
        rewrites = [build_rewrite(*spec) for spec in VERIFY_FACTORY_SPECS]
        assert len(rewrites) == 19
        names = [r.name for r in rewrites]
        assert len(names) == len(set(names))
        assert "ooo-loop" in names
        unverified = [r.name for r in rewrites if not r.verified]
        assert set(unverified) == {"branch-combine", "join-split-elim"}


#: The metavariable bindings each rule's obligation instance declares.
DECLARED_BINDINGS = {
    "mux_combine": {},
    "merge_combine": {},
    "branch_combine": {},
    "split_join_elim": {},
    "join_split_elim": {},
    "fork_sink_elim": {},
    "pure_id_elim": {"F": "incr"},
    "op1_to_pure": {"F": "ne0"},
    "op2_to_pure": {"F": "mod"},
    "fork_lift_pure": {"F": "incr"},
    "fork_to_pure": {},
    "pure_compose": {"F": "incr", "G": "ne0"},
    "join_pure_left": {"F": "incr"},
    "join_pure_right": {"F": "incr"},
    "split_pure_left": {"F": "incr"},
    "split_pure_right": {"F": "incr"},
    "join_assoc": {},
    "join_swap": {},
    "ooo_loop": {"F": "dec_step"},
    "buffer_elim": {"S": 3},
}

INSTANCE_RULES = [
    *[(spec[1], lambda spec=spec: build_rewrite(*spec)) for spec in VERIFY_FACTORY_SPECS],
    ("buffer_elim", buffer_elim),
]


class TestInstancesComeFromTheRule:
    """Every obligation instance is the rule's own pattern at concrete
    bindings, with its rhs from the rule's own builder: the rewrite the
    engine applies to an instance's lhs is the one the obligation checks."""

    @pytest.mark.parametrize(
        "name,factory", INSTANCE_RULES, ids=[name for name, _ in INSTANCE_RULES]
    )
    def test_instance_is_the_applied_rewrite(self, name, factory):
        rewrite = factory()
        instances = list(rewrite.obligation())
        assert instances
        for lhs, rhs, _env, _stimuli in instances:
            match = first_match(lhs, rewrite)
            assert match is not None
            assert match.nodes == {node: node for node in rewrite.lhs.nodes}
            assert match.params == DECLARED_BINDINGS[name]
            assert graph_fingerprint(rewrite.rhs(match)) == graph_fingerprint(rhs)

    def test_ooo_loop_is_checked_at_two_tags(self):
        rewrite = loop_rewrite.ooo_loop(tags=32)
        ((lhs, rhs, _env, _stimuli),) = rewrite.obligation()
        two_tags = loop_rewrite.ooo_loop_rhs("dec_step", tags=2)
        assert graph_fingerprint(rhs) == graph_fingerprint(two_tags)
        applied = rewrite.rhs(first_match(lhs, rewrite))
        assert applied.nodes["tg"].param("tags") == 32
