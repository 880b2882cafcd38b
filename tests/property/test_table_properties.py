"""The refinement layer's successor table against ``Module.fire`` on
random elastic graphs.

Every graph :func:`elastic_graphs` draws is denoted into a tree of
products and connections over Pure, Buffer, Fork and Sink leaves; the
table lowered from it must yield, on every state it reaches, exactly the
successors ``Module.fire`` yields on the nested state — same order, same
multiplicity, same ``state_bytes``.  No value set mixes ``True`` with
``1``: the table interns equal states once, so it would hand back
whichever of the two it met first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components import default_environment
from repro.core.semantics import denote
from repro.refinement.checker import uniform_stimuli
from repro.refinement.table import SuccessorTable

from ..refinement.table_oracle import assert_table_matches_fire, reachable
from .test_rewrite_properties import elastic_graphs


@given(elastic_graphs(), st.integers(1, 2), st.sampled_from([(0, 1), (0, 1, 2)]))
@settings(deadline=None)  # example count from the HYPOTHESIS_PROFILE
def test_table_matches_fire_on_reachable_states(graph, capacity, values):
    module = denote(graph.lower(), default_environment(capacity=capacity))
    stimuli = uniform_stimuli(module, values)
    table = SuccessorTable(module)
    states = reachable(table, stimuli, limit=400)
    assert assert_table_matches_fire(table, stimuli, states) >= len(states)
