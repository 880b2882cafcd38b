"""The 19 library obligations: verdicts pinned across the one obligation path.

``Session.check_obligations`` is the only way to decide a library
obligation.  The rows below are what the retired ``Session.verify`` path
(a bare cached verdict per rewrite) returned; the certified path must give
the same ``(rewrite, holds, verified_flag, detail)`` for every rewrite,
cold and when rechecking its own stored certificates.
"""

import pytest

from repro import Session
from repro.rewriting.rules import VERIFY_FACTORY_SPECS

PINNED = [
    ("mux-combine", True, True, ""),
    ("merge-combine", True, True, ""),
    (
        "branch-combine",
        False,
        False,
        "rewrite obligation rhs ⊑ lhs failed: input diagram fails: "
        "input io:2='b' has no winning spec response",
    ),
    ("split-join-elim", True, True, ""),
    (
        "join-split-elim",
        False,
        False,
        "rewrite obligation rhs ⊑ lhs failed: input diagram fails: "
        "input io:1='y' has no winning spec response",
    ),
    ("fork-sink-elim", True, True, ""),
    ("pure-id-elim", True, True, ""),
    ("op1-to-pure", True, True, ""),
    ("op2-to-pure", True, True, ""),
    ("fork-lift-pure", True, True, ""),
    ("fork-to-pure", True, True, ""),
    ("pure-compose", True, True, ""),
    ("join-pure-left", True, True, ""),
    ("join-pure-right", True, True, ""),
    ("split-pure-left", True, True, ""),
    ("split-pure-right", True, True, ""),
    ("join-assoc", True, True, ""),
    ("join-swap", True, True, ""),
    ("ooo-loop", True, True, ""),
]

NAMES = [row[0] for row in PINNED]


def verdict(row: dict) -> tuple:
    return (row["rewrite"], row["holds"], row["verified_flag"], row["detail"])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Cold and warm rows over one cache, in library order."""
    cache_dir = tmp_path_factory.mktemp("obligations")
    cold = Session(cache_dir=cache_dir).check_obligations()
    warm = Session(cache_dir=cache_dir).check_obligations()
    return cold, warm


def test_pins_cover_the_library_in_order(runs):
    cold, _ = runs
    assert len(VERIFY_FACTORY_SPECS) == 19
    assert [row["rewrite"] for row in cold] == NAMES


@pytest.mark.parametrize("index", range(len(PINNED)), ids=NAMES)
def test_cold_row_matches_the_pinned_verdict(runs, index):
    row = runs[0][index]
    assert verdict(row) == PINNED[index]
    assert row["mode"] == ("search" if row["holds"] else "none")


@pytest.mark.parametrize("index", range(len(PINNED)), ids=NAMES)
def test_warm_recheck_gives_the_same_verdict(runs, index):
    cold, warm = runs
    row = warm[index]
    assert verdict(row) == PINNED[index]
    if row["holds"]:
        assert row["mode"] == "recheck"
        assert row["certificate_hashes"] == cold[index]["certificate_hashes"]
    else:
        assert row["mode"] == "none" and row["certificate_hashes"] == []
