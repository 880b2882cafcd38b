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

#: ``certificate_hashes`` of each rule that holds, from a cold run.  They
#: change only when an instance's graphs, stimuli or the game change.
CERTIFICATE_HASHES = {
    "mux-combine": "ae061ea00bc00579000052da116cf2bbc69860496d7d90998059cad7c5457325",
    "merge-combine": "199e0f3b733931b23ddf76a2cbc24c9f10026aa8d147ecba362dcfae03c71ad4",
    "split-join-elim": "fcd4e0509a9e6114f49d76003e4e9803cf88de70877aa8886f093a8e11a819bc",
    "fork-sink-elim": "6eab5d199b09ff0962fdd34bbab923cce9208933c6d738e388ded16fa595c602",
    "pure-id-elim": "5d482f1777ffc929efe01b7d55cb3e92a7ce224e8abb4d311da073a403ab1608",
    "op1-to-pure": "e2f47976f264ce917e95200d83c01db8168d6adc8fa1cc43626d915dd0081435",
    "op2-to-pure": "0272de92616152d98ba6cf42e203f2925b6285574bff85e98147d381305eeb7b",
    "fork-lift-pure": "b68d49f1e2b9a15c9150cf5cbf1c53fbeecfabe4830148f7bddf12bcbe74be14",
    "fork-to-pure": "34812c555226f90c757de49e5596b651d9cd575b35eb6ccf0adecffb152dde43",
    "pure-compose": "ed7ef6a40f3ef8b39fe72cd53552b56e450a3a85f5c6b7d9d41f49b3306f62f1",
    "join-pure-left": "c13d9242afebd83188dec983920047b734557e5d6de75f029ae2659e5fcdb5fa",
    "join-pure-right": "df8c34dbf37c2734cc02f215132208d2ffe5683c9142a31811b81c1f1ab9dde0",
    "split-pure-left": "4d658c19bfd0b76bebcbd97b3b8a7a74167566cf657b058fbabb219f4956d2f2",
    "split-pure-right": "a880ff28606d86b6473d8f6af42a9807275802620f32150f7ca179cf0dca5722",
    "join-assoc": "d4c9d24814da8371424de7948d8a91b652cff40b28efbeafaa922e489b212d32",
    "join-swap": "4cab75843be981dd9e8ee9b37d54cb8bbc021f46e35dbd5a713e4f4312bc2695",
    "ooo-loop": "f01718dd5fdd110266b73c30e1e92ec484ba75380f9a097ff19302d8d823ad31",
}


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


def test_certificate_hashes_are_pinned(runs):
    cold, _ = runs
    got = {row["rewrite"]: row["certificate_hashes"] for row in cold if row["holds"]}
    assert got == {name: [digest] for name, digest in CERTIFICATE_HASHES.items()}


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
