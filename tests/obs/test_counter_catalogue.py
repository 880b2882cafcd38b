"""``docs/api.md``'s counter table is the complete counter catalogue.

Every ``obs.count(...)`` name under ``src/repro`` must have a row, and
every counter row must be emitted somewhere.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
COUNT_CALL = re.compile(r'obs\.count\(\s*(f?)"([^"]+)"')
PER_REWRITE = re.compile(r"^(rewriting\.\w+):\{[^}]+\}$")
#: f-string counter names and the names they take at run time.
EXPANSIONS = {"executor.{mode}": {"executor.serial", "executor.serial-retry"}}


def emitted() -> set[str]:
    names = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for is_f, name in COUNT_CALL.findall(path.read_text()):
            if not is_f:
                names.add(name)
            elif PER_REWRITE.match(name):
                names.add(PER_REWRITE.sub(r"\1:<rewrite>", name))
            else:
                assert name in EXPANSIONS, f"{path}: expand f-string counter {name!r}"
                names |= EXPANSIONS[name]
    return names


def catalogued() -> set[str]:
    text = (ROOT / "docs" / "api.md").read_text()
    table = text[text.index("the complete counter\ncatalogue"):]
    names = set()
    for row in table.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if row.startswith("|") and len(cells) == 3 and cells[1].startswith("counter"):
            names |= set(re.findall(r"`([^`]+)`", cells[0]))
        elif names and not row.startswith("|"):
            break  # the end of the table
    return names


def test_every_emitted_counter_is_catalogued():
    assert emitted() - catalogued() == set()


def test_every_catalogued_counter_is_emitted():
    assert catalogued() - emitted() == set()


def test_per_rewrite_counters_are_recognised():
    assert "rewriting.applied:<rewrite>" in emitted()
