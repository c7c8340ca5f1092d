"""The committed mutant list applies to this tree, and a stale one is refused.

Running the mutants (``python scripts/mutants.py``) is a CI step of its
own; here only the list is checked, so a refactor that moves a listed
snippet fails the tier-1 suite too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
try:
    import mutants
finally:
    sys.path.pop(0)


def test_committed_list_matches_the_source_once_per_mutant():
    listed = mutants.load(mutants.DEFAULT_LIST)
    assert listed
    for mutant in listed:
        assert mutant["find"] != mutant["replace"]
        for test in mutant["tests"]:
            assert (ROOT / test.split("::")[0]).is_file(), test


def _entry(**changes):
    entry = {
        "name": "probe",
        "file": "src/repro/dtn/buffer.py",
        "find": "self.total -= self.sizes.pop(index)",
        "replace": "self.sizes.pop(index)",
        "tests": ["tests/test_dtn_buffer.py"],
    }
    entry.update(changes)
    return entry


@pytest.mark.parametrize(
    "entries, message",
    [
        ([_entry(find="no such line")], "occurs 0 times"),
        ([_entry(find="self.prefix = None")], "not once"),
        ([_entry(), _entry()], "listed twice"),
        ([_entry(tests=[])], "names no test"),
        ([_entry(file="tests/test_dtn_buffer.py")], "only files under src/"),
        ([{"name": "bare"}], "lacks"),
    ],
)
def test_a_list_that_does_not_apply_is_an_error(tmp_path, entries, message):
    path = tmp_path / "mutants.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    with pytest.raises(mutants.MutantListError, match=message):
        mutants.load(path)
