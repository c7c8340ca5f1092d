#!/usr/bin/env python
"""Apply each listed source mutant and check that its named tests kill it.

A mutant is one exact source edit that a correct test suite must notice:
a comparison turned strict, a guard dropped, a running total left stale.
The list lives in ``scripts/mutants.json``; each entry holds

* ``name``: a short identifier;
* ``file``: the mutated file, relative to the repository root;
* ``find`` and ``replace``: the exact source snippet and its replacement;
* ``tests``: the pytest node ids that must fail with the mutant applied.

Every mutant is applied on its own to a temporary copy of ``src/``, and
its tests run against that copy (``PYTHONPATH`` points at it) with
RuntimeWarnings as errors, as the tier-1 suite runs.  A mutant is
*killed* when the tests fail and *survives* when they pass.  Before any
mutant runs, every snippet must occur exactly once in its file, and every
named test must pass on the unmutated tree: a snippet that no longer
matches is an error, not a skip, so the list has to follow refactors.

Usage::

    python scripts/mutants.py

The exit status is 0 when every mutant is killed, 1 when one survives
and 2 when the list itself is broken (a snippet that does not match
once, or a named test that fails unmutated).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_LIST = ROOT / "scripts" / "mutants.json"

#: pytest exit codes that mean "tests ran and some failed" (1) or "the
#: mutated package failed to import during collection" (2); any other
#: non-zero code (usage error, no tests collected) breaks the list.
_KILLED_CODES = (1, 2)

_FIELDS = ("name", "file", "find", "replace", "tests")


class MutantListError(Exception):
    """The mutant list does not apply to this tree."""


def load(path: Path) -> List[Dict[str, object]]:
    """Read the mutant list and check each entry against the source tree."""
    mutants = json.loads(path.read_text(encoding="utf-8"))
    names = set()
    for mutant in mutants:
        missing = [field for field in _FIELDS if field not in mutant]
        if missing:
            raise MutantListError(f"mutant {mutant.get('name')!r} lacks {missing}")
        name = mutant["name"]
        if name in names:
            raise MutantListError(f"mutant {name!r} is listed twice")
        names.add(name)
        if not str(mutant["file"]).startswith("src/"):
            raise MutantListError(f"mutant {name!r}: only files under src/ can be mutated")
        if not mutant["tests"]:
            raise MutantListError(f"mutant {name!r} names no test that kills it")
        source = (ROOT / mutant["file"]).read_text(encoding="utf-8")
        count = source.count(mutant["find"])
        if count != 1:
            raise MutantListError(
                f"mutant {name!r}: its snippet occurs {count} times in {mutant['file']}, "
                "not once; update the list to follow the source"
            )
    return mutants


def run_tests(src: Path, tests: Sequence[str], storage: Path) -> int:
    """Run *tests* against the package in *src*; return pytest's exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # Failing examples a mutant provokes must not reach the repository's
    # Hypothesis database, where later unmutated runs would replay them.
    env["HYPOTHESIS_STORAGE_DIRECTORY"] = str(storage)
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "-W", "error::RuntimeWarning", *tests,
    ]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode


def run(mutants: Sequence[Dict[str, object]]) -> int:
    """Check the named tests unmutated, then run every mutant; return the exit status."""
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        scratch = Path(scratch)
        storage = scratch / "hypothesis"
        tests = sorted({test for mutant in mutants for test in mutant["tests"]})
        code = run_tests(ROOT / "src", tests, storage)
        if code != 0:
            print(f"the named tests fail on the unmutated tree (pytest exit {code})")
            return 2
        for mutant in mutants:
            copy = scratch / "src"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            target = scratch / mutant["file"]
            source = target.read_text(encoding="utf-8")
            target.write_text(source.replace(mutant["find"], mutant["replace"]), encoding="utf-8")
            start = time.perf_counter()
            code = run_tests(copy, mutant["tests"], storage)
            elapsed = time.perf_counter() - start
            if code == 0:
                verdict = "SURVIVED"
                survived += 1
            elif code in _KILLED_CODES:
                verdict = "killed"
            else:
                print(f"{mutant['name']}: pytest exit {code}, the list is broken")
                return 2
            print(f"{verdict:8}  {elapsed:6.1f} s  {mutant['name']}")
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 1 if survived else 0


def main() -> int:
    try:
        mutants = load(DEFAULT_LIST)
    except MutantListError as error:
        print(f"error: {error}")
        return 2
    return run(mutants)


if __name__ == "__main__":
    sys.exit(main())
