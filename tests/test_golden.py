"""Every CLI output in ``tests/golden/`` is reproduced by the current code.

Text, line structure, file names and exit codes must match exactly; each
numeric token must agree within ``REL_TOL`` relative or ``ABS_TOL``
absolute (the latter for values near 0, such as margins).  Standard error
(``stderr.txt``) must match character for character.  Regenerate the
files with ``python3 tests/golden/regen.py``.
"""

import math
import re
from pathlib import Path

import pytest

from golden.regen import CASES, GOLDEN_DIR, run_case

REL_TOL = 1e-12
ABS_TOL = 1e-12

# A number standing on its own: not part of a word such as "m2" or "sigma0.2".
_NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _mismatches(expected: str, actual: str) -> list:
    exp_lines, act_lines = expected.split("\n"), actual.split("\n")
    if len(exp_lines) != len(act_lines):
        return [f"{len(act_lines)} lines, expected {len(exp_lines)}"]
    problems = []
    for no, (e, a) in enumerate(zip(exp_lines, act_lines), start=1):
        e_parts, a_parts = _NUMBER.split(e), _NUMBER.split(a)
        # split() alternates text (even indices) and numbers (odd indices)
        same = len(e_parts) == len(a_parts) and all(
            x == y if i % 2 == 0 else _close(float(x), float(y))
            for i, (x, y) in enumerate(zip(e_parts, a_parts))
        )
        if not same:
            problems.append(f"line {no}: expected {e!r}, got {a!r}")
    return problems


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    golden, actual = GOLDEN_DIR / name, tmp_path / name
    run_case(name, actual)
    assert _files(actual) == _files(golden)
    problems = []
    for rel in sorted(_files(golden)):
        expected, got = (golden / rel).read_text(), (actual / rel).read_text()
        if rel == "stderr.txt":
            if got != expected:
                problems.append(f"{rel}: expected {expected!r}, got {got!r}")
        else:
            problems += [f"{rel}: {p}" for p in _mismatches(expected, got)]
    assert not problems, "\n".join(problems[:20])


def test_golden_directories_are_the_cases():
    assert {p.name for p in GOLDEN_DIR.iterdir() if p.is_dir() and p.name != "__pycache__"} == set(CASES)


def test_comparison_tolerance_is_one_stated_bound():
    assert _mismatches("lhs=1.5 margin=0", "lhs=1.5000000000000004 margin=-3e-13") == []
    assert _mismatches("lhs=1.5", "lhs=1.5000001") != []
    assert _mismatches("PASS x", "FAIL x") != []
    assert _mismatches("m2=5 sigma0.2_rho-1", "m2=5 sigma0.3_rho-1") != []
    assert _mismatches("a\nb", "a") != []
    assert math.isclose(float(_NUMBER.findall("t=1e-05]")[0]), 1e-5)
