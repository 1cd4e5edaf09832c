"""Acceptance bookkeeping: one summary line per numbered criterion.

`tests/conftest.py` prints the lines at the end of the run.  This lives in
its own module, not in the conftest, because `perfbench/tests` has a
conftest too, and `from conftest import ...` would find whichever came
first on the path.
"""

ACCEPTANCE = []


def note(num: int, ok: bool, detail: str):
    """Log a criterion outcome without asserting (for expected failures)."""
    ACCEPTANCE.append((num, ok, detail))


def record(num: int, ok: bool, detail: str):
    note(num, ok, detail)
    assert ok, f"criterion {num:02d}: {detail}"
