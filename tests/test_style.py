"""Source layout rules that no installed formatter enforces."""

from pathlib import Path

import selfconj

SOURCES = sorted(Path(selfconj.__file__).parent.glob("*.py"))


def test_no_source_line_exceeds_100_columns():
    assert SOURCES
    long = [
        f"{path.name}:{n}"
        for path in SOURCES
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert not long
