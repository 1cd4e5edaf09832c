"""The six demos run in-process and print their walkthroughs."""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def run_demo(path, capsys) -> str:
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_six_demos():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_", "05_", "06_"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    out = run_demo(path, capsys)
    assert out.strip()
    assert not re.search(r"\bnan\b", out, re.IGNORECASE)


def test_fock_demo_reads_the_constant_symmetries(capsys):
    out = run_demo(DEMOS[4], capsys)
    assert out.splitlines()[0] == (
        "squares: {'inversion': (1+0j), 'charge': (-1+0j), 'charge_flip': (-1+0j)}"
    )
    assert "eigenvalue pair (1+0j, 0+1j): min singular value 1.414214" in out
