"""A default run, and every suite at generic phases, calls no LAPACK routine.

Every LAPACK-backed entry point of numpy.linalg is replaced by one that
raises an AssertionError, which no check turns into a refusal: a call would
end the run with a traceback.  The reports must keep their statuses, and
the default reports their bytes."""

import contextlib
import io

import numpy as np
import pytest

from selfconj import checks, cli

LAPACK = (
    "svd",
    "svdvals",
    "eig",
    "eigh",
    "eigvals",
    "eigvalsh",
    "qr",
    "solve",
    "inv",
    "lstsq",
    "pinv",
    "det",
    "slogdet",
    "cholesky",
    "matrix_rank",
)


def _forbid_lapack(monkeypatch):
    # setattr raises unless numpy.linalg has the name
    for name in LAPACK:

        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"numpy.linalg.{_name} called")

        monkeypatch.setattr(np.linalg, name, forbidden)


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["run", *argv])
    return code, out.getvalue()


def _statuses(cfg):
    return {r.check_id: r.status for r in checks.run_checks(cfg)}


@pytest.mark.parametrize("argv", [(), ("--format", "json")], ids=["text", "json"])
def test_a_default_run_calls_no_lapack_routine(monkeypatch, argv):
    want = _cli(*argv)
    _forbid_lapack(monkeypatch)
    assert _cli(*argv) == want


@pytest.mark.parametrize("suite", checks.KNOWN_SUITES)
def test_every_suite_at_generic_phases_calls_no_lapack_routine(monkeypatch, suite):
    cfg = checks.SuiteConfig(theta1=0.3, theta2=0.4, suites=(suite,))
    want = _statuses(cfg)
    _forbid_lapack(monkeypatch)
    assert _statuses(cfg) == want
