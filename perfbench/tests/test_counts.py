"""The traced run's counts on the default config repeat exactly, equal an
independent count, and leave the report unchanged.  No figure is pinned:
the counts move when a change does less or more of the counted work."""

import contextlib
import io
from unittest import mock

import numpy.linalg
import pytest

import spans
from selfconj import cli, fieldops, fock, halfspin


def traced_default_run():
    tracer = spans.Tracer().install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["run"])
    finally:
        tracer.uninstall()
    return code, out.getvalue(), spans.totals(tracer.spans, tracer.counts)


@pytest.fixture(scope="module")
def default_totals():
    return traced_default_run()


def test_counts_repeat_and_tracing_leaves_the_report_alone(default_totals):
    code, text, tot = default_totals
    again_code, again_text, again = traced_default_run()
    assert (code, text) == (again_code, again_text)
    assert again["name_calls"] == tot["name_calls"] and again["counts"] == tot["counts"]
    with contextlib.redirect_stdout(io.StringIO()) as plain:
        assert cli.main(["run"]) == code
    assert plain.getvalue() == text


def test_tracer_counts_match_an_independent_count(default_totals):
    _, _, tot = default_totals
    with mock.patch.object(numpy.linalg, "svd", wraps=numpy.linalg.svd) as svd, mock.patch.object(
        fieldops, "build_spinor_basis", wraps=fieldops.build_spinor_basis
    ) as via_fieldops, contextlib.redirect_stdout(io.StringIO()):
        cli.main(["run"])
    # every call is counted under exactly one layer
    assert svd.call_count == sum(n for name, n in tot["counts"].items() if name.endswith(spans.SVD))
    # calls through the name fieldops imported are traced as halfspin calls
    assert 0 < via_fieldops.call_count < tot["name_calls"]["halfspin.build_spinor_basis"]


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    original = halfspin.build_spinor_basis
    basis = vars(fock.FockVector)["basis"]
    assert fieldops.build_spinor_basis is original
    tracer = spans.Tracer().install()
    try:
        assert fieldops.build_spinor_basis is halfspin.build_spinor_basis
        assert fieldops.build_spinor_basis is not original
        assert isinstance(vars(fock.FockVector)["basis"], classmethod)
        assert vars(fock.FockVector)["basis"] is not basis
    finally:
        tracer.uninstall()
    assert fieldops.build_spinor_basis is original and halfspin.build_spinor_basis is original
    assert vars(fock.FockVector)["basis"] is basis
