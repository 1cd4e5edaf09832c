"""Exit codes, output formats, and byte determinism of the front end."""

import json

import pytest

from selfconj import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_default_run_passes(capsys):
    code, out, err = run_cli(capsys, "run")
    assert code == 0
    assert "35 checks: 30 pass, 0 fail, 5 reported" in out
    assert err == ""


def test_zero_tolerance_fails(capsys):
    code, out, _ = run_cli(capsys, "run", "--tol", "0", "--suite", "halfspin")
    assert code == 1
    assert "fail" in out


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "run", "--grid", "3x")[0] == 2
    assert run_cli(capsys, "run", "--mass", "-1")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "tabulate", "--momentum", "1,2")[0] == 2
    assert run_cli(capsys, "tabulate", "--mass", "0")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--mass", "nan", "--suite", "halfspin"],
        ["run", "--mass", "nan"],
        ["run", "--norm", "0"],
        ["run", "--grid", "2200x1"],
    ],
)
def test_nonfinite_and_out_of_domain_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("selfconj: ")
    assert "Traceback" not in err


def test_structural_predicate_fails_whatever_the_tolerance(capsys):
    # the parity margin of the conjugate family collapses at theta1 = pi/4
    # on this grid; the check must fail even when --tol forgives everything
    argv = ["run", "--suite", "halfspin", "--grid", "1x2", "--theta1", "0.7853981633974483"]
    for tol in ("1e-12", "1", "10"):
        code, out, _ = run_cli(capsys, *argv, "--tol", tol)
        assert code == 1
        assert "FAIL      halfspin/eigenstructure-split" in out


def test_json_suite_filter(capsys):
    code, out, _ = run_cli(capsys, "run", "--suite", "fock", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ids = [c["check_id"] for c in doc["checks"]]
    assert ids == sorted(ids)
    assert all(i.startswith("fock/") for i in ids)
    assert len(ids) == 6


def test_run_reports_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["run", "--format", "json", "--out", str(a)]) == 0
    assert cli.main(["run", "--format", "json", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_tabulate_rest_lambda_rows(capsys):
    code, out, _ = run_cli(capsys, "tabulate", "--what", "lambda")
    assert code == 0
    rows = {
        line.split()[0]: line.split()[1:]
        for line in out.splitlines()
        if line.startswith(("lam_", "spinor"))
    }
    assert rows["lam_s_up"] == ["0", "0", "0", "1", "1", "0", "0", "0"]
    assert rows["lam_s_dn"] == ["0", "-1", "0", "0", "0", "0", "1", "0"]
    assert rows["lam_a_up"] == ["0", "0", "0", "-1", "1", "0", "0", "0"]


def test_tabulate_mr_longitudinal_rows(capsys):
    code, out, _ = run_cli(capsys, "tabulate", "--what", "mr", "--momentum", "0,0,1")
    assert code == 0
    rows = {
        line.split()[0]: line.split()[1:] for line in out.splitlines() if line.strip()
    }
    assert all(tok == "0" for tok in rows["u_re_lng"])
    # longitudinal u is pure imaginary, v pure real, at a z momentum
    assert all(tok == "0" for tok in rows["u_lng"][0::2])
    assert all(tok == "0" for tok in rows["v_lng"][1::2])


def test_tabulate_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "tabulate", "--what", "dirac", "--momentum", "0.3,0.2,0.9")
    _, out2, _ = run_cli(capsys, "tabulate", "--what", "dirac", "--momentum", "0.3,0.2,0.9")
    assert out1 == out2


def test_out_file_writes_and_silences_stdout(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, out, _ = run_cli(capsys, "tabulate", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "lam_s_up" in target.read_text()
