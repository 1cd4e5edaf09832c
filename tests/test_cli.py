"""Exit codes, output formats, and byte determinism of the front end."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selfconj
from selfconj import checks, cli


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
    for grid in ("3x", "x", "3.5x6", "3x6x2"):
        want = "selfconj: grid must look like 3x6\n"
        assert run_cli(capsys, "run", "--grid", grid) == (2, "", want)
    for momentum in ("a,b,c", "1,2"):
        want = 'selfconj: momentum must be "px,py,pz"\n'
        assert run_cli(capsys, "tabulate", "--momentum", momentum) == (2, "", want)
    for momentum in ("nan,0,0", "0,inf,0", "0,0,-inf"):
        want = "selfconj: momentum components must be finite\n"
        assert run_cli(capsys, "tabulate", "--momentum", momentum) == (2, "", want)
    assert run_cli(capsys, "run", "--mass", "-1")[0] == 2
    assert run_cli(capsys, "frobnicate")[0] == 2
    # the boost eigenvalues refuse m = 0 before they divide by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = (2, "", "selfconj: finite boosts need m > 0\n")
        assert run_cli(capsys, "tabulate", "--mass", "0") == want


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--mass", "nan", "--suite", "halfspin"],
        ["run", "--mass", "nan"],
        ["run", "--norm", "0"],
        ["run", "--grid", "2200x1"],
        # unvalidated phases and norms on the tabulate path
        ["tabulate", "--theta1", "nan"],
        ["tabulate", "--norm", "inf"],
        ["tabulate", "--norm", "0"],
        # momenta past |p| = 2**52 m, or a boost denominator that is not a
        # finite nonzero float
        ["run", "--grid", "110x1"],
        ["run", "--grid", "106x1"],
        ["run", "--mass", "1e-20"],
        ["run", "--mass", "1e200"],
        ["tabulate", "--momentum", "1e300,0,0"],
        # malformed or non-finite grids and momenta
        ["run", "--grid", "3x"],
        ["run", "--grid", "x"],
        ["run", "--grid", "3.5x6"],
        # int() takes these, a grid size does not
        ["run", "--grid", "1_0x1"],
        ["run", "--grid", " 2 x 1 "],
        ["run", "--grid", "+3x6"],
        ["run", "--grid", "\u0663x6"],
        ["tabulate", "--momentum", "a,b,c"],
        ["tabulate", "--momentum", "nan,0,0"],
        ["tabulate", "--momentum", "inf,0,0"],
        ["tabulate", "--mass", "1e300"],
        # a report path that cannot be written
        ["run", "--out", "."],
        ["tabulate", "--out", "."],
        # a norm whose square overflows or is not a normal float
        ["run", "--norm", "1e160"],
        ["run", "--norm", "1e-170"],
        ["tabulate", "--norm", "1e-170"],
        # a negative value in exponent notation after a space reaches validation
        ["run", "--mass", "-1e0"],
        # an infinite tolerance would pass every finite residual
        ["run", "--tol", "inf", "--format", "json"],
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_nonfinite_and_out_of_domain_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("selfconj: ")
    assert "Traceback" not in err


def test_a_grid_is_two_ascii_integers_joined_by_x(capsys):
    for text in ("1_0x1", " 2 x 1 ", "+3x6", "\u0663x6", "3x6x1", "3x6\n"):
        want = (2, "", "selfconj: grid must look like 3x6\n")
        assert run_cli(capsys, "run", "--grid", text) == want
    # an upper-case X still reads as the separator
    code, out, _ = run_cli(capsys, "run", "--grid", "2X1", "--suite", "linalg")
    assert code == 0 and '"n_directions": 1, "n_magnitudes": 2' in out


def test_unwritable_out_is_refused_before_any_check_runs(monkeypatch, capsys):
    def no_run(cfg):
        pytest.fail("a check ran before the report path was checked")

    monkeypatch.setattr(checks, "run_checks", no_run)
    code, out, err = run_cli(capsys, "run", "--out", ".")
    assert code == 2
    assert out == "" and err.startswith("selfconj: cannot write the report")


def test_usage_error_leaves_an_existing_out_file_alone(tmp_path, capsys):
    target = tmp_path / "report.txt"
    target.write_text("kept")
    assert run_cli(capsys, "run", "--mass", "nan", "--out", str(target))[0] == 2
    assert run_cli(capsys, "tabulate", "--norm", "0", "--out", str(target))[0] == 2
    assert target.read_text() == "kept"


_TINY = math.sqrt(sys.float_info.min)  # the smallest norm with a normal square
_HUGE = math.sqrt(sys.float_info.max)


@settings(database=None, deadline=None)
@given(st.floats())
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(0.0)
@example(5e-324)
@example(1e308)
@example(-1e308)
@example(_TINY)
@example(math.nextafter(_TINY, 0.0))
@example(_HUGE)
@example(math.nextafter(_HUGE, math.inf))
def test_tabulate_norm_domain_is_a_normal_finite_square(x):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["tabulate", f"--norm={x!r}"])
    if sys.float_info.min <= x * x < math.inf:
        assert code == 0 and out.getvalue() and err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("selfconj: ")


def cli_bytes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(database=None, deadline=None)
@given(
    st.sampled_from(["--theta1", "--theta2", "--mass", "--norm"]),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example("--theta1", -1e-3)
@example("--norm", -1e10)
@example("--mass", -1e300)
def test_numeric_option_takes_a_spaced_value_in_any_notation(option, x):
    spaced = cli_bytes(["tabulate", option, repr(x)])
    assert spaced == cli_bytes(["tabulate", f"{option}={x!r}"])
    assert "usage:" not in spaced[2]


@settings(database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3))
@example([-1.0, 0.0, 0.0])
@example([-1e-3, 2.0, -3e5])
def test_momentum_takes_a_spaced_value_with_a_leading_minus(p):
    text = ",".join(map(repr, p))
    spaced = cli_bytes(["tabulate", "--momentum", text])
    assert spaced == cli_bytes(["tabulate", f"--momentum={text}"])
    assert "usage:" not in spaced[2]


def python(*args):
    """A fresh interpreter that imports this checkout's selfconj."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_default_run_loads_neither_sympy_nor_mpmath():
    # the proofs of the Fock certificates need sympy; the run itself must not
    # pay its import time and memory
    probe = (
        "import sys\n"
        "from selfconj import cli\n"
        "cli.main(['run'])\n"
        "print(sorted(m for m in ('sympy', 'mpmath') if m in sys.modules), file=sys.stderr)\n"
    )
    done = python("-c", probe)
    assert done.returncode == 0
    assert done.stderr == "[]\n"


@pytest.mark.parametrize("argv", [["-m", "selfconj.cli", "run"], ["-c", "import selfconj"]])
def test_cold_start_never_imports_numpy_random(argv):
    # the seeded samples come from the standard library; numpy.random would
    # add its import, its teardown and about 5 MB to every cold run.
    # -X importtime names each module the process imports, on stderr
    done = python("-X", "importtime", *argv)
    assert done.returncode == 0
    names = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "selfconj" in names
    assert [n for n in names if n == "numpy.random" or n.startswith("numpy.random.")] == []


def test_no_package_class_is_a_dataclass():
    # a dataclass generates and compiles its methods when its module is
    # imported, about 1 ms per class on a cold start
    classes = [
        obj
        for info in pkgutil.iter_modules(selfconj.__path__, "selfconj.")
        for obj in vars(importlib.import_module(info.name)).values()
        if inspect.isclass(obj) and obj.__module__ == info.name
    ]
    assert len(classes) >= 12
    assert [c for c in classes if hasattr(c, "__dataclass_fields__")] == []


def test_smallest_accepted_norm_gives_a_full_report():
    # at |p| = 2**52 the members are about 1e-162 in size and their <v, v>
    # underflows to 0; the eigen fits must not take them for zero vectors
    done = python("-m", "selfconj.cli", "run", "--norm", "1.5e-154", "--grid", "105x6")
    assert done.returncode in (0, 1)
    assert "Traceback" not in done.stderr
    assert done.stdout.startswith("conjugate-spinor identity checks\n")
    assert re.search(r"\n35 checks: \d+ pass, \d+ fail, \d+ reported\n$", done.stdout)


def test_the_entry_freezes_the_collector_and_main_does_not():
    # interpreter finalization skips frozen objects, so a cold run exits
    # without collecting what numpy and the package leave; main() also runs
    # in-process (tests, demos), where the collector must keep working
    probe = (
        "import gc, sys\n"
        "from selfconj import cli\n"
        "sys.argv = ['selfconj', 'run', '--suite', 'linalg']\n"
        "code = cli.main(['run', '--suite', 'linalg'])\n"
        "print(code, gc.get_freeze_count(), file=sys.stderr)\n"
        "code = cli.entry()\n"
        "print(code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    done = python("-c", probe)
    assert done.returncode == 0
    assert done.stderr == "0 0\n0 True\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["run", "--suite", "fock"], 0),
        (["run", "--tol", "0", "--suite", "halfspin"], 1),
        (["run", "--grid", "3x"], 2),
    ],
)
def test_exit_codes_and_bytes_through_python_m(capsys, tmp_path, argv, code):
    assert run_cli(capsys, *argv)[0] == code
    done = python("-m", "selfconj.cli", *argv)
    assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, *argv)
    # the --out file is still written and closed at exit
    target = tmp_path / "report.txt"
    done = python("-m", "selfconj.cli", *argv, "--out", str(target))
    assert done.returncode == code
    if code != 2:
        assert target.read_text() == run_cli(capsys, *argv)[1]


def test_the_console_script_is_the_function_python_m_calls():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    source = Path(cli.__file__)
    tree = ast.parse(source.read_text())
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    called = [
        node.func.id
        for node in ast.walk(block)
        if isinstance(node, ast.Call) and node.func.id != "SystemExit"
    ]
    pyproject = tomllib.loads((source.parents[2] / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"selfconj": f"selfconj.cli:{called[0]}"}
    assert called == ["entry"]


DATA = Path(__file__).resolve().parent / "data"


# Reports frozen byte for byte.  A change that moves a printed number
# on purpose updates the file and names the move in CHANGES.md.
@pytest.mark.parametrize(
    "name, argv",
    [
        ("run.txt", ["run"]),
        ("run_theta1_0.3_theta2_0.4.txt", ["run", "--theta1", "0.3", "--theta2", "0.4"]),
        ("run_suite_fock.json", ["run", "--suite", "fock", "--format", "json"]),
        ("run.json", ["run", "--format", "json"]),
        *(
            (
                f"tabulate_{what}.txt",
                ["tabulate", "--what", what, "--momentum", "0.3,-0.2,0.9", "--mass", "1.3",
                 "--theta1", "0.4", "--theta2", "-1.1", "--norm", "0.7"],
            )
            for what in ("lambda", "rho", "dirac", "mr")
        ),
    ],
)
def test_text_report_matches_the_frozen_bytes(capsys, name, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (DATA / name).read_bytes()


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
