"""Operation classification behind `op_error_ratio`."""

import json

import pytest

import verify
import workloads
from selfconj import checks

EXPECTED = verify.load_expected()
CONFIG = {**workloads.DEFAULT_CONFIG, "n_magnitudes": 1, "n_directions": 2, "suites": ["linalg"]}


def report(fmt):
    cfg = checks.SuiteConfig(**CONFIG)
    render = checks.render_json if fmt == "json" else checks.render_text
    return render(cfg, checks.run_checks(cfg)).encode()


def cli_op(fmt="text", **changes):
    op = {
        "stdout": report(fmt),
        "stderr": b"",
        "exit_code": 0,
        "error": None,
        "format": fmt,
        "config": CONFIG,
    }
    op.update(changes)
    return op


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_good_report_passes_with_its_statuses(fmt):
    reason, statuses = verify.classify(cli_op(fmt), EXPECTED)
    assert reason is None
    assert set(statuses) == {"linalg/antilinear-algebra", "linalg/kron-mixed-product"}


def test_library_call_has_no_exit_code():
    assert verify.classify(cli_op(exit_code=None), EXPECTED)[0] is None


def test_raised():
    assert verify.classify(cli_op(error="Traceback ..."), EXPECTED)[0] == "raised"


def test_exit_2():
    op = cli_op(exit_code=2, stdout=b"", stderr=b"selfconj: grid must look like 3x6\n")
    assert verify.classify(op, EXPECTED)[0] == "exit 2"


def test_traceback_on_stderr():
    stderr = b'Traceback (most recent call last):\n  File "x"\nLinAlgError: SVD did not converge\n'
    assert verify.classify(cli_op(exit_code=1, stderr=stderr), EXPECTED)[0] == "traceback"


@pytest.mark.parametrize(
    "fmt, stdout",
    [
        ("text", b""),
        ("text", b"conjugate-spinor identity checks\nconfig: {}\n\nGARBAGE\n\n1 checks: 1 pass, 0 fail, 0 reported\n"),
        ("json", b"{not json"),
        ("json", b'{"config": {}, "summary": {}}'),
    ],
)
def test_unparsable_report(fmt, stdout):
    reason = verify.classify(cli_op(fmt, stdout=stdout), EXPECTED)[0]
    assert reason.startswith("unparsable report")


def test_missing_check_is_caught():
    doc = json.loads(report("json"))
    doc["checks"] = doc["checks"][:1]
    doc["summary"] = {"total": 1, "pass": 1, "fail": 0, "reported": 0}
    op = cli_op("json", stdout=json.dumps(doc).encode())
    assert verify.classify(op, EXPECTED)[0] == "check-id/anchor set differs from the frozen set"


def test_other_config_is_caught():
    op = cli_op(config={**CONFIG, "theta1": 0.5})
    assert verify.classify(op, EXPECTED)[0] == "report echoes another config"


def test_exit_code_must_match_statuses():
    assert verify.classify(cli_op(exit_code=1), EXPECTED)[0] == "exit code disagrees with statuses"


def test_nondeterministic_bytes():
    earlier = report("text").replace(b"max=", b"max=1", 1)
    reason = verify.classify(cli_op(), EXPECTED, earlier=earlier)[0]
    assert reason == "bytes differ from an identical earlier operation"
    assert verify.classify(cli_op(), EXPECTED, earlier=report("text"))[0] is None
