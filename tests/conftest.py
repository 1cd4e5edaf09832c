"""The acceptance summary: a line per numbered criterion (see acceptance_log)."""

from acceptance_log import ACCEPTANCE


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, detail in sorted(ACCEPTANCE):
        status = "pass" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d}: {status} - {detail}")
