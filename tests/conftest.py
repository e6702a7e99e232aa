"""Shared pytest plumbing: collects the acceptance criterion verdict lines,
and checks that no test leaves the package's OpenBLAS scope entered.

test_acceptance.py records one line per criterion; printing them from a
terminal-summary hook keeps them visible under normal output capture.
"""

import re

import pytest

from rnswinograd import layer

_LINES = []


def record_acceptance(line: str) -> None:
    _LINES.append(line)


@pytest.fixture(autouse=True)
def no_blas_scope_left_entered():
    """Fails the test that leaks a _run's OpenBLAS scope, not a later one that
    reads the thread count; the scope is closed again, so only that test fails."""
    yield
    scope, leaked = layer._one_blas_thread, layer._one_blas_thread._calls
    for _ in range(leaked):
        scope.__exit__(None, None, None)
    assert leaked == 0, f"{leaked} OpenBLAS scope(s) left entered"


def _criterion_number(line: str) -> int:
    m = re.search(r"criterion (\d+)", line)
    return int(m.group(1)) if m else 99


def pytest_terminal_summary(terminalreporter):
    seen = {_criterion_number(line) for line in _LINES}
    for rep in terminalreporter.stats.get("failed", []):
        m = re.search(r"test_criterion_(\d+)", rep.nodeid)
        if m and int(m.group(1)) not in seen:
            _LINES.append(f"criterion {m.group(1)}: FAIL ({rep.nodeid})")
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_LINES, key=_criterion_number):
        terminalreporter.write_line(line)
