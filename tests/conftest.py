"""Shared pytest plumbing.

The acceptance tests each map to one numbered criterion; this hook
collects their outcomes and prints one pass/fail line per criterion in
the terminal summary, so the status survives pytest's output capture.
The `checkout_env` fixture builds the environment for tests that run this
checkout in a fresh interpreter.
"""

import os

import pytest

import roprec

_ACCEPTANCE_OUTCOMES = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _ACCEPTANCE_OUTCOMES[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_OUTCOMES):
        name = nodeid.split("::")[-1]
        status = "PASS" if _ACCEPTANCE_OUTCOMES[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {status}")


@pytest.fixture
def checkout_env():
    """A builder of os.environ with this checkout's roprec first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(roprec.__file__)))

    def build(**extra):
        return dict(os.environ, **extra,
                    PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    return build
