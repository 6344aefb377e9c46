"""Shared test configuration, a stub generator and the acceptance-summary
hook."""
from __future__ import annotations

import pytest
from hypothesis import settings

from swarmsgd.randomness import make_rng

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


class ZeroFirstExponential:
    """A generator whose first ``exponential`` draw comes back as 0.0;
    every other call goes to a real generator."""

    def __init__(self, seed):
        self.rng = make_rng(seed)
        self.exponential_calls = 0

    def exponential(self, scale, size):
        out = self.rng.exponential(scale, size)
        if self.exponential_calls == 0:
            out[0] = 0.0
        self.exponential_calls += 1
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.fixture
def zero_first_exponential():
    """Builds a ``ZeroFirstExponential`` from a seed."""
    return ZeroFirstExponential


# Acceptance tests register one entry per criterion; the terminal
# summary prints a single pass/fail line for each so the outcome of
# every criterion is visible even when the run is otherwise green.
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def register_criterion(number: int, title: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[number] = (title, bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        title, passed, detail = ACCEPTANCE_RESULTS[number]
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number}: {title}"
        if detail:
            line = f"{line} ({detail})"
        terminalreporter.write_line(line)
