"""Shared pytest hooks and fixtures: acceptance PASS lines in the summary, random pmfs."""

import numpy as np
import pytest

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_record():
    """Callable recording a line to print in the terminal summary."""
    return _ACCEPTANCE_LINES.append


@pytest.fixture
def probs_with_zeros():
    """`draw(rng, size, rate)`: a random pmf of `size` entries, each 0 with probability `rate`."""
    def draw(rng, size, rate=0.2):
        v = rng.dirichlet(np.ones(size)) * (rng.uniform(size=size) > rate)
        v[rng.integers(size)] += v.sum() == 0.0
        return v / v.sum()

    return draw


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
