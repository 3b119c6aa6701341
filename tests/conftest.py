import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import infosep.dist
from infosep.harness import dsbs, random_refinement

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def dsbs01():
    return dsbs(0.1)


@pytest.fixture(scope="session")
def dsbs01_refined(dsbs01):
    """A fixed 4x4 refinement of DSBS(0.1) together with its reduction maps."""
    return random_refinement(dsbs01, 4, 4, seed=3)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def pushforward_calls(monkeypatch):
    """A list that gains one entry per `pushforward` call.

    Every ``infosep`` module that binds the function gets the counting
    wrapper, so a call counts whichever module makes it.
    """
    real = infosep.dist.pushforward
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "infosep" or name.startswith("infosep."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return calls
