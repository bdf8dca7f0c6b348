import pytest

from urbasis import LogLogGrowth, run_greedy, run_with_growth


@pytest.fixture(scope="session")
def greedy4():
    return run_greedy(4)


@pytest.fixture(scope="session")
def greedy12():
    return run_greedy(12)


@pytest.fixture(scope="session")
def greedy20():
    return run_greedy(20)


@pytest.fixture(scope="session")
def slow10():
    # budget f(x) = 2*ln(ln(x+3)) + 4; reaches grow doubly exponentially
    return run_with_growth(LogLogGrowth(2, 4, 3), 10)
