"""Shared rings and fixtures for the test suite.

Everything is exact arithmetic; the session-scoped rings are safe to share
because RingSpec and Poly are immutable.
"""

import pytest

from ghrv.fields import make_extension, prime_field, QQ
from ghrv.pipelines import worked_ring


@pytest.fixture(scope="session")
def f2():
    return prime_field(2)


@pytest.fixture(scope="session")
def f3():
    return prime_field(3)


@pytest.fixture(scope="session")
def f5():
    return prime_field(5)


@pytest.fixture(scope="session")
def f9():
    return make_extension(3, 2)


@pytest.fixture(scope="session")
def ring5(f5):
    """k[x,y] base over GF(5), w = x^2*x1 + y^2*x2."""
    return worked_ring(f5)


@pytest.fixture(scope="session")
def ring3(f3):
    return worked_ring(f3)


@pytest.fixture(scope="session")
def ringq():
    return worked_ring(QQ)


@pytest.fixture(scope="session")
def ring9(f9):
    return worked_ring(f9)
