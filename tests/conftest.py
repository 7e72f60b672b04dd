"""Fixtures shared across test modules."""

import pytest

from wildprim import BaseField, enumerate_primitive


@pytest.fixture(scope="session")
def q2n4():
    """The Q_2 n=4 enumeration (53 records; about half a minute)."""
    return enumerate_primitive(BaseField(2, 1, 0), 4)
