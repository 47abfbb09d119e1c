"""Every test here runs under the thread-leak check of ``tests/conftest.py``."""

import pytest


@pytest.fixture(autouse=True)
def _no_leaked_threads(no_leaked_threads):
    yield
