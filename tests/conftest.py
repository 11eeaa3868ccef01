"""Fixtures shared by the test modules."""

import pytest

import rcbench.bench as bench


def _drop_shared_pool():
    if bench._pool is not None:
        bench._pool[1].shutdown()
    bench._pool = None


@pytest.fixture
def fresh_pool():
    """Start and end the test with no shared sweep pool: its first pooled
    sweep then forks new workers from the process as the test left it, and
    no worker forked with the test's patches runs a later test's tasks."""
    _drop_shared_pool()
    yield
    _drop_shared_pool()
