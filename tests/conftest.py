"""Fixtures shared by the test modules."""

import pytest

import rcbench.bench as bench


@pytest.fixture
def fresh_pool():
    """Start and end the test with no shared sweep pool: its first pooled
    sweep then forks new workers from the process as the test left it, and
    no worker forked with the test's patches runs a later test's tasks."""
    bench._retire_pool()
    yield
    bench._retire_pool()
