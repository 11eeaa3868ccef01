"""Fixtures shared by the test modules."""

import functools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

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


@pytest.fixture
def forked_pool(monkeypatch, fresh_pool):
    """Make run_sweep's pool fork its workers, so they see this test's
    monkeypatches. Fork is not the default start method everywhere (Python
    3.14 starts Linux workers from a forkserver), and a spawned worker
    would import the unpatched module."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    forked = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", forked)
