"""Shared fixtures. The vertical solves dominate test runtime, so the two
working points used throughout are solved once per session."""

import tracemalloc

import pytest

from heliumjcm import material_for, solve_vertical


@pytest.fixture(scope="session")
def he3():
    return material_for("he3")


@pytest.fixture(scope="session")
def he4():
    return material_for("he4")


@pytest.fixture(scope="session")
def vs15(he3):
    # 15 V/cm, the workhorse operating point
    return solve_vertical(he3, 1500.0)


@pytest.fixture(scope="session")
def vs20(he3):
    # 20 V/cm, used around the (2,1)/(3,0) resonance
    return solve_vertical(he3, 2000.0)


@pytest.fixture
def traced_memory():
    """run(call) -> (call(), bytes still held on return, peak bytes), as
    tracemalloc counts them from the start of the call. It counts numpy's
    buffers as well as Python objects and repeats exactly run to run."""
    def run(call):
        tracemalloc.start()
        try:
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak
    return run
