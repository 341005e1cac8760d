import tracemalloc

import numpy as np
import pytest

from nodespec.graph import build_graph


@pytest.fixture
def triangle():
    return build_graph([(0, 1), (1, 2), (0, 2)], 3)


@pytest.fixture
def single_edge():
    return build_graph([(0, 1)], 2)


@pytest.fixture
def path5():
    return build_graph([(i, i + 1) for i in range(4)], 5)


@pytest.fixture
def rng():
    return np.random.default_rng(0xA11CE)


@pytest.fixture
def traced_peak():
    """Run a call under tracemalloc: its result and the peak bytes it
    allocated above the memory held when it started."""
    def run(call):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    return run
