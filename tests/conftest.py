import numpy as np
import pytest

from fouspec.model import ModelParams, QuadGrid, cov_matrix
from fouspec.spectral_oracle import nystrom_eigs


@pytest.fixture(scope="session")
def oracle_07():
    """Nystrom reference spectrum for H=0.7, beta=-1 shared across modules."""
    p = ModelParams(H=0.7, beta=-1.0)
    grid = QuadGrid.gauss_legendre_unit(800)
    spec = nystrom_eigs(cov_matrix(grid, p), 30)
    return p, grid, spec


@pytest.fixture
def peak_matrices():
    """peak_matrices(f, N): the traced peak of f(), above what was allocated
    before it, in units of one N x N float matrix (8 N^2 bytes)."""
    import tracemalloc

    def peak(f, N):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            f()
            return (tracemalloc.get_traced_memory()[1] - base) / (8.0 * N * N)
        finally:
            tracemalloc.stop()

    return peak
