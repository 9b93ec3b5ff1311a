import os

import numpy as np
import pytest

from fouspec.model import ModelParams, QuadGrid, cov_matrix
from fouspec.spectral_oracle import nystrom_eigs


def pytest_report_header(config):
    # a few rounding bounds depend on the BLAS call shapes, which change with
    # the thread count; the benchmark runs at one thread
    return ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                     for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))


@pytest.fixture(scope="session")
def oracle_07():
    """Nystrom reference spectrum for H=0.7, beta=-1 shared across modules."""
    p = ModelParams(H=0.7, beta=-1.0)
    grid = QuadGrid.gauss_legendre_unit(800)
    spec = nystrom_eigs(cov_matrix(grid, p), 30)
    return p, grid, spec


def _traced_matrices(f, N):
    """(peak, kept, f()): the traced peak of f() and the memory still held
    after it, above what was allocated before it, in units of one N x N
    float matrix (8 N^2 bytes)."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = f()
        kept, peak = tracemalloc.get_traced_memory()
        return (peak - base) / (8.0 * N * N), (kept - base) / (8.0 * N * N), out
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_matrices():
    """peak_matrices(f, N): the traced peak of f(), above what was allocated
    before it, in units of one N x N float matrix (8 N^2 bytes)."""
    return lambda f, N: _traced_matrices(f, N)[0]


@pytest.fixture
def traced_matrices():
    """traced_matrices(f, N): (peak, kept, f()) as `_traced_matrices` gives them."""
    return _traced_matrices


@pytest.fixture
def no_allocation(monkeypatch):
    """Every allocator behind `build_spectrum` (the grid, the kernel matrix
    and the closed-form arrays) patched to fail: a request must be refused
    before any of them runs."""
    from fouspec import error_analysis

    def never(*args, **kwargs):
        raise AssertionError("allocated before the request was refused")

    for name in ("cov_matrix", "ou_closed_form_eigs"):
        monkeypatch.setattr(error_analysis, name, never)
    monkeypatch.setattr(QuadGrid, "gauss_legendre_unit", never)


@pytest.fixture
def tiny_memory_budget(monkeypatch, no_allocation):
    """A 64 KiB spectrum budget, with `no_allocation`'s allocators."""
    from fouspec import error_analysis

    monkeypatch.setattr(error_analysis, "MEMORY_BUDGET", 2 ** 16)
