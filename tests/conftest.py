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
