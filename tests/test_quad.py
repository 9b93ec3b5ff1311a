import numpy as np
import pytest
from numpy.testing import assert_allclose

from fouspec.model import ModelParams, QuadGrid, fou_cov
from fouspec._quad import gauss_legendre_01, jacobi_01


def _legendre_reference(mpmath, n, z):
    """The zero of P_n(2z - 1) next to z and its [0,1] Gauss weight, in mpmath.

    One Newton step from a double node lands within 1e-30 of the zero; the
    derivative there follows from the Legendre equation.
    """
    x = 2 * mpmath.mpf(z) - 1
    p, pm = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
    dp = n * (x * p - pm) / (x * x - 1)        # P_n'(x)
    ddp = (2 * x * dp - n * (n + 1) * p) / (1 - x * x)
    step = -p / dp
    x, dp = x + step, dp + ddp * step
    return (x + 1) / 2, 1 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [64, 2000, 3000])
def test_legendre_against_mpmath(n):
    # the 3 outermost and 3 central nodes (scipy's roots_legendre had its end
    # weights 2-4e-8 off at n = 3000)
    mpmath = pytest.importorskip("mpmath")
    z, w = gauss_legendre_01(n)
    with mpmath.workdps(34):
        for k in (0, 1, 2, n // 2 - 1, n // 2, n // 2 + 1):
            zr, wr = _legendre_reference(mpmath, n, z[k])
            assert abs(z[k] - zr) <= 2.3e-16
            assert abs(w[k] / wr - 1) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 12, 16, 64])
def test_legendre_exact_for_polynomials(n):
    z, w = gauss_legendre_01(n)
    k = np.arange(2 * n)
    assert_allclose((w * z ** k[:, None]).sum(axis=1), 1.0 / (k + 1), rtol=1e-14)
    assert np.all(np.diff(z) > 0) and np.all(w > 0)
    assert_allclose(z + z[::-1], 1.0, rtol=0, atol=1e-16)  # symmetric about 1/2


@pytest.mark.parametrize("c", [-0.8, -0.3, 0.2, 1.4, 1.9])
@pytest.mark.parametrize("n", [12, 16, 64])
def test_jacobi_exact_for_polynomials(n, c):
    # int_0^1 z^(c+k) dz = 1 / (c + k + 1), k <= 2n - 1
    z, w = jacobi_01(n, c)
    k = np.arange(2 * n)
    assert_allclose((w * z ** k[:, None]).sum(axis=1), 1.0 / (c + k + 1), rtol=1e-14)
    assert np.all(np.diff(z) > 0) and np.all(w > 0)
    assert 0.0 < z[0] and z[-1] < 1.0


def test_cached_rules_are_read_only():
    # the rules are cached and shared: writing into one would change every
    # later grid (a weight doubled made gauss_legendre_unit(5) refuse its own
    # rule) and every later kernel value
    with pytest.raises(ValueError, match="read-only"):
        QuadGrid.gauss_legendre_unit(5).weights[0] *= 2.0
    assert QuadGrid.gauss_legendre_unit(5).weights.sum() == pytest.approx(1.0, abs=1e-15)
    p = ModelParams(H=0.7, beta=-1.0)
    before = fou_cov(0.3, 0.8, p)
    with pytest.raises(ValueError, match="read-only"):
        jacobi_01(64, 1.4)[1][:] *= 1.0 + 1e-6
    assert fou_cov(0.3, 0.8, p) == before
