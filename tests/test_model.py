import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from fouspec import cli, model
from fouspec.exceptions import DomainError, SolverError
from fouspec.model import (MIN_BETA_T, CovMatrix, ModelParams, QuadGrid, c_alpha,
                           cov_matrix, cov_row, fbm_cov, fou_cov, fou_cov_singular,
                           spectral_constant)
from fouspec.spectral_oracle import nystrom_eigs


def _voc_quad(s, t, H, beta):
    """K(s, t) on [0, 1] by adaptive quadrature of the variation-of-constants form."""
    c = 2.0 * H

    def R(u, v):
        return 0.5 * (u ** c + v ** c - abs(u - v) ** c)

    kw = dict(epsabs=0.0, epsrel=1e-11, limit=100)

    def inner(u, x):  # int_0^x e^{beta(x-v)} R(u, v) dv, kink of R at v = u
        pts = [u] if 0.0 < u < x else None
        return quad(lambda v: math.exp(beta * (x - v)) * R(u, v), 0.0, x, points=pts, **kw)[0]

    k = R(s, t) + beta * inner(s, t) + beta * inner(t, s)
    return k + beta * beta * quad(lambda u: math.exp(beta * (s - u)) * inner(u, t),
                                  0.0, s, **kw)[0]


def test_params_invariants():
    p = ModelParams(H=0.3, beta=-1.0, T=2.0)
    assert p.alpha == 2.0 - 2.0 * 0.3
    assert p.beta_eff == -2.0
    with pytest.raises(DomainError):
        ModelParams(H=0.0)
    with pytest.raises(DomainError):
        ModelParams(H=1.0)
    with pytest.raises(DomainError):
        ModelParams(H=0.5, T=0.0)
    with pytest.raises(DomainError):
        ModelParams(H=0.5, mu=0.0)
    with pytest.raises(DomainError, match="T must be positive"):
        ModelParams(H=0.5, T=math.nan)
    assert ModelParams(H=0.7, beta=1e49, mu=1e-150, T=1e100).mu == 1e-150


@pytest.mark.parametrize("kwargs", [
    dict(beta=math.nan), dict(beta=math.inf), dict(beta=1e300),
    dict(mu=math.nan), dict(mu=-math.inf), dict(mu=1e300), dict(mu=1e-300),
    dict(T=math.inf), dict(T=1e160),
])
def test_params_refuse_unrepresentable_values(kwargs):
    # beta = nan reached the output as NaN columns, mu = 1e-300 made eps / mu^2
    # raise ZeroDivisionError, and the others raised OverflowError from Python
    # float powers (T = 1e160: T^(2H+1) at H = 0.7)
    with pytest.raises(DomainError, match="beta, mu and T must be finite"):
        ModelParams(H=0.7, **kwargs)


def test_quad_grid_invariants():
    g = QuadGrid.gauss_legendre_unit(64)
    assert abs(g.weights.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(g.nodes) > 0)
    assert 0.0 < g.nodes[0] and g.nodes[-1] < 1.0
    with pytest.raises(DomainError):
        QuadGrid([0.2, 0.1], [0.5, 0.5])
    with pytest.raises(DomainError):
        QuadGrid([0.1, 0.2], [0.5, -0.5])
    with pytest.raises(DomainError):
        QuadGrid([0.1, 1.5], [0.5, 0.5])
    with pytest.raises(DomainError):
        QuadGrid([0.1, 0.2], [0.5, 0.4])
    for n in (0, -3):
        with pytest.raises(DomainError):
            QuadGrid.gauss_legendre_unit(n)


def test_nearest_node():
    g = QuadGrid.gauss_legendre_unit(9)
    assert np.array_equal(g.nearest(g.nodes), np.arange(9))
    u = np.random.default_rng(3).uniform(0.0, 1.0, 200)
    assert np.array_equal(g.nearest(u), np.argmin(np.abs(g.nodes[:, None] - u), axis=0))
    assert int(g.nearest(0.0)) == 0 and int(g.nearest(1.0)) == 8
    assert np.array_equal(QuadGrid.gauss_legendre_unit(1).nearest([0.1, 0.9]), [0, 0])
    # a tie goes to the lower node, whatever the rounding of the distances
    for N in range(2, 401, 2):
        assert int(QuadGrid.gauss_legendre_unit(N).nearest(0.5)) == N // 2 - 1, N
    two = QuadGrid([0.25, 0.75], [0.5, 0.5])
    assert np.array_equal(two.nearest([0.5, np.nextafter(0.5, 1.0), 0.5 + 1e-12]), [0, 0, 1])


class TestFbmCov:
    def test_variance_case(self):
        for t, H in [(0.8, 0.3), (1.5, 0.75)]:
            assert_allclose(fbm_cov(t, t, H), t ** (2 * H), rtol=1e-15)

    def test_known_values(self):
        assert fbm_cov(0.5, 1.0, 0.5) == 0.5          # min(s,t) for H = 1/2
        assert_allclose(fbm_cov(1.0, 2.0, 0.75), math.sqrt(2.0), rtol=1e-15)

    def test_symmetry(self):
        assert fbm_cov(0.3, 0.9, 0.7) == fbm_cov(0.9, 0.3, 0.7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fbm_cov(0.1, 0.2, 1.0)
        with pytest.raises(DomainError):
            fbm_cov(-0.1, 0.2, 0.5)


class TestFouCov:
    def test_zero_drift_reduces_to_fbm(self):
        rng = np.random.RandomState(0)
        for _ in range(10):
            H = rng.uniform(0.05, 0.95)
            s, t = rng.uniform(0.0, 1.0, 2)
            p = ModelParams(H=H, beta=0.0)
            assert_allclose(fou_cov(s, t, p), fbm_cov(s, t, H), atol=1e-12)

    def test_classical_ou_variance(self):
        # int_0^1 e^{2(1-u)} du = (e^2 - 1)/2
        p = ModelParams(H=0.5, beta=1.0)
        assert_allclose(fou_cov(1.0, 1.0, p), (math.e ** 2 - 1.0) / 2.0, rtol=1e-13)

    def test_h_half_closed_form(self):
        for beta in (1.0, -2.0, 0.3):
            p = ModelParams(H=0.5, beta=beta)
            for s, t in [(0.3, 0.8), (0.5, 1.0), (1.0, 1.0), (0.9, 0.95)]:
                closed = math.exp(beta * (s + t)) \
                    * (1.0 - math.exp(-2.0 * beta * min(s, t))) / (2.0 * beta)
                assert_allclose(fou_cov(s, t, p), closed, rtol=1e-10)

    def test_scaling_law(self):
        rng = np.random.RandomState(1)
        for _ in range(15):
            H = rng.uniform(0.05, 0.95)
            beta = rng.uniform(-3.0, 3.0)
            T = rng.uniform(0.3, 2.5)
            s, t = np.sort(rng.uniform(0.02, 1.0, 2))
            lhs = fou_cov(s * T, t * T, ModelParams(H=H, beta=beta, T=T))
            rhs = T ** (2 * H) * fou_cov(s, t, ModelParams(H=H, beta=beta * T))
            assert_allclose(lhs, rhs, rtol=1e-6)

    def test_symmetry_exact(self):
        p = ModelParams(H=0.7, beta=-1.0)
        assert fou_cov(0.3, 0.8, p) == fou_cov(0.8, 0.3, p)

    def test_zero_time(self):
        p = ModelParams(H=0.7, beta=-1.0)
        assert fou_cov(0.0, 0.7, p) == 0.0

    def test_rejects_bad_times(self):
        p = ModelParams(H=0.7, beta=-1.0)
        with pytest.raises(DomainError):
            fou_cov(0.1, 1.2, p)


def test_spectral_constant():
    from scipy.special import gamma

    # C(1/2) = sin(pi/2) Gamma(2) = 1 exactly
    assert spectral_constant(0.5) == 1.0
    for H in (0.01, 0.3, 0.7, 0.99):
        assert_allclose(spectral_constant(H), math.sin(math.pi * H) * gamma(2 * H + 1),
                        rtol=2e-15)


class TestFouCovSingular:
    def test_c_alpha(self):
        assert c_alpha(0.5) == 0.75 * 0.5

    def test_fbm_variance(self):
        p = ModelParams(H=0.75, beta=0.0)
        assert_allclose(fou_cov_singular(1.0, 1.0, p), 1.0, rtol=1e-8)

    @pytest.mark.parametrize("H,beta,s,t", [
        (0.75, -1.0, 0.3, 0.8),
        (0.55, -2.0, 0.2, 0.9),
        (0.9, 1.0, 0.5, 1.0),
        (0.65, 0.5, 0.7, 0.7),
    ])
    def test_cross_oracle_agreement(self, H, beta, s, t):
        p = ModelParams(H=H, beta=beta)
        assert_allclose(fou_cov_singular(s, t, p), fou_cov(s, t, p), rtol=1e-4)

    def test_finite_under_fine_grading(self):
        # 24 halvings make the innermost panels too thin to resolve by node value
        p = ModelParams(H=0.7, beta=-1.0)
        val = fou_cov_singular(0.3, 0.6, p, n_panels=24)
        assert np.isfinite(val)
        assert_allclose(val, fou_cov(0.3, 0.6, p), rtol=1e-12)

    def test_rejects_small_h(self):
        with pytest.raises(DomainError):
            fou_cov_singular(0.5, 0.5, ModelParams(H=0.5))


class TestCovMatrix:
    def test_min_kernel_two_points(self):
        g = QuadGrid.gauss_legendre_unit(2)
        K = cov_matrix(g, ModelParams(H=0.5, beta=0.0)).values
        t1, t2 = g.nodes
        assert_allclose(K, [[t1, t1], [t1, t2]], rtol=1e-14)

    def test_symmetric_positive_diagonal(self):
        g = QuadGrid.gauss_legendre_unit(40)
        K = cov_matrix(g, ModelParams(H=0.3, beta=1.5)).values
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) > 0)

    def test_psd(self):
        g = QuadGrid.gauss_legendre_unit(200)
        K = cov_matrix(g, ModelParams(H=0.7, beta=-1.0)).values
        B = np.sqrt(g.weights)[:, None] * K * np.sqrt(g.weights)[None, :]
        lam = np.linalg.eigvalsh(B)
        assert lam.min() >= -1e-10 * np.trace(B)

    @pytest.mark.parametrize("H,beta", [(0.7, -1.0), (0.3, 1.5), (0.5, 1.0),
                                        (0.9, -2.0), (0.6, 1e-4), (0.5, -2.0),
                                        (0.3, 0.0), (0.3, 1e-300),
                                        (0.3, np.nextafter(0.0, 1.0))])
    def test_matches_scalar_kernel(self, H, beta):
        # matrix entries against scalar routes independent of the assembler:
        # the singular-kernel oracle for H > 1/2, the closed form at H = 1/2,
        # fBm when beta*T is zero or too small to move K (subnormal included),
        # and adaptive quadrature of the variation-of-constants form otherwise
        g = QuadGrid.gauss_legendre_unit(25)
        p = ModelParams(H=H, beta=beta)
        K = cov_matrix(g, p).values
        assert np.all(np.isfinite(K))
        pairs = [(i, j) for i in (4, 12, 20) for j in (i, 24)]
        if H > 0.5:
            pairs.append((0, 24))  # s = 0.00222 << t = 0.99778
        for i, j in pairs:
            s, t = g.nodes[i], g.nodes[j]
            if H > 0.5:
                ref, rtol = fou_cov_singular(s, t, p), 1e-9
            elif H == 0.5:
                ref = math.exp(beta * (s + t)) * -math.expm1(-2.0 * beta * s) / (2.0 * beta)
                rtol = 1e-13
            elif abs(beta) < 1e-100:
                ref, rtol = fbm_cov(s, t, H), 1e-15
            else:
                ref, rtol = _voc_quad(s, t, H, beta), 1e-9
            assert_allclose(K[i, j], ref, rtol=rtol)

    def test_t_scaling_in_matrix(self):
        g = QuadGrid.gauss_legendre_unit(10)
        p = ModelParams(H=0.7, beta=-1.0, T=2.0)
        K = cov_matrix(g, p).values
        # entries are the [0,T] kernel at scaled nodes
        assert_allclose(K[3, 7], fou_cov(g.nodes[3] * 2.0, g.nodes[7] * 2.0, p),
                        rtol=1e-10)

def test_raw_kernel_branches_order_converged(monkeypatch):
    # the Gauss order 64 the assembler uses is already converged, on both
    # sides of s = t/2 (where the former scalar kernel switched branches)
    assert model.GL_ORDER == 64
    cases = [(s, ModelParams(H=H, beta=b)) for H, b in [(0.3, -1.0), (0.3, 1.5), (0.8, 2.0)]
             for s in (0.4999, 0.5001)]
    at_64 = [fou_cov(s, 1.0, p) for s, p in cases]
    monkeypatch.setattr(model, "GL_ORDER", 96)
    assert_allclose(at_64, [fou_cov(s, 1.0, p) for s, p in cases], rtol=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(H=st.floats(0.55, 0.95), beta=st.floats(-5.0, 5.0),
       s=st.floats(0.02, 1.0), t=st.floats(0.02, 1.0))
def test_kernel_matches_singular_oracle(H, beta, s, t):
    p = ModelParams(H=H, beta=beta)
    assert_allclose(fou_cov(s, t, p), fou_cov_singular(s, t, p), rtol=1e-9)


@pytest.mark.parametrize("H,beta", [(0.7, -1.0), (0.3, 1.5), (0.5, 1.0)])
def test_cov_row_matches_matrix_row(H, beta):
    g = QuadGrid.gauss_legendre_unit(200)
    p = ModelParams(H=H, beta=beta, T=1.5)
    K = cov_matrix(g, p).values
    for k in (0, 17, 100, 199):
        assert np.max(np.abs(cov_row(g.nodes[k], p, g) - K[k])) <= 1e-15 * np.max(np.abs(K))
    assert np.all(cov_row(0.0, p, g) == 0.0)


@pytest.mark.parametrize("beta,bound", [(-12.0, 3.94e-9), (-5.0, 5.29e-12), (-1.0, 2.06e-12),
                                        (2.0, 2.71e-12), (50.0, 1.99e-13), (300.0, 6.59e-13)])
def test_assembler_accuracy_at_h_half(beta, bound):
    # max |dK| / sqrt(K(s,s) K(t,t)) against the exact H = 1/2 covariance,
    # within 1.25 times the error of the former assembler.  The error grows
    # as e^{|beta|} toward MIN_BETA_T, where terms of size e^{-beta t}
    # cancel; it peaks at the smallest node s against t near 1
    g = QuadGrid.gauss_legendre_unit(400)
    K = cov_matrix(g, ModelParams(H=0.5, beta=beta)).values
    s, t = np.minimum.outer(g.nodes, g.nodes), np.maximum.outer(g.nodes, g.nodes)
    exact = np.exp(beta * (s + t)) * -np.expm1(-2.0 * beta * s) / (2.0 * beta)
    scale = np.sqrt(np.diag(exact))
    assert np.max(np.abs(K - exact) / np.outer(scale, scale)) <= 1.25 * bound


@pytest.mark.parametrize("H,beta,bound", [(0.7, -12.0, 9.3e-11), (0.7, -1.0, 5.3e-12),
                                          (0.9, -12.0, 1.9e-11)])
def test_assembler_accuracy_against_singular_kernel(H, beta, bound):
    # relative error on test_matches_scalar_kernel's pairs (without its
    # s << t pair), within 1.25 times the error of the former assembler
    g = QuadGrid.gauss_legendre_unit(25)
    p = ModelParams(H=H, beta=beta)
    K = cov_matrix(g, p).values
    for i, j in [(i, j) for i in (4, 12, 20) for j in (i, 24)]:
        ref = fou_cov_singular(g.nodes[i], g.nodes[j], p)
        assert abs(K[i, j] / ref - 1.0) <= 1.25 * bound


class TestRefusals:
    def test_beta_t_below_bound(self):
        g = QuadGrid.gauss_legendre_unit(20)
        p = ModelParams(H=0.7, beta=-6.25, T=2.0)  # beta*T = -12.5
        assert p.beta_eff < MIN_BETA_T
        for call in (lambda: cov_matrix(g, p), lambda: cov_row(1.0, p, g),
                     lambda: fou_cov(0.5, 1.0, p)):
            with pytest.raises(DomainError):
                call()
        assert np.all(np.isfinite(cov_matrix(g, ModelParams(H=0.7, beta=MIN_BETA_T)).values))

    def test_overflow(self):
        # K(1, 1) = (e^{2 beta} - 1) / (2 beta) at H = 1/2 stays exact to
        # rounding until the covariance itself overflows, from beta = 358
        assert_allclose(fou_cov(1.0, 1.0, ModelParams(H=0.5, beta=350.0)),
                        math.expm1(700.0) / 700.0, rtol=2e-15)
        with pytest.raises(DomainError):
            fou_cov(1.0, 1.0, ModelParams(H=0.5, beta=360.0))

    @pytest.mark.parametrize("beta,finite", [(3e-28, False), (2.5e-28, True)])
    def test_overflow_in_the_horizon_scaling(self, beta, finite):
        # beta*T = 300 and 250 sit inside the trusted range; at 300 the unit
        # covariance is finite and only T^{2H} = 1e54 takes it past the float
        # range, which used to return inf with a RuntimeWarning
        p = ModelParams(H=0.9, beta=beta, T=1e30)
        g = QuadGrid.gauss_legendre_unit(100)
        if finite:
            assert_allclose(fou_cov(1e30, 1e30, p), 5.68e266, rtol=1e-3)
            assert np.all(np.isfinite(cov_row(1.0, p, g)))
            return
        for call in (lambda: fou_cov(1e30, 1e30, p), lambda: cov_row(1.0, p, g)):
            with pytest.raises(DomainError, match="not finite at beta\\*T = 300"):
                call()

    def test_cli_exit_code(self, capsys):
        assert cli.main(["eigs", "--H", "0.7", "--beta", "-30"]) == cli.EXIT_USAGE
        assert "beta*T" in capsys.readouterr().err

    def test_non_psd_matrix(self):
        g = QuadGrid.gauss_legendre_unit(3)
        K = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        cov = CovMatrix(K, g, ModelParams(H=0.5))
        with pytest.raises(SolverError):
            nystrom_eigs(cov, 1)

    def test_matrix_carries_its_params(self):
        # the oracle and the Wiener-Hopf solve read the grid, mu and T from
        # the matrix, so a matrix without its parameters cannot be built
        g = QuadGrid.gauss_legendre_unit(3)
        with pytest.raises(TypeError):
            CovMatrix(np.eye(3), g)
        with pytest.raises(DomainError, match="ModelParams"):
            CovMatrix(np.eye(3), g, None)
