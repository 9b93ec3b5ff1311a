import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy import integrate

from fouspec import error_analysis
from fouspec.asymptotics import phi_first_order
from fouspec.error_analysis import (build_spectrum, check_truncation,
                                    convergence_study, largest_excluded_term,
                                    mse_asymptotic, mse_series, mse_wiener_hopf,
                                    truncation_tail)
from fouspec.exceptions import DomainError, TruncationError
from fouspec.ia_refine import refined_eigenpair
from fouspec.model import DEFAULT_GL_ORDER, ModelParams, QuadGrid, cov_matrix
from fouspec.spectral_oracle import nystrom_eigs


@pytest.fixture(scope="module")
def bm_spectrum():
    p = ModelParams(H=0.5, beta=0.0)
    return p, build_spectrum(p, "closed_form_ou", n_max=100_000)


@pytest.fixture(scope="module")
def small_oracle():
    p = ModelParams(H=0.6, beta=1.0)
    grid = QuadGrid.gauss_legendre_unit(150)
    cov = cov_matrix(grid, p)
    spec = nystrom_eigs(cov, 150)
    return p, grid, cov, spec


class TestSeries:
    def test_large_eps_limit_is_prior_variance(self, small_oracle):
        p, grid, cov, spec = small_oracle
        j = 75
        u = float(grid.nodes[j])
        prior = float(spec.lam @ spec.phi[j, :] ** 2)  # == K(uT, uT) up to truncation
        val = mse_series(u, 1e9, p, spec)
        assert_allclose(val, prior, rtol=1e-6)
        assert_allclose(prior, cov.values[j, j], rtol=1e-8)

    def test_vanishes_monotonically(self, bm_spectrum):
        p, spec = bm_spectrum
        vals = [mse_series(1.0, eps, p, spec) for eps in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_bm_endpoint_sqrt_law(self, bm_spectrum):
        # P(T, eps) ~ sqrt(eps) for the Brownian case
        p, spec = bm_spectrum
        assert_allclose(mse_series(1.0, 1e-4, p, spec), 1e-2, rtol=0.05)

    def test_errors(self, bm_spectrum):
        p, spec = bm_spectrum
        with pytest.raises(DomainError):
            mse_series(1.0, 0.0, p, spec)
        with pytest.raises(DomainError):
            mse_series(1.5, 1e-4, p, spec)


class TestWienerHopf:
    def test_identity_with_series(self, small_oracle):
        p, grid, cov, spec = small_oracle
        for eps in (1e-2, 1e-3, 1e-4):
            for j in (40, 75, 148):
                u = float(grid.nodes[j])
                a = mse_series(u, eps, p, spec)
                b = mse_wiener_hopf(u, eps, cov)
                assert abs(a - b) / b <= 1e-6

    def test_many_points_share_one_factorization(self, small_oracle):
        p, grid, cov, _ = small_oracle
        us = [float(grid.nodes[j]) for j in (40, 75, 148)]
        many = mse_wiener_hopf(us, 1e-3, cov)
        assert_allclose(many, [mse_wiener_hopf(u, 1e-3, cov) for u in us],
                        rtol=1e-12)

    @pytest.mark.parametrize("u", [math.nan, -3.0, 5.0, -1e-12, 1.0 + 1e-12,
                                   [0.5, math.nan], [1.0, 2.0]])
    def test_u_outside_unit_interval_is_refused(self, small_oracle, u):
        # each of these used to snap to the first or last node without warning
        _, _, cov, _ = small_oracle
        with pytest.raises(DomainError, match="u must lie in"):
            mse_wiener_hopf(u, 1e-3, cov)

    def test_endpoints_are_accepted(self, small_oracle):
        _, grid, cov, _ = small_oracle
        P = mse_wiener_hopf([0.0, 1.0], 1e-3, cov)
        assert np.array_equal(P, mse_wiener_hopf([float(grid.nodes[0]),
                                                  float(grid.nodes[-1])], 1e-3, cov))

    def test_large_eps_limit(self, small_oracle):
        p, grid, cov, _ = small_oracle
        j = 100
        val = mse_wiener_hopf(float(grid.nodes[j]), 1e9, cov)
        assert_allclose(val, cov.values[j, j], rtol=1e-6)

    def test_ou_interior_constant(self):
        # H=1/2, beta=1: interior P/sqrt(eps) -> 1/2
        p = ModelParams(H=0.5, beta=1.0)
        spec = build_spectrum(p, "closed_form_ou", n_max=20_000)
        val = mse_series(0.5, 1e-6, p, spec)
        assert_allclose(val / math.sqrt(1e-6), 0.5, rtol=0.02)


class TestAsymptotic:
    def test_h_half_constants(self):
        p = ModelParams(H=0.5)
        assert_allclose(mse_asymptotic("endpoint", 1e-6, p), 1e-3, rtol=1e-12)
        assert_allclose(mse_asymptotic("interior", 1e-6, p), 0.5e-3, rtol=1e-12)

    def test_h07_value(self):
        p = ModelParams(H=0.7)
        assert_allclose(mse_asymptotic("endpoint", 1e-6, p),
                        3.2805543966751064e-04, rtol=1e-12)

    def test_rate_exponent(self):
        for H in (0.3, 0.7):
            p = ModelParams(H=H)
            slope = (math.log(mse_asymptotic("endpoint", 1e-8, p))
                     - math.log(mse_asymptotic("endpoint", 1e-6, p))) \
                / (math.log(1e-8) - math.log(1e-6))
            assert_allclose(slope, 2 * H / (1 + 2 * H), rtol=1e-12)

    def test_mu_scaling_and_errors(self):
        p = ModelParams(H=0.6, mu=2.0)
        p1 = ModelParams(H=0.6, mu=1.0)
        assert_allclose(mse_asymptotic("endpoint", 4e-6, p),
                        mse_asymptotic("endpoint", 1e-6, p1), rtol=1e-12)
        with pytest.raises(DomainError):
            mse_asymptotic("edge", 1e-6, p)


class TestConvergenceStudy:
    def test_bm_ratios_near_one(self, bm_spectrum):
        p, spec = bm_spectrum
        rep = convergence_study(p, [1e-4, 1e-5], [0.5, 1.0], spec)
        assert np.max(np.abs(rep.ratios - 1.0)) < 0.02
        assert rep.diagnostics["monotone_in_eps"]
        assert np.all(rep.P_series >= 0)

    def test_i2_oscillation_small(self, bm_spectrum):
        p, spec = bm_spectrum
        rep = convergence_study(p, [1e-3, 1e-4, 1e-5], [0.35], spec)
        assert np.max(np.abs(rep.diagnostics["I2_over_eps"])) < 1.0

    def test_first_order_spectrum_source(self):
        p = ModelParams(H=0.7, beta=-1.0)
        spec = build_spectrum(p, "first_order", n_max=3000)
        rep = convergence_study(p, [1e-5, 1e-6], [0.5, 1.0], spec)
        assert np.max(np.abs(rep.ratios[-1] - 1.0)) < 0.05

    def test_t_invariance_of_leading_term(self):
        ratios = {}
        for T in (1.0, 2.0):
            p = ModelParams(H=0.5, beta=0.0, T=T)
            spec = build_spectrum(p, "closed_form_ou", n_max=100_000)
            rep = convergence_study(p, [1e-5], [0.5, 1.0], spec)
            ratios[T] = rep.ratios[0]
        assert np.max(np.abs(ratios[1.0] / ratios[2.0] - 1.0)) < 0.05

    def test_validates_arguments(self, bm_spectrum):
        p, spec = bm_spectrum
        with pytest.raises(DomainError):
            convergence_study(p, [1e-4, 1e-3], [0.5], spec)  # not decreasing
        with pytest.raises(DomainError):
            convergence_study(p, [1e-4], [0.0], spec)

    def test_oracle_spectrum_keeps_its_matrix(self, small_oracle):
        p, grid, cov, spec = small_oracle
        built = build_spectrum(p, "oracle", n_max=spec.n_max, grid=grid)
        assert np.array_equal(built.cov.values, cov.values)
        u = float(grid.nodes[75])
        rep = convergence_study(p, [1e-3], [u], built, with_wiener_hopf=True)
        assert_allclose(rep.P_wiener_hopf, rep.P_series, rtol=1e-6)

    def test_wiener_hopf_column(self, small_oracle):
        p, grid, cov, spec = small_oracle
        u = float(grid.nodes[75])
        rep = convergence_study(p, [1e-3, 1e-4], [u], spec, with_wiener_hopf=True)
        assert_allclose(rep.P_wiener_hopf, rep.P_series, rtol=1e-6)


class TestTruncationGuard:
    def test_refusal(self):
        p = ModelParams(H=0.5)
        spec = build_spectrum(p, "closed_form_ou", n_max=300)
        with pytest.raises(TruncationError):
            check_truncation(1e-9, p, spec, u=1.0)

    def test_slow_tail_refusal(self):
        # small H: every excluded term looks negligible but their mass is not
        p = ModelParams(H=0.3, beta=-1.0)
        spec = build_spectrum(p, "first_order", n_max=4000)
        with pytest.raises(TruncationError, match="excluded series mass"):
            check_truncation(1e-6, p, spec, u=1.0)

    def test_sweep_reuses_its_series(self, monkeypatch):
        # convergence_study hands its smallest-eps row to check_truncation
        # instead of summing the series again; the refusal is unchanged
        p = ModelParams(H=0.5)
        spec = build_spectrum(p, "closed_form_ou", n_max=300)
        with pytest.raises(TruncationError) as direct:  # the sweep's first u
            check_truncation(1e-9, p, spec, u=0.5)

        def no_series(*args, **kwargs):
            raise AssertionError("mse_series called")

        monkeypatch.setattr(error_analysis, "mse_series", no_series)
        with pytest.raises(TruncationError) as swept:
            convergence_study(p, [1e-3, 1e-9], [0.5, 1.0], spec)
        assert str(swept.value) == str(direct.value)
        rep = convergence_study(p, [1e-1, 1e-2], [0.5, 1.0], spec)
        monkeypatch.undo()
        for k, u in enumerate((0.5, 1.0)):
            assert rep.P_series[-1, k] == mse_series(u, 1e-2, p, spec)

    def test_acceptance_when_sufficient(self, bm_spectrum):
        p, spec = bm_spectrum
        check_truncation(1e-6, p, spec, u=1.0)
        worst = largest_excluded_term(1e-6, p, spec)
        assert worst < 1e-3 * mse_series(1.0, 1e-6, p, spec)


@pytest.mark.parametrize("beta", [-1.0, 1e-4, 2.0, 7.5])
def test_endpoint_matches_kalman_bucy(beta):
    # at H = 1/2 the endpoint error solves the Riccati equation of the
    # Kalman-Bucy filter, P' = 2 beta P + 1 - P^2/eps, P(0) = 0
    p = ModelParams(H=0.5, beta=beta)
    spec = build_spectrum(p, "closed_form_ou", n_max=100_000)
    for eps in (1e-4, 1e-5):
        val = mse_series(1.0, eps, p, spec)
        tail = truncation_tail(eps, p, spec, endpoint=True)
        d = math.sqrt(beta ** 2 + 1.0 / eps)
        e = math.exp(-2.0 * d)
        assert_allclose(val + tail, (1.0 - e) / ((d - beta) + (d + beta) * e), rtol=1e-6)


def _tail_reference(y, H):
    """Integral over s in (0, 1] of 1 / (1 + y s^(1/b)), b = 2H/(2H+1).

    With s = (N/x)^(2H) this is the series mass over x >= N under
    lambda(x) = lambda_N (N/x)^(2H+1), divided by N lambda_N / (2H) (and by
    phi_bar^2).  mpmath integrates it to 40 digits where it is installed,
    else adaptive quadrature to 1e-13.
    """
    b = 2.0 * H / (2.0 * H + 1.0)
    pts = [0.0, y ** -b, 1.0] if y > 1.0 else [0.0, 1.0]  # the knee at s = y^-b
    try:
        import mpmath
    except ImportError:
        return sum(integrate.quad(lambda s: 1.0 / (1.0 + y * s ** (1.0 / b)), lo, hi,
                                  epsabs=0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(pts, pts[1:]))
    with mpmath.workdps(40):
        inv_b = 1 / (2 * mpmath.mpf(H)) + 1
        return float(mpmath.quad(lambda s: 1 / (1 + mpmath.mpf(y) * s ** inv_b), pts))


@pytest.mark.parametrize("H", [0.3, 0.5, 0.7, 0.9])
def test_truncation_tail_against_integral(H):
    # the closed form against an independent integration of the decay law;
    # adaptive quadrature at the default tolerance was off by 5e-6
    p = ModelParams(H=H, beta=-1.0, mu=1.5, T=2.0)
    spec = build_spectrum(p, "first_order", n_max=50)
    N, lam_n = spec.n_max, float(spec.lam[-1])
    ys = np.array([1e-8, 1e-3, 1.0, 1e3])
    eps = p.mu ** 2 * p.T * lam_n / ys
    for y, e in zip(ys, eps):
        ref = N * lam_n / (2.0 * H) * _tail_reference(float(y), H)
        for endpoint, phi_bar2 in ((False, 1.0), (True, 2.0 * H + 1.0)):
            got = truncation_tail(float(e), p, spec, endpoint=endpoint)
            assert isinstance(got, float)
            assert abs(got / (phi_bar2 * ref) - 1.0) <= 1e-13, (y, endpoint)
    ends = np.array([False, True])
    table = truncation_tail(eps[:, None], p, spec, endpoint=ends)
    assert table.shape == (4, 2)
    assert np.array_equal(table, [[truncation_tail(float(e), p, spec, endpoint=bool(k))
                                   for k in ends] for e in eps])


def test_refined_spectrum_keeps_its_head_matrix(monkeypatch):
    # the Wiener-Hopf column used to assemble the matrix a second time, at
    # the default Gauss order instead of the head's
    p = ModelParams(H=0.7, beta=-1.0)
    g = QuadGrid.gauss_legendre_unit(60)
    calls = []

    def counted(grid, params, gl_order=DEFAULT_GL_ORDER):
        calls.append((grid.size, gl_order))
        return cov_matrix(grid, params, gl_order)

    monkeypatch.setattr(error_analysis, "cov_matrix", counted)
    spec = build_spectrum(p, "refined", n_max=20, grid=g, gl_order=8)
    us = [float(g.nodes[30]), 1.0]
    rep = convergence_study(p, [1e-1], us, spec, with_wiener_hopf=True)
    assert calls == [(60, 8)]
    assert np.array_equal(rep.P_wiener_hopf[0],
                          mse_wiener_hopf(us, 1e-1, cov_matrix(g, p, 8)))


def test_refined_head_pairs_follow_gl_order():
    # the head pairs come from the oracle matrix, assembled at the given order
    p = ModelParams(H=0.7, beta=-1.0)
    g = QuadGrid.gauss_legendre_unit(60)
    spec = build_spectrum(p, "refined", n_max=3, grid=g, gl_order=8)
    head = nystrom_eigs(cov_matrix(g, p, 8), 2)
    assert np.array_equal(spec.lam[:2], head.lam)
    assert not np.array_equal(head.lam, nystrom_eigs(cov_matrix(g, p), 2).lam)


def test_first_order_extends_by_formula():
    p = ModelParams(H=0.7, beta=-1.0)
    g = QuadGrid.gauss_legendre_unit(30)
    spec = build_spectrum(p, "first_order", n_max=25, grid=g)
    n = np.arange(1, 26)
    assert np.array_equal(spec.phi_values(1.0), phi_first_order(1.0, n, p.H))
    assert np.array_equal(spec.phi_values(0.3), phi_first_order(0.3, n, p.H))
    assert_allclose(spec.phi_values(float(g.nodes[11])),
                    phi_first_order(float(g.nodes[11]), n, p.H), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_max", [1, 2, 4, 7])
def test_refined_spectrum_is_complete(n_max):
    # indices below the solver's start come from the oracle; n_max = 1, 2
    # used to raise ValueError in np.concatenate.  n = 3..7 share one layer
    # table over different panel ranges, and each column still equals the
    # pair computed alone.
    p = ModelParams(H=0.7, beta=-1.0)
    g = QuadGrid.gauss_legendre_unit(60)
    spec = build_spectrum(p, "refined", n_max=n_max, grid=g)
    n_head = min(n_max, 2)
    head = nystrom_eigs(cov_matrix(g, p), n_head)
    assert spec.n_max == n_max and spec.diagnostics["head_from_oracle"] == n_head
    assert np.array_equal(spec.lam[:n_head], head.lam)
    assert np.array_equal(spec.phi[:, :n_head], head.phi)
    assert np.all(np.isnan(spec.nu[:n_head]))
    for n in range(3, n_max + 1):
        pair, _ = refined_eigenpair(n, p, g)
        assert (spec.lam[n - 1], spec.nu[n - 1]) == (pair.lam, pair.nu)
        assert np.array_equal(spec.phi[:, n - 1], pair.phi)
    assert spec.extend is None
    with pytest.raises(DomainError, match="no samples"):
        spec.phi_values(0.123)


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
def test_eps_must_be_finite_and_positive(eps, bm_spectrum):
    p, spec = bm_spectrum
    g = QuadGrid.gauss_legendre_unit(10)
    for call in (lambda: mse_series(1.0, eps, p, spec),
                 lambda: mse_asymptotic("endpoint", eps, p),
                 lambda: mse_wiener_hopf(1.0, eps, cov_matrix(g, p)),
                 lambda: convergence_study(p, [1e-3, eps], [1.0], spec)):
        with pytest.raises(DomainError, match="eps"):
            call()


def test_nan_u_is_refused(bm_spectrum):
    p, spec = bm_spectrum
    with pytest.raises(DomainError, match="u_points"):
        convergence_study(p, [1e-3], [0.5, math.nan], spec)
