import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from scipy import integrate

from fouspec import error_analysis
from fouspec._quad import gauss_legendre_01
from fouspec.error_analysis import (build_spectrum, check_truncation,
                                    convergence_study, mercer_remainder, mse_asymptotic,
                                    mse_series, hyp2f1_tail, mse_wiener_hopf,
                                    truncation_tail)
from fouspec.exceptions import DomainError, SolverError, TruncationError
from fouspec.ia_refine import refined_eigenpair
from fouspec.model import CovMatrix, ModelParams, QuadGrid, cov_matrix, cov_row, fou_cov
from fouspec.spectral_oracle import nystrom_eigs
from fouspec.validation import _kalman_bucy


@pytest.fixture(scope="module")
def bm_spectrum():
    p = ModelParams(H=0.5, beta=0.0)
    return p, build_spectrum(p, "closed_form_ou", n_max=100_000)


@pytest.fixture(scope="module")
def small_oracle():
    p = ModelParams(H=0.6, beta=1.0)
    grid = QuadGrid.gauss_legendre_unit(150)
    cov = cov_matrix(grid, p)
    spec = nystrom_eigs(CovMatrix(cov.values.copy(), grid, p), 150)  # the solve spends it
    return p, grid, cov, spec


class TestSeries:
    def test_large_eps_limit_is_prior_variance(self, small_oracle):
        p, grid, cov, spec = small_oracle
        j = 75
        u = float(grid.nodes[j])
        prior = float(spec.lam @ spec.phi[j, :] ** 2)  # == K(uT, uT) up to truncation
        val = mse_series(u, 1e9, spec)
        assert_allclose(val, prior, rtol=1e-6)
        assert_allclose(prior, cov.values[j, j], rtol=1e-8)

    def test_vanishes_monotonically(self, bm_spectrum):
        p, spec = bm_spectrum
        vals = [mse_series(1.0, eps, spec) for eps in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_bm_endpoint_sqrt_law(self, bm_spectrum):
        # P(T, eps) ~ sqrt(eps) for the Brownian case
        p, spec = bm_spectrum
        assert_allclose(mse_series(1.0, 1e-4, spec), 1e-2, rtol=0.05)

    def test_errors(self, bm_spectrum):
        p, spec = bm_spectrum
        with pytest.raises(DomainError):
            mse_series(1.0, 0.0, spec)
        with pytest.raises(DomainError):
            mse_series(1.5, 1e-4, spec)


class TestWienerHopf:
    def test_identity_with_series(self, small_oracle):
        p, grid, cov, spec = small_oracle
        for eps in (1e-2, 1e-3, 1e-4):
            for j in (40, 75, 148):
                u = float(grid.nodes[j])
                a = mse_series(u, eps, spec)
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

    def test_matrix_is_left_unchanged(self, small_oracle):
        _, _, cov, _ = small_oracle
        before = cov.values.copy()
        mse_wiener_hopf([0.5, 1.0], 1e-3, cov)
        assert np.array_equal(cov.values, before)

    def test_failed_factorization_restores_the_matrix(self, monkeypatch):
        # the system is factored in a matrix of the solve's own; a refusal
        # leaves K as it was
        def not_definite(*args, **kwargs):
            raise np.linalg.LinAlgError("leading minor not positive")

        cov = cov_matrix(QuadGrid.gauss_legendre_unit(300), ModelParams(H=0.7, beta=-1.0))
        before = cov.values.copy()
        monkeypatch.setattr(error_analysis, "cho_factor", not_definite)
        with pytest.raises(SolverError, match="not positive definite") as exc:
            mse_wiener_hopf([0.5, 1.0], 1e-3, cov)
        assert exc.value.stage == "mse_wiener_hopf"
        assert np.array_equal(cov.values, before)

    def test_the_solve_never_writes_the_matrix(self):
        # K's own buffer made read-only after construction: every eps is
        # solved from reads of K alone, to the bits of a writeable copy
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(300), ModelParams(H=0.7, beta=-1.0))
        copy = CovMatrix(cov.values.copy(), cov.grid, cov.params)
        cov.values.flags.writeable = False
        P = mse_wiener_hopf([0.5, 1.0], self.EPS, cov)
        assert np.array_equal(P, mse_wiener_hopf([0.5, 1.0], self.EPS, copy))
        assert np.array_equal(cov.values, copy.values)

    def test_read_only_matrix_is_solved_on_a_copy(self):
        # CovMatrix copies a read-only array into a writeable buffer of its own
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(300), ModelParams(H=0.7, beta=-1.0))
        values = cov.values.copy()
        values.flags.writeable = False
        frozen = CovMatrix(values, cov.grid, cov.params)
        assert frozen.values.flags.writeable and frozen.values is not values
        P = mse_wiener_hopf([0.5, 1.0], 1e-4, frozen)
        assert np.array_equal(P, mse_wiener_hopf([0.5, 1.0], 1e-4, cov))
        assert np.array_equal(values, cov.values)

    EPS = [1e-2, 1e-3, 1e-4]

    @staticmethod
    def _counted_factor(monkeypatch, fail_at=None):
        """Patch the module's cho_factor to count its calls, and to refuse the
        call numbered `fail_at`; returns the list of calls."""
        calls, factor = [], error_analysis.cho_factor

        def counted(*args, **kwargs):
            calls.append(1)
            if len(calls) == fail_at:
                raise np.linalg.LinAlgError("leading minor not positive")
            return factor(*args, **kwargs)

        monkeypatch.setattr(error_analysis, "cho_factor", counted)
        return calls

    def test_several_eps_match_one_call_each(self, monkeypatch):
        # one fill and factorization per eps give the bits of one scalar-eps
        # call per eps, and K is never written
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(300), ModelParams(H=0.7, beta=-1.0))
        before = cov.values.copy()
        us = [0.5, 1.0]
        calls = self._counted_factor(monkeypatch)
        many = mse_wiener_hopf(us, self.EPS, cov)
        assert len(calls) == len(self.EPS)  # the tracer's factorization count
        assert np.array_equal(cov.values, before)
        one = np.array([mse_wiener_hopf(us, e, cov) for e in self.EPS])
        assert many.shape == (3, 2) and np.array_equal(many, one)
        assert np.array_equal(mse_wiener_hopf(1.0, self.EPS, cov), one[:, 1])
        assert np.array_equal(cov.values, before)

    def test_failure_at_a_later_eps_restores_the_matrix(self, monkeypatch):
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(300), ModelParams(H=0.7, beta=-1.0))
        before = cov.values.copy()
        calls = self._counted_factor(monkeypatch, fail_at=2)
        with pytest.raises(SolverError, match="not positive definite"):
            mse_wiener_hopf([0.5, 1.0], self.EPS, cov)
        assert len(calls) == 2
        assert np.array_equal(cov.values, before)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_bad_eps_is_refused_before_the_matrix_is_touched(self, monkeypatch, bad):
        def never(*args, **kwargs):
            raise AssertionError("the matrix was touched")

        cov = cov_matrix(QuadGrid.gauss_legendre_unit(300), ModelParams(H=0.7, beta=-1.0))
        before = cov.values.copy()
        eps = list(self.EPS)
        eps[bad] = [0.0, math.nan, -1e-3][bad]
        monkeypatch.setattr(error_analysis, "cho_factor", never)
        with pytest.raises(DomainError, match="eps must be finite and positive"):
            mse_wiener_hopf([0.5, 1.0], eps, cov)
        assert np.array_equal(cov.values, before)

    def test_peak_memory(self, peak_matrices):
        # the solve's own N x N buffer, in which each eps's system is built
        # and factored, sets the peak: 1.03 matrices with the right-hand
        # sides.  Built in K's spare upper triangle it was 0.12, and with a
        # temporary and the factorization's Fortran-order copy 2.13
        N = 600
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(N), ModelParams(H=0.7, beta=-1.0))
        assert peak_matrices(lambda: mse_wiener_hopf([0.5, 1.0], 1e-4, cov), N) <= 1.15

    def test_half_snaps_to_the_lower_central_node(self):
        # u = 1/2 is midway between the central nodes of an even grid; the
        # rounding of the nodes used to decide which one (up at N = 60, 1000)
        p = ModelParams(H=0.7, beta=-1.0)
        for N in range(2, 401, 2):
            grid = QuadGrid.gauss_legendre_unit(N)
            below, above = (float(x) for x in grid.nodes[N // 2 - 1:N // 2 + 1])
            P = mse_wiener_hopf([0.5, below, above], 1e-3, cov_matrix(grid, p))
            assert P[0] == P[1] != P[2], N

    def test_large_eps_limit(self, small_oracle):
        p, grid, cov, _ = small_oracle
        j = 100
        val = mse_wiener_hopf(float(grid.nodes[j]), 1e9, cov)
        assert_allclose(val, cov.values[j, j], rtol=1e-6)

    def test_ou_interior_constant(self):
        # H=1/2, beta=1: interior P/sqrt(eps) -> 1/2
        p = ModelParams(H=0.5, beta=1.0)
        spec = build_spectrum(p, "closed_form_ou", n_max=20_000)
        val = mse_series(0.5, 1e-6, spec)
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
        rep = convergence_study(spec, [1e-4, 1e-5], [0.5, 1.0])
        assert np.max(np.abs(rep.ratios - 1.0)) < 0.02
        assert rep.diagnostics["monotone_in_eps"]
        assert np.all(rep.P_series >= 0)

    def test_i2_oscillation_small(self, bm_spectrum):
        p, spec = bm_spectrum
        rep = convergence_study(spec, [1e-3, 1e-4, 1e-5], [0.35])
        assert np.max(np.abs(rep.diagnostics["I2_over_eps"])) < 1.0

    def test_t_invariance_of_leading_term(self):
        ratios = {}
        for T in (1.0, 2.0):
            p = ModelParams(H=0.5, beta=0.0, T=T)
            spec = build_spectrum(p, "closed_form_ou", n_max=100_000)
            rep = convergence_study(spec, [1e-5], [0.5, 1.0])
            ratios[T] = rep.ratios[0]
        assert np.max(np.abs(ratios[1.0] / ratios[2.0] - 1.0)) < 0.05

    def test_validates_arguments(self, bm_spectrum):
        p, spec = bm_spectrum
        with pytest.raises(DomainError):
            convergence_study(spec, [1e-4, 1e-3], [0.5])  # not decreasing
        with pytest.raises(DomainError):
            convergence_study(spec, [1e-4], [0.0])

    def test_oracle_spectrum_keeps_its_wiener_hopf_cells(self, small_oracle):
        # the cells are read off the matrix before the eigensolve reduces it;
        # the spectrum keeps them, not the matrix
        p, grid, cov, spec = small_oracle
        us = [float(grid.nodes[75]), 1.0]
        built = build_spectrum(p, "oracle", n_max=spec.n_max, grid=grid,
                               wiener_hopf=([1e-3, 1e-4], us))
        assert not hasattr(built, "cov")
        assert np.array_equal(built.lam, spec.lam)
        table = built.wiener_hopf
        assert table.eps.tolist() == [1e-3, 1e-4]
        assert table.nodes.tolist() == [75, 149]
        rep = convergence_study(built, [1e-3, 1e-4], us)
        assert np.array_equal(rep.P_wiener_hopf, table.P)

    def test_wiener_hopf_column(self, small_oracle):
        p, grid, cov, spec = small_oracle
        u = float(grid.nodes[75])
        built = build_spectrum(p, "oracle", n_max=spec.n_max, grid=grid,
                               wiener_hopf=([1e-3, 1e-4], [u]))
        rep = convergence_study(built, [1e-3, 1e-4], [u])
        assert_allclose(rep.P_wiener_hopf, rep.P_series, rtol=1e-6)

    def test_column_equals_a_standalone_solve(self):
        # bit for bit what mse_wiener_hopf gives on a fresh matrix, each u
        # snapped as that solve snaps it
        p = ModelParams(H=0.7, beta=-1.0)
        grid = QuadGrid.gauss_legendre_unit(120)
        eps, us = [1e-1, 1e-2, 1e-3], [0.5, 0.3, 1.0]
        built = build_spectrum(p, "oracle", n_max=120, grid=grid, wiener_hopf=(eps, us))
        snapped = [float(grid.nodes[grid.nearest(u)]) for u in us[:2]] + [1.0]
        rep = convergence_study(built, eps, snapped)
        fresh = np.array([mse_wiener_hopf(us, e, cov_matrix(grid, p)) for e in eps])
        assert np.array_equal(rep.P_wiener_hopf, fresh)

    def test_wiener_hopf_column_needs_the_matrix(self, small_oracle):
        # only the dense routes assemble a matrix to read the column off,
        # and a study reads only the cells its spectrum read
        p, grid, cov, spec = small_oracle
        u = float(grid.nodes[75])
        closed = build_spectrum(ModelParams(H=0.5, beta=1.0), "closed_form_ou", n_max=2000)
        for bare in (spec, closed):
            assert bare.wiener_hopf is None
            assert convergence_study(bare, [1e-1], [1.0]).P_wiener_hopf is None
        built = build_spectrum(p, "oracle", n_max=spec.n_max, grid=grid,
                               wiener_hopf=([1e-3], [u]))
        for eps, us in (([1e-3, 1e-4], [u]), ([1e-3], [u, 1.0])):
            with pytest.raises(DomainError, match="Wiener-Hopf column was read"):
                convergence_study(built, eps, us)

    def test_peak_memory_with_the_column(self, traced_matrices):
        # the assembly of K sets the peak at N = 600: 2.12 matrices; the
        # Wiener-Hopf solves and the eigensolve stay below it.  When the
        # spectrum kept K next to the eigensolve's copy and each factor, 3.11
        N = 600
        p = ModelParams(H=0.7, beta=-1.0)
        eps, us = [1e-3, 1e-4], [0.5, 1.0]

        def run():
            spec = build_spectrum(p, "oracle", n_max=N // 2, grid_size=N,
                                  wiener_hopf=(eps, us))
            return convergence_study(spec, eps, us)

        peak, _, rep = traced_matrices(run, N)
        assert peak <= 2.3
        assert rep.P_wiener_hopf.shape == (2, 2)

    def test_peak_memory_of_the_dense_run(self, traced_matrices):
        # K next to the Wiener-Hopf solve's own matrix sets the peak: 2.01
        # matrices, under the DENSE_DOUBLES that the memory gate charges.
        # The eigensolve's panels (0.56) next to dstemr's N x N output come
        # to 1.58; with the solves in K's spare upper triangle that was the
        # peak.  At N = 600 the assembly of K sets it instead.
        N = 1500
        grid = QuadGrid.gauss_legendre_unit(N)
        peak, kept, spec = traced_matrices(lambda: build_spectrum(
            ModelParams(H=0.7, beta=-1.0), "oracle", n_max=N // 2, grid=grid,
            wiener_hopf=((1e-3, 1e-4, 1e-5), (0.5, 1.0))), N)
        assert peak <= 2.1 < error_analysis.DENSE_DOUBLES
        assert kept <= 1.1
        assert spec.wiener_hopf.P.shape == (3, 2)


def test_closed_form_peak_memory(traced_matrices):
    # in doubles per pair, at the truncation of `mse --H 0.5 --eps ...,1e-9`:
    # the spectrum keeps nu, lam, phi1, the integrals and the norms that its
    # off-grid values share.  Measured: 6.0 to build (9.13 when the Newton
    # steps and the norms made their own temporaries), and 9.0 for the sweep
    # with the spectrum it reads (10.0 when each eps held the last eps's terms).
    n = 632_455
    pair = math.sqrt(n)  # a "matrix" of sqrt(n) x sqrt(n) doubles is one double per pair
    p = ModelParams(H=0.5, beta=-1.0)
    peak, kept, spec = traced_matrices(
        lambda: build_spectrum(p, "closed_form_ou", n_max=n), pair)
    assert peak <= 9.2
    assert kept <= 5.1
    peak, _, _ = traced_matrices(
        lambda: convergence_study(build_spectrum(p, "closed_form_ou", n_max=n),
                                  [1e-4, 1e-5, 1e-6, 1e-7], [0.5, 1.0]), pair)
    assert peak <= 10.1


class TestTruncationGuard:
    def test_refusal(self):
        p = ModelParams(H=0.5)
        spec = build_spectrum(p, "closed_form_ou", n_max=300)
        with pytest.raises(TruncationError):
            check_truncation(1e-9, spec, u=1.0)

    def test_slow_tail_refusal(self):
        # small H: every excluded term looks negligible (the largest is 5.7e-4
        # of P here) but their mass is not (0.19 of P)
        p = ModelParams(H=0.3, beta=-1.0)
        spec = build_spectrum(p, "oracle", n_max=200, grid_size=400)
        with pytest.raises(TruncationError, match="excluded series mass"):
            check_truncation(1e-2, spec, u=1.0)

    def test_sweep_reuses_its_series(self, monkeypatch):
        # convergence_study hands its smallest-eps row to check_truncation
        # instead of summing the series again; the refusal is unchanged
        p = ModelParams(H=0.5)
        spec = build_spectrum(p, "closed_form_ou", n_max=300)
        with pytest.raises(TruncationError) as direct:  # the sweep's first u
            check_truncation(1e-9, spec, u=0.5)

        def no_series(*args, **kwargs):
            raise AssertionError("mse_series called")

        monkeypatch.setattr(error_analysis, "mse_series", no_series)
        with pytest.raises(TruncationError) as swept:
            convergence_study(spec, [1e-3, 1e-9], [0.5, 1.0])
        assert str(swept.value) == str(direct.value)
        rep = convergence_study(spec, [1e-1, 1e-2], [0.5, 1.0])
        monkeypatch.undo()
        for k, u in enumerate((0.5, 1.0)):
            assert rep.P_series[-1, k] == mse_series(u, 1e-2, spec)

    def test_acceptance_when_sufficient(self, bm_spectrum):
        # no refusal: the estimated term n_max + 1 is below 1e-3 * P and the
        # estimated excluded mass below 2e-2 * P
        p, spec = bm_spectrum
        check_truncation(1e-6, spec, u=1.0)
        check_truncation(1e-6, spec, u=1.0, P=mse_series(1.0, 1e-6, spec))


@pytest.mark.parametrize("beta", [-1.0, 1e-4, 2.0, 7.5])
def test_endpoint_matches_kalman_bucy(beta):
    # at H = 1/2 the endpoint error solves the Riccati equation of the
    # Kalman-Bucy filter, P' = 2 beta P + 1 - P^2/eps, P(0) = 0
    p = ModelParams(H=0.5, beta=beta)
    spec = build_spectrum(p, "closed_form_ou", n_max=100_000)
    for eps in (1e-4, 1e-5):
        val = mse_series(1.0, eps, spec)
        tail = truncation_tail(eps, spec, endpoint=True)
        assert_allclose(val + tail, _kalman_bucy(beta, eps), rtol=1e-6)


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
    spec = build_spectrum(p, "oracle", n_max=50, grid_size=100)
    N, lam_n = spec.n_max, float(spec.lam[-1])
    assert lam_n > 0.0
    ys = np.array([1e-8, 1e-3, 1.0, 1e3])
    eps = p.mu ** 2 * p.T * lam_n / ys
    for y, e in zip(ys, eps):
        ref = N * lam_n / (2.0 * H) * _tail_reference(float(y), H)
        for endpoint, phi_bar2 in ((False, 1.0), (True, 2.0 * H + 1.0)):
            got = truncation_tail(float(e), spec, endpoint=endpoint)
            assert isinstance(got, float)
            assert abs(got / (phi_bar2 * ref) - 1.0) <= 1e-13, (y, endpoint)
    ends = np.array([False, True])
    table = truncation_tail(eps[:, None], spec, endpoint=ends)
    assert table.shape == (4, 2)
    assert np.array_equal(table, [[truncation_tail(float(e), spec, endpoint=bool(k))
                                   for k in ends] for e in eps])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(H=st.floats(0.01, 0.99),
       log_y=st.lists(st.floats(-12.0, 300.0), min_size=1, max_size=20))
def test_hyp2f1_tail_matches_scipy(H, log_y):
    from scipy.special import hyp2f1

    b = 2.0 * H / (2.0 * H + 1.0)
    y = 10.0 ** np.array(log_y)
    want = hyp2f1(1.0, b, b + 1.0, -y)
    assert np.max(np.abs(hyp2f1_tail(b, y) / want - 1.0)) <= 1e-14


def test_hyp2f1_tail_anchors():
    # b = 1/2: 2F1(1, 1/2; 3/2; -y) = atan(sqrt y)/sqrt y, on both branches
    y = np.array([1e-10, 0.3, 1.0, 2.0, 2.5, 1e2, 1e10, 1e250])
    assert_allclose(hyp2f1_tail(0.5, y), np.arctan(np.sqrt(y)) / np.sqrt(y), rtol=1e-15)
    assert np.array_equal(hyp2f1_tail(0.3, np.array([0.0, np.inf])), [1.0, 0.0])
    # a 0-d y gives a 0-d array
    assert hyp2f1_tail(0.3, 0.0).shape == ()


@pytest.mark.parametrize("H", [0.01, 0.5, 0.99])
def test_hyp2f1_tail_is_continuous_at_the_branch_switch(H):
    from scipy.special import hyp2f1

    b = 2.0 * H / (2.0 * H + 1.0)
    y = np.array([np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0)])
    got = hyp2f1_tail(b, y)
    assert_allclose(got, hyp2f1(1.0, b, b + 1.0, -y), rtol=1e-14)
    # the two branches meet with a step of rounding size only
    assert abs(got[2] / got[1] - 1.0) <= 1e-14


def test_refined_spectrum_keeps_its_head_cells(monkeypatch):
    # the Wiener-Hopf column is read off the head's matrix: one assembly
    p = ModelParams(H=0.7, beta=-1.0)
    g = QuadGrid.gauss_legendre_unit(60)
    calls = []

    def counted(grid, params):
        calls.append(grid.size)
        return cov_matrix(grid, params)

    monkeypatch.setattr(error_analysis, "cov_matrix", counted)
    us = [float(g.nodes[30]), 1.0]
    spec = build_spectrum(p, "refined", n_max=20, grid=g, wiener_hopf=([1e-1], us))
    rep = convergence_study(spec, [1e-1], us)
    assert calls == [60]
    assert np.array_equal(rep.P_wiener_hopf[0],
                          mse_wiener_hopf(us, 1e-1, cov_matrix(g, p)))


@pytest.mark.parametrize("n_max", [2, 20])
def test_refined_route_refuses_small_h_before_any_work(n_max, monkeypatch):
    # below H = 1/2 the refined solver is out of scope: refused before the
    # head's matrix is assembled, also when every pair would be a head pair
    def never(*args, **kwargs):
        raise AssertionError("assembled a matrix the refined route cannot use")

    monkeypatch.setattr(error_analysis, "cov_matrix", never)
    with pytest.raises(DomainError, match="integro-algebraic solver covers H"):
        build_spectrum(ModelParams(H=0.3, beta=-1.0), "refined", n_max=n_max, grid_size=60)


@pytest.mark.parametrize("method", ["oracle", "refined"])
def test_dense_route_refuses_more_pairs_than_nodes(method, monkeypatch):
    # the refined route used to return phi_n(1) values up to 2.05x off here
    def never(*args, **kwargs):
        raise AssertionError("assembled a matrix for a refused request")

    monkeypatch.setattr(error_analysis, "cov_matrix", never)
    with pytest.raises(DomainError, match=r"n_max=40 exceeds the grid size 20; raise "
                                          r"grid_size or lower n_max \(--N-unit, --n-max\)"):
        build_spectrum(ModelParams(H=0.7, beta=-1.0), method, n_max=40, grid_size=20)


@pytest.mark.parametrize("n_max", [0, -3])
@pytest.mark.parametrize("method", ["oracle", "refined", "closed_form_ou"])
def test_fewer_than_one_pair_is_refused_first(method, n_max, no_allocation):
    # the closed-form route returned an empty spectrum here,
    # and the dense ones assembled the matrix before the eigensolve refused
    H = 0.5 if method == "closed_form_ou" else 0.7
    with pytest.raises(DomainError, match=f"n_max must be at least 1, got {n_max}"):
        build_spectrum(ModelParams(H=H, beta=-1.0), method, n_max=n_max)


@pytest.mark.parametrize("method,size", [("oracle", "N = 1000 grid nodes"),
                                         ("refined", "N = 1000 grid nodes"),
                                         ("closed_form_ou", "n_max = 500 pairs")])
def test_request_over_the_memory_budget_is_refused_before_any_array(method, size,
                                                                   tiny_memory_budget):
    # the hint names what the route can lower: a route without a grid has no --N-unit
    H = 0.5 if method == "closed_form_ou" else 0.7
    hint = (r"grid_size or n_max \(--N-unit, --n-max\)" if size.endswith("nodes")
            else r"n_max \(--n-max\)")
    with pytest.raises(DomainError, match=f"the {method} spectrum at {size} needs .* budget; "
                                          f"lower {hint}, or raise"):
        build_spectrum(ModelParams(H=H, beta=-1.0), method, n_max=500, grid_size=1000)


@pytest.mark.parametrize("method,H", [("closed_form_ou", 0.5)])
@pytest.mark.parametrize("matrix_input", ["grid", "wiener_hopf", "both"])
def test_routes_without_a_matrix_refuse_its_inputs(method, H, matrix_input, no_allocation):
    # a grid used to make these routes sample every pair on it; neither a
    # grid nor the Wiener-Hopf column has a kernel matrix to go with here
    grid = QuadGrid(*gauss_legendre_01(20))  # the fixture refuses gauss_legendre_unit
    kwargs = {"grid": grid, "wiener_hopf": ([1e-3], [1.0])}
    if matrix_input != "both":
        kwargs = {matrix_input: kwargs[matrix_input]}
    with pytest.raises(DomainError, match=f"kernel matrix: .* not {method!r}"):
        build_spectrum(ModelParams(H=H, beta=-1.0), method, n_max=20, **kwargs)


def test_refined_head_pairs_are_the_oracle_pairs():
    # the head pairs come from the oracle matrix of the same grid
    p = ModelParams(H=0.7, beta=-1.0)
    g = QuadGrid.gauss_legendre_unit(60)
    spec = build_spectrum(p, "refined", n_max=3, grid=g)
    assert np.array_equal(spec.lam[:2], nystrom_eigs(cov_matrix(g, p), 2).lam)


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
    assert spec.diagnostics["eigensolver"] == "lanczos"
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
    for call in (lambda: mse_series(1.0, eps, spec),
                 lambda: mse_asymptotic("endpoint", eps, p),
                 lambda: mse_wiener_hopf(1.0, eps, cov_matrix(g, p)),
                 lambda: convergence_study(spec, [1e-3, eps], [1.0])):
        with pytest.raises(DomainError, match="eps"):
            call()


def test_nan_u_is_refused(bm_spectrum):
    p, spec = bm_spectrum
    with pytest.raises(DomainError, match="u_points"):
        convergence_study(spec, [1e-3], [0.5, math.nan])


def test_problem_is_stated_once():
    # mu, T and H come from the spectrum; the old signatures, which took the
    # problem a second time and mixed the two silently, are gone
    p = ModelParams(H=0.5, beta=-1.0)
    spec = build_spectrum(p, "closed_form_ou", n_max=1000)
    other = ModelParams(H=0.5, beta=-1.0, T=2.0)
    with pytest.raises(TypeError):
        mse_series(1.0, 1e-4, other, spec)
    with pytest.raises(TypeError):
        convergence_study(other, [1e-4], [1.0], spec)
    with pytest.raises(TypeError):
        check_truncation(1e-4, other, spec)
    rep = convergence_study(spec, [1e-2], [1.0])
    assert rep.params is p
    assert rep.P_series[0, 0] == mse_series(1.0, 1e-2, spec)


def _package_calls():
    """(module, top-level definition, callee name, call node) of every call
    in the package's modules."""
    for path in sorted(Path(error_analysis.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    yield path.name, getattr(top, "name", None), name, node


def test_build_spectrum_is_the_one_door_to_a_spectrum():
    # the acceptance suite kept its own copy of the dense pipeline and
    # skipped the gate; only error_analysis solves for a spectrum or a
    # Wiener-Hopf value, and only build_spectrum spends a matrix on the
    # eigensolve
    solvers = {"nystrom_eigs", "ou_closed_form_eigs", "refined_spectrum", "mse_wiener_hopf"}
    calls = list(_package_calls())
    assert {module for module, _, name, _ in calls if name in solvers} == {"error_analysis.py"}
    eigensolves = [(module, top) for module, top, name, _ in calls if name == "nystrom_eigs"]
    assert eigensolves == [("error_analysis.py", "build_spectrum")]


@pytest.mark.parametrize("entry", [(7, 7), (45, 4), (4, 45)], ids=["diagonal", "lower", "upper"])
def test_non_finite_matrix_is_refused(entry):
    # the Cholesky factorization reads one triangle and the solve does not
    # scan the factor: a NaN anywhere is refused where the matrix is built,
    # so no solve is ever handed one
    p = ModelParams(H=0.7, beta=-1.0)
    cov = cov_matrix(QuadGrid.gauss_legendre_unit(60), p)
    eps, us = [1e-1, 3e-2], [0.5, 1.0]
    K = cov.values.copy()  # before the solve spends the matrix
    table = error_analysis.WienerHopfTable.read(cov, eps, us)
    spec = replace(nystrom_eigs(cov, 30), wiener_hopf=table)
    assert np.all(np.isfinite(convergence_study(spec, eps, us).P_wiener_hopf))
    K[entry] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        CovMatrix(K, cov.grid, p)


@pytest.mark.parametrize("H, route", [
    (0.7, dict(spectrum="oracle", n_max=100, grid_size=200, with_wh=True)),
    (0.7, dict(spectrum="oracle", with_wh=True)),
    (0.5, dict())],
    ids=["oracle", "two_grids", "closed_form"])
def test_scaling_in_T_and_mu(H, route):
    # P(u; beta, T, mu, eps) = T^(2H) P(u; beta T, 1, 1, eps / (mu^2 T^(2H+1))):
    # pins the mu^2 T factors of the series, of the Wiener-Hopf system and of
    # the closure, whose K(u,u) on the closed form is the OU variance
    beta, T, mu = -1.0, 2.0, 1.5
    eps, us = [1.0, 0.3], [0.5, 1.0]
    rep = error_analysis.estimate(ModelParams(H=H, beta=beta, T=T, mu=mu), eps, us, **route)
    unit = error_analysis.estimate(ModelParams(H=H, beta=beta * T),
                                   [e / (mu ** 2 * T ** (2 * H + 1)) for e in eps], us, **route)
    columns = ["P_series", "P_closed"] + (["P_wiener_hopf"] if route.get("with_wh") else [])
    for name in columns:
        assert_allclose(getattr(rep, name), T ** (2 * H) * getattr(unit, name), rtol=1e-13,
                        atol=0, err_msg=name)


def test_estimate_refusals_name_its_parameters(no_allocation):
    # estimate is a library call: a refusal names its own parameters first,
    # with the `mse` flags in parentheses
    with pytest.raises(DomainError, match=r"set n_max and grid_size \(--n-max, --N-unit\)"):
        error_analysis.estimate(ModelParams(H=0.7, mu=1000.0), [5e-324], [1.0])
    for eps, u, name in (([], [1.0], "eps"), ([1e-2], [], "u")):
        with pytest.raises(DomainError, match=rf"^{name} must be a nonempty list \(--{name}\)"):
            error_analysis.estimate(ModelParams(H=0.7), eps, u)


def _same_grid_resolvent(p, N, eps, u):
    """P(u, eps) of the N-node problem itself, at any u in [0,1]:
    K(u,u) - k_u' W^{1/2} (eps I + B)^{-1} W^{1/2} k_u, B = W^{1/2} K W^{1/2}
    and k_u the kernel row at u, for mu = T = 1."""
    from scipy.linalg import cho_factor, cho_solve

    grid = QuadGrid.gauss_legendre_unit(N)
    a = np.sqrt(grid.weights) * cov_row(u, p, grid)
    B = cov_matrix(grid, p).weighted()
    B[np.diag_indices(N)] += eps
    return fou_cov(u, u, p) - float(a @ cho_solve(cho_factor(B), a))


@pytest.mark.parametrize("H", [0.3, 0.7, 0.9])
def test_mercer_bracket_contains_the_same_grid_resolvent(H):
    # the sum over all N oracle pairs is k_u' W^{1/2} B^{-1} W^{1/2} k_u, so
    # R_M(u) is the mass of the left-out pairs plus K(u,u) less that sum, and
    # each left-out term's weight g_n lies in [g(lambda_M), 1]
    p, N = ModelParams(H=H, beta=-1.0), 400
    spec = build_spectrum(p, "oracle", n_max=N // 2, grid_size=N)
    for u in (1.0, float(spec.grid.nodes[N // 2]), 0.3):
        R = mercer_remainder(spec, u)
        assert R > 0.0
        for eps in (1e-2, 1e-4):
            S, g = mse_series(u, eps, spec), eps / (eps + spec.lam[-1])
            P = _same_grid_resolvent(p, N, eps, u)
            assert S + g * R - 1e-13 * P <= P <= S + R + 1e-13 * P, (u, eps)


def test_study_reports_the_closure_of_each_cell():
    # the diagnostics are the bracket of mercer_remainder, and the closure
    # lies inside it
    p = ModelParams(H=0.7, beta=-1.0)
    spec = build_spectrum(p, "oracle", n_max=100, grid_size=200)
    eps, us = [1e-2, 1e-3], [float(spec.grid.nodes[100]), 1.0]
    rep = convergence_study(spec, eps, us)
    d = rep.diagnostics
    for k, u in enumerate(us):
        R = mercer_remainder(spec, u)
        assert d["mercer_R"][k] == R
        for i, e in enumerate(eps):
            S = mse_series(u, e, spec)
            assert_allclose([d["P_lo"][i, k], d["P_hi"][i, k]],
                            [S + e / (e + spec.lam[-1]) * R, S + R], rtol=1e-14)
            assert d["P_lo"][i, k] < rep.P_closed[i, k] < d["P_hi"][i, k]


@pytest.mark.parametrize("H, route, n_max, grid_size", [
    (0.7, "oracle", 100, 200), (0.5, "closed_form_ou", 3000, 0)], ids=["oracle", "closed_form"])
def test_study_closes_what_estimate_prints(H, route, n_max, grid_size):
    # convergence_study closes each cell itself, and estimate at set sizes
    # returns those cells unchanged, bit for bit
    p, eps = ModelParams(H=H, beta=-1.0), [1e-2, 1e-3]
    rep = error_analysis.estimate(p, eps, [0.5, 1.0], spectrum=route, n_max=n_max,
                                  grid_size=grid_size)
    spec = build_spectrum(p, route, n_max=n_max, grid_size=grid_size)
    study = convergence_study(spec, eps, rep.u_points)
    assert rep.spectrum_method == study.spectrum_method == route
    for name in ("P_closed", "P_closed_err"):
        assert np.array_equal(getattr(study, name), getattr(rep, name)), name
    assert "P_closed" not in study.diagnostics and "P_closed" not in rep.diagnostics


def test_refined_study_is_not_closed_and_no_route_keeps_a_diagnostic_copy():
    p, eps = ModelParams(H=0.7, beta=-1.0), [1e-1, 1e-2]
    spec = build_spectrum(p, "refined", n_max=40, grid_size=100)
    rep = convergence_study(spec, eps, [1.0])
    assert rep.P_closed is None and rep.P_closed_err is None
    assert "P_closed" not in rep.diagnostics and "P_lo" in rep.diagnostics
    two_grids = error_analysis.estimate(p, eps, [0.5, 1.0])
    assert two_grids.diagnostics["grids"] == (1000, 500)
    assert "P_closed" not in two_grids.diagnostics


@pytest.mark.parametrize("H, route, grid_size, n_max", [
    (0.7, dict(), 1000, 500), (0.7, dict(spectrum="refined"), 300, 150),
    (0.5, dict(with_wh=True), 1000, 500)], ids=["oracle", "refined", "oracle_h05_wh"])
def test_set_grid_sizes_the_automatic_pairs(H, route, grid_size, n_max):
    # a grid below the automatic max(1500, 5 n_eff) pairs keeps half its
    # nodes, as the two-grid default does, instead of refusing n_max > N
    rep = error_analysis.estimate(ModelParams(H=H), [1e-3], [1.0], grid_size=grid_size, **route)
    assert rep.spectrum_method == route.get("spectrum", "oracle")
    assert rep.truncation_n == n_max


def test_negative_oracle_remainder_is_refused():
    # pairs that leave more than K(u,u) are not the operator's
    p = ModelParams(H=0.7, beta=-1.0)
    spec = build_spectrum(p, "oracle", n_max=20, grid_size=100)
    with pytest.raises(SolverError, match="R_M"):
        mercer_remainder(replace(spec, lam=2.0 * spec.lam), 1.0)


@pytest.mark.parametrize("beta", [-1.5, -1.0476, -0.5])
def test_auto_oracle_passes_the_benchmark_check(beta, tmp_path, monkeypatch):
    # the automatic sizing must keep the mse_oracle_h07 workload's check:
    # the Wiener-Hopf value lies between the series and the series plus
    # tail_est, which it does with little room (0.2 to 0.9 of tail_est)
    import importlib.util

    from fouspec import cli

    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # run.py imports its tracer
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    workload = run.WORKLOADS["mse_oracle_h07"]
    parser = cli._build_parser()
    argv = cli._attach_numbers(run.cli_argv(workload["args"], beta))
    cfg = cli._merge_config(parser.parse_args(argv), parser)
    assert (cfg.n_max, cfg.N_unit) == (0, 0)
    path = tmp_path / "out.csv"
    path.write_text(cli.render(cfg))
    assert run.check_output(workload, 0, path, beta, None) == []


def test_closed_form_sizes_twenty_effective_terms():
    # the closure needs 20 n_eff pairs where the law needed 200 n_eff
    for eps, n in ((1e-2, 1500), (1e-4, 2000), (1e-7, 63_245)):
        rep = error_analysis.estimate(ModelParams(H=0.5, beta=-1.1), [eps], [1.0])
        assert (rep.spectrum_method, rep.truncation_n) == ("closed_form_ou", n), eps


@pytest.mark.parametrize("beta", [-100.0, -300.0])
def test_closed_form_takes_the_law_pairs_where_the_law_refuses(beta):
    # at strong negative drift P sits well below sqrt(eps), and the tail law
    # that check_truncation reads refuses 20 n_eff pairs (2000 here): the
    # run is answered on the law's 200 n_eff, as it was before the closure
    p, eps = ModelParams(H=0.5, beta=beta), [1e-4]
    with pytest.raises(TruncationError):
        convergence_study(build_spectrum(p, "closed_form_ou", n_max=2000), eps, [1.0])
    rep = error_analysis.estimate(p, eps, [0.5, 1.0])
    assert rep.truncation_n == 20_000
    direct = convergence_study(build_spectrum(p, "closed_form_ou", n_max=20_000), eps,
                               [0.5, 1.0])
    assert np.array_equal(rep.P_series, direct.P_series)
    exact = _kalman_bucy(beta, eps[0])
    assert abs(rep.P_closed[0, 1] - exact) <= rep.P_closed_err[0, 1]
    assert abs(rep.P_closed[0, 1] / exact - 1.0) <= 1e-10


@pytest.mark.parametrize("beta", [-30.0, 5.0, 8.0, 12.0, 20.0])
def test_closed_form_bar_covers_kalman_bucy_at_strong_drift(beta):
    # at strong positive drift K(1,1) ~ e^(2 beta) / (2 beta) swamps R_M, and
    # the rounding of K - S_M, not the bracket, sets the bar; at beta T = -30
    # `fou_cov` refuses, so K(u,u) is the exact OU variance
    p = ModelParams(H=0.5, beta=beta)
    if beta < -12.0:
        with pytest.raises(DomainError):
            fou_cov(1.0, 1.0, p)
    eps = [1e-4, 1e-6]
    rep = error_analysis.estimate(p, eps, [0.5, 1.0])
    assert rep.spectrum_method == "closed_form_ou"
    assert np.all(rep.P_closed >= rep.P_series)
    for i, e in enumerate(eps):
        exact = _kalman_bucy(beta, e)
        assert abs(rep.P_closed[i, 1] - exact) <= rep.P_closed_err[i, 1], (e, exact)
        if beta < 0.0:  # where the bracket sets the bar: within 1e-10 of P
            assert abs(rep.P_closed[i, 1] / exact - 1.0) <= 1e-10, e


def test_closed_form_remainder_is_the_ou_variance_less_the_series():
    # K(u,u) = T expm1(2 beta T u) / (2 beta T), u T at beta = 0; a remainder
    # that rounding pushes below 0 reads 0, and one below -MERCER_PAD K is refused
    for beta, T in ((-1.5, 1.0), (0.0, 2.0), (2.0, 0.5)):
        p = ModelParams(H=0.5, beta=beta, T=T)
        spec = build_spectrum(p, "closed_form_ou", n_max=3000)
        for u in (0.3, 1.0):
            S = float(spec.lam @ np.asarray(spec.phi_values(u)) ** 2)
            K = u * T if beta == 0.0 else T * math.expm1(2 * beta * T * u) / (2 * beta * T)
            assert_allclose(mercer_remainder(spec, u) + S, K, rtol=1e-15)
            assert 0.0 < mercer_remainder(spec, u) < 2.0 / (math.pi ** 2 * 3000) * T
    # at beta T = 20, K(1,1) ~ 6e15 swamps the true R_M ~ 7e-5: the value
    # is rounding, nonnegative and within its bound
    spec = build_spectrum(ModelParams(H=0.5, beta=20.0), "closed_form_ou", n_max=3000)
    R, bound = error_analysis._closed_form_remainder(
        spec, 1.0, np.asarray(spec.phi_values(1.0)) ** 2)
    assert R == mercer_remainder(spec, 1.0)
    assert 0.0 <= R <= bound
    with pytest.raises(SolverError, match="R_M"):
        mercer_remainder(replace(spec, lam=(1.0 + 1e-9) * spec.lam), 1.0)


def test_closed_form_remainder_below_zero_but_above_the_pad_reads_zero():
    # pairs scaled to leave R_M = -1e-12 K(1,1), above -MERCER_PAD K: rounding
    spec = build_spectrum(ModelParams(H=0.5, beta=-1.5), "closed_form_ou", n_max=3000)
    K = math.expm1(-3.0) / -3.0
    R = mercer_remainder(spec, 1.0)
    assert R > 1e-6 * K
    S = K - R
    scaled = replace(spec, lam=(1.0 + (R + 1e-12 * K) / S) * spec.lam)
    assert mercer_remainder(scaled, 1.0) == 0.0
    phi2 = np.asarray(spec.phi_values(1.0)) ** 2
    assert math.fsum([K, *(-scaled.lam * phi2).tolist()]) < -1e-13 * K
