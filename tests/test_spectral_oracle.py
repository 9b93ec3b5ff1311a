import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fouspec import cli
from fouspec import spectral_oracle
from fouspec.exceptions import DomainError, SolverError
from fouspec.model import CovMatrix, ModelParams, QuadGrid, cov_matrix, fou_cov
from fouspec.spectral_oracle import PSD_TOL, nystrom_eigs, nystrom_extend, ou_closed_form_eigs


def _bisect(f, lo, hi, steps=200):
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


class TestNystrom:
    def test_bm_eigenvalues(self):
        p = ModelParams(H=0.5, beta=0.0)
        g = QuadGrid.gauss_legendre_unit(400)
        spec = nystrom_eigs(cov_matrix(g, p), 10)
        exact = ((np.arange(1, 11) - 0.5) * np.pi) ** -2.0
        assert_allclose(spec.lam, exact, rtol=1e-3)

    def test_trace_identity(self):
        p = ModelParams(H=0.7, beta=-1.0)
        g = QuadGrid.gauss_legendre_unit(200)
        cov = cov_matrix(g, p)
        spec = nystrom_eigs(cov, 200)
        trace = float(g.weights @ np.diag(cov.values))
        assert_allclose(spec.lam.sum(), trace, rtol=1e-3)

    def test_leading_eigenvalue_grid_stable(self):
        p = ModelParams(H=0.7, beta=-1.0)
        lam1 = []
        for n in (400, 800):
            g = QuadGrid.gauss_legendre_unit(n)
            lam1.append(nystrom_eigs(cov_matrix(g, p), 1).lam[0])
        assert abs(lam1[0] / lam1[1] - 1.0) < 1e-4

    def test_ordering_and_sign_convention(self, oracle_07):
        _, _, spec = oracle_07
        assert np.all(np.diff(spec.lam) < 0)
        assert np.all(spec.lam > 0)
        assert np.all(spec.phi_integral < 0)

    def test_weighted_orthonormality(self, oracle_07):
        _, grid, spec = oracle_07
        gram = (spec.phi * grid.weights[:, None]).T @ spec.phi
        assert np.max(np.abs(gram - np.eye(spec.n_max))) <= 1e-8

    def test_mercer_bound(self, oracle_07):
        p, grid, spec = oracle_07
        for j in (100, 400, 700):
            x = grid.nodes[j]
            partial = np.cumsum(spec.lam * spec.phi[j, :] ** 2)
            kxx = fou_cov(x, x, p)
            assert partial[-1] <= kxx * (1.0 + 1e-6)
            assert np.all(np.diff(partial) >= 0)

    def test_n_max_validation(self):
        p = ModelParams(H=0.5)
        g = QuadGrid.gauss_legendre_unit(20)
        with pytest.raises(DomainError):
            nystrom_eigs(cov_matrix(g, p), 21)

    @pytest.mark.parametrize("n_max", [0, -5])
    def test_refuses_fewer_than_one_pair(self, n_max):
        # a negative n_max used to slice off all but |n_max| pairs
        g = QuadGrid.gauss_legendre_unit(20)
        with pytest.raises(DomainError):
            nystrom_eigs(cov_matrix(g, ModelParams(H=0.5)), n_max)


class TestEigensolveBranches:
    """Up to N/10 kept pairs the solve computes only those and certifies PSD
    by a Cholesky factorization; above, the full solve reports the minimum."""

    @pytest.mark.parametrize("H,beta,N,n_max", [(0.7, -1.0, 1000, 20), (0.3, 1.0, 2000, 30)])
    def test_subset_matches_full(self, H, beta, N, n_max, monkeypatch):
        p = ModelParams(H=H, beta=beta)
        g = QuadGrid.gauss_legendre_unit(N)
        cov = cov_matrix(g, p)
        sub = nystrom_eigs(cov, n_max)
        monkeypatch.setattr(spectral_oracle, "SUBSET_FRACTION", 0.0)
        full = nystrom_eigs(cov, n_max)
        assert np.max(np.abs(sub.lam - full.lam)) <= 1e-13 * full.lam[0]
        align = np.sign(np.sum(sub.phi * full.phi, axis=0))
        assert np.max(np.abs(sub.phi * align - full.phi)) <= 1e-12
        assert np.max(np.abs(sub.phi1 * align - full.phi1)) <= 1e-12
        # the subset branch reports the certified bound, the full one the minimum
        trace = full.diagnostics["trace"]
        assert sub.diagnostics["trace"] == trace
        assert sub.diagnostics["min_eigenvalue"] == -PSD_TOL * trace
        assert sub.diagnostics["psd_defect"] == -PSD_TOL
        assert full.diagnostics["min_eigenvalue"] >= -PSD_TOL * trace
        assert full.diagnostics["psd_defect"] >= -PSD_TOL

    @pytest.mark.parametrize("n_max", [1, 5])  # 1 <= 20/10 takes the subset branch
    def test_non_psd_matrix_is_refused(self, n_max):
        g = QuadGrid.gauss_legendre_unit(20)
        K = np.eye(20)
        K[7, 7] = -1e-3
        with pytest.raises(SolverError, match="not positive semidefinite"):
            nystrom_eigs(CovMatrix(K, g, ModelParams(H=0.5)), n_max)


class TestClosedFormOU:
    def test_bm_case(self):
        spec = ou_closed_form_eigs(0.0, 5)
        assert_allclose(spec.nu[0], math.pi / 2.0, rtol=1e-15)
        assert_allclose(spec.lam[0], 4.0 / math.pi ** 2, rtol=1e-15)

    def test_beta_one_root_against_bisection(self):
        spec = ou_closed_form_eigs(1.0, 3)
        # beta = 1: the top mode is the linear one, lambda = 1, phi ~ x
        assert_allclose(spec.lam[0], 1.0, rtol=1e-14)
        assert spec.nu[0] == 0.0
        # independent oracle: smallest root of tan(nu) = nu lies in (pi, 3pi/2)
        nu1 = _bisect(lambda v: v - math.tan(v), math.pi + 1e-9,
                      1.5 * math.pi - 1e-9)
        assert_allclose(spec.nu[1], nu1, rtol=1e-12)
        assert_allclose(spec.lam[1], 1.0 / (nu1 ** 2 + 1.0), rtol=1e-12)

    def test_beta_above_one_hyperbolic_mode(self):
        spec = ou_closed_form_eigs(2.0, 3)
        kappa = -spec.nu[0]
        assert 0.0 < kappa < 2.0
        assert_allclose(math.tanh(kappa), kappa / 2.0, rtol=1e-12)
        assert_allclose(spec.lam[0], 1.0 / (4.0 - kappa ** 2), rtol=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, -1.0, 3.0])
    def test_roots_solve_the_equation(self, beta):
        spec = ou_closed_form_eigs(beta, 12)
        osc = spec.nu > 0
        assert_allclose(np.tan(spec.nu[osc]), spec.nu[osc] / beta, rtol=1e-8)
        assert np.all(np.diff(spec.nu[osc]) > 0)
        assert np.all(np.diff(spec.lam) < 0)

    @pytest.mark.parametrize("beta", [-1.5, 0.5, 3.0])
    def test_roots_match_scalar_bisection(self, beta):
        # reference: scalar bisection over each whole tan branch that changes sign
        f = lambda v: v / beta - math.tan(v)
        ref = []
        for k in range(25):
            lo, hi = max((k - 0.5) * math.pi, 0.0) + 1e-9, (k + 0.5) * math.pi - 1e-9
            if f(lo) * f(hi) < 0:
                ref.append(_bisect(f, lo, hi))
        nu = ou_closed_form_eigs(beta, 20).nu
        osc = nu[nu > 0]
        assert_allclose(osc, ref[:len(osc)], rtol=1e-14)

    @pytest.mark.parametrize("beta", [-2.0, 0.5, 2.0])
    def test_asymptotic_spacing(self, beta):
        spec = ou_closed_form_eigs(beta, 60)
        n = np.arange(1, 61)
        gap = np.abs(spec.nu - (np.pi * n - np.pi / 2.0))
        tail = gap[spec.nu > 0]
        assert gap[-1] < 0.03
        assert gap[-1] < tail[5] < tail[0] + 1.0

    def test_matches_nystrom(self):
        p = ModelParams(H=0.5, beta=1.0)
        g = QuadGrid.gauss_legendre_unit(600)
        spec = nystrom_eigs(cov_matrix(g, p), 10)
        closed = ou_closed_form_eigs(1.0, 10)
        assert_allclose(spec.lam, closed.lam, rtol=1e-3)

    def test_phi_values_and_convention(self):
        spec = ou_closed_form_eigs(1.0, 4)
        assert np.all(spec.phi_integral < 0)
        vals = spec.phi_values(0.5)
        assert_allclose(vals[0], -math.sqrt(3.0) * 0.5, rtol=1e-14)
        nu = spec.nu[1:]
        norm = np.sqrt(1.0 - np.sin(2 * nu) / (2 * nu))
        assert_allclose(vals[1:], -math.sqrt(2.0) * np.sin(nu * 0.5) / norm,
                        rtol=1e-12)

    @pytest.mark.parametrize("beta", [20.0, 40.0])
    def test_trace_identity_large_beta(self, beta):
        # sum lambda_n = int_0^1 K(t,t) dt; the head eigenvalue carries almost
        # all of it and the truncated tail is below 1e-17 of the trace
        spec = ou_closed_form_eigs(beta, 2000)
        trace = (math.exp(2 * beta) - 1 - 2 * beta) / (4 * beta ** 2)
        assert_allclose(np.sum(spec.lam), trace, rtol=1e-12)

    def test_refuses_overflow(self, capsys):
        spec = ou_closed_form_eigs(300.0, 50)
        for a in (spec.lam, spec.phi1, spec.phi_integral):
            assert np.all(np.isfinite(a))
        for beta in (355.4, 400.0):  # at 355.4 only the sinh norm overflows
            with pytest.raises(DomainError):
                ou_closed_form_eigs(beta, 50)
        assert cli.main(["mse", "--H", "0.5", "--beta", "400",
                         "--eps", "1e-3"]) == cli.EXIT_USAGE
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", [1e-12, -1e-12])
    def test_tiny_beta_roots(self, beta):
        spec = ou_closed_form_eigs(beta, 100)
        assert_allclose(spec.nu, (np.arange(1, 101) - 0.5) * np.pi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [-1.0, 1.0, 2.0])
    def test_closed_forms_match_quadrature(self, beta):
        # beta = 1 and 2 start with the linear and the sinh head mode
        g = QuadGrid.gauss_legendre_unit(2000)
        spec = ou_closed_form_eigs(beta, 50, grid=g)
        assert_allclose(g.weights @ spec.phi, spec.phi_integral, rtol=1e-10)
        assert_allclose(g.weights @ spec.phi ** 2, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [1 + 1e-4, 1 - 1e-4, 1 + 1e-7, 1 - 1e-7,
                                      1 + 1e-10, 1 - 1e-10])
    def test_head_mode_near_beta_one(self, beta):
        # the head frequency tends to 0 as beta -> 1, where 1/2 - sin(2v)/(4v),
        # sinh(2k)/(4k) - 1/2 and 1 - cos v cancel (5.6e-7 norm defect at
        # 1 + 1e-10 before the series forms)
        g = QuadGrid.gauss_legendre_unit(400)
        spec = ou_closed_form_eigs(beta, 3, grid=g)
        assert abs(spec.nu[0]) < 0.05
        phi0 = spec.phi[:, 0]
        assert abs(g.weights @ phi0 ** 2 - 1.0) <= 1e-12
        assert_allclose(g.weights @ phi0, spec.phi_integral[0], rtol=1e-11)


# strong reversion, beta < 0, the branch-0 root, the sinh head mode, large beta
_ROOT_BETAS = [-12.0, -1.1, 0.3, 2.0, 300.0]
_DEEP = 632_000  # the truncation of `mse --H 0.5 --eps ...,1e-7`


def _tan_bisection(beta, n_max):
    """All roots by 64 array bisection halvings on the tan form, over the
    half-branch brackets [k pi, k pi + sign(beta) pi/2]."""
    kpi = (np.arange(n_max) + (0 if 0.0 < beta < 1.0 else 1)) * np.pi
    half = math.copysign(0.5 * math.pi, beta)
    return spectral_oracle._bisect(lambda v: np.tan(v) - v / beta,
                                   kpi + min(half, 0.0), kpi + max(half, 0.0))


class TestTanRoots:
    @pytest.mark.parametrize("beta", _ROOT_BETAS)
    def test_sampled_branches_against_mpmath(self, beta):
        # root k >= 1 of v - k pi - atan(v/beta) to 40 digits; branch 0 (beta =
        # 0.3) on the tan form.  The two-part pi keeps the Newton roots
        # correctly rounded (0.501 ulp measured); with the rounded k pi they
        # were 1.34 ulp off, and 64 bisection halvings up to 3 ulp
        mpmath = pytest.importorskip("mpmath")
        nu = spectral_oracle._tan_roots(beta, _DEEP)
        first = 0 if 0.0 < beta < 1.0 else 1
        idx = sorted(set(range(12)) | set(np.geomspace(12, _DEEP, 24).astype(int) - 1))
        with mpmath.workdps(40):
            for i in idx:
                k = i + first
                if k == 0:
                    f = lambda v: mpmath.tan(v) - v / beta
                else:
                    f = lambda v, k=k: v - k * mpmath.pi - mpmath.atan(v / beta)
                root = mpmath.findroot(f, mpmath.mpf(float(nu[i])))
                ulps = abs(mpmath.mpf(float(nu[i])) - root) / np.spacing(nu[i])
                assert ulps <= 0.75, (i, float(ulps))

    @pytest.mark.parametrize("beta", _ROOT_BETAS)
    def test_whole_arrays_match_tan_bisection(self, beta):
        nu = spectral_oracle._tan_roots(beta, _DEEP)
        ref = _tan_bisection(beta, _DEEP)
        assert np.all(np.abs(nu - ref) <= 4.0 * np.spacing(ref))

    @pytest.mark.parametrize("beta", [5e-324, -5e-324, 1e300, -1e300, 354.0])
    def test_extreme_beta_roots_are_finite_and_increasing(self, beta):
        # v/beta overflows at subnormal beta and beta^2 at 1e300
        with np.errstate(over="ignore"):
            nu = spectral_oracle._tan_roots(beta, 10_000)
        assert np.all(np.isfinite(nu)) and nu[0] > 0
        assert np.all(np.diff(nu) > 0)

    @pytest.mark.parametrize("beta", [1 + 1e-9, 1 - 1e-9, 1 - 1e-12])
    def test_modes_near_zero_stay_bisected(self, beta):
        # the arctan form cancels as beta -> 1, so the branch-0 root (beta < 1)
        # and the sinh head mode (beta > 1) keep the bisection's exact bits
        nu = ou_closed_form_eigs(beta, 5).nu
        if beta < 1.0:
            ref = _tan_bisection(beta, 1)
        else:
            ref = -spectral_oracle._bisect(lambda k: k / beta - np.tanh(k),
                                           np.zeros(1), np.full(1, beta))
        assert nu[0] == ref[0]
        assert nu[1] == spectral_oracle._newton_branches(beta, np.ones(1))[0]


class TestNystromExtend:
    def test_exact_at_grid_nodes(self, oracle_07):
        _, grid, spec = oracle_07
        j = 333
        vals = nystrom_extend(spec, float(grid.nodes[j]))
        assert_allclose(vals, spec.phi[j, :], atol=1e-10)

    def test_bm_endpoint_values(self):
        p = ModelParams(H=0.5, beta=0.0)
        g = QuadGrid.gauss_legendre_unit(400)
        spec = nystrom_eigs(cov_matrix(g, p), 8)
        assert_allclose(np.abs(spec.phi1), math.sqrt(2.0), rtol=1e-3)

    def test_outside_domain(self, oracle_07):
        _, _, spec = oracle_07
        with pytest.raises(DomainError):
            nystrom_extend(spec, 1.5)


class TestLookupRule:
    """phi_values: grid sample, then phi1 at u = 1, then the route's `extend`."""

    def test_grid_samples_equal_the_closed_form(self):
        g = QuadGrid.gauss_legendre_unit(40)
        spec = ou_closed_form_eigs(0.5, 12, grid=g)
        for j in (0, 17, 39):
            assert np.array_equal(spec.phi_values(float(g.nodes[j])),
                                  spec.extend(spec, float(g.nodes[j])))
        assert np.array_equal(spec.phi_values(1.0), spec.extend(spec, 1.0))

    def test_oracle_extends_by_nystrom(self, oracle_07):
        _, _, spec = oracle_07
        assert spec.extend is nystrom_extend
        assert np.array_equal(spec.phi_values(1.0), nystrom_extend(spec, 1.0))
        assert np.array_equal(spec.phi_values(0.123), nystrom_extend(spec, 0.123))

    def test_without_extend_off_grid_is_refused(self, oracle_07):
        _, grid, spec = oracle_07
        bare = replace(spec, extend=None)
        assert np.array_equal(bare.phi_values(float(grid.nodes[5])), spec.phi[5])
        with pytest.raises(DomainError, match="no samples"):
            bare.phi_values(0.123)


class TestSignFix:
    @pytest.mark.parametrize("start", [3, 4])
    def test_tie_is_broken_by_the_true_index(self, start):
        # a refined block starts above n = 1: the tie rule phi_n(1) (-1)^n < 0
        # reads each column's index, not its position
        ns = np.arange(start, start + 4)
        phi = np.ones((5, 4))
        phi1 = np.ones(4)
        integrals = np.zeros(4)
        spectral_oracle._sign_fix(phi, phi1, integrals, ns)
        assert np.all(phi1 * (-1.0) ** ns < 0)
        assert np.array_equal(phi, np.tile(phi1, (5, 1)))

    def test_integral_decides_outside_the_tie(self):
        ns = np.arange(3, 7)
        phi = np.ones((5, 4))
        phi1 = np.ones(4)
        integrals = np.array([0.5, -0.5, 2e-12, -2e-12])
        spectral_oracle._sign_fix(phi, phi1, integrals, ns)
        assert np.array_equal(integrals, [-0.5, -0.5, -2e-12, -2e-12])
        assert np.array_equal(phi1, [-1.0, 1.0, -1.0, 1.0])
        assert np.array_equal(phi[0], phi1)
