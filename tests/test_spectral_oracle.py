import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg

from fouspec import cli
from fouspec import error_analysis, spectral_oracle
from fouspec.exceptions import DomainError, SolverError
from fouspec.model import CovMatrix, ModelParams, QuadGrid, cov_matrix, fou_cov
from fouspec.spectral_oracle import PSD_TOL, nystrom_eigs, nystrom_extend, ou_closed_form_eigs


def _ou(beta):
    """The H = 1/2 problem on the unit interval with drift beta."""
    return ModelParams(H=0.5, beta=beta)


def _copy(cov):
    """A matrix of its own for one more solve: a solve spends the one it is given."""
    return CovMatrix(cov.values.copy(), cov.grid, cov.params)


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
        trace = float(g.weights @ np.diag(cov.values))  # before the solve spends cov
        spec = nystrom_eigs(cov, 200)
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
    """Up to N/20 kept pairs Lanczos computes only those and PSD is certified
    by a Cholesky factorization; above, the full solve reports the minimum."""

    @pytest.mark.parametrize("n_max,solver", [(2, "lanczos"), (10, "lanczos"),
                                              (11, "full"), (21, "full")])
    def test_branch_boundaries(self, n_max, solver):
        g = QuadGrid.gauss_legendre_unit(200)
        spec = nystrom_eigs(cov_matrix(g, ModelParams(H=0.7, beta=-1.0)), n_max)
        assert spec.diagnostics["eigensolver"] == solver

    @pytest.mark.parametrize("N", [600, 2000])
    @pytest.mark.parametrize("beta", [-12.0, -1.0, 0.0, 2.0])
    @pytest.mark.parametrize("H", [0.5, 0.7, 0.9])
    def test_lanczos_head_matches_full(self, H, beta, N, monkeypatch):
        eps = 2.0 ** -52
        g = QuadGrid.gauss_legendre_unit(N)
        cov = cov_matrix(g, ModelParams(H=H, beta=beta))
        sw = np.sqrt(g.weights)
        B = sw[:, None] * cov.values * sw[None, :]
        heads = {n_max: nystrom_eigs(_copy(cov), n_max) for n_max in (1, 2)}
        again = nystrom_eigs(_copy(cov), 2)
        monkeypatch.setattr(spectral_oracle, "LANCZOS_FRACTION", 0.0)
        full = nystrom_eigs(cov, 3)
        lam1 = full.lam[0]
        gaps = -np.diff(full.lam)
        gap = np.minimum(gaps, np.r_[np.inf, gaps[:-1]])  # gap_n for n = 1, 2
        for n_max, head in heads.items():
            assert head.diagnostics["eigensolver"] == "lanczos"
            assert np.max(np.abs(head.lam - full.lam[:n_max])) <= 1e-13 * lam1
            v = sw[:, None] * head.phi
            residual = np.linalg.norm(B @ v - v * head.lam, axis=0)
            assert np.max(residual) <= 4 * eps * lam1
            dist = np.sqrt(g.weights @ (head.phi - full.phi[:, :n_max]) ** 2)
            assert np.all(dist <= 10 * eps * lam1 / gap[:n_max])
            assert np.max(np.abs(head.phi1 - full.phi1[:n_max])) <= 1e-12
        for a, b in ((heads[2].lam, again.lam), (heads[2].phi, again.phi),
                     (heads[2].phi1, again.phi1)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("exc", ["no_convergence", "error"])
    def test_lanczos_failure_is_refused(self, exc, monkeypatch, capsys):
        from scipy.sparse import linalg as sparse_linalg

        def fail(*args, **kwargs):
            if exc == "no_convergence":
                raise sparse_linalg.ArpackNoConvergence("no convergence", [], [])
            raise sparse_linalg.ArpackError(-9999)

        monkeypatch.setattr(sparse_linalg, "eigsh", fail)
        g = QuadGrid.gauss_legendre_unit(200)
        with pytest.raises(SolverError) as info:
            nystrom_eigs(cov_matrix(g, ModelParams(H=0.7, beta=-1.0)), 2)
        assert info.value.stage == "nystrom_eigs"
        argv = ["mse", "--H", "0.7", "--spectrum", "refined", "--N-unit", "60",
                "--n-max", "20", "--eps", "1e-1"]
        assert cli.main(argv) == cli.EXIT_SOLVER
        assert "Lanczos" in capsys.readouterr().err

    @pytest.mark.parametrize("H,beta,N,n_max,phi1_tol", [
        (0.7, -1.0, 1000, 20, 1e-12), (0.3, 1.0, 2000, 30, 1e-12),
        # at N/20.  phi_n(1) = (W^{1/2} k_1)^T v_n / lambda_n carries a
        # rounding error of about eps lambda_1 / lambda_n in either solve:
        # 2.9e-10 at n = 30 here (2.5e-10 apart), 8e-13 at most above
        (0.9, 2.0, 600, 30, 1e-9)])
    def test_lanczos_matches_full(self, H, beta, N, n_max, phi1_tol, monkeypatch):
        eps = 2.0 ** -52
        p = ModelParams(H=H, beta=beta)
        g = QuadGrid.gauss_legendre_unit(N)
        cov = cov_matrix(g, p)
        sw = np.sqrt(g.weights)
        B = sw[:, None] * cov.values * sw[None, :]
        lanczos = nystrom_eigs(_copy(cov), n_max)
        monkeypatch.setattr(spectral_oracle, "LANCZOS_FRACTION", 0.0)
        full = nystrom_eigs(cov, n_max + 1)
        assert lanczos.diagnostics["eigensolver"] == "lanczos"
        lam1 = full.lam[0]
        assert np.max(np.abs(lanczos.lam - full.lam[:n_max])) <= 1e-13 * lam1
        # Lanczos shares no reduction with the full solve, so its vectors
        # agree to the perturbation bound eps lambda_1 / gap_n (weighted L2),
        # not to a fixed max-norm gate, and its residuals are no larger
        gaps = -np.diff(full.lam)
        gap = np.minimum(gaps, np.r_[np.inf, gaps[:-1]])[:n_max]
        dist = np.sqrt(g.weights @ (lanczos.phi - full.phi[:, :n_max]) ** 2)
        assert np.all(dist <= 10 * eps * lam1 / gap)
        assert np.max(np.abs(lanczos.phi1 - full.phi1[:n_max])) <= phi1_tol

        def max_residual(spec):
            v = sw[:, None] * spec.phi[:, :n_max]
            return np.max(np.linalg.norm(B @ v - v * spec.lam[:n_max], axis=0))

        assert max_residual(lanczos) <= max_residual(full)
        # Lanczos reports the certified bound, the full solve the minimum
        trace = full.diagnostics["trace"]
        assert lanczos.diagnostics["trace"] == trace
        assert lanczos.diagnostics["min_eigenvalue"] == -PSD_TOL * trace
        assert lanczos.diagnostics["psd_defect"] == -PSD_TOL
        assert full.diagnostics["min_eigenvalue"] >= -PSD_TOL * trace
        assert full.diagnostics["psd_defect"] >= -PSD_TOL

    @pytest.mark.parametrize("n_max", [1, 5])  # 1 <= 20/20 takes the Lanczos branch
    def test_non_psd_matrix_is_refused(self, n_max):
        g = QuadGrid.gauss_legendre_unit(20)
        K = np.eye(20)
        K[7, 7] = -1e-3
        with pytest.raises(SolverError, match="not positive semidefinite"):
            nystrom_eigs(CovMatrix(K, g, ModelParams(H=0.5)), n_max)

    @pytest.mark.parametrize("n_max", [2, 10, 100])  # lanczos, lanczos, full at N = 200
    def test_non_finite_matrix_is_refused(self, n_max, capfd):
        # one NaN in the upper triangle, which the full reduction (lower) never
        # reads: refused before any solver runs, and LAPACK prints nothing
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(200), ModelParams(H=0.7, beta=-1.0))
        values = cov.values.copy()
        values[3, 150] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            nystrom_eigs(CovMatrix(values, cov.grid, cov.params), n_max)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("N", [200, 1000])
    @pytest.mark.parametrize("beta", [-1.0, 2.0])
    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_full_branch_matches_scipy_eigh(self, H, beta, N):
        # every eigenvalue bit for bit, the kept vectors to rounding
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(N), ModelParams(H=H, beta=beta))
        sw = np.sqrt(cov.grid.weights)
        B = sw[:, None] * cov.values * sw[None, :]
        lam_ref, V_ref = linalg.eigh(B)
        n_max = N // 2
        lam, V, _ = spectral_oracle.eigh(_copy(cov), n_max)
        assert np.array_equal(lam, lam_ref)
        assert np.max(np.abs(V - V_ref[:, N - n_max:])) <= 1e-15
        # dstemr's output does not depend on n_max: the kept columns are its
        # last ones, bit for bit, also above N // 2, where the kept range
        # overlaps the front it moves to, and at N, where none move
        whole = spectral_oracle.eigh(_copy(cov), N)[1].Z
        assert whole.shape == (N, N)
        for n in (n_max, n_max + 1, N - 1):
            Z = V.Z if n == n_max else spectral_oracle.eigh(_copy(cov), n)[1].Z
            assert Z.flags.f_contiguous and np.array_equal(Z, whole[:, N - n:]), n
        spec = nystrom_eigs(cov, n_max)
        assert spec.diagnostics["eigensolver"] == "full"
        assert spec.diagnostics["min_eigenvalue"] == lam_ref[0]
        assert np.array_equal(spec.lam, lam_ref[::-1][:n_max])

    def test_one_node_grid(self, capsys):
        # a 1 x 1 matrix has no reflectors: dsytrd gives d = [B00] and e = [],
        # and dstemr the same value with Z = [[1]]
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(1), ModelParams(H=0.7, beta=-1.0))
        w, k = cov.grid.weights[0], cov.values[0, 0]  # before the solve spends cov
        spec = nystrom_eigs(cov, 1)
        assert spec.diagnostics["eigensolver"] == "full"
        assert spec.lam[0] == spec.diagnostics["min_eigenvalue"]
        assert_allclose(spec.lam[0], w * k, rtol=1e-15)
        assert_allclose(w * spec.phi[0, 0] ** 2, 1.0, rtol=1e-15)
        assert cli.main(["eigs", "--N-unit", "1", "--n-max", "1"]) == cli.EXIT_OK
        assert capsys.readouterr().out.count("\n") >= 2

    def test_tridiagonal_failure_is_a_solver_error(self, monkeypatch, capsys):
        from scipy.linalg import lapack

        def failing(d, e, *args, **kwargs):
            return 0, np.zeros_like(d), np.zeros((d.size, d.size), order="F"), 2

        # `eigh` imports lapack where it calls it, so the module's binding is patched
        monkeypatch.setattr(lapack, "dstemr", failing)
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(40), ModelParams(H=0.7, beta=-1.0))
        with pytest.raises(SolverError, match="info = 2") as exc:
            nystrom_eigs(cov, 20)
        assert exc.value.stage == "nystrom_eigs"
        assert cli.main(["eigs", "--N-unit", "40", "--n-max", "20"]) == cli.EXIT_SOLVER
        assert "[stage: nystrom_eigs]" in capsys.readouterr().err

    def test_full_solve_peak_memory(self, peak_matrices):
        # B (reduced in place) with its panels, then the panels next to the
        # tridiagonal eigenvectors: 1.56 matrices, under the 1.87 that the
        # node tables of phi(1) set at N = 600.  Copying the kept block out
        # of the whole tridiagonal output took 2.11; a solve that also
        # formed the dropped vectors or copied B into Fortran order, 3.08
        N = 600
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(N), ModelParams(H=0.7, beta=-1.0))
        assert peak_matrices(lambda: nystrom_eigs(cov, N // 2), N) <= 1.95

    def test_in_place_solve_peak_memory(self, traced_matrices):
        # K (a copy made in the trace) is weighted and reduced in place and
        # freed once the reflectors are copied out: 1.87 matrices counting K
        # itself, set by the node tables of phi(1) at N = 600 (2.11 while
        # the kept block was copied out of the whole tridiagonal output)
        N = 600
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(N), ModelParams(H=0.7, beta=-1.0))
        peak, kept, _ = traced_matrices(lambda: nystrom_eigs(_copy(cov), N // 2), N)
        assert peak <= 1.95
        assert kept <= 1.1  # the panels and Z

    @pytest.mark.parametrize("n_max", [2, 21])  # lanczos, full at N = 200
    def test_taken_matrix_is_refused(self, n_max):
        # a spent matrix names the eigensolve that took it, wherever it is read
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(200), ModelParams(H=0.7, beta=-1.0))
        spec = nystrom_eigs(cov, n_max)
        assert spec.n_max == n_max
        for read in (lambda: cov.values, lambda: cov.weighted(),
                     lambda: error_analysis.mse_wiener_hopf(0.5, 1e-3, cov),
                     lambda: nystrom_eigs(cov, n_max)):
            with pytest.raises(DomainError, match="reduced in place by its eigensolve"):
                read()


class TestClosedFormOU:
    @pytest.mark.parametrize("n_max", [0, -3])
    def test_fewer_than_one_pair_is_refused(self, n_max):
        # it returned an empty spectrum, refused only later by mse_series
        with pytest.raises(DomainError, match=f"n_max must be at least 1, got {n_max}"):
            ou_closed_form_eigs(_ou(1.0), n_max)
        spec = ou_closed_form_eigs(_ou(1.0), 1)
        assert (spec.n_max, spec.lam.shape, spec.phi1.shape) == (1, (1,), (1,))

    def test_bm_case(self):
        spec = ou_closed_form_eigs(_ou(0.0), 5)
        assert_allclose(spec.nu[0], math.pi / 2.0, rtol=1e-15)
        assert_allclose(spec.lam[0], 4.0 / math.pi ** 2, rtol=1e-15)

    def test_beta_one_root_against_bisection(self):
        spec = ou_closed_form_eigs(_ou(1.0), 3)
        # beta = 1: the top mode is the linear one, lambda = 1, phi ~ x
        assert_allclose(spec.lam[0], 1.0, rtol=1e-14)
        assert spec.nu[0] == 0.0
        # independent oracle: smallest root of tan(nu) = nu lies in (pi, 3pi/2)
        nu1 = _bisect(lambda v: v - math.tan(v), math.pi + 1e-9,
                      1.5 * math.pi - 1e-9)
        assert_allclose(spec.nu[1], nu1, rtol=1e-12)
        assert_allclose(spec.lam[1], 1.0 / (nu1 ** 2 + 1.0), rtol=1e-12)

    def test_beta_above_one_hyperbolic_mode(self):
        spec = ou_closed_form_eigs(_ou(2.0), 3)
        kappa = -spec.nu[0]
        assert 0.0 < kappa < 2.0
        assert_allclose(math.tanh(kappa), kappa / 2.0, rtol=1e-12)
        assert_allclose(spec.lam[0], 1.0 / (4.0 - kappa ** 2), rtol=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, -1.0, 3.0])
    def test_roots_solve_the_equation(self, beta):
        spec = ou_closed_form_eigs(_ou(beta), 12)
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
        nu = ou_closed_form_eigs(_ou(beta), 20).nu
        osc = nu[nu > 0]
        assert_allclose(osc, ref[:len(osc)], rtol=1e-14)

    @pytest.mark.parametrize("beta", [-2.0, 0.5, 2.0])
    def test_asymptotic_spacing(self, beta):
        spec = ou_closed_form_eigs(_ou(beta), 60)
        n = np.arange(1, 61)
        gap = np.abs(spec.nu - (np.pi * n - np.pi / 2.0))
        tail = gap[spec.nu > 0]
        assert gap[-1] < 0.03
        assert gap[-1] < tail[5] < tail[0] + 1.0

    def test_matches_nystrom(self):
        p = ModelParams(H=0.5, beta=1.0)
        g = QuadGrid.gauss_legendre_unit(600)
        spec = nystrom_eigs(cov_matrix(g, p), 10)
        closed = ou_closed_form_eigs(_ou(1.0), 10)
        assert_allclose(spec.lam, closed.lam, rtol=1e-3)

    @pytest.mark.parametrize("beta", [10.0, 13.0, 15.0, 17.0, 20.0, 25.0])
    def test_oracle_above_the_rounding_floor(self, beta):
        # lambda_n / lambda_1 falls like e^{-2 beta}: past ~1/eps the small
        # eigenvalues are rounding noise, so the oracle returns pairs within
        # the grid's error or refuses, naming the last index it can return
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(1000), _ou(beta))
        try:
            spec = nystrom_eigs(_copy(cov), 50)
        except SolverError as exc:
            assert beta > 13.0 and exc.stage == "nystrom_eigs"
            spec = nystrom_eigs(cov, int(re.search(r"up to n = (\d+)", str(exc))[1]))
        assert_allclose(spec.lam, ou_closed_form_eigs(_ou(beta), spec.n_max).lam, rtol=1e-2)

    def test_phi_values_and_convention(self):
        spec = ou_closed_form_eigs(_ou(1.0), 4)
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
        spec = ou_closed_form_eigs(_ou(beta), 2000)
        trace = (math.exp(2 * beta) - 1 - 2 * beta) / (4 * beta ** 2)
        assert_allclose(np.sum(spec.lam), trace, rtol=1e-12)

    def test_refuses_overflow(self, capsys):
        spec = ou_closed_form_eigs(_ou(300.0), 50)
        for a in (spec.lam, spec.phi1, spec.phi_integral):
            assert np.all(np.isfinite(a))
        for beta in (355.4, 400.0):  # at 355.4 only the sinh norm overflows
            with pytest.raises(DomainError):
                ou_closed_form_eigs(_ou(beta), 50)
        assert cli.main(["mse", "--H", "0.5", "--beta", "400",
                         "--eps", "1e-3"]) == cli.EXIT_USAGE
        assert "overflows" in capsys.readouterr().err

    def test_refuses_h_other_than_half(self):
        with pytest.raises(DomainError, match="H = 1/2"):
            ou_closed_form_eigs(ModelParams(H=0.7), 5)

    def test_drift_and_horizon_come_from_the_params(self):
        # the problem is stated once: beta*T sets the roots, T^{2H} the scale
        spec = ou_closed_form_eigs(ModelParams(H=0.5, beta=2.5, T=2.0), 5)
        unit = ou_closed_form_eigs(_ou(5.0), 5)
        assert np.array_equal(spec.nu, unit.nu)
        assert np.array_equal(spec.lam, unit.lam * 2.0)
        with pytest.raises(TypeError):
            ou_closed_form_eigs(5.0, 3, params=_ou(1.0))

    @pytest.mark.parametrize("beta", [1e-12, -1e-12])
    def test_tiny_beta_roots(self, beta):
        spec = ou_closed_form_eigs(_ou(beta), 100)
        assert_allclose(spec.nu, (np.arange(1, 101) - 0.5) * np.pi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [-1.0, 1.0, 2.0])
    def test_closed_forms_match_quadrature(self, beta):
        # beta = 1 and 2 start with the linear and the sinh head mode
        g = QuadGrid.gauss_legendre_unit(2000)
        spec = ou_closed_form_eigs(_ou(beta), 50)
        phi = spec.extend(spec, g.nodes)
        assert_allclose(g.weights @ phi, spec.phi_integral, rtol=1e-10)
        assert_allclose(g.weights @ phi ** 2, 1.0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [1 + 1e-4, 1 - 1e-4, 1 + 1e-7, 1 - 1e-7,
                                      1 + 1e-10, 1 - 1e-10])
    def test_head_mode_near_beta_one(self, beta):
        # the head frequency tends to 0 as beta -> 1, where 1/2 - sin(2v)/(4v),
        # sinh(2k)/(4k) - 1/2 and 1 - cos v cancel (5.6e-7 norm defect at
        # 1 + 1e-10 before the series forms)
        g = QuadGrid.gauss_legendre_unit(400)
        spec = ou_closed_form_eigs(_ou(beta), 3)
        assert abs(spec.nu[0]) < 0.05
        phi0 = spec.extend(spec, g.nodes)[:, 0]
        assert abs(g.weights @ phi0 ** 2 - 1.0) <= 1e-12
        assert_allclose(g.weights @ phi0, spec.phi_integral[0], rtol=1e-11)


# strong reversion, beta < 0, the branch-0 root, the sinh head mode, large beta
_ROOT_BETAS = [-12.0, -1.1, 0.3, 2.0, 300.0]
_DEEP = 632_000  # about the 632,455 pairs (20 n_eff) of `mse --H 0.5 --eps ...,1e-9`


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
        nu = ou_closed_form_eigs(_ou(beta), 5).nu
        if beta < 1.0:
            ref = _tan_bisection(beta, 1)
        else:
            ref = -spectral_oracle._bisect(lambda k: k / beta - np.tanh(k),
                                           np.zeros(1), np.full(1, beta))
        assert nu[0] == ref[0]
        assert nu[1] == spectral_oracle._newton_branches(beta, np.ones(1))[0]


def _full_array_newton(beta, k):
    """The reference Newton loop: every entry is stepped, stopped or not,
    until none moves; `_newton_branches` steps only the moving ones."""
    hi, lo = k * spectral_oracle._PI_HI, k * spectral_oracle._PI_LO
    v = k * np.pi + math.copysign(0.5 * math.pi, beta)
    while True:
        step = ((v - hi) - lo - np.arctan(v / beta)) / (1.0 - beta / (beta * beta + v * v))
        moved = v - step
        toward = moved < v if beta > 0 else moved > v
        if not toward.any():
            return v
        v = np.where(toward, moved, v)


def _masked_ou_forms(nu, osc, lin, hyp):
    """The reference `_ou_forms`: masks over every mode, whatever nu[0]."""
    out = osc(np.where(nu > 0, nu, 1.0))
    out[..., nu == 0] = lin
    out[..., nu < 0] = hyp(-nu[nu < 0])
    return out


def _masked_small_or(x, small, large):
    """The reference `_small_or`: a mask over every entry."""
    out = large(x)
    mask = x < spectral_oracle._SMALL_MODE
    out[mask] = small(x[mask])
    return out


_IDENTITY_BETAS = [-12.0, -1.5, -0.5, -1e-300, 0.0, 1e-300, 0.3, 0.999, 1.0, 1.001,
                   2.5, 40.0, 300.0]


class TestOneStepPerMovingRoot:
    """The closed form's roots and values are bit-identical to those of the
    reference loops above, which step and mask every entry."""

    @pytest.mark.parametrize("n_max", [1, 2, 7, 1000, 200_000])
    @pytest.mark.parametrize("beta", _IDENTITY_BETAS)
    def test_roots_match_the_full_array_loop(self, beta, n_max, monkeypatch):
        # beta = 0 reaches `_tan_roots` only here: v/beta divides by zero
        with np.errstate(divide="ignore", over="ignore"):
            roots = spectral_oracle._tan_roots(beta, n_max)
            nu = ou_closed_form_eigs(_ou(beta), n_max).nu
            monkeypatch.setattr(spectral_oracle, "_newton_branches", _full_array_newton)
            ref_roots = spectral_oracle._tan_roots(beta, n_max)
            ref_nu = ou_closed_form_eigs(_ou(beta), n_max).nu
        assert np.array_equal(roots, ref_roots)
        assert np.array_equal(nu, ref_nu)

    @pytest.mark.parametrize("beta", [-12.0, -1.0, 2.5, 300.0])
    def test_shuffled_branches_keep_their_roots(self, beta):
        # the slow roots are the low branches, so in order they would be the
        # leading entries; shuffled, every index step is checked
        k = np.random.default_rng(7).permutation(np.arange(1.0, 200_001.0))
        assert np.array_equal(spectral_oracle._newton_branches(beta, k),
                              _full_array_newton(beta, k))

    @pytest.mark.parametrize("beta", [-1.5, 0.3, 0.999, 1.0, 1.001, 40.0])
    def test_values_match_the_masked_forms(self, beta, monkeypatch):
        spec = ou_closed_form_eigs(_ou(beta), 1000)
        for name, ref in (("_newton_branches", _full_array_newton),
                          ("_ou_forms", _masked_ou_forms),
                          ("_small_or", _masked_small_or)):
            monkeypatch.setattr(spectral_oracle, name, ref)
        ref = ou_closed_form_eigs(_ou(beta), 1000)
        for name in ("nu", "lam", "phi1", "phi_integral"):
            assert np.array_equal(getattr(spec, name), getattr(ref, name)), name
        # the reference reads phi(0.5) with the masked forms and fresh norms
        ref_half = -_masked_ou_forms(ref.nu, lambda v: np.sin(0.5 * v), 0.5,
                                     lambda k: np.sinh(0.5 * k)) \
            / spectral_oracle._ou_norms(ref.nu)
        assert np.array_equal(spec.phi_values(0.5), ref_half)
        assert np.array_equal(ref.phi_values(0.5), ref_half)

    def test_few_moving_roots_are_stepped_by_index(self, monkeypatch):
        # two steps over all 632,455 roots, then only the few still moving
        sizes = []
        step = spectral_oracle._newton_moved

        def counted(beta, v, k):
            sizes.append(len(v))
            return step(beta, v, k)

        monkeypatch.setattr(spectral_oracle, "_newton_moved", counted)
        n = 632_455
        spectral_oracle._newton_branches(-0.8, np.arange(1.0, n + 1))
        assert sizes[:2] == [n, n]
        assert sum(sizes[2:]) <= 1000


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
        # the closed form has no grid: at a node, too, phi_values is `extend`,
        # and `extend` on all the nodes gives the same rows
        g = QuadGrid.gauss_legendre_unit(40)
        spec = ou_closed_form_eigs(_ou(0.5), 12)
        assert spec.grid is None and spec.phi is None
        samples = spec.extend(spec, g.nodes)
        for j in (0, 17, 39):
            assert np.array_equal(spec.phi_values(float(g.nodes[j])), samples[j])
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


class TestFactoredVectors:
    """The full branch keeps V = Q Z factored; reads project through the reflectors."""

    N, N_MAX = 1000, 500

    @pytest.fixture(scope="class", params=[(0.3, -1.0), (0.3, 2.0), (0.7, -1.0), (0.7, 2.0)],
                    ids=lambda hb: f"H={hb[0]},beta={hb[1]}")
    def pair(self, request):
        """The oracle spectrum and a reference from scipy's dense eigenvectors:
        lam, phi = W^{-1/2} V on the nodes, and phi(x) by Nystrom extension."""
        H, beta = request.param
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(self.N), ModelParams(H=H, beta=beta))
        g = cov.grid
        sw = np.sqrt(g.weights)
        lam, V = linalg.eigh(sw[:, None] * cov.values * sw[None, :])
        lam, phi = lam[::-1][:self.N_MAX], V[:, ::-1][:, :self.N_MAX] / sw[:, None]

        def values(x):
            return (g.weights * spectral_oracle.cov_row(x, cov.params, g)) @ phi / lam

        spec = nystrom_eigs(cov, self.N_MAX)
        assert spec.diagnostics["eigensolver"] == "full"
        return spec, lam, phi, values

    def test_series_matches_dense_reference(self, pair):
        spec, lam, phi, values = pair
        node = float(spec.grid.nodes[self.N // 3])
        p = spec.params
        for u, phi_u in ((0.37, values(0.37)), (node, phi[self.N // 3]), (1.0, values(1.0))):
            for eps in (1e-3, 1e-5):
                t = eps * lam / (eps + p.mu ** 2 * p.T * lam)
                want = float(t @ phi_u ** 2)
                # phi_n(u) is read through a projection divided by lambda_n, so
                # it carries a rounding of about eps_mach lambda_1 / lambda_n,
                # and its size in P depends on the BLAS call shapes (threads)
                s = np.finfo(float).eps * lam[0] * np.sum(np.abs(phi_u) * t / lam) / want
                bound = max(5e-12, s / 10)
                assert abs(error_analysis.mse_series(u, eps, spec) / want - 1.0) <= bound

    def test_formed_phi_matches_dense_reference(self, pair):
        spec, _, phi, _ = pair
        align = np.sign(np.sum(spec.phi * phi, axis=0))
        assert np.max(np.abs(spec.phi - phi * align)) <= 1e-12

    def test_reads_do_not_depend_on_the_formed_phi(self):
        cov = cov_matrix(QuadGrid.gauss_legendre_unit(200), ModelParams(H=0.7, beta=-1.0))
        spec = nystrom_eigs(cov, 100)
        us = (float(cov.grid.nodes[57]), 0.123, 1.0)
        before = [spec.phi_values(u) for u in us]
        assert "phi" not in vars(spec)  # nothing formed the dense block yet
        phi = spec.phi
        assert spec.phi is phi  # formed once, then cached
        for u, vals in zip(us, before):
            assert np.array_equal(spec.phi_values(u), vals)
        assert_allclose(before[0], phi[57], rtol=0, atol=1e-13)

    def test_mse_never_forms_the_dense_block(self, monkeypatch, capsys):
        def refuse(self, *args, **kwargs):
            raise AssertionError("dense eigenvectors formed")

        monkeypatch.setattr(spectral_oracle.Eigenvectors, "__array__", refuse)
        # 30 of 60 pairs take the full branch (eps = 1e-3 would need more pairs)
        code = cli.main(["mse", "--H", "0.7", "--N-unit", "60", "--n-max", "30",
                         "--eps", "1e-1,1e-2", "--u", "0.5,1.0", "--with-wh"])
        assert code == cli.EXIT_OK, capsys.readouterr().err
        assert capsys.readouterr().out.count("\n") > 4

    def test_panels_hold_every_reflector_once(self):
        g = QuadGrid.gauss_legendre_unit(40)
        B = np.diag(np.arange(1.0, 41.0)) + 0.1
        sw = np.sqrt(g.weights)
        K = CovMatrix(B / np.outer(sw, sw), g, ModelParams(H=0.5))
        _, V, _ = spectral_oracle.eigh(K, 20)
        starts = [a for a, _, _ in V.panels]
        assert len(starts) == spectral_oracle.PANELS and starts[0] == 0
        # the panels hold the N - 1 reflectors once each
        assert sum(refl.shape[1] for _, refl, _ in V.panels) == 39
        dense = np.asarray(V)
        assert_allclose(dense.T @ dense, np.eye(20), rtol=0, atol=1e-14)
        assert_allclose(V.project(B), B @ dense, rtol=0, atol=1e-12)

    def test_peak_and_kept_memory(self, traced_matrices):
        # B (1, released in `eigh` after its reflectors are copied) with the
        # reflector panels (0.56), then the panels next to the tridiagonal
        # eigenvectors (1), whose kept half moves to the front and which
        # then shrinks to it, make a peak of 1.56 at N = 1500 (1.58 traced);
        # the spectrum keeps the panels and the kept block, not B.  At
        # N = 600 the node tables of phi(1) set the peak (1.87).  With the
        # kept block copied out of the whole output the peak was 2.07-2.11;
        # the dense route peaked at 2.58 and kept 0.50 (phi).
        for N, bound in ((600, 1.95), (1500, 1.65)):
            cov = cov_matrix(QuadGrid.gauss_legendre_unit(N), ModelParams(H=0.7, beta=-1.0))
            peak, kept, _ = traced_matrices(lambda: nystrom_eigs(cov, N // 2), N)
            assert peak <= bound, N
            assert kept <= 1.1, N
