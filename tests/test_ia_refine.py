import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fouspec.asymptotics import b_alpha_closed, lambda_from_nu, nu_first_order, phi_first_order
from fouspec.exceptions import DomainError, SolverError
from fouspec import ia_refine
from fouspec.ia_refine import evaluate_abxi, find_nu, refined_eigenpair, solve_p
from fouspec.model import ModelParams, QuadGrid
from fouspec.spectral_oracle import ou_closed_form_eigs


class TestDegenerateAlphaOne:
    def test_p_equals_monomials(self):
        p = ModelParams(H=0.5, beta=0.0)
        sol = solve_p(10.0, p)
        w = sol.nodes
        assert_allclose(sol.p_tilde[0, 0], np.ones_like(w), atol=1e-14)   # p_0^+
        assert_allclose(sol.p_tilde[1, 1], w / 10.0, atol=1e-14)          # p_1^-

    def test_boundary_values(self):
        p = ModelParams(H=0.5, beta=0.0)
        vals = evaluate_abxi(12.0, p)
        assert abs(vals["a_plus_mi"] - 2.0) <= 1e-10
        assert abs(vals["a_minus_mi"]) <= 1e-10
        assert abs(vals["b_plus_mi"] - (-2j)) <= 1e-10
        assert abs(vals["b_minus_pi"]) <= 1e-10
        assert abs(vals["x_beta_i"] - 1.0) <= 1e-12

    def test_roots_and_lambda(self):
        p = ModelParams(H=0.5, beta=0.0)
        for n in (3, 4, 7):
            nu, ref, _ = find_nu(n, p)
            assert abs(math.cos(nu)) <= 1e-8
            assert_allclose(nu, (n - 0.5) * math.pi, atol=1e-8)
            lam = lambda_from_nu(nu, 0.5, 0.0)
            assert abs(lam - 1.0 / nu ** 2) <= 1e-8
            assert ref.residual <= 1e-10 * abs(ref.xi * np.conj(ref.eta))

    def test_h_half_nonzero_beta_reproduces_ou(self):
        p = ModelParams(H=0.5, beta=1.0)
        closed = ou_closed_form_eigs(1.0, 6)
        for n in (3, 5):
            nu, _, _ = find_nu(n, p)
            assert_allclose(nu, closed.nu[n - 1], atol=1e-10)


class TestContraction:
    @pytest.mark.parametrize("H,nu", [(0.55, 10.0), (0.7, 10.0), (0.7, 40.0),
                                      (0.9, 15.0)])
    def test_operator_norm_below_one(self, H, nu):
        p = ModelParams(H=H, beta=-1.0)
        sol = solve_p(nu, p)
        assert sol.contraction_norm < 1.0

    def test_iteration_count_recorded(self):
        # a direct solve: one linear solve per sign
        p = ModelParams(H=0.7, beta=0.0)
        sol = solve_p(20.0, p)
        assert sol.iterations == 2


class TestDirectSolve:
    @pytest.mark.parametrize("H,beta,nu", [(0.7, -1.0, 10.0), (0.99, 0.0, 1.0),
                                           (0.55, -12.0, 1.5)])
    def test_satisfies_discrete_system(self, H, beta, nu):
        # x = +-A x + rhs with A_ik = ker_k / (w_i + w_k) on the semi-axis grid;
        # (0.99, 0, 1) has ||A||_inf ~ 2, where plain iteration converges slowest
        sol = solve_p(nu, ModelParams(H=H, beta=beta))
        w = sol.nodes
        A = sol.kernel_row[None, :] / (w[:, None] + w[None, :])
        for sign, xs in zip((1, -1), sol.p_tilde):
            for j, x in enumerate(xs):
                rhs = (w / nu) ** j
                defect = np.max(np.abs(x - sign * (A @ x) - rhs))
                assert defect <= 1e-13 * np.max(np.abs(rhs))

    def test_contraction_norm_is_spectral_norm(self):
        # ||A||_2^2 is the largest eigenvalue of A^T A; the 30-step power
        # iteration this replaced gave 0.45651237920078636 here
        sol = solve_p(20.0, ModelParams(H=0.7, beta=-1.0))
        w = sol.nodes
        A = sol.kernel_row[None, :] / (w[:, None] + w[None, :])
        assert_allclose(sol.contraction_norm ** 2, np.linalg.eigvalsh(A.T @ A)[-1],
                        rtol=1e-12)
        assert_allclose(sol.contraction_norm, 0.45651237920078636, rtol=1e-14)


    def test_auxiliary_rule(self):
        # 12 quadratically graded panels of 12 Gauss nodes on (0, U_MAX],
        # one read-only pair of arrays shared by every solve
        nodes, weights = ia_refine._auxiliary_rule()
        assert nodes.shape == weights.shape == (144,)
        assert 0.0 < nodes[0] and nodes[-1] <= ia_refine.U_MAX == 37.0
        assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
        assert_allclose(weights.sum(), ia_refine.U_MAX, rtol=1e-14)
        assert not nodes.flags.writeable and not weights.flags.writeable
        assert solve_p(20.0, ModelParams(H=0.7)).nodes is nodes


class TestBoundaryAsymptotics:
    def test_a_b_rates(self):
        # |a+(-i) - 2| = O(1/nu), |b+(-i) + 2i| = O(1/nu^2)
        p = ModelParams(H=0.7, beta=0.0)
        da, db = [], []
        for nu in (20.0, 40.0):
            vals = evaluate_abxi(nu, p)
            da.append(abs(vals["a_plus_mi"] - 2.0))
            db.append(abs(vals["b_plus_mi"] + 2j))
        assert da[1] < 0.7 * da[0]
        assert db[1] < 0.4 * db[0]

    def test_xi_eta_modulus_limit(self):
        p = ModelParams(H=0.7, beta=-1.0)
        b = b_alpha_closed(p.alpha)
        target = 4.0 * (3.0 - p.alpha) / 2.0 * math.sqrt(1.0 + b * b)
        dev = []
        for nu in (50.0, 200.0):
            vals = evaluate_abxi(nu, p)
            dev.append(abs(abs(vals["xi"] * np.conj(vals["eta"])) / target - 1.0))
        assert dev[1] < dev[0] < 0.01

    def test_xi_eta_argument_form(self):
        p = ModelParams(H=0.7, beta=-1.0)
        b = b_alpha_closed(p.alpha)
        dev = []
        for nu in (100.0, 200.0):
            vals = evaluate_abxi(nu, p)
            prod = vals["xi"] * np.conj(vals["eta"])
            target = nu + (1 - p.alpha) * math.pi / 4.0 - math.pi + cmath.phase(1j + b)
            d = (cmath.phase(prod) - target) % (2.0 * math.pi)
            dev.append(min(d, 2.0 * math.pi - d))
        assert dev[1] < dev[0] < 3.0 / 100.0


class TestFindNu:
    def test_refined_close_to_first_order(self):
        p = ModelParams(H=0.7, beta=-1.0)
        gaps = {}
        for n in (5, 10, 20):
            nu, _, _ = find_nu(n, p)
            gaps[n] = abs(nu - nu_first_order(n, p.H))
        # O(1/n): the scaled gaps stay bounded by the n=5 value
        assert gaps[10] * 10 <= gaps[5] * 5 * 1.5
        assert gaps[20] * 20 <= gaps[5] * 5 * 1.5

    def test_domain_and_bracket_errors(self, monkeypatch):
        p = ModelParams(H=0.7, beta=-1.0)
        with pytest.raises(DomainError):
            find_nu(2, p)
        with pytest.raises(DomainError):
            find_nu(5, ModelParams(H=0.3))
        monkeypatch.setattr(ia_refine, "MAX_STEPS", 1)
        with pytest.raises(SolverError, match="secant steps"):
            find_nu(10, p)  # one step from the guess does not converge

    def test_refuses_iterate_far_from_guess(self, monkeypatch):
        p = ModelParams(H=0.7, beta=-1.0)
        offset = abs(find_nu(3, p)[0] - nu_first_order(3, p.H))
        monkeypatch.setattr(ia_refine, "MAX_OFFSET", offset / 2)
        with pytest.raises(SolverError, match="from the guess"):
            find_nu(3, p)

    def test_refuses_guess_between_two_roots(self, monkeypatch):
        # the roots of the degenerate case are (n - 1/2) pi; n pi is their midpoint
        p = ModelParams(H=0.5, beta=0.0)
        monkeypatch.setattr(ia_refine, "nu_first_order", lambda n, H: n * math.pi)
        with pytest.raises(SolverError, match="equally far"):
            find_nu(5, p)
        monkeypatch.setattr(ia_refine, "nu_first_order",
                            lambda n, H: n * math.pi - 2.0 * ia_refine.TIE_MARGIN)
        assert_allclose(find_nu(5, p)[0], 4.5 * math.pi, rtol=1e-13)

    def test_solves_per_root(self, monkeypatch):
        # secant steps from the first-order guess need about 3.5 solves per root
        p = ModelParams(H=0.7, beta=-1.0)
        calls = []
        solve = ia_refine.solve_p
        monkeypatch.setattr(ia_refine, "solve_p",
                            lambda *args: calls.append(1) or solve(*args))
        counts = []
        for n in range(3, 101):
            before = len(calls)
            find_nu(n, p)
            counts.append(len(calls) - before)
        assert np.mean(counts) <= 4 and max(counts) <= 6

    def test_dominates_first_order(self, oracle_07):
        p, _, spec = oracle_07
        for n in (5, 8, 10):
            nu, _, _ = find_nu(n, p)
            lam_rf = lambda_from_nu(nu, p.H, p.beta)
            lam_fo = lambda_from_nu(nu_first_order(n, p.H), p.H, p.beta)
            err_rf = abs(lam_rf / spec.lam[n - 1] - 1.0)
            err_fo = abs(lam_fo / spec.lam[n - 1] - 1.0)
            assert err_rf < err_fo


class TestRefinedEigenpair:
    def test_h_half_gives_sine(self):
        p = ModelParams(H=0.5, beta=0.0)
        g = QuadGrid.gauss_legendre_unit(120)
        for n in (3, 4):
            pair, _ = refined_eigenpair(n, p, g)
            nu = (n - 0.5) * math.pi
            assert_allclose(pair.phi, -math.sqrt(2.0) * np.sin(nu * g.nodes),
                            atol=1e-6)
            assert_allclose(pair.phi1, -math.sqrt(2.0) * math.sin(nu), atol=1e-6)

    def test_closer_to_oracle_than_first_order(self, oracle_07):
        p, grid, spec = oracle_07
        n = 10
        pair, ref = refined_eigenpair(n, p, grid)
        fo = phi_first_order(grid.nodes, n, p.H)
        d_ref = math.sqrt(float(grid.weights @ (pair.phi - spec.phi[:, n - 1]) ** 2))
        d_fo = math.sqrt(float(grid.weights @ (fo - spec.phi[:, n - 1]) ** 2))
        assert d_ref < d_fo
        assert d_ref < 0.01

    def test_endpoint_magnitude(self, oracle_07):
        p, grid, _ = oracle_07
        pair, _ = refined_eigenpair(12, p, grid)
        assert abs(pair.phi1 ** 2 / (2 * p.H + 1) - 1.0) <= 0.10

    def test_endpoint_consistent_with_samples(self, oracle_07):
        p, grid, _ = oracle_07
        pair, _ = refined_eigenpair(8, p, grid)
        # the last grid node sits within 1e-4 of x=1
        assert abs(pair.phi[-1] - pair.phi1) < 5e-3

    def test_diagnostics_populated(self, oracle_07):
        p, grid, _ = oracle_07
        pair, ref = refined_eigenpair(6, p, grid)
        assert ref.contraction_norm < 1.0
        assert ref.residual <= 1e-10 * abs(ref.xi * np.conj(ref.eta))
        assert pair.phi_integral < 0
        _, _, sol = find_nu(6, p)
        assert np.all(np.isfinite(sol.p_tilde))

    def test_gamma_beta_positive_on_grid(self, oracle_07):
        p, _, _ = oracle_07
        nu, _, sol = find_nu(6, p)
        u = np.logspace(-4, 1, 100)
        r = p.beta_eff / nu
        gb = np.abs((u * u - r * r) / (r * r + 1.0)
                    + u ** (p.alpha - 1.0) * np.exp(1j * (1 - p.alpha) * math.pi / 2))
        assert np.all(gb > 0)

class TestLayerRule:
    # max |phi - phi_wide| on the N = 2000 grid at H = 0.7, beta = -1 of the
    # earlier rule, 16-node panels doubling from u = 2^-16 to 2^12; its error
    # is the truncated tail near x = 0
    EARLIER = {3: 1.33e-6, 10: 1.59e-6, 50: 1.07e-6, 100: 7.21e-7}

    def test_no_farther_from_wide_rule(self, monkeypatch):
        p = ModelParams(H=0.7, beta=-1.0)
        g = QuadGrid.gauss_legendre_unit(2000)
        phi = {n: refined_eigenpair(n, p, g)[0].phi for n in self.EARLIER}
        monkeypatch.setattr(ia_refine, "LAYER_LO", -30)
        monkeypatch.setattr(ia_refine, "LAYER_HI", 24)
        for n, earlier in self.EARLIER.items():
            wide = refined_eigenpair(n, p, g)[0].phi
            assert np.max(np.abs(phi[n] - wide)) <= earlier

    def test_panels_cover_the_range(self):
        for nu in (7.8, 8.0, 314.9, 1024.0):
            k_lo, k_hi = ia_refine._layer_panels(nu)
            assert 2.0 ** k_lo <= 2.0 ** ia_refine.LAYER_LO * nu < 2.0 ** (k_lo + 1)
            assert 2.0 ** (k_hi - 1) < 2.0 ** ia_refine.LAYER_HI * nu <= 2.0 ** k_hi
