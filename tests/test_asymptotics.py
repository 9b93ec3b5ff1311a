import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_max_ulp
from scipy import integrate

from fouspec import asymptotics
from fouspec.asymptotics import (ThetaProfile, b_alpha_closed, b_alpha_numeric,
                                 eta_h, gamma0, h_weight, h_weight_parts,
                                 lambda_from_nu, nu_first_order, phi_first_order,
                                 phi_integral_first_order, rho0, theta0)
from fouspec.exceptions import DomainError
from fouspec.model import QuadGrid


def _x_cauchy_subtracted(prof, z):
    """X(z) with the pole subtracted on every row: the form x_cauchy used
    for all z before off-cut rows became one Cauchy matrix-vector product."""
    nodes, weights, th, u_end = prof._master
    zf = np.asarray(z).reshape(-1).astype(complex)
    near = (zf.real > 2.0 * asymptotics._HEAD) & (zf.real < u_end)
    th_r = np.where(near, prof.theta(np.where(near, zf.real, 1.0)), 0.0)
    core = ((weights[None, :] * (th[None, :] - th_r[:, None]))
            / (nodes[None, :] - zf[:, None])).sum(axis=1)
    la0, lz, lu = (np.log(asymptotics._HEAD - zf), np.log(-zf), np.log(u_end - zf))
    analytic = th_r * (lu - la0) + prof.phi_angle * (la0 - lz)
    return np.exp((core + analytic) / math.pi)


def _dtheta_per_element(prof, u, u_ac):
    """theta'(u) given u_ac = u^{-alpha} / (1 + r^2), one element at a time."""
    a, r2 = prof.alpha, prof.r * prof.r
    D = (u * u - r2) * u * u_ac + prof._cos_phi
    Dp = ((3.0 - a) * u * u - (1.0 - a) * r2) * u_ac
    return Dp / (D * D + prof._sin_phi ** 2) * -prof._sin_phi


def _h_weight_per_element(t, prof):
    """h(t) with theta'(t s) evaluated element by element in 8192-element
    blocks: the form h_weight used before its separable product."""
    s, w_log, delta = asymptotics._h_pattern()
    rows = max(1, 8192 // len(s))
    t_a = t ** -prof.alpha / (1.0 + prof.r ** 2)
    s_a = s ** -prof.alpha
    expo = np.empty(len(t))
    for lo in range(0, len(t), rows):
        blk = slice(lo, lo + rows)
        expo[blk] = _dtheta_per_element(prof, t[blk, None] * s, t_a[blk, None] * s_a) @ w_log
    expo *= t
    expo += 2.0 * prof.dtheta(t) * t * delta * (math.log(2.0 / delta) + 1.0)
    return np.exp(-expo / math.pi) * np.sin(prof.theta(t))


class TestScalars:
    def test_b_alpha_closed(self):
        assert b_alpha_closed(1.0) == 0.0
        assert_allclose(b_alpha_closed(1e-9), 1.0 / math.sqrt(3.0), atol=1e-6)
        # tan(pi/12) = 2 - sqrt(3)
        assert_allclose(b_alpha_closed(0.6), 2.0 - math.sqrt(3.0), rtol=1e-14)

    def test_eta_h(self):
        assert eta_h(0.5) == 0.0
        assert_allclose(eta_h(0.75), -0.0375, rtol=1e-14)
        assert_allclose(eta_h(0.25), 0.25 * (-0.25) * (-1.25) / 0.75, rtol=1e-14)

    def test_nu_first_order(self):
        n = np.arange(1, 6)
        assert_allclose(nu_first_order(n, 0.5), (n - 0.5) * np.pi, rtol=1e-15)
        assert_allclose(nu_first_order(1, 0.7),
                        0.5 * math.pi - (0.04 / 1.2) * math.pi / 2.0, rtol=1e-14)
        assert_allclose(nu_first_order(5, 0.25),
                        4.5 * math.pi - (0.0625 / 0.75) * math.pi / 2.0, rtol=1e-14)

    def test_lambda_from_nu(self):
        assert_allclose(lambda_from_nu(2.0, 0.5, 0.0), 0.25, rtol=1e-15)
        assert_allclose(lambda_from_nu(1.5184364492350666, 0.7, -1.0),
                        0.25723083838468275, rtol=1e-13)
        # leading order: lambda * nu^{1+2H} -> sin(pi H) Gamma(2H+1)
        H = 0.8
        target = math.sin(math.pi * H) * math.gamma(2 * H + 1)
        for nu in (1e3, 1e5):
            assert_allclose(lambda_from_nu(nu, H, -1.0) * nu ** (1 + 2 * H),
                            target, rtol=1e-5)


class TestTheta:
    def test_limits(self):
        for alpha in (0.2, 0.5, 0.8, 1.5):
            assert_allclose(theta0(1e-13, alpha), (1 - alpha) * math.pi / 2, rtol=1e-9)
        assert abs(theta0(1e8, 0.5)) < 1e-12

    def test_half_angle_value(self):
        # at u=1: tan(theta0) = sin(phi)/(1+cos(phi)) = tan(phi/2)
        assert_allclose(theta0(1.0, 0.5), (1 - 0.5) * math.pi / 4.0, rtol=1e-14)

    def test_monotone_decreasing_positive(self):
        u = np.logspace(-3, 3, 200)
        for alpha in (0.2, 0.8):
            th = theta0(u, alpha)
            assert np.all(th > 0)
            assert np.all(np.diff(th) < 0)

    def test_alpha_one_vanishes(self):
        prof = ThetaProfile(1.0, 2.0, 10.0)
        assert np.all(prof.theta(np.logspace(-2, 2, 50)) == 0.0)

    def test_envelope_quadratic_in_inverse_nu(self):
        u = np.logspace(-3, 2, 200)
        alpha, beta = 0.6, 1.0
        base = theta0(u, alpha)
        d100 = np.max(np.abs(ThetaProfile(alpha, beta, 100.0).theta(u) - base))
        d200 = np.max(np.abs(ThetaProfile(alpha, beta, 200.0).theta(u) - base))
        assert_allclose(d200 / d100, 0.25, rtol=0.05)

    def test_domain(self):
        prof = ThetaProfile(0.5)
        with pytest.raises(DomainError):
            prof.theta(0.0)
        with pytest.raises(DomainError):
            ThetaProfile(0.5, 5.0, 1.0).b_alpha_nu()  # denominator dips through 0

    @pytest.mark.parametrize("beta, nu", [(1.0, 0.0), (1.0, -3.0), (1.0, math.nan),
                                          (-math.inf, 1.0), (1e10, 1e-300)])
    def test_refuses_nonpositive_nu(self, beta, nu):
        # nu = 0 raised ZeroDivisionError and nu = -3 was accepted
        with pytest.raises(DomainError, match="nu must be positive"):
            ThetaProfile(0.6, beta, nu)

    def test_tiny_nu_is_refused_without_overflow(self):
        # beta/nu = 1e300 raised OverflowError in denominator_min
        assert ThetaProfile(0.6, 1.0, math.inf).r == 0.0
        with pytest.raises(DomainError, match="nu too small"):
            b_alpha_numeric(1.0, 1e-300, 0.6)


class TestBAlphaNumeric:
    def test_alpha_one(self):
        assert b_alpha_numeric(0.0, 10.0, 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
    def test_matches_closed_form(self, alpha):
        assert abs(b_alpha_numeric(0.0, math.inf, alpha)
                   - b_alpha_closed(alpha)) <= 1e-6

    def test_finite_nu_value(self):
        assert abs(b_alpha_numeric(1.0, 100.0, 0.6)
                   - (2.0 - math.sqrt(3.0))) <= 1e-3

    def test_quadratic_convergence_in_inverse_nu(self):
        b = b_alpha_closed(0.6)
        d = [abs(b_alpha_numeric(1.0, nu, 0.6) - b) for nu in (50.0, 100.0, 200.0)]
        assert_allclose(d[0] / d[1], 4.0, rtol=0.05)
        assert_allclose(d[1] / d[2], 4.0, rtol=0.05)


class TestXCauchy:
    def test_alpha_one_unity(self):
        prof = ThetaProfile(1.0)
        z = np.array([1j, -2.0 + 0j, 0.5 + 0.5j])
        assert_allclose(prof.x_cauchy(z), np.ones(3), atol=1e-14)

    def test_x0_at_i(self):
        for alpha in (0.2, 0.5, 0.8):
            x0 = ThetaProfile(alpha).x_cauchy(1j)
            assert abs(abs(x0) - math.sqrt((3 - alpha) / 2.0)) <= 1e-4
            assert abs(np.angle(x0) - (1 - alpha) * math.pi / 8.0) <= 1e-4

    def test_large_z_expansion(self):
        # z (1 - X(z)) -> b_alpha(beta, nu) on the u scale
        prof = ThetaProfile(0.6, 1.0, 50.0)
        b = prof.b_alpha_nu()
        for z in (-1e5 + 0j, 1e5j):
            assert_allclose(z * (1.0 - prof.x_cauchy(z)), b, rtol=1e-3)

    def test_boundary_jump(self):
        prof = ThetaProfile(0.5)
        for t in (0.3, 0.7, 2.0):
            xp = prof.x_cauchy(t + 1e-6j)
            xm = prof.x_cauchy(t - 1e-6j)
            assert abs(xp / xm - np.exp(2j * prof.theta(t))) <= 1e-4

    def test_rejects_cut(self):
        with pytest.raises(DomainError):
            ThetaProfile(0.5).x_cauchy(0.3 + 0j)

    @pytest.mark.parametrize("alpha,beta,nu", [(0.6, -1.0, 300.0), (0.2, 3.0, 40.0),
                                               (0.5, 0.0, math.inf)])
    def test_cauchy_product_matches_subtracted_form(self, alpha, beta, nu):
        # off-cut rows (the negative axis, z = i) are one matrix-vector
        # product against weights * theta; near-cut rows keep the subtraction
        prof = ThetaProfile(alpha, beta, nu)
        neg = -np.logspace(-6, 4, 60)
        assert_allclose(prof.x_cauchy(neg), _x_cauchy_subtracted(prof, neg),
                        rtol=1e-14, atol=0)
        assert_allclose(prof.x_cauchy(1j), _x_cauchy_subtracted(prof, 1j)[0],
                        rtol=1e-14, atol=0)
        mixed = np.array([1j, 0.3 + 1e-6j, -2.0 + 0j, 2.0 - 1e-3j, -1e-9 + 0.5j,
                          1e20 + 1j, 0.5 + 0.5j])
        vals = prof.x_cauchy(mixed)
        assert_allclose(vals, _x_cauchy_subtracted(prof, mixed), rtol=1e-14, atol=0)
        assert_allclose(vals, [prof.x_cauchy(z) for z in mixed], rtol=1e-15, atol=0)


class TestHWeight:
    def test_alpha_one_zero(self):
        prof = ThetaProfile(1.0)
        assert h_weight(1.0, prof) == 0.0

    def test_limit_at_zero(self):
        for alpha in (0.3, 0.7):
            prof = ThetaProfile(alpha)
            assert_allclose(h_weight(1e-9, prof),
                            math.sin((1 - alpha) * math.pi / 2.0), rtol=1e-5)

    @pytest.mark.parametrize("alpha,beta,nu,t", [
        (0.5, 0.0, math.inf, 1.0),
        (0.5, 0.0, math.inf, 0.3),
        (0.6, -1.0, 30.0, 0.5),
        (0.8, 1.0, 50.0, 2.0),
        # the auxiliary scale of the refinement, t = w/nu
        (0.6, -1.0, 8.0, 3.0 / 8.0),
        (0.6, -1.0, 300.0, 3.0 / 300.0),
    ])
    def test_dual_quadrature_strategies(self, alpha, beta, nu, t):
        prof = ThetaProfile(alpha, beta, nu)
        assert_allclose(h_weight(t, prof), h_weight_parts(t, prof), atol=1e-6)

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    @pytest.mark.parametrize("beta", [-12.0, -1.0, 2.0])
    def test_separable_form_matches_per_element_form(self, H, beta, monkeypatch):
        # on the auxiliary nodes w at t = w/nu, as the refinement calls it;
        # a block of 5 rows gives the same values as one of 36
        from fouspec.ia_refine import _auxiliary_rule
        w = _auxiliary_rule()[0]
        for nu in (8.0, 50.0, 300.0, 3000.0):
            prof = ThetaProfile(2.0 - 2.0 * H, beta, nu)
            ref = _h_weight_per_element(w / nu, prof)
            assert_allclose(h_weight(w / nu, prof), ref, rtol=1e-14, atol=0)
            with monkeypatch.context() as m:
                m.setattr(asymptotics, "_H_BLOCK", 5 * len(asymptotics._h_pattern()[0]))
                assert_allclose(h_weight(w / nu, prof), ref, rtol=1e-14, atol=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            h_weight(-1.0, ThetaProfile(0.5))

    def test_parts_refuses_array_t(self):
        prof = ThetaProfile(0.6, -1.0, 30.0)
        with pytest.raises(DomainError, match="scalar"):
            h_weight_parts(np.array([0.5, 1.0]), prof)


class TestRho0:
    def test_alpha_one_zero(self):
        assert np.all(rho0(np.array([0.5, 1.0, 2.0]), 1.0) == 0.0)

    def test_tail_decay(self):
        # rho0 ~ sin((1-a)pi/2) u^{alpha-4}, so u^{3-alpha} rho0 -> 0
        alpha = 0.6
        u = np.array([1e2, 1e3, 1e4])
        scaled = rho0(u, alpha) * u ** (3 - alpha) / math.sin((1 - alpha) * math.pi / 2)
        assert np.all(np.abs(scaled) < 1.0)
        assert np.all(np.abs(np.diff(scaled)) < np.abs(scaled[:-1]))

    def test_integrable(self):
        val, err = integrate.quad(lambda u: rho0(u, 0.6), 0.0, np.inf, limit=300)
        assert err < 1e-8
        assert_allclose(val, 0.3090322702966888, rtol=1e-7)

    def test_gamma0(self):
        assert_allclose(gamma0(1.0, 0.5),
                        abs(1.0 + np.exp(1j * 0.25 * np.pi)), rtol=1e-14)


class TestPhiFirstOrder:
    def test_h_half_is_pure_sine(self):
        x = np.linspace(0.0, 1.0, 11)
        for n in (1, 4):
            nu = (n - 0.5) * math.pi
            assert_allclose(phi_first_order(x, n, 0.5),
                            -math.sqrt(2.0) * np.sin(nu * x), rtol=1e-14)

    def test_h_within_the_half_band_is_pure_sine(self):
        # `model.is_half` is the one H = 1/2 rule: where the closed-form
        # spectrum is accepted, the layers are skipped, not formed as ~1e-13
        H = 0.5 + 5e-13
        x = np.linspace(0.0, 1.0, 11)
        n = np.arange(1, 6)
        sine = -math.sqrt(2.0) * np.sin(np.multiply.outer(x, nu_first_order(n, H))
                                        + math.pi * eta_h(H))
        assert np.array_equal(phi_first_order(x, n, H), sine)

    def test_layer_temporaries_share_one_block(self):
        # 1e6 (x, n) pairs: both layers reuse one _CHUNK x 640 block of
        # exponentials.  Three such blocks at a time traced a 90.6 MiB peak;
        # one block traces 50.7 MiB
        import tracemalloc

        x = QuadGrid.gauss_legendre_unit(500).nodes
        n = np.arange(1, 2001)
        phi_first_order(x[:3], n[:3], 0.7)  # the cached layer rule is not counted
        tracemalloc.start()
        try:
            phi_first_order(x, n, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70 * 2 ** 20

    def test_vanishes_at_zero(self):
        for n in (10, 20, 30):
            assert abs(phi_first_order(0.0, n, 0.7)) < 5e-3

    def test_endpoint_parity(self):
        for H in (0.6, 0.75):
            for n in (10, 25):
                val = phi_first_order(1.0, n, H)
                assert_allclose(val, (-1.0) ** n * math.sqrt(2 * H + 1), rtol=5e-3)

    def test_oracle_distance(self, oracle_07):
        p, grid, spec = oracle_07
        n = 20
        fo = phi_first_order(grid.nodes, n, p.H)
        d = math.sqrt(float(grid.weights @ (fo - spec.phi[:, n - 1]) ** 2))
        d_flip = math.sqrt(float(grid.weights @ (fo + spec.phi[:, n - 1]) ** 2))
        assert min(d, d_flip) <= 0.15

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_first_order(1.2, 3, 0.7)

    @pytest.mark.parametrize("H", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("chunk", [None, 5])
    def test_broadcasts_x_against_n(self, H, chunk, monkeypatch):
        # an array of x against an array of n equals the one-by-one calls to
        # 1 ulp (matrix products of different shapes may round differently),
        # also when the pairs are split into several blocks
        if chunk is not None:
            monkeypatch.setattr(asymptotics, "_CHUNK", chunk)
        x = np.array([[0.05, 0.25, 0.5], [0.75, 0.9, 1.0]])
        n = np.array([1, 2, 7, 40])
        vals = phi_first_order(x, n, H)
        assert vals.shape == (2, 3, 4)
        one = np.array([[[phi_first_order(float(xi), int(k), H) for k in n]
                         for xi in row] for row in x])
        assert_array_max_ulp(vals, one, maxulp=1)
        assert phi_first_order(x, 7, H).shape == x.shape
        assert phi_first_order(0.5, n, H).shape == n.shape
        assert isinstance(phi_first_order(0.5, 7, H), float)


class TestPhiIntegralFirstOrder:
    def test_bm_value(self):
        # |int sqrt2 sin(pi x/2)| = 2 sqrt2/pi, negative under the convention
        assert_allclose(phi_integral_first_order(1, 0.5),
                        -2.0 * math.sqrt(2.0) / math.pi, rtol=1e-14)

    def test_against_oracle(self, oracle_07):
        p, _, spec = oracle_07
        val = phi_integral_first_order(10, p.H)
        assert abs(val / spec.phi_integral[9] - 1.0) <= 0.10

    def test_scaled_value_stabilizes(self):
        vals = [phi_integral_first_order(n, 0.7) * nu_first_order(n, 0.7)
                for n in (10, 20, 40)]
        assert_allclose(vals[0], vals[2], rtol=1e-12)  # exactly n-free by construction
