"""First-order spectral approximations and the special functions behind them.

For the covariance operator of the fractional OU signal on [0,1] the
frequencies and eigenvalues obey, to first order,

    nu_n     = (n - 1/2) pi - (H - 1/2)^2 / (H + 1/2) * pi/2 + O(1/n),
    lambda_n = sin(pi H) Gamma(2H+1) nu_n^{1-2H} / (nu_n^2 + beta^2),

and the unit-norm eigenfunctions are a shifted sine plus boundary layers
built from the limit density rho0.  The building blocks here are the phase
function theta (argument of the symbol Lambda on the upper lip of the cut),
its nu -> infinity limit theta0, the constant b_alpha = (1/pi) int theta0,
the Cauchy-integral factor X(z) = exp((1/pi) int theta(t)/(t-z) dt), the
Hoelder weight h(t) = exp(-(1/pi) int theta' log|(t+s)/(t-s)|) sin(theta),
and rho0(u) = sin(theta0) X0(-u) / gamma0.

All semi-infinite integrals run on cached geometric panel rules with
analytic head/tail corrections, so every evaluator is vectorized; the
scalar scipy.quad route `h_weight_parts` is kept as an independent
cross-check of `h_weight`.
"""

import math
from functools import cached_property, lru_cache

import numpy as np

from ._quad import doubling_nodes, frozen, graded_nodes
from .exceptions import DomainError
from .model import is_half, spectral_constant

_HEAD = 2.0 ** -26  # lower cutoff of the master semi-axis rule


@lru_cache(maxsize=1)
def _master_rule():
    """The semi-axis rule [_HEAD, _HEAD * 2^52] every ThetaProfile integrates on."""
    nodes, weights, u_end = doubling_nodes(_HEAD, 52, 16)
    return (*frozen(nodes, weights), u_end)


def eta_h(H):
    """Phase constant (H - 1/2)(H - 3/2) / (4(H + 1/2)); the interior
    eigenfunction phase in radians is pi times this value."""
    return 0.25 * (H - 0.5) * (H - 1.5) / (H + 0.5)


def nu_first_order(n, H):
    """Two-term frequency (n - 1/2) pi - (H-1/2)^2/(H+1/2) * pi/2."""
    n = np.asarray(n, dtype=float)
    out = (n - 0.5) * np.pi - (H - 0.5) ** 2 / (H + 0.5) * np.pi / 2.0
    return out if out.ndim else float(out)


def lambda_from_nu(nu, H, beta):
    """Eigenvalue sin(pi H) Gamma(2H+1) nu^{1-2H} / (nu^2 + beta^2)."""
    nu = np.asarray(nu, dtype=float)
    out = spectral_constant(H) * nu ** (1.0 - 2.0 * H) / (nu ** 2 + beta ** 2)
    return out if out.ndim else float(out)


def b_alpha_closed(alpha):
    """Closed form sin(pi/(3-a) * (1-a)/2) / sin(pi/(3-a)), a in (0,2)."""
    return math.sin(math.pi / (3.0 - alpha) * (1.0 - alpha) / 2.0) \
        / math.sin(math.pi / (3.0 - alpha))


class ThetaProfile:
    """Phase function theta(u; nu) = atan2(sin phi, D(u)) on the u = t/nu scale,

        D(u) = (u^2 - r^2)/(1 + r^2) * u^{1-alpha} + cos phi,
        phi  = (1-alpha) pi / 2,   r = beta/nu.

    nu = inf (the default) gives the limit profile theta0 with
    D = u^{3-alpha} + cos phi; a finite nu must be positive, with beta/nu
    finite.  theta is odd under u -> -u by construction and decays like
    sin(phi) u^{alpha-3}.
    """

    def __init__(self, alpha, beta=0.0, nu=math.inf):
        if not 0.0 < alpha < 2.0:
            raise DomainError(f"alpha must lie in (0,2), got {alpha}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.nu = float(nu)
        if not (self.nu > 0.0 and math.isfinite(self.r)):
            raise DomainError(f"nu must be positive with beta/nu finite, got "
                              f"beta = {beta}, nu = {nu}")
        self.phi_angle = (1.0 - alpha) * math.pi / 2.0
        self._sin_phi = math.sin(self.phi_angle)
        self._cos_phi = math.cos(self.phi_angle)
        if self.r != 0.0 and alpha > 1.0:
            raise DomainError("finite-nu profiles are defined for alpha <= 1")

    @property
    def r(self):
        return 0.0 if math.isinf(self.nu) else self.beta / self.nu

    def denominator_min(self):
        """Exact minimum of D over u > 0 (the nu-largeness check)."""
        r = abs(self.r)
        if r == 0.0:
            return self._cos_phi if self._cos_phi < 1.0 else 1.0
        a = self.alpha
        # r^(3-a) / (1 + r^2), with no power that overflows at large r
        dip = (2.0 / (3.0 - a)) * ((1.0 - a) / (3.0 - a)) ** ((1.0 - a) / 2.0) \
            * r ** (1.0 - a) * (r / math.hypot(1.0, r)) ** 2
        return self._cos_phi - dip

    def theta(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0):
            raise DomainError("theta requires u > 0")
        r = self.r
        D = (u * u - r * r) / (1.0 + r * r) * u ** (1.0 - self.alpha) + self._cos_phi
        out = np.arctan2(self._sin_phi, D)
        return out if out.ndim else float(out)

    def dtheta(self, u):
        """Analytic derivative; never finite differences (log-kernel integrals
        amplify noise).  With u_ac = u^{-alpha} / (1 + r^2),

            D  = (u^2 - r^2) u u_ac + cos phi,
            D' = ((3 - alpha) u^2 - (1 - alpha) r^2) u_ac,

        and theta' = -sin phi D' / (D^2 + sin^2 phi)."""
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0):
            raise DomainError("dtheta requires u > 0")
        a, r2 = self.alpha, self.r * self.r
        u_ac = u ** -a / (1.0 + self.r ** 2)
        uu = u * u
        D = (uu - r2) * u * u_ac + self._cos_phi
        Dp = ((3.0 - a) * uu - (1.0 - a) * r2) * u_ac
        out = Dp / (D * D + self._sin_phi ** 2) * -self._sin_phi
        return out if out.ndim else float(out)

    # -- master semi-axis rule shared by the integral transforms ------------
    @cached_property
    def _master(self):
        nodes, weights, u_end = _master_rule()
        return nodes, weights, self.theta(nodes), u_end

    def b_alpha_nu(self):
        """(1/pi) int_0^inf theta(u) du with analytic head correction."""
        if self.alpha > 1.0:
            raise DomainError("b_alpha integral requires alpha <= 1")
        dmin = self.denominator_min()
        if dmin <= 0.01:
            raise DomainError("nu too small: theta denominator not bounded away "
                              f"from zero (min {dmin:.3g})")
        nodes, weights, th, _ = self._master
        return (float(weights @ th) + self.phi_angle * _HEAD) / math.pi

    def x_cauchy(self, z):
        """Sectionally holomorphic factor X(z) = exp((1/pi) int theta(t)/(t-z) dt).

        z (scalar or array) must avoid the cut [0, inf).  A point whose real
        part lies off [2 _HEAD, u_end] (every real z, which is the negative
        axis, and z = i) takes one Cauchy matrix-vector product: 1/(t - z)
        formed in place, against weights * theta.  Near the cut the pole is
        subtracted and integrated in closed form, so the two boundary limits
        reproduce the jump X+ = e^{2 i theta} X-.  A mixed array is split
        into the two sets.  A real z is evaluated in real arithmetic; the
        result is complex either way.
        """
        nodes, weights, th, u_end = self._master
        z = np.asarray(z)
        zf = z.reshape(-1).astype(complex if np.iscomplexobj(z) else float)
        if np.any((zf.imag == 0) & (zf.real >= 0)):
            raise DomainError("x_cauchy is undefined on the cut [0, inf)")
        # theta value at the pole abscissa, zero when the pole is off [head, end]
        re = zf.real
        near = (re > 2.0 * _HEAD) & (re < u_end)
        th_r = np.where(near, self.theta(np.where(near, re, 1.0)), 0.0)
        core = np.empty_like(zf)
        far = ~near
        if far.any():
            inv = np.subtract.outer(nodes, zf if far.all() else zf[far])
            np.reciprocal(inv, out=inv)
            core[far] = (weights * th) @ inv
        if near.any():
            zn, tn = zf[near], th_r[near]
            core[near] = ((weights[None, :] * (th[None, :] - tn[:, None]))
                          / (nodes[None, :] - zn[:, None])).sum(axis=1)
        # exact integrals of the subtracted constant and of the head plateau
        la0, lz, lu = np.log(_HEAD - zf), np.log(-zf), np.log(u_end - zf)
        analytic = th_r * (lu - la0) + self.phi_angle * (la0 - lz)
        val = np.exp((core + analytic) / math.pi).astype(complex)
        val = val.reshape(z.shape)
        return complex(val) if val.ndim == 0 else val


def theta0(u, alpha):
    """Limit phase theta0(u) = atan2(sin phi, u^{3-alpha} + cos phi)."""
    return ThetaProfile(alpha).theta(u)


def b_alpha_numeric(beta, nu, alpha):
    """(1/pi) int_0^inf theta(u; nu) du; converges to b_alpha_closed as nu grows."""
    return ThetaProfile(alpha, beta, nu).b_alpha_nu()


# ---------------------------------------------------------------------------
# Hoelder weight h(t)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _h_pattern():
    """Master pattern for int_0^inf theta'(t*s) log|(1+s)/(1-s)| t ds.

    Relative nodes s and weights already multiplied by the log kernel; the
    pattern is shared by every target t since the kernel depends on s = v/t
    only.  Panels grade geometrically into the log singularity at s = 1 from
    both sides; the skipped slivers are handled analytically by the caller.
    """
    n_inner, n_outer, m = 28, 29, 16  # graded panels, doubling panels, nodes each
    delta = 0.5 * 0.5 ** n_inner  # uncovered sliver half-width (relative)
    s, w = (np.concatenate(part) for part in zip(
        # [head, 1/2]: 25 doubling panels away from 0 (theta' may blow up like v^-alpha)
        doubling_nodes(_HEAD, 25, m)[:2],
        # [1/2, 1) and (1, 2]: graded toward the singularity, equal slivers left
        graded_nodes(0.5, 1.0, 1.0, n_inner, m),
        graded_nodes(1.0, 2.0, 1.0, n_inner + 1, m),
        # [2, 2^n_outer]
        doubling_nodes(2.0, n_outer, m)[:2]))
    kern = np.log(np.abs((1.0 + s) / (1.0 - s)))
    return (*frozen(s, w * kern), delta)


_H_BLOCK = 65536  # elements of one row block of h_weight's (t, s) table, one
                  # 512 KB buffer reused in place: 36 rows of the 1776-node
                  # pattern, the fastest of 4-144 rows at one BLAS thread


def h_weight(t, profile: ThetaProfile):
    """Weight h(t) = exp(-(1/pi) int_0^inf theta'(s) log|(t+s)/(t-s)| ds) sin(theta(t)).

    Vectorized over t on the cached panel rule; `h_weight_parts` is the
    independent cross-check.

    On the pattern's relative nodes s, with weights w (log kernel
    included), u = t s and u^{-alpha} / (1 + r^2) = t_a s_a
    (t_a = t^{-alpha} / (1 + r^2), s_a = s^{-alpha}), theta' separates:

        D = (t^3 t_a)(s^3 s_a) - r^2 (t t_a)(s s_a) + cos phi,
        E = D^2 + sin^2 phi,
        sum_s theta'(t s) w = -sin phi [(3 - alpha) t^2 t_a sum_s g1 / E
                                       - (1 - alpha) r^2 t_a sum_s g2 / E],

    with g1 = w s^2 s_a and g2 = w s_a.  A row block of D is one rank-3
    matrix product, (t^3 t_a, -r^2 t t_a, cos phi) against (s^3 s_a, s s_a, 1);
    squaring, adding sin^2 phi and the reciprocal run in place, and one
    more product against the columns (g1, g2) gives both sums.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0):
        raise DomainError("h_weight requires t > 0")
    s, w_log, delta = _h_pattern()
    a, r2 = profile.alpha, profile.r ** 2
    t_a = t_arr ** -a / (1.0 + r2)
    s_a = s ** -a
    ss = s * s
    s_terms = np.stack([ss * s * s_a, s * s_a, np.ones_like(s)])
    t_terms = np.column_stack([t_arr ** 3 * t_a, -r2 * t_arr * t_a,
                               np.full_like(t_arr, profile._cos_phi)])
    g = np.column_stack([w_log * ss * s_a, w_log * s_a])
    rows = max(1, min(len(t_arr), _H_BLOCK // len(s)))
    buf = np.empty((rows, len(s)))
    sums = np.empty((len(t_arr), 2))
    for lo in range(0, len(t_arr), rows):
        blk = slice(lo, lo + rows)
        D = buf[:min(rows, len(t_arr) - lo)]
        np.matmul(t_terms[blk], s_terms, out=D)
        D *= D
        D += profile._sin_phi ** 2
        np.reciprocal(D, out=D)
        np.matmul(D, g, out=sums[blk])
    expo = (3.0 - a) * t_arr * t_arr * sums[:, 0]
    expo -= (1.0 - a) * r2 * sums[:, 1]
    expo *= -profile._sin_phi * t_a * t_arr
    # slivers [1-delta, 1] and [1, 1+delta]:  theta'(t) * t * delta * (log(2/delta)+1) each
    expo += 2.0 * profile.dtheta(t_arr) * t_arr * delta * (math.log(2.0 / delta) + 1.0)
    out = np.exp(-expo / math.pi) * np.sin(profile.theta(t_arr))
    return out if np.ndim(t) else float(out[0])


def h_weight_parts(t, profile: ThetaProfile):
    """h(t) at one scalar t > 0 by an independent route, the cross-check of
    `h_weight`: integrated by parts, -(1/pi) int theta' log|..| =
    (1/pi) PV int theta(s) 2t/(t^2-s^2) ds, by adaptive quadrature."""
    from scipy import integrate  # this cross-check is its only user

    if np.ndim(t):
        raise DomainError("h_weight_parts takes a scalar t")
    t = float(t)
    th_t = profile.theta(t)

    def regular(s):
        return (profile.theta(s) - th_t) * 2.0 * t / (t * t - s * s)

    head = integrate.quad(regular, 0.0, t, limit=200, points=[t])[0]
    head += integrate.quad(regular, t, 2.0 * t, limit=200, points=[t])[0]
    head += th_t * math.log(3.0)  # PV int_0^{2t} 2t/(t^2-s^2) ds
    tail = integrate.quad(lambda s: profile.theta(s) * 2.0 * t / (t * t - s * s),
                          2.0 * t, np.inf, limit=200)[0]
    return math.exp((head + tail) / math.pi) * math.sin(th_t)


# ---------------------------------------------------------------------------
# rho0 and the first-order eigenfunctions
# ---------------------------------------------------------------------------

def gamma0(u, alpha):
    """|u + u^{alpha-2} e^{i(1-alpha)pi/2}|, denominator of rho0."""
    u = np.asarray(u, dtype=float)
    ang = (1.0 - alpha) * math.pi / 2.0
    out = np.abs(u + u ** (alpha - 2.0) * np.exp(1j * ang))
    return out if out.ndim else float(out)


def rho0(u, alpha):
    """Layer density sin(theta0(u)) / gamma0(u) * X0(-u); decays like u^{alpha-4}."""
    prof = ThetaProfile(alpha)
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if np.any(u <= 0):
        raise DomainError("rho0 requires u > 0")
    x0 = prof.x_cauchy(-u).real
    out = np.sin(prof.theta(u)) / gamma0(u, alpha) * x0
    return float(out[0]) if scalar else out


@lru_cache(maxsize=16)
def _layer_rule(alpha):
    """Cached semi-axis rule with rho0 and the f0/f1 layer densities."""
    nodes, weights, _ = doubling_nodes(2.0 ** -16, 40, 16)  # 40 panels of 16 nodes
    rho = rho0(nodes, alpha)
    b = b_alpha_closed(alpha)
    sq = math.sqrt(3.0 - alpha)
    f0 = sq / math.pi * rho * (nodes - b) / math.sqrt(1.0 + b * b)
    f1 = sq / math.pi * rho
    return frozen(nodes, weights, f0, f1)


def phi_first_order(x, n, H):
    """First-order unit-norm eigenfunction phi_n(x), x in [0,1].

    Interior wave -sqrt(2) sin(nu_n x + pi*eta_H) plus endpoint layers:

        phi_n(x) = -sqrt(2) sin(nu_n x + pi eta_H)
                   - int_0^inf [e^{-x nu_n u} f0(u) - (-1)^n e^{-(1-x) nu_n u} f1(u)] du,

    with f0 = sqrt(2H+1)/pi * rho0(u)(u - b_a)/sqrt(1+b_a^2) and
    f1 = sqrt(2H+1)/pi * rho0(u).  This is the combination validated against
    the Nystrom oracle; it vanishes at x = 0, satisfies the sign convention
    int phi < 0, and gives phi_n(1) -> (-1)^n sqrt(2H+1).

    x and n broadcast against each other: the result has shape
    x.shape + n.shape (a float when both are scalars).
    """
    x = np.asarray(x, dtype=float)
    n = np.asarray(n)
    if np.any((x < 0) | (x > 1)):
        raise DomainError("x must lie in [0,1]")
    # one entry per (x, n) pair, x-major
    xs = np.repeat(x.reshape(-1), n.size)
    ns = np.tile(n.reshape(-1), x.size)
    nu = nu_first_order(ns, H)
    out = -math.sqrt(2.0) * np.sin(nu * xs + math.pi * eta_h(H))
    if not is_half(H):  # layers vanish identically at H = 1/2
        u, w, f0, f1 = _layer_rule(2.0 - 2.0 * H)
        e = np.empty((len(ns), len(u)))  # both layers' exponentials, in turn
        for sign, depth, f in ((-1.0, xs, f0), ((-1.0) ** ns, 1.0 - xs, f1)):
            np.outer(nu, u, out=e)
            e *= -depth[:, None]
            with np.errstate(under="ignore"):
                out += sign * (np.exp(e, out=e) @ (w * f))
    out = out.reshape(x.shape + n.shape)
    return float(out) if out.ndim == 0 else out

