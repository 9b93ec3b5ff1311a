"""Refined eigenpairs from the integro-algebraic system (H >= 1/2).

Each admissible frequency nu solves Im{xi(nu) * conj(eta(nu))} = 0, where
xi and eta combine boundary values of the solutions of the auxiliary
integral equations

    p_j^±(t) = ± (1/pi) int_0^inf h(s nu) e^{-nu s} / (s + t) p_j^±(s) ds + t^j

with the weight h from `asymptotics.h_weight`.  Discretized, each sign is
one dense linear system (I -+ A) p = t^j with both right-hand sides j = 0, 1,
solved directly.  The frequency comes from secant steps on the pole-free
arctan form of Im{xi conj(eta)}, started at the first-order guess plus a
drift term, and the eigenfunction from evaluating the inverse-Laplace
representation: a residue oscillation plus a semi-axis layer integral.
Eigenvalues follow from

    lambda = sin(pi H) Gamma(2H+1) nu^{alpha-1} / (beta^2 + nu^2),

the real-root form of the symbol equation.  Only the ratio xi/eta enters
the eigenfunction; no normalization constants are ever computed, the final
function is rescaled to unit weighted-L2 norm.

Substitution w = nu*s maps the integral equations onto a fixed grid on
(0, u_max] with u_max = 37 (e^{-u_max} below 1e-16), so the kernel weights
are h(w) e^{-w} independent of the eventual evaluation points.
"""

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import doubling_nodes, frozen, gl_panels
from .asymptotics import ThetaProfile, h_weight, lambda_from_nu, nu_first_order
from .exceptions import DomainError, SolverError
from .model import ModelParams, QuadGrid
from .spectral_oracle import EigenPair, Spectrum, _sign_fix

U_MAX = 37.0
MAX_OFFSET = math.pi / 2  # half the spacing of consecutive roots
TIE_MARGIN = 0.15         # refuse a guess this close (in g) to a midpoint of roots
STEP_REL = 1e-13          # secant stops after a step <= STEP_REL * nu
MAX_STEPS = 10            # at most 5 were needed for H in [1/2, 0.99], beta T in [-12, 6.6]
DEFAULT_N_MIN = 3
NU_MIN = 1.0
RESIDUAL_REL = 1e-10
LAYER_LO, LAYER_HI = -16, 13  # layer integral covers v in [2^LAYER_LO nu, 2^LAYER_HI nu]
LAYER_PANEL_NODES = 16        # Gauss-Legendre nodes per dyadic layer panel
LAYER_ROWS = 512              # grid rows per block of the layer exponential table


@dataclass(frozen=True)
class IARefinement:
    """Root of one refined frequency, its health numbers and the auxiliary
    solution `solution` (a `_QPSolution`) solved at it.

    The boundary values stay in `evaluate_abxi`'s dict.
    """

    n: int
    nu: float
    xi: complex
    eta: complex
    b_alpha_nu: float
    residual: float
    solution: "_QPSolution" = field(repr=False, compare=False)

    @property
    def contraction_norm(self):
        """||A|| at the root, computed by the solution on first read; it
        bounds cond_2(I -+ A), see _QPSolution."""
        return self.solution.contraction_norm


_SIGNS = np.array([1.0, -1.0])  # sign of the auxiliary equations, by stack index


@functools.lru_cache(maxsize=1)
def _auxiliary_rule():
    """Nodes/weights on (0, U_MAX]: 12 Gauss-Legendre panels of 12 nodes,
    with edges U_MAX (k/12)^2 refined quadratically toward 0."""
    edges = U_MAX * np.linspace(0.0, 1.0, 13) ** 2
    return frozen(*gl_panels(edges[:-1], edges[1:], 12))


@functools.lru_cache(maxsize=1)
def _cauchy_inverse():
    """Read-only table 1/(w_i + w_k) over the auxiliary nodes: A is this
    table with column k scaled by the kernel weight ker_k."""
    w = _auxiliary_rule()[0]
    return frozen(1.0 / np.add.outer(w, w))[0]


class _QPSolution:
    """Sampled solutions of the auxiliary equations plus their extension.

    `p_tilde[s, j]` holds p_j^{sign} on `nodes`, s = 0 for sign + and 1 for
    sign -.  `iterations` counts the linear solves (one per sign).
    """

    def __init__(self, nu, profile, kernel_row, p_tilde):
        self.nu = nu
        self.profile = profile
        self.nodes = _auxiliary_rule()[0]
        self.kernel_row = kernel_row
        self.p_tilde = p_tilde
        self.iterations = 2

    @functools.cached_property
    def contraction_norm(self):
        """Spectral norm ||A|| of the discretized operator, on first read:
        the square root of the largest eigenvalue of A^T A.

        Where it is below 1 it bounds cond_2(I -+ A) <= (1 + ||A||) / (1 - ||A||).
        """
        A = _cauchy_inverse() * self.kernel_row
        return float(math.sqrt(np.linalg.eigvalsh(A.T @ A)[-1]))

    def ab(self, z):
        """a_+-(z) = p_0^+ +- p_0^- and b_+-(z) = p_1^+ +- p_1^-, from the
        extensions p_j^{sign}(z) at the points z (t-scale of the
        w-substitution w = nu*s): one reciprocal (node, z) matrix against
        the four rows kernel_row * p_j^{sign}."""
        z = np.asarray(z)
        inv = np.add.outer(self.nodes, self.nu * z)
        np.reciprocal(inv, out=inv)
        core = ((self.kernel_row * self.p_tilde).reshape(4, -1) @ inv).reshape(2, 2, -1)
        (p0p, p1p), (p0m, p1m) = _SIGNS[:, None, None] * core \
            + np.stack([np.ones_like(z), z])
        return p0p + p0m, p0p - p0m, p1p + p1m, p1p - p1m


def check_scope(p: ModelParams):
    """Refuse (DomainError) a problem outside the solver's scope, H < 1/2."""
    if p.H < 0.5:
        raise DomainError("the integro-algebraic solver covers H in [1/2, 1)")


def solve_p(nu, p: ModelParams) -> _QPSolution:
    """Direct solve of the four auxiliary integral equations at frequency nu.

    One stacked LU solve of (I - A, I + A), with the right-hand sides
    j = 0, 1 as two columns of each.  Raises SolverError if a system is
    singular or its solution is not finite.
    """
    check_scope(p)
    if nu < NU_MIN:
        raise DomainError(f"nu must be >= {NU_MIN}, got {nu}")
    profile = ThetaProfile(p.alpha, p.beta_eff, nu)
    w, weights = _auxiliary_rule()
    # h is +0.0 at alpha = 1, where theta vanishes identically
    ker = h_weight(w / nu, profile) * np.exp(-w) * weights / math.pi
    # the stack (I - A, I + A), built in place from A = table * ker
    m = len(w)
    systems = np.empty((2, m, m))
    np.multiply(_cauchy_inverse(), ker, out=systems[1])
    np.negative(systems[1], out=systems[0])
    systems.reshape(2, m * m)[:, ::m + 1] += 1.0
    rhs = np.column_stack([np.ones_like(w), w / nu])
    try:
        x = np.linalg.solve(systems, np.stack([rhs, rhs]))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"I -+ A is singular at nu={nu:.4g}: {exc}", stage="solve_p")
    if not np.all(np.isfinite(x)):
        raise SolverError(f"auxiliary solution not finite at nu={nu:.4g}",
                          stage="solve_p")
    # C order, so `ab` takes the four rows without a copy
    return _QPSolution(nu, profile, ker, np.ascontiguousarray(x.transpose(0, 2, 1)))


def evaluate_abxi(solution: _QPSolution):
    """Boundary values a_+-, b_+- at +-i, the factor X(i; nu), and xi, eta, at
    the solution's frequency nu and drift ratio r = beta/nu."""
    prof = solution.profile
    nu, r = solution.nu, prof.r
    ba = prof.b_alpha_nu()
    a_plus_mi, a_minus_mi, b_plus_mi, b_minus_mi = \
        (v[0] for v in solution.ab(np.array([-1j])))
    # p real on the positive axis: values at +i are conjugates of those at -i
    a_plus_pi = np.conj(a_plus_mi)
    a_minus_pi = np.conj(a_minus_mi)
    b_minus_pi = np.conj(b_minus_mi)
    x_i = prof.x_cauchy(1j)
    e = cmath.exp(1j * nu / 2.0)
    xi = e * x_i * (b_plus_mi + (r - ba) * a_plus_mi) \
        + np.conj(e) * np.conj(x_i) * (b_minus_pi + (r - ba) * a_minus_pi)
    eta = e * x_i * a_minus_mi + np.conj(e) * np.conj(x_i) * a_plus_pi
    return {
        "a_plus_mi": complex(a_plus_mi), "a_plus_pi": complex(a_plus_pi),
        "a_minus_mi": complex(a_minus_mi), "a_minus_pi": complex(a_minus_pi),
        "b_plus_mi": complex(b_plus_mi), "b_minus_pi": complex(b_minus_pi),
        "x_beta_i": complex(x_i), "b_alpha_nu": float(ba),
        "xi": complex(xi), "eta": complex(eta),
    }


def _first_guess(n, p: ModelParams):
    """Start of the secant steps: nu_first_order(n, H) plus the drift term
    atan(-beta/nu) evaluated there.  The H = 1/2 roots solve
    nu = (n - 1/2) pi + atan(-beta/nu), so there the guess is off by
    O(n^-3); at alpha = 1, beta = 0 it is exactly (n - 1/2) pi."""
    nu0 = nu_first_order(n, p.H)
    return nu0 + math.atan(-p.beta_eff / nu0)


def find_nu(n, p: ModelParams):
    """Refined frequency: root of Im{xi conj(eta)} near the first-order guess.

    The enumeration is already calibrated: the guess is nu_first_order(n)
    plus the drift term atan(-beta/nu) (`_first_guess`), which reproduces
    nu_n = (n - 1/2) pi exactly in the degenerate case alpha = 1, beta = 0.
    The root is the zero of g(nu) = atan(Im z / Re z), z = xi
    conj(eta): the argument of z reduced mod pi.  g jumps only where Re z = 0,
    halfway between roots, and rises with slope about 1 near each root, so
    the first step is -g(guess) and secant steps follow until a step is at
    most STEP_REL * nu at a point whose residual |Im z| is at most
    RESIDUAL_REL |z|; no bracket is needed.  Returns the last evaluated
    point as (nu, IARefinement, the IARefinement's `solution`); the
    contraction norm is left to the first read of `contraction_norm`.
    """
    check_scope(p)
    if n < DEFAULT_N_MIN:
        raise DomainError(f"refined frequencies start at n = {DEFAULT_N_MIN}")
    guess = _first_guess(n, p)

    def g(nu):
        sol = solve_p(nu, p)
        vals = evaluate_abxi(sol)
        z = vals["xi"] * vals["eta"].conjugate()
        return (math.atan(z.imag / z.real) if z.real else math.copysign(math.pi / 2, z.imag),
                sol, vals)

    nu, (g_nu, sol, vals) = guess, g(guess)
    # |g(guess)| near pi/2 puts the guess near the midpoint of two roots, and
    # either could be found.  With slope 1 the margin refuses a guess whose
    # distances to the two roots differ by less than 2 * TIE_MARGIN = 0.3
    if abs(g_nu) > math.pi / 2 - TIE_MARGIN:
        raise SolverError(f"nu={guess:.6g} is about equally far from two roots of "
                          f"Im(xi eta*) (g = {g_nu:.3g})", stage="find_nu")
    slope = 1.0  # of g near a root, for the first step
    for _ in range(MAX_STEPS):
        step = -g_nu / slope
        prod = vals["xi"] * vals["eta"].conjugate()
        # a step below STEP_REL * nu ends the search only at a point that
        # passes the residual gate: above nu = RESIDUAL_REL / STEP_REL = 1000
        # such a step can leave |Im z| / |z| = |sin g| above RESIDUAL_REL
        if abs(step) <= STEP_REL * nu and abs(prod.imag) <= RESIDUAL_REL * abs(prod):
            break
        nu += step
        if abs(nu - guess) > MAX_OFFSET:
            raise SolverError(f"secant iterate {nu:.6g} is more than {MAX_OFFSET:.3g} "
                              f"from the guess {guess:.6g}", stage="find_nu")
        g_prev, (g_nu, sol, vals) = g_nu, g(nu)
        slope = (g_nu - g_prev) / step
        if not slope > 0.0:  # g rises through its roots; a fall crossed a jump
            raise SolverError(f"secant slope {slope:.3g} of g at nu={nu:.6g} is not "
                              "positive", stage="find_nu")
    else:
        raise SolverError(f"no root of Im(xi eta*) with residual at most {RESIDUAL_REL:.0e} "
                          f"* |xi eta*| within {MAX_STEPS} secant steps from "
                          f"nu={guess:.6g}", stage="find_nu")
    ref = IARefinement(n=n, nu=nu, xi=vals["xi"], eta=vals["eta"],
                       b_alpha_nu=vals["b_alpha_nu"], residual=abs(prod.imag), solution=sol)
    return nu, ref, sol


def _phi_tilde(ref: IARefinement):
    """Normalized forms (Phi~_0, Phi~_1) as one function of the t-scale
    argument, at the root `ref` and from its solution."""
    sol = ref.solution
    nu, r = sol.nu, sol.profile.r
    ba = ref.b_alpha_nu
    ratio = (ref.xi * np.conj(ref.eta)).real / abs(ref.eta) ** 2  # xi/eta, real at a root

    def phi_tilde(zeta):
        zeta = np.asarray(zeta)
        x = sol.profile.x_cauchy(zeta / nu)
        a_p, a_m, b_p, b_m = sol.ab(-zeta / nu)
        return (x * (b_p + (r - ba) * a_p - ratio * a_m),
                x * (b_m + (r - ba) * a_m - ratio * a_p))

    return phi_tilde, ratio


def _layer_panels(nu):
    """Dyadic panel exponents [k_lo, k_hi) covering v in [2^LAYER_LO nu, 2^LAYER_HI nu]."""
    m, e = math.frexp(nu)  # nu = m 2^e with 1/2 <= m < 1
    return e - 1 + LAYER_LO, (e - 1 if m == 0.5 else e) + LAYER_HI


def _pair_terms(n, p: ModelParams, x):
    """One index's root, its xi/eta ratio, the residue part of phi on the grid
    x, and its layer weights on the dyadic panels [2^k, 2^(k+1)],
    k_lo <= k < k_hi, of v = nu*u: w0 against e^{-(1-x) v} and w1 against
    e^{-x v}.  Returns (ref, ratio, residue, k_lo, k_hi, w0, w1)."""
    nu, ref, sol = find_nu(n, p)
    r = p.beta_eff / nu
    phi_tilde, ratio = _phi_tilde(ref)
    p0_inu = phi_tilde(np.array([1j * nu]))[0][0]
    denom = 2.0 / (r * r + 1.0) - p.alpha + 1.0
    res = -2.0 * np.real(np.exp(1j * nu * x) * p0_inu * (1.0 - 1j * r) / denom)
    # layer integral over u = v/nu in (0, inf), du = dv/nu
    k_lo, k_hi = _layer_panels(nu)
    v, vw, _ = doubling_nodes(2.0 ** k_lo, k_hi - k_lo, LAYER_PANEL_NODES)
    u = v / nu
    st = np.sin(sol.profile.theta(u))
    gb = np.abs((u * u - r * r) / (r * r + 1.0)
                + u ** (p.alpha - 1.0) * np.exp(1j * (1.0 - p.alpha) * math.pi / 2.0))
    if np.any(gb <= 0.0):
        raise SolverError("gamma_beta vanished on the layer grid", stage="refined_spectrum")
    p0_m, p1_m = (t.real for t in phi_tilde(-v))
    scale = vw / nu * st / gb
    return ref, ratio, res, k_lo, k_hi, scale * (u + r) * p1_m, scale * (u - r) * p0_m


def _refined_pairs(p: ModelParams, unit_grid: QuadGrid, ns):
    """Refined pairs for the indices ns as columns, phi sampled on `unit_grid`.

    Returns (nu, lam, phi, phi1, phi_integral, [IARefinement per index]).
    All layer integrals share one table of e^{-x v} and e^{-(1-x) v} over the
    union of the indices' panels, built in blocks of LAYER_ROWS grid rows.
    Index n sums over its own panels only, so its pair does not depend on
    which other indices come with it.  The columns are scaled to unit
    weighted-L2 norm and sign-fixed by `_sign_fix`; phi(1) comes from its
    closed form -2 (xi/eta)(1 + r^2) under the same scaling.
    """
    x, w = unit_grid.nodes, unit_grid.weights
    ns = np.asarray(ns, dtype=int)
    terms = [_pair_terms(int(n), p, x) for n in ns]
    refs = [t[0] for t in terms]
    nu = np.array([ref.nu for ref in refs], dtype=float)
    phi = np.empty((len(terms), len(x)))  # one row per index until the end
    if terms:
        k_lo = min(t[3] for t in terms)
        v, _, _ = doubling_nodes(2.0 ** k_lo, max(t[4] for t in terms) - k_lo,
                                 LAYER_PANEL_NODES)
        for lo in range(0, len(x), LAYER_ROWS):
            xb = x[lo:lo + LAYER_ROWS]
            with np.errstate(under="ignore"):
                e_x, e_1x = np.exp(-np.outer(v, xb)), np.exp(-np.outer(v, 1.0 - xb))
            for j, (_, _, res, lo_j, hi_j, w0, w1) in enumerate(terms):
                rows = slice(LAYER_PANEL_NODES * (lo_j - k_lo),
                             LAYER_PANEL_NODES * (hi_j - k_lo))
                phi[j, lo:lo + LAYER_ROWS] = res[lo:lo + LAYER_ROWS] \
                    + (w0 @ e_1x[rows] - w1 @ e_x[rows]) / math.pi
    # row sums, unlike a matrix product, round each row the same way
    # whatever the other rows are
    norm = np.sqrt(np.sum(w * phi ** 2, axis=1))
    if np.any(norm == 0.0):
        raise SolverError("assembled eigenfunction has zero norm",
                          stage="refined_spectrum")
    phi /= norm[:, None]
    r = p.beta_eff / nu
    phi1 = -2.0 * np.array([t[1] for t in terms], dtype=float) * (1.0 + r * r) / norm
    integrals = np.sum(w * phi, axis=1)
    phi = phi.T
    _sign_fix(phi, phi1, integrals, ns)
    lam = lambda_from_nu(nu, p.H, p.beta_eff) * p.T ** (2.0 * p.H)
    return nu, lam, phi, phi1, integrals, refs


def refined_eigenpair(n, p: ModelParams, unit_grid: QuadGrid):
    """Refined (lambda_n, phi_n) with phi sampled on `unit_grid`.

    The eigenfunction combines the residue oscillation with the layer
    integral of the inverse Laplace transform, is rescaled to unit weighted
    L2 norm and sign-fixed (int phi < 0); phi(1) uses its own closed
    expression -2 (xi/eta)(1 + r^2) under the same normalization.  The
    layer integral runs over v = nu*u on the dyadic panels [2^k, 2^(k+1)]
    that cover [2^LAYER_LO nu, 2^LAYER_HI nu], with LAYER_PANEL_NODES
    Gauss-Legendre nodes each.
    """
    nu, lam, phi, phi1, integrals, refs = _refined_pairs(p, unit_grid, [n])
    pair = EigenPair(n=n, lam=float(lam[0]), nu=float(nu[0]), phi=phi[:, 0],
                     phi1=float(phi1[0]), phi_integral=float(integrals[0]))
    return pair, refs[0]


def refined_spectrum(head: Spectrum, n_max) -> Spectrum:
    """The `head` spectrum extended by refined pairs head.n_max + 1 .. n_max
    of the same problem, `head.params`.

    The solver starts at DEFAULT_N_MIN, so the head (the Nystrom oracle on
    the unit grid the refined eigenfunctions are sampled on) must supply the
    indices below it; see `error_analysis.build_spectrum`.  The refined
    columns are the ones `refined_eigenpair` returns, with the exponential
    table of the layer integrals built once.  Refined pairs have grid
    samples and phi(1) only, so the result has no `extend`; it keeps the
    head's Wiener-Hopf table and the head's diagnostics (its eigensolver
    among them).
    """
    nu, lam, phi, phi1, integrals, _ = _refined_pairs(
        head.params, head.grid, range(head.n_max + 1, n_max + 1))
    return Spectrum("refined", head.params, np.concatenate([head.lam, lam]),
                    np.concatenate([np.full(head.n_max, np.nan), nu]), head.grid,
                    np.hstack([head.phi, phi]), np.concatenate([head.phi1, phi1]),
                    np.concatenate([head.phi_integral, integrals]),
                    diagnostics={**head.diagnostics, "head_from_oracle": head.n_max},
                    wiener_hopf=head.wiener_hopf)
