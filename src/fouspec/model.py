"""Problem parameters and covariance kernels of the fractional OU signal.

The signal is X_t = beta * int_0^t X_s ds + B^H_t driven by fractional
Brownian motion with Hurst exponent H.  Its covariance admits the
variation-of-constants form

    K(s,t) = R(s,t) + beta*int_0^t e^{beta(t-v)} R(s,v) dv
                    + beta*int_0^s e^{beta(s-u)} R(u,t) du
                    + beta^2*int_0^s int_0^t e^{beta(s-u)+beta(t-v)} R(u,v) dv du,

with R the fBm covariance.  Since R is continuous this single formula is
valid for every H in (0,1).  Expanding R termwise reduces everything to
one-dimensional integrals of e^{sigma*w} * w^{2H}, which Gauss rules with a
w^{2H} endpoint weight integrate to machine precision, so the kernel needs
no 2-d quadrature at all.

One assembler, `_kernel`, evaluates the expansion for a block of pairs
s_i <= t_j: per-node exponential tables turn every pairwise quadrature
into a GEMM.  `cov_matrix` (upper-triangle blocks, mirrored), `cov_row`
(one Nystrom row) and `fou_cov` (one pair) are thin calls into it.  It
refuses beta*T below `MIN_BETA_T`, where e^{+|beta|t} terms cancel off the
diagonal, and any non-finite result.  `fou_cov_singular` keeps an
independent slow-but-honest evaluation of the H > 1/2 singular-kernel
double integral for cross-checking.

All kernels satisfy the rescaling law K_beta(sT, tT) = T^{2H} K_{beta*T}(s, t),
so the assembler works on the unit interval with effective drift beta*T.
"""

from dataclasses import dataclass, field

import numpy as np

from ._quad import gauss_legendre_01, graded_nodes, jacobi_01
from .exceptions import DomainError

DEFAULT_GL_ORDER = 64

# Most negative beta*T the expansion is trusted at.  Error against the exact
# H = 1/2 covariance, max |dK| / sqrt(K(s,s) K(t,t)) on a 200-node grid:
# 1.4e-9 at beta*T = -12, 3.3e-8 at -15, 4.2e-6 at -20, 9.4e-2 at -30.
# Positive beta*T stays <= 1e-13 from +5 to +300; from about +350 the
# exponentials overflow, which the non-finite check refuses.
MIN_BETA_T = -12.0

_ROW_BLOCK = 128  # rows per block of cov_matrix: bounds the pairwise temporaries


@dataclass(frozen=True)
class ModelParams:
    """Constants of the estimation problem.

    H     : Hurst exponent, 0 < H < 1
    beta  : drift coefficient (1/time), (beta*T)^2 finite
    mu    : observation gain, mu^2 positive and finite
    T     : horizon, > 0 with T^(2H+1) finite
    alpha : derived, alpha = 2 - 2H
    """

    H: float
    beta: float = 0.0
    mu: float = 1.0
    T: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.H < 1.0:
            raise DomainError(f"H must lie in (0,1), got {self.H}")
        if not self.T > 0.0:
            raise DomainError(f"T must be positive, got {self.T}")
        # the formulas raise these to powers as Python floats, which overflow
        # with OverflowError, not inf; mu^2 = 0 would divide by zero
        with np.errstate(over="ignore", under="ignore"):
            powers = np.float64([self.mu, self.beta_eff, self.T]) ** [2, 2, 2 * self.H + 1]
        if not (powers[0] > 0.0 and np.all(powers < np.inf)):
            raise DomainError("beta, mu and T must be finite, with mu^2 > 0 and mu^2, "
                              f"(beta*T)^2, T^(2H+1) finite; got beta = {self.beta}, "
                              f"mu = {self.mu}, T = {self.T}")

    @property
    def alpha(self):
        return 2.0 - 2.0 * self.H

    @property
    def beta_eff(self):
        """Drift of the unit-interval problem: beta * T."""
        return self.beta * self.T


@dataclass(frozen=True)
class QuadGrid:
    """Quadrature rule on the unit interval: strictly increasing nodes in
    (0,1) and positive weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise DomainError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise DomainError("weights must be positive")
        if nodes[0] <= 0.0 or nodes[-1] >= 1.0:
            raise DomainError("nodes must lie in (0,1)")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1")

    @property
    def size(self):
        return len(self.nodes)

    @classmethod
    def gauss_legendre_unit(cls, n):
        if n < 1:
            raise DomainError(f"grid size must be >= 1, got {n}")
        return cls(*gauss_legendre_01(n))


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric kernel matrix K(t_i*T, t_j*T) on `grid`, for the problem `params`."""

    values: np.ndarray
    grid: QuadGrid
    params: ModelParams = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] != self.grid.size:
            raise DomainError("covariance matrix must be square and match the grid")
        if not isinstance(self.params, ModelParams):
            raise DomainError("covariance matrix needs the ModelParams it was built for")


def fbm_cov(s, t, H):
    """fBm covariance (t^{2H} + s^{2H} - |t-s|^{2H}) / 2.  Vectorizes over s, t."""
    if not 0.0 < H < 1.0:
        raise DomainError(f"H must lie in (0,1), got {H}")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise DomainError("fbm_cov requires nonnegative times")
    c = 2.0 * H
    out = 0.5 * (np.abs(t) ** c + np.abs(s) ** c - np.abs(t - s) ** c)
    return out if out.ndim else float(out)


def _node_tables(x, b, c, m):
    """Every factor of the expansion that depends on one time x_i, over all i.

    b != 0; Ebv(x) = int_0^x e^{-bv} dv and Em(x) = int_0^x e^{-2bu} du are
    written with expm1, so they stay accurate for tiny |b|.
    """
    z, w = jacobi_01(m, c)
    A = np.exp(-b * np.outer(x, z))   # e^{-b x_i z_k}
    B = np.exp(+b * np.outer(x, z))   # e^{+b x_i z_k}
    xc1 = x ** (c + 1.0)
    # D_A(s) = int_0^s w^c e^{-bw} Em(s-w) dw, single-variable
    em_s = -np.expm1(-2.0 * b * np.outer(x, 1.0 - z)) / (2.0 * b)
    return {"x": x, "xc": x ** c, "ebx": np.exp(b * x), "embx": np.exp(-b * x),
            "em2bx": np.exp(-2.0 * b * x), "ebv": -np.expm1(-b * x) / b,
            "emv": -np.expm1(-2.0 * b * x) / (2.0 * b),
            "fm": xc1 * (A @ w),      # F-(x_i) = int_0^x e^{-bv} v^c dv
            "fp": xc1 * (B @ w),      # F+(x_i) = int_0^x e^{+bv} v^c dv
            "d_a": xc1 * ((A * em_s) @ w),
            "A": A, "B": B, "Aw": A * w, "Bw": B * w}


def _rows(tab, lo, hi):
    return {k: v[lo:hi] for k, v in tab.items()}


def _pairs(S, T, b, c):
    """K(s_i, t_j) on [0,1] from the tables of s and of t; valid where s_i <= t_j."""
    s, t = S["x"][:, None], T["x"][None, :]
    sc, ebs, embs, ebvs, emvs, fms, fps = (S[k][:, None] for k in
                                           ("xc", "ebx", "embx", "ebv", "emv", "fm", "fp"))
    tc, ebt, embt, em2bt, ebvt, fmt, fpt = (T[k][None, :] for k in
                                            ("xc", "ebx", "embx", "em2bx", "ebv", "fm", "fp"))
    delta = t - s
    # F+-(t - s) via exponential table factorization:
    # sum_k w_k e^{-+b (t - s) z_k} is a rank-m product of the two tables
    dpow = np.where(delta > 0, np.abs(delta) ** (c + 1.0), 0.0)
    fm_d = dpow * (S["Bw"] @ T["A"].T)
    fp_d = dpow * (S["Aw"] @ T["B"].T)
    t1 = 0.5 * (sc + tc - np.abs(delta) ** c)
    t2 = b * ebt * (0.5 * sc * ebvt + 0.5 * fmt - 0.5 * embs * (fps + fm_d))
    t3 = b * ebs * (0.5 * tc * ebvs + 0.5 * fms - 0.5 * embt * (fpt - fp_d))
    # cross term of the double integral, split at the diagonal
    p2 = (fmt - fm_d) / (2.0 * b) - em2bt / (2.0 * b) * (fpt - fp_d)
    d_cross = S["d_a"][:, None] + emvs * fm_d + p2
    t4 = b * b * np.exp(b * (s + t)) * (0.5 * fms * ebvt + 0.5 * ebvs * fmt - 0.5 * d_cross)
    return t1 + t2 + t3 + t4


def _kernel(s, t, p: ModelParams, m):
    """K(s_i*T, t_j*T) for unit-interval times s_i <= t_j: the one evaluator.

    Works on [0,1] with drift beta*T and rescales by T^{2H}.  With t = None it
    returns the symmetric matrix K(s_i*T, s_j*T): only the upper-triangle
    blocks, `_ROW_BLOCK` rows at a time, are evaluated and then mirrored.
    Refuses beta*T below MIN_BETA_T and any non-finite result.
    """
    if m < 2:
        raise DomainError(f"gl_order must be >= 2, got {m}")
    b = p.beta_eff
    if b < MIN_BETA_T:
        raise DomainError(f"beta*T = {b:g} is below {MIN_BETA_T:g}; the covariance "
                          "expansion is not accurate there")
    c = 2.0 * p.H
    symmetric = t is None
    if symmetric:
        t = s
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if abs(b) < np.finfo(float).tiny:
            # beta = 0, or subnormal: the beta terms vanish below rounding, and
            # the 1/b factors of the expansion would overflow
            K = 0.5 * (s[:, None] ** c + t[None, :] ** c
                       - np.abs(t[None, :] - s[:, None]) ** c)
        elif symmetric:
            n = len(s)
            tab = _node_tables(s, b, c, m)
            lower = np.tri(_ROW_BLOCK, k=-1, dtype=bool)
            K = np.empty((n, n))
            for lo in range(0, n, _ROW_BLOCK):
                hi = min(lo + _ROW_BLOCK, n)
                h = hi - lo
                blk = _pairs(_rows(tab, lo, hi), _rows(tab, lo, n), b, c)
                K[lo:hi, hi:] = blk[:, h:]
                K[hi:, lo:hi] = blk[:, h:].T
                K[lo:hi, lo:hi] = np.where(lower[:h, :h], blk[:, :h].T, blk[:, :h])
        else:
            K = _pairs(_node_tables(s, b, c, m), _node_tables(t, b, c, m), b, c)
    K[s == 0.0] = 0.0  # X_0 = 0 makes K(0, t) = 0 exactly
    if not np.all(np.isfinite(K)):
        raise DomainError(f"covariance is not finite at beta*T = {b:g}")
    K *= p.T ** c
    return K


def fou_cov(s, t, p: ModelParams, gl_order: int = DEFAULT_GL_ORDER):
    """Covariance E[X_s X_t] of the fractional OU signal, scalar arguments.

    A 1x1 call of the assembler.  Each 1-d integral of the
    variation-of-constants expansion is evaluated with a `gl_order`-point
    Gauss rule whose weight absorbs the algebraic v^{2H} factor, so the
    result is accurate to machine precision for all H in (0,1) and
    MIN_BETA_T <= beta*T <= 300.
    """
    s, t = sorted((float(s), float(t)))
    if s < 0 or t > p.T:
        raise DomainError("times must lie in [0, T]")
    return float(_kernel(np.array([s / p.T]), np.array([t / p.T]), p, gl_order)[0, 0])


def c_alpha(alpha):
    """Constant c_alpha = (1 - alpha/2)(1 - alpha) of the H > 1/2 singular kernel."""
    return (1.0 - 0.5 * alpha) * (1.0 - alpha)


def fou_cov_singular(s, t, p: ModelParams, n_panels: int = 16, ratio: float = 0.5,
                     panel_order: int = 16):
    """Independent H > 1/2 oracle: the double integral of c_a*|u-v|^{-alpha}.

    Splits the inner integral at the diagonal u = v with geometric panel
    grading toward it; the innermost sliver uses a Gauss rule with the
    |u-v|^{-alpha} weight.  Kept deliberately separate from `fou_cov` as a
    cross-check route.
    """
    if p.H <= 0.5:
        raise DomainError("fou_cov_singular requires H > 1/2")
    s = float(s)
    t = float(t)
    if s < 0 or t < 0 or s > p.T or t > p.T:
        raise DomainError("times must lie in [0, T]")
    if s > t:
        s, t = t, s
    if s == 0.0:
        return 0.0
    a = p.alpha
    b = p.beta
    ca = c_alpha(a)
    zj, wj = jacobi_01(panel_order, -a)

    def one_side(lo, hi, sing):
        # int_lo^hi e^{-b u} |u - sing|^{-alpha} du, sing an endpoint of [lo,hi]
        if hi <= lo:
            return 0.0
        # distances come straight from the rule: recomputed from rounded
        # nodes they can round to 0 next to `sing` when hi - lo is tiny
        dist, weights = graded_nodes(0.0, hi - lo, 0.0, n_panels, panel_order, ratio)
        nodes = sing + dist if sing == lo else sing - dist
        acc = np.sum(weights * np.exp(-b * nodes) * dist ** (-a))
        # innermost sliver: Gauss rule with the |u-sing|^{-alpha} weight
        sliver = (hi - lo) * ratio ** n_panels
        u = sing + sliver * zj if sing == lo else sing - sliver * zj
        acc += sliver ** (1.0 - a) * np.sum(wj * np.exp(-b * u))
        return acc

    def inner(v):
        # int_0^s e^{-b u} |u - v|^{-alpha} du for one v > 0
        if v >= s:
            # singular point sits at or beyond u = s: difference of two
            # integrals that both end at the singularity
            return one_side(0.0, v, v) - one_side(s, v, v)
        return one_side(0.0, v, v) + one_side(v, s, v)

    def outer(lo, hi, sing):
        # graded outer quadrature of e^{-b v} * inner(v) toward the weak kink
        # at `sing`; the integrand stays finite there, so the sliver is covered
        if hi <= lo:
            return 0.0
        nodes, weights = graded_nodes(lo, hi, sing, n_panels, panel_order, ratio,
                                      cover_sliver=True)
        vals = np.array([inner(v) for v in nodes])
        return np.sum(weights * np.exp(-b * nodes) * vals)

    mid = 0.5 * s
    # beyond 2s, inner(v) still varies on the scale s, hence grading toward 2s
    total = outer(0.0, mid, 0.0) + outer(mid, s, s) \
        + outer(s, min(2.0 * s, t), s) + outer(2.0 * s, t, 2.0 * s)
    return ca * np.exp(b * (s + t)) * total


def cov_matrix(grid: QuadGrid, p: ModelParams, gl_order: int = DEFAULT_GL_ORDER) -> CovMatrix:
    """Assemble K_ij = fou_cov(t_i*T, t_j*T, p) on the grid nodes t_i.

    The pairwise quadratures are rank-`gl_order` products of per-node
    exponential tables, so assembly is a handful of GEMMs per block of
    `_ROW_BLOCK` rows.  Only the upper-triangle blocks are computed; the lower
    triangle is their mirror, so the matrix is exactly symmetric.
    """
    return CovMatrix(_kernel(grid.nodes, None, p, gl_order), grid, p)


def cov_row(xs, p: ModelParams, grid: QuadGrid, gl_order: int = DEFAULT_GL_ORDER):
    """Kernel values fou_cov(xs*T, t_j*T) against all grid nodes (Nystrom rows).

    Nodes below xs pair with xs as s, the others as t, so that every
    evaluation has s <= t.
    """
    x = grid.nodes
    xs = np.array([float(xs)])
    k = int(np.searchsorted(x, xs[0]))
    return np.concatenate([_kernel(x[:k], xs, p, gl_order)[:, 0],
                           _kernel(xs, x[k:], p, gl_order)[0]])
