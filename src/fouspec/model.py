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
s_i <= t_j through one evaluator, `_pairs`, at every beta, zero included:
a rank-5 product of per-node factors, minus |t-s|^{2H}/2, plus two lag
terms whose integrals over [0, t-s] are rank-GL_ORDER products of per-node
exponential tables.  An entry costs one power and about 15 elementwise
passes.  `cov_matrix` (upper-triangle blocks in place, mirrored), `cov_row`
(one Nystrom row) and `fou_cov` (one pair) are thin calls into it.  It
refuses beta*T below `MIN_BETA_T`, where e^{+|beta|t} terms cancel off the
diagonal, and every result is scanned once for non-finite entries after the
rescaling by T^{2H} (a matrix by `CovMatrix`).  Two references stay
outside it for cross-checking: `fbm_cov`, the beta = 0 covariance, which
the expansion reproduces bit for bit, and `fou_cov_singular`, an
independent slow-but-honest evaluation of the H > 1/2 singular-kernel
double integral.

All kernels satisfy the rescaling law K_beta(sT, tT) = T^{2H} K_{beta*T}(s, t),
so the assembler works on the unit interval with effective drift beta*T.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import gauss_legendre_01, graded_nodes, jacobi_01
from .exceptions import DomainError

# Gauss order of each 1-d integral: within 6e-12 of order 128 for -1 <= beta*T <=
# 300 (order 32: 4e-4 at 300); at MIN_BETA_T orders 16-64 share one 5e-8 floor.
GL_ORDER = 64

# Most negative beta*T the expansion is trusted at.  Error against the exact
# H = 1/2 covariance, max |dK| / sqrt(K(s,s) K(t,t)) on a 200-node grid:
# 2.5e-9 at beta*T = -12, 3.1e-8 at -15, 6.7e-6 at -20, 0.15 at -30.
# Positive beta*T stays <= 1.1e-13 from +5 to +300.  The rank-5 products
# overflow only with the covariance itself: at H = 1/2, K(1, 1) is exact to
# rounding up to +357 and not finite from +358, which the non-finite check
# refuses.
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


# node distances closer than this (a few ulp on [0,1]) are a tie in `QuadGrid.nearest`
_SNAP_TIE = 4 * np.finfo(float).eps


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

    def nearest(self, u):
        """Index of the node nearest to u, one per entry of an array u.

        A u midway between two nodes, such as u = 1/2 on a grid of even
        size, goes to the lower one: distances that agree to within
        _SNAP_TIE are a tie, so the rounding of the nodes does not decide.
        """
        u = np.asarray(u, dtype=float)
        if self.size == 1:
            return np.zeros(u.shape, dtype=np.intp)
        j = np.clip(np.searchsorted(self.nodes, u), 1, self.size - 1)
        return np.where(self.nodes[j] - u < (u - self.nodes[j - 1]) - _SNAP_TIE, j, j - 1)

    @classmethod
    def gauss_legendre_unit(cls, n):
        if n < 1:
            raise DomainError(f"grid size must be >= 1, got {n}")
        return cls(*gauss_legendre_01(n))


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric kernel matrix K(t_i*T, t_j*T) on `grid`, for the problem `params`.

    Every entry is finite: a matrix with a non-finite entry is refused
    (DomainError) when it is built, by one scan.  The solvers read one
    triangle of `weighted()` only, so they could not see such an entry.

    The matrix owns a writeable C-ordered buffer: the array it is given, or
    a copy of it when that array is read-only or in another order.  The
    eigensolve spends the matrix: it takes the buffer through `weighted()`,
    reduces it in place and frees it, and from then on reading `values`
    raises DomainError.  `CovMatrix(cov.values.copy(), cov.grid,
    cov.params)`, made before, gives a second eigensolve its own matrix.
    `error_analysis.mse_wiener_hopf` only reads `values`, so it runs before
    the eigensolve.
    """

    _values: np.ndarray = field(repr=False)
    grid: QuadGrid
    params: ModelParams = field(repr=False)

    def __post_init__(self):
        v = np.require(self._values, dtype=float, requirements=["C", "W"])
        object.__setattr__(self, "_values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] != self.grid.size:
            raise DomainError("covariance matrix must be square and match the grid")
        if not isinstance(self.params, ModelParams):
            raise DomainError("covariance matrix needs the ModelParams it was built for")
        if not np.isfinite(v).all():
            raise DomainError("covariance matrix has non-finite entries "
                              f"(beta*T = {self.params.beta_eff:g})")

    @property
    def values(self):
        if self._values is None:
            raise DomainError("the covariance matrix was reduced in place by its eigensolve "
                              "and no longer holds K; assemble it again, or copy it "
                              "before the solve")
        return self._values

    def weighted(self):
        """B = W^{1/2} K W^{1/2} as a Fortran-ordered view of K's own buffer,
        which the matrix gives up: the solve that calls this spends it.

        The eigensolvers overwrite B in place, and free it with it.
        """
        B = self._weigh(self.values)
        object.__setattr__(self, "_values", None)
        return B

    def _weigh(self, out):
        """B = W^{1/2} K W^{1/2} written into the C-ordered N x N `out` and
        returned as `out.T`, a Fortran-ordered array.

        `out` takes B' = (K_ij sw_j) sw_i, sw = sqrt(w), in two contiguous
        passes (0.05 s at N = 3000, against 0.155 s for a strided
        Fortran-order build).  K is exactly symmetric, so B'.T is
        (sw_i K_ij) sw_j bit for bit.  `weighted()` passes K's own buffer,
        `error_analysis.mse_wiener_hopf` a buffer of its own.
        """
        sw = np.sqrt(self.grid.weights)
        np.multiply(self.values, sw, out=out)
        out *= sw[:, None]
        return out.T


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


def _node_tables(x, b, c):
    """Every factor of the expansion that depends on one time x_i, over all i.

    "s" and "t" hold the factors of the rank-5 separable part on each side
    of a pair s <= t, "m" and "p" the exponential tables whose products give
    the two lag terms.  Every decaying exponential is multiplied onto its
    growing partner.  e^{bx} int_0^x e^{-bv} dv and Em(x) = int_0^x e^{-2bu} du
    are written with expm1, so they stay accurate for tiny |b|, and take
    their limits x and x(1-z) at b = 0, where every other beta term is an
    exact zero: K is then the fBm covariance bit for bit.
    """
    z, w = jacobi_01(GL_ORDER, c)
    A = np.exp(-b * np.outer(x, z))   # e^{-b x_i z_k}
    B = np.exp(+b * np.outer(x, z))   # e^{+b x_i z_k}
    xc = x ** c
    xc1 = xc * x
    ebx, embx = np.exp(b * x), np.exp(-b * x)
    fm = xc1 * (A @ w)                # F-(x_i) = int_0^x e^{-bv} v^c dv
    fp = xc1 * (B @ w)                # F+(x_i) = int_0^x e^{+bv} v^c dv
    # D_A(s) = int_0^s w^c e^{-bw} Em(s-w) dw, single-variable
    em_s = np.outer(x, 1.0 - z)       # Em(x(1 - z)) at b = 0
    if b:
        em_s = -np.expm1(-2.0 * b * em_s) / (2.0 * b)
    d_a = xc1 * ((A * em_s) @ w)
    # K = S_s . T_t - (t-s)^c / 2 - (b/4) e^{-bs} e^{bt} F-(t-s)
    #     - (b/4) e^{bs} e^{-bt} (F+(t) - F+(t-s))
    s_fac = np.column_stack([0.5 * xc + 0.5 * b * ebx * fm, 0.5 * ebx,
                             0.5 * b * xc + 0.5 * b * b * ebx * fm, 0.25 * b * ebx,
                             -0.5 * b * embx * fp - 0.5 * b * b * ebx * d_a])
    t_fac = np.column_stack([np.ones_like(x), xc, np.expm1(b * x) / b if b else x,
                             ebx * fm, ebx])
    # F-+(t - s) = (t - s)^{c+1} sum_k w_k e^{-+b (t - s) z_k}: the lag tables
    # reuse the entries of A and B, so that F+(t) - F+(t - s) cancels their
    # rounding, and carry the growing and decaying factors of each term
    return {"x": x, "s": s_fac, "t": t_fac, "q": 0.25 * b * ebx, "fp": embx * fp,
            "m_s": (-0.25 * b * embx)[:, None] * (B * w), "m_t": ebx[:, None] * A,
            "p_s": A * w, "p_t": embx[:, None] * B}


def _rows(tab, lo, hi):
    return {k: v[lo:hi] for k, v in tab.items()}


def _pairs(S, T, b, c, out=None, diagonal=0):
    """K(s_i, t_j) on [0,1] from the tables of s and of t; valid where s_i <= t_j.

    Writes into `out` when given.  The first `diagonal` columns pair the rows
    with themselves: their entries below the diagonal (s_i > t_j) are left
    undefined for the caller to mirror.  One power and about 15 elementwise
    passes per entry; F-+(t - s) are rank-GL_ORDER products of the tables.
    """
    K = np.matmul(S["s"], T["t"].T, out=out)
    d = T["x"][None, :] - S["x"][:, None]
    np.maximum(d[:, :diagonal], 0.0, out=d[:, :diagonal])
    dc = d ** c
    d *= dc                           # (t - s)^{c+1}
    dc *= 0.5
    K -= dc
    lag = S["m_s"] @ T["m_t"].T       # -(b/4) e^{b(t-s)} F-(t-s) / (t - s)^{c+1}
    lag *= d
    K += lag
    lag = np.matmul(S["p_s"], T["p_t"].T, out=lag)
    lag *= d                          # e^{-bt} F+(t - s)
    lag -= T["fp"][None, :]
    lag *= S["q"][:, None]
    K += lag
    return K


def _kernel(s, t, p: ModelParams):
    """K(s_i*T, t_j*T) for unit-interval times s_i <= t_j: the one evaluator.

    Works on [0,1] with drift beta*T and rescales by T^{2H}.  With t = None it
    returns the symmetric matrix K(s_i*T, s_j*T): only the upper-triangle
    blocks, `_ROW_BLOCK` rows at a time, are evaluated in place and then
    mirrored.  Refuses beta*T below MIN_BETA_T and, after the rescaling, any
    non-finite pair or row; a symmetric matrix is left to `CovMatrix`'s scan.
    """
    b = p.beta_eff
    if b < MIN_BETA_T:
        raise DomainError(f"beta*T = {b:g} is below {MIN_BETA_T:g}; the covariance "
                          "expansion is not accurate there")
    c = 2.0 * p.H
    symmetric = t is None
    if symmetric:
        t = s
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if symmetric:
            n = len(s)
            tab = _node_tables(s, b, c)
            lower = np.tri(_ROW_BLOCK, k=-1, dtype=bool)
            K = np.empty((n, n))
            for lo in range(0, n, _ROW_BLOCK):
                hi = min(lo + _ROW_BLOCK, n)
                h = hi - lo
                _pairs(_rows(tab, lo, hi), _rows(tab, lo, n), b, c, K[lo:hi, lo:], h)
                K[hi:, lo:hi] = K[lo:hi, hi:].T
                np.copyto(K[lo:hi, lo:hi], K[lo:hi, lo:hi].T, where=lower[:h, :h])
        else:
            K = _pairs(_node_tables(s, b, c), _node_tables(t, b, c), b, c)
        K[s == 0.0] = 0.0  # X_0 = 0 makes K(0, t) = 0 exactly
        K *= p.T ** c
    # the CovMatrix that wraps a symmetric matrix scans it
    if not symmetric and not np.isfinite(K).all():
        raise DomainError(f"covariance is not finite at beta*T = {b:g}")
    return K


def fou_cov(s, t, p: ModelParams):
    """Covariance E[X_s X_t] of the fractional OU signal, scalar arguments.

    A 1x1 call of the assembler.  Each 1-d integral of the
    variation-of-constants expansion is evaluated with a Gauss rule whose
    weight absorbs the algebraic v^{2H} factor, so the result is accurate to
    machine precision for all H in (0,1) and MIN_BETA_T <= beta*T <= 300.
    """
    s, t = sorted((float(s), float(t)))
    if s < 0 or t > p.T:
        raise DomainError("times must lie in [0, T]")
    return float(_kernel(np.array([s / p.T]), np.array([t / p.T]), p)[0, 0])


def spectral_constant(H):
    """C(H) = sin(pi H) Gamma(2H+1), the constant of the fBm spectral density
    that scales the eigenvalue law and the small-noise asymptote."""
    return math.sin(math.pi * H) * math.gamma(2.0 * H + 1.0)


def is_half(H):
    """Whether H is 1/2 to within 1e-12, the one test every route uses: there
    the closed-form OU spectrum applies and the first-order layers vanish."""
    return abs(H - 0.5) <= 1e-12


def c_alpha(alpha):
    """Constant c_alpha = (1 - alpha/2)(1 - alpha) of the H > 1/2 singular kernel."""
    return (1.0 - 0.5 * alpha) * (1.0 - alpha)


_PANEL_RATIO = 0.5  # geometric grading of fou_cov_singular's panels
_PANEL_ORDER = 16  # Gauss nodes per panel of fou_cov_singular


def fou_cov_singular(s, t, p: ModelParams, n_panels: int = 16):
    """Independent H > 1/2 oracle: the double integral of c_a*|u-v|^{-alpha}.

    Splits the inner integral at the diagonal u = v with geometric panel
    grading toward it (`n_panels` panels, each _PANEL_RATIO of the last,
    _PANEL_ORDER nodes each); the innermost sliver uses a Gauss rule with
    the |u-v|^{-alpha} weight.  Kept deliberately separate from `fou_cov` as
    a cross-check route.
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
    zj, wj = jacobi_01(_PANEL_ORDER, -a)

    def one_side(lo, hi, sing):
        # int_lo^hi e^{-b u} |u - sing|^{-alpha} du, sing an endpoint of [lo,hi]
        if hi <= lo:
            return 0.0
        # distances come straight from the rule: recomputed from rounded
        # nodes they can round to 0 next to `sing` when hi - lo is tiny
        dist, weights = graded_nodes(0.0, hi - lo, 0.0, n_panels, _PANEL_ORDER,
                                      _PANEL_RATIO)
        nodes = sing + dist if sing == lo else sing - dist
        acc = np.sum(weights * np.exp(-b * nodes) * dist ** (-a))
        # innermost sliver: Gauss rule with the |u-sing|^{-alpha} weight
        sliver = (hi - lo) * _PANEL_RATIO ** n_panels
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
        nodes, weights = graded_nodes(lo, hi, sing, n_panels, _PANEL_ORDER,
                                      _PANEL_RATIO, cover_sliver=True)
        vals = np.array([inner(v) for v in nodes])
        return np.sum(weights * np.exp(-b * nodes) * vals)

    mid = 0.5 * s
    # beyond 2s, inner(v) still varies on the scale s, hence grading toward 2s
    total = outer(0.0, mid, 0.0) + outer(mid, s, s) \
        + outer(s, min(2.0 * s, t), s) + outer(2.0 * s, t, 2.0 * s)
    return ca * np.exp(b * (s + t)) * total


def cov_matrix(grid: QuadGrid, p: ModelParams) -> CovMatrix:
    """Assemble K_ij = fou_cov(t_i*T, t_j*T, p) on the grid nodes t_i.

    The pairwise quadratures are rank-`GL_ORDER` products of per-node
    exponential tables, so assembly is a handful of GEMMs per block of
    `_ROW_BLOCK` rows.  Only the upper-triangle blocks are computed; the lower
    triangle is their mirror, so the matrix is exactly symmetric.
    """
    return CovMatrix(_kernel(grid.nodes, None, p), grid, p)


def cov_row(xs, p: ModelParams, grid: QuadGrid):
    """Kernel values fou_cov(xs*T, t_j*T) against all grid nodes (Nystrom rows).

    Nodes below xs pair with xs as s, the others as t, so that every
    evaluation has s <= t.
    """
    x = grid.nodes
    xs = np.array([float(xs)])
    k = int(np.searchsorted(x, xs[0]))
    return np.concatenate([_kernel(x[:k], xs, p)[:, 0], _kernel(xs, x[k:], p)[0]])
