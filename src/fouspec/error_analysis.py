"""Filtering/interpolation mean squared error and its small-noise asymptotics.

With (lambda_n, phi_n) the eigenpairs of the signal covariance on [0,1]
(T-scaled as stored in `Spectrum`), the optimal-estimation error at the
relative time u and noise intensity eps is the eigen-series

    P(u, eps) = sum_n eps * lambda_n * phi_n(u)^2 / (eps + mu^2 T lambda_n),

which equals (eps/mu^2) h(u,u) for the solution h of the discretized
Wiener-Hopf equation on the same grid; both evaluations are provided and
must agree to rounding.  As eps -> 0,

    P ~ (eps/mu^2)^{2H/(1+2H)} (sin(pi H) Gamma(2H+1))^{1/(1+2H)}
        / sin(pi/(2H+1))  *  { 1/(2H+1) interior, 1 endpoint },

independent of beta, T and of the interior position.  `convergence_study`
sweeps eps and tabulates the ratios to this limit together with tail and
oscillation diagnostics; `estimate` runs it by the rules of `fouspec mse`
(route, sizing, the snap of u) on the spectrum of `build_spectrum`.

The series mass beyond N = n_max is the integral of the terms over n >= N
under lambda_n = lambda_N (N/n)^(2H+1), with phi_n^2 at its mean phi_bar^2
(2H+1 at the endpoint, 1 inside), in closed form with b = 2H/(2H+1):
    tail = phi_bar^2 N lambda_N / (2H) * 2F1(1, b; b+1; -mu^2 T lambda_N / eps),
with the 2F1 from `hyp2f1_tail`.  In this module only the Wiener-Hopf solve
calls scipy (`scipy.linalg`), which it imports when it runs.
"""

import contextlib
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DomainError, SolverError, TruncationError
from .model import CovMatrix, ModelParams, QuadGrid, cov_matrix, is_half, spectral_constant
from .spectral_oracle import Spectrum, nystrom_eigs, ou_closed_form_eigs

EXCLUDED_TERM_BUDGET = 1e-3  # largest excluded series term, relative to P
TAIL_BUDGET = 2e-2           # estimated excluded series mass, relative to P

# A spectrum request is refused above MEMORY_BUDGET bytes, or the physical
# memory if less.  Peak RSS over the interpreter's (one thread, H = 0.7, two u,
# N = 1000-3000) is 1.6-1.7 doubles per N^2 on the oracle route keeping N/2
# pairs, 1.7-2.0 with the Wiener-Hopf column and 1.2-2.9 on the refined route,
# whose fixed costs weigh most at N = 1000; 8-17 per pair on the others (1e6
# pairs).  The first-order route off H = 1/2 is also charged its one block
# of layer exponentials: up to `asymptotics._CHUNK` rows of the layer rule's
# 640 nodes, 21 MB.  The factors round those up.  DENSE_DOUBLES stays 3,
# so the same requests are refused as before, although the dense peak no
# longer reaches it: 2.1-2.9 was measured while the Wiener-Hopf solve had
# its own matrix and beta = 0 its own kernel, which traced 3.0 matrices
# against 1.44 for the expansion every drift now takes.
MEMORY_BUDGET = 4 * 2 ** 30
DENSE_DOUBLES, PAIR_DOUBLES = 3, 20

# The automatic closed-form truncation of `estimate` stops at CLOSED_FORM_PAIRS.
# There the excluded series mass is about 0.2 n_eff / n_max of P (H = 1/2),
# twice the tail budget of 2e-2 once n_eff >= CLOSED_FORM_PAIRS / 5: such
# runs are refused before the spectrum is built.
CLOSED_FORM_PAIRS = 5_000_000


@dataclass(frozen=True)
class MseReport:
    """Sweep of estimation errors over (eps, u) with ratios to the asymptote."""

    params: ModelParams
    eps_values: np.ndarray
    u_points: np.ndarray
    P_series: np.ndarray                 # shape (n_eps, n_u)
    P_asymptotic: np.ndarray
    ratios: np.ndarray                   # P_series / P_asymptotic
    spectrum_method: str
    truncation_n: int
    P_wiener_hopf: np.ndarray = None
    diagnostics: dict = field(default_factory=dict, repr=False)


def _series_terms(eps, p: ModelParams, lam):
    # eps*lam/(eps + mu^2 T lam): stable for lam -> 0 of either sign
    return eps * lam / (eps + p.mu ** 2 * p.T * lam)


def check_eps(eps):
    """Refuse (DomainError) a noise intensity that is not finite and positive."""
    if not 0.0 < eps < np.inf:
        raise DomainError(f"eps must be finite and positive, got {eps}")


def _check_series_args(eps, spec: Spectrum):
    check_eps(eps)
    if spec.n_max == 0:
        raise DomainError("empty spectrum")


def mse_series(u, eps, spec: Spectrum):
    """Eigen-series value of P(u, eps) for the problem `spec.params`.

    The pairs beyond n_max are left out; `truncation_tail` estimates their mass.
    """
    _check_series_args(eps, spec)
    phi2 = np.asarray(spec.phi_values(u)) ** 2
    return float(_series_terms(eps, spec.params, spec.lam) @ phi2)


_SERIES_REL = 1e-17  # a series stops at the first term below this share of its sum


def _series(term, ratio):
    """term_0 + term_1 + ... with term_k = term_(k-1) * ratio(k), elementwise,
    until every term falls below _SERIES_REL of its running sum."""
    total = term.copy()
    k = 0
    while np.any(np.abs(term) > _SERIES_REL * np.abs(total)):
        k += 1
        term = term * ratio(k)
        total += term
    return total


def hyp2f1_tail(b, y):
    """2F1(1, b; b+1; -y) = b int_0^1 t^(b-1) / (1 + y t) dt for 0 < b < 1 and
    an array y in [0, inf]; y = inf gives 0.

    y <= 2: the Pfaff form (1+y)^-1 sum_k k!/(b+1)_k z^k with z = y/(1+y) <= 2/3,
    whose terms are all positive.  y > 2: the integral over [0, inf) less the
    one over [1, inf), b pi/sin(pi b) y^-b - b sum_k (-1)^k y^(-1-k)/(k+1-b),
    whose term ratio is at most 1/2.  Each series takes at most about 95
    terms; the values agree with `scipy.special.hyp2f1` to within 3e-15
    relative.
    """
    y = np.asarray(y, dtype=float)
    out = np.full(y.shape, np.nan)
    near, far = y <= 2.0, y > 2.0
    z = y[near] / (1.0 + y[near])
    out[near] = _series(np.ones_like(z), lambda k: k / (b + k) * z) / (1.0 + y[near])
    r = 1.0 / y[far]
    total = _series(r / (1.0 - b), lambda k: -r * (k - b) / (k + 1.0 - b))
    out[far] = b * (math.pi / math.sin(math.pi * b) * y[far] ** -b - total)
    return out


def truncation_tail(eps, spec: Spectrum, *, endpoint=False):
    """Series mass beyond n_max (module docstring); `eps` and `endpoint`
    broadcast against each other, and two scalars give a float."""
    p = spec.params
    H = p.H
    lam_n = max(float(spec.lam[-1]), 0.0)
    phi_bar2 = np.where(endpoint, 2.0 * H + 1.0, 1.0)
    b = 2.0 * H / (2.0 * H + 1.0)
    with np.errstate(over="ignore"):  # y = inf gives a zero tail
        y = p.mu ** 2 * p.T * lam_n / np.asarray(eps, dtype=float)
    tail = phi_bar2 * spec.n_max * lam_n / (2.0 * H) * hyp2f1_tail(b, y)
    return float(tail) if tail.ndim == 0 else tail


def effective_terms(eps, p: ModelParams):
    """n_eff = (mu^2 T^(2H+1) / eps)^(1/(2H+1)): up to the constant of
    lambda_n, the index where mu^2 T lambda_n falls to eps, which sets how
    many terms the series needs.  Of eps's float type; inf on overflow."""
    with np.errstate(over="ignore"):
        return (p.mu ** 2 * p.T ** (2.0 * p.H + 1.0) / eps) ** (1.0 / (2.0 * p.H + 1.0))


def check_truncation(eps, spec: Spectrum, *, u=1.0, P=None):
    """Raise TruncationError if eps needs more eigenpairs than `spec` holds.

    Guards both the largest excluded term (term n_max + 1, from lambda_{n_max}
    and the mean phi^2 at u) and the estimated excluded mass; the latter
    matters for slowly decaying tails (small H), where every single excluded
    term can look negligible while their sum is not.  `P` is the series value
    `mse_series(u, eps, spec)`, computed here when the caller does not
    already hold it.
    """
    p, N = spec.params, spec.n_max
    if P is None:
        P = mse_series(u, eps, spec)
    endpoint = u == 1.0
    tail = truncation_tail(eps, spec, endpoint=endpoint)
    n_eff = effective_terms(eps, p)  # only the messages read it; inf is fine
    lam_next = float(spec.lam[-1]) * (N / (N + 1.0)) ** (2.0 * p.H + 1.0)
    worst = float(_series_terms(eps, p, lam_next) * (2.0 * p.H + 1.0 if endpoint else 1.0))
    if worst > EXCLUDED_TERM_BUDGET * P:
        raise TruncationError(
            f"eps={eps:g} needs ~{n_eff:.3g} effective terms; largest excluded "
            f"term {worst:.2e} exceeds {EXCLUDED_TERM_BUDGET:.0e} * P = "
            f"{EXCLUDED_TERM_BUDGET * P:.2e} with n_max={N}")
    if tail > TAIL_BUDGET * P:
        raise TruncationError(
            f"eps={eps:g}: estimated excluded series mass {tail:.2e} exceeds "
            f"{TAIL_BUDGET:.0e} * P = {TAIL_BUDGET * P:.2e} with "
            f"n_max={N} (~{n_eff:.3g} effective terms)")


def cho_factor(a, **kwargs):
    """`scipy.linalg.cho_factor`, imported on the first call: the Wiener-Hopf
    solve is the only user, and the other routes never load `scipy.linalg`
    for it."""
    from scipy.linalg import cho_factor as factor

    return factor(a, **kwargs)


_BLOCK = 128  # rows per block of `_mirror_upper`
_UPPER = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool))


def _mirror_upper(K, sw=None, s=None):
    """Write the mirror of the C-ordered square K's strict lower triangle and
    diagonal into its upper triangle, diagonal included, in row blocks: K_ji
    itself, or ((K_ji sw_j) sw_i) s, the bits of `CovMatrix.weighted()`
    scaled by s.  The off-diagonal rectangles are written directly and the
    diagonal squares through a fixed mask."""
    N = len(K)
    for a in range(0, N, _BLOCK):
        b = min(a + _BLOCK, N)
        square = K[a:b, a:b].T.copy()
        for out, mirror, cols in ((K[a:b, b:], K[b:, a:b].T, slice(b, N)),
                                  (square, square, slice(a, b))):
            if sw is None:
                out[...] = mirror
            else:
                np.multiply(mirror, sw[cols], out=out)
                out *= sw[a:b, None]
                out *= s
        np.copyto(K[a:b, a:b], square, where=_UPPER[:b - a, :b - a])


def mse_wiener_hopf(u, eps, cov: CovMatrix):
    """P(u, eps) from the dense Wiener-Hopf solve on the matrix's grid, with
    mu and T from its params, of shape np.shape(eps) + np.shape(u): a
    float for one eps and one u.

    Each u in [0,1] is snapped to the nearest grid node (`QuadGrid.nearest`:
    the lower one on a tie).  Each eps takes one Cholesky factorization,
    which every u shares; all eps are checked before K is touched.
    Algebraically identical to `mse_series` fed the full spectrum of the
    same matrix at that node.  So at u = 1 this is the value at the last
    node, not at the endpoint where `mse_series` reads phi(1): at N = 300
    (H = 0.7, beta = -1, eps = 1e-3) that node is 1.6e-5 from 1 and the two
    differ by 2.7e-4 relative.  The off-grid formula of ROADMAP item 1,
    evaluated at u itself, closes this gap.

    No new N x N array is made.  The system eps I + mu^2 T B, with B the
    bits of `cov.weighted()`, is written into the upper triangle of K's
    own C-ordered buffer from the strict lower triangle, which `cov_matrix`
    mirrors exactly (K must be exactly symmetric), and Cholesky-factored
    there.  The right-hand sides and the diagonal are read first, and the
    diagonal is put back before each eps's fill.  The upper triangle and
    the diagonal are restored once, after the last eps or when a solve
    raises, so `cov.values` is K again and is left for the eigensolve to
    spend.  While the call runs it is not K, so one `CovMatrix` must not be
    shared with another thread then.  A `CovMatrix` is finite by
    construction, so the solve skips its own scan of the factor.
    """
    from scipy.linalg import cho_solve

    eps_list = np.asarray(eps, dtype=float).ravel().tolist()
    for e in eps_list:
        check_eps(e)
    us = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all((us >= 0.0) & (us <= 1.0)):
        raise DomainError(f"u must lie in [0,1], got {u}")
    p, grid = cov.params, cov.grid
    j = grid.nearest(us)
    sw = np.sqrt(grid.weights)
    K = cov.values
    rhs = p.mu ** 2 * sw[:, None] * K[:, j]
    diagonal = np.diag_indices_from(K)
    saved = K[diagonal]
    P = np.empty((len(eps_list), len(j)))
    try:
        for row, e in zip(P, eps_list):
            K[diagonal] = saved
            _mirror_upper(K, sw, p.mu ** 2 * p.T)
            K[diagonal] += e
            ch = cho_factor(K.T, lower=True, overwrite_a=True, check_finite=False)
            h_cols = cho_solve(ch, rhs, check_finite=False) / sw[:, None]
            row[:] = e / p.mu ** 2 * h_cols[j, np.arange(len(j))]
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Wiener-Hopf system not positive definite: {exc}",
                          stage="mse_wiener_hopf")
    finally:
        _mirror_upper(K)
        K[diagonal] = saved
    P = P.reshape(np.shape(eps) + np.shape(u))
    return float(P) if P.ndim == 0 else P


@dataclass(frozen=True)
class WienerHopfTable:
    """Dense Wiener-Hopf values P(u, eps) read off one kernel matrix.

    Row i holds the values at eps[i]; column k belongs to the grid node
    `nodes[k]` that u_points[k] snaps to (`QuadGrid.nearest`).
    `build_spectrum` reads the table before the eigensolve spends the
    matrix, so a spectrum carries these cells and not the matrix.  The
    solve borrows the spare triangle of `cov`'s own buffer and puts K back,
    so reading the table adds no matrix to K and leaves `cov` to the
    eigensolve.
    """

    eps: np.ndarray
    nodes: np.ndarray
    P: np.ndarray

    @classmethod
    def read(cls, cov: CovMatrix, eps_grid, u_points):
        """One `mse_wiener_hopf` call: a factorization per eps, every u in it."""
        eps = [float(e) for e in eps_grid]
        us = np.atleast_1d(np.asarray(u_points, dtype=float))
        return cls(np.array(eps), cov.grid.nearest(us), mse_wiener_hopf(us, eps, cov))

    def cells(self, grid: QuadGrid, eps_grid, u_points):
        """P at every (eps, u) pair, u snapped on `grid`, the grid the table
        was read on; DomainError for a cell that was not read."""
        rows = [np.flatnonzero(self.eps == e) for e in eps_grid]
        cols = [np.flatnonzero(self.nodes == j) for j in grid.nearest(u_points)]
        if not all(len(k) for k in rows + cols):
            raise DomainError("the Wiener-Hopf column was read at eps = "
                              f"{self.eps.tolist()} on grid nodes {self.nodes.tolist()}; pass "
                              "every requested eps and u to build_spectrum(wiener_hopf=...)")
        return self.P[np.ix_([k[0] for k in rows], [k[0] for k in cols])]


def mse_asymptotic(position, eps, p: ModelParams):
    """Leading small-noise term; `position` is "interior" or "endpoint"."""
    check_eps(eps)
    H = p.H
    base = (eps / p.mu ** 2) ** (2.0 * H / (1.0 + 2.0 * H)) \
        * spectral_constant(H) ** (1.0 / (1.0 + 2.0 * H)) / np.sin(np.pi / (2.0 * H + 1.0))
    if position == "endpoint":
        return float(base)
    if position == "interior":
        return float(base / (2.0 * H + 1.0))
    raise DomainError(f"position must be 'interior' or 'endpoint', got {position!r}")


def build_spectrum(p: ModelParams, method="oracle", n_max=200, grid: QuadGrid = None,
                   grid_size=1000, *, wiener_hopf=None) -> Spectrum:
    """Construct the requested spectrum source for error sweeps: the one
    place in the package that turns a problem into a spectrum, for `mse`,
    `eigs` and the acceptance suite (`validation`) alike.

    oracle         : Nystrom eigensolve on a Gauss-Legendre grid
    closed_form_ou : exact H = 1/2 spectrum (requires H = 1/2)
    first_order    : two-term frequencies and the eigenvalue formula
    refined        : oracle pairs below the solver's reach, then the
                     integro-algebraic solver (H >= 1/2)

    The dense routes (oracle, refined) assemble an N x N kernel matrix on
    `grid`, else on the Gauss-Legendre grid of `grid_size` nodes, and keep
    the grid with their eigenfunction samples.  The others have no grid:
    their `extend` evaluates the eigenfunctions at any u.  Before any grid
    or array is built, DomainError refuses n_max < 1 on every route, a
    `grid` or `wiener_hopf` on a route without a matrix, a dense request
    with n_max above N, a request whose arrays would exceed MEMORY_BUDGET,
    and the refined route at H < 1/2.

    `wiener_hopf` = (eps_grid, u_points) asks a dense route for the dense
    Wiener-Hopf column: `WienerHopfTable.read` solves it on the assembled
    matrix before the eigensolve spends that matrix, and the
    spectrum keeps the table as `wiener_hopf`.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    dense = method in ("oracle", "refined")
    N = grid_size if grid is None else grid.size
    if not dense and (grid is not None or wiener_hopf is not None):
        raise DomainError("a grid and the Wiener-Hopf column need a kernel matrix: only the "
                          f"oracle and refined routes assemble one, not {method!r}")
    if dense and n_max > N:
        raise DomainError(f"n_max={n_max} exceeds the grid size {N}; "
                          "raise grid_size or lower n_max (--N-unit, --n-max)")
    if dense:
        need, size = DENSE_DOUBLES * N ** 2, f"N = {N} grid nodes"
    else:
        need, size = PAIR_DOUBLES * n_max, f"n_max = {n_max} pairs"
    if method == "first_order" and not is_half(p.H):  # one block of layer exponentials
        from . import asymptotics as a

        need += min(a._CHUNK, n_max) * a._LAYER_PANELS * a._LAYER_M
    need *= 8
    budget = MEMORY_BUDGET
    with contextlib.suppress(AttributeError, ValueError, OSError):  # no sysconf
        budget = min(budget, os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    if need > budget:
        raise DomainError(f"the {method} spectrum at {size} needs about {need / 2 ** 30:.3g} "
                          f"GiB, above the {budget / 2 ** 30:.3g} GiB budget; lower "
                          "grid_size or n_max (--N-unit, --n-max), or raise the smallest eps")
    if dense:
        if method == "refined":
            from . import ia_refine  # the other routes never load the solver

            ia_refine.check_scope(p)
        if grid is None:
            grid = QuadGrid.gauss_legendre_unit(grid_size)
        # one matrix at a time: K is read for the Wiener-Hopf cells, then the
        # eigensolve weights and reduces it in place and frees it
        cov = cov_matrix(grid, p)
        table = None if wiener_hopf is None else WienerHopfTable.read(cov, *wiener_hopf)
        # the refined route keeps only the head pairs below the solver's start
        n_head = n_max if method == "oracle" else min(n_max, ia_refine.DEFAULT_N_MIN - 1)
        head = replace(nystrom_eigs(cov, n_head), wiener_hopf=table)
        return head if method == "oracle" else ia_refine.refined_spectrum(head, n_max)
    if method == "closed_form_ou":
        return ou_closed_form_eigs(p, n_max)
    if method == "first_order":
        from . import asymptotics

        n = np.arange(1, n_max + 1)
        nu = asymptotics.nu_first_order(n, p.H)
        lam = asymptotics.lambda_from_nu(nu, p.H, p.beta_eff) * p.T ** (2.0 * p.H)
        phi1 = asymptotics.phi_first_order(1.0, n, p.H)
        integ = asymptotics.phi_integral_first_order(n, p.H)
        return Spectrum("first_order", p, lam, nu, None, None, phi1, integ,
                        extend=lambda spec, u: asymptotics.phi_first_order(
                            u, n, spec.params.H))
    raise DomainError(f"unknown spectrum method {method!r}")


def convergence_study(spec: Spectrum, eps_grid, u_points) -> MseReport:
    """Sweep P over decreasing eps and u, with ratios to the asymptote.

    The problem is `spec.params`.  A spectrum that carries a Wiener-Hopf
    table (`build_spectrum(..., wiener_hopf=...)`) also reports its cells as
    `P_wiener_hopf`.  Raises TruncationError when the smallest eps needs more
    eigenpairs than `spec` holds (see `check_truncation`), and DomainError
    when a tabulated value is not finite (eps/mu^2 outside the float range)
    or when the table lacks a requested (eps, u) cell.  Also records the
    oscillation diagnostic I2 = P(u) - I1, where I1 is the series with phi^2
    replaced by its interior mean 1: I2 must stay O(eps), i.e. vanish faster
    than the main term.
    """
    p = spec.params
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    u_points = np.asarray(list(u_points), dtype=float)
    if len(eps_grid) == 0 or not np.all(np.diff(eps_grid) < 0):
        raise DomainError("eps_grid must be strictly decreasing")
    if not np.all((u_points > 0) & (u_points <= 1)):
        raise DomainError("u_points must lie in (0, 1]")
    _check_series_args(eps_grid[-1], spec)
    P_wh = None
    if spec.wiener_hopf is not None:
        P_wh = spec.wiener_hopf.cells(spec.grid, eps_grid, u_points)
    endpoint = u_points == 1.0
    phi2 = [np.asarray(spec.phi_values(float(u))) ** 2 for u in u_points]
    P_series, i1 = [], []
    # Python floats, so that eps + array reuses the array's temporary
    for eps in eps_grid.tolist():
        terms = _series_terms(eps, p, spec.lam)
        # one dot product per cell: a matrix product would round differently
        P_series.append([float(terms @ f) for f in phi2])
        i1.append(float(np.sum(terms)))
        del terms  # freed before the next eps's terms are formed
    P_series = np.array(P_series)
    # the smallest eps row is exactly what mse_series gives at each u
    for u, P in zip(u_points, P_series[-1]):
        check_truncation(eps_grid[-1], spec, u=float(u), P=float(P))
    I2 = P_series - np.array(i1)[:, None]
    tails = truncation_tail(eps_grid[:, None], spec, endpoint=endpoint)
    P_asym = np.array([[mse_asymptotic("endpoint" if e else "interior", float(eps), p)
                        for e in endpoint] for eps in eps_grid])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = P_series / P_asym
    cells = {"P_series": P_series, "P_asymptotic": P_asym, "ratio": ratios,
             "tail_est": tails, "P_wiener_hopf": P_wh}
    bad = [k for k, v in cells.items() if v is not None and not np.all(np.isfinite(v))]
    if bad:
        raise DomainError(f"{', '.join(bad)} not finite at mu = {p.mu:g}: "
                          "eps/mu^2 leaves the float range")
    diagnostics = {
        "tails": tails,
        "I2": I2,
        "I2_over_eps": I2 / eps_grid[:, None],
        "monotone_in_eps": bool(np.all(np.diff(P_series, axis=0) <= 1e-12)),
    }
    return MseReport(params=p, eps_values=eps_grid, u_points=u_points,
                     P_series=P_series, P_asymptotic=P_asym,
                     ratios=ratios, spectrum_method=spec.method,
                     truncation_n=spec.n_max, P_wiener_hopf=P_wh,
                     diagnostics=diagnostics)


def estimate(p: ModelParams, eps, u, *, spectrum="oracle", n_max=0, grid_size=0,
             with_wh=False) -> MseReport:
    """The errors `fouspec mse` prints: P at every eps and relative time u
    for the problem `p`, with the ratios to the asymptote.

    The one door from a request to an `MseReport`; `convergence_study` does
    the sweep.  `spectrum` names the route of `build_spectrum`, and the
    oracle at H = 1/2 is swapped for the exact closed form unless `with_wh`
    asks for the dense Wiener-Hopf column, which needs the oracle's matrix.
    n_max = 0 sizes the truncation from the smallest eps: max(1500, 5 n_eff)
    pairs (`effective_terms`), and on the closed form at least 200 n_eff,
    capped at CLOSED_FORM_PAIRS.  grid_size = 0 takes max(3000, 2 n_max)
    nodes.  An interior u is snapped to its nearest grid node
    (`QuadGrid.nearest`) on a route with a grid, and the report's
    `u_points` echo the snapped values; eps comes back sorted decreasing.
    DomainError refuses an empty or invalid eps or u list, duplicate eps,
    and an auto n_max that overflows; TruncationError refuses an auto
    closed form that its cap cannot serve, before the spectrum is built.
    `build_spectrum` and `convergence_study` add their own refusals.
    """
    if len(eps) == 0:
        raise DomainError("eps must be a nonempty list (--eps)")
    if len(u) == 0:
        raise DomainError("u must be a nonempty list (--u)")
    # before the auto n_max divides by eps and u is snapped into the grid
    for e in eps:
        check_eps(e)
    if not all(0.0 < x <= 1.0 for x in u):
        raise DomainError(f"u must lie in (0, 1], got {u}")
    eps = sorted((float(e) for e in eps), reverse=True)
    if len(set(eps)) != len(eps):
        raise DomainError("duplicate eps values")
    if spectrum == "oracle" and is_half(p.H) and not with_wh:
        # at H = 1/2 the exact closed form IS the brute-force spectrum and allows
        # the deep truncations the power-law tail needs; it has no grid for with_wh
        spectrum = "closed_form_ou"
    if not n_max:
        n_eff = effective_terms(eps[-1], p)
        if not n_eff < np.inf:
            raise DomainError("cannot size the spectrum: mu^2 T^(2H+1) / eps overflows at "
                              f"eps = {eps[-1]:.3g}; set n_max and grid_size (--n-max, --N-unit)")
        n_max = max(1500, int(5 * n_eff))
        if spectrum == "closed_form_ou":
            if n_eff >= CLOSED_FORM_PAIRS / 5:
                raise TruncationError(
                    f"eps={eps[-1]:g} needs ~{n_eff:.3g} effective terms, and the closed "
                    f"form stops at n_max={CLOSED_FORM_PAIRS}: from "
                    f"{CLOSED_FORM_PAIRS / 5:.3g} effective terms on, its excluded series "
                    "mass exceeds the tail budget; raise the smallest eps")
            n_max = min(max(n_max, int(200 * n_eff)), CLOSED_FORM_PAIRS)
    spec = build_spectrum(p, spectrum, n_max=n_max, grid_size=grid_size or max(3000, 2 * n_max),
                          wiener_hopf=(eps, u) if with_wh else None)
    us = [x if spec.grid is None or x == 1.0 else float(spec.grid.nodes[spec.grid.nearest(x)])
          for x in map(float, u)]
    return convergence_study(spec, eps, us)
