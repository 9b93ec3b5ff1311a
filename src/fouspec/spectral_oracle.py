"""Reference spectra of the covariance operator on the unit interval.

`nystrom_eigs` discretizes K*phi = lambda*phi with the grid quadrature and
solves the symmetrized matrix problem; it is the brute-force oracle every
approximation is judged against.  Every solve goes through `eigh`: ARPACK
Lanczos for at most N/20 kept pairs, the factored full reduction above.
`ou_closed_form_eigs` provides the exact H = 1/2 spectrum: lambda_n =
1/(nu_n^2 + beta^2) with nu/beta = tan(nu) and eigenfunctions proportional
to sqrt(2) sin(nu_n x).  Its roots come from array Newton iterations on
the pole-free arctan form of each tan branch; only the (at most one) root
or head mode near 0 is bisected.

Sign convention for all spectra: int_0^1 phi_n < 0, ties (|int phi_n| <=
1e-12) broken by phi_n(1) * (-1)^n < 0, so eigenfunctions from different
routes are comparable without alignment.  The sampled routes (this oracle
and `ia_refine`) apply it with `_sign_fix`; the closed forms satisfy it by
construction.

The closed form needs no scipy; the oracle's solvers import the
`scipy.linalg` and `scipy.sparse.linalg` pieces they call where they call
them.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .exceptions import DomainError, SolverError
from .model import CovMatrix, ModelParams, QuadGrid, cov_row, is_half

_INTEGRAL_TIE_TOL = 1e-12
PSD_TOL = 1e-10  # refuse a matrix whose min eigenvalue / trace is below -PSD_TOL
LANCZOS_FRACTION = 0.05  # up to this share of the pairs, Lanczos solves for the kept ones
# lambda_n carries a rounding error of about 0.1 eps lambda_1: refuse ratios below
ROUNDING_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class EigenPair:
    """One solution of K*phi = lambda*phi (1-based index, decreasing lambda)."""

    n: int
    lam: float
    nu: float = None
    phi: np.ndarray = field(default=None, repr=False)
    phi1: float = None
    phi_integral: float = None


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenpairs n = 1..n_max of one covariance operator.

    `lam` holds eigenvalues of the kernel fou_cov(uT, vT) viewed on
    L^2([0,1], du), i.e. T^{2H} times the unit-interval eigenvalues of the
    drift-beta*T kernel.  `phi` columns are eigenfunction samples on
    `grid.nodes` with unit weighted-L2 norm: the route's `samples`, or, for
    the oracle, W^{-1/2} V from its `vectors` V, which are kept factored
    (see `Eigenvectors`) and formed into `phi` only on its first read, then
    cached (1.0 s and 0.5 matrices more at N = 3000 with 1500 pairs).  The
    factored oracle spectrum holds 1.06 matrices there (the reflector panels
    and the kept vectors), and building it peaks at 1.56 (`eigh`).
    `extend(spectrum, u)` gives phi_n(u) for all n at any u in [0,1]; the
    route that builds the spectrum sets it, or leaves it None when it has
    no off-grid evaluator.  `method` only labels the route.  No spectrum
    keeps its kernel matrix: the eigensolve spends it, reducing it in
    place, so the dense routes of `build_spectrum` read the requested
    Wiener-Hopf values off it first and keep them as `wiener_hopf`
    (`error_analysis.WienerHopfTable`).
    """

    method: str
    params: ModelParams
    lam: np.ndarray
    nu: np.ndarray = None
    grid: QuadGrid = None
    samples: np.ndarray = field(default=None, repr=False)
    phi1: np.ndarray = None
    phi_integral: np.ndarray = None
    diagnostics: dict = field(default_factory=dict, repr=False)
    wiener_hopf: "WienerHopfTable" = field(default=None, repr=False)  # dense route only
    extend: Callable = field(default=None, repr=False)
    vectors: "Eigenvectors" = field(default=None, repr=False)  # oracle only

    @property
    def n_max(self):
        return len(self.lam)

    @cached_property
    def phi(self):
        """Samples on `grid.nodes`, one column per pair; formed once for the oracle."""
        if self.vectors is None:
            return self.samples
        return np.asarray(self.vectors) / np.sqrt(self.grid.weights)[:, None]

    def phi_values(self, u):
        """Eigenfunction values phi_n(u) for one point u in [0,1], all n.

        The sample at a grid node, else phi1 at u = 1, else `extend`.  The
        oracle reads a node's sample through its factored vectors, never
        through a formed `phi`, so the values do not depend on whether `phi`
        was read before.
        """
        if not 0.0 <= u <= 1.0:
            raise DomainError(f"u must lie in [0,1], got {u}")
        if self.grid is not None and (self.samples is not None or self.vectors is not None):
            k = int(self.grid.nearest(u))
            if abs(self.grid.nodes[k] - u) < 1e-12:
                if self.vectors is None:
                    return self.samples[k, :].copy()
                e = np.zeros(self.grid.size)
                e[k] = 1.0
                return self.vectors.project(e)[0] / math.sqrt(self.grid.weights[k])
        if u == 1.0 and self.phi1 is not None:
            return self.phi1.copy()
        if self.extend is not None:
            return self.extend(self, u)
        raise DomainError(f"spectrum has no samples at u={u} and no off-grid "
                          "evaluator; use a grid node or u = 1")


class Eigenvectors:
    """Unit eigenvectors V = Q Z of a symmetric N x N matrix, as columns,
    kept in factored form.

    Q = 1 (+) Q1 is the orthogonal factor of `dsytrd`'s reduction to
    tridiagonal form and Z holds the kept eigenvectors of the tridiagonal
    matrix.  Q1's Householder reflectors are copied out of `dsytrd`'s
    output in column panels (a, refl, tau): refl is the QR-form block of
    reflectors a .. a + width - 1, which acts on rows 1 + a: of V.  Without
    panels, Z is V.

    `project` reads V through the reflectors at O(N^2) per vector;
    `np.asarray` forms V, at the cost of the back-transformation (1.0 s for
    1500 columns at N = 3000, one thread).
    """

    def __init__(self, Z, panels=()):
        self.Z = Z
        self.panels = panels

    def project(self, Y):
        """Y V for a vector or a (k, N) array Y: V^T y for each row y, as rows."""
        G = np.array(Y, dtype=float, ndmin=2, order="F")
        for a, refl, tau in self.panels:  # y^T Q = y^T Q_1 Q_2 ...
            G[:, 1 + a:] = _reflect(refl, tau, G[:, 1 + a:], "N")
        return G @ self.Z

    def __array__(self, dtype=None, copy=None):
        Vt = np.array(self.Z.T, order="F")  # V^T = Z^T ... Q_2^T Q_1^T
        for a, refl, tau in reversed(self.panels):
            Vt[:, 1 + a:] = _reflect(refl, tau, Vt[:, 1 + a:], "T")
        return Vt.T if dtype is None else Vt.T.astype(dtype)


def _reflect(refl, tau, C, trans):
    """C Q or C Q^T for the reflector panel `refl` (QR form), in place if C is
    Fortran-contiguous."""
    from scipy.linalg import lapack

    # lwork: dormqr's optimum for blocks of up to 64 reflectors, which is
    # faster than one reflector at a time even for one row (20 ms against
    # 35 ms at N = 3000, one thread)
    C, _, info = lapack.dormqr("R", trans, refl, tau, C, lwork=64 * C.shape[0] + 65 * 64,
                               overwrite_c=1)
    if info != 0:  # pragma: no cover - argument errors only
        raise np.linalg.LinAlgError(f"back-transformation failed (info = {info})")
    return C


def _sign_fix(phi_cols, phi1, integrals, ns):
    """Flip column signs in place to the convention of the module docstring.

    `ns` holds the true indices of the columns.  Columns of unit weighted-L2
    norm on weights summing to 1 have |int phi| <= 1, so the tie tolerance
    is absolute.
    """
    tie = np.abs(integrals) <= _INTEGRAL_TIE_TOL
    flip = np.where(tie, phi1 * (-1.0) ** ns > 0, integrals > 0)
    sign = np.where(flip, -1.0, 1.0)
    phi_cols *= sign
    phi1 *= sign
    integrals *= sign


def nystrom_eigs(cov: CovMatrix, n_max: int) -> Spectrum:
    """Leading eigenpairs of the covariance operator discretized by `cov`.

    On the matrix's grid, solves the symmetric problem W^{1/2} K W^{1/2} v =
    lambda v; the eigenfunction samples are W^{-1/2} v, which have unit
    weighted-L2 norm.  The spectrum keeps the unit vectors v_n as
    `Eigenvectors` and reads every value through them: phi_n(1) and the
    integrals as projections of W^{1/2} k_1 and W^{1/2} 1, a node's sample as
    the projection of e_k, and `nystrom_extend` off the grid, with the
    matrix's params.  `Spectrum.phi` forms the samples on its first read.

    One call to `eigh` picks the solver, solves and proves the matrix
    positive semidefinite to PSD_TOL; its evidence (solver, minimum
    eigenvalue or certified bound, trace, PSD defect) is the spectrum's
    `diagnostics`.  Raises SolverError when `eigh` fails or refuses the
    matrix, and when lambda_{n_max} / lambda_1 is not above ROUNDING_FLOOR,
    where it is rounding noise (strong positive drift).

    The solve spends `cov` (`eigh`); `CovMatrix(cov.values.copy(),
    cov.grid, cov.params)` gives a second solve its own matrix.
    """
    grid = cov.grid
    N = grid.size
    if not 1 <= n_max <= N:
        raise DomainError(f"n_max must lie in [1, grid size {N}], got {n_max}")
    try:
        lam, V, diagnostics = eigh(cov, n_max)
    except np.linalg.LinAlgError as exc:
        raise SolverError(str(exc), stage="nystrom_eigs")
    lam = lam[::-1][:n_max].copy()
    if not lam[n_max - 1] > ROUNDING_FLOOR * lam[0]:
        raise SolverError(f"lambda_n / lambda_1 is above the rounding floor {ROUNDING_FLOOR:.2g} "
                          f"up to n = {np.sum(lam > ROUNDING_FLOOR * lam[0])} only; the rest "
                          "is rounding noise: lower --n-max or beta*T", stage="nystrom_eigs")
    # decreasing order, renormalized (paranoia: every solver gives unit 2-norm)
    # by Z's column norms, which are V's since Q is orthogonal; phi = W^{-1/2} V
    # then has unit weighted-L2 norm
    Z = V.Z[:, ::-1]
    Z = np.multiply(Z, 1.0 / np.sqrt(np.einsum("ij,ij->j", Z, Z)), order="F")
    V = Eigenvectors(Z, V.panels)
    phi1 = _nystrom_values(V, grid, cov.params, lam, 1.0)
    integrals = V.project(np.sqrt(grid.weights))[0]  # sum_j w_j phi_n(y_j) = (W^{1/2} 1)^T v_n
    _sign_fix(Z, phi1, integrals, np.arange(1, n_max + 1))  # flips V's columns
    return Spectrum("oracle", cov.params, lam, None, grid, None, phi1, integrals,
                    diagnostics, extend=nystrom_extend, vectors=V)


PANELS = 8  # the reflectors kept in this many column panels: 0.56 N^2 floats


def eigh(cov: CovMatrix, n_max):
    """Eigenvalues of B = W^{1/2} K W^{1/2} (`cov.weighted()`), ascending,
    unit eigenvectors of the n_max largest as `Eigenvectors` whose columns
    are in the same order, and the evidence that B is positive semidefinite.

    The solve spends `cov`: the trace is read first, and B is then built
    in `cov`'s own buffer, which `cov` gives up (`CovMatrix.weighted`), so
    K is freed when B is, and a later read of `cov.values` raises
    DomainError.  `CovMatrix(cov.values.copy(), cov.grid, cov.params)`
    made before the solve gives a second solve its own matrix.

    The solver is chosen here by the share of the pairs kept:
      - n_max <= LANCZOS_FRACTION * N, "lanczos": ARPACK's Lanczos (`eigsh`)
        computes the kept pairs only, so only n_max eigenvalues come back,
        and the vectors are dense; at N = 2000 (one thread) 0.13 s for the
        refined head's 2 pairs and 0.25-0.29 s for 40.  Its products read
        B.T, the C-ordered array, row by row: on the Fortran view the
        residuals came out about 1.4 times larger.  The start vector is
        generic and fixed, so runs are reproducible; a structured one such
        as sqrt(w) is orthogonal to every pair with int phi_n = 0 and would
        miss it.  Lanczos never sees the whole spectrum, so one Cholesky
        factorization of B + PSD_TOL * trace * I, in place, certifies that
        every eigenvalue exceeds -PSD_TOL * trace: that bound stands in for
        the minimum.
      - otherwise, "full": all N eigenvalues come back and the kept vectors
        stay factored.  `dsytrd` reduces B in place to tridiagonal form,
        its reflectors are copied into PANELS column panels, B is released,
        and `dstemr` (MRRR) solves the tridiagonal problem for every pair;
        Z keeps the n_max largest.  No back-transformation runs here: a
        read of V applies the reflectors to the vectors it projects, and
        `np.asarray` applies them to Z.  `dsytrd` and `dstemr` are the
        steps of scipy's `eigh` through `dsyevr`, with the same block size
        for the reduction, so the eigenvalues are bit for bit the ones
        `linalg.eigh(B)` gives and the formed vectors agree to a few ulp.
        (`dsyevr` rescales a B whose largest entry lies outside about
        [1e-146, 8e76], T^{2H} that far from 1; this route does not, and
        there the two agree to rounding, not bit for bit.)  At N = 3000
        keeping 1500 (one thread) the solve takes 2.8-2.9 s (`dsytrd`
        2.0-2.2 s, `dstemr` 0.7-0.8 s), against 4.3-4.7 s for
        `scipy.linalg.eigh`.  The peak is 1.56 matrices counting K itself,
        at two moments: B (which is K) with its panels, then the panels
        next to dstemr's N x N output, once B is released.  The kept
        columns are moved to the front of that output, which then shrinks
        to them in place, so no copy of them is made.  The smallest
        computed eigenvalue is the minimum.
    Returns (lam, V, psd), with psd = {"min_eigenvalue", "trace",
    "psd_defect", "eigensolver"}: the minimum (or the certified bound), the
    trace sum_i w_i K_ii, min(min_eigenvalue, 0) / trace (-PSD_TOL when
    certified) and the solver's name.  Raises LinAlgError when an ARPACK or
    LAPACK step reports failure and when B is not positive semidefinite to
    PSD_TOL.
    """
    N = cov.grid.size
    trace = float(np.sum(cov.grid.weights * np.diag(cov.values)))
    B = cov.weighted()
    if n_max <= LANCZOS_FRACTION * N:
        from scipy.linalg import cho_factor
        from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

        v0 = np.random.default_rng(0).standard_normal(N)
        try:
            lam, V = eigsh(B.T, k=n_max, which="LA", tol=0, v0=v0)
        except (ArpackNoConvergence, ArpackError) as exc:
            raise np.linalg.LinAlgError(f"Lanczos eigensolver (ARPACK) failed: {exc}")
        B[np.diag_indices(N)] += PSD_TOL * trace
        try:
            cho_factor(B, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise np.linalg.LinAlgError("covariance matrix is not positive semidefinite: "
                                        f"B + {PSD_TOL:g} * trace * I has no Cholesky factor")
        return lam, Eigenvectors(V), {"min_eigenvalue": -PSD_TOL * trace, "trace": trace,
                                      "psd_defect": -PSD_TOL, "eigensolver": "lanczos"}
    from scipy.linalg import lapack

    lwork = int(lapack.dsyevr_lwork(N)[0]) - 5 * N  # dsyevr's share for dsytrd
    c, d, e, tau, info = lapack.dsytrd(B, lower=1, lwork=lwork, overwrite_a=1)
    if info != 0:  # pragma: no cover - argument errors only
        raise np.linalg.LinAlgError(f"tridiagonal reduction failed (info = {info})")
    # Q = 1 (+) Q1: reflector j is column j of c, with its implied unit in
    # row j + 1, so reflectors a:b form the QR-form block c[1 + a:, a:b]
    edges = sorted({(N - 1) * i // PANELS for i in range(PANELS + 1)})
    panels = tuple((a, np.array(c[1 + a:, a:b], order="F"), tau[a:b])
                   for a, b in zip(edges, edges[1:]))
    del B, c  # c is B, reduced in place
    _, lam, Z, info = lapack.dstemr(d, np.append(e, 0.0), 0, 0.0, 0.0, 0, 0)
    if info != 0:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolve failed (info = {info})")
    # the kept columns move to the front of dstemr's own Z in blocks no wider
    # than the shift, so no block overlaps its source; Z, of which no view is
    # left, then shrinks to them in place
    shift = N - n_max
    if shift:
        for a in range(0, n_max, shift):
            b = min(a + shift, n_max)
            Z[:, a:b] = Z[:, shift + a:shift + b]
    Z.resize((N, n_max), refcheck=False)
    V = Eigenvectors(Z, panels)
    lam_min = float(lam[0])
    defect = float(min(lam_min, 0.0) / max(trace, 1e-300))
    if defect < -PSD_TOL:
        raise np.linalg.LinAlgError("covariance matrix is not positive semidefinite: min "
                                    f"eigenvalue / trace = {defect:.3g}")
    return lam, V, {"min_eigenvalue": lam_min, "trace": trace, "psd_defect": defect,
                    "eigensolver": "full"}


def nystrom_extend(spec: Spectrum, x: float) -> np.ndarray:
    """Nystrom interpolation phi_n(x) = (1/lambda_n) * sum_j w_j K(x,y_j) phi_n(y_j)
    of an oracle spectrum, read through its factored vectors."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0,1], got {x}")
    if spec.grid is None or spec.vectors is None:
        raise SolverError("spectrum carries no oracle eigenvectors", stage="nystrom_extend")
    return _nystrom_values(spec.vectors, spec.grid, spec.params, spec.lam, x)


def _nystrom_values(V, grid, params, lam, x):
    # sum_j w_j K(x, y_j) phi_n(y_j) = (W^{1/2} k_x)^T v_n
    return V.project(np.sqrt(grid.weights) * cov_row(x, params, grid))[0] / lam


_HALVINGS = 64  # a pi/2-wide bracket shrinks to 8.5e-20: below one ulp of roots > 4e-4


def _bisect(g, lo, hi):
    """Roots of g in the brackets [lo, hi], all at once.

    g must be negative left of each root and positive right of it; it is
    evaluated only at midpoints, never at the bracket ends.
    """
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        right = g(mid) > 0
        lo, hi = np.where(right, lo, mid), np.where(right, mid, hi)
    return 0.5 * (lo + hi)


def _tan_roots(beta: float, n_max: int) -> np.ndarray:
    """Increasing positive roots of nu/beta = tan(nu).

    Branch k >= 1 holds exactly one root, between k pi and the pole at
    k pi + sign(beta) pi/2; there tan(nu) = tan(nu - k pi) makes it the zero
    of the pole-free F(v) = v - k pi - atan(v/beta), which `_newton_branches`
    finds.  Branch 0 holds one root (in (0, pi/2)) only when 0 < beta < 1;
    the arctan form cancels there as beta -> 1, so that single root is
    bisected on the tan form.
    """
    if n_max < 1 or not 0.0 < beta < 1.0:
        return _newton_branches(beta, np.arange(1.0, n_max + 1))
    lone = _bisect(lambda v: np.tan(v) - v / beta, np.zeros(1), np.full(1, 0.5 * math.pi))
    return np.concatenate([lone, _newton_branches(beta, np.arange(1.0, n_max))])


# pi = _PI_HI + _PI_LO to 1.3e-24, with 25 significant bits in _PI_HI: k * _PI_HI
# is exact for k < 2^28, so F below does not inherit the rounding of k pi
_PI_HI = float.fromhex("0x1.921fb5p+1")
_PI_LO = float.fromhex("0x1.110b4611a6263p-25")
_FEW_MOVING = 0.125  # below this share of moving entries, Newton steps go by index


def _newton_branches(beta: float, k: np.ndarray) -> np.ndarray:
    """Zeros of F(v) = v - k pi - atan(v/beta), one per branch index k >= 1.

    F' = 1 - beta/(beta^2 + v^2) >= 1 - 1/(2 pi) on every branch, and
    F'' = 2 beta v/(beta^2 + v^2)^2 makes F convex for beta > 0 and concave
    for beta < 0, so Newton from the pole k pi + sign(beta) pi/2 approaches
    the root monotonically (from the right for beta > 0, from the left for
    beta < 0).  An entry stops when its step no longer moves it toward the
    root, which happens at rounding level.  A stopped entry would take the
    same step again, so only the entries still moving are stepped: the whole
    array in place while most of them move, then by index (at 632,455 roots
    and beta = -1: two passes over all, then 163, 5 and 1 entries).  Every
    entry has stopped after 4-5 steps for beta in [-12, 300].  v - k _PI_HI
    is exact (v lies within pi/2 of it), so the roots are correctly rounded
    to about 0.5 ulp.
    """
    v = k * np.pi + math.copysign(0.5 * math.pi, beta)
    live = None  # indices of the entries still moving; None while most of them do
    while True:
        w, kw = (v, k) if live is None else (v[live], k[live])
        moved = _newton_moved(beta, w, kw)
        toward = moved < w if beta > 0 else moved > w
        if live is None and np.count_nonzero(toward) > _FEW_MOVING * len(v):
            np.copyto(v, moved, where=toward)
            continue
        i = np.flatnonzero(toward)
        if not len(i):
            return v
        live = i if live is None else live[i]
        v[live] = moved[i]


def _newton_moved(beta, v, k):
    """v - F(v)/F'(v) = v - ((v - k _PI_HI) - k _PI_LO - atan(v/beta))
    / (1 - beta/(beta^2 + v^2)), evaluated in that order in two buffers."""
    f = np.multiply(k, _PI_HI)
    np.subtract(v, f, out=f)
    g = np.multiply(k, _PI_LO)
    f -= g
    np.divide(v, beta, out=g)
    f -= np.arctan(g, out=g)
    np.multiply(v, v, out=g)
    g += beta * beta
    np.divide(beta, g, out=g)
    np.subtract(1.0, g, out=g)
    f /= g
    return np.subtract(v, f, out=f)


def _ou_modes(beta: float, n_max: int) -> np.ndarray:
    """Complete frequency list for the H = 1/2 spectrum, encoded as floats.

    Entries > 0 are tan-branch roots (oscillatory modes sin(nu x)).  For
    beta >= 1 the operator has one additional non-oscillatory top mode:
    phi ~ x at beta = 1 (encoded 0.0) and phi ~ sinh(kappa x) for beta > 1
    with tanh(kappa) = kappa/beta (encoded -kappa).  Without it the
    spectrum misses its largest eigenvalue and the trace identity fails.
    """
    if beta == 0.0:
        return (np.arange(1, n_max + 1) - 0.5) * np.pi
    if beta > 1.0:
        head = -_bisect(lambda k: k / beta - np.tanh(k), np.zeros(1), np.full(1, beta))
    else:
        head = np.zeros(1 if beta == 1.0 else 0)
    return np.concatenate([head, _tan_roots(beta, n_max - len(head))])


def _ou_forms(nu, osc, lin, hyp):
    """One value per encoded mode: osc(v) where nu = v > 0, `lin` where nu = 0
    and hyp(k) where nu = -k < 0.  The last axis runs over the modes.

    Only the head mode, which `_ou_modes` puts first, can be non-oscillatory.
    So when nu[0] > 0 this is osc(nu) itself, in one pass; otherwise `lin` or
    `hyp` is evaluated on that one mode and osc on the rest.
    """
    if not len(nu) or nu[0] > 0:
        return osc(nu)
    out = osc(np.where(nu > 0, nu, 1.0))
    out[..., nu == 0] = lin
    out[..., nu < 0] = hyp(-nu[nu < 0])
    return out


_SMALL_MODE = 0.5  # frequencies v, k below this take the cancellation-free forms


def _small_or(x, small, large):
    """small(x) where x < _SMALL_MODE, else large(x), for increasing x.

    Only the branch-0 root or the head mode can be that small (beta near 1),
    and it comes first, so `small` runs on x[0] at most and every other
    value is exactly what `large` gives.
    """
    out = large(x)
    if len(x) and x[0] < _SMALL_MODE:
        out[:1] = small(x[:1])
    return out


def _excess(x, sign):
    """(sinh x - x)/(2x) for sign = 1 and (x - sin x)/(2x) for sign = -1, from
    the Taylor series sum_j sign^(j+1) x^(2j) / (2 (2j+1)!); eight terms are
    exact to rounding for x < 1."""
    y = sign * x * x
    out = np.zeros_like(x)
    for j in range(8, 0, -1):
        out = (out + 0.5 / math.factorial(2 * j + 1)) * y
    return sign * out


def _ou_norms(nu):
    """L2 norms of the eigenfunction shapes sin(v x), x and sinh(k x).

    The squares are (2v - sin 2v)/(4v), 1/3 and (sinh 2k - 2k)/(4k); their
    differences cancel as v or k -> 0 (beta -> 1), where the series is used.
    """
    return _ou_forms(
        nu,
        lambda v: np.sqrt(_small_or(v, lambda v: _excess(2.0 * v, -1.0),
                                    lambda v: 0.5 - np.sin(2.0 * v) / (4.0 * v))),
        1.0 / math.sqrt(3.0),
        lambda k: np.sqrt(_small_or(k, lambda k: _excess(2.0 * k, 1.0),
                                    lambda k: np.sinh(2.0 * k) / (4.0 * k) - 0.5)))


def _ou_phi_values(nu, norm, u):
    """Unit-norm eigenfunction values, one row per point of u (a row for
    scalar u); `norm` holds the `_ou_norms` of the modes `nu`."""
    u = np.asarray(u, dtype=float)[..., None]
    return -_ou_forms(nu, lambda v: np.sin(v * u), u,
                      lambda k: np.sinh(k * u)) / norm


def ou_closed_form_eigs(p: ModelParams, n_max: int, grid: QuadGrid = None) -> Spectrum:
    """Exact spectrum of the H = 1/2 problem `p`, pairs n = 1 .. n_max.

    With beta = p.beta_eff, the drift of the unit-interval problem,
    oscillatory modes have lambda_n = 1/(nu_n^2 + beta^2) with nu/beta =
    tan(nu) found by array Newton steps on the arctan form of each branch
    (`_tan_roots`; beta = 0: exactly nu_n = (n-1/2) pi) and eigenfunctions
    proportional to sqrt(2) sin(nu_n x); for beta >= 1 the complete spectrum
    additionally starts with one non-oscillatory mode (see `_ou_modes`).
    Eigenvalues carry the T^{2H} scaling.  Eigenfunctions are unit-norm and
    sign-fixed to int phi < 0, and sampled on `grid` when one is given.
    Each quantity is one pass over the modes (`_ou_forms`), and the norms
    are computed once: the grid samples and `extend` reuse them, so the
    spectrum holds them next to nu, lam, phi1 and the integrals.
    Raises DomainError when p.H is not 1/2, when n_max < 1 and when the
    head mode overflows (beta*T above about 355).
    """
    if not is_half(p.H):
        raise DomainError("closed-form OU spectrum requires H = 1/2")
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    beta = p.beta_eff
    # nu/beta may overflow to inf at subnormal beta and beta^2 at huge beta,
    # which the arctan form takes in stride; overflow (and inf/inf) in the
    # head mode is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        nu = _ou_modes(beta, n_max)
        # head mode: tanh(kappa) = kappa/beta turns 1/(beta^2 - kappa^2) into
        # cosh(kappa)^2/beta^2, which does not cancel as kappa -> beta.  The
        # list is already decreasing: cosh(kappa)^2/beta^2 >= 1/beta^2 exceeds
        # every 1/(nu^2 + beta^2), and the tan roots increase.
        lam = _ou_forms(nu, lambda v: 1.0 / (v ** 2 + beta * beta), 1.0,
                        lambda k: (np.cosh(k) / beta) ** 2)
        norm = _ou_norms(nu)
        phi1 = -_ou_forms(nu, np.sin, 1.0, np.sinh) / norm
        # 1 - cos v = 2 sin^2(v/2) and cosh k - 1 = 2 sinh^2(k/2) without the
        # cancellation at small v, k
        integrals = -_ou_forms(
            nu,
            lambda v: _small_or(v, lambda v: 2.0 * np.sin(0.5 * v) ** 2 / v,
                                lambda v: (1.0 - np.cos(v)) / v),
            0.5,
            lambda k: _small_or(k, lambda k: 2.0 * np.sinh(0.5 * k) ** 2 / k,
                                lambda k: (np.cosh(k) - 1.0) / k)) / norm
    if not all(np.all(np.isfinite(a)) for a in (lam, norm, phi1, integrals)):
        raise DomainError(f"closed-form OU spectrum overflows at beta*T = {beta:g}")
    phi = None if grid is None else _ou_phi_values(nu, norm, grid.nodes)
    lam *= p.T ** (2.0 * p.H)
    return Spectrum("closed_form_ou", p, lam, nu, grid, phi, phi1, integrals,
                    extend=lambda spec, u: _ou_phi_values(nu, norm, u))
