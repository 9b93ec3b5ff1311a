"""Reference spectra of the covariance operator on the unit interval.

`nystrom_eigs` discretizes K*phi = lambda*phi with the grid quadrature and
solves the symmetrized matrix problem; it is the brute-force oracle every
approximation is judged against.  `ou_closed_form_eigs` provides the exact
H = 1/2 spectrum: lambda_n = 1/(nu_n^2 + beta^2) with nu/beta = tan(nu) and
eigenfunctions proportional to sqrt(2) sin(nu_n x).  Its roots come from
array Newton iterations on the pole-free arctan form of each tan branch;
only the (at most one) root or head mode near 0 is bisected.

Sign convention for all spectra: int_0^1 phi_n < 0, ties (|int phi_n| <=
1e-12) broken by phi_n(1) * (-1)^n < 0, so eigenfunctions from different
routes are comparable without alignment.  The sampled routes (this oracle
and `ia_refine`) apply it with `_sign_fix`; the closed forms satisfy it by
construction.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh

from .exceptions import DomainError, SolverError
from .model import CovMatrix, ModelParams, QuadGrid, cov_row

_INTEGRAL_TIE_TOL = 1e-12
PSD_TOL = 1e-10  # refuse a matrix whose min eigenvalue / trace is below -PSD_TOL
SUBSET_FRACTION = 0.1  # up to this share of the pairs, solve for the kept ones only


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
    `grid.nodes` with unit weighted-L2 norm.  `extend(spectrum, u)` gives
    phi_n(u) for all n at any u in [0,1]; the route that builds the spectrum
    sets it, or leaves it None when it has no off-grid evaluator.  `method`
    only labels the route.
    """

    method: str
    params: ModelParams
    lam: np.ndarray
    nu: np.ndarray = None
    grid: QuadGrid = None
    phi: np.ndarray = field(default=None, repr=False)
    phi1: np.ndarray = None
    phi_integral: np.ndarray = None
    diagnostics: dict = field(default_factory=dict, repr=False)
    cov: CovMatrix = field(default=None, repr=False)  # oracle matrix, if kept
    extend: Callable = field(default=None, repr=False)

    @property
    def n_max(self):
        return len(self.lam)

    def phi_values(self, u):
        """Eigenfunction values phi_n(u) for one point u in [0,1], all n.

        The stored sample at a grid node, else phi1 at u = 1, else `extend`.
        """
        if not 0.0 <= u <= 1.0:
            raise DomainError(f"u must lie in [0,1], got {u}")
        if self.grid is not None and self.phi is not None:
            j = np.searchsorted(self.grid.nodes, u)
            for k in (j - 1, j):
                if 0 <= k < self.grid.size and abs(self.grid.nodes[k] - u) < 1e-12:
                    return self.phi[k, :].copy()
        if u == 1.0 and self.phi1 is not None:
            return self.phi1.copy()
        if self.extend is not None:
            return self.extend(self, u)
        raise DomainError(f"spectrum has no samples at u={u} and no off-grid "
                          "evaluator; use a grid node or u = 1")


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
    lambda v and recovers eigenfunction samples as W^{-1/2} v, which already
    have unit weighted-L2 norm; phi_n(1) comes from the Nystrom extension at
    x = 1, with the matrix's params.  Raises SolverError when the matrix is
    not positive semidefinite to PSD_TOL.

    Keeping at most SUBSET_FRACTION of the pairs, only those are computed,
    and one Cholesky factorization of B + PSD_TOL * trace * I certifies
    min eigenvalue >= -PSD_TOL * trace; `min_eigenvalue` then holds that
    bound.  Otherwise the full solve reports the exact minimum.
    """
    grid = cov.grid
    N = grid.size
    if not 1 <= n_max <= N:
        raise DomainError(f"n_max must lie in [1, grid size {N}], got {n_max}")
    w = grid.weights
    sw = np.sqrt(w)
    B = sw[:, None] * cov.values * sw[None, :]
    trace = float(np.sum(w * np.diag(cov.values)))
    subset = n_max <= SUBSET_FRACTION * N
    try:
        if subset:
            lam, V = eigh(B, subset_by_index=[N - n_max, N - 1], driver="evr")
        else:
            lam, V = eigh(B)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"dense eigensolver failed: {exc}", stage="nystrom_eigs")
    if subset:
        # B + PSD_TOL * trace * I is positive definite iff every eigenvalue
        # of B exceeds -PSD_TOL * trace: the bound stands in for the minimum.
        # B is symmetric, so its transpose is the Fortran-ordered matrix the
        # factorization overwrites in place.
        from scipy.linalg import cho_factor

        B[np.diag_indices(N)] += PSD_TOL * trace
        try:
            cho_factor(B.T, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            raise SolverError("covariance matrix is not positive semidefinite: "
                              f"B + {PSD_TOL:g} * trace * I has no Cholesky factor",
                              stage="nystrom_eigs")
        lam_min, defect = -PSD_TOL * trace, -PSD_TOL
    else:
        lam_min = float(lam[0])
        defect = float(min(lam_min, 0.0) / max(trace, 1e-300))
        if defect < -PSD_TOL:
            raise SolverError("covariance matrix is not positive semidefinite: min "
                              f"eigenvalue / trace = {defect:.3g}", stage="nystrom_eigs")
    lam, V = lam[::-1][:n_max].copy(), V[:, ::-1][:, :n_max]
    diagnostics = {"min_eigenvalue": lam_min, "trace": trace, "psd_defect": defect}
    if lam[n_max - 1] <= 0:
        raise SolverError("requested eigenvalues are not all positive; "
                          "reduce n_max or refine the grid", stage="nystrom_eigs")
    phi = V / sw[:, None]
    # renormalize in weighted L2 (paranoia: eigh already gives unit 2-norm)
    norms = np.sqrt(w @ phi ** 2)
    phi /= norms[None, :]
    k1 = cov_row(1.0, cov.params, grid)
    phi1 = (w * k1) @ phi / lam
    integrals = w @ phi
    _sign_fix(phi, phi1, integrals, np.arange(1, n_max + 1))
    return Spectrum("oracle", cov.params, lam, None, grid, phi, phi1, integrals,
                    diagnostics, extend=nystrom_extend)


def nystrom_extend(spec: Spectrum, x: float) -> np.ndarray:
    """Nystrom interpolation phi_n(x) = (1/lambda_n) * sum_j w_j K(x,y_j) phi_n(y_j)."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0,1], got {x}")
    if spec.grid is None or spec.phi is None:
        raise SolverError("spectrum carries no grid samples", stage="nystrom_extend")
    kx = cov_row(x, spec.params, spec.grid)
    return (spec.grid.weights * kx) @ spec.phi / spec.lam


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


def _newton_branches(beta: float, k: np.ndarray) -> np.ndarray:
    """Zeros of F(v) = v - k pi - atan(v/beta), one per branch index k >= 1.

    F' = 1 - beta/(beta^2 + v^2) >= 1 - 1/(2 pi) on every branch, and
    F'' = 2 beta v/(beta^2 + v^2)^2 makes F convex for beta > 0 and concave
    for beta < 0, so Newton from the pole k pi + sign(beta) pi/2 approaches
    the root monotonically (from the right for beta > 0, from the left for
    beta < 0).  An entry stops when its step no longer moves it toward the
    root, which happens at rounding level; the loop ends when all have
    stopped, after 4-5 steps for beta in [-12, 300].  v - k _PI_HI is exact
    (v lies within pi/2 of it), so the roots are correctly rounded to about
    0.5 ulp.
    """
    hi, lo = k * _PI_HI, k * _PI_LO
    v = k * np.pi + math.copysign(0.5 * math.pi, beta)
    while True:
        step = ((v - hi) - lo - np.arctan(v / beta)) / (1.0 - beta / (beta * beta + v * v))
        moved = v - step
        toward = moved < v if beta > 0 else moved > v
        if not toward.any():
            return v
        v = np.where(toward, moved, v)


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
    and hyp(k) where nu = -k < 0.  The last axis runs over the modes; `lin`
    and `hyp` are evaluated on the (at most one) non-oscillatory mode only.
    """
    out = osc(np.where(nu > 0, nu, 1.0))
    out[..., nu == 0] = lin
    out[..., nu < 0] = hyp(-nu[nu < 0])
    return out


_SMALL_MODE = 0.5  # frequencies v, k below this take the cancellation-free forms


def _small_or(x, small, large):
    """small(x) where x < _SMALL_MODE, else large(x).

    Only the branch-0 root or the head mode can be that small (beta near 1),
    so `small` runs on at most one entry and every other value is exactly
    what `large` gives.
    """
    out = large(x)
    mask = x < _SMALL_MODE
    out[mask] = small(x[mask])
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


def _ou_phi_values(nu, u):
    """Unit-norm eigenfunction values, one row per point of u (a row for scalar u)."""
    nu = np.asarray(nu, dtype=float)
    u = np.asarray(u, dtype=float)[..., None]
    return -_ou_forms(nu, lambda v: np.sin(v * u), u,
                      lambda k: np.sinh(k * u)) / _ou_norms(nu)


def ou_closed_form_eigs(beta: float, n_max: int, grid: QuadGrid = None,
                        params: ModelParams = None) -> Spectrum:
    """Exact H = 1/2 spectrum on the unit interval (drift `beta`).

    Oscillatory modes have lambda_n = 1/(nu_n^2 + beta^2) with nu/beta =
    tan(nu) found by array Newton steps on the arctan form of each branch
    (`_tan_roots`; beta = 0: exactly nu_n = (n-1/2) pi) and eigenfunctions
    proportional to sqrt(2) sin(nu_n x); for beta >= 1 the complete spectrum
    additionally starts with one non-oscillatory mode (see `_ou_modes`).
    Eigenfunctions are unit-norm and sign-fixed to int phi < 0.  When
    `params` is given (H must be 1/2), eigenvalues carry the T^{2H} scaling
    and roots use the drift beta*T.  Raises DomainError when the head mode
    overflows (beta*T above about 355).
    """
    if params is not None:
        if abs(params.H - 0.5) > 1e-12:
            raise DomainError("closed-form OU spectrum requires H = 1/2")
        beta = params.beta_eff
    else:
        params = ModelParams(H=0.5, beta=beta)
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
    phi = None if grid is None else _ou_phi_values(nu, grid.nodes)
    lam = lam * params.T ** (2.0 * params.H)
    return Spectrum("closed_form_ou", params, lam, nu, grid, phi, phi1, integrals,
                    extend=lambda spec, u: _ou_phi_values(spec.nu, u))
