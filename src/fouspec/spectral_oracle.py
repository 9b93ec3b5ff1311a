"""Reference spectra of the covariance operator on the unit interval.

`nystrom_eigs` discretizes K*phi = lambda*phi with the grid quadrature and
solves the symmetrized matrix problem; it is the brute-force oracle every
approximation is judged against.  `ou_closed_form_eigs` provides the exact
H = 1/2 spectrum: lambda_n = 1/(nu_n^2 + beta^2) with nu/beta = tan(nu) and
eigenfunctions proportional to sqrt(2) sin(nu_n x).

Sign convention for all spectra: int_0^1 phi_n < 0, ties broken by
phi_n(1) * (-1)^n < 0, so eigenfunctions from different routes are
comparable without alignment.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .exceptions import DomainError, SolverError
from .model import CovMatrix, ModelParams, QuadGrid, cov_row

_INTEGRAL_TIE_TOL = 1e-12
PSD_TOL = 1e-10  # refuse a matrix whose min eigenvalue / trace is below -PSD_TOL


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
    """Ordered eigenpairs of one covariance operator.

    `lam` holds eigenvalues of the kernel fou_cov(uT, vT) viewed on
    L^2([0,1], du), i.e. T^{2H} times the unit-interval eigenvalues of the
    drift-beta*T kernel.  `phi` columns are eigenfunction samples on
    `grid.nodes` with unit weighted-L2 norm.
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
    n_values: tuple = None  # explicit indices when not contiguous from 1
    cov: CovMatrix = field(default=None, repr=False)  # oracle matrix, if kept

    @property
    def n_max(self):
        return len(self.lam)

    def index_of(self, k):
        return self.n_values[k] if self.n_values is not None else k + 1

    @property
    def pairs(self):
        return [EigenPair(self.index_of(k), float(self.lam[k]),
                          None if self.nu is None else float(self.nu[k]),
                          None if self.phi is None else self.phi[:, k],
                          None if self.phi1 is None else float(self.phi1[k]),
                          None if self.phi_integral is None else float(self.phi_integral[k]))
                for k in range(self.n_max)]

    def phi_values(self, u):
        """Eigenfunction values phi_n(u) for one point u in [0,1], all n.

        At a grid node this returns the stored samples; elsewhere it uses the
        Nystrom extension (oracle) or the closed form.
        """
        if not 0.0 <= u <= 1.0:
            raise DomainError(f"u must lie in [0,1], got {u}")
        if self.method == "closed_form_ou":
            return _ou_phi_values(self.nu, u)
        if self.method == "first_order":
            from .asymptotics import phi_first_order_many
            return phi_first_order_many(u, np.arange(1, self.n_max + 1),
                                        self.params.H)
        if self.grid is not None and self.phi is not None:
            j = np.searchsorted(self.grid.nodes, u)
            for k in (j - 1, j):
                if 0 <= k < self.grid.size and abs(self.grid.nodes[k] - u) < 1e-12:
                    return self.phi[k, :].copy()
        if u == 1.0 and self.phi1 is not None:
            return self.phi1.copy()
        if self.method == "oracle":
            return nystrom_extend(self, u)
        raise DomainError(f"{self.method} spectrum has no samples at u={u}; "
                          "use a grid node or u = 1")


def _sign_fix(phi_cols, phi1, integrals):
    """Flip column signs in place to the phi_integral < 0 convention."""
    scale = max(float(np.max(np.abs(integrals))), 1.0) if len(integrals) else 1.0
    for k in range(phi_cols.shape[1]):
        if abs(integrals[k]) > _INTEGRAL_TIE_TOL * scale:
            flip = integrals[k] > 0
        else:  # tie: phi_n(1) * (-1)^n < 0
            flip = phi1[k] * (-1.0) ** (k + 1) > 0
        if flip:
            phi_cols[:, k] *= -1.0
            phi1[k] *= -1.0
            integrals[k] *= -1.0


def nystrom_eigs(cov: CovMatrix, grid: QuadGrid, n_max: int) -> Spectrum:
    """Leading eigenpairs of the discretized covariance operator.

    Solves the symmetric problem W^{1/2} K W^{1/2} v = lambda v and recovers
    eigenfunction samples as W^{-1/2} v, which already have unit weighted-L2
    norm; phi_n(1) comes from the Nystrom extension at x = 1.  Raises
    SolverError when the matrix is not positive semidefinite to PSD_TOL.
    """
    if n_max > grid.size:
        raise DomainError("n_max cannot exceed the grid size")
    w = grid.weights
    sw = np.sqrt(w)
    B = sw[:, None] * cov.values * sw[None, :]
    try:
        lam_all, V = eigh(B)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise SolverError(f"dense eigensolver failed: {exc}", stage="nystrom_eigs")
    order = np.argsort(lam_all)[::-1]
    lam = lam_all[order[:n_max]].copy()
    V = V[:, order[:n_max]]
    trace = float(np.sum(w * np.diag(cov.values)))
    diagnostics = {
        "min_eigenvalue": float(lam_all.min()),
        "trace": trace,
        "psd_defect": float(min(lam_all.min(), 0.0) / max(trace, 1e-300)),
    }
    if diagnostics["psd_defect"] < -PSD_TOL:
        raise SolverError("covariance matrix is not positive semidefinite: min "
                          f"eigenvalue / trace = {diagnostics['psd_defect']:.3g}",
                          stage="nystrom_eigs")
    if lam[n_max - 1] <= 0:
        raise SolverError("requested eigenvalues are not all positive; "
                          "reduce n_max or refine the grid", stage="nystrom_eigs")
    if cov.params is None:
        raise SolverError("covariance matrix lacks params; cannot extend to x=1",
                          stage="nystrom_eigs")
    phi = V / sw[:, None]
    # renormalize in weighted L2 (paranoia: eigh already gives unit 2-norm)
    norms = np.sqrt(w @ phi ** 2)
    phi /= norms[None, :]
    k1 = cov_row(1.0, cov.params, grid)
    phi1 = (w * k1) @ phi / lam
    integrals = w @ phi
    _sign_fix(phi, phi1, integrals)
    return Spectrum("oracle", cov.params, lam, None, grid, phi, phi1, integrals,
                    diagnostics)


def nystrom_extend(spec: Spectrum, x: float) -> np.ndarray:
    """Nystrom interpolation phi_n(x) = (1/lambda_n) * sum_j w_j K(x,y_j) phi_n(y_j)."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0,1], got {x}")
    if spec.grid is None or spec.phi is None:
        raise SolverError("spectrum carries no grid samples", stage="nystrom_extend")
    kx = cov_row(x, spec.params, spec.grid)
    return (spec.grid.weights * kx) @ spec.phi / spec.lam


def _bisect_to_root(f, lo, hi):
    flo = f(lo)
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            b = mid
        else:
            a, flo = mid, fm
        if b - a < 1e-15 * max(1.0, mid):
            break
    return 0.5 * (a + b)


def _tan_roots(beta: float, n_max: int, delta: float = 1e-9) -> np.ndarray:
    """Increasing positive roots of nu/beta = tan(nu), bisection per branch."""
    roots = []
    k = 0
    f = lambda v: v / beta - math.tan(v)
    while len(roots) < n_max:
        lo = max((k - 0.5) * math.pi + delta, delta)
        hi = (k + 0.5) * math.pi - delta
        first_branch = k == 0
        k += 1
        if k > 10 * n_max + 100:
            raise SolverError("root bracketing failed near "
                              f"[{lo:.6g}, {hi:.6g}]", stage="ou_closed_form_eigs")
        if hi <= lo:
            continue
        if first_branch:
            # near 0 both sides agree to rounding; use the series sign of
            # nu/beta - tan(nu) ~ nu (1/beta - 1) - nu^3/3 instead
            flo = 1.0 / beta - 1.0
            if flo == 0.0:
                flo = -1.0
        else:
            flo = f(lo)
        if flo * f(hi) > 0:
            continue  # this tan branch hosts no root
        roots.append(_bisect_to_root(f, lo, hi))
    return np.array(roots[:n_max])


def _ou_modes(beta: float, n_max: int) -> np.ndarray:
    """Complete frequency list for the H = 1/2 spectrum, encoded as floats.

    Entries > 0 are tan-branch roots (oscillatory modes sin(nu x)).  For
    beta >= 1 the operator has one additional non-oscillatory top mode:
    phi ~ x at beta = 1 (encoded 0.0) and phi ~ sinh(kappa x) for beta > 1
    with tanh(kappa) = kappa/beta (encoded -kappa, lambda = 1/(beta^2 -
    kappa^2)).  Without it the spectrum misses its largest eigenvalue and
    the trace identity fails.
    """
    if beta == 0.0:
        return (np.arange(1, n_max + 1) - 0.5) * np.pi
    head = []
    if beta > 1.0:
        kappa = _bisect_to_root(lambda k: math.tanh(k) - k / beta, 1e-12,
                                beta * (1.0 - 1e-14))
        head = [-kappa]
    elif beta == 1.0:
        head = [0.0]
    tails = _tan_roots(beta, n_max - len(head))
    return np.concatenate([head, tails]) if head else tails


def _ou_lambda(nu, beta):
    lam = np.empty_like(nu)
    osc = nu > 0
    lam[osc] = 1.0 / (nu[osc] ** 2 + beta ** 2)
    lam[~osc] = 1.0 / (beta ** 2 - nu[~osc] ** 2)
    return lam


def _ou_phi_values(nu, u):
    """Unit-norm eigenfunction values at u for the encoded frequency list."""
    nu = np.asarray(nu)
    out = np.empty_like(nu, dtype=float)
    osc = nu > 0
    if np.any(osc):
        v = nu[osc]
        norm = np.sqrt(1.0 - np.sin(2.0 * v) / (2.0 * v))
        out[osc] = -np.sqrt(2.0) * np.sin(v * u) / norm
    for idx in np.nonzero(~osc)[0]:
        k = -nu[idx]
        if k == 0.0:
            out[idx] = -math.sqrt(3.0) * u
        else:
            norm = math.sqrt(math.sinh(2.0 * k) / (4.0 * k) - 0.5)
            out[idx] = -math.sinh(k * u) / norm
    return out


def ou_closed_form_eigs(beta: float, n_max: int, grid: QuadGrid = None,
                        params: ModelParams = None) -> Spectrum:
    """Exact H = 1/2 spectrum on the unit interval (drift `beta`).

    Oscillatory modes have lambda_n = 1/(nu_n^2 + beta^2) with nu/beta =
    tan(nu) found by bisection between consecutive poles (beta = 0: exactly
    nu_n = (n-1/2) pi) and eigenfunctions proportional to sqrt(2) sin(nu_n x);
    for beta >= 1 the complete spectrum additionally starts with one
    non-oscillatory mode (see `_ou_modes`).  Eigenfunctions are unit-norm
    and sign-fixed to int phi < 0.  When `params` is given (H must be 1/2),
    eigenvalues carry the T^{2H} scaling and roots use the drift beta*T.
    """
    if params is not None:
        if abs(params.H - 0.5) > 1e-12:
            raise DomainError("closed-form OU spectrum requires H = 1/2")
        beta = params.beta_eff
    else:
        params = ModelParams(H=0.5, beta=beta)
    nu = _ou_modes(beta, n_max)
    lam = _ou_lambda(nu, beta)
    order = np.argsort(lam)[::-1]  # decreasing lambda (head mode is largest)
    nu, lam = nu[order], lam[order]
    phi1 = _ou_phi_values(nu, 1.0)

    def _integral(v):
        if v > 0:
            norm = math.sqrt(1.0 - math.sin(2.0 * v) / (2.0 * v))
            return -math.sqrt(2.0) * (1.0 - math.cos(v)) / (v * norm)
        if v == 0.0:
            return -math.sqrt(3.0) / 2.0
        k = -v
        norm = math.sqrt(math.sinh(2.0 * k) / (4.0 * k) - 0.5)
        return -(math.cosh(k) - 1.0) / (k * norm)

    integrals = np.array([_integral(v) for v in nu])
    phi = None
    if grid is not None:
        phi = np.column_stack([_ou_phi_values(nu, float(x)) for x in grid.nodes]).T
    lam = lam * params.T ** (2.0 * params.H)
    return Spectrum("closed_form_ou", params, lam, nu, grid, phi, phi1, integrals)
