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
oscillation diagnostics.

The series mass beyond N = n_max is the integral of the terms over n >= N
under lambda_n = lambda_N (N/n)^(2H+1), with phi_n^2 at its mean phi_bar^2
(2H+1 at the endpoint, 1 inside), in closed form with b = 2H/(2H+1):
    tail = phi_bar^2 N lambda_N / (2H) * 2F1(1, b; b+1; -mu^2 T lambda_N / eps).
"""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import gamma as _gamma_fn
from scipy.special import hyp2f1

from .exceptions import DomainError, SolverError, TruncationError
from .model import DEFAULT_GL_ORDER, CovMatrix, ModelParams, QuadGrid, cov_matrix
from .spectral_oracle import Spectrum, nystrom_eigs, ou_closed_form_eigs

EXCLUDED_TERM_BUDGET = 1e-3  # largest excluded series term, relative to P
TAIL_BUDGET = 2e-2           # estimated excluded series mass, relative to P


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


def _check_series_args(eps, spec: Spectrum):
    if not 0.0 < eps < np.inf:
        raise DomainError(f"eps must be finite and positive, got {eps}")
    if spec.n_max == 0:
        raise DomainError("empty spectrum")


def mse_series(u, eps, p: ModelParams, spec: Spectrum):
    """Eigen-series value of P(u, eps) from the given spectrum.

    The pairs beyond n_max are left out; `truncation_tail` estimates their mass.
    """
    _check_series_args(eps, spec)
    phi2 = np.asarray(spec.phi_values(u)) ** 2
    return float(_series_terms(eps, p, spec.lam) @ phi2)


def truncation_tail(eps, p: ModelParams, spec: Spectrum, endpoint=False):
    """Series mass beyond n_max (module docstring); `eps` and `endpoint`
    broadcast against each other, and two scalars give a float."""
    H = p.H
    lam_n = max(float(spec.lam[-1]), 0.0)
    phi_bar2 = np.where(endpoint, 2.0 * H + 1.0, 1.0)
    b = 2.0 * H / (2.0 * H + 1.0)
    with np.errstate(over="ignore"):  # y = inf gives a zero tail
        y = p.mu ** 2 * p.T * lam_n / np.asarray(eps, dtype=float)
    tail = phi_bar2 * spec.n_max * lam_n / (2.0 * H) * hyp2f1(1.0, b, b + 1.0, -y)
    return float(tail) if tail.ndim == 0 else tail


def largest_excluded_term(eps, p: ModelParams, spec: Spectrum, endpoint=True):
    """Estimate of series term n_max + 1 (the truncation-sufficiency probe)."""
    N = spec.n_max
    lam_next = float(spec.lam[-1]) * (N / (N + 1.0)) ** (2.0 * p.H + 1.0)
    phi_bar2 = 2.0 * p.H + 1.0 if endpoint else 1.0
    return float(_series_terms(eps, p, np.array([lam_next]))[0] * phi_bar2)


def check_truncation(eps, p: ModelParams, spec: Spectrum, u=1.0, P=None):
    """Raise TruncationError if eps needs more eigenpairs than available.

    Guards both the largest excluded term and the estimated excluded mass;
    the latter matters for slowly decaying tails (small H), where every
    single excluded term can look negligible while their sum is not.  `P` is
    the series value `mse_series(u, eps, p, spec)`, computed here when the
    caller does not already hold it.
    """
    if P is None:
        P = mse_series(u, eps, p, spec)
    tail = truncation_tail(eps, p, spec, endpoint=(u == 1.0))
    with np.errstate(over="ignore"):  # only the messages read it; inf is fine
        n_eff = (p.mu ** 2 * p.T ** (2.0 * p.H + 1.0) / eps) ** (1.0 / (2.0 * p.H + 1.0))
    worst = largest_excluded_term(eps, p, spec, endpoint=(u == 1.0))
    if worst > EXCLUDED_TERM_BUDGET * P:
        raise TruncationError(
            f"eps={eps:g} needs ~{n_eff:.0f} effective terms; largest excluded "
            f"term {worst:.2e} exceeds {EXCLUDED_TERM_BUDGET:.0e} * P = "
            f"{EXCLUDED_TERM_BUDGET * P:.2e} with n_max={spec.n_max}")
    if tail > TAIL_BUDGET * P:
        raise TruncationError(
            f"eps={eps:g}: estimated excluded series mass {tail:.2e} exceeds "
            f"{TAIL_BUDGET:.0e} * P = {TAIL_BUDGET * P:.2e} with "
            f"n_max={spec.n_max} (~{n_eff:.0f} effective terms)")


def mse_wiener_hopf(u, eps, cov: CovMatrix):
    """P(u, eps) from the dense Wiener-Hopf solve on the matrix's grid, with
    mu and T from its params.

    u is one point in [0,1] or a sequence of them, each snapped to the
    nearest grid node; a sequence shares one Cholesky factorization and
    returns an array.  Algebraically identical to `mse_series` fed the full
    spectrum of the same matrix at that node.  So at u = 1 this is the value
    at the last node, not at the endpoint where `mse_series` reads phi(1):
    at N = 300 (H = 0.7, beta = -1, eps = 1e-3) that node is 1.6e-5 from 1
    and the two differ by 2.7e-4 relative.  The off-grid formula of ROADMAP
    item 3, evaluated at u itself, closes this gap.
    """
    if not 0.0 < eps < np.inf:
        raise DomainError(f"eps must be finite and positive, got {eps}")
    us = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all((us >= 0.0) & (us <= 1.0)):
        raise DomainError(f"u must lie in [0,1], got {u}")
    p, grid = cov.params, cov.grid
    j = np.argmin(np.abs(grid.nodes[:, None] - us[None, :]), axis=0)
    sw = np.sqrt(grid.weights)
    A = sw[:, None] * cov.values * sw[None, :]
    A *= p.mu ** 2 * p.T
    A[np.diag_indices_from(A)] += eps
    try:
        ch = cho_factor(A, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Wiener-Hopf system not positive definite: {exc}",
                          stage="mse_wiener_hopf")
    rhs = p.mu ** 2 * sw[:, None] * cov.values[:, j]
    h_cols = cho_solve(ch, rhs) / sw[:, None]
    P = eps / p.mu ** 2 * h_cols[j, np.arange(len(j))]
    return float(P[0]) if np.ndim(u) == 0 else P


def mse_asymptotic(position, eps, p: ModelParams):
    """Leading small-noise term; `position` is "interior" or "endpoint"."""
    if not 0.0 < eps < np.inf:
        raise DomainError(f"eps must be finite and positive, got {eps}")
    H = p.H
    C = np.sin(np.pi * H) * _gamma_fn(2.0 * H + 1.0)
    base = (eps / p.mu ** 2) ** (2.0 * H / (1.0 + 2.0 * H)) \
        * C ** (1.0 / (1.0 + 2.0 * H)) / np.sin(np.pi / (2.0 * H + 1.0))
    if position == "endpoint":
        return float(base)
    if position == "interior":
        return float(base / (2.0 * H + 1.0))
    raise DomainError(f"position must be 'interior' or 'endpoint', got {position!r}")


def build_spectrum(p: ModelParams, method="oracle", n_max=200, grid: QuadGrid = None,
                   grid_size=1000, gl_order=DEFAULT_GL_ORDER) -> Spectrum:
    """Construct the requested spectrum source for error sweeps.

    oracle         : Nystrom eigensolve on a Gauss-Legendre grid
    closed_form_ou : exact H = 1/2 spectrum (requires H = 1/2)
    first_order    : two-term frequencies and the eigenvalue formula
    refined        : oracle pairs below the solver's reach, then the
                     integro-algebraic solver (H >= 1/2)
    """
    if method in ("oracle", "refined"):
        if grid is None:
            grid = QuadGrid.gauss_legendre_unit(grid_size)
        cov = cov_matrix(grid, p, gl_order)
        # the matrix stays on the spectrum for the Wiener-Hopf route
        if method == "oracle":
            return replace(nystrom_eigs(cov, n_max), cov=cov)
        from . import ia_refine  # the other routes never load the solver

        # the refined route keeps only the head pairs below the solver's start
        n_head = min(n_max, ia_refine.DEFAULT_N_MIN - 1)
        head = replace(nystrom_eigs(cov, n_head), cov=cov)
        return ia_refine.refined_spectrum(p, head, n_max)
    if method == "closed_form_ou":
        return ou_closed_form_eigs(p.beta_eff, n_max, grid=grid, params=p)
    if method == "first_order":
        from . import asymptotics

        n = np.arange(1, n_max + 1)
        nu = asymptotics.nu_first_order(n, p.H)
        lam = asymptotics.lambda_from_nu(nu, p.H, p.beta_eff) * p.T ** (2.0 * p.H)
        phi = None if grid is None else asymptotics.phi_first_order(grid.nodes, n, p.H)
        phi1 = asymptotics.phi_first_order(1.0, n, p.H)
        integ = asymptotics.phi_integral_first_order(n, p.H)
        return Spectrum("first_order", p, lam, nu, grid, phi, phi1, integ,
                        extend=lambda spec, u: asymptotics.phi_first_order(
                            u, n, spec.params.H))
    raise DomainError(f"unknown spectrum method {method!r}")


def convergence_study(p: ModelParams, eps_grid, u_points, spec: Spectrum,
                      with_wiener_hopf=False) -> MseReport:
    """Sweep P over decreasing eps and u, with ratios to the asymptote.

    Raises TruncationError when the smallest eps needs more eigenpairs than
    `spec` holds (see `check_truncation`), and DomainError when a tabulated
    value is not finite (eps/mu^2 outside the float range).  Also records the oscillation
    diagnostic I2 = P(u) - I1, where I1 is the series with phi^2 replaced by
    its interior mean 1: I2 must stay O(eps), i.e. vanish faster than the
    main term.
    """
    eps_grid = np.asarray(list(eps_grid), dtype=float)
    u_points = np.asarray(list(u_points), dtype=float)
    if len(eps_grid) == 0 or not np.all(np.diff(eps_grid) < 0):
        raise DomainError("eps_grid must be strictly decreasing")
    if not np.all((u_points > 0) & (u_points <= 1)):
        raise DomainError("u_points must lie in (0, 1]")
    _check_series_args(eps_grid[-1], spec)
    endpoint = u_points == 1.0
    phi2 = [np.asarray(spec.phi_values(float(u))) ** 2 for u in u_points]
    P_series, i1 = [], []
    for eps in eps_grid:
        terms = _series_terms(eps, p, spec.lam)
        # one dot product per cell: a matrix product would round differently
        P_series.append([float(terms @ f) for f in phi2])
        i1.append(float(np.sum(terms)))
    P_series = np.array(P_series)
    # the smallest eps row is exactly what mse_series gives at each u
    for u, P in zip(u_points, P_series[-1]):
        check_truncation(eps_grid[-1], p, spec, u=float(u), P=float(P))
    I2 = P_series - np.array(i1)[:, None]
    tails = truncation_tail(eps_grid[:, None], p, spec, endpoint=endpoint)
    P_asym = np.array([[mse_asymptotic("endpoint" if e else "interior", float(eps), p)
                        for e in endpoint] for eps in eps_grid])
    P_wh = None
    if with_wiener_hopf:
        if spec.grid is None:
            raise DomainError("Wiener-Hopf route needs a spectrum with a grid")
        cov = spec.cov if spec.cov is not None and spec.cov.params == p \
            else cov_matrix(spec.grid, p)
        P_wh = np.array([mse_wiener_hopf(u_points, float(eps), cov)
                         for eps in eps_grid])
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
