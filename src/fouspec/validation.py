"""Acceptance suite: one callable per criterion, shared by tests and the CLI.

Each check returns {"id", "name", "passed", "seconds", "details"}.  Spectra
are cached per parameter set so the eigenvalue, endpoint and dominance
checks reuse one eigensolve.  Trend assertions use a floor rule: a
decreasing error sequence passes outright, and so does one that never
leaves a 1% band (the trend is unobservable below the oracle's own
discretization floor).
"""

import functools
import math
import time

import numpy as np

from .asymptotics import (ThetaProfile, b_alpha_closed, b_alpha_numeric,
                          lambda_from_nu, nu_first_order)
from .error_analysis import (build_spectrum, convergence_study, mse_series,
                             mse_wiener_hopf)
from .ia_refine import find_nu
from .model import ModelParams, QuadGrid, cov_matrix, fou_cov
from .spectral_oracle import nystrom_eigs, ou_closed_form_eigs

FLOOR = 0.01  # error band in which trend assertions are vacuous

_cache = {}


def _oracle(H, beta, N, n_max):
    key = ("oracle", H, beta, N, n_max)
    if key not in _cache:
        p = ModelParams(H=H, beta=beta)
        _cache[key] = nystrom_eigs(cov_matrix(QuadGrid.gauss_legendre_unit(N), p), n_max)
    return _cache[key]


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*a, **k):
        t0 = time.perf_counter()
        out = fn(*a, **k)
        out["seconds"] = round(time.perf_counter() - t0, 2)
        return out
    return wrapper


@_timed
def check_bm_spectrum(quick=False):
    """Criterion 1: Brownian-motion spectrum against ((n-1/2)pi)^-2."""
    N = 600 if quick else 1000
    t0 = time.perf_counter()
    spec = _oracle(0.5, 0.0, N, 10)
    runtime = time.perf_counter() - t0
    exact = ((np.arange(1, 11) - 0.5) * np.pi) ** -2.0
    rel = float(np.max(np.abs(spec.lam / exact - 1.0)))
    return {"id": 1, "name": "bm_spectrum",
            "passed": rel < 1e-3 and runtime < 60.0,
            "details": {"max_rel_err_n_le_10": rel, "runtime_s": round(runtime, 2),
                        "N": N}}


@_timed
def check_ou_spectrum(quick=False):
    """Criterion 2: Nystrom vs closed-form OU spectrum at H=1/2, beta=1."""
    N = 600 if quick else 1000
    spec = _oracle(0.5, 1.0, N, 10)
    closed = ou_closed_form_eigs(1.0, 10)
    rel = float(np.max(np.abs(spec.lam / closed.lam - 1.0)))
    return {"id": 2, "name": "ou_spectrum", "passed": rel < 1e-3,
            "details": {"max_rel_err_n_le_10": rel, "N": N}}


def _trend_ok(err):
    early = float(np.mean(err[:8]))
    late = float(np.mean(err[-8:]))
    return late < early or float(np.max(err)) <= FLOOR


@_timed
def check_eigenvalue_formula(quick=False):
    """Criterion 3: first-order eigenvalue formula vs oracle, 8 parameter sets."""
    N = 2000
    ns = np.arange(5, 31)
    details = {}
    ok = True
    for H in (0.3, 0.6, 0.7, 0.8):
        for beta in (0.0, -1.0):
            spec = _oracle(H, beta, N, 30)
            lam_f = lambda_from_nu(nu_first_order(ns, H), H, beta)
            err = np.abs(lam_f / spec.lam[ns - 1] - 1.0)
            e20 = float(err[ns == 20][0])
            good = e20 <= 0.05 and _trend_ok(err)
            ok &= good
            details[f"H={H},beta={beta}"] = {
                "err_at_20": e20, "max_err": float(err.max()),
                "trend_ok": _trend_ok(err), "passed": good}
    return {"id": 3, "name": "eigenvalue_formula", "passed": bool(ok),
            "details": details}


@_timed
def check_endpoint_law(quick=False):
    """Criterion 4: (phi_20(1))^2 within 10% of 2H+1."""
    details = {}
    ok = True
    for H in (0.3, 0.6, 0.7, 0.8):
        for beta in (0.0, -1.0):
            spec = _oracle(H, beta, 2000, 30)
            val = float(spec.phi1[19] ** 2)
            rel = abs(val / (2.0 * H + 1.0) - 1.0)
            ok &= rel <= 0.10
            details[f"H={H},beta={beta}"] = {"phi1_20_sq": val, "rel_err": rel}
    return {"id": 4, "name": "endpoint_law", "passed": bool(ok), "details": details}


@_timed
def check_ia_degenerate(quick=False):
    """Criterion 5: alpha=1, beta=0 roots satisfy cos(nu)=0; lambda = 1/nu^2."""
    p = ModelParams(H=0.5, beta=0.0)
    worst_cos = 0.0
    worst_lam = 0.0
    for n in range(3, 13):
        nu, ref, _ = find_nu(n, p)
        worst_cos = max(worst_cos, abs(math.cos(nu)))
        lam = lambda_from_nu(nu, 0.5, 0.0)
        worst_lam = max(worst_lam, abs(lam - 1.0 / nu ** 2))
    return {"id": 5, "name": "ia_degenerate",
            "passed": worst_cos <= 1e-8 and worst_lam <= 1e-8,
            "details": {"max_abs_cos": worst_cos, "max_lambda_err": worst_lam}}


@_timed
def check_refinement_dominance(quick=False):
    """Criterion 6: refined lambda strictly closer than first-order, n in [5,30]."""
    H, beta = 0.7, -1.0
    p = ModelParams(H=H, beta=beta)
    spec = _oracle(H, beta, 2000, 30)
    ns = np.arange(5, 31)
    lam_fo = lambda_from_nu(nu_first_order(ns, H), H, beta)
    lam_rf = np.array([lambda_from_nu(find_nu(int(n), p)[0], H, beta) for n in ns])
    err_fo = np.abs(lam_fo / spec.lam[ns - 1] - 1.0)
    err_rf = np.abs(lam_rf / spec.lam[ns - 1] - 1.0)
    dominated = bool(np.all(err_rf < err_fo))
    return {"id": 6, "name": "refinement_dominance", "passed": dominated,
            "details": {"max_err_refined": float(err_rf.max()),
                        "min_gap_factor": float(np.min(err_fo / err_rf))}}


@_timed
def check_special_constants(quick=False):
    """Criterion 7: b_alpha numeric vs closed form; X0(i) modulus and argument."""
    details = {}
    ok = True
    for alpha in (0.2, 0.5, 0.8):
        diff = abs(b_alpha_numeric(0.0, math.inf, alpha) - b_alpha_closed(alpha))
        x0 = ThetaProfile(alpha).x_cauchy(1j)
        dmod = abs(abs(x0) - math.sqrt((3.0 - alpha) / 2.0))
        darg = abs(np.angle(x0) - (1.0 - alpha) * math.pi / 8.0)
        good = diff <= 1e-6 and dmod <= 1e-4 and darg <= 1e-4
        ok &= good
        details[f"alpha={alpha}"] = {"b_alpha_diff": diff, "x0_mod_err": dmod,
                                     "x0_arg_err": darg}
    return {"id": 7, "name": "special_constants", "passed": bool(ok),
            "details": details}


@_timed
def check_series_wh_identity(quick=False):
    """Criterion 8: eigen-series equals the Wiener-Hopf solve on one grid."""
    N = 200 if quick else 300
    p = ModelParams(H=0.7, beta=-1.0)
    g = QuadGrid.gauss_legendre_unit(N)
    cov = cov_matrix(g, p)
    spec = nystrom_eigs(cov, N)
    us = [float(g.nodes[N // 4]), float(g.nodes[N // 2]), float(g.nodes[-2])]
    worst = 0.0
    for eps in (1e-2, 1e-3, 1e-4):
        for u in us:
            a = mse_series(u, eps, p, spec)
            b = mse_wiener_hopf(u, eps, cov)
            worst = max(worst, abs(a - b) / abs(b))
    return {"id": 8, "name": "series_wh_identity", "passed": worst <= 1e-6,
            "details": {"max_rel_diff": worst, "N": N}}


@_timed
def check_error_asymptote(quick=False):
    """Criterion 9: small-noise error ratios against the closed asymptote."""
    details = {}
    # classical case, closed-form spectrum
    p5 = ModelParams(H=0.5, beta=0.0)
    n_max = 200_000 if quick else 2_000_000
    spec5 = build_spectrum(p5, "closed_form_ou", n_max=n_max)
    rep5 = convergence_study(p5, [1e-6], [0.5, 1.0], spec5)
    dev5 = float(np.max(np.abs(rep5.ratios - 1.0)))
    ok = dev5 <= 0.02
    details["H=0.5"] = {"ratios": rep5.ratios[0].tolist(), "max_dev": dev5}
    if not quick:
        p7 = ModelParams(H=0.7, beta=-1.0)
        spec7 = _oracle(0.7, -1.0, 6000, 3000)
        rep7 = convergence_study(p7, [1e-3, 1e-4, 1e-5, 1e-6], [0.5, 1.0], spec7)
        dev7 = float(np.max(np.abs(rep7.ratios[-1] - 1.0)))
        trends = []
        for k in range(2):
            d = np.abs(rep7.ratios[:, k] - 1.0)
            trends.append(bool(np.all(np.diff(d) < 0)) or float(d.max()) <= FLOOR)
        ok &= dev7 <= 0.10 and all(trends)
        details["H=0.7"] = {"ratios": rep7.ratios.tolist(), "dev_at_1e-6": dev7,
                            "trend_ok": trends, "n_pairs": spec7.n_max}
    return {"id": 9, "name": "error_asymptote", "passed": bool(ok),
            "details": details}


@_timed
def check_property_suites(quick=False):
    """Criterion 10: kernel symmetry/PSD/scaling, orthonormality, monotone P,
    byte-identical CLI reruns."""
    rng = np.random.RandomState(7)
    details = {}
    # scaling law at random parameters
    worst = 0.0
    for _ in range(6 if quick else 12):
        H = rng.uniform(0.1, 0.9)
        beta = rng.uniform(-2.0, 2.0)
        T = rng.uniform(0.5, 2.0)
        s, t = np.sort(rng.uniform(0.05, 1.0, 2))
        pT = ModelParams(H=H, beta=beta, T=T)
        p1 = ModelParams(H=H, beta=beta * T)
        lhs = fou_cov(s * T, t * T, pT)
        rhs = T ** (2 * H) * fou_cov(s, t, p1)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    details["scaling_max_rel"] = worst
    ok = worst <= 1e-6
    # symmetry + PSD on a 200-point grid
    p = ModelParams(H=0.7, beta=-1.0)
    g = QuadGrid.gauss_legendre_unit(200)
    cov = cov_matrix(g, p)
    sym = float(np.max(np.abs(cov.values - cov.values.T)))
    spec = nystrom_eigs(cov, 30)
    psd_ok = spec.diagnostics["min_eigenvalue"] >= -1e-10 * spec.diagnostics["trace"]
    details["symmetry_max_abs"] = sym
    details["min_eig_over_trace"] = spec.diagnostics["min_eigenvalue"] / spec.diagnostics["trace"]
    ok &= sym == 0.0 and bool(psd_ok)
    # weighted orthonormality
    gram = (spec.phi * g.weights[:, None]).T @ spec.phi
    ortho = float(np.max(np.abs(gram - np.eye(spec.n_max))))
    details["orthonormality_defect"] = ortho
    ok &= ortho <= 1e-8
    # P monotone in eps
    eps_grid = [1e-2, 1e-3, 1e-4]
    vals = [mse_series(float(g.nodes[100]), e, p, spec) for e in eps_grid]
    mono = bool(vals[0] >= vals[1] >= vals[2])
    details["P_monotone_in_eps"] = mono
    ok &= mono
    # determinism: identical config => byte-identical CSV
    from . import cli
    cfg = cli.RunConfig(command="eigs", H=0.6, beta=-1.0, n_max=5, N_unit=150)
    out1, out2 = cli.render(cfg), cli.render(cfg)
    details["determinism"] = out1 == out2
    ok &= out1 == out2
    return {"id": 10, "name": "property_suites", "passed": bool(ok),
            "details": details}


ALL_CHECKS = [check_bm_spectrum, check_ou_spectrum, check_eigenvalue_formula,
              check_endpoint_law, check_ia_degenerate, check_refinement_dominance,
              check_special_constants, check_series_wh_identity,
              check_error_asymptote, check_property_suites]

QUICK_CHECKS = [check_bm_spectrum, check_ou_spectrum, check_ia_degenerate,
                check_special_constants, check_series_wh_identity,
                check_error_asymptote, check_property_suites]


def run_all(quick=False):
    checks = QUICK_CHECKS if quick else ALL_CHECKS
    t0 = time.perf_counter()
    results = [fn(quick=quick) for fn in checks]
    total = time.perf_counter() - t0
    results.append({"id": 0, "name": "suite_runtime", "passed": total <= 900.0,
                    "seconds": round(total, 2),
                    "details": {"total_seconds": round(total, 2), "budget_s": 900}})
    return results
