"""Command-line front end: eigs / mse / special / validate.

Output is CSV with '#'-prefixed header comments (default) or JSON with a
top-level {config, results} object.  All numbers are printed with 17
significant digits and no timestamps, so identical configs give
byte-identical files.  Exit codes: 0 ok, 1 validation failure, 2 usage,
3 solver failure, 4 truncation refusal.

Heavy imports happen inside the command handlers so that --threads (or a
`threads` line in the config file) can pin the BLAS thread count before
numpy loads; results are thread-count invariant up to BLAS reduction
order, and exactly reproducible for a fixed count.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_TRUNCATION = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


@dataclass
class RunConfig:
    """Flat, file-round-trippable run description; flags override file values."""

    command: str = ""
    H: float = 0.7
    beta: float = 0.0
    mu: float = 1.0
    T: float = 1.0
    N_unit: int = 0      # 0 = auto: 1000 for eigs, max(3000, 2*n_max) for mse
    gl_order: int = 64
    n_max: int = 0       # 0 = auto: 20 for eigs, >= 1500 for mse
    eps: tuple = (1e-3, 1e-4, 1e-5)
    u: tuple = (0.5, 1.0)
    spectrum: str = "oracle"
    nu: float = 50.0
    out: str = "-"
    format: str = "csv"
    threads: int = 0
    quick: bool = False
    with_wh: bool = False


_LIST_KEYS = {"eps", "u"}
_INT_KEYS = {"N_unit", "gl_order", "n_max", "threads"}
_FLOAT_KEYS = {"H", "beta", "mu", "T", "nu"}
_BOOL_KEYS = {"quick", "with_wh"}


def parse_config_text(text):
    """Parse 'key = value' lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in _LIST_KEYS:
            out[key] = tuple(float(v) for v in val.split(",") if v.strip())
        elif key in _INT_KEYS:
            out[key] = int(val)
        elif key in _FLOAT_KEYS:
            out[key] = float(val)
        elif key in _BOOL_KEYS:
            out[key] = val.lower() in ("1", "true", "yes")
        else:
            out[key] = val
    return out


def config_text(cfg: RunConfig):
    """Serialize a config so that parse_config_text round-trips it."""
    lines = []
    for f in fields(RunConfig):
        v = getattr(cfg, f.name)
        if f.name in _LIST_KEYS:
            v = ",".join(_fmt(x) for x in v)
        elif isinstance(v, float):
            v = _fmt(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def _fmt(x):
    return f"{float(x):.16e}"


def _merge_config(args, parser):
    file_vals = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_vals = parse_config_text(fh.read())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
    cfg = RunConfig(command=args.command)
    for f in fields(RunConfig):
        if f.name == "command":
            continue
        flag_val = getattr(args, f.name, None)
        if flag_val is not None:
            if f.name in _LIST_KEYS and isinstance(flag_val, str):
                try:
                    flag_val = tuple(float(v) for v in flag_val.split(",") if v.strip())
                except ValueError:
                    parser.error(f"--{f.name}: expected a comma list of numbers, "
                                 f"got {flag_val!r}")
            setattr(cfg, f.name, flag_val)
        elif f.name in file_vals:
            setattr(cfg, f.name, file_vals[f.name])
    return cfg


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="fouspec",
        description="Spectra and small-noise estimation error of the "
                    "fractional Ornstein-Uhlenbeck signal.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="flat key=value config file; flags override")
        sp.add_argument("--H", type=float, help="Hurst exponent in (0,1) [0.7]")
        sp.add_argument("--beta", type=float, help="drift coefficient [0]")
        sp.add_argument("--mu", type=float, help="observation gain [1]")
        sp.add_argument("--T", type=float, help="horizon [1]")
        sp.add_argument("--N-unit", dest="N_unit", type=int,
                        help="unit-interval grid size [auto: 1000 for eigs, "
                             ">= 3000 for mse]")
        sp.add_argument("--gl-order", dest="gl_order", type=int,
                        help="Gauss order per 1-d integral [64]")
        sp.add_argument("--n-max", dest="n_max", type=int,
                        help="eigenpairs [auto: 20 for eigs, sized to the "
                             "smallest eps for mse]")
        sp.add_argument("--out", help="output path, '-' for stdout [-]")
        sp.add_argument("--format", choices=("csv", "json"), help="output format [csv]")
        sp.add_argument("--threads", type=int,
                        help="BLAS thread count (0 = machine default); also "
                             "FOUSPEC_THREADS")

    sp = sub.add_parser("eigs", help="three-way eigenvalue/eigenfunction table")
    common(sp)
    sp = sub.add_parser("mse", help="estimation-error sweep with asymptote ratios")
    common(sp)
    sp.add_argument("--eps", type=str, help="comma list of noise intensities")
    sp.add_argument("--u", type=str, help="comma list of relative times in (0,1]")
    sp.add_argument("--spectrum",
                    choices=("oracle", "closed_form_ou", "first_order", "refined"),
                    help="spectrum source [oracle]")
    sp.add_argument("--with-wh", dest="with_wh", action="store_const", const=True,
                    help="include the dense Wiener-Hopf column")
    sp = sub.add_parser("special", help="tabulate theta, h, rho0 and the constants")
    common(sp)
    sp.add_argument("--nu", type=float, help="frequency for the finite-nu profile [50]")
    sp = sub.add_parser("validate", help="run the acceptance suite")
    common(sp)
    sp.add_argument("--quick", action="store_const", const=True,
                    help="fast subset (no refined solver)")
    return ap


def _apply_threads(argv):
    n = 0
    env = os.environ.get("FOUSPEC_THREADS")
    if env and env.isdigit():
        n = int(env)
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv) and argv[i + 1].lstrip("-").isdigit():
            n = int(argv[i + 1])
        elif a.startswith("--threads="):
            n = int(a.split("=", 1)[1])
        elif a == "--config" and i + 1 < len(argv):
            try:
                with open(argv[i + 1]) as fh:
                    n = parse_config_text(fh.read()).get("threads", n) or n
            except (OSError, ValueError):
                pass
    if n > 0:
        for var in _THREAD_VARS:
            os.environ[var] = str(n)


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def _csv_lines(cfg, comments, header, rows):
    from . import __version__
    lines = [f"# fouspec {__version__}", f"# command: {cfg.command}"]
    for f in fields(RunConfig):
        if f.name in ("command", "out", "format"):
            continue
        v = getattr(cfg, f.name)
        if f.name in _LIST_KEYS:
            v = ",".join(_fmt(x) for x in v)
        lines.append(f"# {f.name}={v}")
    lines += [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("" if v is None else (_fmt(v) if isinstance(v, float) else str(v))
                              for v in row))
    return "\n".join(lines) + "\n"


def _emit(cfg, text_or_obj):
    if cfg.format == "json":
        payload = json.dumps(text_or_obj, indent=2, sort_keys=False)
        data = payload + "\n"
    else:
        data = text_or_obj
    if cfg.out in ("-", "", None):
        sys.stdout.write(data)
    else:
        with open(cfg.out, "w") as fh:
            fh.write(data)


def render_eigs_csv(cfg: RunConfig):
    text, _ = compute_eigs(cfg)
    return text


def compute_eigs(cfg: RunConfig):
    import numpy as np

    from .asymptotics import lambda_from_nu, nu_first_order, phi_first_order
    from .ia_refine import DEFAULT_N_MIN, find_nu
    from .model import ModelParams, QuadGrid, cov_matrix
    from .spectral_oracle import nystrom_eigs

    p = ModelParams(H=cfg.H, beta=cfg.beta, mu=cfg.mu, T=cfg.T)
    n_max = cfg.n_max or 20
    grid = QuadGrid.gauss_legendre_unit(cfg.N_unit or 1000)
    spec = nystrom_eigs(cov_matrix(grid, p, gl_order=cfg.gl_order), grid, n_max)
    ns = np.arange(1, n_max + 1)
    nu_fo = nu_first_order(ns, p.H)
    lam_fo = lambda_from_nu(nu_fo, p.H, p.beta_eff) * p.T ** (2 * p.H)
    phi1_fo = [phi_first_order(1.0, int(n), p.H) for n in ns]
    refined_ok = p.H >= 0.5
    comments = []
    if not refined_ok:
        comments.append("warning: H < 1/2, refined solver out of scope; "
                        "refined columns omitted")
    lam_rf = {}
    nu_rf = {}
    if refined_ok:
        for n in range(max(DEFAULT_N_MIN, 1), n_max + 1):
            nu_val, _, _ = find_nu(n, p)
            nu_rf[n] = nu_val
            lam_rf[n] = lambda_from_nu(nu_val, p.H, p.beta_eff) * p.T ** (2 * p.H)
    header = ["n", "lambda_oracle", "lambda_first_order"]
    if refined_ok:
        header.append("lambda_refined")
    header += ["nu_first_order"]
    if refined_ok:
        header.append("nu_refined")
    header += ["phi1_oracle", "phi1_asym", "rel_err_first_order"]
    if refined_ok:
        header.append("rel_err_refined")
    rows = []
    results = []
    for i, n in enumerate(ns):
        n = int(n)
        row = [n, float(spec.lam[i]), float(lam_fo[i])]
        if refined_ok:
            row.append(float(lam_rf[n]) if n in lam_rf else None)
        row.append(float(nu_fo[i]))
        if refined_ok:
            row.append(float(nu_rf[n]) if n in nu_rf else None)
        row += [float(spec.phi1[i]), float(phi1_fo[i]),
                float(abs(lam_fo[i] / spec.lam[i] - 1.0))]
        if refined_ok:
            row.append(float(abs(lam_rf[n] / spec.lam[i] - 1.0)) if n in lam_rf else None)
        rows.append(row)
        results.append(dict(zip(header, row)))
    if cfg.format == "json":
        return {"config": asdict(cfg), "results": results, "notes": comments}, results
    return _csv_lines(cfg, comments, header, rows), results


def compute_mse(cfg: RunConfig):
    import numpy as np
    from scipy.special import gamma as gamma_fn

    from .error_analysis import build_spectrum, convergence_study
    from .model import ModelParams

    if not cfg.eps:
        raise UsageError("mse requires a nonempty --eps list")
    if not cfg.u:
        raise UsageError("mse requires a nonempty --u list")
    p = ModelParams(H=cfg.H, beta=cfg.beta, mu=cfg.mu, T=cfg.T)
    eps = sorted((float(e) for e in cfg.eps), reverse=True)
    if len(set(eps)) != len(eps):
        raise UsageError("duplicate eps values")
    method = cfg.spectrum
    n_max = cfg.n_max
    if method == "oracle" and abs(p.H - 0.5) < 1e-14:
        # at H = 1/2 the exact closed form IS the brute-force spectrum; it
        # allows the deep truncations the power-law tail needs
        method = "closed_form_ou"
    if not n_max:
        n_eff = (p.mu ** 2 * p.T ** (2 * p.H + 1) / eps[-1]) ** (1.0 / (2 * p.H + 1))
        n_max = max(1500, int(5 * n_eff))
        if method == "closed_form_ou":
            n_max = min(max(n_max, int(200 * n_eff)), 5_000_000)
    grid_size = cfg.N_unit or max(3000, 2 * n_max)
    if method in ("oracle", "refined") and n_max > grid_size:
        raise UsageError(f"n_max={n_max} exceeds the grid size {grid_size}; "
                         "raise --N-unit or lower --n-max")
    spec = build_spectrum(p, method, n_max=n_max, grid_size=grid_size,
                          gl_order=cfg.gl_order)
    us = []
    for u in cfg.u:
        u = float(u)
        if spec.grid is not None and u != 1.0:
            j = int(np.argmin(np.abs(spec.grid.nodes - u)))
            u = float(spec.grid.nodes[j])  # snap to the grid (echoed in output)
        us.append(u)
    rep = convergence_study(p, eps, us, spec, with_wiener_hopf=cfg.with_wh)
    H = p.H
    comments = [
        "P_asym = (eps/mu^2)^(2H/(1+2H)) * C^(1/(1+2H)) / sin(pi/(2H+1)) "
        "* (1/(2H+1) interior, 1 endpoint)",
        f"exponent 2H/(1+2H) = {_fmt(2 * H / (1 + 2 * H))}",
        f"C = sin(pi H)*Gamma(2H+1) = {_fmt(float(np.sin(np.pi * H) * gamma_fn(2 * H + 1)))}",
        f"spectrum = {spec.method}, n_max = {spec.n_max}",
    ]
    header = ["eps", "u", "P_series", "P_asymptotic", "ratio", "tail_est"]
    if rep.P_wiener_hopf is not None:
        header.insert(3, "P_wiener_hopf")
    rows = []
    results = []
    for i, e in enumerate(eps):
        for k, u in enumerate(us):
            row = [float(e), float(u), float(rep.P_series[i, k])]
            if rep.P_wiener_hopf is not None:
                row.append(float(rep.P_wiener_hopf[i, k]))
            row += [float(rep.P_asymptotic[i, k]), float(rep.ratios[i, k]),
                    float(rep.diagnostics["tails"][i, k])]
            rows.append(row)
            results.append(dict(zip(header, row)))
    if cfg.format == "json":
        return {"config": asdict(cfg), "results": results, "notes": comments}, results
    return _csv_lines(cfg, comments, header, rows), results


def compute_special(cfg: RunConfig):
    import numpy as np

    from .asymptotics import (ThetaProfile, b_alpha_closed, b_alpha_numeric,
                              gamma0, h_weight, rho0)
    from .model import ModelParams

    p = ModelParams(H=cfg.H, beta=cfg.beta, mu=cfg.mu, T=cfg.T)
    alpha = p.alpha
    lim = ThetaProfile(alpha)
    finite = None
    if alpha <= 1.0:
        finite = ThetaProfile(alpha, p.beta_eff, cfg.nu)
    comments = [f"alpha = {_fmt(alpha)}"]
    x0 = lim.x_cauchy(1j)
    comments.append(f"X0(i) modulus = {_fmt(abs(x0))}, argument = {_fmt(float(np.angle(x0)))}")
    if alpha <= 1.0:
        comments.append(f"b_alpha_closed = {_fmt(b_alpha_closed(alpha))}")
        comments.append(f"b_alpha_numeric(beta,nu) = "
                        f"{_fmt(b_alpha_numeric(p.beta_eff, cfg.nu, alpha))}")
        xb = finite.x_cauchy(1j)
        comments.append(f"X_beta(i;nu) modulus = {_fmt(abs(xb))}, "
                        f"argument = {_fmt(float(np.angle(xb)))}")
    else:
        comments.append("alpha > 1: finite-nu profile and b_alpha out of scope; "
                        "limit-profile columns only")
    us = np.logspace(-3, 2, 81)
    th0 = lim.theta(us)
    thn = finite.theta(us) if finite is not None else th0
    hv = h_weight(us, finite if finite is not None else lim)
    rv = rho0(us, alpha)
    gv = gamma0(us, alpha)
    header = ["u", "theta_nu", "theta0", "h", "rho0", "gamma0"]
    rows = [[float(us[i]), float(thn[i]), float(th0[i]), float(hv[i]),
             float(rv[i]), float(gv[i])] for i in range(len(us))]
    results = [dict(zip(header, r)) for r in rows]
    if cfg.format == "json":
        return {"config": asdict(cfg), "results": results, "notes": comments}, results
    return _csv_lines(cfg, comments, header, rows), results


class UsageError(Exception):
    pass


def _run_validate(cfg: RunConfig):
    from .validation import run_all
    results = run_all(quick=bool(cfg.quick))
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        sys.stderr.write(f"{status} {r['id']:>2} {r['name']} ({r['seconds']}s)\n")
    verdict = {"config": asdict(cfg), "results": results}
    _emit(cfg, verdict if cfg.format == "json" else json.dumps(verdict, indent=2) + "\n")
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_VALIDATION


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    _apply_threads(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    cfg = _merge_config(args, parser)
    from .exceptions import DomainError, SolverError, TruncationError
    try:
        if cfg.command == "validate":
            return _run_validate(cfg)
        if cfg.command == "eigs":
            out, _ = compute_eigs(cfg)
        elif cfg.command == "mse":
            out, _ = compute_mse(cfg)
        elif cfg.command == "special":
            out, _ = compute_special(cfg)
        else:  # pragma: no cover
            raise UsageError(f"unknown command {cfg.command!r}")
        _emit(cfg, out)
        return EXIT_OK
    except UsageError as exc:
        sys.stderr.write(f"fouspec: usage error: {exc}\n")
        return EXIT_USAGE
    except DomainError as exc:
        sys.stderr.write(f"fouspec: invalid parameters: {exc}\n")
        return EXIT_USAGE
    except TruncationError as exc:
        sys.stderr.write(f"fouspec: truncation refusal: {exc}\n")
        return EXIT_TRUNCATION
    except SolverError as exc:
        stage = f" [stage: {exc.stage}]" if exc.stage else ""
        sys.stderr.write(f"fouspec: solver failure{stage}: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
