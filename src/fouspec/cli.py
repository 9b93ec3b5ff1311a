"""Command-line front end: eigs / mse / special / validate.

Output is CSV with '#'-prefixed header comments (default) or JSON with a
top-level {config, results, notes} object.  All numbers are printed with 17
significant digits and no timestamps, so identical configs give
byte-identical files.  Exit codes: 0 ok, 1 validation failure, 2 usage
or invalid parameters, 3 solver failure, 4 truncation refusal.

Each command takes only the flags it reads; a config file may set any
RunConfig field, and flags override it; `mse` renders what
`error_analysis.estimate` returns.  The thread count resolves as --threads,
then the config file, then FOUSPEC_THREADS, then 0 (machine default), and
`main` pins BLAS to it before any handler imports numpy, so the `# threads=`
header line records the pinned count.  Results are thread-count invariant up
to BLAS reduction order, and exactly reproducible for a fixed count.
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
    """Flat run description, readable from a config file; flags override file values."""

    command: str = ""
    H: float = 0.7
    beta: float = 0.0
    mu: float = 1.0
    T: float = 1.0
    # 0 = auto.  eigs: 1000 nodes, 20 pairs.  mse with both 0 on the oracle:
    # N = max(1000, 10 n_eff) nodes keeping N/2 pairs, and N/2 nodes keeping
    # N/4 for the u = 1 extrapolation; otherwise max(1500, 5 n_eff) pairs
    # (closed form: max(1500, 20 n_eff)) on max(3000, 2*n_max) nodes, or
    # N_unit // 2 pairs on a dense route whose set N_unit is below that
    N_unit: int = 0
    n_max: int = 0
    eps: tuple = (1e-3, 1e-4, 1e-5)
    u: tuple = (0.5, 1.0)
    spectrum: str = "oracle"
    nu: float = 50.0
    out: str = "-"
    format: str = "csv"
    threads: int = 0
    quick: bool = False
    with_wh: bool = False


def float_list(text):
    """'1e-3, 1e-4' -> (0.001, 0.0001); empty items are skipped."""
    return tuple(float(v) for v in text.split(",") if v.strip())


def _flag(text):
    return text.lower() in ("1", "true", "yes")


# config-file value parser for each RunConfig field, from its default's type
_PARSE = {f.name: {tuple: float_list, bool: _flag}.get(type(f.default), type(f.default))
          for f in fields(RunConfig)}


def parse_config_text(text):
    """Parse 'key = value' lines; '#' starts a comment.  Keys are RunConfig
    fields; an unknown key, a malformed value or one outside its flag's
    `choices` raises ValueError."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSE:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        out[key] = _PARSE[key](val)
        choices = _FLAGS.get(key, {}).get("choices")
        if choices and out[key] not in choices:
            raise ValueError(f"config line {lineno}: {key} must be one of "
                             f"{', '.join(choices)}, got {val!r}")
    return out


def _fmt(x):
    return f"{float(x):.16e}"


def _merge_config(args, parser):
    """Flags over config file over defaults; threads also from FOUSPEC_THREADS."""
    try:
        merged = {"threads": int(os.environ.get("FOUSPEC_THREADS", "0"))}
    except ValueError:
        parser.error("FOUSPEC_THREADS must be an integer, got "
                     f"{os.environ['FOUSPEC_THREADS']!r}")
    if args.config:
        try:
            with open(args.config) as fh:
                merged.update(parse_config_text(fh.read()))
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
    merged.update((k, v) for k, v in vars(args).items() if v is not None and k != "config")
    cfg = RunConfig(**merged)
    for key in ("n_max", "N_unit", "threads"):
        if getattr(cfg, key) < 0:
            parser.error(f"{key} must be >= 0 (0 = auto), got {getattr(cfg, key)}")
    return cfg


# every flag, by name; _COMMANDS lists which ones each command takes
_FLAGS = {
    "config": dict(help="flat key=value config file; flags override"),
    "out": dict(help="output path, '-' for stdout [-]"),
    "threads": dict(type=int, help="BLAS thread count (0 = machine default); "
                                   "else the config file, else FOUSPEC_THREADS"),
    "format": dict(choices=("csv", "json"), help="output format [csv]"),
    "H": dict(type=float, help="Hurst exponent in (0,1) [0.7]"),
    "beta": dict(type=float, help="drift coefficient [0]"),
    "T": dict(type=float, help="horizon [1]"),
    "N-unit": dict(type=int, help="unit-interval grid size [auto: 1000 for eigs; for "
                                  "mse sized to the smallest eps, and on the oracle "
                                  "with --n-max auto too, two grids: N >= 1000 and N/2]"),
    "n-max": dict(type=int, help="eigenpairs [auto: 20 for eigs; for mse sized to the "
                                 "smallest eps; half the grid on the oracle's two "
                                 "grids and on a set --N-unit below that size]"),
    "mu": dict(type=float, help="observation gain [1]"),
    "eps": dict(type=float_list, help="comma list of noise intensities"),
    "u": dict(type=float_list, help="comma list of relative times in (0,1]"),
    "spectrum": dict(choices=("oracle", "closed_form_ou", "refined"),
                     help="spectrum source [oracle]; the first-order columns are in eigs"),
    "with-wh": dict(action="store_const", const=True,
                    help="include the dense Wiener-Hopf column"),
    "nu": dict(type=float, help="frequency for the finite-nu profile [50]"),
    "quick": dict(action="store_const", const=True, help="fast subset (no refined solver)"),
}
_EIGS_FLAGS = ("format", "H", "beta", "T", "N-unit", "n-max")
_COMMANDS = {
    "eigs": ("three-way eigenvalue/eigenfunction table", _EIGS_FLAGS),
    "mse": ("estimation-error sweep with asymptote ratios",
            _EIGS_FLAGS + ("mu", "eps", "u", "spectrum", "with-wh")),
    "special": ("tabulate theta, h, rho0 and the constants",
                ("format", "H", "beta", "T", "nu")),
    "validate": ("run the acceptance suite", ("quick",)),
}


_NUMBER_FLAGS = frozenset("--" + f for f, kw in _FLAGS.items()
                          if kw.get("type") in (float, float_list))


def _is_numbers(text):
    try:
        float_list(text)
    except ValueError:
        return False
    return True


def _attach_numbers(argv):
    """argv with each float or float-list flag joined to a following
    negative number as `--flag=value`: argparse takes a token such as
    "-1e-3" for an option, since only plain negative decimals look like
    numbers to it."""
    out = []
    for arg in argv:
        if out and out[-1] in _NUMBER_FLAGS and arg.startswith("-") and _is_numbers(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="fouspec",
        description="Spectra and small-noise estimation error of the "
                    "fractional Ornstein-Uhlenbeck signal.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in ("config", "out", "threads") + flags:
            sp.add_argument("--" + flag, **_FLAGS[flag])
    return ap


# ---------------------------------------------------------------------------
# renderer
# ---------------------------------------------------------------------------

def render(cfg: RunConfig):
    """CSV or JSON text of the eigs, mse or special command described by cfg."""
    compute = {"eigs": compute_eigs, "mse": compute_mse,
               "special": compute_special}[cfg.command]
    comments, header, rows = compute(cfg)
    if cfg.format == "json":
        results = [dict(zip(header, row)) for row in rows]
        return json.dumps({"config": asdict(cfg), "results": results, "notes": comments},
                          indent=2) + "\n"
    from . import __version__
    lines = [f"# fouspec {__version__}", f"# command: {cfg.command}"]
    for f in fields(RunConfig):
        if f.name not in ("command", "out", "format"):
            v = getattr(cfg, f.name)
            if isinstance(v, (tuple, list)):
                v = ",".join(_fmt(x) for x in v)
            lines.append(f"# {f.name}={v}")
    lines += [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join("" if v is None else (_fmt(v) if isinstance(v, float) else str(v))
                              for v in row))
    return "\n".join(lines) + "\n"


def compute_eigs(cfg: RunConfig):
    import numpy as np

    from .asymptotics import lambda_from_nu, nu_first_order, phi_first_order
    from .error_analysis import build_spectrum
    from .exceptions import DomainError, SolverError
    from .ia_refine import DEFAULT_N_MIN, check_scope, find_nu
    from .model import ModelParams

    p = ModelParams(H=cfg.H, beta=cfg.beta, mu=cfg.mu, T=cfg.T)
    n_max = cfg.n_max or 20
    spec = build_spectrum(p, "oracle", n_max=n_max, grid_size=cfg.N_unit or 1000)
    n = np.arange(1, n_max + 1)
    nu_fo = nu_first_order(n, p.H)
    lam_fo = lambda_from_nu(nu_fo, p.H, p.beta_eff) * p.T ** (2.0 * p.H)
    # one ordered column per header entry; the refined ones stay None (and
    # are dropped) below H = 1/2, where the refined solver is out of scope
    cols = {"n": n, "lambda_oracle": spec.lam,
            "lambda_first_order": lam_fo, "lambda_refined": None,
            "nu_first_order": nu_fo, "nu_refined": None,
            "phi1_oracle": spec.phi1, "phi1_asym": phi_first_order(1.0, n, p.H),
            "rel_err_first_order": np.abs(lam_fo / spec.lam - 1.0),
            "rel_err_refined": None}
    comments = []
    try:
        check_scope(p)
    except DomainError:
        comments.append("warning: H < 1/2, refined solver out of scope; "
                        "refined columns omitted")
    else:
        # a refused index keeps its refined cells empty (NaN until printed)
        nu_rf = np.full(n_max, np.nan)
        for n in range(DEFAULT_N_MIN, n_max + 1):
            try:
                nu_rf[n - 1] = find_nu(n, p)[0]
            except (DomainError, SolverError) as exc:
                comments.append(f"warning: refined n={n} refused: {exc}")
        cols["nu_refined"] = nu_rf
        cols["lambda_refined"] = lambda_from_nu(nu_rf, p.H, p.beta_eff) * p.T ** (2 * p.H)
        cols["rel_err_refined"] = np.abs(cols["lambda_refined"] / spec.lam - 1.0)
    cols = {k: [None if v != v else v for v in np.asarray(c).tolist()]
            for k, c in cols.items() if c is not None}
    return comments, list(cols), [list(row) for row in zip(*cols.values())]


def compute_mse(cfg: RunConfig):
    from .error_analysis import estimate
    from .model import ModelParams, spectral_constant

    p = ModelParams(H=cfg.H, beta=cfg.beta, mu=cfg.mu, T=cfg.T)
    rep = estimate(p, cfg.eps, cfg.u, spectrum=cfg.spectrum, n_max=cfg.n_max,
                   grid_size=cfg.N_unit, with_wh=cfg.with_wh)
    comments = [
        "P_asym = (eps/mu^2)^(2H/(1+2H)) * C^(1/(1+2H)) / sin(pi/(2H+1)) "
        "* (1/(2H+1) interior, 1 endpoint)",
        f"exponent 2H/(1+2H) = {_fmt(2 * p.H / (1 + 2 * p.H))}",
        f"C = sin(pi H)*Gamma(2H+1) = {_fmt(spectral_constant(p.H))}",
        f"spectrum = {rep.spectrum_method}, n_max = {rep.truncation_n}",
    ]
    if rep.P_closed is not None:
        comments.append("P_closed = P_series closed by its Mercer remainder; P_closed_err "
                        + ("bounds its truncation error and the rounding of the remainder"
                           if rep.spectrum_method == "closed_form_ou" else
                           "bounds its truncation error only, not the grid error"))
    if "grids" in rep.diagnostics:
        comments.append("at u = 1, P_closed is extrapolated from N = %d and %d nodes "
                        "at order 2H+1, and P_closed_err adds the step" % rep.diagnostics["grids"])
    cols = {"P_series": rep.P_series, "P_wiener_hopf": rep.P_wiener_hopf,
            "P_asymptotic": rep.P_asymptotic, "ratio": rep.ratios,
            "tail_est": rep.diagnostics["tails"], "P_closed": rep.P_closed,
            "P_closed_err": rep.P_closed_err}
    cols = {k: v for k, v in cols.items() if v is not None}
    rows = [[float(e), float(u), *(float(v[i, k]) for v in cols.values())]
            for i, e in enumerate(rep.eps_values) for k, u in enumerate(rep.u_points)]
    return comments, ["eps", "u", *cols], rows


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
    header = ["u", "theta_nu", "theta0", "h", "rho0", "gamma0"]
    cols = (us, thn, th0, hv, rho0(us, alpha), gamma0(us, alpha))
    return comments, header, np.column_stack(cols).tolist()


def _write(cfg: RunConfig, text):
    if cfg.out in ("-", "", None):
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w") as fh:
            fh.write(text)


def _run_validate(cfg: RunConfig):
    from .validation import run_all
    results = run_all(quick=bool(cfg.quick))
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        sys.stderr.write(f"{status} {r['id']:>2} {r['name']} ({r['seconds']}s)\n")
    _write(cfg, json.dumps({"config": asdict(cfg), "results": results}, indent=2) + "\n")
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_VALIDATION


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        cfg = _merge_config(parser.parse_args(_attach_numbers(argv)), parser)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if cfg.threads:
        for var in _THREAD_VARS:
            os.environ[var] = str(cfg.threads)
    from .exceptions import DomainError, SolverError, TruncationError
    try:
        if cfg.command == "validate":
            return _run_validate(cfg)
        _write(cfg, render(cfg))
        return EXIT_OK
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
