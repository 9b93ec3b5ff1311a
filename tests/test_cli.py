import ast
import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fouspec import cli, error_analysis
from fouspec.exceptions import TruncationError
from fouspec.model import ModelParams

SRC = str(Path(cli.__file__).resolve().parents[1])


def run_cli(args, env=None):
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fouspec.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_config_text_is_parsed_by_field_type():
    text = """# one field of each type
H = 0.65
n_max = 77   # an int
eps = 1e-3, 2.5e-5
spectrum = first_order
with_wh = yes
"""
    assert cli.parse_config_text(text) == {"H": 0.65, "n_max": 77, "eps": (1e-3, 2.5e-5),
                                           "spectrum": "first_order", "with_wh": True}


def test_flags_override_config(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("H = 0.6\nn_max = 4\nN_unit = 120\nbeta = -1.0\n")
    code, out, err = run_cli(["eigs", "--config", str(conf), "--n-max", "3"])
    assert code == 0
    assert "# n_max=3" in out
    assert "# H=0.6" in out


def test_eigs_determinism_and_precision():
    cfg = cli.RunConfig(command="eigs", H=0.6, beta=-1.0, n_max=4, N_unit=120)
    out1 = cli.render(cfg)
    out2 = cli.render(cfg)
    assert out1 == out2
    data_row = out1.strip().splitlines()[-1]
    cell = data_row.split(",")[1]
    mantissa = cell.split("e")[0]
    assert len(mantissa.lstrip("-").replace(".", "")) == 17  # 17 significant digits


def test_eigs_small_h_omits_refined_columns():
    code, out, err = run_cli(["eigs", "--H", "0.3", "--n-max", "3",
                              "--N-unit", "100"])
    assert code == 0
    assert "lambda_refined" not in out
    assert "warning" in out


def test_eigs_json_structure():
    code, out, err = run_cli(["eigs", "--H", "0.6", "--beta", "-1", "--n-max", "3",
                              "--N-unit", "100", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "results", "notes"}
    assert len(doc["results"]) == 3
    assert doc["results"][2]["n"] == 3


def test_mse_rows_and_header():
    code, out, err = run_cli(["mse", "--H", "0.5", "--eps", "1e-4,1e-5",
                              "--u", "0.5,1.0", "--spectrum", "closed_form_ou",
                              "--n-max", "50000"])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0].startswith("eps,u,")
    assert len(rows) == 1 + 4  # header + 2 eps x 2 u
    assert "exponent 2H/(1+2H)" in out
    ratio = float(rows[1].split(",")[4])
    assert abs(ratio - 1.0) < 0.05


def test_mse_usage_errors():
    code, _, err = run_cli(["mse", "--eps", "", "--u", "0.5"])
    assert code == 2
    code, _, err = run_cli(["mse", "--H", "1.5", "--eps", "1e-4", "--u", "0.5"])
    assert code == 2


def test_mse_truncation_refusal():
    code, _, err = run_cli(["mse", "--H", "0.5", "--eps", "1e-9", "--u", "1.0",
                            "--spectrum", "closed_form_ou", "--n-max", "200"])
    assert code == 4
    assert "truncation" in err


def test_corrupted_config(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("H 0.6\n")
    code, _, err = run_cli(["eigs", "--config", str(conf)])
    assert code == 2


def test_special_tabulates(tmp_path):
    out_path = tmp_path / "special.csv"
    code, _, _ = run_cli(["special", "--H", "0.75", "--beta", "-1",
                          "--nu", "40", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert "b_alpha_closed" in text
    assert "X0(i) modulus" in text
    header = [l for l in text.splitlines() if l.startswith("u,")][0]
    assert header == "u,theta_nu,theta0,h,rho0,gamma0"


def test_special_h_half_degenerates():
    code, out, _ = run_cli(["special", "--H", "0.5", "--nu", "30"])
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)  # theta identically 0


def test_unknown_command_usage():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


def test_validate_quick_subset():
    import time

    from fouspec import validation

    assert set(validation.QUICK_CHECKS) < set(validation.ALL_CHECKS)
    assert validation.check_refinement_dominance not in validation.QUICK_CHECKS
    t0 = time.time()
    code, out, err = run_cli(["validate", "--quick"])
    elapsed = time.time() - t0
    assert code == 0, err
    assert elapsed < 60.0
    doc = json.loads(out)
    assert all(r["passed"] for r in doc["results"])
    assert "PASS" in err  # human-readable lines go to stderr


COMMAND_FLAGS = {
    "eigs": {"--format", "--H", "--beta", "--T", "--N-unit", "--n-max"},
    "special": {"--format", "--H", "--beta", "--T", "--nu"},
    "validate": {"--quick"},
}
COMMAND_FLAGS["mse"] = COMMAND_FLAGS["eigs"] | {"--mu", "--eps", "--u", "--spectrum",
                                                "--with-wh"}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_each_command_takes_only_its_flags(command, capsys):
    assert cli.main([command, "--help"]) == cli.EXIT_OK
    listed = {w.strip("[],") for w in capsys.readouterr().out.split()
              if w.startswith(("--", "[--"))}
    assert listed == COMMAND_FLAGS[command] | {"--config", "--out", "--threads", "--help"}


@pytest.mark.parametrize("argv", [
    ["eigs", "--mu", "2"],
    ["special", "--mu", "2"], ["special", "--N-unit", "100"],
    ["special", "--gl-order", "8"], ["special", "--n-max", "3"],
    ["validate", "--H", "0.3"], ["validate", "--beta", "-1"], ["validate", "--mu", "2"],
    ["validate", "--T", "2"], ["validate", "--N-unit", "100"],
    ["validate", "--gl-order", "8"], ["validate", "--n-max", "3"],
    ["validate", "--format", "json"],
    ["eigs", "--gl-order", "8"], ["mse", "--gl-order", "8"],
])
def test_deleted_flags_are_usage_errors(argv, capsys):
    # these flags were accepted and ignored (validate --H 0.3 validated nothing
    # at 0.3), or honoured on some code paths only (--gl-order)
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_config_key(tmp_path):
    # gl_order was a field until the Gauss order became a constant of the model
    for key in ("n_maxx", "gl_order"):
        conf = tmp_path / "typo.conf"
        conf.write_text(f"{key} = 64\n")
        code, _, err = run_cli(["eigs", "--config", str(conf)])
        assert code == 2
        assert f"unknown key {key!r}" in err


@pytest.mark.parametrize("argv, env", [
    (["mse", "--threads=abc", "--eps", "1e-2"], {}),
    (["eigs"], {"FOUSPEC_THREADS": "abc"}),
    (["mse", "--H", "0.7", "--n-max", "-5", "--eps", "1e-2", "--u", "0.5"], {}),
    (["eigs", "--n-max", "-1"], {}),
    (["eigs", "--N-unit", "-3"], {}),
    (["eigs", "--threads", "-1"], {}),
])
def test_malformed_counts_are_usage_errors(argv, env, monkeypatch, capsys):
    # each of these used to exit 0 (n_max = -5 ran 2995 pairs) or raise ValueError
    for var, val in env.items():
        monkeypatch.setenv(var, val)
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("extra, env, pinned", [
    (["--threads", "2", "--config", "CONF"], "4", "2"),
    (["--config", "CONF", "--threads", "2"], "4", "2"),
    (["--config", "CONF"], "4", "3"),
    ([], "4", "4"),
    ([], None, "0"),
])
def test_thread_precedence(extra, env, pinned, tmp_path, monkeypatch, capsys):
    """--threads over the config file (threads = 3) over FOUSPEC_THREADS; the
    header records the count that was pinned."""
    for var in cli._THREAD_VARS:
        monkeypatch.setenv(var, "unset")
    if env is None:
        monkeypatch.delenv("FOUSPEC_THREADS", raising=False)
    else:
        monkeypatch.setenv("FOUSPEC_THREADS", env)
    conf = tmp_path / "run.conf"
    conf.write_text("threads = 3\n")
    argv = ["eigs", "--H", "0.3", "--n-max", "2", "--N-unit", "40"]
    assert cli.main(argv + [str(conf) if a == "CONF" else a for a in extra]) == cli.EXIT_OK
    assert f"# threads={pinned}\n" in capsys.readouterr().out
    want = "unset" if pinned == "0" else pinned
    assert all(os.environ[var] == want for var in cli._THREAD_VARS)


def test_config_values_obey_flag_choices(tmp_path):
    # format = xml used to print CSV, and spectrum = bogus reached build_spectrum
    for line, key in (("format = xml", "format"), ("spectrum = bogus", "spectrum")):
        conf = tmp_path / "choice.conf"
        conf.write_text(line + "\n")
        code, out, err = run_cli(["mse", "--config", str(conf)])
        assert (code, out) == (2, "")
        assert key in err and "must be one of" in err


@pytest.mark.parametrize("argv", [
    # each comment says what the command did before these values were refused
    ["special", "--nu", "0"],                            # ZeroDivisionError
    ["special", "--nu=-3"],                              # printed a table
    ["special", "--nu", "1e-300", "--beta", "1"],        # OverflowError
    ["special", "--beta", "nan"],                        # NaN columns
    ["mse", "--H", "0.5", "--mu", "inf", "--eps", "1e-3"],  # OverflowError
    ["mse", "--H", "0.5", "--T", "inf", "--eps", "1e-3"],   # OverflowError
    ["mse", "--H", "0.5", "--eps", "nan"],               # ValueError
    ["mse", "--H", "0.5", "--eps", "inf"],               # NaN rows
    ["mse", "--H", "0.5", "--eps=-1e-3"],                # TypeError
    # u = 7 was snapped to the last grid node and printed as u = 0.999964
    ["mse", "--H", "0.7", "--beta", "-1", "--n-max", "100", "--N-unit", "200",
     "--eps", "1e-1", "--u", "7"],
    ["mse", "--H", "0.7", "--n-max", "3", "--N-unit", "20", "--eps", "1e-1",
     "--u", "nan"],                         # snapped to the first grid node
])
def test_nonsense_values_are_refused(argv, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_refined_below_solver_start_is_refused_by_truncation(capsys):
    # n_max < DEFAULT_N_MIN used to die in np.concatenate (exit 1); the
    # head-only spectrum is too short for this eps
    argv = ["mse", "--H", "0.7", "--spectrum", "refined", "--n-max", "2",
            "--N-unit", "50", "--eps", "1e-1", "--u", "1"]
    assert cli.main(argv) == cli.EXIT_TRUNCATION
    assert "truncation refusal" in capsys.readouterr().err


# (u, beta*T, mu, T) for the closed-form size cap
_CAP_CASES = list(itertools.product([0.5, 1.0], [-12.0, 0.0, 5.0], [0.5, 2.0], [0.5, 2.0]))


def _cap_argv(eps, u, bT, mu, T):
    return ["mse", "--H", "0.5", "--eps", repr(eps), "--u", repr(u),
            "--beta", repr(bT / T), "--mu", repr(mu), "--T", repr(T)]


@pytest.mark.parametrize("eps", [1e-300, 1e-13, 1e-12])
def test_capped_closed_form_is_refused_before_it_is_built(eps, monkeypatch, capsys):
    # building the capped 5e6-pair spectrum first took 2 s and 409 MB to
    # reach the same exit 4
    def unbuilt(*args, **kwargs):
        raise AssertionError("the spectrum was built")

    monkeypatch.setattr(error_analysis, "build_spectrum", unbuilt)
    refused = 0
    for u, bT, mu, T in _CAP_CASES:
        if (mu * mu * T * T / eps) ** 0.5 < error_analysis.CLOSED_FORM_PAIRS / 5:
            continue  # n_eff below the refusal: the run is built as before
        assert cli.main(_cap_argv(eps, u, bT, mu, T)) == cli.EXIT_TRUNCATION
        assert "closed form stops at n_max=5000000" in capsys.readouterr().err
        refused += 1
    assert refused >= 12


def test_closed_form_refusal_only_where_the_capped_spectrum_fails(monkeypatch, capsys):
    # just past n_eff = cap / 5 the run is refused early, and the spectrum of
    # cap pairs that it would have built fails its truncation check as well;
    # the excluded mass is about 0.2 n_eff / cap of P at every cap, so a
    # small cap stands in for the 5e6 of the command
    cap = 20_000
    monkeypatch.setattr(error_analysis, "CLOSED_FORM_PAIRS", cap)
    for u, bT, mu, T in _CAP_CASES:
        eps = mu * mu * T * T / (1.001 * cap / 5) ** 2
        assert cli.main(_cap_argv(eps, u, bT, mu, T)) == cli.EXIT_TRUNCATION
        assert "closed form stops at" in capsys.readouterr().err
        spec = error_analysis.build_spectrum(ModelParams(H=0.5, beta=bT / T, mu=mu, T=T),
                                             "closed_form_ou", n_max=cap)
        with pytest.raises(TruncationError):
            error_analysis.convergence_study(spec, [eps], [u])


def test_closed_form_below_the_refusal_still_runs(capsys):
    # n_eff = 3.2e5: the 5e6 pairs of the cap are enough
    assert cli.main(["mse", "--H", "0.5", "--eps", "1e-11"]) == cli.EXIT_OK
    assert "n_max = 5000000" in capsys.readouterr().out


def test_closed_form_prints_its_closure_at_20_n_eff(capsys):
    # the mse_closed_h05 workload's command: 20 n_eff = 63,245 pairs at the
    # smallest eps, where 200 n_eff took 632,455, and the two closed columns
    argv = ["mse", "--H", "0.5", "--beta", "-1.1", "--eps", "1e-4,1e-5,1e-6,1e-7"]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "# spectrum = closed_form_ou, n_max = 63245\n" in out
    header, *rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert header == "eps,u,P_series,P_asymptotic,ratio,tail_est,P_closed,P_closed_err"
    assert len(rows) == 8


def test_closed_form_at_strong_negative_drift_still_runs(capsys):
    # P = 0.41 sqrt(eps) here, and the tail law refuses the 2000 pairs of
    # 20 n_eff: the run is answered on 200 n_eff, as before the closure
    argv = ["mse", "--H", "0.5", "--beta", "-100", "--eps", "1e-4", "--u", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "# spectrum = closed_form_ou, n_max = 20000\n" in capsys.readouterr().out


def _numbers(text):
    """Numeric cells of a CSV or JSON result table."""
    text = text.lstrip()
    if text.startswith("{"):
        return [v for row in json.loads(text)["results"] for v in row.values()
                if isinstance(v, (int, float))]
    rows = [line for line in text.splitlines() if not line.startswith("#")][1:]
    return [float(cell) for row in rows for cell in row.split(",") if cell]


_ODD = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300, 7.0)


def _log10(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_cli(data):
    """Every input gets finite numbers with exit 0, or a typed refusal.

    Each example draws every RunConfig field the command reads from its
    working range, then may replace one of them by a value from _ODD.
    `threads` stays 0, so the test leaves the process environment alone.
    """
    command = data.draw(st.sampled_from(["eigs", "mse", "special"]), label="command")
    spectrum = data.draw(st.sampled_from(cli._FLAGS["spectrum"]["choices"]))
    # refined pairs and the eigs table's refined column cost ~0.1 s per index
    slow = command == "eigs" or spectrum == "refined"
    N_unit = data.draw(st.integers(1, 60), label="N_unit")
    # n_max = n_cap comes often: a short spectrum fails the truncation check
    n_cap = min(N_unit, 6 if slow else 60)
    H = 0.5 if spectrum == "closed_form_ou" else data.draw(st.floats(0.05, 0.95)
                                                            | st.just(0.5))
    values = {
        "H": H, "beta": data.draw(st.floats(-3.0, 3.0)), "mu": data.draw(_log10(-1, 1)),
        "T": data.draw(_log10(-1, 0.5)), "N-unit": N_unit,
        "n-max": data.draw(st.just(n_cap) | st.integers(1, n_cap)),
        "eps": data.draw(st.lists(_log10(0, 6), min_size=1, max_size=2, unique=True)),
        "u": data.draw(st.lists(st.floats(0.01, 1.0) | st.just(1.0), min_size=1,
                                max_size=3)),
        "spectrum": spectrum, "nu": data.draw(_log10(0, 2)),
        "format": data.draw(st.sampled_from(["csv", "json"])),
    }
    odd = data.draw(st.none() | st.sampled_from(["H", "beta", "mu", "T", "eps", "u", "nu"]))
    if odd is not None:
        v = data.draw(st.sampled_from(_ODD), label=odd)
        values[odd] = [v] if odd in ("eps", "u") else v
    argv = [command, "--threads=0"]
    for flag in cli._COMMANDS[command][1]:
        v = values.get(flag)
        if isinstance(v, list):
            argv.append(f"--{flag}=" + ",".join(map(repr, v)))
        elif v is not None:
            argv.append(f"--{flag}={v}")
    # only the grid routes have a Wiener-Hopf column
    if command == "mse" and spectrum in ("oracle", "refined") \
            and data.draw(st.booleans(), label="with_wh"):
        argv.append("--with-wh")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # a raw exception fails the test with its traceback
    assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue(), (argv, err.getvalue())
    if code == 0:
        assert all(map(math.isfinite, _numbers(out.getvalue()))), argv


@pytest.mark.parametrize("beta", [2.5, 3.0])
def test_eigs_strong_drift_finds_every_root(beta, capsys):
    # the root n = 3 sits near 7.4-7.5, outside nu_first_order(3) +- 0.3 =
    # [7.50, 8.10]; the whole table used to be dropped with exit 3
    argv = ["eigs", "--H", "0.7", "--beta", str(beta), "--N-unit", "600", "--n-max", "6"]
    assert cli.main(argv) == cli.EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")]
    col = {name: k for k, name in enumerate(rows[0])}
    for row in rows[3:]:  # n = 3..6
        assert float(row[col["rel_err_refined"]]) < float(row[col["rel_err_first_order"]])


@pytest.mark.parametrize("mu,eps", [("1000", "5e-324"), ("1e-150", "1e300")])
def test_noise_ratio_out_of_float_range_is_refused(mu, eps, capsys):
    # eps/mu^2 under- or overflows: the table used to print nan or inf cells
    argv = ["mse", "--mu", mu, "--eps", eps, "--N-unit", "20", "--n-max", "20",
            "--H", "0.7", "--u", "1.0"]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


def test_unsizable_mse_is_refused(capsys):
    # mu^2/eps overflows, so the auto n_max has no size; this used to end in
    # OverflowError at int(5 * n_eff)
    argv = ["mse", "--H", "0.7", "--mu", "1000", "--eps", "5e-324",
            "--spectrum", "first_order"]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "cannot size" in err and "--n-max" in err and "--N-unit" in err


@pytest.mark.parametrize("argv", [
    ["mse", "--H", "0.7", "--eps", "1e-3"],
    ["mse", "--H", "0.7", "--spectrum", "refined", "--n-max", "20", "--eps", "1e-1"],
    ["mse", "--H", "0.7", "--spectrum", "first_order", "--eps", "1e-3"],
    ["mse", "--H", "0.5", "--eps", "1e-3"],
    ["eigs", "--H", "0.7"],
])
def test_run_over_the_memory_budget_is_refused(argv, tiny_memory_budget, capsys):
    # sized against a 64 KiB budget, every route is refused before anything
    # is assembled or allocated; the hint names --N-unit only on the routes
    # with a grid
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    gridless = "first_order" in argv or "0.5" in argv
    assert "budget" in captured.err and "--n-max" in captured.err
    assert ("--N-unit" in captured.err) != gridless


def test_truncation_refusal_prints_the_term_count_short(capsys):
    # n_eff = 1e150 used to print as a 151-digit number
    argv = ["mse", "--H", "0.5", "--eps", "1e-300", "--spectrum", "closed_form_ou",
            "--n-max", "200"]
    assert cli.main(argv) == cli.EXIT_TRUNCATION
    assert "~1e+150 effective terms" in capsys.readouterr().err


def test_refined_mse_matches_oracle(capsys):
    # the benchmark's check of the refined route on a smaller grid with the
    # same n_max/N = 1/20: the series agree to 1e-4 relative at every (eps, u).
    # (N = 300 misses it at u = 0.5 by the oracle's own error, 1.2e-4.)
    tables = {}
    for spectrum in ("refined", "oracle"):
        argv = ["mse", "--H", "0.7", "--beta", "-1", "--spectrum", spectrum,
                "--N-unit", "600", "--n-max", "30", "--eps", "1e-2", "--u", "0.5,1.0"]
        assert cli.main(argv) == cli.EXIT_OK
        tables[spectrum] = [line.split(",") for line in capsys.readouterr().out.splitlines()
                            if not line.startswith("#")][1:]
    # the oracle rows also carry P_closed and P_closed_err
    assert len(tables["refined"]) == len(tables["oracle"]) == 2
    for ref, ora in zip(tables["refined"], tables["oracle"]):
        ref, ora = [float(v) for v in ref[:3]], [float(v) for v in ora[:3]]
        assert ref[:2] == ora[:2]  # eps, u
        assert abs(ref[2] - ora[2]) <= 1e-4 * abs(ora[2])


def test_eigs_below_the_rounding_floor_is_refused(capsys):
    # lambda_1 = 1.5e14 here; lambda_2..5 used to print 39-75x too large, exit 0
    argv = ["eigs", "--H", "0.5", "--beta", "20", "--N-unit", "300", "--n-max", "5"]
    assert cli.main(argv) == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rounding floor" in captured.err and "--n-max" in captured.err


def test_h_half_wiener_hopf_keeps_the_oracle(capsys):
    # the default oracle used to be swapped for the closed form, which has
    # no grid, and --with-wh then exited 2
    argv = ["mse", "--H", "0.5", "--with-wh", "--N-unit", "400", "--n-max", "200",
            "--eps", "1e-1,1e-2"]
    assert cli.main(argv) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "# spectrum = oracle, n_max = 200" in out
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    col = {name: k for k, name in enumerate(rows[0])}
    assert len(rows) == 5
    for row in rows[1:]:
        ps, wh, tail = (float(row[col[k]]) for k in ("P_series", "P_wiener_hopf", "tail_est"))
        assert ps <= wh <= ps + tail


@pytest.mark.parametrize("beta", [10.0, -12.0])
def test_eigs_keeps_the_table_when_one_refined_index_is_refused(beta, capsys):
    # find_nu(3) refuses at H = 0.9 (the b_alpha_nu denominator check); the
    # whole table used to be dropped with exit 2
    from fouspec.ia_refine import find_nu
    from fouspec.model import ModelParams

    argv = ["eigs", "--H", "0.9", "--beta", str(beta), "--N-unit", "200", "--n-max", "8"]
    assert cli.main(argv) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    warnings = [line for line in lines if "refused" in line]
    assert len(warnings) == 1 and warnings[0].startswith("# warning: refined n=3 refused: ")
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    col = {name: k for k, name in enumerate(rows[0])}
    refined = [col[k] for k in ("lambda_refined", "nu_refined", "rel_err_refined")]
    p = ModelParams(H=0.9, beta=beta)
    for row in rows[1:]:
        n = int(row[0])
        assert all(cell for k, cell in enumerate(row) if k not in refined)
        if n <= 3:
            assert all(row[k] == "" for k in refined)
        else:
            assert float(row[col["nu_refined"]]) == find_nu(n, p)[0]
    assert [int(row[0]) for row in rows[1:]] == list(range(1, 9))


def test_importing_the_mse_modules_builds_no_table():
    # a fresh interpreter: importing the modules an `mse` run starts from
    # (what the benchmark's set-up time measures) loads fouspec and numpy
    # only, and fills no cached rule or table: they are built on first use
    code = """
import functools, json, sys
before = set(sys.modules)
import fouspec.cli, fouspec.error_analysis, fouspec.ia_refine
new = set(sys.modules) - before
cached = {f"{m}.{k}": f.cache_info().currsize
          for m, mod in sys.modules.items() if m.startswith("fouspec")
          for k, f in vars(mod).items() if hasattr(f, "cache_info")}
print(json.dumps({
    "packages": sorted({m.split(".")[0] for m in new} - set(sys.stdlib_module_names)),
    "fouspec": sorted(m for m in new if m.startswith("fouspec")),
    "cached": cached}))
"""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["packages"] == ["fouspec", "numpy"]
    assert out["fouspec"] == ["fouspec", "fouspec._quad", "fouspec.asymptotics",
                              "fouspec.cli", "fouspec.error_analysis",
                              "fouspec.exceptions", "fouspec.ia_refine",
                              "fouspec.model", "fouspec.spectral_oracle"]
    for name in ("fouspec.ia_refine._cauchy_inverse", "fouspec.ia_refine._auxiliary_rule",
                 "fouspec.asymptotics._h_pattern"):
        assert name in out["cached"]
    assert set(out["cached"].values()) == {0}, out["cached"]


def test_closed_form_and_oracle_routes_load_only_what_they_use():
    # a fresh interpreter: tests share sys.modules.  The closed-form and oracle
    # routes load neither the refinement nor the first-order module; no route
    # loads scipy.optimize, and scipy.integrate serves only the h_weight
    # cross-check.  scipy.sparse.linalg (Lanczos) serves only the oracle
    # solves that keep at most N/20 pairs, the refined head among them: the
    # oracle run here keeps 30 of 60 and takes the full reduction, and
    # neither those two routes nor importing the modules of an `mse` run
    # loads it.  The H = 1/2 closed form and the first-order route load no
    # scipy module at all (the latter checked in a second interpreter, since
    # the oracle run above must not find the first-order module loaded), and
    # the error layer imports scipy.linalg only for the Wiener-Hopf solve.
    # The Gauss rules are built in the package: no mse or eigs route loads
    # scipy.special
    code = """
import contextlib, io, json, sys
import fouspec.error_analysis
loaded = {"error_analysis": [m for m in sys.modules if m.startswith("scipy.linalg")]}
from fouspec import cli
heavy = ["fouspec.ia_refine", "fouspec.asymptotics", "scipy.optimize", "scipy.special",
         "scipy.integrate", "scipy.sparse.linalg"]
def run(key, argv, watch):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
    loaded[key] = [m for m in watch if m in sys.modules]
run("0.5", ["mse", "--H", "0.5", "--eps", "1e-3"], heavy)
loaded["0.5 scipy"] = [m for m in sys.modules if m.split(".")[0] == "scipy"]
run("0.7", ["mse", "--H", "0.7", "--spectrum", "oracle", "--N-unit", "60",
            "--n-max", "30", "--eps", "1e-1,1e-2", "--with-wh"], heavy)
import fouspec.error_analysis, fouspec.ia_refine
loaded["ia_refine"] = [m for m in heavy[2:] if m in sys.modules]
run("refined", ["mse", "--H", "0.7", "--spectrum", "refined", "--N-unit", "60",
                "--n-max", "20", "--eps", "1e-1"], heavy[2:4])
run("first_order", ["mse", "--H", "0.7", "--spectrum", "first_order", "--N-unit", "60",
                    "--n-max", "20", "--eps", "1e-1"], heavy[2:4])
run("eigs", ["eigs", "--N-unit", "60", "--n-max", "6"], heavy[2:4])
print(json.dumps(loaded))
"""
    first_order = """
import contextlib, io, json, sys
from fouspec import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["mse", "--H", "0.7", "--spectrum", "first_order", "--n-max", "20",
                     "--eps", "1e-1"]) == cli.EXIT_OK
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]))
"""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = []
    for script in (code, first_order):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        out.append(json.loads(proc.stdout))
    assert out == [{"error_analysis": [], "0.5": [], "0.5 scipy": [], "0.7": [],
                    "ia_refine": [], "refined": [], "first_order": [], "eigs": []}, []]


@pytest.mark.parametrize("argv", [
    # the Lanczos head starts from a fixed vector
    ["--spectrum", "refined", "--n-max", "20", "--eps", "1e-1"],
    # the full solve and the Wiener-Hopf column
    ["--n-max", "30", "--eps", "1e-1,1e-2", "--with-wh"],
    # the closed form's Newton steps and norms (200,000 pairs)
    ["--H", "0.5", "--beta", "-0.8", "--eps", "1e-3,1e-6"],
], ids=["refined", "oracle", "closed"])
def test_mse_is_deterministic_across_processes(argv):
    # two fresh interpreters print the same bytes
    argv = ["mse", "--H", "0.7", "--N-unit", "60", "--threads", "1", *argv]
    first, second = run_cli(argv), run_cli(argv)
    assert first[0] == 0, first[2]
    assert first[1] == second[1]


def test_eigs_lanczos_is_deterministic_across_processes():
    # 20 of 400 pairs go to Lanczos, from its fixed start vector
    argv = ["eigs", "--N-unit", "400", "--n-max", "20", "--threads", "1"]
    first, second = run_cli(argv), run_cli(argv)
    assert first[0] == 0, first[2]
    assert first[1] == second[1]


@pytest.mark.parametrize("command, flags", [
    ("mse", ["--H", "0.5", "--eps", "1e-3"]),
    ("eigs", ["--H", "0.5", "--n-max", "3"]),
])
@pytest.mark.parametrize("beta", ["-1e-3", "-5e-05", "-1E+0"])
def test_negative_exponent_values_are_values(command, flags, beta, capsys):
    # argparse reads "-1e-3" as an option unless it is attached to its flag
    assert cli.main([command, "--beta", beta, *flags]) == cli.EXIT_OK
    split = capsys.readouterr().out
    assert cli.main([command, f"--beta={beta}", *flags]) == cli.EXIT_OK
    assert capsys.readouterr().out == split
    assert f"# beta={float(beta)!r}" in split


@pytest.mark.parametrize("flag, message", [("--eps", "eps must be finite and positive"),
                                           ("--u", "u must lie in")])
def test_negative_list_values_reach_the_range_check(flag, message, capsys):
    argv = ["mse", "--H", "0.5", "--eps", "1e-3", flag, "-1e-3,1e-4"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


def test_h_within_the_half_band_takes_the_closed_form(capsys):
    # `model.is_half` is the one H = 1/2 rule: mse swapped to the closed form
    # only within 1e-14, while the closed form itself accepts 1e-12
    argv = ["mse", "--H", repr(0.5 + 5e-13), "--eps", "1e-3", "--N-unit", "400"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "# spectrum = closed_form_ou, n_max = " in capsys.readouterr().out


def test_mse_goes_through_estimate():
    # every rule from a request to the numbers lives in error_analysis.estimate:
    # compute_mse only builds the problem and renders the report
    tree = ast.parse(Path(cli.__file__).read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "compute_mse")
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(fn) if isinstance(node, ast.Call)}
    assert "estimate" in called
    assert not called & {"build_spectrum", "convergence_study"}
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert "CLOSED_FORM_PAIRS" not in names


def test_mse_snaps_half_to_the_lower_central_node(monkeypatch):
    # estimate snaps u with `QuadGrid.nearest`, as mse_wiener_hopf does
    from types import SimpleNamespace

    from fouspec.model import QuadGrid

    class Snapped(Exception):
        pass

    def study(spec, eps, us, **kwargs):
        raise Snapped(us)

    for N in range(2, 401, 2):
        grid = QuadGrid.gauss_legendre_unit(N)
        monkeypatch.setattr(error_analysis, "build_spectrum",
                            lambda *args, grid=grid, **kwargs: SimpleNamespace(grid=grid))
        monkeypatch.setattr(error_analysis, "convergence_study", study)
        cfg = cli.RunConfig(command="mse", H=0.7, N_unit=N, n_max=1, u=(0.5, 1.0))
        with pytest.raises(Snapped) as snapped:
            cli.compute_mse(cfg)
        assert snapped.value.args[0] == [float(grid.nodes[N // 2 - 1]), 1.0], N
