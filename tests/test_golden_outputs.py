"""Pinned CLI outputs: small runs of every route, compared with files in tests/data.

Comment and header lines (and every other non-numeric cell) must match
exactly; numbers must match to GOLDEN_RTOL relative, since BLAS reduction
order differs across machines and thread counts.  A change that moves
printed numbers on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden_outputs.py

and states the move.
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from fouspec import cli

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_RTOL = 1e-12

# name -> argv; every grid has at most 100 nodes
CASES = {
    "mse_oracle_wh": ["mse", "--H", "0.7", "--beta", "-1", "--N-unit", "100",
                      "--n-max", "20", "--eps", "1e-1,5e-2", "--u", "0.5,1", "--with-wh"],
    "mse_oracle_wh_b0": ["mse", "--H", "0.7", "--beta", "0", "--N-unit", "100",
                         "--n-max", "20", "--eps", "1e-1,5e-2", "--u", "0.5,1", "--with-wh"],
    "mse_refined": ["mse", "--H", "0.7", "--beta", "-1", "--spectrum", "refined",
                    "--N-unit", "100", "--n-max", "40", "--eps", "1e-1,1e-2",
                    "--u", "0.5,1"],
    "mse_closed_form": ["mse", "--H", "0.5", "--beta", "-1", "--n-max", "2000",
                        "--eps", "1e-2,1e-3", "--u", "0.5,1"],
    "mse_first_order": ["mse", "--H", "0.7", "--beta", "-1", "--spectrum", "first_order",
                        "--n-max", "2000", "--eps", "1e-2,1e-3", "--u", "0.5,1"],
    "eigs_h07": ["eigs", "--H", "0.7", "--beta", "-1", "--N-unit", "40", "--n-max", "5"],
    "eigs_h07_b0": ["eigs", "--H", "0.7", "--beta", "0", "--N-unit", "40", "--n-max", "5"],
    "eigs_h03": ["eigs", "--H", "0.3", "--beta", "-1", "--N-unit", "40", "--n-max", "5"],
    "special": ["special", "--H", "0.75", "--beta", "-1", "--nu", "40"],
    "mse_oracle_json": ["mse", "--H", "0.7", "--beta", "-1", "--N-unit", "80",
                        "--n-max", "20", "--eps", "1e-1", "--u", "0.5,1",
                        "--format", "json"],
}


def _path(name):
    return DATA / f"golden_{name}.{'json' if '--format' in CASES[name] else 'csv'}"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, argv
    return out.getvalue()


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _assert_close(got, want, where):
    """Equal, except that numbers (or numeric strings) only match to GOLDEN_RTOL."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for k in want:
            _assert_close(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, str) and _number(want) is None:
        assert got == want, where
    elif want is None or isinstance(want, bool):
        assert got is want, where
    else:
        g = _number(got) if isinstance(got, str) else got
        w = _number(want) if isinstance(want, str) else want
        assert g is not None and math.isclose(g, w, rel_tol=GOLDEN_RTOL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name, monkeypatch):
    monkeypatch.delenv("FOUSPEC_THREADS", raising=False)
    got, want = _run(CASES[name]), _path(name).read_text()
    if _path(name).suffix == ".json":
        _assert_close(json.loads(got), json.loads(want), name)
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines), name
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        if w.startswith("#"):
            assert g == w, f"{name}:{k + 1}"
        else:
            _assert_close(g.split(","), w.split(","), f"{name}:{k + 1}")


def _printed_table(text):
    """{column: values} of the results the CLI printed, as CSV or JSON."""
    if text.lstrip().startswith("{"):
        rows = json.loads(text)["results"]
        return {k: [row[k] for row in rows] for k in rows[0]}
    header, *rows = [line for line in text.splitlines() if not line.startswith("#")]
    return dict(zip(header.split(","), zip(*(map(float, r.split(",")) for r in rows))))


@pytest.mark.parametrize("name", sorted(k for k in CASES if CASES[k][0] == "mse"))
def test_estimate_gives_the_printed_cells(name, monkeypatch):
    # the library's one call returns bit for bit what `mse` prints: 17
    # significant digits round-trip every double
    from fouspec.error_analysis import estimate
    from fouspec.model import ModelParams

    monkeypatch.delenv("FOUSPEC_THREADS", raising=False)
    parser = cli._build_parser()
    cfg = cli._merge_config(parser.parse_args(cli._attach_numbers(CASES[name])), parser)
    rep = estimate(ModelParams(H=cfg.H, beta=cfg.beta, mu=cfg.mu, T=cfg.T), cfg.eps, cfg.u,
                   spectrum=cfg.spectrum, n_max=cfg.n_max, grid_size=cfg.N_unit,
                   with_wh=cfg.with_wh)
    printed = _printed_table(_run(CASES[name]))
    cells = {"eps": np.repeat(rep.eps_values, len(rep.u_points)),
             "u": np.tile(rep.u_points, len(rep.eps_values)),
             "P_series": rep.P_series.ravel(), "P_asymptotic": rep.P_asymptotic.ravel()}
    if rep.P_wiener_hopf is not None:
        cells["P_wiener_hopf"] = rep.P_wiener_hopf.ravel()
    assert ("P_wiener_hopf" in printed) == ("--with-wh" in CASES[name])
    for column, values in cells.items():
        assert np.array_equal(np.array(printed[column], dtype=float), values), column


if __name__ == "__main__":
    os.environ.pop("FOUSPEC_THREADS", None)
    DATA.mkdir(exist_ok=True)
    for case in CASES:
        _path(case).write_text(_run(CASES[case]))
        sys.stdout.write(f"wrote {_path(case)}\n")
