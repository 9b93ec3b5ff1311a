"""The benchmark's tracer wraps names the package still binds.

`Tracer.wrap` skips a name its module no longer has, so a renamed or moved
function would silently read as a zero layer metric.  The spans' counts come
from the wrapped calls' return values, such as `find_nu`'s IARefinement.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import fouspec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recorder:
    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, counts=None):
        self.wrapped.append((module, attr))


def test_every_wrapped_name_exists():
    rec = _Recorder()
    _load_tracer().instrument(rec)
    assert rec.wrapped
    missing = [f"{module.__name__}.{attr}" for module, attr in rec.wrapped
               if not callable(getattr(module, attr, None))]
    assert missing == []


def _traced_run(tmp_path, *cli_args):
    """Spans of one traced `fouspec` command run in a fresh interpreter."""
    spans, stdout = tmp_path / "spans.jsonl", tmp_path / "stdout.csv"
    src = str(Path(fouspec.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(TRACER), str(spans), str(stdout), "0",
                           *cli_args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in spans.read_text().splitlines()]


def test_traced_refined_run_reads_find_nu(tmp_path):
    recs = _traced_run(tmp_path, "mse", "--H", "0.7", "--spectrum", "refined",
                       "--N-unit", "60", "--n-max", "20", "--eps", "1e-1")
    roots = [r for r in recs if r["name"] == "ia_refine.find_nu"]
    assert roots
    assert all("residual" in r and "contraction_norm" in r for r in roots)
    # the Lanczos head is solved through `eigh`, the name the tracer times
    solves = [r for r in recs if r["name"] == "spectral_oracle.eigensolve"]
    heads = [r for r in recs if r["name"] == "spectral_oracle.nystrom"]
    assert [r["computed"] for r in solves] == [r["kept"] for r in heads] == [2]
    wall = max(r["end"] for r in recs) - min(r["start"] for r in recs)
    metrics = _load_tracer().layer_metrics(recs, wall)
    assert metrics["ia_refine.evals_per_root"] > 0
    assert metrics["spectral_oracle.eigensolve.kept_frac"] == 1


def test_traced_oracle_run_reads_every_layer(tmp_path):
    # the oracle and the Wiener-Hopf solve take only the matrix; the layers
    # they call through stay visible to the tracer
    recs = _traced_run(tmp_path, "mse", "--H", "0.7", "--N-unit", "60", "--n-max", "30",
                       "--eps", "1e-1,1e-2", "--u", "0.5,1.0", "--with-wh")
    names = {r["name"] for r in recs}
    assert {"model.assemble", "spectral_oracle.nystrom", "spectral_oracle.eigensolve",
            "error_analysis.wiener_hopf", "error_analysis.cho_factor"} <= names
    wall = max(r["end"] for r in recs) - min(r["start"] for r in recs)
    metrics = _load_tracer().layer_metrics(recs, wall)
    assert metrics["model.assemble.calls"] == 1
    assert metrics["error_analysis.wiener_hopf.factorizations"] == 2


def test_traced_full_branch_reports_every_eigenvalue(tmp_path):
    # the full branch computes all N eigenvalues and keeps n_max of them
    recs = _traced_run(tmp_path, "mse", "--H", "0.7", "--N-unit", "60", "--n-max", "30",
                       "--eps", "1e-1", "--u", "1.0")
    solves = [r for r in recs if r["name"] == "spectral_oracle.eigensolve"]
    assert [r["computed"] for r in solves] == [60]
    wall = max(r["end"] for r in recs) - min(r["start"] for r in recs)
    assert _load_tracer().layer_metrics(recs, wall)["spectral_oracle.eigensolve.kept_frac"] == 0.5


class _CountsRecorder:
    def __init__(self):
        self.counts = {}

    def wrap(self, module, attr, name, counts=None):
        if counts is not None:
            self.counts[f"{module.__name__}.{attr}"] = counts


def _sample_returns():
    """One real return value of each call whose span reads counts, at small
    sizes, by the name the tracer wraps; `eigh` once per solver.  A solve
    spends its matrix, so each solve gets its own and `cov` stays whole."""
    from fouspec import error_analysis, ia_refine, spectral_oracle
    from fouspec.model import CovMatrix, ModelParams, QuadGrid

    p = ModelParams(H=0.7, beta=-1.0)
    grid = QuadGrid.gauss_legendre_unit(40)
    cov = error_analysis.cov_matrix(grid, p)

    def own():
        return CovMatrix(cov.values.copy(), grid, p)

    return {
        "fouspec.error_analysis.cov_matrix": [cov],
        "fouspec.spectral_oracle.cov_row": [spectral_oracle.cov_row(1.0, p, grid)],
        "fouspec.spectral_oracle.eigh": [spectral_oracle.eigh(own(), 2),
                                         spectral_oracle.eigh(own(), 20)],
        "fouspec.error_analysis.nystrom_eigs": [error_analysis.nystrom_eigs(own(), 2)],
        "fouspec.error_analysis.ou_closed_form_eigs": [
            error_analysis.ou_closed_form_eigs(ModelParams(H=0.5, beta=-1.0), 10)],
        "fouspec.ia_refine.find_nu": [ia_refine.find_nu(3, p)],
        "fouspec.ia_refine.solve_p": [ia_refine.solve_p(10.0, p)],
    }


def test_every_count_reads_its_call_in_process():
    # each counts function the tracer registers, applied to what the call it
    # wraps returns: a changed return shape fails here, naming the call
    rec = _CountsRecorder()
    _load_tracer().instrument(rec)
    samples = _sample_returns()
    assert sorted(rec.counts) == sorted(samples)
    bad = []
    for name, counts in rec.counts.items():
        for out in samples[name]:
            try:
                values = counts(out)
                ok = bool(values) and all(
                    isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
            except Exception as exc:  # the failure is reported by name below
                values, ok = repr(exc), False
            if not ok:
                bad.append(f"{name}: {values}")
    assert bad == []
