"""The benchmark's tracer wraps names the package still binds.

`Tracer.wrap` skips a name its module no longer has, so a renamed or moved
function would silently read as a zero layer metric.  The spans' counts come
from the wrapped calls' return values, such as `find_nu`'s IARefinement.
"""

import importlib.util
import json
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
    wall = max(r["end"] for r in recs) - min(r["start"] for r in recs)
    assert _load_tracer().layer_metrics(recs, wall)["ia_refine.evals_per_root"] > 0


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
