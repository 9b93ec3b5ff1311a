"""Traced run of one fouspec command, with spans recorded from outside the package.

    python3 perfbench/tracer.py SPANS_JSONL STDOUT_FILE RUN_ID <fouspec arguments...>

imports the modules an `mse` command loads (the `setup.import` span), rebinds
the package's public functions in the modules that call them so each call
records a span, runs `fouspec.cli.main` in this process with its stdout sent
to STDOUT_FILE, writes the spans as JSON lines and exits with the CLI's code.
Nothing under `src/` is changed.

A span is {id, name, parent, run, start, end} plus the counts read from the
wrapped call's return value.  Times come from `time.perf_counter`, which is
CLOCK_MONOTONIC on Linux and so shares its origin with the parent process
that timed this one.  `layer_metrics` turns one run's spans into the
per-layer metrics.
"""

import contextlib
import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# What `fouspec mse` imports before it computes anything; setup_s times a fresh
# interpreter importing exactly these.
SETUP_MODULES = ("fouspec.cli", "fouspec.error_analysis", "fouspec.ia_refine",
                 "scipy.special")


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "start": perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, counts=None):
        """Rebind `module.attr` so each call records a span named `name`.

        `counts(result)` returns the span's counts.  A name the module no
        longer binds is skipped, so a later version of the package that moves
        a call still runs; its layer then reads as absent (zero).
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if counts is not None:
                rec.update(counts(out))
            return out

        setattr(module, attr, traced)


def instrument(tracer):
    """Wrap each layer boundary of the `mse` command, named after its module."""
    from fouspec import error_analysis, ia_refine, spectral_oracle

    w = tracer.wrap
    w(error_analysis, "build_spectrum", "error_analysis.build_spectrum")
    w(error_analysis, "cov_matrix", "model.assemble",
      lambda cov: {"nodes": cov.values.shape[0]})
    w(spectral_oracle, "cov_row", "model.cov_row",
      lambda row: {"kernel_evals": row.size})
    w(spectral_oracle, "eigh", "spectral_oracle.eigensolve",
      lambda res: {"computed": len(res[0])})
    w(error_analysis, "nystrom_eigs", "spectral_oracle.nystrom",
      lambda spec: {"kept": spec.n_max,
                    "psd_defect": spec.diagnostics["psd_defect"]})
    w(error_analysis, "ou_closed_form_eigs", "spectral_oracle.ou_roots",
      lambda spec: {"roots": spec.n_max})
    w(ia_refine, "refined_eigenpair", "ia_refine.eigenfunction")
    w(ia_refine, "find_nu", "ia_refine.find_nu",
      lambda res: {"residual": res[1].residual,
                   "contraction_norm": res[1].contraction_norm})
    w(ia_refine, "solve_p", "ia_refine.solve_p",
      lambda sol: {"iterations": sol.iterations})
    w(ia_refine, "h_weight", "asymptotics.h_weight")
    w(error_analysis, "convergence_study", "error_analysis.series")
    w(error_analysis, "check_truncation", "error_analysis.check_truncation")
    w(error_analysis, "truncation_tail", "error_analysis.tail")
    w(error_analysis, "mse_wiener_hopf", "error_analysis.wiener_hopf")
    w(error_analysis, "cho_factor", "error_analysis.cho_factor")


# per-layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_UNITS = {
    "model.assemble.s": "s",
    "model.assemble.calls": "count",
    "model.assemble.nodes": "count",
    "model.cov_row.s": "s",
    "model.cov_row.kernel_evals": "count",
    "spectral_oracle.eigensolve.s": "s",
    "spectral_oracle.eigensolve.calls": "count",
    "spectral_oracle.eigensolve.kept_frac": "ratio",
    "spectral_oracle.nystrom.self_s": "s",
    "spectral_oracle.psd_defect": "ratio",
    "spectral_oracle.ou_roots.s": "s",
    "spectral_oracle.ou_roots.roots": "count",
    "spectral_oracle.ou_roots.us_per_root": "us",
    "ia_refine.find_nu.s": "s",
    "ia_refine.find_nu.calls": "count",
    "ia_refine.solve_p.s": "s",
    "ia_refine.solve_p.self_s": "s",
    "ia_refine.solve_p.calls": "count",
    "ia_refine.evals_per_root": "ratio",
    "ia_refine.fp_iterations": "count",
    "ia_refine.eigenfunction.self_s": "s",
    "ia_refine.max_residual": "abs",
    "ia_refine.max_contraction_norm": "norm",
    "asymptotics.h_weight.s": "s",
    "asymptotics.h_weight.calls": "count",
    "error_analysis.build_spectrum.self_s": "s",
    "error_analysis.series.self_s": "s",
    "error_analysis.tail.s": "s",
    "error_analysis.tail.calls": "count",
    "error_analysis.check_truncation.s": "s",
    "error_analysis.wiener_hopf.s": "s",
    "error_analysis.wiener_hopf.factorizations": "count",
    "setup.import.s": "s",
    "trace.coverage": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced run whose process took `wall_s`.

    `X.s` sums the durations of spans named X, `X.self_s` subtracts the time
    their direct child spans cover, `X.calls` counts them.  A layer the run
    never entered reads 0.  `trace.overhead_s` needs an untraced run and is
    filled in by the caller.
    """
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_s(name):
        return sum(s["end"] - s["start"] - child_time[s["id"]] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def values(name, key):
        return [s[key] for s in by_name[name]]

    def ratio(a, b):
        return a / b if b else 0.0

    roots = sum(values("spectral_oracle.ou_roots", "roots"))
    top_level = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return {
        "model.assemble.s": total("model.assemble"),
        "model.assemble.calls": calls("model.assemble"),
        "model.assemble.nodes": max(values("model.assemble", "nodes"), default=0),
        "model.cov_row.s": total("model.cov_row"),
        "model.cov_row.kernel_evals": sum(values("model.cov_row", "kernel_evals")),
        "spectral_oracle.eigensolve.s": total("spectral_oracle.eigensolve"),
        "spectral_oracle.eigensolve.calls": calls("spectral_oracle.eigensolve"),
        "spectral_oracle.eigensolve.kept_frac": ratio(
            sum(values("spectral_oracle.nystrom", "kept")),
            sum(values("spectral_oracle.eigensolve", "computed"))),
        "spectral_oracle.nystrom.self_s": self_s("spectral_oracle.nystrom"),
        "spectral_oracle.psd_defect": min(values("spectral_oracle.nystrom", "psd_defect"),
                                          default=0.0),
        "spectral_oracle.ou_roots.s": total("spectral_oracle.ou_roots"),
        "spectral_oracle.ou_roots.roots": roots,
        "spectral_oracle.ou_roots.us_per_root": ratio(
            1e6 * total("spectral_oracle.ou_roots"), roots),
        "ia_refine.find_nu.s": total("ia_refine.find_nu"),
        "ia_refine.find_nu.calls": calls("ia_refine.find_nu"),
        "ia_refine.solve_p.s": total("ia_refine.solve_p"),
        "ia_refine.solve_p.self_s": self_s("ia_refine.solve_p"),
        "ia_refine.solve_p.calls": calls("ia_refine.solve_p"),
        "ia_refine.evals_per_root": ratio(calls("ia_refine.solve_p"),
                                          calls("ia_refine.find_nu")),
        "ia_refine.fp_iterations": sum(values("ia_refine.solve_p", "iterations")),
        "ia_refine.eigenfunction.self_s": self_s("ia_refine.eigenfunction"),
        "ia_refine.max_residual": max(values("ia_refine.find_nu", "residual"), default=0.0),
        "ia_refine.max_contraction_norm": max(
            values("ia_refine.find_nu", "contraction_norm"), default=0.0),
        "asymptotics.h_weight.s": total("asymptotics.h_weight"),
        "asymptotics.h_weight.calls": calls("asymptotics.h_weight"),
        "error_analysis.build_spectrum.self_s": self_s("error_analysis.build_spectrum"),
        "error_analysis.series.self_s": self_s("error_analysis.series"),
        "error_analysis.tail.s": total("error_analysis.tail"),
        "error_analysis.tail.calls": calls("error_analysis.tail"),
        "error_analysis.check_truncation.s": total("error_analysis.check_truncation"),
        "error_analysis.wiener_hopf.s": total("error_analysis.wiener_hopf"),
        "error_analysis.wiener_hopf.factorizations": calls("error_analysis.cho_factor"),
        "setup.import.s": total("setup.import"),
        "trace.coverage": top_level / wall_s,
        "trace.wall_s": wall_s,
    }


def main(argv):
    spans_path, stdout_path, run_id, *cli_args = argv
    tracer = Tracer(run_id)
    with tracer.span("setup.import"):
        for name in SETUP_MODULES:
            importlib.import_module(name)
    instrument(tracer)
    cli = sys.modules["fouspec.cli"]
    with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
        code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
