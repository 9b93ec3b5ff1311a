"""Benchmark of the `fouspec mse` command-line workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one `fouspec mse` command dominated by a different spectrum
route.  Runs form a closed loop with one client: a fresh CLI process is
started only after the previous one has exited, with BLAS pinned to THREADS
threads.  The seed draws the drift beta from [-1.5, -0.5]; it changes nothing
that sets the work size.

--trace 0 (end to end): set-up time from fresh interpreters, then CLI runs
until S seconds are used; reports the medians of wall_s, setup_s and
peak_rss_mb.  --trace 1 (per layer): pairs of an untraced CLI run and a traced
run (perfbench/tracer.py) until S seconds are used; reports the per-layer
metrics of the traced runs and the tracing overhead.

Every CLI output is checked against an independent route after the timed
region.  The last line of stdout is one JSON object {correct, attempted,
failed, metrics}; a record with the samples, the seed, beta and the machine
metadata goes to perfbench/out/, and the spans of a traced run next to it.
--workload all runs every workload in turn and prints every metric.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREADS = 1
SETUP_REPEATS = 5
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BETA_RANGE = (-1.5, -0.5)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of failure messages
# ---------------------------------------------------------------------------

def check_series_vs_wiener_hopf(rows, beta, reference):
    """The series is a partial sum of the same matrix's positive modes."""
    bad = []
    for r in rows:
        ps, wh, tail = r["P_series"], r["P_wiener_hopf"], r["tail_est"]
        if not ps <= wh <= ps + tail:
            bad.append(f"eps={r['eps']:g} u={r['u']:g}: P_wiener_hopf {wh!r} outside "
                       f"[P_series, P_series + tail_est] = [{ps!r}, {ps + tail!r}]")
        if not 0.9 < r["ratio"] < 1.1:
            bad.append(f"eps={r['eps']:g} u={r['u']:g}: ratio {r['ratio']!r} "
                       "outside (0.9, 1.1)")
    return bad


def check_refined_vs_oracle(rows, beta, reference):
    """Refined series against the Nystrom oracle on the same grid and n_max."""
    ref = {(r["eps"], r["u"]): r["P_series"] for r in reference}
    bad = []
    for r in rows:
        want = ref.get((r["eps"], r["u"]))
        if want is None or not abs(r["P_series"] - want) <= 1e-4 * abs(want):
            bad.append(f"eps={r['eps']:g} u={r['u']:g}: P_series {r['P_series']!r} "
                       f"vs oracle {want!r}")
    return bad


def check_kalman_bucy(rows, beta, reference):
    """Endpoint error against the exact Kalman-Bucy filtering error (mu = T = 1)."""
    bad = []
    for r in rows:
        if r["u"] != 1.0:
            continue
        d = math.sqrt(beta * beta + 1.0 / r["eps"])
        e = math.exp(-2.0 * d)
        exact = (1.0 - e) / ((d - beta) + (d + beta) * e)
        got = r["P_series"] + r["tail_est"]
        if not abs(got - exact) <= 1e-5 * exact:
            bad.append(f"eps={r['eps']:g}: P_series + tail_est {got!r} vs "
                       f"Kalman-Bucy {exact!r}")
    return bad


# Each workload is dominated by a different spectrum route, so every
# optimisation of one route has a workload that runs it and two that do not.
WORKLOADS = {
    "mse_oracle_h07": {
        "args": ["--H", "0.7", "--eps", "1e-3,1e-4,1e-5", "--u", "0.5,1.0", "--with-wh"],
        "rows": 6,
        "check": check_series_vs_wiener_hopf,
    },
    "mse_refined_h07": {
        "args": ["--H", "0.7", "--spectrum", "refined", "--n-max", "100",
                 "--N-unit", "2000", "--eps", "1e-2,1e-3", "--u", "0.5,1.0"],
        "rows": 4,
        "check": check_refined_vs_oracle,
        "reference": ["--H", "0.7", "--spectrum", "oracle", "--n-max", "100",
                      "--N-unit", "2000", "--eps", "1e-2,1e-3", "--u", "0.5,1.0"],
    },
    "mse_closed_h05": {
        "args": ["--H", "0.5", "--eps", "1e-4,1e-5,1e-6,1e-7"],
        "rows": 8,
        "check": check_kalman_bucy,
    },
}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def spawn(argv, stdout_path=None):
    """Run one child to completion; return (exit code, wall s, peak RSS MB)."""
    with open(stdout_path or os.devnull, "w") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, cwd=ROOT, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_argv(args, beta):
    return ["mse", "--threads", str(THREADS), "--beta", repr(beta)] + args


def run_cli(args, beta, stdout_path):
    """One untraced `fouspec mse` process with its output kept for the check."""
    code, wall, rss = spawn([sys.executable, "-m", "fouspec.cli"] + cli_argv(args, beta),
                            stdout_path)
    return {"code": code, "wall_s": wall, "peak_rss_mb": rss, "path": stdout_path}


def parse_csv(path):
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def check_output(spec, code, path, beta, reference):
    """Failure messages for one CLI run (exit code, row count, route check)."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        rows = parse_csv(path)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    if len(rows) != spec["rows"]:
        return [f"{len(rows)} output rows, expected {spec['rows']}"]
    return spec["check"](rows, beta, reference)


def machine_metadata():
    """Versions and sizes a result depends on; also warms the import caches."""
    probe = ("import json, sys, numpy, scipy\n"
             + "".join(f"import {m}\n" for m in tracer.SETUP_MODULES)
             + "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "print(json.dumps({'python': sys.version.split()[0],"
             " 'numpy': numpy.__version__, 'scipy': scipy.__version__,"
             " 'blas': blas.get('name'), 'blas_version': blas.get('version')}))\n")
    meta = json.loads(subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                                     env=child_env(), capture_output=True, text=True,
                                     check=True).stdout)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    meta.update(threads=THREADS, nproc=os.cpu_count(),
                affinity=len(os.sched_getaffinity(0)), git_commit=commit,
                src_lines=src_lines)
    return meta


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def summary(values):
    """Median and quartiles of the samples (quartiles equal the median for n < 2)."""
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def closed_loop(seconds, one_round):
    """Call one_round(k) while a round of typical length still fits in `seconds`.

    Runs at least one round.  A round that takes longer than the median of
    the earlier ones can overrun `seconds` by the difference.
    """
    t_end = perf_counter() + seconds
    durations = []
    while not durations or perf_counter() + statistics.median(durations) <= t_end:
        t0 = perf_counter()
        one_round(len(durations))
        durations.append(perf_counter() - t0)


def run_end_to_end(name, beta, seconds, tag):
    spec = WORKLOADS[name]
    setup = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = spawn([sys.executable, "-c",
                               "import " + ", ".join(tracer.SETUP_MODULES)])
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
        setup.append(wall)
    runs = []
    closed_loop(seconds, lambda k: runs.append(
        run_cli(spec["args"], beta, OUT / f"{tag}.run{k}.csv")))
    failed, failures = check_runs(spec, runs, beta, tag)
    samples = {"wall_s": [r["wall_s"] for r in runs], "setup_s": setup,
               "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
    stats = {key: summary(values) for key, values in samples.items()}
    metrics = {key: {"value": stats[key]["median"], "unit": unit}
               for key, unit in END_TO_END_UNITS.items()}
    return len(runs), failed, failures, metrics, {"stats": stats, "samples": samples}


def run_traced(name, beta, seconds, tag):
    spec = WORKLOADS[name]
    plain = []
    traced = []
    spans = []

    def one_round(k):
        plain.append(run_cli(spec["args"], beta, OUT / f"{tag}.run{k}.csv"))
        path = OUT / f"{tag}.traced{k}.csv"
        span_path = OUT / f"{tag}.traced{k}.spans.jsonl"
        code, wall, rss = spawn([sys.executable, str(ROOT / "perfbench" / "tracer.py"),
                                 str(span_path), str(path), f"{tag}.traced{k}"]
                                + cli_argv(spec["args"], beta))
        run = {"code": code, "wall_s": wall, "peak_rss_mb": rss, "path": path}
        if code == 0:
            run["spans"] = [json.loads(ln) for ln in span_path.read_text().splitlines()]
            spans.extend(run["spans"])
        span_path.unlink(missing_ok=True)
        traced.append(run)

    closed_loop(seconds, one_round)
    failed, failures = check_runs(spec, plain + traced, beta, tag)
    (OUT / f"{tag}.spans.jsonl").write_text("".join(json.dumps(s) + "\n" for s in spans))
    layers = [tracer.layer_metrics(r["spans"], r["wall_s"]) for r in traced if "spans" in r]
    metrics = {}
    if layers:
        untraced = statistics.median(r["wall_s"] for r in plain)
        for key, unit in tracer.LAYER_UNITS.items():
            if key == "trace.overhead_s":
                value = statistics.median(m["trace.wall_s"] for m in layers) - untraced
            else:
                value = statistics.median(m[key] for m in layers)
            metrics[key] = {"value": value, "unit": unit}
    return len(plain) + len(traced), failed, failures, metrics, {"traced_runs": layers}


def check_runs(spec, runs, beta, tag):
    """Check every run's output, outside the timed region.

    Returns the number of failed runs and the failure messages.
    """
    reference = None
    if "reference" in spec:
        ref = run_cli(spec["reference"], beta, OUT / f"{tag}.reference.csv")
        try:
            reference = parse_csv(ref["path"]) if ref["code"] == 0 else []
        except ValueError:
            reference = []  # every row then fails its comparison
        ref["path"].unlink()
    failed = 0
    failures = []
    for r in runs:
        msgs = check_output(spec, r["code"], r["path"], beta, reference)
        failures += [f"{r['path'].name}: {m}" for m in msgs]
        failed += bool(msgs)
        r["path"].unlink(missing_ok=True)
    return failed, failures


def run_workload(name, seed, seconds, trace):
    beta = random.Random(seed).uniform(*BETA_RANGE)
    tag = f"{name}.seed{seed}.trace{trace}"
    machine = machine_metadata()
    mode = run_traced if trace else run_end_to_end
    attempted, failed, failures, metrics, detail = mode(name, beta, seconds, tag)
    record = {"workload": name, "seed": seed, "beta": beta, "seconds": seconds,
              "trace": trace, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "failures": failures,
              "metrics": metrics, "machine": machine, **detail}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for m in failures:
        print(f"{name}: FAILED {m}", file=sys.stderr)
    print(f"{name} seed={seed} beta={beta!r} threads={THREADS} "
          f"attempted={attempted} failed={failed} failed_frac={failed / attempted:g}")
    for key, m in metrics.items():
        q = detail.get("stats", {}).get(key)
        spread = f"  (q1 {q['q1']:.4g}, q3 {q['q3']:.4g}, n={q['n']})" if q else ""
        print(f"  {key} = {m['value']:.6g} {m['unit']}{spread}")
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "fouspec" / "cli.py").is_file():
        print(f"run.py: no fouspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
