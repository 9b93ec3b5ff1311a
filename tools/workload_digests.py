"""Digests of the benchmark workloads' outputs, to show that a change leaves
every printed byte as it was.

For each workload of perfbench/run.py and each drift beta of a comma list,
this runs the workload's `fouspec mse` command in a fresh process at the
benchmark's one BLAS thread and prints the workload, beta, exit code, the
sha256 of its stdout and its peak RSS in MB (`ru_maxrss` from `os.wait4`,
as perfbench/run.py's `spawn` reads it).  Run it on two checkouts and
compare the tables: the digests must match, the RSS column is a measurement.
Standard library only; it reads the workload definitions from
perfbench/run.py and changes nothing there.

    python tools/workload_digests.py --beta -1.5,-1.1,-0.5
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS, child_env, cli_argv  # noqa: E402


def digest(args, beta):
    """(exit code, sha256 hex of stdout, peak RSS in MB) of one workload command."""
    proc = subprocess.Popen([sys.executable, "-m", "fouspec.cli", *cli_argv(args, beta)],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT,
                            env=child_env())
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, hashlib.sha256(out).hexdigest(), usage.ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description="Exit code and stdout sha256 of each "
                                             "benchmark workload.")
    ap.add_argument("--beta", default="-1.1", help="comma list of drifts [-1.1]")
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--beta" in argv[:-1]:  # argparse takes "-1.5,-0.5" for an option: attach it
        k = argv.index("--beta")
        argv[k:k + 2] = [f"--beta={argv[k + 1]}"]
    args = ap.parse_args(argv)
    betas = [float(b) for b in args.beta.split(",") if b.strip()]
    width = max(len(name) for name in WORKLOADS)
    print(f"{'workload':<{width}}  {'beta':>6}  exit  {'sha256':<64}  rss_mb")
    for name, workload in WORKLOADS.items():
        for beta in betas:
            code, sha, rss = digest(workload["args"], beta)
            print(f"{name:<{width}}  {beta:>6g}  {code:>4}  {sha}  {rss:6.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
