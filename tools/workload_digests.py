"""Digests of the benchmark workloads' outputs, to show that a change leaves
every printed byte as it was.

For each workload of perfbench/run.py and each drift beta of a comma list,
this runs the workload's `fouspec mse` command in a fresh process at the
benchmark's one BLAS thread and prints the workload, beta, exit code, the
sha256 of its stdout and its peak RSS in MB (`ru_maxrss` from `os.wait4`,
as perfbench/run.py's `spawn` reads it).  The digests must match between
two checkouts; the RSS column is a measurement.  `--against REV` makes the
comparison itself: it also runs each command on the `src/` of revision REV,
unpacked by `git archive` into a temporary directory, adds that run's peak
RSS and a `same` column (exit code and digest both equal), and exits 1 on
any difference.  Under each row that differs it explains the move from
both stdout tables: the columns added and removed, the `#` lines that
changed, and for each shared column the number of cells that moved and the
largest relative move.  Standard library, git and tar only; it reads the
workload definitions from perfbench/run.py and changes nothing there or in
`.git`.

    python tools/workload_digests.py --beta -1.5,-1.1,-0.5
    python tools/workload_digests.py --beta -1.1,0 --against HEAD~1
"""

import argparse
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS, child_env, cli_argv  # noqa: E402


def digest(args, beta, src=ROOT / "src"):
    """(exit code, sha256 hex of stdout, peak RSS in MB, stdout bytes) of one
    workload command, run on the package in `src`."""
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(src), env["PYTHONPATH"]])
    proc = subprocess.Popen([sys.executable, "-m", "fouspec.cli", *cli_argv(args, beta)],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=src,
                            env=env)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, hashlib.sha256(out).hexdigest(), usage.ru_maxrss / 1024.0, out


def table(out):
    """(`#` lines, {column: its cells as text}) of a CSV stdout: the first
    line that is neither blank nor a `#` line is the header, and the lines
    after it are the rows."""
    lines = out.decode(errors="replace").splitlines()
    notes = [line for line in lines if line.startswith("#")]
    header, *rows = [line.split(",") for line in lines if line and not line.startswith("#")] \
        or [[]]
    return notes, {name: [row[k] if k < len(row) else "" for row in rows]
                   for k, name in enumerate(header)}


def _relative_move(old, new):
    try:
        a, b = float(old), float(new)
    except ValueError:
        return math.inf
    return abs(b - a) / abs(a) if a else math.inf


def explain(base_out, out):
    """Lines that say how the stdout `out` differs from `base_out`."""
    (old_notes, old), (new_notes, new) = table(base_out), table(out)
    lines = [f"columns added: {', '.join(c for c in new if c not in old) or 'none'}",
             f"columns removed: {', '.join(c for c in old if c not in new) or 'none'}"]
    lines += [f"- {n}" for n in old_notes if n not in new_notes]
    lines += [f"+ {n}" for n in new_notes if n not in old_notes]
    for name in (c for c in new if c in old):
        pairs = list(zip(old[name], new[name]))
        moved = [_relative_move(a, b) for a, b in pairs if a != b]
        size = "" if len(old[name]) == len(new[name]) else \
            f" ({len(old[name])} rows before, {len(new[name])} now)"
        lines.append(f"{name}: {len(moved)} of {len(pairs)} cells moved{size}, largest "
                     f"relative move {max(moved, default=0.0):.3g}")
    return lines


def unpack_src(rev, dest):
    """Write revision `rev`'s `src/` under `dest` with `git archive`; return its path."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return Path(dest) / "src"


def main(argv=None):
    ap = argparse.ArgumentParser(description="Exit code and stdout sha256 of each "
                                             "benchmark workload.")
    ap.add_argument("--beta", default="-1.1", help="comma list of drifts [-1.1]")
    ap.add_argument("--against", metavar="REV",
                    help="also run each workload on REV's src/ and compare")
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--beta" in argv[:-1]:  # argparse takes "-1.5,-0.5" for an option: attach it
        k = argv.index("--beta")
        argv[k:k + 2] = [f"--beta={argv[k + 1]}"]
    args = ap.parse_args(argv)
    betas = [float(b) for b in args.beta.split(",") if b.strip()]
    width = max(len(name) for name in WORKLOADS)
    with tempfile.TemporaryDirectory() as tmp:
        base = args.against and unpack_src(args.against, tmp)
        print(f"{'workload':<{width}}  {'beta':>6}  exit  {'sha256':<64}  rss_mb"
              + ("  base_rss_mb  same" if base else ""))
        differ = False
        for name, workload in WORKLOADS.items():
            for beta in betas:
                code, sha, rss, out = digest(workload["args"], beta)
                row = f"{name:<{width}}  {beta:>6g}  {code:>4}  {sha}  {rss:6.1f}"
                if base:
                    base_code, base_sha, base_rss, base_out = digest(workload["args"], beta,
                                                                     base)
                    same = (base_code, base_sha) == (code, sha)
                    differ |= not same
                    row += f"  {base_rss:11.1f}  {'yes' if same else 'no'}"
                    if not same:
                        row += "".join(f"\n    {line}" for line in explain(base_out, out))
                print(row, flush=True)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
