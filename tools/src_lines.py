"""Line counts of the fouspec package, per module and in sum.

For each module of src/fouspec this prints its total lines, its code
lines and its options.  Code lines are the lines that hold a token of code,
so neither blank lines, comment lines nor the lines of a docstring (the
string that opens a module, class or function) count.  Options are the
parameters that have a default value, in every function and method whose
name does not start with a single underscore (`__init__` counts).
`--against REV` also counts revision REV's package, unpacked from its
`src/` by `git archive` into a temporary directory (`unpack_src`, which
tools/workload_digests.py shares), and adds its three counts and this tree's
difference from them; a module that one tree lacks counts 0 there.  The
counts are a report, not a gate: the exit code is always 0, and a revision
that cannot be unpacked is named on stderr and left out.  Standard library
(`tokenize` and `ast`), git and tar only.

    python tools/src_lines.py [package directory]
    python tools/src_lines.py --against HEAD~1
"""

import argparse
import ast
import io
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fouspec"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def options(tree):
    """Parameters with a default value, over the functions and methods whose
    name does not start with a single underscore."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and (not node.name.startswith("_") or node.name.startswith("__")))


def count(source):
    """(total lines, code lines, options) of one module's source text."""
    tree = ast.parse(source)
    docs = docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs), options(tree)


def counts(package):
    """{module file name: (total lines, code lines, options)} of a package directory."""
    return {path.name: count(path.read_text()) for path in sorted(Path(package).glob("*.py"))}


def unpack_src(rev, dest):
    """Write revision `rev`'s `src/` under `dest` with `git archive`; return its path."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return Path(dest) / "src"


def main(argv=None):
    ap = argparse.ArgumentParser(description="Total lines, code lines and options per "
                                             "module of the fouspec package.")
    ap.add_argument("package", nargs="?", default=PACKAGE, help="package directory")
    ap.add_argument("--against", metavar="REV",
                    help="also count REV's package and print the difference")
    args = ap.parse_args(sys.argv[1:] if argv is None else argv)
    tables = [counts(args.package)]
    if args.against:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                tables.append(counts(unpack_src(args.against, tmp) / PACKAGE.name))
            except (OSError, subprocess.CalledProcessError) as exc:
                why = (getattr(exc, "stderr", None) or b"").decode(errors="replace").strip()
                sys.stderr.write(f"cannot unpack {args.against}: {why or exc}\n")
    rows = {name: [t.get(name, (0, 0, 0)) for t in tables]
            for name in sorted(set().union(*tables))}
    rows["total"] = [tuple(sum(r[k][j] for r in rows.values()) for j in range(3))
                     for k in range(len(tables))]
    sides = [""]
    if len(tables) == 2:
        sides += ["base_", "diff_"]
        for parts in rows.values():
            parts.append(tuple(a - b for a, b in zip(*parts)))
    header = [side + h for side in sides for h in ("lines", "code", "options")]
    widths = [max(6, len(h)) for h in header]
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"  {h:>{w}}" for h, w in zip(header, widths)))
    for name, parts in rows.items():
        cells = [f"{v:+d}" if side == "diff_" else str(v)
                 for side, part in zip(sides, parts) for v in part]
        print(f"{name:<{width}}" + "".join(f"  {c:>{w}}" for c, w in zip(cells, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
