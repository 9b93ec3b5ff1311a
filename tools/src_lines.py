"""Line counts of the fouspec package, per module and in sum.

For each module of src/fouspec this prints its total lines, its code
lines and its options.  Code lines are the lines that hold a token of code,
so neither blank lines, comment lines nor the lines of a docstring (the
string that opens a module, class or function) count.  Options are the
parameters that have a default value, in every function and method whose
name does not start with a single underscore (`__init__` counts).
Standard library only (`tokenize` and `ast`).

    python tools/src_lines.py [package directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fouspec"
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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, *count(path.read_text())) for path in sorted(package.glob("*.py"))]
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'options':>7}")
    for name, total, code, opts in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}  {opts:>7}")


if __name__ == "__main__":
    main()
