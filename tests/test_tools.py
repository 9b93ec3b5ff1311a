import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "src_lines.py"


def _table(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["module", "lines", "code", "options"]
    return {name: tuple(map(int, counts))
            for name, *counts in (line.split() for line in lines[1:])}


def test_src_lines_leaves_out_comments_docstrings_and_blanks(tmp_path):
    (tmp_path / "a.py").write_text('"""Module\ndocstring."""\n\nimport os  # kept\n'
                                   '# a comment\n\n\ndef f(x):\n    """One\n    more."""\n'
                                   '    return (x +\n            1)\n')
    (tmp_path / "b.py").write_text("X = 1\n")
    assert _table(str(tmp_path)) == {"a.py": (12, 4, 0), "b.py": (1, 1, 0),
                                     "total": (13, 5, 0)}


def test_src_lines_counts_options_of_public_functions_and_methods(tmp_path):
    # defaults of positional and keyword-only parameters; names with one
    # leading underscore and lambdas do not count, __init__ and nested
    # public functions do
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, *, c=2, d):\n    def inner(k=1):\n        return k\n"
        "    return lambda x=1: x\n\n\n"
        "def _g(x=1):\n    return x\n\n\n"
        "class C:\n    def __init__(self, x=0):\n        self.x = x\n\n"
        "    def m(self, y=None, *args, z=3, w, **kw):\n        return y\n\n"
        "    def _h(self, q=1):\n        return q\n\n\n"
        "async def h(a=1):\n    return a\n")
    assert _table(str(tmp_path))["m.py"][2] == 7


def test_src_lines_counts_every_module_of_the_package():
    table = _table()
    modules = sorted(p.name for p in (ROOT / "src" / "fouspec").glob("*.py"))
    assert sorted(table) == sorted(modules + ["total"])
    assert table["total"] == tuple(sum(table[m][k] for m in modules) for k in range(3))
    assert all(0 < code < total and opts >= 0 for total, code, opts in table.values())


def test_workload_digests_hash_each_command_stdout(monkeypatch, capsys):
    import hashlib
    import importlib.util

    spec = importlib.util.spec_from_file_location("workload_digests",
                                                  ROOT / "tools" / "workload_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    args = ["--H", "0.5", "--n-max", "50", "--eps", "1e-1", "--u", "1"]
    monkeypatch.setattr(tool, "WORKLOADS", {"tiny": {"args": args}})
    assert tool.main(["--beta", "-0.5,0.25"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "beta", "exit", "sha256", "rss_mb"]
    for row, beta in zip(rows, (-0.5, 0.25), strict=True):
        proc = subprocess.run([sys.executable, "-m", "fouspec.cli", *tool.cli_argv(args, beta)],
                              capture_output=True, cwd=ROOT, env=tool.child_env())
        assert proc.returncode == 0 and proc.stdout.startswith(b"# fouspec")
        *fields, rss = row.split()
        assert fields == ["tiny", f"{beta:g}", "0", hashlib.sha256(proc.stdout).hexdigest()]
        assert float(rss) > 0  # the child's peak RSS in MB
