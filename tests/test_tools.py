import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


TINY = ["--H", "0.5", "--n-max", "50", "--eps", "1e-1", "--u", "1"]


def _digests_tool(monkeypatch):
    """tools/workload_digests.py as a module, with one tiny workload."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("workload_digests",
                                                  ROOT / "tools" / "workload_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "WORKLOADS", {"tiny": {"args": TINY}})
    return tool


def test_workload_digests_hash_each_command_stdout(monkeypatch, capsys):
    tool = _digests_tool(monkeypatch)
    assert tool.main(["--beta", "-0.5,0.25"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "beta", "exit", "sha256", "rss_mb"]
    for row, beta in zip(rows, (-0.5, 0.25), strict=True):
        proc = subprocess.run([sys.executable, "-m", "fouspec.cli", *tool.cli_argv(TINY, beta)],
                              capture_output=True, cwd=ROOT, env=tool.child_env())
        assert proc.returncode == 0 and proc.stdout.startswith(b"# fouspec")
        *fields, rss = row.split()
        assert fields == ["tiny", f"{beta:g}", "0", hashlib.sha256(proc.stdout).hexdigest()]
        assert float(rss) > 0  # the child's peak RSS in MB


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and the repository's history")
def test_workload_digests_against_a_revision(monkeypatch, capsys):
    # the workload's output does not depend on uncommitted changes, so HEAD's
    # src/ prints the same bytes as this tree's
    tool = _digests_tool(monkeypatch)
    assert tool.main(["--beta", "-0.5,0", "--against", "HEAD"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["workload", "beta", "exit", "sha256", "rss_mb",
                              "base_rss_mb", "same"]
    assert len(rows) == 2
    for row in rows:
        *_, rss, base_rss, same = row.split()
        assert same == "yes" and float(rss) > 0 and float(base_rss) > 0


def test_workload_digests_exit_1_on_a_difference(monkeypatch, capsys):
    # a digest that depends on the tree: the row reads "no" and the exit is 1
    tool = _digests_tool(monkeypatch)
    monkeypatch.setattr(tool, "unpack_src", lambda rev, dest: Path(dest))
    monkeypatch.setattr(tool, "digest", lambda args, beta, src=tool.ROOT / "src":
                        (0, hashlib.sha256(str(src).encode()).hexdigest(), 1.0))
    assert tool.main(["--against", "REV"]) == 1
    assert capsys.readouterr().out.split()[-1] == "no"
