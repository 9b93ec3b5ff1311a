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


needs_git = pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                               reason="needs git and the repository's history")


def _unpack_head(dest):
    """HEAD's package, unpacked by `git archive` under `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", "HEAD", "src"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest / "src" / "fouspec"


@needs_git
def test_src_lines_against_a_revision(tmp_path):
    # HEAD's own package plus one module against HEAD: the base columns are
    # HEAD's counts, and only the new module differs, with 0 at the base
    package = _unpack_head(tmp_path)
    (package / "extra.py").write_text("X = 1\n")
    proc = subprocess.run([sys.executable, str(SCRIPT), str(package), "--against", "HEAD"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split() == ["module", "lines", "code", "options", "base_lines", "base_code",
                              "base_options", "diff_lines", "diff_code", "diff_options"]
    rows = {name: (tuple(map(int, cells[:6])), cells[6:])
            for name, *cells in (line.split() for line in lines)}
    alone = _table(str(package))
    assert sorted(rows) == sorted(alone)
    for name, (counts, diff) in rows.items():
        assert counts[:3] == alone[name]
        if name in ("extra.py", "total"):
            assert diff == [f"{v:+d}" for v in (1, 1, 0)]
        else:
            assert counts[3:] == counts[:3] and diff == ["+0"] * 3
    assert rows["extra.py"][0][3:] == (0, 0, 0)


def test_src_lines_exit_0_without_the_revision(tmp_path):
    # a revision that cannot be unpacked is named on stderr; this tree's
    # counts are still printed, and the exit code is 0
    (tmp_path / "b.py").write_text("X = 1\n")
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path), "--against",
                           "no-such-revision"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cannot unpack no-such-revision" in proc.stderr
    assert _table(str(tmp_path)) == {"b.py": (1, 1, 0), "total": (1, 1, 0)}
    assert proc.stdout.splitlines()[0].split() == ["module", "lines", "code", "options"]


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


@needs_git
def test_workload_digests_against_a_revision(monkeypatch, capsys, tmp_path):
    # both sides run HEAD's committed src/: this tree's side from a second
    # unpacked copy, so an uncommitted change to the output cannot fail it
    tool = _digests_tool(monkeypatch)
    head_src = tool.unpack_src("HEAD", tmp_path)
    run = tool.digest
    monkeypatch.setattr(tool, "digest", lambda args, beta, src=head_src: run(args, beta, src))
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
                        (0, hashlib.sha256(str(src).encode()).hexdigest(), 1.0, b""))
    assert tool.main(["--against", "REV"]) == 1
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == "no"


def test_workload_digests_explain_a_difference(monkeypatch, capsys):
    # under a row that differs: the added and removed columns, the changed
    # `#` lines, and per shared column the moved cells and the largest move
    tool = _digests_tool(monkeypatch)
    base = b"# n_max = 10\neps,u,old\n1e-2,0.5,3\n1e-2,1,4\n"
    tree = b"# n_max = 20\neps,u,new\n1e-2,0.5,3\n1.001e-2,1,4\n"
    monkeypatch.setattr(tool, "unpack_src", lambda rev, dest: Path(dest) / "base")
    monkeypatch.setattr(tool, "digest", lambda args, beta, src=tool.ROOT / "src": (
        0, hashlib.sha256(str(src).encode()).hexdigest(), 1.0,
        base if src.name == "base" else tree))
    assert tool.main(["--against", "REV"]) == 1
    header, row, *lines = capsys.readouterr().out.splitlines()
    assert row.split()[-1] == "no"
    assert lines == ["    columns added: new", "    columns removed: old",
                     "    - # n_max = 10", "    + # n_max = 20",
                     "    eps: 1 of 2 cells moved, largest relative move 0.001",
                     "    u: 0 of 2 cells moved, largest relative move 0"]
