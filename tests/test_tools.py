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
    assert lines[0].split() == ["module", "lines", "code"]
    return {name: (int(total), int(code))
            for name, total, code in (line.split() for line in lines[1:])}


def test_src_lines_leaves_out_comments_docstrings_and_blanks(tmp_path):
    (tmp_path / "a.py").write_text('"""Module\ndocstring."""\n\nimport os  # kept\n'
                                   '# a comment\n\n\ndef f(x):\n    """One\n    more."""\n'
                                   '    return (x +\n            1)\n')
    (tmp_path / "b.py").write_text("X = 1\n")
    assert _table(str(tmp_path)) == {"a.py": (12, 4), "b.py": (1, 1), "total": (13, 5)}


def test_src_lines_counts_every_module_of_the_package():
    table = _table()
    modules = sorted(p.name for p in (ROOT / "src" / "fouspec").glob("*.py"))
    assert sorted(table) == sorted(modules + ["total"])
    assert table["total"] == tuple(sum(table[m][k] for m in modules) for k in (0, 1))
    assert all(0 < code < total for total, code in table.values())


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
