"""The repository tools."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# Code lines: 5 (import), 8 (def), 10-11 (the call), 12-13 (the string
# argument) and 14 (the closing parenthesis): 7 of 14.
SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import os


def f(x):
    """Function docstring."""
    return os.path.join(
        x,
        """a multi-line
string argument""",
    )
'''


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCodeLines:
    def test_counts_only_code_lines(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(SOURCE)
        assert load_tool("code_lines").code_lines(path) == 7

    def test_main_prints_each_module_and_their_total(self, tmp_path, capsys):
        (tmp_path / "b.py").write_text(SOURCE)
        (tmp_path / "a.py").write_text("x = 1\n\n# comment\ny = 2\n")
        (tmp_path / "notes.txt").write_text("x = 1\n")
        load_tool("code_lines").main([str(tmp_path)])
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert rows == [["a", "2"], ["b", "7"], ["total", "9"]]


class TestColdStart:
    def test_prints_every_command_with_its_wall_time_and_rss(self, capsys):
        from treegls.cli import COMMANDS

        load_tool("cold_start").main(["--runs", "1"])
        header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert header == ["command", "wall_ms", "max_rss_mb"]
        assert [row[0] for row in rows] == list(COMMANDS)
        for _, wall_ms, rss_mb in rows:
            assert float(wall_ms) > 0 and float(rss_mb) > 0
