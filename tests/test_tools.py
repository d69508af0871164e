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


class TestStreamLaw:
    def test_prints_a_standard_chi_square_z_per_seed(self, tmp_path, capsys):
        from treegls import write_newick
        from treegls.simlab import random_tree

        path = tmp_path / "tree.nwk"
        path.write_text(write_newick(random_tree(200, seed=3)))
        load_tool("stream_law").main([str(path), "--seeds", "4,10:12", "--reps", "20"])
        header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert header == ["seed", "chi2_z"]
        assert [int(seed) for seed, _ in rows] == [4, 10, 11]
        assert all(abs(float(z)) < 6.0 for _, z in rows)

    def test_z_is_the_dense_chi_square_statistic(self):
        import numpy as np

        from treegls import bm_covariance, parse_newick

        tree = parse_newick("((A:0.5,B:0.3)x:0.5,(C:1.0,D:0.2):0.1);")
        values = np.random.default_rng(1).normal(size=(7, 4))
        quad = np.einsum("ri,ij,rj->", values, np.linalg.inv(bm_covariance(tree)), values)
        want = (quad - 28) / np.sqrt(56)
        assert abs(load_tool("stream_law").chi_square_z(tree, values) - want) < 1e-12


class TestScale:
    def test_every_stage_of_every_shape(self, tmp_path):
        scale = load_tool("scale")
        for shape in scale.SHAPES:
            workdir = tmp_path / shape
            workdir.mkdir()
            scale.prepare(shape, 4, workdir)
            for stage in scale.STAGES:
                got = scale.run_stage(stage, workdir)
                assert got["wall_s"] > 0 and got["max_rss_mb"] > 0, (shape, stage)
                assert got["peak_mb"] >= 0, (shape, stage)

    def test_shapes_have_2_to_the_k_tips(self, monkeypatch):
        from treegls import parse_newick

        scale = load_tool("scale")
        tree = scale.caterpillar(16)
        assert tree.n_tips == 16 and int(tree.levels.max()) == 15
        # Above RANDOM_MAX_K, the random shape joins relabelled copies.
        monkeypatch.setattr(scale, "RANDOM_MAX_K", 3)
        tree = parse_newick(scale.random_text(5))
        assert tree.n_tips == 32 and len(set(tree.tip_labels)) == 32
        assert (tree.parent == tree.root).sum() == 4

    def test_main_prints_a_row_per_stage_from_fresh_processes(self, capsys):
        load_tool("scale").main(["--k", "3", "--shapes", "caterpillar", "--stages", "parse,emit"])
        header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert header == ["shape", "tips", "stage", "wall_s", "peak_mb", "max_rss_mb"]
        assert [row[:3] for row in rows] == [["caterpillar", "8", "parse"],
                                             ["caterpillar", "8", "emit"]]
        for row in rows:
            assert float(row[3]) >= 0 and float(row[5]) > 0
