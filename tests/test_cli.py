"""CLI thin-shell equivalence, determinism, and error reporting."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treegls
from treegls import cli
from treegls import (
    ShiftSpec,
    ess_intercept,
    ess_lineage,
    fit_shift_model,
    gls_fit,
    load_traits,
    parse_newick,
    score_models,
)
from treegls import tree as tree_mod
from treegls import write_newick
from treegls.design import exhaustive_design, random_design_bands
from treegls.simlab import simulate_bm
from treegls.tree import _heights_below

from conftest import caterpillar_newick, cherry_beside_star_newick, dense_scaled_ess, trees

TREE = "((A:0.5,B:0.5)ab:0.5,(C:0.4,D:0.4)cd:0.6);"
TRAITS = "tip,mass,temp\nA,1.0,0.2\nB,1.2,0.1\nC,0.3,-0.4\nD,0.2,-0.2\n"


@pytest.fixture
def paths(tmp_path):
    tree = tmp_path / "tree.nwk"
    tree.write_text(TREE + "\n")
    traits = tmp_path / "traits.csv"
    traits.write_text(TRAITS)
    return {"tree": str(tree), "traits": str(traits), "dir": tmp_path}


def run_cli(capsys, argv):
    status = cli.main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestThinShell:
    def test_ess_matches_library(self, paths, capsys):
        status, out, _ = run_cli(capsys, ["ess", "--tree", paths["tree"]])
        assert status == 0
        got = json.loads(out)
        want = ess_intercept(parse_newick(TREE)).to_dict()
        assert got == json.loads(cli._json(want))

    def test_fit_matches_library(self, paths, capsys):
        status, out, _ = run_cli(
            capsys, ["fit", "--tree", paths["tree"], "--traits", paths["traits"]]
        )
        assert status == 0
        got = json.loads(out)
        tree = parse_newick(TREE)
        data = load_traits(paths["traits"], tree)
        fit = gls_fit(tree, data.design(), data.Y)
        assert np.allclose(got["beta"], fit.beta)
        assert got["n"] == 4 and got["rank"] == 2

    def test_fit_ou_model(self, paths, capsys):
        status, out, _ = run_cli(
            capsys,
            [
                "fit", "--tree", paths["tree"], "--traits", paths["traits"],
                "--model", "ou", "--alpha", "0.8", "--stationary",
            ],
        )
        assert status == 0
        from treegls import CovarianceSpec

        tree = parse_newick(TREE)
        data = load_traits(paths["traits"], tree)
        fit = gls_fit(tree, data.design(), data.Y, CovarianceSpec.ou(0.8, True))
        assert np.allclose(json.loads(out)["beta"], fit.beta)

    def test_shift_matches_library(self, paths, capsys):
        status, out, _ = run_cli(
            capsys,
            [
                "shift", "--tree", paths["tree"], "--traits", paths["traits"],
                "--shift-node", "ab", "--shift-mode", "SB",
            ],
        )
        assert status == 0
        got = json.loads(out)
        tree = parse_newick(TREE)
        data = load_traits(paths["traits"], tree)
        fit = fit_shift_model(tree, data.X, data.Y, ShiftSpec("ab", "SB"))
        pair = ess_lineage(tree, ShiftSpec("ab", "SB"))
        assert np.allclose(got["beta"], fit.beta)
        assert np.isclose(got["n_e_top"], pair.top)
        assert got["shift"]["mode"] == "SB"

    def test_shift_node_by_tip_list(self, paths, capsys):
        status, out, _ = run_cli(
            capsys,
            [
                "shift", "--tree", paths["tree"], "--traits", paths["traits"],
                "--shift-node", "C,D",
            ],
        )
        assert status == 0
        got = json.loads(out)
        assert sorted(got["shift"]["top_tips"]) == ["C", "D"]

    def test_design_exhaustive_matches_library(self, paths, capsys):
        status, out, _ = run_cli(
            capsys,
            ["design", "--tree", paths["tree"], "--size", "2",
             "--method", "exhaustive"],
        )
        assert status == 0
        got = json.loads(out)
        want = exhaustive_design(parse_newick(TREE), 2)
        assert got["selected"] == list(want.selected)
        assert np.isclose(got["score"], want.score)

    def test_design_random_band(self, paths, capsys):
        status, out, _ = run_cli(
            capsys,
            ["design", "--tree", paths["tree"], "--size", "2",
             "--method", "random", "--reps", "100", "--seed", "5"],
        )
        assert status == 0
        got = json.loads(out)
        want = random_design_bands(parse_newick(TREE), 2, 100, 5)
        assert np.isclose(got["median"], want.median)

    def test_score_matches_library(self, paths, capsys):
        status, out, _ = run_cli(
            capsys,
            ["score", "--tree", paths["tree"], "--traits", paths["traits"],
             "--shift-node", "ab"],
        )
        assert status == 0
        got = json.loads(out)
        tree = parse_newick(TREE)
        data = load_traits(paths["traits"], tree)
        want = score_models(tree, data.X, data.Y, ShiftSpec("ab", "S"))
        assert [s["model"] for s in got] == ["M0", "M1(S)"]
        assert np.isclose(got[1]["bic_corrected"], want[1].bic_corrected)

    def test_simulate_matches_library(self, paths, capsys):
        status, out, _ = run_cli(
            capsys,
            ["simulate", "--tree", paths["tree"], "--seed", "3", "--reps", "2"],
        )
        assert status == 0
        got = json.loads(out)
        want = simulate_bm(parse_newick(TREE), 0.0, 1.0, 3, reps=2)
        assert np.allclose(got["values"], want)

    def test_phase_csv_matches_library(self, paths, capsys):
        status, out, _ = run_cli(
            capsys, ["phase", "--d", "2", "--q", "0.8", "--m-max", "4",
                     "--format", "csv"]
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,var_closed,var_pruning"
        assert len(lines) == 5
        from treegls import phase_transition_curve

        want = phase_transition_curve(2, 0.8, 4)
        for line, point in zip(lines[1:], want):
            n, vc, vp = line.split(",")
            assert int(n) == point.n
            assert float(vc) == point.var_closed
            assert float(vp) == point.var_pruning

    def test_eigs_matches_library(self, paths, capsys):
        status, out, _ = run_cli(
            capsys, ["eigs", "--d", "2,2", "--format", "json"]
        )
        assert status == 0
        got = json.loads(out)
        from treegls import symmetric_tree_eigenvalues

        want = symmetric_tree_eigenvalues((2, 2), (0.5, 0.5))
        assert [(e["eigenvalue"], e["multiplicity"]) for e in got] == want

    def test_eigs_replication_lengths(self, paths, capsys):
        status, out, _ = run_cli(
            capsys,
            ["eigs", "--d", "2", "--m-max", "3", "--q", "0.5", "--format", "csv"],
        )
        assert status == 0
        from treegls import symmetric_tree_eigenvalues
        from treegls.simlab import ReplicationSpec

        want = symmetric_tree_eigenvalues(
            (2, 2, 2), ReplicationSpec(2, 0.5, 3).lengths()
        )
        lines = out.strip().splitlines()[1:]
        got = [(float(a), int(b)) for a, b in (line.split(",") for line in lines)]
        assert got == [(lam, mult) for lam, mult in want]


    def test_eigs_past_int64_products(self, capsys):
        status, out, _ = run_cli(capsys, ["eigs", "--d", "2", "--m-max", "70"])
        assert status == 0
        got = json.loads(out)
        assert all(math.isfinite(e["eigenvalue"]) for e in got)
        assert [e["multiplicity"] for e in got] == [2] + [2 ** i for i in range(1, 70)]


class TestParser:
    def test_parsed_handler_runs_the_command(self, paths):
        args = cli.parse_args(["ess", "--tree", paths["tree"], "--t-policy", "max"])
        out = io.StringIO()
        args.handler(args, out)
        want = ess_intercept(parse_newick(TREE), t_policy="max").to_dict()
        assert out.getvalue() == cli._json(want) + "\n"

    def test_parser_commands_are_the_commands(self):
        (sub,) = [
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert tuple(sub.choices) == cli.COMMANDS


class TestFormats:
    """CSV is the tabular commands' format; a command without a table
    refuses it rather than print JSON."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ess", "--tree", "{tree}"],
            ["fit", "--tree", "{tree}", "--traits", "{traits}"],
            ["shift", "--tree", "{tree}", "--traits", "{traits}", "--shift-node", "ab"],
            ["design", "--tree", "{tree}", "--method", "forward", "--size", "2"],
            ["design", "--tree", "{tree}", "--method", "backward", "--size", "2"],
            ["design", "--tree", "{tree}", "--method", "exhaustive", "--size", "2"],
            ["design", "--tree", "{tree}", "--method", "random", "--size", "2",
             "--reps", "5", "--seed", "1"],
        ],
    )
    def test_csv_refused_json_accepted(self, paths, capsys, argv):
        argv = [a.format(**paths) for a in argv]
        status, out, err = run_cli(capsys, argv + ["--format", "csv"])
        assert (status, out) == (1, "")
        assert json.loads(err)["error"]["code"] == "config"
        status, out, err = run_cli(capsys, argv + ["--format", "json"])
        assert (status, err) == (0, "")
        assert out == run_cli(capsys, argv)[1]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["phase", "--d", "2", "--q", "0.8", "--m-max", "10", "--format", "csv"],
            ["simulate", "--tree", "{tree}", "--seed", "11", "--reps", "3"],
            ["design", "--tree", "{tree}", "--method", "random", "--seed", "4",
             "--reps", "50", "--format", "csv"],
            ["ess", "--tree", "{tree}"],
        ],
    )
    def test_reruns_byte_identical(self, paths, capsys, argv):
        argv = [a.format(tree=paths["tree"]) for a in argv]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_thread_count_does_not_change_bytes(self, paths, capsys):
        base = ["design", "--tree", paths["tree"], "--method", "random",
                "--seed", "9", "--reps", "200", "--format", "csv"]
        _, out1, _ = run_cli(capsys, base + ["--threads", "1"])
        _, out8, _ = run_cli(capsys, base + ["--threads", "8"])
        assert out1 == out8

    def test_floats_use_17_significant_digits(self, paths, capsys):
        _, out, _ = run_cli(capsys, ["ess", "--tree", paths["tree"]])
        got = json.loads(out)
        # Parsed values must round-trip the library's doubles exactly.
        want = ess_intercept(parse_newick(TREE))
        assert got["scaled_ess"] == want.scaled_ess
        assert got["n_e"] == want.n_e


class TestErrors:
    def test_missing_file(self, capsys):
        status, out, err = run_cli(capsys, ["ess", "--tree", "/nonexistent.nwk"])
        assert status == 1
        assert out == ""
        report = json.loads(err)["error"]
        assert report["code"] == "config"

    def test_non_utf8_tree_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.nwk"
        bad.write_bytes(b"(A:1,B\xff:1);\n")
        status, out, err = run_cli(capsys, ["ess", "--tree", str(bad)])
        assert (status, out) == (1, "")
        report = json.loads(err)["error"]
        assert report["code"] == "config"
        assert report["message"].startswith("cannot read tree file: ")

    @pytest.mark.parametrize("fault", ["missing", "non-utf-8", "long field"])
    def test_unreadable_trait_file(self, paths, tmp_path, capsys, fault):
        traits = tmp_path / "bad.csv"
        if fault == "non-utf-8":
            traits.write_bytes(TRAITS.replace("1.2", "1\xff2").encode("latin-1"))
        elif fault == "long field":
            traits.write_text(TRAITS.replace("1.2", "1" * (csv.field_size_limit() + 1)))
        status, out, err = run_cli(
            capsys, ["fit", "--tree", paths["tree"], "--traits", str(traits)]
        )
        assert (status, out) == (1, "")
        report = json.loads(err)["error"]
        if fault == "long field":
            assert (report["code"], report["location"]) == ("trait-table", 2)
        else:
            assert report["code"] == "config"
            assert report["message"].startswith("cannot read trait file: ")

    def test_newick_error_carries_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.nwk"
        bad.write_text("(A:1,B:-2);")
        status, _, err = run_cli(capsys, ["ess", "--tree", str(bad)])
        assert status == 1
        report = json.loads(err)["error"]
        assert report["code"] == "newick-syntax"
        assert report["location"] is not None

    def test_trait_mismatch(self, paths, tmp_path, capsys):
        traits = tmp_path / "short.csv"
        traits.write_text("tip,mass\nA,1\nB,2\n")
        status, _, err = run_cli(
            capsys, ["fit", "--tree", paths["tree"], "--traits", str(traits)]
        )
        assert status == 1
        assert json.loads(err)["error"]["code"] == "trait-table"

    def test_non_finite_trait(self, paths, tmp_path, capsys):
        traits = tmp_path / "nan.csv"
        traits.write_text("tip,mass\nA,1\nB,nan\nC,3\nD,4\n")
        status, out, err = run_cli(
            capsys, ["fit", "--tree", paths["tree"], "--traits", str(traits)]
        )
        assert (status, out) == (1, "")
        assert json.loads(err)["error"] == {
            "code": "trait-table",
            "message": "non-finite value in row for tip 'B'",
            "location": 2,
        }

    def test_sb_shift_refused_like_the_dense_sb_covariance(self, tmp_path, capsys):
        text = cherry_beside_star_newick(5e-9)
        tree = tmp_path / "star.nwk"
        tree.write_text(text + "\n")
        labels = parse_newick(text).tip_labels
        Y = np.random.default_rng(0).normal(size=len(labels))
        traits = tmp_path / "star.csv"
        traits.write_text("tip,y\n" + "".join(f"{t},{y!r}\n" for t, y in zip(labels, Y.tolist())))
        status, out, err = run_cli(
            capsys,
            ["shift", "--tree", str(tree), "--traits", str(traits),
             "--shift-node", "ab", "--shift-mode", "SB"],
        )
        assert (status, out) == (1, "")
        report = json.loads(err)["error"]
        assert report["code"] == "singular-covariance"
        assert sorted(report) == ["code", "location", "message"]

    def test_truncated_deep_tree(self, tmp_path, capsys):
        text = caterpillar_newick(100_000)
        cut = len(text) // 2
        path = tmp_path / "cut.nwk"
        path.write_text(text[:cut])
        status, out, err = run_cli(capsys, ["ess", "--tree", str(path)])
        assert (status, out) == (1, "")
        report = json.loads(err)["error"]
        assert report["code"] == "newick-syntax"
        assert report["location"] == cut

    def test_seed_required_for_simulate(self, paths, capsys):
        status, _, err = run_cli(capsys, ["simulate", "--tree", paths["tree"]])
        assert status == 1
        assert "seed" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("command", [
        ["simulate"], ["design", "--size", "2", "--method", "random"],
    ])
    def test_negative_seed(self, paths, capsys, command):
        status, out, err = run_cli(
            capsys, command + ["--tree", paths["tree"], "--seed", "-1"]
        )
        assert (status, out) == (1, "")
        assert json.loads(err)["error"]["message"] == "seed must be >= 0"

    @pytest.mark.parametrize("argv", [
        ["phase", "--d", "2", "--q", "0.5", "--m-max", "x"],
        ["eigs", "--d", "-1,0"],
        ["ess", "--tree", "{tree}", "--t-policy", "bogus"],
        ["ess"],
        ["bogus"],
        ["eigs", "--d", "2", "--m-max", "1100"],
    ])
    def test_usage_and_range_errors_are_config_errors(self, paths, capsys, argv):
        argv = [a.format(tree=paths["tree"]) for a in argv]
        status, out, err = run_cli(capsys, argv)
        assert (status, out) == (1, "")
        report = json.loads(err)  # exactly one JSON value
        assert list(report) == ["error"]
        assert report["error"]["code"] == "config"

    @pytest.mark.parametrize("argv, m", [
        (["eigs", "--d", "2", "--m-max", "1100", "--q", "0.5"], 1100),
        (["phase", "--d", "2", "--q", "0.01", "--m-max", "200"], 163),
    ])
    def test_underflowing_replication_length(self, capsys, argv, m):
        status, out, err = run_cli(capsys, argv)
        assert (status, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["code"] == "config"
        assert "underflows" in error["message"] and f"m={m}" in error["message"]

    @pytest.mark.parametrize("raised, message", [
        (MemoryError("Unable to allocate 2.98 GiB"), "Unable to allocate 2.98 GiB"),
        (MemoryError(), "out of memory"),
    ])
    def test_out_of_memory_is_a_structured_error(
        self, paths, capsys, monkeypatch, raised, message
    ):
        def exhausted(*args, **kwargs):
            raise raised

        monkeypatch.setattr(cli, "ess_intercept", exhausted)
        status, out, err = run_cli(capsys, ["ess", "--tree", paths["tree"]])
        assert (status, out) == (1, "")
        assert json.loads(err) == {
            "error": {"code": "out-of-memory", "message": message, "location": None}
        }

    def test_seed_required_for_random_design(self, paths, capsys):
        status, _, err = run_cli(
            capsys,
            ["design", "--tree", paths["tree"], "--size", "2",
             "--method", "random"],
        )
        assert status == 1


class TestWeightOverflow:
    """Tips under stems whose t p overflows keep their weight in ``ess``."""

    @pytest.mark.parametrize("text,heights,n_e", [
        ("((A:1e-5):1.5e308,(B:1e-5):1e307);", ((1.5e308, 1e-5), (1e307, 1e-5)), None),
        ("((A:1e-5):1e307,B:1e307);", ((1e307, 1e-5), (1e307,)), 2.0),
    ])
    def test_ess_is_exact(self, capsys, tmp_path, text, heights, n_e):
        nwk = tmp_path / "tree.nwk"
        nwk.write_text(text + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run_cli(capsys, ["ess", "--tree", str(nwk)])
        assert (status, err) == (0, "")
        report = json.loads(out)
        h = [sum(map(Fraction, parts)) for parts in heights]
        scaled = sum(1 / x for x in h)
        assert abs(Fraction(report["scaled_ess"]) - scaled) <= Fraction(1, 10**14) * scaled
        exact_n_e = scaled * sum(h) / len(h)
        assert abs(Fraction(report["n_e"]) - exact_n_e) <= Fraction(1, 10**14) * exact_n_e
        if n_e is not None:
            assert report["n_e"] == n_e


OVERFLOW_TREES = ["((A:1,B:5e-324):1,C:1);", "((A:1,B:1):1,C:1);"]
OVERFLOW_TABLE = "tip,y\nA,1e300\nB,-1e300\nC,1e300\n"


class TestOverflowingForms:
    """Trait values whose quadratic forms pass the float range are refused
    with one config error on the sweep and the dense path, neither snapped
    to an exact fit nor reported as nan."""

    @pytest.fixture(params=OVERFLOW_TREES)
    def argv(self, request, tmp_path):
        nwk = tmp_path / "tree.nwk"
        nwk.write_text(request.param + "\n")
        table = tmp_path / "traits.csv"
        table.write_text(OVERFLOW_TABLE)
        return ["fit", "--tree", str(nwk), "--traits", str(table)]

    @pytest.mark.parametrize("model", [[], ["--model", "ou", "--alpha", "1"]])
    def test_refused(self, capsys, argv, model):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run_cli(capsys, argv + model)
        assert (status, out) == (1, "")
        assert json.loads(err) == {"error": {
            "code": "config",
            "message": "quadratic forms overflow the float range: "
                       "rescale the trait or covariate columns",
            "location": None,
        }}

    def test_fresh_interpreter(self, tmp_path, argv):
        done = run_python(["-W", "always", "-m", "treegls", *argv], tmp_path)
        assert (done.returncode, done.stdout) == (1, "")
        assert len(done.stderr.splitlines()) == 1
        assert json.loads(done.stderr)["error"]["code"] == "config"


class TestOuAlpha:
    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_alpha_refused(self, paths, alpha):
        done = run_python(
            ["-W", "always", "-m", "treegls", "fit", "--tree", paths["tree"],
             "--traits", paths["traits"], "--model", "ou", "--alpha", alpha],
            paths["dir"],
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert json.loads(done.stderr) == {"error": {
            "code": "tree",
            "message": f"OU alpha must be finite and positive, got {alpha}",
            "location": None,
        }}


# Heights summing past the float range under a finite total length.
HEIGHT_OVERFLOW_TREE = "((A:2e307,B:2e307,C:2e307,D:2e307,E:2e307)x:5e307,F:1e307,G:1e307);"
HEIGHT_OVERFLOW_TABLE = "tip,y\nA,1\nB,2\nC,3\nD,4\nE,5\nF,6\nG,7\n"


def scaled_mean(heights):
    heights = np.asarray(heights, dtype=float)
    return float((heights / heights.size).sum())


class TestHeightOverflow:
    """T is the mean tip height even where the plain mean overflows."""

    @pytest.fixture
    def files(self, tmp_path):
        tree = tmp_path / "tree.nwk"
        tree.write_text(HEIGHT_OVERFLOW_TREE + "\n")
        traits = tmp_path / "traits.csv"
        traits.write_text(HEIGHT_OVERFLOW_TABLE)
        return {"tree": str(tree), "traits": str(traits)}

    def run(self, capsys, argv):
        status, out, err = run_cli(capsys, argv)
        assert (status, err) == (0, "")
        return json.loads(out)

    def test_ess(self, capsys, files):
        got = self.run(capsys, ["ess", "--tree", files["tree"]])
        assert got["T"] == 5.2857142857142862e307
        assert got["n_e"] == got["T"] * got["scaled_ess"]

    def test_shift(self, capsys, files):
        got = self.run(capsys, ["shift", "--tree", files["tree"], "--traits",
                                files["traits"], "--shift-node", "x", "--shift-mode", "S"])
        tree = parse_newick(HEIGHT_OVERFLOW_TREE)
        pair = ess_lineage(tree, ShiftSpec("x", "S"))
        assert got["n_e_top"] == pair.top
        assert math.isfinite(pair.top)

    def test_score(self, capsys, files):
        got = self.run(capsys, ["score", "--tree", files["tree"], "--traits",
                                files["traits"], "--shift-node", "x"])
        assert [m["model"] for m in got] == ["M0", "M1(S)"]
        assert all(math.isfinite(m["bic_corrected"]) for m in got)

    @pytest.mark.parametrize("method", ["forward", "exhaustive"])
    def test_design(self, capsys, files, method):
        got = self.run(capsys, ["design", "--tree", files["tree"], "--method", method,
                                "--size", "6"])
        tree = parse_newick(HEIGHT_OVERFLOW_TREE)
        heights = tree.tip_heights[list(map(tree.tip_labels.index, got["selected"]))]
        assert got["n_e"] == scaled_mean(heights) * got["score"]

    def test_random_band(self, capsys, files):
        got = self.run(capsys, ["design", "--tree", files["tree"], "--method", "random",
                                "--size", "6", "--reps", "5", "--seed", "1"])
        values = [got[k] for k in ("q025", "median", "q975", "mean")]
        assert all(math.isfinite(v) for v in values)
        assert got["q025"] <= got["median"] <= got["q975"]

    @pytest.mark.parametrize("mode", ["S", "SB"])
    def test_top_height(self, tmp_path, capsys, mode):
        # From "x", the top tips' heights sum past the float range.
        text = "(((A:1e297,B:1e297)y:1.2e308,C:1e297)x:1e297,D:1e297,E:1e297);"
        tree_path = tmp_path / "top.nwk"
        tree_path.write_text(text + "\n")
        traits = tmp_path / "top.csv"
        traits.write_text("tip,y\nA,1\nB,2\nC,3\nD,4\nE,6\n")
        got = self.run(capsys, ["shift", "--tree", str(tree_path), "--traits",
                                str(traits), "--shift-node", "x", "--shift-mode", mode])
        tree = parse_newick(text)
        top = _heights_below(tree, tree.node_id("x"))
        assert got["shift"]["top_height"] == scaled_mean(top)


class TestDeepTrees:
    def test_ess_on_caterpillar_matches_dense(self, tmp_path, capsys):
        text = caterpillar_newick(2000)
        path = tmp_path / "deep.nwk"
        path.write_text(text + "\n")
        status, out, _ = run_cli(capsys, ["ess", "--tree", str(path)])
        assert status == 0
        want = dense_scaled_ess(parse_newick(text))
        assert json.loads(out)["scaled_ess"] == pytest.approx(want, rel=1e-9)


class TestShiftResolvedOnce:
    """The parse is the only tree a shift command, or a dense covariance,
    builds."""

    @pytest.fixture
    def builds(self, monkeypatch):
        builds = []
        original = tree_mod.PhyloTree.__init__

        def counted(self, *args):
            builds.append(self)
            original(self, *args)

        monkeypatch.setattr(tree_mod.PhyloTree, "__init__", counted)
        return builds

    @pytest.mark.parametrize("command", ["shift", "score"])
    def test_one_resolution(self, paths, capsys, builds, command):
        status, _, _ = run_cli(
            capsys,
            [command, "--tree", paths["tree"], "--traits", paths["traits"],
             "--shift-node", "ab", "--shift-mode", "SB"],
        )
        assert status == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("command", ["shift", "score"])
    def test_no_children_tuples(self, tmp_path, capsys, monkeypatch, builds, command):
        # The focal node's parent is not the root, so score reroots.
        tree = tmp_path / "deep.nwk"
        tree.write_text("(((A:0.5,B:0.5)ab:0.3,E:0.8)abe:0.2,(C:0.4,D:0.4)cd:0.6);\n")
        traits = tmp_path / "deep.csv"
        traits.write_text(TRAITS + "E,0.7,0.3\n")
        grouped = []
        original = tree_mod._group_children

        def counted(*args):
            grouped.append(args)
            return original(*args)

        monkeypatch.setattr(tree_mod, "_group_children", counted)
        status, out, _ = run_cli(
            capsys,
            [command, "--tree", str(tree), "--traits", str(traits),
             "--shift-node", "ab", "--shift-mode", "SB"],
        )
        assert status == 0, out
        assert grouped == []
        assert len(builds) == (2 if command == "score" else 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ess"],
            ["fit", "--traits", "{traits}", "--model", "ou", "--alpha", "0.5"],
            ["shift", "--traits", "{traits}", "--shift-node", "ab", "--shift-mode", "SB"],
        ],
    )
    def test_dense_covariance_from_the_parsed_tree(self, paths, capsys, monkeypatch,
                                                   builds, argv):
        grouped = []
        original = tree_mod._group_children

        def counted(*args):
            grouped.append(args)
            return original(*args)

        monkeypatch.setattr(tree_mod, "_group_children", counted)
        dump = paths["dir"] / "V.csv"
        argv = [a.format(**paths) for a in argv]
        status, out, _ = run_cli(
            capsys, argv + ["--tree", paths["tree"], "--dump-cov", str(dump)]
        )
        assert status == 0, out
        assert len(dump.read_text().splitlines()) == 4
        assert grouped == []
        assert len(builds) == 1


TABLE_FAULTS = (
    None, "missing row", "extra row", "duplicate row", "non-numeric", "nan",
    "inf", "short row", "bad header", "empty", "constant covariate",
)


def trait_table(labels, values, fault):
    """CSV text of a trait table, spoiled by ``fault``."""
    header = "tip," + ",".join(f"c{j}" for j in range(values.shape[1]))
    rows = [f"{lab}," + ",".join(map(repr, row)) for lab, row in zip(labels, values.tolist())]
    if fault == "missing row":
        rows.pop()
    elif fault == "extra row":
        rows.append(rows[0].replace(labels[0], "stranger", 1))
    elif fault == "duplicate row":
        rows.append(rows[-1])
    elif fault in ("non-numeric", "nan", "inf"):
        rows[-1] = rows[-1].rsplit(",", 1)[0] + "," + {"non-numeric": "x"}.get(fault, fault)
    elif fault == "short row":
        rows[0] = labels[0]
    elif fault == "bad header":
        header = "name" + header[3:]
    elif fault == "empty":
        return ""
    elif fault == "constant covariate":
        rows = [row + ",1.0" for row in rows]
        header += ",const"
    return "\n".join([header] + rows) + "\n"


def level_counts(draw, largest):
    """A ``--d`` value: counts from -1 to ``largest``, one or a comma list,
    or malformed text."""
    counts = st.integers(-1, largest).map(str)
    return draw(
        counts
        | st.lists(counts, min_size=1, max_size=4).map(",".join)
        | st.sampled_from(["x", "", "2,x", "2,", "1.5"])
    )


def table_commands(draw, command):
    """A design, simulate, phase or eigs command line; sizes stay small
    (at most 12 levels and 50 replicates; exhaustive searches fit the
    budget) and any number may be out of range.  A ``--d`` value such as
    ``-1,0`` is read as an option, which is a usage error."""
    argv = [command]
    if command in ("design", "simulate"):
        argv += ["--tree", "{tree}"]
        if draw(st.integers(0, 3)):
            argv += ["--seed", str(draw(st.integers(-3, 2 ** 16)))]
        argv += ["--reps", str(draw(st.integers(-1, 50)))]
    if command == "design":
        methods = ["forward", "backward", "exhaustive", "random"]
        argv += ["--method", draw(st.sampled_from(methods))]
        if draw(st.integers(0, 3)):
            argv += ["--size", str(draw(st.integers(-1, 10)))]
    if command == "phase":
        # A phase curve builds trees of up to d^m tips: d <= 2 keeps them small.
        argv += ["--d", level_counts(draw, 2)]
        argv += ["--q", draw(st.sampled_from(["0.3", "0.5", "0.9", "0", "1", "nan"]))]
        argv += ["--m-max", str(draw(st.integers(-1, 12)))]
    if command == "eigs":
        argv += ["--d", level_counts(draw, 5)]
        if draw(st.booleans()):
            argv += ["--q", draw(st.sampled_from(["0.5", "2", "-1"]))]
        if draw(st.booleans()):
            argv += ["--m-max", str(draw(st.integers(-1, 12)))]
    if command != "simulate" or draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return argv


@st.composite
def invocations(draw):
    """A tree, a trait table (possibly malformed) and a command line over
    them: any command, with any node as the shift node."""
    tree = draw(trees((0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)))
    labels = tree.tip_labels
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    values = rng.normal(size=(tree.n_tips, draw(st.integers(1, 3))))
    fault = draw(st.just(None) | st.sampled_from(TABLE_FAULTS))
    table = trait_table(labels, values, fault)
    node = draw(
        st.integers(-1, tree.n_nodes).map(str)
        | st.lists(st.sampled_from(labels), min_size=1, unique=True).map(",".join)
        | st.just("nowhere")
    )
    command = draw(st.sampled_from(cli.COMMANDS))
    if command not in ("ess", "fit", "shift", "score"):
        return write_newick(tree), table, table_commands(draw, command)
    argv = [command, "--tree", "{tree}"]
    if command == "ess":
        argv += ["--t-policy", draw(st.sampled_from(["mean", "max"]))]
    else:
        argv += ["--traits", "{traits}"]
    if command == "fit" and draw(st.booleans()):
        argv += ["--model", "ou", "--alpha", draw(st.sampled_from(["-1", "0.5", "3"]))]
    if command == "shift" or (command == "score" and draw(st.booleans())):
        argv += ["--shift-node", node, "--shift-mode", draw(st.sampled_from(["S", "SB"]))]
    if command in ("shift", "score"):
        argv += ["--t-policy", draw(st.sampled_from(["mean", "max"]))]
    if command == "score":
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return write_newick(tree), table, argv


class TestStructuredErrorsProperty:
    # Eight commands share the examples; 100 would leave some barely drawn.
    @settings(max_examples=500)
    @given(invocations())
    def test_exit_zero_or_one_structured_error(self, invocation):
        newick, table, argv = invocation
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            files = {"tree": Path(tmp) / "t.nwk", "traits": Path(tmp) / "t.csv"}
            files["tree"].write_text(newick + "\n")
            files["traits"].write_text(table)
            argv = [a.format(**files) for a in argv]
            # An exception escaping main() is a traceback and fails the test.
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
        if status == 0:
            assert out.getvalue() and not err.getvalue()
            return
        assert status == 1 and not out.getvalue()
        report = json.loads(err.getvalue())  # exactly one JSON value
        assert list(report) == ["error"]
        assert sorted(report["error"]) == ["code", "location", "message"]


class TestFileDiscipline:
    def test_no_writes_without_explicit_path(self, paths, capsys, monkeypatch):
        workdir = paths["dir"] / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        run_cli(capsys, ["ess", "--tree", paths["tree"]])
        run_cli(capsys, ["fit", "--tree", paths["tree"],
                         "--traits", paths["traits"]])
        run_cli(capsys, ["phase", "--d", "2", "--q", "0.5", "--m-max", "5"])
        assert list(workdir.iterdir()) == []

    def test_dump_cov_writes_requested_file(self, paths, capsys):
        target = paths["dir"] / "cov.csv"
        status, _, _ = run_cli(
            capsys,
            ["ess", "--tree", paths["tree"], "--dump-cov", str(target)],
        )
        assert status == 0
        rows = [line.split(",") for line in target.read_text().strip().splitlines()]
        V = np.array([[float(v) for v in row] for row in rows])
        from treegls import bm_covariance

        assert np.array_equal(V, bm_covariance(parse_newick(TREE)))


CONTRACT_TREES = {
    "normal": "((A:0.5,B:0.5)ab:0.5,C:1.0);",
    "ratio cherry": "((A:1e-08,B:1e-08):100000000.0,C:100000000.0);",
    "overflow cherry": "(A:1e308,B:1e308);",
    "overflow stem": "((A:1e308,B:1e308):1e308,C:1e308);",
}
CONTRACT_TRAITS = {"normal": "tip,y\nA,1\nB,2\nC,4\n", "nan": "tip,y\nA,1\nB,nan\nC,4\n"}
CONTRACT_CASES = [
    (command, tree, traits)
    for tree in CONTRACT_TREES
    for command in ("ess", "fit", "score")
    for traits in (("normal", "nan") if tree == "normal" and command != "ess" else ("normal",))
]


class TestModuleEntryPoint:
    """``python -m treegls`` in a fresh interpreter: stderr stays empty on
    success and holds exactly one error object on failure, with warnings
    switched on."""

    @pytest.mark.parametrize("command,tree,traits", CONTRACT_CASES)
    def test_stderr_contract(self, tmp_path, command, tree, traits):
        nwk = tmp_path / "tree.nwk"
        nwk.write_text(CONTRACT_TREES[tree] + "\n")
        argv = [command, "--tree", str(nwk)]
        if command != "ess":
            csv = tmp_path / "traits.csv"
            csv.write_text(CONTRACT_TRAITS[traits])
            argv += ["--traits", str(csv)]
        src = str(Path(treegls.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONWARNINGS="always")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "treegls", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        succeeds = tree in ("normal",) and traits == "normal"
        if succeeds:
            assert (done.returncode, done.stderr) == (0, "")
            json.loads(done.stdout)
            return
        assert (done.returncode, done.stdout) == (1, "")
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        report = json.loads(lines[0])
        assert list(report) == ["error"]
        assert sorted(report["error"]) == ["code", "location", "message"]
        if tree.startswith("overflow"):
            assert report["error"]["code"] == "newick-syntax"
            assert report["error"]["message"] == "total branch length overflows the float range"


def run_python(args, cwd):
    """A fresh interpreter with this package on its path."""
    src = str(Path(treegls.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd,
        timeout=120,
    )


class TestImportCost:
    """scipy.linalg is loaded only by the commands that take a dense factor."""

    def test_package_import_loads_no_scipy(self, tmp_path):
        done = run_python(
            ["-c", "import treegls, sys; print('scipy' in sys.modules)"], tmp_path
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_ess_command_loads_no_scipy(self, tmp_path):
        nwk = tmp_path / "tree.nwk"
        nwk.write_text(TREE + "\n")
        # -X importtime names every module the run imports, on stderr.
        done = run_python(["-X", "importtime", "-m", "treegls", "ess", "--tree", str(nwk)],
                          tmp_path)
        assert done.returncode == 0
        assert json.loads(done.stdout)["n"] == 4
        imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
        assert "treegls.ess" in imported
        assert not [m for m in imported if m.split(".")[0] == "scipy"]
