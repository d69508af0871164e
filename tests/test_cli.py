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
from hypothesis import example, given, settings, strategies as st

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
from treegls import simlab
from treegls import tree as tree_mod
from treegls import write_newick
from treegls.covariance import quadratic_forms_dense
from treegls.design import exhaustive_design, random_design_bands
from treegls.gls import _fit_from_forms
from treegls.simlab import simulate_bm
from treegls.tree import _heights_below

from conftest import (
    caterpillar_newick,
    cherry_beside_star_newick,
    dense_scaled_ess,
    phase_curve_reference,
    trees,
)

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

    def test_phase_json_matches_library(self, capsys):
        # d^m passes the pruning limit at m = 17, where var_pruning is null.
        status, out, _ = run_cli(capsys, ["phase", "--d", "2", "--q", "0.8", "--m-max", "17"])
        from treegls import phase_transition_curve

        want = [
            {"m": p.m, "n": p.n, "var_closed": p.var_closed, "var_pruning": p.var_pruning}
            for p in phase_transition_curve(2, 0.8, 17)
        ]
        assert (status, out) == (0, cli._json(want) + "\n")
        assert out.endswith('"var_pruning":null}]\n')

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


ONE_CALL_PER_COMMAND = [
    ["ess", "--tree", "{tree}"],
    ["fit", "--tree", "{tree}", "--traits", "{traits}"],
    ["shift", "--tree", "{tree}", "--traits", "{traits}", "--shift-node", "ab"],
    ["design", "--tree", "{tree}", "--size", "2"],
    ["score", "--tree", "{tree}", "--traits", "{traits}"],
    ["simulate", "--tree", "{tree}", "--seed", "1"],
    ["phase", "--d", "2", "--q", "0.5", "--m-max", "3"],
    ["eigs", "--d", "2", "--m-max", "3"],
]

ALTERNATING = [
    ["design", "--tree", "{tree}", "--method", "random", "--seed", "3", "--reps", "7",
     "--format", "csv"],
    ["simulate", "--tree", "{tree}", "--seed", "2", "--reps", "2", "--format", "csv"],
    ["design", "--tree", "{tree}", "--method", "random", "--seed", "3", "--size", "2"],
    ["simulate", "--tree", "{tree}", "--seed", "2"],
    ["fit", "--tree", "{tree}", "--traits", "{traits}", "--model", "ou", "--alpha", "2",
     "--stationary", "--threads", "8"],
    ["fit", "--tree", "{tree}", "--traits", "{traits}"],
    ["fit", "--tree", "{tree}", "--traits", "{traits}", "--model", "ou"],
    ["score", "--tree", "{tree}", "--traits", "{traits}", "--shift-node", "ab",
     "--shift-mode", "SB", "--t-policy", "max", "--format", "csv"],
    ["score", "--tree", "{tree}", "--traits", "{traits}"],
    ["shift", "--tree", "{tree}", "--traits", "{traits}", "--shift-node", "cd"],
    ["ess", "--tree", "{tree}", "--t-policy", "max"],
    ["ess", "--tree", "{tree}"],
    ["design", "--tree", "{tree}", "--method", "exhaustive", "--size", "3"],
    ["design", "--tree", "{tree}"],
    ["design", "--tree", "{tree}", "--size", "3"],
    ["eigs", "--d", "2", "--m-max", "3", "--q", "0.5", "--format", "csv"],
    ["eigs", "--d", "2,3"],
    ["eigs", "--d", "2"],
    ["phase", "--d", "2", "--q", "0.5", "--m-max", "4", "--format", "csv"],
    ["phase", "--d", "2", "--q", "0.5", "--m-max", "4"],
    ["bogus"],
    ["ess", "--tree", "{tree}", "--format", "csv"],
    ["simulate", "--tree", "{tree}", "--seed", "-1"],
]


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

    def test_one_parser_per_process(self, paths, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for argv in ONE_CALL_PER_COMMAND:
            status, _, err = run_cli(capsys, [a.format(**paths) for a in argv])
            assert (status, err) == (0, "")
        assert {argv[0] for argv in ONE_CALL_PER_COMMAND} == set(cli.COMMANDS)
        assert len(built) == 1

    def test_reused_parser_answers_as_a_fresh_one(self, paths, capsys, monkeypatch):
        # Alternating commands, each flag's default after a call that set
        # it, and usage and rule errors between them.
        def answers():
            return [run_cli(capsys, [a.format(**paths) for a in argv]) for argv in ALTERNATING]

        reused = answers()
        monkeypatch.setattr(cli, "parse_args", lambda argv: cli.build_parser().parse_args(argv))
        assert reused == answers()
        assert {status for status, _, _ in reused} == {0, 1}

    def test_globals_patched_after_the_first_call_are_used(self, paths, capsys, monkeypatch):
        run_cli(capsys, ["ess", "--tree", paths["tree"]])
        parser = cli._parser

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "ess_intercept", exhausted)
        status, out, err = run_cli(capsys, ["ess", "--tree", paths["tree"]])
        assert cli._parser is parser
        assert (status, out) == (1, "")
        assert json.loads(err)["error"]["code"] == "out-of-memory"


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

    @pytest.mark.parametrize("argv", [
        ["ess"],
        ["ess", "--t-policy", "max"],
        ["fit", "--traits", "{traits}"],
        ["fit", "--traits", "{traits}", "--model", "ou", "--alpha", "1"],
        ["score", "--traits", "{traits}"],
        ["score", "--traits", "{traits}", "--shift-node", "A"],
        ["shift", "--traits", "{traits}", "--shift-node", "A"],
        ["design", "--size", "1"],
        ["design", "--method", "backward", "--size", "1"],
        ["design", "--method", "exhaustive", "--size", "1"],
        ["design", "--method", "random", "--size", "1", "--seed", "1", "--reps", "3"],
        ["design", "--method", "random", "--seed", "1", "--reps", "3", "--format", "csv"],
        ["simulate", "--seed", "1"],
    ], ids=" ".join)
    def test_one_tip_tree(self, tmp_path, capsys, argv):
        # A lone tip is its own root: its covariance is the 1x1 zero, which
        # every sweep refuses; simulation draws its root state, 0.
        (tmp_path / "t.nwk").write_text("A;\n")
        (tmp_path / "t.csv").write_text("tip,y\nA,1.0\n")
        files = {"tree": tmp_path / "t.nwk", "traits": tmp_path / "t.csv"}
        argv = [argv[0], "--tree", "{tree}"] + argv[1:]
        status, out, err = run_cli(capsys, [a.format(**files) for a in argv])
        if argv[0] == "simulate":
            assert (status, err) == (0, "") and json.loads(out)["values"] == [[0]]
            return
        assert (status, out) == (1, "")
        report = json.loads(err)["error"]
        want = "tree" if argv[0] == "shift" else "singular-covariance"
        assert report["code"] == want

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

    def test_error_location_counts_leading_blanks(self, tmp_path, capsys):
        path = tmp_path / "blank.nwk"
        path.write_text("\n\n  (A:1,B);\n")
        with pytest.raises(treegls.NewickError) as exc:
            parse_newick(path.read_text())
        assert exc.value.location == 10
        status, out, err = run_cli(capsys, ["ess", "--tree", str(path)])
        assert (status, out) == (1, "")
        report = json.loads(err)["error"]
        assert report["code"] == "newick-syntax"
        assert (report["message"], report["location"]) == (str(exc.value), 10)

    def test_seed_required_for_simulate(self, paths, capsys):
        status, _, err = run_cli(capsys, ["simulate", "--tree", paths["tree"]])
        assert status == 1
        assert "seed" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("command", [
        ["simulate"], ["design", "--size", "2", "--method", "random"],
        ["design", "--method", "random", "--format", "csv"],
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
        ["eigs", "--d", "2", "--m-max", "-1"],
        ["eigs", "--d", "2", "--m-max", "0"],
        ["eigs", "--d", "1", "--m-max", "3"],
        ["eigs", "--d", "2,1"],
        ["design", "--tree", "{tree}", "--size", "0"],
        ["design", "--tree", "{tree}", "--method", "random", "--size", "-1", "--seed", "1"],
    ])
    def test_usage_and_range_errors_are_config_errors(self, paths, capsys, argv):
        argv = [a.format(tree=paths["tree"]) for a in argv]
        status, out, err = run_cli(capsys, argv)
        assert (status, out) == (1, "")
        report = json.loads(err)  # exactly one JSON value
        assert list(report) == ["error"]
        assert report["error"]["code"] == "config"

    @pytest.mark.parametrize("method", ["forward", "backward", "exhaustive", "random"])
    def test_size_above_the_tip_count_is_a_tree_error(self, paths, capsys, method):
        argv = ["design", "--tree", paths["tree"], "--method", method, "--size", "5"]
        status, out, err = run_cli(capsys, argv + ["--seed", "1"] * (method == "random"))
        assert (status, out) == (1, "")
        assert json.loads(err)["error"] == {
            "code": "tree", "message": "k must be in 1..4, got 5", "location": None
        }

    @pytest.mark.parametrize("levels, message", [
        ([], "--m-max is required when --d is a single count"),
        (["--m-max", "-1"], "--m-max must be at least 1, got -1"),
        (["--m-max", "0"], "--m-max must be at least 1, got 0"),
    ])
    def test_level_count_for_a_single_d(self, capsys, levels, message):
        status, out, err = run_cli(capsys, ["eigs", "--d", "2"] + levels)
        assert (status, out) == (1, "")
        assert json.loads(err)["error"] == {
            "code": "config", "message": message, "location": None
        }

    @pytest.mark.parametrize("flags, flag", [
        (["--model", "bm", "--alpha", "3"], "--alpha"),
        (["--alpha", "3"], "--alpha"),
        (["--stationary"], "--stationary"),
        (["--model", "bm", "--alpha", "3", "--stationary"], "--alpha"),
    ])
    def test_ou_flags_need_the_ou_model(self, paths, capsys, flags, flag):
        status, out, err = run_cli(
            capsys, ["fit", "--tree", paths["tree"], "--traits", paths["traits"]] + flags
        )
        assert (status, out) == (1, "")
        assert json.loads(err)["error"] == {
            "code": "config", "message": f"{flag} requires --model ou", "location": None
        }

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

    # q near 1 makes the lowest levels' contrasts too close to sweep; 1e-300
    # underflows at m = 3; 1 - 1e-12 sweeps.
    @pytest.mark.parametrize("q, code", [
        ("0.9999999999999", "singular-covariance"),
        ("0.99999999999995", "singular-covariance"),
        ("1e-300", "config"),
        ("0.999999999999", None),
    ])
    @pytest.mark.parametrize("m_max", ["3", "12"])
    def test_phase_refuses_where_every_member_swept_refuses(
        self, capsys, monkeypatch, q, code, m_max
    ):
        argv = ["phase", "--d", "2", "--q", q, "--m-max", m_max]
        status, out, err = run_cli(capsys, argv)
        monkeypatch.setattr(simlab, "phase_transition_curve", phase_curve_reference)
        want_status, want_out, want_err = run_cli(capsys, argv)
        assert status == want_status == (0 if code is None else 1)
        if code is None:
            return
        assert out == want_out == ""
        assert json.loads(err)["error"]["code"] == json.loads(want_err)["error"]["code"] == code

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

    @pytest.mark.parametrize("command", [
        ["ess"],
        ["fit", "--traits", "{traits}"],
        ["shift", "--traits", "{traits}", "--shift-node", "ab"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_covariance_file(self, paths, capsys, command, target):
        dump = paths["dir"] if target == "directory" else paths["dir"] / "missing" / "cov.csv"
        argv = [command[0], "--tree", paths["tree"]] + command[1:] + ["--dump-cov", str(dump)]
        status, out, err = run_cli(capsys, [a.format(**paths) for a in argv])
        assert (status, out) == (1, "")
        report = json.loads(err)["error"]
        assert report["code"] == "config"
        assert report["message"].startswith("cannot write covariance file: ")

    def test_closed_output_is_a_structured_error(self, paths):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        status = cli.run(cli.parse_args(["ess", "--tree", paths["tree"]]), ClosedPipe(), err)
        assert status == 1
        assert json.loads(err.getvalue()) == {"error": {
            "code": "config",
            "message": "cannot write output: [Errno 32] Broken pipe",
            "location": None,
        }}

    def test_reader_closing_early_gets_no_traceback(self, tmp_path):
        # About 180 kB of CSV: more than a pipe holds, so the writes after
        # the reader has gone fail.
        argv = ["phase", "--d", "2", "--q", "0.8", "--m-max", "1000", "--format", "csv"]
        with popen_python(["-m", "treegls", *argv], tmp_path) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            status = proc.wait(timeout=120)
        assert first == "n,var_closed,var_pruning\n"
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        assert status == 1
        assert json.loads(stderr)["error"]["message"].startswith("cannot write output: ")

    def test_seed_required_for_random_design(self, paths, capsys):
        status, _, err = run_cli(
            capsys,
            ["design", "--tree", paths["tree"], "--size", "2",
             "--method", "random"],
        )
        assert status == 1


class TestFlagsBeforeFiles:
    """A flag error is reported before any file is read, so a missing tree
    file does not hide it."""

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--traits", "x.csv", "--model", "ou"], "--model ou requires --alpha"),
        (["fit", "--traits", "x.csv", "--alpha", "3"], "--alpha requires --model ou"),
        (["fit", "--traits", "x.csv", "--stationary"], "--stationary requires --model ou"),
        (["simulate"], "--seed is required for simulation"),
        (["simulate", "--seed", "1", "--reps", "0"], "reps must be >= 1"),
        (["design", "--method", "random", "--size", "2"],
         "--seed is required for random subsampling"),
        (["design", "--method", "random", "--format", "csv"],
         "--seed is required for random subsampling"),
        (["design", "--method", "random", "--seed", "1"],
         "--size is required for a single random band"),
        (["design", "--method", "forward"], "--size is required"),
        (["design", "--method", "exhaustive"], "--size is required"),
        (["design", "--method", "random", "--size", "2", "--seed", "1", "--reps", "0"],
         "reps must be >= 1"),
        (["design", "--method", "random", "--format", "csv", "--seed", "1", "--reps", "0"],
         "reps must be >= 1"),
        (["simulate", "--seed", "-1"], "seed must be >= 0"),
        (["design", "--method", "random", "--size", "2", "--seed", "-1"], "seed must be >= 0"),
        (["design", "--method", "random", "--format", "csv", "--seed", "-1"],
         "seed must be >= 0"),
        (["design", "--method", "forward", "--size", "0"], "--size must be at least 1, got 0"),
        (["design", "--method", "exhaustive", "--size", "-1"],
         "--size must be at least 1, got -1"),
        (["design", "--method", "random", "--size", "0", "--seed", "1"],
         "--size must be at least 1, got 0"),
    ])
    def test_flag_error_with_a_missing_tree_file(self, capsys, argv, message):
        missing = "/nonexistent/tree.nwk"
        status, out, err = run_cli(capsys, argv + ["--tree", missing])
        assert (status, out) == (1, "")
        assert json.loads(err)["error"] == {
            "code": "config", "message": message, "location": None
        }

    def test_simulate_reps_checked_like_the_library(self, paths, capsys):
        status, out, err = run_cli(
            capsys, ["simulate", "--tree", paths["tree"], "--seed", "1", "--reps", "-3"]
        )
        assert (status, out) == (1, "")
        with pytest.raises(treegls.ConfigError) as exc:
            simulate_bm(parse_newick(TREE), 0.0, 1.0, 1, reps=-3)
        assert json.loads(err)["error"]["message"] == str(exc.value)


def json_reference(obj):
    """``cli._json`` by recursion on every item, with no flat float path."""
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(json_reference(v) for v in obj) + "]"
    if isinstance(obj, dict):
        inner = ",".join(f"{json_reference(str(k))}:{json_reference(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, np.ndarray):
        return json_reference(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return cli.fmt_float(obj)
    return cli._json(obj)


class TestFlatFloatLists:
    SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
                1e16, 1e-5, 1e-4, 0.1, 1.0, -1e300, 123456789.125, 2.0**70]

    @pytest.mark.parametrize("obj", [
        SPECIALS,
        [math.nan],
        [-math.inf, math.inf],
        [],
        [[]],
        [SPECIALS, [], [1.5, [2.5, math.nan]]],
        {"values": [SPECIALS[::-1], [0.5]], "empty": []},
        [1.0, 2],
        [1.0, True, False],
        [np.float64(0.1), 0.1],
        [np.float64(math.nan), math.inf],
        [1.0, None, "nan"],
        (1.0, math.nan),
        np.array([[0.1, math.nan], [-0.0, 1e16]]),
    ])
    def test_same_bytes_as_the_recursion(self, obj):
        assert cli._json(obj) == json_reference(obj)

    @pytest.mark.parametrize("labels", [
        ["A"],
        ["t0", "t1", "t2"],
        ['say "hi"', "back\\slash", "both \\\"", '"', "\\", "", "plain"],
        ["", ""],
        ['a","b', "c"],
    ])
    def test_string_lists_as_one_item_at_a_time(self, labels):
        assert cli._json(labels) == json_reference(labels)
        assert json.loads(cli._json(labels)) == labels
        assert cli._json({"tips": labels}) == json_reference({"tips": labels})

    def test_random_floats(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2**64, size=5000, dtype=np.uint64)
        xs = bits.view(np.float64).tolist() + rng.normal(size=5000).tolist()
        assert cli._json(xs) == json_reference(xs)
        assert json.loads(cli._json(xs[5000:])) == xs[5000:]


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

    @pytest.mark.parametrize("alpha", ["1e-320", "5e-324"])
    def test_alpha_too_small_is_named(self, paths, capsys, alpha):
        """V scales as 2 alpha, so its forms pass the float range: the
        refusal names alpha, not the trait columns."""
        status, out, err = run_cli(
            capsys,
            ["fit", "--tree", paths["tree"], "--traits", paths["traits"],
             "--model", "ou", "--alpha", alpha],
        )
        assert (status, out) == (1, "")
        assert json.loads(err) == {"error": {
            "code": "config",
            "message": f"OU alpha {alpha} is too small: the quadratic forms scale "
                       "as 1 / (2 alpha) and overflow the float range",
            "location": None,
        }}

    @pytest.mark.parametrize("alpha", ["1e-300", "1e-320", "5e-324"])
    def test_tiny_alpha_stationary_is_singular(self, paths, capsys, alpha):
        # V tends to 11'.
        status, out, err = run_cli(
            capsys,
            ["fit", "--tree", paths["tree"], "--traits", paths["traits"],
             "--model", "ou", "--alpha", alpha, "--stationary"],
        )
        assert (status, out) == (1, "")
        assert json.loads(err)["error"]["code"] == "singular-covariance"

    def test_tiny_alpha_fits(self, paths, capsys):
        status, out, _ = run_cli(
            capsys,
            ["fit", "--tree", paths["tree"], "--traits", paths["traits"],
             "--model", "ou", "--alpha", "1e-300"],
        )
        assert status == 0
        # V = 2 alpha V_BM to the last digits, so beta is the Brownian one.
        tree = parse_newick(TREE)
        traits = load_traits(paths["traits"], tree)
        bm = gls_fit(tree, traits.design(), traits.Y)
        assert json.loads(out)["beta"] == pytest.approx(list(bm.beta), rel=1e-12)

    @pytest.mark.parametrize("alpha", ["5e307", "1e308", "1.7e308"])
    @pytest.mark.parametrize("stationary", [False, True])
    def test_alpha_near_the_float_maximum(self, paths, alpha, stationary):
        """Every exponent that overflows is taken at its limit: V = I, with
        no warning."""
        text = "((A:1,B:1):1,(C:0.5,D:1.5):1);"
        (paths["dir"] / "wide.nwk").write_text(text + "\n")
        done = run_python(
            ["-W", "always", "-m", "treegls", "fit", "--tree", "wide.nwk",
             "--traits", paths["traits"], "--model", "ou", "--alpha", alpha]
            + ["--stationary"] * stationary,
            paths["dir"],
        )
        assert (done.returncode, done.stderr) == (0, "")
        tree = parse_newick(text)
        traits = load_traits(paths["traits"], tree)
        forms = quadratic_forms_dense(np.eye(tree.n_tips), traits.design(), traits.Y)
        result = _fit_from_forms(forms).to_dict()
        result["response"] = traits.y_name
        result["covariates"] = list(traits.x_names)
        assert done.stdout == cli._json(result) + "\n"


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


class TestNegativeZeroEdge:
    """A -0 length reads as 0.  The parser keeps the sign, but a tree with a
    -0 tip edge prints the bytes that the same tree with 0 prints, on every
    command that sweeps or merges it."""

    @pytest.mark.parametrize("args", [
        ["ess"],
        ["ess", "--t-policy", "max"],
        ["fit", "--traits"],
        ["fit", "--model", "ou", "--alpha", "0.5", "--traits"],
        ["fit", "--model", "ou", "--alpha", "0.5", "--stationary", "--traits"],
        ["score", "--traits"],
        ["score", "--shift-node", "cd", "--traits"],
        ["score", "--shift-node", "cd", "--shift-mode", "SB", "--traits"],
        ["design", "--method", "forward", "--size", "2"],
        ["design", "--method", "forward", "--size", "4"],
        ["design", "--method", "backward", "--size", "1"],
        ["design", "--method", "exhaustive", "--size", "2"],
        ["design", "--method", "random", "--reps", "20", "--seed", "3", "--format", "csv"],
    ], ids=" ".join)
    def test_same_bytes_as_zero(self, tmp_path, capsys, args):
        tree, traits = tmp_path / "tree.nwk", tmp_path / "traits.csv"
        traits.write_text(TRAITS)
        argv = [args[0], "--tree", str(tree), *args[1:]]
        if argv[-1] == "--traits":
            argv.append(str(traits))
        outs = []
        for length in ("-0", "0"):
            tree.write_text(f"((A:{length},B:1)ab:1,(C:1,D:2)cd:1);\n")
            outs.append(run_cli(capsys, argv))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and "nan" not in outs[0][1]

    @pytest.mark.parametrize("args", [
        ["shift", "--shift-node", "cd", "--traits"],
        ["shift", "--shift-node", "cd", "--shift-mode", "SB", "--traits"],
        ["score", "--shift-node", "cd", "--traits"],
        ["score", "--shift-node", "cd", "--shift-mode", "SB", "--traits"],
    ], ids=" ".join)
    def test_focal_edge_same_bytes_as_zero(self, tmp_path, capsys, args):
        # The focal edge itself is -0: its subtending length reads 0.
        tree, traits = tmp_path / "tree.nwk", tmp_path / "traits.csv"
        traits.write_text(TRAITS)
        argv = [args[0], "--tree", str(tree), *args[1:], str(traits)]
        outs = []
        for length in ("-0", "0"):
            tree.write_text(f"((A:1,B:1)ab:1,(C:1,D:2)cd:{length});\n")
            outs.append(run_cli(capsys, argv))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and '"subtending_length":-0' not in outs[0][1]


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
        assert len(builds) == 1

    @pytest.mark.parametrize("text", [
        "(((A:0.5,B:0.5)ab:0.3,E:0.8)abe:0.2,(C:0.4,D:0.4)cd:0.6);",
        "((((A:0.5,B:0.5)ab:0.3,E:0.8)abe:0.2,(C:0.4,D:0.4)cd:0.6)m:0.5):0.25;",
    ], ids=["deep base", "unary stem"])
    @pytest.mark.parametrize("mode", ["S", "SB"])
    def test_score_neither_reroots_nor_extracts(self, tmp_path, capsys, monkeypatch, builds,
                                                text, mode):
        # The focal node's parent is not the root: score reads the shift
        # model rerooted there off the sweep of the parsed tree.
        tree = tmp_path / "tree.nwk"
        tree.write_text(text + "\n")
        traits = tmp_path / "traits.csv"
        traits.write_text(TRAITS + "E,0.7,0.3\n")
        calls = []
        for module in (tree_mod, treegls.modelsel, treegls.ess, treegls.gls, treegls.cli):
            for name in ("reroot", "extract_subtree"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        status, out, err = run_cli(
            capsys,
            ["score", "--tree", str(tree), "--traits", str(traits),
             "--shift-node", "ab", "--shift-mode", mode],
        )
        assert (status, err) == (0, "")
        assert [m["model"] for m in json.loads(out)] == ["M0", f"M1({mode})"]
        assert (len(builds), calls) == (1, [])

    @pytest.mark.parametrize("node, message", [
        ("A", "focal node of a shift must be internal, not a tip"),
        ("r", "focal node of a shift must not be the root"),
        ("v", "shift indicator is collinear with the intercept "
              "(focal subtree contains every tip)"),
        ("u", "shift indicator is collinear with the intercept "
              "(focal subtree contains every tip)"),
        ("nowhere", "no node labeled 'nowhere'"),
    ])
    def test_refused_before_any_reroot(self, tmp_path, capsys, builds, node, message):
        # Focal node v's parent u is not the root, so a shift it names would
        # be fitted on the tree rerooted at u.
        tree = tmp_path / "chain.nwk"
        tree.write_text("((((A:1,B:1)ab:1,(C:1,D:2)cd:1)v:0.5)u:0.5)r;\n")
        traits = tmp_path / "chain.csv"
        traits.write_text(TRAITS)
        status, out, err = run_cli(
            capsys,
            ["score", "--tree", str(tree), "--traits", str(traits),
             "--shift-node", node, "--shift-mode", "S"],
        )
        assert (status, out) == (1, "")
        assert json.loads(err)["error"]["message"] == message
        assert len(builds) == 1

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


STEMLESS_TREE = "((A:1,B:1)ab:1,(C:1,D:2)cd:1);"


class TestScoreBelowAUnaryRoot:
    """A tree written with a root branch length has a unary root; the shift
    model is fitted below its stem, the no-shift model on the whole tree."""

    @pytest.fixture
    def score(self, tmp_path, capsys):
        traits = tmp_path / "traits.csv"
        traits.write_text(TRAITS)

        def score(text, node="ab", mode="S", policy="mean"):
            tree = tmp_path / "tree.nwk"
            tree.write_text(text + "\n")
            return run_cli(
                capsys,
                ["score", "--tree", str(tree), "--traits", str(traits),
                 "--shift-node", node, "--shift-mode", mode, "--t-policy", policy],
            )

        return score

    @pytest.mark.parametrize("text", [
        "((A:1,B:1)ab:1,(C:1,D:2)cd:1):0.5;",
        "(((A:1,B:1)ab:1,(C:1,D:2)cd:1)m:0.5)r;",
        "(((A:1,B:1)ab:1,(C:1,D:2)cd:1):0.5):0.25;",
    ])
    @pytest.mark.parametrize("mode", ["S", "SB"])
    @pytest.mark.parametrize("policy", ["mean", "max"])
    def test_shift_rows_equal_the_stemless_tree(self, score, text, mode, policy):
        status, out, err = score(text, mode=mode, policy=policy)
        assert (status, err) == (0, "")
        _, stemless, _ = score(STEMLESS_TREE, mode=mode, policy=policy)
        m0, m1 = out.split(',{"model":"M1')
        s0, s1 = stemless.split(',{"model":"M1')
        assert m1 == s1
        assert m0 != s0

    def test_stemless_subtree_is_the_stemless_text(self):
        stem = parse_newick("((A:1,B:1)ab:1,(C:1,D:2)cd:1):0.5;")
        below = tree_mod.extract_subtree(stem, int(stem.preorder[1]))
        want = parse_newick(STEMLESS_TREE)
        assert np.array_equal(below.parent, want.parent)
        assert below.edge_length.tobytes() == want.edge_length.tobytes()
        assert below.names == want.names

    def test_tip_focal_node(self, score):
        status, out, err = score("((A:1,B:1)ab:1,(C:1,D:2)cd:1):0.5;", node="A")
        assert (status, out) == (1, "")
        assert json.loads(err)["error"]["message"] == (
            "focal node of a shift must be internal, not a tip"
        )


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
        # A phase curve builds trees of up to d^m tips: d <= 2 keeps them
        # small.  Half the draws take d = 2, so that the curve is computed.
        argv += ["--d", "2" if draw(st.booleans()) else level_counts(draw, 2)]
        # 1 - 1e-13 makes the sweep refuse a contrast; 1e-300 underflows a
        # level length from m = 3.
        qs = ["0.3", "0.5", "0.9", "0.9999999999999", "1e-300", "0", "1", "nan"]
        argv += ["--q", draw(st.sampled_from(qs))]
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
    them: any command, with any node as the shift node; ``ess``, ``fit`` and
    ``shift`` may dump the covariance to a writable file, into a missing
    directory or onto a directory."""
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
    if command != "score" and draw(st.booleans()):
        argv += ["--dump-cov", draw(st.sampled_from(["{cov}", "{no_dir}", "{dir}"]))]
    return write_newick(tree), table, argv


class TestStructuredErrorsProperty:
    # Eight commands share the examples; 100 would leave some barely drawn.
    @settings(max_examples=500)
    @given(invocations())
    # The phase sweep refusing a contrast, and a level length underflowing.
    @example(("(A:1,B:1);", TRAITS, ["phase", "--d", "2", "--q", "0.9999999999999",
                                     "--m-max", "12"]))
    @example(("(A:1,B:1);", TRAITS, ["phase", "--d", "2", "--q", "1e-300", "--m-max", "3"]))
    def test_exit_zero_or_one_structured_error(self, invocation):
        newick, table, argv = invocation
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            files = {"tree": Path(tmp) / "t.nwk", "traits": Path(tmp) / "t.csv",
                     "cov": Path(tmp) / "cov.csv", "no_dir": Path(tmp) / "no" / "cov.csv",
                     "dir": Path(tmp)}
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


def rule_grid(command):
    """Command lines of ``command``: every combination of a few values of
    each of its ruled flags (absent, in range, and at and past each range's
    end), with ``{tree}`` and ``{traits}`` placeholders."""
    flags = {
        "fit": {"--model": ["bm", "ou"], "--alpha": ["3", "-1"], "--stationary": [""]},
        "design": {
            "--method": ["forward", "exhaustive", "random"],
            "--format": ["json", "csv"],
            "--seed": ["-1", "0", "5"],
            "--size": ["-1", "0", "1", "2"],
            "--reps": ["0", "1", "3"],
        },
        "simulate": {"--seed": ["-1", "0"], "--reps": ["-1", "0", "2"],
                     "--format": ["csv"]},
        "phase": {"--d": ["2", "2,3", "x"], "--m-max": ["-1", "0", "1", "3"]},
        "eigs": {"--d": ["2", "2,3", "x"], "--m-max": ["-1", "0", "2"], "--q": ["0.5"]},
    }[command]
    base = {
        "fit": ["--tree", "{tree}", "--traits", "{traits}"],
        "design": ["--tree", "{tree}"],
        "simulate": ["--tree", "{tree}"],
        "phase": ["--q", "0.5"],
        "eigs": [],
    }[command]
    lines = [[command] + base]
    for flag, values in flags.items():
        required = command == "phase" or flag == "--d"
        choices = [[flag] + [v] * bool(v) for v in values] + [[]] * (not required)
        lines = [line + choice for line in lines for choice in choices]
    return lines


def first_broken_rule(argv):
    """(index, error message) of the first declared rule that ``argv``
    breaks, or None."""
    args = cli.parse_args(argv)
    for i, (broken, message) in enumerate(args.rules):
        try:
            if broken(args):
                return i, message.format(**vars(args))
        except treegls.ConfigError as exc:  # a malformed --d, read by a rule
            return i, str(exc)
    return None


RULED_COMMANDS = ["fit", "design", "simulate", "phase", "eigs"]


class TestDeclaredRulesProperty:
    """Every declared flag rule is checked before any file is read: a
    command line that breaks one gets that rule's error whether the input
    files exist, hold valid text or hold text that cannot be read."""

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_the_grid_breaks_every_rule(self, command):
        (sub,) = [
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        rules = sub.choices[command].get_default("rules")
        if command not in RULED_COMMANDS:
            assert rules == ()
            return
        broken = {first_broken_rule(argv)[0] for argv in rule_grid(command)
                  if first_broken_rule(argv) is not None}
        assert broken == set(range(len(rules)))

    @pytest.mark.parametrize("command", RULED_COMMANDS)
    def test_error_does_not_depend_on_the_files(self, tmp_path, capsys, command):
        valid = {"tree": tmp_path / "t.nwk", "traits": tmp_path / "t.csv"}
        valid["tree"].write_text(TREE + "\n")
        valid["traits"].write_text(TRAITS)
        garbled = {"tree": tmp_path / "g.nwk", "traits": tmp_path / "g.csv"}
        garbled["tree"].write_bytes(b"(A:1,\xff")
        garbled["traits"].write_bytes(b"\xff,\n")
        missing = {"tree": tmp_path / "none.nwk", "traits": tmp_path / "none.csv"}
        checked = 0
        for argv in rule_grid(command):
            rule = first_broken_rule(argv)
            if rule is None:
                continue
            want = {"error": {"code": "config", "message": rule[1], "location": None}}
            for files in (valid, garbled, missing):
                status, out, err = run_cli(capsys, [a.format(**files) for a in argv])
                assert (status, out) == (1, "")
                assert json.loads(err) == want, argv
            checked += 1
        assert checked


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


def package_env():
    """The environment with this package on the path."""
    src = str(Path(treegls.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(args, cwd):
    """A fresh interpreter with this package on its path."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=package_env(),
        cwd=cwd, timeout=120,
    )


def popen_python(args, cwd):
    """A fresh interpreter with this package on its path, its output piped."""
    return subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=package_env(), cwd=cwd,
    )


# The flags of each command in ``cli.COMMANDS`` on the inputs of ``paths``.
COMMAND_ARGV = {
    "ess": ["--tree", "{tree}"],
    "fit": ["--tree", "{tree}", "--traits", "{traits}"],
    "shift": ["--tree", "{tree}", "--traits", "{traits}", "--shift-node", "ab"],
    "design": ["--tree", "{tree}", "--size", "2"],
    "score": ["--tree", "{tree}", "--traits", "{traits}", "--shift-node", "ab"],
    "simulate": ["--tree", "{tree}", "--seed", "1"],
    "phase": ["--d", "2", "--q", "0.5", "--m-max", "3"],
    "eigs": ["--d", "2", "--q", "0.5", "--m-max", "3"],
}


class TestImportCost:
    """The package runs on numpy alone: no command loads scipy, and neither
    does the dense oracle.  Importing scipy.linalg costs more than a small
    command runs."""

    def test_package_import_loads_no_scipy(self, tmp_path):
        done = run_python(
            ["-c", "import treegls, sys; print('scipy' in sys.modules)"], tmp_path
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    def test_dense_oracle_loads_no_scipy(self, tmp_path):
        code = (
            "import sys, numpy as np\n"
            "from treegls import bm_covariance, ou_covariance, parse_newick, quadratic_forms_dense\n"
            "tree = parse_newick('((A:1,B:1):1,C:2);')\n"
            "for V in (bm_covariance(tree), ou_covariance(tree, 0.5)):\n"
            "    quadratic_forms_dense(V, np.ones(3), np.arange(3.0))\n"
            "print('scipy' in sys.modules)\n"
        )
        done = run_python(["-c", code], tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_command_loads_no_scipy(self, paths, command):
        argv = [a.format(**paths) for a in COMMAND_ARGV[command]]
        # -X importtime names every module the run imports, on stderr.
        done = run_python(["-X", "importtime", "-m", "treegls", command, *argv],
                          paths["dir"])
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)
        imported = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
        assert "treegls.cli" in imported
        assert not [m for m in imported if m.split(".")[0] == "scipy"]
