"""Subset-selection searches, bands, and their dominance properties."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from treegls import (
    BudgetExceededError,
    ConfigError,
    TreeError,
    band_table,
    ess_intercept,
    exhaustive_design,
    parse_newick,
    random_design_bands,
    score_subsample,
    stepwise_design,
)
from treegls import PhyloTree, SingularCovarianceError, cli, covariance, design
from treegls.covariance import _contrast_sweep, _level_schedule, _scaled_ess
from treegls.design import _draw_offsets, _nested_optima, _shuffled_masks, _subset_n_e
from treegls.simlab import random_tree, star_tree

from conftest import (
    caterpillar_newick,
    coalescent_tree,
    comb_of_clades,
    dense_scaled_ess,
    flip_each,
    greedy_reference,
    knapsack_optima,
    nested_optima_reference,
    outside_plan,
    outside_scores,
    tailed_tree,
    trees,
)


class TestScoreSubsample:
    def test_full_set_equals_ess(self, three_tip):
        s = score_subsample(three_tip, three_tip.tip_labels)
        assert np.isclose(s, ess_intercept(three_tip).scaled_ess, rtol=1e-12)

    def test_single_tip_is_inverse_height(self, three_tip):
        assert np.isclose(score_subsample(three_tip, {"C"}), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_dense_on_random_subsets(self, seed):
        from treegls import restrict_to_tips

        rng = np.random.default_rng(seed)
        tree = random_tree(10, seed=1100 + seed)
        k = int(rng.integers(1, 11))
        keep = list(rng.choice(tree.tip_labels, size=k, replace=False))
        s = score_subsample(tree, keep)
        dense = dense_scaled_ess(restrict_to_tips(tree, keep))
        assert np.isclose(s, dense, rtol=1e-10)

    def test_unknown_label(self, three_tip):
        with pytest.raises(TreeError):
            score_subsample(three_tip, {"nope"})


class TestStepwise:
    def test_k_equals_n_returns_full_set(self, three_tip):
        for direction in ("forward", "backward"):
            res = stepwise_design(three_tip, 3, direction)
            assert res.selected == three_tip.tip_labels
            assert res.method == direction

    def test_k_one_picks_shallowest_tip(self):
        tree = parse_newick("((A:1,B:2):1,C:1);")
        res = stepwise_design(tree, 1, "forward")
        assert res.selected == ("C",)
        assert np.isclose(res.score, 1.0)

    def test_trajectory_and_evaluations(self):
        tree = random_tree(8, seed=3)
        res = stepwise_design(tree, 3, "forward")
        assert [k for k, _ in res.trajectory] == [1, 2, 3]
        assert res.evaluations == 8 + 7 + 6
        back = stepwise_design(tree, 6, "backward")
        assert [k for k, _ in back.trajectory] == [8, 7, 6]

    def test_k_out_of_range(self, three_tip):
        with pytest.raises(TreeError):
            stepwise_design(three_tip, 0, "forward")
        with pytest.raises(TreeError):
            stepwise_design(three_tip, 4, "forward")

    def test_score_recomputes_from_selection(self):
        tree = random_tree(12, seed=8, ultrametric=True)
        res = stepwise_design(tree, 5, "backward")
        assert np.isclose(res.score, score_subsample(tree, res.selected), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_exhaustive_often(self, seed):
        # Small-instance check; the acceptance suite runs the full sweep.
        tree = random_tree(9, seed=1200 + seed, ultrametric=True)
        best = exhaustive_design(tree, 4).score
        fwd = stepwise_design(tree, 4, "forward").score
        bwd = stepwise_design(tree, 4, "backward").score
        assert fwd <= best + 1e-12 and bwd <= best + 1e-12
        assert fwd >= 0.85 * best and bwd >= 0.85 * best


def zero_internal_edges(tree, seed):
    """``tree`` with a third of its non-root internal edges set to 0."""
    rng = np.random.default_rng(seed)
    internal = [u for u in range(tree.n_nodes) if not tree.is_tip(u) and u != tree.root]
    edges = tree.edge_length.copy()
    edges[rng.choice(internal, size=len(internal) // 3, replace=False)] = 0.0
    return PhyloTree(tree.parent, edges, tree.names)


# Edges far shorter than the tree's time unit: a kept tip beside such an edge
# gives its sibling a sibling sum near 1/t, so that sibling's own map spans
# some 2^900 from its largest entry to its smallest.  No other node's map
# may lose digits to underflow for it.
TINY_EDGE_TREES = {
    "tiny_edge": "(((A:1e-280,B:1):1,C:1):1,(D:1,E:2):1);",
    "tiny_edges_nested": "(((A:1e-200,(B:1e-200,G:1):1):1,C:1):1,(D:1,E:2):1);",
}

GREEDY_TREES = {
    **{f"binary{s}": (lambda s=s: random_tree(20 + 3 * s, seed=500 + s)) for s in range(6)},
    **{f"polytomy{s}": (lambda s=s: random_tree(20 + 3 * s, seed=600 + s, polytomy_prob=0.3))
       for s in range(6)},
    **{f"ultrametric{s}": (lambda s=s: random_tree(20 + 3 * s, seed=700 + s, ultrametric=True))
       for s in range(6)},
    **{f"zero_edges{s}": (lambda s=s: zero_internal_edges(
        random_tree(24 + 2 * s, seed=800 + s, polytomy_prob=0.2), s)) for s in range(6)},
    "star": lambda: star_tree(15),
    "caterpillar": lambda: parse_newick(caterpillar_newick(30)),
    # Deep enough for the Brownian schedule to scan its chain; the searches
    # sweep it level by level.
    "caterpillar40": lambda: parse_newick(caterpillar_newick(40)),
    # Deep trees that are not caterpillars: a comb of clades (two internal
    # children at every spine node) and a wide top over a 40-level tail.
    "comb_of_clades": lambda: comb_of_clades(30, 2),
    "tailed": lambda: tailed_tree(5, 40),
    **{name: (lambda text=text: parse_newick(text)) for name, text in TINY_EDGE_TREES.items()},
    "caterpillar_ties": lambda: parse_newick(
        "(((((t0:1,t1:1):1,t2:2):1,t3:3):1,t4:4):1,t5:5);"),
    "wide_polytomy": lambda: parse_newick(
        "((A:1,B:2,C:0.5,D:1.5,E:0.7,F:0.7,G:1,H:1,I:0.2):0.3,(J:1,K:1):1,L:2);"),
    "unary": lambda: parse_newick("(((A:1,B:2):0.5):1,((C:1):0.25,D:2):1,E:0.5);"),
    # Map entries carry units (precision, time); these trees keep them apart
    # by 400 orders of magnitude unless the outside pass works in tree units.
    "large_units": lambda: parse_newick(
        "((A:1e200,B:2e200):1e200,(C:1e200,D:3e200):2e200,E:5e200);"),
    "small_units": lambda: parse_newick(
        "((A:1e-200,B:2e-200):1e-200,(C:1e-200,D:3e-200):2e-200,E:5e-200);"),
}


COALESCENT_TREES = {
    f"coalescent{n}": (lambda n=n: coalescent_tree(n, seed=n)) for n in (16, 40, 200)
}

# The reference's margin, best over runner-up, below which a step of it
# nearly ties: there the merge may take the other pick.
NEAR_TIE = 1e-12


class TestGreedyMatchesReference:
    """Stepwise search, read off the merge, against the greedy search that
    sweeps every candidate: the same subset and trajectory bytes where no
    step of the reference nearly ties, and otherwise the same sizes, the
    scores within 1e-12 relative and the same evaluations."""

    @staticmethod
    def check(tree, ks, forward, exact=False):
        """Returns how many of ``ks`` the reference nearly tied at; with
        ``exact``, those too must match bit for bit."""
        direction = "forward" if forward else "backward"
        ties = 0
        for k in ks:
            got = stepwise_design(tree, k, direction)
            mask, _, trajectory, evaluations, margin = greedy_reference(tree, k, forward)
            assert got.evaluations == evaluations
            assert [s for s, _ in got.trajectory] == [s for s, _ in trajectory]
            ours = np.array([v for _, v in got.trajectory])
            theirs = np.array([v for _, v in trajectory])
            assert got.score == ours[-1]
            ties += margin <= NEAR_TIE
            if exact or margin > NEAR_TIE:
                assert got.selected == tuple(np.array(tree.tip_labels)[mask])
                assert ours.tobytes() == theirs.tobytes()
            else:
                np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0)
        return ties

    @pytest.mark.parametrize("name", sorted(GREEDY_TREES))
    @pytest.mark.parametrize("forward", [True, False])
    def test_same_path(self, name, forward):
        tree = GREEDY_TREES[name]()
        n = tree.n_tips
        ks = {5, n} if forward else {n - 5, 1}
        ties = self.check(tree, sorted(k for k in ks if 1 <= k <= n), forward)
        if name.startswith(("binary", "polytomy", "zero_edges")):
            assert ties == 0

    @pytest.mark.parametrize("name", sorted(COALESCENT_TREES))
    @pytest.mark.parametrize("forward", [True, False])
    def test_coalescent_trees_match_bit_for_bit(self, name, forward):
        # The benchmark's tree shape.  Near the full set a step's candidates
        # can lie within 1e-12 of one another, but the picks still agree.
        tree = COALESCENT_TREES[name]()
        n = tree.n_tips
        self.check(tree, [5, n] if forward else [n - 5, 1], forward, exact=True)

    @pytest.mark.parametrize("name", sorted(TINY_EDGE_TREES))
    @pytest.mark.parametrize("forward", [True, False])
    def test_same_path_at_every_size_beside_tiny_edges(self, name, forward):
        tree = parse_newick(TINY_EDGE_TREES[name])
        self.check(tree, range(1, tree.n_tips + 1), forward)

    def test_forward_2000_tips_to_100(self):
        tree = random_tree(2000, seed=1)
        res = stepwise_design(tree, 100)
        assert res.evaluations == sum(range(1901, 2001))
        assert np.isclose(res.score, score_subsample(tree, res.selected), rtol=1e-12)

    def test_unswept_singular_candidate_is_not_refused(self, tmp_path, capsys):
        # Adding B beside A would put two tips 2e-15 apart.  A search that
        # sweeps every candidate sweeps B at the third step and refuses; the
        # optimal subsets take C, A, D and then B, so only size 4 is refused.
        text = "((A:1e-15,B:1e-15):1,(C:0.5,D:0.5):0.5);"
        tree = parse_newick(text)
        with pytest.raises(SingularCovarianceError):
            greedy_reference(tree, 3, True)
        assert stepwise_design(tree, 3).selected == ("A", "C", "D")
        with pytest.raises(SingularCovarianceError):
            stepwise_design(tree, 4)
        path = tmp_path / "tiny.nwk"
        path.write_text(text + "\n")
        status = cli.main(["design", "--tree", str(path), "--method", "forward", "--size", "4"])
        out, err = capsys.readouterr()
        assert (status, out) == (1, "")
        assert set(json.loads(err)) == {"error"}

    @pytest.mark.parametrize("make", [
        lambda: parse_newick(caterpillar_newick(40)),
        lambda: comb_of_clades(10, 2),
        lambda: parse_newick(caterpillar_newick(200)),
    ], ids=["caterpillar40", "comb_of_clades", "caterpillar200"])
    def test_forward_n_e_is_the_band_table_optimum(self, make):
        # The score saturates on these trees, so many subsets tie within
        # rounding; forward search and the table still take the same one.
        tree = make()
        rows = band_table(tree, 3, 1)
        for k in range(1, tree.n_tips + 1):
            got = stepwise_design(tree, k).n_e
            assert np.float64(got).tobytes() == np.float64(rows[k - 1]["optimum"]).tobytes()


def outside_checks(tree, mask):
    """The outside pass of ``conftest`` (the reference for the outside
    precisions of a change of root), read from one sweep.  Every node's
    outside score at 0 beside the sweep with its tips masked
    out, and every tip's score at inf beside the sweep with it kept: the
    largest relative gap, and the plan."""
    n = tree.n_tips
    schedule = _level_schedule(tree)
    plan = outside_plan(tree, schedule)
    none = np.empty((n, 0))
    weight = _contrast_sweep(tree, none, mask[:, None], schedule=schedule)[3]
    scores = outside_scores(weight[:, 0], plan)
    rng = tree.tip_range
    nodes = np.arange(tree.n_nodes)
    without = np.repeat(mask[:, None], tree.n_nodes, axis=1)
    for v in nodes.tolist():
        without[rng[v, 0]:rng[v, 1], v] = False
    with_tip = np.repeat(mask[:, None], n, axis=1)
    with_tip[np.arange(n), np.arange(n)] = True
    tips = np.array(tree.tip_ids)
    pairs = [(scores[:, 1], without), (scores[tips, 0], with_tip)]
    gap = 0.0
    for got, masks in pairs:
        want = np.empty(masks.shape[1])
        for lo, hi in covariance._sweep_blocks(tree, masks.shape[1]):
            want[lo:hi] = _contrast_sweep(tree, none, masks[:, lo:hi], schedule=schedule)[2]
        assert np.array_equal(got == 0.0, want == 0.0)
        both = want > 0.0
        gap = max(gap, float(np.max(np.abs(got[both] / want[both] - 1.0), initial=0.0)))
    return gap, plan


class TestOutsideScores:
    @pytest.mark.parametrize("name", sorted(GREEDY_TREES))
    @pytest.mark.parametrize("kept", ["all", "half", "one"])
    def test_every_node_matches_its_sweep(self, name, kept):
        tree = GREEDY_TREES[name]()
        n = tree.n_tips
        mask = {"all": np.ones(n, dtype=bool), "half": np.arange(n) % 2 == 0,
                "one": np.arange(n) == n // 2}[kept]
        gap, _ = outside_checks(tree, mask)
        assert gap <= 1e-12

    def test_unary_root(self):
        tree = parse_newick("((A:1,B:2):0.5,(C:0.25,D:1):2):0.75;")
        gap, _ = outside_checks(tree, np.array([True, False, True, True]))
        assert gap <= 1e-12

    def test_deep_caterpillar_within_a_quarter_of_the_tolerance(self):
        tree = parse_newick(caterpillar_newick(2000))
        gap, plan = outside_checks(tree, np.arange(2000) % 3 != 1)
        rtol = plan[-1]
        assert 0.0 < gap < rtol / 4
        print(f"[outside] 2,000-tip caterpillar: largest gap {gap:.2e}, tolerance {rtol:.2e}")

    @pytest.mark.parametrize("name", sorted(TINY_EDGE_TREES))
    @pytest.mark.parametrize("kept", ["all", "half"])
    def test_tiny_edges_leave_every_node_scored(self, name, kept):
        # Only the root's score at inf, 1/0 from its identity map, is not
        # finite.  The gaps to the sweeps are pinned with GREEDY_TREES.
        tree = parse_newick(TINY_EDGE_TREES[name])
        n = tree.n_tips
        mask = np.ones(n, dtype=bool) if kept == "all" else np.arange(n) % 2 == 0
        schedule = _level_schedule(tree)
        weight = _contrast_sweep(tree, np.empty((n, 0)), mask[:, None], schedule=schedule)[3]
        scores = outside_scores(weight[:, 0], outside_plan(tree, schedule))
        finite = np.isfinite(scores)
        assert finite.sum() == finite.size - 1 and scores[tree.root, 0] == np.inf

    def test_zero_length_kept_tip_makes_its_siblings_unscored(self):
        tree = parse_newick("((A:0,B:1,C:2):1,D:3);")
        schedule = _level_schedule(tree)
        weight = _contrast_sweep(tree, np.empty((4, 0)), np.ones((4, 1), dtype=bool),
                                 schedule=schedule)[3]
        scores = outside_scores(weight[:, 0], outside_plan(tree, schedule))
        finite = np.isfinite(scores).all(axis=1)
        ids = [tree.node_id(lab) for lab in "ABCD"]
        assert finite[ids].tolist() == [True, False, False, True]


class TestExhaustive:
    def test_balanced_cherries_take_one_tip_each(self):
        tree = parse_newick("((A:0.5,B:0.5):0.5,(C:0.5,D:0.5):0.5);")
        res = exhaustive_design(tree, 2)
        assert set(res.selected) in ({"A", "C"}, {"A", "D"}, {"B", "C"}, {"B", "D"})
        assert np.isclose(res.score, 2.0)
        # Canonical tie-break: first combination in canonical order wins.
        assert res.selected == ("A", "C")

    def test_k_equals_n(self, three_tip):
        res = exhaustive_design(three_tip, 3)
        assert res.selected == three_tip.tip_labels

    def test_evaluation_count(self):
        tree = random_tree(12, seed=4)
        res = exhaustive_design(tree, 6)
        assert res.evaluations == 924

    def test_budget(self):
        tree = random_tree(30, seed=5)
        with pytest.raises(BudgetExceededError):
            exhaustive_design(tree, 15, budget=1000)

    def test_ties_across_sweep_blocks_pick_the_first_combination(self, monkeypatch):
        # Unit edges keep every sum exact, so all C(9, 4) scores tie.
        tree = star_tree(9)
        whole = exhaustive_design(tree, 4)
        monkeypatch.setattr(covariance, "_SWEEP_CELLS", 3 * tree.n_nodes)
        blocked = exhaustive_design(tree, 4)
        assert blocked.selected == whole.selected == tree.tip_labels[:4]
        assert (blocked.score, blocked.evaluations) == (whole.score, whole.evaluations)

    @pytest.mark.parametrize("seed", range(3))
    def test_sweep_blocks_do_not_change_the_optimum(self, monkeypatch, seed):
        tree = random_tree(11, seed=40 + seed)
        whole = exhaustive_design(tree, 5)
        monkeypatch.setattr(covariance, "_SWEEP_CELLS", 7 * tree.n_nodes)
        assert exhaustive_design(tree, 5) == whole


class TestRandomBands:
    def test_full_size_is_degenerate(self, three_tip):
        band = random_design_bands(three_tip, 3, reps=40, seed=1)
        full = ess_intercept(three_tip).n_e
        assert np.isclose(band.q025, full)
        assert np.isclose(band.median, full)
        assert np.isclose(band.q975, full)

    def test_seeded_rerun_is_identical(self):
        tree = random_tree(15, seed=6, ultrametric=True)
        a = random_design_bands(tree, 5, reps=200, seed=77)
        b = random_design_bands(tree, 5, reps=200, seed=77)
        assert a == b

    @pytest.mark.parametrize(
        "seed, n, k, reps", [(0, 1, 1, 1), (1, 10, 3, 7), (2, 40, 40, 5), (3, 300, 150, 20)]
    )
    def test_subsets_follow_one_shuffle_per_replicate(self, seed, n, k, reps):
        # The stream a partial Fisher-Yates shuffle per replicate draws, one
        # offset per step, so seeded bands keep their values.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        want = np.zeros((n, reps), dtype=bool)
        for r in range(reps):
            idx = np.arange(n)
            for i in range(k):
                j = i + int(rng.integers(n - i))
                idx[i], idx[j] = idx[j], idx[i]
            want[idx[:k], r] = True
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        masks = _shuffled_masks(_draw_offsets(rng, n, k, reps), n, np.full(reps, k))
        assert np.array_equal(masks, want)

    @pytest.mark.parametrize("seed", range(25))
    def test_median_below_stepwise(self, seed):
        tree = random_tree(10 + seed % 5, seed=1300 + seed, ultrametric=True)
        k = 2 + seed % 5
        band = random_design_bands(tree, k, reps=150, seed=seed)
        best = stepwise_design(tree, k, "forward")
        assert band.median <= best.n_e + 1e-9


class TestCurves:
    def test_optimum_monotone_in_k(self):
        tree = random_tree(10, seed=31, ultrametric=True)
        scores = [exhaustive_design(tree, k).score for k in range(1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_plateau_on_49_tips(self):
        # A modest subset already captures nearly all of the full-tree n_e.
        tree = random_tree(49, seed=90, ultrametric=True)
        full = ess_intercept(tree).scaled_ess
        res = stepwise_design(tree, 49, "forward")
        k_star = next(
            k for k, s in res.trajectory if s >= 0.99 * full
        )
        assert k_star < 49
        print(f"[plateau] 49-tip tree: k* = {k_star} reaches 99% of full n_e")

    def test_band_table_optimum_is_stepwise_at_each_k(self):
        tree = random_tree(12, seed=13, ultrametric=True)
        ks = (7, 1, 4, 12)
        rows = band_table(tree, reps=20, seed=5, ks=ks)
        assert [r["k"] for r in rows] == list(ks)
        for row in rows:
            assert row["optimum"] == stepwise_design(tree, row["k"], "forward").n_e

    def test_band_table_refuses_a_negative_seed(self):
        tree = random_tree(8, seed=1)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            random_design_bands(tree, 1, 5, -1)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            band_table(tree, reps=5, seed=-1, ks=[1, 2])

    @pytest.mark.parametrize("reps", [1, 2, 3, 7, 40, 101, 1000])
    def test_band_table_rows_are_the_bands(self, monkeypatch, reps):
        # Every size's quantiles come from one batched call, bit for bit
        # those of one call per size; the bands and the sweep of the
        # optimal subsets share one level schedule.
        tree = random_tree(40, seed=reps)
        built = []
        monkeypatch.setattr(design, "_level_schedule",
                            lambda t: built.append(t) or _level_schedule(t))
        rows = band_table(tree, reps, 9)
        assert len(built) == 1
        monkeypatch.undo()
        for row in rows:
            band = random_design_bands(tree, row["k"], reps, 9 + row["k"])
            want = np.array([band.q025, band.median, band.q975])
            assert np.array([row["q025"], row["median"], row["q975"]]).tobytes() == want.tobytes()

    def test_band_table_columns(self):
        tree = random_tree(8, seed=12, ultrametric=True)
        rows = band_table(tree, reps=30, seed=3, ks=(2, 4))
        assert [r["k"] for r in rows] == [2, 4]
        for row in rows:
            assert set(row) == {"k", "q025", "median", "q975", "optimum"}
            assert row["median"] <= row["optimum"] + 1e-9


def prefix_scores(tree, kmax):
    """1'V^{-1}1 of the first k tips of ``_nested_optima`` for k = 1..kmax,
    swept as ``band_table`` sweeps them."""
    rank = np.full(tree.n_tips, kmax, dtype=np.int64)
    rank[_nested_optima(tree, kmax)] = np.arange(kmax)
    return _scaled_ess(tree, rank[:, None] <= np.arange(kmax), _level_schedule(tree))


def lognormal_edges(tree, seed):
    """``tree`` with every edge drawn from lognormal(0, 2)."""
    edges = np.random.default_rng(seed).lognormal(0.0, 2.0, tree.n_nodes)
    edges[tree.root] = 0.0
    return PhyloTree(tree.parent, edges, tree.names)


# Small enough for exhaustive_design at every k.
SMALL_TREES = {
    **{f"small_ultrametric{s}": (lambda s=s: random_tree(10 + s, seed=900 + s, ultrametric=True))
       for s in range(5)},
    **{f"small_polytomy{s}": (lambda s=s: random_tree(10 + s, seed=910 + s, polytomy_prob=0.4))
       for s in range(5)},
    **{f"small_lognormal{s}": (lambda s=s: lognormal_edges(random_tree(10 + s, seed=920 + s), s))
       for s in range(5)},
}


def greedy_optimum_column(tree, ks):
    """The optimum column as the band table once took it: from one greedy
    forward search to max(ks), each size's score the search's sweep of its
    subset."""
    _, added, trajectory, _, _ = greedy_reference(tree, max(ks), True)
    column = []
    for k in ks:
        mask = np.zeros(tree.n_tips, dtype=bool)
        mask[added[:k]] = True
        column.append(_subset_n_e(tree, mask, trajectory[k - 1][1]))
    return column


def optimum_column(monkeypatch, tree, ks):
    """``band_table``'s optimum column, or its refusal, with the random
    bands left out, so that any refusal is the optimum's."""
    monkeypatch.setattr(design, "_band_values",
                        lambda tree, sizes, reps, schedule: np.ones((len(sizes), reps)))
    try:
        return [row["optimum"] for row in band_table(tree, 1, 0, ks)]
    except SingularCovarianceError as err:
        return str(err)
    finally:
        monkeypatch.undo()


class TestNestedOptima:
    """The merge of concave increments gives the optimal subset at every size,
    nested; greedy search in either direction finds the same optima."""

    @pytest.mark.parametrize("name", sorted(SMALL_TREES))
    def test_every_prefix_is_the_exhaustive_optimum(self, name):
        tree = SMALL_TREES[name]()
        n = tree.n_tips
        best = [exhaustive_design(tree, k).score for k in range(1, n + 1)]
        forward = [s for _, s in greedy_reference(tree, n, True)[2]]
        backward = [s for _, s in greedy_reference(tree, 1, False)[2]][::-1]
        stepwise = [s for _, s in stepwise_design(tree, n).trajectory]
        for scores in (prefix_scores(tree, n), knapsack_optima(tree, n), forward, backward,
                       stepwise):
            np.testing.assert_allclose(scores, best, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", sorted({**GREEDY_TREES, **COALESCENT_TREES}))
    def test_prefixes_follow_greedy(self, name):
        # Where the orders part, the two picks tie within rounding; the
        # benchmark-like coalescent trees have no such tie.
        tree = {**GREEDY_TREES, **COALESCENT_TREES}[name]()
        n = tree.n_tips
        order = _nested_optima(tree, n).tolist()
        _, added, trajectory, _, _ = greedy_reference(tree, n, True)
        np.testing.assert_allclose(prefix_scores(tree, n), [s for _, s in trajectory],
                                   rtol=1e-12, atol=0)
        split = next((i for i, (a, b) in enumerate(zip(order, added)) if a != b), None)
        if name.startswith("coalescent"):
            assert split is None
        elif split is not None:
            base = np.zeros(n, dtype=bool)
            base[added[:split]] = True
            picks = np.array([order[split], added[split]])
            ours, greedy = _scaled_ess(tree, flip_each(base, picks), _level_schedule(tree))
            assert ours == pytest.approx(greedy, rel=1e-12, abs=0)

    @pytest.mark.parametrize("make", [
        lambda: random_tree(2000, seed=1),
        lambda: comb_of_clades(500, 2),
        lambda: parse_newick(caterpillar_newick(2000)),
    ], ids=["random", "comb_of_clades", "caterpillar"])
    def test_prefixes_match_knapsack_on_2000_tips(self, make):
        tree = make()
        np.testing.assert_allclose(prefix_scores(tree, 100), knapsack_optima(tree, 100),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("text", [
        *TINY_EDGE_TREES.values(),
        "((A:1e-15,B:1e-15):1,(C:0.5,D:0.5):0.5);",
        "((A:1e-16,B:1e-16,C:1):1,D:2);",
        "((A:1e-15,B:1e-15,C:1e-15):1,D:2,(E:1,F:1):1);",
        "((A:1,(B:1e-15,C:1e-15):1e-15):1,D:0.5);",
        "(((A:1e-15,B:1e-15):1,C:1):1,(D:1e-15,E:1e-15):2);",
        "((A:5e-13,B:5e-13):1,(C:1,D:1):1);",
        "((A:1,B:1):1e-14,C:1e-14);",
        "(A:1e-14,B:1,C:2);",
    ])
    def test_refuses_what_the_greedy_column_refused(self, monkeypatch, text):
        tree = parse_newick(text)
        n = tree.n_tips
        # Forward search to the largest size and the table sweep the same
        # optimal subsets, so they refuse alike, with the same message.  The
        # reference sweeps every candidate of every step, so it refuses
        # wherever they do, and also where a candidate it did not pick is
        # singular.
        for ks in (list(range(1, n + 1)), [1, 2], [3], [n - 1, 1]):
            got = optimum_column(monkeypatch, tree, ks)
            try:
                stepwise_design(tree, max(ks))
            except SingularCovarianceError as err:
                assert got == str(err)
                with pytest.raises(SingularCovarianceError):
                    greedy_optimum_column(tree, ks)
                continue
            assert got == [stepwise_design(tree, k).n_e for k in ks]
            try:
                want = greedy_optimum_column(tree, ks)
            except SingularCovarianceError:
                continue
            assert got == want

    def test_zero_length_coincident_tips_refuse_only_in_a_prefix(self, monkeypatch):
        # A kept tip on a zero-length edge leaves its sibling unscored, so
        # the greedy search swept {A, B} and refused at every size.  The
        # optimal subsets take B last, and only a size that holds it is
        # refused.
        tree = parse_newick("((A:0,B:0):1,(C:0.5,D:0.5):0.5);")
        with pytest.raises(SingularCovarianceError):
            greedy_optimum_column(tree, [2])
        assert _nested_optima(tree, 4).tolist() == [0, 2, 3, 1]
        assert optimum_column(monkeypatch, tree, [1, 2, 3]) == greedy_optimum_column(
            parse_newick("(A:1,(C:0.5,D:0.5):0.5);"), [1, 2, 3])
        assert "at one position" in optimum_column(monkeypatch, tree, [4])


# The merge's paths: the default choice, a level step for every level (in
# one group, or in the width classes), and a node step for every node.
MERGE_PATHS = {
    "default": {},
    "levels": {"_MERGE_WIDTH": 1, "_MERGE_PAD": np.inf},
    "classes": {"_MERGE_WIDTH": 1, "_MERGE_PAD": -np.inf},
    "nodes": {"_MERGE_WIDTH": np.inf},
}


def cut_merge(tree, kmax, path):
    """``_nested_optima(tree, kmax)`` on merge path ``path``."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in MERGE_PATHS[path].items():
            mp.setattr(design, name, value)
        return _nested_optima(tree, kmax).tolist()


def merge_steps(monkeypatch):
    """Per step of the merge, in order, its kind and how many nodes it
    merged: a level step one per row, a node step one.  Each step sorts
    once."""
    steps = []
    rows, node = design._merge_rows, design._merge_node

    def level_step(gain, order, index, *rest):
        steps.append(("level", index.shape[0]))
        rows(gain, order, index, *rest)

    def node_step(*args):
        steps.append(("node", 1))
        node(*args)

    monkeypatch.setattr(design, "_merge_rows", level_step)
    monkeypatch.setattr(design, "_merge_node", node_step)
    return steps


def parallel_caterpillars(count, n):
    """``count`` caterpillars of n tips under one root: every level below
    the root holds ``count`` internal nodes, of one width each."""
    pieces = [caterpillar_newick(n)[:-1].replace("t", f"c{i}_") for i in range(count)]
    return parse_newick("(" + ",".join(f"{p}:1.0" for p in pieces) + ");")


class TestMergeSteps:
    """The merge one numpy step per level, cut at kmax, against the per-node
    merge of every full list that it replaced (``conftest``), prefix for
    prefix and bit for bit."""

    @pytest.mark.parametrize("path", sorted(MERGE_PATHS))
    @pytest.mark.parametrize("name", sorted({**SMALL_TREES, **GREEDY_TREES, **COALESCENT_TREES}))
    def test_prefixes_match_reference(self, name, path):
        tree = {**SMALL_TREES, **GREEDY_TREES, **COALESCENT_TREES}[name]()
        n = tree.n_tips
        want = nested_optima_reference(tree).tolist()
        for k in (1, 2, 20, 100, n):
            assert cut_merge(tree, k, path) == want[:min(k, n)], k

    @pytest.mark.parametrize("path", sorted(MERGE_PATHS))
    @pytest.mark.parametrize("make", [
        lambda: random_tree(2000, seed=1),
        lambda: comb_of_clades(500, 2),
        lambda: parse_newick(caterpillar_newick(2000)),
    ], ids=["random", "comb_of_clades", "caterpillar"])
    def test_prefixes_match_reference_on_2000_tips(self, make, path):
        tree = make()
        want = nested_optima_reference(tree).tolist()
        for k in (1, 2, 20, 100, 2000):
            assert cut_merge(tree, k, path) == want[:k], k

    @given(trees((0.0, -0.0, 0.5, 1.0, 2.0)), st.data())
    def test_property_against_reference(self, tree, data):
        # Polytomies, unary nodes, 0 and -0 edges and exact ties.  The
        # reference reads a -0 tip edge as signed, so it runs on the tree
        # with every -0 written as 0, which the merge must read it as.
        kmax = data.draw(st.integers(1, tree.n_tips), label="kmax")
        path = data.draw(st.sampled_from(sorted(MERGE_PATHS)), label="path")
        folded = PhyloTree(tree.parent, tree.edge_length + 0.0, tree.names)
        assert cut_merge(tree, kmax, path) == nested_optima_reference(folded)[:kmax].tolist()

    @given(trees((0.0, -0.0, 0.5, 1.0, 2.0)))
    def test_clamp_changes_nothing_where_sums_are_finite(self, tree):
        # Zero edges (infinite gains), -0 edges read as 0, polytomies, unary
        # nodes and ties: the increments are nonincreasing as computed.
        folded = PhyloTree(tree.parent, tree.edge_length + 0.0, tree.names)
        clamped = []
        nested_optima_reference(folded, clamped)
        assert not any(clamped)

    @pytest.mark.parametrize("path", sorted(MERGE_PATHS))
    def test_clamp_where_finite_gains_sum_past_the_float_range(self, path):
        # Gains of 1e308 sum to inf under an edge of 1e-310: the second
        # increment, 1 / (t (1 + t P)), overflows to inf above the first,
        # and the clamp takes it back to the first.
        tree = parse_newick("((A:1e-308,B:1e-308):1e-310,C:1);")
        clamped = []
        want = nested_optima_reference(tree, clamped).tolist()
        assert clamped == [1]
        for k in (1, 2, 3):
            assert cut_merge(tree, k, path) == want[:k], k

    def test_level_steps_on_a_wide_tree(self, monkeypatch):
        # Node steps alone would sort 1,999 times on the 2,000-tip coalescent
        # tree, whose internal nodes lie on 21 levels.  The merge takes a few
        # steps per level, about one per bit of the widest list (55 at
        # kmax 20, 111 at 2,000), and every node is merged by one of them.
        tree = coalescent_tree(2000, seed=3)
        levels = int(tree.levels[tree._n_children > 0].max()) + 1
        steps = merge_steps(monkeypatch)
        for kmax in (20, 2000):
            steps.clear()
            _nested_optima(tree, kmax)
            assert sum(rows for _, rows in steps) == tree.n_tips - 1
            assert len(steps) <= levels * (2 * kmax).bit_length()

    @pytest.mark.parametrize("count, kind", [(0, "level"), (-1, "node")])
    def test_both_sides_of_the_level_width(self, monkeypatch, count, kind):
        # _MERGE_WIDTH caterpillars in parallel: every level below the root
        # has that many internal nodes, of one width, and takes one level
        # step; one fewer and each of its nodes takes a node step.
        count += design._MERGE_WIDTH
        tree = parallel_caterpillars(count, 30)
        steps = merge_steps(monkeypatch)
        assert _nested_optima(tree, 20).tolist() == nested_optima_reference(tree)[:20].tolist()
        assert steps[-1] == ("node", 1)  # the root
        below = steps[:-1]
        assert len(below) == (29 if kind == "level" else 29 * count)
        assert set(below) == ({("level", count)} if kind == "level" else {("node", 1)})

    @pytest.mark.parametrize("pad, groups", [(0, [8]), (-1, [7, 1])])
    def test_both_sides_of_the_padding_bound(self, monkeypatch, pad, groups):
        # Level 1 holds a node over two 100-tip stars, 200 candidates, and
        # seven cherries: padded to one group of 8 x 200 cells, it pads
        # 1,600 - 2 (200 + 14) = 1,172 cells beyond twice its candidates.
        # At that bound it is one step; below it, a step per width class.
        stars = ",".join(f"({','.join(f's{i}_{j}:1' for j in range(100))}):1" for i in range(2))
        cherries = ",".join(f"(a{i}:1,b{i}:2):1" for i in range(7))
        tree = parse_newick(f"(({stars}):1,{cherries});")
        monkeypatch.setattr(design, "_MERGE_PAD", 1172 + pad)
        steps = merge_steps(monkeypatch)
        assert _nested_optima(tree, 214).tolist() == nested_optima_reference(tree).tolist()
        assert [rows for kind, rows in steps if kind == "level"] == groups


def record_sweeps(monkeypatch, module=design):
    """Every mask array that ``module`` passes to ``_scaled_ess`` (every
    search of the design module scores its subsets through it), and the
    scores it returned, in call order."""
    calls = []
    score = module._scaled_ess

    def recording(tree, masks, schedule):
        scores = score(tree, masks, schedule)
        calls.append((masks.copy(), scores))
        return scores

    monkeypatch.setattr(module, "_scaled_ess", recording)
    return calls


def check_band_table(monkeypatch, tree, cells):
    """``band_table`` in blocks of ``cells`` replicates gives each size the
    band of ``random_design_bands`` at seed + k, bit for bit."""
    ks, reps, seed = (5, 1, 25, 3, 3), 30, 11
    bands = [random_design_bands(tree, k, reps, seed + k) for k in ks]
    monkeypatch.setattr(covariance, "_SWEEP_CELLS", cells * tree.n_nodes)
    rows = band_table(tree, reps, seed, ks)
    assert [(r["k"], r["q025"], r["median"], r["q975"]) for r in rows] == [
        (b.k, b.q025, b.median, b.q975) for b in bands
    ]


class TestBoundedSweeps:
    @pytest.mark.parametrize("cells", [1, 3, 64])
    def test_blocked_searches_match_one_sweep(self, monkeypatch, cells):
        tree = random_tree(30, seed=4, polytomy_prob=0.2)

        def searches():
            return [
                stepwise_design(tree, 5).to_dict(),
                stepwise_design(tree, 25, "backward").to_dict(),
                random_design_bands(tree, 4, 200, 1).to_dict(),
                exhaustive_design(tree, 2).to_dict(),
                band_table(tree, 30, 2, ks=(1, 6)),
            ]

        whole = searches()
        monkeypatch.setattr(covariance, "_SWEEP_CELLS", cells * tree.n_nodes)
        assert searches() == whole

    @pytest.mark.parametrize("per_block", [1, 7, 64, None])
    def test_no_call_holds_more_than_one_block(self, monkeypatch, per_block):
        # No search passes the engine more than _SWEEP_CELLS // n_nodes
        # masks at once, so none holds more than one block's masks, and
        # each sweeps its subsets once: a stepwise search those of its
        # trajectory.
        tree = random_tree(40, seed=3, polytomy_prob=0.2)
        if per_block is not None:
            cells = (per_block + 1) * tree.n_nodes - 1
            monkeypatch.setattr(covariance, "_SWEEP_CELLS", cells)
        calls = record_sweeps(monkeypatch)
        searches = [
            (lambda: stepwise_design(tree, 4), 4),
            (lambda: stepwise_design(tree, 36, "backward"), 5),
            (lambda: exhaustive_design(tree, 3), 9880),
            (lambda: random_design_bands(tree, 3, 150, 9), 150),
            (lambda: band_table(tree, 70, 9, ks=(3, 1, 40, 2)), 4 * 70 + 40),
        ]
        for search, subsets in searches:
            calls.clear()
            search()
            widths = [m.shape[1] for m, _ in calls]
            assert max(widths) <= covariance._SWEEP_CELLS // tree.n_nodes
            assert sum(widths) == subsets

    @pytest.mark.parametrize("cells", [1, 7, 50])
    def test_flipped_masks_in_blocks_match_one_sweep(self, monkeypatch, cells):
        # The reference greedy search flips every candidate of a step, one
        # block per call.  The blocks' scores are those of one sweep over
        # all the candidates, bit for bit, so each pick is that sweep's
        # first maximum.
        trees = [star_tree(40), random_tree(40, seed=8, polytomy_prob=0.3),
                 random_tree(40, seed=9, ultrametric=True)]
        calls = record_sweeps(monkeypatch, covariance)
        for tree in trees:
            n = tree.n_tips
            none = np.empty((n, 0))
            schedule = _level_schedule(tree)
            monkeypatch.setattr(covariance, "_SWEEP_CELLS", cells * tree.n_nodes)
            for forward, k in ((True, 4), (False, n - 4)):
                calls.clear()
                _, changed, trajectory, _, _ = greedy_reference(tree, k, forward)
                base = np.full(n, not forward)
                i = 0
                if not forward:  # the full set, swept first
                    assert np.array_equal(calls[0][0], base[:, None])
                    i = 1
                for step, tip in enumerate(changed):
                    cands = np.flatnonzero(base != forward)
                    blocks = []
                    while sum(m.shape[1] for m, _ in blocks) < cands.size:
                        blocks.append(calls[i])
                        i += 1
                    assert max(m.shape[1] for m, _ in blocks) <= cells
                    got = np.hstack([m for m, _ in blocks])
                    assert np.array_equal(got, flip_each(base, cands))
                    every = _contrast_sweep(tree, none, got, schedule=schedule)[2]
                    scores = np.concatenate([v for _, v in blocks])
                    assert scores.tobytes() == every.tobytes()
                    assert tip == cands[np.argmax(every)]
                    assert trajectory[step + (not forward)][1] == every.max()
                    base[tip] = forward
                assert i == len(calls)

    def test_forward_step_memory_is_bounded(self):
        # One sweep over all 2,000 candidates of a greedy step peaks near
        # 200 MB; blocks of 2**20 node-mask cells keep the reference's step
        # under a third of that, and stepwise search sweeps only its
        # trajectory's subsets.
        tree = random_tree(2000, seed=1)
        for search in (lambda: greedy_reference(tree, 2, True), lambda: stepwise_design(tree, 2)):
            tracemalloc.start()
            try:
                search()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_bands_in_blocks_match_one_draw(self, monkeypatch, k):
        # The unblocked reference: every replicate's mask at once.
        tree = random_tree(20, seed=k, ultrametric=bool(k % 2))
        reps, seed = 301, 40 + k
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        offsets = _draw_offsets(rng, tree.n_tips, k, reps)
        masks = _shuffled_masks(offsets, tree.n_tips, np.full(reps, k))
        scores = covariance.scaled_ess_pruning(tree, masks)
        values = np.array(
            [tree.tip_heights[masks[:, r]].mean() * scores[r] for r in range(reps)]
        )
        monkeypatch.setattr(covariance, "_SWEEP_CELLS", 2 * tree.n_nodes)
        band = random_design_bands(tree, k, reps, seed)
        q025, median, q975 = np.quantile(values, [0.025, 0.5, 0.975])
        assert (band.q025, band.median, band.q975, band.mean) == (
            q025, median, q975, values.mean()
        )

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_band_table_sizes_share_blocks(self, monkeypatch, cells):
        # Blocks of 7 replicates straddle sizes; each size's band is still
        # its own draw from seed + k, bit for bit.
        check_band_table(monkeypatch, random_tree(25, seed=17), cells)

    @pytest.mark.parametrize("cells", [1, 7, 64, 150])
    def test_caterpillar_band_table_sizes_share_blocks(self, monkeypatch, cells):
        # A chain of 38 nodes, which the Brownian schedule scans; a size's
        # band is the same whether its replicates share one block or not.
        check_band_table(monkeypatch, parse_newick(caterpillar_newick(40)), cells)

    def test_band_memory_is_bounded(self):
        # One (reps, n) index tile over 4,000 replicates of 2,000 tips held
        # 64 MB beside the masks; a block at a time peaks near the sweep's
        # own working set.
        tree = random_tree(2000, seed=1)
        tracemalloc.start()
        try:
            random_design_bands(tree, 2, 4000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20
