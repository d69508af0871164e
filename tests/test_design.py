"""Subset-selection searches, bands, and their dominance properties."""

import tracemalloc

import numpy as np
import pytest

from treegls import (
    BudgetExceededError,
    TreeError,
    band_table,
    ess_intercept,
    exhaustive_design,
    parse_newick,
    random_design_bands,
    score_subsample,
    stepwise_design,
)
from treegls import covariance, design
from treegls.design import _draw_offsets, _flip_each, _greedy, _shuffled_masks
from treegls.simlab import random_tree, star_tree

from conftest import dense_scaled_ess


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
        assert np.array_equal(_shuffled_masks(_draw_offsets(rng, n, k, reps), n), want)

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

    def test_band_table_columns(self):
        tree = random_tree(8, seed=12, ultrametric=True)
        rows = band_table(tree, reps=30, seed=3, ks=(2, 4))
        assert [r["k"] for r in rows] == [2, 4]
        for row in rows:
            assert set(row) == {"k", "q025", "median", "q975", "optimum"}
            assert row["median"] <= row["optimum"] + 1e-9


def record_sweeps(monkeypatch):
    """Every mask array the searches pass to the scaled-ESS engine, and what
    it returned, in call order."""
    calls = []
    score = design.scaled_ess_pruning

    def recording(tree, keep_mask=None):
        scores = score(tree, keep_mask)
        calls.append((keep_mask, scores))
        return scores

    monkeypatch.setattr(design, "scaled_ess_pruning", recording)
    return calls


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
        # masks at once, so none holds more than one block's masks.
        tree = random_tree(40, seed=3, polytomy_prob=0.2)
        if per_block is not None:
            cells = (per_block + 1) * tree.n_nodes - 1
            monkeypatch.setattr(covariance, "_SWEEP_CELLS", cells)
        calls = record_sweeps(monkeypatch)
        searches = [
            lambda: stepwise_design(tree, 4).evaluations,
            lambda: stepwise_design(tree, 36, "backward").evaluations,
            lambda: exhaustive_design(tree, 3).evaluations,
            lambda: random_design_bands(tree, 3, 150, 9).reps,
        ]
        for search in searches:
            calls.clear()
            evaluations = search()
            widths = [1 if m.ndim == 1 else m.shape[1] for m, _ in calls]
            assert max(widths) <= covariance._SWEEP_CELLS // tree.n_nodes
            assert sum(widths) == evaluations

    @pytest.mark.parametrize("cells", [1, 7, 50])
    def test_flipped_masks_in_blocks_match_one_sweep(self, monkeypatch, cells):
        # Each greedy step flips every candidate of the current subset, one
        # block of candidates per call, and scores them as one sweep would.
        tree = random_tree(40, seed=8, polytomy_prob=0.3)
        n = tree.n_tips
        monkeypatch.setattr(covariance, "_SWEEP_CELLS", cells * tree.n_nodes)
        calls = record_sweeps(monkeypatch)
        for forward, k in ((True, 4), (False, n - 4)):
            calls.clear()
            _, changed, _, evaluations = _greedy(tree, k, forward)
            blocks = [(m, s) for m, s in calls if m.ndim == 2]
            base = np.full(n, not forward)
            want = []
            for tip in changed:
                want.append(_flip_each(base, np.flatnonzero(base != forward)))
                base[tip] = forward
            want = np.hstack(want)
            got = np.hstack([m for m, _ in blocks])
            assert np.array_equal(got, want)
            assert max(m.shape[1] for m, _ in blocks) == min(cells, n)
            assert got.shape[1] == evaluations - (not forward)
            one = covariance._contrast_sweep(tree, np.empty((n, 0)), want)[2]
            assert np.concatenate([s for _, s in blocks]).tobytes() == one.tobytes()

    def test_forward_step_memory_is_bounded(self):
        # One sweep over all 2,000 candidates peaks near 200 MB; blocks of
        # 2**20 node-mask cells keep the step under a third of that.
        tree = random_tree(2000, seed=1)
        tracemalloc.start()
        try:
            stepwise_design(tree, 2)
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
        masks = _shuffled_masks(_draw_offsets(rng, tree.n_tips, k, reps), tree.n_tips)
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
