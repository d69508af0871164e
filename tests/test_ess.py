"""Effective sample sizes, bounds, and lineage ESS pairs."""

import numpy as np
import pytest

from treegls import (
    ShiftSpec,
    TreeError,
    ess_bounds,
    ess_intercept,
    ess_lineage,
    parse_newick,
    restrict_to_tips,
    sb_covariance,
    scaled_ess_pruning,
)
from treegls.simlab import (
    SymmetricTreeSpec,
    make_symmetric_tree,
    random_tree,
    star_tree,
)

from conftest import dense_scaled_ess, shift_pieces


class TestEssIntercept:
    def test_star_equals_n(self):
        rep = ess_intercept(star_tree(7, 2.5))
        assert abs(rep.n_e - 7.0) < 1e-12
        assert abs(rep.scaled_ess - 7.0 / 2.5) < 1e-12

    def test_single_tip(self):
        rep = ess_intercept(parse_newick("A:3.0;"))
        assert abs(rep.n_e - 1.0) < 1e-12

    def test_symmetric_closed_form(self):
        tree = make_symmetric_tree(SymmetricTreeSpec((2, 2), (0.5, 0.5)))
        rep = ess_intercept(tree)
        assert abs(rep.scaled_ess - 8.0 / 3.0) < 1e-12
        assert abs(rep.n_e - 8.0 / 3.0) < 1e-12

    def test_t_policy_max(self):
        tree = parse_newick("((A:1,B:2):1,C:1);")
        mean_rep = ess_intercept(tree, "mean")
        max_rep = ess_intercept(tree, "max")
        assert mean_rep.height == 2.0
        assert max_rep.height == 3.0
        assert max_rep.n_e > mean_rep.n_e
        with pytest.raises(TreeError):
            ess_intercept(tree, "median")

    def test_report_dict_keys(self, three_tip):
        d = ess_intercept(three_tip).to_dict()
        assert set(d) == {
            "n", "scaled_ess", "T", "T_policy", "n_e",
            "bound_root", "bound_length", "ultrametric",
        }

    def test_non_ultrametric_report_drops_length_bound(self):
        d = ess_intercept(parse_newick("((A:1,B:2):1,C:1);")).to_dict()
        assert "bound_length" not in d
        assert not d["ultrametric"]

    @pytest.mark.parametrize("seed", range(50))
    def test_ultrametric_range(self, seed):
        tree = random_tree(3 + seed % 12, seed=4000 + seed, ultrametric=True)
        rep = ess_intercept(tree)
        assert 1.0 - 1e-9 <= rep.n_e <= rep.n + 1e-9


class TestEssBounds:
    def test_star_attains_root_bound(self):
        rep = ess_intercept(star_tree(6, 1.0))
        assert abs(rep.bound_root - 6.0) < 1e-12
        assert abs(rep.n_e - rep.bound_root) < 1e-12

    def test_symmetric_example(self):
        tree = make_symmetric_tree(SymmetricTreeSpec((2, 2), (0.5, 0.5)))
        bound_root, bound_length = ess_bounds(tree)
        assert abs(bound_root - 4.0) < 1e-12
        assert abs(bound_length - 3.0) < 1e-12
        assert ess_intercept(tree).n_e <= min(bound_root, bound_length)

    def test_non_ultrametric_has_no_length_bound(self):
        bound_root, bound_length = ess_bounds(parse_newick("((A:1,B:2):1,C:1);"))
        assert bound_length is None
        assert bound_root > 0

    @pytest.mark.parametrize("seed", range(100))
    def test_bound_suite(self, seed):
        ultra = bool(seed % 2)
        tree = random_tree(3 + seed % 14, seed=5000 + seed, ultrametric=ultra)
        rep = ess_intercept(tree)
        assert rep.n_e <= rep.bound_root + 1e-9
        if ultra:
            assert rep.bound_length is not None
            assert rep.n_e <= rep.bound_length + 1e-9
        # Root-variance floor: (1'V^{-1}1)^{-1} >= t/k.
        from treegls import tree_stats

        st = tree_stats(tree)
        assert 1.0 / rep.scaled_ess >= st.min_root_edge / st.root_degree - 1e-9


class TestStarEquality:
    def test_equal_star_hits_n(self):
        for n in (2, 5, 9):
            rep = ess_intercept(star_tree(n, 1.3))
            assert abs(rep.n_e - n) < 1e-9

    def test_unequal_star_misses_n(self):
        tree = parse_newick("(A:1,B:4);")
        rep = ess_intercept(tree)
        assert abs(rep.n_e - 2.0) > 1e-6

    @pytest.mark.parametrize("seed", range(30))
    def test_ultrametric_non_star_below_n(self, seed):
        tree = random_tree(4 + seed % 10, seed=6000 + seed, ultrametric=True)
        rep = ess_intercept(tree)
        assert rep.n_e < rep.n - 1e-9


class TestSubsampleMonotonicity:
    @pytest.mark.parametrize("seed", range(200))
    def test_nested_sets(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(4 + seed % 10, seed=7000 + seed, ultrametric=True)
        n = tree.n_tips
        small = int(rng.integers(1, n))
        big = int(rng.integers(small + 1, n + 1))
        perm = rng.permutation(n)
        mask_small = np.zeros(n, dtype=bool)
        mask_small[perm[:small]] = True
        mask_big = mask_small.copy()
        mask_big[perm[small:big]] = True
        assert (
            scaled_ess_pruning(tree, mask_small)
            <= scaled_ess_pruning(tree, mask_big) + 1e-9
        )


class TestEssLineage:
    def test_star_top_subtree(self):
        # Focal subtree is a 3-tip star at height 0.4 below the focal node.
        tree = parse_newick(
            "((A:0.4,B:0.4,C:0.4)top:0.6,(D:0.5,E:0.5)bot:0.5);"
        )
        pair = ess_lineage(tree, ShiftSpec("top", "SB"))
        assert abs(pair.top - 3.0) < 1e-12

    def test_matches_dense_subtree_oracles(self, four_tip):
        pair = ess_lineage(four_tip, ShiftSpec("ab", "SB"))
        top = parse_newick("(A:0.2,B:0.2);")
        bot = restrict_to_tips(four_tip, ("C", "D"))
        s_top = dense_scaled_ess(top)
        s_bot = dense_scaled_ess(bot)
        assert abs(pair.top - 0.2 * s_top) < 1e-12
        assert abs(pair.bot - 0.5 * s_bot) < 1e-12

    def test_s_mode_scales_by_full_height(self, four_tip):
        pair_s = ess_lineage(four_tip, ShiftSpec("ab", "S"))
        pair_sb = ess_lineage(four_tip, ShiftSpec("ab", "SB"))
        assert pair_s.bot == pair_sb.bot
        # Full height 0.5 versus top height 0.2 on the same scaled form.
        assert abs(pair_s.top - pair_sb.top * 0.5 / 0.2) < 1e-12

    @pytest.mark.parametrize("seed", range(40))
    def test_sum_property_block_covariance(self, seed):
        tree = random_tree(6 + seed % 8, seed=8000 + seed, ultrametric=True)
        internals = [
            u
            for u in range(tree.n_nodes)
            if not tree.is_tip(u)
            and u != tree.root
            and len(tree.tips_below(u)) < tree.n_tips
        ]
        if not internals:
            pytest.skip("no usable focal node")
        focal = internals[seed % len(internals)]
        spec = ShiftSpec(focal, "SB")
        pair = ess_lineage(tree, spec)
        from treegls import tree_stats
        from treegls.gls import _resolve_shift

        res = _resolve_shift(tree, spec)
        top, bottom = shift_pieces(tree, res.focal_node)
        t_top = tree_stats(top).height_mean
        t_bot = tree_stats(bottom).height_mean
        V = sb_covariance(tree, spec)
        total = float(np.sum(np.linalg.inv(V)))
        assert abs(pair.top / t_top + pair.bot / t_bot - total) < 1e-9
