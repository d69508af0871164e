"""Information criteria: AIC, standard BIC, and the corrected BIC."""

import math

import numpy as np
import pytest

from treegls import (
    ConfigError,
    DegenerateFitError,
    ShiftSpec,
    TreeError,
    aic,
    bic_corrected_m0,
    bic_corrected_m1,
    bic_standard,
    corrected_penalty_m0,
    corrected_penalty_m1,
    ess_intercept,
    ess_lineage,
    fit_shift_model,
    gls_fit,
    parse_newick,
    score_models,
    tree_stats,
)
from treegls import covariance
from treegls.gls import _resolve_shift
from treegls.simlab import (
    family_tree,
    ConvergenceConfig,
    random_tree,
    simulate_bm,
    star_tree,
)

from conftest import caterpillar_newick, shift_pieces


def classical_ols_loglik(Y, X):
    beta = np.linalg.lstsq(X, Y, rcond=None)[0]
    resid = Y - X @ beta
    n = len(Y)
    s2 = float(resid @ resid) / n
    return -0.5 * n * (math.log(2 * math.pi * s2) + 1.0)


class TestAic:
    def test_star_tree_reduces_to_classical(self):
        rng = np.random.default_rng(0)
        tree = star_tree(10, 1.0)
        X = np.column_stack([np.ones(10), rng.normal(size=10)])
        Y = rng.normal(size=10)
        fit = gls_fit(tree, X, Y)
        classical = 2 * 3 - 2 * classical_ols_loglik(Y, X)
        assert np.isclose(aic(fit), classical, rtol=1e-12)

    def test_extra_parameter_costs_two(self):
        rng = np.random.default_rng(1)
        tree = star_tree(12, 1.0)
        Y = rng.normal(size=12)
        X1 = np.ones((12, 1))
        X2 = np.column_stack([np.ones(12), rng.normal(size=12)])
        f1, f2 = gls_fit(tree, X1, Y), gls_fit(tree, X2, Y)
        # Same data: the penalty difference is exactly 2.
        assert np.isclose(
            (aic(f2) + 2 * f2.loglik) - (aic(f1) + 2 * f1.loglik), 2.0
        )

    def test_zero_rss_propagates(self, three_tip):
        fit = gls_fit(three_tip, np.ones((3, 1)), np.ones(3))
        with pytest.raises(DegenerateFitError):
            aic(fit)


class TestBicStandard:
    def test_penalty_is_log_n_per_parameter(self):
        rng = np.random.default_rng(2)
        tree = star_tree(8, 1.0)
        Y = rng.normal(size=8)
        fit = gls_fit(tree, np.ones((8, 1)), Y)
        assert np.isclose(bic_standard(fit), -2 * fit.loglik + 2 * math.log(8))

    def test_star_matches_classical(self):
        rng = np.random.default_rng(3)
        tree = star_tree(9, 1.0)
        Y = rng.normal(size=9)
        X = np.ones((9, 1))
        fit = gls_fit(tree, X, Y)
        classical = -2 * classical_ols_loglik(Y, X) + 2 * math.log(9)
        assert np.isclose(bic_standard(fit), classical, rtol=1e-12)

    def test_nested_difference(self):
        rng = np.random.default_rng(4)
        tree = random_tree(12, seed=42)
        Y = rng.normal(size=12)
        X1 = np.ones((12, 1))
        X2 = np.column_stack([np.ones(12), rng.normal(size=12)])
        f1, f2 = gls_fit(tree, X1, Y), gls_fit(tree, X2, Y)
        expected = -2 * (f2.loglik - f1.loglik) + math.log(12)
        assert np.isclose(bic_standard(f2) - bic_standard(f1), expected)


class TestCorrectedM0:
    def test_star_difference_shrinks(self):
        # On a star n_e = n, so corrected - standard = ln(1+n) - ln(n).
        rng = np.random.default_rng(5)
        for n in (10, 100):
            tree = star_tree(n, 1.0)
            Y = rng.normal(size=n)
            fit = gls_fit(tree, np.ones((n, 1)), Y)
            score = bic_corrected_m0(fit, ess_intercept(tree))
            diff = score.bic_corrected - score.bic_standard
            assert np.isclose(diff, math.log(1 + n) - math.log(n), atol=1e-12)
        assert math.log(101 / 100) < 0.01

    def test_single_tip_penalty_edge_case(self):
        # n = 1, k = 0: (0+1) ln 1 + ln 2 = ln 2.
        pens = corrected_penalty_m0(0, 1, 1.0)
        assert np.isclose(sum(pens.values()), math.log(2))

    def test_intercept_penalty_bounded_as_n_grows(self):
        # Fixed root edges: ln(1 + n_e) increases but stays bounded while
        # ln(n) diverges.
        cfg = ConvergenceConfig(
            family="fixed_root", sizes=(8, 16), beta=(0.0,), reps=2, seed=0,
            root_edge=0.25,
        )
        values = []
        for n in (8, 16, 32, 64, 128, 256):
            tree = family_tree(cfg, n)
            rep = ess_intercept(tree)
            values.append(math.log1p(rep.n_e))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        stats = tree_stats(family_tree(cfg, 256))
        cap = math.log1p(
            stats.root_degree * stats.height_mean / stats.min_root_edge
        )
        assert values[-1] <= cap
        assert math.log(256) > 2 * values[-1]

    def test_breakdown_sums_exactly(self):
        rng = np.random.default_rng(6)
        tree = random_tree(10, seed=7, ultrametric=True)
        Y = rng.normal(size=10)
        fit = gls_fit(tree, np.ones((10, 1)), Y)
        score = bic_corrected_m0(fit, ess_intercept(tree))
        assert np.isclose(
            sum(score.penalties.values()),
            score.bic_corrected + 2 * score.loglik,
            atol=1e-12,
        )

    @pytest.mark.parametrize("shape", ["random", "caterpillar"])
    def test_m0_sweeps_the_tree_once(self, monkeypatch, shape):
        # The fit's sweep gives M0's 1'V^{-1}1; the report and the score are
        # the same floats as from a separate ess_intercept sweep.
        tree = (random_tree(30, seed=8) if shape == "random"
                else parse_newick(caterpillar_newick(60)))
        rng = np.random.default_rng(9)
        X, Y = rng.normal(size=(tree.n_tips, 2)), rng.normal(size=tree.n_tips)
        fit = gls_fit(tree, np.column_stack([np.ones(tree.n_tips), X]), Y)
        want = bic_corrected_m0(fit, ess_intercept(tree)).to_dict()
        sweeps = []
        sweep = covariance._contrast_sweep

        def counting(*args, **kwargs):
            sweeps.append(1)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(covariance, "_contrast_sweep", counting)
        (got,) = score_models(tree, X, Y)
        assert len(sweeps) == 1
        assert repr(got.to_dict()) == repr(want)

    def test_mismatched_n_rejected(self):
        rng = np.random.default_rng(7)
        t1, t2 = star_tree(6, 1.0), star_tree(7, 1.0)
        fit = gls_fit(t1, np.ones((6, 1)), rng.normal(size=6))
        with pytest.raises(ConfigError, match="n="):
            bic_corrected_m0(fit, ess_intercept(t2))

    def test_shift_fit_rejected(self, four_tip):
        rng = np.random.default_rng(8)
        fit = fit_shift_model(four_tip, None, rng.normal(size=4), ShiftSpec("ab", "S"))
        with pytest.raises(ConfigError):
            bic_corrected_m0(fit, ess_intercept(four_tip))


class TestCorrectedM1:
    def make_double_star(self, j):
        # Root holds j direct tips at height 1 plus a subtree "top" that is a
        # star of j tips; both groups are stars in the SB split.
        bottom = ",".join(f"b{i}:1.0" for i in range(j))
        top = ",".join(f"t{i}:0.6" for i in range(j))
        return parse_newick(f"(({top})top:0.4,{bottom});")

    @pytest.mark.parametrize("j", [3, 5])
    def test_two_star_penalty(self, j):
        tree = self.make_double_star(j)
        rng = np.random.default_rng(9)
        Y = rng.normal(size=2 * j)
        spec = ShiftSpec("top", "SB")
        fit = fit_shift_model(tree, None, Y, spec)
        pair = ess_lineage(tree, spec)
        score = bic_corrected_m1(fit, pair.top, pair.bot)
        expected = math.log(2 * j) + 2 * math.log(1 + j)
        assert np.isclose(sum(score.penalties.values()), expected, atol=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_prior_determinant_identity(self, seed):
        # det(W^{-1} + W_pi^{-1}) det(W_pi) = (1 + n_e_bot)(1 + n_e_top),
        # built from the finite-sample block quadratic forms.
        tree = random_tree(6 + seed % 10, seed=9000 + seed, ultrametric=True)
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
        res = _resolve_shift(tree, spec)
        pair = ess_lineage(tree, spec)
        top, bottom = shift_pieces(tree, res.focal_node)
        T_top = tree_stats(top).height_mean
        T = tree_stats(bottom).height_mean
        s_top = pair.top / T_top
        s_bot = pair.bot / T
        W_inv = np.array([[s_top + s_bot, s_top], [s_top, s_top]])
        W_pi = np.array([[T, -T], [-T, T + T_top]])
        lhs = np.linalg.det(W_inv + np.linalg.inv(W_pi)) * np.linalg.det(W_pi)
        rhs = (1 + pair.bot) * (1 + pair.top)
        assert np.isclose(lhs, rhs, rtol=1e-9)

    def test_rooting_convention_applied(self):
        # The focal lineage hangs below a non-root node; score_models must
        # reroot there, changing V and hence the reported likelihood.
        tree = parse_newick(
            "(((A:0.2,B:0.3)ab:0.2,C:0.4)abc:0.3,(D:0.3,E:0.6)de:0.2);"
        )
        rng = np.random.default_rng(10)
        Y = rng.normal(size=5)
        m0, m1 = score_models(tree, None, Y, ShiftSpec("ab", "S"))
        plain = fit_shift_model(tree, None, Y, ShiftSpec("ab", "S"))
        assert not np.isclose(m1.loglik, plain.loglik)

    def test_growing_trees_stay_finite(self):
        cfg = ConvergenceConfig(
            family="fixed_root", sizes=(8, 16, 32), beta=(0.0,), reps=2, seed=0
        )
        for n in cfg.sizes:
            tree = family_tree(cfg, n)
            Y = simulate_bm(tree, 0.0, 1.0, seed=4)
            focal = tree.node_id("L")
            scores = score_models(tree, None, Y, ShiftSpec(focal, "S"))
            assert all(np.isfinite(s.bic_corrected) for s in scores)
            diff = scores[1].bic_corrected - scores[0].bic_corrected
            assert np.isfinite(diff)

    def test_requires_shift_fit(self, three_tip):
        rng = np.random.default_rng(11)
        fit = gls_fit(three_tip, np.ones((3, 1)), rng.normal(size=3))
        with pytest.raises(ConfigError):
            bic_corrected_m1(fit, 1.0, 1.0)

    def test_rejects_bad_ess(self, four_tip):
        rng = np.random.default_rng(12)
        fit = fit_shift_model(four_tip, None, rng.normal(size=4), ShiftSpec("ab", "S"))
        with pytest.raises(ConfigError):
            bic_corrected_m1(fit, -1.0, 2.0)
        with pytest.raises(ConfigError):
            bic_corrected_m1(fit, 2.0, float("nan"))


class TestDesignArrays:
    def test_wrong_row_count_refused(self, four_tip):
        Y = np.array([0.3, -0.1, 0.8, 0.2])
        for X in (np.ones((3, 1)), np.ones((1, 4))):
            with pytest.raises(TreeError, match="X must have 4 rows"):
                score_models(four_tip, X, Y, ShiftSpec("ab", "S"))

    @pytest.mark.parametrize("mode", ["S", "SB"])
    def test_no_columns_is_no_covariates(self, mode):
        tree = parse_newick(
            "(((A:0.2,B:0.3)ab:0.2,C:0.4)abc:0.3,(D:0.3,E:0.6)de:0.2);"
        )
        Y = np.random.default_rng(13).normal(size=5)
        spec = ShiftSpec("ab", mode)
        none = fit_shift_model(tree, None, Y, spec)
        empty = fit_shift_model(tree, np.empty((5, 0)), Y, spec)
        assert repr(none.to_dict()) == repr(empty.to_dict())
        none = [s.to_dict() for s in score_models(tree, None, Y, spec)]
        empty = [s.to_dict() for s in score_models(tree, np.empty((5, 0)), Y, spec)]
        assert repr(none) == repr(empty)


class TestSelectionDirection:
    def test_corrected_keeps_null_model_at_least_as_often(self):
        # Simulated with no shift: the corrected criterion must not reject
        # the null more often than the standard one (the standard form
        # misprices the bounded-information shift term).
        tree = random_tree(32, seed=55, ultrametric=True)
        cands = [
            u
            for u in range(tree.n_nodes)
            if not tree.is_tip(u)
            and u != tree.root
            and 3 <= len(tree.tips_below(u)) <= 12
        ]
        focal = cands[0]
        Y_all = simulate_bm(tree, 0.0, 1.0, seed=99, reps=1000)
        std_m0 = corr_m0 = 0
        for r in range(1000):
            m0, m1 = score_models(tree, None, Y_all[r], ShiftSpec(focal, "S"))
            std_m0 += m0.bic_standard < m1.bic_standard
            corr_m0 += m0.bic_corrected < m1.bic_corrected
        assert corr_m0 >= std_m0
        assert corr_m0 > 500


class TestPenaltyHelpers:
    def test_m0_values(self):
        pens = corrected_penalty_m0(2, 50, 5.0)
        assert np.isclose(pens["consistent"], 3 * math.log(50))
        assert np.isclose(pens["intercept"], math.log(6.0))

    def test_m1_values(self):
        pens = corrected_penalty_m1(1, 40, 4.0, 2.5)
        assert np.isclose(pens["consistent"], 2 * math.log(40))
        assert np.isclose(pens["intercept"], math.log(5.0))
        assert np.isclose(pens["shift"], math.log(3.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            corrected_penalty_m0(0, 10, 0.0)
        with pytest.raises(ConfigError):
            corrected_penalty_m1(0, 10, 1.0, -2.0)
