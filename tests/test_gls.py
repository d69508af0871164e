"""GLS fitting, shift models, shrinkage, and the trait-table reader."""

import csv
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from treegls import (
    ConfigError,
    CovarianceSpec,
    DegenerateFitError,
    RankDeficientError,
    ShiftSpec,
    SingularCovarianceError,
    TraitTableError,
    TreeError,
    bm_covariance,
    covariate_sigma_hat,
    fit_shift_model,
    gls_fit,
    load_traits,
    ou_covariance,
    parse_newick,
    quadratic_forms_dense,
    sb_covariance,
    shrinkage_estimate,
)
from treegls import covariance, gls
from treegls.covariance import QuadraticForms
from treegls.gls import TraitData, _resolve_shift
from treegls.simlab import _batched_gls, random_tree, simulate_traits, star_tree

from conftest import cherry_beside_star_newick, normwise_gap, shift_pieces


def dense_gls_oracle(V, X, Y):
    Vi = np.linalg.inv(V)
    beta = np.linalg.solve(X.T @ Vi @ X, X.T @ Vi @ Y)
    cov_unit = np.linalg.inv(X.T @ Vi @ X)
    resid = Y - X @ beta
    rss = float(resid @ Vi @ resid)
    return beta, cov_unit, rss


class TestGlsFit:
    def test_star_intercept_is_sample_mean(self):
        tree = star_tree(5, 2.0)
        Y = np.array([1.0, 4.0, 2.0, 0.0, 3.0])
        fit = gls_fit(tree, np.ones((5, 1)), Y)
        assert abs(fit.beta[0] - Y.mean()) < 1e-12

    def test_constant_response_gives_zero_rss(self, three_tip):
        fit = gls_fit(three_tip, np.ones((3, 1)), np.ones(3))
        assert abs(fit.beta[0] - 1.0) < 1e-12
        assert fit.rss < 1e-12

    def test_loglik_error_at_zero_rss(self, three_tip):
        fit = gls_fit(three_tip, np.ones((3, 1)), np.ones(3))
        with pytest.raises(DegenerateFitError):
            fit.loglik

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_dense_normal_equations(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(10, seed=500 + seed)
        X = np.column_stack([np.ones(10), rng.normal(size=10)])
        Y = rng.normal(size=10)
        fit = gls_fit(tree, X, Y)
        beta, cov_unit, rss = dense_gls_oracle(bm_covariance(tree), X, Y)
        assert np.allclose(fit.beta, beta, atol=1e-10)
        assert np.allclose(fit.xtvix_inv, cov_unit, atol=1e-10)
        assert np.isclose(fit.rss, rss, rtol=1e-9, atol=1e-12)

    def test_variance_estimates(self, three_tip):
        Y = np.array([0.0, 1.0, 3.0])
        fit = gls_fit(three_tip, np.ones((3, 1)), Y)
        assert fit.dof == 2
        assert np.isclose(fit.sigma2_hat, fit.rss / 2)
        assert np.isclose(fit.sigma2_ml, fit.rss / 3)
        assert np.allclose(fit.beta_cov, fit.sigma2_hat * fit.xtvix_inv)

    def test_ou_covariance_fit(self, three_tip):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(3), rng.normal(size=3)])
        Y = rng.normal(size=3)
        spec = CovarianceSpec.ou(0.8, stationary=True)
        with pytest.raises(DegenerateFitError):
            # n = rank + 1 is fine; this checks it does not crash earlier.
            gls_fit(three_tip, np.eye(3), Y)
        fit = gls_fit(three_tip, X, Y, spec)
        V = ou_covariance(three_tip, 0.8, stationary=True)
        beta, _, _ = dense_gls_oracle(V, X, Y)
        assert np.allclose(fit.beta, beta, atol=1e-10)

    def test_rank_deficient_rejected(self, three_tip):
        X = np.column_stack([np.ones(3), np.ones(3)])
        with pytest.raises(RankDeficientError):
            gls_fit(three_tip, X, np.array([1.0, 2.0, 3.0]))

    def test_wrong_row_count(self, three_tip):
        with pytest.raises(TreeError):
            gls_fit(three_tip, np.ones((4, 1)), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, four_tip, bad):
        X = np.column_stack([np.ones(4), [0.1, 0.4, -0.2, 0.3]])
        Y = np.array([1.0, 0.5, 2.0, 1.5])
        X_bad, Y_bad = X.copy(), Y.copy()
        X_bad[2, 1] = bad
        Y_bad[1] = bad
        spec = ShiftSpec("ab", "S")
        calls = [
            lambda: gls_fit(four_tip, X, Y_bad),
            lambda: gls_fit(four_tip, X_bad, Y),
            lambda: gls_fit(four_tip, X_bad, Y, CovarianceSpec.ou(1.0)),
            lambda: fit_shift_model(four_tip, None, Y_bad, spec),
            lambda: fit_shift_model(four_tip, X_bad[:, 1:], Y, spec),
            lambda: covariate_sigma_hat(four_tip, X_bad[:, 1:]),
        ]
        for call in calls:
            with pytest.raises(ConfigError, match="non-finite"):
                call()

    def test_unbiasedness_monte_carlo(self):
        # 16-tip tree, 5000 replicates: mean beta-hat within 3 MC SE of truth.
        tree = random_tree(16, seed=77, ultrametric=True)
        beta = np.array([0.7, -0.4])
        X, Y = simulate_traits(tree, beta, np.eye(1), 1.0, seed=5, reps=5000)
        est = _batched_gls(tree, X, Y)
        mean = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / np.sqrt(est.shape[0])
        assert np.all(np.abs(mean - beta) < 3 * se)

    @pytest.mark.parametrize("n,seed", [(32, 841), (64, 842), (128, 843)])
    def test_slope_variance_exact_rate(self, n, seed):
        # var(beta_1) = sigma2 Sigma^{-1} / (n - k - 2) exactly, at any n;
        # 50k replicates keep the Monte Carlo gap well under 5%.
        Sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        tree = random_tree(n, seed=seed, ultrametric=True)
        X, Y = simulate_traits(
            tree, [0.2, 1.0, -0.5], Sigma, 1.0, seed=seed, reps=50_000
        )
        est = _batched_gls(tree, X, Y)
        mc = est[:, 1:].var(axis=0, ddof=1)
        theory = np.diag(np.linalg.inv(Sigma)) / (n - 2 - 2)
        assert np.max(np.abs(mc - theory) / theory) < 0.05

    @pytest.mark.parametrize("q", [0, 1, 3])
    def test_blocks_do_not_change_the_estimates(self, monkeypatch, q):
        # One replicate per block, a few, and all in one: the same floats.
        tree = random_tree(40, seed=8, polytomy_prob=0.3)
        reps = 23
        if q:
            X, Y = simulate_traits(tree, np.arange(q + 1.0), np.eye(q), 1.0, seed=2, reps=reps)
        else:
            X = np.zeros((reps, 40, 0))
            Y = np.random.default_rng(2).normal(size=(reps, 40))
        got = []
        for per_block in (1, 4, reps):
            monkeypatch.setattr(covariance, "_SWEEP_CELLS", per_block * tree.n_nodes * (q + 1))
            got.append(_batched_gls(tree, X, Y))
        assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()


def exact_spd_solve(A, B):
    """X with A X = B in exact rationals, by the root-free Cholesky
    factorization A = L D L' (unit lower L); A must be positive definite."""
    p = len(A)
    A = [[Fraction(v) for v in row] for row in A]
    L = [[Fraction(int(i == j)) for j in range(p)] for i in range(p)]
    D = [Fraction(0)] * p
    for j in range(p):
        D[j] = A[j][j] - sum(L[j][k] ** 2 * D[k] for k in range(j))
        assert D[j] > 0
        for i in range(j + 1, p):
            L[i][j] = (A[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
    X = []
    for col in zip(*B):
        z = []
        for i in range(p):
            z.append(Fraction(col[i]) - sum(L[i][k] * z[k] for k in range(i)))
        x = [Fraction(0)] * p
        for i in reversed(range(p)):
            x[i] = z[i] / D[i] - sum(L[k][i] * x[k] for k in range(i + 1, p))
        X.append(x)
    return [list(row) for row in zip(*X)]


def solve_forms(A, b):
    """beta-hat and (X'V^{-1}X)^{-1} of the forms A = X'V^{-1}X, b = X'V^{-1}Y."""
    forms = QuadraticForms(xtvix=A, xtviy=b, ytviy=1.0, logdet_v=0.0,
                           one_tvi_one=1.0, n=len(b) + 1)
    beta, inv, _ = gls._solve_normal_equations(forms)
    return beta, inv


U = np.finfo(float).eps / 2


class TestNormalEquations:
    """The p x p solve is a Cholesky factor of X'V^{-1}X and forward and back
    substitution.  It is backward stable, so its normwise gap from the exact
    solution is a small multiple of cond(X'V^{-1}X) times the unit roundoff."""

    @pytest.mark.parametrize("seed", range(40))
    def test_exact_rational_systems(self, seed):
        rng = np.random.default_rng(seed)
        p = 1 + seed % 6
        M = rng.integers(-9, 10, size=(p + 2, p))
        A = M.T @ M
        b = rng.integers(-20, 21, size=p)
        exact = np.array(exact_spd_solve(A.tolist(), np.column_stack([b, np.eye(p, dtype=int)])
                                         .tolist()), dtype=float)
        beta, inv = solve_forms(A.astype(float), b.astype(float))
        bound = 16 * np.linalg.cond(A) * U
        assert normwise_gap(beta, exact[:, 0]) <= bound
        assert normwise_gap(inv, exact[:, 1:]) <= bound

    def test_scipy_reference(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(29)
        for _ in range(300):
            p = int(rng.integers(1, 31))
            Q, _ = np.linalg.qr(rng.normal(size=(p, p)))
            d = np.logspace(0, -rng.uniform(0, 9), p) * 10.0 ** rng.uniform(-5, 5)
            A = (Q * d) @ Q.T
            A = 0.5 * (A + A.T)
            b = rng.normal(size=p)
            beta, inv = solve_forms(A, b)
            factor = scipy_linalg.cho_factor(A, lower=True)
            bound = 16 * np.linalg.cond(A) * U
            assert normwise_gap(beta, scipy_linalg.cho_solve(factor, b)) <= bound
            assert normwise_gap(inv, scipy_linalg.cho_solve(factor, np.eye(p))) <= bound

    @pytest.mark.parametrize("A, message", [
        ([[1.0, 0.0], [0.0, -1.0]], "design matrix is rank deficient under V^{-1}"),
        ([[1.0, 1.0], [1.0, 1.0]], "design matrix is rank deficient under V^{-1}"),
        ([[1.0, 0.0], [0.0, 1e-12]],
         "design matrix is rank deficient at relative tolerance 1e-10"),
    ])
    def test_rank_refusals(self, A, message):
        with pytest.raises(RankDeficientError, match=re.escape(message)):
            solve_forms(np.array(A), np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_forms_refused(self, bad):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        for A_bad, b_bad in ((A + np.diag([0.0, bad]), np.ones(2)),
                             (A, np.array([1.0, bad]))):
            with pytest.raises(ConfigError, match="non-finite"):
                solve_forms(A_bad, b_bad)
        fit = gls._fit_from_forms(QuadraticForms(
            xtvix=A, xtviy=np.ones(2), ytviy=4.0, logdet_v=0.0, one_tvi_one=1.0, n=5))
        for boosted in (replace(fit, xtvix=A * bad), replace(fit, beta=np.array([bad, 1.0]))):
            with pytest.raises(ConfigError, match="non-finite"):
                shrinkage_estimate(boosted)

    def test_overflow_is_inf_not_an_error(self):
        # A pivot of 1e-300 and a right-hand side of 1e10: beta-hat is past
        # the float range, as LAPACK's triangular solve returns it.
        beta, _ = solve_forms(np.diag([1e-300, 1e-300]), np.array([1e10, 1.0]))
        assert beta[0] == np.inf


class TestCovariateSigmaHat:
    def test_constant_covariate_gives_zero(self, three_tip):
        Sg = covariate_sigma_hat(three_tip, np.full((3, 1), 2.5))
        assert np.allclose(Sg, 0.0, atol=1e-12)

    def test_star_reduces_to_sample_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 1))
        Sg = covariate_sigma_hat(star_tree(8, 1.0), X)
        assert np.isclose(Sg[0, 0], np.var(X, ddof=1))

    def test_wishart_mean_monte_carlo(self):
        # E[Sigma-hat] = Sigma: 2000 replicates on a fixed 32-tip tree.
        tree = random_tree(32, seed=11, ultrametric=True)
        Sigma = np.array([[1.0, 0.4], [0.4, 0.8]])
        X, _ = simulate_traits(
            tree, [0.0, 0.0, 0.0], Sigma, 1.0, seed=21, reps=2000
        )
        ests = np.array([covariate_sigma_hat(tree, X[r]) for r in range(2000)])
        mean = ests.mean(axis=0)
        se = ests.std(axis=0, ddof=1) / np.sqrt(2000)
        assert np.all(np.abs(mean - Sigma) < 3 * se)

    def test_requires_two_tips(self):
        tree = parse_newick("A:1;")
        with pytest.raises(DegenerateFitError):
            covariate_sigma_hat(tree, np.ones((1, 1)))


class TestShrinkage:
    def test_unit_information_halves(self):
        tree = star_tree(4, 4.0)  # 1'V^{-1}1 = 1
        Y = np.array([2.0, 6.0, 4.0, 8.0])
        fit = gls_fit(tree, np.ones((4, 1)), Y)
        assert np.isclose(fit.xtvix[0, 0], 1.0)
        assert np.allclose(shrinkage_estimate(fit), fit.beta / 2)

    def test_huge_information_is_identity(self, three_tip):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=3)
        fit = gls_fit(three_tip, np.ones((3, 1)), Y)
        boosted = GlsFitBoost(fit, factor=1e12)
        out = shrinkage_estimate(boosted)
        assert np.allclose(out, fit.beta, rtol=1e-10)

    def test_scalar_identity(self):
        tree = star_tree(6, 0.5)
        Y = np.arange(6.0)
        fit = gls_fit(tree, np.ones((6, 1)), Y)
        a = fit.xtvix[0, 0]
        assert np.allclose(shrinkage_estimate(fit), fit.beta * a / (1 + a))

    def test_contraction_componentwise(self):
        rng = np.random.default_rng(9)
        for seed in range(20):
            tree = random_tree(12, seed=900 + seed)
            X = np.column_stack([np.ones(12), rng.normal(size=12)])
            Y = rng.normal(size=12)
            fit = gls_fit(tree, X, Y)
            if not np.allclose(fit.xtvix, np.diag(np.diag(fit.xtvix)), atol=1e-12):
                # Contraction ordering is only guaranteed for diagonal X'V^{-1}X;
                # build that case explicitly.
                d = np.diag(fit.xtvix).copy()
                fit = fit_with_diag(fit, d)
            out = shrinkage_estimate(fit)
            assert np.all(np.abs(out) <= np.abs(fit.beta) + 1e-12)


def GlsFitBoost(fit, factor):
    """Copy of a fit with the information matrix scaled up."""
    from dataclasses import replace

    return replace(
        fit, xtvix=fit.xtvix * factor, xtvix_inv=fit.xtvix_inv / factor
    )


def fit_with_diag(fit, d):
    from dataclasses import replace

    return replace(fit, xtvix=np.diag(d), xtvix_inv=np.diag(1.0 / d))


class TestShiftModel:
    def test_constant_response_zero_shift(self, four_tip):
        for mode in ("S", "SB"):
            fit = fit_shift_model(four_tip, None, np.ones(4), ShiftSpec("ab", mode))
            assert abs(fit.beta[1]) < 1e-10

    def test_sb_refuses_what_the_dense_sb_covariance_refuses(self):
        # Each block alone is well conditioned, but the top block's pivot
        # 5e-9 is below 1e-12 x the bottom block's diagonal 1e4.
        tree = parse_newick(cherry_beside_star_newick(5e-9))
        n = tree.n_tips
        Y = np.random.default_rng(0).normal(size=n)
        spec = ShiftSpec("ab", "SB")
        D = np.column_stack([np.ones(n), np.arange(n) < 2])
        with pytest.raises(SingularCovarianceError):
            fit_shift_model(tree, None, Y, spec)
        with pytest.raises(SingularCovarianceError):
            quadratic_forms_dense(sb_covariance(tree, spec), D, Y)

    def test_sb_accepted_neighbour_fits_its_closed_form(self):
        tree = parse_newick(cherry_beside_star_newick(1e-7))
        n = tree.n_tips
        Y = np.random.default_rng(0).normal(size=n)
        spec = ShiftSpec("ab", "SB")
        D = np.column_stack([np.ones(n), np.arange(n) < 2])
        quadratic_forms_dense(sb_covariance(tree, spec), D, Y)  # accepted
        fit = fit_shift_model(tree, None, Y, spec)
        # Both blocks are i.i.d.: b0 is the star tips' mean and b0 + b1 the
        # mean of A and B.  The 2x2 normal equations (condition ~4e8) bound
        # the agreement.
        y = dict(zip(tree.tip_labels, map(Fraction, Y.tolist())))
        b0 = sum(y[f"t{i}"] for i in range(1000)) / 1000
        b1 = (y["A"] + y["B"]) / 2 - b0
        for got, want in zip(fit.beta, (b0, b1)):
            assert abs(Fraction(float(got)) - want) <= abs(want) / 10 ** 7

    def test_modes_differ_and_match_their_oracles(self):
        # Focal cherry nested below a root child: in "S" mode its tips stay
        # correlated with part of the bottom group, so the point estimate
        # genuinely differs from the conditioned "SB" fit.
        tree = parse_newick(
            "(((A:0.2,B:0.3)ab:0.2,C:0.4)abc:0.3,(D:0.3,E:0.6)de:0.2);"
        )
        rng = np.random.default_rng(4)
        Y = rng.normal(size=5) + np.array([1.5, 1.5, 0.0, 0.0, 0.0])
        D = np.column_stack([np.ones(5), [1.0, 1.0, 0.0, 0.0, 0.0]])
        fit_s = fit_shift_model(tree, None, Y, ShiftSpec("ab", "S"))
        fit_sb = fit_shift_model(tree, None, Y, ShiftSpec("ab", "SB"))
        beta_s, cov_s, _ = dense_gls_oracle(bm_covariance(tree), D, Y)
        beta_sb, cov_sb, _ = dense_gls_oracle(
            sb_covariance(tree, ShiftSpec("ab", "SB")), D, Y
        )
        assert np.allclose(fit_s.beta, beta_s, atol=1e-10)
        assert np.allclose(fit_sb.beta, beta_sb, atol=1e-10)
        assert np.allclose(fit_s.xtvix_inv, cov_s, atol=1e-10)
        assert np.allclose(fit_sb.xtvix_inv, cov_sb, atol=1e-10)
        assert abs(fit_s.beta[1] - fit_sb.beta[1]) > 1e-6

    def test_prop4_variance_floors_on_fixture(self, four_tip):
        # t1 = 0.3, t_top = 0.2, k_top = 2: floors 0.4 (S) and 0.1 (SB)
        # on the unit-variance coefficient covariance.
        rng = np.random.default_rng(5)
        Y = rng.normal(size=4)
        fit_s = fit_shift_model(four_tip, None, Y, ShiftSpec("ab", "S"))
        fit_sb = fit_shift_model(four_tip, None, Y, ShiftSpec("ab", "SB"))
        assert fit_s.xtvix_inv[1, 1] >= 0.3 + 0.2 / 2 - 1e-12
        assert fit_sb.xtvix_inv[1, 1] >= 0.2 / 2 - 1e-12
        assert fit_s.shift.subtending_length == 0.3
        assert fit_s.shift.k_top == 2
        assert fit_s.shift.t_top_min == 0.2

    def test_with_covariates_matches_oracle(self, four_tip):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 1))
        Y = rng.normal(size=4)
        fit = fit_shift_model(four_tip, X, Y, ShiftSpec("ab", "SB"))
        D = np.column_stack([np.ones(4), [1, 1, 0, 0], X])
        beta, _, _ = dense_gls_oracle(sb_covariance(four_tip, ShiftSpec("ab", "SB")), D, Y)
        assert np.allclose(fit.beta, beta, atol=1e-10)

    def test_focal_must_be_internal_nonroot(self, four_tip):
        with pytest.raises(TreeError):
            fit_shift_model(four_tip, None, np.zeros(4), ShiftSpec(four_tip.root, "S"))
        with pytest.raises(TreeError):
            fit_shift_model(
                four_tip, None, np.zeros(4), ShiftSpec(four_tip.tip_ids[0], "S")
            )

    def test_all_tips_in_subtree_rejected(self):
        tree = parse_newick("((A:1,B:1):1);")
        focal = tree.children[tree.root][0]
        with pytest.raises(TreeError, match="collinear"):
            fit_shift_model(tree, None, np.zeros(2), ShiftSpec(focal, "S"))

    def test_bad_mode_rejected(self):
        with pytest.raises(TreeError):
            ShiftSpec("ab", "X")

    @pytest.mark.parametrize("seed", range(10))
    def test_sb_rows_are_the_focal_slice_and_its_complement(self, seed):
        # The SB forms take the top subtree's rows as [lo, hi) and the
        # bottom subtree's as the rest: both subtrees keep canonical order.
        tree = random_tree(4 + seed, seed=300 + seed)
        labels = tree.tip_labels
        for focal in range(tree.n_nodes):
            if tree.is_tip(focal) or focal == tree.root:
                continue
            res = _resolve_shift(tree, ShiftSpec(focal, "SB"))
            lo, hi = tree.tip_range[res.focal_node]
            top, bottom = shift_pieces(tree, res.focal_node)
            assert top.tip_labels == labels[lo:hi]
            assert bottom.tip_labels == labels[:lo] + labels[hi:]

    @pytest.mark.parametrize("text", [
        "(((A:0.3,B:0.1,C:0.2)x:0.5,D:1):1,E:2);",
        "(((A:0.0,B:-0.0)x:0.5,D:1):1,E:2);",
        "(((A:-0.0,B:0.0,C:0.7)x:0.5,D:1):1,E:2);",
    ])
    def test_top_children_of_the_focal_node(self, text):
        """k_top and t_top_min count and compare the focal node's children
        in id order, the first of equal minima (and its zero sign) winning."""
        tree = parse_newick(text)
        res = _resolve_shift(tree, ShiftSpec("x", "S"))
        kids = tree.children[res.focal_node]
        want = min(float(tree.edge_length[c]) for c in kids)
        assert res.k_top == len(kids)
        assert np.array([res.t_top_min]).tobytes() == np.array([want]).tobytes()


class TestTraitTable:
    def make_csv(self, tmp_path, text):
        path = tmp_path / "traits.csv"
        path.write_text(text)
        return path

    def test_roundtrip(self, tmp_path, three_tip):
        path = self.make_csv(
            tmp_path, "tip,mass,temp\nC,3.0,0.3\nA,1.0,0.1\nB,2.0,0.2\n"
        )
        data = load_traits(path, three_tip)
        assert data.y_name == "mass"
        assert data.x_names == ("temp",)
        # Rows realigned to canonical order A, B, C.
        assert np.allclose(data.Y, [1.0, 2.0, 3.0])
        assert np.allclose(data.X[:, 0], [0.1, 0.2, 0.3])
        D = data.design()
        assert D.shape == (3, 2)
        assert np.allclose(D[:, 0], 1.0)

    def test_missing_tip(self, tmp_path, three_tip):
        path = self.make_csv(tmp_path, "tip,mass\nA,1\nB,2\n")
        with pytest.raises(TraitTableError, match="missing"):
            load_traits(path, three_tip)

    def test_extra_tip(self, tmp_path, three_tip):
        path = self.make_csv(tmp_path, "tip,mass\nA,1\nB,2\nC,3\nD,4\n")
        with pytest.raises(TraitTableError, match="not in the tree"):
            load_traits(path, three_tip)

    def test_non_numeric(self, tmp_path, three_tip):
        path = self.make_csv(tmp_path, "tip,mass\nA,1\nB,x\nC,3\n")
        with pytest.raises(TraitTableError, match="non-numeric") as exc:
            load_traits(path, three_tip)
        assert exc.value.location == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite(self, tmp_path, three_tip, value):
        path = self.make_csv(tmp_path, f"tip,mass,temp\nA,1,0\n\nB,2,{value}\nC,3,0\n")
        with pytest.raises(TraitTableError, match="non-finite value in row for tip 'B'") as exc:
            load_traits(path, three_tip)
        assert exc.value.location == 3

    def test_duplicate_row(self, tmp_path, three_tip):
        path = self.make_csv(tmp_path, "tip,mass\nA,1\nA,2\nC,3\n")
        with pytest.raises(TraitTableError, match="duplicate"):
            load_traits(path, three_tip)

    def test_bad_header(self, tmp_path, three_tip):
        path = self.make_csv(tmp_path, "species,mass\nA,1\nB,2\nC,3\n")
        with pytest.raises(TraitTableError, match="header"):
            load_traits(path, three_tip)


def row_loop_traits(path, tree):
    """The csv row loop that ``load_traits`` replaced, kept as its reference."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraitTableError("empty trait table", location=0) from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "tip":
            raise TraitTableError(
                "header must be 'tip,<y-name>[,<x-names>...]'", location=0
            )
        y_name = header[1]
        x_names = tuple(header[2:])
        rows = {}
        linenos = []
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise TraitTableError(
                    f"row has {len(row)} fields, expected {len(header)}",
                    location=lineno,
                )
            tip = row[0].strip()
            if tip in rows:
                raise TraitTableError(f"duplicate row for tip {tip!r}", location=lineno)
            try:
                rows[tip] = [float(v) for v in row[1:]]
            except ValueError:
                raise TraitTableError(
                    f"non-numeric value in row for tip {tip!r}", location=lineno
                ) from None
            linenos.append(lineno)

    tree_tips = set(tree.tip_labels)
    extra = sorted(set(rows) - tree_tips)
    missing = sorted(tree_tips - set(rows))
    if extra:
        raise TraitTableError(f"rows for tips not in the tree: {extra}")
    if missing:
        raise TraitTableError(f"missing rows for tips: {missing}")

    data = np.array([rows[lab] for lab in tree.tip_labels])
    finite = np.isfinite(data)
    if not finite.all():
        bad = {tree.tip_labels[i] for i in np.flatnonzero(~finite.all(axis=1))}
        lineno, tip = next((ln, tip) for ln, tip in zip(linenos, rows) if tip in bad)
        raise TraitTableError(
            f"non-finite value in row for tip {tip!r}", location=lineno
        )
    return TraitData(y_name, x_names, data[:, 0].copy(), data[:, 1:].copy(), tree.tip_labels)


TABLE_TREE = "((A:1,B:1)ab:1,(C:1,(D:1,E:1)de:1):1,F:2,G:0.5);"
VALUE_FORMS = ["{!r}", "{:.3g}", "{:e}", " {!r}", "{!r}  ", "\t{:.2f}\t"]
ODD_VALUES = ["7", "1_000", "+.5", "-0", "1E3", "5.", "-.25e-2", " 12 ", "\u0661\u0662"]
BAD_VALUES = ["x", "", " ", "1..2", "0x10", "1,5", "1e", "--1", "1_", "nan", "inf",
              "-inf", "1e999", "NaN", "-Infinity"]
EDIT_CHARS = ',\n\r" x1.e-_\t'


def valid_table(rng, tree):
    """A table ``load_traits`` accepts, as (header, rows, line ending, blanks)."""
    header = ["tip", "y"] + [f"x{j}" for j in range(int(rng.integers(0, 3)))]
    header = [h if rng.random() < 0.8 else f" {h} " for h in header]
    rows = []
    for tip in rng.permutation(tree.tip_labels):
        label = str(tip) if rng.random() < 0.7 else f"  {tip} "
        values = []
        for _ in header[1:]:
            if rng.random() < 0.2:
                values.append(str(rng.choice(ODD_VALUES)))
            else:
                form = str(rng.choice(VALUE_FORMS))
                values.append(form.format(float(rng.normal(scale=10.0))))
        rows.append([label] + values)
    return header, rows


def table_text(rng, header, rows):
    """Lines joined with a random ending, a few blank lines, maybe quotes."""
    end = str(rng.choice(["\n", "\n", "\r\n", "\r"]))
    lines = [",".join(header)]
    for row in rows:
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "  ", "\t"])))
        if rng.random() < 0.1:
            row = [f'"{field}"' if rng.random() < 0.5 else field for field in row]
        lines.append(",".join(row))
    text = end.join(lines)
    return text + end if rng.random() < 0.8 else text


def mutated_table(rng, tree, header, rows):
    """(header, rows) with one structural fault (or a quirk that is not one)."""
    header, rows = list(header), [list(r) for r in rows]
    i = int(rng.integers(len(rows)))
    kind = int(rng.integers(10))
    if kind == 0:
        rows[i] = rows[i][:-1]
    elif kind == 1:
        rows[i] = rows[i] + ["1"]
    elif kind == 2:
        rows.insert(int(rng.integers(len(rows) + 1)), list(rows[i]))
    elif kind == 3:
        rows[i][0] = str(rng.choice(["ab", "de", " ab"]))
    elif kind == 4:
        rows[i][0] = str(rng.choice(["Z", "a", "A B", ""]))
    elif kind == 5:
        del rows[i]
    elif kind in (6, 7):
        rows[i][int(rng.integers(1, len(header)))] = str(rng.choice(BAD_VALUES))
    elif kind == 8:
        header[0] = str(rng.choice(["species", "Tip", ""]))
    else:
        header = header[:1]
        rows = [r[:1] for r in rows]
    return header, rows


def edited(rng, text):
    """``text`` with one character inserted, deleted or replaced."""
    at = int(rng.integers(len(text) + 1))
    c = str(rng.choice(list(EDIT_CHARS)))
    op = int(rng.integers(3))
    if op == 0 or at == len(text):
        return text[:at] + c + text[at:]
    return text[:at] + ("" if op == 1 else c) + text[at + 1:]


def table_corpus(seed, tree):
    rng = np.random.default_rng(seed)
    texts = ["", "\n", "tip,y\n", "tip,y", "tip\n", " tip , y \n\n  \n"]
    for _ in range(40):
        header, rows = valid_table(rng, tree)
        valid = table_text(rng, header, rows)
        texts.append(valid)
        texts.append(table_text(rng, *mutated_table(rng, tree, header, rows)))
        texts.extend(edited(rng, valid) for _ in range(3))
    return texts


def read_outcome(reader, path, tree):
    try:
        data = reader(path, tree)
    except TraitTableError as exc:
        return ("refused", str(exc), exc.location)
    return (
        "read", data.y_name, data.x_names, data.tip_labels,
        data.Y.dtype, data.Y.shape, data.Y.tobytes(),
        data.X.dtype, data.X.shape, data.X.tobytes(),
    )


class TestTraitTableReader:
    """``load_traits`` against the csv row loop it replaced, on a seeded
    corpus of valid and faulty tables."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_row_loop(self, tmp_path, seed):
        tree = parse_newick(TABLE_TREE)
        path = tmp_path / "traits.csv"
        kinds = set()
        for text in table_corpus(seed, tree):
            path.write_bytes(text.encode())
            want = read_outcome(row_loop_traits, path, tree)
            assert read_outcome(load_traits, path, tree) == want, repr(text)
            kinds.add(want[0] if want[0] == "read" else want[1].split(" ")[0])
        # Accepted tables and several kinds of fault were both seen.
        assert "read" in kinds and len(kinds) >= 5

    @pytest.mark.parametrize("seed", range(2))
    def test_plain_tables_skip_the_row_loop(self, tmp_path, monkeypatch, seed):
        tree = parse_newick(TABLE_TREE)
        rng = np.random.default_rng(seed)
        path = tmp_path / "traits.csv"

        def refuse(text, tree):
            raise AssertionError("row loop ran on a plain valid table")

        for _ in range(20):
            header, rows = valid_table(rng, tree)
            text = "\n".join(",".join(r) for r in [header] + rows) + "\n\n  \n"
            path.write_text(text)
            want = read_outcome(row_loop_traits, path, tree)
            monkeypatch.setattr(gls, "_read_rows", refuse)
            assert read_outcome(load_traits, path, tree) == want
            monkeypatch.undo()

    def test_blocks_match_one_block(self, tmp_path, monkeypatch):
        tree = random_tree(300, seed=5)
        rng = np.random.default_rng(5)
        path = tmp_path / "traits.csv"
        lines = ["tip,y,x1,x2,x3"]
        lines += [f"{t}," + ",".join(repr(v) for v in rng.normal(size=4))
                  for t in rng.permutation(tree.tip_labels)]
        path.write_text("\n".join(lines) + "\n")
        want = read_outcome(row_loop_traits, path, tree)
        for cells in (1, 7, 64, 10**6):
            monkeypatch.setattr(gls, "_BLOCK_CELLS", cells)
            assert read_outcome(load_traits, path, tree) == want

    @pytest.mark.parametrize("where", ["label", "value"])
    def test_field_past_the_csv_limit(self, tmp_path, where):
        """csv refuses a field longer than its limit; so does the reader."""
        tree = parse_newick("(A:1,B:1);")
        long = "0" * (csv.field_size_limit() + 1)
        row = f"{long},1" if where == "label" else f"A,{long}"
        path = tmp_path / "traits.csv"
        path.write_text(f"tip,y\n{row}\nB,2\n")
        with pytest.raises(csv.Error):
            row_loop_traits(path, tree)
        with pytest.raises(TraitTableError, match="field larger than field limit") as exc:
            load_traits(path, tree)
        assert exc.value.location == 1

    def test_field_past_the_csv_limit_in_the_header(self, tmp_path):
        tree = parse_newick("(A:1,B:1);")
        path = tmp_path / "traits.csv"
        path.write_text(f"tip,{'y' * (csv.field_size_limit() + 1)}\nA,1\nB,2\n")
        with pytest.raises(TraitTableError) as exc:
            load_traits(path, tree)
        assert exc.value.location == 0

    def test_unreadable_files(self, tmp_path):
        tree = parse_newick("(A:1,B:1);")
        with pytest.raises(ConfigError, match="cannot read trait file"):
            load_traits(tmp_path / "missing.csv", tree)
        path = tmp_path / "traits.csv"
        path.write_bytes(b"tip,y\nA,1\nB,\xff2\n")
        with pytest.raises(ConfigError, match="cannot read trait file"):
            load_traits(path, tree)
