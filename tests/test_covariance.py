"""Covariance construction and the dense/pruning quadratic-form paths."""

import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from treegls import (
    ConfigError,
    CovarianceSpec,
    PhyloTree,
    ShiftSpec,
    SingularCovarianceError,
    TreeError,
    TreeGlsError,
    bm_covariance,
    ess_lineage,
    gls_fit,
    ou_covariance,
    parse_newick,
    quadratic_forms_dense,
    quadratic_forms_pruning,
    restrict_to_tips,
    sb_covariance,
    scaled_ess_pruning,
    symmetric_tree_eigenvalues,
    tree_stats,
)
from treegls import covariance
from treegls.covariance import _contrast_sweep, _forms, _sweep_blocks
from treegls.gls import _resolve_shift
from treegls.tree import _heights_below
from treegls.simlab import (
    ConvergenceConfig,
    ReplicationSpec,
    SymmetricTreeSpec,
    family_tree,
    make_replicated_tree,
    make_symmetric_tree,
    random_tree,
    star_tree,
)

from conftest import (
    bm_covariance_reference,
    caterpillar_newick,
    coalescent_tree,
    comb_of_clades,
    dense_scaled_ess,
    normwise_gap,
    sb_covariance_reference,
    shift_pieces,
    tailed_tree,
    trees,
)


class TestBmCovariance:
    def test_star_identity(self):
        V = bm_covariance(star_tree(3, 1.0))
        assert np.array_equal(V, np.eye(3))

    def test_three_tip_hand_matrix(self, three_tip):
        expected = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(bm_covariance(three_tip), expected, atol=1e-15)

    def test_single_tip(self):
        V = bm_covariance(parse_newick("A:2.5;"))
        assert np.array_equal(V, [[2.5]])

    def test_coincident_tips_rejected(self):
        with pytest.raises(SingularCovarianceError):
            bm_covariance(parse_newick("((A:0,B:0):1,C:1);"))

    def test_zero_edge_distinct_tips_ok(self):
        V = bm_covariance(parse_newick("((A:0,B:1):1,C:2);"))
        assert np.linalg.matrix_rank(V) == 3


def dense_outcome(call):
    """The bytes of a dense matrix, or the type and message of its refusal."""
    try:
        return call().tobytes()
    except SingularCovarianceError as exc:
        return type(exc), str(exc)


# Zero and negative-zero edges, a labelled unary root, unary chains.
BLOCK_RULE_TEXTS = [
    "((A:0,B:0):1,C:1);",
    "((A:-0,B:0):0,C:0);",
    "((A:0,B:-0.0,C:1):1,D:1);",
    "(((A:0,B:1):0,C:0):1,D:1);",
    "(((A:0):0,B:1):0,C:2);",
    "(A:0,B:0);",
    "((A:1,B:2)u:0.5)root;",
    "(((A:1,B:1)u:-0)v:0)root;",
    "((A:1):0,(B:0):1)r;",
    "((A:1e20,B:1e20):1,C:1e20);",
]


class TestBlockRule:
    """The dense covariances read the preorder runs; the pair loop of
    ``bm_covariance_reference`` is the reference, bit for bit."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_and_polytomy_trees(self, seed):
        n = int(np.random.default_rng(seed).integers(2, 60))
        tree = random_tree(n, seed=4000 + seed, ultrametric=seed % 3 == 0,
                           polytomy_prob=0.4 * (seed % 2))
        assert dense_outcome(lambda: bm_covariance(tree)) == dense_outcome(
            lambda: bm_covariance_reference(tree))

    @given(trees((0.0, -0.0, 0.5, 1.0)))
    def test_zero_edges_and_unary_nodes(self, tree):
        assert dense_outcome(lambda: bm_covariance(tree)) == dense_outcome(
            lambda: bm_covariance_reference(tree))

    @pytest.mark.parametrize("text", BLOCK_RULE_TEXTS + [caterpillar_newick(300)])
    def test_texts(self, text):
        tree = parse_newick(text)
        assert dense_outcome(lambda: bm_covariance(tree)) == dense_outcome(
            lambda: bm_covariance_reference(tree))

    @pytest.mark.parametrize("seed", range(20))
    def test_sb_every_focal_node(self, seed):
        tree = (random_tree(40, seed=4100 + seed, polytomy_prob=0.4) if seed % 2
                else decorated_tree(seed))
        for u in focal_nodes(tree):
            got = dense_outcome(lambda: sb_covariance(tree, ShiftSpec(u, "SB")))
            assert got == dense_outcome(lambda: sb_covariance_reference(tree, u))

    @pytest.mark.parametrize("text", BLOCK_RULE_TEXTS)
    def test_sb_zero_edges(self, text):
        tree = parse_newick(text)
        for u in focal_nodes(tree):
            got = dense_outcome(lambda: sb_covariance(tree, ShiftSpec(u, "SB")))
            assert got == dense_outcome(lambda: sb_covariance_reference(tree, u))


class TestOuCovariance:
    def test_stationary_diagonal_is_one(self, three_tip):
        V = ou_covariance(three_tip, alpha=0.7, stationary=True)
        assert np.allclose(np.diag(V), 1.0)

    def test_stationary_off_diagonal(self):
        # Star tips at pairwise distance 2.
        V = ou_covariance(star_tree(3, 1.0), alpha=0.9, stationary=True)
        assert np.allclose(V[0, 1], np.exp(-1.8))

    def test_conditioned_small_alpha_matches_bm(self, three_tip):
        alpha = 1e-6
        V = ou_covariance(three_tip, alpha, stationary=False)
        bm = bm_covariance(three_tip)
        assert np.max(np.abs(V / (2 * alpha) - bm)) < 1e-5

    def test_alpha_must_be_positive(self, three_tip):
        with pytest.raises(TreeError):
            ou_covariance(three_tip, 0.0)
        with pytest.raises(TreeError):
            CovarianceSpec.ou(-1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("stationary", [False, True])
    def test_alpha_must_be_finite(self, three_tip, alpha, stationary):
        message = f"OU alpha must be finite and positive, got {alpha!r}"
        with pytest.raises(TreeError, match=message):
            ou_covariance(three_tip, alpha, stationary)
        with pytest.raises(TreeError, match=message):
            CovarianceSpec.ou(alpha, stationary)

    @pytest.mark.parametrize("stationary", [False, True])
    def test_distances_summed_under_a_long_stem(self, stationary):
        # d(A, B) = 2e-9 under a 1e9 stem; a difference of depths reads 0.
        V = ou_covariance(ratio_cherry(9), 1.0, stationary)
        assert V[0, 1] == pytest.approx(math.exp(-2e-9), rel=1e-15, abs=0.0)
        assert V[0, 0] == 1.0

    def test_tiny_alpha_fit_matches_brownian(self):
        # V tends to 2 alpha V_BM; 1 - exp(-2 alpha t) would cancel to ~1e-6.
        tree = parse_newick("((A:1,B:1):1,(C:0.5,D:1.5):1);")
        X, Y = np.ones((4, 1)), np.array([1.0, 2.0, 4.0, 3.0])
        bm = gls_fit(tree, X, Y, CovarianceSpec.bm())
        ou = gls_fit(tree, X, Y, CovarianceSpec.ou(1e-12))
        assert ou.beta[0] == pytest.approx(bm.beta[0], rel=1e-10, abs=0.0)


class TestDenseForms:
    def test_identity_covariance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 2))
        Y = rng.normal(size=5)
        f = quadratic_forms_dense(np.eye(5), X, Y)
        assert np.allclose(f.xtvix, X.T @ X)
        assert np.allclose(f.xtviy, X.T @ Y)
        assert f.logdet_v == 0.0
        assert abs(f.one_tvi_one - 5.0) < 1e-12

    def test_one_observation(self):
        f = quadratic_forms_dense(np.array([[4.0]]), np.ones((1, 1)), np.array([2.0]))
        assert abs(f.xtviy[0] - 0.5) < 1e-15

    def test_random_spd_against_explicit_inverse(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(6, 6))
        V = A @ A.T + 6 * np.eye(6)
        X = rng.normal(size=(6, 3))
        Y = rng.normal(size=6)
        Vi = np.linalg.inv(V)
        f = quadratic_forms_dense(V, X, Y)
        assert np.allclose(f.xtvix, X.T @ Vi @ X, rtol=1e-10)
        assert np.allclose(f.xtviy, X.T @ Vi @ Y, rtol=1e-10)
        assert abs(f.ytviy - Y @ Vi @ Y) < 1e-10 * abs(f.ytviy)
        assert abs(f.logdet_v - np.linalg.slogdet(V)[1]) < 1e-10

    def test_singular_reports_smallest_eigenvalue(self):
        V = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularCovarianceError) as exc:
            quadratic_forms_dense(V, np.ones((2, 1)), np.zeros(2))
        assert exc.value.min_eigenvalue is not None
        assert exc.value.min_eigenvalue < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, three_tip, bad):
        V = bm_covariance(three_tip)
        X, Y = np.ones((3, 1)), np.array([0.3, -0.1, 0.8])
        for which in ("V", "X", "Y"):
            args = {"V": V.copy(), "X": X.copy(), "Y": Y.copy()}
            args[which][-1] = bad
            with pytest.raises(ConfigError, match=f"{which} contains non-finite"):
                quadratic_forms_dense(args["V"], args["X"], args["Y"])

    def test_dimension_mismatch(self):
        with pytest.raises(TreeError):
            quadratic_forms_dense(np.eye(3), np.ones((2, 1)), np.zeros(3))


class TestPruningForms:
    def test_ones_column_matches_dense(self, three_tip):
        Y = np.array([0.3, -0.1, 0.8])
        fp = quadratic_forms_pruning(three_tip, np.ones((3, 1)), Y)
        fd = quadratic_forms_dense(bm_covariance(three_tip), np.ones((3, 1)), Y)
        assert abs(fp.one_tvi_one - fd.one_tvi_one) < 1e-12

    def test_symmetric_tree_closed_form(self):
        tree = make_symmetric_tree(SymmetricTreeSpec((2, 2), (0.5, 0.5)))
        s = scaled_ess_pruning(tree)
        assert abs(1.0 / s - 0.375) < 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_dense_on_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 33))
        p = int(rng.integers(1, 5))
        tree = random_tree(n, seed=3000 + seed, ultrametric=bool(seed % 3 == 0))
        X = rng.normal(size=(n, p))
        Y = rng.normal(size=n)
        fp = quadratic_forms_pruning(tree, X, Y)
        fd = quadratic_forms_dense(bm_covariance(tree), X, Y)
        assert np.allclose(fp.xtvix, fd.xtvix, rtol=1e-9)
        assert np.allclose(fp.xtviy, fd.xtviy, rtol=1e-9)
        assert np.isclose(fp.ytviy, fd.ytviy, rtol=1e-9)
        assert np.isclose(fp.logdet_v, fd.logdet_v, rtol=1e-9, atol=1e-9)
        assert np.isclose(fp.one_tvi_one, fd.one_tvi_one, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_dense_with_polytomies(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))
        tree = random_tree(n, seed=3500 + seed, polytomy_prob=0.4)
        X = rng.normal(size=(n, 2))
        Y = rng.normal(size=n)
        fp = quadratic_forms_pruning(tree, X, Y)
        fd = quadratic_forms_dense(bm_covariance(tree), X, Y)
        assert np.allclose(fp.xtvix, fd.xtvix, rtol=1e-9)
        assert np.isclose(fp.logdet_v, fd.logdet_v, rtol=1e-9, atol=1e-9)
        assert np.isclose(fp.one_tvi_one, fd.one_tvi_one, rtol=1e-9)

    @pytest.mark.parametrize(
        "newick",
        [
            "((A:0,B:1):1,C:2);",           # zero-length tip edge
            "((A:0.5,B:0.5):0,C:1.0);",     # zero-length internal edge
            "(((A:0,B:1):0,C:2):1,D:1);",   # stacked zeros
            "((A:0,B:1,D:0.5):1,C:2);",     # zero tip edge in a polytomy
            "(((A:1,B:2):0.5):0.5,C:1);",   # unary chain
            "((((A:1):0.5,B:2):0):0.25,C:1,D:0.5);",  # unary, zero, polytomy
            "(A:1,B:2,C:3,D:4,E:5);",       # star polytomy
            "((A:0.5,B:0.5):0,(C:0,D:1):2);",  # zero internal and tip edges
            "(((A:0):0,B:1):1,C:1);",       # zero chain above a tip
            "((A:-0,B:1):1,C:2);",          # -0 tip edges, read as 0
            "((A:-0,B:1):1,(C:1,D:2):1);",
            "((A:-0,B:1,D:0.5):1,C:2);",
            "((A:0.5,B:0.5):-0,(C:-0,D:1):2);",
            "(((A:-0):-0,B:1):1,C:1);",
        ],
    )
    def test_zero_edges_match_dense(self, newick):
        tree = parse_newick(newick)
        n = tree.n_tips
        rng = np.random.default_rng(1)
        X = rng.normal(size=(n, 2))
        Y = rng.normal(size=n)
        fp = quadratic_forms_pruning(tree, X, Y)
        fd = quadratic_forms_dense(bm_covariance(tree), X, Y)
        assert np.allclose(fp.xtvix, fd.xtvix, rtol=1e-9)
        assert np.allclose(fp.xtviy, fd.xtviy, rtol=1e-9)
        assert np.isclose(fp.logdet_v, fd.logdet_v, rtol=1e-9, atol=1e-9)
        assert np.isclose(fp.ytviy, fd.ytviy, rtol=1e-9)
        assert np.isclose(fp.one_tvi_one, fd.one_tvi_one, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, three_tip, bad):
        X, Y = np.ones((3, 1)), np.array([0.3, -0.1, 0.8])
        X_bad, Y_bad = X.copy(), Y.copy()
        X_bad[1, 0] = Y_bad[2] = bad
        with pytest.raises(ConfigError, match="X contains non-finite"):
            quadratic_forms_pruning(three_tip, X_bad, Y)
        with pytest.raises(ConfigError, match="Y contains non-finite"):
            quadratic_forms_pruning(three_tip, X, Y_bad)

    def test_zero_length_cherry_rejected(self):
        tree = parse_newick("((A:0,B:0):1,C:1);")
        with pytest.raises(SingularCovarianceError):
            quadratic_forms_pruning(tree, np.ones((3, 1)), np.zeros(3))

    def test_block_additivity_over_root_subtrees(self, four_tip):
        # V is block diagonal per root child, so 1'V^{-1}1 sums over blocks.
        s_full = scaled_ess_pruning(four_tip)
        left = parse_newick("(A:0.2,B:0.2):0.3;")
        right = parse_newick("(C:0.2,D:0.2):0.3;")
        assert abs(s_full - scaled_ess_pruning(left) - scaled_ess_pruning(right)) < 1e-12

    def test_ones_column_matches_one_tvi_one(self, three_tip):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(3), rng.normal(size=3)])
        Y = rng.normal(size=3)
        for f in (
            quadratic_forms_pruning(three_tip, X, Y),
            quadratic_forms_dense(bm_covariance(three_tip), X, Y),
        ):
            assert np.isclose(f.xtvix[0, 0], f.one_tvi_one, rtol=1e-12)

    def test_masked_equals_restricted(self):
        from treegls import restrict_to_tips

        tree = random_tree(12, seed=9, ultrametric=True)
        rng = np.random.default_rng(4)
        mask = np.zeros(12, dtype=bool)
        mask[rng.choice(12, size=5, replace=False)] = True
        keep = [lab for lab, m in zip(tree.tip_labels, mask) if m]
        restricted = restrict_to_tips(tree, keep)
        assert np.isclose(
            scaled_ess_pruning(tree, mask),
            dense_scaled_ess(restricted),
            rtol=1e-10,
        )

    def test_large_tree_smoke(self):
        # 2^20 tips; the traversal is O(n) and must not materialize V.
        tree = make_replicated_tree(ReplicationSpec(d=2, q=0.8, m=20))
        n = tree.n_tips
        start = time.time()
        forms = quadratic_forms_pruning(tree, np.ones((n, 1)), np.zeros(n))
        s = scaled_ess_pruning(tree)
        elapsed = time.time() - start
        closed = 0.8 ** 19 / 2 + sum(
            0.2 * 0.8 ** (20 - i) / 2 ** i for i in range(2, 21)
        )
        assert abs(1.0 / s - closed) < 1e-12
        assert abs(forms.one_tvi_one - s) < 1e-9 * s
        assert elapsed < 60.0


def exact_cov(tree, focal=None):
    """The Brownian covariance in exact rationals of the tree's double edge
    lengths, as rows; with ``focal``, the "SB" block covariance cut there."""
    edges = [Fraction(float(e)) for e in tree.edge_length]
    depth = [Fraction(0)] * tree.n_nodes
    for u in tree.postorder[::-1]:
        p = int(tree.parent[u])
        if p >= 0:
            depth[u] = depth[p] + edges[u]
    paths = []
    for tip in tree.tip_ids:
        path, u = set(), tip
        while u >= 0:
            path.add(u)
            u = int(tree.parent[u])
        paths.append(path)
    n = tree.n_tips
    V = [[max(depth[a] for a in paths[i] & paths[j]) for j in range(n)] for i in range(n)]
    if focal is not None:
        lo, hi = tree.tip_range[focal]
        top = [lo <= i < hi for i in range(n)]
        for i in range(n):
            for j in range(n):
                if top[i] != top[j]:
                    V[i][j] = Fraction(0)
                elif top[i]:
                    V[i][j] -= depth[focal]
    return V


def exact_forms(V, Z):
    """(Z'V^{-1}Z, det V) in exact rationals, or None when V is exactly
    singular.  ``V`` holds rows of fractions; ``Z`` is a float array."""
    n, c = Z.shape
    Zf = [[Fraction(float(z)) for z in row] for row in Z]
    rows = [list(V[i]) + Zf[i] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = rows[col][col]
        if pivot == 0:
            return None
        det *= pivot
        for r in range(col + 1, n):
            f = rows[r][col] / pivot
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    sol = [[Fraction(0)] * c for _ in range(n)]
    for r in range(n - 1, -1, -1):
        for k in range(c):
            acc = rows[r][n + k] - sum(rows[r][q] * sol[q][k] for q in range(r + 1, n))
            sol[r][k] = acc / rows[r][r]
    G = [[sum(Zf[i][a] * sol[i][b] for i in range(n)) for b in range(c)] for a in range(c)]
    return G, det


def exact_gls(tree, Y):
    """(intercept, 1'V^{-1}1, det V) in exact rationals of the tree's double
    edge lengths, or None when V is exactly singular."""
    out = exact_forms(exact_cov(tree), np.column_stack([np.ones(tree.n_tips), Y]))
    if out is None:
        return None
    G, det = out
    return G[0][1] / G[0][0], G[0][0], det


def exact_logdet(det):
    return math.log(det.numerator) - math.log(det.denominator)


def rel_gap(got, want):
    return abs(float(got) - float(want)) / abs(float(want))


def ratio_cherry(k):
    a, c = 10.0 ** -k, 10.0 ** k
    return parse_newick(f"((A:{a!r},B:{a!r}):{c!r},C:{c!r});")


RATIO_Y = np.array([1.0, 2.0, 4.0])


# Two tips on unary stems so long that t p overflows for each stem's weight;
# V is diagonal, so 1'V^{-1}1 is the sum of the inverse tip heights.
OVERFLOW_STEMS = ["((A:1e-5):1.5e308,(B:1e-5):1e307);", "((A:1e-5):1e307,B:1e307);"]


class TestWeightOverflow:
    @pytest.mark.parametrize("text", OVERFLOW_STEMS)
    def test_scaled_ess_is_exact(self, text):
        tree = parse_newick(text)
        exact = sum(1 / sum(map(Fraction, row)) for row in exact_cov(tree))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = scaled_ess_pruning(tree)
        assert rel_gap(s, exact) < 1e-14
        assert s == sum(1.0 / tree.tip_heights)

    @pytest.mark.parametrize("text", ["((A:1e-310,B:1):1,C:1);", "((A:1e-310,B:1e-310):1,C:1);"])
    def test_subnormal_edge_needs_no_warning(self, text):
        """1/t of an edge below 1/DBL_MAX is infinite: the tip is pinned to
        its parent, as the dense path sees it, and nothing is printed."""
        tree = parse_newick(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = scaled_ess_pruning(tree)
            except SingularCovarianceError:
                got = None
        try:
            want = quadratic_forms_dense(bm_covariance(tree), np.ones((3, 1)), np.zeros(3))
        except SingularCovarianceError:
            want = None
        assert (got is None) == (want is None)
        if want is not None:
            assert rel_gap(got, want.one_tvi_one) < 1e-14

    @pytest.mark.parametrize("text", OVERFLOW_STEMS)
    def test_forms_match_the_dense_path(self, text):
        tree = parse_newick(text)
        X, Y = np.ones((2, 1)), np.array([1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadratic_forms_pruning(tree, X, Y)
        want = quadratic_forms_dense(bm_covariance(tree), X, Y)
        for a, b in [(got.xtvix, want.xtvix), (got.xtviy, want.xtviy),
                     (got.ytviy, want.ytviy), (got.logdet_v, want.logdet_v)]:
            assert np.allclose(a, b, rtol=1e-14, atol=0.0)


    @pytest.mark.parametrize("text", ["((A:1,B:5e-324):1,C:1);", "((A:1,B:1):1,C:1);"])
    @pytest.mark.parametrize("y", [1e300, 1.7e308])
    def test_overflowing_forms_refused(self, text, y):
        """Finite traits whose forms pass the float range: the same config
        error from both paths, and no warning."""
        tree = parse_newick(text)
        X, Y = np.ones((3, 1)), np.array([y, -y, y])
        messages = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for forms in (
                lambda: quadratic_forms_pruning(tree, X, Y),
                lambda: quadratic_forms_dense(bm_covariance(tree), X, Y),
                lambda: gls_fit(tree, X, Y),
            ):
                with pytest.raises(ConfigError, match="overflow the float range") as exc:
                    forms()
                messages.add(str(exc.value))
        assert len(messages) == 1


class TestDesignArrays:
    def test_row_vector_x_refused_on_every_path(self, four_tip):
        X, Y = np.ones((1, 4)), np.array([0.3, -0.1, 0.8, 0.2])
        calls = [
            lambda: quadratic_forms_pruning(four_tip, X, Y),
            lambda: quadratic_forms_dense(bm_covariance(four_tip), X, Y),
            lambda: gls_fit(four_tip, X, Y),
        ]
        for call in calls:
            with pytest.raises(TreeError, match="X must have 4 rows"):
                call()


class TestSweepBlocks:
    def test_blocks_match_one_sweep(self, monkeypatch):
        tree = random_tree(60, seed=8, polytomy_prob=0.2)
        masks = np.random.default_rng(8).random((60, 37)) < 0.4
        masks[0] = True
        whole = scaled_ess_pruning(tree, masks)
        for per_block in (1, 5, 36):
            monkeypatch.setattr(covariance, "_SWEEP_CELLS", per_block * tree.n_nodes)
            assert scaled_ess_pruning(tree, masks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("per_block", [1, 5, 36, 37])
    def test_built_masks_match_given_ones(self, monkeypatch, per_block):
        # A caller that builds and passes one block of masks at a time, as
        # the design searches do, gets the scores of one call on them all.
        tree = random_tree(60, seed=8, polytomy_prob=0.2)
        masks = np.random.default_rng(8).random((60, 37)) < 0.4
        masks[0] = True
        whole = scaled_ess_pruning(tree, masks)
        monkeypatch.setattr(covariance, "_SWEEP_CELLS", per_block * tree.n_nodes)
        blocks = list(_sweep_blocks(tree, 37))
        built = [scaled_ess_pruning(tree, masks[:, lo:hi]) for lo, hi in blocks]
        assert np.concatenate(built).tobytes() == whole.tobytes()
        assert [hi - lo for lo, hi in blocks[:-1]] == [per_block] * (len(blocks) - 1)
        assert 1 <= blocks[-1][1] - blocks[-1][0] <= per_block

    def test_built_masks_are_checked(self, monkeypatch):
        # The whole batch is checked before its first block is swept.
        tree = random_tree(6, seed=2)
        sweeps = []
        sweep = covariance._contrast_sweep

        def counting(*args):
            sweeps.append(args)
            return sweep(*args)

        monkeypatch.setattr(covariance, "_contrast_sweep", counting)
        monkeypatch.setattr(covariance, "_SWEEP_CELLS", tree.n_nodes)
        masks = np.ones((6, 4), dtype=bool)
        masks[:, 3] = False
        with pytest.raises(TreeError, match="at least one tip"):
            scaled_ess_pruning(tree, masks)
        with pytest.raises(TreeError, match="one entry per tip"):
            scaled_ess_pruning(tree, masks[1:])
        assert sweeps == []
        assert scaled_ess_pruning(tree, masks[:, :3]).shape == (3,)
        assert len(sweeps) == 3


class TestContrastSweep:
    @pytest.mark.parametrize("k", range(13))
    def test_ratio_cherry_exact_or_refused(self, k):
        tree = ratio_cherry(k)
        exact, _, _ = exact_gls(tree, RATIO_Y)
        try:
            fit = gls_fit(tree, np.ones((3, 1)), RATIO_Y)
        except SingularCovarianceError:
            assert k > 6, "a cherry of ratio 1e12 or less must be accepted"
            return
        assert k <= 6, "a cherry below the pivot threshold must be refused"
        assert rel_gap(fit.beta[0], exact) <= 1e-12

    @pytest.mark.parametrize("k", range(13))
    def test_ratio_cherry_refused_like_dense(self, k):
        tree = ratio_cherry(k)
        X = np.ones((3, 1))

        def refused(forms):
            try:
                forms()
            except SingularCovarianceError:
                return True
            return False

        assert refused(lambda: quadratic_forms_pruning(tree, X, RATIO_Y)) == refused(
            lambda: quadratic_forms_dense(bm_covariance(tree), X, RATIO_Y)
        )

    def test_wide_ratio_random_trees_exact_or_refused(self):
        accepted = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            shape = random_tree(int(rng.integers(2, 8)), seed=seed, polytomy_prob=0.3)
            edges = 10.0 ** rng.uniform(-6.0, 6.0, size=shape.n_nodes)
            edges[shape.root] = 0.0
            tree = PhyloTree(shape.parent, edges, shape.names)
            Y = rng.uniform(1.0, 2.0, size=tree.n_tips)
            exact, s, det = exact_gls(tree, Y)
            try:
                forms = quadratic_forms_pruning(tree, np.ones((tree.n_tips, 1)), Y)
            except SingularCovarianceError:
                continue
            accepted += 1
            beta = forms.xtviy[0] / forms.xtvix[0, 0]
            assert rel_gap(beta, exact) <= 1e-12, seed
            assert rel_gap(forms.one_tvi_one, s) <= 1e-12, seed
            assert abs(forms.logdet_v - exact_logdet(det)) <= 1e-10 * max(
                1.0, abs(forms.logdet_v)
            ), seed
        assert accepted >= 30

    @pytest.mark.parametrize(
        "newick", ["(A:0,B:1);", "((A:0):0,B:1);", "((A:0,B:0,C:1):1,D:1);"]
    )
    def test_tip_at_root_or_coincident_tips_refused(self, newick):
        tree = parse_newick(newick)
        with pytest.raises(SingularCovarianceError):
            scaled_ess_pruning(tree)
        with pytest.raises(SingularCovarianceError):
            quadratic_forms_dense(
                bm_covariance(tree), np.ones((tree.n_tips, 1)), np.zeros(tree.n_tips)
            )

    def test_masked_forms_match_dense_restricted(self):
        tree = random_tree(14, seed=5, polytomy_prob=0.4)
        rng = np.random.default_rng(6)
        Z = rng.normal(size=(14, 3))
        masks = rng.random((14, 8)) < 0.5
        masks[0] = True
        U, logdet, one, _ = _contrast_sweep(tree, Z, masks)
        for j in range(masks.shape[1]):
            keep = masks[:, j]
            restricted = restrict_to_tips(tree, np.asarray(tree.tip_labels)[keep])
            fd = quadratic_forms_dense(bm_covariance(restricted), Z[keep], np.zeros(keep.sum()))
            assert np.allclose(U[:, j].T @ U[:, j], fd.xtvix, rtol=1e-10, atol=1e-12)
            assert np.isclose(logdet[j], fd.logdet_v, rtol=1e-10, atol=1e-12)
            assert np.isclose(one[j], fd.one_tvi_one, rtol=1e-12)

    def test_batched_mask_score_equals_restricted_tree(self):
        tree = random_tree(20, seed=11, polytomy_prob=0.3)
        rng = np.random.default_rng(12)
        masks = rng.random((20, 50)) < 0.4
        masks[rng.integers(20, size=50), np.arange(50)] = True
        batched = scaled_ess_pruning(tree, masks)
        assert batched.shape == (50,)
        for j in range(50):
            keep = np.asarray(tree.tip_labels)[masks[:, j]]
            assert batched[j] == scaled_ess_pruning(tree, masks[:, j])
            assert np.isclose(
                batched[j], scaled_ess_pruning(restrict_to_tips(tree, keep)), rtol=1e-12
            )

    def test_mask_batch_validation(self):
        tree = random_tree(5, seed=1)
        with pytest.raises(TreeError):
            scaled_ess_pruning(tree, np.ones((4, 2), dtype=bool))
        masks = np.ones((5, 3), dtype=bool)
        masks[:, 1] = False
        with pytest.raises(TreeError):
            scaled_ess_pruning(tree, masks)


def focal_nodes(tree):
    """Every node a lineage shift may sit on: internal, not the root, and
    not above every tip."""
    return [
        u
        for u in range(tree.n_nodes)
        if not tree.is_tip(u)
        and u != tree.root
        and tree.tip_range[u, 1] - tree.tip_range[u, 0] < tree.n_tips
    ]


def decorated_tree(seed):
    """A random tree of 3-9 tips with polytomies, unary nodes splitting some
    edges and some zero-length edges."""
    rng = np.random.default_rng(seed)
    shape = random_tree(int(rng.integers(3, 10)), seed=seed, polytomy_prob=0.3)
    parent = shape.parent.tolist()
    edges = shape.edge_length.tolist()
    names = list(shape.names)
    for u in range(shape.n_nodes):
        if u == shape.root:
            continue
        if rng.random() < 0.25:
            parent.append(parent[u])
            edges.append(edges[u] / 2)
            names.append(None)
            parent[u] = len(parent) - 1
            edges[u] /= 2
        if rng.random() < 0.15:
            edges[u] = 0.0
    return PhyloTree(parent, edges, names)


def check_cut_sweep(tree, focal, rng, exact=False):
    """Check the cut sweep's SB forms, log det V and ESS pair (both modes)
    at ``focal`` against two references, and return whether it accepted.

    The dense SB oracle must refuse exactly when the sweep does and, unless
    ``exact``, agree with it to the pruning-vs-dense tolerance; with
    ``exact`` the values are held to exact rationals instead.  Sweeps of the
    two pieces as trees of their own must agree to 1e-12.
    """
    n = tree.n_tips
    res = _resolve_shift(tree, ShiftSpec(focal, "SB"))
    lo, hi = tree.tip_range[res.focal_node]
    ind = np.zeros(n)
    ind[lo:hi] = 1.0
    # The last column splits 1'V^{-1}1 into the bottom block's share.
    C = np.column_stack([np.ones(n), ind, rng.normal(size=n), 1.0 - ind])
    design, Y = C[:, :3], rng.normal(size=n)
    cut, refused = _refused(lambda: _forms(tree, design, Y, cut=res.focal_node))
    dense, dense_refused = _refused(
        lambda: quadratic_forms_dense(sb_covariance(tree, ShiftSpec(focal, "SB")), C, Y)
    )
    assert refused == dense_refused
    pairs = {m: _refused(lambda: ess_lineage(tree, ShiftSpec(focal, m))) for m in ("S", "SB")}
    assert all(r == refused for _, r in pairs.values())
    if refused:
        return False

    if exact:
        G, det = exact_forms(exact_cov(tree, focal), np.column_stack([C, Y]))
        G = np.array([[float(g) for g in row] for row in G])
        logdet, rtol = exact_logdet(det), 1e-12
    else:
        G = np.zeros((5, 5))
        G[:4, :4], G[:4, 4], G[4, 4] = dense.xtvix, dense.xtviy, dense.ytviy
        logdet, rtol = dense.logdet_v, 1e-9
    assert normwise_gap(cut.xtvix, G[:3, :3]) <= rtol
    assert normwise_gap(cut.xtviy, G[:3, 4]) <= rtol
    assert normwise_gap(cut.ytviy, G[4, 4]) <= rtol
    assert normwise_gap(cut.one_tvi_one, G[0, 0]) <= rtol
    assert abs(cut.logdet_v - logdet) <= 10 * rtol * max(1.0, abs(logdet))

    top, bottom = shift_pieces(tree, focal)
    rest = np.r_[0:lo, hi:n]
    f_top = quadratic_forms_pruning(top, design[lo:hi], Y[lo:hi])
    f_bot = quadratic_forms_pruning(bottom, design[rest], Y[rest])
    for name in ("xtvix", "xtviy", "ytviy", "one_tvi_one"):
        want = getattr(f_top, name) + getattr(f_bot, name)
        assert normwise_gap(getattr(cut, name), want) <= 1e-12, name
    want = f_top.logdet_v + f_bot.logdet_v
    assert abs(cut.logdet_v - want) <= 1e-12 * max(1.0, abs(want))

    s_top, s_bot = scaled_ess_pruning(top), scaled_ess_pruning(bottom)
    T_bot = tree_stats(bottom).height_mean
    for mode, T_top in (("S", tree_stats(tree)), ("SB", tree_stats(top))):
        pair, _ = pairs[mode]
        T_top = T_top.height_mean
        assert normwise_gap(pair.top, T_top * s_top) <= 1e-12
        assert normwise_gap(pair.bot, T_bot * s_bot) <= 1e-12
        assert normwise_gap(pair.top / T_top, G[1, 1]) <= rtol
        assert normwise_gap(pair.bot / T_bot, G[3, 3]) <= rtol
    return True


class TestCutSweep:
    """The "SB" model as one sweep with the focal edge cut."""

    @pytest.mark.parametrize("seed", range(40))
    def test_every_focal_node(self, seed):
        tree = decorated_tree(seed)
        rng = np.random.default_rng(seed)
        for focal in focal_nodes(tree):
            check_cut_sweep(tree, focal, rng)

    def test_wide_ratio_random_trees_refused_by_both_or_exact(self):
        # The trees of test_wide_ratio_random_trees_exact_or_refused.  The
        # dense oracle loses up to ~1e-6 on them (their conditioning), so
        # values are held to exact rationals and the oracle decides refusal
        # only.
        checked = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            shape = random_tree(int(rng.integers(2, 8)), seed=seed, polytomy_prob=0.3)
            edges = 10.0 ** rng.uniform(-6.0, 6.0, size=shape.n_nodes)
            edges[shape.root] = 0.0
            tree = PhyloTree(shape.parent, edges, shape.names)
            for focal in focal_nodes(tree):
                check_cut_sweep(tree, focal, rng, exact=True)
                checked += 1
        assert checked >= 100

    def test_threshold_counts_top_tips_from_the_focal_node(self):
        # From the root, the cherry's tips would set the threshold at 1e-6.
        tree = parse_newick("((A:1e-7,B:1e-7)ab:1e6,C:1,D:2);")
        rng = np.random.default_rng(0)
        assert check_cut_sweep(tree, tree.node_id("ab"), rng, exact=True)

    def test_dense_sb_covariance_sums_down_from_the_focal_node(self):
        # V_top - d_focal would cancel under the 1e6 stem (7.6e-6 off).
        tree = parse_newick("((A:1e-7,B:1e-7)ab:1e6,C:1,D:2);")
        rng = np.random.default_rng(0)
        Z = np.column_stack([np.ones(4), [1.0, 1.0, 0.0, 0.0], rng.normal(size=(4, 2))])
        V = sb_covariance(tree, ShiftSpec("ab", "SB"))
        dense = quadratic_forms_dense(V, Z[:, :3], Z[:, 3])
        G, det = exact_forms(exact_cov(tree, tree.node_id("ab")), Z)
        G = np.array([[float(g) for g in row] for row in G])
        assert normwise_gap(dense.xtvix, G[:3, :3]) <= 1e-14
        assert normwise_gap(dense.xtviy, G[:3, 3]) <= 1e-14
        assert normwise_gap(dense.ytviy, G[3, 3]) <= 1e-14
        assert normwise_gap(dense.one_tvi_one, G[0, 0]) <= 1e-14
        assert abs(dense.logdet_v - exact_logdet(det)) <= 1e-14 * abs(exact_logdet(det))

    def test_top_heights_sum_down_from_the_focal_node(self):
        # Under a long stem, depth differences would cancel.
        tree = parse_newick("(((A:1e-7,B:3e-7)ab:1e4,C:1e4):1,D:2e4);")
        ab = tree.node_id("ab")
        top, _ = shift_pieces(tree, ab)
        assert np.array_equal(_heights_below(tree, ab), top.tip_heights)
        assert not np.array_equal(tree.tip_heights[:2] - tree.depths[ab], top.tip_heights)
        pair = ess_lineage(tree, ShiftSpec("ab", "SB"), "max")
        assert pair.top == 3e-7 * scaled_ess_pruning(top)

    def test_cut_node_precision_returned_after_the_root(self):
        tree = parse_newick("(((A:1,B:1)ab:2,C:3):1,D:4);")
        _, logdet, one, _ = _contrast_sweep(
            tree, np.ones((4, 1)), cut=tree.node_id("ab")
        )
        # Bottom block: C and D at 4, sharing nothing; top block: A, B at 1.
        assert one.shape == (2, 1)
        assert one[:, 0].tolist() == [0.5, 2.0]
        assert np.isclose(logdet[0], math.log(16.0), rtol=1e-15)

    def test_log_det_formed_only_where_read(self, monkeypatch):
        calls = []
        finite_log = covariance._finite_log

        def counting(a):
            calls.append(a.shape)
            return finite_log(a)

        monkeypatch.setattr(covariance, "_finite_log", counting)
        tree = parse_newick("(((A:1,B:1)ab:2,C:3):1,D:4);")
        masks = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 1], [0, 1, 1]], dtype=bool)
        scaled_ess_pruning(tree, masks)
        ess_lineage(tree, ShiftSpec("ab", "SB"))
        assert calls == []
        _forms(tree, np.ones((4, 1)), np.arange(4.0))
        assert len(calls) == 2


MODERATE = (0.0, 0.25, 0.5, 1.0, 2.0)
WIDE = (0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6)


def _refused(call):
    try:
        return call(), False
    except SingularCovarianceError:
        return None, True


def with_random_edges(tree, seed):
    """``tree`` with edges drawn from 10^U(-1, 1), the root's 0."""
    edges = 10.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0, size=tree.n_nodes)
    edges[tree.root] = 0.0
    return PhyloTree(tree.parent, edges, tree.names)


def spine(tree):
    """A caterpillar's inner nodes, top down."""
    inner = np.flatnonzero(tree._n_children > 0)
    return inner[np.argsort(tree.levels[inner])].tolist()


def level_sweep(tree, Z, masks=None):
    """The sweep with one step per level, as on a wide tree."""
    return _contrast_sweep(tree, Z, masks, schedule=covariance._level_schedule(tree))


def chain_steps(tree):
    return [s for s in covariance._bottom_up_schedule(tree)[-1] if s[-1] is not None]


def caterpillar_pieces(inner):
    """A 36-tip caterpillar over two of 34 and 35 tips (``inner``), whose
    chains are scanned in two steps, or two caterpillars of 34 and 38 tips
    under one root, whose chains are scanned in one."""
    def piece(n, tag):
        return caterpillar_newick(n)[:-1].replace("t", tag)

    if inner:
        fork = f"({piece(34, 'a')}:0.5,{piece(35, 'b')}:1.5)"
        return parse_newick(caterpillar_newick(36)[:-1].replace("t0:1.0", fork + ":1.0", 1) + ";")
    return parse_newick(f"({piece(34, 'a')}:0.5,{piece(38, 'b')}:0.75);")


# Trees of 40 to 104 tips whose sweeps scan chains of 32 nodes or more.
CHAIN_TREES = {
    "caterpillar": lambda: parse_newick(caterpillar_newick(40)),
    "two caterpillars": lambda: caterpillar_pieces(inner=False),
    "nested caterpillars": lambda: caterpillar_pieces(inner=True),
    "comb": lambda: comb_of_clades(40, 0),
    "tailed": lambda: tailed_tree(3, 32),
    "caterpillar, random edges": lambda: with_random_edges(parse_newick(caterpillar_newick(40)), 1),
    "tailed, random edges": lambda: with_random_edges(tailed_tree(3, 32), 2),
}


class TestChainScan:
    """Chains of single-internal-child nodes swept by prefix scans."""

    @pytest.mark.parametrize("name", sorted(CHAIN_TREES))
    def test_matches_exact_rationals(self, name):
        tree = CHAIN_TREES[name]()
        assert chain_steps(tree)
        n = tree.n_tips
        rng = np.random.default_rng(3)
        X, Y = np.column_stack([np.ones(n), rng.normal(size=n)]), rng.normal(size=n)
        forms = quadratic_forms_pruning(tree, X, Y)
        G, det = exact_forms(exact_cov(tree), np.column_stack([X, Y]))
        G = np.array([[float(g) for g in row] for row in G])
        assert normwise_gap(forms.xtvix, G[:2, :2]) <= 1e-12
        assert normwise_gap(forms.xtviy, G[:2, 2]) <= 1e-12
        assert rel_gap(forms.ytviy, G[2, 2]) <= 1e-12
        assert rel_gap(forms.one_tvi_one, G[0, 0]) <= 1e-12
        assert abs(forms.logdet_v - exact_logdet(det)) <= 1e-12 * abs(forms.logdet_v)
        # The precisions do not depend on the columns swept.
        assert scaled_ess_pruning(tree) == forms.one_tvi_one

    @pytest.mark.parametrize("n", [300, 1000, 2000])
    @pytest.mark.parametrize("shape", ["caterpillar", "tailed"])
    def test_matches_dense_and_level_steps(self, n, shape):
        tree = parse_newick(caterpillar_newick(n)) if shape == "caterpillar" else tailed_tree(4, n - 16)
        assert tree.n_tips == n and chain_steps(tree)
        rng = np.random.default_rng(n)
        X, Y = np.column_stack([np.ones(n), rng.normal(size=n)]), rng.normal(size=n)
        forms = quadratic_forms_pruning(tree, X, Y)
        dense = quadratic_forms_dense(bm_covariance(tree), X, Y)
        assert rel_gap(forms.one_tvi_one, dense.one_tvi_one) <= 1e-12
        assert abs(forms.logdet_v - dense.logdet_v) <= 1e-12 * abs(dense.logdet_v)
        # The dense forms of a 2,000-deep caterpillar are off by up to 1e-11,
        # from the level steps' forms as much as from the scan's.
        assert normwise_gap(forms.xtvix, dense.xtvix) <= 1e-9
        assert normwise_gap(forms.xtviy, dense.xtviy) <= 1e-9
        U, logdet, one, _ = level_sweep(tree, np.column_stack([X, Y]))
        G = U[:, 0].T @ U[:, 0]
        assert normwise_gap(forms.xtvix, G[:2, :2]) <= 1e-13
        assert normwise_gap(forms.xtviy, G[:2, 2]) <= 1e-13
        assert rel_gap(forms.ytviy, G[2, 2]) <= 1e-13
        assert rel_gap(forms.one_tvi_one, one[0]) <= 1e-13

    @pytest.mark.parametrize("at", [0, 17, 37])
    @pytest.mark.parametrize("case", ["pinned tip", "coincident tips", "near tips", "zero edge"])
    def test_refused_like_dense(self, at, case):
        # Edits at the chain node ``at`` levels down a 40-tip caterpillar:
        # a tip on a zero-length edge pins it; a zero-length edge to the
        # next chain node, whose own tip is pinned too, makes two tips
        # coincide (or, at 1e-14, lie numerically at one position).
        tree = parse_newick(caterpillar_newick(40))
        nodes = spine(tree)
        u, v = nodes[at], nodes[at + 1]
        tip_u = [c for c in tree.children[u] if tree.is_tip(c)][0]
        tip_v = [c for c in tree.children[v] if tree.is_tip(c)][0]
        edges = tree.edge_length.copy()
        short = 1e-14 if case == "near tips" else 0.0
        if case in ("pinned tip", "coincident tips", "near tips"):
            edges[tip_u] = short
        if case in ("coincident tips", "near tips", "zero edge"):
            edges[v] = short
        if case in ("coincident tips", "near tips"):
            edges[tip_v] = short
        tree = PhyloTree(tree.parent, edges, tree.names)
        assert chain_steps(tree)
        n = tree.n_tips
        X, Y = np.ones((n, 1)), np.random.default_rng(at).normal(size=n)
        forms, refused = _refused(lambda: quadratic_forms_pruning(tree, X, Y))
        dense, dense_refused = _refused(lambda: quadratic_forms_dense(bm_covariance(tree), X, Y))
        # A tip on a zero-length edge below the root sits at the root.
        assert refused == dense_refused == (case in ("coincident tips", "near tips")
                                            or case == "pinned tip" and at == 0)
        assert _refused(lambda: scaled_ess_pruning(tree))[1] == refused
        if not refused:
            assert rel_gap(forms.one_tvi_one, dense.one_tvi_one) <= 1e-12
            assert rel_gap(forms.xtviy[0], dense.xtviy[0]) <= 1e-12
            assert abs(forms.logdet_v - dense.logdet_v) <= 1e-12 * abs(dense.logdet_v)

    @pytest.mark.parametrize("name", ["caterpillar", "nested caterpillars", "tailed, random edges"])
    def test_masked_batch_equals_single_masks(self, name):
        tree = CHAIN_TREES[name]()
        n = tree.n_tips
        rng = np.random.default_rng(21)
        Z = rng.normal(size=(n, 2))
        masks = rng.random((n, 12)) < 0.6
        masks[rng.integers(n, size=12), np.arange(12)] = True
        masks[:, 0] = True
        masks[:n // 2, 1] = False  # the first half of the tips dropped
        U, logdet, one, weight = _contrast_sweep(tree, Z, masks)
        batched = scaled_ess_pruning(tree, masks)
        for j in range(masks.shape[1]):
            U1, logdet1, one1, weight1 = _contrast_sweep(tree, Z, masks[:, j:j + 1])
            assert U[:, j].tobytes() == U1[:, 0].tobytes()
            assert one[j] == one1[0] == batched[j]
            assert weight[1:, j].tobytes() == weight1[1:, 0].tobytes()
            assert logdet[j].tobytes() == logdet1[0].tobytes()
            keep = np.asarray(tree.tip_labels)[masks[:, j]]
            assert rel_gap(batched[j], scaled_ess_pruning(restrict_to_tips(tree, keep))) <= 1e-12

    def test_scores_do_not_depend_on_the_batch(self, monkeypatch):
        # The schedule comes from the tree alone, so a subset's score is the
        # same float swept alone, in one wide block or in blocks of eight.
        tree = CHAIN_TREES["caterpillar"]()
        n = tree.n_tips
        masks = np.random.default_rng(5).random((n, 150)) < 0.6
        masks[0] = True
        wide = scaled_ess_pruning(tree, masks)
        assert [scaled_ess_pruning(tree, masks[:, j]) for j in range(masks.shape[1])] == list(wide)
        levels = _contrast_sweep(tree, np.empty((n, 0)), masks,
                                 schedule=covariance._level_schedule(tree))[2]
        assert np.max(np.abs(wide / levels - 1.0)) <= 1e-13
        monkeypatch.setattr(covariance, "_SWEEP_CELLS", 8 * tree.n_nodes)
        assert scaled_ess_pruning(tree, masks).tobytes() == wide.tobytes()

    @pytest.mark.parametrize("name", ["caterpillar", "tailed"])
    def test_empty_batch(self, name):
        tree = CHAIN_TREES[name]()
        got = scaled_ess_pruning(tree, np.zeros((tree.n_tips, 0), dtype=bool))
        assert got.shape == (0,)

    @pytest.mark.parametrize("at", [1, 20, 37, 38])
    def test_cut_at_a_chain_node(self, at):
        # Levels 1-37 are chain nodes; 38, the last cherry, ends the chain.
        tree = CHAIN_TREES["caterpillar, random edges"]()
        assert check_cut_sweep(tree, spine(tree)[at], np.random.default_rng(at), exact=True)


class TestChainSchedule:
    def test_edges_past_the_scan_range_take_level_steps(self):
        tree = parse_newick(caterpillar_newick(40))
        edges = tree.edge_length.copy()
        edges[tree.tip_id_array[5]] = 2.0 ** -305
        tiny = PhyloTree(tree.parent, edges, tree.names)
        assert chain_steps(tree) and not chain_steps(tiny)

    def test_caterpillar_takes_logarithmic_rounds(self, monkeypatch):
        tree = parse_newick(caterpillar_newick(20_000))
        assert len(covariance._bottom_up_schedule(tree)[-1]) == 2
        products = []
        compose = covariance._compose

        def counting(*args):
            products.append(1)
            compose(*args)

        monkeypatch.setattr(covariance, "_compose", counting)
        scaled_ess_pruning(tree)
        assert len(products) <= 64

    @pytest.mark.parametrize("make", [
        lambda: make_replicated_tree(ReplicationSpec(2, 0.8, 15)),
        lambda: random_tree(16384, seed=31),
        lambda: comb_of_clades(10, 2),  # narrow, but no chain of 32 nodes
    ], ids=["replicated 2^15", "coalescent 16384", "comb of clades"])
    def test_trees_without_long_chains_keep_level_steps(self, make):
        tree = make()
        got, want = covariance._bottom_up_schedule(tree), covariance._level_schedule(tree)
        for a, b in zip(got[:4], want[:4]):
            assert np.array_equal(a, b)
        assert len(got[4]) == len(want[4])
        for s, t in zip(got[4], want[4]):
            assert s[-1] is None and s[:2] == t[:2]
            assert all(np.array_equal(a, b) for a, b in zip(s[2:5], t[2:5]))


    @pytest.mark.parametrize("chain_min", [32, 1])
    def test_close_pair_refusal_names_the_closest_pair(self, monkeypatch, chain_min):
        # Both the A-B cherry (3e-9) and abc's pair (4.667e-9) are too
        # close; level steps and chain steps alike name the closer one.
        monkeypatch.setattr(covariance, "_CHAIN_MIN", chain_min)
        tree = parse_newick("((((A:1e-9,B:2e-9)ab:1e-9,C:3e-9)abc:1e9,(D:1,E:1)de:1e9)r:1e9);")
        assert bool(chain_steps(tree)) == (chain_min == 1)
        with pytest.raises(SingularCovarianceError, match="contrast variance 3.000e-09 below"):
            quadratic_forms_pruning(tree, np.ones((5, 1)), np.arange(5.0))


# Trees whose schedules have runs of two only, or runs of other sizes: a
# unary stem or node, polytomies, a star.  Every step of the first five is
# marked as pairs.
SIBLING_TREES = {
    "random": lambda: random_tree(200, seed=3),
    "coalescent": lambda: coalescent_tree(40, 7),
    "caterpillar": lambda: parse_newick(caterpillar_newick(40)),
    "tailed": lambda: tailed_tree(3, 32),
    "symmetric": lambda: make_symmetric_tree(SymmetricTreeSpec((2,) * 5, (0.5,) * 5)),
    "unary stem": lambda: parse_newick("(((A:1,B:2)ab:1,C:1)u:0.5)r;"),
    "unary node": lambda: parse_newick("((A:1,B:1)ab:1,((C:1,D:2)cd:1)u:1);"),
    "fixed-root family": lambda: family_tree(
        ConvergenceConfig("fixed_root", (16,), (0.0,)), 16),
    "symmetric, d = 3": lambda: make_symmetric_tree(SymmetricTreeSpec((3, 2), (1.0, 0.5))),
    "star": lambda: star_tree(9),
}
ALL_PAIRS = ("random", "coalescent", "caterpillar", "tailed", "symmetric")


def schedule_steps(tree):
    """Every step of the tree's level and bottom-up schedules."""
    return covariance._level_schedule(tree)[-1] + covariance._bottom_up_schedule(tree)[-1]


class TestSiblingSums:
    """A step whose runs are all pairs sums them as strided adds, the
    floats of ``np.add.reduceat``."""

    @pytest.mark.parametrize("name", sorted(SIBLING_TREES))
    def test_pairs_are_marked_on_exactly_the_steps_of_pairs(self, name):
        tree = SIBLING_TREES[name]()
        steps = schedule_steps(tree)
        for lo, hi, starts, _, _, pairs, _ in steps:
            sizes = np.diff(starts, append=hi - lo)
            assert pairs == bool((sizes == 2).all())
        marked = [s[5] for s in steps]
        assert all(marked) if name in ALL_PAIRS else not all(marked)
        if name == "caterpillar":
            assert [s[5] for s in steps if s[-1] is not None] == [True]

    @pytest.mark.parametrize("name", sorted(SIBLING_TREES))
    def test_equal_to_reduceat_bit_for_bit(self, name):
        tree = SIBLING_TREES[name]()
        rng = np.random.default_rng(len(name))
        for lo, hi, starts, _, _, pairs, _ in schedule_steps(tree):
            # Weights of masks (rows by masks) with empty and pinned
            # children, and column blocks (rows by masks by columns).
            w = rng.exponential(size=(hi - lo, 37))
            w[rng.random(w.shape) < 0.2] = 0.0
            w[rng.random(w.shape) < 0.1] = np.inf
            block = rng.normal(size=(hi - lo, 37, 3)) * np.where(np.isinf(w), 0.0, w)[:, :, None]
            for a in (w, block):
                got = covariance._sibling_sums(a, starts, pairs)
                assert np.array_equal(got, np.add.reduceat(a, starts, axis=0))

    @pytest.mark.parametrize("name", sorted(SIBLING_TREES))
    def test_sweep_is_the_same_with_every_step_by_reduceat(self, name):
        tree = SIBLING_TREES[name]()
        rng = np.random.default_rng(len(name))
        n = tree.n_tips
        Z = rng.normal(size=(n, 3))
        masks = rng.random((n, 24)) < 0.7
        masks[:, 0] = True
        for schedule in (covariance._level_schedule(tree), covariance._bottom_up_schedule(tree)):
            off = schedule[:-1] + ([s[:5] + (False,) + s[6:] for s in schedule[-1]],)
            for cols in (Z, Z[:, :0]):
                got = _contrast_sweep(tree, cols, masks, schedule=schedule, inside=True)
                want = _contrast_sweep(tree, cols, masks, schedule=off, inside=True)
                for what, a, b in zip(("U", "logdet", "one", "weight", "prec", "xhat"),
                                      got, want):
                    if what == "weight":  # the root's is never set
                        a, b = a[1:], b[1:]
                    assert (a is None and b is None) or np.array_equal(a, b), what


class TestSweepProperties:
    @given(trees(MODERATE), st.integers(0, 2 ** 16))
    def test_matches_dense_oracle(self, tree, seed):
        n = tree.n_tips
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        Y = rng.normal(size=n)
        fp, p_refused = _refused(lambda: quadratic_forms_pruning(tree, X, Y))
        fd, d_refused = _refused(
            lambda: quadratic_forms_dense(bm_covariance(tree), X, Y)
        )
        assert p_refused == d_refused
        if p_refused:
            return
        scale = np.abs(fd.xtvix).max()
        assert np.allclose(fp.xtvix, fd.xtvix, rtol=1e-9, atol=1e-12 * scale)
        assert np.allclose(fp.xtviy, fd.xtviy, rtol=1e-9, atol=1e-9 * np.sqrt(scale))
        assert np.isclose(fp.ytviy, fd.ytviy, rtol=1e-9)
        assert np.isclose(fp.logdet_v, fd.logdet_v, rtol=1e-9, atol=1e-9)
        assert np.isclose(fp.one_tvi_one, fd.one_tvi_one, rtol=1e-9)

    @given(trees(WIDE), st.integers(0, 2 ** 16))
    def test_wide_ratios_exact_or_refused(self, tree, seed):
        Y = np.random.default_rng(seed).uniform(1.0, 2.0, size=tree.n_tips)
        exact = exact_gls(tree, Y)
        forms, refused = _refused(
            lambda: quadratic_forms_pruning(tree, np.ones((tree.n_tips, 1)), Y)
        )
        if exact is None:
            assert refused, "an exactly singular covariance must be refused"
        if refused:
            return
        beta, s, det = exact
        assert rel_gap(forms.xtviy[0] / forms.xtvix[0, 0], beta) <= 1e-12
        assert rel_gap(forms.one_tvi_one, s) <= 1e-12
        assert abs(forms.logdet_v - exact_logdet(det)) <= 1e-10 * max(
            1.0, abs(forms.logdet_v)
        )

    @given(trees(MODERATE), st.data())
    def test_cut_sweep_matches_dense_and_pieces(self, tree, data):
        focals = focal_nodes(tree)
        assume(focals)
        focal = data.draw(st.sampled_from(focals))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        check_cut_sweep(tree, focal, rng)


OU_ALPHAS = (1e-300, 1e-6, 0.3, 1.0, 5.0, 1e3)


def _code(call):
    """The value of a call, or the code of its refusal."""
    try:
        return call(), None
    except TreeGlsError as exc:
        return None, exc.code


def forms_gap(got, want):
    """The largest gap between two sets of forms: each form relative to its
    largest entry, log det V relative to max(1, |log det V|)."""
    pairs = [(got.xtvix, want.xtvix), (got.xtviy, want.xtviy),
             (got.ytviy, want.ytviy), (got.one_tvi_one, want.one_tvi_one)]
    gaps = [np.abs(np.subtract(a, b)).max() / np.abs(b).max() for a, b in pairs]
    return max(gaps + [abs(got.logdet_v - want.logdet_v) / max(1.0, abs(want.logdet_v))])


def ou_forms_pair(tree, alpha, stationary, X, Y):
    """(sweep, dense) forms under one OU covariance, each a (forms, code) pair."""
    spec = CovarianceSpec.ou(alpha, stationary)
    sweep = _code(lambda: quadratic_forms_pruning(tree, X, Y, spec))
    V = ou_covariance(tree, alpha, stationary)
    return sweep, _code(lambda: quadratic_forms_dense(V, X, Y)), V


class TestOuSweep:
    """OU forms come from the contrast sweep; the dense path is the oracle."""

    @given(st.one_of(trees(MODERATE), trees(WIDE)), st.sampled_from(OU_ALPHAS),
           st.booleans(), st.integers(0, 2 ** 16))
    def test_matches_dense_oracle(self, tree, alpha, stationary, seed):
        n = tree.n_tips
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        Y = rng.normal(size=n)
        (got, got_code), (want, want_code), V = ou_forms_pair(tree, alpha, stationary, X, Y)
        assert got_code == want_code
        with np.errstate(divide="ignore"):
            cond = np.linalg.cond(V)
        if cond <= 1e7:
            assert got_code is None
            assert forms_gap(got, want) <= 1e-9

    @pytest.mark.parametrize("text", [
        "((A:1e-6,B:1e-6):1e6,C:1e6);",
        "((A:1e-9,B:1e-9):1e9,C:1e9);",
        "((A:0,B:0):1,C:1);",
        "(A:0,(B:1,C:1):1);",
    ])
    @pytest.mark.parametrize("alpha", [1e-6, 1.0, 5.0])
    @pytest.mark.parametrize("stationary", [False, True])
    def test_refused_like_dense(self, text, alpha, stationary):
        (_, got), (_, want), _ = ou_forms_pair(
            parse_newick(text), alpha, stationary, np.ones((3, 1)), RATIO_Y
        )
        assert got == want

    def test_non_ultrametric_trees_fit(self):
        # Tip heights differ by up to the tree height, so at alpha = 5 the
        # shallow tips' variances are far below the deep ones'.
        fitted = 0
        for seed in range(20):
            tree = random_tree(int(np.random.default_rng(seed).integers(3, 40)), seed=seed,
                               ultrametric=False)
            rng = np.random.default_rng(seed)
            X = np.column_stack([np.ones(tree.n_tips), rng.normal(size=tree.n_tips)])
            Y = rng.normal(size=tree.n_tips)
            for stationary in (False, True):
                (got, _), (want, want_code), _ = ou_forms_pair(tree, 5.0, stationary, X, Y)
                if want_code is None:
                    fitted += 1
                    assert forms_gap(got, want) <= 1e-9
        assert fitted == 40

    @pytest.mark.parametrize("stationary", [False, True])
    def test_large_alpha_is_the_identity(self, stationary):
        # exp(-alpha t) underflows on every edge: V = I, reached without a
        # warning and without subnormal precisions.
        tree = parse_newick("((A:1,B:1):1,(C:0.5,D:1.5):1);")
        X = np.column_stack([np.ones(4), [0.3, -1.2, 0.8, 2.0]])
        Y = np.array([1.0, 2.0, 4.0, 3.0])
        got = quadratic_forms_pruning(tree, X, Y, CovarianceSpec.ou(1e3, stationary))
        assert forms_gap(got, quadratic_forms_dense(np.eye(4), X, Y)) <= 1e-12

    @pytest.mark.parametrize("stationary", [False, True])
    def test_static_cut_on_either_side(self, stationary):
        # At alpha = 1 an edge whose a^2 V_max / q is 2^-120 has length
        # 60 ln 2 (V_max = q = 1 to within 2^-120): ab's edge lies just
        # past it and is cut, cd's just short of it and is kept.
        edge = 60.0 * math.log(2.0)
        tree = parse_newick(f"((A:1,B:1.5)ab:{edge * (1 + 1e-9)!r},"
                            f"(C:1,D:0.5)cd:{edge * (1 - 1e-9)!r});")
        schedule = covariance._level_schedule(tree)
        t = covariance._edge_model(tree, schedule[0], 1.0, stationary)[0][1]
        position = schedule[1]
        assert t[position[tree.node_id("ab")]] == np.inf
        assert 0.0 < t[position[tree.node_id("cd")]] < np.inf
        X = np.column_stack([np.ones(4), [0.3, -1.2, 0.8, 2.0]])
        (got, _), (want, _), _ = ou_forms_pair(tree, 1.0, stationary, X, np.arange(4.0))
        assert forms_gap(got, want) <= 1e-9

    def test_caterpillar_closes_its_long_tips(self):
        # An ultrametric caterpillar of unit spine edges, whose tip edges
        # are 1, 1, 2, ..., n - 1: at alpha = 1 each of length 42 or more
        # is cut before the sweep.  No spine edge is, but the spine's
        # precision falls by about e^-2 a node, so the sweep must cut the
        # spine too, or the deep tips' row is lost and the precisions
        # reach the subnormal range.
        n = 2000
        parent = np.r_[-1, np.arange(n - 2), np.arange(n - 1), n - 2]
        edges = np.r_[0.0, np.ones(n - 2), np.arange(n - 1, 0, -1.0), 1.0]
        tree = PhyloTree(parent.tolist(), edges.tolist(),
                         [None] * (n - 1) + [f"t{i}" for i in range(n)])
        schedule = covariance._level_schedule(tree)
        edge_model = covariance._edge_model(tree, schedule[0], 1.0)[0]
        assert np.isinf(edge_model[1]).sum() == n - 42
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        Y = rng.normal(size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            swept = _contrast_sweep(tree, np.column_stack([X, Y, np.ones(n)]),
                                    schedule=schedule, edges=edge_model, inside=True)
            (got, got_code), (want, want_code), _ = ou_forms_pair(tree, 1.0, False, X, Y)
        assert got_code is want_code is None
        assert forms_gap(got, want) <= 1e-9
        for swept_array in (swept[3][1:], swept[4]):  # weights and precisions
            held = np.abs(swept_array[(swept_array > 0.0) & (swept_array < np.inf)])
            assert held.min() >= np.finfo(float).tiny

    def test_stationary_couplings_all_close(self):
        # Every edge is 50 or longer, so at alpha = 1 every a^2 is below
        # e^-100 < 2^-120: each tip closes alone, and V is I to within e^-100.
        tree = parse_newick("((A:50,B:60):70,(C:55,(D:80,E:50):52):90);")
        schedule = covariance._level_schedule(tree)
        t = covariance._edge_model(tree, schedule[0], 1.0, True)[0][1]
        assert np.isinf(t[1:]).all()
        X = np.column_stack([np.ones(5), [0.3, -1.2, 0.8, 2.0, 0.1]])
        Y = np.array([1.0, 2.0, 4.0, 3.0, -1.0])
        got = quadratic_forms_pruning(tree, X, Y, CovarianceSpec.ou(1.0, True))
        assert forms_gap(got, quadratic_forms_dense(np.eye(5), X, Y)) <= 1e-12
        assert got.one_tvi_one == 5.0 and got.logdet_v == 0.0

    def test_brownian_edges_are_the_formulas_at_alpha_zero(self):
        # At the least subnormal alpha every decay is 1 and every variance
        # ratio -expm1(-x)/x is 1, so the formulas give Brownian edges
        # exactly: what alpha = 0 returns without forming them.
        for tree in (random_tree(300, seed=4), parse_newick(caterpillar_newick(200)),
                     parse_newick("((A:0,B:1e-9):1e9,(C:0,D:2):0);")):
            order = covariance._level_schedule(tree)[0]
            brownian, scale = covariance._edge_model(tree, order)
            formulas = covariance._edge_model(tree, order, 5e-324)[0]
            assert scale == 1.0 and brownian[4] == "height"
            for got, want in zip(brownian[:4], formulas[:4]):
                assert np.array_equal(got, want)
            assert brownian[1].tobytes() == (tree.edge_length[order] + 0.0).tobytes()

    def test_fit_memory_is_bounded(self):
        # V alone would take 128 MB.
        tree = random_tree(4000, seed=1)
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(4000), rng.normal(size=4000)])
        Y = rng.normal(size=4000)
        tracemalloc.start()
        try:
            gls_fit(tree, X, Y, CovarianceSpec.ou(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestSymmetricSpectra:
    def test_two_level_example(self):
        pairs = symmetric_tree_eigenvalues((2, 2), (0.5, 0.5))
        assert pairs == [(1.5, 2), (0.5, 2)]

    def test_star_level(self):
        pairs = symmetric_tree_eigenvalues((5,), (0.7,))
        assert pairs == [(0.7, 5)]

    @pytest.mark.parametrize("seed", range(25))
    def test_trace_identity_random_specs(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        d = tuple(int(x) for x in rng.integers(2, 5, size=m))
        t = tuple(float(x) for x in rng.uniform(0.1, 1.0, size=m))
        pairs = symmetric_tree_eigenvalues(d, t)
        n = int(np.prod(d))
        assert sum(mult for _, mult in pairs) == n
        trace = sum(lam * mult for lam, mult in pairs)
        assert abs(trace - n * sum(t)) < 1e-10 * max(1.0, trace)

    def test_float_steps_match_int64_reference(self):
        # Below 2^63 the int64 cumprod/cumsum form is exact in its products,
        # and the spectrum must reproduce its floats bit for bit.
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 41))
            d = tuple(int(x) for x in rng.integers(2, 10, size=m))
            if math.prod(d) >= 2 ** 62:
                continue
            t = tuple(float(x) for x in rng.uniform(1e-3, 3.0, size=m))
            c = np.cumprod(d)
            tails = np.cumsum((np.array(t) / c)[::-1])[::-1]
            want = [math.prod(d) * float(tail) for tail in tails]
            assert [lam for lam, _ in symmetric_tree_eigenvalues(d, t)] == want

    def test_matches_dense_eigendecomposition(self):
        spec = SymmetricTreeSpec((3, 2), (0.4, 0.6))
        pairs = symmetric_tree_eigenvalues(spec.d, spec.t)
        tree = make_symmetric_tree(spec)
        dense = np.sort(np.linalg.eigvalsh(bm_covariance(tree)))
        closed = np.sort(np.concatenate([[lam] * mult for lam, mult in pairs]))
        assert np.allclose(dense, closed, atol=1e-10)

    @pytest.mark.parametrize("d, t", [
        ((2, 2), (0.5, 0.5)),
        ((3, 2, 2, 2), (0.1, 0.2, 0.3, 0.4)),
        ((7, 5, 3), (1.5, 1e-3, 2.0)),
        ((2,) * 62, (1 / 62,) * 62),
        ((2,) * 70, (1 / 70,) * 70),
        ((2,) * 70, ReplicationSpec(2, 0.8, 70).lengths()),
        ((1000, 3) * 40, (0.25,) * 80),
    ])
    def test_matches_exact_rationals(self, d, t):
        pairs = symmetric_tree_eigenvalues(d, t)
        n = math.prod(d)
        assert sum(mult for _, mult in pairs) == n
        assert all(type(mult) is int for _, mult in pairs)
        want = [d[0]] + [math.prod(d[:i]) * (d[i] - 1) for i in range(1, len(d))]
        assert [mult for _, mult in pairs] == want
        for i, (lam, _) in enumerate(pairs):
            exact = n * sum(
                Fraction(tj) / math.prod(d[:j + 1]) for j, tj in enumerate(t) if j >= i
            )
            assert abs(Fraction(lam) - exact) <= Fraction(1, 10 ** 15) * exact

    @pytest.mark.parametrize("d, t", [
        ((2,) * 1100, (1 / 1100,) * 1100),
        ((10,) * 309, (1.0,) * 309),
        ((2, 2), (1e308, 1e308)),
        ((2,), (float("inf"),)),
    ])
    def test_past_the_float_range(self, d, t):
        with pytest.raises(ConfigError, match="float range"):
            symmetric_tree_eigenvalues(d, t)

    def test_invalid_specs(self):
        with pytest.raises(TreeError):
            symmetric_tree_eigenvalues((), ())
        with pytest.raises(TreeError):
            symmetric_tree_eigenvalues((1,), (0.5,))
        with pytest.raises(TreeError):
            symmetric_tree_eigenvalues((2,), (0.0,))


class TestCovarianceSpec:
    def test_bm_default(self):
        assert CovarianceSpec.bm().kind == "bm"

    def test_ou_requires_alpha(self):
        with pytest.raises(TreeError):
            CovarianceSpec("ou-stationary")

    def test_unknown_kind(self):
        with pytest.raises(TreeError):
            CovarianceSpec("ar1")


# --------------------------------------------------------------------- #
# The shift model rerooted at the focal node's parent, read off one sweep
# --------------------------------------------------------------------- #


def score_outcome(score, tree, X, Y, spec, monkeypatch):
    """``score`` (``score_models`` or its reference) on one shift: the
    no-shift score's bytes, and the shift model's fit and ESS pair as they
    reach ``bic_corrected_m1``; or the type and message of a refusal."""
    from treegls import modelsel

    seen = []
    real = modelsel.bic_corrected_m1
    monkeypatch.setattr(modelsel, "bic_corrected_m1",
                        lambda fit, top, bot: seen.append((fit, top, bot)) or real(fit, top, bot))
    try:
        m0 = repr(score(tree, X, Y, spec)[0].to_dict())
    except TreeGlsError as exc:
        return type(exc), str(exc)
    finally:
        monkeypatch.setattr(modelsel, "bic_corrected_m1", real)
    return m0, *seen[0]


def root_row_cases(tree, seed):
    """Covariates, response and every shift (both modes) of ``tree``."""
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(tree.n_tips, 1)), rng.normal(size=tree.n_tips)
    return [(X, Y, ShiftSpec(v, mode)) for v in focal_nodes(tree) for mode in ("S", "SB")]


def wide_ratio_tree(seed):
    """TestContrastSweep's random trees with edges spanning 12 decades."""
    rng = np.random.default_rng(seed)
    shape = random_tree(int(rng.integers(2, 8)), seed=seed, polytomy_prob=0.3)
    edges = 10.0 ** rng.uniform(-6.0, 6.0, size=shape.n_nodes)
    edges[shape.root] = 0.0
    return PhyloTree(shape.parent, edges, shape.names)


# A tip pinned to a path node above a zero and a positive path edge: the
# message from above is infinite, or pins the node's mean.
PINNED_PATH_TEXTS = [
    "((X:0,(P:1,((F1:1,F2:1)f:1,Z:1)base:1)b:0)a:1,E:1);",
    "((X:0,(P:1,((F1:1,F2:1)f:1,Z:1)base:1)b:0.5)a:1,E:1);",
]

ROOT_ROW_TEXTS = [
    # Tips at the root, coincident tips.
    "(A:0,B:1);", "((A:0):0,B:1);", "((A:0,B:0,C:1):1,D:1);",
    # Unary stems above the first fork, labelled or not.
    "((((A:1,B:2)ab:1,(C:1,D:2)cd:1)v:0.5)u:0.5)r;",
    "(((((A:1,B:2)ab:1,C:1)abc:1,(D:1,E:2)de:1)v:0.5)u:0.5)r;",
    "((((A:0.5,B:0.5)ab:0.3,E:0.8)abe:0.2,(C:0.4,D:0.4)cd:0.6):0.5):0.25;",
    # Long stems, over which depths would cancel.
    "((((A:1e-9,B:2e-9)ab:1e-9,C:3e-9)abc:1e9,(D:1,E:1)de:1e9)r:1e9);",
    "(((A:1e-6,B:2e-6)ab:1e-6,(C:1e-6,D:1e-6)cd:1e9)x:1e9,E:2e9);",
    # Zero and -0 edges: pinned means on and off the path.
    "(((A:0,B:0.3)ab:0.2,C:0.4)abc:0,(D:0.3,E:0.6)de:0);",
    "(((A:-0,B:0.3)ab:-0,C:0.4)abc:0.3,(D:0.3,E:0.6,F:1)de:0.2);",
    "((((A:0,B:1)ab:0,C:1)abc:0,D:2)abcd:1,(E:1,F:0)ef:1);",
    # Edge ratios up to the pivot threshold.
    "(((A:1e-7,B:1e-7)ab:1e5,C:1e5)abc:1,(D:1,E:1)de:1e-5);",
] + PINNED_PATH_TEXTS + BLOCK_RULE_TEXTS + OVERFLOW_STEMS

ROOT_ROW_TREES = {
    **{f"ratio cherry {k}": (lambda k=k: ratio_cherry(k)) for k in range(13)},
    **{text: (lambda text=text: parse_newick(text)) for text in ROOT_ROW_TEXTS},
    "random 14": lambda: random_tree(14, seed=5, polytomy_prob=0.4),
    "random 20": lambda: random_tree(20, seed=11, polytomy_prob=0.3),
    **{f"decorated {s}": (lambda s=s: decorated_tree(s)) for s in range(0, 40, 3)},
    "caterpillar 300": lambda: parse_newick(caterpillar_newick(300)),
    "comb of clades": lambda: comb_of_clades(40, 2),
    "tailed": lambda: tailed_tree(4, 40),
}


class TestRootRow:
    """``score_models`` reads the shift model, rerooted at the focal node's
    parent, off one sweep of the tree as given; ``conftest``'s reference
    rebuilds the rerooted tree and sweeps it again.  They refuse alike, the
    no-shift score is the same bytes, and the shift model agrees to 1e-12,
    or, where edges span 12 decades, is as close to exact rationals."""

    @pytest.mark.parametrize("name", sorted(ROOT_ROW_TREES))
    def test_pinned_to_the_rebuilt_tree(self, monkeypatch, name):
        from conftest import score_models_reference
        from treegls import score_models

        tree = ROOT_ROW_TREES[name]()
        for X, Y, spec in root_row_cases(tree, 7):
            got = score_outcome(score_models, tree, X, Y, spec, monkeypatch)
            want = score_outcome(score_models_reference, tree, X, Y, spec, monkeypatch)
            if len(want) == 2 or len(got) == 2:
                assert got == want, spec
                continue
            assert got[0] == want[0], spec
            (fit, top, bot), (ref, ref_top, ref_bot) = got[1:], want[1:]
            assert normwise_gap(fit.beta, ref.beta) <= 1e-12, spec
            for a, b in ((fit.loglik, ref.loglik), (fit.logdet_v, ref.logdet_v),
                         (top, ref_top), (bot, ref_bot)):
                assert rel_gap(a, b) <= 1e-12, spec

    @pytest.mark.parametrize("seed", range(60))
    def test_wide_ratio_trees_as_exact_as_the_rebuilt_tree(self, monkeypatch, seed):
        # Here the RSS cancels: the reference itself is off exact rationals
        # by up to 1e-8 relative, so each log-likelihood is held to its gap
        # from the exact one.
        from conftest import score_models_reference
        from treegls import reroot, score_models

        tree = wide_ratio_tree(seed)
        for X, Y, spec in root_row_cases(tree, seed):
            got = score_outcome(score_models, tree, X, Y, spec, monkeypatch)
            want = score_outcome(score_models_reference, tree, X, Y, spec, monkeypatch)
            if len(want) == 2 or len(got) == 2:
                assert got == want, spec
                continue
            assert got[0] == want[0], spec
            (fit, top, bot), (ref, ref_top, ref_bot) = got[1:], want[1:]
            for a, b in ((fit.logdet_v, ref.logdet_v), (top, ref_top), (bot, ref_bot)):
                assert rel_gap(a, b) <= 1e-12, spec
            cond = np.linalg.cond(ref.xtvix)
            assert normwise_gap(fit.beta, ref.beta) <= 1e-15 * cond, spec
            # reroot keeps the preorder of the new root's subtree.
            base = int(tree.parent[spec.focal_node])
            rerooted = reroot(tree, base)
            focal = spec.focal_node
            if rerooted is not tree:
                focal = int(tree._pre_span[focal, 0] - tree._pre_span[base, 0])
            lo, hi = rerooted.tip_range[focal]
            indicator = np.zeros(tree.n_tips)
            indicator[lo:hi] = 1.0
            rows = tree.tip_rows(rerooted.tip_labels)
            Z = np.column_stack([np.ones(tree.n_tips), indicator, X[rows], Y[rows]])
            exact = exact_loglik(exact_cov(rerooted, focal if spec.mode == "SB" else None), Z)
            assert abs(fit.loglik - exact) <= max(
                16 * abs(ref.loglik - exact), 1e-12 * abs(exact)), spec

    @pytest.mark.parametrize("name", ["caterpillar 300", "comb of clades", "tailed", "random 20"]
                             + [name for name in ROOT_ROW_TREES if name.startswith("decorated")]
                             + PINNED_PATH_TEXTS)
    def test_path_scans_join_as_the_loop(self, monkeypatch, name):
        # Paths of _CHAIN_MIN nodes or more are joined by prefix scans,
        # shorter ones node by node: both ways on every path of the tree.
        # The decorated trees put zero edges (pinned children) on and off
        # the paths.
        from treegls import score_models

        tree = ROOT_ROW_TREES[name]()
        for X, Y, spec in root_row_cases(tree, 3):
            outcomes = []
            for chain_min in (1, 10 ** 9):
                monkeypatch.setattr(covariance, "_CHAIN_MIN", chain_min)
                outcomes.append(score_outcome(score_models, tree, X, Y, spec, monkeypatch))
            if min(map(len, outcomes)) == 2:
                assert outcomes[0] == outcomes[1], spec
                continue
            (_, fit, top, bot), (_, loop, loop_top, loop_bot) = outcomes
            assert normwise_gap(fit.beta, loop.beta) <= 1e-12, spec
            for a, b in ((fit.loglik, loop.loglik), (fit.logdet_v, loop.logdet_v),
                         (top, loop_top), (bot, loop_bot)):
                assert rel_gap(a, b) <= 1e-12, spec

    def test_deep_path_is_scanned(self, monkeypatch):
        # Base 1,998 levels below the root of the 2,000-tip caterpillar: the
        # path's messages take O(log length) rounds of the chain scans.
        from treegls import score_models

        tree = parse_newick(caterpillar_newick(2000))
        rng = np.random.default_rng(4)
        X, Y = rng.normal(size=(2000, 1)), rng.normal(size=2000)
        deepest = max(focal_nodes(tree), key=lambda u: tree.levels[u])
        rounds = []
        scan = covariance._mobius_scan
        monkeypatch.setattr(covariance, "_mobius_scan",
                            lambda *args: rounds.append(args[0].shape[0]) or scan(*args))
        for mode in ("S", "SB"):
            m0, m1 = score_models(tree, X, Y, ShiftSpec(deepest, mode))
            assert np.isfinite(m1.bic_corrected)
        assert rounds[-2:] == [tree.levels[deepest]] * 2


def exact_loglik(V, Z):
    """The log-likelihood of the GLS fit of Z's last column on the others
    under the covariance ``V`` (rows of fractions), in exact rationals but
    for the final logarithms."""
    G, det = exact_forms(V, Z)
    p = len(G) - 1
    rows = [[G[i][j] for j in range(p)] + [G[i][p]] for i in range(p)]
    for c in range(p):
        for r in range(p):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    rss = G[p][p] - sum(G[i][p] * rows[i][p] / rows[i][i] for i in range(p))
    n = len(V)
    return -0.5 * (n * math.log(2 * math.pi * float(rss / n)) + exact_logdet(det) + n)
