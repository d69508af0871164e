"""Covariance construction and the dense/pruning quadratic-form paths."""

import math
import time
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
from treegls.covariance import _contrast_sweep, _forms
from treegls.gls import _indicator, _resolve_shift
from treegls.simlab import (
    ReplicationSpec,
    SymmetricTreeSpec,
    make_replicated_tree,
    make_symmetric_tree,
    random_tree,
    star_tree,
)

from conftest import (
    bm_covariance_reference,
    caterpillar_newick,
    dense_scaled_ess,
    sb_covariance_reference,
    shift_pieces,
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
        tree = random_tree(60, seed=8, polytomy_prob=0.2)
        masks = np.random.default_rng(8).random((60, 37)) < 0.4
        masks[0] = True
        whole = scaled_ess_pruning(tree, masks)
        monkeypatch.setattr(covariance, "_SWEEP_CELLS", per_block * tree.n_nodes)
        built = scaled_ess_pruning(tree, 37, masks_for=lambda lo, hi: masks[:, lo:hi])
        assert built.tobytes() == whole.tobytes()

    def test_built_masks_are_checked(self):
        tree = random_tree(6, seed=2)
        masks = np.ones((6, 4), dtype=bool)
        masks[:, 3] = False
        with pytest.raises(TreeError, match="at least one tip"):
            scaled_ess_pruning(tree, 4, masks_for=lambda lo, hi: masks[:, lo:hi])
        with pytest.raises(TreeError, match="one entry per tip"):
            scaled_ess_pruning(tree, 4, masks_for=lambda lo, hi: masks[1:, lo:hi])


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
        U, logdet, one = _contrast_sweep(tree, Z, masks)
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


def normwise_gap(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


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
    lo, hi = res.top_lo, res.top_hi
    ind = _indicator(n, res)
    # The last column splits 1'V^{-1}1 into the bottom block's share.
    C = np.column_stack([np.ones(n), ind, rng.normal(size=n), 1.0 - ind])
    design, Y = C[:, :3], rng.normal(size=n)
    cut, refused = _refused(lambda: _forms(tree, design, Y, cut=res.focal))
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
        res = _resolve_shift(tree, ShiftSpec("ab", "SB"))
        assert np.array_equal(res.top_heights, top.tip_heights)
        assert not np.array_equal(tree.tip_heights[:2] - tree.depths[ab], top.tip_heights)
        pair = ess_lineage(tree, ShiftSpec("ab", "SB"), "max")
        assert pair.top == 3e-7 * scaled_ess_pruning(top)

    def test_cut_node_precision_returned_after_the_root(self):
        tree = parse_newick("(((A:1,B:1)ab:2,C:3):1,D:4);")
        _, logdet, one = _contrast_sweep(
            tree, np.empty((4, 0)), cut=tree.node_id("ab")
        )
        # Bottom block: C and D at 4, sharing nothing; top block: A, B at 1.
        assert one.shape == (2, 1)
        assert one[:, 0].tolist() == [0.5, 2.0]
        assert np.isclose(logdet[0], math.log(16.0), rtol=1e-15)


MODERATE = (0.0, 0.25, 0.5, 1.0, 2.0)
WIDE = (0.0, 1e-6, 1e-3, 1.0, 1e3, 1e6)


def _refused(call):
    try:
        return call(), False
    except SingularCovarianceError:
        return None, True


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
