"""Simulation machinery: seeded BM, tree families, phase curve, convergence."""

import hashlib
import math
import re

import numpy as np
import pytest

from treegls import (
    ConfigError,
    ConvergenceConfig,
    PhyloTree,
    ReplicationSpec,
    SymmetricTreeSpec,
    TreeError,
    TreeGlsError,
    bm_covariance,
    convergence_experiment,
    log_corrected_slope,
    make_replicated_tree,
    make_symmetric_tree,
    parse_newick,
    phase_transition_curve,
    power_law_slope,
    replicated_intercept_variance,
    scaled_ess_pruning,
    simulate_bm,
    simulate_traits,
    symmetric_intercept_variance,
    symmetric_tree_eigenvalues,
    write_newick,
)
from treegls import simlab
from treegls.covariance import _bottom_up_schedule, _contrast_sweep
from treegls.simlab import (
    _STREAM_BM,
    _STREAM_COVARIATES,
    _STREAM_NOISE,
    family_tree,
    random_tree,
    star_tree,
)

from conftest import (
    bm_node_values_reference,
    convergence_experiment_reference,
    counter_rng_reference,
    edge_rng_reference,
    phase_curve_reference,
)

STREAMS = (_STREAM_BM, _STREAM_COVARIATES, _STREAM_NOISE)
# Seeds of one, two, three and seven 32-bit words.
SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**199 + 12_345)


class TestSimulateBm:
    def test_zero_edges_give_root_state(self):
        tree = parse_newick("((A:0,B:0):0,C:0);")
        vals = simulate_bm(tree, mu=3.5, sigma2=1.0, seed=1)
        assert np.allclose(vals, 3.5)

    def test_deterministic_under_seed(self, three_tip):
        a = simulate_bm(three_tip, 0.0, 1.0, seed=9, reps=4)
        b = simulate_bm(three_tip, 0.0, 1.0, seed=9, reps=4)
        assert np.array_equal(a, b)
        c = simulate_bm(three_tip, 0.0, 1.0, seed=10, reps=4)
        assert not np.array_equal(a, c)

    def test_reps_extend_prefix(self, three_tip):
        a = simulate_bm(three_tip, 0.0, 1.0, seed=9, reps=3)
        b = simulate_bm(three_tip, 0.0, 1.0, seed=9, reps=6)
        assert np.array_equal(a, b[:3])

    def test_star_tips_iid(self):
        tree = star_tree(4, 2.0)
        vals = simulate_bm(tree, mu=1.0, sigma2=0.5, seed=3, reps=100_000)
        mean = vals.mean(axis=0)
        var = vals.var(axis=0, ddof=1)
        se_mean = math.sqrt(1.0 / 100_000)  # sd = sqrt(0.5 * 2) = 1
        assert np.all(np.abs(mean - 1.0) < 3 * se_mean)
        se_var = 1.0 * math.sqrt(2.0 / 100_000)
        assert np.all(np.abs(var - 1.0) < 3 * se_var)

    def test_tip_covariance_matches_tree(self):
        tree = random_tree(5, seed=14, ultrametric=True)
        sigma2 = 0.7
        vals = simulate_bm(tree, 0.0, sigma2, seed=4, reps=100_000)
        emp = np.cov(vals.T)
        expected = sigma2 * bm_covariance(tree)
        # Var of a sample covariance entry ~ (v_ii v_jj + v_ij^2) / reps.
        d = np.diag(expected)
        se = np.sqrt((np.outer(d, d) + expected ** 2) / 100_000)
        assert np.all(np.abs(emp - expected) < 3 * se + 1e-12)

    def test_sigma2_must_be_positive(self, three_tip):
        with pytest.raises(ConfigError):
            simulate_bm(three_tip, 0.0, 0.0, seed=1)

    @pytest.mark.parametrize("newick", [
        "((A:1,(B:0.5,C:1):0.5):1,(D:2,E:0.3)de:1,F:1);",
        "(x:0.4,(y:0,(z:1,w:0.2,v:0.7):0.1):0.6)top;",
    ])
    def test_streams_follow_edge_keys(self, newick):
        # Each edge draws from the stream keyed "#" + the child's label, or
        # for an unlabeled child its parent's key + "." + its position ("@"
        # at an unlabeled root), in any traversal order.
        tree = parse_newick(newick)
        keys, want = {}, np.zeros(tree.n_nodes)
        for u in map(int, tree.postorder[::-1]):
            p, name = int(tree.parent[u]), tree.names[u]
            if name is not None:
                keys[u] = "#" + name
            elif p < 0:
                keys[u] = "@"
            else:
                keys[u] = f"{keys[p]}.{tree.children[p].index(u)}"
            if p >= 0:
                z = edge_rng_reference(3, _STREAM_BM, keys[u]).standard_normal()
                want[u] = want[p] + math.sqrt(tree.edge_length[u]) * z
        got = simulate_bm(tree, 0.0, 1.0, seed=3)
        assert got.tobytes() == want[list(tree.tip_ids)].tobytes()

    def test_extension_preserves_existing_tips(self):
        cfg = ConvergenceConfig(
            family="fixed_root", sizes=(8, 16), beta=(0.0,), reps=2, seed=0
        )
        small, big = family_tree(cfg, 8), family_tree(cfg, 16)
        a = simulate_bm(small, 0.0, 1.0, seed=6, reps=7)
        b = simulate_bm(big, 0.0, 1.0, seed=6, reps=7)
        idx = [big.tip_labels.index(lab) for lab in small.tip_labels]
        assert np.array_equal(a, b[:, idx])


class TestBulkStreams:
    """One Philox per stream, loaded with each edge's counter in turn,
    draws bit for bit what the edge's own Philox at that counter draws."""

    # Hashes of one and two 32-bit words, and at or above 2^63, where a
    # counter given as a Python list would round through a float.
    HASHES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**63 + 12_345, 2**64 - 1)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("stream", STREAMS)
    def test_counters_hold_every_hash(self, monkeypatch, seed, stream):
        tree = star_tree(len(self.HASHES))
        chosen = {f"#t{i + 1}": h for i, h in enumerate(self.HASHES)}
        monkeypatch.setattr(simlab, "_key_hashes", lambda keys: [chosen[k] for k in keys])
        tips = [tree.node_id(f"t{i + 1}") for i in range(len(self.HASHES))]
        got = simlab._bm_node_values(tree, 1.0, seed, stream, 6)[tips]
        want = [counter_rng_reference(seed, stream, h).standard_normal(6) for h in self.HASHES]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_edge_keys_draw_their_own_streams(self, seed):
        # Keys "@.0", "#A", "@.0.1", "#B", "#C" and a 301-character one.
        tree = PhyloTree([-1, 0, 1, 1, 3, 3, 0], [0.0] + [1.0] * 6,
                         [None, None, "A", None, "B", "C", "x" * 300])
        for stream in STREAMS:
            got = simlab._bm_node_values(tree, 1.0, seed, stream, 4, n_columns=2)
            want = bm_node_values_reference(tree, 1.0, seed, stream, 4, n_columns=2)
            assert got.tobytes() == want.tobytes()

    def test_key_hashes_are_blake2b(self):
        keys = ["@", "#A", "@.0.1", "#" + "x" * 300, "#\u00e9"]
        want = [int.from_bytes(hashlib.blake2b(k.encode(), digest_size=8).digest(), "big")
                for k in keys]
        assert simlab._key_hashes(keys) == want
        assert any(h >= 2**63 for h in want) and any(h < 2**63 for h in want)

    def test_star_tips_uncorrelated(self):
        # Every edge draws from its own counter blocks: the tips of a star
        # are independent, their correlations within 5 standard errors.
        reps = 4000
        vals = simulate_bm(star_tree(64), 0.0, 1.0, seed=0, reps=reps)
        corr = np.corrcoef(vals.T)[~np.eye(64, dtype=bool)]
        assert np.abs(corr).max() < 5.0 / math.sqrt(reps)

    TREES = {
        "labelled": "((A:1,(B:0.5,C:1)bc:0.5)abc:1,(D:2,E:0.3)de:1,F:1)top;",
        "unlabelled": "((A:1,(B:0.5,C:1):0.5):1,(D:2,E:0.3):1,F:1);",
        "polytomous": "(x:0.4,(y:0.1,(z:1,w:0.2,v:0.7,u:3):0.1,s:2):0.6,(r:1,q:1,p:1):1e-9)top;",
        "zero edges": "((A:0,B:0):0,(C:1,(D:0,E:1e-300):0):2,F:0);",
    }

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_simulations_match_per_edge_generators(self, monkeypatch, name, seed):
        tree = parse_newick(self.TREES[name])
        beta, Sigma = [1.0, 0.5, -2.0], [[1.0, -0.3], [-0.3, 2.0]]
        got = [simulate_bm(tree, 0.5, 1.3, seed), simulate_bm(tree, 0.0, 2.0, seed, reps=5)]
        got += simulate_traits(tree, beta, Sigma, 0.7, seed, reps=4)
        got += simulate_traits(tree, beta[:2], [[3.0]], 0.7, seed)
        monkeypatch.setattr(simlab, "_bm_node_values", bm_node_values_reference)
        want = [simulate_bm(tree, 0.5, 1.3, seed), simulate_bm(tree, 0.0, 2.0, seed, reps=5)]
        want += simulate_traits(tree, beta, Sigma, 0.7, seed, reps=4)
        want += simulate_traits(tree, beta[:2], [[3.0]], 0.7, seed)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_large_tree_matches_per_edge_generators(self, monkeypatch):
        tree = random_tree(500, seed=8, polytomy_prob=0.3)
        got = simulate_traits(tree, [0.0, 1.0, 2.0, 3.0], np.eye(3) + 0.1, 1.0, 2**40, reps=3)
        monkeypatch.setattr(simlab, "_bm_node_values", bm_node_values_reference)
        want = simulate_traits(tree, [0.0, 1.0, 2.0, 3.0], np.eye(3) + 0.1, 1.0, 2**40, reps=3)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_variance_past_the_float_range_is_refused(self):
        # A finite sigma2 whose product with an edge overflows is refused,
        # with no warning on the way (the warning filter makes one an error):
        # one edge's states would be inf, and summed down two such edges nan.
        for text, sigma2 in (("(A:1e300,(B:1,C:2):1e-3);", 1e10), ("((A:2,B:2):2,C:2);", 1e308)):
            tree = parse_newick(text)
            with pytest.raises(ConfigError, match="simulated states overflow the float range"):
                simulate_bm(tree, 0.0, sigma2, 4, reps=3)
            with pytest.raises(ConfigError, match="simulated states overflow the float range"):
                simulate_traits(tree, [0.0, 1.0], np.eye(1), sigma2, seed=4)
            # Just inside the range, the states are finite.
            assert np.isfinite(simulate_bm(tree, 0.0, sigma2 * 1e-10, 4, reps=3)).all()

    def test_no_generator_per_edge(self, monkeypatch):
        # One of each per stream: simulate_bm draws one, simulate_traits two.
        made = {"SeedSequence": 0, "Philox": 0, "Generator": 0}

        def counting(name):
            original = getattr(np.random, name)

            def make(*args, **kwargs):
                made[name] += 1
                return original(*args, **kwargs)

            return make

        tree = random_tree(2000, seed=1)
        for name in made:
            monkeypatch.setattr(np.random, name, counting(name))
        simulate_bm(tree, 0.0, 1.0, seed=5, reps=50)
        assert made == {"SeedSequence": 1, "Philox": 1, "Generator": 1}
        simulate_traits(tree, [0.0, 1.0, 2.0], np.eye(2), 1.0, seed=5, reps=50)
        assert made == {"SeedSequence": 3, "Philox": 3, "Generator": 3}


class TestSimulationArguments:
    """Every simulation parameter is refused with a ConfigError unless it
    is finite, and a seed or a replicate count unless it is an integer,
    before any draw: nothing turns into nan, inf or a truncated seed."""

    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("mu", BAD)
    def test_simulate_bm_mu(self, three_tip, mu):
        with pytest.raises(ConfigError, match="mu must be finite"):
            simulate_bm(three_tip, mu, 1.0, seed=1)

    @pytest.mark.parametrize("sigma2", BAD + [0.0, -1.0])
    def test_simulate_bm_sigma2(self, three_tip, sigma2):
        with pytest.raises(ConfigError, match="sigma2 must be positive and finite"):
            simulate_bm(three_tip, 0.0, sigma2, seed=1, reps=3)

    @pytest.mark.parametrize("bad", BAD)
    def test_simulate_traits_beta_and_sigma2(self, three_tip, bad):
        with pytest.raises(ConfigError, match=re.escape("beta contains non-finite values")):
            simulate_traits(three_tip, [0.0, bad], np.eye(1), 1.0, seed=1)
        with pytest.raises(ConfigError, match="sigma2 must be positive and finite"):
            simulate_traits(three_tip, [0.0, 1.0], np.eye(1), bad, seed=1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), "1", None])
    def test_seed_must_be_an_integer(self, three_tip, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            simulate_bm(three_tip, 0.0, 1.0, seed=seed)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            simulate_traits(three_tip, [0.0, 1.0], np.eye(1), 1.0, seed=seed)

    @pytest.mark.parametrize("reps", [2.7, 3.0, np.float32(2.0), "3"])
    def test_reps_must_be_an_integer(self, three_tip, reps):
        with pytest.raises(ConfigError, match="reps must be an integer"):
            simulate_bm(three_tip, 0.0, 1.0, seed=1, reps=reps)
        with pytest.raises(ConfigError, match="reps must be an integer"):
            simulate_traits(three_tip, [0.0, 1.0], np.eye(1), 1.0, seed=1, reps=reps)

    def test_numpy_integers_are_integers(self, three_tip):
        want = simulate_bm(three_tip, 0.0, 1.0, seed=4, reps=3)
        got = simulate_bm(three_tip, 0.0, 1.0, seed=np.int64(4), reps=np.uint8(3))
        assert got.tobytes() == want.tobytes()


class TestSimulateTraits:
    def test_identity_sigma_independent_columns(self, three_tip):
        X, Y = simulate_traits(
            three_tip, [0.0, 1.0, -1.0], np.eye(2), 1.0, seed=2, reps=20_000
        )
        cross = np.mean(X[:, :, 0] * X[:, :, 1], axis=0)
        assert np.all(np.abs(cross) < 0.05)

    def test_zero_sigma_rejected(self, three_tip):
        with pytest.raises(ConfigError):
            simulate_traits(three_tip, [0.0, 1.0], np.zeros((1, 1)), 1.0, seed=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sigma_rejected(self, three_tip, bad):
        # The Cholesky factor reads the lower triangle only; the upper one
        # is checked too.
        for Sigma in ([[bad]], [[1.0, bad], [0.0, 1.0]]):
            with pytest.raises(ConfigError,
                               match=re.escape("Sigma contains non-finite values (nan or inf)")):
                simulate_traits(three_tip, [0.0] * (len(Sigma) + 1), Sigma, 1.0, seed=1)

    def test_beta_shape_checked(self, three_tip):
        with pytest.raises(ConfigError):
            simulate_traits(three_tip, [0.0], np.eye(1), 1.0, seed=1)

    def test_cross_covariance_tracks_tree(self):
        tree = random_tree(4, seed=3, ultrametric=True)
        Sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
        X, _ = simulate_traits(
            tree, [0.0, 0.0, 0.0], Sigma, 1.0, seed=8, reps=60_000
        )
        V = bm_covariance(tree)
        emp = np.einsum("rn,rm->nm", X[:, :, 0], X[:, :, 1]) / 60_000
        assert np.max(np.abs(emp - 0.6 * V)) < 0.05

    def test_response_reduces_to_bm_when_beta_zero(self):
        tree = random_tree(6, seed=5, ultrametric=True)
        _, Y = simulate_traits(
            tree, [0.0, 0.0], np.eye(1), 1.0, seed=13, reps=50_000
        )
        emp = np.cov(Y.T)
        V = bm_covariance(tree)
        assert np.max(np.abs(emp - V)) < 0.08

    def test_single_draw_shapes(self, three_tip):
        X, Y = simulate_traits(three_tip, [0.0, 1.0], np.eye(1), 1.0, seed=1)
        assert X.shape == (3, 1)
        assert Y.shape == (3,)


def node_by_node_symmetric(spec):
    """Breadth-first symmetric tree built one node at a time: the reference
    for ids, path names and edges."""
    parent, edges, names, paths, level = [-1], [0.0], ["root"], {0: ""}, [0]
    for lvl, (d, t) in enumerate(zip(spec.d, spec.t)):
        nxt = []
        for u in level:
            for j in range(d):
                paths[len(parent)] = f"{paths[u]}-{j}" if paths[u] else str(j)
                nxt.append(len(parent))
                parent.append(u)
                edges.append(t)
                names.append(("t" if lvl == spec.m - 1 else "n") + paths[nxt[-1]])
        level = nxt
    return parent, edges, names


def assert_arrays(tree, parent, edges, names):
    assert tree.parent.tolist() == parent
    assert tree.edge_length.tolist() == edges
    assert tree.names == tuple(names)


class TestSymmetricTreeSpec:
    @pytest.mark.parametrize("d", [(2.9, 2), (2.0, 2), (True, 2), ("2", 2), (None, 2)])
    def test_level_counts_must_be_integers(self, d):
        with pytest.raises(ConfigError, match="each level count must be an integer"):
            SymmetricTreeSpec(d, (1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_level_lengths_must_be_finite(self, bad):
        with pytest.raises(ConfigError, match="all level lengths must be"):
            SymmetricTreeSpec((2, 2), (1.0, bad))

    def test_range_checks_keep_their_messages(self):
        with pytest.raises(ConfigError, match="^all level counts must be >= 2$"):
            SymmetricTreeSpec((1, 2), (1.0, 1.0))
        with pytest.raises(ConfigError, match="^all level lengths must be positive$"):
            SymmetricTreeSpec((2, 2), (1.0, 0.0))

    def test_numpy_integers_are_integers(self):
        spec = SymmetricTreeSpec((np.int64(2), np.uint8(3)), (0.5, np.float64(1.0)))
        assert spec.d == (2, 3) and all(type(x) is int for x in spec.d)
        assert spec.n_tips == 6


class TestIntegerCounts:
    """A tip count, a level count, a member count or a seed that is not an
    integer (a bool included) is a ConfigError, not a raw TypeError or a
    truncated value; numpy integers pass, and range checks keep their types
    and messages."""

    BAD = [2.5, 2.0, True, "2", None]

    @pytest.mark.parametrize("bad", BAD)
    def test_star_tree(self, bad):
        with pytest.raises(ConfigError, match="^n must be an integer"):
            star_tree(bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_random_tree(self, bad):
        with pytest.raises(ConfigError, match="^n must be an integer"):
            random_tree(bad, seed=1)
        with pytest.raises(ConfigError, match="^seed must be an integer"):
            random_tree(4, seed=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_replication_spec(self, bad):
        with pytest.raises(ConfigError, match="^d must be an integer"):
            ReplicationSpec(bad, 0.5, 2)
        with pytest.raises(ConfigError, match="^m must be an integer"):
            ReplicationSpec(2, 0.5, bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_replicated_intercept_variance(self, bad):
        with pytest.raises(ConfigError, match="^d must be an integer"):
            replicated_intercept_variance(bad, 0.5, 2)
        with pytest.raises(ConfigError, match="^m must be an integer"):
            replicated_intercept_variance(2, 0.5, bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_phase_transition_curve(self, bad):
        with pytest.raises(ConfigError, match="^d must be an integer"):
            phase_transition_curve(bad, 0.8, 2)
        with pytest.raises(ConfigError, match="^m_max must be an integer"):
            phase_transition_curve(2, 0.8, bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_symmetric_tree_eigenvalues(self, bad):
        with pytest.raises(ConfigError, match="^each level count must be an integer"):
            symmetric_tree_eigenvalues((bad, 2), (1.0, 1.0))

    def test_range_checks_keep_their_messages(self):
        with pytest.raises(TreeError, match="^star tree needs at least one tip$"):
            star_tree(0)
        with pytest.raises(TreeError, match="^need at least one tip$"):
            random_tree(0, seed=1)
        with pytest.raises(ConfigError, match="^seed must be >= 0$"):
            random_tree(4, seed=-1)
        with pytest.raises(ConfigError, match="^d must be >= 2$"):
            ReplicationSpec(1, 0.5, 2)
        with pytest.raises(ConfigError, match="^m must be >= 1$"):
            replicated_intercept_variance(2, 0.5, 0)
        with pytest.raises(ConfigError, match="^m_max must be >= 1$"):
            phase_transition_curve(2, 0.8, 0)
        with pytest.raises(TreeError, match="^all level counts must be >= 2$"):
            symmetric_tree_eigenvalues((1, 2), (1.0, 1.0))

    def test_numpy_integers_are_integers(self):
        assert star_tree(np.int64(3)).n_tips == 3
        got = random_tree(np.int32(5), seed=np.uint8(1))
        assert write_newick(got) == write_newick(random_tree(5, seed=1))
        spec = ReplicationSpec(np.int64(2), 0.5, np.int64(3))
        assert (spec.d, spec.m) == (2, 3) and type(spec.d) is type(spec.m) is int
        assert replicated_intercept_variance(np.int64(2), 0.5, np.int64(3)) == (
            replicated_intercept_variance(2, 0.5, 3))
        assert symmetric_tree_eigenvalues((np.int64(2), 2), (0.5, 0.5)) == [(1.5, 2), (0.5, 2)]
        assert phase_transition_curve(np.int64(2), 0.8, np.int64(3)) == (
            phase_transition_curve(2, 0.8, 3))


class TestSlopeFits:
    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf])
    def test_values_must_be_positive_and_finite(self, bad):
        ns, vs = [2, 4, 8], [1.0, 0.5, 0.25]
        for fit in (power_law_slope, log_corrected_slope):
            with pytest.raises(ConfigError, match="values must be finite and greater than 0"):
                fit(ns, [1.0, bad, 0.25])
            with pytest.raises(ConfigError, match="ns must be finite and greater than"):
                fit([2, bad, 8], vs)

    @pytest.mark.parametrize("n", [1, 0.5])
    def test_log_corrected_ns_must_exceed_one(self, n):
        assert power_law_slope([n, 4, 8], [1.0, 0.5, 0.25]) < 0
        with pytest.raises(ConfigError, match="ns must be finite and greater than 1"):
            log_corrected_slope([n, 4, 8], [1.0, 0.5, 0.25])

    def test_slopes_are_unchanged(self):
        ns, vs = [2, 4, 8, 16], [0.5, 0.26, 0.124, 0.0626]
        assert power_law_slope(ns, vs) == float(np.polyfit(np.log(ns), np.log(vs), 1)[0])
        x, y = np.log(np.log(ns)), np.log(np.multiply(ns, vs))
        assert log_corrected_slope(ns, vs) == float(np.polyfit(x, y, 1)[0])


class TestTreeFamilies:
    @pytest.mark.parametrize("d", [(5,), (2, 3, 4), (3, 2, 2, 2), (12, 11), (2,) * 16])
    def test_symmetric_arrays_match_node_by_node(self, d):
        t = tuple(0.1 * (i + 1) for i in range(len(d)))
        spec = SymmetricTreeSpec(d, t)
        assert_arrays(make_symmetric_tree(spec), *node_by_node_symmetric(spec))

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_star_family_arrays(self, n):
        cfg = ConvergenceConfig(family="star", sizes=(8, 16), beta=(0.0,), height=2.5)
        assert_arrays(
            family_tree(cfg, n),
            [-1] + [0] * n,
            [0.0] + [2.5] * n,
            ["root"] + [f"s{i}" for i in range(1, n + 1)],
        )

    @pytest.mark.parametrize("n", [0, 2, 8, 30])
    def test_fixed_root_family_arrays(self, n):
        cfg = ConvergenceConfig(
            family="fixed_root", sizes=(8, 16), beta=(0.0,), root_edge=0.25, height=1.5
        )
        half = n // 2
        assert_arrays(
            family_tree(cfg, n),
            [-1, 0, 0] + [1] * half + [2] * half,
            [0.0, 0.25, 0.25] + [1.25] * n,
            ["root", "L", "R"]
            + [f"l{i}" for i in range(1, half + 1)]
            + [f"r{i}" for i in range(1, half + 1)],
        )

    def test_symmetric_single_level_is_star(self):
        tree = make_symmetric_tree(SymmetricTreeSpec((5,), (0.8,)))
        assert tree.n_tips == 5
        V = bm_covariance(tree)
        assert np.allclose(V, 0.8 * np.eye(5))

    def test_symmetric_two_level_ess(self):
        tree = make_symmetric_tree(SymmetricTreeSpec((2, 2), (0.5, 0.5)))
        assert np.isclose(scaled_ess_pruning(tree), 8.0 / 3.0)

    def test_symmetric_spectra_match_builder(self):
        spec = SymmetricTreeSpec((3, 2), (0.4, 0.6))
        tree = make_symmetric_tree(spec)
        dense = np.sort(np.linalg.eigvalsh(bm_covariance(tree)))
        closed = np.sort(
            np.concatenate(
                [[lam] * mult for lam, mult in symmetric_tree_eigenvalues(spec.d, spec.t)]
            )
        )
        assert np.allclose(dense, closed, atol=1e-10)

    def test_replicated_m1_is_star(self):
        tree = make_replicated_tree(ReplicationSpec(d=4, q=0.3, m=1))
        assert tree.n_tips == 4
        assert np.allclose(bm_covariance(tree), np.eye(4))

    def test_replicated_lengths_sum_to_one(self):
        for q in (0.2, 0.5, 0.9):
            spec = ReplicationSpec(d=3, q=q, m=6)
            assert np.isclose(sum(spec.lengths()), 1.0)

    def test_prop_formula_branches(self):
        # qd != 1 branch at d=2, q=0.8, m=2.
        var = replicated_intercept_variance(2, 0.8, 2)
        q, d, m = 0.8, 2, 2
        formula = q ** (m - 1) / d + (1 - q) * (1 - (q * d) ** (m - 1)) / (
            d ** m * (1 - q * d)
        )
        assert np.isclose(var, formula)
        assert np.isclose(var, 0.45)
        # qd == 1 branch at d=2, q=0.5, m=3: (1 + (1-q)(m-1)) / d^m.
        var2 = replicated_intercept_variance(2, 0.5, 3)
        assert np.isclose(var2, (1 + 0.5 * 2) / 8)
        assert np.isclose(var2, 0.25)
        tree = make_replicated_tree(ReplicationSpec(2, 0.5, 3))
        dense = 1.0 / float(np.sum(np.linalg.inv(bm_covariance(tree))))
        assert np.isclose(var2, dense, rtol=1e-12)

    def test_symmetric_variance_closed_form(self):
        assert np.isclose(
            symmetric_intercept_variance((2, 2), (0.5, 0.5)), 0.375
        )


class TestPhaseCurve:
    def test_closed_form_matches_pruning(self):
        for q in (0.3, 0.5, 0.8):
            curve = phase_transition_curve(2, q, 12)
            for point in curve:
                assert point.var_pruning is not None
                assert np.isclose(
                    point.var_closed, point.var_pruning, rtol=1e-9
                )

    def test_pruning_limit_respected(self):
        curve = phase_transition_curve(2, 0.5, 20, pruning_limit=2 ** 10)
        assert curve[9].var_pruning is not None
        assert curve[10].var_pruning is None

    def test_rate_regimes_smoke(self):
        # Full-precision rate fits run in the acceptance suite.
        curve = phase_transition_curve(2, 0.3, 16)
        ns = [p.n for p in curve if p.m >= 8]
        vs = [p.var_closed for p in curve if p.m >= 8]
        assert abs(power_law_slope(ns, vs) + 1.0) < 0.05
        curve = phase_transition_curve(2, 0.8, 16)
        ns = [p.n for p in curve if p.m >= 8]
        vs = [p.var_closed for p in curve if p.m >= 8]
        assert abs(power_law_slope(ns, vs) - math.log(0.8) / math.log(2)) < 0.02


def phase_outcome(curve, *args):
    """The curve's points, or the type and message of what it raised."""
    try:
        return curve(*args)
    except TreeGlsError as exc:
        return type(exc), str(exc)


class TestPhaseCurveOneSweep:
    """The curve sweeps only its largest member within the pruning limit
    and reads every smaller member's variance from that sweep."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_every_member_swept(self, d):
        # Limits at d^k, at d^k +- 1 and below d; at m_max 6, q = 1e-100
        # underflows at m = 5.
        limits = sorted({d - 1} | {d ** k + j for k in range(1, 5) for j in (-1, 0, 1)})
        checked = 0
        for q in (1e-100, 0.1, 1.0 / d, 0.5, 0.8, 1.0 - 1e-12):
            for m_max in (4, 6):
                for limit in limits:
                    args = (d, q, m_max, limit)
                    got = phase_outcome(phase_transition_curve, *args)
                    want = phase_outcome(phase_curve_reference, *args)
                    if isinstance(want, tuple):
                        assert got == want, args
                        continue
                    assert [(p.m, p.n, p.var_closed.hex()) for p in got] == [
                        (p.m, p.n, p.var_closed.hex()) for p in want
                    ], args
                    swept = [p.var_pruning for p in want if p.var_pruning is not None]
                    assert [p.var_pruning is None for p in got] == [
                        p.var_pruning is None for p in want
                    ], args
                    if not swept:
                        continue
                    checked += 1
                    np.testing.assert_allclose(
                        [p.var_pruning for p in got[:len(swept)]], swept, rtol=1e-15, atol=0
                    )
                    assert got[len(swept) - 1].var_pruning.hex() == swept[-1].hex(), args
        # Every case but the underflow and the limit below d sweeps.
        assert checked == (6 * 2 - 1) * (len(limits) - 1)

    def test_builds_one_tree_per_call(self, monkeypatch):
        built = []
        init = simlab.PhyloTree.__init__

        def counted(self, parent, edge, names):
            init(self, parent, edge, names)
            built.append(self.n_tips)

        monkeypatch.setattr(simlab.PhyloTree, "__init__", counted)
        phase_transition_curve(2, 0.8, 16)
        assert built == [2 ** 16]
        phase_transition_curve(3, 0.5, 12, pruning_limit=3 ** 5 - 1)
        assert built == [2 ** 16, 3 ** 4]
        phase_transition_curve(2, 0.8, 16, pruning_limit=1)
        phase_transition_curve(5, 0.8, 3, pruning_limit=4)
        assert built == [2 ** 16, 3 ** 4]

    @pytest.mark.parametrize("d, q, m_max", [
        (2, 0.8, 16), (2, 0.3, 12), (3, 0.5, 9), (4, 1.0 - 1e-12, 7), (5, 0.1, 6), (2, 0.99, 1),
    ])
    def test_same_bits_as_the_named_tree(self, d, q, m_max):
        # The sweep reads no name: the curve is the one swept on the member
        # make_replicated_tree builds, names and all, bit for bit.
        curve = phase_transition_curve(d, q, m_max)
        tree = make_replicated_tree(ReplicationSpec(d, q, m_max))
        schedule = _bottom_up_schedule(tree)
        _, _, one, weight = _contrast_sweep(tree, np.empty((tree.n_tips, 0)), schedule=schedule)
        u = np.array([(d ** (m_max - m + 1) - 1) // (d - 1) for m in range(1, m_max)],
                     dtype=np.intp)
        want = ((tree.depths[tree.parent[u]] + 1.0 / weight[schedule[1][u], 0]) / d).tolist()
        want.append(1.0 / float(one[0]))
        assert [p.var_pruning.hex() for p in curve] == [v.hex() for v in want]

    # q = 1e-5 underflows at m = 66, q = 0.05 at m = 250; 1 - 1e-12 keeps
    # 1 - q far from 1/2.
    @pytest.mark.parametrize("d, q, m_max", [
        (2, 0.99, 300), (3, 0.5, 200), (2, 1e-5, 120), (5, 1.0 - 1e-12, 150), (2, 0.3, 1),
        (7, 0.8, 64), (4, 0.05, 260), (2 ** 40 + 1, 0.7, 40), (1, 0.5, 3), (2, 1.0, 3),
    ])
    def test_closed_column_matches_every_member(self, d, q, m_max):
        # A pruning limit of 1 sweeps no member: only the closed forms and
        # the refusals are compared, bit for bit.
        got = phase_outcome(phase_transition_curve, d, q, m_max, 1)
        want = phase_outcome(phase_curve_reference, d, q, m_max, 1)
        if isinstance(want, tuple):
            assert got == want
            return
        assert [(p.m, p.n, p.var_closed.hex(), p.var_pruning) for p in got] == [
            (p.m, p.n, p.var_closed.hex(), p.var_pruning) for p in want
        ]

    def test_closed_column_checks_one_member_spec(self, monkeypatch):
        # Member 1 checks d and q; only a member whose level length
        # underflows, and the swept member, are built besides.
        checked = []

        class Counted(simlab.ReplicationSpec):
            def __post_init__(self):
                checked.append(self.m)
                super().__post_init__()

        monkeypatch.setattr(simlab, "ReplicationSpec", Counted)
        phase_transition_curve(2, 0.99, 2000)
        assert checked == [1, 16]
        checked.clear()
        with pytest.raises(ConfigError, match="m=5 imply a level length"):
            phase_transition_curve(2, 1e-100, 6)
        assert checked == [1, 5]


class TestConvergenceConfig:
    def test_text_roundtrip(self):
        cfg = ConvergenceConfig(
            family="fixed_root",
            sizes=(8, 16, 32),
            beta=(0.5, -1.0),
            sigma2=2.0,
            root_edge=0.2,
            reps=64,
            seed=7,
        )
        again = ConvergenceConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_unknown_family(self):
        with pytest.raises(ConfigError, match="nested"):
            ConvergenceConfig(family="comb", sizes=(4, 8), beta=(0.0,))

    def test_sizes_must_increase(self):
        with pytest.raises(ConfigError):
            ConvergenceConfig(family="star", sizes=(8, 8), beta=(0.0,))

    def test_fixed_root_needs_even_sizes(self):
        with pytest.raises(ConfigError):
            ConvergenceConfig(family="fixed_root", sizes=(7, 14), beta=(0.0,))

    @pytest.mark.parametrize("family, sizes, beta", [
        ("star", (2, 4), (1.0, 0.5, 0.5)),
        ("star", (2, 3), (1.0, 0.5, 0.5)),
        ("fixed_root", (2, 8), (1.0, 0.5)),
        ("star", (1, 8), (0.0,)),
    ])
    def test_sizes_must_exceed_coefficients(self, family, sizes, beta):
        with pytest.raises(ConfigError, match="coefficients"):
            ConvergenceConfig(family=family, sizes=sizes, beta=beta)
        text = ConvergenceConfig(family, (100, 200), beta).to_text()
        text = text.replace("sizes=100,200", "sizes=" + ",".join(map(str, sizes)))
        with pytest.raises(ConfigError, match="coefficients"):
            ConvergenceConfig.from_text(text)

    @pytest.mark.parametrize("field, value, message", [
        ("sigma2", math.nan, "sigma2 must be positive and finite"),
        ("sigma2", math.inf, "sigma2 must be positive and finite"),
        ("beta", (math.nan, 1.0), re.escape("beta contains non-finite values")),
        ("beta", (0.0, -math.inf), re.escape("beta contains non-finite values")),
        ("height", math.inf, "height must be positive and finite"),
        ("height", math.nan, "height must be positive and finite"),
        ("height", 0.0, "height must be positive and finite"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"),
        ("reps", 2.7, "reps must be an integer"),
        ("sizes", (8.5, 16), "each size must be an integer"),
    ])
    @pytest.mark.parametrize("family, sizes", [("star", (8, 16)), ("fixed_root", (8, 16))])
    def test_bad_values_rejected(self, family, sizes, field, value, message):
        kwargs = dict(family=family, sizes=sizes, beta=(1.0, 0.5), reps=4)
        kwargs[field] = value
        with pytest.raises(ConfigError, match=message):
            ConvergenceConfig(**kwargs)

    def test_unknown_keys_rejected(self):
        text = "family=star\nsizes=4,8\nbeta=0.0\nwhat=3\n"
        with pytest.raises(ConfigError, match="unknown config keys"):
            ConvergenceConfig.from_text(text)

    def test_comments_and_blanks_ignored(self):
        text = "# comment\nfamily=star\n\nsizes=4,8\nbeta=0.0\n"
        cfg = ConvergenceConfig.from_text(text)
        assert cfg.family == "star"


class TestConvergenceExperiment:
    def test_star_family_consistent_at_iid_rate(self):
        cfg = ConvergenceConfig(
            family="star", sizes=(16, 32, 64), beta=(1.0,), reps=4000, seed=5
        )
        rep = convergence_experiment(cfg)
        rows = {n: v for (n, comp, v, t) in rep.variance_rows if comp == "intercept"}
        theory = {n: t for (n, comp, v, t) in rep.variance_rows if comp == "intercept"}
        for n in cfg.sizes:
            assert np.isclose(theory[n], 1.0 / n)
            assert abs(rows[n] - theory[n]) < 3 * theory[n] * math.sqrt(2.0 / 4000)

    def test_fixed_root_floor_holds(self):
        cfg = ConvergenceConfig(
            family="fixed_root",
            sizes=(8, 32, 128),
            beta=(0.0,),
            reps=4000,
            seed=11,
            root_edge=0.3,
        )
        rep = convergence_experiment(cfg)
        assert np.isclose(rep.floor_intercept, 0.15)
        slack = 1 - 3 * math.sqrt(2.0 / 4000)
        for (n, comp, v, t) in rep.variance_rows:
            if comp == "intercept":
                assert v >= rep.floor_intercept * slack

    def test_slope_variance_matches_exact_form(self):
        cfg = ConvergenceConfig(
            family="fixed_root",
            sizes=(32, 128),
            beta=(0.0, 1.0),
            reps=5000,
            seed=17,
        )
        rep = convergence_experiment(cfg)
        for (n, comp, v, t) in rep.variance_rows:
            if comp == "x1":
                assert np.isclose(t, 1.0 / (n - 1 - 2))
                assert abs(v - t) < 0.10 * t

    def test_increments_shrink(self):
        cfg = ConvergenceConfig(
            family="fixed_root",
            sizes=(8, 16, 32, 64),
            beta=(0.0,),
            reps=1500,
            seed=23,
        )
        rep = convergence_experiment(cfg)
        incs = [d for (_, _, comp, d) in rep.increment_rows if comp == "intercept"]
        assert all(b < a for a, b in zip(incs, incs[1:]))

    def test_sample_paths_shape(self):
        cfg = ConvergenceConfig(
            family="star", sizes=(4, 8), beta=(0.0,), reps=10, seed=1
        )
        rep = convergence_experiment(cfg)
        assert len(rep.sample_paths["intercept"]) == 8
        assert len(rep.sample_paths["intercept"][0]) == 2


def rendered(report):
    """Every number the report prints, as text."""
    return (report.variance_csv() + report.increment_csv()
            + repr(report.sample_paths) + repr(report.floor_intercept))


def root_paths(tree):
    """Per tip label, the (label, length) of each edge from the tip up to
    the root."""
    names, parent, edge = tree.names, tree.parent.tolist(), tree.edge_length.tolist()
    paths = {}
    for tip in tree.tip_ids:
        path, u = [], tip
        while u != tree.root:
            path.append((names[u], edge[u]))
            u = parent[u]
        paths[names[tip]] = path
    return paths


class TestRealizationDrawnOnce:
    """The experiment simulates its largest member once and reads every
    smaller member's tips from it."""

    @pytest.mark.parametrize("family", ["star", "fixed_root"])
    @pytest.mark.parametrize("sizes", [(6, 8, 64), (10, 24, 70)])
    @pytest.mark.parametrize("beta", [(0.5,), (1.0, -0.5), (0.0, 1.0, 2.0, -3.0)])
    @pytest.mark.parametrize("seed", [0, 31, 2**33 + 5])
    def test_report_equals_per_member_simulation(self, family, sizes, beta, seed):
        cfg = ConvergenceConfig(family=family, sizes=sizes, beta=beta, reps=12, seed=seed)
        want = rendered(convergence_experiment_reference(cfg))
        assert rendered(convergence_experiment(cfg)) == want

    @pytest.mark.parametrize("family", ["star", "fixed_root"])
    def test_members_are_nested_by_label(self, family):
        cfg = ConvergenceConfig(family=family, sizes=(4, 10, 24, 70), beta=(0.0,), reps=2)
        largest = root_paths(family_tree(cfg, cfg.sizes[-1]))
        for n in cfg.sizes:
            paths = root_paths(family_tree(cfg, n))
            assert len(paths) == n
            assert paths == {label: largest[label] for label in paths}

    @pytest.mark.parametrize("beta, calls", [
        ((1.0,), 1), ((1.0, 0.5), 2), ((1.0, 0.5, -1.0, 2.0), 2),
    ])
    def test_one_simulation_per_call(self, monkeypatch, beta, calls):
        simulated = []
        node_values = simlab._bm_node_values

        def counting(tree, *args, **kwargs):
            simulated.append(tree.n_tips)
            return node_values(tree, *args, **kwargs)

        monkeypatch.setattr(simlab, "_bm_node_values", counting)
        cfg = ConvergenceConfig(
            family="fixed_root", sizes=(8, 16, 32, 64, 70), beta=beta, reps=5
        )
        convergence_experiment(cfg)
        assert simulated == [70] * calls


class TestChiSquareLaw:
    def test_scaled_variance_estimate_is_chi_square(self):
        # (n - k) sigma2_hat / sigma2 ~ chi^2_{n-k}: mean and variance match
        # to 5% at 10^4 replicates; the estimate is uncorrelated with beta.
        from treegls.gls import gls_fit

        tree = random_tree(16, seed=33, ultrametric=True)
        reps = 10_000
        X, Y = simulate_traits(tree, [0.5, 1.0], np.eye(1), 1.0, seed=3, reps=reps)
        dofs = 16 - 2
        stats = np.empty(reps)
        betas = np.empty((reps, 2))
        for r in range(reps):
            fit = gls_fit(tree, np.column_stack([np.ones(16), X[r]]), Y[r])
            stats[r] = fit.dof * fit.sigma2_hat
            betas[r] = fit.beta
        assert abs(stats.mean() - dofs) < 0.05 * dofs
        assert abs(stats.var(ddof=1) - 2 * dofs) < 0.05 * 2 * dofs
        for j in range(2):
            corr = np.corrcoef(stats, betas[:, j])[0, 1]
            assert abs(corr) < 3.0 / math.sqrt(reps)
