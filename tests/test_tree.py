"""Tree structure, Newick round-trips, rerooting and restriction."""

import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from treegls import (
    NewickError,
    PhyloTree,
    TreeError,
    bm_covariance,
    extract_subtree,
    parse_newick,
    reroot,
    restrict_to_tips,
    tree_stats,
    write_newick,
)
from treegls import tree as tree_module
from treegls.simlab import (
    ReplicationSpec,
    SymmetricTreeSpec,
    make_replicated_tree,
    make_symmetric_tree,
    random_tree,
)
from treegls.tree import (
    _INDEX_GRACE,
    _LABEL_BAD_RE,
    _LEVEL_WIDTH,
    _euler_tour,
    _first_fault,
    _heights_below,
    _labels_valid,
    _level_index,
    _newick_arrays,
    _tree_height,
)

from conftest import (
    assert_isomorphic,
    assert_same_tree,
    caterpillar_newick,
    comb_of_clades,
    extract_subtree_reference,
    heights_below_reference,
    mrca_reference,
    reroot_reference,
    restrict_to_tips_reference,
    scan_newick_reference,
    tailed_tree,
    tip_distance_matrix,
    trees,
    write_newick_reference,
)

EPS = 1e-12

# Malformed input -> (message, location), as the token scan
# (``scan_newick_reference``) reports them; the rows before the four last
# are also as the recursive-descent parser before it reported them.
NEWICK_ERRORS = [
    ("(A:1,B:2", "expected ',' or ')' (at position 8)", 8),
    ("((A:1,B:2):1,C:1", "expected ',' or ')' (at position 16)", 16),
    ("(A:1,B:2)", "expected ';' (at position 9)", 9),
    ("(A:1,B:2); junk", "trailing text after ';' (at position 11)", 11),
    ("(A:1,B:2);;", "trailing text after ';' (at position 10)", 10),
    ("(A:1,B:1e);", "bad branch length '1e' (at position 9)", 9),
    ("(A:1,B:1.2.3);", "bad branch length '1.2.3' (at position 12)", 12),
    ("(A:1,B:1x2);", "expected ',' or ')' (at position 8)", 8),
    ("(A:1 B:1);", "expected ',' or ')' (at position 5)", 5),
    ("(A:1,B:-0.5);", "negative branch length -0.5 (at position 11)", 11),
    ("(A:1,B:1):-1;", "negative branch length -1.0 (at position 12)", 12),
    ("(A:1,B);", "missing branch length on a non-root edge (at position 6)", 6),
    ("((A:1,B:1),C:1);", "missing branch length on a non-root edge (at position 10)", 10),
    ("(A:1,B: );", "expected a branch length (at position 8)", 8),
    ("(A:1,B\u00e9:1);", "illegal character '\u00e9' in label (at position 6)", 6),
    ("(A:1,B:1)ab\u00e9:1;", "illegal character '\u00e9' in label (at position 11)", 11),
    ("(A:1,B:1) \u00e9;", "illegal character '\u00e9' in label (at position 10)", 10),
    ("(A:1,B\x00:1);", "illegal character '\\x00' in label (at position 6)", 6),
    ("(A:1,,B:1);", "expected a tip label or '(' (at position 5)", 5),
    ("();", "expected a tip label or '(' (at position 1)", 1),
    ("(A:1,B:1)'x';", "expected ';' (at position 9)", 9),
    ("(A:1,A:2);", "duplicate label 'A'", None),
    ("((A:1,B:1)x:1,(C:1,D:1)x:1);", "duplicate label 'x'", None),
    ("(A:1,B:1e999);", "negative or non-finite branch length inf on node 2", None),
    ("  (A:1,B:2)", "expected ';' (at position 11)", 11),
    ("   ", "expected a tip label or '(' (at position 3)", 3),
    ("(\u00e9:1,B:1);", "illegal character '\u00e9' in label (at position 1)", 1),
    ("('A':1,B:1);", "expected a tip label or '(' (at position 1)", 1),
    ("(A:1,B:1)ab \u00e9;", "expected ';' (at position 12)", 12),
    ("(A:1,B:1)x:;", "expected a branch length (at position 11)", 11),
]


def reference_index(tree):
    """Postorder, tip ranges, levels and depths by per-node loops."""
    n, parent, children = tree.n_nodes, tree.parent, tree.children
    order, stack = [], [tree.root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(children[u])
    postorder = order[::-1]
    position = {t: i for i, t in enumerate(tree.tip_ids)}
    lo, hi = [n] * n, [0] * n
    for u in postorder:
        if not children[u]:
            lo[u], hi[u] = position[u], position[u] + 1
        elif parent[u] < 0:
            continue
        p = parent[u]
        if p >= 0:
            lo[p], hi[p] = min(lo[p], lo[u]), max(hi[p], hi[u])
    levels, depths = [0] * n, [0.0] * n
    for u in order[1:]:
        levels[u] = levels[parent[u]] + 1
        depths[u] = depths[parent[u]] + float(tree.edge_length[u])
    return postorder, [list(r) for r in zip(lo, hi)], levels, depths


SHAPES = [
    "(((A:0.1,B:0.2)x:0.3,C:0.4)y:0.5,D:0.6);",
    "(A:1,B:1,C:1,D:1,(E:1,F:0,G:2):0);",
    "((((A:0.1):0.2):0.3,B:1):0,C:0);",
    "((A:0,B:0):0,(C:1,(D:1,E:1,F:1):1):1):2;",
    caterpillar_newick(40),
]


class TestParse:
    def test_two_tip_star(self):
        t = parse_newick("(A:1.0,B:1.0);")
        assert t.n_tips == 2
        assert t.tip_labels == ("A", "B")
        assert len(t.children[t.root]) == 2

    def test_three_tip_heights(self, three_tip):
        assert np.allclose(three_tip.tip_heights, [1.0, 1.0, 1.0])
        assert tree_stats(three_tip).is_ultrametric

    def test_negative_branch_length(self):
        with pytest.raises(NewickError) as exc:
            parse_newick("(A:1.0,B:-0.5);")
        assert exc.value.location is not None

    def test_duplicate_tip_label(self):
        with pytest.raises(NewickError, match="duplicate"):
            parse_newick("(A:1,A:2);")

    def test_missing_branch_length(self):
        with pytest.raises(NewickError, match="missing branch length"):
            parse_newick("(A:1,B);")

    def test_syntax_error_reports_position(self):
        with pytest.raises(NewickError) as exc:
            parse_newick("(A:1,B:2")
        assert exc.value.location == 8

    def test_trailing_garbage(self):
        with pytest.raises(NewickError):
            parse_newick("(A:1,B:2); junk")

    def test_single_tip_with_edge(self):
        t = parse_newick("A:1;")
        assert t.n_tips == 1
        assert t.tip_heights[0] == 1.0

    def test_top_level_length_promotes_root(self):
        t = parse_newick("(A:1,B:1):0.5;")
        assert len(t.children[t.root]) == 1
        assert np.allclose(t.tip_heights, [1.5, 1.5])

    def test_internal_labels_kept(self, four_tip):
        assert four_tip.node_id("ab") >= 0
        assert four_tip.tips_below(four_tip.node_id("ab")) == ("A", "B")

    def test_zero_length_edges_parse(self):
        t = parse_newick("((A:0,B:1):1,C:2);")
        assert t.n_tips == 3

    def test_canonical_order_is_depth_first(self):
        t = parse_newick("((D:1,C:1):1,(B:1,A:1):1);")
        assert t.tip_labels == ("D", "C", "B", "A")

    @pytest.mark.parametrize("text,message,location", NEWICK_ERRORS)
    def test_error_contract(self, text, message, location):
        with pytest.raises(NewickError) as exc:
            parse_newick(text)
        assert str(exc.value) == message
        assert exc.value.location == location

    def test_whitespace_between_tokens(self):
        t = parse_newick(" \t(A:1, B:1 ) ab : 2 ; ")
        assert t.parent.tolist() == [3, 0, 0, -1]
        assert t.edge_length.tolist() == [2.0, 1.0, 1.0, 0.0]
        assert t.names == ("ab", "A", "B", None)

    def test_node_ids_in_opening_order(self):
        t = parse_newick("((A:1,B:2)x:3,C:4)r;")
        assert t.parent.tolist() == [-1, 0, 1, 1, 0]
        assert t.names == ("r", "x", "A", "B", "C")
        assert t.edge_length.tolist() == [0.0, 3.0, 1.0, 2.0, 4.0]

    def test_deep_caterpillar_parses_and_roundtrips(self):
        text = caterpillar_newick(100_000)
        t = parse_newick(text)
        assert t.n_tips == 100_000
        assert int(t.levels.max()) == 99_999
        assert write_newick(t) == text


LENGTH_TEXTS = ["1", "0.25", "+1", ".5", "1.", "1E5", "-0", "0", "2e-3", "0.1e+1", "1e999"]
BLANKS = ["", "", "", " ", "\t", "\n  ", "\u00a0", "\u2003"]
LABELS = ["t{}", "T_{}", "x-{}", "[{}]", "{}.5", "a|{}"]
MUTATION_CHARS = "(),:;.+-eE019 tAx_\t\u00e9'\x00\u00a0[\ud800"


def random_newick(rng):
    """A valid text: random shape, optional internal labels and root
    length, assorted length spellings and whitespace between tokens."""
    ids = iter(range(10**6))

    def blank():
        return rng.choice(BLANKS)

    def label():
        return rng.choice(LABELS).format(next(ids))

    def element(depth):
        if depth > 4 or rng.random() < 0.4:
            return label()
        kids = [
            element(depth + 1) + blank() + ":" + blank() + rng.choice(LENGTH_TEXTS)
            for _ in range(rng.choice([1, 2, 2, 3, 4]))
        ]
        inner = ("," + blank()).join(kid + blank() for kid in kids)
        return "(" + blank() + inner + ")" + blank() + (label() if rng.random() < 0.3 else "")

    text = element(0)
    if rng.random() < 0.3:
        text += blank() + ":" + blank() + rng.choice(LENGTH_TEXTS)
    return blank() + text + blank() + ";" + blank()


def mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    c = rng.choice(MUTATION_CHARS)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + c + text[i:]
    if op == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + c + text[i + 1:]


def differential_texts(seed, n_valid=60, per_text=34):
    rng = random.Random(seed)
    valid = [random_newick(rng) for _ in range(n_valid)]
    valid += [caterpillar_newick(7), "A;", " A:1 ; ", "(A:1)r:2;", *SHAPES]
    mutants = [mutate(rng, text) for text in valid for _ in range(per_text)]
    return valid + mutants


class TestArrayParse:
    """The reader against the token scan it replaced
    (``scan_newick_reference``).  Every text the scan accepts gives the same
    arrays by the array path, and ``_first_fault`` finds no fault in it.  A
    text the scan refuses gives no arrays or arrays that PhyloTree refuses,
    ``_first_fault`` names the scan's fault, and parse_newick raises it."""

    @staticmethod
    def assert_agrees(text):
        """Whether parse_newick builds the tree from the array path's arrays."""
        arrays = _newick_arrays(text)
        try:
            scanned = scan_newick_reference(text)
        except NewickError as exc:
            message = str(exc).removesuffix(f" (at position {exc.location})")
            assert _first_fault(text) == (message, exc.location), text
            if arrays is not None:
                with pytest.raises(TreeError):
                    PhyloTree(*arrays)
            with pytest.raises(NewickError) as got:
                parse_newick(text)
            assert (str(got.value), got.value.location) == (str(exc), exc.location)
            return False
        assert _first_fault(text) is None, text
        assert arrays is not None, text
        parent, edge, names = arrays
        assert parent.tolist() == scanned[0]
        assert edge.tobytes() == np.array(scanned[1]).tobytes()
        assert names == scanned[2]
        assert all(type(a) is type(b) for a, b in zip(names, scanned[2]))
        try:
            PhyloTree(*arrays)
        except TreeError:
            return False
        return True

    @pytest.mark.parametrize("seed", range(3))
    def test_random_texts_and_mutations(self, seed):
        texts = differential_texts(seed)
        assert len(texts) > 2000
        accepted = sum(self.assert_agrees(text) for text in texts)
        # Both outcomes are exercised in quantity.
        assert 100 < accepted < len(texts) - 1000

    @pytest.mark.parametrize("text,message,location", NEWICK_ERRORS)
    def test_error_table(self, text, message, location):
        self.assert_agrees(text)

    @pytest.mark.parametrize(
        "text", ["(A\ud800:1,B:1);", "(A:1,B:1)\udfff;", "\ud800(A:1,B:1);", "(A:1\ud800,B:1);"]
    )
    def test_lone_surrogate_is_a_newick_error(self, text):
        self.assert_agrees(text)
        with pytest.raises(NewickError):
            parse_newick(text)

    def test_large_trees(self):
        for text in (caterpillar_newick(3000), write_newick(random_tree(3000, seed=5))):
            self.assert_agrees(text)
            assert _newick_arrays(text) is not None

    def test_parse_memory_is_bounded(self):
        # 2^15 tips in 3.1 MB of text: the array pass peaks near 25 MB, and
        # the tree it builds holds about 12 MB.
        text = write_newick(make_replicated_tree(ReplicationSpec(2, 0.8, 15)))
        tracemalloc.start()
        try:
            parse_newick(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_length_characters_agree_with_the_pattern(self):
        # A length piece passes the array checks exactly when the pattern
        # its character check replaced finds nothing and float reads it;
        # float alone would read the Arabic-Indic digit.
        pattern = re.compile(r"[^-+.eE0-9]")
        chars = [chr(c) for c in range(256)] + ["\u20ac", "\ud800", "\U0001f600", "\u0661"]
        for c in chars:
            if c in "(),:;\x00" or c.isspace():
                continue
            piece = "1" + c
            want = pattern.search(piece) is None
            try:
                float(piece)
            except ValueError:
                want = False
            assert (_newick_arrays(f"(A:1,B:{piece});") is not None) == want, repr(c)

    def test_signed_zero_length_kept(self):
        t = parse_newick("(A:-0,B:1);")
        assert np.signbit(t.edge_length[1])

    def test_a_parse_checks_the_joined_labels_once(self, monkeypatch):
        checked, searched = [], []

        def counting_check(text):
            checked.append(text)
            return _labels_valid(text)

        class Counting:
            @staticmethod
            def search(text):
                searched.append(text)
                return _LABEL_BAD_RE.search(text)

        monkeypatch.setattr("treegls.tree._labels_valid", counting_check)
        monkeypatch.setattr("treegls.tree._LABEL_BAD_RE", Counting())
        t = parse_newick("((A:1,B:1)ab:1,(C:0.5,D:1.5):1);")
        assert t.tip_labels == ("A", "B", "C", "D")
        assert (checked, searched) == (["ab!A!B!C!D"], [])
        # The pattern runs only to name the node of a refused label.
        with pytest.raises(TreeError, match="^invalid label 'C D'$"):
            PhyloTree([-1, 0, 0, 0], [0.0, 1.0, 1.0, 1.0], [None, "A", "B", "C D"])
        assert (checked[1:], searched) == (["A!B!C D"], ["A", "B", "C D"])

    def test_a_refused_text_builds_one_tree(self, monkeypatch):
        built = []

        class Counting(PhyloTree):
            __slots__ = ()

            def __init__(self, *arrays):
                built.append(arrays)
                super().__init__(*arrays)

        monkeypatch.setattr("treegls.tree.PhyloTree", Counting)
        with pytest.raises(NewickError, match="^duplicate label 'A'$"):
            parse_newick("(A:1,A:2);")
        assert len(built) == 1
        built.clear()
        with pytest.raises(NewickError, match=r"^negative branch length -2\.0 \(at position 9\)$"):
            parse_newick("(A:1,B:-2);")
        assert len(built) == 1

    def test_joined_label_check_agrees_with_the_pattern(self):
        chars = [chr(c) for c in range(256)] + ["\u20ac", "\ud800", "\U0001f600"]
        for c in chars:
            assert _labels_valid(c) == (_LABEL_BAD_RE.search(c) is None), repr(c)
            assert _labels_valid("a!" + c + "b") == _labels_valid(c)
        assert _labels_valid("")


def symmetric_2_12():
    lengths = tuple((i % 5 + 1) / 30 for i in range(12))
    return make_symmetric_tree(SymmetricTreeSpec((2,) * 12, lengths))


def rebuilt_trees(seed):
    """A random tree rerooted at, cut below and restricted around one of its
    inner nodes."""
    t = random_tree(12 + seed, seed=300 + seed, polytomy_prob=0.3)
    inner = [u for u in range(t.n_nodes) if not t.is_tip(u) and u != t.root]
    node = inner[seed % len(inner)]
    return [reroot(t, node), extract_subtree(t, node),
            restrict_to_tips(t, t.tip_labels[seed % 3::2])]


def rerooted_deep(t, level):
    """``t`` rerooted at its first inner node on ``level``."""
    return reroot(t, int(np.flatnonzero((t.levels == level) & (t._n_children > 0))[0]))


# Trees on both sides of the index rule, and the path each takes.
INDEX_TREES = {
    "symmetric 2^12": (lambda: [symmetric_2_12()], "levels"),
    "replicated 2^15": (lambda: [make_replicated_tree(ReplicationSpec(2, 0.8, 15))], "levels"),
    "random 3000": (lambda: [random_tree(3000, seed=5, polytomy_prob=0.2)], "levels"),
    "symmetric 2^10": (
        lambda: [make_symmetric_tree(SymmetricTreeSpec((2,) * 10, (0.1,) * 10))], "tour"
    ),
    "caterpillar 3000": (lambda: [parse_newick(caterpillar_newick(3000))], "tour"),
    "comb of clades": (lambda: [comb_of_clades(50, 6)], "tour"),
    "tailed 2^11": (lambda: [tailed_tree(11, 12)], "tour"),  # 172 nodes a level
    # Rerooted at a node 13 levels down: its top levels are narrow.
    "rerooted 2^15": (
        lambda: [reroot(make_replicated_tree(ReplicationSpec(2, 0.8, 15)),
                        "n0-1-1-1-0-1-0-0-1-1-1-0-1")],
        "levels",
    ),
    # Rerooted 20 levels down: its first 17 levels average 12 nodes, but
    # they widen (level 8 holds 2 nodes, level 16 holds 60).
    "random 2^14 rerooted": (lambda: [rerooted_deep(random_tree(16384, seed=6), 20)], "levels"),
    "rebuilt": (lambda: [t for seed in range(10) for t in rebuilt_trees(seed)], "tour"),
}
CYCLES = [[-1, 0, 3, 2, 3], [-1, 0, 0, 4, 3, 3], [-1, 2, 1, 1], [1, 2, 0, -1, 3]]


def kids_and_first(t):
    """The child grouping both index paths read."""
    counts = t._n_children
    return np.argsort(t.parent, kind="stable")[1:], np.cumsum(counts) - counts


@pytest.fixture
def tours(monkeypatch):
    """The trees :func:`treegls.tree._euler_tour` indexes, by node count."""
    seen = []

    def spy(root, parent, *rest):
        seen.append(parent.shape[0])
        return _euler_tour(root, parent, *rest)

    monkeypatch.setattr(tree_module, "_euler_tour", spy)
    return seen


@pytest.fixture
def levels_always(monkeypatch):
    """Every tree indexed by levels, whatever its size and width."""
    monkeypatch.setattr(tree_module, "_INDEX_MIN_NODES", 0)
    monkeypatch.setattr(tree_module, "_INDEX_WIDTH", 0)
    monkeypatch.setattr(tree_module, "_INDEX_GRACE", np.inf)


class TestIndex:
    @staticmethod
    def assert_matches_per_node_loops(t):
        postorder, tip_range, levels, depths = reference_index(t)
        assert t.postorder.tolist() == postorder
        assert t.tip_range.tolist() == tip_range
        assert t.levels.tolist() == levels
        assert t.depths.tolist() == depths

    @pytest.mark.parametrize("text", SHAPES)
    def test_shapes(self, text):
        self.assert_matches_per_node_loops(parse_newick(text))

    @pytest.mark.parametrize("text", SHAPES)
    def test_tip_id_array(self, text):
        t = parse_newick(text)
        ids = t.tip_id_array
        assert ids.dtype == np.int64 and not ids.flags.writeable
        assert ids.tolist() == list(t.tip_ids)
        # tip_heights is a fresh array each call: a caller may edit it.
        heights = t.tip_heights
        heights += 1.0
        assert t.tip_heights.tolist() == t.depths[ids].tolist()

    @pytest.mark.parametrize("seed", range(20))
    def test_random_trees(self, seed):
        t = random_tree(2 + seed * 3, seed=seed, ultrametric=bool(seed % 2))
        self.assert_matches_per_node_loops(t)

    @pytest.mark.parametrize("d", [(2, 2, 2), (3, 2, 4), (2,) * 9])
    def test_breadth_first_ids(self, d):
        t = make_symmetric_tree(SymmetricTreeSpec(d, tuple(0.1 * (i + 1) for i in range(len(d)))))
        self.assert_matches_per_node_loops(t)

    @pytest.mark.parametrize("seed", range(10))
    def test_rebuilt_trees(self, seed):
        for t in rebuilt_trees(seed):
            self.assert_matches_per_node_loops(t)

    @pytest.mark.parametrize("name", INDEX_TREES)
    def test_level_pass_matches_the_tour(self, levels_always, name):
        for t in INDEX_TREES[name][0]():
            by_levels = _level_index(t.root, t._n_children, *kids_and_first(t))
            by_tour = _euler_tour(t.root, t.parent, t._n_children, *kids_and_first(t))
            for got, want in zip(by_levels, by_tour, strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", INDEX_TREES)
    def test_path_taken(self, tours, name):
        trees, path = INDEX_TREES[name]
        for t in trees():
            tours.clear()
            copy = PhyloTree(t.parent, t.edge_length, t.names)
            assert tours == ([t.n_nodes] if path == "tour" else [])
            assert copy.preorder.tobytes() == t.preorder.tobytes()

    @staticmethod
    def walked_levels(t):
        """How many levels the walk reads (one level's child counts a
        step) before it gives up; it must give up."""
        steps = []

        class Counts(np.ndarray):
            def take(self, *args, **kwargs):
                steps.append(1)
                return np.asarray(self).take(*args, **kwargs)

        counts = t._n_children.view(Counts)
        assert _level_index(t.root, counts, *kids_and_first(t)) is None
        return len(steps)

    def test_narrow_walk_gives_up_early(self):
        # It rules out a caterpillar at level _INDEX_GRACE, 20,000 levels
        # above its last.
        assert self.walked_levels(parse_newick(caterpillar_newick(20_000))) == _INDEX_GRACE

    @pytest.mark.parametrize("depth", [2, 3])
    def test_flat_comb_walk_gives_up_early(self, depth):
        # Combs of 2^2- and 2^3-tip clades hold 8 or 16 nodes on every level
        # past the fourth: too few on average and not widening, so the walk
        # stops at level _INDEX_GRACE, 2,000 levels above their last.
        assert self.walked_levels(comb_of_clades(2000, depth)) == _INDEX_GRACE

    @pytest.mark.parametrize("shape, wide", [
        ("symmetric", True), ("random", True), ("caterpillar", False),
    ])
    def test_depths_on_both_sides_of_the_level_rule(self, shape, wide):
        # The symmetric and random trees take the level-by-level pass; the
        # caterpillar, with a level per tip, takes the loop.
        if shape == "symmetric":
            t = symmetric_2_12()
        elif shape == "random":
            t = random_tree(3000, seed=5, polytomy_prob=0.2)
        else:
            t = parse_newick(caterpillar_newick(3000))
        assert (int(t.levels.max()) * _LEVEL_WIDTH <= t.n_nodes - 1) == wide
        depths = reference_index(t)[3]
        assert t.depths.tobytes() == np.array(depths).tobytes()
        inner = [u for u in t.preorder.tolist() if not t.is_tip(u)]
        for node in inner[:3] + inner[len(inner) // 2:len(inner) // 2 + 2]:
            got = _heights_below(t, node)
            assert got.tobytes() == heights_below_reference(t, node).tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_children_built_on_first_use(self, seed):
        t = random_tree(15, seed=seed, polytomy_prob=0.4)
        parent = t.parent.tolist()
        assert t.children == tuple(
            tuple(c for c in range(t.n_nodes) if parent[c] == u) for u in range(t.n_nodes)
        )
        assert t.children is t.children
        assert [t.is_tip(u) for u in range(t.n_nodes)] == [not c for c in t.children]

    @pytest.mark.parametrize("parent", CYCLES)
    def test_node_off_a_parent_cycle(self, parent):
        names = [f"x{i}" for i in range(len(parent))]
        with pytest.raises(TreeError, match="^tree is not connected$"):
            PhyloTree(parent, [0.0] + [1.0] * (len(parent) - 1), names)

    @pytest.mark.parametrize("parent", CYCLES + [[-1, 0, 3, 2]])
    def test_node_off_a_parent_cycle_by_levels(self, levels_always, tours, parent):
        names = [f"x{i}" for i in range(len(parent))]
        with pytest.raises(TreeError, match="^tree is not connected$"):
            PhyloTree(parent, [0.0] + [1.0] * (len(parent) - 1), names)
        assert not tours

    @pytest.mark.parametrize("cycle, names", [
        ([2, 0, 1], [None, None, None]),  # three nodes, no tips
        ([1, 0, 0], [None, None, "x"]),  # two nodes and a tip below them
    ])
    def test_wide_tree_beside_a_parent_cycle(self, tours, cycle, names):
        t = symmetric_2_12()
        n = t.n_nodes
        parent = np.append(t.parent, np.array(cycle) + n)
        edge = np.append(t.edge_length, [1.0] * len(cycle))
        with pytest.raises(TreeError, match="^tree is not connected$"):
            PhyloTree(parent, edge, list(t.names) + names)
        assert not tours

    def test_children_in_node_id_order(self):
        t = PhyloTree([3, 3, -1, 2, 3, 2], [1, 1, 0, 1, 1, 1], ["A", "B", None, None, "C", "D"])
        assert t.children == ((), (), (3, 5), (0, 1, 4), (), ())
        assert t.tip_labels == ("A", "B", "C", "D")

    @pytest.mark.parametrize(
        "parent,names,message",
        [
            ([-1, 0, -1], [None, "A", "B"], "more than one root"),
            ([-1, 5, 0], [None, "A", "B"], "parent index 5 out of range"),
            ([0, 0, 0], [None, "A", "B"], "no root"),
            ([-1, 0, 0], [None, "A", None], "tip node 2 lacks a label"),
            ([-1, 0, 0], [None, "A", "a b"], "invalid label 'a b'"),
            ([-1, 0, 0], [None, "", "B"], "invalid label ''"),
            ([-1, 0, 0], ["A", "A", "B"], "duplicate label 'A'"),
            ([-1, 0, 3, 2], [None, "A", "B", "C"], "tree is not connected"),
        ],
    )
    def test_constructor_errors(self, parent, names, message):
        with pytest.raises(TreeError, match=f"^{message}$"):
            PhyloTree(parent, [0.0] + [1.0] * (len(parent) - 1), names)


class TestWrite:
    def test_two_tip(self):
        t = parse_newick("(A:1.0,B:1.0);")
        assert write_newick(t) == "(A:1.0,B:1.0);"

    def test_single_tip_roundtrip(self):
        t = parse_newick("A:1;")
        again = parse_newick(write_newick(t))
        assert_isomorphic(t, again)

    @pytest.mark.parametrize("seed", range(100))
    def test_roundtrip_random_trees(self, seed):
        t = random_tree(2 + seed % 14, seed=seed, ultrametric=bool(seed % 2))
        again = parse_newick(write_newick(t))
        assert_isomorphic(t, again)

    def test_roundtrip_preserves_covariance_exactly(self, three_tip):
        V1 = bm_covariance(three_tip)
        V2 = bm_covariance(parse_newick(write_newick(three_tip)))
        assert np.array_equal(V1, V2)


class TestReroot:
    def test_reroot_at_root_is_identity(self, three_tip):
        assert reroot(three_tip, three_tip.root) is three_tip

    def test_reroot_at_tip_rejected(self, three_tip):
        with pytest.raises(TreeError):
            reroot(three_tip, three_tip.tip_ids[0])

    def test_unknown_node_rejected(self, three_tip):
        with pytest.raises(TreeError):
            reroot(three_tip, "nope")

    def test_reversed_path_arrays(self):
        t = parse_newick(SHAPES[0])
        r = reroot(t, "x")
        assert r.names == ("x", "A", "B", "y", "C", None, "D")
        assert r.parent.tolist() == [-1, 0, 0, 0, 3, 3, 5]
        assert r.edge_length.tolist() == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]

    def test_deep_caterpillar(self):
        t = parse_newick(caterpillar_newick(20_000))
        deepest = int(np.argmax(t.levels))
        r = reroot(t, int(t.parent[deepest]))
        assert r.n_tips == t.n_tips
        assert r.edge_length.sum() == pytest.approx(t.edge_length.sum())

    def test_total_length_preserved(self, four_tip):
        nid = four_tip.node_id("ab")
        assert (
            abs(reroot(four_tip, nid).edge_length.sum() - four_tip.edge_length.sum())
            < EPS
        )

    def test_covariance_changes_even_though_distances_do_not(self, three_tip):
        # Shared-ancestry times are root-relative, so V is not reroot
        # invariant; only the pairwise distances are.
        r = reroot(three_tip, three_tip.mrca(["A", "B"]))
        order = [r.tip_labels.index(lab) for lab in three_tip.tip_labels]
        V0 = bm_covariance(three_tip)
        V1 = bm_covariance(r)[np.ix_(order, order)]
        assert not np.allclose(V0, V1)
        assert np.allclose(tip_distance_matrix(three_tip),
                           tip_distance_matrix(r)[np.ix_(order, order)])

    @pytest.mark.parametrize("seed", range(200))
    def test_pairwise_distances_preserved(self, seed):
        t = random_tree(3 + seed % 10, seed=1000 + seed)
        labels = t.tip_labels
        D0 = tip_distance_matrix(t)
        internals = [u for u in range(t.n_nodes) if not t.is_tip(u) and u != t.root]
        for node in internals:
            r = reroot(t, node)
            order = [r.tip_labels.index(lab) for lab in labels]
            D1 = tip_distance_matrix(r)[np.ix_(order, order)]
            assert np.max(np.abs(D0 - D1)) < EPS


class TestRestrict:
    def test_keep_all_is_isomorphic(self, four_tip):
        assert_isomorphic(four_tip, restrict_to_tips(four_tip, four_tip.tip_labels))

    def test_hand_pruned_pair(self, three_tip):
        r = restrict_to_tips(three_tip, {"A", "C"})
        assert sorted(r.tip_labels) == ["A", "C"]
        V = bm_covariance(r)
        i, j = r.tip_labels.index("A"), r.tip_labels.index("C")
        assert abs(V[i, i] - 1.0) < EPS
        assert abs(V[j, j] - 1.0) < EPS
        assert abs(V[i, j]) < EPS

    def test_unknown_label(self, three_tip):
        with pytest.raises(TreeError, match="unknown tip label"):
            restrict_to_tips(three_tip, {"Z"})

    def test_empty_keep(self, three_tip):
        with pytest.raises(TreeError):
            restrict_to_tips(three_tip, set())

    def test_pass_through_lengths_sum_top_down(self):
        # (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3) in the last bit.
        t = parse_newick("(((A:0.3):0.2):0.1,B:1);")
        r = restrict_to_tips(t, ["A", "B"])
        assert r.parent.tolist() == [-1, 0, 0]
        assert r.edge_length.tolist() == [0.0, (0.1 + 0.2) + 0.3, 1.0]

    def test_kept_nodes_in_preorder(self):
        t = parse_newick(SHAPES[0])
        r = restrict_to_tips(t, {"D", "A", "C"})
        assert r.parent.tolist() == [-1, 0, 1, 1, 0]
        assert r.names == (None, "y", "A", "C", "D")
        assert r.edge_length.tolist() == [0.0, 0.5, 0.3 + 0.1, 0.4, 0.6]

    def test_deep_caterpillar(self):
        t = parse_newick(caterpillar_newick(20_000))
        r = restrict_to_tips(t, t.tip_labels[::2])
        assert r.tip_labels == t.tip_labels[::2]
        assert np.array_equal(r.tip_heights, t.tip_heights[::2])

    def test_root_retained_as_unary(self, three_tip):
        r = restrict_to_tips(three_tip, {"A"})
        assert r.n_tips == 1
        assert abs(r.tip_heights[0] - 1.0) < EPS

    @pytest.mark.parametrize("seed", range(60))
    def test_shared_ancestry_preserved(self, seed):
        rng = np.random.default_rng(seed)
        t = random_tree(4 + seed % 8, seed=2000 + seed, ultrametric=bool(seed % 2))
        k = int(rng.integers(2, t.n_tips + 1))
        keep = list(rng.choice(t.tip_labels, size=k, replace=False))
        r = restrict_to_tips(t, keep)
        V_full = bm_covariance(t)
        V_res = bm_covariance(r)
        full_idx = {lab: i for i, lab in enumerate(t.tip_labels)}
        for i, a in enumerate(r.tip_labels):
            for j, b in enumerate(r.tip_labels):
                assert abs(V_res[i, j] - V_full[full_idx[a], full_idx[b]]) < EPS


class TestExtractSubtree:
    def test_cherry_extraction(self, four_tip):
        sub = extract_subtree(four_tip, "ab")
        assert sub.tip_labels == ("A", "B")
        assert np.allclose(sub.tip_heights, [0.2, 0.2])

    def test_tip_rejected(self, four_tip):
        with pytest.raises(TreeError):
            extract_subtree(four_tip, four_tip.tip_ids[0])

    def test_arrays_in_preorder(self):
        t = parse_newick(SHAPES[0])
        sub = extract_subtree(t, "y")
        assert sub.parent.tolist() == [-1, 0, 1, 1, 0]
        assert sub.edge_length.tolist() == [0.0, 0.3, 0.1, 0.2, 0.4]
        assert sub.names == ("y", "x", "A", "B", "C")


def scrambled_tree(rng, n_tips, unary_root=None):
    """A random tree with polytomies, unary nodes, zero and -0 edges,
    some internal labels, and node ids in a random order.  ``unary_root``
    puts a unary root with that label above it (None: unlabeled, False: no
    unary root)."""
    lengths = [0.0, -0.0, 0.5, 1.0, 0.1, 0.7, 3.0, 1e-3]
    parent, edge = [-1] * n_tips, [0.0] * n_tips
    lineages = list(range(n_tips))
    while len(lineages) > 1:
        k = int(rng.integers(2, min(4, len(lineages)) + 1))
        picks = set(rng.choice(len(lineages), size=k, replace=False).tolist())
        node = len(parent)
        parent.append(-1)
        edge.append(0.0)
        for i in picks:
            parent[lineages[i]] = node
            edge[lineages[i]] = lengths[int(rng.integers(len(lengths)))]
        lineages = [u for i, u in enumerate(lineages) if i not in picks] + [node]
        if rng.random() < 0.2:
            parent.append(-1)
            edge.append(0.0)
            parent[node], edge[node] = len(parent) - 1, 0.25
            lineages[-1] = len(parent) - 1
    names = [f"t{i}" for i in range(n_tips)]
    names += [f"n{i}" if rng.random() < 0.3 else None for i in range(n_tips, len(parent))]
    if unary_root is not False:
        parent[-1] = len(parent)
        edge[-1] = 0.5
        parent.append(-1)
        edge.append(0.0)
        names.append(unary_root)
    perm = rng.permutation(len(parent))  # old id -> new id
    new_parent = [-1] * len(parent)
    new_edge = [0.0] * len(parent)
    new_names = [None] * len(parent)
    for u, p in enumerate(parent):
        v = int(perm[u])
        new_parent[v] = -1 if p < 0 else int(perm[p])
        new_edge[v], new_names[v] = edge[u], names[u]
    return PhyloTree(new_parent, new_edge, new_names)


def slice_corpus():
    rng = np.random.default_rng(20260)
    corpus = [parse_newick(text) for text in SHAPES]
    corpus += [parse_newick("(A:1,B:-0.0,(C:0,D:-0.0):-0.0)r;"), parse_newick("A;")]
    for i in range(60):
        corpus.append(scrambled_tree(rng, 2 + i % 13, unary_root=[False, "top", None][i % 3]))
    corpus += [random_tree(3 + i, seed=i, ultrametric=bool(i % 2)) for i in range(5)]
    return corpus


SLICE_CORPUS = slice_corpus()


class TestPreorderSlices:
    """Tree copies, the writer and the heights match the stack walks they
    replaced, bit for bit: node ids, edges, names, depths and text."""

    @pytest.mark.parametrize("index", range(len(SLICE_CORPUS)))
    def test_every_target(self, index):
        t = SLICE_CORPUS[index]
        assert t.preorder.tolist() == sorted(range(t.n_nodes), key=lambda u: t._pre_span[u, 0])
        assert write_newick(t) == write_newick_reference(t)
        for u in range(t.n_nodes):
            assert _heights_below(t, u).tobytes() == heights_below_reference(t, u).tobytes()
            if t.is_tip(u):
                continue
            assert_same_tree(extract_subtree(t, u), extract_subtree_reference(t, u))
            try:
                want = reroot_reference(t, u)
            except TreeError as exc:
                with pytest.raises(TreeError, match=str(exc)):
                    reroot(t, u)
                continue
            got = reroot(t, u)
            assert_same_tree(got, want)
            assert write_newick(got) == write_newick_reference(want)

    @pytest.mark.parametrize("index", range(len(SLICE_CORPUS)))
    def test_restrictions(self, index):
        t = SLICE_CORPUS[index]
        rng = np.random.default_rng(index)
        for _ in range(6):
            k = int(rng.integers(1, t.n_tips + 1))
            keep = rng.choice(t.tip_labels, size=k, replace=False).tolist()
            got = restrict_to_tips(t, keep)
            assert_same_tree(got, restrict_to_tips_reference(t, keep))
            assert write_newick(got) == write_newick_reference(got)

    def test_negative_zero_edges_sum_from_zero(self):
        t = parse_newick("((A:-0.0,B:1):-0.0,C:1);")
        r = restrict_to_tips(t, ["A", "C"])
        assert np.signbit(r.edge_length).tolist() == [False, False, False]
        assert_same_tree(r, restrict_to_tips_reference(t, ["A", "C"]))
        assert np.signbit(extract_subtree(t, t.mrca(["A", "B"])).edge_length).tolist() == [
            False, True, False
        ]

    def test_deep_caterpillar(self):
        t = parse_newick(caterpillar_newick(20_000))
        assert write_newick(t) == write_newick_reference(t)
        assert write_newick(t) == caterpillar_newick(20_000)
        deepest = int(t.parent[int(np.argmax(t.levels))])
        for u in (deepest, int(t.parent[deepest]), int(t.preorder[t.n_nodes // 2 - 1])):
            assert_same_tree(reroot(t, u), reroot_reference(t, u))
            assert_same_tree(extract_subtree(t, u), extract_subtree_reference(t, u))
            assert _heights_below(t, u).tobytes() == heights_below_reference(t, u).tobytes()
        keep = t.tip_labels[::3]
        assert_same_tree(restrict_to_tips(t, keep), restrict_to_tips_reference(t, keep))


class TestTreeStats:
    def test_star(self):
        t = parse_newick("(A:1.0,B:1.0,C:1.0,D:1.0);")
        st = tree_stats(t)
        assert st.n_tips == 4
        assert st.total_length == 4.0
        assert st.root_degree == 4
        assert st.min_root_edge == 1.0
        assert st.height_mean == 1.0
        assert st.is_ultrametric

    def test_three_tip(self, three_tip):
        st = tree_stats(three_tip)
        assert abs(st.total_length - 2.5) < EPS
        assert st.root_degree == 2
        assert abs(st.min_root_edge - 0.5) < EPS
        assert abs(st.height_mean - 1.0) < EPS

    def test_caterpillar_mean_height(self):
        st = tree_stats(parse_newick("((A:1,B:2):1,C:1);"))
        assert abs(st.height_mean - 2.0) < EPS
        assert abs(st.height_max - 3.0) < EPS
        assert not st.is_ultrametric

    def test_height_policy(self, three_tip):
        st = tree_stats(three_tip)
        assert st.height("mean") == st.height_mean
        assert st.height("max") == st.height_max
        with pytest.raises(TreeError):
            st.height("median")


class TestOverflow:
    @pytest.mark.parametrize(
        "text", ["(A:1e308,B:1e308);", "((A:1e308,B:1e308):1e308,C:1e308);"]
    )
    def test_overflowing_total_refused(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewickError) as exc:
                parse_newick(text)
        assert str(exc.value) == "total branch length overflows the float range"
        assert exc.value.location is None

    def test_constructor_refuses_overflowing_total(self):
        with pytest.raises(TreeError, match="^total branch length overflows the float range$"):
            PhyloTree([-1, 0, 0], [0.0, 1e308, 1e308], [None, "A", "B"])

    def test_root_edge_not_counted(self):
        t = PhyloTree([-1, 0, 0], [1e308, 1e308, 1.0], [None, "A", "B"])
        assert t.n_tips == 2

    def test_mean_height_when_the_sum_overflows(self):
        t = parse_newick("((A:1,B:1):1e308,C:1);")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st = tree_stats(t)
        h = t.tip_heights
        assert st.height_mean == float((h / 3).sum())
        assert st.height_mean == pytest.approx(1e308 / 3 * 2)

    def test_row_means_when_some_sums_overflow(self):
        rng = np.random.default_rng(0)
        heights = rng.uniform(0.5, 1.5, size=(6, 5))
        heights[[1, 4]] *= 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _tree_height(heights, axis=1)
        plain = heights[[0, 2, 3, 5]].mean(axis=1)
        assert got[[0, 2, 3, 5]].tobytes() == plain.tobytes()
        assert got[[1, 4]].tobytes() == (heights[[1, 4]] / 5).sum(axis=1).tobytes()
        assert np.array_equal(_tree_height(heights, "max", axis=1), heights.max(axis=1))

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_mean_keeps_its_bits(self, seed):
        t = random_tree(50, seed=seed)
        assert tree_stats(t).height_mean == float(t.tip_heights.mean())


class TestMrca:
    def test_pair(self, four_tip):
        assert four_tip.mrca(["A", "B"]) == four_tip.node_id("ab")
        assert four_tip.mrca(["A", "C"]) == four_tip.root

    def test_unknown(self, four_tip):
        with pytest.raises(TreeError):
            four_tip.mrca(["A", "Z"])

    def test_empty(self, four_tip):
        with pytest.raises(TreeError, match="mrca of an empty set"):
            four_tip.mrca([])

    @pytest.mark.parametrize(
        "text",
        ["((A:1,B:2)u:0.5)root;", "(((A:1):1,B:1):1,((C:1):1):1)r;", caterpillar_newick(60)],
    )
    def test_unary_chains_and_caterpillar(self, text):
        tree = parse_newick(text)
        labels = tree.tip_labels
        for i in range(len(labels)):
            for j in range(i, len(labels)):
                pair = [labels[j], labels[i]]
                assert tree.mrca(pair) == mrca_reference(tree, pair)

    @given(trees((0.0, 0.5, 1.0)), st.data())
    def test_matches_parent_walk(self, tree, data):
        labels = data.draw(
            st.lists(st.sampled_from(tree.tip_labels), min_size=1, max_size=6)
        )
        assert tree.mrca(labels) == mrca_reference(tree, labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_label_sets(self, seed):
        tree = random_tree(200, seed=seed, polytomy_prob=0.3)
        rng = random.Random(seed)
        for _ in range(50):
            labels = rng.sample(tree.tip_labels, rng.randint(1, 8))
            assert tree.mrca(labels) == mrca_reference(tree, labels)


class TestTipRows:
    def test_canonical_rows_in_given_order(self, four_tip):
        assert four_tip.tip_rows(["D", "A", "C"]).tolist() == [3, 0, 2]
        assert four_tip.tip_rows([]).tolist() == []

    @pytest.mark.parametrize("seed", range(5))
    def test_random_trees(self, seed):
        tree = random_tree(40, seed=seed, polytomy_prob=0.3)
        labels = list(np.random.default_rng(seed).permutation(tree.tip_labels))
        rows = tree.tip_rows(labels)
        assert [tree.tip_labels[r] for r in rows] == labels
        assert rows.tolist() == [
            int(tree.tip_range[tree.node_id(lab), 0]) for lab in labels
        ]

    @pytest.mark.parametrize("label", ["Z", "ab"])
    def test_unknown_and_internal_labels_refused(self, four_tip, label):
        with pytest.raises(TreeError, match=f"^unknown tip label {label!r}$"):
            four_tip.tip_rows(["A", label])
