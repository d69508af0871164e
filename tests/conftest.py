"""Shared test helpers.

Reference trees used across modules:

  three_tip   ((A:0.5,B:0.5):0.5,C:1.0);   ultrametric, height 1
              V = [[1, .5, 0], [.5, 1, 0], [0, 0, 1]]

  four_tip    ((A:0.2,B:0.2)ab:0.3,(C:0.2,D:0.2)cd:0.3);
              balanced with named cherries, height 0.5
"""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from treegls import (
    NewickError,
    PhyloTree,
    SingularCovarianceError,
    TreeError,
    bm_covariance,
    extract_subtree,
    parse_newick,
    restrict_to_tips,
)
from treegls.simlab import SymmetricTreeSpec, make_symmetric_tree

# Property tests replay the same examples on every run, so tier-1 stays
# deterministic; no example database is written.
settings.register_profile("treegls", derandomize=True, database=None, deadline=None)
settings.load_profile("treegls")


@pytest.fixture
def three_tip():
    return parse_newick("((A:0.5,B:0.5):0.5,C:1.0);")


@pytest.fixture
def four_tip():
    return parse_newick("((A:0.2,B:0.2)ab:0.3,(C:0.2,D:0.2)cd:0.3);")


def normwise_gap(got, want):
    """max |got - want| / max |want|."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def tip_distance_matrix(tree):
    """Dense path-length oracle: d(i,j) = h_i + h_j - 2 * shared time."""
    h = tree.tip_heights
    V = bm_covariance(tree)
    return h[:, None] + h[None, :] - 2.0 * V


def canonical_signature(tree):
    """Multiset of (tip-set below node, depth) pairs: equal multisets mean
    isomorphic trees with identical branch lengths."""
    sig = []
    for u in range(tree.n_nodes):
        lo, hi = tree.tip_range[u]
        sig.append((frozenset(tree.tip_labels[lo:hi]), round(float(tree.depths[u]), 12)))
    return sorted(sig, key=lambda x: (sorted(x[0]), x[1]))


def assert_isomorphic(t1, t2):
    assert canonical_signature(t1) == canonical_signature(t2)


def dense_scaled_ess(tree):
    V = bm_covariance(tree)
    return float(np.sum(np.linalg.inv(V)))


def flip_each(base, idx):
    """Masks (n, len(idx)): column j is ``base`` with entry idx[j] flipped."""
    masks = np.repeat(base[:, None], idx.size, axis=1)
    masks[idx, np.arange(idx.size)] ^= True
    return masks


def greedy_reference(tree, k, forward):
    """Greedy stepwise search by sweeping every candidate of every step:
    each step flips each candidate of the current subset, scores those
    masks in sweep blocks and keeps the first maximum.  The sweeps run the
    level schedule, as every design search's do.

    Returns the final mask, the tips in the order they were added or
    removed, the trajectory, the evaluations (every candidate scored, and
    backward the full set), and the smallest relative margin by which a
    step's pick beat its best other candidate (inf where no step had two)."""
    from treegls.covariance import _level_schedule, _scaled_ess, _sweep_blocks

    n = tree.n_tips
    schedule = _level_schedule(tree)
    mask = np.full(n, not forward)
    changed, trajectory, evaluations, margin = [], [], 0, np.inf
    if not forward:
        trajectory.append((n, float(_scaled_ess(tree, mask[:, None], schedule)[0])))
        evaluations += 1
    while int(mask.sum()) != k:
        cands = np.flatnonzero(~mask if forward else mask)
        scores = np.empty(cands.size)
        for lo, hi in _sweep_blocks(tree, cands.size):
            scores[lo:hi] = _scaled_ess(tree, flip_each(mask, cands[lo:hi]), schedule)
        evaluations += cands.size
        best = int(np.argmax(scores))
        if cands.size > 1:
            runner_up = np.delete(scores, best).max()
            margin = min(margin, float(1.0 - runner_up / scores[best]))
        mask[cands[best]] = forward
        changed.append(int(cands[best]))
        trajectory.append((int(mask.sum()), float(scores[best])))
    return mask, changed, trajectory, evaluations, margin


def knapsack_optima(tree, kmax):
    """The largest 1'V^{-1}1 over the size-k subsets of the tips, for
    k = 1..kmax, by a tree knapsack that tries every split of k among a
    node's children and so assumes nothing of the tables' shapes.

    A node's table best(j) is its largest precision with j kept tips: a tip
    has (0, inf), and an internal node has, for each j, the largest sum of
    W_c(j_c) over its children with j_1 + ... + j_d = j, where
    W_c = best_c / (1 + t_c best_c) is a child's weight through its edge.
    Tables are cut at kmax + 1 entries.
    """
    edges = tree.edge_length
    tables = {}
    for u in tree.postorder.tolist():
        if tree.is_tip(u):
            tables[u] = np.array([0.0, np.inf])
            continue
        best = np.zeros(1)
        for c in tree.children[u]:
            w, t = tables.pop(c), float(edges[c])
            if t > 0.0:
                with np.errstate(invalid="ignore", over="ignore"):
                    w = np.where(t * w < np.inf, w / (1.0 + t * w), 1.0 / t)
            small, large = sorted((best, w), key=len)
            merged = np.full(min(best.size + w.size - 1, kmax + 1), -np.inf)
            for j, value in enumerate(small[:kmax + 1].tolist()):
                m = min(large.size, merged.size - j)
                np.maximum(merged[j:j + m], value + large[:m], out=merged[j:j + m])
            best = merged
        tables[u] = best
    return tables[tree.root][1:kmax + 1]


def nested_optima_reference(tree, clamped=None):
    """Canonical tip rows in the order the optimal subsets add them: for
    every k, the first k rows are a size-k subset of the largest 1'V^{-1}1.

    The merge of :func:`treegls.design._nested_optima` with one numpy step
    per internal node and every node's full list: a stable sort of the
    node's tip range by decreasing increment, then the increments of
    W = P / (1 + t P), clamped to be nonincreasing.  It reads a tip's edge
    as signed, so a -0 tip edge gains 1/t = -inf here; compare it on the
    tree with that edge written as 0.  A list ``clamped`` gets, per node
    with a positive edge, how many increments the clamp changed.
    """
    order = np.arange(tree.n_tips)
    gain = np.empty(tree.n_tips)
    post = tree.postorder
    inner = post[tree._n_children[post] > 0]
    edges = tree.edge_length
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain[:] = 1.0 / edges[tree.tip_id_array]
        for (lo, hi), t in zip(tree.tip_range[inner].tolist(), edges[inner].tolist()):
            merge = np.argsort(-gain[lo:hi], kind="stable")
            order[lo:hi] = order[lo:hi][merge]
            step = gain[lo:hi][merge]
            if t > 0.0:
                after = np.cumsum(step)
                before = 1.0 + t * np.concatenate(([0.0], after[:-1]))
                step = np.where(after < np.inf, step / before / (1.0 + t * after),
                                1.0 / (t * before))
                if clamped is not None:
                    clamped.append(int((np.minimum.accumulate(step) != step).sum()))
                np.minimum.accumulate(step, out=step)
            gain[lo:hi] = step
    return order


def outside_plan(tree, schedule):
    """What :func:`outside_scores` reads of a tree, built once from the
    schedule that the sweeps it reads run, whose positions the sweep's
    weights are indexed by.

    The outside pass (this plan and :func:`outside_scores`) once scored a
    greedy search's candidates.  It stays here as the reference for the
    pointer-jumped outside precisions that a change of root reads.

    Returns the order; the time unit tau
    (:func:`treegls.covariance._time_unit`); the edge lengths by position,
    in units of tau, with the root's taken as 0; each position's parent
    position (the root's is its own, 0); for the sibling sums, the rows
    (non-root positions less one) of each rank in a run, counted from the
    front and then from the back, each with the row beside it; and the
    relative tolerance of the scores.

    The tolerance: along a path of L edges below the root through nodes of
    at most K children, each own map's entries are rounded at most K + 1
    times (at most K - 1 for the sibling sum s and 2 for 1 + s t; scaling
    by tau and by powers of two is exact).  A node's map is the product of
    the L own maps on its path, formed by pointer jumping in ceil(log2 L)
    rounds.  Each round rounds every term of an entry twice, in its product
    and in its sum, so a term is rounded at most L (K + 1) + 2 ceil(log2 L)
    <= L (K + 4) times: no more often than level by level, which rounds an
    entry K + 4 times per level.  These relative errors add, as every term
    is nonnegative.  A score a/c or b/d divides two entries: at most
    2 L (K + 4) + 1 roundings.  The sweep of the candidate's own mask
    rounds p / (1 + t p) three times and a run's sum K - 1 times per level:
    L (K + 2).  Both read the same sibling weights, so an outside score is
    within (3 K + 10)(L + 1) units u of the swept one.  Two candidates whose
    outside scores are further apart than twice that, relative, are in the
    same order when swept; the tolerance doubles it again, for the
    second-order terms: (3 K + 10)(L + 1) 4u, u being half the machine
    epsilon.  L is the tree's depth, ``tree.levels.max()``.
    """
    from treegls.covariance import _time_unit

    order, position, first, run_of, _ = schedule
    tau = _time_unit(tree)
    rows = np.arange(run_of.size)
    sides = []
    for rank, step in ((rows - first[run_of], -1),
                       (np.append(first[1:], rows.size)[run_of] - 1 - rows, 1)):
        by_rank = np.argsort(rank, kind="stable")
        bounds = np.searchsorted(rank[by_rank], np.arange(1, int(rank.max()) + 2))
        sides.append([(by_rank[lo:hi], by_rank[lo:hi] + step)
                      for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())])
    edges = tree.edge_length[order] / tau
    edges[0] = 0.0
    up = np.zeros_like(order)
    up[1:] = position[tree.parent[order[1:]]]
    width = int(np.diff(np.append(first, rows.size)).max())
    rtol = (3 * width + 10) * (int(tree.levels.max()) + 1) * 2 * np.finfo(float).eps
    return order, tau, edges, up, sides, rtol


def outside_scores(weight, plan):
    """Every node's outside scores: the root precision with the node's
    subtree pinned to it (its precision inf) and without it (precision 0),
    the rest of the tree as one mask's sweep left it.

    ``weight`` is that mask's weights from
    :func:`treegls.covariance._contrast_sweep` (its fourth value); ``plan``
    is the tree's :func:`outside_plan`.  The root precision, as a function
    of one node's precision x, is a Moebius map x -> (a x + b) / (c x + d),
    which reads a/c at inf and b/d at 0.  A node's map is the product of the
    own maps on its path from the root down, the node's last.  A node's own
    map is [[1, s], [0, 1]] (its siblings' weights s join its own at the
    parent) times [[1, 0], [t, 1]] (the weight p / (1 + t p) over its edge
    t): [[1 + s t, s], [t, 1]].  The root's edge and sibling sum are 0, so
    its own map is the identity.

    Each own map is first scaled by the power of two of its largest entry,
    which is exact.  Then pointer jumping (Wyllie's, as in
    :func:`treegls.tree._euler_tour`) forms the products: in each round,
    every node's map is its jump target's times its own, through
    :func:`treegls.covariance._compose`, and each jump target moves to its
    own jump target, so ceil(log2 depth) rounds reach the root from every
    node.  Every factor's entries are at most 1 and ``_compose`` rescales
    each product, so no product overflows.

    Precisions and times are taken in units of the plan's tau, so that the
    entries of a map, which carry different units, stay near one another.
    Every entry is a sum of products of nonnegative terms, and s is summed
    from the siblings' weights (prefix plus suffix sums), never formed by
    subtracting a weight from its run's total, so no rounding is amplified
    by cancellation: :func:`outside_plan` bounds the error.  A map that
    meets an infinite weight (a kept tip on a zero-length edge) is not
    finite, nor are its descendants'.  A nonzero entry below 2^-900 has
    lost digits to underflow, and then every score is nan.  Returns
    (n_nodes, 2) scores by node id, at inf first.
    """
    from treegls.covariance import _compose

    order, tau, edges, jump, sides, _ = plan
    w = weight[1:]
    before, after = np.zeros((2, w.size))
    for acc, side in zip((before, after), sides):
        for rows, beside in side:
            acc[rows] = acc[beside] + w[beside]
    sib = np.zeros(weight.size)
    np.multiply(before + after, tau, out=sib[1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        maps = np.array([1.0 + sib * edges, sib, edges, np.ones_like(sib)])
        np.ldexp(maps, -np.frexp(maps.max(axis=0))[1], out=maps)
        while jump.any():
            head = maps[:, jump]
            _compose(head, maps, True)
            maps, jump = head, jump[jump]
        if ((maps > 0.0) & (maps < 2.0 ** -900)).any():
            maps[:] = np.nan
        scores = np.empty((weight.size, 2))
        scores[order] = (maps[:2] / maps[2:]).T / tau
    return scores


def coalescent_tree(n, seed):
    """A random binary tree of n tips by merging random pairs of lineages,
    every edge drawn from U(0.05, 1): the shape of the benchmark's design
    trees, on which no two candidate subsets tie."""
    rng = np.random.default_rng(seed)
    parent, lineages = [-1] * (2 * n - 1), list(range(n))
    for node in range(n, 2 * n - 1):
        for _ in range(2):
            parent[lineages.pop(int(rng.integers(len(lineages))))] = node
        lineages.append(node)
    edges = rng.uniform(0.05, 1.0, 2 * n - 1)
    edges[-1] = 0.0
    return PhyloTree(parent, edges, [f"t{i + 1}" for i in range(n)] + [None] * (n - 1))


def shift_pieces(tree, focal):
    """The two pieces of a lineage shift at ``focal`` as trees of their own:
    the subtree rooted at it, and the other tips with the root kept."""
    lo, hi = tree.tip_range[focal]
    rest = tree.tip_labels[:lo] + tree.tip_labels[hi:]
    return extract_subtree(tree, focal), restrict_to_tips(tree, rest)


def cherry_beside_star_newick(tip):
    """Newick text of the cherry (A, B), tip edges ``tip``, on a 1e4 stem
    beside 1000 tips at 1e4 from the root.  Cut at "ab", its "SB" blocks are
    ``tip`` times the identity and 1e4 times the identity."""
    star = ",".join(f"t{i}:1e4" for i in range(1000))
    return f"((A:{tip!r},B:{tip!r})ab:1e4,{star});"


def caterpillar_newick(n):
    """Newick text of an n-tip caterpillar, nested n - 1 deep.

    Lengths are written with ``repr``, so the text is what
    :func:`treegls.write_newick` writes for the parsed tree.
    """
    parts = ["(" * (n - 1), "t0:1.0"]
    for i in range(1, n):
        parts.append(f",t{i}:{(i % 7 + 1) / 8!r})")
        if i < n - 1:
            parts.append(f":{(i % 5 + 1) / 4!r}")
    parts.append(";")
    return "".join(parts)


def comb_of_clades(spine, depth):
    """A caterpillar whose every spine node also carries a symmetric clade of
    2^depth tips: spine + depth + 1 levels, few of them wide."""
    parent = list(range(-1, spine - 1))
    for i in range(spine):
        top = len(parent)
        parent += [i] + [top + k // 2 for k in range(2 ** (depth + 1) - 2)]
    tip = np.bincount(parent[1:], minlength=len(parent)) == 0
    names = [f"t{u}" if leaf else None for u, leaf in enumerate(tip.tolist())]
    return PhyloTree(parent, [0.0] + [1.0] * (len(parent) - 1), names)


def tailed_tree(depth, tail):
    """A symmetric 2^depth-tip tree with a caterpillar of ``tail`` levels
    below its last tip: wide on top, narrow at the bottom."""
    t = make_symmetric_tree(SymmetricTreeSpec((2,) * depth, (0.1,) * depth))
    parent, names = t.parent.tolist(), list(t.names)
    u = t.n_nodes - 1
    for i in range(tail):
        parent += [u, u]
        names += [f"x{i}", None if i < tail - 1 else f"y{i}"]
        u = len(parent) - 1
    return PhyloTree(parent, [0.0] + [1.0] * (len(parent) - 1), names)


@st.composite
def trees(draw, lengths):
    """Trees of 2-9 tips: coalescent or caterpillar merges, binary or
    ternary, with occasional unary nodes and edges drawn from ``lengths``."""
    n = draw(st.integers(2, 9))
    caterpillar = draw(st.booleans())
    parent, edges = [-1] * n, [0.0] * n
    lineages = list(range(n))

    def attach(child, node):
        parent[child] = node
        edges[child] = draw(st.sampled_from(lengths))

    while len(lineages) > 1:
        if caterpillar:
            picks = [len(lineages) - 2, len(lineages) - 1]
        else:
            k = draw(st.integers(2, min(3, len(lineages))))
            picks = draw(
                st.lists(st.integers(0, len(lineages) - 1), min_size=k, max_size=k, unique=True)
            )
        node = len(parent)
        parent.append(-1)
        edges.append(0.0)
        for i in picks:
            attach(lineages[i], node)
        lineages = [u for i, u in enumerate(lineages) if i not in picks] + [node]
        if draw(st.integers(0, 3)) == 0:
            above = len(parent)
            parent.append(-1)
            edges.append(0.0)
            attach(node, above)
            lineages[-1] = above
    names = [f"t{i}" for i in range(n)] + [None] * (len(parent) - n)
    return PhyloTree(parent, edges, names)


# --------------------------------------------------------------------- #
# Stack-walk references for the tree functions, which slice the preorder.
# --------------------------------------------------------------------- #


def write_newick_reference(tree):
    names, children = tree.names, tree.children
    lengths = [f":{x!r}" for x in tree.edge_length.tolist()]
    lengths[tree.root] = ""
    out = []
    # ~u closes node u and None stands for a comma.
    stack = [tree.root]
    while stack:
        u = stack.pop()
        if u is None:
            out.append(",")
        elif u < 0:
            out.append(")" + (names[~u] or "") + lengths[~u])
        elif children[u]:
            out.append("(")
            stack.append(~u)
            for i, c in enumerate(reversed(children[u])):
                if i:
                    stack.append(None)
                stack.append(c)
        else:
            out.append(names[u] + lengths[u])
    out.append(";")
    return "".join(out)


# The token-scan reference for parse_newick: label characters are printable
# ASCII other than "(),:;" and quotes, and each match is one token after
# optional whitespace.  ``lastindex`` is the kind:
# 1 "(", 2 ",", 3 tip (4 label, 5 length), 6 ")" (7 label, 8 length), 9 ";",
# 10 any other character, 11 end of text.
_LABEL = r"[!#-&*+\--9<-~]+"
_LENGTH = r"(?:\s*:\s*([-+.eE0-9]*))?"
_TOKEN_RE = re.compile(
    r"\s*(?:(\()|(,)"
    rf"|(({_LABEL}){_LENGTH})"
    rf"|(\)(?:\s*({_LABEL}))?{_LENGTH})"
    r"|(;)|(.)|(\Z))",
    re.S,
)
# Scan states: expecting an element; after an element with its length (or
# the outermost element without one); after an element without a length;
# after the final ";".
_ELEMENT, _DONE, _BARE, _END = range(4)


def _fail(message: str, pos: int):
    raise NewickError(f"{message} (at position {pos})", location=pos)


def scan_newick_reference(text: str):
    """(parent, edge, names) by one token scan with an explicit stack; the
    first fault raises its NewickError with message and position."""
    parent: list[int] = []
    edge: list[float] = []
    names: list = []
    add_parent, add_edge, add_name = parent.append, edge.append, names.append
    stack: list[int] = []  # open internal nodes, innermost last
    cur = -1  # parent of the next element
    state = _ELEMENT
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if state == _ELEMENT:
            if k == 3:
                label, num = m.group(4, 5)
                node = len(parent)
                add_parent(cur)
                add_edge(0.0)
                add_name(label)
                label_end = m.end()
            elif k == 1:
                add_parent(cur)
                add_edge(0.0)
                add_name(None)
                cur = len(parent) - 1
                stack.append(cur)
                continue
            else:
                if k == 10 and not "!" <= m.group(10) <= "~":
                    _fail(f"illegal character {m.group(10)!r} in label", m.start(10))
                _fail("expected a tip label or '('", m.start(k))
        elif state == _DONE:
            if not stack:
                if k != 9:
                    _fail("expected ';'", m.start(k))
                state = _END
                continue
            if k == 2:
                state = _ELEMENT
                continue
            if k != 6:
                _fail("expected ',' or ')'", m.start(k))
            node = stack.pop()
            cur = stack[-1] if stack else -1
            label, num = m.group(7, 8)
            if label:
                names[node] = label
            label_end = m.end() if label else -1
        elif state == _BARE:
            # A label reads up to an illegal character; after a bare ")" the
            # (empty) label starts at the next non-space character.
            if k == 10 and not "!" <= m.group(10) <= "~":
                if label_end < 0 or m.start(10) == label_end:
                    _fail(f"illegal character {m.group(10)!r} in label", m.start(10))
            if stack:
                _fail("missing branch length on a non-root edge", m.start(k))
            if k != 9:
                _fail("expected ';'", m.start(k))
            state = _END
            continue
        else:
            if k != 11:
                _fail("trailing text after ';'", m.start(k))
            continue

        # Element ``node`` ends here, with length text ``num`` or none.
        has_length = num is not None
        if not has_length:
            state = _BARE
            continue
        try:
            value = float(num)
        except ValueError:
            _fail(f"bad branch length {num!r}" if num else "expected a branch length",
                  m.end())
        if value < 0:
            _fail(f"negative branch length {value}", m.end())
        edge[node] = value
        state = _DONE

    if has_length:
        # Promote: a real root sits above the outermost element (node 0).
        parent[0] = len(parent)
        add_parent(-1)
        add_edge(0.0)
        add_name(None)

    return parent, edge, names


def reroot_reference(tree, node):
    nid = tree.node_id(node)
    if tree.is_tip(nid):
        raise TreeError("cannot reroot at a tip")
    if nid == tree.root:
        return tree
    if len(tree.children[tree.root]) == 1 and tree.names[tree.root] is None:
        raise TreeError(
            "rerooting would strand the unlabeled unary root as an unlabeled tip"
        )
    parent = tree.parent.tolist()
    edge = tree.edge_length.tolist()
    children, names = tree.children, tree.names

    # Each node on the path from nid to the old root maps to its child
    # toward nid (None for nid itself).
    toward = {nid: None}
    u = nid
    while u != tree.root:
        toward[parent[u]] = u
        u = parent[u]

    new_parent, new_edge, new_names = [], [], []
    stack = [(nid, -1, 0.0)]
    while stack:
        u, par_new, elen = stack.pop()
        my_id = len(new_parent)
        new_parent.append(par_new)
        new_edge.append(elen)
        new_names.append(names[u])
        if u in toward:
            drop = toward[u]
            entries = [(c, my_id, edge[c]) for c in children[u] if c != drop]
            if parent[u] >= 0:
                entries.append((parent[u], my_id, edge[u]))
            stack.extend(reversed(entries))
        elif children[u]:
            stack.extend([(c, my_id, edge[c]) for c in reversed(children[u])])
    return PhyloTree(new_parent, new_edge, new_names)


def restrict_to_tips_reference(tree, keep):
    keep = list(keep)
    if not keep:
        raise TreeError("keep must be a nonempty set of tip labels")
    rng = tree.tip_range
    kept = np.zeros(tree.n_tips + 1, dtype=np.int64)
    kept[tree.tip_rows(keep) + 1] = 1
    np.cumsum(kept, out=kept)
    has = (kept[rng[:, 1]] > kept[rng[:, 0]]).tolist()

    children, names = tree.children, tree.names
    edge = tree.edge_length.tolist()
    root = tree.root
    new_parent, new_edge, new_names = [-1], [0.0], [names[root]]
    stack = [(c, 0, 0.0) for c in reversed(children[root]) if has[c]]
    while stack:
        u, par_new, acc = stack.pop()
        acc += edge[u]
        if children[u]:
            kept_children = [c for c in children[u] if has[c]]
            if len(kept_children) == 1:
                stack.append((kept_children[0], par_new, acc))
                continue
            my_id = len(new_parent)
            stack.extend([(c, my_id, 0.0) for c in reversed(kept_children)])
        new_parent.append(par_new)
        new_edge.append(acc)
        new_names.append(names[u])
    return PhyloTree(new_parent, new_edge, new_names)


def extract_subtree_reference(tree, node):
    nid = tree.node_id(node)
    if tree.is_tip(nid):
        raise TreeError("cannot extract a subtree rooted at a tip")
    children = tree.children
    sub = []
    stack = [nid]
    while stack:
        u = stack.pop()
        sub.append(u)
        stack.extend(reversed(children[u]))
    new_id = {u: i for i, u in enumerate(sub)}
    new_parent = [-1] + [new_id[p] for p in tree.parent[sub[1:]].tolist()]
    new_edge = tree.edge_length[sub]
    new_edge[0] = 0.0
    return PhyloTree(new_parent, new_edge, [tree.names[u] for u in sub])


def heights_below_reference(tree, node):
    children, edge = tree.children, tree.edge_length
    heights = []
    stack = [(node, 0.0)]
    while stack:
        u, depth = stack.pop()
        if children[u]:
            stack.extend([(c, depth + float(edge[c])) for c in reversed(children[u])])
        else:
            heights.append(depth)
    return np.array(heights)


def assert_same_tree(got, want):
    """Equal node ids, parents, edge and depth bits, names and Newick text."""
    assert got.parent.tobytes() == want.parent.tobytes()
    assert got.edge_length.tobytes() == want.edge_length.tobytes()
    assert got.names == want.names
    assert got.depths.tobytes() == want.depths.tobytes()
    assert write_newick_reference(got) == write_newick_reference(want)


# --------------------------------------------------------------------- #
# Pair-loop and parent-walk references for the queries that read the
# preorder runs: the dense Brownian covariance and the common ancestor.
# --------------------------------------------------------------------- #


def bm_covariance_reference(tree):
    """V from every pair of children of every node: the node's depth on the
    block of their tips, then the tip heights on the diagonal."""
    n = tree.n_tips
    depths = tree.depths
    heights = tree.tip_heights
    V = np.zeros((n, n))
    rng = tree.tip_range
    for u in tree.postorder:
        ch = tree.children[u]
        if not ch:
            continue
        du = depths[u]
        spans = [rng[c] for c in ch]
        for a in range(len(ch)):
            la, ha = spans[a]
            for b in range(a + 1, len(ch)):
                lb, hb = spans[b]
                V[la:ha, lb:hb] = du
                V[lb:hb, la:ha] = du
        # Two tips sitting exactly at u (all-zero chains via different
        # children) are fully dependent.
        groups_at_u = sum(1 for (lo, hi) in spans if np.any(heights[lo:hi] == du))
        if groups_at_u >= 2:
            raise SingularCovarianceError(
                "two tips occupy the same position (zero-length separation)",
                min_eigenvalue=0.0,
            )
    np.fill_diagonal(V, heights)
    return V


def sb_covariance_reference(tree, focal):
    """The "SB" covariance with its top block from a copy of the subtree."""
    lo, hi = tree.tip_range[focal]
    V = bm_covariance_reference(tree)
    V[lo:hi, :] = 0.0
    V[:, lo:hi] = 0.0
    V[lo:hi, lo:hi] = bm_covariance_reference(extract_subtree(tree, focal))
    return V


def mrca_reference(tree, labels):
    """Walk two nodes up the parent pointers, the deeper first, until they
    meet; fold the labels in that way."""
    ids = [tree.node_id(lab) for lab in labels]
    lv, parent = tree.levels, tree.parent
    cur = ids[0]
    for other in ids[1:]:
        a, b = cur, other
        while a != b:
            if lv[a] >= lv[b]:
                a = int(parent[a])
            else:
                b = int(parent[b])
        cur = a
    return cur


# --------------------------------------------------------------------- #
# Per-edge generator reference for the simulator, which loads every
# edge's counter in turn into one generator per stream.
# --------------------------------------------------------------------- #


def counter_rng_reference(seed, stream, h):
    """The generator of the edge whose key hashes to ``h``: its own Philox,
    keyed by SeedSequence([seed, stream]), with its counter at (0, 0, 0, h)
    given as uint64 words."""
    key = np.random.SeedSequence([int(seed), int(stream)]).generate_state(2, np.uint64)
    counter = np.array([0, 0, 0, h], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def edge_rng_reference(seed, stream, key):
    """The edge's own generator, at the key's 64-bit blake2b hash."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return counter_rng_reference(seed, stream, int.from_bytes(digest, "big"))


def bm_node_values_reference(tree, sigma2, seed, stream, reps, n_columns=1, mixer=None):
    """``simlab._bm_node_values`` by a preorder loop that builds each edge's
    generator and adds its increment to its parent's state."""
    R = 1 if reps is None else int(reps)
    names, parent = tree.names, tree.parent.tolist()
    edge = tree.edge_length.tolist()
    vals = np.zeros((tree.n_nodes, R * n_columns))
    root = tree.root
    keys = [None] * tree.n_nodes
    keys[root] = "@" if names[root] is None else "#" + names[root]
    seen = [0] * tree.n_nodes
    for u in tree.preorder[1:].tolist():
        p = parent[u]
        pos, seen[p] = seen[p], seen[p] + 1
        key = keys[u] = f"{keys[p]}.{pos}" if names[u] is None else "#" + names[u]
        z = edge_rng_reference(seed, stream, key).standard_normal((R, n_columns))
        if mixer is not None:
            z = z @ mixer.T
        t = edge[u]
        inc = math.sqrt(sigma2 * t) * z if t > 0 else np.zeros((R, n_columns))
        vals[u] = vals[p] + inc.reshape(-1)
    return vals


# --------------------------------------------------------------------- #
# Per-member reference for the convergence experiment, which draws its
# realization once, on the family's largest member.
# --------------------------------------------------------------------- #


def convergence_experiment_reference(config):
    """``simlab.convergence_experiment`` simulating every member of the
    family from scratch, on its own tree."""
    from treegls.simlab import (
        ConvergenceReport,
        _batched_gls,
        family_tree,
        scaled_ess_pruning,
        simulate_bm,
        simulate_traits,
    )

    q = config.n_covariates
    comps = ["intercept"] + [f"x{j + 1}" for j in range(q)]
    beta = np.asarray(config.beta)
    est, theory = {}, {}
    for n in config.sizes:
        tree = family_tree(config, n)
        if q:
            X, Y = simulate_traits(tree, beta, np.eye(q), config.sigma2, config.seed,
                                   reps=config.reps)
        else:
            X = np.zeros((config.reps, n, 0))
            Y = beta[0] + simulate_bm(tree, 0.0, config.sigma2, config.seed, reps=config.reps)
        est[n] = _batched_gls(tree, X, Y)
        slope = config.sigma2 / (n - q - 2) if n - q - 2 > 0 else math.inf
        theory[n] = [config.sigma2 / scaled_ess_pruning(tree)] + [slope] * q
    sizes = config.sizes
    return ConvergenceReport(
        config=config,
        variance_rows=tuple(
            (n, c, float(est[n][:, j].var(ddof=1)), float(theory[n][j]))
            for n in sizes for j, c in enumerate(comps)
        ),
        floor_intercept=(config.sigma2 * config.root_edge / 2.0
                         if config.family == "fixed_root" else None),
        increment_rows=tuple(
            (a, b, c, float(np.abs(est[b] - est[a])[:, j].mean()))
            for a, b in zip(sizes, sizes[1:]) for j, c in enumerate(comps)
        ),
        sample_paths={
            c: [[float(est[n][r, j]) for n in sizes] for r in range(min(8, config.reps))]
            for j, c in enumerate(comps)
        },
    )


# --------------------------------------------------------------------- #
# Per-member reference for the phase curve, which sweeps only the
# largest member within its pruning limit.
# --------------------------------------------------------------------- #


def phase_curve_reference(d, q, m_max, pruning_limit=2 ** 16):
    """``simlab.phase_transition_curve`` building every member within
    ``pruning_limit`` as its own tree and sweeping it."""
    from treegls.simlab import (
        PhasePoint,
        ReplicationSpec,
        make_replicated_tree,
        replicated_intercept_variance,
        scaled_ess_pruning,
    )
    from treegls.errors import ConfigError

    if m_max < 1:
        raise ConfigError("m_max must be >= 1")
    out = []
    for m in range(1, m_max + 1):
        spec = ReplicationSpec(d, q, m)
        n = d ** m
        vc = replicated_intercept_variance(d, q, m)
        vp = None
        if n <= pruning_limit:
            vp = 1.0 / scaled_ess_pruning(make_replicated_tree(spec))
        out.append(PhasePoint(m=m, n=n, var_closed=vc, var_pruning=vp))
    return out


# --------------------------------------------------------------------- #
# Scoring a shift on the rebuilt tree, which score_models reads off one
# sweep of the tree as given.
# --------------------------------------------------------------------- #


def score_models_reference(
    tree,
    X,
    Y,
    spec=None,
    t_policy="mean",
):
    """``treegls.score_models`` as it was when it rebuilt the tree for the
    shift model (extracted below a unary stem, then rerooted) and swept it
    again: the reference for the root row that ``score_models`` now reads
    off one sweep of the tree as given.  Its docstring was:

    Score the no-shift model and, optionally, a lineage-effect model.

    ``X`` holds random covariates only (no intercept column).  For the shift
    model the tree is rerooted at the base of the focal lineage before
    fitting and scoring, so the intercept is the ancestral state there and
    the ESS pair matches the penalty's derivation.  A stem of unary nodes
    above the first fork carries no data once rerooted, so the shift model
    is fitted on the subtree below it; the no-shift model keeps the stem.
    """
    import numpy as np
    from treegls.covariance import _columns, quadratic_forms_pruning
    from treegls.ess import _intercept_report, ess_lineage
    from treegls.gls import ShiftSpec, _fit_from_forms, _resolve_shift, fit_shift_model
    from treegls.modelsel import bic_corrected_m0, bic_corrected_m1
    from treegls.tree import extract_subtree, reroot

    n = tree.n_tips
    X, Y = _columns(np.empty((n, 0)) if X is None else X, Y, n)
    # The fit's sweep gives M0's 1'V^{-1}1 too: the tree is swept once.
    forms = quadratic_forms_pruning(tree, np.column_stack([np.ones(n), X]), Y)
    fit0 = _fit_from_forms(forms)
    scores = [bic_corrected_m0(fit0, _intercept_report(tree, forms.one_tvi_one, t_policy))]

    if spec is not None:
        focal = _resolve_shift(tree, spec).focal_node
        # The stem is the preorder's first ``fork`` nodes; extract_subtree
        # keeps the preorder below it.
        fork = int(np.argmax(tree._n_children[tree.preorder] != 1))
        if fork:
            focal = int(tree._pre_span[focal, 0]) - fork
            tree = extract_subtree(tree, int(tree.preorder[fork]))
        base = int(tree.parent[focal])
        r_tree = reroot(tree, base)
        if r_tree is not tree:
            # reroot keeps the preorder of the new root's subtree.
            rank = tree._pre_span[:, 0]
            focal = int(rank[focal] - rank[base])
        r_spec = ShiftSpec(focal, spec.mode)
        perm = tree.tip_rows(r_tree.tip_labels)
        fit1 = fit_shift_model(r_tree, X[perm], Y[perm], r_spec)
        pair = ess_lineage(r_tree, r_spec, t_policy)
        scores.append(bic_corrected_m1(fit1, pair.top, pair.bot))
    return scores
