"""Shared test helpers.

Reference trees used across modules:

  three_tip   ((A:0.5,B:0.5):0.5,C:1.0);   ultrametric, height 1
              V = [[1, .5, 0], [.5, 1, 0], [0, 0, 1]]

  four_tip    ((A:0.2,B:0.2)ab:0.3,(C:0.2,D:0.2)cd:0.3);
              balanced with named cherries, height 0.5
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from treegls import (
    PhyloTree,
    SingularCovarianceError,
    TreeError,
    bm_covariance,
    extract_subtree,
    parse_newick,
    restrict_to_tips,
)

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
