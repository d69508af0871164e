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
