"""Shared test helpers.

Reference trees used across modules:

  three_tip   ((A:0.5,B:0.5):0.5,C:1.0);   ultrametric, height 1
              V = [[1, .5, 0], [.5, 1, 0], [0, 0, 1]]

  four_tip    ((A:0.2,B:0.2)ab:0.3,(C:0.2,D:0.2)cd:0.3);
              balanced with named cherries, height 0.5
"""

import numpy as np
import pytest
from hypothesis import settings

from treegls import bm_covariance, parse_newick

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
