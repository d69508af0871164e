"""Tree covariance structures and their quadratic forms.

Two permanent code paths evaluate the forms X'V^{-1}X, X'V^{-1}Y, Y'V^{-1}Y,
1'V^{-1}1 and log det V:

* a dense path factorizing an explicit covariance matrix (the verification
  oracle, also the only path for a user-supplied covariance), and
* one contrast sweep for the Brownian and OU structures (Felsenstein's
  independent contrasts, level by level from the tips, and under Brownian
  motion each long chain of single-internal-child nodes by prefix scans):
  it whitens any number of tip columns, for any batch of kept-tip masks, in
  O(n p^2) time and O(n p) memory, and never materializes V.  The quadratic
  forms of every fit, the scaled ESS of a tree or of many tip subsets, and
  the batched GLS of the simulation lab all come from it.  An OU edge,
  which scales its parent's state by a = exp(-alpha t) before adding noise
  of variance q, is swept as a Brownian edge of length q/a^2, with each
  node's mean in units of its own decay (Ho & Ane 2014), so Brownian
  motion is the same edge model at alpha = 0; a subtree whose coupling to
  its parent is negligible closes with its own row, as the root does.
  The sweep can also cut one edge: the node below it closes as a second
  root, which gives the block covariance diag(V_top - d_cut, V_bot) of the
  lineage-shift "SB" model and its ESS pair from the same pass.

Numerical policy: nothing is silently regularized, and both paths refuse
the same near-singular trees.  Non-finite inputs raise
:class:`ConfigError`.  The dense factorization fails when a pivot drops
below ``PIVOT_RTOL`` times the largest diagonal entry; the sweep fails when
a contrast variance, or the state variance at a root, drops below
``PIVOT_RTOL`` times the largest tip height (the same diagonal; below a cut
edge, tip heights count from the cut node; under OU, the largest tip
variance, with each contrast in the units of the child it pivots).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, SingularCovarianceError, TreeError, _whole
from .tree import _LEVEL_WIDTH, PhyloTree, _add_down, _sum_down

PIVOT_RTOL = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)
_SWEEP_CELLS = 1 << 18  # node x column cells one contrast sweep may hold (2 MB of float64)
_WEAK_COUPLING = 2.0 ** -120  # a^2 x largest variance / q below which an OU edge is cut


@dataclass(frozen=True)
class CovarianceSpec:
    """Which covariance structure to put on the tree.

    ``kind`` is one of ``"bm"``, ``"ou-stationary"``, ``"ou-conditioned"``.
    ``alpha`` is the (known) selection strength, used by the OU kinds only.
    The residual variance is always estimated on top of the matrix.
    """

    kind: str = "bm"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("bm", "ou-stationary", "ou-conditioned"):
            raise TreeError(f"unknown covariance kind {self.kind!r}")
        if self.kind != "bm":
            _check_alpha(self.alpha)

    @classmethod
    def bm(cls) -> "CovarianceSpec":
        return cls("bm", None)

    @classmethod
    def ou(cls, alpha: float, stationary: bool = False):
        kind = "ou-stationary" if stationary else "ou-conditioned"
        return cls(kind, alpha)


@dataclass(frozen=True)
class QuadraticForms:
    """Quadratic forms of a design (X, Y) against a covariance V."""

    xtvix: np.ndarray
    xtviy: np.ndarray
    ytviy: float
    logdet_v: float
    one_tvi_one: float
    n: int


# --------------------------------------------------------------------- #
# covariance matrices
# --------------------------------------------------------------------- #


def bm_covariance(tree: PhyloTree) -> np.ndarray:
    """Brownian covariance: V[i, j] is the shared root-path length of tips i, j.

    In canonical tip order each node's tips are one block, and for every
    child c of a node p but the last, the block of c's tips against the
    tips of p's later children (and its mirror) holds p's depth; the
    diagonal holds the tip heights.

    Raises :class:`SingularCovarianceError` when two tips occupy the same
    position (zero-length separation), which makes V exactly singular.
    """
    return _shared_times(tree, tree.root)


def _shared_times(tree: PhyloTree, node: int) -> np.ndarray:
    """Shared-time matrix of the tips below ``node``, times counted from it.

    Each off-diagonal entry is set once, by the block rule of
    :func:`bm_covariance` read off the preorder run of ``node``.  Distances
    are summed down from ``node`` by the build's depth pass, as
    :func:`~treegls.tree._heights_below` sums them, so a long stem above it
    cannot cancel.  Two children of one node that each hold a tip at that
    node's depth make the matrix singular and are refused.
    """
    run = tree._subtree(node)
    dist = _sum_down(run, tree.parent, tree.edge_length, tree.levels)
    rng = tree.tip_range
    lo, hi = rng[node]
    heights = dist[tree.tip_id_array[lo:hi]]
    kids = run[1:]
    ups = tree.parent[kids]
    up_dist = dist[ups]
    kid_lo, kid_hi = (rng[kids] - lo).T
    up_hi = rng[ups, 1] - lo

    # Depths only grow down the tree, so a child holds a tip at its
    # parent's depth only if it sits at that depth and its lowest tip does.
    level = np.flatnonzero(dist[kids] == up_dist).tolist()
    held = [int(ups[c]) for c in level if heights[kid_lo[c]:kid_hi[c]].min() == up_dist[c]]
    if len(set(held)) < len(held):
        raise SingularCovarianceError(
            "two tips occupy the same position (zero-length separation)",
            min_eigenvalue=0.0,
        )

    V = np.zeros((hi - lo, hi - lo))
    inner = np.flatnonzero(kid_hi < up_hi)  # every child but its parent's last
    for a, b, c, d in zip(kid_lo[inner].tolist(), kid_hi[inner].tolist(),
                          up_hi[inner].tolist(), up_dist[inner].tolist()):
        V[a:b, b:c] = d
        V[b:c, a:b] = d
    np.fill_diagonal(V, heights)
    return V


def _check_alpha(alpha) -> None:
    """Refuse an OU selection strength that is not finite and positive."""
    if alpha is None or not 0.0 < alpha < math.inf:
        raise TreeError(f"OU alpha must be finite and positive, got {alpha!r}")


def ou_covariance(tree: PhyloTree, alpha: float, stationary: bool = False) -> np.ndarray:
    """Ornstein-Uhlenbeck covariance with known selection strength ``alpha``.

    ``stationary=True`` gives exp(-alpha * d_ij); otherwise the form
    conditioned on the root state, (1 - exp(-2 alpha t_ij)) exp(-alpha d_ij),
    where d_ij is the tree distance between tips and t_ij their shared
    ancestry time.  The first factor is formed as -expm1(-2 alpha t_ij), so
    it keeps its precision as alpha goes to 0, where V tends to
    2 alpha times the Brownian covariance.  As alpha nears the float
    maximum, an exponent that overflows to -inf gives the exact limit.

    Off the diagonal, exp(-alpha d_ij) is the product of the two tips'
    decays from their common ancestor u, by the block rule of
    :func:`bm_covariance`.  Each tip's distance from u is summed up the
    tree, edge by edge, in postorder: a difference of depths would cancel
    under a long stem (on a cherry of 1e-9 under 1e9 it reads 0).
    """
    _check_alpha(alpha)
    rng = tree.tip_range
    kids = tree.preorder[1:]
    ups = tree.parent[kids]
    inner = rng[kids, 1] < rng[ups, 1]  # every child but its parent's last
    blocks: dict[int, list] = {}
    for c, u in zip(kids[inner].tolist(), ups[inner].tolist()):
        blocks.setdefault(u, []).append(rng[c].tolist())
    spans, edges, depths = rng.tolist(), tree.edge_length.tolist(), tree.depths.tolist()
    down = np.zeros(tree.n_tips)  # each tip's distance from the node visited
    V = np.empty((tree.n_tips, tree.n_tips))
    with np.errstate(over="ignore"):
        for u in tree.postorder.tolist():
            lo, hi = spans[u]
            if u in blocks:
                decay = np.exp(-(alpha * down[lo:hi]))
                shared = 1.0 if stationary else -math.expm1(-2.0 * (alpha * depths[u]))
                for a, b in blocks[u]:
                    V[a:b, b:hi] = shared * np.multiply.outer(decay[a - lo:b - lo], decay[b - lo:])
                    V[b:hi, a:b] = V[a:b, b:hi].T
            down[lo:hi] += edges[u]
        np.fill_diagonal(V, 1.0 if stationary else -np.expm1(-2.0 * (alpha * tree.tip_heights)))
    return V


def covariance_matrix(tree: PhyloTree, spec: CovarianceSpec) -> np.ndarray:
    """Materialize the covariance matrix described by ``spec``."""
    if spec.kind == "bm":
        return bm_covariance(tree)
    return ou_covariance(tree, spec.alpha, stationary=spec.kind == "ou-stationary")


# --------------------------------------------------------------------- #
# dense path
# --------------------------------------------------------------------- #


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ConfigError(f"{what} contains non-finite values (nan or inf)")
    return a


def _columns(X, Y, n: int):
    """X as (n, p) and Y as (n,) float arrays with finite entries.

    The one check of design arrays: a 1-D X is one column, any other X
    must be (n, p), and Y must hold n values.  An (n, 0) X has no columns.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    Y = np.asarray(Y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != n or Y.shape[0] != n:
        raise TreeError(f"X must have {n} rows and Y {n} entries, one per tip")
    return _require_finite(X, "X"), _require_finite(Y, "Y")


def _gram(Z: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Z'W symmetrized, the quadratic forms of either path.  Finite columns
    can still give forms past the float range; both paths refuse those with
    one :class:`ConfigError` rather than pass on inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = Z.T @ W
        G = 0.5 * (G + G.T)
    if not np.isfinite(G).all():
        raise ConfigError(
            "quadratic forms overflow the float range: rescale the trait or covariate columns"
        )
    return G


def _gram_forms(G: np.ndarray, p: int, logdet, one, n: int) -> QuadraticForms:
    """The forms from the Gram matrix (see :func:`_gram`) of the whitened
    columns [X, Y, ...]."""
    return QuadraticForms(
        xtvix=G[:p, :p].copy(),
        xtviy=G[:p, p].copy(),
        ytviy=float(G[p, p]),
        logdet_v=float(logdet),
        one_tvi_one=float(one),
        n=n,
    )


def _factor_spd(V: np.ndarray, what: str):
    """Cholesky with the package pivot policy; returns (factor, logdet)."""
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(V)[0])
        raise SingularCovarianceError(
            f"{what} is not positive definite (smallest eigenvalue ~ {min_eig:.3e})",
            min_eigenvalue=min_eig,
        ) from None
    diag = np.diag(L)
    pivots = diag * diag
    threshold = PIVOT_RTOL * float(np.max(np.diag(V)))
    if float(np.min(pivots)) < threshold:
        min_eig = float(np.linalg.eigvalsh(V)[0])
        raise SingularCovarianceError(
            f"{what} is numerically singular: pivot {float(np.min(pivots)):.3e} "
            f"below {threshold:.3e} (smallest eigenvalue ~ {min_eig:.3e})",
            min_eigenvalue=min_eig,
        )
    logdet = 2.0 * float(np.sum(np.log(diag)))
    return L, logdet


def _cho_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with L L' X = B, by forward and back substitution.

    Both passes go column by column and multiply by each pivot's
    reciprocal, as OpenBLAS's triangular solve does; of the orders tried,
    this one left the most fits byte-identical to scipy's ``cho_solve``.
    Like that solve, it lets a result past the float range be inf rather
    than raise."""
    X = np.array(B, dtype=float)
    p = len(L)
    with np.errstate(over="ignore", invalid="ignore"):
        r = 1.0 / np.diag(L)
        for k in range(p):
            X[k] *= r[k]
            X[k + 1:] -= np.multiply.outer(L[k + 1:, k], X[k])
        for k in reversed(range(p)):
            X[k] *= r[k]
            X[:k] -= np.multiply.outer(L[k, :k], X[k])
    return X



def quadratic_forms_dense(V: np.ndarray, X: np.ndarray, Y: np.ndarray) -> QuadraticForms:
    """Exact quadratic forms through a symmetric factorization of V."""
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    if V.shape != (n, n):
        raise TreeError("V must be square")
    _require_finite(V, "V")
    if not np.allclose(V, V.T, rtol=0.0, atol=1e-8 * max(1.0, float(np.abs(V).max()))):
        raise TreeError("V must be symmetric")
    X, Y = _columns(X, Y, n)
    L, logdet = _factor_spd(V, "covariance matrix")
    Z = np.column_stack([X, Y, np.ones(n)])
    G = _gram(Z, _cho_solve(L, Z))
    return _gram_forms(G, X.shape[1], logdet, G[-1, -1], n)


# --------------------------------------------------------------------- #
# contrast sweep
# --------------------------------------------------------------------- #


def _time_unit(tree: PhyloTree) -> float:
    """The largest tip height's leading power of two: a unit of time in
    which the chain scans keep their 2x2 maps near one."""
    return math.ldexp(0.5, math.frexp(float(tree.tip_heights.max()))[1])


# A chain of this many nodes or more is swept by prefix scans, a shorter one
# level by level: the crossover measured on caterpillars, combs and tailed
# trees (CHANGES.md).  Chains are looked for only on trees whose levels hold
# fewer than _LEVEL_WIDTH nodes on average, and whose positive edges are all
# longer than 2^-_CHAIN_RANGE time units, so that no entry of a scanned map
# leaves the normal float range.
_CHAIN_MIN = 32
_CHAIN_RANGE = 300


def _in_scan_range(tree: PhyloTree) -> bool:
    """Whether every positive edge is longer than 2^-_CHAIN_RANGE time
    units, so that a prefix scan of the tree's 2x2 maps stays in the
    normal float range."""
    edges = tree.edge_length
    return edges.min(where=edges > 0.0, initial=np.inf) >= math.ldexp(_time_unit(tree), -_CHAIN_RANGE)


def _long_chains(tree: PhyloTree):
    """The tree's chains of _CHAIN_MIN nodes or more, or None where none is
    looked for or found.

    A chain is a maximal run of nodes that each have exactly one internal
    child, each node that child's parent.  Restricted to such nodes, the
    preorder lists each chain as a run from its top down (only tips lie
    between them), and a node starts a chain unless its parent is the node
    before it.  Returns, per node id plus a last slot read for the root's
    parent, the level + 1 of the top of the long chain the node is in (0
    off long chains) and that chain's number.
    """
    n = tree.n_nodes
    parent = tree.parent
    depth = int(tree.levels.max())
    if depth < _CHAIN_MIN or depth * _LEVEL_WIDTH <= n or not _in_scan_range(tree):
        return None
    links = parent[tree._n_children > 0]
    pre = tree.preorder
    nodes = pre[np.bincount(links[links >= 0], minlength=n)[pre] == 1]
    top = np.ones(nodes.size, dtype=bool)
    np.not_equal(parent[nodes[1:]], nodes[:-1], out=top[1:])
    chain = np.cumsum(top) - 1
    long = np.bincount(chain)[chain] >= _CHAIN_MIN
    if not long.any():
        return None
    group, number = np.zeros((2, n + 1), dtype=np.int64)
    heads = nodes[top]
    group[nodes[long]] = tree.levels[heads[chain[long]]] + 1
    number[nodes[long]] = chain[long]
    return group, number


def _level_schedule(tree: PhyloTree):
    """The sweep's schedule with one step per level on every tree: what the
    OU sweep runs, and every design search, so that a subset's score is the
    same float in stepwise search, the band table and the exhaustive
    search."""
    return _placed_steps(tree, None)


def _bottom_up_schedule(tree: PhyloTree):
    """Placement and steps of the Brownian contrast sweep.

    On most trees every step is one level: nodes are placed in (level,
    parent) order, so the root sits at position 0, each level is one slice
    of positions and each parent's children are one run.  On a tree whose
    levels hold fewer than _LEVEL_WIDTH nodes on average, the children of
    each chain of _CHAIN_MIN nodes or more (see :func:`_long_chains`) are
    placed after the rest instead, chain by chain from its top down, the
    chains grouped by their top's level.  Each group is one chain step,
    which :func:`_contrast_sweep` runs by prefix scans in O(log length)
    numpy rounds just before the level step of its tops (last, where a top
    is the root); the level steps cover only the levels that keep nodes
    outside the chains.  On a caterpillar that is one level step and one
    chain step.  A tree with no such chain gets the level schedule, bit for
    bit.

    Returns the order, each node's position, where the runs start and which
    run each node is in (both indexing the non-root positions, position 1
    first), and the steps in sweep order.  Each step holds its slice (lo,
    hi), its runs' starts and run indices (counted from the slice's first
    position and run), the positions of the runs' parents, whether every
    run holds exactly two positions (see :func:`_sibling_sums`), and for a
    chain step (None for a level step) what :func:`_chain_precisions`
    reads: per run, the row of its one internal child, whether that child
    ends the chain, the child's edge in units of :func:`_time_unit`, and
    that unit.
    """
    return _placed_steps(tree, _long_chains(tree))


def _placed_steps(tree: PhyloTree, chains):
    """The schedule of :func:`_bottom_up_schedule`, with chain steps for
    ``chains`` from :func:`_long_chains` (None: levels only).  A one-node
    tree (a lone tip, which is its root) has no covariance to sweep.

    A step's runs follow one another from its slice's first position, so
    where each holds two positions (every level of a binary tree, and a
    caterpillar's chain step) they are the pairs (0, 1), (2, 3), ...: the
    step is marked, and the sweep takes its sibling sums as strided adds.
    The mark comes from the tree's shape alone."""
    parent, levels = tree.parent, tree.levels
    n = tree.n_nodes
    if n == 1:
        raise SingularCovarianceError(
            "single-node tree has no covariance", min_eigenvalue=0.0
        )
    if chains is None:
        order = np.lexsort((parent, levels))
        n_level = n
    else:
        group, number = chains
        key = group[parent]
        order = np.lexsort((parent, levels, number[parent], key))
        n_level = n - int(np.count_nonzero(key))
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    up = position[parent[order[1:]]]
    new_run = np.empty(up.size, dtype=bool)
    new_run[0] = True
    np.not_equal(up[1:], up[:-1], out=new_run[1:])
    first = np.flatnonzero(new_run)
    starts = first + 1
    run = np.cumsum(new_run) - 1
    run_up = up[first]
    pair = np.diff(first, append=up.size) == 2

    def step(lo, hi, scan=None):
        r0, r1 = int(run[lo - 1]), int(run[hi - 2]) + 1
        return (lo, hi, starts[r0:r1] - lo, run[lo - 1:hi - 1] - r0, run_up[r0:r1],
                bool(pair[r0:r1].all()), scan)

    def slices(key, lo):
        cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
        heads = [0] + cuts
        return zip([lo + a for a in heads], [lo + b for b in cuts + [key.size]],
                   key[heads].tolist())

    # Deepest first; a chain group runs before the level step of its tops.
    timed = [((lvl, 0), step(lo, hi)) for lo, hi, lvl in slices(levels[order[1:n_level]], 1)]
    if chains is not None:
        tau = _time_unit(tree)
        for lo, hi, top in slices(key[order[n_level:]], n_level):
            nodes = order[lo:hi]
            rows = np.flatnonzero(tree._n_children[nodes] > 0)
            ends = group[nodes[rows]] == 0
            scan = (rows, ends, tree.edge_length[nodes[rows]] / tau, tau)
            timed.append(((top - 1, 1), step(lo, hi, scan)))
    timed.sort(key=lambda item: item[0], reverse=True)
    return order, position, first, run, [s for _, s in timed]


def _sibling_sums(a: np.ndarray, starts: np.ndarray, pairs: bool) -> np.ndarray:
    """Each run's sum of the rows of ``a`` (runs begin at ``starts``): one
    node's sum over its children.  Where ``pairs`` marks runs of two rows
    each (see :func:`_placed_steps`), that is one add of the even rows and
    the odd rows, the float ``np.add.reduceat`` gives, a0 + a1.  Along axis
    0, ``reduceat`` calls its inner loop once per run and column, so on the
    pairs of a binary tree the add is 10 to 25 times faster (a 16 x 6,435
    batch of masks: 30 against 440 us on a 2-core Xeon)."""
    if pairs:
        return a[0::2] + a[1::2]
    return np.add.reduceat(a, starts, axis=0)


def _finite_log(a: np.ndarray) -> np.ndarray:
    """log a where a is finite and positive, 0 elsewhere (pinned or empty)."""
    return np.log(a, where=(a > 0.0) & (a < np.inf), out=np.zeros_like(a))


def _refuse_close_pair(w, starts, run, threshold, b=1.0, unit="height") -> None:
    """Raise if a node's two least variable children are closer than allowed.

    ``w`` holds the children's weights, grouped in runs of one parent that
    begin at ``starts``; ``run`` is each row's run.  Their contrast
    variances are 1/w; a run's least sum of one child's and its least
    variable sibling's, which is the sum of its two smallest, is the
    variance of the first contrast at that node (the classic contrast
    variance on a binary node), and it is compared with ``threshold``.
    The first column with a run below its threshold is refused, naming its
    closest pair, so the message does not depend on the order of the runs.

    ``b`` is each child's unit of variance in its parent's units (see
    :func:`_edge_model`): 1 for a Brownian edge, 1/a^2 for an OU edge of
    decay a.  Each pair is taken in the units of the child it pivots, as
    (1/w + 1/w_sibling) / b; on a cherry of equal OU edges that is
    s_1 + s_2, the sum of the children's own contrast variances.
    ``unit`` names the diagonal of V in the message.
    """
    # A pair is at least the child's own 1/(w b), so none is below its
    # threshold unless w b threshold > 1 somewhere.
    if not np.any(w * threshold > 1.0 / np.max(b)):
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        var = 1.0 / w  # inf for an empty or cut child
        first = np.minimum.reduceat(var, starts, axis=0)
        is_first = var == first[run]
        tied = np.add.reduceat(is_first, starts, axis=0) > 1
        rest = np.minimum.reduceat(np.where(is_first, np.inf, var), starts, axis=0)
        sibling = np.where(is_first & ~tied[run], rest[run], first[run])
        pair = np.fmin.reduceat((var + sibling) / b, starts, axis=0)
    refused = np.flatnonzero((pair < threshold).any(axis=0))
    if refused.size:
        j = refused[0]
        low = float(np.nanmin(pair[:, j]))
        raise SingularCovarianceError(
            "two tips are numerically at one position: contrast variance "
            f"{low:.3e} below {threshold[j]:.3e} ({PIVOT_RTOL:.0e} x the "
            f"largest tip {unit})",
            min_eigenvalue=low,
        )


def _edge_weights(p, t, inv_t, b=1.0, out=None):
    """Each child's weight p / (b + t p) toward its parent, for a child of
    precision p on an edge of length t, in a unit of variance b (see
    :func:`_edge_model`).  An infinite (or, at t = 0, undefined) t p takes
    1/t: where p is infinite that is the weight, and where t p passes the
    float range p / (b + t p) rounds to it.  An infinite edge has weight 0.
    The weights are written into ``out``, a new array by default (0-d for
    scalar arguments)."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(p), np.shape(t)))
    tp = np.multiply(t, p, out=out)
    far = ~(tp < np.inf)
    np.divide(p, np.add(b, tp, out=out), out=out)
    np.copyto(out, inv_t, where=far)
    return out


def _compose(head, tail, go) -> None:
    """head = head tail where ``go``, for 2x2 maps held as their four
    entries' arrays; each product is rescaled by the power of two of its
    largest entry, which is exact."""
    a, b, c, d = head
    e, f, g, h = tail
    joined = [a * e, a * f, c * e, c * f]
    term = np.empty_like(joined[0])
    for out, x, y in zip(joined, (b, b, d, d), (g, h, g, h)):
        out += np.multiply(x, y, out=term)
    big = np.maximum(joined[0], joined[1], out=term)
    np.maximum(big, joined[2], out=big)
    np.maximum(big, joined[3], out=big)
    exp = np.frexp(big, out=(big, np.empty(big.shape, dtype=np.intc)))[1]
    np.negative(exp, out=exp)
    for old, new in zip(head, joined):
        np.copyto(old, np.ldexp(new, exp, out=new), where=go)


def _chain_precisions(prec, p, w, t, inv_t, starts, run, run_up, pairs, scan, cut):
    """Fill the precisions of a chain step's chain nodes by one prefix scan.

    Along a chain, a node's precision is p_u = C_u + p_v / (1 + t_v p_v),
    C_u its other (tip) children's weights and v its internal child: the
    Moebius map of [[1 + C t, C], [t, 1]], whose determinant is 1.  In
    homogeneous coordinates (p, 1) and units of the schedule's time unit,
    each node's precision is the product of its chain's maps down to the
    node that ends it, which is a constant: [[0, C], [0, 1]], or
    [[0, 1], [0, 0]] for an infinite C (a kept tip on a zero-length edge).
    A chain ends at its last node, whose internal child is swept already,
    at a node with an infinite C, and above the cut node.  Every entry is a
    sum of products of nonnegative terms, so none cancels.

    The step's runs, one per chain node, are scanned by Hillis-Steele: in
    round r, each run whose product does not yet reach its chain's end is
    multiplied by the product of the run 2^r after it, so O(log length)
    rounds cover every chain.  Each column of masks is scanned on its own.
    ``p`` and ``w`` are the step's rows of the precisions and weights.
    Returns, per run and mask, whether its node ends a chain.
    """
    rows, ends, t_link, tau = scan
    inner = rows[~ends]  # the chain nodes below the tops
    p[inner] = 0.0
    _edge_weights(p, t, inv_t, out=w)
    if cut is not None:
        w[cut] = 0.0
    sums = _sibling_sums(w, starts, pairs) * tau
    ends = np.repeat(ends[:, None], sums.shape[1], axis=1)
    if cut is not None:
        ends[run[cut]] = True
    scaled, ends = _mobius_scan(sums, t_link[:, None], ends)
    prec[run_up] = scaled / tau
    w[inner] = _edge_weights(p[inner], t[inner], inv_t[inner])
    if cut is not None:
        w[cut] = 0.0
    return ends


def _mobius_scan(sums, t_link, ends):
    """The precisions of chains of nodes by a Hillis-Steele scan of their
    Moebius maps (see :func:`_chain_precisions`), in units of tau.

    Rows run down each chain, and a chain's row ``i + 1`` is the internal
    child of its row ``i``.  ``sums`` holds each node's other children's
    weights C and ``t_link`` its internal child's edge, both in units of
    tau; ``ends`` marks the rows that end a chain, whose internal child is
    not scanned (read as empty).  In round r, each row whose product does
    not yet reach its chain's end is multiplied by the product of the row
    2^r after it.  Returns the precisions, and ``ends`` with the rows of an
    infinite C (which end their chain too) set."""
    pinned = np.isinf(sums)
    ends = ends | pinned
    free = np.where(pinned, 0.0, sums)
    maps = np.array([np.where(ends, 0.0, 1.0 + free * t_link), np.where(pinned, 1.0, free),
                     np.where(ends, 0.0, t_link), np.where(pinned, 0.0, 1.0)])
    done = ends.copy()
    n, s = ends.shape[0], 1
    while not done.all():
        _compose(maps[:, :n - s], maps[:, s:], ~done[:n - s])
        done[:n - s] |= done[s:]
        s *= 2
    return maps[1] / maps[3], ends


def _chain_means(xu, w_free, W_free, pinned, ends, scan) -> None:
    """Complete a chain step's means by one prefix scan, in place.

    ``xu`` holds each chain node's mean with its internal child's taken as
    0, so x_u = alpha x_v + xu, with alpha the child's share w_v / W of the
    node's free weight: 1 where the child is pinned and 0 where the node
    ends its chain (see :func:`_chain_precisions`).  These affine maps
    compose by a Hillis-Steele suffix scan, until every alpha is 0: an
    alpha of 0 stops a chain's scan from reading past its end."""
    rows = scan[0]
    share = np.divide(w_free[rows], W_free, out=np.zeros_like(W_free), where=W_free > 0.0)
    _affine_scan(xu, np.where(ends, 0.0, np.where(pinned[rows], 1.0, share)))


def _affine_scan(xu, alpha) -> None:
    """x_i = alpha_i x_{i+1} + xu_i for every row i, in place, by a
    Hillis-Steele suffix scan: ``xu`` is (rows, m, c) and ``alpha``
    (rows, m), 0 on each chain's last row, which stops the scan from
    reading past it."""
    n = alpha.shape[0]
    s = 1
    while alpha.any():
        xu[:n - s] += alpha[:n - s, :, None] * xu[s:]
        alpha[:n - s] = alpha[:n - s] * alpha[s:]
        s *= 2


def _sweep_blocks(tree: PhyloTree, count: int, width: int = 1):
    """Ranges (lo, hi) that cover ``count`` items of ``width`` sweep columns
    each, every range at most ``_SWEEP_CELLS`` node-column cells (and at
    least one item), so a blocked caller's working set stays bounded.  The
    bound, 2^18 cells or 2 MB of float64 per array, is the size of one
    core's L2 cache on the 2-core Xeon it was measured on: there the
    convergence experiment's 1,024-tip, 500-replicate fit takes about a
    quarter less time than in blocks of 2^20 cells, and no search or CLI
    command is slower."""
    block = max(1, _SWEEP_CELLS // (tree.n_nodes * width))
    for lo in range(0, count, block):
        yield lo, min(lo + block, count)


def _contrast_sweep(tree: PhyloTree, Z: np.ndarray, masks=None, cut=None, schedule=None,
                    edges=None, inside=False):
    """Whiten tip columns against a tree covariance in one sweep.

    ``Z`` is (n_tips, c) in canonical tip order; ``masks`` is None or a
    boolean (n_tips, m) batch of kept-tip sets.  Each node carries the
    precision-weighted mean x_u of its kept tips and the precision 1/v_u of
    that estimate.  A child c reaches its parent with contrast variance
    s_c = v_c + t_c and weight 1/s_c; it contributes the whitened contrast
    row (x_c - x_u)/sqrt(s_c), and the root contributes x_root/sqrt(v_root).
    Then, per mask,

        Z'V^{-1}Z = U'U,   1'V^{-1}1 = 1/v_root,
        log det V = sum of log s_c - sum of log v_u over non-root internal u,

    where zero (pinned) and infinite (empty) terms drop out.

    A polytomy is weighted within-node scatter; a masked tip has zero
    weight; a zero-length edge above a zero-variance child pins the parent to
    that child's mean (the exact limit).  A contrast variance or the root
    variance below ``PIVOT_RTOL`` times the largest kept diagonal entry of V
    (under Brownian motion, the largest kept tip height) raises
    :class:`SingularCovarianceError`, the dense path's pivot rule.

    ``edges``, from :func:`_edge_model`, is the covariance: by default
    Brownian motion.  Under OU a child's state is a_c times its parent's
    plus noise of variance q_c.  In units of its own decay (divided by
    a_c) that is a Brownian step of length t_c = q_c / a_c^2, with the
    child's precision 1/v_c read in a unit b_c = 1/a_c^2 of variance, so
    its weight is p_c / (b_c + t_c p_c) (Ho & Ane 2014).  Each node's mean
    is stored divided by its own decay, and the parent's mean and the rows
    are then the Brownian ones; a Brownian edge is the same step with
    a = 1.  Under OU the threshold's unit is the largest tip variance, and
    each contrast is taken in the units of the child it pivots (see
    :func:`_refuse_close_pair`).  The root precision is then not
    1'V^{-1}1, because a tip's mean given the root decays: a caller sweeps
    a column of ones for it.

    Four kinds of node close a subtree instead of passing it up: the root,
    the node below the cut edge, a weakly coupled OU child and, under
    stationary OU, the root again, above which a stem of variance 1 leads
    to the stationary state.  A child is weakly coupled where its weight
    times the largest kept diagonal entry of V is below 2^-120 (such a
    coupling moves no result by more than 2^-60 relative); only the
    children that :func:`_edge_model` marks can be, and a level step
    zeroes their weight toward the parent.  With its stem s (0, 0, q_c and
    1), each closing node contributes the row x/sqrt(v + s), x its mean in
    its own units, and the log det V term log(v + s) - log v, and each
    v + s is checked like the root's variance.

    ``cut``, a non-root internal node, cuts the edge above it, under
    Brownian motion: V becomes diag(V_cut - d_cut, V_rest) over the cut
    node's tips and the rest.  The cut node's weight is kept out of its
    parent and its subtree closes as a second root; tip heights below it
    count from it in the refusal threshold.

    Returns U (n_nodes, m, c), one row per node in no fixed order, log det V
    (m,), 1'V^{-1}1 at the root (m,), and the weights toward each parent,
    (n_nodes, m) by schedule position (the root's unset), which
    :func:`~treegls.simlab.phase_transition_curve` reads; with a cut, 1'V^{-1}1 is (2, m), the
    root's then the cut node's.  With ``masks=None``, m = 1.  Log det V is
    None when ``Z`` has no columns: a caller that wants only 1'V^{-1}1
    does not read it.  With ``inside=True`` it also returns each node's
    precision (n_nodes, m) and mean (n_nodes, m, c) of its own subtree, by
    schedule position, which :func:`_rerooted_forms` reads.

    The sweep runs the steps of ``schedule``, by default the tree's
    :func:`_bottom_up_schedule`.  A level step takes one level's
    children: their weights, then per parent the precision (a sum of
    weights), the mean and the children's rows.  Every sum over a parent's
    children is one call of :func:`_sibling_sums`: on a step whose runs
    are all pairs, an add of the even rows and the odd rows, and elsewhere
    (a level with a polytomy or a unary node) ``np.add.reduceat``, whose
    inner loop runs once per run and column along axis 0; the two give the
    same floats.  A chain step takes the children of a group of chains at
    once: the chain nodes' precisions and means come from prefix scans
    (:func:`_chain_precisions`, :func:`_chain_means`), then the weights,
    means and rows as in a level step, elementwise over the group.  The
    scans round differently from level steps, so on such a tree the results
    move by a few units in the last place.  The precisions never read the
    columns, so 1'V^{-1}1 is the same float for any ``Z``; each mask's
    column is scanned on its own, so a mask's rows, 1'V^{-1}1 and log det V
    do not depend on the other masks.  The scans take Brownian edges only,
    so an OU caller passes a :func:`_level_schedule`, in which every step
    is a level.

    Each call allocates its own (2, n_nodes, m) precisions and weights
    beside the (n_nodes, m, c) means and rows; a batch caller bounds m with
    :func:`_sweep_blocks`.  A caller that sweeps one tree many times passes
    its schedule as ``schedule``.
    """
    if schedule is None:
        schedule = _bottom_up_schedule(tree)
    order, position, run_starts, run_of, steps = schedule
    b, t_edge, stem, var, unit = _edge_model(tree, order)[0] if edges is None else edges
    tips = position[tree.tip_id_array]
    roots = [0]
    if masks is None:
        masks = np.ones((tree.n_tips, 1), dtype=bool)
    m, c = masks.shape[1], Z.shape[1]
    if cut is not None:
        lo, hi = tree.tip_range[cut]
        var = var.copy()
        var[lo:hi] -= tree.depths[cut]
        roots.append(int(position[cut]))
    scale = np.where(masks, var[:, None], 0.0).max(axis=0)
    threshold = np.maximum(PIVOT_RTOL * scale, np.finfo(float).tiny)
    # Per position: the precision, inf at a kept tip (no variance) and 0
    # where no tip below is kept; the weight toward the parent (the root's
    # is never set or read); the mean, divided by the node's own decay (by
    # 1 below an edge the edge model cuts); and the whitened row.
    # Precisions and weights share one allocation: as two arrays, glibc
    # maps fresh pages for them on every sweep (measured: 435 page faults
    # and 1.5x the time for 200 masks on 200 tips).
    prec, weight = np.empty((2, tree.n_nodes, m))
    prec[tips] = np.where(masks, np.inf, 0.0)
    xhat = np.empty((tree.n_nodes, m, c))
    U = np.empty((tree.n_nodes, m, c))
    lift = np.sqrt(b)[:, None, None]  # 1/a
    xhat[tips] = Z[:, None, :] * lift[tips]
    # The children that may close their subtree (none under Brownian
    # motion), and the nodes that close one, the roots first.
    watch = np.flatnonzero(stem[1:]) + 1
    shut = [roots]

    # A finite precision is at most n_nodes over the shortest positive edge,
    # so t p can pass the float range only where edge lengths span a ratio
    # near the float range over n_nodes (as they do beside a subnormal edge
    # or an infinite, cut one), and 1/t only where the shortest edge is
    # below 1/DBL_MAX (as every OU edge variance is at a tiny alpha).  There
    # overflow is expected and the weights below handle it; elsewhere the
    # caller's numpy setting reports it.
    t_max = float(t_edge.max())
    t_min = float(t_edge.min(where=t_edge > 0, initial=np.inf))
    wide = t_max / t_min > _FLOAT_MAX / (2 * tree.n_nodes) or t_min * _FLOAT_MAX < 1.0
    over = "ignore" if wide else np.geterr()["over"]
    with np.errstate(divide="ignore", invalid="ignore", over=over):
        inv_edges = 1.0 / t_edge
        for lo, hi, starts, run, run_up, pairs, scan in steps:
            t = t_edge[lo:hi, None]
            inv_t = inv_edges[lo:hi, None]
            p = prec[lo:hi]
            w = weight[lo:hi]
            # The cut node (the root is in no step).
            cut_row = roots[-1] - lo if lo <= roots[-1] < hi else None
            if scan is not None:
                ends = _chain_precisions(prec, p, w, t, inv_t, starts, run, run_up, pairs, scan,
                                         cut_row)
            else:
                _edge_weights(p, t, inv_t, b[lo:hi, None], out=w)
                if cut_row is not None:
                    w[cut_row] = 0.0
                if watch.size:
                    kids = watch[np.searchsorted(watch, lo):np.searchsorted(watch, hi)]
                    weak = kids[(w[kids - lo] * scale < _WEAK_COUPLING).all(axis=1)]
                    w[weak - lo] = 0.0
                    shut.append(weak)
                prec[run_up] = _sibling_sums(w, starts, pairs)
            if not c:
                continue
            x = xhat[lo:hi]
            if scan is not None:
                x[scan[0][~scan[1]]] = 0.0  # the chain nodes below the tops
            # An infinite weight needs t = 0 (under OU, q = 0, where a = 1):
            # the parent takes the child's mean.
            pinned = np.isinf(w)
            w_free = np.where(pinned, 0.0, w)
            W_free = _sibling_sums(w_free, starts, pairs)
            xu = _sibling_sums(w_free[:, :, None] * x, starts, pairs)
            # Divide rather than scale by 1/W, so a constant column has
            # contrasts of exactly zero.
            np.divide(xu, W_free[:, :, None], out=xu, where=W_free[:, :, None] > 0.0)
            pin_child, pin_mask = np.nonzero(pinned)
            xu[run[pin_child], pin_mask] = x[pin_child, pin_mask]
            if scan is not None:
                _chain_means(xu, w_free, W_free, pinned, ends, scan)
            xhat[run_up] = xu * lift[run_up]
            rows = U[lo:hi]
            np.subtract(x, xu[run], out=rows)
            rows *= np.sqrt(w)[:, :, None]
            rows[pin_child, pin_mask] = 0.0

    _refuse_close_pair(weight[1:], run_starts, run_of, threshold, b[1:, None], unit)
    one = prec[roots] if cut is not None else prec[0]
    shut = np.concatenate(shut)
    with np.errstate(divide="ignore", invalid="ignore"):
        close = _edge_weights(prec[shut], stem[shut, None], 1.0 / stem[shut, None])  # 1/(v + s)
    _refuse_roots(close, threshold, unit)
    U[shut] = xhat[shut] / lift[shut] * np.sqrt(close)[:, :, None]
    logdet = None
    if c:
        internal = np.ones(tree.n_nodes, dtype=bool)
        internal[tips] = False
        internal[roots] = stem[roots] > 0.0
        # Each mask's terms are summed as one contiguous row, pairwise as
        # numpy sums a lone column, so a mask's log det is the same float in
        # any batch.  A child's 1/s_c, in its own units, is w_c b_c; a child
        # that closes its subtree (weight 0) has its 1/(v + s) instead.
        inv_s = np.concatenate((weight[1:] * b[1:, None], close[stem[shut] > 0.0]))
        logdet = _finite_log(prec[internal].T.copy()).sum(axis=1)
        logdet -= _finite_log(inv_s.T.copy()).sum(axis=1)
    if inside:
        return U, logdet, one, weight, prec, xhat
    return U, logdet, one, weight


def _refuse_roots(one, threshold, unit="height") -> None:
    """Raise if a root's state variance, 1 / ``one`` (roots by masks), is
    below ``threshold`` (per mask): a tip sits at that root.  The sweep
    passes every node that closes a subtree, with its v + s (see
    :func:`_contrast_sweep`); past the roots, v + s is far above any
    threshold, so only a root can be refused."""
    if np.any(one * threshold > 1.0):
        r, j = np.unravel_index(np.argmax(one * threshold), one.shape)
        raise SingularCovarianceError(
            f"a tip sits numerically at a root: root-state variance "
            f"{1.0 / one[r, j]:.3e} below {threshold[j]:.3e} "
            f"({PIVOT_RTOL:.0e} x the largest tip {unit})",
            min_eigenvalue=float(1.0 / one[r, j]),
        )


def _expm1_ratio(x):
    """-expm1(-x) / x, which is 1 at x = 0."""
    return np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0.0)


def _edge_model(tree: PhyloTree, order, alpha: float = 0.0, stationary: bool = False):
    """The edges of the OU covariance of selection strength ``alpha`` as
    Brownian edges, by schedule position ``order``, for
    :func:`_contrast_sweep`; Brownian motion is ``alpha = 0``.

    A child's state is a = exp(-alpha t) times its parent's plus noise of
    variance q = -expm1(-2 alpha t), in units where the stationary variance
    is 1.  Where 2 alpha H is below 1 (H the largest tip height), the
    root-conditioned kind sweeps V / (2 alpha), whose edge variances
    t -expm1(-x)/x at x = 2 alpha t stay near t however small alpha is; at
    alpha = 0 that is Brownian motion, a = 1 and q = t exactly, with no
    rescaling, and those edges are returned without forming the
    exponentials (on a 2^15-tip tree, 0.2 ms a sweep against 2.7 ms with
    them, on a 2-core Xeon).  Exponents that overflow give their limits,
    a = 0 and q = 1.

    In units of the child's decay the edge is Brownian, of length q/a^2,
    and the child's variances are read in the unit b = 1/a^2 (see
    :func:`_contrast_sweep`); a Brownian edge has b = 1.

    A child whose weight a^2 / (v + q) toward its parent, times V_max (the
    largest diagonal entry of V), is below 2^-120 is weakly coupled: the
    sweep cuts it, and the child closes its subtree with the stem q.  This
    keeps every precision clear of the subnormal range, where a long run of
    small decays would lose its digits.  Two bounds decide where the sweep
    looks:
      * the weight is at most a^2 / q, so an edge with a^2 V_max / q below
        2^-120 is weak at any precision: it gets t = inf and b = 1, so its
        weight is exactly 0 however small a is, and its mean stays in its
        own units;
      * the weight times V_max is at least exp(-2 alpha D) / 2, with D the
        distance from the parent to a tip below the child that the sweep
        still joins to it (v is at most that tip's variance over its
        squared decay, and q and the tip's variance are at most V_max).
        So only where exp(-2 alpha D) is below 2^-119 can the weight fall
        below the cut.  D is taken to the child's first tip, as a
        difference of depths, and the test at 2^-100 leaves a margin for
        its rounding.  Where a cut separates that tip from the child, the
        cut edge passed this test with a shorter D, so the child's edge
        passes it too.
    At alpha = 0 neither holds anywhere: a Brownian edge is never cut.

    Returns ``(b, t, stem, var, unit)`` by position: b, the length q/a^2,
    the stem q where the sweep checks the coupling (0 elsewhere, and at the
    root 1 for the stationary kind), the diagonal of V in canonical tip
    order, and what a refusal calls that diagonal; and the factor the swept
    covariance was divided by.
    """
    t = tree.edge_length[order] + 0.0  # -0 + 0 is 0: a -0 edge reads as 0
    h = tree.tip_heights
    if not alpha:
        # What the formulas below give, without their exponentials; b = 1 is
        # a stride-0 view, which numpy adds as fast as the scalar 1.0.
        return (np.broadcast_to(1.0, t.shape), t, np.zeros_like(t), h, "height"), 1.0
    with np.errstate(over="ignore"):
        a2 = np.exp(-(alpha * t)) ** 2
        x, x_h = 2.0 * (alpha * t), 2.0 * (alpha * h)
        down = h[tree.tip_range[order, 0]] - tree.depths[tree.parent[order]]
        reach = np.exp(-2.0 * (alpha * down))
    if stationary or x_h.max() >= 1.0:
        q, var, scale = -np.expm1(-x), np.ones_like(h) if stationary else -np.expm1(-x_h), 1.0
    else:
        q, var, scale = t * _expm1_ratio(x), h * _expm1_ratio(x_h), 2.0 * alpha
    weak = a2 * var.max() < _WEAK_COUPLING * q
    b = np.divide(1.0, a2, out=np.ones_like(a2), where=~weak)
    stem = np.where(weak | (reach < 2.0 ** 20 * _WEAK_COUPLING), q, 0.0)
    stem[0] = float(stationary)
    return (b, np.where(weak, np.inf, q * b), stem, var, "variance"), scale


def _forms(tree: PhyloTree, X: np.ndarray, Y: np.ndarray, cut=None,
           cov: CovarianceSpec | None = None) -> QuadraticForms:
    """Quadratic forms of (X, Y) from one contrast sweep, optionally with
    the edge above ``cut`` cut or under the OU covariance ``cov`` (see
    :func:`_contrast_sweep`)."""
    n = tree.n_tips
    if cov is None or cov.kind == "bm":
        return _bm_forms(tree, X, Y, cut)[0]
    schedule = _level_schedule(tree)
    edges, scale = _edge_model(tree, schedule[0], cov.alpha, cov.kind == "ou-stationary")
    Z = np.column_stack([X, Y, np.ones(n)])
    U, logdet, _, _ = _contrast_sweep(tree, Z, schedule=schedule, edges=edges)
    U = U[:, 0, :]
    G = _gram(U, U)
    logdet = logdet[0]
    if scale != 1.0:
        with np.errstate(over="ignore"):
            G /= scale
        if not np.isfinite(G).all():
            raise ConfigError(
                f"OU alpha {cov.alpha!r} is too small: the quadratic forms scale "
                "as 1 / (2 alpha) and overflow the float range"
            )
        logdet += n * math.log(scale)
    return _gram_forms(G, X.shape[1], logdet, G[-1, -1], n)


def _bm_forms(tree: PhyloTree, X: np.ndarray, Y: np.ndarray, cut=None):
    """The Brownian forms of :func:`_forms`, and the sweep's 1'V^{-1}1 at
    its roots, (1, 1) or with ``cut`` (2, 1): the root's, then the cut
    node's."""
    U, logdet, one, _ = _contrast_sweep(tree, np.column_stack([X, Y]), cut=cut)
    return _swept_forms(U, logdet, one, tree.n_tips), one.reshape(-1, 1)


def _swept_forms(U, logdet, one, n: int, cols=slice(None)) -> QuadraticForms:
    """The forms of one sweep's columns ``cols`` of U, the last of them
    the response."""
    U = U[:, 0, cols]
    return _gram_forms(_gram(U, U), U.shape[1] - 1, logdet[0], one.sum(), n)


def quadratic_forms_pruning(tree: PhyloTree, X: np.ndarray, Y: np.ndarray,
                            cov: CovarianceSpec | None = None) -> QuadraticForms:
    """Quadratic forms from one contrast sweep, under the Brownian
    covariance or the OU covariance ``cov``."""
    return _forms(tree, *_columns(X, Y, tree.n_tips), cov=cov)


def scaled_ess_pruning(tree: PhyloTree, keep_mask=None):
    """1'V^{-1}1 under the Brownian covariance, optionally on tip subsets.

    ``keep_mask`` is a boolean array over canonical tip indices; masked-out
    tips are pruned implicitly (this equals the scaled ESS of the restricted
    tree with the original root retained).  A 2-D (n_tips, m) mask scores m
    subsets and returns an array of m values; the subsets go through the
    sweep in blocks of at most ``_SWEEP_CELLS`` node-subset cells.  A search
    too large to hold all its masks builds and sweeps them one block of
    :func:`_sweep_blocks` at a time, as :mod:`treegls.design` does through
    :func:`_scaled_ess`.
    """
    if keep_mask is None:
        keep_mask = np.ones(tree.n_tips, dtype=bool)
    masks = np.asarray(keep_mask, dtype=bool)
    batch = masks.ndim == 2
    if masks.ndim == 1:
        masks = masks[:, None]
    if masks.ndim != 2 or masks.shape[0] != tree.n_tips:
        raise TreeError("keep_mask must have one entry per tip")
    if not masks.any(axis=0).all():
        raise TreeError("keep_mask must keep at least one tip")
    one = _scaled_ess(tree, masks, _bottom_up_schedule(tree))
    return one if batch else float(one[0])


def _scaled_ess(tree: PhyloTree, masks: np.ndarray, schedule) -> np.ndarray:
    """1'V^{-1}1 of each column of ``masks``, swept by ``schedule`` in
    blocks of :func:`_sweep_blocks`."""
    Z = np.empty((tree.n_tips, 0))
    one = np.empty(masks.shape[1])
    for lo, hi in _sweep_blocks(tree, masks.shape[1]):
        one[lo:hi] = _contrast_sweep(tree, Z, masks[:, lo:hi], None, schedule)[2]
    return one


# --------------------------------------------------------------------- #
# change of root
# --------------------------------------------------------------------- #


def _rerooted_forms(tree: PhyloTree, schedule, swept, focal: int, cut: bool):
    """The forms of the tree rerooted at base = parent(``focal``), read off
    one sweep of the tree as it is rooted.

    ``swept`` is :func:`_contrast_sweep` of columns [1, ..., Y] by
    ``schedule``, with ``inside=True``.  By Felsenstein's pulley principle
    a contrast does not depend on the root, so rerooting at base changes
    only the rows that touch the path from the root down to base: each
    path node's other children's rows, taken against the node's mean as
    the rerooted tree sees it, the rows of the path's edges, turned over,
    and the root row, which is base's mean times the square root of its
    precision.  With ``cut`` the focal edge is cut as well (the "SB"
    model): the focal node's row is its own root row, and base sees the
    rest of the tree only.

    Base's view comes from messages down the path.  A path node's message
    joins its other children's weights C, and their mean, with the message
    of the path node above it through their edge t: Q = C + Q_up /
    (1 + t Q_up), the means weighted as the sweep weights a node's
    children.  On a path of _CHAIN_MIN nodes or more whose edges are in
    range (:func:`_in_scan_range`), these are the Moebius and affine maps
    of the chain scans (:func:`_mobius_scan`, :func:`_affine_scan`); on a
    shorter path they are joined one node at a time, summed in the order
    of the rerooted tree's sweep.  The root's message holds only its other
    children, so on a stem of unary nodes above the first fork it is
    empty, and so is every row of the stem.

    The rerooted tree is refused where its own sweep would refuse it: a
    contrast variance, or a root variance, below ``PIVOT_RTOL`` times the
    largest tip height from base (below a cut, from the focal node).  Tip
    heights from base are summed along the path and down from it, edge by
    edge, as the rerooted tree sums its depths; no depth is subtracted.

    Returns the forms of [1, ...] and Y, and what the ESS pair reads from
    a sweep of the rerooted tree cut at the focal edge: the tip heights
    from base in canonical order, 1'V^{-1}1 at base of the tips outside the
    focal clade and at the focal node of those in it, (2, 1), and the
    threshold those are refused at, (1,).
    """
    U, logdet, _, weight, prec, xhat = swept
    position = schedule[1]
    parent, edge = tree.parent, tree.edge_length
    w, p, x = weight[position, 0], prec[position, 0], xhat[position, 0]
    base = int(parent[focal])
    path = tree._ancestors(*tree._pre_span[base])[::-1]  # the root first, base last
    L = path.size - 1
    on = np.zeros(tree.n_nodes, dtype=bool)
    on[path] = True

    down = edge.copy()
    down[path] = np.cumsum(np.concatenate(([0.0], edge[path[:0:-1]])))[::-1]
    pre = tree.preorder
    _add_down(down, np.concatenate((path[:1], pre[~on[pre]])), parent, tree.levels)
    heights = down[tree.tip_id_array]
    lo, hi = tree.tip_range[focal]
    below = heights.copy()
    below[lo:hi] -= down[focal]
    tiny = np.finfo(float).tiny
    cut_threshold = np.maximum(PIVOT_RTOL * below.max(keepdims=True), tiny)
    threshold = cut_threshold if cut else np.maximum(PIVOT_RTOL * heights.max(keepdims=True), tiny)

    # Each path node's other children, the focal node among base's unless
    # it is cut, in id order as the sweep takes a node's children.
    kids = np.flatnonzero(on[parent] & ~on)
    if cut:
        kids = kids[kids != focal]
    at = np.zeros(tree.n_nodes, dtype=np.int64)
    at[path] = np.arange(L + 1)
    at = at[parent[kids]]
    wk = w[kids]
    pinned = wk == np.inf
    free = np.where(pinned, 0.0, wk)
    sums = np.bincount(at, wk, minlength=L + 1)
    C = np.bincount(at, free, minlength=L + 1)
    S = np.zeros((L + 1, x.shape[1]))
    np.add.at(S, at, free[:, None] * x[kids])
    pin = np.zeros(L + 1, dtype=bool)
    pin[at[pinned]] = True
    S[at[pinned]] = x[kids[pinned]]
    t = edge[path] + 0.0  # -0 + 0 is 0
    u = np.zeros(L + 1)  # each path node's weight from the one above
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inv_t = 1.0 / t
        if L >= _CHAIN_MIN and _in_scan_range(tree):
            tau = _time_unit(tree)
            ends = np.zeros((L + 1, 1), dtype=bool)
            ends[-1] = True
            Q = _mobius_scan(sums[::-1, None] * tau, t[::-1, None] / tau, ends)[0][::-1, 0] / tau
            u[1:] = _edge_weights(Q[:-1], t[1:], inv_t[1:])
            up = np.where(u < np.inf, u, 0.0)
            W = C + up
            # A pinned child gives its node its mean; a pinned message from
            # above passes that node's mean down.
            xu = np.divide(S, W[:, None], out=np.zeros_like(S), where=W[:, None] > 0.0)
            alpha = np.divide(up, W, out=np.zeros_like(W), where=W > 0.0)
            xu[u == np.inf], alpha[u == np.inf] = 0.0, 1.0
            xu[pin], alpha[pin] = S[pin], 0.0
            m = xu[::-1, None].copy()
            _affine_scan(m, alpha[::-1, None].copy())
            m = m[::-1, 0]
        else:
            Q, m = sums.copy(), S.copy()
            for k in range(L + 1):
                if k:
                    u[k] = _edge_weights(Q[k - 1], t[k], inv_t[k])
                    Q[k] += u[k]
                if pin[k]:
                    continue
                if u[k] == np.inf:
                    m[k] = m[k - 1]
                elif C[k] + u[k] > 0.0:
                    m[k] = (S[k] + u[k] * m[k - 1]) / (C[k] + u[k])

    # The rerooted tree's refusals: each node's weight toward its parent
    # there, the path's edges turned over.
    turned = w.copy()
    turned[path[:-1]] = u[1:]
    turned[base] = 0.0
    p_focal = p[focal]
    if cut:
        turned[focal] = 0.0
    if np.any(turned * threshold > 1.0):
        _refuse_rerooted_pairs(tree, path, turned, threshold)
    if cut:
        bottom = Q[L]
        _refuse_roots(np.array([[bottom], [p_focal]]), threshold)
    else:
        _refuse_roots(Q[L:, None], threshold)
        bottom = np.bincount(at, np.where(kids == focal, 0.0, wk), minlength=L + 1)[L] + u[L]

    # The rerooted tree's rows and log det V terms by the sweep's
    # positions: each turned edge's at its lower end's position, and the
    # root row at position 0, the old root's.  A stem above the first fork
    # has rows of 0 and no log det V terms.
    V = U[:, 0].copy()
    with np.errstate(invalid="ignore"):  # inf x 0 on a pinned row, which is 0
        rows = x[kids] - m[at]
        rows *= np.sqrt(wk)[:, None]
        rows[pinned] = 0.0
        turns = m[:-1] - m[1:]
        turns *= np.sqrt(u[1:])[:, None]
        turns[u[1:] == np.inf] = 0.0
    V[position[kids]] = rows
    V[position[path[1:]]] = turns
    V[0] = m[L] * np.sqrt(Q[L])
    inner = prec[:, 0].copy()
    inner[position[path[:-1]]] = Q[:-1]
    edges = weight[:, 0].copy()
    edges[position[path[1:]]] = u[1:]
    is_inner = np.ones(tree.n_nodes, dtype=bool)
    is_inner[position[tree.tip_id_array]] = False
    is_inner[position[base]] = False
    one = Q[L]
    if cut:
        V[position[focal]] = x[focal] * np.sqrt(p_focal)
        is_inner[position[focal]] = False
        edges[position[focal]] = 0.0
        one += p_focal
    stem = int(np.argmax(tree._n_children[path] != 1))
    is_inner[position[path[:stem]]] = False
    is_edge = np.ones(tree.n_nodes, dtype=bool)
    is_edge[position[path[:stem + 1]]] = False  # the root has no edge
    ld = _finite_log(inner[is_inner]).sum() - _finite_log(edges[is_edge]).sum()
    forms = _gram_forms(_gram(V, V), V.shape[1] - 1, ld, one, tree.n_tips)
    return forms, heights, np.array([[bottom], [p_focal]]), cut_threshold


def _refuse_rerooted_pairs(tree: PhyloTree, path, weight, threshold) -> None:
    """:func:`_refuse_close_pair` over the children of each node of the
    tree rerooted at ``path[-1]`` (``path`` runs from the root down to it).
    ``weight`` holds each node's weight toward its parent in the rerooted
    tree, by node id."""
    up = tree.parent.copy()
    up[path[:-1]] = path[1:]
    kids = np.delete(np.arange(tree.n_nodes), path[-1])
    kids = kids[np.argsort(up[kids], kind="stable")]
    new = np.ones(kids.size, dtype=bool)
    np.not_equal(up[kids[1:]], up[kids[:-1]], out=new[1:])
    _refuse_close_pair(weight[kids, None], np.flatnonzero(new), np.cumsum(new) - 1, threshold)


# --------------------------------------------------------------------- #
# symmetric-tree spectra
# --------------------------------------------------------------------- #


def symmetric_tree_eigenvalues(d, t) -> list[tuple[float, int]]:
    """Closed-form spectrum of the Brownian covariance of a symmetric tree.

    For level counts ``d = (d_1, ..., d_m)`` and level edge lengths
    ``t = (t_1, ..., t_m)`` the eigenvalues are

        lambda_i = n (t_i / (d_1...d_i) + ... + t_m / (d_1...d_m)),

    with multiplicity ``d_1`` for i = 1 and ``d_1...d_{i-1} (d_i - 1)`` for
    i >= 2.  Multiplicities sum to n = d_1...d_m and the trace identity
    sum(lambda_i mult_i) = n (t_1 + ... + t_m) holds.  Multiplicities are
    exact ints; :class:`ConfigError` when n or an eigenvalue is past the
    float range.
    """
    d = [_whole(x, "each level count") for x in d]
    t = [float(x) for x in t]
    if len(d) == 0 or len(d) != len(t):
        raise TreeError("d and t must be nonempty sequences of equal length")
    if any(x < 2 for x in d):
        raise TreeError("all level counts must be >= 2")
    if any(x <= 0 for x in t):
        raise TreeError("all level lengths must be positive")
    c = list(accumulate(d, operator.mul))  # exact level products d_1...d_j
    try:
        n = float(c[-1])
    except OverflowError:
        raise ConfigError("n = d_1...d_m is past the float range") from None
    tails = list(accumulate(reversed([tj / cj for tj, cj in zip(t, c)])))[::-1]
    lams = [n * tail for tail in tails]
    if not all(map(math.isfinite, lams)):
        raise ConfigError("an eigenvalue is past the float range")
    mults = [d[0]] + [ci * (di - 1) for ci, di in zip(c, d[1:])]
    return list(zip(lams, mults))
