"""Tree covariance structures and their quadratic forms.

Two permanent code paths evaluate the forms X'V^{-1}X, X'V^{-1}Y, Y'V^{-1}Y,
1'V^{-1}1 and log det V:

* a dense path factorizing an explicit covariance matrix (the verification
  oracle, also the only path for user-supplied or OU covariances), and
* one contrast sweep for the Brownian structure (Felsenstein's independent
  contrasts, level by level from the tips): it whitens any number of tip
  columns, for any batch of kept-tip masks, in O(n p^2) time and O(n p)
  memory, and never materializes V.  The quadratic forms, the scaled ESS of
  a tree or of many tip subsets, and the batched GLS of the simulation lab
  all come from it.  The sweep can also cut one edge: the node below it
  closes as a second root, which gives the block covariance
  diag(V_top - d_cut, V_bot) of the lineage-shift "SB" model and its ESS
  pair from the same pass.

Numerical policy: nothing is silently regularized, and both paths refuse
the same near-singular trees.  Non-finite inputs raise
:class:`ConfigError`.  The dense factorization fails when a pivot drops
below ``PIVOT_RTOL`` times the largest diagonal entry; the sweep fails when
a contrast variance, or the state variance at a root, drops below
``PIVOT_RTOL`` times the largest tip height (the same diagonal; below a cut
edge, tip heights count from the cut node).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ConfigError, SingularCovarianceError, TreeError
from .tree import PhyloTree, _sum_down

PIVOT_RTOL = 1e-12
_FLOAT_MAX = float(np.finfo(float).max)
_SWEEP_CELLS = 1 << 20  # node x column cells one contrast sweep may hold


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
    dist = np.array(_sum_down(run, tree.parent, tree.edge_length))
    rng = tree.tip_range
    lo, hi = rng[node]
    heights = dist[list(tree.tip_ids[lo:hi])]
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
    2 alpha times the Brownian covariance.
    """
    _check_alpha(alpha)
    t_shared = bm_covariance(tree)
    h = tree.tip_heights
    d = h[:, None] + h[None, :] - 2.0 * t_shared
    if stationary:
        return np.exp(-alpha * d)
    return -np.expm1(-2.0 * alpha * t_shared) * np.exp(-alpha * d)


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
    # scipy.linalg is imported where a dense factor is taken, as in gls and
    # simlab: loading it costs more than a sweep-only command runs.
    from scipy.linalg import cho_factor

    try:
        c, low = cho_factor(V, lower=True)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(V)[0])
        raise SingularCovarianceError(
            f"{what} is not positive definite (smallest eigenvalue ~ {min_eig:.3e})",
            min_eigenvalue=min_eig,
        ) from None
    diag = np.diag(c)
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
    return (c, low), logdet


def quadratic_forms_dense(V: np.ndarray, X: np.ndarray, Y: np.ndarray) -> QuadraticForms:
    """Exact quadratic forms through a symmetric factorization of V."""
    from scipy.linalg import cho_solve

    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    if V.shape != (n, n):
        raise TreeError("V must be square")
    _require_finite(V, "V")
    if not np.allclose(V, V.T, rtol=0.0, atol=1e-8 * max(1.0, float(np.abs(V).max()))):
        raise TreeError("V must be symmetric")
    X, Y = _columns(X, Y, n)
    factor, logdet = _factor_spd(V, "covariance matrix")
    Z = np.column_stack([X, Y, np.ones(n)])
    G = _gram(Z, cho_solve(factor, Z))
    return _gram_forms(G, X.shape[1], logdet, G[-1, -1], n)


# --------------------------------------------------------------------- #
# contrast sweep
# --------------------------------------------------------------------- #


def _bottom_up_schedule(tree: PhyloTree):
    """Placement and steps of the contrast sweep.

    Nodes are placed in (level, parent) order, so the root sits at position
    0, each level is one slice of positions and each parent's children are
    one run.  Returns the order, each node's position, where the runs start
    and which run each node is in (both indexing the non-root positions,
    position 1 first), and per level, deepest first, its slice (lo, hi), its
    runs' starts and run indices (counted from the level's first position
    and run), and the positions of the runs' parents.
    """
    parent, levels = tree.parent, tree.levels
    order = np.lexsort((parent, levels))
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
    bounds = np.searchsorted(levels[order], np.arange(int(levels.max()) + 2))
    steps = []
    for lvl in range(len(bounds) - 2, 0, -1):
        lo, hi = int(bounds[lvl]), int(bounds[lvl + 1])
        r0, r1 = int(run[lo - 1]), int(run[hi - 2]) + 1
        runs = slice(r0, r1)
        steps.append((lo, hi, starts[runs] - lo, run[lo - 1:hi - 1] - r0, run_up[runs]))
    return order, position, first, run, steps


def _finite_log(a: np.ndarray) -> np.ndarray:
    """log a where a is finite and positive, 0 elsewhere (pinned or empty)."""
    return np.log(a, where=(a > 0.0) & (a < np.inf), out=np.zeros_like(a))


def _refuse_close_pair(w, starts, run, threshold) -> None:
    """Raise if a node's two least variable children are closer than allowed.

    ``w`` holds the children's weights, grouped in runs of one parent that
    begin at ``starts``; ``run`` is each row's run.  Their contrast
    variances are 1/w; the sum of a run's two smallest is the variance of
    the first contrast at that node (the classic contrast variance on a
    binary node), and it is compared with ``threshold``.
    """
    if not np.any(w * threshold > 1.0):
        return
    with np.errstate(divide="ignore"):
        var = 1.0 / w  # inf for an empty or cut child
    first = np.minimum.reduceat(var, starts, axis=0)
    is_first = var == first[run]
    tied = np.add.reduceat(is_first, starts, axis=0) > 1
    rest = np.minimum.reduceat(np.where(is_first, np.inf, var), starts, axis=0)
    pair = first + np.where(tied, first, rest)
    bad = np.argwhere(pair < threshold)
    if bad.size:
        g, j = bad[0]
        raise SingularCovarianceError(
            "two tips are numerically at one position: contrast variance "
            f"{pair[g, j]:.3e} below {threshold[j]:.3e} "
            f"({PIVOT_RTOL:.0e} x the largest tip height)",
            min_eigenvalue=float(pair[g, j]),
        )


def _sweep_blocks(tree: PhyloTree, count: int, width: int = 1):
    """Ranges (lo, hi) that cover ``count`` items of ``width`` sweep columns
    each, every range at most ``_SWEEP_CELLS`` node-column cells (and at
    least one item), so a blocked caller's working set stays bounded."""
    block = max(1, _SWEEP_CELLS // (tree.n_nodes * width))
    for lo in range(0, count, block):
        yield lo, min(lo + block, count)


def _contrast_sweep(tree: PhyloTree, Z: np.ndarray, masks=None, cut=None, work=None):
    """Whiten tip columns against the Brownian covariance in one sweep.

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
    variance below ``PIVOT_RTOL`` times the largest kept tip height raises
    :class:`SingularCovarianceError`, the dense path's pivot rule.

    ``cut``, a non-root internal node, cuts the edge above it: V becomes
    diag(V_cut - d_cut, V_rest) over the cut node's tips and the rest.  The
    cut node's weight is kept out of its parent and its subtree closes as a
    second root, contributing the row x_cut/sqrt(v_cut) and no log v term;
    tip heights below it count from it in the refusal threshold, and v_cut
    is checked like the root's.

    Returns U (n_nodes, m, c), one row per node in no fixed order, log det V
    (m,) and 1'V^{-1}1 at the root (m,); with a cut, the last is (2, m),
    the root's then the cut node's.  With ``masks=None``, m = 1.

    ``work``, a float array (2, n_nodes, >= m), holds the precisions and
    weights in place of fresh arrays, so that the blocks of one batch reuse
    one working set.
    """
    if tree.n_nodes == 1:
        raise SingularCovarianceError(
            "single-node tree has no covariance", min_eigenvalue=0.0
        )
    order, position, run_starts, run_of, steps = _bottom_up_schedule(tree)
    edges = tree.edge_length[order]
    tips = position[list(tree.tip_ids)]
    heights = tree.tip_heights
    roots = [0]
    if cut is not None:
        lo, hi = tree.tip_range[cut]
        heights[lo:hi] -= tree.depths[cut]
        roots.append(int(position[cut]))
    if masks is None:
        masks = np.ones((tree.n_tips, 1), dtype=bool)
    m, c = masks.shape[1], Z.shape[1]
    threshold = np.maximum(
        PIVOT_RTOL * np.where(masks, heights[:, None], 0.0).max(axis=0),
        np.finfo(float).tiny,
    )
    # Per position: the precision, inf at a kept tip (no variance) and 0
    # where no tip below is kept; the weight toward the parent (the root's
    # is never set or read); the mean; and the whitened row.
    if work is None:
        work = np.empty((2, tree.n_nodes, m))
    prec, weight = work[0, :, :m], work[1, :, :m]
    prec[tips] = np.where(masks, np.inf, 0.0)
    xhat = np.empty((tree.n_nodes, m, c))
    xhat[tips] = Z[:, None, :]
    U = np.empty((tree.n_nodes, m, c))

    # A finite precision is at most n_nodes over the shortest positive edge,
    # so t p can pass the float range only where edge lengths span a ratio
    # near the float range over n_nodes (as they do beside a subnormal edge,
    # whose 1/t overflows too).  There overflow is expected and the weights
    # below handle it; elsewhere the caller's numpy setting reports it.
    t_max = float(edges.max())
    t_min = float(edges.min(where=edges > 0, initial=np.inf))
    wide = t_max / t_min > _FLOAT_MAX / (2 * tree.n_nodes)
    over = "ignore" if wide else np.geterr()["over"]
    with np.errstate(divide="ignore", invalid="ignore", over=over):
        inv_edges = 1.0 / edges
        for lo, hi, starts, run, run_up in steps:
            t = edges[lo:hi, None]
            p = prec[lo:hi]
            w = weight[lo:hi]
            tp = t * p
            # An infinite (or, at t = 0, undefined) t p takes 1/t: where p is
            # infinite that is the weight, and where t p passes the float
            # range 1 / (t + 1/p) rounds to it.
            w[:] = np.where(tp < np.inf, p / (1.0 + tp), inv_edges[lo:hi, None])
            if lo <= roots[-1] < hi:  # the cut node (the root is in no step)
                w[roots[-1] - lo] = 0.0
            prec[run_up] = np.add.reduceat(w, starts, axis=0)
            if not c:
                continue
            x = xhat[lo:hi]
            pinned = np.isinf(w)
            w_free = np.where(pinned, 0.0, w)
            W_free = np.add.reduceat(w_free, starts, axis=0)
            xu = np.add.reduceat(w_free[:, :, None] * x, starts, axis=0)
            # Divide rather than scale by 1/W, so a constant column has
            # contrasts of exactly zero.
            np.divide(xu, W_free[:, :, None], out=xu, where=W_free[:, :, None] > 0.0)
            pin_child, pin_mask = np.nonzero(pinned)
            xu[run[pin_child], pin_mask] = x[pin_child, pin_mask]
            xhat[run_up] = xu
            rows = U[lo:hi]
            np.subtract(x, xu[run], out=rows)
            rows *= np.sqrt(w)[:, :, None]
            rows[pin_child, pin_mask] = 0.0

    _refuse_close_pair(weight[1:], run_starts, run_of, threshold)
    one = prec[roots]
    if np.any(one * threshold > 1.0):
        r, j = np.unravel_index(np.argmax(one * threshold), one.shape)
        raise SingularCovarianceError(
            f"a tip sits numerically at a root: root-state variance "
            f"{1.0 / one[r, j]:.3e} below {threshold[j]:.3e} "
            f"({PIVOT_RTOL:.0e} x the largest tip height)",
            min_eigenvalue=float(1.0 / one[r, j]),
        )
    U[roots] = xhat[roots] * np.sqrt(one)[:, :, None]
    internal = np.ones(tree.n_nodes, dtype=bool)
    internal[tips] = False
    internal[roots] = False
    logdet = _finite_log(prec[internal]).sum(axis=0)
    logdet -= _finite_log(weight[1:]).sum(axis=0)
    return U, logdet, one if cut is not None else one[0]


def _forms(tree: PhyloTree, X: np.ndarray, Y: np.ndarray, cut=None) -> QuadraticForms:
    """Quadratic forms of (X, Y) from one contrast sweep, optionally with
    the edge above ``cut`` cut (see :func:`_contrast_sweep`)."""
    U, logdet, one = _contrast_sweep(tree, np.column_stack([X, Y]), cut=cut)
    U = U[:, 0, :]
    return _gram_forms(_gram(U, U), X.shape[1], logdet[0], one.sum(), tree.n_tips)


def quadratic_forms_pruning(tree: PhyloTree, X: np.ndarray, Y: np.ndarray) -> QuadraticForms:
    """Brownian-covariance quadratic forms from one contrast sweep."""
    return _forms(tree, *_columns(X, Y, tree.n_tips))


def _checked_masks(tree: PhyloTree, masks: np.ndarray) -> np.ndarray:
    if masks.ndim != 2 or masks.shape[0] != tree.n_tips:
        raise TreeError("keep_mask must have one entry per tip")
    if not masks.any(axis=0).all():
        raise TreeError("keep_mask must keep at least one tip")
    return masks


def scaled_ess_pruning(tree: PhyloTree, keep_mask=None, *, masks_for=None):
    """1'V^{-1}1 under the Brownian covariance, optionally on tip subsets.

    ``keep_mask`` is a boolean array over canonical tip indices; masked-out
    tips are pruned implicitly (this equals the scaled ESS of the restricted
    tree with the original root retained).  A 2-D (n_tips, m) mask scores m
    subsets and returns an array of m values; the subsets go through the
    sweep in blocks of at most ``_SWEEP_CELLS`` node-subset cells, which
    share one working set.

    With ``masks_for``, ``keep_mask`` is the number m of subsets instead, and
    ``masks_for(lo, hi)`` returns the boolean (n_tips, hi - lo) masks of
    subsets lo..hi-1.  It is called once per block, so the masks of a large
    search are never all held at once.
    """
    if masks_for is None:
        if keep_mask is None:
            keep_mask = np.ones(tree.n_tips, dtype=bool)
        masks = np.asarray(keep_mask, dtype=bool)
        batch = masks.ndim == 2
        if masks.ndim == 1:
            masks = masks[:, None]
        masks = _checked_masks(tree, masks)
        count = masks.shape[1]

        def block_masks(lo, hi):
            return masks[:, lo:hi]
    else:
        batch, count = True, int(keep_mask)

        def block_masks(lo, hi):
            return _checked_masks(tree, masks_for(lo, hi))

    Z = np.empty((tree.n_tips, 0))
    one = np.empty(count)
    work = None
    for lo, hi in _sweep_blocks(tree, count):
        if work is None:  # sized by the first, largest block
            work = np.empty((2, tree.n_nodes, hi - lo))
        one[lo:hi] = _contrast_sweep(tree, Z, block_masks(lo, hi), work=work)[2]
    return one if batch else float(one[0])


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
    d = [int(x) for x in d]
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
