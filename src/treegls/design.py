"""Tree-aware subsampling design.

Selecting k tips to maximize the scaled effective sample size 1'V^{-1}1 of
the restricted tree (original root retained).  The scaled form is the
objective because the restricted tree's height varies across subsets; the
plain effective sample size is reported alongside using the subset's own
height.

Searches: forward and backward stepwise, exhaustive enumeration under a
budget (the small-instance oracle), and random-subsample quantile bands.
The optimal subsets are nested, and one merge up the tree lists them all
(:func:`_nested_optima`): both stepwise directions and the band table's
optimum column read their subsets off that merge (README, "Design").  Ties
break by canonical tip order (first wins) so results are reproducible.  The
exhaustive subsets, the band replicates and the optimal subsets are scored
as batches of tip masks.  Each search walks the contrast sweep's blocks
itself: it builds one block's masks, sweeps them and keeps their scores, so
no search holds more than one block's arrays and one score per subset.
Every sweep of a search runs the tree's level schedule
(``covariance._level_schedule``), so a subset's score is the same float in
any search and any block: an optimal subset scores the same in stepwise
search, the band table and the exhaustive search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import _level_schedule, _scaled_ess, _sweep_blocks, scaled_ess_pruning
from .errors import BudgetExceededError, ConfigError, TreeError
from .tree import PhyloTree, _tree_height

EXHAUSTIVE_BUDGET = 2_000_000


@dataclass(frozen=True)
class DesignResult:
    """Outcome of one subset search."""

    selected: tuple[str, ...]
    score: float
    n_e: float
    method: str
    trajectory: tuple[tuple[int, float], ...]
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "selected": list(self.selected),
            "score": float(self.score),
            "n_e": float(self.n_e),
            "method": self.method,
            "trajectory": [[int(k), float(s)] for k, s in self.trajectory],
            "evaluations": int(self.evaluations),
        }


@dataclass(frozen=True)
class BandSummary:
    """Quantile band of n_e over uniform random subsets of one size."""

    k: int
    reps: int
    q025: float
    median: float
    q975: float
    mean: float

    def to_dict(self) -> dict:
        return {
            "k": int(self.k),
            "reps": int(self.reps),
            "q025": float(self.q025),
            "median": float(self.median),
            "q975": float(self.q975),
            "mean": float(self.mean),
        }


def _subset_n_e(tree: PhyloTree, mask: np.ndarray, score: float) -> float:
    return float(_tree_height(tree.tip_heights[mask])) * score


def score_subsample(tree: PhyloTree, keep) -> float:
    """Scaled ESS 1'V^{-1}1 of the tree restricted to ``keep`` (O(n))."""
    keep = list(keep)
    if not keep:
        raise TreeError("keep must be nonempty")
    mask = np.zeros(tree.n_tips, dtype=bool)
    mask[tree.tip_rows(keep)] = True
    return scaled_ess_pruning(tree, mask)


def stepwise_design(tree: PhyloTree, k: int, direction: str = "forward") -> DesignResult:
    """Stepwise search for the size-k subset maximizing 1'V^{-1}1.

    Forward search adds, from the empty set, the tip that maximizes the
    score; backward search removes, from the full set, the tip whose
    removal leaves the best score.  The optimal subsets are nested, so both
    directions pass through the optimal subset of every size, and their
    path is read off the merge up the tree (:func:`_nested_optima`): the
    subset of size j is its first j tips (README, "Design"), with the same
    score as :func:`exhaustive_design`'s, up to rounding.  The
    trajectory's subsets, sizes 1..k forward or n..k backward, are swept
    as one batch of masks, in blocks, by the tree's level schedule, as
    :func:`band_table` sweeps its optimum column, so a subset's score is
    the same float in either search and in the table, and a singular
    subset on the path is refused.  ``evaluations`` counts the candidates
    a stepwise search ranks: n + (n-1) + ... + (n-k+1) forward, and
    1 + n + (n-1) + ... + (k+1) backward, the full set included.
    """
    n = tree.n_tips
    if not 1 <= k <= n:
        raise TreeError(f"k must be in 1..{n}, got {k}")
    if direction not in ("forward", "backward"):
        raise TreeError(f"direction must be 'forward' or 'backward', got {direction!r}")
    if direction == "forward":
        sizes = np.arange(1, k + 1)
        evaluations = n * k - k * (k - 1) // 2
    else:
        sizes = np.arange(n, k - 1, -1)
        evaluations = 1 + (n * (n + 1) - k * (k + 1)) // 2
    rank, scores = _optimal_prefixes(tree, sizes, _level_schedule(tree))
    mask = rank < k
    score = float(scores[-1])
    selected = tuple(lab for lab, m in zip(tree.tip_labels, mask) if m)
    return DesignResult(
        selected=selected,
        score=score,
        n_e=_subset_n_e(tree, mask, score),
        method=direction,
        trajectory=tuple(zip(sizes.tolist(), scores.tolist())),
        evaluations=evaluations,
    )


def exhaustive_design(
    tree: PhyloTree, k: int, budget: int = EXHAUSTIVE_BUDGET
) -> DesignResult:
    """True optimum by enumerating all C(n, k) subsets (budget-guarded)."""
    from itertools import chain, combinations, islice

    n = tree.n_tips
    if not 1 <= k <= n:
        raise TreeError(f"k must be in 1..{n}, got {k}")
    total = math.comb(n, k)
    if total > budget:
        raise BudgetExceededError(
            f"C({n},{k}) = {total} exceeds the budget of {budget} evaluations"
        )

    # Each sweep block takes its masks from the stream: the full C(n, k)
    # listing can be millions of tuples.  Reading a block's tips straight
    # into one array skips a list of its tuples.
    it = combinations(range(n), k)
    schedule = _level_schedule(tree)
    scores = np.empty(total)
    for lo, hi in _sweep_blocks(tree, total):
        tips = chain.from_iterable(islice(it, hi - lo))
        masks = np.zeros((n, hi - lo), dtype=bool)
        masks[np.fromiter(tips, np.int64, (hi - lo) * k), np.repeat(np.arange(hi - lo), k)] = True
        scores[lo:hi] = _scaled_ess(tree, masks, schedule)
    best = int(np.argmax(scores))  # first maximum: canonical tie-break
    best_combo = next(islice(combinations(range(n), k), best, None))
    mask = np.zeros(n, dtype=bool)
    mask[list(best_combo)] = True
    score = float(scores[best])
    selected = tuple(lab for lab, m in zip(tree.tip_labels, mask) if m)
    return DesignResult(
        selected=selected,
        score=score,
        n_e=_subset_n_e(tree, mask, score),
        method="exhaustive",
        trajectory=((k, score),),
        evaluations=total,
    )


def _draw_offsets(rng: np.random.Generator, n: int, k: int, reps: int) -> np.ndarray:
    """Swap offsets (reps, k) of one partial Fisher-Yates shuffle per
    replicate, from one draw in the order a shuffle per replicate would
    draw them."""
    return rng.integers(n - np.arange(k), size=(reps, k))


def _shuffled_masks(offsets: np.ndarray, n: int, k: np.ndarray) -> np.ndarray:
    """Masks (n, reps): column r keeps the first k[r] entries of arange(n)
    after the swaps in row r of ``offsets``.  A row's offsets past its k
    must be 0, which swaps nothing, so replicates of several sizes share
    one pass of swaps."""
    reps, width = offsets.shape
    # Row r's entries sit at flat positions r n .. r n + n - 1: swap i of
    # every row exchanges positions r n + i and r n + i + offsets[r, i].
    idx = np.tile(np.arange(n), reps)
    pos = np.arange(0, reps * n, n) + np.arange(width)[:, None]
    for a, b in zip(pos, pos + offsets.T):
        idx[a], idx[b] = idx[b], idx[a]
    masks = np.zeros((n, reps), dtype=bool)
    # Each row of idx is a permutation, so writing False past a row's k
    # clears no tip that the row keeps.
    rows = np.arange(reps)
    masks[idx.reshape(reps, n)[:, :width], rows[:, None]] = np.arange(width) < k[:, None]
    return masks


def _band_values(tree: PhyloTree, sizes, reps: int, schedule=None) -> np.ndarray:
    """n_e of ``reps`` uniform random subsets per (k, seed) of ``sizes``,
    as an array (len(sizes), reps), swept by the tree's level schedule
    (``schedule``, built here when None).

    The replicates of every size go through the sweep in one run of blocks.
    A size's offsets are drawn, from its own seed in one draw, when its
    first replicate enters a block, and each block's masks are built by
    one pass of swaps, so the bands are those of one size at a time, bit
    for bit.
    """
    n = tree.n_tips
    for k, seed in sizes:
        if not 1 <= k <= n:
            raise TreeError(f"k must be in 1..{n}, got {k}")
        if reps < 1:
            raise TreeError("reps must be >= 1")
        if seed < 0:
            raise ConfigError("seed must be >= 0")
    heights = tree.tip_heights
    if schedule is None:
        schedule = _level_schedule(tree)
    values = np.empty(len(sizes) * reps)
    for lo, hi in _sweep_blocks(tree, values.size):
        parts = range(lo // reps, (hi - 1) // reps + 1)
        block = np.zeros((hi - lo, max(sizes[i][0] for i in parts)), dtype=np.int64)
        ks = np.empty(hi - lo, dtype=np.int64)
        for i in parts:
            (k, seed), first = sizes[i], i * reps
            a, b = max(lo, first), min(hi, first + reps)
            if a == first:
                rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
                offsets = _draw_offsets(rng, n, k, reps)
            block[a - lo:b - lo, :k] = offsets[a - first:b - first]
            ks[a - lo:b - lo] = k
        masks = _shuffled_masks(block, n, ks)
        del block  # freed before the sweep
        for i in parts:
            a, b = max(lo, i * reps), min(hi, (i + 1) * reps)
            # Each column keeps k tips: row r of the index array lists
            # column r's, ascending.  It is left unnamed, so it is freed
            # before the sweep.
            values[a:b] = _tree_height(
                heights[np.nonzero(masks[:, a - lo:b - lo].T)[1].reshape(b - a, -1)], axis=1
            )
        values[lo:hi] *= _scaled_ess(tree, masks, schedule)
    return values.reshape(len(sizes), reps)


def _band(k: int, values: np.ndarray) -> BandSummary:
    q025, med, q975 = np.quantile(values, [0.025, 0.5, 0.975])
    return BandSummary(
        k=k,
        reps=values.size,
        q025=float(q025),
        median=float(med),
        q975=float(q975),
        mean=float(values.mean()),
    )


def random_design_bands(tree: PhyloTree, k: int, reps: int, seed: int) -> BandSummary:
    """Quantile band of n_e over ``reps`` uniform random size-k subsets."""
    return _band(k, _band_values(tree, [(k, seed)], reps)[0])


def _nested_optima(tree: PhyloTree) -> np.ndarray:
    """Canonical tip rows in the order the optimal subsets add them: for
    every k, the first k rows are a size-k subset of the largest 1'V^{-1}1.

    One pass up the postorder.  A node's best precision with j kept tips,
    P(j), is the largest sum of its children's weights W_c(j_c) over
    j_1 + ... + j_d = j, and its weight toward its parent is
    W(j) = P(j) / (1 + t P(j)).  Where every W_c is concave in j, that
    max-plus sum is the merge of the children's increments, largest first,
    so P is concave, and W too, since p -> p / (1 + t p) is concave and
    increasing.  A tip has P = (0, inf), so W = (0, 1/t).  By induction
    each node's optimal sets are nested, and the root's (where W = P) are
    its optimum at every k (README, "Design").

    Each node keeps its tips' order and its W's increments over its tip
    range, and a parent's range is its children's, in canonical order: a
    stable sort of the range by decreasing increment merges them, ties
    going to the lower tip row.  A node's increments are
    dP / (1 + t P_before) / (1 + t P_after), which cancel no digits, and
    1 / (t (1 + t P_before)) where P reaches inf (a kept tip on a
    zero-length path); they are clamped to be nonincreasing, so rounding
    never takes a child's (j+1)-th tip before its j-th.
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
                np.minimum.accumulate(step, out=step)
            gain[lo:hi] = step
    return order


def _optimal_prefixes(tree: PhyloTree, sizes: np.ndarray, schedule):
    """Each tip's rank in :func:`_nested_optima`, and 1'V^{-1}1 of the
    optimal subset of each of ``sizes`` (its tips of rank below the size),
    swept as one batch of masks, in blocks, by ``schedule``."""
    rank = np.empty(tree.n_tips, dtype=np.int64)
    rank[_nested_optima(tree)] = np.arange(tree.n_tips)
    scores = np.empty(sizes.size)
    for lo, hi in _sweep_blocks(tree, sizes.size):
        scores[lo:hi] = _scaled_ess(tree, rank[:, None] < sizes[lo:hi], schedule)
    return rank, scores


def band_table(tree: PhyloTree, reps: int, seed: int, ks=None) -> list[dict]:
    """Rows (k, q025, median, q975, optimum) for band-vs-optimum plots.

    Size k's band is ``random_design_bands(tree, k, reps, seed + k)``; the
    replicates of all sizes share sweep blocks, and every size's quantiles
    come from one call (equal, bit for bit, to one call per size).
    ``optimum`` is the n_e of the optimal size-k subset: the first k tips
    of :func:`_nested_optima`, which :func:`stepwise_design` selects too
    (README, "Design").  These prefixes, up to the largest k, are swept as
    one batch of masks, in blocks, by the bands' level schedule, so each
    score is the sweep's float, the same as a stepwise search's, and a
    singular prefix is refused as any swept subset is.
    """
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    n = tree.n_tips
    ks = list(range(1, n + 1) if ks is None else ks)
    if not ks:
        return []
    schedule = _level_schedule(tree)
    values = _band_values(tree, [(k, seed + k) for k in ks], reps, schedule)
    bands = np.quantile(values, (0.025, 0.5, 0.975), axis=1).T.tolist()
    rank, scores = _optimal_prefixes(tree, np.arange(1, max(ks) + 1), schedule)
    return [
        {
            "k": int(k),
            "q025": q025,
            "median": median,
            "q975": q975,
            "optimum": _subset_n_e(tree, rank < k, scores[k - 1]),
        }
        for k, (q025, median, q975) in zip(ks, bands)
    ]
