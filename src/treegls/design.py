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
optimum column read their subsets off that merge (README, "Design").  The
merge keeps at each node only as many tips as its caller reads, and takes
a wide level of the tree in one numpy step.  Ties break by canonical tip
order (first wins) so results are reproducible.  The
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
from itertools import islice

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
    from itertools import chain, combinations

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


# The merge steps a level of the tree at once, its internal nodes padded to
# rows of one width.  One group of rows serves the level unless it would pad
# more than _MERGE_PAD cells beyond twice its rows' own; then the rows are
# grouped by the bit length of their width, so that padding at most doubles
# a row.  A level with _MERGE_WIDTH rows or more per group takes a step per
# group, and a narrower one, as on a caterpillar's spine, a step per node.
# Both constants are the crossovers measured on random and coalescent trees,
# caterpillars, combs of clades and tailed trees (CHANGES.md).
_MERGE_WIDTH = 4
_MERGE_PAD = 1024


def _nested_optima(tree: PhyloTree, kmax: int) -> np.ndarray:
    """The first min(kmax, n) canonical tip rows in the order the optimal
    subsets add them: for every k up to kmax, the first k rows are a size-k
    subset of the largest 1'V^{-1}1.

    One pass up the tree.  A node's best precision with j kept tips,
    P(j), is the largest sum of its children's weights W_c(j_c) over
    j_1 + ... + j_d = j, and its weight toward its parent is
    W(j) = P(j) / (1 + t P(j)).  Where every W_c is concave in j, that
    max-plus sum is the merge of the children's increments, largest first,
    so P is concave, and W too, since p -> p / (1 + t p) is concave and
    increasing.  A tip has P = (0, inf), so W = (0, 1/t), a -0 edge read as
    0.  By induction each node's optimal sets are nested, and the root's
    (where W = P) are its optimum at every k (README, "Design").

    Each node keeps its list, its tips in merge order and its W's
    increments, cut at kmax entries: the first kmax entries of a merge
    read only the first kmax of each child's list (the cut of a tree
    knapsack's tables, Johnson & Niemi 1983).  A stable sort of the
    children's lists, in canonical order, by decreasing increment merges
    them, ties going to the earlier child.  A node's increments are
    dP / (1 + t P_before) / (1 + t P_after), which cancel no digits, and
    1 / (t (1 + t P_before)) where P reaches inf (a kept tip on a
    zero-length path); they are clamped to be nonincreasing, so that a
    child's (j+1)-th tip is never taken before its j-th (see
    :func:`_merge_rows` for when the clamp acts).

    The pass runs deepest level first (:func:`_merge_steps`), one numpy
    step per group of a wide level's nodes and one per node of a narrow
    level.  Both sum and clamp a list by accumulating along it in order,
    so both give a node the same floats.
    """
    n = tree.n_tips
    kmax = min(kmax, n)
    # Slot n is the padding's: gain -inf sorts after every list entry.
    order = np.arange(n + 1)
    gain = np.empty(n + 1)
    gain[n] = -np.inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain[:n] = 1.0 / (tree.edge_length[tree.tip_id_array] + 0.0)  # -0 + 0 is 0
        for merge, args in _merge_steps(tree, kmax):
            merge(gain, order, *args)
    return order[:kmax]


def _merge_steps(tree: PhyloTree, kmax: int):
    """The steps of :func:`_nested_optima`, deepest level first, each a
    function and its arguments after the list arrays: per level, one
    :func:`_merge_rows` per group of its internal nodes where it has
    _MERGE_WIDTH or more per group, and otherwise one :func:`_merge_node`
    per node.
    A node's step is built as it is taken, from lists of numbers: held for
    every node of a deep tree, the steps' tuples cost more in garbage
    collection than the steps themselves.

    A node's list starts at its first tip and keeps min(kmax, tips)
    entries, and its candidates are its children's lists.  A level step's
    group of R nodes, W candidates and M kept entries at most pads its
    candidates to an (R, W) index into the list arrays, n where padded.
    """
    lo = tree.tip_range[:, 0]
    keep = np.minimum(tree.tip_range[:, 1] - lo, kmax)
    edges = tree.edge_length
    # The non-root nodes by level, each level in preorder: one parent's
    # children are one run, in canonical order.  Rows are the internal
    # nodes, in the order of their runs.
    pre = tree.preorder
    kids = pre[np.argsort(tree.levels[pre], kind="stable")][1:]
    up = tree.parent[kids]
    first = np.flatnonzero(np.concatenate(([True], up[1:] != up[:-1])))
    count = np.diff(np.append(first, kids.size))
    rows = up[first]
    kid_lo, kid_keep = lo[kids], keep[kids]
    width = np.add.reduceat(kid_keep, first)
    level = tree.levels[rows]
    per_level = np.bincount(level)
    # Rows grouped by level, and by the bit length of their width where one
    # group would pad more than _MERGE_PAD cells beyond twice its rows'
    # width.  Internal nodes lie on consecutive levels, from the root's on.
    level_at = np.cumsum(per_level) - per_level
    pad = per_level * np.maximum.reduceat(width, level_at) - 2 * np.add.reduceat(width, level_at)
    cls = np.where((pad > _MERGE_PAD)[level], np.frexp(width)[1], 0)
    by = np.lexsort((cls, level))
    lv, cls = level[by], cls[by]
    head = np.concatenate(([True], (cls[1:] != cls[:-1]) | (lv[1:] != lv[:-1])))
    wide = per_level >= _MERGE_WIDTH * np.bincount(lv[head], minlength=per_level.size)

    def runs(sel):
        """The children of rows ``sel`` as indices into ``kids``, and the
        offset of each row's first."""
        c = count[sel]
        at = np.cumsum(c) - c
        return np.repeat(first[sel] - at, c) + np.arange(int(c.sum())), at

    # Level steps.
    groups = {}
    on = wide[lv]
    sel, lv = by[on], lv[on]
    if sel.size:
        heads = np.flatnonzero(head[on])
        sizes = np.diff(np.append(heads, sel.size))
        cells = np.repeat(np.maximum.reduceat(width[sel], heads), sizes)
        lists = np.repeat(np.maximum.reduceat(keep[rows[sel]], heads), sizes)
        # Each row's first cell in the index of all groups, and in its
        # group's result.
        cell_at = np.cumsum(cells) - cells
        out_at = np.cumsum(lists) - lists
        out_at -= np.repeat(out_at[heads], sizes)
        # The candidates: each row's children's lists, each child's list
        # from its first cell on.
        kid, at = runs(sel)
        kk = kid_keep[kid]
        k_at = np.cumsum(kk) - kk
        kid_cell = np.repeat(cell_at - k_at[at], count[sel]) + k_at
        index = np.full(int(cell_at[-1] + cells[-1]), tree.n_tips)
        along = np.arange(int(kk.sum()))
        index[np.repeat(kid_cell - k_at, kk) + along] = np.repeat(kid_lo[kid] - k_at, kk) + along
        # The kept cells of each row's result, and their list positions.
        kr = keep[rows[sel]]
        r_at = np.append(np.cumsum(kr) - kr, kr.sum())
        along = np.arange(int(r_at[-1]))
        src = np.repeat(out_at - r_at[:-1], kr) + along
        dst = np.repeat(lo[rows[sel]] - r_at[:-1], kr) + along
        for a, size in zip(heads.tolist(), sizes.tolist()):
            b, w = a + size, int(cells[a])
            t = edges[rows[sel[a:b]], None]
            positive = t > 0.0
            groups.setdefault(int(lv[a]), []).append((
                index[cell_at[a]:cell_at[a] + size * w].reshape(size, w),
                np.arange(0, size * w, w)[:, None], int(lists[a]), t,
                None if positive.all() else positive,
                src[r_at[a]:r_at[b]], dst[r_at[a]:r_at[b]],
            ))

    # Node steps, deepest first: a node's candidates are one slice where
    # every child but the last keeps its whole list, and otherwise one
    # slice per child.
    narrow = np.flatnonzero(~wide[level])[::-1]
    kid, at = runs(narrow)
    ends = kid_lo[kid] + kid_keep[kid]
    row_lo = lo[rows[narrow]]
    whole = width[narrow] == ends[at + count[narrow] - 1] - row_lo
    starts, ends = kid_lo[kid].tolist(), ends.tolist()
    nodes = zip(row_lo.tolist(), keep[rows[narrow]].tolist(), edges[rows[narrow]].tolist(),
                (row_lo + width[narrow]).tolist(), whole.tolist(), at.tolist(),
                (at + count[narrow]).tolist())
    for depth in range(per_level.size - 1, -1, -1):
        if depth in groups:
            for group in groups[depth]:
                yield _merge_rows, group
            continue
        for a, size, t, b, one, i, j in islice(nodes, int(per_level[depth])):
            yield _merge_node, ((a, size, t, [a], [b]) if one
                                else (a, size, t, starts[i:j], ends[i:j]))


def _merge_node(gain, order, a, size, t, starts, ends):
    """One node's step of :func:`_nested_optima`: merge the candidates in
    the slices ``starts`` to ``ends`` of the list arrays by a stable sort,
    keep the first ``size`` from position ``a``, and take their increments
    through the node's edge ``t``."""
    if len(starts) == 1:
        g, o = gain[starts[0]:ends[0]], order[starts[0]:ends[0]]
    else:
        g = np.concatenate([gain[x:y] for x, y in zip(starts, ends)])
        o = np.concatenate([order[x:y] for x, y in zip(starts, ends)])
    merge = np.negative(g).argsort(kind="stable")[:size]
    order[a:a + size] = o[merge]
    step = g[merge]
    if t > 0.0:
        after = step.cumsum()
        rise = after * t  # 1 + t P_after
        rise += 1.0
        before = np.concatenate(([1.0], rise[:-1]))
        inc = step / before
        inc /= rise
        if not after[-1] < np.inf:  # the sums rise: the last is the first to be inf
            inc = np.where(after < np.inf, inc, 1.0 / (t * before))
        step = np.minimum.accumulate(inc, out=inc)
    gain[a:a + size] = step


def _merge_rows(gain, order, index, row_at, m, t, positive, src, dst):
    """One level step of :func:`_nested_optima` over a group of nodes, one
    row each: gather the candidates by ``index``, padded with gain -inf,
    sort each row stably by decreasing gain and keep its first ``m``, take
    the increments through the edges ``t`` (of rows where ``positive``,
    None where all are) by sums and a clamp that accumulate along each row,
    and scatter the cells ``src`` of the result to positions ``dst``.

    Where a row's sums stay finite the clamp changes nothing.  The gains
    are sorted nonincreasing and are nonnegative, so the cumulative sums,
    and with them 1 + t P, are nondecreasing, and IEEE rounding is
    monotone: each division of a smaller gain by a larger 1 + t P rounds
    to no more than the entry before it.  An infinite gain (a kept tip on
    a zero-length path) sorts first; its increment is 1/t and every later
    one is 1 / (t inf) = 0.  The clamp acts only where finite gains near
    the float maximum sum past it: on ((A:1e-308,B:1e-308):1e-310,C:1),
    the second increment is 1 / (t (1 + t P)) at t = 1e-310, which
    overflows to inf, above the first."""
    g = gain[index]
    merge = np.argsort(-g, axis=1, kind="stable")[:, :m]
    merge += row_at
    step = g.take(merge)
    kept = order[index].take(merge)
    if positive is None or positive.any():
        after = np.cumsum(step, axis=1)
        finite = after < np.inf
        rise = after  # 1 + t P_after
        rise *= t
        rise += 1.0
        before = np.empty_like(rise)
        before[:, 0] = 1.0
        before[:, 1:] = rise[:, :-1]
        inc = step / before
        inc /= rise
        if not finite.all():
            inc = np.where(finite, inc, 1.0 / (t * before))
        np.minimum.accumulate(inc, axis=1, out=inc)
        step = inc if positive is None else np.where(positive, inc, step)
    gain[dst] = step.take(src)
    order[dst] = kept.take(src)


def _optimal_prefixes(tree: PhyloTree, sizes: np.ndarray, schedule):
    """Each tip's rank in :func:`_nested_optima`, and 1'V^{-1}1 of the
    optimal subset of each of ``sizes`` (its tips of rank below the size),
    swept as one batch of masks, in blocks, by ``schedule``.  The merge is
    cut at the largest size: k for a forward search, n for a backward one
    and max(ks) for the band table.  A tip beyond the cut ranks at the
    cut, which no size passes."""
    kmax = int(sizes.max())
    order = _nested_optima(tree, kmax)
    rank = np.full(tree.n_tips, kmax, dtype=np.int64)
    rank[order] = np.arange(order.size)
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
