"""Tree-aware subsampling design.

Selecting k tips to maximize the scaled effective sample size 1'V^{-1}1 of
the restricted tree (original root retained).  The scaled form is the
objective because the restricted tree's height varies across subsets; the
plain effective sample size is reported alongside using the subset's own
height.

Searches: greedy forward (from the best singleton) and backward stepwise,
exhaustive enumeration under a budget (the small-instance oracle), and
random-subsample quantile bands.  Ties break by canonical tip order (first
wins) so results are reproducible.  The candidates of one greedy step, a
chunk of exhaustive subsets and the band replicates are scored as batches of
tip masks; greedy and band masks are built one sweep block at a time, so no
search holds more than the contrast sweep's bounded working set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import scaled_ess_pruning
from .errors import BudgetExceededError, ConfigError, TreeError
from .tree import PhyloTree, _tree_height

EXHAUSTIVE_BUDGET = 2_000_000
_CHUNK = 4096  # exhaustive subsets scored per sweep


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


def _flip_each(base: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Masks (n, len(idx)): column j is ``base`` with entry idx[j] flipped."""
    masks = np.repeat(base[:, None], idx.size, axis=1)
    masks[idx, np.arange(idx.size)] ^= True
    return masks


def _greedy(tree: PhyloTree, k: int, forward: bool):
    """Greedy path to size k: (final mask, tip indices in the order they were
    added or removed, trajectory, evaluations)."""
    n = tree.n_tips
    mask = np.full(n, not forward)
    changed: list[int] = []
    trajectory: list[tuple[int, float]] = []
    evaluations = 0
    if not forward:
        trajectory.append((n, scaled_ess_pruning(tree, mask)))
        evaluations += 1
    while int(mask.sum()) != k:
        cands = np.flatnonzero(~mask if forward else mask)
        scores = scaled_ess_pruning(
            tree, cands.size, masks_for=lambda lo, hi: _flip_each(mask, cands[lo:hi])
        )
        evaluations += cands.size
        best = int(np.argmax(scores))  # first maximum: canonical tie-break
        mask[cands[best]] = forward
        changed.append(int(cands[best]))
        trajectory.append((int(mask.sum()), float(scores[best])))
    return mask, changed, trajectory, evaluations


def stepwise_design(tree: PhyloTree, k: int, direction: str = "forward") -> DesignResult:
    """Greedy stepwise search for the size-k subset maximizing 1'V^{-1}1.

    Forward starts from the best singleton and adds the tip that maximizes
    the score; backward starts from the full set and removes the tip whose
    removal leaves the best score.
    """
    n = tree.n_tips
    if not 1 <= k <= n:
        raise TreeError(f"k must be in 1..{n}, got {k}")
    if direction not in ("forward", "backward"):
        raise TreeError(f"direction must be 'forward' or 'backward', got {direction!r}")
    mask, _, trajectory, evaluations = _greedy(tree, k, direction == "forward")
    score = trajectory[-1][1]
    selected = tuple(lab for lab, m in zip(tree.tip_labels, mask) if m)
    return DesignResult(
        selected=selected,
        score=score,
        n_e=_subset_n_e(tree, mask, score),
        method=direction,
        trajectory=tuple(trajectory),
        evaluations=evaluations,
    )


def exhaustive_design(
    tree: PhyloTree, k: int, budget: int = EXHAUSTIVE_BUDGET
) -> DesignResult:
    """True optimum by enumerating all C(n, k) subsets (budget-guarded)."""
    from itertools import combinations, islice

    n = tree.n_tips
    if not 1 <= k <= n:
        raise TreeError(f"k must be in 1..{n}, got {k}")
    total = math.comb(n, k)
    if total > budget:
        raise BudgetExceededError(
            f"C({n},{k}) = {total} exceeds the budget of {budget} evaluations"
        )

    # Stream in chunks: the full C(n, k) listing can be millions of tuples.
    best_combo, best_score = None, -math.inf
    it = combinations(range(n), k)
    while True:
        chunk = np.array(list(islice(it, _CHUNK)), dtype=np.int64).reshape(-1, k)
        if not chunk.size:
            break
        masks = np.zeros((n, len(chunk)), dtype=bool)
        masks[chunk.T, np.arange(len(chunk))] = True
        scores = scaled_ess_pruning(tree, masks)
        best = int(np.argmax(scores))  # first maximum: canonical tie-break
        if scores[best] > best_score:
            best_combo, best_score = chunk[best], float(scores[best])
    mask = np.zeros(n, dtype=bool)
    mask[best_combo] = True
    score = best_score
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


def _shuffled_masks(offsets: np.ndarray, n: int) -> np.ndarray:
    """Masks (n, reps): column r keeps the first k entries of arange(n)
    after the swaps in row r of ``offsets``."""
    reps, k = offsets.shape
    idx = np.tile(np.arange(n), (reps, 1))
    rows = np.arange(reps)
    for i in range(k):
        j = i + offsets[:, i]
        idx[rows, i], idx[rows, j] = idx[rows, j], idx[rows, i]
    masks = np.zeros((n, reps), dtype=bool)
    masks[idx[:, :k], rows[:, None]] = True
    return masks


def random_design_bands(tree: PhyloTree, k: int, reps: int, seed: int) -> BandSummary:
    """Quantile band of n_e over ``reps`` uniform random size-k subsets."""
    n = tree.n_tips
    if not 1 <= k <= n:
        raise TreeError(f"k must be in 1..{n}, got {k}")
    if reps < 1:
        raise TreeError("reps must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    offsets = _draw_offsets(rng, n, k, reps)
    heights = tree.tip_heights
    mean_height = np.empty(reps)

    def masks_for(lo, hi):
        masks = _shuffled_masks(offsets[lo:hi], n)
        # Each column keeps k tips: row r of ``kept`` lists column r's, ascending.
        kept = np.nonzero(masks.T)[1].reshape(-1, k)
        mean_height[lo:hi] = _tree_height(heights[kept], axis=1)
        return masks

    values = mean_height * scaled_ess_pruning(tree, reps, masks_for=masks_for)
    q025, med, q975 = np.quantile(values, [0.025, 0.5, 0.975])
    return BandSummary(
        k=k,
        reps=reps,
        q025=float(q025),
        median=float(med),
        q975=float(q975),
        mean=float(values.mean()),
    )


def band_table(tree: PhyloTree, reps: int, seed: int, ks=None) -> list[dict]:
    """Rows (k, q025, median, q975, optimum) for band-vs-optimum plots.

    ``optimum`` is the forward-stepwise n_e at each k.  Greedy forward search
    is nested, so one run to the largest k gives the subset at every k.
    """
    n = tree.n_tips
    ks = list(range(1, n + 1) if ks is None else ks)
    if not ks:
        return []
    bands = [random_design_bands(tree, k, reps, seed + k) for k in ks]
    _, added, trajectory, _ = _greedy(tree, max(ks), forward=True)
    rows = []
    for k, band in zip(ks, bands):
        mask = np.zeros(n, dtype=bool)
        mask[added[:k]] = True
        rows.append(
            {
                "k": int(k),
                "q025": band.q025,
                "median": band.median,
                "q975": band.q975,
                "optimum": _subset_n_e(tree, mask, trajectory[k - 1][1]),
            }
        )
    return rows
