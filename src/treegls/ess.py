"""Effective sample sizes and their theoretical bounds.

The scaled effective sample size is the quadratic form 1'V^{-1}1; the
effective sample size for the root state is n_e = T * 1'V^{-1}1 where T is
the tree height (mean of root-to-tip distances by default, max by option).
Both finite-sample bounds are reported: k T / t from the root structure, and
L / T for ultrametric trees.

For a lineage shift, the pair (n_e_top, n_e_bot) comes from the two pieces
obtained by removing the subtending branch, both read off one contrast sweep
of the full tree with that edge cut; in "S" mode the top value is scaled by
the full tree height, in "SB" mode by the top piece's own height (its tip
heights summed down from the focal node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import _contrast_sweep, scaled_ess_pruning
from .errors import TreeError
from .gls import ShiftSpec, _resolve_shift
from .tree import PhyloTree, _tree_height, tree_stats


@dataclass(frozen=True)
class EssReport:
    """Effective sample size of the root-state estimate, with bounds."""

    n: int
    scaled_ess: float
    height: float
    t_policy: str
    n_e: float
    bound_root: float
    bound_length: float | None
    ultrametric: bool

    def to_dict(self) -> dict:
        out = {
            "n": int(self.n),
            "scaled_ess": float(self.scaled_ess),
            "T": float(self.height),
            "T_policy": self.t_policy,
            "n_e": float(self.n_e),
            "bound_root": float(self.bound_root),
            "ultrametric": bool(self.ultrametric),
        }
        if self.bound_length is not None:
            out["bound_length"] = float(self.bound_length)
        return out


class LineageEss(NamedTuple):
    """ESS pair for a lineage effect (top = shifted subtree, bot = rest)."""

    top: float
    bot: float


def ess_intercept(tree: PhyloTree, t_policy: str = "mean") -> EssReport:
    """Effective sample size for the root-state (intercept) estimate."""
    stats = tree_stats(tree)
    T = stats.height(t_policy)
    s = scaled_ess_pruning(tree)
    bound_root, bound_length = _bounds(stats)
    return EssReport(
        n=tree.n_tips,
        scaled_ess=s,
        height=T,
        t_policy=t_policy,
        n_e=T * s,
        bound_root=bound_root,
        bound_length=bound_length,
        ultrametric=stats.is_ultrametric,
    )


def _bounds(stats) -> tuple[float, float | None]:
    t = stats.min_root_edge
    if t > 0:
        bound_root = stats.root_degree * stats.height_mean / t
    else:
        bound_root = float("inf")
    bound_length = (
        stats.total_length / stats.height_mean if stats.is_ultrametric else None
    )
    return bound_root, bound_length


def ess_bounds(tree: PhyloTree) -> tuple[float, float | None]:
    """(k T / t, L / T or None): the root bound always, the length bound
    only when all tips are equidistant from the root."""
    return _bounds(tree_stats(tree))


def ess_lineage(tree: PhyloTree, spec: ShiftSpec, t_policy: str = "mean") -> LineageEss:
    """ESS pair for a lineage effect, from one sweep with the focal edge cut.

    n_e_top = T_top * 1'V_top^{-1}1 and n_e_bot = T_bot * 1'V_bot^{-1}1,
    where the top piece is rooted at the focal node (subtending branch
    excluded) and the bottom piece, the remaining tips, keeps the original
    root.  T_bot is the bottom tips' height; T_top is the full tree height in
    "S" mode and the top tips' height measured from the focal node in "SB"
    mode.  No subtree is copied.
    """
    if t_policy not in ("mean", "max"):
        raise TreeError(f"unknown height policy {t_policy!r}")
    res = _resolve_shift(tree, spec)
    _, _, one = _contrast_sweep(tree, np.empty((tree.n_tips, 0)), cut=res.focal)
    s_bot, s_top = one[:, 0].tolist()
    heights = tree.tip_heights
    top = heights if res.mode == "S" else res.top_heights
    bot = np.concatenate([heights[:res.top_lo], heights[res.top_hi:]])
    return LineageEss(
        top=float(_tree_height(top, t_policy)) * s_top,
        bot=float(_tree_height(bot, t_policy)) * s_bot,
    )
