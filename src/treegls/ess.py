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
heights summed down from the focal node).  The "SB" fit cuts the same edge,
so ``shift`` reads the pair off the fit's sweep.  ``score`` takes the pair
at the base of the focal lineage: s_top is the focal node's precision of
its own subtree and s_bot the rest of the tree's seen from the base, both
from the one sweep of the tree as given that fits its models, with tip
heights summed edge by edge from the base (see
:func:`~treegls.covariance._rerooted_forms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import _contrast_sweep, scaled_ess_pruning
from .errors import TreeError
from .gls import ShiftInfo, ShiftSpec, _resolve_shift, _shift_fit
from .tree import PhyloTree, _heights_below, _tree_height, tree_stats


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
    return _intercept_report(tree, scaled_ess_pruning(tree), t_policy)


def _intercept_report(tree: PhyloTree, s: float, t_policy: str) -> EssReport:
    """The :func:`ess_intercept` report from the tree's 1'V^{-1}1, ``s``,
    for a caller whose fit has swept the tree already."""
    stats = tree_stats(tree)
    T = stats.height(t_policy)
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
    info = _resolve_shift(tree, spec)
    one = _contrast_sweep(tree, np.empty((tree.n_tips, 0)), cut=info.focal_node)[2]
    return _lineage_pair(tree, info, tree.tip_heights, one, t_policy)


def _shift_with_pair(tree: PhyloTree, X, Y, spec: ShiftSpec, t_policy: str):
    """:func:`~treegls.gls.fit_shift_model` and :func:`ess_lineage` of one
    shift, resolved once.  In "SB" mode the fit's sweep cuts the focal
    edge, and the pair reads its two root precisions, which do not depend
    on the columns swept; in "S" mode the pair sweeps the cut tree."""
    info = _resolve_shift(tree, spec)
    fit, one = _shift_fit(tree, X, Y, info)
    if info.mode == "S":
        one = _contrast_sweep(tree, np.empty((tree.n_tips, 0)), cut=info.focal_node)[2]
    return fit, _lineage_pair(tree, info, tree.tip_heights, one, t_policy)


def _lineage_pair(tree: PhyloTree, info: ShiftInfo, heights, one, t_policy: str) -> LineageEss:
    """The ESS pair of the shift ``info`` from ``one``, 1'V^{-1}1 of the
    bottom piece at its root and of the top piece at the focal node, (2, 1),
    and the tip heights from the bottom piece's root, in canonical order."""
    s_bot, s_top = one[:, 0].tolist()
    focal = info.focal_node
    top = heights if info.mode == "S" else _heights_below(tree, focal)
    lo, hi = tree.tip_range[focal]
    bot = np.concatenate([heights[:lo], heights[hi:]])
    return LineageEss(
        top=float(_tree_height(top, t_policy)) * s_top,
        bot=float(_tree_height(bot, t_policy)) * s_bot,
    )
