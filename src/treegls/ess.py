"""Effective sample sizes and their theoretical bounds.

The scaled effective sample size is the quadratic form 1'V^{-1}1; the
effective sample size for the root state is n_e = T * 1'V^{-1}1 where T is
the tree height (mean of root-to-tip distances by default, max by option).
Both finite-sample bounds are reported: k T / t from the root structure, and
L / T for ultrametric trees.

For a lineage shift, the pair (n_e_top, n_e_bot) comes from the two subtrees
obtained by removing the subtending branch; in "S" mode the top value is
scaled by the full tree height, in "SB" mode by the top subtree's own height.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .covariance import scaled_ess_pruning
from .errors import TreeError
from .gls import ShiftSpec, _ResolvedShift, _resolve_shift
from .tree import PhyloTree, tree_stats


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
    if t_policy not in ("mean", "max"):
        raise TreeError(f"unknown height policy {t_policy!r}")
    stats = tree_stats(tree)
    s = scaled_ess_pruning(tree)
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
    """ESS pair for a lineage effect, from the two cut subtrees.

    n_e_top = T_top * 1'V_top^{-1}1 and n_e_bot = T * 1'V_bot^{-1}1, where
    the top subtree is rooted at the focal node (subtending branch excluded)
    and the bottom subtree keeps the original root.  T_top is the full tree
    height in "S" mode and the top subtree's own height in "SB" mode.
    """
    if t_policy not in ("mean", "max"):
        raise TreeError(f"unknown height policy {t_policy!r}")
    return _lineage_ess(tree, _resolve_shift(tree, spec), t_policy)


def _lineage_ess(tree: PhyloTree, res: _ResolvedShift, t_policy: str) -> LineageEss:
    """:func:`ess_lineage` for a shift already resolved against ``tree``."""
    if res.top_tree.n_tips == 0 or res.bottom_tree.n_tips == 0:
        raise TreeError("degenerate split: both subtrees must contain tips")
    s_top = scaled_ess_pruning(res.top_tree)
    s_bot = scaled_ess_pruning(res.bottom_tree)
    top_stats = tree_stats(res.top_tree)
    bot_stats = tree_stats(res.bottom_tree)
    if res.mode == "S":
        T_top = tree_stats(tree).height(t_policy)
    else:
        T_top = top_stats.height(t_policy)
    T_bot = bot_stats.height(t_policy)
    return LineageEss(top=T_top * s_top, bot=T_bot * s_bot)
