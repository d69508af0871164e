"""Reference computations the benchmark checks the program's output against.

Nothing here imports ``treegls``.  Two independent routes are used:

* Felsenstein's independent contrasts in mean/variance form, O(n) per
  column block, for the big trees.  Each node combines its children's
  (mean, variance) messages; the weighted scatter of the children about the
  combined mean is the node's contribution to Z'V^{-1}Z, and the message
  variances give log det V.  Masked tips simply send no message, which gives
  the forms of the tree restricted to the kept tips with the root retained.
* Dense numpy linear algebra on a covariance built from the benchmark's own
  tree structure, wherever n is small enough.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

RTOL = 1e-9  # the tolerance of the package's pruning-vs-dense criterion


class OracleMismatch(Exception):
    """The program's output disagrees with the reference."""


def rel_gap(a, b) -> float:
    """max |a - b| relative to max |b| (the package's own criterion)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    scale = max(float(np.max(np.abs(b))) if b.size else 0.0, 1e-30)
    return float(np.max(np.abs(a - b))) / scale if b.size else 0.0


def expect_close(what: str, got, want, rtol: float = RTOL) -> None:
    gap = rel_gap(got, want)
    if not gap <= rtol:
        raise OracleMismatch(f"{what}: relative gap {gap:.3e} exceeds {rtol:.0e}")


def expect_equal(what: str, got, want) -> None:
    if got != want:
        raise OracleMismatch(f"{what}: got {got!r}, want {want!r}")


# --------------------------------------------------------------------- #
# contrasts (mean/variance form)
# --------------------------------------------------------------------- #


class Arrays:
    """Numpy views of a benchmark tree, grouped by level for the sweep."""

    def __init__(self, tree):
        self.n_nodes = tree.n_nodes
        self.parent = np.asarray(tree.parent, dtype=np.int64)
        self.edge = np.asarray(tree.edge, dtype=float)
        self.tips = np.asarray(tree.tips, dtype=np.int64)
        self.depth = np.asarray(tree.depth, dtype=float)
        level = np.asarray(tree.level, dtype=np.int64)
        order = np.argsort(level, kind="stable")
        bounds = np.searchsorted(level[order], np.arange(level.max() + 2))
        self.by_level = [order[bounds[i]:bounds[i + 1]] for i in range(level.max() + 1)]
        self.is_tip = np.zeros(self.n_nodes, dtype=bool)
        self.is_tip[self.tips] = True


def contrast_forms(arr: Arrays, Z, keep=None):
    """(Z'V^{-1}Z, log det V) for tip rows Z in canonical order.

    ``keep`` is an optional boolean mask over canonical tips.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    q = Z.shape[1]
    n = arr.n_nodes
    mean = np.zeros((n, q))
    var = np.zeros(n)
    prec = np.zeros(n)
    wsum = np.zeros((n, q))
    active = np.zeros(n, dtype=bool)
    tips = arr.tips if keep is None else arr.tips[np.asarray(keep, dtype=bool)]
    rows = Z if keep is None else Z[np.asarray(keep, dtype=bool)]
    mean[tips] = rows
    var[tips] = arr.edge[tips]
    active[tips] = True
    G = np.zeros((q, q))
    logdet = 0.0
    below = np.zeros(0, dtype=np.int64)
    for lvl in range(len(arr.by_level) - 1, -1, -1):
        ids = arr.by_level[lvl]
        inner = ids[~arr.is_tip[ids] & (prec[ids] > 0.0)]
        if lvl == 0:
            mean[inner] = 0.0  # the root state is the origin of the forms
        else:
            mean[inner] = wsum[inner] / prec[inner][:, None]
            var[inner] = 1.0 / prec[inner] + arr.edge[inner]
            logdet += float(np.sum(np.log(prec[inner])))
            active[inner] = True
        if below.size:
            d = mean[below] - mean[arr.parent[below]]
            G += (d / var[below][:, None]).T @ d
            logdet += float(np.sum(np.log(var[below])))
        if lvl == 0:
            break
        up = ids[active[ids]]
        np.add.at(prec, arr.parent[up], 1.0 / var[up])
        np.add.at(wsum, arr.parent[up], mean[up] / var[up][:, None])
        below = up
    return 0.5 * (G + G.T), logdet


def scaled_ess(arr: Arrays, keep=None) -> float:
    n = len(arr.tips)
    G, _ = contrast_forms(arr, np.ones((n, 1)), keep)
    return float(G[0, 0])


def mean_height(arr: Arrays, keep=None) -> float:
    h = arr.depth[arr.tips]
    return float(h.mean() if keep is None else h[np.asarray(keep, dtype=bool)].mean())


# --------------------------------------------------------------------- #
# GLS from forms
# --------------------------------------------------------------------- #


def fit_from_forms(G, logdet: float, n: int) -> dict:
    """GLS summary matching the program's fit report; last column of G is y."""
    p = G.shape[0] - 1
    A, b, yy = G[:p, :p], G[:p, p], G[p, p]
    inv = np.linalg.inv(A)
    inv = 0.5 * (inv + inv.T)
    beta = inv @ b
    rss = float(yy - beta @ b)
    dof = n - p
    s2 = rss / dof
    s2ml = rss / n
    return {
        "beta": beta,
        "beta_cov": s2 * inv,
        "sigma2_hat": s2,
        "sigma2_ml": s2ml,
        "rss": rss,
        "dof": dof,
        "loglik": -0.5 * (n * math.log(2.0 * math.pi * s2ml) + logdet + n),
        "n": n,
        "rank": p,
        "logdet_v": logdet,
    }


def check_fit(what: str, got: dict, want: dict) -> None:
    for key in ("n", "rank", "dof"):
        expect_equal(f"{what} {key}", got[key], want[key])
    for key in ("beta", "beta_cov", "sigma2_hat", "sigma2_ml", "rss", "loglik", "logdet_v"):
        expect_close(f"{what} {key}", got[key], want[key])


def scores(fit: dict, penalties: dict, model: str) -> dict:
    """AIC, standard and corrected BIC for a fit (rank + 1 parameters)."""
    ll, n, p = fit["loglik"], fit["n"], fit["rank"] + 1
    return {
        "model": model,
        "loglik": ll,
        "aic": 2.0 * p - 2.0 * ll,
        "bic_standard": -2.0 * ll + p * math.log(n),
        "bic_corrected": -2.0 * ll + sum(penalties.values()),
        "penalties": penalties,
    }


def check_score(what: str, got: dict, want: dict) -> None:
    expect_equal(f"{what} model", got["model"], want["model"])
    expect_equal(f"{what} penalty terms", sorted(got["penalties"]), sorted(want["penalties"]))
    for key in ("loglik", "aic", "bic_standard", "bic_corrected"):
        expect_close(f"{what} {key}", got[key], want[key])
    for key, v in want["penalties"].items():
        expect_close(f"{what} penalty {key}", got["penalties"][key], v)


# --------------------------------------------------------------------- #
# dense covariances
# --------------------------------------------------------------------- #


def dense_bm(tree) -> np.ndarray:
    """Shared root-path lengths, built from subtree tip ranges."""
    lo, hi = tree.tip_range()
    n = tree.n_tips
    V = np.zeros((n, n))
    for u in tree.preorder:
        if u != tree.root and tree.edge[u]:
            V[lo[u]:hi[u], lo[u]:hi[u]] += tree.edge[u]
    return V


def dense_ou(tree, alpha: float) -> np.ndarray:
    """OU covariance conditioned on the root state."""
    T = dense_bm(tree)
    h = np.diag(T)
    D = h[:, None] + h[None, :] - 2.0 * T
    return (1.0 - np.exp(-2.0 * alpha * T)) * np.exp(-alpha * D)


def dense_forms(V, Z):
    Z = np.asarray(Z, dtype=float)
    G = Z.T @ np.linalg.solve(V, Z)
    sign, logdet = np.linalg.slogdet(V)
    if sign <= 0:
        raise OracleMismatch("reference covariance is not positive definite")
    return 0.5 * (G + G.T), float(logdet)


def _subset_scores(V, subsets) -> np.ndarray:
    """1'V_S^{-1}1 for a batch of equal-size index subsets."""
    S = np.asarray(subsets, dtype=np.int64)
    blocks = V[S[:, :, None], S[:, None, :]]
    ones = np.ones(S.shape[:2] + (1,))
    return np.linalg.solve(blocks, ones)[:, :, 0].sum(axis=1)


class Greedy:
    """Forward or backward stepwise search on a dense V, first index wins ties.

    ``near_tie`` is set when some step's two best candidates are within the
    comparison tolerance, where the program may legitimately pick either.
    """

    def __init__(self, V, heights, k: int, direction: str):
        n = V.shape[0]
        self.near_tie = False
        self.trajectory = []
        self.n_e_path = []  # forward only: n_e after each addition
        if direction == "forward":
            sel = []
            self.evaluations = 0
            while len(sel) < k:
                cands = [j for j in range(n) if j not in sel]
                s = _subset_scores(V, [sel + [j] for j in cands])
                self.evaluations += len(cands)
                best = self._pick(s)
                sel.append(cands[best])
                self.trajectory.append((len(sel), float(s[best])))
                self.n_e_path.append(float(np.mean(heights[sel])) * float(s[best]))
            self.selected = sorted(sel)
        else:
            sel = list(range(n))
            P = np.linalg.inv(V)
            self.trajectory.append((n, float(P.sum())))
            self.evaluations = 1
            while len(sel) > k:
                P = np.linalg.inv(V[np.ix_(sel, sel)])
                w = P.sum(axis=1)
                s = P.sum() - w * w / np.diag(P)
                self.evaluations += len(sel)
                best = self._pick(s)
                del sel[best]
                self.trajectory.append((len(sel), float(s[best])))
            self.selected = sel
        self.score = self.trajectory[-1][1]
        self.n_e = float(np.mean(heights[self.selected])) * self.score

    def _pick(self, s) -> int:
        best = int(np.argmax(s))
        if s.size > 1:
            top2 = np.sort(s)[-2:]
            if top2[1] - top2[0] <= 1e-9 * abs(top2[1]):
                self.near_tie = True
        return best


def exhaustive(V, k: int):
    """(best subset, its score, runner-up score) over all size-k subsets."""
    combos = list(itertools.combinations(range(V.shape[0]), k))
    s = _subset_scores(V, combos)
    best = int(np.argmax(s))
    second = float(np.partition(s, -2)[-2]) if s.size > 1 else -math.inf
    return list(combos[best]), float(s[best]), second


# --------------------------------------------------------------------- #
# closed forms and exact arithmetic
# --------------------------------------------------------------------- #


def replicated_variance(d: int, lengths) -> float:
    """(1'V^{-1}1)^{-1} of a d-ary symmetric tree: sum of t_i / d^i."""
    return math.fsum(t / d ** (i + 1) for i, t in enumerate(lengths))


def exact_gls_intercept(V_rows, y) -> Fraction:
    """Intercept-only GLS estimate (1'V^{-1}y)/(1'V^{-1}1) in exact rationals."""
    n = len(y)
    A = [[Fraction(v) for v in row] + [Fraction(1), Fraction(yi)]
         for row, yi in zip(V_rows, y)]
    for c in range(n):
        piv = next(r for r in range(c, n) if A[r][c] != 0)
        A[c], A[piv] = A[piv], A[c]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c] / A[c][c]
                A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    w = [A[i][n] / A[i][i] for i in range(n)]      # V^{-1} 1
    u = [A[i][n + 1] / A[i][i] for i in range(n)]  # V^{-1} y
    return sum(u) / sum(w)
