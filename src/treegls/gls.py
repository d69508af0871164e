"""Generalized least squares under a tree covariance.

Fits Y = X beta + eps with eps ~ N(0, sigma^2 V), where V comes from the
tree (Brownian by default, OU optionally).  Also: the covariate-covariance
estimator, posterior-mean shrinkage of the coefficients, and the two
lineage-shift model variants (pure shift "S" on the full covariance, actual
change "SB" on the block covariance obtained by cutting the subtending
branch).  Both shift variants take one contrast sweep of the full tree; for
"SB" the sweep cuts the focal edge, so no subtree is copied.  Every public
shift function resolves its focal node itself; resolving walks only the
focal subtree, summing tip heights down from the focal node.  The dense
"SB" covariance, the oracle, builds its top block the same way.

Conventions: the intercept column is always first; for shift models the
subtree indicator is second.  Two variance estimates are kept: the unbiased
RSS/(n-rank) for reporting and the ML RSS/n for likelihoods and information
criteria.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field
from itertools import compress, repeat

import numpy as np

from .covariance import (
    CovarianceSpec,
    QuadraticForms,
    bm_covariance,
    _bm_forms,
    _cho_solve,
    _columns,
    _require_finite,
    _shared_times,
    quadratic_forms_pruning,
)
from .errors import (
    ConfigError,
    DegenerateFitError,
    RankDeficientError,
    TraitTableError,
    TreeError,
)
from .tree import PhyloTree, _heights_below, _tree_height

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class ShiftSpec:
    """A lineage effect: which subtree shifts, and in which sense.

    ``mode`` is ``"S"`` (pure shift added to the Brownian noise; full tree
    covariance) or ``"SB"`` (actual ancestral change; observations conditioned
    on both subtree roots, giving a block-diagonal covariance).
    """

    focal_node: int | str
    mode: str

    def __post_init__(self):
        if self.mode not in ("S", "SB"):
            raise TreeError(f"shift mode must be 'S' or 'SB', got {self.mode!r}")


@dataclass(frozen=True)
class ShiftInfo:
    """A resolved lineage shift: the focal node and its clade, carried on
    the fit for reporting and scoring."""

    mode: str
    focal_node: int
    subtending_length: float
    k_top: int
    t_top_min: float
    top_height: float
    n_top: int
    top_tips: tuple[str, ...]


def _resolve_shift(tree: PhyloTree, spec: ShiftSpec) -> ShiftInfo:
    """The shift ``spec`` names on ``tree``, or the refusal of its focal node."""
    focal = tree.node_id(spec.focal_node)
    if tree.is_tip(focal):
        raise TreeError("focal node of a shift must be internal, not a tip")
    if focal == tree.root:
        raise TreeError("focal node of a shift must not be the root")
    lo, hi = tree.tip_range[focal].tolist()
    if hi - lo >= tree.n_tips:
        raise TreeError(
            "shift indicator is collinear with the intercept "
            "(focal subtree contains every tip)"
        )
    kid_edges = tree.edge_length[tree.parent == focal].tolist()
    return ShiftInfo(
        mode=spec.mode,
        focal_node=focal,
        subtending_length=float(tree.edge_length[focal]) + 0.0,  # -0 + 0 is 0
        k_top=len(kid_edges),
        t_top_min=min(kid_edges),
        top_height=float(_tree_height(_heights_below(tree, focal))),
        n_top=hi - lo,
        top_tips=tree.tip_labels[lo:hi],
    )


@dataclass(frozen=True)
class GlsFit:
    """A fitted tree-GLS model.

    ``beta`` follows the column order of the design (intercept first);
    ``xtvix_inv`` is (X'V^{-1}X)^{-1}, the coefficient covariance at unit
    residual variance.  ``sigma2_hat`` is the unbiased RSS/(n - rank);
    ``sigma2_ml`` is RSS/n and feeds the log-likelihood.
    """

    beta: np.ndarray
    xtvix: np.ndarray
    xtvix_inv: np.ndarray
    rss: float
    sigma2_hat: float
    sigma2_ml: float
    dof: int
    n: int
    rank: int
    logdet_v: float
    shift: ShiftInfo | None = None

    @property
    def beta_cov(self) -> np.ndarray:
        """sigma2_hat * (X'V^{-1}X)^{-1}."""
        return self.sigma2_hat * self.xtvix_inv

    @property
    def loglik(self) -> float:
        """Exact Gaussian log-density at (beta_hat, sigma2_ml)."""
        if self.sigma2_ml <= 0.0:
            raise DegenerateFitError(
                "log-likelihood undefined: RSS is zero (sigma2_ml = 0)"
            )
        n = self.n
        return -0.5 * (
            n * math.log(2.0 * math.pi * self.sigma2_ml) + self.logdet_v + n
        )

    def to_dict(self) -> dict:
        try:
            ll = self.loglik
        except DegenerateFitError:
            ll = None
        out = {
            "beta": [float(b) for b in self.beta],
            "beta_cov": [[float(v) for v in row] for row in self.beta_cov],
            "sigma2_hat": float(self.sigma2_hat),
            "sigma2_ml": float(self.sigma2_ml),
            "rss": float(self.rss),
            "dof": int(self.dof),
            "loglik": ll,
            "n": int(self.n),
            "rank": int(self.rank),
            "logdet_v": float(self.logdet_v),
        }
        if self.shift is not None:
            out["shift"] = asdict(self.shift)
        return out


def _cholesky(A: np.ndarray, refusal: str) -> np.ndarray:
    """The lower Cholesky factor L of A (L L' = A), which must be finite;
    :class:`RankDeficientError` ``refusal`` where A is not positive definite."""
    _require_finite(A, "X'V^{-1}X")
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise RankDeficientError(refusal) from None


def _solve_normal_equations(forms: QuadraticForms):
    """beta-hat, (X'V^{-1}X)^{-1} and RSS with the rank policy applied."""
    A = forms.xtvix
    p = A.shape[0]
    L = _cholesky(A, "design matrix is rank deficient under V^{-1}")
    _require_finite(forms.xtviy, "X'V^{-1}Y")
    diag = np.diag(L)
    if float(np.min(diag * diag)) < RANK_RTOL * float(np.max(np.diag(A))):
        raise RankDeficientError(
            "design matrix is rank deficient at relative tolerance 1e-10"
        )
    # One solve for both: the columns [X'V^{-1}Y, I].
    solved = _cho_solve(L, np.column_stack([forms.xtviy, np.eye(p)]))
    beta, xtvix_inv = solved[:, 0], solved[:, 1:]
    xtvix_inv = 0.5 * (xtvix_inv + xtvix_inv.T)
    rss = float(forms.ytviy - beta @ forms.xtviy)
    # The subtraction cancels catastrophically on an exact fit; residuals
    # below roundoff scale are a true zero.
    if rss <= 1e-12 * abs(forms.ytviy):
        rss = 0.0
    return beta, xtvix_inv, rss


def _fit_from_forms(forms: QuadraticForms, shift: ShiftInfo | None = None) -> GlsFit:
    beta, xtvix_inv, rss = _solve_normal_equations(forms)
    n = forms.n
    rank = forms.xtvix.shape[0]
    if n <= rank:
        raise DegenerateFitError(
            f"need more observations than parameters (n={n}, rank={rank})"
        )
    dof = n - rank
    return GlsFit(
        beta=beta,
        xtvix=forms.xtvix,
        xtvix_inv=xtvix_inv,
        rss=rss,
        sigma2_hat=rss / dof,
        sigma2_ml=rss / n,
        dof=dof,
        n=n,
        rank=rank,
        logdet_v=forms.logdet_v,
        shift=shift,
    )


def gls_fit(tree: PhyloTree, X, Y, cov: CovarianceSpec | None = None) -> GlsFit:
    """Fit Y = X beta + eps, eps ~ N(0, sigma^2 V(tree, cov)).

    ``X`` is the full design including the intercept column (first).  Rows
    follow the canonical tip order.  The forms come from one contrast sweep
    under the Brownian or the OU covariance, in O(n) time and memory;
    V is never built.  The dense path, :func:`quadratic_forms_dense` of
    :func:`covariance_matrix`, is the oracle it agrees with.
    """
    return _fit_from_forms(quadratic_forms_pruning(tree, X, Y, cov))


def covariate_sigma_hat(tree: PhyloTree, X) -> np.ndarray:
    """Estimate the per-edge covariance of random covariates evolving on the tree.

    Sigma-hat = (X - 1 mu_X)' V^{-1} (X - 1 mu_X) / (n - 1) with mu_X the
    GLS ancestral-state row vector.  ``X`` holds random covariates only (no
    intercept column).
    """
    n = tree.n_tips
    if n < 2:
        raise DegenerateFitError("need at least two tips to estimate Sigma")
    # With Y = 1 the forms carry X'V^{-1}1 and 1'V^{-1}1 beside X'V^{-1}X.
    forms = quadratic_forms_pruning(tree, X, np.ones(n))
    w = forms.xtviy
    Sg = (forms.xtvix - np.outer(w, w) / forms.ytviy) / (n - 1)
    return 0.5 * (Sg + Sg.T)


def shrinkage_estimate(fit: GlsFit) -> np.ndarray:
    """Posterior-mean contraction (I + (X'V^{-1}X)^{-1})^{-1} beta-hat.

    Shrinks toward zero; approaches beta-hat as the information matrix grows.
    """
    A = fit.xtvix
    L = _cholesky(A + np.eye(A.shape[0]), "X'V^{-1}X is singular")
    return _cho_solve(L, _require_finite(A @ fit.beta, "X'V^{-1}X beta-hat"))


def fit_shift_model(tree: PhyloTree, X, Y, spec: ShiftSpec) -> GlsFit:
    """Fit the lineage-shift model Y = 1 b0 + ind_top b1 + X b + eps.

    Mode "S" keeps the full Brownian covariance (the shift is displacement
    beyond the Brownian noise); mode "SB" conditions on both subtree root
    states, so the covariance is block diagonal over the two subtrees cut at
    the subtending branch, and the intercept is the bottom-subtree root state.
    Covariates are accepted in both modes.
    """
    return _shift_fit(tree, X, Y, _resolve_shift(tree, spec))[0]


def _shift_fit(tree: PhyloTree, X, Y, info: ShiftInfo):
    """:func:`fit_shift_model` of a resolved shift, and its sweep's
    1'V^{-1}1 at each root (see :func:`~treegls.covariance._bm_forms`):
    in "SB" mode, the pieces' values that the ESS pair reads."""
    n = tree.n_tips
    X, Y = _columns(np.empty((n, 0)) if X is None else X, Y, n)
    forms, one = _bm_forms(tree, _shift_design(tree, X, info), Y,
                           cut=info.focal_node if info.mode == "SB" else None)
    return _fit_from_forms(forms, shift=info), one


def _shift_design(tree: PhyloTree, X: np.ndarray, info: ShiftInfo) -> np.ndarray:
    """The columns [1, indicator of the focal clade, X]."""
    lo, hi = tree.tip_range[info.focal_node]
    indicator = np.zeros(tree.n_tips)
    indicator[lo:hi] = 1.0
    return np.column_stack([np.ones(tree.n_tips), indicator, X])


def sb_covariance(tree: PhyloTree, spec: ShiftSpec) -> np.ndarray:
    """Dense block covariance diag(V_top - d_focal, V_bot) of the "SB"
    model, in canonical tip order.

    The focal tips' rows and columns of the Brownian covariance are zeroed,
    and their block is the covariance of the subtree rooted at the focal
    node: by the block rule of :func:`bm_covariance`, each child's tips
    meet its later siblings' tips at the parent's distance from the focal
    node, summed down from it rather than differenced under a possibly long
    stem.  No subtree is copied.
    """
    focal = _resolve_shift(tree, spec).focal_node
    lo, hi = tree.tip_range[focal]
    V = bm_covariance(tree)
    V[lo:hi, :] = 0.0
    V[:, lo:hi] = 0.0
    V[lo:hi, lo:hi] = _shared_times(tree, focal)
    return V


# --------------------------------------------------------------------- #
# trait tables
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class TraitData:
    """Trait table aligned to a tree's canonical tip order."""

    y_name: str
    x_names: tuple[str, ...]
    Y: np.ndarray
    X: np.ndarray  # covariates only, no intercept column
    tip_labels: tuple[str, ...] = field(default=())

    def design(self) -> np.ndarray:
        """Intercept-first design matrix [1, X]."""
        return np.column_stack([np.ones(len(self.Y)), self.X])


def load_traits(path, tree: PhyloTree) -> TraitData:
    """Read a trait CSV ``tip,<y-name>,<x1-name>,...`` aligned against ``tree``.

    One row per tip; the first data column is the response.  Tips missing
    from the file, or rows naming tips absent from the tree, are errors.
    The file is read once and split by array passes; a table those passes
    refuse, or one with quoted fields or carriage returns, goes to a csv row
    loop, which names the first fault and its row.  A file that cannot be
    read or decoded is a :class:`ConfigError`.
    """
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trait file: {exc}") from None
    if '"' in text or "\r" in text:
        return _read_rows(text, tree)
    lines = text.split("\n")
    del text  # hold the lines only, not the text beside them
    data = _trait_arrays(lines, tree)
    if data is None:
        data = _read_rows("\n".join(lines), tree)
    return data


_BLOCK_CELLS = 1 << 10  # table cells converted per block


def _trait_arrays(lines: list[str], tree: PhyloTree) -> TraitData | None:
    """The table of a well-formed text split at its newlines, or None.

    Without quotes or carriage returns, a csv row is its line split at
    commas, and a line without a comma that is blank is no row.  Rows are
    split and their values converted a block at a time; one tip lookup, one
    count per tip and one finiteness check then accept the table.
    """
    header = [h.strip() for h in lines[0].split(",")]
    k = len(header)
    # csv refuses a field longer than its limit; no line here may hold one.
    if k < 2 or header[0] != "tip" or max(map(len, lines)) > csv.field_size_limit():
        return None
    body = lines[1:]
    commas = np.fromiter(map(str.count, body, repeat(",")), dtype=np.int64, count=len(body))
    is_row = commas == k - 1
    if any(commas[i] or body[i].strip() for i in np.flatnonzero(~is_row)):
        return None
    rows = list(compress(body, is_row.tolist()))
    values = np.empty((len(rows), k - 1))
    labels: list[str] = []
    step = max(1, _BLOCK_CELLS // k)
    for lo in range(0, len(rows), step):
        cells = ",".join(rows[lo:lo + step]).split(",")
        labels += map(str.strip, cells[::k])
        del cells[::k]
        try:
            block = np.array(cells, dtype=np.float64)  # float() on each cell
        except ValueError:
            return None
        values[lo:lo + step] = block.reshape(-1, k - 1)
    try:
        at = tree.tip_rows(labels)
    except TreeError:
        return None
    if (np.bincount(at, minlength=tree.n_tips) != 1).any() or not np.isfinite(values).all():
        return None
    Y = np.empty(tree.n_tips)
    Y[at] = values[:, 0]
    X = np.empty((tree.n_tips, k - 2))
    X[at] = values[:, 1:]
    return TraitData(
        y_name=header[1], x_names=tuple(header[2:]), Y=Y, X=X, tip_labels=tree.tip_labels
    )


def _read_rows(text: str, tree: PhyloTree) -> TraitData:
    """The table by a csv row loop, which stops at the first fault.

    ``load_traits`` runs it only on a text the array passes refuse or do not
    handle (quoted fields, carriage returns).
    """
    reader = _numbered_rows(text)
    try:
        header = next(reader)[1]
    except StopIteration:
        raise TraitTableError("empty trait table", location=0) from None
    header = [h.strip() for h in header]
    if len(header) < 2 or header[0] != "tip":
        raise TraitTableError(
            "header must be 'tip,<y-name>[,<x-names>...]'", location=0
        )
    y_name = header[1]
    x_names = tuple(header[2:])
    rows: dict[str, list[float]] = {}
    linenos: list[int] = []  # per entry of ``rows``
    for lineno, row in reader:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise TraitTableError(
                f"row has {len(row)} fields, expected {len(header)}",
                location=lineno,
            )
        tip = row[0].strip()
        if tip in rows:
            raise TraitTableError(f"duplicate row for tip {tip!r}", location=lineno)
        try:
            rows[tip] = [float(v) for v in row[1:]]
        except ValueError:
            raise TraitTableError(
                f"non-numeric value in row for tip {tip!r}", location=lineno
            ) from None
        linenos.append(lineno)

    tree_tips = set(tree.tip_labels)
    extra = sorted(set(rows) - tree_tips)
    missing = sorted(tree_tips - set(rows))
    if extra:
        raise TraitTableError(f"rows for tips not in the tree: {extra}")
    if missing:
        raise TraitTableError(f"missing rows for tips: {missing}")

    data = np.array([rows[lab] for lab in tree.tip_labels])
    finite = np.isfinite(data)
    if not finite.all():
        bad = {tree.tip_labels[i] for i in np.flatnonzero(~finite.all(axis=1))}
        lineno, tip = next((ln, tip) for ln, tip in zip(linenos, rows) if tip in bad)
        raise TraitTableError(
            f"non-finite value in row for tip {tip!r}", location=lineno
        )
    return TraitData(
        y_name=y_name,
        x_names=x_names,
        Y=data[:, 0].copy(),
        X=data[:, 1:].copy(),
        tip_labels=tree.tip_labels,
    )


def _numbered_rows(text: str):
    """(row number, fields) of each csv row, the header being row 0; a row
    csv cannot split (a field past its size limit) is refused at its row."""
    row = -1
    try:
        for row, fields in enumerate(csv.reader(io.StringIO(text, newline=""))):
            yield row, fields
    except csv.Error as exc:
        raise TraitTableError(f"malformed csv row: {exc}", location=row + 1) from None
