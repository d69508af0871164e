"""Model scores: log-likelihood based AIC, BIC, and the corrected BIC.

The standard BIC charges every parameter ln(n).  Under tree-structured
dependence the intercept and lineage effects carry bounded information, so
their penalty is replaced by ln(1 + n_e) with the matching effective sample
size; consistently estimated parameters (the k random-covariate coefficients
and sigma) keep the (k+1) ln(n) charge.  AIC needs no correction.

All scores use the maximized likelihood at sigma2_ml = RSS/n.  The
lineage-effect model is the fit of :func:`fit_shift_model`, with the ESS
pair of :func:`ess_lineage`, on the tree rerooted at the base of the focal
lineage (the tree itself when that base is the root); both are read off
the one sweep that scores the no-shift model, with the shift resolved on
the tree as given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (
    _bottom_up_schedule,
    _columns,
    _contrast_sweep,
    _refuse_roots,
    _rerooted_forms,
    _swept_forms,
    quadratic_forms_pruning,
)
from .errors import ConfigError, DegenerateFitError, TreeError
from .ess import EssReport, _intercept_report, _lineage_pair
from .gls import GlsFit, ShiftSpec, _fit_from_forms, _resolve_shift, _shift_design
from .tree import PhyloTree


@dataclass(frozen=True)
class ModelScore:
    """Scorecard for one fitted model.

    ``penalties`` maps term names to their additive contribution to the
    corrected BIC beyond -2 loglik; the map sums to exactly
    ``bic_corrected + 2 loglik``.
    """

    model: str
    loglik: float
    n: int
    p_consistent: int
    aic: float
    bic_standard: float
    bic_corrected: float
    penalties: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "loglik": float(self.loglik),
            "aic": float(self.aic),
            "bic_standard": float(self.bic_standard),
            "bic_corrected": float(self.bic_corrected),
            "penalties": {k: float(v) for k, v in self.penalties.items()},
        }


def aic(fit: GlsFit) -> float:
    """2 p - 2 loglik with p = rank(X) + 1 (sigma counted)."""
    p = fit.rank + 1
    return 2.0 * p - 2.0 * fit.loglik


def bic_standard(fit: GlsFit) -> float:
    """-2 loglik + p ln(n) with p = rank(X) + 1."""
    if fit.n < 2:
        raise DegenerateFitError("BIC requires n >= 2")
    p = fit.rank + 1
    return -2.0 * fit.loglik + p * math.log(fit.n)


def corrected_penalty_m0(k: int, n: int, n_e: float) -> dict[str, float]:
    """Penalty terms for the intercept + k random covariates model."""
    if n < 1:
        raise ConfigError("n must be positive")
    if not n_e > 0:
        raise ConfigError("n_e must be positive")
    return {
        "consistent": (k + 1) * math.log(n),
        "intercept": math.log1p(n_e),
    }


def corrected_penalty_m1(k: int, n: int, n_e_bot: float, n_e_top: float) -> dict[str, float]:
    """Penalty terms for the model with a lineage effect."""
    if n < 1:
        raise ConfigError("n must be positive")
    if not (n_e_bot > 0 and n_e_top > 0):
        raise ConfigError("effective sample sizes must be positive")
    return {
        "consistent": (k + 1) * math.log(n),
        "intercept": math.log1p(n_e_bot),
        "shift": math.log1p(n_e_top),
    }


def _score(model: str, fit: GlsFit, p_consistent: int, penalties: dict) -> ModelScore:
    ll = fit.loglik
    return ModelScore(
        model=model,
        loglik=ll,
        n=fit.n,
        p_consistent=p_consistent,
        aic=aic(fit),
        bic_standard=bic_standard(fit),
        bic_corrected=-2.0 * ll + sum(penalties.values()),
        penalties=dict(penalties),
    )


def bic_corrected_m0(fit: GlsFit, ess: EssReport) -> ModelScore:
    """Corrected BIC for the no-shift model: (k+1) ln n + ln(1 + n_e)."""
    if fit.shift is not None:
        raise ConfigError("fit carries a shift; use bic_corrected_m1")
    if ess.n != fit.n:
        raise ConfigError(
            f"fit has n={fit.n} but the ESS report has n={ess.n}"
        )
    k = fit.rank - 1
    if k < 0:
        raise ConfigError("model must include an intercept")
    penalties = corrected_penalty_m0(k, fit.n, ess.n_e)
    return _score("M0", fit, k + 1, penalties)


def bic_corrected_m1(fit: GlsFit, ess_top: float, ess_bot: float) -> ModelScore:
    """Corrected BIC for the lineage-effect model.

    The fit must follow the rooting convention (intercept at the base of the
    focal lineage); :func:`score_models` performs that reparametrization.
    """
    if fit.shift is None:
        raise ConfigError("fit does not carry a shift; use bic_corrected_m0")
    for name, v in (("ess_top", ess_top), ("ess_bot", ess_bot)):
        if not (np.isfinite(v) and v > 0):
            raise ConfigError(f"{name} must be positive and finite, got {v}")
    k = fit.rank - 2
    if k < 0:
        raise ConfigError("shift model must include intercept and indicator")
    penalties = corrected_penalty_m1(k, fit.n, ess_bot, ess_top)
    return _score(f"M1({fit.shift.mode})", fit, k + 1, penalties)


def score_models(
    tree: PhyloTree,
    X,
    Y,
    spec: ShiftSpec | None = None,
    t_policy: str = "mean",
) -> list[ModelScore]:
    """Score the no-shift model and, optionally, a lineage-effect model.

    ``X`` holds random covariates only (no intercept column).  The shift
    model is fitted and scored on the tree rerooted at the base of the
    focal lineage, so the intercept is the ancestral state there and the
    ESS pair matches the penalty's derivation.  No tree is rebuilt: one
    sweep of the columns [1, indicator, X, Y] gives the no-shift model its
    rows and the shift model every contrast the new root leaves in place,
    and its root row at the base comes from messages down the path to it
    (:func:`~treegls.covariance._rerooted_forms`).  A stem of unary nodes
    above the first fork holds no tip, so it sends an empty message; the
    no-shift model keeps the stem.
    """
    n = tree.n_tips
    X, Y = _columns(np.empty((n, 0)) if X is None else X, Y, n)
    info = refused = None
    if spec is not None:
        try:
            info = _resolve_shift(tree, spec)
        except TreeError as exc:
            refused = exc  # raised after the no-shift model, which comes first
    if info is None:
        # The fit's sweep gives M0's 1'V^{-1}1 too: the tree is swept once.
        forms = quadratic_forms_pruning(tree, np.column_stack([np.ones(n), X]), Y)
        scores = [_score_m0(tree, forms, t_policy)]
        if refused is not None:
            raise refused
        return scores

    schedule = _bottom_up_schedule(tree)
    swept = _contrast_sweep(tree, np.column_stack([_shift_design(tree, X, info), Y]),
                            schedule=schedule, inside=True)
    forms = _swept_forms(*swept[:3], n, np.r_[0, 2:X.shape[1] + 3])  # all but the indicator
    scores = [_score_m0(tree, forms, t_policy)]
    forms, heights, one, threshold = _rerooted_forms(
        tree, schedule, swept, info.focal_node, info.mode == "SB")
    fit = _fit_from_forms(forms, shift=info)
    _refuse_roots(one, threshold)  # as the ESS pair's sweep, cut at the focal edge, does
    pair = _lineage_pair(tree, info, heights, one, t_policy)
    scores.append(bic_corrected_m1(fit, pair.top, pair.bot))
    return scores


def _score_m0(tree: PhyloTree, forms, t_policy: str) -> ModelScore:
    return bic_corrected_m0(_fit_from_forms(forms),
                            _intercept_report(tree, forms.one_tvi_one, t_policy))
