"""Command-line front end.

Thin shell over the library: every command's output equals the matching
library call.  Reports go to standard output (JSON by default, CSV for the
tabular commands); errors go to standard error as a structured JSON object
``{"error": {"code", "message", "location"}}`` with exit status 1.  All
floating-point output uses 17 significant digits so byte-level
reproducibility checks are exact.  Stochastic commands require ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import design as design_mod
from . import simlab
from .covariance import (
    CovarianceSpec,
    bm_covariance,
    covariance_matrix,
    symmetric_tree_eigenvalues,
)
from .errors import ConfigError, OutOfMemoryError, TreeGlsError
from .ess import ess_intercept, ess_lineage
from .gls import ShiftSpec, fit_shift_model, gls_fit, load_traits, sb_covariance
from .modelsel import score_models
from .tree import PhyloTree, parse_newick

COMMANDS = ("ess", "fit", "shift", "design", "score", "simulate", "phase", "eigs")


# --------------------------------------------------------------------- #
# deterministic serialization (17 significant digits)
# --------------------------------------------------------------------- #


def fmt_float(x) -> str:
    x = float(x)
    if x != x:
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _json(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{_json(str(k))}:{_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist())
    raise ConfigError(f"cannot serialize {type(obj).__name__}")


def emit_json(obj, out) -> None:
    out.write(_json(obj) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def emit_csv(header, rows, out) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_csv_cell(v) for v in row) + "\n")


# --------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------- #


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`ConfigError` instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The command parser; each subcommand carries its handler as ``handler``."""
    parser = _Parser(
        prog="treegls",
        description="Tree-structured GLS, effective sample sizes, corrected "
        "information criteria, and subsampling design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, formats=("json", "csv")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
        return p

    p = add("ess", _cmd_ess, "effective sample size of the root-state estimate", ("json",))
    p.add_argument("--tree", required=True)
    p.add_argument("--t-policy", choices=("mean", "max"), default="mean")
    p.add_argument("--dump-cov", metavar="PATH")

    p = add("fit", _cmd_fit, "GLS fit of a trait table", ("json",))
    p.add_argument("--tree", required=True)
    p.add_argument("--traits", required=True)
    p.add_argument("--model", choices=("bm", "ou"), default="bm")
    p.add_argument("--alpha", type=float)
    p.add_argument("--stationary", action="store_true")
    p.add_argument("--dump-cov", metavar="PATH")

    p = add("shift", _cmd_shift, "lineage-shift fit (S or SB) with its ESS pair", ("json",))
    p.add_argument("--tree", required=True)
    p.add_argument("--traits", required=True)
    p.add_argument("--shift-node", required=True)
    p.add_argument("--shift-mode", choices=("S", "SB"), default="S")
    p.add_argument("--t-policy", choices=("mean", "max"), default="mean")
    p.add_argument("--dump-cov", metavar="PATH")

    p = add("design", _cmd_design, "tip-subset search maximizing the scaled ESS")
    p.add_argument("--tree", required=True)
    p.add_argument("--size", type=int)
    p.add_argument(
        "--method",
        choices=("forward", "backward", "exhaustive", "random"),
        default="forward",
    )
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int)

    p = add("score", _cmd_score, "model scorecard (AIC, BIC, corrected BIC)")
    p.add_argument("--tree", required=True)
    p.add_argument("--traits", required=True)
    p.add_argument("--shift-node")
    p.add_argument("--shift-mode", choices=("S", "SB"), default="S")
    p.add_argument("--t-policy", choices=("mean", "max"), default="mean")

    p = add("simulate", _cmd_simulate, "Brownian simulation on a tree (root 0, rate 1)")
    p.add_argument("--tree", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int, default=1)

    p = add("phase", _cmd_phase, "root-replication variance curve (closed form + pruning)")
    p.add_argument("--d", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--m-max", type=int, required=True)

    p = add("eigs", _cmd_eigs, "closed-form spectrum of a symmetric tree covariance")
    p.add_argument("--d", required=True, help="level count, or comma list of counts")
    p.add_argument("--q", type=float, help="replication proportion for level lengths")
    p.add_argument("--m-max", type=int, help="levels when --d is a single count")

    return parser


def parse_args(argv) -> argparse.Namespace:
    return build_parser().parse_args(argv)


# --------------------------------------------------------------------- #
# command implementations
# --------------------------------------------------------------------- #


def _load_tree(path) -> PhyloTree:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read tree file: {exc}") from None
    return parse_newick(text.strip())


def _resolve_node_flag(tree: PhyloTree, value: str):
    """A node reference: internal label, node id, or comma list of tip labels
    whose most recent common ancestor is meant."""
    if "," in value:
        return tree.mrca([v.strip() for v in value.split(",")])
    try:
        return int(value)
    except ValueError:
        return value


def _dump_cov(V, path) -> None:
    with open(path, "w") as fh:
        for row in V:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


def _cov_spec(args) -> CovarianceSpec:
    if args.model == "ou":
        if args.alpha is None:
            raise ConfigError("--model ou requires --alpha")
        return CovarianceSpec.ou(args.alpha, stationary=args.stationary)
    return CovarianceSpec.bm()


def _require_seed(args, why: str) -> int:
    if args.seed is None:
        raise ConfigError(f"--seed is required for {why}")
    return args.seed


def _cmd_ess(args, out):
    tree = _load_tree(args.tree)
    report = ess_intercept(tree, t_policy=args.t_policy)
    if args.dump_cov:
        _dump_cov(bm_covariance(tree), args.dump_cov)
    emit_json(report.to_dict(), out)


def _cmd_fit(args, out):
    tree = _load_tree(args.tree)
    traits = load_traits(args.traits, tree)
    cov = _cov_spec(args)
    fit = gls_fit(tree, traits.design(), traits.Y, cov)
    if args.dump_cov:
        _dump_cov(covariance_matrix(tree, cov), args.dump_cov)
    result = fit.to_dict()
    result["response"] = traits.y_name
    result["covariates"] = list(traits.x_names)
    emit_json(result, out)


def _cmd_shift(args, out):
    tree = _load_tree(args.tree)
    traits = load_traits(args.traits, tree)
    node = _resolve_node_flag(tree, args.shift_node)
    spec = ShiftSpec(node, args.shift_mode)
    fit = fit_shift_model(tree, traits.X, traits.Y, spec)
    pair = ess_lineage(tree, spec, args.t_policy)
    if args.dump_cov:
        V = sb_covariance(tree, spec) if spec.mode == "SB" else bm_covariance(tree)
        _dump_cov(V, args.dump_cov)
    result = fit.to_dict()
    result["n_e_top"] = pair.top
    result["n_e_bot"] = pair.bot
    emit_json(result, out)


def _cmd_design(args, out):
    if args.format == "csv" and (args.method != "random" or args.size is not None):
        raise ConfigError("--format csv is the band table of --method random, without --size")
    tree = _load_tree(args.tree)
    if args.method == "random":
        seed = _require_seed(args, "random subsampling")
        if args.format == "csv":
            rows = design_mod.band_table(tree, args.reps, seed)
            emit_csv(
                ("k", "q025", "median", "q975", "optimum"),
                [(r["k"], r["q025"], r["median"], r["q975"], r["optimum"]) for r in rows],
                out,
            )
            return
        if args.size is None:
            raise ConfigError("--size is required for a single random band")
        band = design_mod.random_design_bands(tree, args.size, args.reps, seed)
        emit_json(band.to_dict(), out)
        return
    if args.size is None:
        raise ConfigError("--size is required")
    if args.method == "exhaustive":
        result = design_mod.exhaustive_design(tree, args.size)
    else:
        result = design_mod.stepwise_design(tree, args.size, args.method)
    emit_json(result.to_dict(), out)


def _cmd_score(args, out):
    tree = _load_tree(args.tree)
    traits = load_traits(args.traits, tree)
    spec = None
    if args.shift_node:
        node = _resolve_node_flag(tree, args.shift_node)
        spec = ShiftSpec(node, args.shift_mode)
    scores = score_models(tree, traits.X, traits.Y, spec, t_policy=args.t_policy)
    if args.format == "csv":
        emit_csv(
            ("model", "loglik", "aic", "bic_standard", "bic_corrected"),
            [
                (s.model, s.loglik, s.aic, s.bic_standard, s.bic_corrected)
                for s in scores
            ],
            out,
        )
    else:
        emit_json([s.to_dict() for s in scores], out)


def _cmd_simulate(args, out):
    tree = _load_tree(args.tree)
    seed = _require_seed(args, "simulation")
    values = simlab.simulate_bm(tree, 0.0, 1.0, seed, reps=args.reps)
    values = np.atleast_2d(values)
    if args.format == "csv":
        header = ("tip",) + tuple(f"rep{r + 1}" for r in range(values.shape[0]))
        rows = [
            (lab,) + tuple(values[:, i]) for i, lab in enumerate(tree.tip_labels)
        ]
        emit_csv(header, rows, out)
    else:
        emit_json(
            {
                "tips": list(tree.tip_labels),
                "values": values.tolist(),
                "seed": seed,
            },
            out,
        )


def _level_counts(text: str) -> tuple[int, ...]:
    """The integers of a ``--d`` value: one count or a comma list."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--d must be an integer or a comma list of integers, got {text!r}"
        ) from None


def _cmd_phase(args, out):
    counts = _level_counts(args.d)
    if len(counts) != 1:
        raise ConfigError(f"--d must be a single level count, got {args.d!r}")
    curve = simlab.phase_transition_curve(counts[0], args.q, args.m_max)
    if args.format == "json":
        emit_json(
            [
                {
                    "m": p.m,
                    "n": p.n,
                    "var_closed": p.var_closed,
                    "var_pruning": p.var_pruning,
                }
                for p in curve
            ],
            out,
        )
    else:
        emit_csv(
            ("n", "var_closed", "var_pruning"),
            [(p.n, p.var_closed, p.var_pruning) for p in curve],
            out,
        )


def _cmd_eigs(args, out):
    d = _level_counts(args.d)
    if len(d) == 1:
        if not args.m_max:
            raise ConfigError("--m-max is required when --d is a single count")
        d = d * args.m_max
    m = len(d)
    if args.q is not None:
        if len(set(d)) != 1:
            raise ConfigError("--q lengths are defined for uniform level counts")
        t = simlab.ReplicationSpec(d[0], args.q, m).lengths()
    else:
        t = (1.0 / m,) * m
    pairs = symmetric_tree_eigenvalues(d, t)
    if args.format == "csv":
        emit_csv(("eigenvalue", "multiplicity"), pairs, out)
    else:
        emit_json(
            [{"eigenvalue": lam, "multiplicity": mult} for lam, mult in pairs], out
        )


def run(args: argparse.Namespace, out=None, err=None) -> int:
    """Execute one parsed command; returns the process exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args.handler(args, out)
    except MemoryError as exc:
        return _report(OutOfMemoryError(str(exc) or "out of memory"), err)
    except TreeGlsError as exc:
        return _report(exc, err)
    return 0


def _report(exc: TreeGlsError, err) -> int:
    """Write ``exc`` as one structured error object; the exit status is 1."""
    error = {"code": exc.code, "message": str(exc), "location": exc.location}
    emit_json({"error": error}, err)
    return 1


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except ConfigError as exc:
        return _report(exc, sys.stderr)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
