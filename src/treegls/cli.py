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
import os
import sys
from itertools import repeat

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
from .ess import _shift_with_pair, ess_intercept
from .gls import ShiftSpec, gls_fit, load_traits, sb_covariance
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
    if isinstance(obj, list) and obj and set(map(type, obj)) == {float}:
        return "[" + _float_list(obj) + "]"
    if isinstance(obj, list) and obj and set(map(type, obj)) == {str}:
        items = [x.replace("\\", "\\\\").replace('"', '\\"') for x in obj]
        return '["' + '","'.join(items) + '"]'
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist())
    raise ConfigError(f"cannot serialize {type(obj).__name__}")


def _float_list(xs) -> str:
    """The items of a list of floats as :func:`fmt_float` writes them, by one
    "%.17g" format of them all (the bytes of ``format(x, ".17g")``); only
    "nan", "inf" and "-inf" hold an "n", and they are quoted."""
    text = ",".join(repeat("%.17g", len(xs))) % tuple(xs)
    if "n" in text:
        text = ",".join([f'"{v}"' if "n" in v else v for v in text.split(",")])
    return text


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


def _one_count(args) -> bool:
    """Whether ``--d`` is a single level count (a malformed one is refused)."""
    return len(_level_counts(args.d)) == 1


def build_parser() -> argparse.ArgumentParser:
    """A fresh command parser.  Each subcommand carries its handler as
    ``handler`` and its flag rules as ``rules``: pairs (broken, message) in
    the order they are checked, where ``broken(args)`` is true of a command
    line that breaks the rule and ``message`` is formatted with the parsed
    flags.  :func:`run` checks them before the handler, so before any file
    is read."""
    parser = _Parser(
        prog="treegls",
        description="Tree-structured GLS, effective sample sizes, corrected "
        "information criteria, and subsampling design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, formats=("json", "csv")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, rules=())
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
    p.set_defaults(rules=(
        (lambda a: a.model == "ou" and a.alpha is None, "--model ou requires --alpha"),
        (lambda a: a.model != "ou" and a.alpha is not None, "--alpha requires --model ou"),
        (lambda a: a.model != "ou" and a.stationary, "--stationary requires --model ou"),
    ))

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
    # --seed and --reps are read, and so checked, by the random method only.
    p.set_defaults(rules=(
        (lambda a: a.format == "csv" and (a.method != "random" or a.size is not None),
         "--format csv is the band table of --method random, without --size"),
        (lambda a: a.method == "random" and a.seed is None,
         "--seed is required for random subsampling"),
        (lambda a: a.method == "random" and a.seed < 0, "seed must be >= 0"),
        (lambda a: a.method == "random" and a.size is None and a.format == "json",
         "--size is required for a single random band"),
        (lambda a: a.method == "random" and a.reps < 1, "reps must be >= 1"),
        (lambda a: a.size is None and a.format == "json", "--size is required"),
        (lambda a: a.size is not None and a.size < 1, "--size must be at least 1, got {size}"),
    ))

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
    p.set_defaults(rules=(
        (lambda a: a.seed is None, "--seed is required for simulation"),
        (lambda a: a.seed < 0, "seed must be >= 0"),
        (lambda a: a.reps < 1, "reps must be >= 1"),
    ))

    p = add("phase", _cmd_phase, "root-replication variance curve (closed form + pruning)")
    p.add_argument("--d", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--m-max", type=int, required=True)
    p.set_defaults(rules=(
        (lambda a: not _one_count(a), "--d must be a single level count, got {d!r}"),
        (lambda a: a.m_max < 1, "m_max must be >= 1"),
    ))

    p = add("eigs", _cmd_eigs, "closed-form spectrum of a symmetric tree covariance")
    p.add_argument("--d", required=True, help="level count, or comma list of counts")
    p.add_argument("--q", type=float, help="replication proportion for level lengths")
    p.add_argument("--m-max", type=int, help="levels when --d is a single count")
    p.set_defaults(rules=(
        (lambda a: _one_count(a) and a.m_max is None,
         "--m-max is required when --d is a single count"),
        (lambda a: _one_count(a) and a.m_max < 1, "--m-max must be at least 1, got {m_max}"),
    ))

    return parser


# The process's parser, built by the first parse_args call: building one
# takes longer than a small command's own work.
_parser = None


def parse_args(argv) -> argparse.Namespace:
    """Parse ``argv`` with the one parser of this process.  Parsing leaves
    no state in a parser, so no flag of one call carries to the next."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    return _parser.parse_args(argv)


def _check_rules(args) -> None:
    """Raise the first declared flag rule (see :func:`build_parser`) that
    ``args`` breaks."""
    for broken, message in args.rules:
        if broken(args):
            raise ConfigError(message.format(**vars(args)))


# --------------------------------------------------------------------- #
# command implementations
# --------------------------------------------------------------------- #


def _load_tree(path) -> PhyloTree:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read tree file: {exc}") from None
    return parse_newick(text)


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
    try:
        with open(path, "w") as fh:
            for row in V:
                fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write covariance file: {exc}") from None


def _cmd_ess(args, out):
    tree = _load_tree(args.tree)
    report = ess_intercept(tree, t_policy=args.t_policy)
    if args.dump_cov:
        _dump_cov(bm_covariance(tree), args.dump_cov)
    emit_json(report.to_dict(), out)


def _cmd_fit(args, out):
    if args.model == "ou":
        cov = CovarianceSpec.ou(args.alpha, stationary=args.stationary)
    else:
        cov = CovarianceSpec.bm()
    tree = _load_tree(args.tree)
    traits = load_traits(args.traits, tree)
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
    fit, pair = _shift_with_pair(tree, traits.X, traits.Y, spec, args.t_policy)
    if args.dump_cov:
        V = sb_covariance(tree, spec) if spec.mode == "SB" else bm_covariance(tree)
        _dump_cov(V, args.dump_cov)
    result = fit.to_dict()
    result["n_e_top"] = pair.top
    result["n_e_bot"] = pair.bot
    emit_json(result, out)


def _cmd_design(args, out):
    tree = _load_tree(args.tree)
    if args.format == "csv":
        rows = design_mod.band_table(tree, args.reps, args.seed)
        emit_csv(
            ("k", "q025", "median", "q975", "optimum"),
            [(r["k"], r["q025"], r["median"], r["q975"], r["optimum"]) for r in rows],
            out,
        )
        return
    if args.method == "random":
        result = design_mod.random_design_bands(tree, args.size, args.reps, args.seed)
    elif args.method == "exhaustive":
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
    values = simlab.simulate_bm(tree, 0.0, 1.0, args.seed, reps=args.reps)
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
                "seed": args.seed,
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
    curve = simlab.phase_transition_curve(int(args.d), args.q, args.m_max)
    if args.format == "json":
        emit_json([vars(p) for p in curve], out)  # a point's fields, in order
    else:
        emit_csv(
            ("n", "var_closed", "var_pruning"),
            [(p.n, p.var_closed, p.var_pruning) for p in curve],
            out,
        )


def _cmd_eigs(args, out):
    d = _level_counts(args.d)
    if len(d) == 1:
        d = d * args.m_max
    m = len(d)
    if args.q is not None:
        if len(set(d)) != 1:
            raise ConfigError("--q lengths are defined for uniform level counts")
        t = simlab.ReplicationSpec(d[0], args.q, m).lengths()
    else:
        t = (1.0 / m,) * m
    spec = simlab.SymmetricTreeSpec(d, t)  # level checks as config errors
    pairs = symmetric_tree_eigenvalues(spec.d, spec.t)
    if args.format == "csv":
        emit_csv(("eigenvalue", "multiplicity"), pairs, out)
    else:
        emit_json(
            [{"eigenvalue": lam, "multiplicity": mult} for lam, mult in pairs], out
        )


def run(args: argparse.Namespace, out=None, err=None) -> int:
    """Check one parsed command's flag rules, then execute it; returns the
    process exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        _check_rules(args)
        args.handler(args, out)
        out.flush()
    except BrokenPipeError as exc:
        return _report(ConfigError(f"cannot write output: {exc}"), err)
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
    status = run(args)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone and the buffer still holds output: send it to
        # the null device, so the interpreter's last flush does not fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
