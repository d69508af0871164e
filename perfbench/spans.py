"""Spans around the program's public functions, for the traced run only.

``install`` replaces each listed function in every ``treegls`` module that
binds it (so ``treegls.cli.parse_newick`` and ``treegls.tree.parse_newick``
get the same wrapper), plus ``PhyloTree.__init__`` and the lazily computed
index properties.  A span holds its name, start, end, parent span and op id;
spans stay in memory until the run writes them out.  Untraced runs never
call ``install``.

Self time is a span's duration minus the durations of its direct children;
per-layer metrics are self times and counters summed over the traced cycles
and divided by the number of cycles.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

perf = time.perf_counter

# Span name per layer boundary: (module, attribute, span name, counter).
TARGETS = [
    ("tree", "parse_newick", "tree.parse", "parse"),
    ("tree", "reroot", "tree.reroot", None),
    ("tree", "restrict_to_tips", "tree.restrict", None),
    ("tree", "extract_subtree", "tree.restrict", None),
    ("covariance", "quadratic_forms_pruning", "covariance.forms", "forms"),
    ("covariance", "scaled_ess_pruning", "covariance.scaled_ess", "calls"),
    ("covariance", "bm_covariance", "covariance.dense_build", "dense"),
    ("covariance", "ou_covariance", "covariance.dense_build", None),
    ("covariance", "covariance_matrix", "covariance.dense_build", None),
    ("covariance", "quadratic_forms_dense", "covariance.dense_solve", None),
    ("gls", "gls_fit", "gls.fit", None),
    ("gls", "fit_shift_model", "gls.shift_fit", None),
    ("gls", "load_traits", "gls.load_traits", None),
    ("ess", "ess_intercept", "ess", None),
    ("ess", "ess_lineage", "ess", None),
    ("modelsel", "score_models", "modelsel", None),
    ("design", "stepwise_design", "design", "stepwise"),
    ("design", "exhaustive_design", "design", "exhaustive"),
    ("design", "random_design_bands", "design", "random"),
    ("design", "band_table", "design", None),
    ("simlab", "simulate_bm", "simlab.simulate", None),
    ("simlab", "simulate_traits", "simlab.simulate", None),
    ("simlab", "make_symmetric_tree", "simlab.build", None),
    ("simlab", "make_replicated_tree", "simlab.build", None),
    ("simlab", "family_tree", "simlab.build", None),
    ("simlab", "convergence_experiment", "simlab.experiment", None),
    ("simlab", "phase_transition_curve", "simlab.experiment", None),
    ("cli", "main", "cli", None),
    ("cli", "emit_json", "cli.emit", None),
    ("cli", "emit_csv", "cli.emit", None),
]
# Counted, not timed: one per per-edge random stream the simulator creates.
COUNT_ONLY = [("simlab", "_edge_rng", "simlab.edge_streams")]
INDEX_PROPERTIES = {"postorder": "_postorder", "tip_range": "_tip_range", "levels": "_levels"}

# Per-layer metric -> span name whose self time it reports.
SELF_TIME = {
    "tree.parse_s": "tree.parse",
    "tree.build_s": "tree.build",
    "tree.index_s": "tree.index",
    "tree.reroot_s": "tree.reroot",
    "tree.restrict_s": "tree.restrict",
    "covariance.forms_s": "covariance.forms",
    "covariance.scaled_ess_s": "covariance.scaled_ess",
    "covariance.dense_build_s": "covariance.dense_build",
    "covariance.dense_solve_s": "covariance.dense_solve",
    "gls.fit_s": "gls.fit",
    "gls.shift_fit_s": "gls.shift_fit",
    "gls.load_traits_s": "gls.load_traits",
    "ess.self_s": "ess",
    "modelsel.self_s": "modelsel",
    "design.self_s": "design",
    "simlab.simulate_s": "simlab.simulate",
    "simlab.build_s": "simlab.build",
    "simlab.experiment_s": "simlab.experiment",
    "cli.self_s": "cli",
    "cli.emit_s": "cli.emit",
}


# Units of the per-layer metrics that are not seconds.
UNITS = {
    "tree.parse_mb_per_s": "MB/s",
    "tree.builds": "count",
    "covariance.forms_calls": "count",
    "covariance.forms_node_visits": "count",
    "covariance.forms_bytes": "bytes",
    "covariance.scaled_ess_calls": "count",
    "covariance.dense_bytes": "bytes",
    "design.evaluations": "count",
    "design.evals_per_s": "1/s",
    "design.useful_ratio": "ratio",
    "simlab.edge_streams": "count",
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _count(tracer, kind, args, kwargs, result) -> None:
    c = tracer.counts
    if kind == "build":
        c["tree.builds"] += 1
    elif kind == "parse":
        c["tree.parse_bytes"] += len(args[0])
    elif kind == "forms":
        tree, X = args[0], args[1]
        q = (1 if X.ndim == 1 else X.shape[1]) + 2  # the program stacks [X, Y, 1]
        c["covariance.forms_calls"] += 1
        c["covariance.forms_node_visits"] += tree.n_nodes
        tracer.peak("covariance.forms_bytes", tree.n_nodes * q * q * 8)
    elif kind == "calls":
        c["covariance.scaled_ess_calls"] += 1
    elif kind == "dense":
        n = args[0].n_tips
        tracer.peak("covariance.dense_bytes", n * n * 8)
    elif kind == "stepwise":
        c["design.evaluations"] += result.evaluations
        c["design.greedy_steps"] += len(result.trajectory)
        c["design.greedy_candidates"] += result.evaluations
    elif kind == "exhaustive":
        c["design.evaluations"] += result.evaluations
    elif kind == "random":
        c["design.evaluations"] += kwargs.get("reps", args[2] if len(args) > 2 else 0)


class Tracer:
    def __init__(self):
        self.spans = []  # [op id, parent span, name, start, end]
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.peaks = {}

    def peak(self, key, value) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), value)

    def wrap(self, name, fn, kind=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [self.op, stack[-1] if stack else -1, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf()
                stack.pop()
            if kind is not None:
                _count(self, kind, args, kwargs, result)
            return result

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def index_property(self, prop, slot):
        timed = self.wrap("tree.index", prop.fget)

        def fget(tree):
            if getattr(tree, slot) is None:
                return timed(tree)
            return prop.fget(tree)

        return property(fget, doc=prop.__doc__)


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap every binding of the listed functions; returns what was wrapped."""
    wrapped = []

    def rebind(module, attr, make):
        original = getattr(modules[module], attr, None)
        if original is None:
            return
        wrapper = make(original)
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    wrapped.append(f"{mod.__name__}.{name}")

    for module, attr, span, kind in TARGETS:
        rebind(module, attr, lambda fn, s=span, k=kind: tracer.wrap(s, fn, k))
    for module, attr, key in COUNT_ONLY:
        rebind(module, attr, lambda fn, k=key: tracer.counter(k, fn))

    cls = modules["tree"].PhyloTree
    cls.__init__ = tracer.wrap("tree.build", cls.__init__, "build")
    wrapped.append("treegls.tree.PhyloTree.__init__")
    for prop, slot in INDEX_PROPERTIES.items():
        setattr(cls, prop, tracer.index_property(vars(cls)[prop], slot))
        wrapped.append(f"treegls.tree.PhyloTree.{prop}")
    return wrapped


def self_times(tracer: Tracer):
    """Self time per span and the per-op self-check.

    The check holds when every span lies inside its parent and belongs to
    its parent's op, and an op's self times add up to its root span.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    problems = []
    for rec in spans:
        op, parent, _, t0, t1 = rec
        if parent >= 0:
            pop, _, _, p0, p1 = spans[parent]
            child[parent] += t1 - t0
            if pop != op or t0 < p0 or t1 > p1:
                problems.append(f"span {rec[2]} escapes its parent {spans[parent][2]}")
    selfs = [rec[4] - rec[3] - child[i] for i, rec in enumerate(spans)]
    per_op_self = Counter()
    per_op_wall = {}
    for rec, s in zip(spans, selfs):
        per_op_self[rec[0]] += s
        if rec[1] < 0:
            if rec[0] in per_op_wall:
                problems.append(f"op {rec[0]} has more than one root span")
            per_op_wall[rec[0]] = rec[4] - rec[3]
    for op, wall in per_op_wall.items():
        if abs(per_op_self[op] - wall) > 1e-9 * max(1.0, wall) + 1e-12 * len(spans):
            problems.append(f"op {op}: self times sum to {per_op_self[op]!r}, wall {wall!r}")
    return selfs, problems


def layer_metrics(tracer: Tracer, n_cycles: int, overhead_ratio: float):
    """Per-layer metrics (values per traced cycle) and the self-check result."""
    selfs, problems = self_times(tracer)
    by_name = Counter()
    inclusive_design = 0.0
    for rec, s in zip(tracer.spans, selfs):
        by_name[rec[2]] += s
        if rec[2] == "design" and (rec[1] < 0 or tracer.spans[rec[1]][2] != "design"):
            inclusive_design += rec[4] - rec[3]
    c = tracer.counts
    per = 1.0 / max(n_cycles, 1)
    m = {key: by_name[name] * per for key, name in SELF_TIME.items()}
    parse_s = by_name["tree.parse"]
    m.update(
        {
            "tree.parse_mb_per_s": c["tree.parse_bytes"] / 1e6 / parse_s if parse_s else 0.0,
            "tree.builds": c["tree.builds"] * per,
            "covariance.forms_calls": c["covariance.forms_calls"] * per,
            "covariance.forms_node_visits": c["covariance.forms_node_visits"] * per,
            "covariance.forms_bytes": float(tracer.peaks.get("covariance.forms_bytes", 0)),
            "covariance.scaled_ess_calls": c["covariance.scaled_ess_calls"] * per,
            "covariance.dense_bytes": float(tracer.peaks.get("covariance.dense_bytes", 0)),
            "design.evaluations": c["design.evaluations"] * per,
            "design.evals_per_s": (
                c["design.evaluations"] / inclusive_design if inclusive_design else 0.0
            ),
            "design.useful_ratio": (
                c["design.greedy_steps"] / c["design.greedy_candidates"]
                if c["design.greedy_candidates"]
                else 0.0
            ),
            "simlab.edge_streams": c["simlab.edge_streams"] * per,
            "cli.bytes_out": c["cli.bytes_out"] * per,
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return m, problems


def dump(tracer: Tracer, path) -> None:
    """Write the spans as compact JSON: a name table and one row per span."""
    names = sorted({rec[2] for rec in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[op, parent, index[name], t0, t1] for op, parent, name, t0, t1 in tracer.spans]
    with open(path, "w") as fh:
        json.dump({"columns": ["op", "parent", "name", "start", "end"], "names": names,
                   "spans": rows}, fh, separators=(",", ":"))
