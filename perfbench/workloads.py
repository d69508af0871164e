"""The workloads: generated inputs, op cycles, oracles and probes.

Each workload has a ``generate(seed, workdir)`` step, which writes its input
files and is part of set-up, and a ``plan(inputs, seed)`` step, which
computes the reference answers once and returns the op cycle.  An op is one
in-process CLI call (``argv``) or one library call (``call``); its check
raises :class:`oracle.OracleMismatch` when the output is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import numpy as np

import gen
from oracle import (
    Arrays,
    Greedy,
    OracleMismatch,
    check_fit,
    check_score,
    contrast_forms,
    dense_bm,
    dense_forms,
    dense_ou,
    exact_gls_intercept,
    exhaustive,
    expect_close,
    expect_equal,
    fit_from_forms,
    mean_height,
    replicated_variance,
    scaled_ess,
    scores,
)


@dataclass
class Op:
    kind: str  # the end-to-end metric it is timed under: <kind>_s
    label: str
    check: Callable[[str], None]
    argv: list | None = None
    call: Callable | None = None  # library op: api -> result
    render: Callable = str  # result -> text compared across cycles


@dataclass
class Probe:
    name: str
    argv: list
    check: Callable[[int, str, str], None]  # (exit status, stdout, stderr)


@dataclass
class Plan:
    ops: list
    probes: list = field(default_factory=list)


def _write(workdir, name, text) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _columns(tree, table, *extra):
    """[1, extra..., x1..xk, y] in the tree's canonical tip order."""
    rows = np.array([table[lab] for lab in tree.tip_labels])
    return np.column_stack((np.ones(tree.n_tips),) + extra + (rows[:, 1:], rows[:, 0]))


def _fit_oracle(tree, table, *extra):
    G, logdet = contrast_forms(Arrays(tree), _columns(tree, table, *extra))
    return fit_from_forms(G, logdet, tree.n_tips)


def _check_fit_json(want, n_cov):
    def check(text):
        got = json.loads(text)
        check_fit("fit", got, want)
        expect_equal("response", got["response"], "y")
        expect_equal("covariates", got["covariates"], [f"x{j + 1}" for j in range(n_cov)])

    return check


def _m0_penalties(fit, n_e):
    k = fit["rank"] - 1
    return {"consistent": (k + 1) * math.log(fit["n"]), "intercept": math.log1p(n_e)}


def _check_scores(want):
    def check(text):
        got = json.loads(text)
        expect_equal("models", [g["model"] for g in got], [w["model"] for w in want])
        for g, w in zip(got, want):
            check_score(w["model"], g, w)

    return check


# --------------------------------------------------------------------- #
# wide_cli: one 2^15-tip replicated tree, every call re-reads it
# --------------------------------------------------------------------- #

WIDE_D, WIDE_Q, WIDE_M, WIDE_COV = 2, 0.8, 15, 2


def generate_wide(seed, workdir):
    rng = random.Random(seed)
    tree = gen.replicated(rng, WIDE_D, WIDE_Q, WIDE_M)
    table = gen.traits(rng, tree, WIDE_COV)
    lo, hi = tree.tip_range()
    clades = [u for u in tree.preorder if hi[u] - lo[u] == 4]
    focal = clades[rng.randrange(len(clades))]
    return SimpleNamespace(
        tree=tree,
        table=table,
        focal=focal,
        clade=tree.tip_labels[lo[focal]:hi[focal]],
        nwk=_write(workdir, "wide.nwk", tree.newick()),
        csv=_write(workdir, "wide.csv", gen.traits_csv(table, WIDE_COV)),
        trees=["wide.nwk"],
    )


def plan_wide(inp, seed):
    t, table, clade = inp.tree, inp.table, inp.clade
    n = t.n_tips
    arr = Arrays(t)
    lengths = gen.replication_lengths(WIDE_Q, WIDE_M)
    s = 1.0 / replicated_variance(WIDE_D, lengths)
    T = mean_height(arr)
    fit0 = _fit_oracle(t, table)
    in_clade = np.array([lab in set(clade) for lab in t.tip_labels])

    def check_ess(text):
        got = json.loads(text)
        expect_equal("n", got["n"], n)
        expect_close("scaled_ess (closed form)", got["scaled_ess"], s)
        expect_close("T", got["T"], T)
        expect_close("n_e", got["n_e"], T * s)
        expect_close("bound_root", got["bound_root"], WIDE_D * T / lengths[0])
        expect_close("bound_length", got["bound_length"], math.fsum(t.edge) / T)
        expect_equal("ultrametric", got["ultrametric"], True)

    # M1(S) is scored on the tree rerooted at the base of the focal lineage.
    r = t.reroot(t.parent[inp.focal])
    arr_r = Arrays(r)
    top_r = np.array([lab in set(clade) for lab in r.tip_labels])
    lo, hi = r.tip_range()
    focal_r = min(
        (u for u in range(r.n_nodes)
         if hi[u] - lo[u] == 4 and set(r.tip_labels[lo[u]:hi[u]]) == set(clade)),
        key=lambda u: r.level[u],
    )
    fit1 = _fit_oracle(r, table, top_r.astype(float))
    n_e_top = mean_height(arr_r) * scaled_ess(Arrays(r.subtree(focal_r)))
    n_e_bot = mean_height(arr_r, ~top_r) * scaled_ess(arr_r, ~top_r)
    want_scores = [
        scores(fit0, _m0_penalties(fit0, T * s), "M0"),
        scores(
            fit1,
            {
                "consistent": (fit1["rank"] - 1) * math.log(n),
                "intercept": math.log1p(n_e_bot),
                "shift": math.log1p(n_e_top),
            },
            "M1(S)",
        ),
    ]

    # SB: forms against diag(V_top, V_bottom), the two pieces cut at the
    # focal lineage's subtending edge.
    top = t.subtree(inp.focal)
    arr_top = Arrays(top)
    G_top, ld_top = contrast_forms(arr_top, _columns(top, table, np.ones(top.n_tips)))
    G_bot, ld_bot = contrast_forms(arr, _columns(t, table, in_clade.astype(float)), ~in_clade)
    fit_sb = fit_from_forms(G_top + G_bot, ld_top + ld_bot, n)
    T_top = mean_height(arr_top)
    want_shift = {
        "mode": "SB",
        "subtending_length": t.edge[inp.focal],
        "k_top": len(t.children[inp.focal]),
        "t_top_min": min(t.edge[c] for c in t.children[inp.focal]),
        "top_height": T_top,
        "n_top": 4,
        "top_tips": list(clade),
    }

    sb_n_e_top = T_top * scaled_ess(arr_top)
    sb_n_e_bot = mean_height(arr, ~in_clade) * scaled_ess(arr, ~in_clade)

    def check_shift(text):
        got = json.loads(text)
        check_fit("SB fit", got, fit_sb)
        for key in ("mode", "k_top", "n_top", "top_tips"):
            expect_equal(f"shift {key}", got["shift"][key], want_shift[key])
        for key in ("subtending_length", "t_top_min", "top_height"):
            expect_close(f"shift {key}", got["shift"][key], want_shift[key])
        expect_close("n_e_top", got["n_e_top"], sb_n_e_top)
        expect_close("n_e_bot", got["n_e_bot"], sb_n_e_bot)

    node = ",".join(clade)
    tr, tx = ["--tree", inp.nwk], ["--traits", inp.csv]
    return Plan(
        ops=[
            Op("ess", "ess", check_ess, ["ess"] + tr),
            Op("fit", "fit", _check_fit_json(fit0, WIDE_COV), ["fit"] + tr + tx),
            Op("score", "score S", _check_scores(want_scores),
               ["score"] + tr + tx + ["--shift-node", node]),
            Op("shift", "shift SB", check_shift,
               ["shift"] + tr + tx + ["--shift-node", node, "--shift-mode", "SB"]),
        ]
    )


# --------------------------------------------------------------------- #
# design_search: greedy, exhaustive and random subset searches
# --------------------------------------------------------------------- #

DESIGN_N, DESIGN_K, DESIGN_DROP = 200, 20, 20


def generate_design(seed, workdir):
    rng = random.Random(seed)
    trees = {"main": gen.coalescent(rng, DESIGN_N), "t16": gen.coalescent(rng, 16),
             "t40": gen.coalescent(rng, 40)}
    paths = {k: _write(workdir, f"design_{k}.nwk", t.newick()) for k, t in trees.items()}
    return SimpleNamespace(trees_by_name=trees, paths=paths,
                           trees=[os.path.basename(p) for p in paths.values()])


def _heights(tree):
    return np.asarray(tree.depth)[tree.tips]


def _check_greedy(tree, V, want: Greedy, method):
    labels = tree.tip_labels
    heights = _heights(tree)

    def check(text):
        got = json.loads(text)
        expect_equal("method", got["method"], method)
        expect_equal("evaluations", got["evaluations"], want.evaluations)
        expect_equal("trajectory length", len(got["trajectory"]), len(want.trajectory))
        idx = [labels.index(lab) for lab in got["selected"]]
        score = float(np.linalg.inv(V[np.ix_(idx, idx)]).sum())
        expect_close("score of the selected tips", got["score"], score)
        expect_close("n_e", got["n_e"], float(heights[idx].mean()) * score)
        if not want.near_tie:
            expect_equal("selected", got["selected"], [labels[i] for i in sorted(want.selected)])
            expect_equal("trajectory sizes", [k for k, _ in got["trajectory"]],
                         [k for k, _ in want.trajectory])
            expect_close("trajectory scores", [s for _, s in got["trajectory"]],
                         [s for _, s in want.trajectory])

    return check


def plan_design(inp, seed):
    t, t16, t40 = (inp.trees_by_name[k] for k in ("main", "t16", "t40"))
    V, V16, V40 = dense_bm(t), dense_bm(t16), dense_bm(t40)
    forward = Greedy(V, _heights(t), DESIGN_K, "forward")
    backward = Greedy(V, _heights(t), DESIGN_N - DESIGN_DROP, "backward")
    best, best_s, second = exhaustive(V16, 8)
    path40 = Greedy(V40, _heights(t40), 40, "forward")
    full40 = float(_heights(t40).mean()) * float(np.linalg.inv(V40).sum())

    def check_random(text):
        got = json.loads(text)
        expect_equal("k", got["k"], 30)
        expect_equal("reps", got["reps"], 500)
        vals = [got[k] for k in ("q025", "median", "q975", "mean")]
        if not (all(math.isfinite(v) and v > 0 for v in vals)
                and got["q025"] <= got["median"] <= got["q975"]):
            raise OracleMismatch(f"random band out of order: {vals}")

    def check_exhaustive(text):
        got = json.loads(text)
        expect_equal("evaluations", got["evaluations"], math.comb(16, 8))
        expect_close("score", got["score"], best_s)
        if best_s - second > 1e-9 * best_s:
            expect_equal("selected", got["selected"], [t16.tip_labels[i] for i in best])
        idx = [t16.tip_labels.index(lab) for lab in got["selected"]]
        expect_close("n_e", got["n_e"], float(_heights(t16)[idx].mean()) * best_s)

    def check_bands(text):
        rows = list(csv.reader(io.StringIO(text)))
        expect_equal("header", rows[0], ["k", "q025", "median", "q975", "optimum"])
        table = np.array(rows[1:], dtype=float)
        expect_equal("k column", table[:, 0].tolist(), list(range(1, 41)))
        # A single tip has n_e = h * (1/h) = 1; the only size-40 subset is the tree.
        expect_close("k=1 band", table[0, 1:4], np.ones(3))
        expect_close("k=40 band", table[-1, 1:4], np.full(3, full40))
        if np.any(table[:, 1] > table[:, 2]) or np.any(table[:, 2] > table[:, 3]):
            raise OracleMismatch("band quantiles out of order")
        if path40.near_tie:
            expect_close("optimum at k=40", table[-1, 4], full40)
        else:
            expect_close("optimum column", table[:, 4], path40.n_e_path)

    main, p16, p40 = (["design", "--tree", inp.paths[k]] for k in ("main", "t16", "t40"))
    s = str(seed)
    return Plan(
        ops=[
            Op("design", "forward", _check_greedy(t, V, forward, "forward"),
               main + ["--method", "forward", "--size", str(DESIGN_K)]),
            Op("design", "backward", _check_greedy(t, V, backward, "backward"),
               main + ["--method", "backward", "--size", str(DESIGN_N - DESIGN_DROP)]),
            Op("design", "random", check_random,
               main + ["--method", "random", "--size", "30", "--reps", "500", "--seed", s]),
            Op("design", "exhaustive", check_exhaustive,
               p16 + ["--method", "exhaustive", "--size", "8"]),
            Op("design", "band table", check_bands,
               p40 + ["--method", "random", "--reps", "100", "--seed", s, "--format", "csv"]),
        ]
    )


# --------------------------------------------------------------------- #
# engine_sim, part 1: every code path of the covariance module
# --------------------------------------------------------------------- #

ENGINE_WIDE_COV = 24
PROBE_Y = (1.0, 2.0, 4.0)
RATIO_TREES = {"ratio_1e6": (1e-6, 1e6), "ratio_1e9": (1e-9, 1e9)}


def generate_engine(seed, workdir):
    rng = random.Random(seed)
    inp = SimpleNamespace(trees=[], sets={})
    specs = [
        ("vectorized", gen.coalescent(rng, 16384), ENGINE_WIDE_COV),
        ("sequential", gen.coalescent(rng, 4000, zero_frac=0.05), 2),
        ("ou", gen.coalescent(rng, 1500), 2),
        ("caterpillar", gen.caterpillar(rng, 900), 2),
    ]
    for name, tree, n_cov in specs:
        table = gen.traits(rng, tree, n_cov)
        inp.sets[name] = SimpleNamespace(
            tree=tree, table=table, n_cov=n_cov,
            nwk=_write(workdir, f"{name}.nwk", tree.newick()),
            csv=_write(workdir, f"{name}.csv", gen.traits_csv(table, n_cov)),
        )
        inp.trees.append(f"{name}.nwk")
    # Robustness probes: a deep caterpillar, a nan trait, extreme edge ratios.
    deep = gen.caterpillar(rng, 2000)
    inp.deep = SimpleNamespace(tree=deep, nwk=_write(workdir, "deep.nwk", deep.newick()))
    small = gen.coalescent(rng, 8)
    table = gen.traits(rng, small, 1)
    table[small.tip_labels[3]][0] = float("nan")
    inp.nan = SimpleNamespace(nwk=_write(workdir, "nan.nwk", small.newick()),
                              csv=_write(workdir, "nan.csv", gen.traits_csv(table, 1)))
    inp.ratio = {}
    for name, (short, long) in RATIO_TREES.items():
        text = f"((A:{short!r},B:{short!r}):{long!r},C:{long!r});\n"
        rows = "tip,y\n" + "".join(f"{lab},{y!r}\n" for lab, y in zip("ABC", PROBE_Y))
        inp.ratio[name] = SimpleNamespace(
            short=short, long=long,
            nwk=_write(workdir, f"{name}.nwk", text),
            csv=_write(workdir, f"{name}.csv", rows),
        )
    return inp


def _structured_error(status, out, err):
    if status != 1 or out:
        return False
    try:
        e = json.loads(err)["error"]
    except (ValueError, KeyError, TypeError):
        return False
    return isinstance(e, dict) and {"code", "message", "location"} <= set(e)


def plan_engine(inp, seed):
    ops = []
    for name, ds in inp.sets.items():
        argv = ["fit", "--tree", ds.nwk, "--traits", ds.csv]
        if name == "ou":
            V = dense_ou(ds.tree, 1.0)
            G, logdet = dense_forms(V, _columns(ds.tree, ds.table))
            want = fit_from_forms(G, logdet, ds.tree.n_tips)
            argv += ["--model", "ou", "--alpha", "1"]
        elif name == "caterpillar":
            V = dense_bm(ds.tree)
            G, logdet = dense_forms(V, _columns(ds.tree, ds.table))
            want = fit_from_forms(G, logdet, ds.tree.n_tips)
        else:
            want = _fit_oracle(ds.tree, ds.table)
        ops.append(Op("fit", name, _check_fit_json(want, ds.n_cov), argv))

    cat = inp.sets["caterpillar"]
    V = dense_bm(cat.tree)
    s = float(np.linalg.inv(V).sum())
    fit = fit_from_forms(*dense_forms(V, _columns(cat.tree, cat.table)), cat.tree.n_tips)
    n_e = float(np.diag(V).mean()) * s
    ops.append(Op("score", "caterpillar", _check_scores([scores(fit, _m0_penalties(fit, n_e), "M0")]),
                  ["score", "--tree", cat.nwk, "--traits", cat.csv]))

    deep_s = scaled_ess(Arrays(inp.deep.tree))

    def deep_check(status, out, err):
        if status != 0:
            raise OracleMismatch(f"exit {status}: {err.strip()[:200]}")
        expect_close("scaled_ess", json.loads(out)["scaled_ess"], deep_s)

    def nan_check(status, out, err):
        if not _structured_error(status, out, err):
            raise OracleMismatch("a nan trait value is not refused with a structured error")

    probes = [
        Probe("deep caterpillar ess (2000 tips)", ["ess", "--tree", inp.deep.nwk], deep_check),
        Probe("nan in trait table", ["fit", "--tree", inp.nan.nwk, "--traits", inp.nan.csv],
              nan_check),
    ]
    for name, rp in inp.ratio.items():
        # V of ((A:a,B:a):c,C:c); in exact rationals of the two doubles.
        a, c = Fraction(rp.short), Fraction(rp.long)
        exact = exact_gls_intercept([[a + c, c, 0], [c, a + c, 0], [0, 0, c]], PROBE_Y)

        def ratio_check(status, out, err, exact=exact):
            if _structured_error(status, out, err):
                return
            if status != 0:
                raise OracleMismatch(f"exit {status} without a structured error")
            expect_close("intercept vs exact rationals", json.loads(out)["beta"][0], float(exact))

        probes.append(Probe(f"edge ratio {name[6:]} intercept",
                            ["fit", "--tree", rp.nwk, "--traits", rp.csv], ratio_check))
    return Plan(ops=ops, probes=probes)


# --------------------------------------------------------------------- #
# engine_sim, part 2: simulation, the phase curve and the experiment
# --------------------------------------------------------------------- #

SIM_N, SIM_REPS = 2000, 50
PHASE_M = 16
EXPERIMENT = dict(family="fixed_root", sizes=(64, 128, 256, 512, 1024), beta=(1.0, 0.5), reps=500)


def generate_sim(seed, workdir):
    tree = gen.coalescent(random.Random(seed), SIM_N)
    return SimpleNamespace(tree=tree, nwk=_write(workdir, "sim.nwk", tree.newick()),
                           trees=["sim.nwk"])


def _render_report(report) -> str:
    return report.variance_csv() + report.increment_csv() + repr(report.sample_paths)


def plan_sim(inp, seed):
    t = inp.tree
    arr = Arrays(t)

    def check_simulate(text):
        got = json.loads(text)
        expect_equal("tips", got["tips"], t.tip_labels)
        expect_equal("seed", got["seed"], seed)
        values = np.asarray(got["values"], dtype=float)
        expect_equal("values shape", values.shape, (SIM_REPS, SIM_N))
        # Each replicate z ~ N(0, V), so z'V^{-1}z summed over replicates is
        # chi-square with reps * n degrees of freedom.
        G, _ = contrast_forms(arr, values.T)
        dof = SIM_REPS * SIM_N
        z = (float(np.trace(G)) - dof) / math.sqrt(2.0 * dof)
        if not abs(z) < 6.0:
            raise OracleMismatch(f"simulated values are not N(0, V): chi-square z = {z:.2f}")

    lengths = {m: gen.replication_lengths(0.8, m) for m in range(1, PHASE_M + 1)}

    def check_phase(text):
        got = json.loads(text)
        expect_equal("m column", [p["m"] for p in got], list(range(1, PHASE_M + 1)))
        expect_equal("n column", [p["n"] for p in got], [2 ** m for m in range(1, PHASE_M + 1)])
        closed = [replicated_variance(2, lengths[m]) for m in range(1, PHASE_M + 1)]
        for p, c in zip(got, closed):
            expect_close(f"var_closed m={p['m']}", p["var_closed"], c)
            expect_close(f"var_pruning m={p['m']}", p["var_pruning"], c)

    cfg = dict(EXPERIMENT, seed=seed)
    root_edge, height, sigma2 = 0.25, 1.0, 1.0

    def check_experiment(text):
        lines = text.splitlines()
        expect_equal("variance header", lines[0], "n,component,mc_var,theory")
        rows = [line.split(",") for line in lines[1:1 + 2 * len(cfg["sizes"])]]
        for n_str, comp, mc, theory in rows:
            n = int(n_str)
            if comp == "intercept":
                # Two root edges t, n/2 tips below each at h - t.
                want = sigma2 * (root_edge + 2.0 * (height - root_edge) / n) / 2.0
            else:
                want = sigma2 / (n - 1 - 2)
            expect_close(f"theory n={n} {comp}", float(theory), want)
            if not 0.5 < float(mc) / want < 2.0:
                raise OracleMismatch(f"Monte Carlo variance n={n} {comp}: {mc} vs {want}")

    return Plan(
        ops=[
            Op("simulate", "simulate", check_simulate,
               ["simulate", "--tree", inp.nwk, "--seed", str(seed), "--reps", str(SIM_REPS)]),
            Op("phase", "phase", check_phase,
               ["phase", "--d", "2", "--q", "0.8", "--m-max", str(PHASE_M)]),
            Op("experiment", "convergence", check_experiment,
               call=lambda api: api["simlab"].convergence_experiment(
                   api["simlab"].ConvergenceConfig(**cfg)),
               render=_render_report),
        ]
    )


def generate_engine_sim(seed, workdir):
    engine = generate_engine(seed, workdir)
    sim = generate_sim(seed, workdir)
    return SimpleNamespace(engine=engine, sim=sim, trees=engine.trees + sim.trees)


def plan_engine_sim(inp, seed):
    engine = plan_engine(inp.engine, seed)
    return Plan(ops=engine.ops + plan_sim(inp.sim, seed).ops, probes=engine.probes)


WORKLOADS = {
    "wide_cli": ("one 2^15-tip tree re-read by ess, fit, score and shift calls",
                 generate_wide, plan_wide),
    "design_search": ("greedy, exhaustive and random tip-subset searches",
                      generate_design, plan_design),
    "engine_sim": ("every covariance path (vectorized, sequential, dense OU, caterpillar) "
                   "and the simulation lab", generate_engine_sim, plan_engine_sim),
}
