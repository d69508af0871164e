"""Time and size each stage of the tree layer on large trees, one fresh
process per stage.

Usage (from the repository root):

    python3 tools/scale.py [--k 15,18] [--shapes random,caterpillar,replicated]
                           [--stages parse,build,traits,sweep,merge,simulate,emit]

For each exponent k of ``--k`` and each shape, a preparing process writes a
2^k-tip tree, its trait table and the parsed arrays to a temporary
directory.  The shapes are:

- ``random``: ``simlab.random_tree(2^k, seed=1)``; above 2^16 tips, whose
  generation grows faster than the tree, 2^(k-16) relabelled copies of
  ``random_tree(2^16, seed=1)`` joined at one root;
- ``caterpillar``: each internal node has a tip and the next internal node
  as children, nested 2^k - 1 deep; internal nodes are labelled, so the
  simulation's edge keys stay short;
- ``replicated``: ``make_replicated_tree(ReplicationSpec(2, 0.8, k))``.

Each stage then runs in a fresh interpreter, which first loads the stage's
inputs (untimed) and then runs the stage once untraced and once under
tracemalloc:

- ``parse``: ``tree._newick_arrays`` on the Newick text;
- ``build``: ``PhyloTree`` from the parsed arrays;
- ``traits``: ``load_traits`` of a table ``tip,y,x1``;
- ``sweep``: ``scaled_ess_pruning``;
- ``merge``: ``stepwise_design`` forward to min(20, n) tips, the design
  merge up the tree plus one sweep of its trajectory's masks;
- ``simulate``: ``simulate_bm`` at one replicate;
- ``emit``: ``cli.emit_json`` of the JSON that ``treegls simulate`` writes
  at one replicate, with the tip heights as the values.

Prints one line per stage: the wall seconds of the untraced run, the
tracemalloc peak of the traced run in MB (the stage's own Python and numpy
allocations), and the child's ``ru_maxrss`` in MB read after the untraced
run, which also holds the stage's inputs and the interpreter.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treegls import (  # noqa: E402
    PhyloTree,
    load_traits,
    scaled_ess_pruning,
    stepwise_design,
    write_newick,
)
from treegls.cli import emit_json  # noqa: E402
from treegls.simlab import (  # noqa: E402
    ReplicationSpec,
    make_replicated_tree,
    random_tree,
    simulate_bm,
)
from treegls.tree import _newick_arrays  # noqa: E402

SHAPES = ("random", "caterpillar", "replicated")
STAGES = ("parse", "build", "traits", "sweep", "merge", "simulate", "emit")
RANDOM_MAX_K = 16  # larger random trees are copies of one this size


def caterpillar(n: int) -> PhyloTree:
    """An n-tip caterpillar: internal node i (0 the root) has internal node
    i + 1 and tip t{i} as children, and the deepest one two tips."""
    inner = n - 1
    parent = np.concatenate(([-1], np.arange(inner - 1), np.arange(inner), [inner - 1]))
    i = np.arange(2 * n - 1)
    edge = (i % 7 + 1) / 8.0
    edge[0] = 0.0
    names = [f"n{j}" for j in range(inner)] + [f"t{j}" for j in range(n)]
    return PhyloTree(parent, edge, names)


def random_text(k: int) -> str:
    """The Newick text of the ``random`` shape with 2^k tips."""
    tree = random_tree(2 ** min(k, RANDOM_MAX_K), seed=1)
    copies = 2 ** max(0, k - RANDOM_MAX_K)
    if copies == 1:
        return write_newick(tree)
    parts = []
    for c in range(copies):
        names = [None if nm is None else f"c{c}{nm}" for nm in tree.names]
        parts.append(write_newick(PhyloTree(tree.parent, tree.edge_length, names))[:-1])
    return "(" + ":1.0,".join(parts) + ":1.0);"


def prepare(shape: str, k: int, workdir: Path) -> None:
    """Write the shape's tree text, its parsed arrays and a trait table."""
    if shape == "random":
        text = random_text(k)
    elif shape == "caterpillar":
        text = write_newick(caterpillar(2 ** k))
    else:
        text = write_newick(make_replicated_tree(ReplicationSpec(2, 0.8, k)))
    (workdir / "tree.nwk").write_text(text)
    parent, edge, names = _newick_arrays(text)
    np.save(workdir / "parent.npy", parent)
    np.save(workdir / "edge.npy", edge)
    # Labels are nonempty and hold no line breaks: an empty line is None.
    (workdir / "names.txt").write_text("\n".join(nm or "" for nm in names))
    tips = PhyloTree(parent, edge, names).tip_labels
    values = np.random.default_rng(k).normal(size=(len(tips), 2))
    rows = [f"{lab},{y!r},{x!r}" for lab, (y, x) in zip(tips, values.tolist())]
    (workdir / "traits.csv").write_text("tip,y,x1\n" + "\n".join(rows) + "\n")


def stage_call(stage: str, workdir: Path):
    """The stage as a call without arguments, its inputs loaded."""
    if stage == "parse":
        text = (workdir / "tree.nwk").read_text()
        return lambda: _newick_arrays(text)
    parent = np.load(workdir / "parent.npy")
    edge = np.load(workdir / "edge.npy")
    names = [nm or None for nm in (workdir / "names.txt").read_text().split("\n")]
    if stage == "build":
        return lambda: PhyloTree(parent, edge, names)
    tree = PhyloTree(parent, edge, names)
    if stage == "traits":
        return lambda: load_traits(workdir / "traits.csv", tree)
    if stage == "sweep":
        return lambda: scaled_ess_pruning(tree)
    if stage == "merge":
        return lambda: stepwise_design(tree, min(20, tree.n_tips))
    if stage == "simulate":
        return lambda: simulate_bm(tree, 0.0, 1.0, 1)
    report = {"tips": list(tree.tip_labels), "values": [tree.tip_heights.tolist()], "seed": 1}
    return lambda: emit_json(report, io.StringIO())


def run_stage(stage: str, workdir: Path) -> dict:
    """Wall seconds, tracemalloc peak MB and max RSS MB of one stage."""
    call = stage_call(stage, workdir)
    gc.collect()
    t0 = time.perf_counter()
    result = call()
    wall = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del result
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"wall_s": wall, "peak_mb": peak / 2 ** 20, "max_rss_mb": rss}


def child(args: list[str]) -> str:
    """The standard output of this tool run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"scale.py {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", default="15", help="comma list of tip-count exponents")
    parser.add_argument("--shapes", default=",".join(SHAPES))
    parser.add_argument("--stages", default=",".join(STAGES))
    # The fresh interpreters' own entry points.
    parser.add_argument("--prepare", nargs=3, metavar=("SHAPE", "K", "DIR"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--stage", nargs=2, metavar=("STAGE", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.prepare:
        shape, k, workdir = args.prepare
        prepare(shape, int(k), Path(workdir))
        return
    if args.stage:
        print(json.dumps(run_stage(args.stage[0], Path(args.stage[1]))))
        return
    shapes, stages = args.shapes.split(","), args.stages.split(",")
    for name in shapes:
        if name not in SHAPES:
            parser.error(f"unknown shape {name!r}")
    for name in stages:
        if name not in STAGES:
            parser.error(f"unknown stage {name!r}")
    print(f"{'shape':<12}{'tips':>9}  {'stage':<10}{'wall_s':>9}{'peak_mb':>10}{'max_rss_mb':>12}",
          flush=True)
    for k in map(int, args.k.split(",")):
        for shape in shapes:
            with tempfile.TemporaryDirectory() as tmp:
                child(["--prepare", shape, str(k), tmp])
                for stage in stages:
                    got = json.loads(child(["--stage", stage, tmp]))
                    print(f"{shape:<12}{2 ** k:>9}  {stage:<10}{got['wall_s']:>9.3f}"
                          f"{got['peak_mb']:>10.1f}{got['max_rss_mb']:>12.1f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
