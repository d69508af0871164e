"""Check that ``treegls simulate`` draws its replicates from N(0, V).

Usage (from the repository root):

    python3 tools/stream_law.py TREE [--seeds 0:10] [--reps 50]

Runs ``treegls simulate --tree TREE --seed S --reps R`` in-process for each
seed S of ``--seeds`` (comma-separated seeds or half-open ranges A:B) and
reads its JSON output.  Each replicate z should be N(0, V), V the tree's
Brownian covariance, so the sum over replicates of z'V^{-1}z is chi-square
with R n degrees of freedom, n the number of tips.  Prints one line per
seed with that sum's standardized value, (sum - R n) / sqrt(2 R n), taken
from the package's own contrast sweep (``quadratic_forms_pruning``).  The
value is about N(0, 1); the benchmark's ``simulate`` check refuses it at
|z| >= 6.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from treegls import cli, parse_newick, quadratic_forms_pruning  # noqa: E402


def seed_list(text: str) -> list[int]:
    """The seeds of a comma list of seeds and half-open ranges A:B."""
    seeds = []
    for part in text.split(","):
        lo, colon, hi = part.partition(":")
        seeds.extend(range(int(lo), int(hi)) if colon else [int(lo)])
    return seeds


def simulated(path: str, seed: int, reps: int) -> dict:
    """The JSON output of ``treegls simulate`` on the tree file."""
    out, err = io.StringIO(), io.StringIO()
    args = ["simulate", "--tree", path, "--seed", str(seed), "--reps", str(reps)]
    if cli.run(cli.parse_args(args), out=out, err=err) != 0:
        raise SystemExit(f"treegls {' '.join(args)} failed: {err.getvalue()}")
    return json.loads(out.getvalue())


def chi_square_z(tree, values: np.ndarray) -> float:
    """The standardized sum of z'V^{-1}z over the rows of ``values``
    (replicates by tips, in the tree's tip order)."""
    forms = quadratic_forms_pruning(tree, values.T, np.zeros(tree.n_tips))
    dof = values.size
    return (float(np.trace(forms.xtvix)) - dof) / math.sqrt(2.0 * dof)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", help="Newick tree file")
    parser.add_argument("--seeds", default="0:10", type=seed_list,
                        help="seeds and half-open ranges A:B, comma-separated")
    parser.add_argument("--reps", type=int, default=50, help="replicates per seed")
    args = parser.parse_args(argv)
    tree = parse_newick(Path(args.tree).read_text())
    print(f"{'seed':<8}{'chi2_z':>8}")
    for seed in args.seeds:
        got = simulated(args.tree, seed, args.reps)
        if got["tips"] != list(tree.tip_labels):
            raise SystemExit("simulate output is not in the tree's tip order")
        print(f"{seed:<8}{chi_square_z(tree, np.asarray(got['values'])):>8.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
