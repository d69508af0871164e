"""Time each command from a fresh interpreter, as a shell user runs it.

Usage (from the repository root):

    python3 tools/cold_start.py [--runs N]

Writes a four-tip tree and a trait table to a temporary directory, then runs
``python -m treegls <command> ...`` on them once per run for every command.
Prints one line per command: the median wall time of its runs in
milliseconds, and the largest resident set of its runs in MB, read from the
child's own resource usage.  Almost all of either is start-up: importing the
package and what it loads.  The in-process benchmark imports the package
once and never sees this cost.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TREE = "((A:0.5,B:0.5)ab:0.5,(C:0.4,D:0.4)cd:0.6);\n"
TRAITS = "tip,mass,temp\nA,1.0,0.2\nB,1.2,0.1\nC,0.3,-0.4\nD,0.2,-0.2\n"

# Every command, with flags in which {tree} and {traits} name the inputs.
COMMANDS = {
    "ess": ["--tree", "{tree}"],
    "fit": ["--tree", "{tree}", "--traits", "{traits}"],
    "shift": ["--tree", "{tree}", "--traits", "{traits}", "--shift-node", "ab"],
    "design": ["--tree", "{tree}", "--size", "2"],
    "score": ["--tree", "{tree}", "--traits", "{traits}", "--shift-node", "ab"],
    "simulate": ["--tree", "{tree}", "--seed", "1"],
    "phase": ["--d", "2", "--q", "0.5", "--m-max", "3"],
    "eigs": ["--d", "2", "--q", "0.5", "--m-max", "3"],
}


def command_argv(name: str, tree: str, traits: str) -> list[str]:
    """The ``python -m treegls`` arguments of one command on the inputs."""
    return [name] + [a.format(tree=tree, traits=traits) for a in COMMANDS[name]]


def run_once(args: list[str], env: dict) -> tuple[float, float]:
    """Wall seconds and peak resident MB of one fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "treegls", *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    # wait4 reports this child's own usage; ru_maxrss is in KiB on Linux.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"treegls {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.read().decode()}")
    proc.stderr.close()
    return wall, usage.ru_maxrss / 1024.0


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per command")
    args = parser.parse_args(argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        tree, traits = Path(tmp, "tree.nwk"), Path(tmp, "traits.csv")
        tree.write_text(TREE)
        traits.write_text(TRAITS)
        print(f"{'command':<10}{'wall_ms':>10}{'max_rss_mb':>12}")
        for name in COMMANDS:
            runs = [run_once(command_argv(name, str(tree), str(traits)), env)
                    for _ in range(args.runs)]
            wall = statistics.median(w for w, _ in runs)
            rss = max(r for _, r in runs)
            print(f"{name:<10}{wall * 1e3:>10.1f}{rss:>12.1f}")


if __name__ == "__main__":
    main(sys.argv[1:])
