"""treegls benchmark: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload wide_cli --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One op is one in-process ``treegls.cli.main(argv)`` call with stdout
captured, or, for ``experiment``, one ``simlab.convergence_experiment`` call.
Each workload repeats its op list ("cycle") back to back until ``--seconds``
have passed; the window closes at the end of the cycle running then.
Times are host-speed normalised: a fixed reference loop is timed around and,
every 50 ms, during every timed step, and the step's wall time is rescaled to
a host on which that loop takes ``REF_S`` seconds (see ``perfbench/README.md``).
``--trace 1`` spends the first half of the window untraced and the second
half with spans around the package's public functions, and reports the
per-layer metrics.  ``--workload all`` runs every workload in its own
process (and, with ``--trace 1``, a separate traced process after each).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout; without it the run exits with status
2 and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3  # input generation + parse repeated; set-up reports the median
# Seconds one reference() call takes on the benchmark's machine when nothing
# else slows the host (about its fastest observed time; see README
# "Steadiness").
REF_S = 0.0003
MODULES = ("cli", "tree", "covariance", "gls", "ess", "modelsel", "design", "simlab")
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "peak_rss_mb": "MB"}
perf = time.perf_counter


def _malloc_trim():
    """glibc's malloc_trim(0), or a no-op where there is none."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        trim = libc.malloc_trim
    except (OSError, AttributeError, TypeError):
        return lambda: None
    trim.argtypes = [ctypes.c_size_t]
    return lambda: trim(0)


malloc_trim = _malloc_trim()


# The reference loop's data: 256k floats (about 8 MB with the list) read in a
# fixed random order, so each read goes past the core's private caches.
_REF_VALUES = [float(i) for i in range(1 << 18)]
_REF_ORDER = [random.Random(0).randrange(1 << 18) for _ in range(12_000)]


def reference() -> float:
    """Fixed interpreter-bound work, independent of the program: its time
    tracks how fast the shared host runs Python code right now.  Random
    reads from a list larger than L2 slow down with the host about as much
    as the program's ops do (README "Steadiness" has the measurement).  It
    allocates nothing the garbage collector tracks."""
    acc = 0.0
    values = _REF_VALUES
    for i in _REF_ORDER:
        acc += values[i]
    return acc


class HostClock:
    """Times steps in host-normalised seconds.

    reference() runs EDGE_SAMPLES times right before and right after a step,
    and from a SIGALRM handler every SAMPLE_EVERY seconds while the step
    runs.  The handler's own time is taken out of the step's wall time.  A
    step that took ``dt`` wall seconds counts ``dt * REF_S * mean(1 / r)``
    host-normalised seconds over its reference times ``r``: its wall time on
    a host on which reference() takes REF_S.
    """

    SAMPLE_EVERY = 0.05
    EDGE_SAMPLES = 3

    def __init__(self):
        self.samples = []
        self.in_handler = 0.0

    def _sample(self):
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf()
        reference()
        dt = perf() - t0
        if enabled:
            gc.enable()
        self.samples.append(dt)

    def _tick(self, signum, frame):
        t0 = perf()
        self._sample()
        self.in_handler += perf() - t0

    def measure(self, fn, *args):
        """Run fn(*args); returns (result, wall seconds, host-normalised seconds)."""
        self.samples, self.in_handler = [], 0.0
        for _ in range(self.EDGE_SAMPLES):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        t0 = perf()
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY, self.SAMPLE_EVERY)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            dt = perf() - t0 - self.in_handler
            signal.signal(signal.SIGALRM, previous)
        for _ in range(self.EDGE_SAMPLES):
            self._sample()
        speed = statistics.fmean(REF_S / r for r in self.samples)
        return result, dt, dt * speed


clock = HostClock()


def import_program():
    """Import treegls from this checkout's src/ only.

    Returns (modules, wall seconds, host-normalised seconds).
    """
    src = ROOT / "src"
    if not (src / "treegls" / "__init__.py").is_file():
        raise ImportError(f"no treegls package under {src}")
    sys.path.insert(0, str(src))

    def load():
        return importlib.import_module("treegls"), {
            m: importlib.import_module(f"treegls.{m}") for m in MODULES}

    (pkg, modules), elapsed, scaled = clock.measure(load)
    if Path(pkg.__file__).resolve().parent != (src / "treegls").resolve():
        raise ImportError(f"treegls was imported from {pkg.__file__}, not {src}")
    modules[""] = pkg
    return modules, elapsed, scaled


def machine_info() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            info["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                (index / "size").read_text().strip()
            )
        except OSError:
            pass
    return info


def percentile_label(samples) -> str:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    if best is None:
        return "no percentile has 10 samples beyond it"
    value = statistics.quantiles(samples, n=1000, method="inclusive")[int(best * 10) - 1]
    return f"p{best:g}={value:.6g}"


class Runner:
    def __init__(self, modules, plan):
        self.api = modules
        self.plan = plan
        self.first = {}  # op index -> first stdout, checked against the oracle
        self.failures = []
        self.tracer = None

    def call_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self.api["cli"].main(argv)
        return status, out.getvalue(), err.getvalue()

    def invoke(self, op):
        if op.argv is None:
            return 0, op.call(self.api), ""
        return self.call_cli(op.argv)

    def run_op(self, i, op):
        """Time one op; returns (wall seconds, host-normalised seconds, ok).

        gc, malloc_trim and the reference timings run before and after,
        untimed.
        """
        # Each op starts from a collected, trimmed heap, as a fresh CLI
        # process would, so the peak resident set does not depend on how
        # earlier ops left the allocator's free lists.
        gc.collect()
        malloc_trim()
        call = self.invoke
        if self.tracer is not None:
            self.tracer.op += 1
            call = self.tracer.wrap("op", self.invoke)

        def attempt():
            try:
                return call(op), None
            except (Exception, SystemExit):  # a traceback, or argparse giving up
                return None, traceback.format_exc(limit=4)

        (outcome, tb), dt, scaled = clock.measure(attempt)
        if tb is not None:
            self.fail(op, "raised:\n" + tb)
            return dt, scaled, False
        status, raw, err = outcome
        text = op.render(raw)
        if self.tracer is not None and op.argv is not None:
            self.tracer.counts["cli.bytes_out"] += len(text)
        if status != 0:
            self.fail(op, f"exit {status}: {err.strip()[:300]}")
            return dt, scaled, False
        if i not in self.first:
            self.first[i] = text
            try:
                op.check(text)
            except Exception as exc:  # a wrong or malformed output
                self.first[i] = None
                self.fail(op, f"output check: {type(exc).__name__}: {exc}")
                return dt, scaled, False
        if text != self.first[i]:
            self.fail(op, "output differs from the first run of the same command")
            return dt, scaled, False
        return dt, scaled, True

    def fail(self, op, why):
        if len(self.failures) < 10:
            self.failures.append(f"{op.kind}/{op.label}: {why}")

    def window(self, seconds):
        """Closed loop over the cycle until ``seconds`` have passed.

        Returns (cycles, attempted, failed, ops_per_s, wall_ops_per_s): per
        cycle the host-normalised seconds spent in each op kind; throughput as
        the cycle's successful ops over the sum of each op's median
        host-normalised time; and the same from the median wall cycle time.
        """
        cycles, attempted, failed, busy = [], 0, 0, []
        per_op = [[] for _ in self.plan.ops]
        start = perf()
        while not cycles or perf() - start < seconds:
            per_kind, wall = defaultdict(float), 0.0
            for i, op in enumerate(self.plan.ops):
                dt, scaled, ok = self.run_op(i, op)
                per_kind[op.kind] += scaled
                per_op[i].append(scaled)
                wall += dt
                attempted += 1
                failed += not ok
            cycles.append(dict(per_kind))
            busy.append(wall)
        done = len(self.plan.ops) * (1.0 - failed / attempted)
        ops_per_s = done / sum(statistics.median(t) for t in per_op)
        return cycles, attempted, failed, ops_per_s, done / statistics.median(busy)

    def probes(self):
        results = []
        for probe in self.plan.probes:
            gc.collect()
            try:
                probe.check(*self.call_cli(probe.argv))
                results.append((probe.name, True, ""))
            except (Exception, SystemExit) as exc:  # a traceback or a wrong answer
                results.append((probe.name, False, f"{type(exc).__name__}: {str(exc)[:160]}"))
        gc.collect()
        return results


def run_workload(args) -> int:
    # The program (and with it numpy and scipy) is imported first, so that
    # its import time is measured as part of set-up.
    try:
        modules, import_wall_s, import_s = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    why, generate, make_plan = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT)
    try:
        def generate_and_parse():
            inputs = generate(args.seed, workdir)
            for name in inputs.trees:
                with open(os.path.join(workdir, name)) as fh:
                    modules["tree"].parse_newick(fh.read().strip())
            return inputs

        gen_times, gen_wall = [], []
        for _ in range(SETUP_REPS):
            inputs, dt, scaled = clock.measure(generate_and_parse)
            gen_times.append(scaled)
            gen_wall.append(dt)
        t0 = perf()
        plan = make_plan(inputs, args.seed)
        oracle_s = perf() - t0
        # Keep the benchmark's own objects out of the collections that run
        # inside timed ops.
        gc.collect()
        gc.freeze()

        runner = Runner(modules, plan)
        warm_s, warm_wall, warm_failed, seen = 0.0, 0.0, 0, set()
        for i, op in enumerate(plan.ops):
            if op.kind not in seen:
                seen.add(op.kind)
                dt, scaled, ok = runner.run_op(i, op)
                warm_s += scaled
                warm_wall += dt
                warm_failed += not ok
        setup_s = import_s + statistics.median(gen_times) + warm_s
        wall_setup_s = import_wall_s + statistics.median(gen_wall) + warm_wall
        probes = runner.probes()

        half = args.seconds / 2.0 if args.trace else args.seconds
        cycles, attempted, failed, ops_per_s, wall_ops_per_s = runner.window(half)
        layer, problems, wrapped = {}, [], []
        if args.trace:
            tracer = spans.Tracer()
            wrapped = spans.install(tracer, modules)
            runner.tracer = tracer
            t_cycles, t_att, t_failed, t_ops_per_s, _ = runner.window(half)
            attempted += t_att
            failed += t_failed
            overhead = t_ops_per_s / ops_per_s if ops_per_s else 0.0
            layer, problems = spans.layer_metrics(tracer, len(t_cycles), overhead)
            spans.dump(tracer, OUT / f"spans-{args.workload}-seed{args.seed}.json")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds = {}
    for kind in dict.fromkeys(op.kind for op in plan.ops):
        samples = [c[kind] for c in cycles]
        kinds[f"{kind}_s"] = {
            "value": statistics.median(samples),
            "unit": "s",
            "samples": len(samples),
            "tail": percentile_label(samples),
        }
    e2e = {"setup_s": setup_s, "ops_per_s": ops_per_s, "peak_rss_mb": peak_rss_mb}
    probe_failed = sum(not ok for _, ok, _ in probes)
    report = {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "setup": {"import_s": import_s, "generate_parse_s": gen_times, "warmup_s": warm_s,
                  "oracle_s": oracle_s},
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
        "wall": {"setup_s": wall_setup_s, "ops_per_s": wall_ops_per_s,
                 "generate_parse_s": gen_wall},
        "per_kind": kinds,
        "cycles": cycles,
        "fail_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted,
                       "warmup_failed": warm_failed},
        "failures": runner.failures,
        "probes": [{"name": n, "ok": ok, "detail": d} for n, ok, d in probes],
        "per_layer": {k: {"value": v, "unit": spans.UNITS.get(k, "s")} for k, v in layer.items()},
        "trace_problems": problems,
        "wrapped": wrapped,
    }
    if probes:
        report["probe_fail_ratio"] = {"value": probe_failed / len(probes),
                                      "failed": probe_failed, "attempted": len(probes)}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print_report(report, cycles)

    correct = failed == 0 and warm_failed == 0 and not problems
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0




def print_report(r, cycles) -> None:
    w = r["workload"]
    m = r["machine"]
    print(f"== {w}: {r['why']}")
    print(f"   seed {r['seed']}, {len(cycles)} cycles, closed loop, 1 client; "
          f"{m['cpu']}, nproc {m['nproc']}, caches {m['caches']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, BLAS threads 1")
    s = r["setup"]
    print(f"   setup: import {s['import_s']:.4f} s, generate+parse median "
          f"{statistics.median(s['generate_parse_s']):.4f} s of {len(s['generate_parse_s'])}, "
          f"warm-up {s['warmup_s']:.4f} s; oracle {s['oracle_s']:.4f} s wall (not in setup_s)")
    print(f"   times are host-normalised (reference loop at {REF_S} s) unless marked wall")
    for name, v in r["end_to_end"].items():
        print(f"   {name:<16} {v['value']:>14.6g} {v['unit']}")
    wall = r["wall"]
    print(f"   {'wall setup_s':<16} {wall['setup_s']:>14.6g} s")
    print(f"   {'wall ops_per_s':<16} {wall['ops_per_s']:>14.6g} ops/s   from the median wall cycle")
    for name, v in r["per_kind"].items():
        print(f"   {name:<16} {v['value']:>14.6g} s   median of {v['samples']} cycles; {v['tail']}")
    f = r["fail_ratio"]
    print(f"   {'fail_ratio':<16} {f['value']:>14.6g} ratio ({f['failed']} of {f['attempted']} ops)")
    if "probe_fail_ratio" in r:
        p = r["probe_fail_ratio"]
        print(f"   {'probe_fail_ratio':<16} {p['value']:>14.6g} ratio "
              f"({p['failed']} of {p['attempted']} probes)")
        for probe in r["probes"]:
            print(f"      {'ok  ' if probe['ok'] else 'FAIL'} {probe['name']} {probe['detail']}")
    for line in r["failures"]:
        print(f"   failure: {line}")
    for name, v in r["per_layer"].items():
        print(f"   {name:<30} {v['value']:>14.6g} {v['unit']}")
    for line in r["trace_problems"]:
        print(f"   trace self-check: {line}")


def run_all(args) -> int:
    """Every workload in its own process; the traced runs are separate ones."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, end="", file=sys.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
