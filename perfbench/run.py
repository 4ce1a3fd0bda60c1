#!/usr/bin/env python3
"""c0cover benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  One workload runs in this single process, so its peak
RSS is its own; ``--workload all`` runs every workload, each in a child
process of its own, and merges their results.  The workload is repeated
until ``--seconds`` is spent (at least once).  With ``--trace 0`` the run
prints the end-to-end metrics.  With ``--trace 1`` it spends half the time
untraced and half with spans recorded around every call into the layers
named in ``tracer.py``, prints the per-layer metrics, and writes the spans
to ``.perfbench_out/``.  Every output is checked against the fingerprints in
``fingerprints.json``; a mismatch counts as a failed operation.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

``--smoke`` runs each workload at reduced sizes and ``--perturb-alpha``
drops one alpha member before fingerprinting; ``test_smoke.py`` uses both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ["experiment-mix", "cover-scale", "cli-files", "verify-sweep"]
SETUP_REPEATS = 7
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads() -> None:
    """Keep numpy's BLAS/OpenMP pools at nproc or fewer; must run before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), NPROC) if current.isdigit() and int(current) > 0 else NPROC)


def fingerprint(meaning) -> str:
    return hashlib.sha256(json.dumps(meaning, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def import_seconds() -> float:
    """Import time of c0cover in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import c0cover; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing c0cover failed:\n{done.stderr}")
    return float(done.stdout)


class Stats:
    """What one measuring loop saw: iteration times, per-op times, bytes and failures."""

    def __init__(self):
        self.samples: list[float] = []
        self.op_times: dict[str, list[float]] = defaultdict(list)
        self.nbytes: list[int] = []
        self.attempted = 0
        self.failed = 0


def measure(ops, seconds: float, expected: dict, stats: Stats) -> Stats:
    """Run the ops in order, as one iteration, until another would overrun `seconds`."""
    start = perf_counter()
    while True:
        busy, nbytes = 0.0, 0
        for op in ops:
            try:
                t = perf_counter()
                result = op.run()
                dt = perf_counter() - t
                outcome = op.check(result)
            except Exception:
                traceback.print_exc()
                stats.attempted += 1
                stats.failed += 1
                continue
            del result
            busy += dt
            nbytes += outcome.nbytes
            stats.op_times[op.name].append(dt)
            stats.attempted += outcome.ops
            bad = outcome.bad
            if outcome.meaning is not None:
                got = fingerprint(outcome.meaning)
                want = expected.get(op.name)
                if got != want:
                    print(f"fingerprint mismatch: {op.name} got {got} expected {want}", file=sys.stderr)
                    bad = max(bad, 1)
            stats.failed += bad
        stats.samples.append(busy)
        stats.nbytes.append(nbytes)
        if perf_counter() - start + fmean(stats.samples) > seconds:
            return stats


def end_to_end_metrics(setup_s: float, stats: Stats) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        # the mean, not the median: a shared host alternates between fast and slow
        # spells of 10-30 s, and a median snaps to whichever spell filled most of a run
        "wall_s": (fmean(stats.samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_bytes": (median(stats.nbytes), "bytes"),
        "ok_ratio": (1 - stats.failed / max(stats.attempted, 1), "ratio"),
    }


def per_layer_metrics(tracer_mod, tr, plain: Stats, traced: Stats, exit2: int) -> dict:
    n = len(traced.samples)
    self_s, calls = tr.totals()
    c = tr.counts
    m = {}
    for name in tracer_mod.span_names():
        m[f"{name}.self_s"] = (self_s[name] / n, "s")
        m[f"{name}.calls"] = (calls[name] / n, "count")
    for name, unit in [
        ("packs.ladder_rungs", "count"),
        ("packs.pack_json_bytes", "bytes"),
        ("relations.pairs", "count"),
        ("canonical.recursion_steps", "count"),
        ("canonical.orphans", "count"),
        ("experiment.report_bytes", "bytes"),
    ]:
        m[name] = (c[name] / n, unit)
    rungs, checks = c["canonical.ladder_rungs"], c["cylinder.lower_bound_checks"]
    m["canonical.rungs_used_ratio"] = (c["canonical.subsequence_len"] / rungs if rungs else 0.0, "ratio")
    holds = c["cylinder.lower_bound_holds"]
    m["cylinder.lower_bound_holds_ratio"] = (holds / checks if checks else 0.0, "ratio")
    m["cli.default_build_exit2"] = (exit2, "count")
    sizes = {}
    for points in (845, 1935, 3855):
        times = plain.op_times.get(f"cover:n{points}")
        sizes[points] = fmean(times) if times else 0.0
        m[f"cover_build.n{points}_s"] = (sizes[points], "s")
    slope = 0.0
    if sizes[1935] and sizes[3855]:
        slope = math.log(sizes[3855] / sizes[1935]) / math.log(3855 / 1935)
    m["cover_build.scaling_exp"] = (slope, "ratio")
    m["trace.overhead_ratio"] = (fmean(traced.samples) / fmean(plain.samples), "ratio")
    return m


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import c0cover
    import numpy

    if Path(c0cover.__file__).resolve().parent != SRC / "c0cover":
        print(f"error: c0cover imported from {c0cover.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    expected = json.loads((HERE / "fingerprints.json").read_text())[args.workload]
    build = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        import_s = [import_seconds() for _ in range(SETUP_REPEATS)]
        gen_s = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            ops = build(args.seed, args.smoke, work, args.perturb_alpha, bool(args.trace))
            gen_s.append(perf_counter() - t)
        setup_s = median(import_s) + median(gen_s)

        timed = [op for op in ops if op.timed]
        stats = Stats()
        if not args.trace:
            measure(timed, args.seconds, expected, stats)
            metrics = end_to_end_metrics(setup_s, stats)
            times = " ".join(f"{t:.3f}" for t in stats.samples)
            samples = f"{len(stats.samples)} iterations (wall_s is their mean): {times} s"
        else:
            plain = measure(timed, args.seconds / 2, expected, Stats())
            tr = tracer_mod.Tracer()
            tr.install()
            try:
                traced = measure(timed, args.seconds / 2, expected, Stats())
            finally:
                tr.uninstall()
            once = measure([op for op in ops if not op.timed], 0, expected, Stats())
            plain.op_times |= once.op_times
            exit2 = workloads.default_build_exit2(work)
            tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer_metrics(tracer_mod, tr, plain, traced, exit2)
            stats.attempted = plain.attempted + traced.attempted + once.attempted
            stats.failed = plain.failed + traced.failed + once.failed
            samples = (
                f"{len(plain.samples)} untraced + {len(traced.samples)} traced iterations, {len(tr.spans)} spans"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}; {samples}")
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, nproc {NPROC}, "
          f"BLAS/OpenMP threads {os.environ['OMP_NUM_THREADS']}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a child process of its own; their metrics merged under `<workload>.`."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        argv += ["--smoke"] * args.smoke + ["--perturb-alpha"] * args.perturb_alpha
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"# {name}: exit code {child.returncode}", file=sys.stderr)
            rc = rc or child.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        merged["metrics"] |= {f"{name}.{k}": v for k, v in part["metrics"].items()}
    if rc:
        return rc
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the self-test")
    parser.add_argument(
        "--perturb-alpha", action="store_true", help="drop one alpha member before fingerprinting"
    )
    args = parser.parse_args(argv)

    if not (SRC / "c0cover" / "__init__.py").is_file():
        print(f"error: no c0cover sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cap_threads()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
