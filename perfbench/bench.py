"""Runs one workload, or all of them, and prints the result.

One process drives the package with one thread of work; with ``--trace 0``
it also repeats its set-up in fresh child processes, one at a time, to
sample ``setup_s``.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics.  With ``--trace 1`` untraced and
traced passes alternate, and the last line carries the per-layer metrics.
Earlier lines give the same figures for people, the failure ratio and a
record of the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import environment, layers, tracing, workloads

#: set-ups per run, this process's own and the rest in fresh processes;
#: ``setup_s`` reports the median
SETUP_SAMPLES = 3


@dataclass
class Pass:
    wall: float
    cpu: float
    attempted: int
    failures: list
    notes: dict
    trace: tuple | None = None   # (spans, counts) of a traced pass


def run_calls(calls, tracer=None) -> Pass:
    """Make every call, timing the whole pass and, with a tracer, tracing it.
    The outputs are checked afterwards, untimed and untraced."""
    outcomes = []
    with tracer if tracer is not None else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for call in calls:
            try:
                with (tracer.root("bench.call") if tracer is not None
                      else contextlib.nullcontext()):
                    outcomes.append((call, call.run(), None))
            except Exception:  # a failed call is counted, the run goes on
                outcomes.append((call, None, traceback.format_exc(limit=4)))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    notes, failures = {}, []
    for call, outcome, error in outcomes:
        problems = [f"raised: {error}"] if error else call.check(outcome, notes)
        if problems:
            failures.append((call.label, problems))
    return Pass(wall, cpu, len(calls), failures, notes,
                tracer.take() if tracer is not None else None)


def set_up(args, workdir: str):
    """Generate the workload's inputs and references, then make the warm-up
    call.  Returns the prepared calls and the warm-up pass."""
    prepare = workloads.WORKLOADS[args.workload]
    index = list(workloads.WORKLOADS).index(args.workload)
    prepared = prepare(np.random.default_rng([args.seed, index]), workdir)
    return prepared, run_calls([prepared.warmup])


def set_up_in_child(args, root: str):
    """One set-up in a fresh process: (its ``setup_s`` or None, failed calls).

    The child pays every one-time cost again (imports, first use of LAPACK,
    lazy initialisation), as the benchmark's own process did.
    """
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 0:
            return result["setup_s"], result["failed"]
    except (IndexError, ValueError, KeyError):
        pass
    return None, 1


@dataclass
class Measured:
    setups: list     # seconds per set-up in a child process
    children: int    # child set-ups started
    child_failed: int
    plain: list      # untraced passes
    traced: list


def measure(calls, budget: float, tracer, set_up_child,
            children: int) -> Measured:
    """Rounds until the next one would end more than half a round after
    ``budget`` seconds.

    A round is an untraced pass, with a tracer also a traced pass, and in
    the first ``children`` rounds a set-up in a fresh process.  Set-ups and
    passes are spread over the run, and untraced and traced passes
    alternate, so that all of them see the same mix of fast and slow
    periods of a shared machine.  Traced passes carry their spans and
    counts.
    """
    m = Measured([], 0, 0, [], [])
    start = time.perf_counter()
    for rounds in itertools.count(1):
        if rounds <= children:
            seconds, failed = set_up_child()
            m.children += 1
            m.child_failed += failed
            if seconds is not None:
                m.setups.append(seconds)
        m.plain.append(run_calls(calls))
        if tracer is not None:
            m.traced.append(run_calls(calls, tracer))
        per_round = sum(statistics.median(p.wall for p in ps)
                        for ps in (m.plain, m.traced) if ps)
        if rounds >= children \
                and time.perf_counter() - start + per_round / 2 > budget:
            return m


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _walls(passes):
    return ", ".join(f"{p.wall:.3f}" for p in passes)


def run_workload(args, spec: dict, root: str, src: str, t0: float) -> int:
    load_start = os.getloadavg()[0]
    base_dir = os.path.join(root, ".bench_work")
    os.makedirs(base_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base_dir)
    try:
        prepared, warmup = set_up(args, workdir)
        setup_s = time.perf_counter() - t0
        for label, problems in warmup.failures:
            sys.stderr.write(f"FAILED {label}: {'; '.join(problems)}\n")
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "failed": len(warmup.failures)}))
            return 0
        m = measure(prepared.calls, args.seconds,
                    tracing.Tracer(layers.TARGETS) if args.trace else None,
                    lambda: set_up_in_child(args, root),
                    0 if args.trace else SETUP_SAMPLES - 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base_dir)
        except OSError:  # another run is still using it
            pass

    plain, traced = m.plain, m.traced
    passes = plain + traced
    attempted = 1 + m.children + sum(p.attempted for p in passes)
    failed = len(warmup.failures) + m.child_failed \
        + sum(len(p.failures) for p in passes)
    setups = [setup_s] + m.setups
    pass_s = statistics.median(p.wall for p in plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    if args.trace:
        names = [(d["name"], d["unit"]) for d in spec["per_layer"]]
        per_pass = [layers.layer_metrics([n for n, _ in names],
                                         tracing.summarize(p.trace[0]),
                                         p.trace[1], p.notes)
                    for p in traced]
        metrics = {}
        for metric, unit in names:
            if metric == "process.cpu_s":
                value = statistics.median(p.cpu for p in plain)
            elif metric == "trace.overhead_s":
                value = statistics.median(p.wall for p in traced) - pass_s
            else:
                value = statistics.median(v[metric] for v in per_pass)
            metrics[metric] = _metric(value, unit)
            lines.append(f"{metric:40s} {value:14.6g} {unit}")
        lines.append(f"medians over {len(traced)} traced passes ({_walls(traced)}); "
                     f"untraced pass_s {pass_s:.4f} s over {len(plain)} passes "
                     f"({_walls(plain)})")
        traced_s = statistics.median(p.wall for p in traced)
        lines.append("share of the traced pass: " + ", ".join(
            f"{name} {metrics[name]['value'] / traced_s:.0%}"
            for name, unit in names
            if unit == "s" and not name.startswith(("process.", "trace."))
            and metrics[name]["value"] >= 0.05 * traced_s))
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "pass_s": _metric(pass_s, "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        lines += [
            f"setup_s      {metrics['setup_s']['value']:10.4f} s   (median of "
            f"{len(setups)} set-ups from process start, this process first: "
            f"{', '.join(f'{s:.3f}' for s in setups)})",
            f"pass_s       {pass_s:10.4f} s   (median of {len(plain)} passes of "
            f"{plain[0].attempted} calls: {_walls(plain)})",
            f"peak_rss_mb  {peak_rss_mb:10.1f} MB",
        ]
    lines.append(f"fail_ratio   {failed / attempted:10.4g} 1    "
                 f"({failed} of {attempted} calls)")
    env = environment.record(root, src)
    env["loadavg_1m_start"], env["loadavg_1m_end"] = load_start, os.getloadavg()[0]
    lines.append("environment " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    for p in passes:
        for label, problems in p.failures:
            sys.stderr.write(f"FAILED {label}: {'; '.join(problems)}\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, root: str) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    rows = []
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        rows.append((name, json.loads(lines[-1])
                     if proc.returncode == 0 and lines else None))
    print("\nsummary")
    for name, result in rows:
        if result is None:
            print(f"{name:20s} did not finish")
            continue
        figures = "" if args.trace else "  ".join(
            f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        ratio = result["failed"] / result["attempted"]
        print(f"{name:20s} {figures}  fail_ratio {ratio:.4g} 1")
    return 0 if all(r is not None and r["correct"] for _, r in rows) else 1


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be nonnegative")
    return value


def main(argv, root: str, src: str, t0: float) -> int:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="infosep benchmark")
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one set-up only, in a fresh process started by a run
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, spec, root, src, t0)
