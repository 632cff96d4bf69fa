"""Benchmark of the ospq verifier: fresh-process CLI runs, end to end and
per layer.  Standard library only.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics: it times fresh interpreters
importing ``ospq.cli`` (``setup_s``), and launches ``python -m ospq`` for the
workload in a fresh child, one at a time, until the next child would end
after ``--seconds`` (at least one child).  Each metric is the median over the
run's samples.  Times are scaled to a reference host speed by
``speed_probe.py``, which runs beside the children on the same CPU.

``--trace 1`` measures the per-layer metrics: one untraced child, then one
child under ``traced_child.py``, whose spans give each layer's self time.
Its overhead is the traced child's wall time minus the untraced one's.

Every child's ``--format json`` report goes through the correctness gate
(one operation per check, plus the export digest on ``hopf-export``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The samples, the seed and the
derived ``PYTHONHASHSEED`` are also written to
``.bench_build/perfbench/<workload>-seed<N>-trace<T>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
TRACED_CHILD = os.path.join(ROOT, "perfbench", "traced_child.py")
SPEED_PROBE = os.path.join(ROOT, "perfbench", "speed_probe.py")

# Median speed-probe sample (CPU seconds, sharing a CPU with a workload
# child) on the 2-core host the bounds were tuned on.  End-to-end times are
# scaled by PROBE_REF_S / (this run's median sample): seconds at that speed.
PROBE_REF_S = 0.0095

# A run must end within 180 s; children get what is left of this budget.
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 16

ALL_STAGES = ("r_matrix", "metric", "presentation", "eliminated_residuals",
              "echelon_int", "echelon_sym")


class Workload(NamedTuple):
    cli_args: list          # subcommand and options, before --seed/--format
    checks: int             # checks its JSON report must hold
    stages: tuple           # cached stages it builds (traced runs build them first)
    exports: bool           # whether it runs with --export
    weight: int             # series truncation weight


WORKLOADS = {
    "verify-all": Workload(["all"], 46, ALL_STAGES, False, 16),
    "borel-w24": Workload(["borel-coproduct", "--truncation", "24"], 5, (),
                          False, 24),
    "hopf-export": Workload(["hopf"], 7, ALL_STAGES[:4], True, 16),
}

# SHA-256 over the ``--export`` files in name order (name, NUL, bytes, NUL).
# The artifacts are byte-identical across PYTHONHASHSEED values.
EXPORT_DIGEST = "bc8a6fbc3d6c66902a309d25b37dbe99fd06428241209b0d2607f966e89fa6b1"

LAYERS = ("scalars", "freealg", "rewrite", "supermatrix", "classical", "frt",
          "borel", "serialize")


def hash_seed(seed):
    """PYTHONHASHSEED derived from the workload seed (0 .. 2**32 - 1)."""
    digest = hashlib.sha256(f"ospq-bench-{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def child_env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    return env


def run_child(cmd, env, stdout_path, limit):
    """Run one child to completion.  Returns (wall_s, rusage, exit code),
    with exit code None after a timeout; rusage is the child's own."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(limit, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, None if timed_out.is_set() else proc.returncode


def export_digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def gate(report_path, expected, export_dir, exit_code):
    """Correctness gate for one child: (operations attempted, failed, notes)."""
    attempted = expected + (export_dir is not None)
    if exit_code is None:
        return attempted, attempted, ["timed out"]
    try:
        with open(report_path) as fh:
            report = json.load(fh)
        statuses = [entry["status"] for entry in report]
    except (OSError, ValueError, TypeError, KeyError):
        return attempted, attempted, [f"no readable report (exit {exit_code})"]
    notes = [f"{entry['name']}: {entry['status']}" for entry in report
             if entry["status"] != "pass"]
    failed = len(notes) + max(0, expected - len(statuses))
    attempted = max(attempted, len(statuses) + (export_dir is not None))
    if len(statuses) != expected:
        notes.append(f"{len(statuses)} checks reported, {expected} expected")
    if export_dir is not None:
        digest = export_digest(export_dir) if os.path.isdir(export_dir) else None
        if digest != EXPORT_DIGEST:
            failed += 1
            notes.append(f"export digest {digest}")
    return attempted, failed, notes


class Run:
    """One benchmark invocation: its workload, seed, deadline and tallies."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.env = child_env(seed)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.samples = []
        self.dir = os.path.join(WORK, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def remaining(self):
        return self.deadline - time.perf_counter()

    def child(self, traced=False):
        """Launch the workload once and gate its report; returns the sample."""
        n = len(self.samples)
        export_dir = None
        args = [*self.spec.cli_args, "--seed", str(self.seed), "--format", "json"]
        if self.spec.exports:
            export_dir = os.path.join(self.dir, f"export{n}")
            args += ["--export", export_dir]
        out = os.path.join(self.dir, f"child{n}.json")
        if traced:
            trace_dir = os.path.join(self.dir, "trace")
            os.makedirs(trace_dir)
            cmd = [sys.executable, TRACED_CHILD, trace_dir,
                   ",".join(self.spec.stages) or "-", "--", *args]
            report = os.path.join(trace_dir, "report.json")
        else:
            cmd = [sys.executable, "-m", "ospq", *args]
            report = out
        wall, usage, code = run_child(cmd, self.env, out, self.remaining())
        attempted, failed, notes = gate(report, self.spec.checks, export_dir, code)
        self.attempted += attempted
        self.failed += failed
        sample = {"traced": traced, "wall_s": wall,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "exit": code, "attempted": attempted, "failed": failed,
                  "notes": notes}
        self.samples.append(sample)
        print(f"child {n}{' traced' if traced else ''}: wall {wall:.3f} s, "
              f"cpu {sample['cpu_s']:.3f} s, rss {sample['peak_rss_mb']:.1f} MiB, "
              f"{attempted - failed}/{attempted} ok"
              + (f" ({'; '.join(notes)})" if notes else ""), flush=True)
        return sample


def time_imports(run, count):
    """Wall times of ``count`` fresh interpreters that import ospq.cli."""
    cmd = [sys.executable, "-c", "import ospq.cli"]
    out = os.path.join(run.dir, "setup.out")
    times = []
    for _ in range(count):
        wall, _, code = run_child(cmd, run.env, out, run.remaining())
        if code != 0:
            raise SystemExit(f"importing ospq.cli failed (exit {code}); "
                             f"see {out}.err")
        times.append(wall)
    return times


def end_to_end(run, seconds):
    """Median set-up, wall and CPU times, scaled to the reference host speed,
    and median peak RSS."""
    # The first import writes the bytecode cache and is not timed; half of
    # the timed imports come before the children and half after.
    time_imports(run, 1)
    setup_times = time_imports(run, SETUP_REPEATS // 2)
    probe = subprocess.Popen([sys.executable, SPEED_PROBE],
                             stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        start = time.perf_counter()
        while True:
            sample = run.child()
            elapsed = time.perf_counter() - start
            if (elapsed + sample["wall_s"] > seconds
                    or run.remaining() < 2 * sample["wall_s"]):
                break
    finally:
        probe.terminate()
        probe_out, _ = probe.communicate()
    probes = [float(line) for line in probe_out.split()]
    setup_times += time_imports(run, SETUP_REPEATS - SETUP_REPEATS // 2)
    if len(probes) < 3:
        raise SystemExit(f"speed probe gave {len(probes)} samples")
    # One factor for the whole run: over a single child the probe swings
    # further than the workload and would over-correct; over a whole run the
    # two move about in proportion.
    probe_s = statistics.median(probes)
    unscaled = {"setup_s": statistics.median(setup_times)}
    for key in ("wall_s", "cpu_s"):
        unscaled[key] = statistics.median(s[key] for s in run.samples)
    print(f"speed probe: {len(probes)} samples, median {probe_s:.5f} s, "
          f"reference {PROBE_REF_S} s; unscaled medians: "
          + ", ".join(f"{k} {v:.4f} s" for k, v in unscaled.items()))
    metrics = {key: (value * PROBE_REF_S / probe_s, "s")
               for key, value in unscaled.items()}
    metrics["peak_rss_mb"] = (
        statistics.median(s["peak_rss_mb"] for s in run.samples), "MiB")
    return metrics, {"setup_times": setup_times, "probes": probes,
                     "unscaled": unscaled}


def load_trace(trace_dir):
    with open(os.path.join(trace_dir, "trace.json")) as fh:
        meta = json.load(fh)
    n = meta["n"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(os.path.join(trace_dir, "spans.bin"), "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return meta, arrays


def span_metrics(meta, arrays):
    """Self time and calls per layer, and inclusive time per span name.

    A span's self time is its duration minus its children's durations: the
    children of a span run one after another inside it, so they cover
    exactly that much of it."""
    names, layers = meta["names"], meta["layers"]
    name_ids, parents, starts, ends = arrays
    n = len(ends)
    durations = [ends[i] - starts[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        parent = parents[i]
        if parent >= 0:
            covered[parent] += durations[i]
    by_name_time = [0.0] * len(names)
    by_name_self = [0.0] * len(names)
    by_name_calls = [0] * len(names)
    for i in range(n):
        nid = name_ids[i]
        by_name_time[nid] += durations[i]
        by_name_self[nid] += durations[i] - covered[i]
        by_name_calls[nid] += 1
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for nid, layer in enumerate(layers):
        if layer in layer_self:
            layer_self[layer] += by_name_self[nid]
            layer_calls[layer] += by_name_calls[nid]
    inclusive = dict(zip(names, by_name_time))
    calls = dict(zip(names, by_name_calls))
    return layer_self, layer_calls, inclusive, calls


def per_layer(run):
    untraced = run.child()
    traced = run.child(traced=True)
    meta, arrays = load_trace(os.path.join(run.dir, "trace"))
    layer_self, layer_calls, inclusive, calls = span_metrics(meta, arrays)
    counters = meta["counters"]

    def total(*names):
        return sum(inclusive.get(name, 0.0) for name in names)

    reduce_names = ("rewrite.RewriteSystem.normal_form",
                    "rewrite.RewriteSystem.reduces_to_zero",
                    "rewrite.RewriteSystem.nf_word")
    coassoc = total("borel.coassociativity_defect")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
        metrics[f"{layer}.calls"] = (layer_calls[layer], "count")
    metrics.update({
        "rewrite.echelon_int_s": (total("stage.echelon_int"), "s"),
        "rewrite.echelon_sym_s": (total("stage.echelon_sym"), "s"),
        "rewrite.echelon_rows": (counters.get("echelon_rows", 0), "count"),
        "rewrite.echelon_cols": (counters.get("echelon_cols", 0), "count"),
        "rewrite.complete_s": (total("rewrite.complete"), "s"),
        "rewrite.reduce_s": (total(*reduce_names), "s"),
        "rewrite.reduce_calls": (sum(calls.get(n, 0) for n in reduce_names),
                                 "count"),
        "frt.r_matrix_s": (total("stage.r_matrix"), "s"),
        "frt.metric_s": (total("stage.metric"), "s"),
        "frt.presentation_s": (total("stage.presentation"), "s"),
        "frt.presentation_rules": (counters.get("presentation_rules", 0),
                                   "count"),
        "frt.eliminated_residuals_s": (total("stage.eliminated_residuals"), "s"),
        "frt.residuals": (counters.get("residuals", 0), "count"),
        "borel.coassoc_w16_s": (coassoc if run.spec.weight == 16 else 0.0, "s"),
        "borel.coassoc_w24_s": (coassoc if run.spec.weight == 24 else 0.0, "s"),
        "borel.delta_monomial_calls": (counters["borel.delta_monomial"],
                                       "count"),
        "classical.lowering_search_s": (
            total("classical.derive_lowering_matrices"), "s"),
        "supermatrix.ybe_check_s": (total("supermatrix.ybe_check"), "s"),
        "serialize.export_s": (total("cli.export_artifacts"), "s"),
        "trace.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
        "trace.spans": (meta["n"], "count"),
    })
    return metrics, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ospq", "cli.py")):
        print(f"no ospq sources under {SRC}", file=sys.stderr)
        return 2

    # One CPU for everything this run starts, so that the speed probe
    # measures the CPU the workload runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # SIGTERM unwinds like an exception, so the child and probe are stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed)
    print(f"workload {args.workload}: seed {args.seed}, "
          f"PYTHONHASHSEED {run.env['PYTHONHASHSEED']}, "
          f"trace {args.trace}", flush=True)
    if args.trace:
        metrics, extra = per_layer(run)
    else:
        metrics, extra = end_to_end(run, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"checks_run = {run.attempted}, checks_failed = {run.failed}")
    record = {"workload": args.workload, "seed": args.seed,
              "pythonhashseed": int(run.env["PYTHONHASHSEED"]),
              "trace": args.trace, "seconds": args.seconds,
              "samples": run.samples, **extra,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    with open(os.path.join(WORK, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
