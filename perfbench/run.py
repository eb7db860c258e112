#!/usr/bin/env python3
"""Host-time benchmark of the DepGraph reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-scalar --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting
with ``# detail``, carries raw (uncalibrated) twins, sample counts and
the tail's rank.  See ``perfbench/README.md`` for the metric glossary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-scalar", "sim-vector", "serve-read", "serve-write")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
    "sim_cycles": "cycles",
}

#: layer -> the per-layer metric name of its self time
SELF_TIME_NAMES = {
    "hardware": "hardware.self_ms",
    "accel.hdtl": "accel.hdtl.self_ms",
    "accel.ddmu": "accel.ddmu.self_ms",
    "accel.hub_index": "accel.hub_index.self_ms",
    "accel.engine": "accel.engine.self_ms",
    "accel.queue": "accel.queue.self_ms",
    "runtime.dispatch": "runtime.dispatch.self_ms",
    "runtime.context": "runtime.context.self_ms",
    "runtime.execore": "runtime.execore.self_ms",
    "runtime.kernel_init": "runtime.kernel_init_ms",
    "algorithms": "algorithms.self_ms",
    "vector.setup": "vector.setup_ms",
    "vector.rounds": "vector.rounds_ms",
    "store.apply": "store.apply_ms",
    "store.compact": "store.compact_ms",
    "engine": "engine.self_ms",
    "warmstart": "warmstart.plan_ms",
    "dispatch": "dispatch.self_ms",
    "worker": "worker.self_ms",
    "batching": "batching.self_ms",
    "http": "http.self_ms",
}

#: per-layer counters the workloads read back, with their units
COUNTER_UNITS = {
    "hardware.calls": "count/op",
    "hardware.l1_hit_share": "share",
    "hardware.dram_share": "share",
    "accel.shortcut_applications": "count/op",
    "algorithms.calls": "count/op",
    "vector.rounds": "count/op",
    "graph.build_ms": "ms",
    "graph.load_ms": "ms",
    "serve.warm_share": "share",
    "serve.warm_fallbacks": "count/op",
    "serve.warm_update_ratio": "ratio",
    "serve.cache_hit_share": "share",
    "serve.batched_share": "share",
    "serve.queue_wait_ms": "ms",
    "serve.shed": "count",
    "cluster.worker_restarts": "count",
    "host.calib_ms": "ms",
    "host.op_p50_raw_ms": "ms",
    "host.trace_overhead": "share",
    "trace.accounted_share": "share",
    "trace.unattributed_ms": "ms/op",
}

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="perturb every answer before its check (self-test only)",
    )
    return parser.parse_args(argv)


def _code_version() -> str:
    """A digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "repro"), HERE):
        for folder, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(folder, name), "rb") as handle:
                        digest.update(name.encode() + handle.read())
    return digest.hexdigest()[:16]


def _check_expectation(workdir_root: str, workload: str, seed: int, record) -> None:
    """Simulated outputs of a (workload, seed) must repeat exactly across
    runs of the same code, traced or not: the first run pins them."""
    from stats import MetricCheckError

    path = os.path.join(
        workdir_root, "expect", _code_version(), f"{workload}-{seed}.json"
    )
    current = {"sim_cycles": record.sim_cycles, "digest": record.digest}
    if os.path.exists(path):
        with open(path) as handle:
            pinned = json.load(handle)
        if pinned != current:
            raise MetricCheckError(
                f"simulated outputs changed between runs: {pinned} != {current}"
            )
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    with open(tmp_path, "w") as handle:
        json.dump(current, handle)
    os.replace(tmp_path, path)


#: counters averaged over segments; the rest are totals, summed
_MEAN_COUNTERS = (
    "graph.build_ms",
    "graph.load_ms",
    "serve.warm_share",
    "serve.warm_update_ratio",
    "serve.cache_hit_share",
    "serve.batched_share",
    "serve.queue_wait_ms",
)


def _per_layer(segments) -> dict:
    """Per-layer metrics of a traced run, pooled over its segments.

    The traced window is the time the benchmark waited on the program:
    the timed ops (for serve-read, its epochs' wall time) plus, on the
    serve workloads, the calls between ops.  What the named layers do
    not account for in it is reported as ``trace.unattributed_ms``.
    """
    ops = sum(len(seg.ops) for seg in segments)
    self_ms: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    memory = {"accesses": 0, "l1_hits": 0, "dram": 0}
    window_ms = named_ms = overhead_ms = unattributed_ms = 0.0
    for seg in segments:
        factor = seg.calib.factor
        busy = seg.busy if seg.busy is not None else [
            (op.start, op.raw_s) for op in seg.ops
        ]
        seg_window = sum(dur for _, dur in busy) * 1e3 + seg.counters.pop(
            "trace.side_ms", 0.0
        )
        seg_named = seg_overhead = 0.0
        for layer, total in seg.layers["totals"].items():
            self_ms[layer] = self_ms.get(layer, 0.0) + total["self_ms"] * factor
            calls[layer] = calls.get(layer, 0.0) + total["calls"]
            seg_named += total["self_ms"]
            seg_overhead += total["overhead_ms"]
        window_ms += seg_window
        named_ms += seg_named
        overhead_ms += seg_overhead
        unattributed_ms += (seg_window - seg_named - seg_overhead) * factor
        for key in memory:
            memory[key] += seg.layers["memory"][key]
        for name, value in seg.counters.items():
            counters[name] = counters.get(name, 0.0) + value
    for name in _MEAN_COUNTERS:
        if name in counters:
            counters[name] /= len(segments)
    accesses = memory["accesses"]
    counters["hardware.l1_hit_share"] = memory["l1_hits"] / accesses if accesses else 0.0
    counters["hardware.dram_share"] = memory["dram"] / accesses if accesses else 0.0
    counters["host.calib_ms"] = statistics.median(
        ms for seg in segments for _, ms in seg.calib.samples
    )
    counters["host.op_p50_raw_ms"] = statistics.median(
        op.raw_s * 1e3 for seg in segments for op in seg.ops
    )
    counters["host.trace_overhead"] = overhead_ms / window_ms
    counters["trace.accounted_share"] = (named_ms + overhead_ms) / window_ms
    counters["trace.unattributed_ms"] = unattributed_ms
    counters["hardware.calls"] = calls.get("hardware", 0.0)
    counters["algorithms.calls"] = calls.get("algorithms", 0.0)

    metrics = {
        name: (self_ms.get(layer, 0.0) / ops, "ms/op")
        for layer, name in SELF_TIME_NAMES.items()
    }
    for name, unit in COUNTER_UNITS.items():
        value = counters.get(name, 0.0)
        if unit.endswith("/op"):
            value /= ops
        metrics[name] = (value, unit)
    return metrics


def _sim_segments(args, workdir: str):
    """Run each sim segment in a fresh process; returns their records."""
    from stats import SEGMENTS, MetricCheckError, RunRecord

    records = []
    for index in range(SEGMENTS):
        command = [
            sys.executable,
            os.path.join(HERE, "segment.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds / SEGMENTS),
            "--workdir", os.path.join(workdir, f"segment-{index}"),
            "--trace", str(args.trace),
        ] + (["--corrupt"] if args.corrupt else [])
        proc = subprocess.run(command, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise MetricCheckError(
                f"segment {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        records.append(RunRecord.from_dict(json.loads(proc.stdout.strip().splitlines()[-1])))
    return records


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(
            f"perfbench: no program sources at {src}; run from a checkout root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)

    from stats import MetricCheckError, check_repeatable, end_to_end

    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload.startswith("sim-"):
            segments = _sim_segments(args, workdir)
        else:
            import serve

            segments = serve.run(
                args.workload,
                args.seed,
                args.seconds,
                workdir,
                trace=bool(args.trace),
                corrupt=args.corrupt,
            )
        check_repeatable(segments)
        if not args.corrupt:
            _check_expectation(work_root, args.workload, args.seed, segments[0])
        if not args.trace:
            summary = end_to_end(segments)
            metrics = {
                name: (summary["metrics"][name], unit)
                for name, unit in END_TO_END_UNITS.items()
            }
            detail = dict(summary["detail"], calibrated=summary["metrics"])
        else:
            metrics = _per_layer(segments)
            detail = {"traced_ops": sum(len(seg.ops) for seg in segments)}
    except MetricCheckError as exc:
        print(f"perfbench: metric self-check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = sum(1 for seg in segments for op in seg.ops if op.ok)
    attempted = sum(seg.attempted for seg in segments)
    if not args.trace:
        print(
            f"{args.workload} seed={args.seed}: {attempted} ops, tail = rank "
            f"{detail['tail_rank_pct']:.1f}% of {detail['samples']} samples, "
            f"calibration median {detail['calib_median_ms']:.3f} ms "
            f"over {detail['calib_samples']} samples"
        )
    print("# detail " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": ok == attempted,
                "attempted": attempted,
                "failed": attempted - ok,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
