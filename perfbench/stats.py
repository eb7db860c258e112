"""Run records and the end-to-end metrics computed from them.

A run is a few *segments*, each in a fresh program process: one set-up,
then timed ops for a share of the run's seconds.  The host's speed
relative to the calibration loop differs from process to process by up
to ~10% (memory layout, huge pages), so pooling the ops of several
processes averages that out where one long process could not.

A segment fills one :class:`RunRecord`: the raw duration of each timed
op with the time it started, the calibration samples taken between
ops, and the outcome of each op's answer check.  Every host-time metric
is a raw value times its own segment's calibration factor; the raw
values ride along for the steadiness report.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from calib import Calibration

#: program processes per run, each with one set-up
SEGMENTS = 4
#: the tail is the highest rank with at least this many samples beyond it
TAIL_BEYOND = 10
#: a run with fewer timed operations fails: at 40 the tail sits at or
#: above the 75th percentile, clear of the median
MIN_OPS = 4 * TAIL_BEYOND
#: setup below this many calibrated seconds is mostly timer noise
MIN_SETUP_S = 0.1
#: a segment stops timing ops this long after its seconds are up, even
#: short of its minimum op count, so a run ends well within 180 s
HARD_STOP_SLACK_S = 25.0


class MetricCheckError(RuntimeError):
    """A metric self-check failed; the run reports no result."""


@dataclass
class Op:
    start: float  # perf_counter at the start of the op
    raw_s: float
    ok: bool
    work: float = 0.0  # simulated edge operations, or 1 per ok serve op


@dataclass
class RunRecord:
    calib: Calibration
    ops: List[Op] = field(default_factory=list)
    #: raw seconds of the segment's set-up
    setup_s: float = 0.0
    #: (start, raw seconds) busy intervals that work_per_s divides by;
    #: defaults to the ops themselves
    busy: Optional[List[tuple]] = None
    sim_cycles: float = 0.0
    #: digest of the simulated outputs over the fixed op prefix
    digest: str = ""
    #: ops that were attempted but raised or were refused
    failed: int = 0
    #: per-layer counters the workload read back from the program
    counters: Dict[str, float] = field(default_factory=dict)
    #: peak RSS of the process that ran the program
    peak_rss_mb: float = 0.0
    #: traced run: {"totals": layer -> {self_ms, overhead_ms, calls},
    #: "memory": hierarchy access counts}
    layers: Optional[dict] = None

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.failed

    def to_dict(self) -> dict:
        out = asdict(self)
        out["calib"] = self.calib.samples
        out["ops"] = [[op.start, op.raw_s, op.ok, op.work] for op in self.ops]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        data = dict(data)
        calib = Calibration()
        calib.samples = [tuple(s) for s in data.pop("calib")]
        ops = [Op(*op) for op in data.pop("ops")]
        return cls(calib=calib, ops=ops, **data)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_quantiles(values_ms: List[float]) -> Dict[str, float]:
    """Median and tail of one sample; the tail is the highest rank with
    ``TAIL_BEYOND`` samples beyond it.  Both come from the same list, and
    the run fails unless ``tail >= p50``."""
    n = len(values_ms)
    if n < MIN_OPS:
        raise MetricCheckError(
            f"{n} timed ops; the tail needs at least {MIN_OPS}"
        )
    ordered = sorted(values_ms)
    p50 = statistics.median(ordered)
    tail_index = n - TAIL_BEYOND - 1
    tail = ordered[tail_index]
    if tail < p50:
        raise MetricCheckError(f"op_tail_ms {tail} below op_p50_ms {p50}")
    return {
        "p50": p50,
        "tail": tail,
        "tail_rank_pct": 100.0 * (tail_index + 1) / n,
        "samples": float(n),
    }


def check_repeatable(segments: List[RunRecord]) -> None:
    """Every segment replays the same op prefix: its simulated outputs
    must match the first segment's exactly."""
    first = segments[0]
    for seg in segments[1:]:
        if (seg.sim_cycles, seg.digest) != (first.sim_cycles, first.digest):
            raise MetricCheckError(
                f"simulated outputs differ between program processes: "
                f"{seg.sim_cycles} != {first.sim_cycles}"
            )


def end_to_end(segments: List[RunRecord]) -> Dict[str, object]:
    """The end-to-end metrics, plus raw twins and sample facts."""
    setups_cal = [seg.setup_s * seg.calib.factor for seg in segments]
    setup_cal = statistics.median(setups_cal)
    if setup_cal < MIN_SETUP_S:
        raise MetricCheckError(
            f"setup_s {setup_cal:.4f} s is below {MIN_SETUP_S} s: "
            "too little work to measure above timer noise"
        )
    raw_ms, cal_ms = [], []
    busy_raw = busy_cal = work = 0.0
    ok = attempted = 0
    for seg in segments:
        factor = seg.calib.factor
        for op in seg.ops:
            raw_ms.append(op.raw_s * 1e3)
            cal_ms.append(op.raw_s * 1e3 * factor)
            if op.ok:
                ok += 1
                work += op.work
        busy = seg.busy if seg.busy is not None else [
            (op.start, op.raw_s) for op in seg.ops
        ]
        seg_busy = sum(dur for _, dur in busy)
        busy_raw += seg_busy
        busy_cal += seg_busy * factor
        attempted += seg.attempted
    cal = latency_quantiles(cal_ms)
    raw = latency_quantiles(raw_ms)
    metrics = {
        "setup_s": setup_cal,
        "peak_rss_mb": max(seg.peak_rss_mb for seg in segments),
        "ok_share": ok / attempted,
        "op_p50_ms": cal["p50"],
        "op_tail_ms": cal["tail"],
        "work_per_s": work / busy_cal,
        "sim_cycles": segments[0].sim_cycles,
    }
    detail = {
        "raw": {
            "setup_s": statistics.median(seg.setup_s for seg in segments),
            "op_p50_ms": raw["p50"],
            "op_tail_ms": raw["tail"],
            "work_per_s": work / busy_raw,
        },
        "tail_rank_pct": cal["tail_rank_pct"],
        "samples": int(cal["samples"]),
        "calib_median_ms": statistics.median(
            ms for seg in segments for _, ms in seg.calib.samples
        ),
        "calib_samples": sum(len(seg.calib.samples) for seg in segments),
        "segments": len(segments),
        "attempted": attempted,
        "ok": ok,
    }
    return {"metrics": metrics, "detail": detail}
