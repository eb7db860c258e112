"""Shared serving-configuration plumbing.

:class:`ServeConfig` holds the knobs of one serving tier; the single
service, the cluster dispatcher and every cluster worker read the same
frozen instance.  ``serve-bench`` (:mod:`repro.serve.bench`), the traffic harness
(:mod:`repro.serve.traffic`), and the cluster dispatcher
(:mod:`repro.serve.cluster`) all own a frozen config dataclass carrying
the same serving knobs — system, cores, queue limit, cache capacity,
deadline, reorder, backend, steal policy.  Before this module each of
them re-implemented the ``ServeConfig`` construction (and the warm-vs-
cold state comparison) by hand; :func:`build_serve_config` and
:func:`compare_states` are the single copies they now share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..algorithms import make as make_algorithm
from ..algorithms.detect import AccumKind, detect_accum_kind
from ..hardware.config import HardwareConfig

#: warm-vs-cold agreement bound for sum-type accumulators: 2x the
#: established cross-schedule spread (TestSchedulingEquivalence's 1e-3).
#: Two schedules of the same cold start share one truncation point; warm
#: and cold are *independently* truncated epsilon-fixpoints (different
#: initial conditions), so their residual errors add — |warm - exact| +
#: |cold - exact| <= 2x the single-run bound.
SUM_STATE_TOLERANCE = 2e-3


@dataclass(frozen=True)
class ServeConfig:
    """Operating knobs for one serving tier (single service or cluster)."""

    system: str = "depgraph-h"
    cores: int = 8
    #: admission bound: pending requests beyond this are shed
    queue_limit: int = 64
    #: LRU result-cache capacity, in completed runs
    cache_capacity: int = 128
    #: default per-request deadline, in simulated cycles from admission
    default_deadline_cycles: float = math.inf
    #: enable warm-start incremental recomputation
    warm: bool = True
    max_rounds: int = 4000
    steal_policy: str = "auto"
    #: vertex ordering for every engine run (see :mod:`repro.graph.reorder`);
    #: the engine resolves it once per snapshot version and reuses it
    reorder: str = "identity"
    #: execution backend for every engine run (``scalar`` or ``vector``,
    #: see :mod:`repro.runtime.vector`); answers must agree across
    #: backends under the usual accumulator-kind tolerance rules
    backend: str = "scalar"
    #: cross-engine baseline spool: converged baselines are checkpointed
    #: here and inherited by engines that never ran the lineage (forked
    #: services, restarted cluster workers) — see ``serve.engine``
    baseline_dir: Optional[str] = None
    #: re-anchor a sum-type lineage cold after this many consecutive warm
    #: runs: warm sum-type runs are epsilon-fixpoints seeded from the
    #: previous warm result, so residual error compounds along an
    #: unbroken warm chain; the periodic cold run bounds the drift well
    #: inside ``SUM_STATE_TOLERANCE`` (0 disables)
    sum_reanchor_every: int = 6

    def hardware(self) -> HardwareConfig:
        return HardwareConfig.scaled(num_cores=self.cores)

#: the ServeConfig fields a harness config may carry; missing attributes
#: fall back to the ServeConfig default (see :func:`build_serve_config`)
_SHARED_FIELDS = (
    "system",
    "cores",
    "queue_limit",
    "cache_capacity",
    "steal_policy",
    "reorder",
    "backend",
    "max_rounds",
    "baseline_dir",
    "sum_reanchor_every",
)


def build_serve_config(source, *, warm: bool = True, **overrides) -> ServeConfig:
    """Build a :class:`ServeConfig` from any harness config object.

    Reads the shared serving field names off ``source`` (``system``,
    ``cores``, ``queue_limit``, ``cache_capacity``, ``steal_policy``,
    ``reorder``, ``backend``, ...), maps the harness spelling
    ``deadline_cycles`` onto ``default_deadline_cycles``, and applies
    ``overrides`` last.

    ``warm=False`` builds a **cold control**: warm-start off *and* the
    result cache disabled — a control that still answered from cache
    would not isolate what warm-start buys.
    """
    kwargs = {}
    for name in _SHARED_FIELDS:
        value = getattr(source, name, None)
        if value is not None:
            kwargs[name] = value
    deadline = getattr(source, "deadline_cycles", None)
    if deadline is not None:
        kwargs["default_deadline_cycles"] = deadline
    kwargs["warm"] = warm
    if not warm:
        kwargs["cache_capacity"] = 0
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def compare_states(
    algorithm_name: str, warm, cold
) -> Tuple[bool, float]:
    """Warm-vs-cold state agreement under the accumulator-kind rules.

    Returns ``(match, sum_divergence)``: min/max accumulators must be
    bit-identical; sum-type states must agree within
    :data:`SUM_STATE_TOLERANCE` (both-infinite entries compare equal).
    """
    kind = detect_accum_kind(make_algorithm(algorithm_name))
    a = np.asarray(warm, dtype=np.float64)
    b = np.asarray(cold, dtype=np.float64)
    if kind is AccumKind.MIN_MAX:
        return bool(np.array_equal(a, b)), 0.0
    both_inf = np.isinf(a) & np.isinf(b)
    diff = (
        float(np.max(np.abs(np.where(both_inf, 0.0, a - b)))) if a.size else 0.0
    )
    return diff < SUM_STATE_TOLERANCE, diff


def summarize_states(states) -> dict:
    """A compact, JSON-friendly digest of a run's converged states.

    The cluster front door answers queries over HTTP; shipping a full
    per-vertex state vector for every request is the wrong default, so
    responses carry this digest (count / min / max / mean / finite sum)
    instead.  Infinite entries (unreached vertices under min/max
    algorithms) are counted separately and excluded from the sum.
    """
    array = np.asarray(states, dtype=np.float64)
    if array.size == 0:
        return {"n": 0, "finite": 0, "min": 0.0, "max": 0.0, "sum": 0.0}
    finite = np.isfinite(array)
    finite_values = array[finite]
    return {
        "n": int(array.size),
        "finite": int(finite_values.size),
        "min": float(np.min(finite_values)) if finite_values.size else 0.0,
        "max": float(np.max(finite_values)) if finite_values.size else 0.0,
        "sum": float(np.sum(finite_values)) if finite_values.size else 0.0,
    }


