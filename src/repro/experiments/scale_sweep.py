"""``experiment scale``: the 10x/30x/100x memory-frugality sweep.

The ROADMAP's last open item is scaling the datasets 10–100x.  This
sweep is the acceptance harness for the memory-frugal substrate: at
each level it

* **builds** a synthetic Zipfian graph *streamed* — edge chunks spooled
  to disk, CSR assembled by the external counting sort
  (:mod:`repro.graph.external`) — and records the build's peak RSS,
  which must stay flat while ``|E|`` grows 10x → 100x;
* **runs** each backend over the built graph, loaded mmap'd at its
  narrowed index dtype, and records peak RSS, wall time, and simulated
  cycles.  The scalar backend is capped at a configurable level — its
  per-edge Python dispatch is exactly what stops scaling, and the sweep
  shows where;
* **probes the serving tier** via the real cluster worker-spool path
  (:class:`repro.serve.service.WorkerCore` mapping a saved
  :class:`GraphStore` with ``mmap=True``);
* **checks bit-identity** at the smallest level: the mmap'd narrow run
  and an in-RAM ``int64`` run of the same backend must produce
  bit-identical states *and* identical simulated cycles (the modelled
  byte layout keeps the paper's fixed 8-byte strides at every host
  width — see :mod:`repro.hardware.layout`).

Every measurement runs in a **spawned child process** because
``resource.getrusage(RUSAGE_SELF).ru_maxrss`` is monotone per process —
a fresh child gives each phase its own high-water mark.  Each phase
reports the zero-seeded ``obs.mem.*`` counter family (glossary in
docs/OBSERVABILITY.md).

Artifacts land in ``results/scale_sweep.{txt,metrics.json}``; the
``scale-smoke`` CI job replays a reduced sweep and gates it via
``gate.py scale``.  Environment knobs:
``REPRO_SCALE_BASE_N``, ``REPRO_SCALE_LEVELS`` (comma list of
multipliers), ``REPRO_SCALE_SCALAR_CAP`` (largest level the scalar
backend runs at), ``REPRO_SCALE_CHUNK``, ``REPRO_CORES``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .common import ExperimentTable

#: counters zero-seeded into every measurement so the ``obs.mem.*``
#: family reports the same key set from every phase
MEM_COUNTER_FAMILY = (
    "mem.graph_bytes",
    "mem.graph_bytes_int64",
    "mem.index_width_bytes",
    "mem.weight_width_bytes",
    "mem.mmap",
    "mem.baseline_rss_kb",
    "mem.peak_rss_kb",
    "mem.wall_ms",
)

#: the algorithm every phase runs: sum-type, unweighted — exercises the
#: vector backend's per-source edge-program fast path
SWEEP_ALGORITHM = "pagerank"
SWEEP_SYSTEM = "depgraph-h"


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _env_levels(default: Tuple[int, ...]) -> Tuple[int, ...]:
    value = os.environ.get("REPRO_SCALE_LEVELS")
    if not value:
        return default
    return tuple(int(part) for part in value.split(",") if part.strip())


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs for one sweep (environment-overridable, see module doc)."""

    base_vertices: int = field(
        default_factory=lambda: _env_int("REPRO_SCALE_BASE_N", 1024)
    )
    avg_degree: int = 16
    alpha: float = 2.0
    levels: Tuple[int, ...] = field(
        default_factory=lambda: _env_levels((10, 30, 100))
    )
    #: largest level multiplier the scalar backend still runs at
    scalar_cap: int = field(
        default_factory=lambda: _env_int("REPRO_SCALE_SCALAR_CAP", 10)
    )
    cores: int = field(default_factory=lambda: _env_int("REPRO_CORES", 8))
    chunk_edges: int = field(
        default_factory=lambda: _env_int("REPRO_SCALE_CHUNK", 1 << 18)
    )
    seed: int = 7
    max_rounds: int = 4000

    def level_sizes(self, level: int) -> Tuple[int, int]:
        n = self.base_vertices * level
        return n, n * self.avg_degree

    def gate_config(self) -> Dict[str, object]:
        """The identity the CI gate pins (see gate.py scale)."""
        return {
            "base_vertices": self.base_vertices,
            "avg_degree": self.avg_degree,
            "alpha": self.alpha,
            "levels": list(self.levels),
            "scalar_cap": self.scalar_cap,
            "cores": self.cores,
            "seed": self.seed,
            "algorithm": SWEEP_ALGORITHM,
            "system": SWEEP_SYSTEM,
        }


# ----------------------------------------------------------------------
# Child-process measurement harness.
# ----------------------------------------------------------------------
def _peak_rss_kb() -> float:
    """Process-lifetime peak RSS in KiB (Linux ru_maxrss unit)."""
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _mem_counters(
    *,
    graph_bytes: float = 0.0,
    graph_bytes_int64: float = 0.0,
    index_width: float = 0.0,
    weight_width: float = 0.0,
    mmap: float = 0.0,
    baseline_rss_kb: float = 0.0,
    wall_ms: float = 0.0,
) -> Dict[str, float]:
    """The zero-seeded ``obs.mem.*`` snapshot for one measurement."""
    from ..observe import MetricRegistry

    registry = MetricRegistry()
    for name in MEM_COUNTER_FAMILY:
        registry.inc(name, 0.0)
    registry.set("mem.graph_bytes", graph_bytes)
    registry.set("mem.graph_bytes_int64", graph_bytes_int64)
    registry.set("mem.index_width_bytes", index_width)
    registry.set("mem.weight_width_bytes", weight_width)
    registry.set("mem.mmap", mmap)
    registry.set("mem.baseline_rss_kb", baseline_rss_kb)
    registry.set("mem.peak_rss_kb", _peak_rss_kb())
    registry.set("mem.wall_ms", wall_ms)
    return registry.as_dict("obs.")


def _child_build(payload: dict) -> dict:
    """Streamed generation + external CSR build of one level."""
    from ..graph import io as graph_io
    from ..graph.external import stream_power_law

    baseline = _peak_rss_kb()
    started = time.perf_counter()
    csr_dir = stream_power_law(
        payload["csr_dir"],
        payload["num_vertices"],
        payload["num_edges"],
        alpha=payload["alpha"],
        seed=payload["seed"],
        weighted=False,
        spanning_chain=True,
        chunk_edges=payload["chunk_edges"],
    )
    wall_ms = (time.perf_counter() - started) * 1e3
    graph = graph_io.load_csr_dir(csr_dir, mmap=True)
    int64_bytes = (
        graph.offsets.size + graph.targets.size
    ) * np.dtype(np.int64).itemsize
    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "index_dtype": str(graph.index_dtype),
        "wall_ms": wall_ms,
        "counters": _mem_counters(
            graph_bytes=float(graph.nbytes),
            graph_bytes_int64=float(int64_bytes),
            index_width=float(graph.index_dtype.itemsize),
            baseline_rss_kb=baseline,
            wall_ms=wall_ms,
        ),
    }


def _child_backend(payload: dict) -> dict:
    """One backend run over the built graph (mmap'd narrow or RAM int64)."""
    from ..algorithms import make as make_algorithm
    from ..graph import io as graph_io
    from ..hardware.config import HardwareConfig
    from ..runtime import run as run_system

    baseline = _peak_rss_kb()
    mmap = bool(payload["mmap"])
    graph = graph_io.load_csr_dir(payload["csr_dir"], mmap=mmap)
    if payload["widen"]:
        graph = graph.astype(index_dtype=np.int64)
    started = time.perf_counter()
    result = run_system(
        payload["system"],
        graph,
        make_algorithm(SWEEP_ALGORITHM),
        HardwareConfig.scaled(num_cores=payload["cores"]),
        max_rounds=payload["max_rounds"],
        backend=payload["backend"],
    )
    wall_ms = (time.perf_counter() - started) * 1e3
    states = np.asarray(result.states, dtype=np.float64)
    return {
        "cycles": float(result.cycles),
        "rounds": int(result.rounds),
        "converged": bool(result.converged),
        "wall_ms": wall_ms,
        "index_dtype": str(graph.index_dtype),
        "state_sha": hashlib.sha256(states.tobytes()).hexdigest(),
        "counters": _mem_counters(
            graph_bytes=float(graph.nbytes),
            index_width=float(graph.index_dtype.itemsize),
            mmap=0.0 if payload["widen"] else float(mmap),
            baseline_rss_kb=baseline,
            wall_ms=wall_ms,
        ),
    }


def _child_serve(payload: dict) -> dict:
    """Serving-tier probe through the real worker-spool path: persist a
    GraphStore, load it back mmap'd as a cluster worker would, answer
    one query."""
    from ..graph import io as graph_io
    from ..serve.config import ServeConfig
    from ..serve.service import WorkerCore
    from ..serve.store import GraphStore

    baseline = _peak_rss_kb()
    graph = graph_io.load_csr_dir(payload["csr_dir"], mmap=True)
    started = time.perf_counter()
    store = GraphStore(graph)
    store.save(payload["store_dir"])
    del store, graph
    config = ServeConfig(
        system=payload["system"],
        cores=payload["cores"],
        backend="vector",
        max_rounds=payload["max_rounds"],
    )
    core = WorkerCore(config, GraphStore.load(payload["store_dir"], mmap=True))
    reply = core.execute(SWEEP_ALGORITHM, {}, version=0)
    wall_ms = (time.perf_counter() - started) * 1e3
    loaded = core.store.latest.graph
    return {
        "cycles": float(reply["cycles"]),
        "warm": bool(reply["warm"]),
        "summary": reply["summary"],
        "wall_ms": wall_ms,
        "index_dtype": str(loaded.index_dtype),
        "counters": _mem_counters(
            graph_bytes=float(loaded.nbytes),
            index_width=float(loaded.index_dtype.itemsize),
            mmap=1.0,
            baseline_rss_kb=baseline,
            wall_ms=wall_ms,
        ),
    }


_CHILD_FUNCS = {
    "build": _child_build,
    "backend": _child_backend,
    "serve": _child_serve,
}


def _child_entry(kind: str, payload: dict, queue) -> None:
    """Spawned-process entry: run one measurement, ship the result."""
    try:
        queue.put(("ok", _CHILD_FUNCS[kind](payload)))
    except Exception as exc:  # noqa: BLE001 - forwarded to the parent
        queue.put(("error", repr(exc)))


def measure(kind: str, payload: dict, timeout: float = 3600.0) -> dict:
    """Run one measurement in a fresh spawn-context child process.

    A fresh process per measurement is what makes ``ru_maxrss``
    meaningful: the counter is a process-lifetime high-water mark, so
    phases sharing a process would shadow each other.
    """
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    process = ctx.Process(
        target=_child_entry, args=(kind, payload, queue), daemon=True
    )
    process.start()
    try:
        status, result = queue.get(timeout=timeout)
    finally:
        process.join(timeout=30)
        if process.is_alive():  # pragma: no cover - watchdog path
            process.kill()
    if status != "ok":
        raise RuntimeError(f"scale measurement {kind!r} failed: {result}")
    return result


# ----------------------------------------------------------------------
# The sweep.
# ----------------------------------------------------------------------
def _fmt_mb(value: float) -> str:
    return f"{value / (1 << 20):.1f}"


def run(
    config: Optional[ScaleConfig] = None, workdir: Optional[str] = None
) -> Tuple[ExperimentTable, Dict[str, object]]:
    """Run the sweep; returns the table + the metrics payload."""
    config = config or ScaleConfig()
    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-scale-")
        workdir = tmp.name

    table = ExperimentTable(
        "scale_sweep",
        f"memory-frugal scale sweep: streamed build + narrowed/mmap'd "
        f"CSR at {'/'.join(f'{lvl}x' for lvl in config.levels)} "
        f"(base |V|={config.base_vertices}, avg degree "
        f"{config.avg_degree}, alpha {config.alpha:g}, "
        f"{SWEEP_ALGORITHM}/{SWEEP_SYSTEM}, {config.cores} cores, "
        f"seed {config.seed})",
        [
            "level",
            "phase",
            "n",
            "m",
            "idx",
            "graph_MB",
            "wall_s",
            "peak_rss_MB",
            "cycles",
            "note",
        ],
    )

    levels_payload: Dict[str, object] = {}
    match_level = f"{min(config.levels)}x"
    state_match = True
    cycles_match = True
    try:
        for level in config.levels:
            label = f"{level}x"
            n, m_target = config.level_sizes(level)
            level_dir = os.path.join(workdir, label)
            csr_dir = os.path.join(level_dir, "csr")

            build = measure(
                "build",
                {
                    "csr_dir": csr_dir,
                    "num_vertices": n,
                    "num_edges": m_target,
                    "alpha": config.alpha,
                    "seed": config.seed,
                    "chunk_edges": config.chunk_edges,
                },
            )
            m = build["num_edges"]
            table.add(
                label,
                "build",
                n,
                m,
                build["index_dtype"],
                _fmt_mb(build["counters"]["obs.mem.graph_bytes"]),
                round(build["wall_ms"] / 1e3, 2),
                round(build["counters"]["obs.mem.peak_rss_kb"] / 1024, 1),
                "-",
                "streamed, flat-RSS",
            )

            backends: Dict[str, object] = {}
            run_scalar = level <= config.scalar_cap
            for backend in ("scalar", "vector") if run_scalar else ("vector",):
                res = measure(
                    "backend",
                    {
                        "csr_dir": csr_dir,
                        "mmap": True,
                        "widen": False,
                        "system": SWEEP_SYSTEM,
                        "cores": config.cores,
                        "backend": backend,
                        "max_rounds": config.max_rounds,
                    },
                )
                backends[backend] = res
                table.add(
                    label,
                    backend,
                    n,
                    m,
                    res["index_dtype"],
                    _fmt_mb(res["counters"]["obs.mem.graph_bytes"]),
                    round(res["wall_ms"] / 1e3, 2),
                    round(res["counters"]["obs.mem.peak_rss_kb"] / 1024, 1),
                    int(res["cycles"]),
                    "mmap+narrow",
                )
            if not run_scalar:
                table.add(
                    label, "scalar", n, m, "-", "-", "-", "-", "-",
                    f"skipped: per-edge Python dispatch past "
                    f"{config.scalar_cap}x cap",
                )

            if label == match_level:
                # bit-identity: in-RAM int64 control per backend
                for backend in list(backends):
                    control = measure(
                        "backend",
                        {
                            "csr_dir": csr_dir,
                            "mmap": False,
                            "widen": True,
                            "system": SWEEP_SYSTEM,
                            "cores": config.cores,
                            "backend": backend,
                            "max_rounds": config.max_rounds,
                        },
                    )
                    narrow = backends[backend]
                    same_states = (
                        control["state_sha"] == narrow["state_sha"]
                    )
                    same_cycles = control["cycles"] == narrow["cycles"]
                    state_match = state_match and same_states
                    cycles_match = cycles_match and same_cycles
                    backends[f"{backend}_ram64"] = control
                    table.add(
                        label,
                        f"{backend}-ram64",
                        n,
                        m,
                        control["index_dtype"],
                        _fmt_mb(
                            control["counters"]["obs.mem.graph_bytes"]
                        ),
                        round(control["wall_ms"] / 1e3, 2),
                        round(
                            control["counters"]["obs.mem.peak_rss_kb"]
                            / 1024,
                            1,
                        ),
                        int(control["cycles"]),
                        "states "
                        + ("bit-identical" if same_states else "MISMATCH")
                        + ", cycles "
                        + ("equal" if same_cycles else "DIFFER"),
                    )

            serve = measure(
                "serve",
                {
                    "csr_dir": csr_dir,
                    "store_dir": os.path.join(level_dir, "store"),
                    "system": SWEEP_SYSTEM,
                    "cores": config.cores,
                    "max_rounds": config.max_rounds,
                },
            )
            table.add(
                label,
                "serve",
                n,
                m,
                serve["index_dtype"],
                _fmt_mb(serve["counters"]["obs.mem.graph_bytes"]),
                round(serve["wall_ms"] / 1e3, 2),
                round(serve["counters"]["obs.mem.peak_rss_kb"] / 1024, 1),
                int(serve["cycles"]),
                "worker spool, mmap store",
            )

            levels_payload[label] = {
                "level": level,
                "num_vertices": n,
                "num_edges": m,
                "index_dtype": build["index_dtype"],
                "build": build,
                "backends": backends,
                "serve": serve,
            }
    finally:
        if tmp is not None:
            tmp.cleanup()

    build_rss = [
        lvl["build"]["counters"]["obs.mem.peak_rss_kb"]
        for lvl in levels_payload.values()
    ]
    table.note(
        "every phase runs in a fresh spawned process; peak_rss_MB is that "
        "process's ru_maxrss high-water mark (imports included — see "
        "mem.baseline_rss_kb in the metrics payload)"
    )
    table.note(
        "build peak RSS across levels: "
        + " / ".join(f"{kb / 1024:.1f}MB" for kb in build_rss)
        + " — flat while |E| grows "
        + f"{max(config.levels) // min(config.levels)}x (streamed "
        "generation + external counting-sort build)"
    )
    table.note(
        f"bit-identity at {match_level}: mmap'd narrow vs in-RAM int64 "
        "states "
        + ("bit-identical" if state_match else "MISMATCH")
        + ", simulated cycles "
        + ("equal" if cycles_match else "DIFFER")
        + " (modelled layout keeps fixed 8-byte strides at every width)"
    )

    payload: Dict[str, object] = {
        "config": config.gate_config(),
        "levels": levels_payload,
        "match_level": match_level,
        "state_match": state_match,
        "cycles_match": cycles_match,
        "mem_counter_family": ["obs." + name for name in MEM_COUNTER_FAMILY],
    }
    return table, payload


def write_artifacts(
    table: ExperimentTable,
    payload: Dict[str, object],
    out_dir: str = "results",
) -> Tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table_path = out / "scale_sweep.txt"
    table_path.write_text(table.render() + "\n", encoding="utf-8")
    metrics_path = out / "scale_sweep.metrics.json"
    metrics_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return table_path, metrics_path


def main() -> None:  # pragma: no cover - exercised via the CLI
    table, payload = run()
    table.print()
    table_path, metrics_path = write_artifacts(table, payload)
    print(f"\ntable:   {table_path}")
    print(f"metrics: {metrics_path}")
    if not payload["state_match"]:
        raise SystemExit(
            "FAIL: narrowed/mmap'd states diverged from the int64 in-RAM run"
        )
    if not payload["cycles_match"]:
        raise SystemExit(
            "FAIL: simulated cycles changed with the host storage width"
        )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
