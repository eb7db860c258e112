"""Shared infrastructure for the experiment harness.

Every experiment module exposes ``run(config) -> ExperimentTable`` plus a
``main()`` that prints the table, so each figure/table of the paper can be
regenerated with ``python -m repro.experiments.figXX`` or through the
pytest-benchmark harness under ``benchmarks/``.

Scaling: the SNAP datasets are replaced by stand-ins (see
:mod:`repro.graph.datasets`); ``ExperimentConfig.scale`` multiplies their
size and can be overridden with the ``REPRO_SCALE`` environment variable
(``REPRO_CORES`` overrides the core count).  Absolute numbers therefore
differ from the paper; the *shape* — who wins, by what factor, where the
crossovers sit — is the reproduction target recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..algorithms import PAPER_ALGORITHMS, Algorithm, make as make_algorithm
from ..graph import datasets
from ..graph.csr import CSRGraph
from ..hardware.config import HardwareConfig
from ..metrics.report import format_table
from ..runtime import ExecutionResult, run as run_system


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name)
    return float(value) if value else default


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _env_str(name: str, default: str) -> str:
    value = os.environ.get(name)
    return value if value else default


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs common to every experiment."""

    scale: float = _env_float("REPRO_SCALE", 0.3)
    cores: int = _env_int("REPRO_CORES", 64)
    #: vertex ordering applied to every run (``REPRO_REORDER`` overrides;
    #: see :mod:`repro.graph.reorder`)
    reorder: str = _env_str("REPRO_REORDER", "identity")
    #: execution backend for every run (``REPRO_BACKEND`` overrides;
    #: ``scalar`` or ``vector`` — see :mod:`repro.runtime.vector`)
    backend: str = _env_str("REPRO_BACKEND", "scalar")
    #: datasets to sweep (paper order); trimmed by cheap presets
    dataset_names: Tuple[str, ...] = datasets.DATASET_NAMES
    #: algorithms to sweep (paper: pagerank, adsorption, sssp, wcc)
    algorithm_names: Tuple[str, ...] = tuple(PAPER_ALGORITHMS)
    seed: int = 0

    def hardware(self, cores: Optional[int] = None) -> HardwareConfig:
        return HardwareConfig.scaled(num_cores=cores or self.cores)

    def quick(self) -> "ExperimentConfig":
        """A cheaper variant for smoke tests: smallest useful scale, two
        datasets, two algorithms."""
        return ExperimentConfig(
            scale=min(self.scale, 0.2),
            cores=min(self.cores, 16),
            reorder=self.reorder,
            backend=self.backend,
            dataset_names=("AZ", "PK"),
            algorithm_names=("pagerank", "sssp"),
        )


@dataclass
class ExperimentTable:
    """One reproduced figure/table: headers + rows + provenance notes."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *row: object) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        out = [f"== {self.experiment_id}: {self.title} =="]
        out.append(format_table(self.headers, self.rows))
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.render())

    def column(self, header: str) -> List[object]:
        index = list(self.headers).index(header)
        return [row[index] for row in self.rows]


class WorkloadCache:
    """Memoizes graphs and execution results within one harness process so
    figures that share runs (e.g. Figures 9 and 10) pay for them once."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self._graphs: Dict[Tuple[str, float], CSRGraph] = {}
        self._results: Dict[Tuple, ExecutionResult] = {}

    def graph(self, name: str) -> CSRGraph:
        key = (name, self.config.scale)
        if key not in self._graphs:
            self._graphs[key] = datasets.load(name, scale=self.config.scale)
        return self._graphs[key]

    def algorithm(self, name: str) -> Algorithm:
        return make_algorithm(name)

    def result(
        self,
        system: str,
        dataset: str,
        algorithm: str,
        cores: Optional[int] = None,
        **options,
    ) -> ExecutionResult:
        cores = cores or self.config.cores
        if self.config.reorder != "identity":
            options.setdefault("reorder", self.config.reorder)
        if self.config.backend != "scalar":
            options.setdefault("backend", self.config.backend)
        key = (system, dataset, algorithm, cores, tuple(sorted(options.items())))
        if key not in self._results:
            self._results[key] = run_system(
                system,
                self.graph(dataset),
                self.algorithm(algorithm),
                self.config.hardware(cores),
                **options,
            )
        return self._results[key]

    @staticmethod
    def _run_label(key: Tuple) -> str:
        system, dataset, algorithm, cores, options = key
        label = f"{system}/{dataset}/{algorithm}@{cores}"
        if options:
            label += "?" + ",".join(f"{k}={v}" for k, v in options)
        return label

    def metrics_snapshot(self, exclude: Iterable[str] = ()) -> Dict[str, Dict]:
        """Per-run ``obs.*`` counter snapshots for every memoized result.

        Keys are human-readable run labels
        (``system/dataset/algorithm@cores``); ``exclude`` skips labels
        already captured (so a session-scoped cache can attribute each
        run to the first figure that paid for it).  The payload is
        JSON-ready: plain floats only.
        """
        exclude = set(exclude)
        snapshot: Dict[str, Dict] = {}
        for key, result in self._results.items():
            label = self._run_label(key)
            if label in exclude:
                continue
            snapshot[label] = {
                "system": key[0],
                "dataset": key[1],
                "algorithm": key[2],
                "cores": key[3],
                "cycles": float(result.cycles),
                "rounds": int(result.rounds),
                "converged": bool(result.converged),
                "counters": {
                    name: float(value)
                    for name, value in sorted(result.extra.items())
                    if name.startswith("obs.")
                },
            }
        return snapshot


def geometric_mean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
