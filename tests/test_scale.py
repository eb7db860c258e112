"""The scale sweep (``experiment scale``) and its gate section.

The sweep itself spawns one child process per measurement (peak RSS via
``ru_maxrss`` is a process-lifetime high-water mark), so the smoke run
here uses the smallest config that still exercises every phase: two
levels, scalar capped at the first, bit-identity controls at the
smallest.  The gate tests drive ``gate.py scale`` on
synthetic payloads — no child processes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import scale_sweep
from repro.experiments.scale_sweep import (
    MEM_COUNTER_FAMILY,
    ScaleConfig,
    _mem_counters,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def tiny_config(**overrides):
    kwargs = dict(
        base_vertices=48,
        avg_degree=8,
        levels=(1, 2),
        scalar_cap=1,
        cores=4,
        chunk_edges=64,
        seed=3,
        max_rounds=600,
    )
    kwargs.update(overrides)
    return ScaleConfig(**kwargs)


class TestMemCounters:
    def test_family_zero_seeded_and_prefixed(self):
        counters = _mem_counters()
        assert set(counters) == {"obs." + name for name in MEM_COUNTER_FAMILY}
        assert counters["obs.mem.graph_bytes"] == 0.0
        assert counters["obs.mem.peak_rss_kb"] > 0.0

    def test_gate_config_pins_the_identity(self):
        config = tiny_config()
        identity = config.gate_config()
        assert identity["levels"] == [1, 2]
        assert identity["algorithm"] == scale_sweep.SWEEP_ALGORITHM
        assert identity["system"] == scale_sweep.SWEEP_SYSTEM


class TestScaleSweepSmoke:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("scale")
        return scale_sweep.run(tiny_config(), workdir=str(workdir))

    def test_states_and_cycles_width_invariant(self, sweep):
        _, payload = sweep
        assert payload["state_match"] is True
        assert payload["cycles_match"] is True
        assert payload["match_level"] == "1x"

    def test_every_phase_reported_per_level(self, sweep):
        table, payload = sweep
        phases = {
            (row[0], row[1]) for row in table.rows
        }
        assert ("1x", "build") in phases
        assert ("1x", "scalar") in phases
        assert ("1x", "vector") in phases
        assert ("1x", "vector-ram64") in phases
        assert ("1x", "serve") in phases
        assert ("2x", "vector") in phases
        # the scalar cap shows up as an explicit skipped row
        assert ("2x", "scalar") in phases
        assert len(payload["levels"]) == 2

    def test_counters_carry_the_mem_family(self, sweep):
        _, payload = sweep
        family = set(payload["mem_counter_family"])
        for level in payload["levels"].values():
            assert family <= set(level["build"]["counters"])
            assert family <= set(level["serve"]["counters"])
            for backend in level["backends"].values():
                assert family <= set(backend["counters"])
            assert level["build"]["counters"]["obs.mem.peak_rss_kb"] > 0

    def test_narrowing_engaged(self, sweep):
        _, payload = sweep
        for level in payload["levels"].values():
            counters = level["build"]["counters"]
            assert level["index_dtype"] == "int32"
            assert (
                counters["obs.mem.graph_bytes"]
                < counters["obs.mem.graph_bytes_int64"]
            )

    def test_artifacts_roundtrip(self, sweep, tmp_path):
        table, payload = sweep
        table_path, metrics_path = scale_sweep.write_artifacts(
            table, payload, out_dir=str(tmp_path)
        )
        assert "scale_sweep" in table_path.read_text(encoding="utf-8")
        restored = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert restored["state_match"] is True
        assert restored["config"] == payload["config"]


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "gate", REPO_ROOT / "benchmarks" / "gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_scale_metrics(
    tmp_path,
    rss_small=40_000.0,
    rss_large=42_000.0,
    graph_ratio=0.5,
    vector_cycles=1_000_000.0,
    state_match=True,
    cycles_match=True,
):
    config = tiny_config().gate_config()

    def level(rss, bytes_int64, cycles):
        return {
            "index_dtype": "int32",
            "build": {
                "counters": {
                    "obs.mem.peak_rss_kb": rss,
                    "obs.mem.graph_bytes": bytes_int64 * graph_ratio,
                    "obs.mem.graph_bytes_int64": bytes_int64,
                }
            },
            "backends": {"vector": {"cycles": cycles}},
        }

    payload = {
        "config": config,
        "match_level": "1x",
        "state_match": state_match,
        "cycles_match": cycles_match,
        "levels": {
            "1x": level(rss_small, 1.0e6, vector_cycles),
            "2x": level(rss_large, 2.0e6, vector_cycles * 2),
        },
    }
    path = tmp_path / "scale_metrics.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestScaleGate:
    def seed(self, tmp_path, gate, **kwargs):
        baselines = tmp_path / "baselines.json"
        good = synthetic_scale_metrics(tmp_path, **kwargs)
        assert (
            gate.main(
                [
                    "scale", "--update",
                    "--metrics", str(good),
                    "--baselines", str(baselines),
                ]
            )
            == 0
        )
        return baselines

    def check(self, gate, metrics, baselines):
        return gate.main(
            [
                "scale",
                "--metrics", str(metrics),
                "--baselines", str(baselines),
            ]
        )

    def test_update_then_check_round_trip(self, tmp_path):
        gate = load_gate()
        baselines = self.seed(tmp_path, gate)
        good = synthetic_scale_metrics(tmp_path)
        assert self.check(gate, good, baselines) == 0
        payload = json.loads(baselines.read_text(encoding="utf-8"))
        assert set(payload["scale"]["levels"]) == {"1x", "2x"}

    def test_state_mismatch_fails(self, tmp_path, capsys):
        gate = load_gate()
        baselines = self.seed(tmp_path, gate)
        bad = synthetic_scale_metrics(tmp_path, state_match=False)
        assert self.check(gate, bad, baselines) == 1
        assert "states diverged" in capsys.readouterr().out

    def test_cycles_drift_with_width_fails(self, tmp_path, capsys):
        gate = load_gate()
        baselines = self.seed(tmp_path, gate)
        bad = synthetic_scale_metrics(tmp_path, cycles_match=False)
        assert self.check(gate, bad, baselines) == 1
        assert "storage width" in capsys.readouterr().out

    def test_rss_over_budget_fails(self, tmp_path, capsys):
        gate = load_gate()
        baselines = self.seed(tmp_path, gate)
        bloated = synthetic_scale_metrics(
            tmp_path, rss_small=40_000.0 * 1.51 + 49_153.0
        )
        assert self.check(gate, bloated, baselines) == 1
        assert "build peak RSS" in capsys.readouterr().out

    def test_rss_not_flat_fails(self, tmp_path, capsys):
        gate = load_gate()
        # baseline itself has the blow-up, so the per-level budget check
        # passes — only the sweep-internal flatness check can catch it
        gate_module = gate
        rss_large = 40_000.0 * 1.6 + 49_153.0
        baselines = self.seed(tmp_path, gate_module, rss_large=rss_large)
        bad = synthetic_scale_metrics(tmp_path, rss_large=rss_large)
        assert self.check(gate_module, bad, baselines) == 1
        assert "not flat" in capsys.readouterr().out

    def test_narrowing_disengaged_fails(self, tmp_path, capsys):
        gate = load_gate()
        baselines = self.seed(tmp_path, gate)
        wide = synthetic_scale_metrics(tmp_path, graph_ratio=1.0)
        assert self.check(gate, wide, baselines) == 1
        assert "narrowing did not engage" in capsys.readouterr().out

    def test_vector_cycles_regression_fails(self, tmp_path, capsys):
        gate = load_gate()
        baselines = self.seed(tmp_path, gate)
        slow = synthetic_scale_metrics(tmp_path, vector_cycles=1.3e6)
        assert self.check(gate, slow, baselines) == 1
        assert "vector cycles" in capsys.readouterr().out

    def test_config_mismatch_fails(self, tmp_path, capsys):
        gate = load_gate()
        baselines = self.seed(tmp_path, gate)
        drifted = synthetic_scale_metrics(tmp_path)
        payload = json.loads(drifted.read_text(encoding="utf-8"))
        payload["config"]["seed"] = 99
        drifted.write_text(json.dumps(payload), encoding="utf-8")
        assert self.check(gate, drifted, baselines) == 1
        assert "does not match baseline config" in capsys.readouterr().out

    def test_missing_level_fails(self, tmp_path, capsys):
        gate = load_gate()
        baselines = self.seed(tmp_path, gate)
        partial = synthetic_scale_metrics(tmp_path)
        payload = json.loads(partial.read_text(encoding="utf-8"))
        del payload["levels"]["2x"]
        partial.write_text(json.dumps(payload), encoding="utf-8")
        assert self.check(gate, partial, baselines) == 1
        assert "missing from the sweep" in capsys.readouterr().out
