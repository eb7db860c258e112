"""The declarative gate (``benchmarks/gate.py``) on small regressed fixtures.

The traffic, stream and scale sections are covered beside their sweeps
(``test_traffic.py``, ``test_stream.py``, ``test_scale.py``); this file
covers the fig11 counter, reorder, cluster and serve-smoke sections, the
step summary, and the verdicts on the committed artifacts.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "gate", REPO_ROOT / "benchmarks" / "gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_gate(section, metrics, baselines, *extra):
    argv = [section, "--metrics", str(metrics), "--baselines", str(baselines)]
    return load_gate().main(argv + list(extra))


def seeded(tmp_path, section, payload):
    """A baselines file recorded from ``payload`` with ``--update``."""
    baselines = tmp_path / "baselines.json"
    good = write(tmp_path, "good.json", payload)
    assert run_gate(section, good, baselines, "--update") == 0
    return baselines


# ----------------------------------------------------------------------
# fig11 obs.* counters.
# ----------------------------------------------------------------------
def fig11_run(llc=0.5, steals=100.0, span=4_000.0):
    return {
        "cores": 8,
        "counters": {
            "obs.cache.llc.hit_rate": llc,
            "obs.sched.steals_attempted": steals,
            "obs.sim.cycles": 1_000.0,
            "obs.span.root.cycles": span,
        },
    }


def fig11_payload(scale=0.05, **run):
    return {"scale": scale, "cores": 8, "runs": {"ligra-o/GL/sssp@8": fig11_run(**run)}}


class TestFig11Section:
    @pytest.fixture
    def baselines(self, tmp_path):
        return seeded(tmp_path, "fig11", fig11_payload())

    def test_update_records_span_shares(self, baselines):
        section = json.loads(baselines.read_text(encoding="utf-8"))["fig11"]
        run = section["runs"]["ligra-o/GL/sssp@8"]
        assert run["span_share"] == {"root": 0.5}
        assert section["config"] == {"cores": 8, "scale": 0.05}

    @pytest.mark.parametrize(
        "regressed, needle",
        [
            ({"llc": 0.48}, "LLC hit rate dropped"),
            ({"steals": 121.0}, "steal attempts grew"),
            ({"span": 4_500.0}, "span share of machine cycles rose"),
            ({"span": 3_500.0}, "span share of machine cycles fell"),
            ({"scale": 0.3}, "does not match baseline config"),
        ],
    )
    def test_regression_fails(self, tmp_path, baselines, capsys, regressed, needle):
        bad = write(tmp_path, "bad.json", fig11_payload(**regressed))
        assert run_gate("fig11", bad, baselines) == 1
        assert needle in capsys.readouterr().out

    def test_within_slack_passes(self, tmp_path, baselines):
        near = write(tmp_path, "near.json", fig11_payload(llc=0.495, steals=119.0))
        assert run_gate("fig11", near, baselines) == 0

    def test_every_run_needs_its_counters(self, tmp_path, baselines, capsys):
        # a run the baselines never recorded is still checked for counters
        payload = fig11_payload()
        extra = fig11_run()
        del extra["counters"]["obs.sched.steals_attempted"]
        payload["runs"]["phi/GL/sssp@8"] = extra
        bad = write(tmp_path, "bad.json", payload)
        assert run_gate("fig11", bad, baselines) == 1
        out = capsys.readouterr().out
        assert "runs[phi/GL/sssp@8]: missing counters/obs.sched.steals_attempted" in out


# ----------------------------------------------------------------------
# Reorder: equivalence and at least one improving pair.
# ----------------------------------------------------------------------
def reorder_run(ordering, l2, llc, state_match=True):
    return {
        "system": "ligra-o",
        "dataset": "GL",
        "algorithm": "sssp",
        "cores": 8,
        "ordering": ordering,
        "converged": True,
        "state_match": state_match,
        "counters": {
            "obs.reorder.applied": 0.0 if ordering == "identity" else 1.0,
            "obs.cache.l2.hit_rate": l2,
            "obs.cache.llc.hit_rate": llc,
        },
    }


def reorder_payload(degree_l2=0.6, state_match=True):
    return {
        "scale": 0.3,
        "cores": 8,
        "runs": {
            "ligra-o/GL/sssp@8?reorder=identity": reorder_run("identity", 0.5, 0.8),
            "ligra-o/GL/sssp@8?reorder=degree": reorder_run(
                "degree", degree_l2, 0.8, state_match
            ),
        },
    }


class TestReorderSection:
    def test_improving_pair_passes(self, tmp_path, capsys):
        good = write(tmp_path, "good.json", reorder_payload())
        assert run_gate("reorder", good, REPO_ROOT / "benchmarks" / "baselines.json") == 0
        assert "1 of 1 runs hold" in capsys.readouterr().out

    def test_state_mismatch_fails(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", reorder_payload(state_match=False))
        assert run_gate("reorder", bad, REPO_ROOT / "benchmarks" / "baselines.json") == 1
        assert "state mismatch vs identity" in capsys.readouterr().out

    def test_no_improving_pair_fails(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", reorder_payload(degree_l2=0.4))
        assert run_gate("reorder", bad, REPO_ROOT / "benchmarks" / "baselines.json") == 1
        assert "no (dataset, system) pair" in capsys.readouterr().out

    def test_config_mismatch_fails(self, tmp_path, capsys):
        payload = dict(reorder_payload(), scale=0.1)
        bad = write(tmp_path, "bad.json", payload)
        assert run_gate("reorder", bad, REPO_ROOT / "benchmarks" / "baselines.json") == 1
        out = capsys.readouterr().out
        assert "does not match baseline config" in out
        assert "scale: baseline 0.3 != sweep 0.1" in out


# ----------------------------------------------------------------------
# Cluster: target speedup and deterministic replay.
# ----------------------------------------------------------------------
def cluster_payload(speedup=2.2, replay=True):
    point = {"p95_cycles": 500_000.0, "shed_rate": 0.0, "throughput_q_per_mcycle": 80.0}
    return {
        "config": {"workers": 1, "worker_counts": [1, 4]},
        "workers": {"1": dict(point, throughput_q_per_mcycle=40.0), "4": point},
        "gate_workers": 4,
        "speedup_gate_vs_1w": speedup,
        "target_speedup": 2.0,
        "deterministic_replay": replay,
        "cold": {"p95_cycles": 900_000.0},
    }


class TestClusterSection:
    def test_speedup_below_target_fails(self, tmp_path, capsys):
        baselines = seeded(tmp_path, "cluster", cluster_payload())
        slow = write(tmp_path, "slow.json", cluster_payload(speedup=1.9))
        assert run_gate("cluster", slow, baselines) == 1
        assert "speedup over 1 worker below target" in capsys.readouterr().out

    def test_replay_divergence_fails(self, tmp_path, capsys):
        baselines = seeded(tmp_path, "cluster", cluster_payload())
        bad = write(tmp_path, "bad.json", cluster_payload(replay=False))
        assert run_gate("cluster", bad, baselines) == 1
        assert "replay diverged" in capsys.readouterr().out

    def test_gate_pool_p95_against_cold_control(self, tmp_path, capsys):
        baselines = seeded(tmp_path, "cluster", cluster_payload())
        payload = cluster_payload()
        payload["cold"]["p95_cycles"] = 400_000.0
        bad = write(tmp_path, "bad.json", payload)
        assert run_gate("cluster", bad, baselines) == 1
        assert "exceeds the cold control" in capsys.readouterr().out


# ----------------------------------------------------------------------
# serve-smoke: a flat payload of required flags.
# ----------------------------------------------------------------------
#: the CI replay's config (``serve-bench --dataset AZ --scale 0.1 --slots 8
#: --cores 4 --seed 0``), the section's recorded identity
SERVE_CONFIG = {"dataset": "AZ", "scale": 0.1, "seed": 0, "cores": 4, "slots": 8}


def serve_payload(reorder="degree", **metrics):
    counts = {
        "serve.cache_hits": 3.0,
        "serve.cache_hit_rate": 0.25,
        "serve.engine_runs": 9.0,
        "serve.warm_runs": 4.0,
    }
    counts.update(metrics)
    return dict(SERVE_CONFIG, reorder=reorder, metrics=counts)


class TestServeSmokeSection:
    @pytest.mark.parametrize(
        "payload, needle",
        [
            (serve_payload(reorder="identity"), "reorder not recorded"),
            (serve_payload(**{"serve.cache_hits": 0.0}), "no cache hits"),
            (serve_payload(**{"serve.warm_runs": 0.0}), "no warm-start runs"),
        ],
    )
    def test_regression_fails(self, tmp_path, capsys, payload, needle):
        bad = write(tmp_path, "bad.json", payload)
        assert run_gate("serve-smoke", bad, REPO_ROOT / "benchmarks" / "baselines.json") == 1
        assert needle in capsys.readouterr().out

    def test_healthy_replay_passes(self, tmp_path):
        good = write(tmp_path, "good.json", serve_payload())
        assert run_gate("serve-smoke", good, REPO_ROOT / "benchmarks" / "baselines.json") == 0

    def test_config_mismatch_fails(self, tmp_path, capsys):
        payload = dict(serve_payload(), slots=30)
        bad = write(tmp_path, "bad.json", payload)
        assert run_gate("serve-smoke", bad, REPO_ROOT / "benchmarks" / "baselines.json") == 1
        out = capsys.readouterr().out
        assert "does not match baseline config" in out
        assert "slots: baseline 8 != sweep 30" in out


def test_step_summary_table_written(tmp_path, monkeypatch):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    baselines = seeded(tmp_path, "fig11", fig11_payload())
    bad = write(tmp_path, "bad.json", fig11_payload(llc=0.1))
    assert run_gate("fig11", bad, baselines) == 1
    text = summary.read_text(encoding="utf-8")
    assert "### perf gate (fig11 counters)" in text
    assert "| :x: FAIL | runs[ligra-o/GL/sssp@8]: LLC hit rate dropped" in text


def test_unknown_section_is_one_line(tmp_path, capsys):
    assert run_gate("nope", tmp_path / "m.json", tmp_path / "b.json") == 1
    assert capsys.readouterr().out.startswith("FAIL: no gate section 'nope'")


@pytest.mark.parametrize(
    "section, verdict",
    [("fig11", 0), ("traffic", 0), ("cluster", 0), ("stream", 0), ("reorder", 0),
     # results/scale_sweep.* is the nightly config; the gate pins the smoke one
     ("scale", 1)],
)
def test_committed_artifact_verdicts(section, verdict, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    assert load_gate().main([section]) == verdict
