"""Bit-identity of the serving tier against its digest golden.

``tests/goldens/serve_digests.json`` was generated by
``tests/goldens/generate_serve_digests.py`` while ``GraphService`` and
``ClusterService`` still carried their own copies of admission, deadline
shedding and cache/engine accounting.  Every run must reproduce its
full ``obs.*`` snapshot and every terminal response (status, cache hit,
warmth, latency and completion instant) exactly.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_serve_digests", GOLDEN_DIR / "generate_serve_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


generator = _load_generator()
GOLDEN = json.loads(
    (GOLDEN_DIR / "serve_digests.json").read_text(encoding="utf-8")
)


def test_golden_covers_every_run():
    assert sorted(GOLDEN["runs"]) == sorted(key for key, _ in generator.RUNS)


@pytest.mark.parametrize(
    "key,run", generator.RUNS, ids=[key for key, _ in generator.RUNS]
)
def test_matches_digest_golden(key, run):
    got = generator.run_digest(run)
    want = GOLDEN["runs"][key]
    assert got["obs"] == want["obs"]
    assert got["responses"] == want["responses"]
