"""Each output check of the benchmark fires on a perturbed output.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q

The last test runs ``run.py --smoke`` (every workload at a tiny size,
traced and untraced) and asserts that every metric ``BENCHMARK.json``
names is emitted with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    artifact_problems,
    dark_answer_count,
    digest_problems,
    fig2_lines,
    new_digest,
    sweep_problems,
    update_digest,
)


@pytest.fixture(scope="module")
def campaign_result():
    from repro.core.campaign import MeasurementCampaign
    from repro.core.config import CampaignConfig
    from repro.topology.config import TopologyConfig
    from repro.world import WorldConfig, build_world

    world = build_world(
        seed=11,
        config=WorldConfig(topology=TopologyConfig(country_limit=8)),
        use_world_cache=False,
    )
    return MeasurementCampaign(world, CampaignConfig(num_rounds=2)).run()


def test_artifact_check_passes_on_a_faithful_artifact(campaign_result, tmp_path):
    from repro.core.io import load_result, save_result

    path = tmp_path / "result.json"
    save_result(campaign_result, path)
    printed = "\n".join(fig2_lines(campaign_result)) + "\n\n(cdf chart)\n"
    assert artifact_problems(campaign_result, load_result(path), printed) == []


def test_artifact_check_fires_when_a_round_is_dropped(campaign_result, tmp_path):
    from repro.core.io import load_result, save_result

    path = tmp_path / "result.json"
    save_result(campaign_result, path)
    payload = json.loads(path.read_text())
    payload["rounds"] = payload["rounds"][:-1]
    path.write_text(json.dumps(payload))
    printed = "\n".join(fig2_lines(campaign_result))
    problems = artifact_problems(campaign_result, load_result(path), printed)
    assert any("summary()" in p for p in problems)


def test_artifact_check_fires_when_analyze_printed_something_else(campaign_result, tmp_path):
    from repro.core.io import load_result, save_result

    path = tmp_path / "result.json"
    save_result(campaign_result, path)
    lines = fig2_lines(campaign_result)
    lines[0] = lines[0][:-1] + "9"
    problems = artifact_problems(campaign_result, load_result(path), "\n".join(lines))
    assert problems == ["analyze --report fig2 printed a different summary"]


def _answers_digest(relay_ids, tier) -> str:
    digest = new_digest()
    update_digest(digest, relay_ids, tier)
    return digest.hexdigest()


def test_digest_check_fires_when_one_answer_row_flips(campaign_result):
    from repro.service.loadgen import LoadgenConfig, QueryStream
    from repro.service.service import ShortcutService

    service = ShortcutService.from_campaign(campaign_result)
    src, dst = QueryStream(
        service.directory, LoadgenConfig(num_queries=1024, seed=11)
    ).generate()
    batch = service.route_many(src, dst)
    reference = _answers_digest(batch.relay_ids, batch.tier)
    assert digest_problems("serve", [reference], [reference]) == []
    flipped = batch.relay_ids.copy()
    row = int(np.flatnonzero(flipped[:, 0] >= 0)[0])
    flipped[row] = flipped[row][::-1]
    if np.array_equal(flipped[row], batch.relay_ids[row]):
        flipped[row, 0] = -1
    problems = digest_problems("serve", [_answers_digest(flipped, batch.tier)], [reference])
    assert len(problems) == 1 and "pool 0" in problems[0]


def test_dark_answers_are_counted_against_the_top_relay_only():
    relay_ids = np.array([[0, 2, -1], [1, 0, 2], [-1, -1, -1], [2, 1, 0]], np.int32)
    dark = np.array([False, True, True])
    # row 0 tops a live relay, row 2 is a direct verdict: both serviceable
    assert dark_answer_count(relay_ids, dark) == 2
    assert dark_answer_count(relay_ids, np.zeros(3, bool)) == 0


def test_sweep_check_fires_on_shapes_and_on_drift():
    artifact = {
        "shapes_ok": True,
        "per_seed": [{"seed": 11, "total_cases": 10}],
        "timing": {"wall_clock_s": 1.0},
    }
    retimed = dict(artifact, timing={"wall_clock_s": 2.0})
    assert sweep_problems([artifact, retimed]) == []
    drifted = dict(artifact, per_seed=[{"seed": 11, "total_cases": 11}])
    assert sweep_problems([artifact, drifted]) == [
        "sweep 1: deterministic section differs from sweep 0"
    ]
    broken = dict(artifact, shapes_ok=False)
    assert sweep_problems([broken]) == ["sweep 0: paper-shape expectations failed"]


def test_smoke_emits_every_named_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=str(HERE.parent),
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("smoke ") == 8
