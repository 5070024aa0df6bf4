"""The observability layer: purity when off, determinism when on.

The contract under test is the one ROADMAP's same-seed determinism
demands of any instrumentation:

* **off = untouched** — with observability disabled every handle is the
  shared null singleton, no spans or counters are recorded anywhere, and
  an instrumented run's saved result is byte-identical to an
  uninstrumented one;
* **on = structurally deterministic** — counters and gauges (the
  structural sections of the metrics artifact) are byte-stable across
  runs; only the timing sections vary;
* the merge/export surfaces (worker payload merging, Chrome trace
  export, pstats merging, the summarize table) behave as documented.
"""

from __future__ import annotations

import json
import pstats

import pytest

from repro import CampaignConfig, MeasurementCampaign, obs
from repro.cli import main
from repro.core.io import load_result, save_result
from repro.core.results import CampaignResult, RelayRegistry
from repro.obs import MetricsRegistry, NullHandle, SpanTracer, summarize_metrics
from repro.obs.metrics import NULL_HANDLE
from repro.obs.profile import profile_to, profile_worker_job


@pytest.fixture
def obs_on():
    """Metrics + tracing enabled for one test, always restored."""
    obs.enable(metrics=True, trace=True)
    yield
    obs.disable()


def _campaign_bytes(world, path) -> bytes:
    campaign = MeasurementCampaign(world, CampaignConfig(num_rounds=2))
    save_result(campaign.run(), str(path))
    return path.read_bytes()


class TestDisabledPurity:
    def test_all_handles_are_the_null_singleton(self):
        assert obs.counter("a") is NULL_HANDLE
        assert obs.gauge("b") is NULL_HANDLE
        assert obs.timer("c") is NULL_HANDLE
        assert obs.span("d") is NULL_HANDLE
        assert isinstance(NULL_HANDLE, NullHandle)
        assert not NULL_HANDLE  # falsy, so `if handle:` guards cost nothing

    def test_null_handle_records_nothing(self):
        with obs.span("phase"):
            obs.inc("n", 5)
            obs.set_gauge("g", 1.0)
            obs.observe("t", 0.25)
        assert obs.metrics_registry() is None
        assert obs.tracer() is None
        assert not obs.active()

    def test_worker_payload_is_none_when_off(self):
        obs.begin_worker(lane=7)
        assert obs.worker_payload() is None

    def test_run_with_obs_off_matches_run_with_obs_on(
        self, small_world, tmp_path
    ):
        off = _campaign_bytes(small_world, tmp_path / "off.json")
        obs.enable(metrics=True, trace=True)
        try:
            on = _campaign_bytes(small_world, tmp_path / "on.json")
            assert len(obs.tracer()) > 0  # instrumentation really recorded
        finally:
            obs.disable()
        assert off == on

    def test_write_when_off_emits_empty_artifacts(self, tmp_path):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.json"
        obs.write_metrics(str(metrics_path))
        obs.write_trace(str(trace_path))
        artifact = json.loads(metrics_path.read_text())
        assert artifact["structural"] == {"counters": {}, "gauges": {}}
        assert json.loads(trace_path.read_text())["traceEvents"] == []


class TestEnabledDeterminism:
    def _structural(self, world) -> tuple[str, list[str]]:
        obs.enable(metrics=True, trace=True)
        try:
            MeasurementCampaign(world, CampaignConfig(num_rounds=2)).run()
            artifact = obs.metrics_registry().as_artifact()
        finally:
            obs.disable()
        return (
            json.dumps(artifact["structural"], sort_keys=True),
            sorted(artifact["timings"]),
        )

    def test_structural_sections_are_byte_stable(self, small_world):
        first_structural, first_timings = self._structural(small_world)
        second_structural, second_timings = self._structural(small_world)
        assert first_structural == second_structural
        assert first_timings == second_timings

    def test_artifact_schema(self, small_world, tmp_path, obs_on):
        MeasurementCampaign(small_world, CampaignConfig(num_rounds=1)).run()
        path = tmp_path / "metrics.json"
        obs.write_metrics(str(path))
        artifact = json.loads(path.read_text())
        assert artifact["schema"] == "repro.obs.metrics/1"
        assert artifact["structural"]["counters"]["campaign.rounds"] == 1
        round_timing = artifact["timings"]["campaign.round"]
        assert round_timing["count"] == 1
        assert round_timing["total_ms"] >= round_timing["min_ms"]

    def test_result_io_spans(self, tmp_path, obs_on):
        path = tmp_path / "empty.npz"
        save_result(CampaignResult(rounds=[], registry=RelayRegistry()), path)
        load_result(path)
        timings = obs.metrics_registry().as_artifact()["timings"]
        assert timings["io.save_result"]["count"] == 1
        assert timings["io.load_result"]["count"] == 1


class TestMetricsRegistry:
    def test_counters_gauges_timers(self):
        registry = MetricsRegistry()
        handle = registry.counter("hits")
        handle.inc()
        handle.inc(4)
        registry.gauge("depth").set(2.5)
        registry.observe("phase", 0.002)
        artifact = registry.as_artifact()
        assert artifact["structural"]["counters"]["hits"] == 5
        assert artifact["structural"]["gauges"]["depth"] == 2.5
        assert artifact["timings"]["phase"]["total_ms"] == 2.0

    def test_merge_payload_sums_counters_and_merges_timings(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        a.observe("t", 0.004)
        b.observe("t", 0.002)
        b.set_gauge("g", 9)
        a.merge_payload(b.to_payload())
        artifact = a.as_artifact()
        assert artifact["structural"]["counters"]["n"] == 5
        assert artifact["structural"]["gauges"]["g"] == 9
        timing = artifact["timings"]["t"]
        assert timing["count"] == 2
        assert timing["min_ms"] == 2.0
        assert timing["max_ms"] == 4.0

    def test_artifact_bytes_are_stable_for_equal_structural_state(self):
        def build():
            registry = MetricsRegistry()
            registry.inc("b", 2)
            registry.inc("a", 1)
            return registry

        first, second = build().as_artifact(), build().as_artifact()
        assert json.dumps(first["structural"], sort_keys=True) == json.dumps(
            second["structural"], sort_keys=True
        )


class TestTrace:
    def test_chrome_export_shape(self):
        tracer = SpanTracer()
        tracer.add_complete("alpha", 10.0, 0.5, 0.25)
        tracer.add_complete("beta", 11.0, 0.125, 0.1)
        trace = tracer.to_chrome()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["alpha", "beta"]
        assert complete[0]["ts"] == 0  # re-based to the earliest span
        assert complete[0]["dur"] == 500_000
        assert complete[0]["args"]["cpu_ms"] == 250.0
        meta = {e["name"] for e in events if e["ph"] == "M"}
        assert {"process_name", "thread_name"} <= meta

    def test_merged_worker_payload_keeps_its_lane(self):
        front = SpanTracer()
        front.add_complete("front", 10.0, 0.1, 0.1)
        worker = SpanTracer(lane=3, lane_name="worker-2")
        worker.add_complete("work", 10.5, 0.2, 0.2)
        front.merge_payload(worker.to_payload())
        complete = [
            e for e in front.to_chrome()["traceEvents"] if e["ph"] == "X"
        ]
        assert {e["tid"] for e in complete} == {0, 3}
        names = [
            e for e in front.to_chrome()["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert {m["args"]["name"] for m in names} == {"main", "worker-2"}


class TestSweepFanOutMerging:
    def test_two_worker_sweep_merges_worker_lanes(self, obs_on):
        from repro.core.sweep import SweepRequest, run_sweep

        request = SweepRequest.from_scenario(
            ("baseline",),
            seeds=(11, 12),
            rounds=1,
            countries=8,
            workers=2,
        )
        run_sweep(request)
        artifact = obs.metrics_registry().as_artifact()
        assert artifact["structural"]["counters"]["sweep.jobs"] == 2
        busy = artifact["timings"]["sweep.worker.busy"]
        assert busy["count"] >= 1  # one observation per worker pid used
        lanes = {event[4] for event in obs.tracer()._events}
        assert len(lanes - {0}) == 2  # both pool pids traced as own lanes


class TestProfile:
    def test_profile_to_writes_mergeable_pstats(self, tmp_path):
        out = tmp_path / "driver.prof"
        with profile_to(str(out)):
            sum(range(1000))
        assert pstats.Stats(str(out)).total_calls > 0

    def test_worker_profiles_merge_into_driver_stats(self, tmp_path):
        from repro.obs.profile import active_worker_dir

        out = tmp_path / "merged.prof"
        with profile_to(str(out), workers=True):
            worker_dir = active_worker_dir()
            assert worker_dir is not None
            with profile_worker_job(worker_dir, "job-1"):
                sum(range(1000))
        assert pstats.Stats(str(out)).total_calls > 0

    def test_worker_job_is_noop_without_a_directory(self):
        with profile_worker_job(None, "job"):
            pass


class TestSummarizeAndCli:
    def test_summarize_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            summarize_metrics({"schema": "bogus/9"})

    def test_summarize_renders_tables(self):
        registry = MetricsRegistry()
        registry.inc("service.queries", 41)
        registry.set_gauge("sweep.workers", 2)
        registry.observe("campaign.round", 0.25)
        text = summarize_metrics(registry.as_artifact())
        assert "campaign.round" in text
        assert "service.queries" in text
        assert "41" in text
        assert "sweep.workers" in text

    def test_cli_metrics_summarize(self, tmp_path, capsys):
        registry = MetricsRegistry()
        registry.inc("campaign.rounds", 2)
        path = tmp_path / "m.json"
        registry.write(str(path))
        assert main(["metrics", "summarize", str(path)]) == 0
        assert "campaign.rounds" in capsys.readouterr().out

    def test_cli_campaign_writes_obs_artifacts(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        code = main(
            [
                "campaign",
                "--seed", "3",
                "--countries", "8",
                "--rounds", "1",
                "--out", str(tmp_path / "r.json"),
                "--metrics", str(metrics),
                "--trace", str(trace),
            ]
        )
        assert code == 0
        capsys.readouterr()
        artifact = json.loads(metrics.read_text())
        assert artifact["structural"]["counters"]["campaign.rounds"] == 1
        assert artifact["timings"]["io.save_result"]["count"] == 1
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("name") == "campaign.round" for e in events)
        assert any(e.get("name") == "io.save_result" for e in events)
        assert not obs.active()  # the CLI restored the null recorders
        assert main(["metrics", "summarize", str(metrics)]) == 0
        assert "io.save_result" in capsys.readouterr().out

    def test_cli_campaign_profile(self, tmp_path, capsys):
        out = tmp_path / "p.prof"
        code = main(
            [
                "campaign",
                "--seed", "3",
                "--countries", "8",
                "--rounds", "1",
                "--out", str(tmp_path / "r.json"),
                "--profile", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert pstats.Stats(str(out)).total_calls > 0
