"""Tests for the Monte-Carlo scenario manager and its risk reductions.

The expensive end-to-end runs all share one class-scoped artifact pair
(1-worker and 2-worker runs of the frozen ``tiny-mc`` regime over one
world-snapshot cache); everything else is unit-level and cheap.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    SHAPE_KEYS,
    bootstrap_ci,
    hold_probability,
    risk_summary,
    summary_converged,
    top_relay_coverage,
    z_value,
)
from repro.cli import main
from repro.core.montecarlo import (
    DrawSpec,
    MonteCarloConfig,
    MonteCarloManager,
    ParamSpec,
    replace_field,
    run_montecarlo,
)
from repro.core.table import ObservationTable
from repro.errors import AnalysisError, ConfigError, UnknownScenarioError
from repro.scenarios import Regime, get_regime, list_regimes, regime_names
from repro.util.rand import derive_rng
from repro.world import WorldConfig

#: BLAKE2 digest of the 1-worker ``tiny-mc`` artifact below, ``timing``
#: excluded (JSON, sorted keys).
GOLDEN_TINY_MC_DIGEST = "9d9859c75d9de835ad39ef79ff9b3dc3"


def _tiny_config(**overrides) -> MonteCarloConfig:
    defaults = dict(
        regime="tiny-mc",
        seed=7,
        batch_size=4,
        max_draws=8,
        confidence=0.9,
        target_half_width=0.35,
        rounds=1,
        countries=8,
        bootstrap_resamples=500,
    )
    defaults.update(overrides)
    return MonteCarloConfig(**defaults)


class TestParamSpec:
    def test_rejects_bad_targets_and_kinds(self):
        with pytest.raises(ConfigError):
            ParamSpec("latency.jitter_sigma", "uniform", 0.0, 1.0)  # no root
        with pytest.raises(ConfigError):
            ParamSpec("world", "uniform", 0.0, 1.0)  # root only
        with pytest.raises(ConfigError):
            ParamSpec("world.latency.jitter_sigma", "gaussian", 0.0, 1.0)

    def test_numeric_kinds_validate_bounds(self):
        with pytest.raises(ConfigError):
            ParamSpec("world.latency.jitter_sigma", "uniform", 1.0, 1.0)
        with pytest.raises(ConfigError):
            ParamSpec("world.latency.jitter_sigma", "uniform", high=1.0)
        with pytest.raises(ConfigError):
            ParamSpec("world.latency.queueing_scale_ms", "log_uniform", 0.0, 1.0)
        with pytest.raises(ConfigError):
            ParamSpec(
                "world.latency.queueing_scale_ms", "log_uniform", 0.1, 1.0,
                integer=True,
            )

    def test_choice_kind_validates_choices(self):
        with pytest.raises(ConfigError):
            ParamSpec("campaign.relay_mix", "choice")
        with pytest.raises(ConfigError):
            ParamSpec("campaign.relay_mix", "choice", 0.0, 1.0, choices=(1, 2))

    def test_sampling_respects_distribution(self):
        rng = derive_rng(0, "test.paramspec")
        uniform = ParamSpec("world.latency.jitter_sigma", "uniform", 0.1, 0.2)
        values = [uniform.sample(rng) for _ in range(200)]
        assert all(0.1 <= v < 0.2 for v in values)
        log_uniform = ParamSpec(
            "world.latency.queueing_scale_ms", "log_uniform", 0.01, 100.0
        )
        logs = [math.log(log_uniform.sample(rng)) for _ in range(200)]
        assert all(math.log(0.01) <= v <= math.log(100.0) for v in logs)
        # log-uniform spreads mass across decades: the log-midpoint splits
        # the samples roughly in half (a plain uniform would put ~99% above)
        below = sum(1 for v in logs if v < math.log(1.0))
        assert 60 <= below <= 140
        integer = ParamSpec("campaign.pings_per_pair", "uniform", 6, 9, integer=True)
        ints = {integer.sample(rng) for _ in range(100)}
        assert ints <= {6, 7, 8, 9} and len(ints) > 1
        choice = ParamSpec("campaign.relay_mix", "choice", choices=("a", "b"))
        assert {choice.sample(rng) for _ in range(50)} == {"a", "b"}

    def test_as_dict_round_trips_the_description(self):
        spec = ParamSpec("world.latency.jitter_sigma", "uniform", 0.1, 0.2)
        assert spec.as_dict() == {
            "target": "world.latency.jitter_sigma", "kind": "uniform",
            "low": 0.1, "high": 0.2,
        }
        choice = ParamSpec("campaign.relay_mix", "choice", choices=("a",))
        assert choice.as_dict()["choices"] == ["a"]


class TestReplaceField:
    def test_replaces_nested_field_without_mutating(self):
        config = WorldConfig()
        updated = replace_field(config, "latency.jitter_sigma", 0.09)
        assert updated.latency.jitter_sigma == 0.09
        assert config.latency.jitter_sigma != 0.09
        assert updated.topology == config.topology

    def test_unknown_field_and_bad_descent_fail_loudly(self):
        config = WorldConfig()
        with pytest.raises(ConfigError):
            replace_field(config, "latency.no_such_knob", 1.0)
        with pytest.raises(ConfigError):
            replace_field(config, "latency.jitter_sigma.deeper", 1.0)

    def test_validation_reruns_on_replace(self):
        with pytest.raises(ConfigError):
            replace_field(WorldConfig(), "latency.spike_prob", 2.0)


class TestRegimeRegistry:
    def test_presets_registered(self):
        assert {"baseline-mc", "lossy-mc", "tiny-mc"} <= set(regime_names())
        assert [r.name for r in list_regimes()] == list(regime_names())

    def test_unknown_regime_raises_registry_error(self):
        with pytest.raises(UnknownScenarioError, match="tiny-mc"):
            get_regime("no-such-regime")
        # subclasses ConfigError, so legacy call sites keep working
        with pytest.raises(ConfigError):
            get_regime("no-such-regime")

    def test_regime_validates_claims_and_targets(self):
        with pytest.raises(ConfigError, match="unknown shapes"):
            Regime(name="x-mc", description="d", claims={"not_a_shape": True})
        with pytest.raises(ConfigError, match="positive"):
            Regime(name="x-mc", description="d", metric_targets={"win_rate_COR": 0})
        with pytest.raises(UnknownScenarioError):
            Regime(name="x-mc", description="d", base="no-such-scenario")

    def test_claim_keys_are_draw_shape_keys(self):
        for regime in list_regimes():
            if regime.claims is not None:
                assert set(regime.claims) <= set(SHAPE_KEYS)


class TestIntervals:
    def test_z_value_matches_normal_quantiles(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_value(0.9) == pytest.approx(1.644854, abs=1e-5)
        with pytest.raises(AnalysisError):
            z_value(1.0)

    def test_wilson_interval_stays_in_unit_range(self):
        point, low, high = hold_probability(4, 4, 0.9)
        assert point == 1.0 and high == 1.0 and 0.0 < low < 1.0
        point, low, high = hold_probability(0, 4, 0.9)
        assert point == 0.0 and low == 0.0 and 0.0 < high < 1.0
        with pytest.raises(AnalysisError):
            hold_probability(5, 4)
        with pytest.raises(AnalysisError):
            hold_probability(0, 0)

    def test_wilson_narrows_with_draws(self):
        _, lo4, hi4 = hold_probability(4, 4, 0.9)
        _, lo64, hi64 = hold_probability(64, 64, 0.9)
        assert (hi64 - lo64) < (hi4 - lo4)

    def test_bootstrap_is_seeded_and_draw_count_keyed(self):
        values = [0.7, 0.75, 0.8, 0.72]
        a = bootstrap_ci(values, name="m", seed=7, resamples=200)
        b = bootstrap_ci(values, name="m", seed=7, resamples=200)
        assert a == b
        other_seed = bootstrap_ci(values, name="m", seed=8, resamples=200)
        assert a != other_seed
        mean, low, high = a
        assert low <= mean <= high
        assert mean == pytest.approx(np.mean(values))
        single = bootstrap_ci([0.5], name="m", seed=7)
        assert single == (0.5, 0.5, 0.5)
        with pytest.raises(AnalysisError):
            bootstrap_ci([], name="m", seed=7)

    def test_top_relay_coverage_empty_table_is_zero(self):
        assert top_relay_coverage(ObservationTable.empty()) == 0.0


class TestRiskSummary:
    def _records(self, shapes_list, metric=None):
        return [
            {
                "shapes": shapes,
                "metrics": {"win_rate_COR": metric[i] if metric else 0.7},
            }
            for i, shapes in enumerate(shapes_list)
        ]

    def test_counts_expected_value_matches(self):
        records = self._records(
            [{"cases_observed": True}] * 3 + [{"cases_observed": False}]
        )
        summary = risk_summary(
            records, claims={"cases_observed": True},
            metric_targets={}, confidence=0.9, seed=0,
        )
        row = summary["claims"]["cases_observed"]
        assert row["holds"] == 3 and row["draws"] == 4
        assert row["probability"] == 0.75
        # expecting False counts the complement
        inverted = risk_summary(
            records, claims={"cases_observed": False},
            metric_targets={}, confidence=0.9, seed=0,
        )
        assert inverted["claims"]["cases_observed"]["holds"] == 1

    def test_metric_with_too_few_values_blocks_convergence(self):
        records = self._records([{"cases_observed": True}], metric=[0.7])
        summary = risk_summary(
            records, claims={}, metric_targets={"win_rate_COR": 1.0},
            confidence=0.9, seed=0,
        )
        row = summary["metrics"]["win_rate_COR"]
        assert row["within_target"] is False and row["ci_low"] is None
        assert summary_converged(summary) is False
        assert summary_converged({}) is False

    def test_empty_records_rejected(self):
        with pytest.raises(AnalysisError):
            risk_summary([], claims={}, metric_targets={}, seed=0)


class TestMonteCarloConfig:
    def test_unknown_regime_fails_at_construction(self):
        with pytest.raises(UnknownScenarioError):
            _tiny_config(regime="no-such-regime")

    def test_knob_validation(self):
        for bad in (
            dict(batch_size=0), dict(max_draws=0), dict(confidence=1.0),
            dict(target_half_width=0.0), dict(rounds=0), dict(workers=0),
            dict(bootstrap_resamples=0),
            dict(metric_targets={"win_rate_COR": 0.0}),
        ):
            with pytest.raises(ConfigError):
                _tiny_config(**bad)


class TestDrawStream:
    def test_draws_depend_only_on_seed_and_index(self):
        a = MonteCarloManager(_tiny_config(batch_size=2, workers=1))
        b = MonteCarloManager(_tiny_config(batch_size=7, workers=3, max_draws=64))
        for index in (0, 1, 5):
            assert a.sample_draw(index) == b.sample_draw(index)
        assert a.sample_draw(0) != a.sample_draw(1)
        other = MonteCarloManager(_tiny_config(seed=8))
        assert other.sample_draw(0) != a.sample_draw(0)

    def test_draw_applies_params_to_scenario(self):
        manager = MonteCarloManager(_tiny_config())
        draw = manager.sample_draw(0)
        scenario = manager.draw_scenario(draw)
        values = dict(draw.values)
        assert scenario.campaign.pings_per_pair == (
            values["campaign.pings_per_pair"]
        )
        assert tuple(scenario.campaign.relay_mix) == (
            tuple(values["campaign.relay_mix"])
        )
        # the base preset is untouched
        assert manager.base.campaign.pings_per_pair == 6

    def test_draw_label_is_stable(self):
        assert DrawSpec(index=3, world_seed=1, values=()).label == "draw-0003"


class TestMonteCarloRun:
    @pytest.fixture(scope="class")
    def cache_dir(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("world-cache"))

    @pytest.fixture(scope="class")
    def artifact(self, cache_dir):
        return run_montecarlo(_tiny_config(world_cache=cache_dir))

    @pytest.fixture(scope="class")
    def parallel_artifact(self, cache_dir):
        return run_montecarlo(_tiny_config(world_cache=cache_dir, workers=2))

    def test_artifact_shape(self, artifact):
        assert artifact["regime"] == "tiny-mc"
        assert artifact["base_scenario"] == "baseline"
        assert [spec["target"] for spec in artifact["params"]] == [
            "campaign.pings_per_pair", "campaign.relay_mix",
        ]
        assert set(artifact["claims"]) == {
            "cases_observed", "cor_wins_majority", "voip_no_worse_with_cor",
        }
        for record in artifact["draws"]:
            assert set(record) == {
                "draw", "world_seed", "params", "metrics", "shapes",
            }
            assert set(record["shapes"]) == set(SHAPE_KEYS)
            assert "top10_cor_coverage" in record["metrics"]
        assert artifact["world_cache"]["distinct_configs"] == 1
        assert artifact["world_cache"]["distinct_worlds"] <= 4  # seed_pool

    def test_converges_within_targets(self, artifact):
        convergence = artifact["convergence"]
        assert convergence["converged"] is True
        assert convergence["too_wide"] == []
        assert convergence["draws"] <= convergence["max_draws"]
        for row in artifact["risk"]["claims"].values():
            assert row["half_width"] <= artifact["risk"]["target_half_width"]
        for name, row in artifact["risk"]["metrics"].items():
            assert row["half_width"] <= row["target"], name

    def test_byte_identical_across_worker_counts(self, artifact, parallel_artifact):
        a = {k: v for k, v in artifact.items() if k != "timing"}
        b = {k: v for k, v in parallel_artifact.items() if k != "timing"}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_artifact_golden_digest(self, artifact):
        deterministic = {k: v for k, v in artifact.items() if k != "timing"}
        text = json.dumps(deterministic, sort_keys=True)
        assert (
            hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
            == GOLDEN_TINY_MC_DIGEST
        )

    def test_draw_stream_independent_of_batch_size(self, cache_dir, artifact):
        # forced to the cap, a different batching consumes the same draws
        # and reports identical risk — only the input echo and the batch
        # count may differ
        cap = len(artifact["draws"])
        small = run_montecarlo(
            _tiny_config(
                world_cache=cache_dir, batch_size=1, max_draws=cap,
                target_half_width=0.001,  # unreachable: run to the cap
            )
        )
        assert json.dumps(small["draws"]) == json.dumps(artifact["draws"])
        # intervals are a function of the draws alone (the tightened
        # target only flips the within_target verdicts)
        for name, row in artifact["risk"]["claims"].items():
            other = small["risk"]["claims"][name]
            for key in ("probability", "ci_low", "ci_high", "half_width"):
                assert other[key] == row[key], (name, key)
        for name, row in artifact["risk"]["metrics"].items():
            other = small["risk"]["metrics"][name]
            for key in ("mean", "ci_low", "ci_high", "half_width"):
                assert other[key] == row[key], (name, key)

    def test_draw_cap_reports_unconverged(self, cache_dir):
        capped = run_montecarlo(
            _tiny_config(
                world_cache=cache_dir, batch_size=2, max_draws=2,
                target_half_width=0.001,
            )
        )
        convergence = capped["convergence"]
        assert convergence["converged"] is False
        assert convergence["draws"] == 2
        assert convergence["too_wide"]
        assert "cap" in convergence["reason"]


class TestMonteCarloCli:
    def test_list(self, capsys):
        assert main(["montecarlo", "--list"]) == 0
        out = capsys.readouterr().out
        for name in regime_names():
            assert name in out

    def test_unknown_regime_is_clean_error(self, capsys):
        code = main(["montecarlo", "--regime", "nope"])
        assert code == 1
        assert "unknown regime" in capsys.readouterr().err

    def test_end_to_end_writes_artifact(self, tmp_path, capsys):
        out_file = tmp_path / "mc.json"
        code = main(
            ["montecarlo", "--regime", "tiny-mc", "--seed", "7",
             "--countries", "8", "--rounds", "1", "--batch-size", "4",
             "--max-draws", "8", "--confidence", "0.9",
             "--target-half-width", "0.35", "--bootstrap-resamples", "200",
             "--world-cache", str(tmp_path / "cache"),
             "--require-converged", "--out", str(out_file)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "montecarlo tiny-mc" in err and "holds" in err
        artifact = json.loads(out_file.read_text())
        assert artifact["convergence"]["converged"] is True
        assert "timing" in artifact

    def test_require_converged_exit_code(self, tmp_path, capsys):
        code = main(
            ["montecarlo", "--regime", "tiny-mc", "--seed", "7",
             "--countries", "8", "--rounds", "1", "--batch-size", "2",
             "--max-draws", "2", "--target-half-width", "0.001",
             "--bootstrap-resamples", "200",
             "--world-cache", str(tmp_path / "cache"),
             "--require-converged", "--out", str(tmp_path / "mc.json")]
        )
        assert code == 1
        assert "not converged" in capsys.readouterr().err
