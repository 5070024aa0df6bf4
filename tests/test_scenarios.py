"""Tests for the scenario registry and the cross-regime shape analysis."""

import numpy as np
import pytest

from repro import CampaignConfig, MeasurementCampaign, build_world
from repro.analysis.scenarios import (
    check_expectations,
    compare_scenarios,
    paper_shapes,
    scenario_metrics,
)
from repro.errors import ConfigError
from repro.scenarios import (
    Scenario,
    get_scenario,
    list_scenarios,
    register,
    scenario_names,
    scenario_with,
)
from repro.topology.config import TopologyConfig
from repro.world import WorldConfig

EXPECTED_PRESETS = (
    "baseline",
    "lossy",
    "spike-storm",
    "regional-eu",
    "colo-sparse",
    "voip-heavy",
    "mega-world",
    "no-probes",
    "paper-scale",
)


class TestRegistry:
    def test_all_presets_registered(self):
        assert set(EXPECTED_PRESETS) <= set(scenario_names())
        assert [s.name for s in list_scenarios()] == list(scenario_names())

    def test_get_by_name(self):
        for name in EXPECTED_PRESETS:
            scenario = get_scenario(name)
            assert scenario.name == name
            assert scenario.description

    def test_unknown_name_lists_presets(self):
        with pytest.raises(ConfigError, match="baseline"):
            get_scenario("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):
            register(Scenario(name="baseline", description="again"))

    def test_name_must_be_lowercase(self):
        with pytest.raises(ConfigError):
            Scenario(name="Shouty", description="x")

    def test_expectations_frozen(self):
        scenario = get_scenario("baseline")
        with pytest.raises(TypeError):
            scenario.expect["cases_observed"] = False

    def test_presets_distinct_configs(self):
        assert get_scenario("lossy").world.latency.base_loss_prob > (
            get_scenario("baseline").world.latency.base_loss_prob
        )
        assert get_scenario("spike-storm").world.latency.spike_prob > 0.1
        assert get_scenario("regional-eu").world.topology.continent_scope == ("EU",)
        assert get_scenario("no-probes").campaign.relay_mix == ("COR", "PLR")
        assert get_scenario("voip-heavy").campaign.pings_per_pair == 12

    def test_paper_scale_horizon(self):
        scenario = get_scenario("paper-scale")
        assert scenario.campaign.num_rounds == 45
        assert scenario.campaign.round_interval_hours == 12.0
        # sweeps/CI shrink it without touching the preset
        reduced = scenario_with(scenario, rounds=2)
        assert reduced.campaign.num_rounds == 2
        assert get_scenario("paper-scale").campaign.num_rounds == 45

    def test_service_expectations_opt_in(self):
        # like expect: absent keys are not asserted; set values are sane
        for scenario in list_scenarios():
            floor = scenario.service_expect.get("min_relay_answer_frac")
            assert floor is None or 0.0 < floor <= 1.0, scenario.name
        for name in ("baseline", "paper-scale"):
            assert "min_relay_answer_frac" in get_scenario(name).service_expect
        # degraded/sparse regimes carry no serving gate
        assert not get_scenario("lossy").service_expect
        with pytest.raises(TypeError):
            get_scenario("baseline").service_expect["min_relay_answer_frac"] = 0.0

    def test_scenario_with_overrides(self):
        scenario = scenario_with(
            get_scenario("baseline"), rounds=2, countries=8, max_countries=5
        )
        assert scenario.campaign.num_rounds == 2
        assert scenario.campaign.max_countries == 5
        assert scenario.world.topology.country_limit == 8
        # the base preset is untouched
        assert get_scenario("baseline").campaign.num_rounds != 2 or True
        assert get_scenario("baseline").world.topology.country_limit is None


class TestConfigKnobs:
    def test_continent_scope_validation(self):
        with pytest.raises(ConfigError):
            TopologyConfig(continent_scope=())
        with pytest.raises(ConfigError):
            TopologyConfig(continent_scope=("XX",))
        assert TopologyConfig(continent_scope=("EU", "NA")).continent_scope == (
            "EU",
            "NA",
        )

    def test_relay_mix_validation(self):
        with pytest.raises(ConfigError):
            CampaignConfig(relay_mix=())
        with pytest.raises(ConfigError):
            CampaignConfig(relay_mix=("COR", "COR"))
        with pytest.raises(ConfigError):
            CampaignConfig(relay_mix=("XYZ",))

    def test_scoped_world_stays_in_continent(self):
        from repro.geo.cities import city as city_of
        from repro.geo.countries import all_countries
        from repro.topology.types import ASType

        config = WorldConfig(
            topology=TopologyConfig(continent_scope=("EU",), country_limit=8)
        )
        world = build_world(seed=3, config=config)
        # every point of presence — and with it every facility, probe and
        # relay — is on a European city (AS registry ccs may be overseas
        # HQ labels for the global tier-1s)
        pop_continents = {
            city_of(key).continent
            for asn in world.graph.asns()
            for key in world.graph.get_as(asn).pop_cities
        }
        assert pop_continents == {"EU"}
        continent_of = {c.code: c.continent for c in all_countries()}
        eyeball_ccs = {
            world.graph.get_as(asn).cc
            for asn in world.topology.asns_of_type(ASType.EYEBALL)
        }
        assert {continent_of[cc] for cc in eyeball_ccs} == {"EU"}


class TestShapes:
    @pytest.fixture(scope="class")
    def table(self, small_campaign_result):
        return small_campaign_result.table

    def test_paper_shapes_keys_and_types(self, table):
        shapes = paper_shapes(table)
        assert set(shapes) == {
            "cases_observed",
            "cor_wins_majority",
            "cor_leads_relay_types",
            "cor_reduction_tens_of_ms",
            "voip_no_worse_with_cor",
            "rar_relays_observed",
        }
        assert all(isinstance(v, bool) for v in shapes.values())
        assert shapes["cases_observed"] is True

    def test_scenario_metrics_align_with_shapes(self, table):
        metrics = scenario_metrics(table)
        shapes = paper_shapes(table)
        assert metrics["total_cases"] == table.num_cases
        assert shapes["cor_wins_majority"] == (metrics["win_rate_COR"] > 0.5)
        assert 0.0 <= metrics["voip_poor_fraction_cor"] <= 1.0
        assert (
            metrics["voip_poor_fraction_cor"] <= metrics["voip_poor_fraction_direct"]
        ) == shapes["voip_no_worse_with_cor"]

    def test_empty_table_shapes(self):
        from repro.core.table import ObservationTable, TablePools

        empty = ObservationTable.empty(TablePools.fresh())
        shapes = paper_shapes(empty)
        assert shapes["cases_observed"] is False
        assert shapes["cor_wins_majority"] is False
        assert shapes["voip_no_worse_with_cor"] is True

    def test_check_expectations(self):
        shapes = {"a": True, "b": False}
        assert check_expectations(shapes, {"a": True})["ok"]
        verdict = check_expectations(shapes, {"a": True, "b": True, "c": True})
        assert not verdict["ok"]
        assert {f["shape"] for f in verdict["failed"]} == {"b", "c"}

    def test_compare_scenarios_pivot(self):
        pivot = compare_scenarios(
            {"x": {"m": 1, "n": 2}, "y": {"m": 3}}
        )
        assert pivot == {"m": {"x": 1, "y": 3}, "n": {"x": 2, "y": None}}


class TestRelayMixCampaign:
    def test_no_probe_relays_observed(self, small_world):
        campaign = MeasurementCampaign(
            small_world,
            CampaignConfig(num_rounds=1, relay_mix=("COR", "PLR")),
        )
        result = campaign.run()
        table = result.table
        from repro.core.types import RELAY_TYPE_ORDER, RelayType

        for relay_type in (RelayType.RAR_OTHER, RelayType.RAR_EYE):
            code = RELAY_TYPE_ORDER.index(relay_type)
            assert np.all(np.isnan(table.best_stitched[code]))
            assert np.all(table.feasible[code] == 0)
        cor = RELAY_TYPE_ORDER.index(RelayType.COR)
        assert np.any(~np.isnan(table.best_stitched[cor]))
