"""Named measurement regimes: the scenario registry.

The paper's claims (colo relays win most pairs, median RTT reductions in
the tens of milliseconds) are only credible if they survive *regimes*,
not just seeds.  A :class:`Scenario` bundles a complete world
configuration (topology, latency model, measurement infrastructure) with
a campaign configuration and a set of paper-shape expectations — which of
the headline results should still hold under that regime, and which are
expected to bend (a probes-free deployment observes no RAR cases; an
intra-EU world has little room for tens-of-ms gains).

The sweep runner fans out (scenario × seed), so one artifact answers
"does the shape hold across worlds *and* regimes"; CI runs every
registered preset and asserts its expectations against the pooled
observation columns (see :mod:`repro.analysis.scenarios`).

Adding a preset is one :func:`register` call — see the definitions at the
bottom of this module for the idiom.  Registered names must be unique;
lookups are by name via :func:`get_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

from repro.core.config import CampaignConfig
from repro.errors import ConfigError, UnknownScenarioError
from repro.latency.model import LatencyConfig
from repro.measurement.config import InfrastructureConfig
from repro.timeline.events import (
    RelayOutage,
    TimelineConfig,
    TrafficShift,
    rolling_outages,
)
from repro.topology.config import TopologyConfig
from repro.world import WorldConfig


@dataclass(frozen=True)
class Scenario:
    """One named measurement regime.

    Attributes:
        name: Registry key (kebab-case).
        description: One-line summary shown by ``repro scenarios``.
        world: Complete world configuration (topology + latency +
            infrastructure + datasets).
        campaign: Campaign configuration (rounds are typically overridden
            by the sweep; the preset's other knobs — ping profile, relay
            mix, country caps — are the regime).
        expect: Paper-shape expectations, mapping a shape key produced by
            :func:`repro.analysis.scenarios.paper_shapes` to the boolean
            the regime should exhibit.  Keys absent from the mapping are
            not asserted for the scenario.
        service_expect: Serving-layer expectations checked by
            ``repro serve-bench --scenario`` against the traffic-replay
            stats (:func:`repro.service.loadgen.replay`).  Like
            ``expect``, keys absent from the mapping are not asserted.
            Keys: ``min_relay_answer_frac`` — minimum fraction of
            replayed queries that must resolve to a relay (above the
            direct tier).
    """

    name: str
    description: str
    world: WorldConfig = field(default_factory=WorldConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    expect: Mapping[str, bool] = field(default_factory=dict)
    service_expect: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or self.name != self.name.strip().lower():
            raise ConfigError(f"scenario name must be lowercase, got {self.name!r}")
        # freeze the expectation mappings so presets are safely shareable
        object.__setattr__(self, "expect", MappingProxyType(dict(self.expect)))
        object.__setattr__(
            self, "service_expect", MappingProxyType(dict(self.service_expect))
        )


_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (returns it for chaining).

    Raises:
        ConfigError: if the name is already taken.
    """
    if scenario.name in _REGISTRY:
        raise ConfigError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name.

    Raises:
        UnknownScenarioError: for unknown names (message lists what
            exists; subclasses :class:`~repro.errors.ConfigError`).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, in registration order."""
    return tuple(_REGISTRY)


def list_scenarios() -> tuple[Scenario, ...]:
    """Every registered scenario, in registration order."""
    return tuple(_REGISTRY.values())


# --------------------------------------------------------------- presets
#
# The baseline expectations every regime starts from: the paper's headline
# shapes.  Presets that bend a shape override the entry (or drop it when
# the regime makes the shape meaningless).

_HEADLINE = {
    "cases_observed": True,
    "cor_wins_majority": True,
    "cor_leads_relay_types": True,
    "cor_reduction_tens_of_ms": True,
    "voip_no_worse_with_cor": True,
    "rar_relays_observed": True,
}

register(
    Scenario(
        name="baseline",
        description="The paper's defaults: full world, calibrated latency model.",
        expect=_HEADLINE,
        # a few rounds of baseline history should answer most replayed
        # traffic with a relay; sparse/degraded regimes opt out entirely
        service_expect={"min_relay_answer_frac": 0.5},
    )
)

register(
    Scenario(
        name="lossy",
        description="Degraded networks: ~10x path loss, flakier probes and relays.",
        world=WorldConfig(
            latency=LatencyConfig(base_loss_prob=0.04),
            infrastructure=InfrastructureConfig(
                probe_loss_prob=(0.01, 0.08),
                planetlab_loss_prob=(0.02, 0.10),
                colo_loss_prob=(0.002, 0.02),
            ),
        ),
        expect=_HEADLINE,
    )
)

register(
    Scenario(
        name="spike-storm",
        description="Congestion storms: frequent large latency spikes, heavy queueing.",
        world=WorldConfig(
            latency=LatencyConfig(
                spike_prob=0.12,
                spike_range_ms=(50.0, 500.0),
                queueing_scale_ms=1.2,
            ),
        ),
        expect=_HEADLINE,
    )
)

register(
    Scenario(
        name="regional-eu",
        description="Intra-EU deployment: endpoints, relays and facilities in Europe only.",
        world=WorldConfig(
            topology=TopologyConfig(continent_scope=("EU",)),
        ),
        # short intra-continental paths leave little room for tens-of-ms
        # gains; the win-rate shapes must still hold
        expect={**_HEADLINE, "cor_reduction_tens_of_ms": False},
    )
)

register(
    Scenario(
        name="colo-sparse",
        description="Thin colo ecosystem: one facility per hub, few pingable tenants.",
        world=WorldConfig(
            topology=TopologyConfig(
                max_facilities_per_hub=1,
                facility_base_membership_prob=0.25,
            ),
            infrastructure=InfrastructureConfig(colo_member_interface_prob=0.15),
        ),
        expect=_HEADLINE,
    )
)

register(
    Scenario(
        name="voip-heavy",
        description="Interactive-voice workload: 12-ping windows, jittery access paths.",
        world=WorldConfig(
            latency=LatencyConfig(jitter_sigma=0.04, queueing_scale_ms=0.8),
        ),
        campaign=CampaignConfig(pings_per_pair=12, min_valid_rtts=6),
        expect=_HEADLINE,
    )
)

register(
    Scenario(
        name="mega-world",
        description="Dense deployment: more eyeball ASes and probes per country.",
        world=WorldConfig(
            topology=TopologyConfig(max_eyeballs_per_country=12),
            infrastructure=InfrastructureConfig(probes_per_eyeball_lambda=2.6),
        ),
        expect=_HEADLINE,
        service_expect={"min_relay_answer_frac": 0.5},
    )
)

register(
    Scenario(
        name="no-probes",
        description="No probe-hosted relays: COR and PLR only (dedicated infrastructure).",
        campaign=CampaignConfig(relay_mix=("COR", "PLR")),
        expect={**_HEADLINE, "rar_relays_observed": False},
    )
)

register(
    Scenario(
        name="paper-scale",
        description="The paper's full horizon: 45 rounds at 12-hour spacing "
                    "(stability/temporal analyses, service ingestion).",
        # the regime *is* the round count: one month of measurements, the
        # long-horizon input the stability analyses and the serving layer's
        # staleness window need.  Sweeps/CI override rounds downward via
        # scenario_with; `repro serve-bench --scenario paper-scale` runs it
        # as configured.
        campaign=CampaignConfig(num_rounds=45),
        expect=_HEADLINE,
        # a month of history should answer nearly all replayed traffic
        service_expect={"min_relay_answer_frac": 0.6},
    )
)

# Fault-injected regimes: the campaign runs through a timeline
# (:mod:`repro.timeline`) and ``repro serve-bench --scenario`` replays
# traffic against the churn-aware service while the faults unfold.
# Measurement-shape expectations stay conservative for the outage
# presets — sparse rounds bend the win-rate shapes — but serving
# availability must hold: dead relays demote into fallback tiers.

register(
    Scenario(
        name="relay-outage",
        description="Chaos: 40% of colo+PlanetLab relays dark for rounds 2-3, "
                    "then recovered.",
        campaign=CampaignConfig(
            num_rounds=6,
            timeline=TimelineConfig(
                name="relay-outage",
                events=(
                    RelayOutage(start_round=2, end_round=4, fraction=0.4),
                ),
            ),
        ),
        # probe-hosted relays are untouched; observation volume survives
        expect={"cases_observed": True, "rar_relays_observed": True},
        service_expect={"min_availability": 0.99},
    )
)

register(
    Scenario(
        name="rolling-failure",
        description="Chaos: three consecutive waves, each failing a fresh 25% "
                    "of the relay pools.",
        campaign=CampaignConfig(
            num_rounds=6,
            timeline=TimelineConfig(
                name="rolling-failure",
                events=rolling_outages(start_round=1, num_waves=3, fraction=0.25),
            ),
        ),
        expect={"cases_observed": True, "rar_relays_observed": True},
        service_expect={"min_availability": 0.99},
    )
)

register(
    Scenario(
        name="flash-crowd",
        description="Chaos: traffic to the most popular eyeball country "
                    "surges 8x for rounds 2-4.",
        campaign=CampaignConfig(
            num_rounds=6,
            timeline=TimelineConfig(
                name="flash-crowd",
                events=(
                    TrafficShift(
                        start_round=2, end_round=5, weight_mult=8.0, rank=0
                    ),
                ),
            ),
        ),
        # traffic shifts only touch the replayed load, never the
        # measurements: every headline shape must survive unchanged
        expect=_HEADLINE,
        service_expect={
            "min_relay_answer_frac": 0.5,
            "min_availability": 0.99,
        },
    )
)


def scenario_with(
    base: Scenario,
    *,
    rounds: int | None = None,
    countries: int | None = None,
    max_countries: int | None = None,
) -> Scenario:
    """A copy of ``base`` with sweep-level overrides applied.

    The sweep runner owns round counts and world-size caps (they are
    workload knobs, not regime knobs), so it rewrites them into the
    scenario's configs just before building the world.
    """
    world = base.world
    campaign = base.campaign
    if countries is not None:
        world = replace(world, topology=replace(world.topology, country_limit=countries))
    updates: dict = {}
    if rounds is not None:
        updates["num_rounds"] = rounds
    if max_countries is not None:
        updates["max_countries"] = max_countries
    if updates:
        campaign = replace(campaign, **updates)
    return replace(base, world=world, campaign=campaign)
