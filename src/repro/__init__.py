"""repro — reproduction of "Shortcuts through Colocation Facilities" (IMC 2017).

The package builds a deterministic, geographically-embedded synthetic Internet
(AS-level topology, valley-free BGP, facility/IXP ecosystem, RTT model and
measurement-infrastructure emulators) and re-implements the paper's full
measurement methodology on top of it: endpoint selection at eyeball networks,
relay selection at colocation facilities and elsewhere, speed-of-light
feasibility pruning, the round-based ping campaign, overlay path stitching and
all of the paper's analyses (Figures 1-4, Table 1 and the in-text results).

Quickstart::

    from repro import build_world, CampaignConfig, MeasurementCampaign

    world = build_world(seed=7)
    campaign = MeasurementCampaign(world, CampaignConfig(num_rounds=4))
    result = campaign.run()
    print(result.summary())

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every figure and table.
"""

from repro.world import World, WorldConfig, build_world
from repro.core.config import CampaignConfig
from repro.core.campaign import MeasurementCampaign
from repro.core.results import CampaignResult, PairObservation, RoundResult
from repro.core.sweep import (
    SweepEntry,
    SweepRequest,
    SweepResult,
    run_sweep,
)
from repro.core.montecarlo import (
    MonteCarloConfig,
    MonteCarloManager,
    ParamSpec,
    run_montecarlo,
)
from repro.core.table import ObservationTable, TablePools
from repro.routing.fabric import RoutingFabric
from repro.scenarios import (
    Regime,
    Scenario,
    get_regime,
    get_scenario,
    list_regimes,
    list_scenarios,
    scenario_names,
)
from repro.service import RelayDirectory, ShortcutService
from repro.timeline import (
    LinkDegradation,
    ProbeChurn,
    RelayOutage,
    TimelineConfig,
    TrafficShift,
    rolling_outages,
)
from repro.analysis.improvements import ImprovementAnalysis
from repro.analysis.ranking import TopRelayAnalysis
from repro.analysis.facilities import FacilityTable
from repro.analysis.stability import StabilityAnalysis

__version__ = "1.5.0"

__all__ = [
    "World",
    "WorldConfig",
    "build_world",
    "CampaignConfig",
    "MeasurementCampaign",
    "CampaignResult",
    "RoundResult",
    "PairObservation",
    "ObservationTable",
    "TablePools",
    "SweepEntry",
    "SweepRequest",
    "SweepResult",
    "run_sweep",
    "MonteCarloConfig",
    "MonteCarloManager",
    "ParamSpec",
    "run_montecarlo",
    "RoutingFabric",
    "Regime",
    "Scenario",
    "get_regime",
    "get_scenario",
    "list_regimes",
    "list_scenarios",
    "scenario_names",
    "RelayDirectory",
    "ShortcutService",
    "TimelineConfig",
    "RelayOutage",
    "ProbeChurn",
    "LinkDegradation",
    "TrafficShift",
    "rolling_outages",
    "ImprovementAnalysis",
    "TopRelayAnalysis",
    "FacilityTable",
    "StabilityAnalysis",
    "__version__",
]
