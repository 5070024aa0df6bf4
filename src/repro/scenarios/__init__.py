"""Named world/latency/workload regimes for campaigns and sweeps.

See :mod:`repro.scenarios.registry` for the :class:`Scenario` model and
the preset definitions, :mod:`repro.scenarios.regimes` for the
Monte-Carlo :class:`Regime` presets (scenarios with parameter
distributions), and :mod:`repro.analysis.scenarios` for the paper-shape
reductions the expectations are checked against.
"""

from repro.scenarios.registry import (
    Scenario,
    get_scenario,
    list_scenarios,
    register,
    scenario_names,
    scenario_with,
)

#: Regime symbols resolved lazily (PEP 562): the regimes module depends
#: on :mod:`repro.core.montecarlo`, which imports the sweep runner, which
#: imports this package — importing it eagerly here would close that loop
#: mid-initialisation.
_REGIME_EXPORTS = (
    "Regime",
    "get_regime",
    "list_regimes",
    "regime_names",
    "register_regime",
)

__all__ = [
    "Regime",
    "Scenario",
    "get_regime",
    "get_scenario",
    "list_regimes",
    "list_scenarios",
    "regime_names",
    "register",
    "register_regime",
    "scenario_names",
    "scenario_with",
]


def __getattr__(name: str):
    if name in _REGIME_EXPORTS:
        from repro.scenarios import regimes

        return getattr(regimes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_REGIME_EXPORTS))
