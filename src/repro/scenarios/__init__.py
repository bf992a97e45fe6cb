"""repro.scenarios — declarative lifetime/environment fault scenarios.

The scenario subsystem turns the engine from a figure-reproducer into a
platform: a declarative spec layer (:mod:`.spec`) describes *stories* —
fault clauses driven by lifetime endurance curves, spatially-correlated
placement, environment episodes — a compiler (:mod:`.compile`) lowers
them onto the existing campaign grid, and a zoo (:mod:`.zoo`) ships six
named stories, each a registry entry (``repro run end-of-life``; listed
by ``repro scenarios list``).  :func:`run_scenario` runs any scenario on
a given model and test set.
"""

from .compile import CompiledCell, CompiledGrid, compile_scenario
from .run import ScenarioResult, resolve_scenario, run_scenario
from .spec import (NOMINAL_EPISODE, Episode, FaultClause, Scenario,
                   ScenarioError, Timeline)
from .zoo import SCENARIO_BUILDERS, get_scenario, scenario_names

__all__ = [
    "FaultClause", "Episode", "Timeline", "Scenario", "ScenarioError",
    "NOMINAL_EPISODE",
    "CompiledCell", "CompiledGrid", "compile_scenario",
    "ScenarioResult", "run_scenario", "resolve_scenario",
    "SCENARIO_BUILDERS", "get_scenario", "scenario_names",
]
