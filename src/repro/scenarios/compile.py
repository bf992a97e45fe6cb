"""Scenario compiler: lower a declarative story onto the campaign grid.

A :class:`~repro.scenarios.spec.Scenario` is a *spec*; the campaign
engine only understands a flat sweep — ``xs`` values and a
``spec_factory``.  :func:`compile_scenario` bridges the two: every
``(timeline checkpoint, environment episode)`` pair becomes one
:class:`CompiledCell` whose clauses are resolved against the lifetime
curves at that checkpoint's age and flattened into plain
:class:`~repro.core.faults.FaultSpec` lists.  The resulting
:class:`CompiledGrid` plugs straight into
:meth:`repro.core.FaultCampaign.run` — cells ride the
serial/shared-memory executors, the packed backend, the
JSONL journals and the prefix-activation caches unchanged, and stay
bit-identical under fixed seeds because compilation is a pure function
of the scenario (no RNG is consumed; mask draws still happen per-job in
:func:`repro.core.engine.build_jobs`).

Compilation also *validates* against a model when one is given: clauses
targeting layers the model does not map are refused up front (exit
status 2 on the CLI) instead of silently injecting nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.faults import FaultSpec
from ..core.generator import mapped_layers
from ..lim.reliability import LifetimePoint
from .spec import Scenario, ScenarioError

__all__ = ["CompiledCell", "CompiledGrid", "compile_scenario"]


@dataclass(frozen=True)
class CompiledCell:
    """One campaign-grid cell of a compiled scenario.

    ``index`` is the cell's sweep coordinate (its ``x`` value in the
    lowered campaign); ``checkpoint``/``episode`` locate it on the
    scenario's two axes; ``age``/``stuck_rate``/``upset_rate`` record the
    resolved lifetime state; ``specs`` are the fully lowered fault
    directives the engine's job builder consumes.
    """

    index: int
    checkpoint: int
    episode: str
    age: float
    stuck_rate: float
    upset_rate: float
    specs: tuple[FaultSpec, ...]


class CompiledGrid:
    """A scenario lowered to campaign-engine terms.

    ``xs``/``spec_factory`` feed :meth:`repro.core.FaultCampaign.run`
    directly; ``cells`` keep the scenario coordinates for reshaping the
    flat sweep back into per-checkpoint × per-episode trajectories.
    Cells are ordered checkpoint-major: ``index = checkpoint *
    len(episodes) + episode_column``.
    """

    def __init__(self, scenario: Scenario, cells: list[CompiledCell],
                 rows: int, cols: int):
        self.scenario = scenario
        self.cells = list(cells)
        self.rows = rows
        self.cols = cols
        self.episodes = scenario.episode_names()
        self.duties = scenario.duties()
        self.ages = list(scenario.timeline.ages)

    @property
    def xs(self) -> list[float]:
        """Sweep axis: one float index per cell (the engine keys cells by
        position; ages may repeat across episodes, indices never do)."""
        return [float(cell.index) for cell in self.cells]

    def spec_factory(self, x: float) -> list[FaultSpec]:
        """The ``spec_factory`` contract of :meth:`FaultCampaign.run`."""
        return list(self.cells[int(round(x))].specs)

    @property
    def n_checkpoints(self) -> int:
        return len(self.ages)

    @property
    def n_episodes(self) -> int:
        return len(self.episodes)

    def describe(self) -> list[dict]:
        """One summary dict per cell (CLI/doc tables, bench JSON)."""
        return [{"index": cell.index, "checkpoint": cell.checkpoint,
                 "episode": cell.episode, "age": cell.age,
                 "stuck_rate": cell.stuck_rate,
                 "upset_rate": cell.upset_rate,
                 "specs": [repr(spec) for spec in cell.specs]}
                for cell in self.cells]


def _validate_layers(scenario: Scenario, model) -> None:
    referenced = scenario.layer_references()
    if not referenced:
        return
    mapped = {layer.name for layer in mapped_layers(model)}
    unknown = sorted(referenced - mapped)
    if unknown:
        raise ScenarioError(
            f"scenario {scenario.name!r} targets layer(s) {unknown} that "
            f"are not mapped on this model; mapped: {sorted(mapped)}")


def compile_scenario(scenario: Scenario, model=None,
                     rows: int = 40, cols: int = 10) -> CompiledGrid:
    """Lower ``scenario`` into a :class:`CompiledGrid`.

    Parameters
    ----------
    scenario:
        The declarative story to compile.
    model:
        Optional :class:`~repro.nn.model.Sequential`; when given, clause
        layer targets are validated against its mapped layers.
    rows, cols:
        Crossbar geometry — needed to resolve ``count: "lifetime"``
        clauses against the row/column axis lengths.

    Compilation is deterministic and RNG-free: the same scenario always
    lowers to the same grid, so two compiles (or a resume against a
    journaled grid) can never drift.
    """
    if not isinstance(scenario, Scenario):
        raise ScenarioError(f"expected a Scenario, got {type(scenario).__name__}")
    if model is not None:
        _validate_layers(scenario, model)
    points: list[LifetimePoint] = scenario.timeline.points()
    episode_names = scenario.episode_names()
    cells: list[CompiledCell] = []
    for checkpoint, point in enumerate(points):
        for column, episode in enumerate(episode_names):
            specs = tuple(
                clause.lower(point, rows, cols)
                for clause in scenario.clauses_for(episode))
            cells.append(CompiledCell(
                index=checkpoint * len(episode_names) + column,
                checkpoint=checkpoint, episode=episode,
                age=point.cycles, stuck_rate=point.stuck_rate,
                upset_rate=point.bitflip_rate, specs=specs))
    return CompiledGrid(scenario, cells, rows, cols)
