"""Declarative fault scenarios: lifetime + environment stories as data.

The paper's experiments are single-axis sweeps — one fault type, one rate
axis.  Its fault *vocabulary*, however, describes stories that unfold
over a device's lifetime and environment: stuck-at cells accumulating
with wear, transient upset bursts during radiation episodes, row drivers
failing structurally.  This module makes those stories first-class
values:

* a :class:`FaultClause` is one declarative fault component whose rate
  can be a number **or** a lifetime curve reference (``"lifetime-stuck"``
  / ``"lifetime-upset"``) resolved per device-age checkpoint through
  :class:`repro.lim.EnduranceModel`;
* a :class:`Timeline` lists the device-age checkpoints (cumulative
  switching cycles) the scenario is sampled at;
* an :class:`Episode` is a named environment condition (e.g. an SEU
  storm) contributing extra clauses for a ``duty`` fraction of
  inferences;
* a :class:`Scenario` composes all three and loads from dicts, JSON or
  YAML (:meth:`Scenario.from_dict` / :meth:`Scenario.from_file`).

Scenarios are *specs*, not executions: :mod:`repro.scenarios.compile`
lowers them onto the existing campaign grid, so they ride every
executor, backend, journal and cache of the engine unchanged.

Validation is strict in the style of :mod:`repro.core.vectors`: unknown
keys, out-of-range rates and malformed references raise
:class:`ScenarioError` (a :class:`ValueError`) with the offending field
named, and the CLI maps those to exit status 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..core.faults import (FaultSpec, FaultType, Semantics, SpatialMode,
                           StuckPolarity)
from ..lim.reliability import EnduranceModel, LifetimePoint

__all__ = ["ScenarioError", "FaultClause", "Episode", "Timeline", "Scenario",
           "NOMINAL_EPISODE"]

#: name of the implicit baseline environment (no episode clauses active)
NOMINAL_EPISODE = "nominal"

#: rate strings resolved against the timeline's lifetime curves
RATE_SOURCES = ("lifetime-stuck", "lifetime-upset")

#: count string resolved as round(stuck_fraction * scale * axis_length)
COUNT_SOURCE = "lifetime"


class ScenarioError(ValueError):
    """A scenario spec is malformed (bad schema, rate, or reference)."""


def _check_keys(what: str, data: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(f"{what}: unknown key(s) {unknown}; "
                            f"allowed: {sorted(allowed)}")


def _enum_value(what: str, value: str, enum) -> object:
    try:
        return enum(value)
    except ValueError:
        raise ScenarioError(
            f"{what}: {value!r} is not one of "
            f"{[member.value for member in enum]}") from None


@dataclass(frozen=True)
class FaultClause:
    """One declarative fault component of a scenario.

    Parameters
    ----------
    kind:
        ``"bitflip"`` / ``"stuck_at"`` / ``"faulty_rows"`` /
        ``"faulty_columns"`` (the :class:`~repro.core.faults.FaultType`
        vocabulary).
    rate:
        Injection rate for rate-based kinds: a float in ``[0, 1]``, or a
        lifetime reference — ``"lifetime-stuck"`` (the endurance model's
        stuck fraction at the checkpoint age) or ``"lifetime-upset"``
        (the per-inference transient upset probability).
    scale:
        Multiplier applied to the resolved rate (or ``"lifetime"``
        count); the result is clipped to the valid range.  Lets one
        endurance curve drive accelerated / decelerated variants.
    count:
        Faulty-line count for ``faulty_rows`` / ``faulty_columns``: an
        int ≥ 0, or ``"lifetime"`` = ``round(stuck_fraction * scale *
        axis_length)`` clipped to the axis.
    period:
        Dynamic-fault sensitization period (bit-flips only); must be
        ≥ 1 when given — 1 is the static every-operation case, n ≥ 2
        fires every n-th XNOR operation.  Omitted/None means static.
    polarity:
        ``"random"`` / ``"stuck_at_0"`` / ``"stuck_at_1"`` for stuck-at
        clauses.
    spatial:
        ``"iid"`` (default), ``"clustered"`` or ``"row_burst"`` — see
        :class:`~repro.core.faults.SpatialMode`.
    cluster_size:
        Cells per cluster / rows per burst for the correlated modes.
    semantics:
        Optional mask-application level override (``"output"`` /
        ``"weight"`` / ``"product"``).
    layers:
        Restrict the clause to these mapped layers (``None`` = all).
    """

    kind: str
    rate: float | str = 0.0
    scale: float = 1.0
    count: int | str = 0
    period: int | None = None
    polarity: str = "random"
    spatial: str = "iid"
    cluster_size: int = 0
    semantics: str | None = None
    layers: tuple[str, ...] | None = None

    def __post_init__(self):
        kind = _enum_value("clause kind", self.kind, FaultType)
        if isinstance(self.rate, str):
            if self.rate not in RATE_SOURCES:
                raise ScenarioError(
                    f"clause rate {self.rate!r} is neither a number nor one "
                    f"of {list(RATE_SOURCES)}")
        else:
            try:
                rate = float(self.rate)
            except (TypeError, ValueError):
                raise ScenarioError(
                    f"clause rate must be a number or a lifetime reference, "
                    f"got {self.rate!r}") from None
            if not math.isfinite(rate) or not 0.0 <= rate <= 1.0:
                raise ScenarioError(f"clause rate must be in [0, 1], "
                                    f"got {self.rate}")
        if isinstance(self.count, str):
            if self.count != COUNT_SOURCE:
                raise ScenarioError(
                    f"clause count {self.count!r} is neither an integer nor "
                    f"{COUNT_SOURCE!r}")
        elif not isinstance(self.count, int) or self.count < 0:
            raise ScenarioError(
                f"clause count must be a non-negative integer or "
                f"{COUNT_SOURCE!r}, got {self.count!r}")
        if not (isinstance(self.scale, (int, float))
                and math.isfinite(self.scale) and self.scale >= 0):
            raise ScenarioError(
                f"clause scale must be a finite non-negative number, "
                f"got {self.scale!r}")
        if self.period is not None:
            if not isinstance(self.period, int) or self.period < 1:
                raise ScenarioError(
                    f"dynamic-fault period must be an integer >= 1 "
                    f"(1 = static), got {self.period!r}")
            if kind != FaultType.BITFLIP:
                raise ScenarioError(
                    f"period applies to bitflip clauses, not {self.kind!r}")
        spatial = _enum_value("clause spatial mode", self.spatial, SpatialMode)
        if spatial == SpatialMode.IID:
            if self.cluster_size:
                raise ScenarioError("clause cluster_size applies to "
                                    "clustered/row_burst placement; iid "
                                    "takes none")
        elif not isinstance(self.cluster_size, int) or self.cluster_size < 1:
            raise ScenarioError(
                f"{self.spatial} placement needs an integer "
                f"cluster_size >= 1, got {self.cluster_size!r}")
        if self.polarity not in _POLARITIES:
            raise ScenarioError(
                f"clause polarity {self.polarity!r} is not one of "
                f"{sorted(_POLARITIES)}")
        if self.semantics is not None:
            _enum_value("clause semantics", self.semantics, Semantics)
        if self.layers is not None:
            if (isinstance(self.layers, str) or not self.layers
                    or not all(isinstance(n, str) for n in self.layers)):
                raise ScenarioError("clause layers must be a non-empty list "
                                    "of layer names (or omitted)")
            object.__setattr__(self, "layers", tuple(self.layers))
        rate_based = kind in (FaultType.BITFLIP, FaultType.STUCK_AT)
        if rate_based and (isinstance(self.count, str) or self.count):
            raise ScenarioError(f"{self.kind} clauses take a rate, not a count")
        if not rate_based:
            if isinstance(self.rate, str) or self.rate:
                raise ScenarioError(
                    f"{self.kind} clauses take a count, not a rate")
            if self.spatial != SpatialMode.IID.value:
                raise ScenarioError("spatial modes apply to rate-based "
                                    "clauses; line faults are whole-line "
                                    "events already")

    def lower(self, point: LifetimePoint, rows: int, cols: int) -> FaultSpec:
        """Resolve this clause at one lifetime checkpoint into a
        :class:`~repro.core.faults.FaultSpec` the campaign engine runs."""
        kind = FaultType(self.kind)
        rate: float = 0.0
        count = 0
        if kind in (FaultType.BITFLIP, FaultType.STUCK_AT):
            if self.rate == "lifetime-stuck":
                rate = point.stuck_rate
            elif self.rate == "lifetime-upset":
                rate = point.bitflip_rate
            else:
                rate = float(self.rate)
            rate = min(1.0, max(0.0, rate * self.scale))
        else:
            axis = rows if kind == FaultType.FAULTY_ROWS else cols
            if self.count == COUNT_SOURCE:
                count = int(round(point.stuck_rate * self.scale * axis))
            else:
                count = int(round(self.count * self.scale))
            count = min(axis, max(0, count))
        return FaultSpec(
            kind, rate=rate, count=count,
            period=0 if self.period is None else self.period,
            polarity=_POLARITIES[self.polarity],
            semantics=None if self.semantics is None
            else Semantics(self.semantics),
            spatial=SpatialMode(self.spatial),
            cluster_size=self.cluster_size,
            layers=self.layers)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultClause":
        if not isinstance(data, dict):
            raise ScenarioError(f"clause must be a mapping, got {data!r}")
        _check_keys("clause", data, tuple(f.name for f in fields(cls)))
        if "layers" in data and data["layers"] is not None:
            data = dict(data, layers=tuple(data["layers"]))
        return cls(**data)


_POLARITIES = {
    "random": StuckPolarity.RANDOM,
    "stuck_at_0": StuckPolarity.STUCK_AT_0,
    "stuck_at_1": StuckPolarity.STUCK_AT_1,
}


@dataclass(frozen=True)
class Episode:
    """A named environment condition active for part of the workload.

    ``duty`` is the fraction of inferences spent under this environment
    (used for the duty-weighted blended trajectory); ``clauses`` are the
    *extra* faults the environment contributes on top of the scenario's
    base clauses — e.g. an SEU storm's transient burst.
    """

    name: str
    duty: float = 0.0
    clauses: tuple[FaultClause, ...] = ()

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError(f"episode name must be a non-empty string, "
                                f"got {self.name!r}")
        if self.name == NOMINAL_EPISODE:
            raise ScenarioError(
                f"episode name {NOMINAL_EPISODE!r} is reserved for the "
                "implicit baseline environment")
        if not (isinstance(self.duty, (int, float))
                and 0.0 <= self.duty <= 1.0):
            raise ScenarioError(f"episode duty must be in [0, 1], "
                                f"got {self.duty!r}")
        object.__setattr__(self, "clauses", tuple(self.clauses))

    @classmethod
    def from_dict(cls, data: dict) -> "Episode":
        if not isinstance(data, dict):
            raise ScenarioError(f"episode must be a mapping, got {data!r}")
        _check_keys("episode", data, ("name", "duty", "clauses"))
        clauses = tuple(FaultClause.from_dict(c)
                        for c in data.get("clauses", ()))
        return cls(name=data.get("name", ""), duty=data.get("duty", 0.0),
                   clauses=clauses)


@dataclass(frozen=True)
class Timeline:
    """Device-age checkpoints driving the lifetime curves.

    ``ages`` are cumulative switching-cycle counts (the x-axis of an
    accuracy-over-lifetime figure); ``cycles_per_inference`` feeds the
    transient-upset window; ``endurance`` is the Weibull model the
    ``lifetime-*`` clause references resolve against.
    """

    ages: tuple[float, ...]
    cycles_per_inference: float = 5500.0
    endurance: EnduranceModel = field(default_factory=EnduranceModel)

    def __post_init__(self):
        try:
            ages = tuple(float(age) for age in self.ages)
        except (TypeError, ValueError):
            raise ScenarioError(
                f"timeline ages must be numbers, got {self.ages!r}") from None
        if not ages:
            raise ScenarioError("timeline needs at least one age checkpoint")
        if any(not math.isfinite(age) or age < 0 for age in ages):
            raise ScenarioError(f"timeline ages must be finite and "
                                f"non-negative, got {list(ages)}")
        if list(ages) != sorted(ages):
            raise ScenarioError(f"timeline ages must be non-decreasing, "
                                f"got {list(ages)}")
        object.__setattr__(self, "ages", ages)
        if not (isinstance(self.cycles_per_inference, (int, float))
                and self.cycles_per_inference > 0):
            raise ScenarioError(
                f"cycles_per_inference must be positive, "
                f"got {self.cycles_per_inference!r}")

    def points(self) -> list[LifetimePoint]:
        """Fault rates at every checkpoint (the consumed
        :meth:`repro.lim.EnduranceModel.rates_at` API)."""
        return [self.endurance.rates_at(age, self.cycles_per_inference)
                for age in self.ages]

    @classmethod
    def from_dict(cls, data: dict) -> "Timeline":
        if not isinstance(data, dict):
            raise ScenarioError(f"timeline must be a mapping, got {data!r}")
        _check_keys("timeline", data,
                    ("ages", "cycles_per_inference", "endurance"))
        endurance = data.get("endurance", None)
        if isinstance(endurance, dict):
            _check_keys("timeline endurance", endurance,
                        ("mean_cycles", "shape", "upset_rate_per_cycle"))
            try:
                endurance = EnduranceModel(**endurance)
            except (TypeError, ValueError) as error:
                # TypeError covers non-numeric parameters reaching the
                # model's comparisons — still a malformed user spec
                raise ScenarioError(f"timeline endurance: {error}") from None
        elif endurance is None:
            endurance = EnduranceModel()
        elif not isinstance(endurance, EnduranceModel):
            raise ScenarioError(
                f"timeline endurance must be a mapping, got {endurance!r}")
        return cls(ages=tuple(data.get("ages", ())),
                   cycles_per_inference=data.get("cycles_per_inference",
                                                 5500.0),
                   endurance=endurance)


@dataclass(frozen=True)
class Scenario:
    """A composed lifetime/environment fault story.

    The grid the compiler lowers this to is ``timeline checkpoints ×
    environment episodes``: every checkpoint is evaluated under the
    nominal environment (unless ``include_nominal`` is false) and under
    each episode, with the episode's extra clauses added to the base
    clauses.  See :func:`repro.scenarios.compile_scenario`.
    """

    name: str
    clauses: tuple[FaultClause, ...]
    timeline: Timeline = field(
        default_factory=lambda: Timeline(ages=(0.0,)))
    episodes: tuple[Episode, ...] = ()
    include_nominal: bool = True
    description: str = ""

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError(f"scenario name must be a non-empty string, "
                                f"got {self.name!r}")
        object.__setattr__(self, "clauses", tuple(self.clauses))
        object.__setattr__(self, "episodes", tuple(self.episodes))
        if not self.clauses and not any(e.clauses for e in self.episodes):
            raise ScenarioError(f"scenario {self.name!r} declares no fault "
                                "clauses anywhere")
        names = [episode.name for episode in self.episodes]
        if len(set(names)) != len(names):
            raise ScenarioError(f"duplicate episode names in {names}")
        if not self.include_nominal and not self.episodes:
            raise ScenarioError(
                "a scenario without episodes must include the nominal "
                "environment (include_nominal=true)")
        total_duty = sum(episode.duty for episode in self.episodes)
        if total_duty > 1.0 + 1e-9:
            raise ScenarioError(f"episode duties sum to {total_duty:g} > 1")

    # -- derived views ---------------------------------------------------
    def episode_names(self) -> list[str]:
        """Environment column order of the compiled grid."""
        names = [NOMINAL_EPISODE] if self.include_nominal else []
        return names + [episode.name for episode in self.episodes]

    def duties(self) -> list[float]:
        """Workload fraction per environment, aligned with
        :meth:`episode_names`; the nominal environment absorbs whatever
        the episodes leave."""
        episode_duty = [episode.duty for episode in self.episodes]
        if self.include_nominal:
            return [max(0.0, 1.0 - sum(episode_duty))] + episode_duty
        return episode_duty

    def clauses_for(self, episode: str) -> tuple[FaultClause, ...]:
        """Base clauses plus the named environment's extras."""
        if episode == NOMINAL_EPISODE:
            return self.clauses
        for candidate in self.episodes:
            if candidate.name == episode:
                return self.clauses + candidate.clauses
        raise ScenarioError(f"unknown episode {episode!r}; "
                            f"have {self.episode_names()}")

    def layer_references(self) -> set[str]:
        """Every layer name any clause targets (for model validation)."""
        names: set[str] = set()
        for episode in (NOMINAL_EPISODE, *(e.name for e in self.episodes)):
            for clause in self.clauses_for(episode):
                if clause.layers is not None:
                    names.update(clause.layers)
        return names

    # -- loaders ---------------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Build a scenario from a plain dict (the YAML/JSON document
        form); unknown keys raise :class:`ScenarioError`."""
        if not isinstance(data, dict):
            raise ScenarioError(f"scenario must be a mapping, got {data!r}")
        _check_keys("scenario", data,
                    ("name", "description", "timeline", "clauses",
                     "episodes", "include_nominal"))
        clauses = data.get("clauses", ())
        if not isinstance(clauses, (list, tuple)):
            raise ScenarioError(f"scenario clauses must be a list, "
                                f"got {clauses!r}")
        episodes = data.get("episodes", ())
        if not isinstance(episodes, (list, tuple)):
            raise ScenarioError(f"scenario episodes must be a list, "
                                f"got {episodes!r}")
        timeline = data.get("timeline", {"ages": (0.0,)})
        return cls(
            name=data.get("name", ""),
            description=data.get("description", ""),
            timeline=(timeline if isinstance(timeline, Timeline)
                      else Timeline.from_dict(timeline)),
            clauses=tuple(FaultClause.from_dict(c) for c in clauses),
            episodes=tuple(Episode.from_dict(e) for e in episodes),
            include_nominal=bool(data.get("include_nominal", True)))

    @classmethod
    def from_yaml(cls, text: str) -> "Scenario":
        """Parse a YAML (or JSON — a YAML subset) scenario document."""
        try:
            import yaml
        except ImportError:
            # YAML is an optional convenience; JSON documents always work
            try:
                data = json.loads(text)
            except json.JSONDecodeError:
                raise ScenarioError(
                    "PyYAML is not installed and the document is not JSON; "
                    "install pyyaml or use a .json scenario file") from None
            return cls.from_dict(data)
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as error:
            raise ScenarioError(f"malformed scenario YAML: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        """Load a scenario spec from a ``.yaml``/``.yml``/``.json`` file."""
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise ScenarioError(f"cannot read scenario file {path}: "
                                f"{error}") from None
        if path.suffix.lower() == ".json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as error:
                raise ScenarioError(f"malformed scenario JSON in {path}: "
                                    f"{error}") from None
            return cls.from_dict(data)
        return cls.from_yaml(text)
