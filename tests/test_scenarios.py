"""Tests for the declarative scenario subsystem (repro.scenarios)."""

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantDense
from repro.core import FaultType, SpatialMode
from repro.lim import EnduranceModel
from repro.scenarios import (Episode, FaultClause, Scenario, ScenarioError,
                             Timeline, compile_scenario, get_scenario,
                             resolve_scenario, run_scenario, scenario_names)

ROWS, COLS = 6, 3


def small_model(seed=0):
    model = nn.Sequential([
        QuantDense(5, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
    ], name="one_dense")
    model.build((14,), seed=seed)
    return model


def small_data(n=64, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 14)).astype(np.float32)
    y = rng.integers(0, 5, size=n)
    return x, y


def aging_scenario(**overrides):
    base = dict(
        name="test-aging",
        timeline=Timeline(ages=(0.0, 5e7, 1.5e8),
                          endurance=EnduranceModel(mean_cycles=1e8)),
        clauses=(FaultClause(kind="stuck_at", rate="lifetime-stuck"),
                 FaultClause(kind="bitflip", rate=0.05)),
    )
    base.update(overrides)
    return Scenario(**base)


# -- spec validation ------------------------------------------------------

def test_clause_rejects_unknown_kind():
    with pytest.raises(ScenarioError):
        FaultClause(kind="gamma_ray")


def test_clause_rejects_out_of_range_rate():
    with pytest.raises(ScenarioError):
        FaultClause(kind="bitflip", rate=1.5)
    with pytest.raises(ScenarioError):
        FaultClause(kind="bitflip", rate=-0.1)
    with pytest.raises(ScenarioError):
        FaultClause(kind="bitflip", rate=float("nan"))


def test_clause_rejects_unknown_rate_reference():
    with pytest.raises(ScenarioError):
        FaultClause(kind="bitflip", rate="lifetime-banana")


def test_clause_dynamic_period_must_be_at_least_one():
    with pytest.raises(ScenarioError):
        FaultClause(kind="bitflip", rate=0.1, period=0)
    with pytest.raises(ScenarioError):
        FaultClause(kind="bitflip", rate=0.1, period=-2)
    assert FaultClause(kind="bitflip", rate=0.1, period=1).period == 1


def test_clause_period_only_for_bitflips():
    with pytest.raises(ScenarioError):
        FaultClause(kind="stuck_at", rate=0.1, period=2)


def test_clause_rate_count_axis_mixups_rejected():
    with pytest.raises(ScenarioError):
        FaultClause(kind="bitflip", rate=0.1, count=2)
    with pytest.raises(ScenarioError):
        FaultClause(kind="faulty_rows", count=1, rate=0.1)
    with pytest.raises(ScenarioError):
        FaultClause(kind="faulty_rows", count=1, rate="lifetime-stuck")


def test_clause_spatial_validation():
    with pytest.raises(ScenarioError):
        FaultClause(kind="stuck_at", rate=0.1, spatial="fractal")
    with pytest.raises(ScenarioError):
        FaultClause(kind="faulty_rows", count=1, spatial="clustered",
                    cluster_size=2)


def test_clause_from_dict_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown key"):
        FaultClause.from_dict({"kind": "bitflip", "rate": 0.1,
                               "ratee": 0.2})


def test_timeline_validation():
    with pytest.raises(ScenarioError):
        Timeline(ages=())
    with pytest.raises(ScenarioError):
        Timeline(ages=(1e8, 1e7))          # decreasing
    with pytest.raises(ScenarioError):
        Timeline(ages=(-1.0,))
    with pytest.raises(ScenarioError):
        Timeline(ages=(0.0,), cycles_per_inference=0)


def test_episode_validation():
    with pytest.raises(ScenarioError):
        Episode(name="nominal")            # reserved
    with pytest.raises(ScenarioError):
        Episode(name="storm", duty=1.5)


def test_scenario_needs_clauses_and_unique_episode_names():
    with pytest.raises(ScenarioError):
        Scenario(name="empty", clauses=())
    storm = Episode(name="storm", duty=0.1,
                    clauses=(FaultClause(kind="bitflip", rate=0.1),))
    with pytest.raises(ScenarioError):
        Scenario(name="dup", clauses=(),
                 episodes=(storm, storm))


def test_scenario_duties_cannot_exceed_one():
    heavy = Episode(name="a", duty=0.7,
                    clauses=(FaultClause(kind="bitflip", rate=0.1),))
    heavier = Episode(name="b", duty=0.7,
                      clauses=(FaultClause(kind="bitflip", rate=0.1),))
    with pytest.raises(ScenarioError):
        Scenario(name="over", clauses=(), episodes=(heavy, heavier))


def test_scenario_from_dict_rejects_unknown_keys():
    with pytest.raises(ScenarioError, match="unknown key"):
        Scenario.from_dict({"name": "x", "clauses": [], "sauces": []})


def test_scenario_from_dict_round_trip():
    scenario = Scenario.from_dict({
        "name": "doc",
        "timeline": {"ages": [0.0, 1e8],
                     "endurance": {"mean_cycles": 2e8, "shape": 3.0}},
        "clauses": [{"kind": "stuck_at", "rate": "lifetime-stuck",
                     "spatial": "clustered", "cluster_size": 4}],
        "episodes": [{"name": "storm", "duty": 0.25,
                      "clauses": [{"kind": "bitflip", "rate": 0.2,
                                   "period": 2}]}],
    })
    assert scenario.timeline.endurance.mean_cycles == 2e8
    assert scenario.episode_names() == ["nominal", "storm"]
    assert scenario.duties() == [0.75, 0.25]
    assert scenario.clauses_for("storm")[-1].period == 2


def test_scenario_from_yaml():
    yaml = pytest.importorskip("yaml")  # noqa: F841 (gate only)
    scenario = Scenario.from_yaml("""
name: yaml-story
timeline:
  ages: [0.0, 5.0e+7]
clauses:
  - {kind: stuck_at, rate: lifetime-stuck}
""")
    assert scenario.name == "yaml-story"
    assert scenario.timeline.ages == (0.0, 5e7)


def test_scenario_from_file_json(tmp_path):
    path = tmp_path / "story.json"
    path.write_text('{"name": "j", "timeline": {"ages": [0.0]}, '
                    '"clauses": [{"kind": "bitflip", "rate": 0.1}]}')
    assert Scenario.from_file(path).name == "j"


def test_scenario_from_file_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": ')
    with pytest.raises(ScenarioError):
        Scenario.from_file(path)


def test_resolve_scenario_unknown_name():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        resolve_scenario("not-a-story")


# -- clause lowering ------------------------------------------------------

def test_lifetime_rates_follow_endurance_curve():
    scenario = aging_scenario()
    grid = compile_scenario(scenario, rows=ROWS, cols=COLS)
    endurance = scenario.timeline.endurance
    stuck = [cell.specs[0] for cell in grid.cells]
    assert stuck[0].rate == endurance.stuck_fraction(0.0) == 0.0
    assert stuck[1].rate == pytest.approx(endurance.stuck_fraction(5e7))
    assert stuck[2].rate == pytest.approx(endurance.stuck_fraction(1.5e8))
    assert stuck[1].rate < stuck[2].rate
    # the fixed-rate clause stays fixed across checkpoints
    assert all(cell.specs[1].rate == 0.05 for cell in grid.cells)


def test_scale_and_clipping():
    clause = FaultClause(kind="stuck_at", rate="lifetime-stuck", scale=100.0)
    point = EnduranceModel(mean_cycles=1e8).rates_at(2e8, 1e3)
    spec = clause.lower(point, ROWS, COLS)
    assert spec.rate == 1.0  # clipped, not out of range


def test_lifetime_count_lowering():
    clause = FaultClause(kind="faulty_rows", count="lifetime", scale=0.5)
    point = EnduranceModel(mean_cycles=1e8).rates_at(1e8, 1e3)
    spec = clause.lower(point, ROWS, COLS)
    expected = round(point.stuck_rate * 0.5 * ROWS)
    assert spec.kind == FaultType.FAULTY_ROWS
    assert spec.count == min(ROWS, expected)


def test_lowered_spec_carries_spatial_and_layers():
    clause = FaultClause(kind="stuck_at", rate=0.2, spatial="row_burst",
                         cluster_size=2, layers=("one_dense",))
    point = EnduranceModel().rates_at(0.0, 1.0)
    spec = clause.lower(point, ROWS, COLS)
    assert spec.spatial == SpatialMode.ROW_BURST
    assert spec.cluster_size == 2
    assert spec.layers == ("one_dense",)


# -- compilation ----------------------------------------------------------

def test_compile_is_deterministic():
    a = compile_scenario(aging_scenario(), rows=ROWS, cols=COLS)
    b = compile_scenario(aging_scenario(), rows=ROWS, cols=COLS)
    assert a.xs == b.xs
    assert a.describe() == b.describe()


def test_compile_grid_shape_checkpoint_major():
    storm = Episode(name="storm", duty=0.1,
                    clauses=(FaultClause(kind="bitflip", rate=0.1),))
    grid = compile_scenario(aging_scenario(episodes=(storm,)),
                            rows=ROWS, cols=COLS)
    assert grid.n_checkpoints == 3
    assert grid.episodes == ["nominal", "storm"]
    assert [cell.index for cell in grid.cells] == list(range(6))
    assert [cell.episode for cell in grid.cells[:2]] == ["nominal", "storm"]
    # storm cells carry the extra clause on top of the base ones
    assert len(grid.cells[1].specs) == len(grid.cells[0].specs) + 1


def test_compile_validates_layer_targets_against_model():
    bad = aging_scenario(clauses=(
        FaultClause(kind="stuck_at", rate=0.1, layers=("nonexistent",)),))
    with pytest.raises(ScenarioError, match="not mapped"):
        compile_scenario(bad, small_model(), rows=ROWS, cols=COLS)
    from repro.core import mapped_layers
    model = small_model()
    name = mapped_layers(model)[0].name
    good = aging_scenario(clauses=(
        FaultClause(kind="stuck_at", rate=0.1, layers=(name,)),))
    grid = compile_scenario(good, model, rows=ROWS, cols=COLS)
    assert grid.cells[0].specs[0].layers == (name,)


def test_zoo_has_six_scenarios_that_all_compile():
    names = scenario_names()
    assert len(names) >= 6
    for name in names:
        grid = compile_scenario(get_scenario(name), small_model(),
                                rows=ROWS, cols=COLS)
        assert grid.cells, name
        assert grid.xs == [float(i) for i in range(len(grid.cells))]


def test_zoo_unknown_name():
    with pytest.raises(ScenarioError):
        get_scenario("mid-life-crisis")


# -- execution ------------------------------------------------------------

def test_run_scenario_shapes_and_determinism():
    model = small_model()
    x, y = small_data()
    first = run_scenario(aging_scenario(), model, x, y, repeats=2, seed=7,
                         rows=ROWS, cols=COLS)
    again = run_scenario(aging_scenario(), model, x, y, repeats=2, seed=7,
                         rows=ROWS, cols=COLS)
    assert first.accuracies.shape == (3, 1, 2)
    np.testing.assert_array_equal(first.accuracies, again.accuracies)
    assert first.baseline == again.baseline


def test_run_scenario_different_seeds_differ():
    model = small_model()
    x, y = small_data()
    a = run_scenario(aging_scenario(), model, x, y, repeats=2, seed=0,
                     rows=ROWS, cols=COLS)
    b = run_scenario(aging_scenario(), model, x, y, repeats=2, seed=99,
                     rows=ROWS, cols=COLS)
    assert not np.array_equal(a.accuracies, b.accuracies)


@pytest.mark.parametrize("executor,backend", [
    ("serial", "packed"),
    ("shared_memory", "float"),
    ("shared_memory", "packed"),
])
def test_run_scenario_bit_identical_across_engine_combos(executor, backend):
    """Same scenario + seed ⇒ bit-identical trajectories on every
    executor × backend combination (the engine's §IV contract extends to
    compiled grids)."""
    model = small_model()
    x, y = small_data()
    scenario = aging_scenario()
    reference = run_scenario(scenario, model, x, y, repeats=2, seed=5,
                             rows=ROWS, cols=COLS)
    other = run_scenario(scenario, model, x, y, repeats=2, seed=5,
                         rows=ROWS, cols=COLS, executor=executor,
                         n_jobs=2, backend=backend)
    np.testing.assert_array_equal(reference.accuracies, other.accuracies)
    assert reference.baseline == other.baseline


def test_run_scenario_episode_columns_and_blending():
    model = small_model()
    x, y = small_data()
    storm = Episode(name="storm", duty=0.25,
                    clauses=(FaultClause(kind="bitflip", rate=0.4),))
    scenario = aging_scenario(episodes=(storm,))
    result = run_scenario(scenario, model, x, y, repeats=2, seed=1,
                          rows=ROWS, cols=COLS)
    assert result.accuracies.shape == (3, 2, 2)
    assert result.episodes == ["nominal", "storm"]
    nominal = result.trajectory("nominal")
    stormy = result.trajectory("storm")
    blended = result.blended_trajectory()
    np.testing.assert_allclose(blended, 0.75 * nominal + 0.25 * stormy)
    with pytest.raises(ScenarioError):
        result.trajectory("hurricane")


def test_run_scenario_journal_resume_bit_identical(tmp_path):
    model = small_model()
    x, y = small_data()
    journal = tmp_path / "scenario.jsonl"
    first = run_scenario(aging_scenario(), model, x, y, repeats=2, seed=3,
                         rows=ROWS, cols=COLS, journal=journal)
    resumed = run_scenario(aging_scenario(), model, x, y, repeats=2, seed=3,
                           rows=ROWS, cols=COLS, journal=journal)
    np.testing.assert_array_equal(first.accuracies, resumed.accuracies)
    assert resumed.sweep.meta["resumed_cells"] == 6


def test_run_scenario_refuses_mismatched_journal(tmp_path):
    model = small_model()
    x, y = small_data()
    journal = tmp_path / "scenario.jsonl"
    run_scenario(aging_scenario(), model, x, y, repeats=2, seed=3,
                 rows=ROWS, cols=COLS, journal=journal)
    other = aging_scenario(clauses=(
        FaultClause(kind="bitflip", rate=0.3),))
    with pytest.raises(ValueError, match="different campaign"):
        run_scenario(other, model, x, y, repeats=2, seed=3,
                     rows=ROWS, cols=COLS, journal=journal)


def test_run_scenario_rows_for_reporting():
    model = small_model()
    x, y = small_data()
    result = run_scenario("fresh-device", model, x, y, repeats=1,
                          rows=ROWS, cols=COLS)
    rows = result.as_rows()
    assert [r["age"] for r in rows] == result.ages
    assert all("nominal" in r["episodes"] for r in rows)
    # fresh device: negligible rates, so accuracy == baseline at age 0
    assert rows[0]["stuck_rate"] == 0.0


def test_timeline_endurance_rejects_non_numeric_params():
    with pytest.raises(ScenarioError, match="endurance"):
        Timeline.from_dict({"ages": [0.0],
                            "endurance": {"mean_cycles": "fast"}})


def test_clause_spatial_cluster_size_consistency_at_parse_time():
    """Malformed spatial specs fail at parse time with ScenarioError,
    not later inside compile with a bare ValueError."""
    with pytest.raises(ScenarioError, match="cluster_size"):
        FaultClause(kind="stuck_at", rate=0.1, spatial="clustered")
    with pytest.raises(ScenarioError, match="cluster_size"):
        FaultClause(kind="stuck_at", rate=0.1, cluster_size=4)
