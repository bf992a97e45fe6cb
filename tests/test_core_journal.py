"""Tests for journaled (resumable) campaigns."""

import hashlib
import json

import numpy as np
import pytest

from repro import nn
from repro.binary import QuantDense
from repro.core import CampaignJournal, FaultCampaign, FaultSpec


@pytest.fixture(scope="module")
def trained_setup():
    """A tiny trained BNN on a separable task, with held-out data."""
    rng = np.random.default_rng(0)
    n = 400
    x = rng.choice([-1.0, 1.0], size=(n, 16)).astype(np.float32)
    y = (x[:, :8].sum(axis=1) > 0).astype(int)
    model = nn.Sequential([
        QuantDense(32, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
        nn.Sign(),
        QuantDense(2, input_quantizer="ste_sign", kernel_quantizer="ste_sign"),
        nn.BatchNorm(),
    ]).build((16,), seed=0)
    trainer = nn.Trainer(nn.Adam(0.01), seed=0)
    trainer.fit(model, x[:300], y[:300], epochs=25, batch_size=32)
    return model, x[300:], y[300:]


class AbortAfter:
    """Executor wrapper that dies mid-grid, like a killed campaign."""

    name = "abort-after"

    def __init__(self, cells: int):
        self.cells = cells
        self.executed = 0

    def run_iter(self, jobs, evaluator, emit=None, obs=None):
        for job in jobs:
            if self.executed >= self.cells:
                raise KeyboardInterrupt("simulated kill")
            self.executed += 1
            yield evaluator.run_job(job)


KWARGS = dict(xs=[0.0, 0.25, 0.45], repeats=3, seed=11)


def test_journal_resume_mid_grid_reproduces_uninterrupted_run(
        trained_setup, tmp_path):
    model, x, y = trained_setup
    reference = FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, **KWARGS)

    journal = tmp_path / "sweep.jsonl"
    aborting = AbortAfter(4)
    campaign = FaultCampaign(model, x, y, rows=8, cols=4, executor=aborting)
    with pytest.raises(KeyboardInterrupt):
        campaign.run(FaultSpec.bitflip, journal=journal, **KWARGS)
    assert aborting.executed == 4

    finisher = AbortAfter(cells=10 ** 9)
    resumed = FaultCampaign(model, x, y, rows=8, cols=4,
                            executor=finisher).run(
        FaultSpec.bitflip, journal=journal, **KWARGS)
    assert resumed.meta["resumed_cells"] == 4
    assert finisher.executed == 9 - 4  # only the missing cells re-ran
    np.testing.assert_array_equal(resumed.accuracies, reference.accuracies)
    assert resumed.baseline == reference.baseline


def test_completed_journal_resumes_without_evaluating(trained_setup, tmp_path):
    model, x, y = trained_setup
    journal = tmp_path / "sweep.jsonl"
    first = FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, journal=journal, **KWARGS)
    counter = AbortAfter(cells=10 ** 9)
    replay = FaultCampaign(model, x, y, rows=8, cols=4,
                           executor=counter).run(
        FaultSpec.bitflip, journal=journal, **KWARGS)
    assert counter.executed == 0
    np.testing.assert_array_equal(first.accuracies, replay.accuracies)


def test_journal_tolerates_torn_final_line(trained_setup, tmp_path):
    """A write cut off mid-line (kill -9) just re-evaluates that cell."""
    model, x, y = trained_setup
    journal = tmp_path / "sweep.jsonl"
    reference = FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, journal=journal, **KWARGS)
    text = journal.read_text()
    lines = text.splitlines(keepends=True)
    journal.write_text("".join(lines[:-1]) + lines[-1][:17])  # tear the tail
    with pytest.warns(RuntimeWarning, match="torn"):
        resumed = FaultCampaign(model, x, y, rows=8, cols=4).run(
            FaultSpec.bitflip, journal=journal, **KWARGS)
    assert resumed.meta["resumed_cells"] == 9 - 1
    np.testing.assert_array_equal(resumed.accuracies, reference.accuracies)


def test_torn_journal_stays_resumable(trained_setup, tmp_path):
    """A campaign killed mid-append, resumed, and killed again resumes
    again: the first resume cuts the torn line off instead of gluing
    its first record onto it."""
    from repro.testing import truncate_last_line

    model, x, y = trained_setup
    reference = FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, **KWARGS)
    journal = tmp_path / "sweep.jsonl"
    with pytest.raises(KeyboardInterrupt):
        FaultCampaign(model, x, y, rows=8, cols=4,
                      executor=AbortAfter(4)).run(
            FaultSpec.bitflip, journal=journal, **KWARGS)
    truncate_last_line(journal)
    with pytest.warns(RuntimeWarning, match="torn"):
        first = FaultCampaign(model, x, y, rows=8, cols=4).run(
            FaultSpec.bitflip, journal=journal, **KWARGS)
    assert first.meta["resumed_cells"] == 4 - 1
    again = FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, journal=journal, **KWARGS)
    assert again.meta["resumed_cells"] == 9
    np.testing.assert_array_equal(again.accuracies, reference.accuracies)


def test_journal_rejects_mismatched_grid(trained_setup, tmp_path):
    model, x, y = trained_setup
    journal = tmp_path / "sweep.jsonl"
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    campaign.run(FaultSpec.bitflip, journal=journal, **KWARGS)
    with pytest.raises(ValueError, match="different campaign"):
        campaign.run(FaultSpec.bitflip, journal=journal,
                     xs=[0.0, 0.5], repeats=3, seed=11)
    with pytest.raises(ValueError, match="different campaign"):
        campaign.run(FaultSpec.bitflip, journal=journal,
                     xs=KWARGS["xs"], repeats=3, seed=12)


def test_journal_rejects_different_data_or_model(trained_setup, tmp_path):
    """Cells evaluated on other data/weights must never mix into a
    resumed result — the header fingerprints both."""
    model, x, y = trained_setup
    journal = tmp_path / "sweep.jsonl"
    FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, journal=journal, **KWARGS)
    with pytest.raises(ValueError, match="different campaign"):
        FaultCampaign(model, x[:50], y[:50], rows=8, cols=4).run(
            FaultSpec.bitflip, journal=journal, **KWARGS)
    mutated = x.copy()
    mutated[0, 0] = -mutated[0, 0]
    with pytest.raises(ValueError, match="different campaign"):
        FaultCampaign(model, mutated, y, rows=8, cols=4).run(
            FaultSpec.bitflip, journal=journal, **KWARGS)
    with pytest.raises(ValueError, match="different campaign"):
        FaultCampaign(model, x, y, rows=8, cols=4,
                      continue_time_across_layers=False).run(
            FaultSpec.bitflip, journal=journal, **KWARGS)


def test_fingerprint_keeps_its_formula(trained_setup):
    """The evaluator hashes its test set once; the journal fingerprint
    continues that hash with the weights and must equal the formula
    older journals were written with, so they still resume."""
    model, x, y = trained_setup
    for data, labels in ((x, y), (np.asfortranarray(x), y.astype(np.int32)),
                         (x[::2], y[::2])):
        digest = hashlib.sha1()
        for array in (data, labels):
            digest.update(str(array.shape).encode())
            digest.update(str(array.dtype).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        for key, value in sorted(model.state_dict().items()):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        campaign = FaultCampaign(model, data, labels, rows=8, cols=4)
        assert campaign._fingerprint() == digest.hexdigest()
        assert campaign._fingerprint() == digest.hexdigest()


def test_journal_layer_restriction_as_tuple_resumes(trained_setup, tmp_path):
    """`layers` given as a tuple must resume its own journal (JSON
    round-trips sequences as lists)."""
    model, x, y = trained_setup
    name = model.layers[0].name
    journal = tmp_path / "layers.jsonl"
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    first = campaign.run(FaultSpec.bitflip, xs=[0.0, 0.3], repeats=2,
                         seed=0, layers=(name,), journal=journal)
    again = campaign.run(FaultSpec.bitflip, xs=[0.0, 0.3], repeats=2,
                         seed=0, layers=(name,), journal=journal)
    assert again.meta["resumed_cells"] == 4
    np.testing.assert_array_equal(first.accuracies, again.accuracies)


def test_unknown_layer_leaves_no_journal(trained_setup, tmp_path):
    """An unknown layer name is refused before the journal opens, so
    the corrected run starts afresh on the same path."""
    model, x, y = trained_setup
    journal = tmp_path / "layers.jsonl"
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    with pytest.raises(KeyError, match="nope"):
        campaign.run(FaultSpec.bitflip, [0.1], repeats=1, layers=["nope"],
                     journal=journal)
    assert not journal.exists()
    result = campaign.run(FaultSpec.bitflip, [0.1], repeats=1,
                          layers=[model.layers[0].name], journal=journal)
    assert result.meta["resumed_cells"] == 0
    assert journal.exists()


def test_journal_rejects_different_fault_spec(trained_setup, tmp_path):
    """Same grid, different fault specification must not mix."""
    model, x, y = trained_setup
    journal = tmp_path / "sweep.jsonl"
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    campaign.run(FaultSpec.bitflip, journal=journal, **KWARGS)
    with pytest.raises(ValueError, match="different campaign"):
        campaign.run(FaultSpec.stuck_at, journal=journal, **KWARGS)
    # same sweep axis (periods), different fixed rate behind the factory
    periods = tmp_path / "periods.jsonl"
    campaign.run(lambda n: FaultSpec.bitflip(0.1, period=int(n)),
                 xs=[0, 2], repeats=2, seed=0, journal=periods)
    with pytest.raises(ValueError, match="different campaign"):
        campaign.run(lambda n: FaultSpec.bitflip(0.2, period=int(n)),
                     xs=[0, 2], repeats=2, seed=0, journal=periods)


def test_build_jobs_skip_preserves_remaining_plans(trained_setup):
    """Skipping journaled cells must not disturb the other cells' plans
    (each job seed is a pure function of its coordinates)."""
    from repro.core import build_jobs

    model, _, _ = trained_setup
    full = build_jobs(model, FaultSpec.bitflip, [0.2, 0.4], 3, 7, 8, 4)
    skip = {(0, 0), (0, 1), (0, 2), (1, 1)}  # point 0 entirely + one cell
    partial = build_jobs(model, FaultSpec.bitflip, [0.2, 0.4], 3, 7, 8, 4,
                         skip=skip)
    assert {(job.point_index, job.repeat_index) for job in partial} == \
        {(1, 0), (1, 2)}
    by_coord = {(job.point_index, job.repeat_index): job for job in full}
    for job in partial:
        reference = by_coord[(job.point_index, job.repeat_index)]
        assert job.seed == reference.seed
        for name in job.plan:
            np.testing.assert_array_equal(job.plan[name].flip_mask,
                                          reference.plan[name].flip_mask)


def test_journal_rejects_foreign_file(trained_setup, tmp_path):
    model, x, y = trained_setup
    journal = tmp_path / "not_a_journal.jsonl"
    journal.write_text("this is not json\n")
    campaign = FaultCampaign(model, x, y, rows=8, cols=4)
    with pytest.raises(ValueError, match="not a campaign journal"):
        campaign.run(FaultSpec.bitflip, journal=journal, **KWARGS)


def test_journal_file_layout(trained_setup, tmp_path):
    model, x, y = trained_setup
    journal = tmp_path / "sweep.jsonl"
    FaultCampaign(model, x, y, rows=8, cols=4, backend="float").run(
        FaultSpec.bitflip, journal=journal, **KWARGS)
    lines = [json.loads(line) for line in journal.read_text().splitlines()]
    header, cells = lines[0], lines[1:]
    assert header["kind"] == "header"
    assert header["xs"] == KWARGS["xs"]
    assert header["repeats"] == KWARGS["repeats"]
    assert header["backend"] == "float"
    assert len(cells) == len(KWARGS["xs"]) * KWARGS["repeats"]
    coords = {(cell["point"], cell["repeat"]) for cell in cells}
    assert coords == {(i, j) for i in range(3) for j in range(3)}
    for cell in cells:
        assert cell["x"] == KWARGS["xs"][cell["point"]]
        assert 0.0 <= cell["accuracy"] <= 1.0


def test_progress_callback_reports_every_cell(trained_setup, tmp_path):
    model, x, y = trained_setup
    seen = []
    FaultCampaign(model, x, y, rows=8, cols=4).run(
        FaultSpec.bitflip, xs=[0.0, 0.3], repeats=2, seed=0,
        progress=lambda done, total, cell: seen.append((done, total, cell)))
    assert [done for done, _, _ in seen] == [1, 2, 3, 4]
    assert all(total == 4 for _, total, _ in seen)


def test_campaign_journal_direct_api(tmp_path):
    header = {"xs": [0.0], "repeats": 1, "seed": 0, "rows": 8, "cols": 4,
              "layers": None, "backend": "float", "label": "t"}
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path, header) as journal:
        journal.record(0, 0, 0.0, 0.5)
    with CampaignJournal(path, header) as journal:
        assert journal.completed == {(0, 0): 0.5}


def test_journal_ends_an_unterminated_last_line(tmp_path):
    """A last line written whole but without its newline gets one before
    the next append, so both records stay readable."""
    header = {"xs": [0.0], "repeats": 2, "seed": 0, "rows": 8, "cols": 4,
              "layers": None, "backend": "float", "label": "t"}
    path = tmp_path / "j.jsonl"
    with CampaignJournal(path, header) as journal:
        journal.record(0, 0, 0.0, 0.5)
    path.write_text(path.read_text().rstrip("\n"))
    with CampaignJournal(path, header) as journal:
        journal.record(0, 1, 0.0, 0.75)
    with CampaignJournal(path, header) as journal:
        assert journal.completed == {(0, 0): 0.5, (0, 1): 0.75}
