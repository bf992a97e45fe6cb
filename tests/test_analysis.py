"""Tests for metrics, plotting and runtime accounting."""

import numpy as np
import pytest

from repro.analysis import (RuntimeSample, accuracy, ascii_plot, critical_x,
                            degradation, extrapolate, markdown_table, measure,
                            measure_interleaved, speedup_table,
                            top_k_accuracy, write_csv)
from repro.analysis.runtime import INTERLEAVED_TRIALS


def test_accuracy_basics():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels) == pytest.approx(2 / 3)


def test_top_k_accuracy():
    logits = np.array([[3.0, 2.0, 1.0, 0.0]])
    assert top_k_accuracy(logits, np.array([2]), k=3) == 1.0
    assert top_k_accuracy(logits, np.array([3]), k=3) == 0.0


def test_degradation():
    assert degradation(0.97, 0.55) == pytest.approx(0.42)


def test_critical_x_interpolates():
    xs = [0.0, 0.1, 0.2]
    means = [0.9, 0.7, 0.3]
    # crosses 0.5 between 0.1 and 0.2: 0.1 + (0.7-0.5)/(0.7-0.3)*0.1 = 0.15
    assert critical_x(xs, means, 0.5) == pytest.approx(0.15)


def test_critical_x_never_crossing():
    assert critical_x([0.0, 0.1], [0.9, 0.8], 0.5) is None


def test_critical_x_immediate():
    assert critical_x([0.0, 0.1], [0.4, 0.2], 0.5) == 0.0


def test_ascii_plot_contains_series_markers():
    text = ascii_plot({"a": ([0, 1, 2], [0.1, 0.5, 0.9]),
                       "b": ([0, 1, 2], [0.9, 0.5, 0.1])},
                      title="demo", width=30, height=8)
    assert "demo" in text
    assert "o=a" in text and "x=b" in text
    assert "o" in text and "x" in text


def test_ascii_plot_empty_rejected():
    with pytest.raises(ValueError):
        ascii_plot({})


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["x", "y"], [(1, 2.5), (2, 3.5)])
    content = path.read_text().strip().splitlines()
    assert content[0] == "x,y"
    assert content[1] == "1,2.5"


def test_markdown_table_shape():
    table = markdown_table(["a", "b"], [(1, 2.0), ("x", 0.123456)])
    lines = table.splitlines()
    assert lines[0].startswith("| a | b |")
    assert lines[1] == "|---|---|"
    assert "0.1235" in lines[3]


def test_measure_and_extrapolate():
    sample = measure("fast", lambda: sum(range(1000)), images=10)
    assert sample.seconds >= 0.0
    assert sample.seconds_per_image == sample.seconds / 10
    scaled = extrapolate(sample, 1000)
    assert scaled.images == 1000
    assert scaled.seconds == pytest.approx(sample.seconds * 100)
    assert scaled.extrapolated_from == 10
    assert "extrapolated" in scaled.describe()
    # Fig. 4f's protocol: one untimed warm-up round, then the platforms
    # take turns for every timed round
    calls = []
    samples = measure_interleaved(
        {"vanilla": lambda: calls.append("vanilla"),
         "FLIM": lambda: calls.append("FLIM")}, images=10)
    assert calls == ["vanilla", "FLIM"] * (1 + INTERLEAVED_TRIALS)
    assert [s.platform for s in samples] == ["vanilla", "FLIM"]
    assert all(s.images == 10 for s in samples)


def test_speedup_table_reference():
    samples = [RuntimeSample("slow", 100.0, 10),
               RuntimeSample("fast", 1.0, 10)]
    table = speedup_table(samples, reference="slow")
    by_name = {name: speedup for name, _, speedup in table}
    assert by_name["slow"] == pytest.approx(1.0)
    assert by_name["fast"] == pytest.approx(100.0)
    with pytest.raises(KeyError):
        speedup_table(samples, reference="nope")
