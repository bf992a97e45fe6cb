"""Ablation — crossbar geometry: reuse amplification of permanent faults.

A fixed *number* of stuck cells hurts more on a smaller crossbar: fewer
cells execute the same op stream, so each faulty cell covers a larger
share of the layer's weights (docs/fault-models.md#semantics-where-a-mask-acts).
This ablation fixes 16 stuck cells and sweeps the crossbar size.
"""

from repro.analysis import markdown_table, write_csv
from repro.core import FaultCampaign, FaultSpec, StuckPolarity

GEOMETRIES = ((20, 5), (40, 10), (80, 20))
STUCK_CELLS = 16
REPEATS = 3
TEST_IMAGES = 200


def test_ablation_crossbar_size(lenet, mnist_test, results_dir):
    test = mnist_test.subset(TEST_IMAGES)
    outcomes = []
    for rows, cols in GEOMETRIES:
        rate = STUCK_CELLS / (rows * cols)
        campaign = FaultCampaign(lenet, test.x, test.y, rows=rows, cols=cols)
        result = campaign.run(
            lambda _x: FaultSpec.stuck_at(rate, polarity=StuckPolarity.RANDOM),
            xs=[0], repeats=REPEATS, label=f"{rows}x{cols}")
        outcomes.append(((rows, cols), result))

    rows_out = []
    print(f"\n=== Ablation: crossbar size at {STUCK_CELLS} stuck cells ===")
    for (rows, cols), result in outcomes:
        reuse_note = rows * cols
        rows_out.append((f"{rows}x{cols}", reuse_note,
                         100 * result.mean()[0], 100 * result.std()[0]))
    print(markdown_table(
        ["crossbar", "cells", "accuracy %", "std %"], rows_out))
    write_csv(results_dir / "ablation_crossbar_size.csv",
              ["crossbar", "cells", "accuracy_pct", "std_pct"], rows_out)

    accuracies = [result.mean()[0] for _, result in outcomes]
    # more cells -> lower per-cell coverage -> (weakly) better accuracy
    assert accuracies[-1] >= accuracies[0] - 0.02
