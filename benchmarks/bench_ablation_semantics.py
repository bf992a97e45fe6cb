"""Ablation — mask-application semantics: OUTPUT (fast) vs PRODUCT (exact).

FLIM's contribution is abstracting faults to the XNOR-operation level,
"trad[ing] simulation accuracy with noteworthy performance improvement".
This ablation reports the accuracy side of that trade on the LeNet
workload: the estimate under each semantics.
"""

from repro.analysis import markdown_table, write_csv
from repro.core import FaultCampaign, FaultSpec, Semantics

RATE = 0.10
REPEATS = 3
TEST_IMAGES = 200


def test_ablation_semantics(lenet, mnist_test, results_dir):
    test = mnist_test.subset(TEST_IMAGES)
    campaign = FaultCampaign(lenet, test.x, test.y, rows=40, cols=10)

    def sweep(semantics):
        return campaign.run(
            lambda r: FaultSpec.bitflip(r, semantics=semantics),
            xs=[RATE], repeats=REPEATS, layers=["conv1"],
            label=semantics.value)

    fast, exact = sweep(Semantics.OUTPUT), sweep(Semantics.PRODUCT)

    rows = [
        ("output (FLIM fast path)", 100 * fast.mean()[0], 100 * fast.std()[0]),
        ("product (device-true)", 100 * exact.mean()[0], 100 * exact.std()[0]),
    ]
    print(f"\n=== Ablation: semantics level (bit-flips at {RATE:.0%}, conv1) ===")
    print(markdown_table(["semantics", "accuracy %", "std %"], rows))
    write_csv(results_dir / "ablation_semantics.csv",
              ["semantics", "accuracy_pct", "std_pct"], rows)

    # both semantics must show degradation relative to the baseline
    assert fast.mean()[0] < fast.baseline
    assert exact.mean()[0] < exact.baseline
