"""Extension bench — effectiveness of the mitigation strategies.

Not a paper figure: quantifies the reliability strategies the paper's
conclusion calls for.  Column remapping is evaluated against structural
column faults on the final classifier layer; majority voting against
independent stuck-at banks.
"""

import numpy as np

from repro.analysis import markdown_table, write_csv
from repro.core import (FaultGenerator, FaultInjector, FaultSpec,
                        majority_vote_predict, remap_columns)
from repro.core.detection import apply_column_permutation
from repro.core.masks import LayerMasks

TEST_IMAGES = 300
BANKS = 3
STUCK_RATE = 0.08


def test_mitigation_column_remap(lenet, mnist_test, results_dir):
    test = mnist_test.subset(TEST_IMAGES)
    injector = FaultInjector()
    rows, cols, filters = 40, 16, 10  # 6 spare columns on dense1

    outcomes = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        masks = LayerMasks(rows=rows, cols=cols)
        for col in rng.choice(cols, size=3, replace=False):
            masks.stuck_mask[:, col] = True
            masks.stuck_values[:, col] = rng.integers(0, 2)
        with injector.injecting(lenet, {"dense1": masks}):
            damaged = lenet.evaluate(test.x, test.y)
        perm = remap_columns(masks, filters)
        remapped_masks = apply_column_permutation(masks, perm)
        with injector.injecting(lenet, {"dense1": remapped_masks}):
            repaired = lenet.evaluate(test.x, test.y)
        outcomes.append((damaged, repaired))
    damaged = np.mean([d for d, _ in outcomes])
    repaired = np.mean([r for _, r in outcomes])
    rows_out = [("3 dead columns, no mitigation", 100 * damaged),
                ("after column remapping", 100 * repaired)]
    print("\n=== Mitigation: column remapping (dense1, 6 spare columns) ===")
    print(markdown_table(["configuration", "accuracy %"], rows_out))
    write_csv(results_dir / "mitigation_remap.csv",
              ["configuration", "accuracy_pct"], rows_out)
    assert repaired > damaged


def test_mitigation_majority_vote(lenet, mnist_test, results_dir):
    test = mnist_test.subset(TEST_IMAGES)
    spec = FaultSpec.stuck_at(STUCK_RATE)
    plans = [FaultGenerator(spec, rows=40, cols=10, seed=s).generate(lenet)
             for s in range(BANKS)]

    injector = FaultInjector()
    singles = []
    for plan in plans:
        with injector.injecting(lenet, plan):
            singles.append(lenet.evaluate(test.x, test.y))
    voted = float((majority_vote_predict(lenet, test.x, plans)
                   == test.y).mean())
    rows_out = [(f"bank {i}", 100 * acc) for i, acc in enumerate(singles)]
    rows_out.append((f"majority vote over {BANKS} banks", 100 * voted))
    print(f"\n=== Mitigation: majority vote (stuck-at {STUCK_RATE:.0%}) ===")
    print(markdown_table(["configuration", "accuracy %"], rows_out))
    write_csv(results_dir / "mitigation_vote.csv",
              ["configuration", "accuracy_pct"], rows_out)
    assert voted >= np.mean(singles) - 0.02
