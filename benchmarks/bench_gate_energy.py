"""Extension bench — LIM energy/latency by gate family (IMPLY vs MAGIC).

Not a paper figure: quantifies the execution-cost side of the logic
families the paper builds on (Kvatinsky et al.'s MAGIC and IMPLY).  The
stateful IMPLY XNOR costs an 11-step program per operation; MAGIC's
complementary-pair read-out costs 3 — the latency/energy ratio follows.
"""

from repro.analysis import markdown_table, write_csv
from repro.lim import estimate_model_cost


def test_gate_family_cost(lenet, results_dir):
    costs = {gate: estimate_model_cost(lenet, rows=40, cols=10,
                                       gate_family=gate)
             for gate in ("imply", "magic")}

    rows = []
    for gate, layer_costs in costs.items():
        energy = sum(c.energy_nj for c in layer_costs)
        latency = sum(c.latency_us for c in layer_costs)
        steps = sum(c.driver_steps for c in layer_costs)
        rows.append((gate, steps, round(energy, 2), round(latency, 2)))
    print("\n=== LIM execution cost per image (binary LeNet, 40x10) ===")
    print(markdown_table(
        ["gate family", "driver steps", "energy nJ", "latency us"], rows))
    per_layer = [(c.layer, c.xnor_ops, c.driver_steps, c.energy_nj,
                  c.latency_us) for c in costs["imply"]]
    print("\nper-layer breakdown (IMPLY):")
    print(markdown_table(
        ["layer", "XNOR ops", "driver steps", "energy nJ", "latency us"],
        per_layer))
    write_csv(results_dir / "gate_energy.csv",
              ["gate", "driver_steps", "energy_nj", "latency_us"], rows)

    by_gate = {gate: {"steps": steps, "energy": energy, "latency": latency}
               for gate, steps, energy, latency in rows}
    assert by_gate["imply"]["latency"] > by_gate["magic"]["latency"]
    assert by_gate["imply"]["steps"] == by_gate["magic"]["steps"] / 3 * 11
