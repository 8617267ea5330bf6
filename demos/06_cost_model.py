"""The cost case for local storage, in two forms.

First the bare arithmetic: one instance-hour at $0.24 plus $0.10 per
million operations on a standard networked volume makes local storage
29% cheaper for an hour-long run doing a million I/Os. Then the same
figure reproduced end to end from a simulated workload whose networked
flows imply exactly one million 64 KB operations.
"""

from pathlib import Path

from storagesim.cost import PriceTable, compute_cost, savings
from storagesim.scenario import compare, load_scenario, render_comparison_table

prices = PriceTable()  # $0.24/h m1.large, $0.10 per million ops on standard networked volumes
print("price table:", prices)

# The same hour of work: on local disks none of its million I/Os is a billed operation.
ephemeral = compute_cost(instance_hours=1.0, io_ops=0, prices=prices)
ebs = compute_cost(instance_hours=1.0, io_ops=1_000_000, prices=prices)
print(f"\nlocal (ephemeral):  ${ephemeral.total:.2f}  (instance only)")
print(f"networked volume:   ${ebs.total:.2f}  (${ebs.instance_cost:.2f} instance + ${ebs.storage_cost:.2f} for 1M ops)")
print(f"savings: {savings(ephemeral, ebs):.1%}")

scenario_path = Path(__file__).resolve().parent.parent / "scenarios" / "cost_reference.yaml"
print(f"\nreproducing that from a simulated run ({scenario_path.name}):")
report = compare(load_scenario(scenario_path), ["local", "networked"])
print(render_comparison_table(report))
net = report.runs["networked"]
print(f"\nthe networked run moved {net.network_mb:.0f} MB = {net.io_ops:,} x 64 KB operations")
