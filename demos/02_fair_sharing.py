"""Max-min fair bandwidth sharing by progressive filling, step by step.

All flows rise together; when a resource saturates, its flows freeze and
the rest keep rising. The second example is the classic asymmetric case:
a flow pinned by a narrow link releases capacity to its competitor.
"""

from storagesim.simengine import FlowRecord, Resource, Simulation, allocate_rates, verify_trace
from storagesim.volumes import ResourcePath


def running(fid, resources, size_mb=1000.0):
    """A flow that has started at t=0 and not finished, as the engine holds it."""
    return FlowRecord(fid, ResourcePath(resources, "write"), size_mb, None, {}, size_mb)


def show(title, flows, caps):
    rates = allocate_rates(flows, caps)
    print(f"{title}")
    for fid in sorted(rates):
        print(f"  {fid}: {rates[fid]:.1f} MB/s")


# five writers behind one 1 Gbps (125 MB/s) link, each with a fast disk
flows = [running(f"task{i}", ("link", f"disk{i}")) for i in range(5)]
caps = {"link": 125.0} | {f"disk{i}": 160.0 for i in range(5)}
show("five flows share a 125 MB/s link:", flows, caps)

# asymmetric paths: B is pinned at 30 by link2, so A gets the remaining 70
flows = [running("A", ("link1",)), running("B", ("link1", "link2"))]
show("\nA on link1(100); B on link1 and link2(30):", flows, {"link1": 100.0, "link2": 30.0})

# the event-driven run: piecewise-constant rates, exact completion times
print("\nevent-driven run, 500 MB and 1000 MB sharing a 100 MB/s link:")
sim = Simulation({"link": Resource("link", 100.0, 100.0)})
link = ResourcePath(("link",), "write")
sim.add_flow("short", link, 500.0)
sim.add_flow("long", link, 1000.0)
trace = sim.run()
started = {fid: time for time, kind, fid, _, _ in trace.events if kind == "flow_start"}  # a flow's start is in the trace
for rec in trace.flows.values():
    print(f"  {rec.flow_id}: [{started[rec.flow_id]}, {rec.end_time}] s")
print(f"  trace audit: {verify_trace(trace) or 'clean'}")
print("  (short finishes at 10 s; long then takes the whole link and ends at 15 s)")
