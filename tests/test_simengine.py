import gc
import math
import random
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
import yaml

from helpers import FlowSpec, TraceEvent, arrive, run, start_time
from oracles import bottleneck_violations, csv_lines_reference, maxmin_fill_oracle, verify_trace_reference
from storagesim import cli, simengine
from storagesim.cli import main
from storagesim.errors import SimulationStalledError, UnknownResourceError
from storagesim.simengine import (
    COMPLETION_EPS,
    FlowRecord,
    Resource,
    SimTrace,
    Simulation,
    allocate_rates,
    build_resources,
    verify_trace,
)
from storagesim.snapshot import SnapshotRecord, merge_snapshot_events
from storagesim.topology import reference_cluster
from storagesim.volumes import ResourcePath


def flow(fid, resources, size=1000.0, direction="write"):
    """A running flow's record, as ``allocate_rates`` takes it."""
    return FlowRecord(fid, ResourcePath(tuple(resources), direction), size, None, {}, size)


def res(rid, cap):
    return Resource(rid, read_capacity=cap, write_capacity=cap)


def test_single_flow_takes_full_capacity():
    rates = allocate_rates([flow("f1", ["d1"])], {"d1": 100.0})
    assert rates == {"f1": 100.0}


def test_symmetric_flows_split_the_bottleneck_link():
    # five flows share a 125 MB/s link, each also crossing its own 160 MB/s disk
    flows = [flow(f"f{i}", ["link", f"d{i}"]) for i in range(5)]
    caps = {"link": 125.0} | {f"d{i}": 160.0 for i in range(5)}
    rates = allocate_rates(flows, caps)
    assert all(r == 25.0 for r in rates.values())


def test_two_link_example_matches_progressive_filling():
    # A crosses link1 only; B crosses link1 and the narrow link2
    flows = [flow("A", ["link1"]), flow("B", ["link1", "link2"])]
    rates = allocate_rates(flows, {"link1": 100.0, "link2": 30.0})
    assert rates["B"] == pytest.approx(30.0, abs=1e-12)
    assert rates["A"] == pytest.approx(70.0, abs=1e-12)


def test_unknown_resource_is_an_error():
    with pytest.raises(UnknownResourceError):
        allocate_rates([flow("f1", ["ghost"])], {"d1": 100.0})


def test_a_capacity_list_refuses_a_record_no_simulation_indexed():
    # a hand-built record has no hops: given a list, it would be rated as crossing nothing, at 0.0
    indexed = flow("f0", ["d1"])
    allocate_rates([indexed], {"d1": 100.0})  # the mapping form writes its hops
    assert indexed.hops == (0,)
    records = [indexed, flow("f1", ["d1"])]
    with pytest.raises(UnknownResourceError, match="flow f1 has no resource index"):
        allocate_rates(records, [100.0])
    assert [r.rate for r in records] == [100.0, 0.0]  # refused before any record was rated
    assert allocate_rates(records, {"d1": 100.0}) == {"f0": 50.0, "f1": 50.0}


def test_allocation_matches_oracle_on_random_small_instances():
    rng = random.Random(11)
    for trial in range(200):
        n_res = rng.randint(1, 4)
        n_flows = rng.randint(1, 5)
        caps = {f"r{i}": rng.choice([10.0, 25.0, 50.0, 100.0, 125.0]) for i in range(n_res)}
        paths = {}
        for j in range(n_flows):
            k = rng.randint(1, n_res)
            paths[f"f{j}"] = tuple(rng.sample(sorted(caps), k))
        flows = [flow(fid, list(p)) for fid, p in paths.items()]
        got = allocate_rates(flows, caps)
        want = maxmin_fill_oracle(paths, caps)
        for fid in paths:
            assert got[fid] == pytest.approx(want[fid], abs=1e-9), (trial, paths, caps)
        assert bottleneck_violations(paths, caps, got) == []


def test_allocation_is_exactly_independent_of_input_order():
    # levels like 100/3 make float sums order-sensitive; duplicate hops,
    # equal capacities (level ties) and a zero-capacity resource included
    rng = random.Random(29)
    for trial in range(200):
        n_res = rng.randint(2, 6)
        caps = {f"r{i}": rng.choice([0.1, 10.0, 33.3, 100.0 / 3, 100.0, 125.0]) for i in range(n_res)}
        caps[f"r{rng.randrange(n_res)}"] = 0.0
        flows = []
        for j in rng.sample(range(100), rng.randint(1, 12)):
            hops = [rng.choice(sorted(caps)) for _ in range(rng.randint(1, 4))]
            flows.append(flow(f"f{j}", hops))
        want = allocate_rates(flows, caps)
        for _ in range(5):
            shuffled_flows = rng.sample(flows, len(flows))
            shuffled_caps = dict(rng.sample(sorted(caps.items()), len(caps)))
            got = allocate_rates(shuffled_flows, shuffled_caps)
            assert got == want, (trial, [f.path.resources for f in flows], caps)


def _generator_resum_rates(flows, capacities):
    """Reference solver: the same progressive filling, each frozen usage re-summed
    by a generator over the resource's members in flow-id order, skipping live ones."""
    flow_list = sorted(flows, key=lambda f: f.flow_id)
    members: dict[str, list[str]] = {}  # flow ids in flow-id order
    hops: dict[str, tuple[str, ...]] = {}
    for f in flow_list:
        for rid in f.path.resources:
            if rid not in capacities:
                raise UnknownResourceError(f"flow {f.flow_id} crosses unknown resource {rid!r}")
        hops[f.flow_id] = tuple(dict.fromkeys(f.path.resources))  # duplicate hops share one reservation
        for rid in hops[f.flow_id]:
            members.setdefault(rid, []).append(f.flow_id)

    rates = {f.flow_id: 0.0 for f in flow_list}
    unfrozen = set(rates)
    n_live = {rid: len(fids) for rid, fids in members.items()}
    saturation = {rid: capacities[rid] / len(fids) for rid, fids in members.items()}
    level = 0.0
    while saturation:
        level = max(level, min(saturation.values()))
        newly_frozen = set()
        for rid, lvl in saturation.items():
            if lvl <= level:
                newly_frozen.update(members[rid])
        newly_frozen &= unfrozen
        unfrozen -= newly_frozen
        touched = set()
        for fid in newly_frozen:
            rates[fid] = level
            for rid in hops[fid]:
                n_live[rid] -= 1
            touched.update(hops[fid])
        for rid in touched:
            if not n_live[rid]:
                del saturation[rid]
                continue
            frozen_usage = sum(rates[fid] for fid in members[rid] if fid not in unfrozen)
            saturation[rid] = (capacities[rid] - frozen_usage) / n_live[rid]
    return rates


def test_allocation_equals_the_generator_resum_exactly():
    # levels like 100/3 make the frozen-usage sums inexact, so any change of
    # summation order or method shows; level ties, duplicate hops, a
    # zero-capacity resource and capacity entries no flow crosses included
    rng = random.Random(47)
    multi_round = 0
    for trial in range(300):
        n_res = rng.randint(2, 8)
        caps = {f"r{i}": rng.choice([0.1, 10.0, 33.3, 100.0 / 3, 100.0, 125.0, 1000.0 / 7]) for i in range(n_res)}
        caps[f"r{rng.randrange(n_res)}"] = 0.0
        flows = []
        for j in rng.sample(range(200), rng.randint(1, 30)):
            hops = [rng.choice(sorted(caps)) for _ in range(rng.randint(1, 5))]
            flows.append(flow(f"f{j}", hops))
        got = allocate_rates(flows, caps)
        want = _generator_resum_rates(flows, caps)
        assert got == want, (trial, [f.path.resources for f in flows], caps)
        assert list(got) == list(want)  # flow-id order, which the engine relies on
        multi_round += len(set(want.values())) > 2
    assert multi_round > 150  # most instances freeze flows at several distinct levels


def test_a_stale_resource_that_ties_the_level_freezes_in_that_round():
    # Round 1 freezes y at 33.33333333333333 on "s" and leaves "stale" re-summing to
    # 33.333333333333336, the same float as the fresh resource's level in round 2.
    # Both freeze there; deferring "stale" to round 3 would re-sum it after x froze
    # and give z 33.33333333333334.
    low, high = 33.33333333333333, 100.0 / 3  # adjacent floats
    assert low == math.nextafter(high, 0.0)
    assert (100.0 - low) / 2 == high
    for fresh, stale in (("a", "b"), ("b", "a")):  # the stale entry within reach, or at the top
        caps = {"s": low, stale: 100.0, fresh: 100.0}
        flows = [
            flow("p", [fresh]),
            flow("q", [fresh]),
            flow("x", [fresh, stale]),
            flow("y", ["s", stale]),
            flow("z", [stale]),
        ]
        want = {"p": high, "q": high, "x": high, "y": low, "z": high}
        assert _generator_resum_rates(flows, caps) == want
        assert allocate_rates(flows, caps) == want


def test_a_re_sum_below_its_old_entry_still_sets_the_round():
    # Freezing y one or two ulps below resource b's saturation re-sums b an ulp *lower*
    # (a float corner of the drift `_fill` bounds by its slack). Then:
    k = 90.0 / 7
    low = math.nextafter(k, 0.0)
    assert (90.0 - low) / 6 == low < k
    # b's old entry ties the fresh resource a at k, and its re-sum lowers round 2's level to `low`.
    caps = {"s": low, "b": 90.0, "a": k}
    flows = [flow("w", ["a"]), flow("y", ["s", "b"])] + [flow(f"z{i}", ["b"]) for i in range(6)]
    want = dict.fromkeys(["w"], k) | dict.fromkeys(["y"] + [f"z{i}" for i in range(6)], low)
    assert _generator_resum_rates(flows, caps) == want
    assert allocate_rates(flows, caps) == want

    # b's old entry lies above round 2's level, yet its re-sum equals that level: the slack
    # must reach it, or x freezes alone and the z flows get another float one round later.
    k = 0.3 / 7
    low = math.nextafter(math.nextafter(k, 0.0), 0.0)
    mid = (0.3 - low) / 6
    assert low < mid < k
    caps = {"s": low, "b": 0.3, "a": mid}
    flows = [flow("x", ["a", "b"]), flow("y", ["s", "b"])] + [flow(f"z{i}", ["b"]) for i in range(5)]
    want = {"x": mid, "y": low} | {f"z{i}": mid for i in range(5)}
    assert _generator_resum_rates(flows, caps) == want
    assert allocate_rates(flows, caps) == want


def test_a_warm_fill_from_a_kept_level_equals_the_generator_resum():
    # Keep every record the full solve froze below a cut, at its rate, and re-fill the
    # rest upward from the highest kept rate: the same rounds give the same floats.
    def check(flows, caps):
        want = _generator_resum_rates(flows, caps)
        index = {rid: i for i, rid in enumerate(caps)}  # the resources, indexed in the mapping's order
        capacities = list(caps.values())
        for f in flows:
            f.hops = tuple(index[rid] for rid in f.path.resources)
        for cut in sorted(set(want.values()))[1:]:
            crossing: list[list[FlowRecord]] = [[] for _ in capacities]
            live = []
            for f in sorted(flows, key=lambda f: f.flow_id):
                kept = want[f.flow_id] < cut
                f.rate = want[f.flow_id] if kept else 7.5  # a live record's old rate, which the fill discards
                for i in f.hops:
                    crossing[i].append(f)
                if not kept:
                    live.append(f)
            kept_rates = {f.flow_id: f.rate for f in flows if f not in live}
            level = max(r for r in want.values() if r < cut)
            assert level > 0.0
            assert simengine._fill(crossing, live, level, capacities) is None
            assert all(f.rate is kept_rates[f.flow_id] for f in flows if f not in live)
            assert {f.flow_id: f.rate for f in live} == {f.flow_id: want[f.flow_id] for f in live}, (
                cut,
                [f.path.resources for f in flows],
                caps,
            )
        return len(want) > 1

    # by hand: three levels, 10 on "a", 20 on "b" and 45 on "c"
    assert check(
        [flow("f1", ["a"]), flow("f2", ["a", "b"]), flow("f3", ["b", "c"]), flow("f4", ["c"]), flow("f5", ["b"])],
        {"a": 20.0, "b": 50.0, "c": 75.0},
    )
    rng = random.Random(11)
    checked = 0
    for _ in range(150):
        levels = [10.0, 33.3, 100.0 / 3, 100.0, 125.0, 1000.0 / 7]
        caps = {f"r{i}": rng.choice(levels) for i in range(rng.randint(2, 6))}
        flows = [
            flow(f"f{j:02d}", [rng.choice(sorted(caps)) for _ in range(rng.randint(1, 4))])
            for j in range(rng.randint(2, 20))
        ]
        checked += check(flows, caps)
    assert checked > 100


def test_a_cold_solve_whose_last_round_freezes_every_flow_equals_the_oracle():
    instances = [
        # one round: five flows share a 125 MB/s link, each also crossing its own 160 MB/s disk
        ({f"f{i}": ("link", f"d{i}") for i in range(5)}, {"link": 125.0} | {f"d{i}": 160.0 for i in range(5)}),
        # two rounds: B and C freeze at 15 on link2, then A and D together at 42.5 on link1
        ({"A": ("link1",), "B": ("link1", "link2"), "C": ("link2",), "D": ("link1",)}, {"link1": 100.0, "link2": 30.0}),
    ]
    for paths, caps in instances:
        want = maxmin_fill_oracle(paths, caps)
        records = [flow(f, p) for f, p in paths.items()]
        assert allocate_rates(records, caps) == want
        # the last round, which freezes every flow still live, writes its level into the records too
        assert {f.flow_id: f.rate for f in records} == want
    assert set(want.values()) == {15.0, 42.5}


def _count_directions_calls(monkeypatch):
    """Count ``simengine._directions`` calls, and those the engine makes: inside ``Simulation.run`` but not the audit."""
    calls, in_run, in_audit = [], [], []
    real_directions, real_run, real_audit = simengine._directions, Simulation.run, cli.verify_trace

    def counting(paths):
        calls.append(bool(in_run) and not in_audit)
        return real_directions(paths)

    def audit(*args):
        in_audit.append(1)
        try:
            return real_audit(*args)
        finally:
            in_audit.pop()

    def run(sim, on_complete=None):
        in_run.append(1)
        try:
            return real_run(sim, on_complete)
        finally:
            in_run.pop()

    monkeypatch.setattr(simengine, "_directions", counting)
    monkeypatch.setattr(Simulation, "run", run)
    monkeypatch.setattr(cli, "verify_trace", audit)
    return calls


def _reference_doc():
    return yaml.safe_load((Path(__file__).resolve().parent.parent / "scenarios" / "reference.yaml").read_text())


def _run_scenario(tmp_path, doc):
    tmp_path.mkdir()
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0


def test_directions_are_gathered_only_for_asymmetric_resources(monkeypatch, tmp_path):
    calls = _count_directions_calls(monkeypatch)
    doc = _reference_doc()
    assert doc["storage_config"] == "local"
    # every link and disk reads as fast as it writes: no capacity depends on direction
    _run_scenario(tmp_path / "symmetric", doc)
    assert len(calls) == 0
    doc["topology"]["reference"].update(disk_read_bw=150, disk_write_bw=80)
    doc["dfsio"].update(n_files=4, mode="mixed", read_fraction=0.5)
    _run_scenario(tmp_path / "asymmetric", doc)
    assert len(calls) > 0
    # the engine keeps pooled capacities from direction counts; only the audit gathers directions
    assert not any(calls)


def test_an_asymmetric_scenario_takes_one_full_solve_per_pass(monkeypatch):
    from storagesim.scenario import parse_scenario, run_scenario

    # the local_mixed_snapshots shape, shrunk: queued tasks and snapshots keep flows active
    # throughout the run's one pass, so only its first solve has nothing to keep
    doc = _reference_doc()
    doc["topology"]["reference"].update(disk_read_bw=150, disk_write_bw=100)
    doc["dfsio"].update(n_files=20, file_size_mb=256, mode="mixed", map_capacity=6)
    doc["snapshot"]["interval_s"] = 10
    passes: list[list[str]] = []  # per Simulation.run: "cold" or "warm" for each solve
    real_run, real_resolve, real_allocate = Simulation.run, Simulation._resolve, simengine.allocate_rates
    monkeypatch.setattr(simengine, "allocate_rates", lambda *a: passes[-1].append("cold") or real_allocate(*a))
    monkeypatch.setattr(Simulation, "_resolve", lambda sim, *a: passes[-1].append("warm") or real_resolve(sim, *a))
    monkeypatch.setattr(Simulation, "run", lambda sim, **kw: passes.append([]) or real_run(sim, **kw))
    run = run_scenario(parse_scenario(doc))

    assert {rec.path.direction for rec in run.trace.flows.values()} == {"read", "write"}
    (solves,) = passes  # the mixed run's input files are placed, not written by a simulated pass
    assert solves.count("cold") <= 1, solves
    assert solves.count("warm") > 50


def test_adding_a_flow_to_the_shared_bottleneck_never_raises_other_rates():
    # star instances: every flow crosses one shared resource plus its own
    # private one; joining the shared pool can only slow the others down.
    # (In general multi-resource topologies max-min is NOT pointwise
    # monotone: a newcomer can slow a competitor elsewhere and thereby
    # free a bottleneck.)
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 5)
        caps = {"shared": rng.choice([50.0, 100.0, 125.0])}
        paths = {}
        for j in range(n):
            caps[f"p{j}"] = rng.choice([15.0, 40.0, 200.0])
            paths[f"f{j}"] = ("shared", f"p{j}")
        base = allocate_rates([flow(f, list(p)) for f, p in paths.items()], caps)
        caps["px"] = rng.choice([15.0, 40.0, 200.0])
        paths_plus = paths | {"extra": ("shared", "px")}
        bigger = allocate_rates([flow(f, list(p)) for f, p in paths_plus.items()], caps)
        for fid in paths:
            assert bigger[fid] <= base[fid] + 1e-9


def test_run_single_flow_completion_time():
    trace = run({"d1": res("d1", 100.0)}, [(FlowSpec("f1", ResourcePath(("d1",), "write"), 1000.0), 0.0)])
    rec = trace.flows["f1"]
    assert rec.end_time == 10.0
    assert verify_trace(trace) == []


def test_run_independent_disks_finish_together():
    resources = {f"d{i}": res(f"d{i}", 100.0) for i in range(5)}
    workload = [(FlowSpec(f"f{i}", ResourcePath((f"d{i}",), "write"), 1000.0), 0.0) for i in range(5)]
    trace = run(resources, workload)
    assert all(trace.flows[f"f{i}"].end_time == 10.0 for i in range(5))


def test_run_shared_link_fair_share_completion():
    resources = {"link": res("link", 125.0)}
    workload = [(FlowSpec(f"f{i}", ResourcePath(("link",), "write"), 1000.0), 0.0) for i in range(5)]
    trace = run(resources, workload)
    assert all(trace.flows[f"f{i}"].end_time == 40.0 for i in range(5))
    assert verify_trace(trace) == []


def test_rates_rise_when_a_flow_departs():
    # one flow is half the size: after it finishes the other takes the full link
    resources = {"link": res("link", 100.0)}
    trace = run(
        resources,
        [
            (FlowSpec("short", ResourcePath(("link",), "write"), 500.0), 0.0),
            (FlowSpec("long", ResourcePath(("link",), "write"), 1000.0), 0.0),
        ],
    )
    assert trace.flows["short"].end_time == 10.0  # 500 at 50 MB/s
    assert trace.flows["long"].end_time == 15.0  # 500 left, now at 100 MB/s
    assert verify_trace(trace) == []


def test_arrivals_mid_flight_reallocate():
    resources = {"link": res("link", 100.0)}
    trace = run(
        resources,
        [
            (FlowSpec("first", ResourcePath(("link",), "write"), 1000.0), 0.0),
            (FlowSpec("late", ResourcePath(("link",), "write"), 500.0), 5.0),
        ],
    )
    # first: 5 s alone (500 MB) + 10 s shared (500 MB at 50)
    assert trace.flows["first"].end_time == 15.0
    assert trace.flows["late"].end_time == 15.0
    assert verify_trace(trace) == []


def test_mixed_directions_share_the_smaller_disk_pool():
    disk = Resource("d1", read_capacity=200.0, write_capacity=100.0)
    trace = run(
        {"d1": disk},
        [
            (FlowSpec("r", ResourcePath(("d1",), "read"), 100.0), 0.0),
            (FlowSpec("w", ResourcePath(("d1",), "write"), 100.0), 0.0),
        ],
    )
    # mixed pool is min(200, 100) = 100, split 50/50
    assert trace.flows["r"].end_time == 2.0
    assert verify_trace(trace) == []


def test_on_complete_hook_can_inject_flows():
    resources = {"d1": res("d1", 100.0)}

    def chain(sim, records, now):
        if records[0].flow_id == "first":
            sim.add_flow("second", ResourcePath(("d1",), "write"), 500.0)

    trace = run(resources, [(FlowSpec("first", ResourcePath(("d1",), "write"), 1000.0), 0.0)], chain)
    assert start_time(trace, "second") == 10.0
    assert trace.flows["second"].end_time == 15.0


def test_timers_fire_after_completions_and_the_hook_and_start_their_flows_at_once():
    sim = Simulation({"d1": res("d1", 100.0)})
    sim.add_flow("a", ResourcePath(("d1",), "write"), 1000.0)
    seen = []

    def look(sim, now):
        seen.append((now, sim.idle, {rec.flow_id: rec.size_mb - rec.remaining_mb for rec in sim.started(0)}))

    def chain(sim, records, now):
        if records[0].flow_id == "a":
            sim.add_flow("b", ResourcePath(("d1",), "write"), 500.0)

    def at_ten(sim, now):
        look(sim, now)
        sim.add_flow("c", ResourcePath(("d1",), "write"), 500.0)
        sim.add_timer(15.0, look)

    sim.add_timer(10.0, at_ten)  # the instant "a" completes
    sim.add_timer(30.0, look)  # after the last flow
    trace = sim.run(on_complete=chain)
    assert seen == [
        (10.0, False, {"a": 1000.0, "b": 0.0}),
        (15.0, False, {"a": 1000.0, "b": 250.0, "c": 250.0}),
        (30.0, True, {"a": 1000.0, "b": 500.0, "c": 500.0}),
    ]
    assert start_time(trace, "c") == 10.0
    assert trace.flows["b"].end_time == trace.flows["c"].end_time == 20.0
    assert [rec.flow_id for rec in sim.started(1)] == ["b", "c"] and sim.started(3) == []  # those after the first 1, 3
    assert verify_trace(trace) == []
    with pytest.raises(ValueError):
        sim.add_timer(1.0, look)


def test_a_flow_added_in_a_hook_is_started_and_in_the_trace_at_once():
    sim = Simulation({"d1": res("d1", 100.0)})
    trace = sim._trace
    sim.add_flow("a", ResourcePath(("d1",), "write"), 100.0)
    assert trace.events == [(0.0, "flow_start", "a", "", 100.0)] and start_time(trace, "a") == 0.0
    seen = []

    def hook(sim, records, now):
        if records[0].flow_id == "a":
            sim.add_flow("b", ResourcePath(("d1",), "write"), 50.0)
            rec = trace.flows["b"]
            seen.append((trace.events[-1], start_time(trace, "b") == sim.now == now, sim.started(1) == [rec], sim.idle))

    assert sim.run(on_complete=hook) is trace
    assert seen == [((1.0, "flow_start", "b", "", 50.0), True, True, False)]
    assert trace.flows["b"].end_time == 1.5 and verify_trace(trace) == []


def test_one_instant_logs_ends_then_hook_flows_then_timer_flows_then_one_batch_of_rates():
    disk = ResourcePath(("d1",), "write")
    sim = Simulation({"d1": res("d1", 100.0)})
    sim.add_flow("y", disk, 250.0)
    sim.add_flow("x", disk, 250.0)  # both end at 5.0

    def adding(*fids, then=None):
        def callback(sim, now):
            for fid in fids:
                sim.add_flow(fid, disk, 100.0)
            if then is not None:
                sim.add_timer(now, then)

        return callback

    def hook(sim, records, now):
        if [rec.flow_id for rec in records] == ["x", "y"]:
            for fid in ("h2", "h1"):
                sim.add_flow(fid, disk, 100.0)
            sim.add_timer(now, adding("td"))

    sim.add_timer(5.0, adding("tb"))
    sim.add_timer(5.0, adding("ta1", "ta0", then=adding("tc")))
    trace = sim.run(on_complete=hook)
    at_five = [(kind, fid) for t, kind, fid, _, _ in trace.events if t == 5.0]
    assert at_five == (
        [("flow_end", "x"), ("flow_end", "y")]  # in flow-id order
        + [("flow_start", fid) for fid in ("h2", "h1")]  # the hook's, in add order
        + [("flow_start", fid) for fid in ("tb", "ta1", "ta0", "td", "tc")]  # the due timers', in (time, add) order
        + [("rate_change", fid) for fid in ("h1", "h2", "ta0", "ta1", "tb", "tc", "td")]  # one solve, flow-id order
    )
    assert verify_trace(trace) == []


def test_flows_added_at_zero_before_run_start_and_keep_the_simulation_busy():
    sim = Simulation({"d1": res("d1", 100.0)})
    assert sim.idle
    sim.add_flow("a", ResourcePath(("d1",), "write"), 100.0)
    assert not sim.idle  # the flow is active from its add on
    seen = []

    def add_at_now(sim, now):
        sim.add_flow("b", ResourcePath(("d1",), "write"), 100.0)
        seen.append(sim.idle)

    sim.add_timer(2.0, add_at_now)  # after "a" ended: nothing is active
    trace = sim.run()
    assert seen == [False]
    assert (start_time(trace, "a"), trace.flows["a"].end_time) == (0.0, 1.0)
    assert (start_time(trace, "b"), trace.flows["b"].end_time) == (2.0, 3.0)
    assert sim.idle


def test_a_resource_added_mid_run_is_picked_up():
    # a capped snapshot adds its cap resource at each take, on a new path
    sim = Simulation({"d1": res("d1", 100.0)})
    sim.add_flow("w", ResourcePath(("d1",), "write"), 1000.0)

    def take(sim, now):
        cap_id = f"cap:{now}"
        sim.resources[cap_id] = res(cap_id, 10.0)
        sim.add_flow(f"snap@{now}", ResourcePath((cap_id, "d1"), "write"), 50.0)

    for t in (1.0, 2.0):
        sim.add_timer(t, take)
    trace = sim.run()
    for t in (1.0, 2.0):
        rec = trace.flows[f"snap@{t}"]
        assert f"cap:{t}" in trace.resources
        assert rec.end_time - start_time(trace, rec.flow_id) == pytest.approx(5.0)  # 50 MB at the 10 MB/s cap
    assert verify_trace(trace) == []


def test_every_engine_event_and_snapshot_marker_is_an_untracked_plain_tuple():
    sim = Simulation({"d1": res("d1", 100.0), "d2": res("d2", 50.0)})
    sim.add_flow("a", ResourcePath(("d1",), "write"), 1000.0)
    # "empty" starts and ends at once
    arrive(sim, ("empty", ResourcePath(("d2",), "write"), 0.0), 1.0)
    arrive(sim, ("b", ResourcePath(("d1", "d2"), "read"), 300.0), 2.0)
    sim.add_timer(3.0, lambda sim, now: merge_snapshot_events(sim, [SnapshotRecord("v1", now, 12.5)]))
    trace = sim.run()
    assert ("snapshot", "snap.v1", "v1", 12.5) in [e[1:] for e in trace.events if e[0] == 3.0]
    empty = [(t, kind) for t, kind, fid, _, _ in trace.events if fid == "empty"]
    assert empty[0] == (1.0, "flow_start") and empty[-1] == (1.0, "flow_end")
    assert {kind for _, kind, _, _, _ in trace.events} == {"flow_start", "rate_change", "flow_end", "snapshot"}
    assert list(trace.csv_lines())[0] == "time,event_kind,flow_id,resource_id,value"
    gc.collect()
    for e in trace.events:
        assert type(e) is tuple
        assert [type(field) for field in e] == [float, str, str, str, float]  # the trace.csv columns
        assert e == TraceEvent(*e)
        assert not gc.is_tracked(e)  # a tuple of atomic fields leaves the collector at its first pass


def test_determinism_byte_identical_traces():
    topo = reference_cluster()
    resources = build_resources(topo)
    workload = [
        (FlowSpec(f"f{i}", ResourcePath(("link:mgmt-h01", "link:mgmt-controller", "disk:controller:disk1"), "write"), 700.0), float(i))
        for i in range(4)
    ]
    a = list(run(resources, list(workload)).csv_lines())
    b = list(run(resources, list(workload)).csv_lines())
    assert a == b


def test_work_conservation_some_resource_saturated():
    rng = random.Random(5)
    caps = {f"r{i}": rng.choice([50.0, 100.0]) for i in range(3)}
    paths = {f"f{j}": tuple(rng.sample(sorted(caps), rng.randint(1, 3))) for j in range(4)}
    rates = allocate_rates([flow(f, list(p)) for f, p in paths.items()], caps)
    usage = {r: sum(rates[f] for f, p in paths.items() if r in p) for r in caps}
    assert any(abs(usage[r] - caps[r]) <= 1e-9 * caps[r] for r in caps)


def test_add_flow_rejects_before_it_builds_and_its_record_is_the_trace_entry(monkeypatch):
    built = []

    class Recorded(FlowRecord):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(simengine, "FlowRecord", Recorded)
    sim = Simulation({"d1": res("d1", 100.0)})
    trace = sim._trace
    path, ghost = ResourcePath(("d1",), "write"), ResourcePath(("d1", "ghost"), "write")
    sim.add_flow("a", path, 100.0)
    rejected = [  # (id, path, size, tags): each fails the first of add_flow's checks, in their order
        ("a", ghost, math.nan, 0.0, ValueError, "flow a has size nan MB"),
        ("a", ghost, math.inf, 0.0, ValueError, "flow a has size inf MB"),
        ("a", ghost, -1.0, 0.0, ValueError, "flow a has size -1.0 MB"),
        ("a", ghost, 1.0, 0.0, ValueError, "duplicate flow id 'a'"),  # active, or ended at 1.0
        ("f", ghost, 1.0, 0.0, TypeError, "flow f has tags of type float, not a mapping"),
        ("f", ghost, 1.0, [("stage", "read")], TypeError, "flow f has tags of type list, not a mapping"),
        ("f", ghost, 1.0, {"stage": "read"}, UnknownResourceError, "flow f crosses unknown resource 'ghost'"),
    ]
    checked = []

    def reject_each(sim, now):
        before = (dict(trace.flows), list(trace.events), sim.idle)
        for fid, fpath, size, tags, error, message in rejected:
            with pytest.raises(error, match=f"^{message}$"):
                sim.add_flow(fid, fpath, size, tags)
            assert (dict(trace.flows), list(trace.events), sim.idle) == before  # a rejected flow leaves no trace
        checked.append((now, sim.idle))

    reject_each(sim, sim.now)  # "a" is active and not yet rated
    sim.add_timer(0.5, reject_each)  # "a" runs at its rate
    sim.add_timer(2.0, reject_each)  # "a" has ended, and only the 5.0 timer is pending
    sim.add_timer(5.0, lambda sim, now: sim.add_flow("late", path, 100.0))
    assert sim.run() is trace
    reject_each(sim, sim.now)  # nothing is active or pending
    assert checked == [(0.0, False), (0.5, False), (2.0, False), (6.0, True)]
    assert [rec.flow_id for rec in built] == ["a", "late"]  # a rejected flow builds nothing
    assert list(trace.flows) == ["a", "late"] and start_time(trace, "late") == 5.0
    assert all(trace.flows[rec.flow_id] is rec for rec in built)  # the object add_flow built
    with pytest.raises(ValueError, match="^duplicate flow id 'late'$"):
        sim.add_flow("late", path, 1.0)  # finished
    sim.add_flow("f", path, 100.0)  # no rejected "f" was left behind
    assert sim.run().flows["f"].end_time == 7.0


def test_unresolvable_path_rejected_at_add():
    sim = Simulation({"d1": res("d1", 10.0)})
    path = ResourcePath(("d1", "ghost"), "read")
    for fid in ("f", "g"):  # a path that failed its check is checked again
        with pytest.raises(UnknownResourceError, match="ghost"):
            sim.add_flow(fid, path, 1.0)
    assert sim.idle


def test_zero_capacity_stalls_cleanly():
    for timer in (False, True):  # a pending timer cannot unstick a stalled flow
        sim = Simulation({"d1": res("d1", 0.0)})
        sim.add_flow("f", ResourcePath(("d1",), "read"), 10.0)
        if timer:
            sim.add_timer(5.0, lambda sim, now: None)
        with pytest.raises(SimulationStalledError):
            sim.run()


def test_verify_trace_flags_hand_built_overcapacity():
    from storagesim.simengine import FlowRecord

    resources = {"link": res("link", 100.0)}
    trace = SimTrace(resources=resources)
    path = ResourcePath(("link",), "write")
    trace.flows = {
        "a": FlowRecord("a", path, 600.0, 10.0, {}),
        "b": FlowRecord("b", path, 600.0, 10.0, {}),
    }
    trace.events = [
        TraceEvent(0.0, "flow_start", "a", "", 600.0),
        TraceEvent(0.0, "flow_start", "b", "", 600.0),
        TraceEvent(0.0, "rate_change", "a", "", 60.0),
        TraceEvent(0.0, "rate_change", "b", "", 60.0),  # 120 > 100: oversubscribed
        TraceEvent(10.0, "flow_end", "a", "", 600.0),
        TraceEvent(10.0, "flow_end", "b", "", 600.0),
    ]
    codes = {v.code for v in verify_trace(trace)}
    assert "capacity" in codes


def test_verify_trace_pools_mixed_directions_on_an_asymmetric_disk():
    # reads share 200 MB/s, writes 100 MB/s, and mixed traffic the smaller 100
    disk = Resource("d1", read_capacity=200.0, write_capacity=100.0)

    def violations(directions, rate):
        trace = SimTrace(resources={"d1": disk})
        fids = ("a", "b")
        for fid, direction in zip(fids, directions):
            trace.flows[fid] = FlowRecord(fid, ResourcePath(("d1",), direction), rate * 10.0, 10.0, {})
        trace.events = (
            [TraceEvent(0.0, "flow_start", fid, "", rate * 10.0) for fid in fids]
            + [TraceEvent(0.0, "rate_change", fid, "", rate) for fid in fids]
            + [TraceEvent(10.0, "flow_end", fid, "", rate * 10.0) for fid in fids]
        )
        return verify_trace(trace)

    flagged = violations(("read", "write"), 60.0)
    assert [v.code for v in flagged] == ["capacity"]
    assert "d1 carries 120.0 MB/s > capacity 100.0" in flagged[0].message
    assert violations(("read", "write"), 50.0) == []
    assert violations(("read", "read"), 90.0) == []


def test_verify_trace_flags_decreasing_timestamps():
    trace = SimTrace(resources={"d1": res("d1", 100.0)})
    from storagesim.simengine import FlowRecord

    path = ResourcePath(("d1",), "write")
    trace.flows = {"a": FlowRecord("a", path, 100.0, 1.0, {})}
    trace.events = [
        TraceEvent(5.0, "flow_start", "a", "", 100.0),
        TraceEvent(1.0, "rate_change", "a", "", 100.0),
        TraceEvent(2.0, "flow_end", "a", "", 100.0),
    ]
    codes = {v.code for v in verify_trace(trace)}
    assert "monotonicity" in codes


def test_verify_trace_flags_byte_shortfall():
    from storagesim.simengine import FlowRecord

    trace = SimTrace(resources={"d1": res("d1", 100.0)})
    path = ResourcePath(("d1",), "write")
    trace.flows = {"a": FlowRecord("a", path, 1000.0, 5.0, {})}
    trace.events = [
        TraceEvent(0.0, "flow_start", "a", "", 1000.0),
        TraceEvent(0.0, "rate_change", "a", "", 100.0),
        TraceEvent(5.0, "flow_end", "a", "", 1000.0),  # only 500 MB moved
    ]
    codes = {v.code for v in verify_trace(trace)}
    assert "byte-conservation" in codes


def test_csv_round_trip_format():
    trace = run({"d1": res("d1", 100.0)}, [(FlowSpec("f1", ResourcePath(("d1",), "write"), 100.0), 0.0)])
    lines = list(trace.csv_lines())
    assert lines[0] == "time,event_kind,flow_id,resource_id,value"
    kinds = [line.split(",")[1] for line in lines[1:]]
    assert kinds == ["flow_start", "rate_change", "flow_end"]


def test_csv_lines_equal_the_reference_byte_for_byte():
    zero, neg_zero = 0.0, -0.0
    t1, t1_copy = 1.5, float("1.5")  # equal floats, distinct objects
    nan = math.nan
    trace = SimTrace()
    trace.events = [
        TraceEvent(neg_zero, "flow_start", "a", "", 10.0),
        TraceEvent(zero, "flow_start", "b", "", 10.0),  # == the time before it, printed differently
        TraceEvent(zero, "rate_change", "a", "", nan),
        TraceEvent(zero, "rate_change", "b", "", -0.0),
        TraceEvent(t1, "rate_change", "a", "", 1e-300),
        TraceEvent(t1_copy, "flow_end", "b", "", 10.0),
        TraceEvent(t1_copy, "snapshot", "snap.v1", "v1", 2.5),
        TraceEvent(t1, "snapshot", "snap.v2", "v2", 1.0 / 3),
        TraceEvent(nan, "rate_change", "a", "", math.inf),
        TraceEvent(float("nan"), "rate_change", "a", "", -math.inf),
        TraceEvent(nan, "flow_end", "a", "", 10.0),
        TraceEvent(t1, "rate_change", "c", "", zero),  # values: -0.0 after 0.0, equal but distinct objects
        TraceEvent(t1, "rate_change", "d", "", neg_zero),
        TraceEvent(t1, "rate_change", "e", "", t1),
        TraceEvent(t1, "rate_change", "f", "", t1_copy),
        TraceEvent(t1, "rate_change", "g", "", 3),
    ]
    lines = list(trace.csv_lines())
    assert lines == csv_lines_reference(trace)
    assert [line.split(",")[0] for line in lines[1:4]] == ["-0.0", "0.0", "0.0"]
    assert [line.split(",")[-1] for line in lines[-5:-2]] == ["0.0", "-0.0", "1.5"]
    assert list(run({"d1": res("d1", 100.0)}, []).csv_lines()) == csv_lines_reference(SimTrace())


def test_write_csv_writes_the_joined_lines_at_every_chunk_size(tmp_path, monkeypatch):
    path = ResourcePath(("d1",), "write")
    trace = run({"d1": res("d1", 100.0)}, [(FlowSpec(f"f{i}", path, 10.0 * (i + 1)), float(i)) for i in range(4)])
    lines = csv_lines_reference(trace)
    want = ("\n".join(lines) + "\n").encode()
    for chunk in sorted({1, 2, 3, len(lines) - 1, len(lines), len(lines) + 1, simengine.CSV_CHUNK_LINES}):
        monkeypatch.setattr(simengine, "CSV_CHUNK_LINES", chunk)
        trace.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == want, chunk
        SimTrace().write_csv(tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_bytes() == b"time,event_kind,flow_id,resource_id,value\n"


def test_write_csv_peak_memory_does_not_grow_with_the_trace(tmp_path):
    # The writer streams chunks, so 16 chunks of events must not peak above 4 chunks by a chunk's text.
    chunk = simengine.CSV_CHUNK_LINES
    flow_ids = [f"f{i}" for i in range(97)]
    value = 12.5

    def trace_of(n_events):
        trace = SimTrace()
        trace.events = [(float(i), "rate_change", flow_ids[i % 97], "", value) for i in range(n_events)]
        return trace

    def writer_peak(trace):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace.write_csv(tmp_path / "trace.csv")
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    small, large = trace_of(4 * chunk), trace_of(16 * chunk)
    chunk_text = len("\n".join(islice(large.csv_lines(), chunk)))
    small_peak, large_peak = writer_peak(small), writer_peak(large)
    assert large_peak - small_peak < chunk_text, (small_peak, large_peak, chunk_text)


def _corrupted_traces(seed, n):
    """Seeded engine traces, each with one to three faults an audit must report exactly."""
    rng = random.Random(seed)
    for _ in range(n):
        resources = {}
        for i in range(rng.randint(1, 5)):
            cap = rng.choice([10.0, 100.0 / 3, 100.0, 125.0])
            write = cap / 2 if rng.random() < 0.3 else cap  # some disks read faster than they write
            resources[f"r{i}"] = Resource(f"r{i}", read_capacity=cap, write_capacity=write)
        workload = []
        for j in range(rng.randint(1, 8)):
            hops = tuple(rng.choice(sorted(resources)) for _ in range(rng.randint(1, 3)))
            path = ResourcePath(hops, rng.choice(["read", "write"]))
            size = rng.choice([50.0, 100.0, rng.uniform(1.0, 300.0)])
            workload.append((FlowSpec(f"f{j}", path, size), rng.choice([0.0, 2.0, rng.uniform(0.0, 5.0)])))
        trace = run(resources, workload)
        events = trace.events
        for _ in range(rng.randint(1, 3)):
            fault = rng.choice(
                ["drop", "duplicate", "reorder", "inflate", "nan", "unknown", "asymmetric", "marker", "stranger"]
            )
            i = rng.randrange(len(events))
            e = events[i]
            if fault == "drop":
                del events[i]
            elif fault == "duplicate":
                events.insert(i, e)
            elif fault == "reorder":
                events.insert(rng.randrange(len(events)), events.pop(i))
            elif fault == "inflate" and e[1] == "rate_change":
                events[i] = e[:4] + (e[4] * rng.choice([1.5, 1 + 1e-6, 3.0]),)  # the value
            elif fault == "nan":
                field = rng.choice([0, 4])  # the time or the value
                events[i] = e[:field] + (math.nan,) + e[field + 1 :]
            elif fault == "unknown" and trace.resources:
                del trace.resources[rng.choice(sorted(trace.resources))]
            elif fault == "asymmetric" and trace.resources:
                rid = rng.choice(sorted(trace.resources))
                cap = trace.resources[rid].read_capacity
                trace.resources[rid] = Resource(rid, read_capacity=cap * 2, write_capacity=cap / 2)
            elif fault == "marker":
                events.insert(i, TraceEvent(e[0], "snapshot", "snap.v", "v", 5.0))
            elif fault == "stranger":  # a flow the trace has no record of
                events.insert(i, TraceEvent(e[0], "flow_start", "ghost", "", 10.0))
            if not events:
                break
        yield trace


def test_verify_trace_equals_the_reference_on_corrupted_traces():
    def report(violations):
        return [(v.code, repr(v.time), v.message) for v in violations]

    codes = set()
    for trace in _corrupted_traces(2014, 200):
        want = report(verify_trace_reference(trace))
        assert report(verify_trace(trace)) == want
        assert list(trace.csv_lines()) == csv_lines_reference(trace)
        codes.update(code for code, _, _ in want)
    assert codes == {"monotonicity", "capacity", "byte-conservation", "unmatched-flow"}


def _windows(events, size):
    """``events`` cut into consecutive windows of ``size`` events, the last one possibly shorter or empty."""
    return [events[i : i + size] for i in range(0, len(events), size)] or [[]]


def _window_sizes(n):
    return sorted({1, 2, 3, max(1, n - 1), max(1, n), n + 1, simengine.CSV_CHUNK_LINES})


def test_write_csv_in_windows_equals_the_reference_at_every_window_size(tmp_path):
    path = ResourcePath(("d1",), "write")
    trace = run({"d1": res("d1", 100.0)}, [(FlowSpec(f"f{i}", path, 10.0 * (i + 1)), float(i)) for i in range(4)])
    trace.events += [  # values that only their own object's repr prints right
        TraceEvent(9.0, "rate_change", "a", "", -0.0),
        TraceEvent(9.0, "rate_change", "b", "", 0.0),
        TraceEvent(float("9.0"), "snapshot", "snap.v1", "v1", math.nan),
        TraceEvent(10.0, "rate_change", "c", "", 1e-300),
    ]
    events = trace.events
    want = ("\n".join(csv_lines_reference(trace)) + "\n").encode()
    for size in _window_sizes(len(events)):
        out = tmp_path / f"trace_{size}.csv"
        for i, window in enumerate(_windows(events, size)):
            SimTrace(events=window).write_csv(out, append=i > 0)
        assert out.read_bytes() == want, size
    SimTrace().write_csv(out)
    SimTrace().write_csv(out, append=True)
    assert out.read_bytes() == b"time,event_kind,flow_id,resource_id,value\n"


def test_verify_trace_in_windows_equals_the_reference_on_corrupted_traces():
    def report(violations):
        return [(v.code, repr(v.time), v.message) for v in violations]

    rng = random.Random(32)
    for trace in _corrupted_traces(2014, 200):
        want = report(verify_trace_reference(trace))
        n = len(trace.events)
        for size in _window_sizes(n) + [rng.randint(1, n + 1)]:
            state, got = simengine.AuditState(), []
            windows = _windows(trace.events, size)
            for i, window in enumerate(windows):
                piece = SimTrace(events=window, flows=trace.flows, resources=trace.resources)
                got += verify_trace(piece, state, i == len(windows) - 1)
            assert report(got) == want, size


def test_a_flow_started_again_after_its_end_is_a_new_flow_from_0_mb():
    # The audit keeps nothing for an ended flow, so a start of its id after its end begins a new flow: each
    # incarnation must move the flow's whole size itself. A repeated start while the flow runs changes nothing.
    flows = {"f": FlowRecord("f", ResourcePath(("d1",), "write"), 100.0, None, {})}
    resources = {"d1": res("d1", 100.0)}

    def trace(*events):
        return SimTrace(events=[TraceEvent(*e) for e in events], flows=flows, resources=resources)

    def audit(trace):
        """The violations of one whole-trace call, each equal to those of the windowed calls and the reference."""
        got = verify_trace(trace)
        assert got == verify_trace_reference(trace)
        for size in (1, 2, 3):
            state, windowed = simengine.AuditState(), []
            windows = _windows(trace.events, size)
            for i, window in enumerate(windows):
                windowed += verify_trace(SimTrace(window, flows, resources), state, i == len(windows) - 1)
            assert windowed == got, size
            assert not (state.cells or state.pending)
        return [(v.code, v.time, v.message) for v in got]

    def twice(second_rate):
        return trace(
            (0.0, "flow_start", "f", "", 100.0),
            (0.0, "rate_change", "f", "", 100.0),
            (1.0, "flow_end", "f", "", 100.0),
            (2.0, "flow_start", "f", "", 100.0),
            (2.0, "rate_change", "f", "", second_rate),
            (3.0, "flow_end", "f", "", 100.0),
        )

    state = simengine.AuditState()
    assert verify_trace(SimTrace(twice(100.0).events[:3], flows, resources), state, last=False) == []
    assert state.cells == {} and state.pending == {}  # nothing is kept for the ended flow
    assert audit(twice(100.0)) == []  # each incarnation moved 100 MB
    assert audit(twice(50.0)) == [("byte-conservation", 3.0, "flow f moved 50.0 MB of 100.0 MB")]  # its own total
    repeated = trace(
        (0.0, "flow_start", "f", "", 100.0),
        (0.0, "rate_change", "f", "", 100.0),
        (0.5, "flow_start", "f", "", 100.0),  # while it runs: same rate, and the 50 MB moved so far
        (1.0, "flow_end", "f", "", 100.0),
    )
    assert audit(repeated) == []


def test_a_simulation_with_readers_hands_its_trace_over_in_windows(monkeypatch):
    path = ResourcePath(("d1", "d2"), "write")
    resources = {"d1": res("d1", 100.0), "d2": res("d2", 30.0)}
    workload = [(FlowSpec(f"f{i:02d}", path, 5.0 + i), 0.5 * i) for i in range(40)]
    whole = run(resources, workload).events
    for size in (1, 2, 3, 17, len(whole) - 1, len(whole), len(whole) + 1):
        monkeypatch.setattr(simengine, "CSV_CHUNK_LINES", size)
        handed = []  # (window, last)
        sim = Simulation(resources, [lambda trace, last: handed.append((list(trace.events), last))])
        for spec, at_time in workload:
            arrive(sim, spec, at_time)
        assert sim.run().events == []
        assert [last for _, last in handed] == [False] * (len(handed) - 1) + [True]
        assert all(len(window) >= size for window, _ in handed[:-1])  # a window is handed over once it is full
        assert [e for window, _ in handed for e in window] == whole, size


def _tiny_and_mark(sim, now):
    """Mark the instant, then start a flow so small that it ends at once, in a zero-length step after this one."""
    sim.mark((now, "snapshot", "snap.v1", "v1", 12.5))
    sim.add_flow("tiny", ResourcePath(("d1",), "write"), COMPLETION_EPS)


def test_a_mark_follows_the_zero_length_steps_of_its_instant():
    sim = Simulation({"d1": res("d1", 100.0)})
    sim.add_flow("a", ResourcePath(("d1",), "write"), 1000.0)
    sim.add_timer(5.0, _tiny_and_mark)
    trace = sim.run()
    events = trace.events
    at_5 = [(kind, fid) for t, kind, fid, _, _ in events if t == 5.0]
    assert at_5 == [
        ("flow_start", "tiny"),
        ("rate_change", "a"),  # the solve that rates the tiny flow
        ("rate_change", "tiny"),
        ("flow_end", "tiny"),  # the next step, zero-length
        ("rate_change", "a"),  # the solve after it, still at 5
        ("snapshot", "snap.v1"),
    ]
    assert events[-1] == (10.0, "flow_end", "a", "", 1000.0)
    assert verify_trace(trace) == []


@pytest.mark.parametrize("streamed", [False, True], ids=["kept", "streamed"])
def test_a_mark_at_the_last_instant_is_the_last_event(monkeypatch, streamed):
    monkeypatch.setattr(simengine, "CSV_CHUNK_LINES", 2)
    handed = []  # (window, last)
    readers = [lambda trace, last: handed.append((list(trace.events), last))] if streamed else []
    sim = Simulation({"d1": res("d1", 100.0)}, readers)
    sim.add_flow("a", ResourcePath(("d1",), "write"), 1000.0)
    sim.add_timer(10.0, _tiny_and_mark)  # at a's end: the run's last instant
    events = sim.run().events
    if streamed:
        assert events == [] and handed[-1][1]
        events = [e for window, _ in handed for e in window]
    assert [(t, kind, fid) for t, kind, fid, _, _ in events[-4:]] == [
        (10.0, "flow_start", "tiny"),
        (10.0, "rate_change", "tiny"),
        (10.0, "flow_end", "tiny"),
        (10.0, "snapshot", "snap.v1"),
    ]


def test_a_mark_is_stamped_now():
    sim = Simulation({"d1": res("d1", 100.0)})

    def take(sim, now):
        for at in (0.0, 1.0, 3.0, math.nan):
            with pytest.raises(ValueError, match="cannot mark"):
                sim.mark((at, "snapshot", "x", "x", 1.0))
        sim.mark((now, "snapshot", "snap.v1", "v1", 1.0))

    sim.add_timer(2.0, take)
    with pytest.raises(ValueError, match="cannot mark an event at 1.0 at time 0.0"):
        sim.mark((1.0, "snapshot", "snap.v1", "v1", 1.0))
    assert sim.run().events == [(2.0, "snapshot", "snap.v1", "v1", 1.0)]


def test_duplicate_hops_reserve_capacity_once():
    # a relayed path may name the same link twice; the fluid model pools it
    assert ResourcePath(("d1", "l", "d1"), "write").resources == ("d1", "l")
    rates = allocate_rates([flow("f1", ["link", "link", "disk"])], {"link": 100.0, "disk": 80.0})
    assert rates["f1"] == 80.0


def test_verify_trace_flags_start_without_end():
    from storagesim.simengine import FlowRecord

    trace = SimTrace(resources={"d1": res("d1", 100.0)})
    path = ResourcePath(("d1",), "write")
    trace.flows = {"a": FlowRecord("a", path, 100.0, None, {})}
    trace.events = [
        TraceEvent(0.0, "flow_start", "a", "", 100.0),
        TraceEvent(0.0, "rate_change", "a", "", 100.0),
    ]
    codes = {v.code for v in verify_trace(trace)}
    assert "unmatched-flow" in codes


def test_completion_ties_processed_together_in_flow_id_order():
    resources = {"link": res("link", 100.0)}
    workload = [(FlowSpec(f"f{i}", ResourcePath(("link",), "write"), 500.0), 0.0) for i in (2, 0, 1)]
    trace = run(resources, workload)
    ends = [(t, fid) for t, kind, fid, _, _ in trace.events if kind == "flow_end"]
    assert [fid for _, fid in ends] == ["f0", "f1", "f2"]
    assert len({t for t, _ in ends}) == 1


def _random_run(rng, monkeypatch, check, asymmetric=0.1):
    """One seeded engine run with ``check(sim)`` called after every reallocation.

    Levels like 100/3 make the frozen-usage sums inexact; a share
    ``asymmetric`` of the resources writes at half or 1.5 times the read
    bandwidth; equal sizes make several flows finish at once; paths may name
    a resource twice; a completion hook and timers inject flows, and some
    timers add nothing. A flow drawn for a later time is added by a timer
    at that time.
    """
    n_res = rng.randint(2, 8)
    resources = {}
    for i in range(n_res):
        cap = rng.choice([10.0, 33.3, 100.0 / 3, 100.0, 125.0, 1000.0 / 7])
        write = rng.choice([cap / 2, 1.5 * cap]) if rng.random() < asymmetric else cap
        resources[f"r{i}"] = Resource(f"r{i}", read_capacity=cap, write_capacity=write)
    ids = iter(rng.sample(range(1000), 60))

    def spec():
        hops = tuple(rng.choice(sorted(resources)) for _ in range(rng.randint(1, 4)))
        size = rng.choice([100.0, 100.0, 250.0, rng.uniform(1.0, 500.0)])
        return f"f{next(ids):03d}", ResourcePath(hops, rng.choice(["read", "write"])), size

    def hook(sim, records, now):
        for _ in range(rng.choice([0, 0, 1, 2])):
            sim.add_flow(*spec())

    def timer(sim, now):
        if rng.random() < 0.5:
            sim.add_flow(*spec())

    sim = Simulation(resources)
    for _ in range(rng.randint(2, 20)):
        flow = spec()
        arrive(sim, flow, rng.choice([0.0, 0.0, 1.0, rng.uniform(0.0, 20.0)]))
    for _ in range(rng.randint(0, 3)):
        sim.add_timer(rng.uniform(0.0, 30.0), timer)
    real = Simulation._reallocate

    def checked(sim):
        real(sim)
        check(sim)

    with monkeypatch.context() as m:
        m.setattr(Simulation, "_reallocate", checked)
        try:
            return sim.run(on_complete=hook)
        except StopIteration:  # the run drew more than 60 flow ids
            return None


def _cold_rates(sim):
    """A from-scratch solve of copies of the active flows, each resource pooled over the directions crossing it.

    ``allocate_rates`` rates the records it is given, so the check solves copies and never writes into the run.
    """
    flows = [FlowRecord(f.flow_id, f.path, f.size_mb, None, f.tags) for f in sim._active.values()]
    dirs = simengine._directions(f.path for f in flows)
    return allocate_rates(flows, {rid: sim.resources[rid].capacity_for(frozenset(d)) for rid, d in dirs.items()})


def _count_solves(monkeypatch):
    """Record "warm" for each ``Simulation._resolve`` and "cold" for each ``allocate_rates`` through its binding."""
    solves = []
    real_resolve, real_allocate = Simulation._resolve, simengine.allocate_rates
    monkeypatch.setattr(Simulation, "_resolve", lambda sim, *a: solves.append("warm") or real_resolve(sim, *a))
    monkeypatch.setattr(simengine, "allocate_rates", lambda *a: solves.append("cold") or real_allocate(*a))
    return solves


def test_warm_solve_equals_a_cold_solve_at_every_reallocation(monkeypatch):
    solves = _count_solves(monkeypatch)
    checks = []

    def check(sim):
        assert {fid: f.rate for fid, f in sim._active.items()} == _cold_rates(sim), sim.now
        checks.append(1)

    rng = random.Random(2014)
    runs = 0
    for _ in range(400):
        trace = _random_run(rng, monkeypatch, check)
        if trace is None:
            continue
        runs += 1
        assert verify_trace(trace) == []
        batch: list[str] = []  # the rate_change events since the last other event
        for _, kind, fid, _, _ in trace.events + [TraceEvent(math.inf, "end", "", "", 0.0)]:
            if kind == "rate_change":
                batch.append(fid)
            else:
                assert batch == sorted(batch) and len(set(batch)) == len(batch), batch
                batch = []
    assert runs > 300 and len(checks) > 4000 and solves.count("warm") > len(checks) / 2


def test_a_solve_writes_the_rates_of_the_records_it_re_solves_and_no_other(monkeypatch):
    # The records are the solver's table: a warm solve leaves each kept record's rate the same float object
    # and rates each re-solved one as a cold solve does; allocate_rates returns exactly its records' rates,
    # in flow-id order, and one that raises UnknownResourceError has written no record.
    real_fill, real_resolve, real_allocate = simengine._fill, Simulation._resolve, simengine.allocate_rates
    fills: list[list[FlowRecord]] = []  # the live records of each fill
    seen = {"kept": 0, "re-solved": 0, "cold": 0, "refused": 0}

    def fill(crossing, live, *args):
        fills.append(list(live))
        return real_fill(crossing, live, *args)

    def resolve(sim, arrived, departed):
        before = {fid: f.rate for fid, f in sim._active.items()}
        n = len(fills)
        real_resolve(sim, arrived, departed)
        live = {f.flow_id for f in fills[n]}
        cold = _cold_rates(sim)
        for fid, f in sim._active.items():
            if fid in live:
                assert f.rate == cold[fid], (sim.now, fid)
                seen["re-solved"] += 1
            else:
                assert f.rate is before[fid], (sim.now, fid)
                seen["kept"] += 1

    def allocate(flows, capacities):
        records = sorted(flows, key=lambda f: f.flow_id)
        rates = real_allocate(records, capacities)
        assert list(rates) == [f.flow_id for f in records]
        assert all(rates[f.flow_id] is f.rate for f in records)
        seen["cold"] += 1
        return rates

    def refused(sim):
        # a solve over the run's own records plus one whose resource has no capacity, sorting after them all
        records = list(sim._active.values()) + [FlowRecord("g", ResourcePath(("ghost",), "write"), 1.0, None, {})]
        records[-1].rate = 2.5
        rates = [f.rate for f in records]
        with pytest.raises(UnknownResourceError):
            real_allocate(records, sim._capacities)
        assert all(f.rate is r for f, r in zip(records, rates))
        seen["refused"] += 1

    monkeypatch.setattr(simengine, "_fill", fill)
    monkeypatch.setattr(Simulation, "_resolve", resolve)
    monkeypatch.setattr(simengine, "allocate_rates", allocate)
    rng = random.Random(35)
    for _ in range(150):
        trace = _random_run(rng, monkeypatch, refused)
        if trace is not None:
            assert verify_trace(trace) == []
    assert seen["cold"] > 200 and min(seen["kept"], seen["re-solved"], seen["refused"]) > 2000, seen


def test_warm_solves_stay_warm_when_most_resources_are_asymmetric(monkeypatch):
    solves = _count_solves(monkeypatch)
    checks = []
    pooled = {"less": 0, "more": 0}  # asymmetric resources that write slower / faster than they read

    def check(sim):
        assert {fid: f.rate for fid, f in sim._active.items()} == _cold_rates(sim), sim.now
        checks.append(1)

    rng = random.Random(70)
    for _ in range(120):
        trace = _random_run(rng, monkeypatch, check, asymmetric=0.7)
        if trace is not None:
            assert verify_trace(trace) == []
            for r in trace.resources.values():
                if r.write_capacity != r.read_capacity:
                    pooled["less" if r.write_capacity < r.read_capacity else "more"] += 1
    assert min(pooled.values()) > 100 and len(checks) > 1000
    assert solves.count("warm") > 0.9 * len(solves)


def test_pooled_capacity_falls_and_rises_with_the_directions_under_warm_solves(monkeypatch):
    disk = Resource("d", read_capacity=150.0, write_capacity=100.0)
    sim = Simulation({"d": disk, "l": res("l", 120.0)})

    def spec(fid, hops, direction, size):
        return fid, ResourcePath(hops, direction), size

    sim.add_flow(*spec("r1", ("d",), "read", 150.0))
    sim.add_flow(*spec("r2", ("d", "l"), "read", 300.0))
    sim.add_flow(*spec("x", ("l",), "write", 1000.0))
    # a write joins at 0.5, so the disk pools min(150, 100)
    arrive(sim, spec("w", ("d",), "write", 10.0), 0.5)

    def hook(sim, records, now):
        if any(rec.flow_id == "r2" for rec in records):  # the last read ends as a write starts
            sim.add_flow(*spec("w2", ("d",), "write", 50.0))

    solves = _count_solves(monkeypatch)
    disk_capacity = []  # the disk's from-scratch capacity at each reallocation that crosses it
    real = Simulation._reallocate

    def checked(sim):
        real(sim)
        assert {fid: f.rate for fid, f in sim._active.items()} == _cold_rates(sim), sim.now
        dirs = simengine._directions(f.path for f in sim._active.values())
        if "d" in dirs:
            disk_capacity.append((disk.capacity_for(frozenset(dirs["d"])), sorted(dirs["d"])))

    monkeypatch.setattr(Simulation, "_reallocate", checked)
    trace = sim.run(on_complete=hook)

    steps = [c for i, c in enumerate(disk_capacity) if i == 0 or c != disk_capacity[i - 1]]
    assert steps == [(150.0, ["read"]), (100.0, ["read", "write"]), (150.0, ["read"]), (100.0, ["write"])]
    assert start_time(trace, "w2") == trace.flows["r2"].end_time
    assert solves[0] == "cold" and solves.count("cold") == 1 and len(solves) >= 5
    assert verify_trace(trace) == []


def test_warm_solves_re_solve_a_minority_of_the_flows(monkeypatch):
    from storagesim.scenario import parse_scenario, run_scenario

    # the local_write_wide shape: 16 hosts with one DFS VM each, 40 files of 1000 MB, local writes
    doc = _reference_doc()
    doc["topology"]["reference"]["n_hosts"] = doc["vms"][0]["count"] = 16
    doc["dfsio"]["n_files"] = 40
    assert doc["storage_config"] == "local" and doc["dfsio"]["mode"] == "write"
    resolved: list[int] = []  # flows handed to the filling loop, one entry per call
    steps: list[tuple[float, int, int]] = []  # (now, active flows, flows re-solved) per reallocation
    cold: list[int] = []
    real_fill, real_allocate = simengine._fill, simengine.allocate_rates
    real_reallocate, real_run = Simulation._reallocate, Simulation.run

    def fill(crossing, live, *args):
        resolved.append(len(live))
        return real_fill(crossing, live, *args)

    def allocate(flows, capacities):
        cold.append(1)
        return real_allocate(flows, capacities)

    def reallocate(sim):
        before = len(resolved)
        real_reallocate(sim)
        steps.append((sim.now, len(sim._active), sum(resolved[before:])))

    def run_with_an_idle_timer(sim, on_complete=None):
        sim.add_timer(7.25, lambda sim, now: None)
        return real_run(sim, on_complete)

    monkeypatch.setattr(simengine, "_fill", fill)
    monkeypatch.setattr(simengine, "allocate_rates", allocate)
    monkeypatch.setattr(Simulation, "_reallocate", reallocate)
    monkeypatch.setattr(Simulation, "run", run_with_an_idle_timer)
    trace = run_scenario(parse_scenario(doc)).trace

    assert len(steps) > 50 and cold  # the first solve of the run goes through the module binding
    assert sum(n for _, _, n in steps) <= 0.6 * sum(n for _, n, _ in steps)
    flow_instants = {t for t, kind, _, _, _ in trace.events if kind in ("flow_start", "flow_end")}
    idle = [n for now, _, n in steps if now not in flow_instants]
    assert idle == [0]  # the timer's step started and ended no flow, so nothing was re-solved


@pytest.mark.parametrize("at_time", [math.nan, math.inf])
def test_non_finite_times_are_rejected_at_add(at_time):
    sim = Simulation({"d1": res("d1", 100.0)})
    with pytest.raises(ValueError):
        sim.add_timer(at_time, lambda sim, now: None)
    assert sim.idle and sim.run().events == []


@pytest.mark.parametrize("size", [math.nan, math.inf, -1.0])
def test_negative_or_non_finite_sizes_are_rejected_at_add(size):
    sim = Simulation({"d1": res("d1", 100.0)})
    with pytest.raises(ValueError):
        sim.add_flow("f", ResourcePath(("d1",), "write"), size)
    sim.add_flow("empty", ResourcePath(("d1",), "write"), 0.0)
    trace = sim.run()
    assert trace.flows["empty"].end_time == 0.0 and verify_trace(trace) == []


def test_verify_trace_flags_nan_bytes_and_rates():
    def violations(size, rate):
        trace = SimTrace(resources={"d1": res("d1", 100.0)})
        trace.flows["a"] = FlowRecord("a", ResourcePath(("d1",), "write"), size, 5.0, {})
        trace.events = [
            TraceEvent(0.0, "flow_start", "a", "", size),
            TraceEvent(0.0, "rate_change", "a", "", rate),
            TraceEvent(5.0, "flow_end", "a", "", size),
        ]
        return [v.code for v in verify_trace(trace)]

    assert violations(500.0, 100.0) == []
    assert violations(math.nan, 100.0) == ["byte-conservation"]
    assert violations(500.0, math.nan) == ["capacity", "byte-conservation"]


# -- the resource index: each resource takes the next integer when a path first crosses it --------------------


def test_a_path_that_names_a_resource_twice_keeps_both_hops():
    sim = Simulation({"d1": res("d1", 100.0), "l": res("l", 30.0), "d2": res("d2", 100.0)})
    sim.add_flow("a", ResourcePath(("d1",), "write"), 100.0)
    relayed = ResourcePath(("l", "d1", "l"), "write")  # crosses l twice: one reservation, at its first position
    sim.add_flow("b", relayed, 100.0)
    sim.add_flow("c", ResourcePath(("d2", "l"), "write"), 100.0)
    flows = sim._trace.flows
    # each resource took the next index when a path first crossed it, and each record's hops follow its path
    assert sim._capacities == {"d1": 100.0, "l": 30.0, "d2": 100.0}
    assert [flows[f].hops for f in "abc"] == [(0,), (1, 0), (2, 1)]
    assert flows["b"].hops is sim._checked_paths[id(relayed)][1]  # one index tuple per path, shared by its flows
    trace = sim.run()
    # both hops of b count: l splits 30 between b and c, and d1 gives a the rest
    assert [r for _, kind, _, _, r in trace.events if kind == "rate_change"][:3] == [85.0, 15.0, 15.0]
    assert verify_trace(trace) == []


def test_a_resource_registered_mid_run_takes_the_next_index(monkeypatch):
    from helpers import SMALL_VM, dfs_cluster
    from storagesim.bench import DfsioSpec, run_dfsio
    from storagesim.dfs import DfsConfig
    from storagesim.snapshot import SnapshotPolicy

    # a capped snapshot's transfer crosses its own cap resource, which joins the simulation as the transfer starts
    solves = _count_solves(monkeypatch)
    caps_added: list[tuple[str, int, int]] = []  # (cap resource, resources indexed before it, its index)
    checked = []
    real_add, real_reallocate = Simulation.add_flow, Simulation._reallocate

    def add_flow(sim, flow_id, path, *args):
        before = len(sim._index)
        real_add(sim, flow_id, path, *args)
        caps_added.extend((rid, before, sim._index[rid]) for rid in path.resources if rid.startswith("cap:"))

    def reallocate(sim):
        n = len(solves)
        fresh = caps_added and caps_added[-1][0] in {rid for f in sim._arrived for rid in f.path.resources}
        real_reallocate(sim)
        assert {fid: f.rate for fid, f in sim._active.items()} == _cold_rates(sim), sim.now
        if fresh:
            checked.append(solves[n:])

    monkeypatch.setattr(Simulation, "add_flow", add_flow)
    monkeypatch.setattr(Simulation, "_reallocate", reallocate)
    state, hdfs = dfs_cluster(n_hosts=1, spec=SMALL_VM)
    spec = DfsioSpec(n_files=3, file_size_mb=1000.0, mode="write", slots_per_vm=1)
    run = run_dfsio(
        state, spec, hdfs, dfs_config=DfsConfig(replication_factor=1), seed=0,
        snapshots=SnapshotPolicy(interval_s=4.0, bandwidth_cap=20.0),
    )
    assert len(run.snapshot_records) > 3 and verify_trace(run.trace) == []
    assert len(caps_added) == len(run.snapshot_records)
    assert all(index == before for _, before, index in caps_added)  # the next index, after all the earlier ones
    # every solve that rated a new cap resource was warm, and equal to a cold solve
    assert len(checked) == len(caps_added) and all(s == ["warm"] for s in checked), checked


def test_a_re_pooled_asymmetric_capacity_reaches_the_list_the_solver_reads(monkeypatch):
    disk = Resource("d", read_capacity=150.0, write_capacity=100.0)
    sim = Simulation({"d": disk, "l": res("l", 120.0)})
    sim.add_flow("r1", ResourcePath(("d",), "read"), 150.0)
    sim.add_flow("x", ResourcePath(("l",), "write"), 1000.0)
    arrive(sim, ("w", ResourcePath(("d", "l"), "write"), 10.0), 0.5)
    arrive(sim, ("r2", ResourcePath(("d",), "read"), 600.0), 0.7)
    seen: list[list[float]] = []  # the capacity list each fill reads
    pooled = []  # per solve: the disk's capacity from the directions of its flows, and the capacity the solver read
    real, real_fill = Simulation._reallocate, simengine._fill

    def fill(crossing, live, level, capacities):
        seen.append(list(capacities))
        return real_fill(crossing, live, level, capacities)

    def checked(sim):
        n = len(seen)
        real(sim)
        dirs = simengine._directions(f.path for f in sim._active.values())
        if n < len(seen) and "d" in dirs:
            pooled.append((disk.capacity_for(frozenset(dirs["d"])), seen[-1][sim._index["d"]]))

    monkeypatch.setattr(simengine, "_fill", fill)
    monkeypatch.setattr(Simulation, "_reallocate", checked)
    trace = sim.run()
    assert [want for want, _ in pooled] == [150.0, 100.0, 150.0, 150.0]  # read, mixed while w writes, read again
    assert all(got == want for want, got in pooled), pooled
    assert verify_trace(trace) == []


def test_a_simulations_own_mapping_gives_allocate_rates_the_simulations_hops(monkeypatch):
    # allocate_rates indexes a mapping in its order. Given a running simulation's records and that simulation's
    # own mapping, it rewrites each record's hops with the same indices and its rate with the same float (a warm
    # solve equals a cold one), so the run goes on exactly as it would have.
    def trace_of(seed, check):
        trace = _random_run(random.Random(seed), monkeypatch, check, asymmetric=0.3)
        return None if trace is None else list(trace.events)

    def resolve_in_place(sim):
        hops = {fid: f.hops for fid, f in sim._active.items()}
        rates = allocate_rates(list(sim._active.values()), sim._capacities)
        assert rates == {fid: f.rate for fid, f in sim._active.items()}
        assert {fid: f.hops for fid, f in sim._active.items()} == hops
        calls.append(1)

    calls: list[int] = []
    compared = 0
    for seed in range(60):
        want = trace_of(seed, lambda sim: None)
        if want is not None:
            assert trace_of(seed, resolve_in_place) == want, seed
            compared += 1
    assert compared > 40 and len(calls) > 500


def _streamed_golden_trace(doc):
    """A golden scenario's run, streamed: its whole event list, from the windows it handed over, and its trace."""
    from storagesim.scenario import parse_scenario, run_scenario

    events: list = []
    run = run_scenario(parse_scenario(doc), readers=(lambda trace, last: events.extend(trace.events),))
    return events, run.trace


def _faulted(events, flows, resources):
    """The trace clean, then with one fault each: a rate on a saturated resource raised by 1e-6 of itself, a
    dropped ``flow_end``, and a deleted resource, each named; the faults sit in the middle of the trace."""
    middle = len(events) // 2
    yield "clean", events, resources
    for i in range(middle, len(events)):  # the first rate past the middle that the raise puts over a capacity
        t, kind, fid, rid, value = events[i]
        if kind == "rate_change":
            raised = events[:i] + [(t, kind, fid, rid, value * (1 + 1e-6))] + events[i + 1 :]
            if any(v.code == "capacity" for v in verify_trace_reference(SimTrace(raised, flows, resources))):
                yield "raised rate", raised, resources
                break
    end = next(i for i in range(middle, len(events)) if events[i][1] == "flow_end")
    yield "dropped flow_end", events[:end] + events[end + 1 :], resources
    crossed = flows[events[end][2]].path.resources[0]
    yield "deleted resource", events, {rid: r for rid, r in resources.items() if rid != crossed}


@pytest.mark.parametrize("golden", ["wide_local", "asymmetric_local"])
def test_the_windowed_audit_of_a_streamed_golden_trace_equals_the_reference(golden):
    from test_golden import GOLDEN

    def report(violations):
        return [(v.code, repr(v.time), v.message) for v in violations]

    events, trace = _streamed_golden_trace(GOLDEN[golden][0])
    assert len(trace.flows) > 30 and events[-1][1] in ("flow_end", "snapshot")
    seen = {}
    for fault, faulted, resources in _faulted(events, trace.flows, trace.resources):
        want = report(verify_trace_reference(SimTrace(faulted, trace.flows, resources)))
        state, got = simengine.AuditState(), []
        windows = _windows(faulted, simengine.CSV_CHUNK_LINES)
        for i, window in enumerate(windows):
            got += verify_trace(SimTrace(window, trace.flows, resources), state, i == len(windows) - 1)
        assert report(got) == want, fault
        seen[fault] = {code for code, _, _ in want}
    assert seen == {
        "clean": set(),
        "raised rate": {"capacity"} | seen["raised rate"],
        "dropped flow_end": {"unmatched-flow"} | seen["dropped flow_end"],
        "deleted resource": {"capacity"} | seen["deleted resource"],
    }, seen
