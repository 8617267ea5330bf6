import random

import pytest

from storagesim.cost import CostReport, PriceTable, compute_cost, count_io_ops, savings
from storagesim.simengine import FlowRecord, SimTrace
from storagesim.volumes import ResourcePath

TABLE = PriceTable()  # the canonical 2013 prices


def test_one_hour_million_ops_on_networked_storage():
    report = compute_cost(1.0, 1_000_000, TABLE)
    assert report.instance_cost == 0.24
    assert report.storage_cost == pytest.approx(0.10)
    assert report.total == pytest.approx(0.34)


def test_local_storage_costs_only_the_instance():
    # a local run bills no operations: count_io_ops counts networked-volume flows only
    report = compute_cost(1.0, 0, TABLE)
    assert report.storage_cost == 0.0
    assert report.total == 0.24


def test_two_hours_three_million_ops():
    report = compute_cost(2.0, 3_000_000, TABLE)
    assert report.instance_cost == pytest.approx(0.48)
    assert report.storage_cost == pytest.approx(0.30)
    assert report.total == pytest.approx(0.78)


def test_fractional_hours_round_up():
    report = compute_cost(1.01, 0, TABLE)
    assert report.instance_cost == pytest.approx(0.48)


def test_cost_linear_in_io_ops():
    rng = random.Random(9)
    for _ in range(100):
        ops = rng.randrange(0, 10_000_000)
        k = rng.randint(2, 5)
        one = compute_cost(1.0, ops, TABLE).storage_cost
        scaled = compute_cost(1.0, k * ops, TABLE).storage_cost
        assert scaled == pytest.approx(k * one, abs=1e-12)


def test_savings_reproduces_the_29_percent_figure():
    local = compute_cost(1.0, 0, TABLE)
    networked = compute_cost(1.0, 1_000_000, TABLE)
    assert savings(local, networked) == pytest.approx(0.10 / 0.34)
    assert savings(local, networked) == pytest.approx(0.2941, abs=1e-4)


def test_savings_identities():
    a = CostReport(0.24, 0.0)
    assert savings(a, a) == 0.0
    cheap = CostReport(0.48, 0.0)
    pricey = CostReport(0.48, 0.30)
    assert savings(cheap, pricey) == pytest.approx(0.30 / 0.78)
    assert savings(cheap, pricey) == pytest.approx(0.3846, abs=1e-4)


def test_savings_scale_invariant():
    rng = random.Random(2)
    for _ in range(100):
        cheap_total = rng.uniform(0.01, 10.0)
        pricey_total = cheap_total + rng.uniform(0.01, 10.0)
        k = rng.uniform(0.1, 1000.0)
        base = savings(CostReport(cheap_total, 0.0), CostReport(pricey_total, 0.0))
        scaled = savings(CostReport(k * cheap_total, 0.0), CostReport(k * pricey_total, 0.0))
        assert scaled == pytest.approx(base, rel=1e-9)


def test_savings_guards_zero_denominator():
    with pytest.raises(ValueError):
        savings(CostReport(0.0, 0.0), CostReport(0.0, 0.0))


def _trace_with_networked_flow(size_mb: float) -> SimTrace:
    trace = SimTrace()
    trace.flows["f"] = FlowRecord(
        "f",
        ResourcePath(("link:x", "disk:controller:disk1"), "write"),
        size_mb,
        1.0,
        {"volume_kind": "networked"},
    )
    return trace


def test_count_io_ops_empty_and_exact():
    assert count_io_ops(SimTrace()) == 0
    # 10 GB at 16 KB per op: 10 * 2^20 / 16
    assert count_io_ops(_trace_with_networked_flow(10.0 * 1024.0), op_size_kb=16.0) == 655_360
    assert count_io_ops(_trace_with_networked_flow(0.0)) == 0


def test_count_io_ops_ignores_local_flows_and_unfinished():
    trace = _trace_with_networked_flow(100.0)
    trace.flows["local"] = FlowRecord("local", ResourcePath(("disk:h01:disk1",), "write"), 100.0, 1.0, {"volume_kind": "root"})
    trace.flows["open"] = FlowRecord("open", ResourcePath(("link:x",), "write"), 100.0, None, {"volume_kind": "networked"})
    assert count_io_ops(trace, 64.0) == 1600  # only the finished networked flow


def test_op_size_calibration_hits_a_million_ops_per_hour_run():
    # the packaged cost walk-through moves 62500 MB in one instance-hour
    assert count_io_ops(_trace_with_networked_flow(62_500.0), op_size_kb=64.0) == 1_000_000
