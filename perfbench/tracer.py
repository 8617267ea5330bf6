"""Per-layer spans for a traced run, recorded from outside the program.

The tracer replaces each layer's public functions with timing wrappers in
every storagesim module that binds them (a ``from .x import f`` makes a
second binding that patching ``x.f`` alone would miss), and restores the
originals afterwards. Spans stay in memory as ``[name, start, end,
parent_id]`` lists and are written out as JSON once, when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). A dotted attribute is a method, patched
# on its class; a plain one is a function, patched at every binding site.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("scenario", "load_scenario", "scenario.load_scenario"),
    ("scenario", "build_state", "scenario.build_state"),
    ("scenario", "run_scenario", "scenario.run_scenario"),
    ("placement", "place_vm", "placement.place_vm"),
    ("placement", "ClusterState.clone", "placement.ClusterState.clone"),
    ("volumes", "attach_volume", "volumes.attach_volume"),
    ("volumes", "resolve_io_path", "volumes.resolve_io_path"),
    ("topology", "management_path", "topology.management_path"),
    ("dfs", "place_file", "dfs.place_file"),
    ("dfs", "schedule_map_task", "dfs.schedule_map_task"),
    ("bench", "run_dfsio", "bench.run_dfsio"),
    ("simengine", "Simulation.run", "simengine.Simulation.run"),
    ("simengine", "Simulation.add_flow", "simengine.add_flow"),
    ("simengine", "allocate_rates", "simengine.allocate_rates"),
    ("simengine", "verify_trace", "simengine.verify_trace"),
    ("simengine", "SimTrace.write_csv", "simengine.SimTrace.write_csv"),
    ("snapshot", "plan_snapshots", "snapshot.plan_snapshots"),
    ("snapshot", "merge_snapshot_events", "snapshot.merge_snapshot_events"),
    ("snapshot", "network_bytes", "snapshot.network_bytes"),
    ("cost", "count_io_ops", "cost.count_io_ops"),
    ("cost", "compute_cost", "cost.compute_cost"),
)
# The completion hook is a closure inside run_dfsio; the Simulation.run
# wrapper wraps it per call so hook time is a child span of the event loop.
HOOK_SPAN = "bench.on_complete"

_MARK = "__perfbench_span__"


class Tracer:
    """Installs span wrappers, records spans, and restores the program."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent id]; id = index
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.path_pairs: list[tuple[str, str]] = []  # management_path (src, dst) per call
        self.alloc_flows = 0  # flows handed to allocate_rates, summed over calls
        self.alloc_changed = 0  # of those, flows whose rate differs from before the call

    # -- recording ----------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _probe(self, name: str, fn):
        """The span wrapper, plus the counters the layer's ratios need.

        Probe work runs outside the span, so it lands in the caller's self
        time and in ``trace.overhead_frac``, not in the probed layer.
        """
        timed = self.span(name, fn)
        if name == "topology.management_path":

            def probe(t, src_node, dst_node):
                self.path_pairs.append((src_node, dst_node))
                return timed(t, src_node, dst_node)

        elif name == "simengine.allocate_rates":

            def probe(flows, capacities):
                flows = list(flows)
                before = {f.flow_id: f.rate for f in flows}
                rates = timed(flows, capacities)
                self.alloc_flows += len(rates)
                self.alloc_changed += sum(1 for fid, r in rates.items() if before[fid] != r)
                return rates

        elif name == "simengine.Simulation.run":

            def probe(sim, on_complete=None):
                if on_complete is not None:
                    on_complete = self.span(HOOK_SPAN, on_complete)
                return timed(sim, on_complete)

        else:
            return timed
        setattr(probe, _MARK, name)
        probe.__wrapped__ = fn
        return probe

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        import storagesim  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "storagesim" or n.startswith("storagesim.")]
        try:
            for module_name, attr, name in TARGETS:
                home = sys.modules[f"storagesim.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._probe(name, vars(cls)[meth]))
                    continue
                original = getattr(home, attr)
                wrapped = self._probe(name, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output -------------------------------------------------------------

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["id", "name", "start", "end", "parent_id", "run_id"],
                    "spans": [[i, n, s, e, p, self.run_id] for i, (n, s, e, p) in enumerate(self.spans)],
                },
                fh,
            )

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)


def leftover_wrappers() -> list[str]:
    """Bindings in loaded storagesim modules that still hold a span wrapper."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "storagesim" and not mod_name.startswith("storagesim."):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(value, type):
                found += [f"{mod_name}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, _MARK)]
    return found
