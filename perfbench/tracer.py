"""Per-layer tracing of anttrack from outside the package.

The tracer replaces the public functions of each module with timing
wrappers, at the names their callers look up (``anttrack.traffic`` calls
``shortest_route`` through its own module namespace, so that is where the
wrapper goes), and restores them afterwards. Each call records a span (name,
start, end, parent span) in flat arrays that stay in memory until the pass
ends. A layer's self time is its span time minus that of its wrapped
children. Observers beside the wrappers count the work each call did, and
check per simulation the conservation laws the counts must obey.

A target that a later refactor removes is reported as absent: its metrics
read 0 and the invariants that depend on it are skipped.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter


def _is_detected(verdict) -> bool:
    return verdict is True or getattr(verdict, "name", None) == "MALICIOUS_DETECTED"


def _is_tracking(ant) -> bool:
    return getattr(getattr(ant, "mode", None), "value", None) == "tracking"


# Observers: before(tracer, args) -> token, after(tracer, args, result, token).

def _before_run(tr, args):
    config = args[0]
    tr.cur = Counter(ticks=config.max_ticks, ants=config.ant_count)
    tr.pairs, tr.dsts, tr.touched = set(), set(), set()


def _after_run(tr, args, result, _):
    c = tr.cur
    log = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    if log is not None and hasattr(log, "__len__"):
        c["log.lines"] = len(log)
        c["log.bytes"] = sum(len(line) + 1 for line in log)
    c["route.pairs"], c["route.dsts"], c["touched"] = len(tr.pairs), len(tr.dsts), len(tr.touched)
    if not tr.check_invariants(c):
        tr.failed_sims += 1
    tr.totals.update(c)
    tr.sims += 1


def _after_route(tr, args, result, _):
    tr.pairs.add((args[1], args[2]))
    tr.dsts.add(args[2])


def _after_traffic(tr, args, result, _):
    tr.cur["spawned"] += len(result)


def _after_inspect(tr, args, result, _):
    if _is_detected(result):
        tr.cur["inspect.detected"] += 1


def _before_packets(tr, args):
    return len(args[0].packets)


def _after_packets(tr, args, result, moved):
    c = tr.cur
    spawned, outcomes = result
    c["packet_hops"] += moved
    c["confirms.spawned"] += len(spawned)
    for outcome in outcomes:
        c[f"outcome.{outcome.event}"] += 1
    c["inflight.end"] = len(args[0].packets)


def _before_confirm(tr, args):
    state = args[0]
    tr.inflight_max = max(tr.inflight_max, len(state.packets) + len(state.confirmations))


def _after_confirm(tr, args, result, _):
    tr.cur["confirm_hops"] += len(result)


def _after_write(tr, args, result, _):
    tr.cur["writes"] += 1
    tr.touched.add((args[1], args[2]))


def _before_ant(tr, args):
    ant = args[0]
    return _is_tracking(ant), ant.location


def _after_ant(tr, args, result, before):
    c = tr.cur
    ant = args[0]
    was_tracking, location = before
    tracking = _is_tracking(ant)
    c["ant.steps"] += 1
    c["ant.tracking"] += tracking
    if was_tracking and not tracking:
        c["ant.declarations"] += 1
    elif ant.location != location:
        c["ant.hops"] += 1


def _after_write_outputs(tr, args, result, _):
    tr.totals["output.bytes"] += sum(len(content.encode("utf-8")) for _, content in args[0])


# (module, class or None, attribute, span name, before, after)
TARGETS = [
    ("anttrack.engine", None, "run", "engine.run", _before_run, _after_run),
    ("anttrack.cli", None, "build_config", "cli.build_config", None, None),
    ("anttrack.engine", None, "generate_random_topology", "topology.generate", None, None),
    ("anttrack.traffic", None, "shortest_route", "topology.route", None, _after_route),
    ("anttrack.engine", None, "generate_tick_traffic", "traffic.generate", None, _after_traffic),
    ("anttrack.transport", None, "inspect_at_hop", "detection.inspect", None, _after_inspect),
    ("anttrack.engine", None, "advance_packets", "transport.packets", _before_packets,
     _after_packets),
    ("anttrack.engine", None, "advance_confirmations", "transport.confirm", _before_confirm,
     _after_confirm),
    ("anttrack.pheromone", "PheromoneField", "apply_good", "pheromone.write", None, _after_write),
    ("anttrack.pheromone", "PheromoneField", "apply_bad", "pheromone.write", None, _after_write),
    ("anttrack.pheromone", "PheromoneField", "read_level", "pheromone.read", None, None),
    ("anttrack.engine", None, "_field_digest", "engine.digest", None, None),
    ("anttrack.engine", None, "ant_step", "ant.step", _before_ant, _after_ant),
    ("anttrack.engine", "EventLog", "render", "cli.render", None, None),
    ("anttrack.engine", None, "metrics_to_csv", "cli.render", None, None),
    ("anttrack.cli", None, "_summary_text", "cli.render", None, None),
    ("anttrack.cli", None, "_write_outputs", "cli.write", None, _after_write_outputs),
]

# Per simulation: (description, span names it depends on, predicate on counts).
INVARIANTS = [
    ("packets spawned = detected + delivered + in flight",
     {"traffic.generate", "transport.packets"},
     lambda c: c["spawned"] == c["outcome.detected"] + c["outcome.delivered"] + c["inflight.end"]),
    ("one confirmation per terminal packet",
     {"transport.packets"},
     lambda c: c["confirms.spawned"] == c["outcome.detected"] + c["outcome.delivered"]),
    ("detector verdicts = detected packets",
     {"detection.inspect", "transport.packets"},
     lambda c: c["inspect.detected"] == c["outcome.detected"]),
    ("confirmation hops = pheromone writes",
     {"transport.confirm", "pheromone.write"},
     lambda c: c["confirm_hops"] == c["writes"]),
    ("one agent step per agent per tick",
     {"ant.step"},
     lambda c: c["ant.steps"] == c["ants"] * c["ticks"]),
    ("every agent step is one hop or one declaration report",
     {"ant.step"},
     lambda c: c["ant.hops"] + c["ant.declarations"] == c["ant.steps"]),
    ("one log line per spawn, outcome, field write, tick, agent step and declaration",
     {"traffic.generate", "transport.packets", "transport.confirm", "ant.step"},
     lambda c: "log.lines" not in c or c["log.lines"] == (
         c["spawned"] + c["outcome.detected"] + c["outcome.delivered"] + c["confirm_hops"]
         + c["ticks"] + c["ant.steps"] + c["ant.declarations"])),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    """Spans and counts of one traced pass over a workload."""

    def __init__(self):
        self.names: list[str] = sorted({t[3] for t in TARGETS})
        self.absent: list[str] = []
        self._absent_spans: set[str] = set()
        self.problems: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.span_names = array("i")
        self.parents = array("l")
        self._stack: list[int] = []
        self.totals: Counter = Counter()
        self.sims = 0
        self.failed_sims = 0
        self.inflight_max = 0
        self.cur: Counter = Counter()
        self.pairs, self.dsts, self.touched = set(), set(), set()

    def install(self) -> None:
        self.absent = []
        self._absent_spans: set[str] = set()
        for module_name, class_name, attr, name, before, after in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and class_name is not None:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.absent.append(".".join(filter(None, (module_name, class_name, attr))))
                self._absent_spans.add(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self.names.index(name), before, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name_id: int, before, after):
        tracer = self

        def traced(*args, **kwargs):
            token = before(tracer, args) if before is not None else None
            stack = tracer._stack
            idx = len(tracer.span_names)
            tracer.span_names.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            if after is not None:
                after(tracer, args, result, token)
            return result

        return traced

    def check_invariants(self, counts: Counter) -> bool:
        ok = True
        for description, needs, holds in INVARIANTS:
            if not needs & self._absent_spans and not holds(counts):
                self.problems.append(f"invariant failed: {description} ({dict(counts)})")
                ok = False
        return ok

    def span_totals(self) -> tuple[Counter, Counter, Counter]:
        """Calls, inclusive seconds and self seconds, by span name."""
        calls: Counter = Counter()
        total: Counter = Counter()
        children: Counter = Counter()
        names = self.names
        starts, ends, parents, span_names = self.starts, self.ends, self.parents, self.span_names
        for i in range(len(span_names)):
            name = names[span_names[i]]
            d = ends[i] - starts[i]
            calls[name] += 1
            total[name] += d
            p = parents[i]
            if p >= 0:
                children[names[span_names[p]]] += d
        own = Counter({name: total[name] - children[name] for name in total})
        return calls, total, own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass: counts and seconds per simulation,
        ratios and the in-flight maximum over the whole pass."""
        calls, total, own = self.span_totals()
        t = self.totals
        n = self.sims or 1
        return {
            "topology.route.calls": calls["topology.route"] / n,
            "topology.route.s": total["topology.route"] / n,
            "topology.route.reuse": 1.0 - _ratio(t["route.pairs"], calls["topology.route"]),
            "topology.route.dsts": t["route.dsts"] / n,
            "topology.generate.s": total["topology.generate"] / n,
            "traffic.generate.calls": calls["traffic.generate"] / n,
            "traffic.generate.self_s": own["traffic.generate"] / n,
            "traffic.packets": t["spawned"] / n,
            "detection.inspect.calls": calls["detection.inspect"] / n,
            "detection.inspect.s": total["detection.inspect"] / n,
            "detection.detected": t["inspect.detected"] / n,
            "transport.packets.self_s": own["transport.packets"] / n,
            "transport.packet_hops": t["packet_hops"] / n,
            "transport.confirm.self_s": own["transport.confirm"] / n,
            "transport.confirm_hops": t["confirm_hops"] / n,
            "transport.inflight.max": self.inflight_max,
            "pheromone.write.calls": calls["pheromone.write"] / n,
            "pheromone.write.s": total["pheromone.write"] / n,
            "pheromone.read.calls": calls["pheromone.read"] / n,
            "pheromone.read.s": total["pheromone.read"] / n,
            "pheromone.touched": t["touched"] / n,
            "engine.digest.calls": calls["engine.digest"] / n,
            "engine.digest.s": total["engine.digest"] / n,
            "engine.loop.self_s": own["engine.run"] / n,
            "engine.log.lines": t["log.lines"] / n,
            "engine.log.bytes": t["log.bytes"] / n,
            "ant.step.calls": calls["ant.step"] / n,
            "ant.step.self_s": own["ant.step"] / n,
            "ant.tracking_share": _ratio(t["ant.tracking"], t["ant.steps"]),
            "ant.declarations": t["ant.declarations"] / n,
            "ant.hops_per_ant_tick": _ratio(t["ant.hops"], t["ant.steps"]),
            "cli.build_config.s": total["cli.build_config"] / n,
            "cli.render.s": total["cli.render"] / n,
            "cli.write.s": total["cli.write"] / n,
            "cli.output.bytes": t["output.bytes"] / n,
        }


UNITS = {"calls": "count", "s": "s", "self_s": "s", "reuse": "ratio", "tracking_share": "ratio",
         "bytes": "B", "hops_per_ant_tick": "hop/ant-tick"}


def unit(metric: str) -> str:
    return UNITS.get(metric.rsplit(".", 1)[1], "count")


def is_timing(metric: str) -> bool:
    return metric.endswith((".s", ".self_s"))
