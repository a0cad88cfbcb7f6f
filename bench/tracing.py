"""Spans and counts at the package's layer boundaries, installed from outside.

The tracer wraps public functions and methods of a freshly imported
package.  The modules bind names with ``from .engine import run`` and
similar, so a function wrapper replaces every module attribute that holds
the original object; methods are wrapped on their class.  A name that a
later version of the package no longer has is skipped, and the metrics
that depend on it read 0.

Each span records its op, its own id, its parent's id, name, start and end.
Spans are kept in memory (up to ``SPAN_CAP``) and written when the run
ends.  Aggregates cover every span: count, total time and self time, where
self time is the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import math
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 50_000

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("engine", "run", "engine.run"),
    ("engine", "parse_transcript", "engine.parse"),
    ("engine", "extract_view", "analysis.view"),
    ("engine", "eavesdropper_view", "analysis.view"),
    ("engine", "merge_views", "analysis.view"),
    ("topology", "validate_topology", "topology.validate"),
    ("topology", "validate_secure_edges", "topology.validate_edges"),
    ("topology", "secure_cycles", "topology.cycle_walk"),
    ("topology", "build_cycle", "topology.build"),
    ("topology", "dummy_triangle", "topology.build"),
    ("topology", "default_parties", "topology.build"),
    ("ring", "_units", "ring.units_table"),
    ("analysis", "secrecy_enumeration_check", "analysis.check"),
    ("analysis", "discover_draw_sites", "analysis.discover"),
    ("cli", "execute_config", "cli.execute"),
    ("cli", "replay_transcript", "cli.replay"),
    ("commitment", "decommit3", "commitment.reveal"),
    ("commitment", "decommit2_dummy", "commitment.reveal"),
)

# (module, class, method names, span name prefix) for methods.
METHODS = (
    ("ring", "RingSpec", ("normalize", "add", "sub", "neg", "mul", "pow", "is_unit",
                          "exact_div", "elements", "units"), "ring."),
    ("topology", "ChannelGraph", ("add_edge", "has_edge", "security", "edges",
                                  "secure_pairs", "party", "to_config"), "topology."),
    ("engine", "Run", ("note", "noise", "randrange", "rand_int", "send", "broadcast",
                       "transcript"), "engine."),
)


class Tracer:
    """Span aggregates and counts of one traced phase, and the spans themselves."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, time covered by children]
        self.agg: dict[str, list] = {}  # name -> [count, total s, self s]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.counts: dict = defaultdict(int)
        self.family_counts: dict = defaultdict(int)  # (protocol, name) -> count
        self.family = None
        self.op_id = 0
        self.op_view_entries = 0
        self.last_full_runs = 0
        self._next_id = 0

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs once the span has ended."""
        tracer, stack, spans = self, self.stack, self.spans
        entry = self.agg.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((tracer.op_id, frame[0], parent, name, start, end))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        """``fn`` wrapped to count calls, overall and for the current op's protocol."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            tracer.family_counts[tracer.family, name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, pkg):
        modules = [getattr(pkg, name) for name in pkg.MODULES]
        replacements = {}
        for module_name, attr, span_name in FUNCTIONS:
            fn = getattr(getattr(pkg, module_name), attr, None)
            if fn is not None:
                replacements[id(fn)] = self.span(span_name, fn, self._after(span_name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

        for module_name, class_name, methods, prefix in METHODS:
            cls = getattr(getattr(pkg, module_name), class_name, None)
            for method in methods:
                fn = cls.__dict__.get(method) if cls is not None else None
                if callable(fn):
                    name = prefix + method
                    setattr(cls, method, self.span(name, fn, self._after(name)))

        ring_spec = getattr(pkg.ring, "RingSpec", None)
        if ring_spec is not None and "sample_noise" in ring_spec.__dict__:
            fn = ring_spec.__dict__["sample_noise"]
            plain = self.span("ring.sample_noise", fn)
            unit = self.span("ring.unit_draw", fn)

            def sample_noise(ring, source, require_unit=False):
                return (unit if require_unit else plain)(ring, source, require_unit=require_unit)

            ring_spec.sample_noise = sample_noise

        graph = getattr(pkg.topology, "ChannelGraph", None)
        if graph is not None:
            graph.__init__ = self.span("topology.graph_init", graph.__init__)
        run_cls = getattr(pkg.engine, "Run", None)
        if run_cls is not None:
            run_cls.__init__ = self.counter("engine.runs", run_cls.__init__)
        transcript = getattr(pkg.engine, "Transcript", None)
        if transcript is not None and "serialize" in transcript.__dict__:
            transcript.serialize = self.span("engine.serialize", transcript.serialize,
                                             self._after("engine.serialize"))

        base = getattr(pkg.engine, "Protocol", None)
        pending, seen = ([base] if base is not None else []), set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            layer = cls.__module__.rsplit(".", 1)[-1]
            if "program" in cls.__dict__:
                cls.program = self.span(f"{layer}.program", cls.__dict__["program"])
            if "check_graph" in cls.__dict__:
                cls.check_graph = self.span("topology.check_graph", cls.__dict__["check_graph"])

    def _after(self, name):
        """Counts read from a call's arguments or result, for the spans that need them."""
        counts = self.counts

        def serialized(_args, text):
            counts["engine.serialize_bytes"] += len(text)

        def transcript(_args, t):
            entries = sum(len(v) for v in t.views.values())
            counts["engine.view_entries"] += entries
            self.op_view_entries += entries

        def discovered(args, sites):
            spec = args[0]
            self.last_full_runs = math.prod(len(d) for d in spec.input_domains) * math.prod(
                n for _, n in sites)

        def checked(_args, report):
            counts["analysis.runs_enumerated"] += report.runs
            if not report.ok:
                counts["analysis.fail_runs"] += report.runs
                counts["analysis.fail_full_runs"] += self.last_full_runs

        def validated(_args, _result):
            self.family_counts[self.family, "topology.validate"] += 1

        return {
            "engine.serialize": serialized,
            "engine.transcript": transcript,
            "analysis.discover": discovered,
            "analysis.check": checked,
            "topology.validate": validated,
        }.get(name)

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op):
        self.op_id += 1
        self.family = op.family
        self.op_view_entries = 0

    # -- metrics ---------------------------------------------------------------

    def count(self, *names):
        return sum(self.agg.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(self, *names):
        return sum(self.agg.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, *names):
        return sum(self.agg.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer(self, prefix):
        return [n for n in self.agg if n.startswith(prefix)]


def _ratio(a, b):
    return a / b if b else 0.0


def growth_exponent(points):
    """Least-squares slope of log(y) against log(k) over (k, y) points with y > 0."""
    pts = [(math.log(k), math.log(y)) for k, y in points if k and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


FAMILIES = ("secure_sum", "commit3", "commit2_dummy", "millionaires_compare", "share_secret_kk")


def layer_metrics(tracer: Tracer, records, traced_ops_per_s, untraced_ops_per_s) -> dict:
    """Per-layer metrics of the traced phase, averaged per op unless the unit is a ratio.

    ``*.self_s`` and ``*.program_self_s`` are self times; engine.run_self_s
    is ``run`` minus every child span (check_graph, program, transcript,
    graph building).  The other times include their child spans.
    """
    t = tracer
    c = t.counts
    n = len(records)

    def per_op(v):
        return _ratio(v, n)

    runs = c["engine.runs"]
    messages = t.count("engine.send", "engine.broadcast")
    tampered = [r for r in records if r.tamper]
    metrics = {
        "ring.calls": per_op(sum(t.count(x) for x in t.layer("ring."))),
        "ring.self_s": per_op(t.self_time(*t.layer("ring."))),
        "ring.units_s": per_op(t.total("ring.units", "ring.unit_draw")),
        "topology.graphs_built": per_op(t.count("topology.graph_init")),
        "topology.validations": per_op(t.count("topology.validate")),
        "topology.cycle_walks": per_op(t.count("topology.cycle_walk")),
        "topology.validations_per_run": _ratio(t.count("topology.validate"), runs),
        "topology.self_s": per_op(t.self_time(*t.layer("topology."))),
        "engine.runs": per_op(runs),
        "engine.run_self_s": per_op(t.self_time("engine.run")),
        "engine.transcript_s": per_op(t.total("engine.transcript")),
        "engine.note_s": per_op(t.self_time("engine.note")),
        "engine.noise_s": per_op(t.self_time("engine.noise")),
        "engine.draws": per_op(t.count("engine.noise", "engine.randrange", "engine.rand_int")),
        "engine.sends": per_op(t.count("engine.send")),
        "engine.broadcasts": per_op(t.count("engine.broadcast")),
        "engine.notes": per_op(t.count("engine.note")),
        "engine.send_s": per_op(t.self_time("engine.send")),
        "engine.broadcast_s": per_op(t.self_time("engine.broadcast")),
        "engine.view_entries": per_op(c["engine.view_entries"]),
        "engine.view_entries_per_message": _ratio(c["engine.view_entries"], messages),
        "engine.view_entries_k_exponent": growth_exponent(
            [(r.k, r.view_entries) for r in records if r.k]),
        "engine.serialize_s": per_op(t.total("engine.serialize")),
        "engine.serialize_bytes": per_op(c["engine.serialize_bytes"]),
        "engine.parse_s": per_op(t.total("engine.parse")),
        "analysis.checks": per_op(t.count("analysis.check")),
        "analysis.runs_enumerated": per_op(c["analysis.runs_enumerated"]),
        "analysis.discover_s": per_op(t.total("analysis.discover")),
        "analysis.view_s": per_op(t.total("analysis.view")),
        "analysis.tally_self_s": per_op(t.self_time("analysis.check")),
        "analysis.fail_runs_ratio": _ratio(c["analysis.fail_runs"], c["analysis.fail_full_runs"]),
        "arithmetic.program_self_s": per_op(t.self_time("arithmetic.program")),
        "commitment.program_self_s": per_op(t.self_time("commitment.program", "commitment.reveal")),
        "sharing.program_self_s": per_op(t.self_time("sharing.program")),
        "poker.program_self_s": per_op(t.self_time("poker.program")),
        "cli.execute_self_s": per_op(t.self_time("cli.execute")),
        "cli.replay_self_s": per_op(t.self_time("cli.replay")),
        "cli.replays": per_op(t.count("cli.replay")),
        "cli.tamper_detected_ratio": _ratio(sum(r.ok for r in tampered), len(tampered)),
        "trace.overhead_ratio": _ratio(traced_ops_per_s, untraced_ops_per_s),
    }
    for family in FAMILIES:
        metrics[f"topology.validations_per_run.{family}"] = _ratio(
            t.family_counts[family, "topology.validate"], t.family_counts[family, "engine.runs"])
    return metrics
