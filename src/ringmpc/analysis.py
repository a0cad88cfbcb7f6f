"""Executable secrecy claims, coalition analysis, and transcript metrics.

A secrecy claim here is always about distributions, never about single
runs: an observer's view tells it nothing about a protected quantity iff
the view's distribution (over everyone's randomness) is the same for
every value of that quantity consistent with what the observer
legitimately knows.  Because the protocols are unconditionally secure,
the check demands *exact* distribution equality, verified by enumerating
every input assignment and every randomness assignment over a finite
ring and comparing integer counts; no statistical slack is permitted.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import product, repeat
from math import prod

from . import ring as ring_mod
from .arithmetic import MillionairesCompare, SecureSum
from .commitment import Commit2Dummy, Commit3
from .engine import (
    EAVESDROPPER,
    TAPPED,
    Protocol,
    Run,
    ScriptedSource,
    Transcript,
    View,
    _entries_for,
    merge_views,
    start,
)
from .errors import BudgetExceeded, ProtocolError
from .poker import even_quotas
from .topology import ChannelGraph, build_cycle, single_cycle

INDEPENDENT = "independent"
INDEPENDENT_UNIFORM = "independent_uniform"
DETERMINED = "determined"


@dataclass
class SecrecySpec:
    """One executable hiding claim.

    The claim shapes:
      independent          -- observer view carries nothing about the target
                              beyond ``given`` and the observer's own inputs
      independent_uniform  -- additionally, the target is uniform given the view
      determined           -- the view (plus given) pins the target down exactly
    ``target`` maps (inputs, outcome) to the protected quantity; by default
    it is the tuple of ``protected`` input slots.  ``given`` maps
    (inputs, outcome) to whatever the claim concedes the observer may learn.
    """

    name: str
    protocol: Protocol
    input_domains: tuple
    observer: object  # party name, tuple of names, or EAVESDROPPER
    observer_inputs: tuple = ()
    protected: tuple = ()
    target: object = None
    given: object = None
    claim: str = INDEPENDENT
    graph: ChannelGraph | None = None
    budget: int = 2_000_000

    def target_of(self, inputs, outcome):
        if self.target is not None:
            return self.target(inputs, outcome)
        return tuple(inputs[i] for i in self.protected)

    def given_of(self, inputs, outcome):
        return self.given(inputs, outcome) if self.given is not None else None


@dataclass(frozen=True)
class Counterexample:
    group: object
    target_a: object
    target_b: object
    detail: str


@dataclass(frozen=True)
class SecrecyReport:
    name: str
    ok: bool
    runs: int
    counterexample: Counterexample | None = None

    def __bool__(self):
        return self.ok


def discover_draw_sites(spec: SecrecySpec):
    """Dry-run the protocol once, on ``spec.graph`` unchecked, to learn its randomness sites."""
    r = Run(spec.protocol, spec.graph, _first_inputs(spec), seed=0)
    spec.protocol.program(r)
    return r.draw_sites


def _first_inputs(spec: SecrecySpec) -> tuple:
    return tuple(d[0] for d in spec.input_domains)


def _checked_graph(spec: SecrecySpec) -> ChannelGraph:
    """The graph every run of ``spec`` uses, once ``engine.start`` has checked it and the arity."""
    return start(spec.protocol, spec.graph, _first_inputs(spec)).graph


def _run_count(spec: SecrecySpec, sites) -> int:
    return prod(len(d) for d in spec.input_domains) * prod(n for _, n in sites)


def enumerate_runs(spec: SecrecySpec):
    """Yield (inputs, outcome, run) over all inputs x all randomness.

    ``run`` is the finished ``engine.Run``: its ``log`` holds every event,
    and ``run.transcript()`` packages it when a caller wants one.  The
    inputs' arity and the graph are checked once, as ``engine.start``
    checks them, on the graph that every run then uses.  The parties share
    one script, so a run that draws off the discovered sites is a ``ProtocolError``.
    """
    yield from _runs(spec, _checked_graph(spec))


def _runs(spec: SecrecySpec, graph: ChannelGraph):
    """``enumerate_runs`` on the graph that ``_checked_graph`` gave."""
    sites = discover_draw_sites(replace(spec, graph=graph))
    total = _run_count(spec, sites)
    if total > spec.budget:
        raise BudgetExceeded(
            f"{spec.name}: enumeration needs {total} runs, budget is {spec.budget}"
        )
    drawers = {party for party, _ in sites}
    site_domains = [range(n) for _, n in sites]
    for inputs in product(*spec.input_domains):
        for assignment in product(*site_domains):
            r = Run(spec.protocol, graph, inputs, seed=0,
                    sources=dict.fromkeys(drawers, ScriptedSource(assignment)))
            try:
                outcome = spec.protocol.program(r)
            except (IndexError, ValueError):
                # The protocol's own fault propagates; the script's is a draw off the sites.
                if r.draw_sites == sites[:len(r.draw_sites)]:
                    raise
            if r.draw_sites != sites:
                raise ProtocolError(f"{spec.name}: the run on inputs {inputs} draws at "
                                    f"{r.draw_sites}, not at the discovered sites {sites}")
            yield inputs, outcome, r


def _view_key(observer, graph: ChannelGraph):
    """A function from a run's log to the observer's ``View.key()``.

    The same filter as ``extract_view`` and ``eavesdropper_view`` on the
    run's transcript, and the same ``merge_views`` for a coalition, with
    the observer's party indices looked up once instead of once per run.
    """
    index = {p.name: i for i, p in enumerate(graph.parties)}

    def party(name):
        try:
            return index[name]
        except KeyError:
            raise KeyError(f"{name!r} did not participate in this run") from None

    if observer == EAVESDROPPER:
        return lambda log: _entries_for(log, TAPPED)
    if isinstance(observer, tuple):
        members = [(name, party(name)) for name in observer]
        return lambda log: merge_views(
            *(View(name, _entries_for(log, i)) for name, i in members)).key()
    i = party(observer)
    return lambda log: _entries_for(log, i)


def secrecy_enumeration_check(spec: SecrecySpec) -> SecrecyReport:
    """Exhaustively verify one secrecy claim; exact counts, no tolerance.

    Within every group (observer's own inputs plus the ``given`` value),
    independence demands count(view, target) * total == count(view) *
    count(target) for every cell — the integer form of P(view, target) =
    P(view) P(target).  A counterexample names two target values whose
    conditional view distributions differ.

    The tally comes from the compiled path when the protocol's program
    traces to straight-line code, and from the interpreted path, the
    reference, otherwise.  Both count the same runs in the same order; the
    compiled path keys each view by the values of its nodes, which the
    judge never reads.
    """
    graph = _checked_graph(spec)
    tally = _compiled_tally(spec, graph)
    return _judge(spec, tally if tally is not None else _interpreted_tally(spec, graph))


def _interpreted_tally(spec: SecrecySpec, graph: ChannelGraph) -> dict:
    """Group -> count per (view key, target), over every run played by the protocol's code."""
    tally: dict = defaultdict(Counter)
    view_key = None
    for inputs, outcome, r in _runs(spec, graph):
        # Looked up after the first run: a budget fault, or a fault of the
        # protocol's in that run, is still reported before an unknown observer.
        if view_key is None:
            view_key = _view_key(spec.observer, graph)
        key = (
            tuple(inputs[i] for i in spec.observer_inputs),
            spec.given_of(inputs, outcome),
        )
        tally[key][view_key(r.log), spec.target_of(inputs, outcome)] += 1
    return tally


def _compiled_tally(spec: SecrecySpec, graph: ChannelGraph) -> dict | None:
    """The tally of ``_interpreted_tally``, in plain dicts, from ``_compile``'s functions; or None.

    Each view is keyed by the values of its nodes, which ``show`` maps back
    to the interpreted path's view key: every label and constant of the
    view is the same in every run, so equal values are equal views.  The
    runs of one input assignment are counted per (view values, outcome
    leaves) in one pass, and ``given`` and the target are computed once per
    distinct leaves.  Each key is first seen at the first run that gives
    it, so the groups and cells keep the interpreted path's order.  When a
    run of an assignment raises, its runs are replayed one by one, each
    followed by its ``given`` and target, so that the fault raised is the
    interpreted path's: a ``given`` or target that raises at an earlier
    run of that assignment comes first.
    """
    compiled = _compile(spec, graph)
    if compiled is None:
        return None
    evaluate, rebuild, _, sites = compiled
    tally: dict = {}
    given_of, target_of = spec.given_of, spec.target_of
    site_domains = [range(n) for _, n in sites]
    for inputs in product(*spec.input_domains):
        own = tuple(inputs[i] for i in spec.observer_inputs)
        claims: dict = {}  # leaves -> (the cells of their group, their target)
        try:
            counts = Counter(map(evaluate, repeat(inputs), product(*site_domains)))
        except Exception as e:
            fault = e
        else:
            fault = None
        if fault is not None:
            for draws in product(*site_domains):
                outcome = rebuild(evaluate(inputs, draws)[1])
                given_of(inputs, outcome)
                target_of(inputs, outcome)
            raise fault
        for (values, leaves), c in counts.items():
            claim = claims.get(leaves)
            if claim is None:
                outcome = rebuild(leaves)
                claim = claims[leaves] = (tally.setdefault((own, given_of(inputs, outcome)), {}),
                                          target_of(inputs, outcome))
            cells, target = claim
            cell = values, target
            cells[cell] = cells.get(cell, 0) + c
    return tally


def _compile(spec: SecrecySpec, graph: ChannelGraph):
    """(evaluate, rebuild, show, draw sites) of ``TracedRing.compile``, from one traced run.

    None when the program cannot be traced or compiled, when the observer
    is unknown, when the check is over budget, or when the protocol's own
    code, played at two points, differs from the compiled functions there
    in its draw sites, its whole view key (``show`` of the view's values),
    ``given`` or target.  The first point is the first enumerated run (the
    first inputs, every draw 0); a fault there is left to the interpreted
    path.  The second is the last input assignment with every draw at the
    top of its domain; a fault there must be the compiled function's fault
    too.  The interpreted path then decides, and raises whatever it
    raises, in its own order.  The guard catches a type test such as
    ``isinstance(v, int)``, which a node cannot refuse, whenever its two
    branches give different views or outcomes at either point: the test
    goes the same way at every run.
    """
    # Imported here: of all the package's callers, only a secrecy check needs the tracer.
    from .tracer import trace

    try:
        ring, traced, outcome = trace(spec.protocol, graph, len(spec.input_domains))
        sites = traced.draw_sites
        view_key = _view_key(spec.observer, graph)
        evaluate, rebuild, show = ring.compile(view_key(traced.log), outcome)
        if _run_count(spec, sites) > spec.budget:
            return None
        drawers = {party for party, _ in sites}

        def played(inputs, draws):
            r = Run(spec.protocol, graph, inputs, seed=0,
                    sources=dict.fromkeys(drawers, ScriptedSource(draws)))
            outcome = spec.protocol.program(r)
            return (r.draw_sites, view_key(r.log), spec.given_of(inputs, outcome),
                    spec.target_of(inputs, outcome))

        def compiled(inputs, draws):
            values, leaves = evaluate(inputs, draws)
            view = show(values)
            hash((view, leaves))  # the interpreted tally hashes the view's constants too
            outcome = rebuild(leaves)
            return (sites, view, spec.given_of(inputs, outcome),
                    spec.target_of(inputs, outcome))

        def raised(play, inputs, draws):
            try:
                return play(inputs, draws)
            except Exception as e:  # the fault is the point's result
                return type(e), e.args

        first, zeros = _first_inputs(spec), (0,) * len(sites)
        last, tops = tuple(d[-1] for d in spec.input_domains), tuple(n - 1 for _, n in sites)
        if (played(first, zeros) != compiled(first, zeros)
                or raised(played, last, tops) != raised(compiled, last, tops)):
            return None
    except Exception:  # any fault here is for the interpreted path to raise, in its order
        return None
    return evaluate, rebuild, show, sites


def _judge(spec: SecrecySpec, tally: dict) -> SecrecyReport:
    """The report on ``tally``: group -> count per (view, target), in first-seen order.

    A view is anything that stands for one view key and no other; the judge
    reads no view's content.
    """
    runs_done = sum(sum(cells.values()) for cells in tally.values())
    for key, cells in tally.items():
        if spec.claim == DETERMINED:
            by_view: dict = {}
            for (vk, target), _ in cells.items():
                by_view.setdefault(vk, set()).add(target)
            for vk, targets in by_view.items():
                if len(targets) > 1:
                    a, b = sorted(targets, key=repr)[:2]
                    return SecrecyReport(
                        spec.name, False, runs_done,
                        Counterexample(key, a, b,
                                       "one view is compatible with several target values"),
                    )
            continue
        # The marginals keep first-seen order, which decides the counterexample reported.
        view_totals, target_totals = Counter(), Counter()
        for (vk, target), c in cells.items():
            view_totals[vk] += c
            target_totals[target] += c
        total = sum(cells.values())
        # independence: every (view, target) cell must factorize exactly
        for vk in view_totals:
            for target in target_totals:
                c = cells.get((vk, target), 0)
                if c * total != view_totals[vk] * target_totals[target]:
                    other = next(t for t in target_totals if t != target) \
                        if len(target_totals) > 1 else target
                    return SecrecyReport(
                        spec.name, False, runs_done,
                        Counterexample(
                            key, target, other,
                            "view distribution differs between target values "
                            f"(cell count {c}, expected {view_totals[vk]}*"
                            f"{target_totals[target]}/{total})",
                        ),
                    )
        if spec.claim == INDEPENDENT_UNIFORM:
            counts = set(target_totals.values())
            if len(counts) != 1:
                a, b = sorted(target_totals, key=repr)[:2]
                return SecrecyReport(
                    spec.name, False, runs_done,
                    Counterexample(key, a, b, "target marginal is not uniform"),
                )
    return SecrecyReport(spec.name, True, runs_done)


# -- the standard claim suite -----------------------------------------------


def _sum_specs(m: int, k: int, budget: int):
    ring = ring_mod.mod_ring(m)
    proto = SecureSum(ring)
    graph = build_cycle(k)
    domains = tuple(range(m) for _ in range(k))
    specs = []
    for i in range(k):
        others = tuple(j for j in range(k) if j != i)
        specs.append(
            SecrecySpec(
                name=f"secure_sum/Z_{m}/k={k}/P{i + 1} learns only the others' total",
                protocol=proto,
                graph=graph,
                input_domains=domains,
                observer=f"P{i + 1}",
                observer_inputs=(i,),
                protected=others,
                given=lambda inputs, _o, others=others, m=m: sum(
                    inputs[j] for j in others
                ) % m,
                budget=budget,
            )
        )
    return specs


def _commit3_specs(m: int, budget: int):
    ring = ring_mod.mod_ring(m)
    proto = Commit3(ring)
    domains = (range(m), range(m), range(m))
    return [
        SecrecySpec(
            name=f"commit3/Z_{m}/P2 learns nothing about (n1,n3)",
            protocol=proto, input_domains=domains,
            observer="P2", observer_inputs=(1,), protected=(0, 2), budget=budget,
        ),
        SecrecySpec(
            name=f"commit3/Z_{m}/P1 learns only n2+n3",
            protocol=proto, input_domains=domains,
            observer="P1", observer_inputs=(0,), protected=(1, 2),
            given=lambda inputs, _o, m=m: (inputs[1] + inputs[2]) % m, budget=budget,
        ),
        SecrecySpec(
            name=f"commit3/Z_{m}/P3 learns only n1+n2",
            protocol=proto, input_domains=domains,
            observer="P3", observer_inputs=(2,), protected=(0, 1),
            given=lambda inputs, _o, m=m: (inputs[0] + inputs[1]) % m, budget=budget,
        ),
    ]


def _commit2_specs(m: int, budget: int):
    ring = ring_mod.mod_ring(m)
    proto = Commit2Dummy(ring)
    domains = (range(m), range(m))
    return [
        SecrecySpec(
            name=f"commit2_dummy/Z_{m}/D learns only n1+n2",
            protocol=proto, input_domains=domains,
            observer="D", observer_inputs=(), protected=(0, 1),
            given=lambda inputs, _o, m=m: (inputs[0] + inputs[1]) % m, budget=budget,
        ),
        SecrecySpec(
            name=f"commit2_dummy/Z_{m}/A learns nothing about n2",
            protocol=proto, input_domains=domains,
            observer="A", observer_inputs=(0,), protected=(1,), budget=budget,
        ),
        SecrecySpec(
            name=f"commit2_dummy/Z_{m}/B learns nothing about n1",
            protocol=proto, input_domains=domains,
            observer="B", observer_inputs=(1,), protected=(0,), budget=budget,
        ),
    ]


def _millionaires_spec(m: int, budget: int):
    proto = MillionairesCompare(ring_mod.mod_ring(m))
    return SecrecySpec(
        name=f"millionaires/Z_{m}/D learns only n1-n2",
        protocol=proto,
        input_domains=(range(m), range(m)),
        observer="D",
        observer_inputs=(),
        protected=(0, 1),
        given=lambda inputs, _o, m=m: (inputs[0] - inputs[1]) % m,
        budget=budget,
    )


def standard_suite(budget: int = 2_000_000):
    """The package's full set of exhaustively checkable hiding claims."""
    specs = []
    for m in (2, 3):
        for k in (3, 4):
            specs.extend(_sum_specs(m, k, budget))
    for m in (2, 3):
        specs.extend(_commit3_specs(m, budget))
    specs.extend(_commit2_specs(2, budget))
    specs.append(_millionaires_spec(11, budget))
    return specs


def suite_by_name(names=None, budget: int = 2_000_000):
    suite = standard_suite(budget)
    if names is None:
        return suite
    index = {s.name: s for s in suite}
    missing = [n for n in names if n not in index]
    if missing:
        raise ProtocolError(f"unknown secrecy checks: {missing}")
    return [index[n] for n in names]


# -- coalitions --------------------------------------------------------------


@dataclass(frozen=True)
class CoalitionReport:
    """What a contiguous coalition can determine from a sum-protocol run.

    ``learns_inputs`` lists input slots whose exact value the coalition
    pins down (always at least its own); ``learns_complement_sum`` says
    whether the sum of all non-members' inputs becomes known once the
    protocol output is public (it always does, by subtraction).
    """

    coalition: tuple
    learns_inputs: frozenset
    learns_complement_sum: bool


def coalition_closure(g: ChannelGraph, coalition) -> CoalitionReport:
    """Closure of a contiguous coalition's knowledge for the sum protocol.

    Members pooled, they always learn each other's inputs and (given the
    public total) the sum of the others'.  Individual outsider inputs
    fall only to a coalition of k-1: gluing the members into one vertex
    reduces the run to a shorter cycle in which the remaining parties'
    noise still masks everything.  Non-contiguous coalitions are rejected:
    with only cycle channels, members not adjacent along the cycle cannot
    pool knowledge undetected.
    """
    cycle = single_cycle("coalition analysis", g)
    k = len(cycle)
    members = sorted(set(coalition))
    if not 0 < len(members) < k:
        raise ProtocolError("coalition must be a proper non-empty subset")
    positions = sorted(cycle.index(p) for p in members)
    n = len(positions)
    # A block is contiguous iff some start position covers it consecutively mod k.
    pos_set = set(positions)
    contiguous = any(all((s + t) % k in pos_set for t in range(n)) for s in range(k))
    if not contiguous:
        raise ProtocolError("coalition is not contiguous along the cycle")
    if n == k - 1:
        learns = frozenset(range(k))
    else:
        learns = frozenset(members)
    return CoalitionReport(tuple(members), learns, True)


# -- transcript metrics ------------------------------------------------------


@dataclass(frozen=True)
class TransmissionStats:
    """Counts extracted from a deal transcript.

    ``circles[v]`` is the number of complete circles value v made before
    being kept (complete = returned to its introducer); the final value
    is excluded since its keep is deliberately invisible.
    ``active_players[v]`` is how many players were still following their
    counters when v entered circulation; the mean-circles formula applies
    to values with full participation.
    """

    message_count: int
    total_bits: int
    players: int
    circles: dict
    keeper_of: dict
    active_players: dict

    def circle_samples(self) -> list:
        """Circle counts of the values that entered circulation with every player active."""
        return [c for v, c in sorted(self.circles.items())
                if self.active_players[v] == self.players]

    def mean_circles(self) -> float:
        samples = self.circle_samples()
        if not samples:
            raise ProtocolError("no qualifying values in this transcript")
        return sum(samples) / len(samples)


def _payload_bits(payload) -> int:
    if isinstance(payload, tuple):
        return sum(_payload_bits(p) for p in payload)
    if isinstance(payload, int):
        if payload < 0:
            raise ProtocolError("bit accounting expects non-negative payloads")
        return (payload + 1).bit_length()  # = ceil(log2(payload + 2))
    raise ProtocolError(f"bit accounting cannot size payload {payload!r}")


def transmission_stats(t: Transcript) -> TransmissionStats:
    """Message counts, bit totals, and per-value circle counts for a deal."""
    if t.protocol != "card_deal":
        raise ProtocolError(f"transmission stats need a card_deal transcript, got {t.protocol!r}")
    params = t.params
    r, k = int(params["r"]), int(params["k"])
    quotas = params.get("quotas")
    if quotas is None:
        lottery = 0
        if r % k:
            values = [m.payload for m in t.messages if m.label == "quota lottery value"
                      and m.to == "*"]
            if len(values) != 1:
                raise ProtocolError("cannot recover quotas: no lottery broadcast found")
            lottery = int(values[0])
        quotas = even_quotas(r, k, lottery)
    quotas = [int(q) for q in quotas]

    total_bits = sum(_payload_bits(m.payload) for m in t.messages)
    tokens = [(m.frm, int(m.payload)) for m in t.messages if m.kind == "token"
              and m.label == "token"]
    hops: dict[int, int] = {}
    first_sender: dict[int, str] = {}
    for frm, v in tokens:
        hops[v] = hops.get(v, 0) + 1
        first_sender.setdefault(v, frm)
    keeper_of = {v: first_sender[v + 1] for v in range(r) if v + 1 in first_sender}
    circles = {v: -(-hops[v] // k) - 1 for v in range(r) if v in hops}

    names = [p["name"] for p in t.topology["parties"]]
    kept_count = {name: 0 for name in names}
    active_players = {0: k}
    for v in range(1, r):
        if v - 1 >= 1 and (v - 1) in keeper_of:
            kept_count[keeper_of[v - 1]] += 1
        active_players[v] = sum(
            1 for i, name in enumerate(names) if kept_count[name] < quotas[i]
        )
    return TransmissionStats(
        len(t.messages), total_bits, k, circles, keeper_of, active_players
    )
