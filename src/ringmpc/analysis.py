"""The exhaustive secrecy check and transcript metrics.

Each protocol class declares its own claims (``Protocol.claims()``);
``standard_suite`` collects those of the registered classes.

A secrecy claim here is always about distributions, never about single
runs: an observer's view tells it nothing about a protected quantity iff
the view's distribution (over everyone's randomness) is the same for
every value of that quantity consistent with what the observer
legitimately knows.  Because the protocols are unconditionally secure,
the check demands *exact* distribution equality, verified by enumerating
every input assignment and every randomness assignment over a finite
ring and comparing integer counts; no statistical slack is permitted.

An observer is a party name, ``engine.EAVESDROPPER``, or a tuple of
names: a coalition whose semi-honest members pool their views after the
run.  ``engine.view_key`` reads every observer's view from a run's log,
so what a coalition learns is decided by this check like anything else.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import product
from math import prod

from .engine import Protocol, Run, ScriptedSource, Transcript, accept, view_key
from .errors import BudgetExceeded, ProtocolError
from .poker import even_quotas
from .topology import ChannelGraph

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

    def cell_of(self, inputs, outcome):
        """The (group, target) a run counts into: the group is (the observer's own inputs,
        ``given``), and ``given`` is computed before the target."""
        given = self.given(inputs, outcome) if self.given is not None else None
        target = (self.target(inputs, outcome) if self.target is not None
                  else tuple(inputs[i] for i in self.protected))
        return (tuple(inputs[i] for i in self.observer_inputs), given), target


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
    """The graph every run of ``spec`` uses, as ``engine.accept`` checks it and the inputs."""
    return accept(spec.protocol, spec.graph, _first_inputs(spec))


def _run_count(spec: SecrecySpec, sites) -> int:
    return prod(len(d) for d in spec.input_domains) * prod(n for _, n in sites)


def enumerate_runs(spec: SecrecySpec):
    """Yield (inputs, outcome, run) over all inputs x all randomness.

    ``run`` is the finished ``engine.Run``: its ``log`` holds every event,
    and ``run.transcript()`` packages it when a caller wants one.  The
    inputs' count and the graph are checked once, by ``engine.accept``;
    every run then uses the graph it returned.  The parties share
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


def secrecy_enumeration_check(spec: SecrecySpec) -> SecrecyReport:
    """Exhaustively verify one secrecy claim; exact counts, no tolerance.

    Within every group (observer's own inputs plus the ``given`` value),
    independence demands count(view, target) * total == count(view) *
    count(target) for every cell — the integer form of P(view, target) =
    P(view) P(target).  A counterexample names two target values whose
    conditional view distributions differ.

    The tally comes from the compiled path when the protocol's program
    traces to straight-line code, and from the interpreted path, the
    reference, otherwise or when the compiled pass raises.  Both count the
    same runs in the same order; the compiled path keys each view by the
    number it gave the view's values at first sight, and the judge reads
    only the tally, never a view.
    """
    graph = _checked_graph(spec)
    compiled = _compiled_tally(spec, graph)
    return _judge(spec, compiled[0] if compiled is not None else _interpreted_tally(spec, graph))


def _interpreted_tally(spec: SecrecySpec, graph: ChannelGraph) -> dict:
    """Group -> count per (view key, target), over every run played by the protocol's code."""
    tally: dict = defaultdict(Counter)
    key_of = None
    for inputs, outcome, r in _runs(spec, graph):
        # Looked up after the first run: a budget fault, or a fault of the
        # protocol's in that run, is still reported before an unknown observer.
        if key_of is None:
            key_of = view_key(spec.observer, graph)
        group, target = spec.cell_of(inputs, outcome)
        tally[group][key_of(r.log), target] += 1
    return tally


def _compiled_tally(spec: SecrecySpec, graph: ChannelGraph) -> tuple | None:
    """(tally, views): ``_interpreted_tally``'s tally in plain dicts, from ``_compile``'s functions.

    Each distinct tuple of view values gets the next number the first time
    a run gives it, and every cell is keyed by (number, target): the cells
    hash one int, not the view's values.  ``views[n]`` holds the values of
    view n, which ``show`` maps back to the interpreted path's view key:
    every label and constant of the view is the same in every run, so
    equal values are equal views.  One call of the compiled ``tally``
    counts the runs of one input assignment straight into their cells,
    with ``_claim``'s claim.  Each group, cell and number is first seen at
    the first run that gives it, so the groups, cells and views keep the
    interpreted path's order.  None when the program does not compile, and
    when a run, ``given`` or the target raises.
    """
    compiled = _compile(spec, graph)
    if compiled is None:
        return None
    tally, rebuild, _, sites = compiled
    groups: dict = {}
    numbers: dict = {}  # the values of a view -> its number, in number order
    site_domains = [range(n) for _, n in sites]
    for inputs in product(*spec.input_domains):
        try:
            tally(inputs, site_domains, numbers, _claim(spec, rebuild, groups, inputs))
        except Exception:  # the interpreted path raises the fault, in its order
            return None
    return groups, list(numbers)


def _claim(spec: SecrecySpec, rebuild, groups: dict, inputs):
    """The claim of the compiled ``tally`` at ``inputs``: for a run's outcome values, the
    cells of its group in ``groups`` and its target, from the outcome that ``rebuild`` makes."""

    def claim(leaves):
        group, target = spec.cell_of(inputs, rebuild(leaves))
        return groups.setdefault(group, {}), target
    return claim


def _compile(spec: SecrecySpec, graph: ChannelGraph):
    """(tally, rebuild, show, draw sites) of ``TracedRing.compile``, from one traced run.

    None when the program cannot be traced or compiled, when the check is
    over budget, which is known from the trace alone, when the observer is
    unknown, or when the protocol's own code, played at two points,
    differs from the compiled functions there in its draw sites, its whole
    view key (``show`` of the view's values), group or target.  At each
    point ``tally`` counts the one run over one-value domains, with the
    claim ``_compiled_tally`` passes.  The first point is the first
    enumerated run (the first inputs, every draw 0); a fault there is left
    to the interpreted path.  The second is the last input assignment with
    every draw at the top of its domain; a fault there must be the
    compiled fault there too.  The interpreted path then decides, and
    raises whatever it raises, in its own order.  The guard catches a type
    test such as ``isinstance(v, int)``, which a node cannot refuse,
    whenever its two branches give different views or outcomes at either
    point: the test goes the same way at every run.
    """
    # Imported here: of all the package's callers, only a secrecy check needs the tracer.
    from .tracer import trace

    try:
        ring, traced, outcome = trace(spec.protocol, graph, len(spec.input_domains))
        sites = traced.draw_sites
        if _run_count(spec, sites) > spec.budget:
            return None
        key_of = view_key(spec.observer, graph)
        tally, rebuild, show = ring.compile(key_of(traced.log), outcome)
        drawers = {party for party, _ in sites}

        def played(inputs, draws):
            r = Run(spec.protocol, graph, inputs, seed=0,
                    sources=dict.fromkeys(drawers, ScriptedSource(draws)))
            outcome = spec.protocol.program(r)
            return (r.draw_sites, key_of(r.log), *spec.cell_of(inputs, outcome))

        def compiled(inputs, draws):
            groups, numbers = {}, {}
            tally(inputs, [(d,) for d in draws], numbers, _claim(spec, rebuild, groups, inputs))
            (values,), ((group, cells),) = numbers, groups.items()
            ((_, target),) = cells
            view = show(values)
            hash(view)  # the interpreted tally hashes the view's constants too
            return sites, view, group, target

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
    return tally, rebuild, show, sites


def _judge(spec: SecrecySpec, tally: dict) -> SecrecyReport:
    """The report on ``tally``: group -> count per (view, target), in first-seen order.

    A view is anything that stands for one view key and no other; the judge
    reads no view's content.  A group whose cells all hold one count and
    fill its view x target grid passes at once, without its marginals:
    every cell is total / (views x targets), and every target's total is
    the same.  Any other group whose cells fill the grid and each factorize
    passes in one pass over its cells; only a group that fails that pass is
    walked cell by cell over the whole grid, in first-seen order, to name
    its first counterexample.
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
        # Equal cells that fill the grid factorize, and each target's total is one row's.
        if len(set(cells.values())) == 1 and len(cells) == (
                len({vk for vk, _ in cells}) * len({target for _, target in cells})):
            continue
        # The marginals keep first-seen order, which decides the counterexample reported.
        view_totals: dict = {}
        target_totals: dict = {}
        for (vk, target), c in cells.items():
            view_totals[vk] = view_totals.get(vk, 0) + c
            target_totals[target] = target_totals.get(target, 0) + c
        total = sum(cells.values())
        # Independence: every (view, target) cell, a missing one as 0, must factorize
        # exactly.  A missing one never does if the present ones do (their products would
        # sum to less than total**2), so a partial grid skips the pass and is walked.
        if len(cells) != len(view_totals) * len(target_totals) or not all(
                c * total == view_totals[vk] * target_totals[target]
                for (vk, target), c in cells.items()):
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


def standard_suite(budget: int = 2_000_000):
    """The ``claims()`` of every class in ``cli.RUNNERS``, in its order, each with ``budget``."""
    # Imported here: the CLI imports this module.
    from .cli import RUNNERS

    return [replace(spec, budget=budget) for cls in RUNNERS.values() for spec in cls.claims()]


def suite_by_name(names=None, budget: int = 2_000_000):
    suite = standard_suite(budget)
    if names is None:
        return suite
    index = {s.name: s for s in suite}
    missing = [n for n in names if n not in index]
    if missing:
        raise ProtocolError(f"unknown secrecy checks: {missing}")
    return [index[n] for n in names]


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
    if t.protocol.name != "card_deal":
        raise ProtocolError(
            f"transmission stats need a card_deal transcript, got {t.protocol.name!r}")
    cfg = t.protocol.cfg
    r, k, quotas = cfg.r, cfg.k, cfg.quotas
    if quotas is None:
        lottery = 0
        if r % k:
            values = [m.payload for m in t.messages if m.label == "quota lottery value"
                      and m.to == "*"]
            if len(values) != 1:
                raise ProtocolError("cannot recover quotas: no lottery broadcast found")
            lottery = int(values[0])
        quotas = even_quotas(r, k, lottery)

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

    names = [p.name for p in t.graph.parties]
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
