"""Deterministic protocol execution: scheduling, transcripts, and views.

Every protocol in this package is sequential token passing, so the
engine is a single logical thread that plays the protocol's steps in
narrative order.  What the engine adds on top of the protocol code is
discipline and evidence:

* every transmission must traverse a declared channel: ``Run.send`` looks
  the channel up on each call, and ``Run.sender`` once for a function
  that sends over it, as the card deal's token does hundreds of times;
  both build their events with one helper;
* each full party owns a deterministic random generator seeded from the
  run seed and its party index at its first draw, while a dummy owns
  none, even when ``sources`` names it, and any draw attempt raises
  ``DummyRandomnessError``.
  ``Run.rand_int`` looks the party's source up on each call, and
  ``Run.drawer`` once for a function that makes the same draw, as the
  card deal's counters do hundreds of times;
* every note, send and broadcast is appended once to an event log,
  tagged with its audience: one party, a sender/receiver pair (plus the
  eavesdropper on an insecure channel), or everyone.  A send or broadcast
  also carries its route (sender, receiver, security, kind).  A party's
  view is the log filtered to the events it is in the audience of, by
  ``view_key``, computed only when someone asks for it, so a broadcast
  to k parties costs one entry, not k.  A logged value is an int, a
  string or a tuple of them, never a list, so that a view is hashable
  as it stands;
* every draw is appended once to a list of draw sites.  A noise draw
  computes its domain size once: the run draws an index below it from the
  party's source, and the ring maps the index to an element with
  ``RingSpec.noise_at``.

The log and the draw sites are the only records of a run.  The
transcript's messages, numbered by their order among the sends and
broadcasts, its serialized text and its per-party draw counts are all
derived from them.  A transcript keeps the run's protocol, graph, inputs
and seed themselves, and serializing writes the header from them: the
protocol's name, ring and ``params()``, the graph's parties and edges.
Each message line, and the header's topology, are f-strings with every
name quoted once; the encoder writes the rest of the header.  Parsing a
transcript decodes each message line with one scan of the C JSON
scanner; a line the scan does not take whole as a record goes through
``json.loads``, whose messages name the fault.

Randomness goes through a single ``randrange``-shaped interface, so a
test can replace a party's generator with a scripted source and
enumerate the entire noise space of a run exhaustively.  The enumeration
(``analysis.enumerate_runs``) checks the inputs' count and the graph
once (``accept``), then builds each ``Run`` directly, calls the protocol's
``program`` and yields the finished run, whose log the secrecy check
reads; an enumerated run builds no transcript.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, is_dataclass
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

from .errors import DummyRandomnessError, PhaseError, ProtocolError, ReplayError, TopologyError
from .jsonvalues import json_field, json_ints
from .ring import RingSpec, integers
from .topology import (ChannelGraph, INSECURE, build_cycle, dummy_triangle, require_secure,
                       validate_topology)

BROADCAST = "*"
EAVESDROPPER = "eavesdropper"

# Audience tags of log events: a tuple of party indices, with TAPPED added
# when the event crossed an insecure channel, or EVERYONE for a broadcast,
# which is also a broadcast's receiver in its route.
EVERYONE = None
TAPPED = -1

COMMITTED = "committed"
REVEALED = "revealed"

# One encoder for every transcript line: json.dumps would build a new one per call.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# The C scanner of json.loads: a value from an index, no whitespace skipped, no end check.
_SCAN = json.JSONDecoder().scan_once
_FIELDS = frozenset(("seq", "from", "to", "security", "kind", "payload"))


class Message(NamedTuple):
    seq: int
    frm: str
    to: str  # party name, or "*" for broadcast
    security: str
    kind: str  # "elem" | "elems" | "token" | "indices"
    payload: Any
    label: str


@dataclass(frozen=True)
class View:
    """Everything one observer knows after a run: ordered (label, value) pairs."""

    observer: str
    entries: tuple

    def values(self, label: str) -> list:
        return [v for lbl, v in self.entries if lbl == label]

    def value(self, label: str):
        vals = self.values(label)
        if len(vals) != 1:
            raise KeyError(f"{label!r} appears {len(vals)} times in {self.observer}'s view")
        return vals[0]

    def labels(self) -> list[str]:
        return [lbl for lbl, _ in self.entries]

    def key(self) -> tuple:
        """Hashable identity of the view's content (for distribution counting)."""
        return self.entries


def merge_views(*views: View) -> View:
    name = "+".join(v.observer for v in views)
    entries = tuple((f"{v.observer}:{lbl}", val) for v in views for lbl, val in v.entries)
    return View(name, entries)


@dataclass
class Transcript:
    """A run's protocol, graph and inputs, as the run holds them, with its event log and draw
    sites; views, messages and the serialized header are read from them."""

    protocol: Protocol
    seed: int
    graph: ChannelGraph
    inputs: Any
    log: tuple  # (audience, (label, value), route) events, as of when the transcript was taken
    draw_sites: tuple = ()  # ordered (party index, domain size) per draw

    @cached_property
    def views(self) -> dict:
        """Party name -> tuple of (label, value), filtered from the log on first access."""
        return {p.name: _entries_for(self.log, p.index) for p in self.graph.parties}

    @cached_property
    def messages(self) -> tuple:
        """The log's sends and broadcasts, numbered in log order."""
        names = {p.index: p.name for p in self.graph.parties}
        names[EVERYONE] = BROADCAST
        routed = [(route, entry) for _, entry, route in self.log if route is not None]
        return tuple(
            Message(seq, names[frm], names[to], security, kind, payload, label)
            for seq, ((frm, to, security, kind), (label, payload)) in enumerate(routed)
        )

    @cached_property
    def draw_counts(self) -> dict:
        """Party name -> number of randomness draws."""
        names = [p.name for p in self.graph.parties]
        counts = dict.fromkeys(names, 0)
        for party, _ in self.draw_sites:
            counts[names[party]] += 1
        return counts

    def serialize(self) -> str:
        # The header's topology is written like each message line: the text _JSON would write,
        # keys sorted, every name, kind and security quoted once.  _JSON writes the other meta
        # fields; the topology, the last of them in key order, goes before the closing braces.
        quoted, encode, protocol = _Quoted(), _JSON.encode, self.protocol
        parties = self.graph.parties
        names = {p.index: quoted[p.name] for p in parties}
        listed = ",".join([f'{{"full":{"true" if p.full else "false"},"name":{names[p.index]}}}'
                           for p in parties])
        edges = ",".join([f"[{i},{j},{quoted[security]}]" for i, j, security in self.graph.edges()])
        meta = encode({"meta": {
            "protocol": protocol.name,
            "ring": protocol.ring.to_config(),
            "seed": self.seed,
            "inputs": _encode(self.inputs),
            "params": _encode(protocol.params()),
        }})
        names[EVERYONE] = quoted[BROADCAST]
        lines = [f'{meta[:-2]},"topology":{{"edges":[{edges}],"k":{len(parties)},'
                 f'"parties":[{listed}]}}}}}}']
        seq = 0
        try:
            for _, (_, payload), route in self.log:
                if route is None:
                    continue
                frm, to, security, kind = route
                text = f'"{payload}"' if type(payload) is int else encode(_encode(payload))
                lines.append(f'{{"from":{names[frm]},"kind":{quoted[kind]},"payload":{text},'
                             f'"security":{quoted[security]},"seq":{seq},"to":{names[to]}}}')
                seq += 1
        except ValueError as e:
            raise _unwritable(e) from None
        return "\n".join(lines) + "\n"


class _Quoted(dict):
    """Text -> the text as _JSON writes it, quoted on first lookup."""

    def __missing__(self, text: str) -> str:
        value = self[text] = encode_basestring_ascii(text)
        return value


def _entries_for(log, who: int) -> tuple:
    """The (label, value) entries of the log events whose audience includes ``who``."""
    return tuple(entry for audience, entry, _ in log if audience is EVERYONE or who in audience)


def _encode(value):
    """JSON-safe encoding with arbitrary-precision ints as decimal strings."""
    try:
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, int):
            return str(value)
        if isinstance(value, str):
            return value
        if isinstance(value, dict):
            return {k: _encode(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [str(v) if type(v) is int else _encode(v) for v in value]
    except ValueError as e:
        raise _unwritable(e) from None
    raise TypeError(f"cannot encode {value!r}")


def _unwritable(e: ValueError) -> ProtocolError:
    """An int longer than Python writes as a decimal (``sys.get_int_max_str_digits``)."""
    return ProtocolError(f"a value too long to write as a decimal: {e}")


def _loads(line: str):
    """``json.loads(line)``: one scan unless the line is padded or malformed.

    Any line the scan does not take whole goes to ``json.loads``, so exactly
    its lines are accepted, and its messages name the faults.
    """
    try:
        value, end = _SCAN(line, 0)
        if end == len(line):
            return value
    except (StopIteration, json.JSONDecodeError):
        pass
    return json.loads(line)


def _meta(line: str, n: int) -> dict:
    """The metadata of a transcript header, line ``n`` of the text."""
    try:
        head = _loads(line)
    except json.JSONDecodeError as e:
        raise ReplayError(f"unreadable transcript header: {e}") from None
    if not isinstance(head, dict):
        raise ReplayError(f"transcript header at line {n} is a JSON {type(head).__name__}, "
                          "not an object")
    if "meta" not in head:
        raise ReplayError("transcript header has no metadata")
    return head["meta"]


def parse_header(text: str) -> dict:
    """The metadata of the header, the first non-blank line; the lines after it are not read."""
    start, n = 0, 1
    while True:
        end = text.find("\n", start)
        line = text[start:] if end < 0 else text[start:end]
        if line.strip():
            return _meta(line, n)
        if end < 0:
            raise ReplayError("empty transcript")
        start, n = end + 1, n + 1


def parse_transcript(text: str) -> tuple[dict, list[dict]]:
    """Split serialized transcript text into (meta, message dicts).

    Raises ReplayError for anything structurally unusable; tampered but
    well-formed payloads are left for the replay comparison to flag.
    Line numbers in the errors count every line of the text, blank or not.
    A body line is decoded by one scan; a line the scan does not take whole
    as a record, or cannot start, goes to ``_record`` unless it is blank.
    """
    lines = text.split("\n")
    h = next((n for n, line in enumerate(lines) if line.strip()), None)
    if h is None:
        raise ReplayError("empty transcript")
    meta, records = _meta(lines[h], h + 1), []
    for n in range(h + 1, len(lines)):
        line = lines[n]
        try:
            rec, end = _SCAN(line, 0)
            if end == len(line) and type(rec) is dict and _FIELDS <= rec.keys():
                records.append(rec)
                continue
        except (StopIteration, json.JSONDecodeError):
            if not line.strip():
                continue
        records.append(_record(line, n + 1))
    return meta, records


def _record(line: str, n: int) -> dict:
    """The message record on the non-blank line ``line``, line ``n`` of the text."""
    try:
        rec = _loads(line)
    except json.JSONDecodeError as e:
        raise ReplayError(f"truncated or corrupt transcript at line {n}: {e}") from None
    if not isinstance(rec, dict):
        raise ReplayError(f"message record at line {n} is a JSON {type(rec).__name__}, "
                          "not an object")
    if not _FIELDS <= rec.keys():
        raise ReplayError(f"message record at line {n} is missing fields")
    return rec


class ScriptedSource:
    """Randomness source that replays prescribed draw indices.

    Each ``randrange(n)`` consumes one prescribed value, which must lie
    in ``range(n)``.  Used by the enumeration harness to sweep a
    protocol's entire randomness space.
    """

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0

    def randrange(self, n: int) -> int:
        if self.pos >= len(self.values):
            raise IndexError("scripted source exhausted")
        v = self.values[self.pos]
        self.pos += 1
        if not 0 <= v < n:
            raise ValueError(f"scripted value {v} outside range({n})")
        return v


class Protocol:
    """One runnable protocol: a name, a ring, a topology contract, and a program.

    ``program(run)`` drives the run through the protocol's steps and
    returns the outcome; it reads the graph that ``check_graph`` accepted
    and checks nothing more of it.  The class is the protocol's whole
    description; the CLI's ``run`` and ``replay`` use only its hooks.
    ``from_params`` inverts ``params``; ``arity`` and ``decode_inputs``
    check and decode the inputs; ``default_graph(k)``, a secure k-cycle
    unless overridden, serves when no graph is given; ``encode`` gives the
    outcome as JSON; a two-phase protocol defines ``reveal(session,
    tamper)``, which follows ``program`` as its commit phase; ``claims()``
    gives the protocol's exhaustive secrecy claims (``analysis.SecrecySpec``).
    """

    name = "?"
    result = "value"
    arity: int | None = None
    reveal = None

    def __init__(self, ring: RingSpec | None = None):
        self.ring = ring if ring is not None else integers()

    @classmethod
    def from_params(cls, ring: RingSpec, params: dict, inputs: tuple) -> "Protocol":
        return cls(ring, **{key: json_field(params, key) for key in params})

    def params(self) -> dict:
        return {}

    @classmethod
    def decode_inputs(cls, raw) -> tuple:
        return json_ints(raw)

    @classmethod
    def encode(cls, outcome) -> dict:
        """The outcome as JSON, every integer a decimal string: a dataclass by its fields,
        a dict as itself, anything else under the key ``result``."""
        if is_dataclass(outcome):
            outcome = asdict(outcome)
        return _encode(outcome if isinstance(outcome, dict) else {cls.result: outcome})

    @classmethod
    def claims(cls):
        return ()

    def default_graph(self, k: int) -> ChannelGraph:
        return build_cycle(k)

    def check_graph(self, g: ChannelGraph) -> None:
        result = validate_topology(g)
        if not result:
            raise TopologyError(f"{self.name}: {result.reason}")

    def program(self, run: "Run"):
        raise NotImplementedError


class DummyTriangleProtocol(Protocol):
    """A protocol between A, B and a dummy D, all three pairwise linked securely."""

    def default_graph(self, k: int) -> ChannelGraph:
        return dummy_triangle()

    def check_graph(self, g: ChannelGraph) -> None:
        if g.k != 3:
            raise TopologyError(f"{self.name} runs between A, B and a dummy")
        require_secure(self.name, g, ((0, 1), (0, 2), (1, 2)))


# The source of a full party that has not drawn yet.
_UNSEEDED = object()


class Run:
    """Mutable state of one protocol execution."""

    def __init__(self, protocol, graph, inputs, seed, sources=None):
        self.protocol = protocol
        self.graph = graph
        self.ring = protocol.ring
        self.inputs = tuple(inputs)
        self.seed = seed
        self.log: list[tuple] = []  # (audience, (label, value), route) per note, send, broadcast
        # party index -> its source; a dummy's is None, whatever ``sources`` says, and a full
        # party's own ``random.Random(f"{seed}/{i}")`` is built at its first draw, in
        # ``_source`` or ``drawer``, so a party that never draws costs no seeding
        self._sources = {
            p.index: None if not p.full
            else sources[p.index] if sources is not None and p.index in sources
            else _UNSEEDED
            for p in graph.parties
        }
        self.draw_sites: list[tuple[int, int]] = []  # (party index, domain size) per draw

    # -- party helpers -------------------------------------------------

    def name(self, i: int) -> str:
        return self.graph.parties[i].name

    # -- randomness ----------------------------------------------------

    def _source(self, party: int, n: int):
        """The party's source, with one draw over range(n) counted against it."""
        source = self._sources[party]
        if source is _UNSEEDED:
            source = self._sources[party] = random.Random(f"{self.seed}/{party}")
        elif source is None:
            raise DummyRandomnessError(
                f"dummy party {self.name(party)} attempted to draw randomness")
        self.draw_sites.append((party, n))
        return source

    def rand_int(self, party: int, lo: int, hi: int, label: str) -> int:
        """Uniform integer in [lo, hi]."""
        n = hi - lo + 1
        v = lo + self._source(party, n).randrange(n)
        self.note(party, label, v)
        return v

    def drawer(self, party: int, lo: int, hi: int, label: str):
        """``rand_int(party, lo, hi, label)`` as a function of no arguments, the source, the
        audience and the draw site looked up once, here; each call appends the draw site and
        the note ``rand_int`` would.  A dummy's drawer raises when it is called, as ``rand_int``
        does."""
        n = hi - lo + 1
        source = self._sources[party]
        if source is _UNSEEDED:
            source = self._sources[party] = random.Random(f"{self.seed}/{party}")
        elif source is None:
            return partial(self._source, party, n)
        randrange, site, audience = source.randrange, (party, n), (party,)
        count, append = self.draw_sites.append, self.log.append

        def draw() -> int:
            count(site)
            v = lo + randrange(n)
            append((audience, (label, v), None))
            return v

        return draw

    def noise(self, party: int, label: str, require_unit: bool = False) -> int:
        """Draw ring noise for ``party`` and record it in the party's view."""
        ring = self.ring
        n = ring.noise_domain(require_unit)
        v = ring.noise_at(self._source(party, n).randrange(n), require_unit)
        self.log.append(((party,), (label, v), None))
        return v

    # -- knowledge and transmission -------------------------------------

    def note(self, party: int, label: str, value) -> None:
        """Record a privately held value (input, noise, local result) in a view."""
        self.log.append(((party,), (label, value), None))

    def note_inputs(self) -> list:
        """Every input normalized in the ring, party i's noted as ``n{i+1}`` in its view."""
        values = [self.ring.normalize(v) for v in self.inputs]
        self.log.extend([((i,), (f"n{i + 1}", v), None) for i, v in enumerate(values)])
        return values

    def _channel(self, frm: int, to: int, kind: str) -> tuple:
        """The (audience, route) of a send over the channel from ``frm`` to ``to``."""
        security = self.graph.security(frm, to)  # raises if not a channel
        audience = (frm, to, TAPPED) if security == INSECURE else (frm, to)
        return audience, (frm, to, security, kind)

    def send(self, frm: int, to: int, value, label: str, kind: str = "elem") -> None:
        audience, route = self._channel(frm, to, kind)
        self.log.append((audience, (label, value), route))

    def sender(self, frm: int, to: int, kind: str = "elem"):
        """``send`` from ``frm`` to ``to`` as a function of (value, label), the channel
        looked up once, here; each call appends the event ``send`` would append."""
        audience, route = self._channel(frm, to, kind)
        append = self.log.append

        def send(value, label: str) -> None:
            append((audience, (label, value), route))

        return send

    def broadcast(self, frm: int, value, label: str, kind: str = "elem") -> None:
        """One message visible to every party and to the eavesdropper."""
        self.log.append((EVERYONE, (label, value), (frm, EVERYONE, INSECURE, kind)))

    # -- packaging -------------------------------------------------------

    def transcript(self) -> Transcript:
        """A snapshot: events logged after this call do not show in it."""
        return Transcript(self.protocol, self.seed, self.graph, self.inputs, tuple(self.log),
                          tuple(self.draw_sites))


def run(protocol: Protocol, graph: ChannelGraph | None = None, inputs=(), seed: int = 0,
        sources=None):
    """Execute ``protocol`` and return (outcome, transcript).

    Same (protocol, graph, inputs, seed) always produces an identical
    transcript.  ``sources`` optionally overrides per-party randomness
    with scripted sources, keyed by party index.
    """
    r = start(protocol, graph, inputs, seed, sources=sources)
    outcome = protocol.program(r)
    return outcome, r.transcript()


def accept(protocol: Protocol, graph: ChannelGraph | None, inputs) -> ChannelGraph:
    """The graph a run of ``protocol`` on ``inputs`` uses, ``graph`` or the protocol's own, once
    checked: a fixed ``arity`` first, then the graph; without an arity, one input per party."""
    if protocol.arity is not None and len(inputs) != protocol.arity:
        raise ProtocolError(f"{protocol.name} takes {protocol.arity} inputs, got {len(inputs)}")
    g = graph if graph is not None else protocol.default_graph(len(inputs))
    protocol.check_graph(g)
    if protocol.arity is None and len(inputs) != g.k:
        raise ProtocolError(f"{protocol.name} takes {g.k} inputs, one per party, got {len(inputs)}")
    return g


def start(protocol: Protocol, graph: ChannelGraph | None = None, inputs=(), seed: int = 0,
          sources=None) -> Run:
    """A fresh ``Run`` of ``protocol`` on the graph that ``accept`` gives."""
    return Run(protocol, accept(protocol, graph, inputs), inputs, seed, sources=sources)


@dataclass
class Session:
    """An open two-phase run: the commit phase has run, the reveal has not.

    ``ledgers`` is what the commit phase's ``program`` returned; the reveal
    of ``run.protocol`` reads it and sends the reveal messages on ``run``.
    A reveal closes the session, also one that detects a cheat.
    """

    ledgers: Any
    run: Run
    phase: str = COMMITTED

    @property
    def transcript(self) -> Transcript:
        return self.run.transcript()

    def reveal(self, tamper: dict | None = None):
        """Run the reveal phase; ``tamper`` substitutes reveal payloads by message label."""
        if self.phase != COMMITTED:
            raise PhaseError(
                f"{self.run.protocol.name} reveal needs phase {COMMITTED!r}, "
                f"session is {self.phase!r}"
            )
        self.phase = REVEALED
        return self.run.protocol.reveal(self, tamper or {})


def commit(protocol: Protocol, graph: ChannelGraph | None = None, inputs=(), seed: int = 0,
           sources=None) -> Session:
    """Run the commit phase of a two-phase ``protocol``; the session reveals later."""
    r = start(protocol, graph, inputs, seed, sources=sources)
    return Session(protocol.program(r), r)


def view_key(observer, graph: ChannelGraph):
    """A function from a run's log to the ``View.key()`` of ``observer``, the one observer filter.

    The observer is a party name, ``EAVESDROPPER`` or a tuple of names, a
    coalition whose members' views ``merge_views`` pools.  Each name is
    mapped to its party index once, here, and an unknown name is a KeyError.
    A party named like ``EAVESDROPPER`` is that party.
    """
    index = {p.name: p.index for p in graph.parties}
    if observer == EAVESDROPPER and observer not in index:
        return lambda log: _entries_for(log, TAPPED)

    def party(name):
        try:
            return index[name]
        except KeyError:
            raise KeyError(f"{name!r} did not participate in this run") from None

    if isinstance(observer, tuple):
        members = [(name, party(name)) for name in observer]
        return lambda log: merge_views(
            *(View(name, _entries_for(log, i)) for name, i in members)).key()
    i = party(observer)
    return lambda log: _entries_for(log, i)


def extract_view(t: Transcript, party: str) -> View:
    """The named party's knowledge: inputs, own noise, incident messages, broadcasts."""
    return View(party, view_key(party, t.graph)(t.log))


def eavesdropper_view(t: Transcript) -> View:
    """Everything that crossed an insecure channel or was broadcast."""
    return View(EAVESDROPPER, _entries_for(t.log, TAPPED))
