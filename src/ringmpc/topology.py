"""Parties, channel graphs, and the cycle-cover validity gate.

The cycle protocols only hide anything if every participant has secure
degree exactly 2: a vertex of degree 0 leaks to everybody, a vertex of
degree 1 leaks to its single neighbour, and with exactly k secure edges
on k vertices the handshaking count forces the secure subgraph to be a
disjoint union of cycles.  Cycles of length 1 or 2 cannot occur in a
simple graph, so "2-regular" is the whole acceptance condition; the
protocols that use a star around a dummy declare their own channel sets
and are checked against those instead, each through ``require_secure``.
The player cycle with a hub beside it (a dealer, an aggregator) is built
by ``hub_graph`` and gated by ``require_hub``.

A graph is a value: its parties and edges are fixed when it is built, so
the sorted edge list, the validation verdict and the cycle walk are each
computed at most once per graph and kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import ProtocolError, TopologyError
from .jsonvalues import json_bool, json_field, json_int, json_list, json_object

SECURE = "secure"
INSECURE = "insecure"


class Party(NamedTuple):
    """A protocol participant.  ``index`` is its position among its graph's parties;
    ``full=False`` marks a dummy with no randomness."""

    index: int
    name: str
    full: bool = True


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


class ChannelGraph:
    """Undirected channel graph over k parties, each edge secure or insecure, fixed once built."""

    def __init__(self, parties, edges=()):
        self.parties = tuple(parties)
        k = len(self.parties)
        # A party's index is its position: the engine reads a party by either.
        indices = [p.index for p in self.parties]
        if indices != [*range(k)]:
            if len(set(indices)) != k:
                raise TopologyError("duplicate party indices")
            i = next(i for i, index in enumerate(indices) if index != i)
            raise TopologyError(f"party {self.parties[i].name!r} at position {i} has index "
                                f"{indices[i]}; a party's index is its position")
        if len({p.name for p in self.parties}) != k:
            raise TopologyError("duplicate party names")
        self._security: dict[tuple[int, int], str] = {}  # both orientations of each edge
        for i, j, security in edges:
            if i == j:
                raise TopologyError(f"self-loop at vertex {i}")
            if not (0 <= i < k and 0 <= j < k):
                raise TopologyError(f"edge ({i},{j}) references an unknown vertex")
            if security not in (SECURE, INSECURE):
                raise TopologyError(f"bad channel security {security!r}")
            if (i, j) in self._security:
                raise TopologyError(f"duplicate edge ({i},{j})")
            self._security[i, j] = self._security[j, i] = security

    @property
    def k(self) -> int:
        return len(self.parties)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self._security

    def security(self, i: int, j: int) -> str:
        try:
            return self._security[i, j]
        except KeyError:
            raise TopologyError(f"no channel between {i} and {j}") from None

    def edges(self) -> tuple:
        """Edges as sorted (i, j, security) triples, deterministic order."""
        return self._edges

    @cached_property
    def _edges(self) -> tuple:
        return tuple(sorted((i, j, sec) for (i, j), sec in self._security.items() if i < j))

    @cached_property
    def _verdict(self) -> ValidationResult:
        return ValidationResult(*validate_secure_edges(self.k, self.secure_pairs()))

    @cached_property
    def _cycles(self) -> tuple:
        result = validate_topology(self)
        if not result:
            raise TopologyError(result.reason)
        # The edge map holds both orientations, so each vertex lists both its secure neighbours.
        adj = [[] for _ in range(self.k)]
        for (i, j), security in self._security.items():
            if security == SECURE:
                adj[i].append(j)
        seen = [False] * self.k
        cycles = []
        for start in range(self.k):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            prev, cur = start, min(adj[start])
            while cur != start:
                cycle.append(cur)
                seen[cur] = True
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
            cycles.append(tuple(cycle))
        return tuple(cycles)

    def secure_pairs(self):
        return [(i, j) for i, j, sec in self.edges() if sec == SECURE]

    def to_config(self) -> dict:
        return {
            "k": self.k,
            "parties": [{"name": p.name, "full": p.full} for p in self.parties],
            "edges": [[i, j, sec] for i, j, sec in self.edges()],
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "ChannelGraph":
        if "cycle" in cfg:
            return build_cycle(json_field(cfg, "cycle"))
        k = json_field(cfg, "k")
        specs = json_field(cfg, "parties", _objects, None)
        if specs is None:
            parties = default_parties(k)
        else:
            if len(specs) != k:
                raise ValueError(f"'k': {k}, but {len(specs)} parties are listed")
            parties = [
                Party(i, _name(i, s.get("name", f"P{i + 1}")),
                      json_field(s, "full", json_bool, True))
                for i, s in enumerate(specs)
            ]
        return cls(parties, json_field(cfg, "edges", _edges, ()))


def _name(i: int, name) -> str:
    if not isinstance(name, str):
        raise ProtocolError(f"party {i} is named {name!r}; a party name is a string")
    return name


def _objects(raw) -> list:
    """A JSON list of JSON objects, such as the party specs of a topology."""
    return list(map(json_object, json_list(raw)))


def _edges(raw) -> list:
    """(i, j, security) triples from a JSON list of [i, j, security] lists, i and j integers."""
    edges = []
    for edge in map(json_list, json_list(raw)):
        if len(edge) != 3:
            raise ValueError(f"{edge!r} is not [i, j, security]")
        if edge[2] not in (SECURE, INSECURE):
            raise ValueError(f"the security of {edge!r} is not {SECURE!r} or {INSECURE!r}")
        edges.append((json_int(edge[0]), json_int(edge[1]), edge[2]))
    return edges


# The most parties P1..Pk a graph may name: a secure sum of 2**14 parties runs in 0.27 s,
# serializes in 0.04 s (4.1 MB) and replays in 0.36 s, under a second as a deal's
# MAX_DEAL_HOPS is (CPython 3.11 on a shared 2-core x86-64).
MAX_PARTIES = 2**14


def default_parties(k: int) -> list[Party]:
    """Parties P1..Pk, every graph that names its parties so is built from; at most MAX_PARTIES."""
    if k > MAX_PARTIES:
        raise ProtocolError(f"a graph of {k} parties is above the bound {MAX_PARTIES}")
    # tuple.__new__ skips the named tuple's Python-level __new__: a quarter less time at k = 300.
    return [tuple.__new__(Party, (i, f"P{i + 1}", True)) for i in range(k)]


def build_cycle(k: int) -> ChannelGraph:
    """Secure cycle P1 -> P2 -> ... -> Pk -> P1.  Needs k >= 3 parties."""
    if k < 3:
        raise TopologyError(f"a cycle of secure channels needs at least 3 parties, got {k}")
    g = ChannelGraph(default_parties(k))
    # k distinct secure edges, valid by construction, go straight into the edge map: through
    # the constructor's checks, building and walking a large cycle takes about a fifth longer.
    for i in range(k):
        g._security[i, (i + 1) % k] = g._security[(i + 1) % k, i] = SECURE
    # The edge list is written in its sorted order, so no first ``edges()`` sorts it.
    g._edges = ((0, 1, SECURE), (0, k - 1, SECURE),
                *[(i, i + 1, SECURE) for i in range(1, k - 1)])
    return g


def hub_graph(k: int, hub: str, spokes, security: str) -> ChannelGraph:
    """A secure cycle of players P1..Pk plus the party ``hub`` at index k (a dealer or an
    aggregator), with a channel of ``security`` to each player in ``spokes``."""
    if k < 3:
        raise TopologyError(f"a player cycle with a hub needs at least 3 players, got {k}")
    parties = default_parties(k) + [Party(k, hub)]
    edges = [(i, (i + 1) % k, SECURE) for i in range(k)] + [(i, k, security) for i in spokes]
    return ChannelGraph(parties, edges)


def dummy_triangle() -> ChannelGraph:
    """Real parties A and B plus a dummy D, all three links secure."""
    parties = [Party(0, "A"), Party(1, "B"), Party(2, "D", full=False)]
    return ChannelGraph(parties, [(0, 1, SECURE), (0, 2, SECURE), (1, 2, SECURE)])


def players_subgraph(g: ChannelGraph, k: int) -> ChannelGraph:
    """The subgraph on parties 0..k-1: the players without the hub (dealer, aggregator) at k."""
    parties = [p for p in g.parties if p.index < k]
    return ChannelGraph(parties, [(i, j, sec) for i, j, sec in g.edges() if i < k and j < k])


def single_cycle(name: str, g: ChannelGraph) -> list[int]:
    """The one secure cycle of ``g``; TopologyError naming ``name`` unless there is exactly one."""
    result = validate_topology(g)
    if not result:
        raise TopologyError(f"{name}: {result.reason}")
    cycles = secure_cycles(g)
    if len(cycles) != 1:
        raise TopologyError(f"{name} runs on a single cycle")
    return cycles[0]


def require_hub(name: str, g: ChannelGraph, k: int) -> None:
    """TopologyError naming ``name`` unless ``g`` is k players on one secure cycle (as
    ``single_cycle`` accepts it) and a hub, party k; the hub's channels are not checked."""
    if g.k != k + 1:
        raise TopologyError(f"{name} with k={k} needs {k + 1} parties: {k} players and a hub")
    single_cycle(name, players_subgraph(g, k))


def require_secure(name: str, g: ChannelGraph, pairs) -> None:
    """TopologyError naming ``name`` at the first of ``pairs`` that is not a secure channel."""
    for i, j in pairs:
        if g._security.get((i, j)) != SECURE:
            raise TopologyError(f"{name} needs a secure channel between parties {i} and {j}")


def validate_secure_edges(k: int, pairs) -> tuple[bool, str | None]:
    """Core acceptance test: is the secure subgraph a disjoint cycle union?

    ``pairs`` is an iterable of distinct unordered vertex pairs.  In a
    simple graph, "every vertex has secure degree exactly 2" is
    equivalent to "disjoint union of cycles of length >= 3".
    """
    deg = [0] * k
    for i, j in pairs:
        deg[i] += 1
        deg[j] += 1
    for v, d in enumerate(deg):
        if d != 2:
            return False, f"vertex {v} has secure degree {d}, a cycle cover needs exactly 2"
    return True, None


def validate_topology(g: ChannelGraph) -> ValidationResult:
    """Accept iff the secure subgraph is a disjoint union of cycles of length >= 3."""
    return g._verdict


def secure_cycles(g: ChannelGraph) -> list[list[int]]:
    """The secure components as ordered vertex cycles.

    Each cycle starts at its lowest-index vertex and proceeds to that
    vertex's lower-indexed neighbour, giving a deterministic orientation.
    Raises TopologyError if the graph is not a valid cycle cover.
    """
    return [list(cycle) for cycle in g._cycles]

