import random

import pytest

import ringmpc.engine as engine
import ringmpc.ring as rr
from ringmpc.arithmetic import MillionairesCompare, SecureRating, SecureSum, rating_graph
from ringmpc.commitment import CommitK
from ringmpc.engine import run
from ringmpc.errors import ProtocolError, TopologyError
from ringmpc.poker import CardDeal, CollectiveRandom, DealConfig
from ringmpc.sharing import ShareSecret, sharing_graph
from ringmpc.topology import (
    MAX_PARTIES,
    SECURE,
    ChannelGraph,
    Party,
    build_cycle,
    default_parties,
    dummy_triangle,
    hub_graph,
    single_cycle,
    validate_topology,
)


def test_build_cycle_3():
    g = build_cycle(3)
    assert {(i, j) for i, j, _ in g.edges()} == {(0, 1), (1, 2), (0, 2)}
    assert all(sec == "secure" for _, _, sec in g.edges())


def test_build_cycle_5_degrees():
    g = build_cycle(5)
    assert len(g.edges()) == 5
    deg = {v: 0 for v in range(5)}
    for i, j, _ in g.edges():
        deg[i] += 1
        deg[j] += 1
    assert set(deg.values()) == {2}


def test_two_parties_rejected():
    with pytest.raises(TopologyError):
        build_cycle(2)


def test_validate_accepts_cycle():
    assert validate_topology(build_cycle(3))


def test_validate_rejects_path():
    g = ChannelGraph(default_parties(3), [(0, 1, "secure"), (1, 2, "secure")])
    result = validate_topology(g)
    assert not result
    assert "degree 1" in result.reason
    assert "vertex 0" in result.reason or "vertex 2" in result.reason


def test_validate_accepts_two_disjoint_triangles():
    # Every vertex has secure degree 2, but the protocols' gate wants one cycle through all.
    edges = [(0, 1, "secure"), (1, 2, "secure"), (0, 2, "secure"),
             (3, 4, "secure"), (4, 5, "secure"), (3, 5, "secure")]
    g = ChannelGraph(default_parties(6), edges)
    assert validate_topology(g)
    with pytest.raises(TopologyError, match="^two triangles runs on a single cycle$"):
        single_cycle("two triangles", g)


def test_a_graph_of_no_parties_is_no_single_cycle():
    g = ChannelGraph([])
    assert validate_topology(g)
    with pytest.raises(TopologyError, match="^nobody runs on a single cycle$"):
        single_cycle("nobody", g)


def test_validate_rejects_triangle_with_extra_degree():
    # 4 secure edges on 4 vertices with a degree-3 vertex
    edges = [(0, 1, "secure"), (1, 2, "secure"), (0, 2, "secure"), (0, 3, "secure")]
    g = ChannelGraph(default_parties(4), edges)
    result = validate_topology(g)
    assert not result
    assert "degree 3" in result.reason or "degree 1" in result.reason


def _cycle_edges(k, security="secure"):
    return [(i, (i + 1) % k, security) for i in range(k)]


def test_duplicate_edge_rejected_at_construction():
    for extra in ((0, 1, "secure"), (1, 0, "insecure")):
        with pytest.raises(TopologyError, match="duplicate edge"):
            ChannelGraph(default_parties(3), _cycle_edges(3) + [extra])


def test_self_loop_rejected():
    with pytest.raises(TopologyError):
        ChannelGraph(default_parties(3), [(1, 1, "secure")])


@pytest.mark.parametrize("k", list(range(3, 65)))
def test_all_cycles_validate(k):
    assert validate_topology(build_cycle(k))


def test_insecure_edges_do_not_count_for_the_cycle_cover():
    # an insecure chord beside a secure 4-cycle leaves it valid
    g4 = ChannelGraph(default_parties(4), _cycle_edges(4) + [(0, 2, "insecure")])
    assert validate_topology(g4)
    assert single_cycle("g4", g4) == (0, 1, 2, 3)


def test_dummy_triangle_roles():
    g = dummy_triangle()
    assert [p.name for p in g.parties] == ["A", "B", "D"]
    assert [p.full for p in g.parties] == [True, True, False]
    assert validate_topology(g)


def test_single_cycle_orientation_deterministic():
    g = build_cycle(5)
    assert single_cycle("g", g) == (0, 1, 2, 3, 4)


def test_config_roundtrip():
    g = dummy_triangle()
    g2 = ChannelGraph.from_config(g.to_config())
    assert g2.to_config() == g.to_config()
    assert ChannelGraph.from_config({"cycle": 4}).to_config() == build_cycle(4).to_config()


def test_a_party_reads_and_prints_as_its_fields():
    p = Party(0, "P1")
    assert repr(p) == "Party(index=0, name='P1', full=True)"
    assert p.full is True and (p.index, p.name) == (0, "P1")
    assert repr(Party(2, "D", full=False)) == "Party(index=2, name='D', full=False)"


def test_a_party_is_immutable():
    p = Party(0, "P1")
    for field, value in (("index", 1), ("name", "P2"), ("full", False)):
        with pytest.raises(AttributeError):
            setattr(p, field, value)
    assert p == Party(0, "P1")


def test_default_parties_are_the_parties_the_constructor_builds():
    for k in (0, 1, 3, 17):
        parties = default_parties(k)
        assert parties == [Party(i, f"P{i + 1}") for i in range(k)]
        assert all(type(p) is Party and p.full is True for p in parties)


def test_a_graph_names_at_most_max_parties_parties():
    assert len(default_parties(MAX_PARTIES)) == MAX_PARTIES
    assert build_cycle(MAX_PARTIES).k == MAX_PARTIES
    builders = {
        "default_parties": default_parties,
        "build_cycle": build_cycle,
        "hub_graph": lambda k: hub_graph(k, "D", range(k), SECURE),
        "from_config cycle": lambda k: ChannelGraph.from_config({"cycle": k}),
        "from_config k": lambda k: ChannelGraph.from_config({"k": k}),
    }
    for name, build in builders.items():
        with pytest.raises(ProtocolError) as raised:
            build(MAX_PARTIES + 1)
        # A config error, exit 2 on the command line, not a rejected topology.
        assert type(raised.value) is ProtocolError, name
        assert str(raised.value) == (f"a graph of {MAX_PARTIES + 1} parties is above the "
                                     f"bound {MAX_PARTIES}"), name


def test_a_graph_refuses_duplicate_party_indices_and_names():
    with pytest.raises(TopologyError, match="^duplicate party indices$"):
        ChannelGraph([Party(0, "A"), Party(1, "B"), Party(0, "C")])
    with pytest.raises(TopologyError, match="^duplicate party names$"):
        ChannelGraph([Party(0, "A"), Party(1, "B"), Party(2, "A")])


@pytest.mark.parametrize("parties, fault", [
    # A dummy listed first with index 1: its source was keyed by index, its name by position.
    ([Party(1, "D", full=False), Party(0, "A"), Party(2, "B")], "'D' at position 0 has index 1"),
    # No index is a position: the run ended in a bare KeyError.
    ([Party(5, "A"), Party(6, "B"), Party(7, "C")], "'A' at position 0 has index 5"),
], ids=["a dummy listed first", "indices 5 to 7"])
def test_a_graph_refuses_a_party_whose_index_is_not_its_position(parties, fault):
    with pytest.raises(TopologyError, match=f"^party {fault}; a party's index is its position$"):
        ChannelGraph(parties, [(0, 1, SECURE), (1, 2, SECURE), (0, 2, SECURE)])


def test_add_insecure_edge_shows_in_the_edge_list():
    before = build_cycle(4).to_config()["edges"]
    g = ChannelGraph(default_parties(4), _cycle_edges(4) + [(0, 2, "insecure")])
    assert g.to_config()["edges"] == sorted(before + [[0, 2, "insecure"]])
    assert validate_topology(g)


def test_single_cycle_cannot_be_changed_by_its_caller():
    g = build_cycle(3)
    assert isinstance(single_cycle("g", g), tuple)
    assert single_cycle("g", g) == (0, 1, 2)


def test_an_edge_answers_in_both_orientations():
    for edges in ([(0, 1, "secure"), (1, 0, "insecure")],
                  [(0, 1, "secure"), (3, 1, "insecure"), (1, 3, "secure")]):
        with pytest.raises(TopologyError, match="duplicate edge"):
            ChannelGraph(default_parties(4), edges)
    g = ChannelGraph(default_parties(4), [(0, 1, "secure"), (3, 1, "insecure")])
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(0, 2) and not g.has_edge(2, 0) and not g.has_edge(0, 0)
    assert g.security(0, 1) == g.security(1, 0) == "secure"
    assert g.security(1, 3) == g.security(3, 1) == "insecure"
    for i, j in ((0, 2), (2, 0), (1, 1)):
        with pytest.raises(TopologyError, match=f"no channel between {i} and {j}"):
            g.security(i, j)
    assert g.edges() == ((0, 1, "secure"), (1, 3, "insecure"))
    g = ChannelGraph(default_parties(4), [(0, 1, "secure"), (3, 1, "insecure"), (2, 0, "secure")])
    assert g.edges() == ((0, 1, "secure"), (0, 2, "secure"), (1, 3, "insecure"))
    assert g.to_config()["edges"] == [[0, 1, "secure"], [0, 2, "secure"], [1, 3, "insecure"]]


# build_cycle writes its k edges straight into the edge map; it must build the
# graph that the constructor builds from the same k edges.
@pytest.mark.parametrize("k", range(3, 41))
def test_build_cycle_equals_the_graph_of_its_edges(k):
    g = build_cycle(k)
    want = ChannelGraph(default_parties(k), _cycle_edges(k))
    assert g.edges() == want.edges()
    assert g.to_config() == want.to_config()
    assert validate_topology(g) == validate_topology(want)
    assert validate_topology(g)
    assert single_cycle("g", g) == single_cycle("want", want) == tuple(range(k))
    assert all(g.security(j, i) == "secure" for i, j, _ in want.edges())


@pytest.mark.parametrize("k", [3, 4, 5, 300, 1001])
def test_a_built_cycle_writes_its_edges_in_sorted_order(k):
    g = build_cycle(k)
    assert "_edges" in vars(g)  # written by build_cycle: no first edges() sorts them
    assert g.edges() == tuple(sorted((i, j, s) for (i, j), s in g._security.items() if i < j))


@pytest.mark.parametrize("k", range(4, 41, 6))
def test_a_chord_added_to_a_built_cycle_fails_validation(k):
    assert validate_topology(build_cycle(k))
    assert single_cycle("g", build_cycle(k)) == tuple(range(k))
    g = ChannelGraph(default_parties(k), _cycle_edges(k) + [(0, k // 2, "secure")])
    assert (0, k // 2, "secure") in g.edges()
    assert not validate_topology(g)
    with pytest.raises(TopologyError, match="^g: vertex 0 has secure degree 3, "):
        single_cycle("g", g)
    with pytest.raises(TopologyError):
        run(SecureSum(rr.mod_ring(5)), g, tuple(range(k)), seed=0)


def _oracle_walk(g):
    """The cycle walk as it was before it read the edge map: sorted adjacency from secure_pairs."""
    adj = {v: [] for v in range(g.k)}
    for i, j in g.secure_pairs():
        adj[i].append(j)
        adj[j].append(i)
    for v in adj:
        adj[v].sort()
    seen, cycles = set(), []
    for start in range(g.k):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            prev, cur = cur, nxt
        cycles.append(cycle)
    return cycles


def _shuffled_cycle_cover(rng):
    """A from_config graph of disjoint secure cycles on shuffled vertices, edges in shuffled
    order and orientation, with a few insecure chords."""
    k = rng.randrange(3, 40)
    vertices = list(range(k))
    rng.shuffle(vertices)
    lengths = []
    while sum(lengths) + 3 <= k:
        lengths.append(rng.randrange(3, k - sum(lengths) + 1))
    lengths[-1] += k - sum(lengths)
    edges, start = [], 0
    for n in lengths:
        cycle = vertices[start:start + n]
        start += n
        edges += [[cycle[i], cycle[(i + 1) % n], "secure"] for i in range(n)]
    pairs = {frozenset(e[:2]) for e in edges}
    for _ in range(rng.randrange(4)):
        i, j = rng.sample(range(k), 2)
        if frozenset((i, j)) not in pairs:
            pairs.add(frozenset((i, j)))
            edges.append([i, j, "insecure"])
    for e in edges:
        if rng.random() < 0.5:
            e[0], e[1] = e[1], e[0]
    rng.shuffle(edges)
    return ChannelGraph.from_config({"k": k, "edges": edges})


def test_cycle_walk_matches_the_sorted_walk_on_shuffled_cycle_covers():
    rng = random.Random(20261019)
    covers = {1: 0, "more": 0}
    for _ in range(300):
        g = _shuffled_cycle_cover(rng)
        assert validate_topology(g)
        cycles = _oracle_walk(g)
        if len(cycles) == 1:
            assert single_cycle("g", g) == tuple(cycles[0])
        else:
            with pytest.raises(TopologyError, match="^g runs on a single cycle$"):
                single_cycle("g", g)
        covers[1 if len(cycles) == 1 else "more"] += 1
    assert min(covers.values()) >= 50, covers


def _changed(g, i, j, security=None):
    """``g`` with the channel between ``i`` and ``j`` made ``security``, or dropped if None."""
    edges = [(a, b, sec) for a, b, sec in g.edges() if {a, b} != {i, j}]
    if security is not None:
        edges.append((i, j, security))
    return ChannelGraph(g.parties, edges)


def _gate_cases():
    """(protocol, graph) per channel gate, each graph one channel or party count short."""
    # Three reals and a dummy D on a 4-cycle; contributor 0 reaches D along the
    # cycle, contributor 1 over a spoke.
    dummy_cycle = ChannelGraph(
        [Party(0, "P1"), Party(1, "P2"), Party(2, "P3"), Party(3, "D", full=False)],
        [(0, 1, "secure"), (1, 2, "secure"), (2, 3, "secure"), (0, 3, "secure"),
         (1, 3, "secure")])
    dummy_deal = CardDeal(DealConfig(4, 4, 2), counter_contributors=(0, 1))
    Z = rr.integers()
    return {
        "dummy triangle link": (MillionairesCompare(Z), _changed(dummy_triangle(), 0, 2,
                                                                 "insecure")),
        "collective randomness channel": (CollectiveRandom(5),
                                          _changed(build_cycle(3), 0, 2, "insecure")),
        "deal cycle edge": (CardDeal(DealConfig(3, 3, 2)),
                            _changed(build_cycle(3), 1, 2, "insecure")),
        "deal dummy spoke": (dummy_deal, _changed(dummy_cycle, 1, 3)),
        "sharing dealer spoke": (ShareSecret(Z, 3), _changed(sharing_graph(3), 1, 3,
                                                             "insecure")),
        "sharing party count": (ShareSecret(Z, 3), sharing_graph(4)),
        "rating aggregator link": (SecureRating(Z, 3), _changed(rating_graph(3), 0, 3)),
        "rating party count": (SecureRating(Z, 3), rating_graph(4)),
        "rating player order": (SecureRating(Z, 4), _players_out_of_order()),
        "commit_k cycle order": (CommitK(rr.mod_ring(5)), _players_out_of_order(hub=False)),
    }


def _players_out_of_order(hub=True):
    """Players 0..3 on the secure cycle 0-2-1-3-0, so 0 and 1 share no channel; with the
    aggregator B at 4 on insecure spokes from players 0 and 3."""
    parties = default_parties(4) + ([Party(4, "B")] if hub else [])
    spokes = [(0, 4, "insecure"), (3, 4, "insecure")] if hub else []
    return ChannelGraph(parties, [(0, 2, "secure"), (2, 1, "secure"), (1, 3, "secure"),
                                  (3, 0, "secure")] + spokes)


@pytest.mark.parametrize("case", sorted(_gate_cases()))
def test_every_channel_gate_rejects_a_graph_short_of_what_it_needs(case):
    protocol, graph = _gate_cases()[case]
    with pytest.raises(TopologyError, match=protocol.name):
        protocol.check_graph(graph)


def test_the_gate_cases_pass_with_the_missing_channel_restored():
    cases = _gate_cases()
    protocol, graph = cases["deal dummy spoke"]
    protocol.check_graph(_changed(graph, 1, 3, "secure"))
    CardDeal(DealConfig(3, 3, 2)).check_graph(build_cycle(3))
    for protocol, _ in (cases["sharing party count"], cases["rating party count"]):
        protocol.check_graph(protocol.default_graph(0))


@pytest.mark.parametrize("case", ["rating player order", "commit_k cycle order"])
def test_a_gate_rejects_a_cycle_its_program_does_not_send_along(case, monkeypatch):
    """The gate names the first index-order link missing; no Run is built, so no event is
    logged (the run used to die mid-program at ``no channel between 0 and 1``)."""
    protocol, graph = _gate_cases()[case]
    built = []
    monkeypatch.setattr(engine, "Run", lambda *args, **kwargs: built.append(args))
    with pytest.raises(TopologyError, match=f"{protocol.name} needs a secure channel "
                                            "between parties 0 and 1"):
        engine.start(protocol, graph, (1, 2, 3, 4))
    assert built == []
