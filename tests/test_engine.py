import dataclasses
import gc
import random
import weakref
from unittest import mock

import pytest

import ringmpc.ring as rr
from ringmpc.arithmetic import MillionairesCompare, SecureRating, SecureSum
from ringmpc.commitment import Commit2Dummy, Commit3, CommitK, ObliviousTransfer
from ringmpc.engine import (
    EAVESDROPPER,
    EVERYONE,
    _encode,
    Run,
    ScriptedSource,
    Session,
    Transcript,
    accept,
    commit,
    eavesdropper_view,
    extract_view,
    parse_transcript,
    run,
    start,
    view_key,
)
from ringmpc.errors import DummyRandomnessError, ProtocolError, ReplayError, TopologyError
from ringmpc.topology import ChannelGraph, Party, build_cycle, default_parties, dummy_triangle


def test_identical_seeds_identical_transcripts():
    proto = SecureSum(rr.integers())
    _, t1 = run(proto, build_cycle(3), (1, 2, 3), seed=7)
    _, t2 = run(proto, build_cycle(3), (1, 2, 3), seed=7)
    assert t1.serialize() == t2.serialize()


def test_a_transcript_holds_its_runs_protocol_and_graph():
    proto, g = SecureSum(rr.integers()), build_cycle(3)
    _, t = run(proto, g, (1, 2, 3), seed=7)
    assert t.protocol is proto and t.graph is g
    assert [f.name for f in dataclasses.fields(Transcript)] == [
        "protocol", "seed", "graph", "inputs", "log", "draw_sites"]


def test_a_session_holds_its_ledgers_run_and_phase():
    assert [f.name for f in dataclasses.fields(Session)] == ["ledgers", "run", "phase"]


def test_different_seed_changes_transcript():
    proto = SecureSum(rr.integers())
    _, t1 = run(proto, build_cycle(3), (1, 2, 3), seed=7)
    _, t2 = run(proto, build_cycle(3), (1, 2, 3), seed=8)
    assert t1.serialize() != t2.serialize()


def test_path_graph_rejected():
    proto = SecureSum(rr.integers())
    path = ChannelGraph(default_parties(3), [(0, 1, "secure"), (1, 2, "secure")])
    with pytest.raises(TopologyError):
        run(proto, path, (1, 2, 3), seed=0)


def test_accept_checks_a_fixed_arity_then_the_graph_then_one_input_per_party():
    Z = rr.integers()
    path = ChannelGraph(default_parties(4), [(0, 1, "secure"), (1, 2, "secure")])
    with pytest.raises(ProtocolError, match="secure_rating takes 3 inputs, got 4"):
        accept(SecureRating(Z, 3), path, (1, 2, 3, 4))
    with pytest.raises(TopologyError):
        accept(SecureSum(Z), path, (1, 2, 3))
    with pytest.raises(ProtocolError, match="secure_sum takes 3 inputs, one per party, got 4") as e:
        accept(SecureSum(Z), build_cycle(3), (1, 2, 3, 4))
    assert not isinstance(e.value, TopologyError)
    assert accept(SecureSum(Z), None, (1, 2, 3, 4)).edges() == build_cycle(4).edges()
    assert accept(SecureRating(Z, 3), None, (1, 2, 3)).k == 4


def test_dummy_in_sum_cycle_faults_at_first_draw():
    proto = SecureSum(rr.integers())
    parties = [Party(0, "P1"), Party(1, "P2", full=False), Party(2, "P3")]
    g = ChannelGraph(parties, [(0, 1, "secure"), (1, 2, "secure"), (0, 2, "secure")])
    with pytest.raises(DummyRandomnessError):
        run(proto, g, (1, 2, 3), seed=0)


def test_sequence_numbers_strictly_increase():
    proto = SecureSum(rr.integers())
    _, t = run(proto, build_cycle(4), (1, 2, 3, 4), seed=1)
    seqs = [m.seq for m in t.messages]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


def test_messages_only_traverse_channels():
    proto = SecureSum(rr.integers())
    g = build_cycle(4)
    _, t = run(proto, g, (1, 2, 3, 4), seed=1)
    name_to_idx = {p.name: p.index for p in g.parties}
    for m in t.messages:
        if m.to == "*":
            continue
        assert g.has_edge(name_to_idx[m.frm], name_to_idx[m.to])


def test_view_of_middle_party_in_sum():
    proto = SecureSum(rr.integers())
    _, t = run(proto, build_cycle(3), (10, 20, 30), seed=5)
    view = extract_view(t, "P2")
    labels = view.labels()
    # one value received from P1 and one sent to P3, plus broadcasts
    assert labels.count("masked partial sum") == 2
    assert "masked total" in labels
    assert "noise n02" in labels and "noise n03" in labels
    # P2 never sees P1's noise
    assert "noise n01" not in labels


def test_view_of_unknown_party_errors():
    proto = SecureSum(rr.integers())
    _, t = run(proto, build_cycle(3), (1, 2, 3), seed=0)
    with pytest.raises(KeyError):
        extract_view(t, "P9")


def test_extract_view_and_the_checks_share_one_observer_filter():
    _, t = run(SecureSum(rr.integers()), build_cycle(4), (1, 2, 3, 4), seed=2)
    for p in t.graph.parties:
        assert extract_view(t, p.name).entries == t.views[p.name]
        assert view_key(p.name, t.graph)(t.log) == t.views[p.name]
    for observer in ("P9", ("P1", "P9")):
        with pytest.raises(KeyError, match="'P9' did not participate in this run"):
            view_key(observer, t.graph)
    with pytest.raises(KeyError, match="'P9' did not participate in this run"):
        extract_view(t, "P9")
    # A party may be named like the wiretapper; its name still gives its own view.
    g = ChannelGraph([Party(0, EAVESDROPPER), Party(1, "B"), Party(2, "C")],
                     [(0, 1, "secure"), (1, 2, "secure"), (0, 2, "secure")])
    _, t = run(SecureSum(rr.integers()), g, (1, 2, 3), seed=0)
    assert extract_view(t, EAVESDROPPER).entries == t.views[EAVESDROPPER]


def test_an_int_too_long_to_write_is_a_protocol_error():
    n = 10**4300 - 1  # 4,300 nines: the longest int Python writes as a decimal by default
    with pytest.raises(ProtocolError, match="^a value too long to write as a decimal: "):
        _encode({"sum": [n + 1]})
    # The outcome, 1, writes; P1's masked input, n plus its noise, has 4,301 digits.
    outcome, t = run(SecureSum(rr.integers()), build_cycle(3), (n, -n, 1), seed=1)
    assert outcome == 1 and t.messages[0].payload > n
    with pytest.raises(ProtocolError, match="^a value too long to write as a decimal: "):
        t.serialize()


def test_commit3_all_zero_trace_view():
    # all values 0, all splits 0+0: every value P1 holds is 0
    proto = Commit3(rr.mod_ring(2))
    sources = {i: ScriptedSource([0]) for i in range(3)}
    ledgers, t = run(proto, None, (0, 0, 0), seed=0, sources=sources)
    p1 = extract_view(t, "P1")
    for label in ("s1", "s2+s3", "r1", "r1+r2+r3"):
        assert ledgers["P1"][label] == 0
    assert all(v == 0 for _, v in p1.entries)


def test_eavesdropper_sees_broadcasts_only_on_secure_run():
    proto = SecureSum(rr.integers())
    _, t = run(proto, build_cycle(3), (1, 2, 3), seed=2)
    ev = eavesdropper_view(t)
    # all channels secure: eavesdropper holds exactly the broadcasts
    broadcast_labels = [m.label for m in t.messages if m.to == "*"]
    assert [lbl for lbl, _ in ev.entries] == broadcast_labels


def test_view_soundness_union_covers_transcript():
    proto = SecureSum(rr.integers())
    g = build_cycle(4)
    _, t = run(proto, g, (5, 6, 7, 8), seed=9)
    for m in t.messages:
        observers = t.views.keys() if m.to == "*" else (m.frm, m.to)
        for name in observers:
            assert (m.label, m.payload) in t.views[name]


def test_serialize_parse_roundtrip():
    proto = SecureSum(rr.integers())
    _, t = run(proto, build_cycle(3), (1, 2, 3), seed=7)
    meta, records = parse_transcript(t.serialize())
    assert meta["protocol"] == "secure_sum"
    assert int(meta["seed"]) == 7
    assert len(records) == len(t.messages)
    assert records[0]["seq"] == t.messages[0].seq
    assert records[0]["payload"] == str(t.messages[0].payload)


def test_parse_transcript_rejects_garbage():
    with pytest.raises(ReplayError):
        parse_transcript("")
    with pytest.raises(ReplayError):
        parse_transcript("not json\n")
    proto = SecureSum(rr.integers())
    _, t = run(proto, build_cycle(3), (1, 2, 3), seed=7)
    text = t.serialize()
    truncated = text[: text.rindex("}") - 5]
    with pytest.raises(ReplayError):
        parse_transcript(truncated)


def test_scripted_source_validation():
    src = ScriptedSource([5])
    with pytest.raises(ValueError):
        src.randrange(3)
    src = ScriptedSource([])
    with pytest.raises(IndexError):
        src.randrange(3)


def test_draw_counts_and_sites_recorded():
    proto = SecureSum(rr.mod_ring(5))
    _, t = run(proto, build_cycle(3), (1, 2, 3), seed=0)
    assert t.draw_counts == {"P1": 1, "P2": 1, "P3": 1}
    assert t.draw_sites == ((0, 5), (1, 5), (2, 5))


def _view_sizes(t, names):
    return [len(extract_view(t, name).entries) for name in names]


@pytest.mark.parametrize("cls, inputs, names, before, after", [
    (Commit3, (1, 0, 1), ("P1", "P2", "P3"), [7, 7, 7], [11, 11, 12]),
    (Commit2Dummy, (1, 0), ("A", "B", "D"), [6, 6, 2], [8, 8, 4]),
    (CommitK, (1, 0, 1, 1), ("P1", "P2", "P3", "P4"), [7, 7, 7, 7], [15, 15, 15, 15]),
], ids=["commit3", "commit2_dummy", "commit_k"])
def test_session_transcript_is_a_snapshot(cls, inputs, names, before, after):
    # The sizes are those of the engine that copied every view eagerly.
    session = commit(cls(rr.mod_ring(2)), None, inputs, seed=3)
    committed = session.transcript
    n_messages = len(committed.messages)
    eavesdropped = eavesdropper_view(committed).entries
    session.reveal()
    assert _view_sizes(committed, names) == before
    assert len(committed.messages) == n_messages
    assert eavesdropper_view(committed).entries == eavesdropped
    assert _view_sizes(session.transcript, names) == after


def test_transcript_ignores_events_logged_after_it():
    proto = MillionairesCompare(rr.mod_ring(11))
    _, reference = run(proto, None, (7, 3), seed=2)
    r = start(proto, None, (7, 3), seed=2)
    proto.program(r)
    t = r.transcript()
    r.broadcast(2, 1, "late announcement")
    r.note(0, "late note", 5)
    names = ("A", "B", "D")
    a, b, d = _view_sizes(reference, names)
    assert _view_sizes(t, names) == [a, b, d]
    assert eavesdropper_view(t) == eavesdropper_view(reference)
    assert _view_sizes(r.transcript(), names) == [a + 2, b + 1, d + 1]


def test_ten_thousand_party_sum_keeps_a_linear_log():
    k = 10_000
    inputs = list(range(-k // 2, k // 2))
    total, t = run(SecureSum(rr.integers()), build_cycle(k), inputs, seed=1)
    assert total == sum(inputs)
    # per party: its input and its noise noted, one send, one broadcast
    assert len(t.log) == 4 * k
    assert sum(audience is EVERYONE for audience, _, _ in t.log) == k
    # P2 holds its two notes, the partial sums in and out, and all k broadcasts
    assert len(extract_view(t, "P2").entries) == k + 4


class _RecordingSource:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.bounds = []

    def randrange(self, n):
        self.bounds.append(n)
        return self.rng.randrange(n)


@pytest.mark.parametrize("ring", [rr.integers(5), rr.mod_ring(7), rr.mod_ring(12)],
                         ids=["Z", "Z_7", "Z_12"])
@pytest.mark.parametrize("require_unit", [False, True])
def test_recorded_draw_bound_is_the_bound_drawn(ring, require_unit):
    src = _RecordingSource(4)
    r = start(SecureSum(ring), build_cycle(3), (0, 0, 0), sources={0: src})
    for n in range(20):
        r.noise(0, f"noise {n}", require_unit=require_unit)
    assert [n for _, n in r.draw_sites] == src.bounds == [ring.noise_domain(require_unit)] * 20


@pytest.mark.parametrize("ring", [rr.integers(5), rr.mod_ring(7), rr.mod_ring(12)],
                         ids=["Z", "Z_7", "Z_12"])
@pytest.mark.parametrize("require_unit", [False, True])
def test_each_noise_draw_computes_its_domain_once(monkeypatch, ring, require_unit):
    # Run.noise computes the domain once, counts the site with it and draws its index there.
    calls = []
    noise_domain = rr.RingSpec.noise_domain

    def counted(self, require_unit=False):
        calls.append(require_unit)
        return noise_domain(self, require_unit)

    monkeypatch.setattr(rr.RingSpec, "noise_domain", counted)
    r = start(SecureSum(ring), build_cycle(3), (0, 0, 0), seed=5)
    for n in range(20):
        r.noise(n % 3, f"noise {n}", require_unit=require_unit)
    assert calls == [require_unit] * 20
    assert r.draw_sites == [(n % 3, noise_domain(ring, require_unit)) for n in range(20)]


# (party, lo, hi, label) of each draw, in order: the same site drawn again and again,
# as a deal draws its counters, between draws at other sites.
_DRAWS = [(0, 1, 10, "counter"), (1, 1, 10, "counter"), (2, 0, 51, "swap 1 contribution"),
          (0, 1, 10, "counter"), (2, 0, 51, "swap 1 contribution"), (1, 1, 10, "counter"),
          (0, 1, 10, "counter"), (1, 5, 5, "one value")]


def _draw_run(scripted: bool) -> Run:
    sources = None
    if scripted:
        script = ScriptedSource([3, 9, 50, 0, 17, 4, 9, 0])  # one script for every party
        sources = dict.fromkeys(range(3), script)
    return Run(SecureSum(rr.integers()), build_cycle(3), (0, 0, 0), seed=11, sources=sources)


@pytest.mark.parametrize("scripted", [False, True], ids=["seeded", "scripted"])
def test_a_drawer_logs_what_rand_int_logs(scripted):
    by_call = _draw_run(scripted)
    values = [by_call.rand_int(*draw) for draw in _DRAWS]
    by_drawer = _draw_run(scripted)
    drawers = {draw: by_drawer.drawer(*draw) for draw in _DRAWS}
    assert by_drawer.log == [] and by_drawer.draw_sites == []  # building one draws nothing
    assert [drawers[draw]() for draw in _DRAWS] == values
    assert by_drawer.log == by_call.log
    assert by_drawer.draw_sites == by_call.draw_sites
    assert by_drawer.transcript().serialize() == by_call.transcript().serialize()


def test_a_dummys_drawer_raises_when_called_and_logs_nothing():
    parties = [Party(0, "P1"), Party(1, "P2", full=False), Party(2, "P3")]
    g = ChannelGraph(parties, [(0, 1, "secure"), (1, 2, "secure"), (0, 2, "secure")])
    r = Run(SecureSum(rr.integers()), g, (0, 0, 0), seed=0)
    draw = r.drawer(1, 1, 10, "counter")
    with pytest.raises(DummyRandomnessError, match="^dummy party P2 attempted to draw randomness$"):
        draw()
    assert r.log == [] and r.draw_sites == []


def test_a_dummy_named_in_sources_still_draws_nothing():
    # A dummy owns no source: a scripted one given for it is not used.
    r = Run(Commit2Dummy(rr.mod_ring(5)), dummy_triangle(), (1, 2), 0,
            sources={2: ScriptedSource([3, 1])})
    with pytest.raises(DummyRandomnessError, match="^dummy party D attempted to draw randomness$"):
        r.noise(2, "noise")
    with pytest.raises(DummyRandomnessError, match="^dummy party D attempted to draw randomness$"):
        r.rand_int(2, 1, 4, "counter")
    assert r.log == [] and r.draw_sites == []


def test_an_ot_dummy_run_seeds_only_the_generator_of_the_party_that_draws():
    # A draws one mask per message; B draws nothing and D is a dummy.
    proto = ObliviousTransfer(rr.mod_ring(101))
    with mock.patch.object(random, "Random", wraps=random.Random) as generator:
        outcome, t = run(proto, None, ((10, 20, 30), (1, 3)), seed=7)
    assert generator.call_args_list == [mock.call("7/0")]
    assert outcome.retrieved == (10, 30)
    assert t.draw_counts == {"A": 3, "B": 0, "D": 0}
    # the masks are those of a generator built with the run
    rng = random.Random("7/0")
    assert t.messages[0].payload == tuple(rng.randrange(101) for _ in range(3))


def test_a_run_on_a_reused_graph_does_not_keep_its_protocol_alive():
    g = build_cycle(3)
    run(SecureSum(rr.integers()), g, (1, 2, 3), seed=1)
    proto = SecureSum(rr.integers())
    alive = weakref.ref(proto)
    assert run(proto, g, (1, 2, 3), seed=2)[0] == 6
    del proto
    gc.collect()
    assert alive() is None
