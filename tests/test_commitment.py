import random
from collections import Counter
from itertools import combinations, product

import pytest

import ringmpc.ring as rr
from ringmpc.commitment import (
    COMMIT3_CHECKS,
    Commit2Dummy,
    Commit3,
    CommitK,
    ObliviousTransfer,
)
from ringmpc.engine import ScriptedSource, commit, extract_view, run
from ringmpc.errors import CheatDetected, PhaseError, ProtocolError
from ringmpc.topology import ChannelGraph, Party


@pytest.mark.parametrize("cls, m", [(Commit3, 2), (Commit3, 3), (Commit2Dummy, 2)])
def test_each_split_sums_to_n_and_occurs_in_1_over_m_of_runs(cls, m):
    """Over every input and every draw, party i notes r_i + s_i = n_i, and for each
    n_i each split (r, n_i - r) occurs in exactly 1/m of the runs with that n_i."""
    splits = Counter()
    for values in product(range(m), repeat=cls.arity):
        for draws in product(range(m), repeat=cls.arity):
            sources = {i: ScriptedSource([d]) for i, d in enumerate(draws)}
            session = commit(cls(rr.mod_ring(m)), None, values, sources=sources)
            for i, n in enumerate(values):
                noted = {label: v for audience, (label, v), _ in session.run.log
                         if audience == (i,)}
                r, s = noted[f"r{i + 1}"], noted[f"s{i + 1}"]
                assert noted[f"n{i + 1}"] == n and (r + s) % m == n
                splits[i, n, r] += 1
    runs_per_split = m ** (2 * cls.arity - 2)  # the runs with n_i = n, divided by m
    assert splits == {(i, n, r): runs_per_split
                      for i in range(cls.arity) for n in range(m) for r in range(m)}


PAPER_INVENTORY = {
    "P1": {"s1", "s2+s3", "r1", "r1+r2+r3"},
    "P2": {"s2", "s3", "r1", "r2"},
    "P3": {"s3", "r3", "r1+r2", "s1+s2+s3"},
}


class TestCommit3:
    def test_all_zero_bits(self):
        sources = {i: ScriptedSource([0]) for i in range(3)}
        session = commit(Commit3(rr.mod_ring(2)), None, (0, 0, 0), sources=sources)
        for ledger in session.ledgers.values():
            assert set(ledger.values()) == {0}

    def test_hand_trace_m10(self):
        # n = (3,4,5) with r = (1,2,3) forced: s = (2,2,2)
        sources = {i: ScriptedSource([i + 1]) for i in range(3)}
        session = commit(Commit3(rr.mod_ring(10)), None, (3, 4, 5), sources=sources)
        assert session.ledgers["P2"] == {"s2": 2, "s3": 2, "r1": 1, "r2": 2}
        assert session.ledgers["P1"] == {
            "s1": 2, "s2+s3": 4, "r1": 1, "r1+r2+r3": 6,
        }

    def test_ledger_inventories_match_on_random_runs(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.choice([2, 3, 5, 10, 251])
            values = tuple(rng.randrange(m) for _ in range(3))
            session = commit(Commit3(rr.mod_ring(m)), None, values, seed=rng.randint(0, 10**6))
            for name, expected in PAPER_INVENTORY.items():
                assert set(session.ledgers[name]) == expected

    def test_honest_decommit_recovers_everything(self):
        session = commit(Commit3(rr.mod_ring(10)), None, (3, 4, 5), seed=9)
        recovered = session.reveal()
        assert recovered == {name: (3, 4, 5) for name in ("P1", "P2", "P3")}

    def test_recovered_triples_are_noted_at_parties_0_1_2_whatever_their_names(self):
        graph = ChannelGraph([Party(i, name) for i, name in enumerate("XYZ")],
                             [(0, 1, "secure"), (1, 2, "secure"), (0, 2, "secure")])
        session = commit(Commit3(rr.mod_ring(10)), graph, (3, 4, 5), seed=9)
        session.reveal()
        notes = [(audience, v) for audience, (label, v), _ in session.run.log
                 if label == "recovered values"]
        assert notes == [((i,), (3, 4, 5)) for i in range(3)]

    def test_honest_decommit_bits_exhaustive(self):
        for bits in product(range(2), repeat=3):
            for splits in product(range(2), repeat=3):
                sources = {i: ScriptedSource([splits[i]]) for i in range(3)}
                session = commit(Commit3(rr.mod_ring(2)), None, bits, sources=sources)
                assert session.reveal() == {n: bits for n in ("P1", "P2", "P3")}

    def test_lying_about_n1_plus_n2_is_caught(self):
        session = commit(Commit3(rr.mod_ring(10)), None, (3, 4, 5), seed=1)
        truth = (3 + 4) % 10
        with pytest.raises(CheatDetected) as exc:
            session.reveal({"n1+n2 to P1": truth + 1, "n1+n2 to P2": truth + 1})
        assert exc.value.message_label == "n1+n2"

    def test_inconsistent_copies_are_caught(self):
        session = commit(Commit3(rr.mod_ring(2)), None, (1, 0, 1), seed=2)
        with pytest.raises(CheatDetected):
            session.reveal({"n1+n2 to P1": 0, "n1+n2 to P2": 1})

    @pytest.mark.parametrize("label", ["r1 reveal", "s2+s3 reveal", "r1+r2+r3 reveal"])
    def test_each_reveal_message_is_corroborated(self, label):
        session = commit(Commit3(rr.mod_ring(10)), None, (3, 4, 5), seed=3)
        honest = commit(Commit3(rr.mod_ring(10)), None, (3, 4, 5), seed=3).reveal()
        assert honest["P3"] == (3, 4, 5)
        honest_value = {
            "r1 reveal": session.ledgers["P2"]["r1"],
            "s2+s3 reveal": session.ledgers["P1"]["s2+s3"],
            "r1+r2+r3 reveal": session.ledgers["P1"]["r1+r2+r3"],
        }[label]
        with pytest.raises(CheatDetected):
            session.reveal({label: (honest_value + 1) % 10})

    def test_phase_discipline(self):
        session = commit(Commit3(rr.mod_ring(2)), None, (1, 1, 0), seed=4)
        session.reveal()
        with pytest.raises(PhaseError):
            session.reveal()
        assert session.phase == "revealed"

    def test_check_table_is_published(self):
        assert len(COMMIT3_CHECKS) == 5


class TestCommit2Dummy:
    def test_hand_trace(self):
        # n = (3,4), r1 = 1, r2 = 2:  D holds r1+r2 = 3 and s1+s2 = 4, reveals 7
        sources = {0: ScriptedSource([1]), 1: ScriptedSource([2])}
        session = commit(Commit2Dummy(rr.mod_ring(10)), None, (3, 4), sources=sources)
        assert session.ledgers["D"] == {"r1+r2": 3, "s1+s2": 4}
        a_learns, b_learns = session.reveal()
        assert (a_learns, b_learns) == (4, 3)

    def test_zero_case(self):
        session = commit(Commit2Dummy(rr.mod_ring(2)), None, (0, 0), seed=1)
        assert session.reveal() == (0, 0)

    def test_dummy_never_holds_an_individual_value(self):
        for n1, n2 in product(range(2), repeat=2):
            for r1, r2 in product(range(2), repeat=2):
                sources = {0: ScriptedSource([r1]), 1: ScriptedSource([r2])}
                session = commit(Commit2Dummy(rr.mod_ring(2)), None, (n1, n2), sources=sources)
                d_labels = set(session.ledgers["D"])
                assert d_labels == {"r1+r2", "s1+s2"}
                assert session.reveal() == (n2, n1)

    def test_commit_phase_views(self):
        session = commit(Commit2Dummy(rr.mod_ring(10)), None, (3, 4), seed=7)
        t = session.transcript
        a_view = extract_view(t, "A")
        assert {"n1", "r1", "s1", "r2", "r1+r2"} <= set(a_view.labels())
        assert "s2" not in a_view.labels() and "n2" not in a_view.labels()
        b_view = extract_view(t, "B")
        assert {"n2", "r2", "s2", "s1", "s1+s2"} <= set(b_view.labels())
        assert "r1" not in b_view.labels() and "n1" not in b_view.labels()
        assert t.draw_counts["D"] == 0

    def test_reveal_tampering_caught(self):
        session = commit(Commit2Dummy(rr.mod_ring(2)), None, (1, 0), seed=2)
        with pytest.raises(CheatDetected):
            session.reveal({"n1+n2 to A": 0})
        session = commit(Commit2Dummy(rr.mod_ring(2)), None, (1, 0), seed=2)
        with pytest.raises(CheatDetected):
            session.reveal({"n1+n2 to A": 0, "n1+n2 to B": 0})

    def test_phase_discipline(self):
        session = commit(Commit2Dummy(rr.mod_ring(2)), None, (1, 1), seed=3)
        session.reveal()
        with pytest.raises(PhaseError):
            session.reveal()


class TestCommitKExperimental:
    def test_roundtrip(self):
        rng = random.Random(9)
        for k in (3, 4, 5, 7):
            m = rng.choice([2, 5, 11])
            values = tuple(rng.randrange(m) for _ in range(k))
            session = commit(CommitK(rr.mod_ring(m)), None, values, seed=rng.randint(0, 10**6))
            assert session.reveal() == values

    def test_substituted_reveal_caught(self):
        values = (1, 0, 1, 1)
        assert commit(CommitK(rr.mod_ring(2)), None, values, seed=2).reveal() == values
        for label in ("r prefix 1 reveal", "r prefix 4 reveal", "s suffix 2 reveal"):
            outcomes = []
            for candidate in (0, 1):  # one of the bits is the dishonest one
                session = commit(CommitK(rr.mod_ring(2)), None, values, seed=2)
                try:
                    result = session.reveal({label: candidate})
                except CheatDetected:
                    outcomes.append("caught")
                else:
                    assert result == values  # never a silent wrong value
                    outcomes.append("honest")
            assert sorted(outcomes) == ["caught", "honest"]

    def test_middle_party_commit_view_reveals_nothing(self):
        # exhaustive over Z_2, k = 4: P2's commit-phase view distribution is
        # the same for every assignment of all values including its own
        tallies = {}
        for values in product(range(2), repeat=4):
            for splits in product(range(2), repeat=4):
                sources = {i: ScriptedSource([splits[i]]) for i in range(4)}
                session = commit(CommitK(rr.mod_ring(2)), None, values, sources=sources)
                view = extract_view(session.transcript, "P2").entries
                others = tuple(v for j, v in enumerate(values) if j != 1)
                tallies.setdefault(values[1], {}).setdefault(others, []).append(view)
        for by_others in tallies.values():
            baseline = sorted(next(iter(by_others.values())))
            assert all(sorted(v) == baseline for v in by_others.values())

    def test_phase_discipline(self):
        session = commit(CommitK(rr.mod_ring(2)), None, (1, 1, 0), seed=4)
        session.reveal()
        with pytest.raises(PhaseError):
            session.reveal()


class TestObliviousTransfer:
    def test_hand_trace(self):
        # splits r = (4, 7, 11): B recovers exactly messages 1 and 3
        B = rr.DEFAULT_NOISE_BOUND
        sources = {0: ScriptedSource([4 + B, 7 + B, 11 + B])}
        outcome, t = run(
            ObliviousTransfer(rr.integers()), None, ((10, 20, 30), (1, 3)),
            seed=0, sources=sources,
        )
        assert outcome.retrieved == (10, 30)
        served = [m for m in t.messages if m.label == "served r parts"]
        assert served[0].payload == (4, 11)

    def test_full_retrieval(self):
        assert run(ObliviousTransfer(), None, ((5, 6, 7), (1, 2, 3)))[0].retrieved == (5, 6, 7)

    def test_zero_messages(self):
        assert run(ObliviousTransfer(), None, ((0, 0, 0), (2,)))[0].retrieved == (0,)

    def test_index_validation(self):
        with pytest.raises(ProtocolError):
            run(ObliviousTransfer(), None, ((1, 2), (0,)))
        with pytest.raises(ProtocolError):
            run(ObliviousTransfer(), None, ((1, 2), (3,)))
        with pytest.raises(ProtocolError):
            run(ObliviousTransfer(), None, ((1, 2), (1, 1)))
        with pytest.raises(ProtocolError):
            run(ObliviousTransfer(), None, ((1, 2), ()))

    def test_sender_receives_nothing_after_setup(self):
        _, t = run(ObliviousTransfer(rr.integers()), None, ((10, 20, 30), (2,)), seed=5)
        setup_done = False
        for m in t.messages:
            if m.frm == "A":
                assert not setup_done or m.label in ("r parts", "s parts")
            if m.label == "requested indices":
                setup_done = True
            assert m.to != "A"  # A never receives anything at all
        assert t.draw_counts["D"] == 0 and t.draw_counts["B"] == 0

    def test_exhaustive_small_cases_over_z5(self):
        R = rr.mod_ring(5)
        for n in range(1, 5):
            messages = tuple((3 * i + 1) % 5 for i in range(n))
            for k in range(1, n + 1):
                for indices in combinations(range(1, n + 1), k):
                    for splits in product(range(5), repeat=n):
                        sources = {0: ScriptedSource(list(splits))}
                        outcome, _ = run(
                            ObliviousTransfer(R), None, (messages, indices),
                            seed=0, sources=sources,
                        )
                        assert outcome.retrieved == tuple(messages[j - 1] for j in indices)

    def test_random_against_oracle(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(1, 8)
            messages = tuple(rng.randint(-10**6, 10**6) for _ in range(n))
            k = rng.randint(1, n)
            indices = tuple(rng.sample(range(1, n + 1), k))
            outcome, _ = run(ObliviousTransfer(), None, (messages, indices), rng.randint(0, 999))
            assert outcome.retrieved == tuple(messages[j - 1] for j in indices)


# Each commitment over Z_2 with its inputs, and a tampered reveal of one of its messages.
CHEATS = {
    "commit3": (Commit3, (1, 0, 1), lambda s: {"r1 reveal": 1 - s.ledgers["P2"]["r1"]}),
    "commit2_dummy": (Commit2Dummy, (1, 0), lambda s: {"n1+n2 to A": 0}),
    "commit_k": (CommitK, (1, 0, 1, 1), lambda s: {"r prefix 1 reveal": 1 - s.ledgers[0][0]}),
}


@pytest.mark.parametrize("name", sorted(CHEATS))
def test_a_detected_cheat_closes_the_session(name):
    cls, inputs, tamper = CHEATS[name]
    session = commit(cls(rr.mod_ring(2)), None, inputs, seed=3)
    with pytest.raises(CheatDetected):
        session.reveal(tamper(session))
    cheated = len(session.transcript.messages)
    assert session.phase == "revealed"
    with pytest.raises(PhaseError):
        session.reveal()
    assert len(session.transcript.messages) == cheated
