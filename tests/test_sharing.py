import random

import pytest

import ringmpc.ring as rr
from ringmpc.engine import ScriptedSource, extract_view, run
from ringmpc.errors import ProtocolError, TopologyError
from ringmpc.sharing import (
    MAX_SHARE_PLAYERS,
    DistributeShares,
    ShareSecret,
    ShareVector,
    reconstruct,
    sharing_graph,
)

B = rr.DEFAULT_NOISE_BOUND


class TestSubroutine:
    def test_zero_with_zero_noise(self):
        sources = {i: ScriptedSource([0 + B]) for i in range(3)}
        summands, _ = run(DistributeShares(rr.integers(), 0, 3), None, (0,), seed=0)
        # and explicitly with all-zero noise:
        proto = DistributeShares(rr.integers())
        out, _ = run(proto, None, (0,), sources=sources)
        assert out == (0, 0, 0)
        assert sum(summands) == 0

    def test_hand_trace(self):
        # M = 10, initiator P1 with mask 4, P2's summand 7, P3's summand 5:
        # P1 sends 6, P2 keeps 7 and sends -1, P3 keeps 5 and sends -6,
        # P1's summand is 4 + (-6) = -2; total 7 + 5 - 2 = 10
        sources = {0: ScriptedSource([4 + B]), 1: ScriptedSource([7 + B]),
                   2: ScriptedSource([5 + B])}
        proto = DistributeShares(rr.integers())
        out, t = run(proto, None, (10,), sources=sources)
        assert out == (-2, 7, 5)
        payloads = [m.payload for m in t.messages]
        assert payloads == [6, -1, -6]

    def test_random_sums_exact(self):
        rng = random.Random(3)
        for _ in range(500):
            k = rng.randint(3, 6)
            value = rng.randint(-10**6, 10**6)
            proto = DistributeShares(rr.integers(), rng.randrange(k), k)
            summands, _ = run(proto, None, (value,), seed=rng.randint(0, 10**6))
            assert sum(summands) == value

    def test_only_masked_values_travel(self):
        # no message payload equals any party's final summand
        proto = DistributeShares(rr.mod_ring(101))
        out, t = run(proto, None, (55,), seed=12)
        payload_values = {m.payload for m in t.messages}
        # the initiator's summand never travels; other summands only as masked remainders
        assert len(t.messages) == 3

    def test_subroutine_records_its_party_count(self):
        summands, t = run(DistributeShares(rr.integers(), 2, 5), None, (50,), seed=1)
        assert sum(summands) == 50 and len(summands) == 5
        assert t.protocol.params() == {"initiator": 2, "k": 5}


class TestShareSecret:
    def test_at_most_max_share_players_players(self):
        assert ShareSecret(rr.integers(), MAX_SHARE_PLAYERS).k == MAX_SHARE_PLAYERS
        with pytest.raises(ProtocolError, match=f"^k={MAX_SHARE_PLAYERS + 1} is above the "
                                                f"bound {MAX_SHARE_PLAYERS}$"):
            ShareSecret(rr.integers(), MAX_SHARE_PLAYERS + 1)

    def test_reconstruct_100(self):
        shares, _ = run(ShareSecret(rr.integers(), 3), None, (100,), seed=1)
        assert reconstruct(shares) == 100

    def test_zero_secret(self):
        shares, _ = run(ShareSecret(rr.integers(), 4), None, (0,), seed=2)
        assert sum(shares.shares) == 0

    def test_random_roundtrip(self):
        rng = random.Random(5)
        for _ in range(100):
            k = rng.choice([3, 4, 5])
            secret = rng.randint(-10**6, 10**6)
            seed = rng.randint(0, 10**6)
            shares, _ = run(ShareSecret(rr.integers(), k), None, (secret,), seed=seed)
            assert reconstruct(shares) == secret

    def test_modular_roundtrip(self):
        R = rr.mod_ring(97)
        for seed in range(20):
            shares, _ = run(ShareSecret(R, 3), None, (55,), seed=seed)
            assert reconstruct(shares, ring=R) == 55

    def test_dealer_sees_no_share(self):
        proto = ShareSecret(rr.mod_ring(5), 3)
        outcome, t = run(proto, None, (4,), seed=9)
        dealer_view = extract_view(t, "D")
        assert "final share" not in dealer_view.labels()
        # dealer knowledge: the secret, its own pieces, and the piece handovers
        for label in dealer_view.labels():
            assert label.startswith(("secret", "dealer piece", "piece for"))

    def test_channel_budget_is_2k(self):
        g = sharing_graph(4)
        assert len(g.edges()) == 8

    def test_draw_counts(self):
        # dealer draws k-1 pieces; every player draws once per subroutine
        proto = ShareSecret(rr.mod_ring(7), 3)
        _, t = run(proto, None, (3,), seed=4)
        assert t.draw_counts["D"] == 2
        assert all(t.draw_counts[f"P{i}"] == 3 for i in (1, 2, 3))

    def test_needs_dealer_spokes(self):
        from ringmpc.topology import build_cycle

        with pytest.raises(TopologyError):
            run(ShareSecret(rr.integers(), 3), build_cycle(4), (1,), seed=0)

    def test_two_triangles_are_refused_before_the_dealer_draws(self):
        from ringmpc.engine import start
        from ringmpc.topology import ChannelGraph, Party, SECURE, default_parties

        triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        spokes = [(i, 6) for i in range(6)]
        g = ChannelGraph(default_parties(6) + [Party(6, "D")],
                         [(i, j, SECURE) for i, j in triangles + spokes])
        dealer = ScriptedSource([])  # any draw would exhaust it
        with pytest.raises(TopologyError, match="share_secret_kk runs on a single cycle"):
            start(ShareSecret(rr.mod_ring(5), 6), g, (3,), sources={6: dealer})
        with pytest.raises(TopologyError, match="share_secret_kk runs on a single cycle"):
            run(ShareSecret(rr.mod_ring(5), 6), g, (3,), sources={6: dealer})
        assert dealer.pos == 0


class TestReconstruct:
    def test_example(self):
        assert reconstruct([10, -3, 93]) == 100

    def test_all_zero(self):
        assert reconstruct([0, 0, 0]) == 0

    def test_missing_share_rejected(self):
        with pytest.raises(ProtocolError):
            reconstruct([10, None, 93])
        with pytest.raises(ProtocolError):
            reconstruct([])

    def test_share_vector_accepted(self):
        assert reconstruct(ShareVector((1, 2, 3))) == 6
