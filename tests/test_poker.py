import random
from fractions import Fraction
from itertools import product

import pytest

from ringmpc.engine import ScriptedSource, extract_view, run, start
from ringmpc.errors import ProtocolError, TopologyError
from ringmpc.poker import (
    CardDeal,
    CollectiveRandom,
    DealConfig,
    dealer_graph,
    dummy_deal_graph,
    dummy_deal_two_players,
    dummy_dealer_count,
    dummy_dealer_fixed_hands,
    even_quotas,
    expected_circles,
    knuth_shuffle,
    protocol2_roles,
)
from ringmpc.topology import ChannelGraph, build_cycle

CHI2_999_DF6 = 22.458  # 0.999 quantile of chi-square with 6 degrees of freedom


class TestExpectedCircles:
    def test_single_counter_value(self):
        for k in (1, 2, 5):
            assert expected_circles(1, k) == 1

    def test_two_by_two_against_enumeration(self):
        # oracle: average the minimum over all 4 counter pairs
        pairs = [(a, b) for a in (1, 2) for b in (1, 2)]
        oracle = Fraction(sum(min(p) for p in pairs), len(pairs))
        assert oracle == Fraction(5, 4)
        assert expected_circles(2, 2) == Fraction(5, 4)

    def test_ten_three(self):
        value = expected_circles(10, 3)
        assert value == Fraction(3025, 1000)
        # cross-check: sum of cubes is the squared triangular number
        assert sum(j**3 for j in range(1, 11)) == (10 * 11 // 2) ** 2

    def test_matches_brute_force_enumeration(self):
        for N in range(1, 7):
            for k in range(1, 5):
                oracle = Fraction(
                    sum(min(t) for t in product(range(1, N + 1), repeat=k)), N**k
                )
                assert expected_circles(N, k) == oracle

    def test_rejects_bad_parameters(self):
        with pytest.raises(ProtocolError):
            expected_circles(0, 3)


class TestCollectiveRandomness:
    def test_sum_mod_five(self):
        sources = {1: ScriptedSource([3]), 2: ScriptedSource([4])}
        assert run(CollectiveRandom(5), None, (), sources=sources)[0] == (3 + 4) % 5

    def test_trivial_modulus(self):
        assert run(CollectiveRandom(1), None, (), seed=9)[0] == 0

    def test_even_quotas_give_the_extras_from_the_lottery_onwards(self):
        assert even_quotas(9, 3, 1) == (3, 3, 3)
        assert even_quotas(7, 3, 2) == (2, 2, 3)
        assert even_quotas(8, 3, 2) == (3, 2, 3)
        for seed in range(6):  # a deal's quotas follow its announced lottery value
            outcome, t = run(CardDeal(DealConfig(8, 3, 3)), None, (), seed=seed)
            [v] = [m.payload for m in t.messages if m.label == "quota lottery value"]
            assert outcome.quotas == even_quotas(8, 3, v)

    def test_roles_follow_the_cycle(self):
        assert protocol2_roles(1, 3) == (1, (0, 2))  # receiver P2, contributors P1, P3
        assert protocol2_roles(5, 5) == (0, (4, 1))  # receiver P1, contributors P5, P2

    def test_random_k_transcript_roles(self):
        _, t = run(CollectiveRandom(7, *[1, (0, 2)][:1], contributors=(0, 2)), None, (), seed=1)
        senders = {m.frm for m in t.messages}
        receivers = {m.to for m in t.messages}
        assert senders == {"P1", "P3"} and receivers == {"P2"}

    @pytest.mark.parametrize("i, k", [(1, 3), (4, 5), (7, 6)])
    def test_round_i_on_a_k_cycle(self, i, k):
        receiver, (a, b) = protocol2_roles(i, k)
        sources = {p: ScriptedSource([]) for p in range(k)}  # a draw by anyone else fails
        sources[a], sources[b] = ScriptedSource([5]), ScriptedSource([9])
        proto = CollectiveRandom(11, receiver, (a, b))
        outcome, t = run(proto, build_cycle(k), (), sources=sources)
        assert outcome == (5 + 9) % 11
        to = f"P{receiver + 1}"
        assert [(m.frm, m.to, m.payload) for m in t.messages] == [
            (f"P{a + 1}", to, 5), (f"P{b + 1}", to, 9)]
        assert extract_view(t, to).value("random value") == 3

    def test_masking_exhaustive_small_moduli(self):
        # with one contributor fixed adversarially, the other uniform:
        # the output sweeps all residues exactly once
        for M in range(1, 8):
            for fixed in range(M):
                outputs = {
                    run(CollectiveRandom(M), None, (),
                        sources={1: ScriptedSource([fixed]), 2: ScriptedSource([v])})[0]
                    for v in range(M)
                }
                assert outputs == set(range(M))

    def test_masking_chi_square_z7(self):
        # adversarial constant from one contributor, 14,000 seeded draws
        counts = [0] * 7
        for i in range(14_000):
            value = run(CollectiveRandom(7), None, (), seed=i, sources={1: ScriptedSource([3])})[0]
            counts[value] += 1
        expected = 14_000 / 7
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < CHI2_999_DF6

    def test_dummy_contributor_rejected(self):
        from ringmpc.errors import DummyRandomnessError

        g = dummy_deal_graph()  # P3 is a dummy
        with pytest.raises(DummyRandomnessError):
            run(CollectiveRandom(5), g, (), seed=1)


class TestKnuthShuffle:
    def test_single_card(self):
        assert knuth_shuffle(1, lambda lo, hi: lo) == [1]

    def test_is_a_permutation(self):
        rng = random.Random(7)
        for m in (2, 5, 13):
            perm = knuth_shuffle(m, lambda lo, hi: rng.randint(lo, hi))
            assert sorted(perm) == list(range(1, m + 1))

    def test_swap_replay_reproduces_output(self):
        rng = random.Random(8)
        swaps = []

        def draw(lo, hi):
            j = rng.randint(lo, hi)
            swaps.append((lo, j))
            return j

        perm = knuth_shuffle(6, draw)
        replay = list(range(1, 7))
        for i, j in swaps:
            replay[i - 1], replay[j - 1] = replay[j - 1], replay[i - 1]
        assert replay == perm


class TestProtocol1:
    def test_small_deal_partitions(self):
        for seed in range(30):
            res, _ = run(CardDeal(DealConfig(6, 3, 2)), None, (), seed=seed)
            cards = sorted(c for hand in res.hands for c in hand)
            assert cards == [1, 2, 3, 4, 5, 6]
            assert all(len(h) == 2 for h in res.hands)
            assert all(0 not in h for h in res.hands)

    def test_52_cards_three_players(self):
        res, _ = run(CardDeal(DealConfig(52, 3, 10)), None, (), seed=4)
        assert sorted(len(h) for h in res.hands) == [17, 17, 18]

    def test_quota_lottery_is_public(self):
        _, t = run(CardDeal(DealConfig(52, 3, 10)), None, (), seed=4)
        lottery = [m for m in t.messages if m.label == "quota lottery value" and m.to == "*"]
        assert len(lottery) == 1

    def test_explicit_quotas(self):
        res, _ = run(CardDeal(DealConfig(7, 3, 3, quotas=(3, 2, 2))), None, (), seed=1)
        assert tuple(len(h) for h in res.hands) == (3, 2, 2)

    def test_every_player_sees_the_final_value_n_plus_1_times(self):
        cfg = DealConfig(6, 3, 2)
        _, t = run(CardDeal(cfg), None, (), seed=11)
        receipts = {p: 0 for p in ("P1", "P2", "P3")}
        for m in t.messages:
            if m.kind == "token" and int(m.payload) == cfg.r:
                receipts[m.to] += 1
        assert set(receipts.values()) == {cfg.N + 1}

    def test_single_card_terminates(self):
        res, t = run(CardDeal(DealConfig(1, 3, 1)), None, (), seed=2)
        assert sorted(c for hand in res.hands for c in hand) == [1]


class TestDealDeck:
    def test_labels_are_a_permutation(self):
        res, _ = run(CardDeal(DealConfig(52, 3, 10), with_labels=True), None, (), seed=6)
        assert sorted(res.permutation) == list(range(1, 53))
        labeled = res.labeled_hands()
        assert sorted(c for hand in labeled for c in hand) == list(range(1, 53))
        assert sorted(len(h) for h in labeled) == [17, 17, 18]

    def test_three_cards_three_players(self):
        res, _ = run(CardDeal(DealConfig(3, 3, 4), with_labels=True), None, (), seed=1)
        assert all(len(h) == 1 for h in res.hands)

    def test_swap_broadcasts_reproduce_the_permutation(self):
        res, t = run(CardDeal(DealConfig(6, 3, 4), with_labels=True), None, (), seed=9)
        swaps = [
            (int(m.label.split()[1]), int(m.payload))
            for m in t.messages
            if m.to == "*" and m.label.startswith("swap ")
        ]
        replay = list(range(1, 7))
        for pos, offset in swaps:
            j = pos + offset
            replay[pos - 1], replay[j - 1] = replay[j - 1], replay[pos - 1]
        assert tuple(replay) == res.permutation


class TestDummyDeal:
    def test_counter_synthesis_rule(self):
        # (2 + 3) mod 4 = 1 under the zero-maps-to-N convention
        assert ((2 + 3 - 1) % 4) + 1 == 1

    def test_transcript_counters_match_contributions(self):
        N = 4
        real, discarded, res, t = dummy_deal_two_players(6, N, seed=3)
        shares = [int(m.payload) for m in t.messages
                  if m.label == "counter share" and m.to == "P3"]
        assert shares and len(shares) % 2 == 0
        synthesized = extract_view(t, "P3").values("synthesized counter")
        assert len(synthesized) == len(shares) // 2
        for t_idx, c in enumerate(synthesized):
            a, b = shares[2 * t_idx], shares[2 * t_idx + 1]
            assert c == ((a + b - 1) % N) + 1
            assert 1 <= c <= N

    def test_real_hands_disjoint_and_sized(self):
        real, discarded, res, t = dummy_deal_two_players(6, 4, seed=5)
        all_cards = sorted(c for h in (*real, discarded) for c in h)
        assert all_cards == [1, 2, 3, 4, 5, 6]
        assert len(real[0]) == len(real[1]) == len(discarded) == 2

    def test_dummy_draws_nothing(self):
        _, _, _, t = dummy_deal_two_players(6, 4, seed=7)
        assert t.draw_counts["P3"] == 0


class TestDummyDealer:
    def test_dealer_sizing_rule(self):
        assert dummy_dealer_count(52, 17, 2) == 1
        assert dummy_dealer_count(6, 2, 2) == 1

    def test_52_card_two_player_17_each(self):
        outcome, t = dummy_dealer_fixed_hands(52, 2, 17, seed=1)
        sizes = [len(h) for h in outcome.hands]
        assert sizes[:2] == [17, 17]
        assert len(outcome.residual) == 18
        assert t.draw_counts["D1"] == 0

    def test_exact_division_case(self):
        outcome, _ = dummy_dealer_fixed_hands(6, 2, 2, seed=2)
        assert [len(h) for h in outcome.hands] == [2, 2, 2]
        assert len(outcome.residual) == 2

    def test_draw_reduces_residual_by_served_card(self):
        full, _ = dummy_dealer_fixed_hands(6, 2, 2, seed=3)
        drawn, _ = dummy_dealer_fixed_hands(6, 2, 2, seed=3, post_draws=[(0, 1)])
        assert len(drawn.served) == 1
        name, card = drawn.served[0]
        assert name == "P1"
        assert sorted(drawn.residual) + [card] != sorted(full.residual)  # card removed
        assert sorted(list(drawn.residual) + [card]) == sorted(full.residual)

    def test_infeasible_request_rejected(self):
        with pytest.raises(ProtocolError):
            dummy_dealer_fixed_hands(5, 2, 3)

    @pytest.mark.parametrize("m, k, s", [(12, 2, 3), (20, 3, 2), (52, 2, 5)])
    def test_every_view_of_a_deal_with_several_dummies_is_hashable(self, m, k, s):
        # the dummies' loads travel as tuples: a logged value is never a list
        _, t = dummy_dealer_fixed_hands(m, k, s, seed=7)
        assert sum(1 for p in t.graph.parties if not p.full) >= 2
        for p in t.graph.parties:
            hash(extract_view(t, p.name).key())

    def test_served_card_goes_over_a_private_channel(self):
        outcome, t = dummy_dealer_fixed_hands(6, 2, 2, seed=3, post_draws=[(1, 1)])
        served_messages = [m for m in t.messages if m.label == "drawn card"]
        assert len(served_messages) == 1
        assert served_messages[0].to == "P2"
        assert served_messages[0].security == "secure"


def _dealer_deal(post_draws):
    """A deal to 3 reals with 2 dummies, dummy D1 (index 3) the dealer, serving ``post_draws``."""
    return CardDeal(DealConfig(10, 5, 2, quotas=(2,) * 5), counter_contributors=(0, 1),
                    consolidate_to=3, post_draws=post_draws)


class TestPostDrawGate:
    @pytest.mark.parametrize("requester", [4, 99, -1, 3],
                             ids=["dummy D2", "no such party", "index -1", "the dealer"])
    def test_the_graph_gate_refuses_a_requester_that_is_not_a_real_player(self, requester):
        proto = _dealer_deal([(requester, 1)])
        with pytest.raises(TopologyError, match=f"^post draw to party {requester}: "):
            proto.check_graph(dealer_graph(3, 2))
        with pytest.raises(TopologyError, match=f"^post draw to party {requester}: "):
            start(proto, dealer_graph(3, 2), (), 0)

    def test_a_real_player_without_a_secure_channel_from_the_dealer_is_refused(self):
        g = dealer_graph(4, 2)
        g = ChannelGraph(g.parties, [e for e in g.edges() if e[:2] != (2, 4)])
        proto = CardDeal(DealConfig(12, 6, 2, quotas=(2,) * 6), counter_contributors=(0, 1),
                         consolidate_to=4, post_draws=[(2, 1)])
        with pytest.raises(TopologyError, match="secure channel between parties 4 and 2"):
            proto.check_graph(g)

    def test_every_real_player_is_served(self):
        outcome, _ = run(_dealer_deal([(0, 1), (1, 1), (2, 1)]), dealer_graph(3, 2), (), 5)
        assert [name for name, _ in outcome.served] == ["P1", "P2", "P3"]

    @pytest.mark.parametrize("post_draws", [[(0, 99)], [(0, 2), (1, 3)], [(2, 5), (0, 0)]])
    def test_more_post_draws_than_the_dummies_quotas_are_refused_before_the_deal(
            self, post_draws):
        # D1 and D2 keep 2 cards each, so the dealer's residual is 4 cards
        proto = _dealer_deal(post_draws)
        with pytest.raises(ProtocolError, match="^dealer has no residual cards left$") as caught:
            proto.check_graph(dealer_graph(3, 2))
        assert not isinstance(caught.value, TopologyError)
        with pytest.raises(ProtocolError, match="^dealer has no residual cards left$"):
            start(proto, dealer_graph(3, 2), (), 0)  # no run is started

    @pytest.mark.parametrize("post_draws", [[(0, 4)], [(0, 2), (1, 1), (2, 1)], [(0, 4), (1, 0)]])
    def test_the_whole_residual_is_served(self, post_draws):
        outcome, _ = run(_dealer_deal(post_draws), dealer_graph(3, 2), (), 5)
        assert len(outcome.served) == 4 and outcome.residual == ()

    @pytest.mark.parametrize("r, post_draws", [(10, [(0, 99)]), (10, [(0, 5)]),
                                               (11, [(0, 6)]), (11, [(0, 3), (2, 3)])])
    def test_without_fixed_quotas_a_request_above_every_lottery_outcome_is_refused_before_the_deal(
            self, r, post_draws):
        # 5 players: with r = 10 every quota is 2, with r = 11 the lottery's player holds 3,
        # so dummies D1 and D2 hold 4 cards, or 5 when the lottery picks one of them
        proto = CardDeal(DealConfig(r, 5, 2), counter_contributors=(0, 1), consolidate_to=3,
                         post_draws=post_draws)
        with pytest.raises(ProtocolError, match="^dealer has no residual cards left$"):
            proto.check_graph(dealer_graph(3, 2))
        with pytest.raises(ProtocolError, match="^dealer has no residual cards left$"):
            start(proto, dealer_graph(3, 2), (), 0)  # no run is started

    @pytest.mark.parametrize("seed, lottery", [(0, 1), (2, 2), (3, 3), (8, 4)])
    def test_a_request_that_fits_only_some_lottery_outcomes_is_refused_after_the_deal(
            self, seed, lottery):
        proto = CardDeal(DealConfig(11, 5, 2), counter_contributors=(0, 1), consolidate_to=3,
                         post_draws=[(0, 5)])
        proto.check_graph(dealer_graph(3, 2))
        r = start(proto, dealer_graph(3, 2), (), seed)
        if lottery in (3, 4):  # a dummy holds the third card: the residual is 5
            outcome = proto.program(r)
            assert len(outcome.served) == 5 and outcome.residual == ()
        else:
            with pytest.raises(ProtocolError, match="^dealer has no residual cards left$"):
                proto.program(r)
        assert [value for _, (label, value), _ in r.log
                if label == "quota lottery value"][0] == lottery
        assert any(route is not None and route[3] == "token" for _, _, route in r.log)

    @pytest.mark.parametrize("post_draws", [[(0, -1)], [(0, 2), (1, -5)]])
    def test_a_negative_post_draw_count_is_refused_when_the_deal_is_built(self, post_draws):
        with pytest.raises(ProtocolError, match="^a post draw count must be at least 0$"):
            _dealer_deal(post_draws)

    def test_the_wrapper_leaves_the_refusal_to_the_gate(self):
        with pytest.raises(TopologyError, match="^post draw to party 2: "):
            dummy_dealer_fixed_hands(6, 2, 2, seed=3, post_draws=[(2, 1)])


@pytest.mark.parametrize("bound", [2, 3, 50, 301])
def test_a_deal_stops_at_its_hop_bound_after_exactly_that_many_token_hops(monkeypatch, bound):
    monkeypatch.setattr(DealConfig, "max_hops", property(lambda cfg: bound))
    proto = CardDeal(DealConfig(52, 3, 10))
    r = start(proto, None, (), 4)
    with pytest.raises(ProtocolError, match="hop bound"):
        proto.program(r)
    assert sum(route is not None and route[3] == "token" for _, _, route in r.log) == bound
