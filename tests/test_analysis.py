from itertools import combinations, product
from math import prod

import pytest

import ringmpc.ring as rr
from ringmpc.analysis import (
    DETERMINED,
    INDEPENDENT_UNIFORM,
    SecrecySpec,
    secrecy_enumeration_check,
    standard_suite,
    suite_by_name,
    transmission_stats,
)
from ringmpc.arithmetic import SecureSum
from ringmpc.commitment import Commit3
from ringmpc.engine import EAVESDROPPER, ScriptedSource, merge_views, run
from ringmpc.errors import BudgetExceeded, ProtocolError
from ringmpc.poker import CardDeal, DealConfig
from ringmpc.sharing import ShareSecret
from ringmpc.topology import build_cycle
from ringmpc.analysis import enumerate_runs
from ringmpc.engine import Protocol, View, eavesdropper_view, view_key
from ringmpc.topology import ChannelGraph, default_parties


def sum_spec(m, k, observer_index, given=True):
    others = tuple(j for j in range(k) if j != observer_index)
    return SecrecySpec(
        name=f"test sum Z{m} k{k} P{observer_index + 1}",
        protocol=SecureSum(rr.mod_ring(m)),
        graph=build_cycle(k),
        input_domains=tuple(range(m) for _ in range(k)),
        observer=f"P{observer_index + 1}",
        observer_inputs=(observer_index,),
        protected=others,
        given=(lambda inputs, _o: sum(inputs[j] for j in others) % m) if given else None,
    )


class TestSecrecyEnumeration:
    def test_sum_claim_passes(self):
        report = secrecy_enumeration_check(sum_spec(2, 3, 1))
        assert report.ok and report.runs == 2**3 * 2**3

    def test_sum_without_conditioning_fails(self):
        # the observer does learn the others' total, so the unconditioned
        # claim must produce a counterexample
        report = secrecy_enumeration_check(sum_spec(2, 3, 1, given=False))
        assert not report.ok
        assert report.counterexample is not None

    def test_commit3_unconditioned_p1_fails_through_n2_plus_n3(self):
        spec = SecrecySpec(
            name="commit3 P1 unconditioned",
            protocol=Commit3(rr.mod_ring(2)),
            input_domains=(range(2), range(2), range(2)),
            observer="P1",
            observer_inputs=(0,),
            protected=(1, 2),
        )
        report = secrecy_enumeration_check(spec)
        assert not report.ok
        a, b = report.counterexample.target_a, report.counterexample.target_b
        # the leak is exactly the sum: distinguishable targets differ in n2+n3
        assert (sum(a) % 2) != (sum(b) % 2)

    def test_budget_enforced(self):
        spec = sum_spec(2, 3, 0)
        spec.budget = 10
        with pytest.raises(BudgetExceeded):
            secrecy_enumeration_check(spec)

    def test_eavesdropper_observer(self):
        m, k = 2, 3
        spec = SecrecySpec(
            name="sum eavesdropper",
            protocol=SecureSum(rr.mod_ring(m)),
            graph=build_cycle(k),
            input_domains=tuple(range(m) for _ in range(k)),
            observer=EAVESDROPPER,
            protected=(0, 1, 2),
            given=lambda inputs, _o: sum(inputs) % m,
        )
        assert secrecy_enumeration_check(spec).ok

    def test_dealer_ignorance_z2(self):
        spec = SecrecySpec(
            name="sharing dealer ignorance",
            protocol=ShareSecret(rr.mod_ring(2), 3),
            input_domains=(range(2),),
            observer="D",
            observer_inputs=(0,),
            target=lambda _inputs, outcome: outcome.shares,
        )
        report = secrecy_enumeration_check(spec)
        assert report.ok and report.runs == 2 * 2**11

    @pytest.mark.slow
    def test_dealer_ignorance_z3(self):
        spec = SecrecySpec(
            name="sharing dealer ignorance Z3",
            protocol=ShareSecret(rr.mod_ring(3), 3),
            input_domains=(range(3),),
            observer="D",
            observer_inputs=(0,),
            target=lambda _inputs, outcome: outcome.shares,
        )
        report = secrecy_enumeration_check(spec)
        assert report.ok and report.runs == 3 * 3**11

    def test_two_player_coalition_missing_share_uniform_when_secret_private(self):
        spec = SecrecySpec(
            name="sharing coalition uniform",
            protocol=ShareSecret(rr.mod_ring(2), 3),
            input_domains=(range(2),),
            observer=("P1", "P2"),
            target=lambda _inputs, outcome: outcome.shares[2],
            claim=INDEPENDENT_UNIFORM,
        )
        assert secrecy_enumeration_check(spec).ok

    def test_two_player_coalition_determines_share_when_secret_public(self):
        spec = SecrecySpec(
            name="sharing coalition determined",
            protocol=ShareSecret(rr.mod_ring(2), 3),
            input_domains=(range(2),),
            observer=("P1", "P2"),
            given=lambda inputs, _o: inputs[0],
            target=lambda _inputs, outcome: outcome.shares[2],
            claim=DETERMINED,
        )
        assert secrecy_enumeration_check(spec).ok

    def test_standard_suite_names_are_selectable(self):
        suite = standard_suite()
        assert len(suite) == 24
        picked = suite_by_name([suite[0].name])
        assert len(picked) == 1
        with pytest.raises(ProtocolError):
            suite_by_name(["no such check"])


def gaps(k, members):
    """The maximal runs of non-members between two members, going round the k-cycle."""
    start = members[0]
    found, current = [], []
    for step in range(1, k + 1):
        i = (start + step) % k
        if i in members:
            if current:
                found.append(tuple(current))
            current = []
        else:
            current.append(i)
    return found


def coalition_spec(m, k, members, **claim):
    """A claim about what the pooled views of ``members`` on a secure-sum k-cycle tell."""
    names = tuple(f"P{i + 1}" for i in members)
    return SecrecySpec(
        name=f"sum Z{m} k{k} {'+'.join(names)}",
        protocol=SecureSum(rr.mod_ring(m)),
        graph=build_cycle(k),
        input_domains=tuple(range(m) for _ in range(k)),
        observer=names,
        observer_inputs=members,
        **claim,
    )


def slot_sum(m, slots):
    """The target or given: the sum of the inputs in ``slots`` over Z_m."""
    return lambda inputs, _o: sum(inputs[j] for j in slots) % m


def proper_coalitions(k):
    return [c for size in range(1, k) for c in combinations(range(k), size)]


class TestCoalitionProfile:
    def test_gaps_run_round_the_cycle(self):
        assert gaps(5, (0, 2)) == [(1,), (3, 4)]
        assert gaps(5, (4, 0)) == [(1, 2, 3)]
        assert gaps(4, (1,)) == [(2, 3, 0)]
        assert gaps(3, (0, 1, 2)) == []

    @pytest.mark.parametrize("m,k", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 4)])
    def test_a_coalition_learns_exactly_the_sum_of_each_gap(self, m, k):
        # apart from its own inputs: nothing beyond the gap sums, and each gap sum exactly
        for members in proper_coalitions(k):
            holes = gaps(k, members)
            outsiders = tuple(j for j in range(k) if j not in members)
            sums = [slot_sum(m, gap) for gap in holes]
            only = coalition_spec(m, k, members, protected=outsiders,
                                  given=lambda inputs, o: tuple(f(inputs, o) for f in sums))
            assert secrecy_enumeration_check(only).ok, members
            for gap, total in zip(holes, sums):
                spec = coalition_spec(m, k, members, target=total, claim=DETERMINED)
                assert secrecy_enumeration_check(spec).ok, (members, gap)

    def test_a_pair_apart_on_a_five_cycle_learns_the_input_between_them(self):
        # P1 and P3 are not an arc: pooled after the run, their views pin n2 down
        learns_n2 = coalition_spec(2, 5, (0, 2), target=slot_sum(2, (1,)), claim=DETERMINED)
        assert secrecy_enumeration_check(learns_n2).ok
        only_the_total = coalition_spec(2, 5, (0, 2), protected=(1, 3, 4),
                                        given=slot_sum(2, (1, 3, 4)))
        assert not secrecy_enumeration_check(only_the_total).ok

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_agrees_with_brute_force_over_z2(self, k):
        m = 2
        proto = SecureSum(rr.mod_ring(m))
        graph = build_cycle(k)
        transcripts = []
        for inputs in product(range(m), repeat=k):
            for noise in product(range(m), repeat=k):
                sources = {i: ScriptedSource([noise[i]]) for i in range(k)}
                transcripts.append((inputs, run(proto, graph, inputs, seed=0, sources=sources)[1]))
        for coalition in proper_coalitions(k):
            names = [f"P{i + 1}" for i in coalition]
            # brute force: group every (inputs x noise) run by the coalition's
            # joint view and see which outsider inputs stay constant per group
            groups = {}
            for inputs, t in transcripts:
                key = merge_views(*(View(name, t.views[name]) for name in names)).key()
                groups.setdefault(key, []).append(inputs)
            outsiders = [j for j in range(k) if j not in coalition]
            for target in [(j,) for j in outsiders] + [tuple(outsiders)]:
                brute = all(len({sum(ins[j] for j in target) % m for ins in g}) == 1
                            for g in groups.values())
                spec = coalition_spec(m, k, coalition, target=slot_sum(m, target),
                                      claim=DETERMINED)
                assert secrecy_enumeration_check(spec).ok == brute, (coalition, target)


class TestTransmissionStats:
    def test_single_card_hand_simulation(self):
        # deterministic at N=1: the token makes one full circle of 0, the
        # keeper of 0 introduces 1, and the halt comes on the introducer's
        # second receipt -- ten token messages in all (hand-checked)
        cfg = DealConfig(1, 3, 1, quotas=(1, 0, 0))
        _, t = run(CardDeal(cfg), None, (), seed=0)
        stats = transmission_stats(t)
        assert stats.message_count == 10
        assert stats.circles == {0: 1}
        assert stats.keeper_of[0] == "P2"
        assert stats.total_bits == 4 * 1 + 6 * 2
        assert stats.mean_circles() == 1.0

    def test_wrong_protocol_rejected(self):
        _, t = run(SecureSum(rr.integers()), build_cycle(3), (1, 2, 3), seed=0)
        with pytest.raises(ProtocolError):
            transmission_stats(t)

    def test_message_count_grows_with_deck_size(self):
        counts = []
        for r in (10, 20, 40):
            total = 0
            for seed in range(40):
                _, t = run(CardDeal(DealConfig(r, 3, 10)), None, (), seed=seed)
                total += len(t.messages)
            counts.append(total / 40)
        assert counts[0] < counts[1] < counts[2]

    def test_active_player_counts_never_increase(self):
        _, t = run(CardDeal(DealConfig(12, 3, 4)), None, (), seed=3)
        stats = transmission_stats(t)
        actives = [stats.active_players[v] for v in sorted(stats.active_players)]
        assert all(a >= b for a, b in zip(actives, actives[1:]))
        assert actives[0] == 3

    def test_quota_recovery_from_lottery_broadcast(self):
        _, t = run(CardDeal(DealConfig(7, 3, 3)), None, (), seed=5)
        stats = transmission_stats(t)  # must not raise despite implicit quotas
        assert sum(1 for v in stats.keeper_of if v >= 1) == 6  # keeps of 1..6 visible

    def test_a_deal_with_two_dummies_is_sized(self):
        # the consolidated load one dummy hands the other is sized card by card
        from ringmpc.poker import dummy_dealer_fixed_hands

        _, t = dummy_dealer_fixed_hands(12, 2, 3, seed=7)
        [load] = [m.payload for m in t.messages if m.label == "consolidated cards"]
        stats = transmission_stats(t)
        assert stats.message_count == len(t.messages)
        assert stats.total_bits == sum((c + 1).bit_length() for c in load) + sum(
            (int(m.payload) + 1).bit_length() for m in t.messages
            if m.label != "consolidated cards")


# -- the check's view keys against the transcript's views ----------------------


class InsecureRelay(Protocol):
    """P1 sends its input masked by fresh noise to P2 over an insecure channel."""

    name = "insecure_relay"
    arity = 3

    def default_graph(self, k):
        return ChannelGraph(default_parties(3),
                            [(0, 1, "insecure"), (1, 2, "secure"), (0, 2, "secure")])

    def check_graph(self, g):
        pass

    def program(self, run):
        R = self.ring
        for i, v in enumerate(run.inputs):
            run.note(i, f"n{i + 1}", v)
        r = run.noise(0, "r")
        run.send(0, 1, R.add(run.inputs[0], r), "masked n1")
        run.send(0, 2, r, "r")
        run.broadcast(2, R.add(run.inputs[2], r), "n3+r")
        return None


def _transcript_view(observer, t):
    """The observer's view as the transcript gives it, read without ``view_key``."""
    if observer == EAVESDROPPER:
        return eavesdropper_view(t)
    if isinstance(observer, tuple):
        return merge_views(*(View(name, t.views[name]) for name in observer))
    return View(observer, t.views[observer])


# protocol, its input domains, and one observer of each shape
VIEW_KEY_CASES = {
    "secure_sum Z_2 k=3": (SecureSum(rr.mod_ring(2)), (range(2),) * 3,
                           ("P2", ("P1", "P3"), EAVESDROPPER)),
    "commit3 Z_2": (Commit3(rr.mod_ring(2)), (range(2),) * 3,
                    ("P1", ("P2", "P3"), EAVESDROPPER)),
    "share_secret_kk Z_2 k=3": (ShareSecret(rr.mod_ring(2), 3), (range(2),),
                                ("D", ("P1", "P2"), EAVESDROPPER)),
    "insecure relay Z_2": (InsecureRelay(rr.mod_ring(2)), (range(2),) * 3,
                           ("P2", ("P2", "P3"), EAVESDROPPER)),
}


@pytest.mark.parametrize("case", sorted(VIEW_KEY_CASES))
def test_view_keys_equal_the_transcript_views(case):
    protocol, domains, observers = VIEW_KEY_CASES[case]
    spec = SecrecySpec(name=case, protocol=protocol, input_domains=domains, observer=None)
    runs = 0
    keys = None
    for _inputs, _outcome, r in enumerate_runs(spec):
        if keys is None:
            keys = [(obs, view_key(obs, r.graph)) for obs in observers]
        t = r.transcript()
        for obs, key in keys:
            assert key(r.log) == _transcript_view(obs, t).key()
        runs += 1
    full = prod(len(d) for d in domains) * prod(n for _, n in r.draw_sites)
    assert runs == full


def test_insecure_relay_view_keys_see_the_tapped_messages():
    spec = SecrecySpec(name="relay", protocol=InsecureRelay(rr.mod_ring(2)),
                       input_domains=((1,), (0,), (1,)), observer=None)
    [r] = [r for _, _, r in enumerate_runs(spec) if r.log[3][1] == ("r", 1)]
    assert view_key(EAVESDROPPER, r.graph)(r.log) == (("masked n1", 0), ("n3+r", 0))
    assert view_key(("P2", "P3"), r.graph)(r.log) == (
        ("P2:n2", 0), ("P2:masked n1", 0), ("P2:n3+r", 0),
        ("P3:n3", 1), ("P3:r", 1), ("P3:n3+r", 0))


def _sum_eavesdropper_spec(given=True):
    m, k = 2, 3
    return SecrecySpec(
        name="sum eavesdropper", protocol=SecureSum(rr.mod_ring(m)), graph=build_cycle(k),
        input_domains=tuple(range(m) for _ in range(k)), observer=EAVESDROPPER,
        protected=(0, 1, 2), given=(lambda inputs, _o: sum(inputs) % m) if given else None,
    )


def _share_coalition_spec(given=True):
    return SecrecySpec(
        name="sharing coalition determined", protocol=ShareSecret(rr.mod_ring(2), 3),
        input_domains=(range(2),), observer=("P1", "P2"),
        given=(lambda inputs, _o: inputs[0]) if given else None,
        target=lambda _inputs, outcome: outcome.shares[2], claim=DETERMINED,
    )


PLANTED = {
    "party": lambda given: sum_spec(2, 3, 1, given=given),
    "coalition": _share_coalition_spec,
    "eavesdropper": _sum_eavesdropper_spec,
}


@pytest.mark.parametrize("shape", sorted(PLANTED))
def test_a_planted_leak_fails_for_every_observer_shape(shape):
    assert secrecy_enumeration_check(PLANTED[shape](True)).ok
    report = secrecy_enumeration_check(PLANTED[shape](False))
    assert not report.ok
    assert report.counterexample is not None
    assert report.counterexample.target_a != report.counterexample.target_b


@pytest.mark.parametrize("observer", ["Q9", ("P1", "Q9"), ("Q9", "P1")])
def test_an_unknown_observer_raises_the_key_error(observer):
    spec = sum_spec(2, 3, 0)
    spec.observer = observer
    with pytest.raises(KeyError) as caught:
        secrecy_enumeration_check(spec)
    assert caught.value.args == ("'Q9' did not participate in this run",)


class CountedSum(SecureSum):
    """SecureSum that counts the graph checks made on it."""

    def __init__(self, ring):
        super().__init__(ring)
        self.graph_checks = 0

    def check_graph(self, g):
        self.graph_checks += 1
        super().check_graph(g)


@pytest.mark.parametrize("given_graph", [True, False], ids=["spec.graph", "default graph"])
def test_each_check_checks_the_graph_exactly_once(given_graph):
    proto = CountedSum(rr.mod_ring(2))
    spec = SecrecySpec(
        name="counted sum", protocol=proto, graph=build_cycle(3) if given_graph else None,
        input_domains=(range(2),) * 3, observer="P1", observer_inputs=(0,), protected=(1, 2),
        given=lambda inputs, _o: (inputs[1] + inputs[2]) % 2,
    )
    for checks in (1, 2):
        assert secrecy_enumeration_check(spec).ok
        assert proto.graph_checks == checks


# -- the draw schedule of an enumeration ---------------------------------------


class DrawsOnInput(Protocol):
    """P1 draws once over each domain of ``domains[n1]`` and sends every draw to P2."""

    name = "draws_on_input"
    arity = 3

    def __init__(self, ring, domains, fail_on=None):
        super().__init__(ring)
        self.domains = domains
        self.fail_on = fail_on

    def program(self, run):
        n1 = run.note_inputs()[0]
        for j, n in enumerate(self.domains[n1]):
            run.send(0, 1, run.rand_int(0, 0, n - 1, f"draw {j}"), f"draw {j}")
        if n1 == self.fail_on:
            raise ValueError("the protocol's own fault")


def _schedule_spec(domains, fail_on=None, m=2):
    return SecrecySpec(
        name="draws on input", protocol=DrawsOnInput(rr.mod_ring(m), domains, fail_on),
        input_domains=(range(m), range(2), range(2)), observer="P2", observer_inputs=(1,),
        protected=(0,),
    )


# The draw domains on input 0, then on input 1.
SCHEDULE_FAULTS = {
    "more draws": ((2,), (2, 2)),
    "fewer draws": ((2, 2), (2,)),
    "another domain": ((2,), (3,)),
    "a smaller domain": ((3,), (2,)),
}


@pytest.mark.parametrize("fault", sorted(SCHEDULE_FAULTS))
def test_a_run_off_the_discovered_draw_sites_raises(fault):
    domains = SCHEDULE_FAULTS[fault]
    with pytest.raises(ProtocolError) as caught:
        secrecy_enumeration_check(_schedule_spec(domains))
    assert str(caught.value).startswith("draws on input: the run on inputs (1, 0, 0) draws at ")
    assert str(caught.value).endswith(f"not at the discovered sites {[(0, n) for n in domains[0]]}")


def test_the_protocols_own_value_error_on_the_schedule_propagates():
    with pytest.raises(ValueError) as caught:
        secrecy_enumeration_check(_schedule_spec(((2,), (2,)), fail_on=1))
    assert type(caught.value) is ValueError
    assert str(caught.value) == "the protocol's own fault"


def test_a_uniform_claim_on_a_skewed_target_fails():
    # P2's view is independent of n1, but n1 * n1 over Z_3 is 0 once and 1 twice
    spec = _schedule_spec(((2,),) * 3, m=3)
    spec.protected, spec.claim = (), INDEPENDENT_UNIFORM
    spec.target = lambda inputs, _o: inputs[0] * inputs[0] % 3
    report = secrecy_enumeration_check(spec)
    assert not report.ok
    assert report.counterexample.detail == "target marginal is not uniform"
    assert (report.counterexample.target_a, report.counterexample.target_b) == (0, 1)
