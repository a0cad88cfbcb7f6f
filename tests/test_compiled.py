"""The compiled enumeration path against the interpreted one, which stays the reference.

Each spec is tallied both ways: the two tallies must be equal, with their
groups, cells and views in the same first-seen order, and so must the two
reports.  The compiled tally keys each view by the number it gave the
view's values at first sight and returns those values in number order, so
its cells are compared after ``show`` has rebuilt view n from ``views[n]``.
"""

import dataclasses
from collections import Counter
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringmpc.analysis
import ringmpc.ring as rr
from ringmpc.analysis import (
    DETERMINED,
    INDEPENDENT,
    INDEPENDENT_UNIFORM,
    Counterexample,
    SecrecyReport,
    SecrecySpec,
    _checked_graph,
    _compile,
    _compiled_tally,
    _interpreted_tally,
    _judge,
    _view_key,
    secrecy_enumeration_check,
    standard_suite,
)
from ringmpc.arithmetic import (ExampleF1, ExampleF2, SecureProduct, SecureRating, SecureSum,
                                SumOfPowers)
from ringmpc.commitment import Commit3
from ringmpc.engine import EAVESDROPPER, Protocol, Run, ScriptedSource
from ringmpc.errors import BudgetExceeded, RingError
from ringmpc.sharing import DistributeShares, ShareSecret
from ringmpc.tracer import Untraceable, trace
from ringmpc.topology import ChannelGraph, build_cycle, default_parties
from test_analysis import (PLANTED, CountedSum, InsecureRelay, _schedule_spec, sum_spec)


def _ordered(tally):
    return [(group, list(cells.items())) for group, cells in tally.items()]


def shown(spec, graph, compiled):
    """A compiled (tally, views) with each cell (n, target) read as (show(views[n]), target).

    Returns (tally, view keys in number order), or None for None.
    """
    if compiled is None:
        return None
    tally, views = compiled
    show = _compile(spec, graph)[2]
    keys = [show(values) for values in views]
    assert len(set(keys)) == len(keys), "two numbers show the same view"
    assert {n for cells in tally.values() for n, _ in cells} == set(range(len(views)))
    return {group: {(keys[n], target): c for (n, target), c in cells.items()}
            for group, cells in tally.items()}, keys


def interpreted_path(spec, graph):
    """(the interpreted tally, its view keys in the order the runs first give them)."""
    seen = {}

    def recording(observer, graph):
        view_key = _view_key(observer, graph)

        def recorded(log):
            view = view_key(log)
            seen.setdefault(view, None)
            return view
        return recorded

    with mock.patch.object(ringmpc.analysis, "_view_key", recording):
        tally = _interpreted_tally(spec, graph)
    return tally, list(seen)


def both_paths(spec):
    """(compiled (tally, views) through ``shown``, or None; ``interpreted_path``), on the
    check's graph."""
    graph = _checked_graph(spec)
    return shown(spec, graph, _compiled_tally(spec, graph)), interpreted_path(spec, graph)


def assert_same_tally(spec, compiled, interpreted):
    assert compiled is not None, f"{spec.name} fell back to the interpreted path"
    (tally, views), (reference, reference_views) = compiled, interpreted
    assert _ordered(tally) == _ordered(reference)
    assert views == reference_views
    assert _judge(spec, tally) == _judge(spec, reference)


STANDARD = standard_suite()
PLANTED_LEAKS = [dataclasses.replace(s, name=f"planted leak: {s.name}", given=None)
                 for s in STANDARD if s.given is not None]


def dealer_spec(m):
    return SecrecySpec(
        name=f"share_secret_kk/Z_{m}/k=3/D learns nothing about the shares",
        protocol=ShareSecret(rr.mod_ring(m), 3), input_domains=(range(m),),
        observer="D", observer_inputs=(0,), target=lambda _inputs, outcome: outcome.shares,
    )


@pytest.mark.parametrize("spec", STANDARD + PLANTED_LEAKS + [dealer_spec(2)],
                         ids=lambda s: s.name)
def test_every_standard_check_its_planted_leak_and_the_dealer_check_compile(spec):
    compiled, interpreted = both_paths(spec)
    assert_same_tally(spec, compiled, interpreted)
    assert _judge(spec, compiled[0]).ok != spec.name.startswith("planted leak")


def test_the_dealer_check_over_z3_compiles():
    # Its 531,441 runs take ten times as long interpreted as compiled, so the
    # tallies are compared on the Z_2 claim above, and test_dealer_ignorance_z3
    # checks this claim's report, which the compiled path now gives.
    spec = dealer_spec(3)
    evaluate, rebuild, show, sites = _compile(spec, _checked_graph(spec))
    # the dealer's two pieces, then each player's re-split, starting at that player
    assert sites == [(3, 3)] * 2 + [(i % 3, 3) for start in range(3)
                                    for i in range(start, start + 3)]
    values, leaves = evaluate((2,), (1,) * 11)
    view = show(values)
    outcome = rebuild(leaves)
    assert view[:4] == (("secret", 2), ("dealer piece 1", 1), ("dealer piece 2", 1),
                        ("dealer piece 3", 0))
    assert sum(outcome.shares) % 3 == 2


def _test_analysis_specs():
    """Every spec that tests/test_analysis.py checks, built as it builds them."""
    z2 = (range(2),) * 3
    commit3 = SecrecySpec(name="commit3 P1 unconditioned", protocol=Commit3(rr.mod_ring(2)),
                          input_domains=z2, observer="P1", observer_inputs=(0,),
                          protected=(1, 2))
    coalition_uniform = SecrecySpec(
        name="sharing coalition uniform", protocol=ShareSecret(rr.mod_ring(2), 3),
        input_domains=(range(2),), observer=("P1", "P2"),
        target=lambda _inputs, outcome: outcome.shares[2], claim=INDEPENDENT_UNIFORM,
    )
    counted = SecrecySpec(
        name="counted sum", protocol=CountedSum(rr.mod_ring(2)), graph=build_cycle(3),
        input_domains=z2, observer="P1", observer_inputs=(0,), protected=(1, 2),
        given=lambda inputs, _o: (inputs[1] + inputs[2]) % 2,
    )
    relay = SecrecySpec(name="relay P2", protocol=InsecureRelay(rr.mod_ring(2)),
                        input_domains=z2, observer=("P2", "P3"), protected=(0,))
    specs = {
        "sum given": sum_spec(2, 3, 1),
        "sum not given": sum_spec(2, 3, 1, given=False),
        "commit3 unconditioned": commit3,
        "coalition uniform": coalition_uniform,
        "counted sum": counted,
        "insecure relay": relay,
    }
    for shape, build in PLANTED.items():
        specs[f"{shape}, given"] = build(True)
        specs[f"{shape}, not given"] = build(False)
    return specs


ANALYSIS_SPECS = _test_analysis_specs()


@pytest.mark.parametrize("name", sorted(ANALYSIS_SPECS))
def test_every_test_spec_compiles_to_the_interpreted_tally(name):
    spec = ANALYSIS_SPECS[name]
    assert_same_tally(spec, *both_paths(spec))


def _other_program_specs():
    """A claim on each other protocol that traces: mul, unit draws, exact_div, a wiretap, and
    draws over Z, which map each index to the ring's noise by a call node."""
    return {
        "example_f1": SecrecySpec(
            name="example_f1/Z_3/P2", protocol=ExampleF1(rr.mod_ring(3)),
            input_domains=(range(3),) * 3, observer="P2", observer_inputs=(1,),
            protected=(0, 2), given=lambda inputs, _o: (inputs[0] + inputs[2]) % 3),
        "example_f2": SecrecySpec(
            name="example_f2/Z_5/P1", protocol=ExampleF2(rr.mod_ring(5), lambda x: x, "identity"),
            input_domains=(range(5),) * 3, observer="P1", observer_inputs=(0,),
            protected=(1, 2), target=lambda inputs, outcome: (inputs[1], outcome)),
        "secure_rating": SecrecySpec(
            name="secure_rating/Z_2/k=3/wiretap", protocol=SecureRating(rr.mod_ring(2), 3),
            input_domains=(range(2),) * 3, observer=EAVESDROPPER, protected=(0, 1, 2),
            given=lambda inputs, _o: sum(inputs) % 2),
        "distribute_shares": SecrecySpec(
            name="distribute_shares/Z_3/P2", protocol=DistributeShares(rr.mod_ring(3)),
            input_domains=(range(3),), observer="P2", protected=(0,),
            target=lambda _inputs, outcome: outcome),
        **{f"sum_of_powers r={r}": SecrecySpec(
            name=f"sum_of_powers/Z_5/r={r}/P2", protocol=SumOfPowers(rr.mod_ring(5), r),
            input_domains=(range(5),) * 3, observer="P2", observer_inputs=(1,),
            protected=(0, 2), given=lambda _inputs, outcome: outcome) for r in (2, 3)},
        "secure_sum over Z": SecrecySpec(
            name="secure_sum/Z/b=2/P2", protocol=SecureSum(rr.integers(2)), graph=build_cycle(3),
            input_domains=(range(2),) * 3, observer="P2", observer_inputs=(1,),
            protected=(0, 2), given=lambda inputs, _o: inputs[0] + inputs[2]),
    }


OTHER_PROGRAMS = _other_program_specs()


@pytest.mark.parametrize("name", sorted(OTHER_PROGRAMS))
def test_every_other_traceable_protocol_compiles_to_the_interpreted_tally(name):
    spec = OTHER_PROGRAMS[name]
    assert_same_tally(spec, *both_paths(spec))


def test_a_protocol_that_draws_with_rand_int_is_interpreted():
    # rand_int adds its lower bound to a draw: plain arithmetic that a node refuses
    spec = _schedule_spec(((2,),) * 3, m=3)
    spec.protected, spec.claim = (), INDEPENDENT_UNIFORM
    spec.target = lambda inputs, _o: inputs[0] * inputs[0] % 3
    compiled, interpreted = both_paths(spec)
    assert compiled is None
    assert secrecy_enumeration_check(spec) == _judge(spec, interpreted[0])


def test_a_secure_product_claim_is_interpreted():
    # the inputs' check asks is_unit of a traced value
    m = 5
    spec = SecrecySpec(
        name="secure_product/Z_5/P1 learns only the others' product",
        protocol=SecureProduct(rr.mod_ring(m)), graph=build_cycle(3),
        input_domains=(range(1, m),) * 3, observer="P1", observer_inputs=(0,),
        protected=(1, 2), given=lambda inputs, _o: inputs[1] * inputs[2] % m,
    )
    with pytest.raises(Untraceable):
        trace(spec.protocol, _checked_graph(spec), 3)
    compiled, interpreted = both_paths(spec)
    assert compiled is None
    report = secrecy_enumeration_check(spec)
    assert report == _judge(spec, interpreted[0])
    assert report.ok and report.runs == 4**3 * 4**3


class TypeTests(Protocol):
    """P1 masks its input for P2, and P2 notes whether its own input is an int.

    A trace sees a node there and every run an int, so the trace notes
    "other" where every run notes "int".
    """

    name = "type_tests"
    arity = 3

    def program(self, run):
        R = self.ring
        n1, n2, _ = run.note_inputs()
        run.send(0, 1, R.add(n1, run.noise(0, "r")), "masked n1")
        run.note(1, "kind", "int" if isinstance(n2, int) else "other")
        return None


def test_the_first_run_guard_catches_a_type_test():
    spec = SecrecySpec(name="type tests", protocol=TypeTests(rr.mod_ring(3)),
                       input_domains=(range(3),) * 3, observer="P2", observer_inputs=(1,),
                       protected=(0,))
    ring, run, _ = trace(spec.protocol, _checked_graph(spec), 3)
    assert run.log[-1][1] == ("kind", "other")
    compiled, interpreted = both_paths(spec)
    assert compiled is None
    report = secrecy_enumeration_check(spec)
    assert report == _judge(spec, interpreted[0])
    assert report.ok and report.runs == 3**3 * 3


class TypeTestsAtTheTop(Protocol):
    """P1 sends n1 to P2 in the clear if it is an int, and n1 * 0 otherwise.

    A trace sees a node, so the compiled function sends 0 where every run
    sends n1: the two agree at the first inputs, where n1 is 0, and differ
    at the last, where it is 2.
    """

    name = "type_tests_at_the_top"
    arity = 3

    def program(self, run):
        R = self.ring
        n1, _, _ = run.note_inputs()
        run.send(0, 1, R.add(n1, run.noise(0, "r")), "masked n1")
        run.send(0, 1, n1 if isinstance(n1, int) else R.mul(n1, 0), "n1 or 0")
        return None


def test_the_second_guard_point_catches_a_type_test_that_the_first_misses():
    spec = SecrecySpec(name="type tests at the top", protocol=TypeTestsAtTheTop(rr.mod_ring(3)),
                       input_domains=(range(3),) * 3, observer="P2", observer_inputs=(1,),
                       protected=(0,))
    graph = _checked_graph(spec)
    view_key = _view_key(spec.observer, graph)
    ring, traced, outcome = trace(spec.protocol, graph, 3)
    evaluate, _, show = ring.compile(view_key(traced.log), outcome)

    def played(inputs, draws):
        r = Run(spec.protocol, graph, inputs, seed=0, sources={0: ScriptedSource(draws)})
        spec.protocol.program(r)
        return view_key(r.log)

    assert show(evaluate((0, 0, 0), (0,))[0]) == played((0, 0, 0), (0,))
    assert show(evaluate((2, 2, 2), (2,))[0]) != played((2, 2, 2), (2,))
    compiled, interpreted = both_paths(spec)
    assert compiled is None
    report = secrecy_enumeration_check(spec)
    assert report == _judge(spec, interpreted[0])
    assert not report.ok and report.runs == 3**3 * 3


def test_over_budget_with_an_unknown_observer_raises_budget_exceeded():
    spec = sum_spec(2, 3, 0)
    spec.budget, spec.observer = 10, "Q9"
    with pytest.raises(BudgetExceeded) as caught:
        secrecy_enumeration_check(spec)
    assert str(caught.value) == "test sum Z2 k3 P1: enumeration needs 64 runs, budget is 10"
    graph = _checked_graph(spec)
    assert _compiled_tally(spec, graph) is None
    with pytest.raises(BudgetExceeded):
        _interpreted_tally(spec, graph)


class DividesByInput(Protocol):
    """P1 sends its noise divided by n1 + 1, which is no unit of Z_4 when n1 is 1 or 3."""

    name = "divides_by_input"
    arity = 3

    def program(self, run):
        R = self.ring
        n1, _, _ = run.note_inputs()
        run.send(0, 1, R.exact_div(run.noise(0, "r"), R.add(n1, 1)), "r/(n1+1)")
        return None


def test_a_failed_exact_division_raises_the_same_ring_error_on_both_paths():
    spec = SecrecySpec(name="divides by input", protocol=DividesByInput(rr.mod_ring(4)),
                       input_domains=(range(4),) * 3, observer="P2", observer_inputs=(1,),
                       protected=(0,))
    graph = _checked_graph(spec)
    # The compiled pass gives up on the fault; the interpreted path raises it.
    assert _compiled_tally(spec, graph) is None
    with pytest.raises(RingError, match="^2 is not a unit modulo 4$"):
        _interpreted_tally(spec, graph)
    with pytest.raises(RingError, match="^2 is not a unit modulo 4$"):
        secrecy_enumeration_check(spec)


class DividesByDraw(Protocol):
    """P1 sends n1 divided by r*n1 + 1: at n1 = 1 the first draw divides, the second fails."""

    name = "divides_by_draw"
    arity = 3

    def program(self, run):
        R = self.ring
        n1, _, _ = run.note_inputs()
        run.send(0, 1, R.exact_div(n1, R.add(R.mul(run.noise(0, "r"), n1), 1)), "n1/(r*n1+1)")
        return None


def test_a_target_that_raises_before_a_failed_division_raises_first_on_both_paths():
    def target(inputs, outcome):
        if inputs[0] == 1:
            raise ValueError("no target at n1 = 1")
        return inputs[0]

    spec = SecrecySpec(name="divides by draw", protocol=DividesByDraw(rr.mod_ring(4)),
                       input_domains=(range(4),) * 3, observer="P2", observer_inputs=(1,),
                       protected=(0,), target=target)
    graph = _checked_graph(spec)
    # The compiled path is taken: neither guard point meets the target's fault.
    assert _compile(spec, graph) is not None
    # The division fails in the compiled pass at n1 = 1, so the interpreted path decides.
    assert _compiled_tally(spec, graph) is None
    with pytest.raises(ValueError, match="^no target at n1 = 1$"):
        _interpreted_tally(spec, graph)
    with pytest.raises(ValueError, match="^no target at n1 = 1$"):
        secrecy_enumeration_check(spec)


# -- views keyed by the values of their nodes ---------------------------------------


class FlatKeys(Protocol):
    """A straight-line protocol on a 4-cycle whose views hold every shape of entry.

    P1 notes its masked input and then sends it, so one node is in two of
    its entries; P2 notes a constant and sends a pair of nodes over the one
    insecure edge; P4 notes a constant and broadcasts another, so its view
    holds no node; the eavesdropper sees the pair and the broadcast.
    """

    name = "flat_keys"
    arity = 2

    def default_graph(self, k):
        return ChannelGraph(default_parties(4), [(0, 1, "secure"), (1, 2, "insecure"),
                                                 (2, 3, "secure"), (0, 3, "secure")])

    def check_graph(self, g):
        pass

    def program(self, run):
        R = self.ring
        n1, n2 = run.note_inputs()
        masked = R.add(n1, run.noise(0, "r"))
        run.note(0, "masked n1", masked)
        run.send(0, 1, masked, "masked n1")
        run.note(1, "round", 1)
        run.send(1, 2, (masked, R.add(n2, masked)), "pair", kind="elems")
        run.note(3, "round", 1)
        run.broadcast(3, 0, "done")
        return R.add(n1, n2)


FLAT_OBSERVERS = {"P1": (0,), "P2": (1,), "P4": (), ("P1", "P2"): (0, 1), ("P3", "P4"): (),
                  EAVESDROPPER: ()}


@pytest.mark.parametrize("observer", FLAT_OBSERVERS, ids=str)
def test_a_view_of_constants_repeats_and_pairs_is_keyed_by_its_values(observer):
    own = FLAT_OBSERVERS[observer]
    spec = SecrecySpec(name=f"flat keys {observer}", protocol=FlatKeys(rr.mod_ring(3)),
                       input_domains=(range(3),) * 2, observer=observer, observer_inputs=own,
                       target=lambda inputs, outcome: (inputs, outcome))
    graph = _checked_graph(spec)
    compiled, interpreted = _compiled_tally(spec, graph), interpreted_path(spec, graph)
    assert_same_tally(spec, shown(spec, graph, compiled), interpreted)
    tally, views = compiled
    for group, cells in tally.items():
        assert (len({views[n] for n, _ in cells})
                == len({view for view, _ in interpreted[0][group]}))
    if observer == "P4":
        show = _compile(spec, graph)[2]
        assert {views[n] for cells in tally.values() for n, _ in cells} == {()}
        assert views == [()]
        assert show(()) == (("round", 1), ("done", 0))


@pytest.mark.parametrize("spec", [next(s for s in STANDARD if s.name.startswith(
    "secure_sum/Z_2/k=3/P1 ")), dealer_spec(2)], ids=lambda s: s.name)
def test_show_gives_the_protocols_own_view_at_every_run(spec):
    graph = _checked_graph(spec)
    evaluate, _, show, sites = _compile(spec, graph)
    view_key = _view_key(spec.observer, graph)
    drawers = {party for party, _ in sites}
    views = {}
    for inputs in product(*spec.input_domains):
        for draws in product(*(range(n) for _, n in sites)):
            r = Run(spec.protocol, graph, inputs, seed=0,
                    sources=dict.fromkeys(drawers, ScriptedSource(draws)))
            spec.protocol.program(r)
            values, view = evaluate(inputs, draws)[0], view_key(r.log)
            assert show(values) == view
            assert views.setdefault(values, view) == view
    # one view per tuple of values, and one tuple of values per view
    assert len(set(views.values())) == len(views) > 1


class NotesAList(Protocol):
    """P2 notes a list, which no view key can hash, beside its masked input."""

    name = "notes_a_list"
    arity = 3

    def program(self, run):
        R = self.ring
        n1, _, _ = run.note_inputs()
        run.send(0, 1, R.add(n1, run.noise(0, "r")), "masked n1")
        run.note(1, "list", [1, 2])
        return None


def test_a_view_whose_constant_cannot_be_hashed_is_left_to_the_interpreted_path():
    # the values of the view's nodes hash, but the interpreted tally hashes the whole view
    spec = SecrecySpec(name="notes a list", protocol=NotesAList(rr.mod_ring(2)),
                       input_domains=(range(2),) * 3, observer="P2", observer_inputs=(1,),
                       protected=(0,))
    graph = _checked_graph(spec)
    assert _compile(spec, graph) is None
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        _interpreted_tally(spec, graph)
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        secrecy_enumeration_check(spec)


# -- the judge against the double loop over Counter cells --------------------------


def reference_judge(spec, tally):
    """``_judge`` as it was when every tally held Counter cells: every cell, in order."""
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
        view_totals, target_totals = Counter(), Counter()
        for (vk, target), c in cells.items():
            view_totals[vk] += c
            target_totals[target] += c
        total = sum(cells.values())
        for vk in view_totals:
            for target in target_totals:
                c = cells[vk, target]
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


@pytest.mark.parametrize("spec", STANDARD + PLANTED_LEAKS + list(ANALYSIS_SPECS.values()),
                         ids=lambda s: s.name)
def test_the_judge_equals_the_double_loop_on_every_interpreted_tally(spec):
    tally = _interpreted_tally(spec, _checked_graph(spec))
    assert _judge(spec, tally) == reference_judge(spec, tally)


def _hand_built(claim, *groups):
    spec = SecrecySpec(name="hand-built", protocol=None, input_domains=(), observer="P1",
                       claim=claim)
    return spec, {(g,): Counter(cells) for g, cells in enumerate(groups)}


GRID = {("v1", "a"): 1, ("v1", "b"): 1, ("v2", "a"): 1, ("v2", "b"): 1}
HAND_BUILT = {
    "a full grid of equal cells": _hand_built("independent", GRID),
    "a missing cell": _hand_built("independent", GRID, {("v1", "a"): 2, ("v1", "b"): 1,
                                                         ("v2", "a"): 1}),
    "a missing cell among equal ones": _hand_built("independent", {("v1", "a"): 1,
                                                                   ("v1", "b"): 1,
                                                                   ("v2", "a"): 1}),
    "a full grid that does not factorize": _hand_built(
        "independent", {("v1", "a"): 2, ("v1", "b"): 1, ("v2", "a"): 1, ("v2", "b"): 2}),
    "a full grid that factorizes with unequal cells": _hand_built(
        "independent", {("v1", "a"): 2, ("v1", "b"): 1, ("v2", "a"): 4, ("v2", "b"): 2}),
    "determined": _hand_built(DETERMINED, {("v1", "a"): 3, ("v2", "b"): 1}),
    "not determined": _hand_built(DETERMINED, {("v1", "a"): 3, ("v2", "b"): 1},
                                  {("v1", "a"): 1, ("v1", "b"): 2}),
    "uniform": _hand_built(INDEPENDENT_UNIFORM, GRID),
    "independent but not uniform": _hand_built(
        INDEPENDENT_UNIFORM, GRID, {("v1", "a"): 2, ("v1", "b"): 1, ("v2", "a"): 2,
                                    ("v2", "b"): 1}),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_the_judge_equals_the_double_loop_on_a_hand_built_tally(name):
    spec, tally = HAND_BUILT[name]
    report = _judge(spec, tally)
    assert report == reference_judge(spec, tally)
    assert report.ok == (name in ("a full grid of equal cells", "determined", "uniform",
                                  "a full grid that factorizes with unequal cells"))
    assert _judge(spec, {key: dict(cells) for key, cells in tally.items()}) == report


LABELS = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b", "v1"]))


@st.composite
def random_tallies(draw):
    """(claim, tally of Counter cells) with 1-3 groups of int or string views and targets.

    A group's cells are a random subset of its view x target grid, in a
    random order; its counts either factorize over the grid or are drawn
    at random, so full, partial, equal and unequal grids all occur.
    """
    claim = draw(st.sampled_from([INDEPENDENT, INDEPENDENT_UNIFORM, DETERMINED]))
    tally = {}
    for g in range(draw(st.integers(1, 3))):
        views = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
        targets = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
        grid = [(v, t) for v in views for t in targets]
        if draw(st.booleans()):
            cells = grid
        else:
            cells = draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
        if draw(st.booleans()):
            weight = {x: draw(st.integers(1, 3)) for x in views + targets}
            counts = [weight[v] * weight[t] for v, t in cells]
        else:
            counts = draw(st.lists(st.integers(1, 4), min_size=len(cells), max_size=len(cells)))
        tally[(g,)] = Counter(dict(zip(cells, counts)))
    return claim, tally


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(random_tallies())
def test_the_judge_equals_the_double_loop_on_a_random_tally(case):
    claim, tally = case
    spec = SecrecySpec(name="random", protocol=None, input_domains=(), observer="P1",
                       claim=claim)
    report = reference_judge(spec, tally)
    assert _judge(spec, tally) == report
    assert _judge(spec, {key: dict(cells) for key, cells in tally.items()}) == report


# -- random straight-line protocols -------------------------------------------------


class StraightLine(Protocol):
    """A random straight-line program on a secure 3-cycle, given as a list of steps.

    The values are the three inputs, then one per value step.  A value step
    is ("draw", party), ("unit", party), ("const", c), ("neg", i) or (op, i,
    j) for op in add, sub, mul and exact_div, over earlier values i and j;
    ("note", party, i), ("send", frm, to, i) and ("broadcast", frm, i) log
    value i.  The outcome is the last value.
    """

    name = "straight_line"
    arity = 3

    def __init__(self, ring, steps):
        super().__init__(ring)
        self.steps = steps

    def program(self, run):
        R = self.ring
        values = run.note_inputs()
        for n, step in enumerate(self.steps):
            kind, *args = step
            if kind in ("draw", "unit"):
                values.append(run.noise(args[0], f"r{n}", require_unit=kind == "unit"))
            elif kind == "const":
                values.append(args[0])
            elif kind == "neg":
                values.append(R.neg(values[args[0]]))
            elif kind in ("add", "sub", "mul", "exact_div"):
                values.append(getattr(R, kind)(values[args[0]], values[args[1]]))
            elif kind == "note":
                run.note(args[0], f"note {n}", values[args[1]])
            elif kind == "send":
                run.send(args[0], args[1], values[args[2]], f"send {n}")
            else:
                run.broadcast(args[0], values[args[1]], f"broadcast {n}")
        return values[-1]


MAX_DRAWS = 2


@st.composite
def straight_lines(draw):
    """(m, steps, observer index or coalition or eavesdropper, given?) of a random protocol."""
    m = draw(st.integers(2, 5))
    steps, count, draws = [], 3, 0
    party = st.integers(0, 2)
    for _ in range(draw(st.integers(1, 12))):
        value = st.integers(0, count - 1)
        kinds = ["const", "neg", "add", "sub", "mul", "exact_div", "note", "send", "broadcast"]
        if draws < MAX_DRAWS:
            kinds += ["draw", "unit"]
        kind = draw(st.sampled_from(kinds))
        if kind in ("draw", "unit"):
            steps.append((kind, draw(party)))
            draws += 1
        elif kind == "const":
            steps.append((kind, draw(st.integers(-m, 2 * m))))
        elif kind == "neg":
            steps.append((kind, draw(value)))
        elif kind in ("add", "sub", "mul", "exact_div"):
            steps.append((kind, draw(value), draw(value)))
        elif kind == "note":
            steps.append((kind, draw(party), draw(value)))
        elif kind == "send":
            frm = draw(party)
            steps.append((kind, frm, (frm + draw(st.integers(1, 2))) % 3, draw(value)))
        else:
            steps.append((kind, draw(party), draw(value)))
        count += kind not in ("note", "send", "broadcast")
    observer = draw(st.sampled_from([0, 1, 2, (0, 1), (1, 2), EAVESDROPPER]))
    return m, steps, observer, draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(straight_lines())
def test_a_random_straight_line_protocol_compiles_to_the_interpreted_tally(case):
    m, steps, observer, concede_sum = case
    if observer == EAVESDROPPER:
        own, name = (), EAVESDROPPER
    elif isinstance(observer, int):
        own, name = (observer,), f"P{observer + 1}"
    else:
        own, name = observer, tuple(f"P{i + 1}" for i in observer)
    others = tuple(i for i in range(3) if i not in own)
    spec = SecrecySpec(
        name="straight line", protocol=StraightLine(rr.mod_ring(m), steps),
        input_domains=(range(m),) * 3, observer=name, observer_inputs=own, protected=others,
        given=(lambda inputs, _o: sum(inputs[i] for i in others) % m) if concede_sum else None,
        target=None if concede_sum else (lambda inputs, outcome: (inputs[others[0]], outcome)),
    )
    graph = _checked_graph(spec)
    try:
        interpreted = interpreted_path(spec, graph)
    except RingError as e:
        # a division by a non-unit: the compiled path leaves a fault at the first
        # run to the interpreted path, and raises a later one itself
        try:
            assert _compiled_tally(spec, graph) is None
        except RingError as compiled_error:
            assert str(compiled_error) == str(e)
        return
    assert_same_tally(spec, shown(spec, graph, _compiled_tally(spec, graph)), interpreted)
