"""The tracer's IR, its affine forms and the counting kernel, against the played runs.

The interpreted path stays the reference: a kernel's counts, their order
and every fault a run raises must be the interpreted path's.
"""

import dataclasses
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringmpc.ring as rr
from ringmpc.analysis import (
    INDEPENDENT_UNIFORM,
    Counterexample,
    SecrecyReport,
    SecrecySpec,
    _checked_graph,
    _compile,
    _compiled_tally,
    _interpreted_tally,
    _judge,
    secrecy_enumeration_check,
)
from ringmpc.commitment import Commit3
from ringmpc.engine import EAVESDROPPER, Protocol, Run, ScriptedSource, view_key
from ringmpc.errors import RingError
from ringmpc.ring import pure
from ringmpc.topology import ChannelGraph, build_cycle, default_parties
from ringmpc.tracer import MAX_LOOPS, trace
from test_compiled import (GRID, STANDARD, assert_same_tally, at_point, both_paths, dealer_spec,
                           tallied, reference_judge)


def played(spec, graph, sites, inputs, draws):
    """(view key, outcome) of the protocol's own code at one point."""
    r = Run(spec.protocol, graph, inputs, seed=0,
            sources=dict.fromkeys({party for party, _ in sites}, ScriptedSource(draws)))
    outcome = spec.protocol.program(r)
    return view_key(spec.observer, graph)(r.log), outcome


class Unlooped:
    """A draw domain of ``n`` values that refuses to be looped over."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __iter__(self):
        raise AssertionError("a draw that no computed value reads was looped")


# -- affine forms --------------------------------------------------------------------


class Masked(Protocol):
    """P1 draws r and s and sends n1 + r to P2; P3 gets n1 + r + 3s - r - 2s - s + n2, which
    the draws cancel out of; P1 notes r*s, an opaque node.  The outcome is 2*n1 - n2."""

    name = "masked"
    arity = 3

    def program(self, run):
        R = self.ring
        n1, n2, _ = run.note_inputs()
        r, s = run.noise(0, "r"), run.noise(0, "s")
        run.send(0, 1, R.add(n1, r), "n1 + r")
        clear = R.sub(R.sub(R.add(R.add(n1, r), R.mul(3, s)), r), R.mul(s, 2))
        run.send(1, 2, R.add(R.sub(clear, s), n2), "n1 + n2")
        run.note(0, "r*s", R.mul(r, s))
        return R.add(R.neg(n2), R.normalize(R.mul(2, n1)))


def test_a_form_is_a_constant_plus_a_sum_over_leaves_reduced_mod_m():
    ring, run, outcome = trace(Masked(rr.mod_ring(5)), build_cycle(3), 3)
    (n1, n2, n3), (r, s) = (v.ref for v in ring.inputs), (v.ref for v in ring.draws)
    forms = {label: ring.forms[value.ref] for _, (label, value), _ in run.log
             if hasattr(value, "ref")}
    assert forms["n1 + r"] == (0, {n1: 1, r: 1})
    assert forms["n1 + n2"] == (0, {n1: 1, n2: 1})  # every draw cancels
    assert forms["r*s"] is None  # a product of two draws is a leaf
    assert ring.nodes[run.log[-1][1][1].ref] == ("mul", (ring.draws[0], ring.draws[1]))
    assert ring.forms[outcome.ref] == (0, {n2: 4, n1: 2})


def test_over_z_a_form_is_exact():
    ring, run, outcome = trace(Masked(rr.integers(3)), build_cycle(3), 3)
    n1, n2, _ = (v.ref for v in ring.inputs)
    # over Z each draw's index maps to its noise by a call node, an opaque leaf
    assert [op for op, _ in ring.nodes if op == "noise_at"] == ["noise_at"] * 2
    assert ring.forms[outcome.ref] == (0, {n2: -1, n1: 2})


def test_an_opaque_value_outside_the_view_and_the_outcome_is_computed_in_every_run():
    # P3's view holds n3 and n1 + n2, and the outcome reads no draw, but the product r*s
    # reads both draws: they are looped, and every run's count is 1.
    spec = SecrecySpec(name="masked P3", protocol=Masked(rr.mod_ring(5)),
                       input_domains=(range(5),) * 3, observer="P3", observer_inputs=(2,),
                       protected=(0,), given=lambda inputs, _o: (inputs[0] + inputs[1]) % 5)
    tally = _compile(spec, _checked_graph(spec))[0]
    assert list(tallied(tally, (1, 2, 3), [range(5)] * 2).values()) == [25]
    with pytest.raises(AssertionError, match="was looped"):
        tallied(tally, (1, 2, 3), [Unlooped(5)] * 2)
    assert_same_tally(spec, *both_paths(spec))


# -- CPython's nesting limit ---------------------------------------------------------------


class ManyDraws(Protocol):
    """P1 and P2 draw DRAWS masks in turn, each added to n1, and send each sum plus n3 to P3."""

    name = "many_draws"
    arity = 3
    DRAWS = 25

    def program(self, run):
        R = self.ring
        n1, n2, n3 = run.note_inputs()
        for i in range(self.DRAWS):
            n1 = R.add(n1, run.noise(i % 2, f"r{i}"))
            run.send(i % 2, 2, R.add(n1, n3), f"masked {i}")
        return R.add(n1, n2)


def test_a_kernel_past_the_nesting_limit_loops_its_innermost_draws_as_one_product():
    # 3**28 runs: far over any budget to enumerate, but the kernel is built all the same
    spec = SecrecySpec(name="many draws", protocol=ManyDraws(rr.mod_ring(3)),
                       input_domains=(range(3),) * 3, observer="P3",
                       target=lambda inputs, outcome: (inputs[0], outcome), budget=3**28)
    graph = _checked_graph(spec)
    compiled = _compile(spec, graph)
    assert compiled is not None  # not left to the interpreted path
    tally, fill, show, sites = compiled
    assert len(sites) == ManyDraws.DRAWS > MAX_LOOPS
    for inputs, draws in [((1, 2, 0), tuple(i % 3 for i in range(25))),
                          ((2, 0, 1), (2,) * 25), ((0, 1, 2), (1, 0) * 12 + (2,))]:
        values, leaves = at_point(tally, inputs, draws)
        assert (show(values), fill(leaves)) == played(spec, graph, sites, inputs, draws)
    # the counts over a few whole domains are those of every point, in product order
    domains = [range(1)] * 19 + [range(2)] * 3 + [range(3)] * 3
    points = {}
    for draws in product(*domains):
        key = at_point(tally, (1, 1, 1), draws)
        points[key] = points.get(key, 0) + 1
    assert list(tallied(tally, (1, 1, 1), domains).items()) == list(points.items())


# -- random affine programs against the reference ----------------------------------------


@pure
def _folded(R, a, b):
    """a branch on two values: a*b + 1 when a > b, else a."""
    return R.add(R.mul(a, b), 1) if a > b else a


class AffineLine(Protocol):
    """A random straight-line program on a 3-cycle whose edge P2-P3 is insecure.

    The values are the inputs, then one per value step: ("draw", party),
    ("normalize", i), ("neg", i), ("add" | "sub" | "mul" | "pure", i, j) and
    ("scale", i, c, left), a product of value i and the constant c on either
    side.  ("note", party, i), ("send", frm, to, i) and ("broadcast", frm, i)
    log value i.  The outcome is the last value.
    """

    name = "affine_line"

    def __init__(self, ring, arity, steps):
        super().__init__(ring)
        self.arity, self.steps = arity, steps

    def default_graph(self, k):
        return ChannelGraph(default_parties(3), [(0, 1, "secure"), (1, 2, "insecure"),
                                                 (0, 2, "secure")])

    def check_graph(self, g):
        pass

    def program(self, run):
        R = self.ring
        values = run.note_inputs()
        for n, (kind, *args) in enumerate(self.steps):
            if kind == "draw":
                values.append(run.noise(args[0], f"r{n}"))
            elif kind in ("normalize", "neg"):
                values.append(getattr(R, kind)(values[args[0]]))
            elif kind in ("add", "sub", "mul"):
                values.append(getattr(R, kind)(values[args[0]], values[args[1]]))
            elif kind == "pure":
                values.append(_folded(R, values[args[0]], values[args[1]]))
            elif kind == "scale":
                v, c = values[args[0]], args[1]
                values.append(R.mul(c, v) if args[2] else R.mul(v, c))
            elif kind == "note":
                run.note(args[0], f"note {n}", values[args[1]])
            elif kind == "send":
                run.send(args[0], args[1], values[args[2]], f"send {n}")
            else:
                run.broadcast(args[0], values[args[1]], f"broadcast {n}")
        return values[-1]


MAX_RUNS = 2048


@st.composite
def affine_lines(draw):
    """(m, arity, steps, observer, concede?) of a program with 1-3 inputs and 1-4 draws.

    Every program holds a product of two values and a pure call, and enumerates
    at most MAX_RUNS runs.
    """
    m = draw(st.integers(2, 7))
    arity = draw(st.integers(1, 3))
    most = max(d for d in range(1, 5) if d == 1 or m ** (arity + d) <= MAX_RUNS)
    slots = ["draw"] * (draw(st.integers(1, most)) - 1) + ["op"] * draw(st.integers(1, 14))
    steps, count = [("draw", draw(st.integers(0, 2)))], arity + 1
    party = st.integers(0, 2)
    # sums are the common case, as in the protocols; a product or a call is a leaf
    kinds = ["add", "add", "sub", "sub", "scale", "neg", "normalize", "mul", "pure", "note",
             "send", "send", "broadcast"]
    for slot in draw(st.permutations(slots)):
        value = st.one_of(st.just(count - 1), st.integers(0, count - 1))  # chains are common
        kind = "draw" if slot == "draw" else draw(st.sampled_from(kinds))
        if kind == "draw":
            steps.append((kind, draw(party)))
        elif kind in ("normalize", "neg"):
            steps.append((kind, draw(value)))
        elif kind in ("add", "sub", "mul", "pure"):
            steps.append((kind, draw(value), draw(value)))
        elif kind == "scale":
            steps.append((kind, draw(value), draw(st.integers(-m, 2 * m)), draw(st.booleans())))
        elif kind == "note":
            steps.append((kind, draw(party), draw(value)))
        elif kind == "send":
            frm = draw(party)
            steps.append((kind, frm, (frm + draw(st.integers(1, 2))) % 3, draw(value)))
        else:
            steps.append((kind, draw(party), draw(value)))
        count += kind not in ("note", "send", "broadcast")
    for kind in ("mul", "pure"):
        if not any(step[0] == kind for step in steps):
            steps.append((kind, draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))))
            count += 1
    observer = draw(st.sampled_from([0, 1, 2, (0, 1), (1, 2), EAVESDROPPER]))
    return m, arity, steps, observer, draw(st.booleans())


@st.composite
def masked_lines(draw):
    """(m, arity, steps, observer, concede?) of a program that adds to an input a multiple of
    one random sum of its 2-3 draws, now and then plus one draw alone, and shows each result
    to P3, who draws none: the shape in which a draw is read only through a draw looped inside
    it."""
    m = draw(st.integers(2, 8))
    arity = draw(st.integers(1, 2 if m ** 4 <= MAX_RUNS else 1))
    count = draw(st.integers(2, 3 if m ** (arity + 3) <= MAX_RUNS else 2))
    steps = [("draw", draw(st.integers(0, 1))) for _ in range(count)]
    draws, n = range(arity, arity + count), arity + count
    for v in draws:
        steps.append(("scale", v, draw(st.integers(0, m - 1)), draw(st.booleans())))
        if v > arity:
            steps.append(("add", n - 1, n))
            n += 1
        n += 1
    mask = n - 1
    for _ in range(draw(st.integers(1, 3))):
        steps.append(("scale", mask, draw(st.integers(1, m)), True))
        if draw(st.integers(0, 3)) == 0:
            steps.append(("add", n, draw(st.sampled_from(draws))))
            n += 1
        steps.append(("add", draw(st.integers(0, arity - 1)), n))
        n += 2
        frm = draw(st.integers(0, 1))
        steps.append(draw(st.sampled_from([("send", frm, 2, n - 1), ("note", 2, n - 1),
                                           ("broadcast", frm, n - 1)])))
    observer = draw(st.sampled_from([2, EAVESDROPPER]))
    return m, arity, steps, observer, draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(affine_lines())
def test_a_random_affine_program_counts_as_the_interpreted_tally(case):
    assert_same_tally(*affine_check(case))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(masked_lines())
def test_a_random_masked_program_counts_as_the_interpreted_tally(case):
    assert_same_tally(*affine_check(case))


def affine_check(case):
    """(spec, compiled, interpreted) of ``AffineLine`` on one drawn case, through
    ``both_paths``."""
    m, arity, steps, observer, concede = case
    if observer == EAVESDROPPER:
        own, name = (), EAVESDROPPER
    elif isinstance(observer, int):
        own, name = (observer,), f"P{observer + 1}"
    else:
        own, name = observer, tuple(f"P{i + 1}" for i in observer)
    own = tuple(i for i in own if i < arity)
    others = tuple(i for i in range(arity) if i not in own) or (0,)
    spec = SecrecySpec(
        name="affine line", protocol=AffineLine(rr.mod_ring(m), arity, steps),
        input_domains=(range(m),) * arity, observer=name, observer_inputs=own,
        protected=others,
        given=(lambda inputs, _o: sum(inputs[i] for i in others) % m) if concede else None,
        target=None if concede else (lambda inputs, outcome: (inputs[others[0]], outcome)),
    )
    return spec, *both_paths(spec)


# -- faults and verdicts -------------------------------------------------------------------


@pure
def _refuses_two(R, v):
    if v == 2:
        raise ValueError("no value at 2")
    return v


class UnusedFault(Protocol):
    """P1 masks n1 for P2, then computes a value that nobody logs or returns and that raises
    at r = 2 over Z_5, where 2r + 1 is 0: an exact division by it, or a pure call on r."""

    name = "unused_fault"
    arity = 3

    def __init__(self, ring, fault):
        super().__init__(ring)
        self.fault = fault

    def program(self, run):
        R = self.ring
        n1, n2, n3 = run.note_inputs()
        r = run.noise(0, "r")
        run.send(0, 1, R.add(n1, r), "masked n1")
        if self.fault == "exact_div":
            R.exact_div(n1, R.add(R.mul(2, r), 1))
        else:
            _refuses_two(R, r)
        return R.add(R.add(n1, n2), n3)


@pytest.mark.parametrize("fault, error", [("exact_div", RingError), ("pure", ValueError)])
def test_an_unused_opaque_value_that_raises_in_some_runs_raises_the_interpreted_error(
        fault, error):
    spec = SecrecySpec(name=f"unused {fault}", protocol=UnusedFault(rr.mod_ring(5), fault),
                       input_domains=(range(5),) * 3, observer="P2", observer_inputs=(1,),
                       protected=(0,))
    graph = _checked_graph(spec)
    # Neither guard point meets the fault (r = 0 and r = 4), so the kernel is built ...
    assert _compile(spec, graph) is not None
    # ... and its run at r = 2 raises, so the interpreted path decides.
    assert _compiled_tally(spec, graph) is None
    with pytest.raises(error) as interpreted:
        _interpreted_tally(spec, graph)
    with pytest.raises(error) as checked:
        secrecy_enumeration_check(spec)
    assert str(checked.value) == str(interpreted.value) in ("0 is not a unit modulo 5",
                                                           "no value at 2")


class LeaksBesideAWeight(Protocol):
    """P1 masks n1 for P2 and then sends P3 the masked n1 less the mask, n1 in the clear; P2
    notes a draw of its own.  Neither draw reaches P3's view or the outcome."""

    name = "leaks_beside_a_weight"
    arity = 3

    def program(self, run):
        R = self.ring
        n1, n2, n3 = run.note_inputs()
        r = run.noise(0, "r")
        masked = R.add(n1, r)
        run.send(0, 1, masked, "masked n1")
        run.noise(1, "s")
        run.send(0, 2, R.sub(masked, r), "n1")
        return R.add(R.add(n1, n2), n3)


def test_a_planted_leak_beside_a_weighted_draw_fails_with_the_counterexample_of_the_runs():
    spec = SecrecySpec(name="leak beside a weight", protocol=LeaksBesideAWeight(rr.mod_ring(3)),
                       input_domains=(range(3),) * 3, observer="P3", observer_inputs=(2,),
                       protected=(0,))
    graph = _checked_graph(spec)
    tally = _compile(spec, graph)[0]
    assert list(tallied(tally, (1, 0, 2), [Unlooped(3)] * 2).values()) == [9]
    assert_same_tally(spec, *both_paths(spec))
    assert secrecy_enumeration_check(spec) == SecrecyReport(
        "leak beside a weight", False, 3**3 * 3**2,
        Counterexample(((0,), None), (0,), (1,),
                       "view distribution differs between target values "
                       "(cell count 27, expected 27*27/81)"))
    assert secrecy_enumeration_check(spec) == _judge(spec, _interpreted_tally(spec, graph))


# -- the claim looked up inside the kernel ---------------------------------------------------


class SumsTwoDraws(Protocol):
    """P1 masks n1 for P2 with r, and P2 masks n2 for P3 with s; the outcome r + s reads both
    draws, so the claim on it is looked up in the innermost loop."""

    name = "sums_two_draws"
    arity = 3

    def program(self, run):
        R = self.ring
        n1, n2, _ = run.note_inputs()
        r, s = run.noise(0, "r"), run.noise(1, "s")
        run.send(0, 1, R.add(n1, r), "masked n1")
        run.send(1, 2, R.add(n2, s), "masked n2")
        return R.add(r, s)


def sums_two_draws_spec(**claim):
    return SecrecySpec(name="sums two draws", protocol=SumsTwoDraws(rr.mod_ring(3)),
                       input_domains=(range(3),) * 3, observer="P3", observer_inputs=(2,),
                       protected=(0,), **claim)


def test_an_outcome_read_from_the_draws_is_claimed_in_the_loop_once_per_distinct_value():
    spec = sums_two_draws_spec(target=lambda _inputs, outcome: outcome)
    tally, _, _, sites = _compile(spec, _checked_graph(spec))
    claimed = []

    def claim(leaves):
        claimed.append(leaves)
        return {}, leaves
    tally((1, 2, 0), [range(n) for _, n in sites], {}, claim)
    # nine runs, three outcomes: each is claimed once, at the first run that gives it
    assert claimed == [(0,), (1,), (2,)]


DRAWN_CLAIMS = {
    "the sum of two draws as the target": sums_two_draws_spec(
        target=lambda _inputs, outcome: outcome),
    "the sum of two draws as given": sums_two_draws_spec(given=lambda _inputs, outcome: outcome),
    "a commit3 target on P1's ledger share": SecrecySpec(
        name="commit3/Z_3/P2 on s1", protocol=Commit3(rr.mod_ring(3)),
        input_domains=(range(3),) * 3, observer="P2", observer_inputs=(1,),
        target=lambda _inputs, outcome: (outcome["P1"]["s1"], outcome["P3"]["r1+r2"])),
    "the dealer check's first share as given": dataclasses.replace(
        dealer_spec(2), given=lambda _inputs, outcome: outcome.shares[0],
        target=lambda _inputs, outcome: outcome.shares[1:]),
}


@pytest.mark.parametrize("name", DRAWN_CLAIMS)
def test_a_claim_on_a_drawn_outcome_counts_as_the_interpreted_tally(name):
    spec = DRAWN_CLAIMS[name]
    assert_same_tally(spec, *both_paths(spec))


@pytest.mark.parametrize("where", ["target", "given"])
def test_a_claim_that_raises_on_some_outcome_raises_the_interpreted_error(where):
    def refuses_two(_inputs, outcome):
        if outcome == 2:
            raise ValueError(f"no {where} at outcome {outcome}")
        return outcome

    spec = sums_two_draws_spec(**{where: refuses_two})
    graph = _checked_graph(spec)
    # Neither guard point meets the fault (r + s is 0 and 1 there), so the kernel is built ...
    assert _compile(spec, graph) is not None
    # ... and its claim raises in the loop, so the interpreted path decides.
    assert _compiled_tally(spec, graph) is None
    with pytest.raises(ValueError) as interpreted:
        _interpreted_tally(spec, graph)
    with pytest.raises(ValueError) as checked:
        secrecy_enumeration_check(spec)
    assert str(checked.value) == str(interpreted.value) == f"no {where} at outcome 2"


# -- a draw absorbed into a draw looped inside it -------------------------------------------


class Watched:
    """The draw domain range(n), noting whether the kernel looped over it or read a value."""

    def __init__(self, n):
        self.values, self.looped, self.read = range(n), False, False

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        self.looped = True
        return iter(self.values)

    def __getitem__(self, i):
        self.read = True
        return self.values[i]

    def __eq__(self, other):
        return self.values == other


def absorbed_draws(spec) -> tuple:
    """The draws of the compiled ``spec`` that its tally reads without looping over them."""
    tally, _, _, sites = _compile(spec, _checked_graph(spec))
    domains = [Watched(n) for _, n in sites]
    tallied(tally, tuple(d[0] for d in spec.input_domains), domains)
    return tuple(i for i, d in enumerate(domains) if d.read and not d.looped)


# The masks that every value the observer sees reads only through a later mask: r1 in the
# millionaires' D (n1+r1+r2, n2+r1+r2) and commit2_dummy's D, and in commit3 the r that P1
# and P3 see only inside a running sum.
ABSORBED = {
    "commit3/Z_2/P1 learns only n2+n3": (1,),
    "commit3/Z_2/P3 learns only n1+n2": (0,),
    "commit3/Z_3/P1 learns only n2+n3": (1,),
    "commit3/Z_3/P3 learns only n1+n2": (0,),
    "commit2_dummy/Z_2/D learns only n1+n2": (0,),
    "millionaires/Z_11/D learns only n1-n2": (0,),
}


@pytest.mark.parametrize("spec", STANDARD, ids=lambda s: s.name)
def test_each_standard_check_absorbs_exactly_its_pinned_draws(spec):
    assert absorbed_draws(spec) == ABSORBED.get(spec.name, ())


class ShiftedMasks(Protocol):
    """P1 draws r and P2 draws s, r first unless ``s_first``; P3 gets n1 + 2r + s and
    n2 + 6r + 3s, which read r only through the mask 2r + s and so tell P3 n2 - 3*n1.
    With ``product``, P3 also gets r*s, an opaque value whose operands read r alone."""

    name = "shifted_masks"
    arity = 3

    def __init__(self, ring, s_first=False, product=False):
        super().__init__(ring)
        self.s_first, self.product = s_first, product

    def program(self, run):
        R = self.ring
        n1, n2, _ = run.note_inputs()
        if self.s_first:
            s, r = run.noise(1, "s"), run.noise(0, "r")
        else:
            r, s = run.noise(0, "r"), run.noise(1, "s")
        run.send(0, 2, R.add(n1, R.add(R.mul(2, r), s)), "n1 + 2r + s")
        run.send(1, 2, R.add(n2, R.add(R.mul(6, r), R.mul(s, 3))), "n2 + 6r + 3s")
        if self.product:
            run.send(0, 2, R.mul(r, s), "r*s")
        return R.add(n1, n2)


def shifted_spec(m, s_first=False, given=True, product=False):
    return SecrecySpec(
        name=f"shifted masks/Z_{m}", protocol=ShiftedMasks(rr.mod_ring(m), s_first, product),
        input_domains=(range(m),) * 3, observer="P3", observer_inputs=(2,), protected=(0, 1),
        given=(lambda inputs, _o: (inputs[1] - 3 * inputs[0]) % m) if given else None)


@pytest.mark.parametrize("m, s_first, product, absorbed", [
    (4, False, False, (0,)),  # r, outermost, shifts s by 2r: 2 is no unit of Z_4, but 1 is
    (5, False, False, (0,)),
    (4, True, False, ()),  # r's only candidate, s, lies outside it; s is no 2 times r in Z_4
    (5, True, False, (0,)),  # but in Z_5 it is 3 times r's coefficient: s is absorbed into r
    (5, False, True, ()),  # r*s reads r apart from s
], ids=["r outer over Z_4", "r outer over Z_5", "r inner over Z_4", "r inner over Z_5",
        "r outer beside r*s"])
def test_a_draw_read_only_through_an_inner_draw_counts_as_the_interpreted_tally(
        m, s_first, product, absorbed):
    spec = shifted_spec(m, s_first, product=product)
    assert absorbed_draws(spec) == absorbed
    assert_same_tally(spec, *both_paths(spec))
    assert secrecy_enumeration_check(spec).ok != product
    # Without the concession P3 learns n2 - 3*n1: the counterexample is the interpreted one.
    planted = shifted_spec(m, s_first, given=False, product=product)
    assert_same_tally(planted, *both_paths(planted))
    report = secrecy_enumeration_check(planted)
    assert not report.ok
    assert report == _judge(planted, _interpreted_tally(planted, _checked_graph(planted)))


def test_a_tally_over_part_of_an_absorbers_domain_raises_unless_the_absorbed_draw_is_fixed():
    spec = shifted_spec(5)
    tally = _compile(spec, _checked_graph(spec))[0]
    with pytest.raises(ValueError, match=r"draw 0 is absorbed into draw 1, whose domain is not "
                                         r"range\(5\)"):
        tallied(tally, (1, 2, 3), [range(5), (0,)])
    with pytest.raises(ValueError, match="absorbed"):
        tallied(tally, (1, 2, 3), [range(5), range(4)])
    # one value of the absorbed draw is one run, as at the guard's points
    assert tallied(tally, (1, 2, 3), [(3,), (4,)]) == {((3, (1 + 6 + 4) % 5, (2 + 18 + 12) % 5),
                                                        ()): 1}


# -- the judge's one-step pass -------------------------------------------------------------


class Cells(dict):
    """A group's cells that note whether the judge read their items, as its general pass does."""

    items_read = False

    def items(self):
        self.items_read = True
        return super().items()


def test_only_a_group_of_equal_cells_that_fill_the_grid_passes_in_one_step():
    spec = SecrecySpec(name="hand-built", protocol=None, input_domains=(), observer="P1",
                       claim=INDEPENDENT_UNIFORM)
    equal = Cells(GRID)
    unequal = Cells({("v1", "a"): 2, ("v1", "b"): 2, ("v2", "a"): 1, ("v2", "b"): 1})
    tally = {(0,): equal, (1,): unequal}
    assert _judge(spec, tally) == SecrecyReport("hand-built", True, 4 + 6)
    assert _judge(spec, tally) == reference_judge(spec, {g: dict(c) for g, c in tally.items()})
    assert not equal.items_read
    assert unequal.items_read  # a passing group of unequal cells takes the general pass


def test_equal_cells_that_do_not_fill_the_grid_fail_with_the_interpreted_counterexample():
    spec = SecrecySpec(name="leak beside a weight", protocol=LeaksBesideAWeight(rr.mod_ring(3)),
                       input_domains=(range(3),) * 3, observer="P3", observer_inputs=(2,),
                       protected=(0,))
    graph = _checked_graph(spec)
    tally, _ = _compiled_tally(spec, graph)
    cells = next(iter(tally.values()))
    # P3 sees n1 in the clear: one view per target, each cell 27 runs, the grid's diagonal
    assert set(cells.values()) == {27} and len(cells) == 3
    report = _judge(spec, tally)
    assert report == _judge(spec, _interpreted_tally(spec, graph))
    assert report == reference_judge(spec, _interpreted_tally(spec, graph))
    assert report.counterexample == Counterexample(
        ((0,), None), (0,), (1,),
        "view distribution differs between target values (cell count 27, expected 27*27/81)")
