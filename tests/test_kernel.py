"""The tracer's IR, its affine forms and the counting kernel, against the played runs.

The interpreted path stays the reference: a kernel's counts, their order
and every fault a run raises must be the interpreted path's.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ringmpc.ring as rr
from ringmpc.analysis import (
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
)
from ringmpc.engine import EAVESDROPPER, Protocol, Run, ScriptedSource
from ringmpc.errors import RingError
from ringmpc.ring import pure
from ringmpc.topology import ChannelGraph, build_cycle, default_parties
from ringmpc.tracer import MAX_LOOPS, trace
from test_compiled import assert_same_tally, both_paths


def played(spec, graph, sites, inputs, draws):
    """(view key, outcome) of the protocol's own code at one point."""
    r = Run(spec.protocol, graph, inputs, seed=0,
            sources=dict.fromkeys({party for party, _ in sites}, ScriptedSource(draws)))
    outcome = spec.protocol.program(r)
    return _view_key(spec.observer, graph)(r.log), outcome


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
    kernel = _compile(spec, _checked_graph(spec))[0]
    assert list(kernel.count((1, 2, 3), [range(5)] * 2).values()) == [25]
    with pytest.raises(AssertionError, match="was looped"):
        kernel.count((1, 2, 3), [Unlooped(5)] * 2)
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
                       input_domains=(range(3),) * 3, observer="P3", protected=(0,),
                       budget=3**28)
    graph = _checked_graph(spec)
    compiled = _compile(spec, graph)
    assert compiled is not None  # not left to the interpreted path
    kernel, rebuild, show, sites = compiled
    assert len(sites) == ManyDraws.DRAWS > MAX_LOOPS
    for inputs, draws in [((1, 2, 0), tuple(i % 3 for i in range(25))),
                          ((2, 0, 1), (2,) * 25), ((0, 1, 2), (1, 0) * 12 + (2,))]:
        values, leaves = kernel(inputs, draws)
        assert (show(values), rebuild(leaves)) == played(spec, graph, sites, inputs, draws)
    # the counts over a few whole domains are those of every point, in product order
    domains = [range(1)] * 19 + [range(2)] * 3 + [range(3)] * 3
    points = {}
    for draws in product(*domains):
        key = kernel((1, 1, 1), draws)
        points[key] = points.get(key, 0) + 1
    assert list(kernel.count((1, 1, 1), domains).items()) == list(points.items())


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


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(affine_lines())
def test_a_random_affine_program_counts_as_the_interpreted_tally(case):
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
    assert_same_tally(spec, *both_paths(spec))


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
    kernel = _compile(spec, graph)[0]
    assert list(kernel.count((1, 0, 2), [Unlooped(3)] * 2).values()) == [9]
    assert_same_tally(spec, *both_paths(spec))
    assert secrecy_enumeration_check(spec) == SecrecyReport(
        "leak beside a weight", False, 3**3 * 3**2,
        Counterexample(((0,), None), (0,), (1,),
                       "view distribution differs between target values "
                       "(cell count 27, expected 27*27/81)"))
    assert secrecy_enumeration_check(spec) == _judge(spec, _interpreted_tally(spec, graph))
