"""Cycle protocols for sums, products, power sums, and comparisons.

All of these follow the same masking idea: the value travelling around
the cycle always carries at least one random term known only to one
party, so no partial aggregate is ever exposed.  Additive protocols mask
with added noise, the product protocol with unit factors (so the mask
can be divided out exactly), and the comparison protocols split each
private value into a random difference before anything is transmitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ring as ring_mod
from .analysis import SecrecySpec
from .engine import DummyTriangleProtocol, Protocol, Run, TriangleProtocol
from .errors import ProtocolError, RingError, TopologyError
from .jsonvalues import json_field
from .ring import RingSpec, pure
from .topology import (ChannelGraph, INSECURE, build_cycle, hub_graph, require_hub, require_secure,
                       single_cycle)


class _CyclePass(Protocol):
    """Noised forward pass around the secure cycle, masked total published, then unmasking.

    Runs on the one secure cycle through every party that the default
    ``check_graph`` accepts.  A subclass supplies the operation and its
    inverse (``ops``), the identity, unit noise or not, and the labels
    ``partial_label`` and ``total_label``.
    """

    identity = 0
    unit_noise = False

    def ops(self):
        """(combine, undo) as bound ring methods."""
        raise NotImplementedError

    def check_inputs(self, values) -> None:
        """Raise if the normalized inputs cannot be masked; any input can, by default."""

    def program(self, run: Run):
        values = run.note_inputs()
        self.check_inputs(values)
        combine, undo = self.ops()
        unit, label = self.unit_noise, self.partial_label
        noise, send, broadcast = run.noise, run.send, run.broadcast
        first, *rest = single_cycle(self.name, run.graph)
        # Forward pass: each party folds in its value and fresh noise.
        noises = [noise(first, f"n0{first + 1}", unit)]
        m = combine(values[first], noises[0])
        send(first, rest[0], m, label)
        for p, successor in zip(rest, rest[1:] + [first]):
            n = noise(p, f"n0{p + 1}", unit)
            noises.append(n)
            m = combine(m, combine(values[p], n))
            send(p, successor, m, label)
        # The initiator removes its own noise and publishes.
        masked_total = undo(m, noises[0])
        broadcast(first, masked_total, self.total_label)
        # Everyone else publishes their noise; all unmask.
        noise_total = self.identity
        for p, n in zip(rest, noises[1:]):
            broadcast(p, n, f"noise n0{p + 1}")
            noise_total = combine(noise_total, n)
        return undo(masked_total, noise_total)


class SecureSum(_CyclePass):
    """Masked sum around the secure cycle; each party learns only the others' total."""

    name = "secure_sum"
    result = "sum"
    partial_label = "masked partial sum"
    total_label = "masked total"

    @classmethod
    def claims(cls):
        """Over Z_2 and Z_3, on a 3- and a 4-cycle, each party learns only the others' total."""
        specs = []
        for m in (2, 3):
            for k in (3, 4):
                protocol, graph = cls(ring_mod.mod_ring(m)), build_cycle(k)
                for i in range(k):
                    others = tuple(j for j in range(k) if j != i)
                    specs.append(SecrecySpec(
                        name=f"secure_sum/Z_{m}/k={k}/P{i + 1} learns only the others' total",
                        protocol=protocol, graph=graph, input_domains=(range(m),) * k,
                        observer=f"P{i + 1}", observer_inputs=(i,), protected=others,
                        given=lambda inputs, _o, others=others, m=m:
                            sum(inputs[j] for j in others) % m))
        return specs

    def ops(self):
        return self.ring.add, self.ring.sub


class SecureRating(Protocol):
    """Sum collection for an untrusted aggregator over insecure links.

    The parties run the noised forward pass, hand the fully masked total
    to the aggregator, then collect the noise total in the opposite
    direction and hand that over too; only the difference, the true sum,
    is ever computable by the aggregator or by a wiretapper.
    """

    name = "secure_rating"
    result = "total"

    def __init__(self, ring: RingSpec, k: int):
        super().__init__(ring)
        self.k = self.arity = k

    @classmethod
    def from_params(cls, ring, params, inputs):
        k = json_field(params, "k", default=len(inputs))
        if k != len(inputs):
            raise ProtocolError(f"{cls.name}: 'k' is {k}, but {len(inputs)} inputs are given")
        return cls(ring, k)

    def params(self):
        return {"k": self.k}

    def default_graph(self, k):
        return rating_graph(self.k)

    def check_graph(self, g):
        k = self.k
        require_hub(self.name, g, k)
        require_secure(self.name, g, [(i, i + 1) for i in range(k - 1)])  # both passes' links
        for endpoint in (0, k - 1):
            if not g.has_edge(endpoint, k):
                raise TopologyError(f"secure_rating: aggregator unreachable from party {endpoint}")

    def program(self, run: Run):
        R = self.ring
        k = self.k
        boss = k
        values = run.note_inputs()
        noises = []
        # Forward pass, every party masking with private noise.
        m = 0
        for i in range(k):
            noises.append(run.noise(i, f"n0{i + 1}"))
            m = R.add(m, R.add(values[i], noises[i]))
            if i < k - 1:
                run.send(i, i + 1, m, "masked partial sum")
        run.send(k - 1, boss, m, "masked grand total")
        # Reverse adjustment pass collecting the noise total.
        adj = noises[k - 1]
        run.send(k - 1, k - 2, adj, "noise adjustment")
        for i in range(k - 2, 0, -1):
            adj = R.add(adj, noises[i])
            run.send(i, i - 1, adj, "noise adjustment")
        adj = R.add(adj, noises[0])
        run.send(0, boss, adj, "noise total")
        result = R.sub(m, adj)
        run.note(boss, "aggregated total", result)
        return result


def rating_graph(k: int) -> ChannelGraph:
    """Secure cycle of k parties plus an aggregator on insecure spokes."""
    return hub_graph(k, "B", (k - 1, 0), INSECURE)


class SecureProduct(_CyclePass):
    """Multiplicative analogue of the sum: masks are units so they divide out."""

    name = "secure_product"
    result = "product"
    identity = 1
    unit_noise = True
    partial_label = "masked partial product"
    total_label = "masked product"

    def ops(self):
        return self.ring.mul, self.ring.exact_div

    def check_inputs(self, values):
        R = self.ring
        for i, v in enumerate(values):
            if not R.is_unit(v):
                raise RingError(
                    f"input {v} of party {i + 1} is not a legal factor in {R}; "
                    "the product protocol needs units (nonzero over Z)"
                )


# The widest power a sum over Z may compute, in bits, bounded by the exponent times the widest
# input's bit length: powers of 2**18 bits run, serialize and replay in 0.47 s with Python's
# limit on decimal digits lifted, under a second as a deal's MAX_DEAL_HOPS is (CPython 3.11
# on a shared 2-core x86-64).  Under the default limit of 4,300 digits, a power above about
# 14,000 bits cannot be written at all.
MAX_POWER_BITS = 2**18


class SumOfPowers(Protocol):
    """Sum of r-th powers behind a single random mask held by the initiator."""

    name = "sum_of_powers"
    result = "power_sum"

    def __init__(self, ring: RingSpec, exponent: int = 1):
        if exponent < 1:
            raise ProtocolError("exponent must be >= 1")
        super().__init__(ring)
        self.exponent = exponent

    def params(self):
        return {"exponent": self.exponent}

    def program(self, run: Run):
        R = self.ring
        r = self.exponent
        cycle = single_cycle(self.name, run.graph)
        values = run.note_inputs()
        if not R.modular:
            widest = max((abs(v).bit_length() for v in values if abs(v) > 1), default=0)
            if r * widest > MAX_POWER_BITS:
                raise ProtocolError(f"exponent {r} on inputs of {widest} bits gives powers "
                                    f"above the bound of {MAX_POWER_BITS} bits")
        first = cycle[0]
        mask = run.noise(first, "mask n0")
        m = mask
        run.send(first, cycle[1], m, "masked power sum")
        for pos in range(1, len(cycle)):
            p = cycle[pos]
            m = R.add(m, R.pow(values[p], r))
            run.send(p, cycle[(pos + 1) % len(cycle)], m, "masked power sum")
        # The initiator removes the mask and contributes its own power.
        total = R.sub(m, R.sub(mask, R.pow(values[first], r)))
        run.broadcast(first, total, "power sum total")
        return total


def symmetric_from_power_sums(power_sums, ring: RingSpec | None = None):
    """Elementary symmetric values e_1..e_k from power sums p_1..p_k.

    Inverts the Newton recurrence j*e_j = sum_{i=1..j} (-1)^(i-1) e_{j-i} p_i.
    Over a modular ring every j in 1..k must be invertible; over Z every
    division must come out exact, anything else is rejected rather than
    rounded.  Composing this with the power-sum protocol yields any
    symmetric polynomial of the private inputs, but note the composition
    is not private: a party holding several power sums may be able to
    reconstruct individual inputs (though not their owners).
    """
    R = ring if ring is not None else ring_mod.integers()
    p = [R.normalize(v) for v in power_sums]
    k = len(p)
    if R.modular:
        for j in range(1, k + 1):
            if not R.is_unit(j % R.modulus):
                raise RingError(f"{j} is not invertible in {R}; cannot solve the recurrence")
    e = [R.normalize(1)]
    for j in range(1, k + 1):
        acc = 0
        for i in range(1, j + 1):
            term = R.mul(e[j - i], p[i - 1])
            acc = R.add(acc, term) if i % 2 == 1 else R.sub(acc, term)
        e.append(R.exact_div(acc, R.normalize(j)))
    return tuple(e[1:])


class ExampleF1(TriangleProtocol):
    """f(n1,n2,n3) = n1*n2 + n2*n3 on a 3-cycle without forming either product.

    The middle party circulates a mask, receives back mask + n3 + n1,
    strips the mask and multiplies by its own n2; the products exist only
    inside that final local step.
    """

    name = "example_f1"
    arity = 3
    draws_for = (1,)

    def program(self, run: Run):
        R = self.ring
        n1, n2, n3 = run.note_inputs()
        mask = run.noise(1, "mask n0")
        run.send(1, 2, mask, "mask")
        m = R.add(n3, mask)
        run.send(2, 0, m, "mask+n3")
        m = R.add(m, n1)
        run.send(0, 1, m, "mask+n3+n1")
        result = R.mul(R.sub(m, mask), n2)
        run.note(1, "f result", result)
        return result


# The g functions a config or a transcript header can name.
G_FUNCS = {
    "identity": lambda x: x,
    "square": lambda x: x * x,
    "cube": lambda x: x * x * x,
    "zero": lambda x: 0,
}


class ExampleF2(TriangleProtocol):
    """f(n1,n2,n3) = n1*n2 + g(n3): multiplicative masking, two directions.

    Both masks are sampled invertible so the two exact divisions always
    succeed.  ``g_name`` tags the function for transcript metadata; only a
    run whose g is one of ``G_FUNCS`` can be rebuilt from its params.
    """

    name = "example_f2"
    arity = 3
    draws_for = (0, 2)

    def __init__(self, ring: RingSpec, g_func, g_name: str = "custom"):
        super().__init__(ring)
        self.g_func = g_func
        self.g_name = g_name

    @classmethod
    def from_params(cls, ring, params, inputs):
        g_name = params.get("g", "identity")
        if g_name not in G_FUNCS:
            raise ProtocolError(
                f"unknown g function {g_name!r}; choose from {sorted(G_FUNCS)} (a run that "
                "used a caller-supplied g records only its name and cannot be re-executed)"
            )
        return cls(ring, G_FUNCS[g_name], g_name)

    def params(self):
        return {"g": self.g_name}

    def program(self, run: Run):
        R = self.ring
        n1, n2, n3 = run.note_inputs()
        a0 = run.noise(0, "mask a0", require_unit=True)
        run.send(0, 1, a0, "mask a0")
        m = R.mul(a0, n2)
        run.send(1, 2, m, "a0*n2")
        c0 = run.noise(2, "mask c0", require_unit=True)
        m = R.mul(m, c0)
        run.send(2, 0, m, "a0*n2*c0")
        m = R.exact_div(R.mul(m, n1), a0)
        run.send(0, 2, m, "n1*n2*c0")  # reverse direction along the cycle
        result = R.add(R.exact_div(m, c0), R.normalize(self.g_func(n3)))
        run.note(2, "f result", result)
        return result


POSITIVE = "positive"
NEGATIVE = "negative"
EQUAL = "equal"


@dataclass(frozen=True)
class CompareOutcome:
    verdict: str


class MillionairesCompare(DummyTriangleProtocol):
    """Sign of n1 - n2 via a dummy that sees only the difference.

    Each real party splits its value into a random difference and hands
    the negative half to the other; the dummy receives the two cross
    sums, whose difference is exactly n1 - n2, and announces its sign.
    Over a modular ring the difference is decoded from the centered
    representative, so inputs must satisfy |n1 - n2| <= (m-1)//2.
    """

    name = "millionaires_compare"
    arity = 2

    @classmethod
    def claims(cls):
        """Over Z_11, the dummy learns only n1 - n2."""
        return [SecrecySpec(name="millionaires/Z_11/D learns only n1-n2",
                            protocol=cls(ring_mod.mod_ring(11)), input_domains=(range(11),) * 2,
                            observer="D", protected=(0, 1),
                            given=lambda inputs, _o: (inputs[0] - inputs[1]) % 11)]

    def program(self, run: Run):
        R = self.ring
        if R.modular and R.modulus < 3:
            raise RingError("sign decoding needs a modulus >= 3")
        n1, n2 = run.note_inputs()
        # Random difference splits: n = plus - minus.
        minus1 = run.noise(0, "n1 minus part")
        plus1 = R.add(n1, minus1)
        run.note(0, "n1 plus part", plus1)
        minus2 = run.noise(1, "n2 minus part")
        plus2 = R.add(n2, minus2)
        run.note(1, "n2 plus part", plus2)
        run.send(0, 1, minus1, "n1 minus part")
        run.send(1, 0, minus2, "n2 minus part")
        run.send(0, 2, R.add(plus1, minus2), "cross sum A")
        run.send(1, 2, R.add(plus2, minus1), "cross sum B")
        diff = R.sub(R.add(plus1, minus2), R.add(plus2, minus1))
        run.note(2, "difference", diff)
        verdict = _sign_verdict(R, diff)
        run.broadcast(2, verdict, "verdict", kind="token")
        return CompareOutcome(verdict)


@pure
def _sign_verdict(R: RingSpec, diff: int) -> str:
    if R.modular:
        centered = diff if diff <= (R.modulus - 1) // 2 else diff - R.modulus
    else:
        centered = diff
    if centered > 0:
        return POSITIVE
    if centered < 0:
        return NEGATIVE
    return EQUAL


GREATER = "greater"
LESS = "less"


@dataclass(frozen=True)
class BitwiseOutcome:
    verdict: str  # "greater" | "less" | "equal"
    decided_bit: int | None  # bit position (0 = least significant), None if equal


# The widest comparison a config may ask for: equal inputs of 2**15 bits run in 0.27 s,
# serialize in 0.11 s (13.7 MB) and replay in 0.43 s, under a second as a deal's
# MAX_DEAL_HOPS is (CPython 3.11 on a shared 2-core x86-64).
MAX_BIT_WIDTH = 2**15


class MillionairesBitwise(DummyTriangleProtocol):
    """Most-significant-bit-first comparison; stops at the first unequal bit.

    Each round compares one bit pair with the difference-split scheme
    over Z_3 (bit differences live in {-1,0,1}), so the dummy learns the
    deciding bit position but never the magnitude of n1 - n2.
    """

    name = "millionaires_bitwise"
    arity = 2

    def __init__(self, bit_width: int):
        if bit_width < 1:
            raise ProtocolError("bit_width must be >= 1")
        if bit_width > MAX_BIT_WIDTH:
            raise ProtocolError(f"bit_width {bit_width} is above the bound {MAX_BIT_WIDTH}")
        super().__init__(ring_mod.mod_ring(3))
        self.bit_width = bit_width

    @classmethod
    def from_params(cls, ring, params, inputs):
        return cls(json_field(params, "bit_width", default=8))

    def params(self):
        return {"bit_width": self.bit_width}

    @classmethod
    def encode(cls, outcome):
        return {"verdict": outcome.verdict, "decided_bit": outcome.decided_bit}

    def program(self, run: Run):
        R = self.ring
        n1, n2 = run.inputs
        if not (0 <= n1 < 2**self.bit_width and 0 <= n2 < 2**self.bit_width):
            raise ProtocolError(f"inputs must fit in {self.bit_width} bits")
        run.note(0, "n1", n1)
        run.note(1, "n2", n2)
        for bit in range(self.bit_width - 1, -1, -1):
            b1 = (n1 >> bit) & 1
            b2 = (n2 >> bit) & 1
            minus1 = run.noise(0, f"bit {bit} minus part A")
            minus2 = run.noise(1, f"bit {bit} minus part B")
            plus1 = R.add(b1, minus1)
            plus2 = R.add(b2, minus2)
            run.send(0, 1, minus1, f"bit {bit} minus part A")
            run.send(1, 0, minus2, f"bit {bit} minus part B")
            run.send(0, 2, R.add(plus1, minus2), f"bit {bit} cross sum A")
            run.send(1, 2, R.add(plus2, minus1), f"bit {bit} cross sum B")
            diff = R.sub(R.add(plus1, minus2), R.add(plus2, minus1))
            verdict = _sign_verdict(R, diff)
            run.broadcast(2, verdict, f"bit {bit} verdict", kind="token")
            if verdict != EQUAL:
                return BitwiseOutcome(GREATER if verdict == POSITIVE else LESS, bit)
        return BitwiseOutcome(EQUAL, None)

