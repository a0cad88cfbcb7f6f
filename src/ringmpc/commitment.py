"""Three-party commitment, its two-party dummy reduction, and dummy OT.

Commitment here is a two-phase protocol.  In the commit phase each value
is split into two random summands which accumulate around the secure
cycle in opposite directions, leaving every party with sums that reveal
nothing beyond what the scheme admits (e.g. the first party can form
n2+n3, and only that).  In the reveal phase every transmitted quantity
is something some *other* party already committed to, so each message is
corroborated against committed-phase holdings; any mismatch raises
``CheatDetected`` naming the message.

The corroboration checks are listed explicitly in ``COMMIT3_CHECKS`` /
``COMMIT2_CHECKS``: they are the protocol's verification table, and the
binding test suite injects a substitution at every reveal message to
confirm each one is caught.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import SecrecySpec
from .engine import DummyTriangleProtocol, Protocol, Run, Session, TriangleProtocol
from .errors import CheatDetected, ProtocolError
from .jsonvalues import json_list
from .ring import RingSpec, mod_ring
from .topology import require_secure

# Verification table for the 3-party reveal phase.  Each reveal message
# is checked against the committed-phase holdings of the parties that can
# corroborate it; the pair check for "n1+n2" uses both owners' values.
COMMIT3_CHECKS = [
    ("n1+n2 to P1", "both copies of n1+n2 must agree (P1 and P2 compare)"),
    ("n1+n2 to P2", "value must equal P1's n1 plus P2's n2"),
    ("r1 reveal", "P1 corroborates against the r1 it generated"),
    ("s2+s3 reveal", "P2 corroborates against its committed s2 and s3"),
    ("r1+r2+r3 reveal", "P3 corroborates against its committed r1+r2 and r3"),
]


class _Commitment(Protocol):
    """A two-phase commitment: ``program`` is the commit phase, ``reveal`` the reveal."""

    def __init__(self, ring: RingSpec):
        if not ring.modular:
            raise ProtocolError(f"{self.name} runs modulo a fixed m >= 2")
        super().__init__(ring)


def _split_inputs(run: Run):
    """Each party's input noted, then split as n = r + s with r fresh noise; returns (n, r, s)."""
    R = run.ring
    n = run.note_inputs()
    r, s = [], []
    for i, v in enumerate(n):
        r.append(run.noise(i, f"r{i + 1}"))
        s.append(R.sub(v, r[i]))
        run.note(i, f"s{i + 1}", s[i])
    return n, r, s


class Commit3(_Commitment, TriangleProtocol):
    """The 3-party scheme over Z_m."""

    name = "commit3"
    arity = 3
    draws_for = (0, 1, 2)

    @classmethod
    def claims(cls):
        """Over Z_2 and Z_3, P2 learns nothing; P1 and P3 learn only the other two's sum."""
        specs = []
        for m in (2, 3):
            protocol, domains = cls(mod_ring(m)), (range(m),) * 3
            specs += [
                SecrecySpec(name=f"commit3/Z_{m}/P2 learns nothing about (n1,n3)",
                            protocol=protocol, input_domains=domains,
                            observer="P2", observer_inputs=(1,), protected=(0, 2)),
                SecrecySpec(name=f"commit3/Z_{m}/P1 learns only n2+n3",
                            protocol=protocol, input_domains=domains,
                            observer="P1", observer_inputs=(0,), protected=(1, 2),
                            given=lambda inputs, _o, m=m: (inputs[1] + inputs[2]) % m),
                SecrecySpec(name=f"commit3/Z_{m}/P3 learns only n1+n2",
                            protocol=protocol, input_domains=domains,
                            observer="P3", observer_inputs=(2,), protected=(0, 1),
                            given=lambda inputs, _o, m=m: (inputs[0] + inputs[1]) % m),
            ]
        return specs

    def program(self, run: Run):
        R = self.ring
        _, r, s = _split_inputs(run)
        r12 = R.add(r[0], r[1])
        r123 = R.add(r12, r[2])
        s23 = R.add(s[1], s[2])
        s123 = R.add(s[0], s23)
        # r-direction: P1 -> P2 -> P3 -> P1, accumulating.
        run.send(0, 1, r[0], "r1")
        run.send(1, 2, r12, "r1+r2")
        run.send(2, 0, r123, "r1+r2+r3")
        # s-direction: P3 -> P2 -> P1 -> P3, accumulating the other way.
        run.send(2, 1, s[2], "s3")
        run.send(1, 0, s23, "s2+s3")
        run.send(0, 2, s123, "s1+s2+s3")
        return {
            "P1": {"s1": s[0], "s2+s3": s23, "r1": r[0], "r1+r2+r3": r123},
            "P2": {"s2": s[1], "s3": s[2], "r1": r[0], "r2": r[1]},
            "P3": {"s3": s[2], "r3": r[2], "r1+r2": r12, "s1+s2+s3": s123},
        }

    def reveal(self, session: Session, tamper: dict):
        """Every party recovers both other values, with corroboration.

        ``tamper`` substitutes reveal-message payloads by label (fault
        injection for binding tests).  Any corroboration failure raises
        CheatDetected naming the message; on success returns the
        per-party recovered triples.
        """
        R = self.ring
        r = session.run
        led = session.ledgers

        def value_of(label, honest):
            return R.normalize(tamper[label]) if label in tamper else honest

        n1, n2, n3 = (R.add(led[f"P{i}"][f"r{i}"], led[f"P{i}"][f"s{i}"]) for i in (1, 2, 3))
        # P3 forms n1+n2 from its committed sums and sends it to both peers.
        honest_n1n2 = R.add(led["P3"]["r1+r2"], R.sub(led["P3"]["s1+s2+s3"], led["P3"]["s3"]))
        v_a = value_of("n1+n2 to P1", honest_n1n2)
        v_b = value_of("n1+n2 to P2", honest_n1n2)
        r.send(2, 0, v_a, "n1+n2 to P1")
        r.send(2, 1, v_b, "n1+n2 to P2")
        if v_a != v_b:
            raise CheatDetected("n1+n2", "the two announced copies disagree")
        if v_a != R.add(n1, n2):
            raise CheatDetected("n1+n2", "announced sum fails the owners' corroboration")
        p1_n2 = R.sub(v_a, n1)
        p1_n3 = R.sub(
            R.add(R.sub(led["P1"]["r1+r2+r3"], led["P1"]["r1"]), led["P1"]["s2+s3"]), p1_n2
        )
        p2_n1 = R.sub(v_b, n2)
        # P2 reveals r1 to P3, corroborated by P1 who generated it.
        w = value_of("r1 reveal", led["P2"]["r1"])
        r.send(1, 2, w, "r1 reveal")
        if w != led["P1"]["r1"]:
            raise CheatDetected("r1 reveal", "does not match P1's committed r1")
        p3_r2 = R.sub(led["P3"]["r1+r2"], w)
        # P1 reveals s2+s3 to P3, corroborated by P2 who committed both parts.
        x = value_of("s2+s3 reveal", led["P1"]["s2+s3"])
        r.send(0, 2, x, "s2+s3 reveal")
        if x != R.add(led["P2"]["s2"], led["P2"]["s3"]):
            raise CheatDetected("s2+s3 reveal", "does not match P2's committed s2+s3")
        p3_n2 = R.add(p3_r2, R.sub(x, led["P3"]["s3"]))
        p3_n1 = R.sub(v_a, p3_n2)
        # P1 reveals r1+r2+r3 to P2, corroborated by P3.
        y = value_of("r1+r2+r3 reveal", led["P1"]["r1+r2+r3"])
        r.send(0, 1, y, "r1+r2+r3 reveal")
        if y != R.add(led["P3"]["r1+r2"], led["P3"]["r3"]):
            raise CheatDetected("r1+r2+r3 reveal", "does not match P3's committed r-chain")
        p2_r3 = R.sub(R.sub(y, led["P2"]["r1"]), led["P2"]["r2"])
        p2_n3 = R.add(p2_r3, led["P2"]["s3"])
        recovered = {
            "P1": (n1, p1_n2, p1_n3),
            "P2": (p2_n1, n2, p2_n3),
            "P3": (p3_n1, p3_n2, n3),
        }
        for i, triple in enumerate(recovered.values()):  # P1, P2, P3 are parties 0, 1, 2
            r.note(i, "recovered values", triple)
        return recovered


class CommitK(_Commitment):
    """Experimental: the natural k-cycle extension of the 3-party commitment.

    r-shares accumulate forward around the cycle, s-shares backward, so
    after the commit phase a middle party holds only one masked prefix
    and one masked suffix (nothing about anyone's value), while the two
    end parties can form the sum of all other values and nothing finer.
    Not part of the acceptance surface.
    """

    name = "commit_k"

    def check_graph(self, g):
        super().check_graph(g)
        require_secure(self.name, g, [(i, (i + 1) % g.k) for i in range(g.k)])

    def program(self, run: Run):
        """Send, and return as the ledgers, prefix j = r_1+...+r_j (P_j to P_{j+1})
        and suffix j = s_j+...+s_k (P_j to P_{j-1}) for every j."""
        R = self.ring
        k = len(run.inputs)
        _, r, s = _split_inputs(run)
        r_prefix = []
        acc = 0
        for i in range(k):
            acc = R.add(acc, r[i])
            r_prefix.append(acc)
            run.send(i, (i + 1) % k, acc, f"r prefix {i + 1}")
        s_suffix = [None] * k
        acc = 0
        for i in range(k - 1, -1, -1):
            acc = R.add(acc, s[i])
            s_suffix[i] = acc
            run.send(i, (i - 1) % k, acc, f"s suffix {i + 1}")
        return r_prefix, s_suffix

    def reveal(self, session: Session, tamper: dict):
        """Every committed prefix and suffix is re-announced and corroborated.

        Each is re-announced by its commit-phase receiver and checked
        against its commit-phase sender's value, so a single cheater
        cannot substitute anything silently; the share chain then opens
        every value to every party.
        """
        R = self.ring
        run = session.run
        r_prefix, s_suffix = session.ledgers
        k = len(r_prefix)

        def announce(by, label, committed, what):
            value = R.normalize(tamper.get(label, committed))
            run.broadcast(by, value, label)
            if value != committed:
                raise CheatDetected(label, f"does not match the committed {what}")

        # commit-phase receivers re-announce; commit-phase senders corroborate
        for j in range(1, k + 1):  # prefix j was received by P_{j+1}
            announce(j % k, f"r prefix {j} reveal", r_prefix[j - 1], "prefix")
        for j in range(k, 0, -1):  # suffix j was received by P_{j-1}
            announce((j - 2) % k, f"s suffix {j} reveal", s_suffix[j - 1], "suffix")
        # every announcement matched its committed sum, so the sums open every share
        recovered = []
        for i in range(k):
            r_i = R.sub(r_prefix[i], r_prefix[i - 1] if i > 0 else 0)
            s_i = R.sub(s_suffix[i], s_suffix[i + 1] if i < k - 1 else 0)
            recovered.append(R.add(r_i, s_i))
        return tuple(recovered)


COMMIT2_CHECKS = [
    ("n1+n2 to A", "both revealed copies must agree (A and B compare)"),
    ("n1+n2 to B", "value must equal A's n1 plus B's n2"),
]


class Commit2Dummy(_Commitment, DummyTriangleProtocol):
    """The two-party scheme mediated by a dummy.

    The dummy only ever holds r1+r2 and s1+s2, whose sum it reveals; it
    never sees n1 or n2 individually and draws no randomness.
    """

    name = "commit2_dummy"
    arity = 2

    @classmethod
    def encode(cls, learned):
        a_learns, b_learns = learned
        return {"A learns n2": str(a_learns), "B learns n1": str(b_learns)}

    @classmethod
    def claims(cls):
        """Over Z_2, the dummy learns only n1 + n2, and each real party nothing."""
        protocol, domains = cls(mod_ring(2)), (range(2),) * 2
        return [
            SecrecySpec(name="commit2_dummy/Z_2/D learns only n1+n2",
                        protocol=protocol, input_domains=domains, observer="D", protected=(0, 1),
                        given=lambda inputs, _o: (inputs[0] + inputs[1]) % 2),
            SecrecySpec(name="commit2_dummy/Z_2/A learns nothing about n2",
                        protocol=protocol, input_domains=domains,
                        observer="A", observer_inputs=(0,), protected=(1,)),
            SecrecySpec(name="commit2_dummy/Z_2/B learns nothing about n1",
                        protocol=protocol, input_domains=domains,
                        observer="B", observer_inputs=(1,), protected=(0,)),
        ]

    def program(self, run: Run):
        R = self.ring
        (n1, n2), (r1, r2), (s1, s2) = _split_inputs(run)
        run.send(0, 1, s1, "s1")
        run.send(1, 0, r2, "r2")
        r12, s12 = R.add(r1, r2), R.add(s1, s2)
        run.send(0, 2, r12, "r1+r2")
        run.send(1, 2, s12, "s1+s2")
        return {
            "A": {"n1": n1, "r1": r1, "s1": s1, "r2": r2},
            "B": {"n2": n2, "r2": r2, "s2": s2, "s1": s1},
            "D": {"r1+r2": r12, "s1+s2": s12},
        }

    def reveal(self, session: Session, tamper: dict):
        """The dummy reveals n1+n2 to both parties; each recovers the other's value."""
        R = self.ring
        r = session.run
        led = session.ledgers
        honest = R.add(led["D"]["r1+r2"], led["D"]["s1+s2"])
        v_a = R.normalize(tamper.get("n1+n2 to A", honest))
        v_b = R.normalize(tamper.get("n1+n2 to B", honest))
        r.send(2, 0, v_a, "n1+n2 to A")
        r.send(2, 1, v_b, "n1+n2 to B")
        if v_a != v_b:
            raise CheatDetected("n1+n2", "the two revealed copies disagree")
        n1, n2 = led["A"]["n1"], led["B"]["n2"]
        if v_a != R.add(n1, n2):
            raise CheatDetected("n1+n2", "revealed sum fails the owners' corroboration")
        a_learns = R.sub(v_a, n1)
        b_learns = R.sub(v_b, n2)
        r.note(0, "recovered n2", a_learns)
        r.note(1, "recovered n1", b_learns)
        return a_learns, b_learns


@dataclass(frozen=True)
class OTOutcome:
    retrieved: tuple


class ObliviousTransfer(DummyTriangleProtocol):
    """k-of-n transfer: A splits every message, D serves the masked halves.

    After the two setup transmissions A receives nothing, so A cannot
    learn which indices were requested; D sees the index set but only
    the r-halves of the messages, which are uniform masks of them.
    """

    name = "ot_dummy"
    arity = 2
    draws_for = (0,)

    @classmethod
    def decode_inputs(cls, raw):
        # {"messages": [...], "indices": [...]} in a config, [messages, indices] in a header
        if isinstance(raw, dict):
            raw = [raw["messages"], raw["indices"]]
        messages, indices = json_list(raw)
        return super().decode_inputs(messages), super().decode_inputs(indices)

    def program(self, run: Run):
        R = self.ring
        messages, indices = run.inputs
        messages = tuple(R.normalize(v) for v in messages)
        indices = tuple(indices)
        n = len(messages)
        if not indices or len(set(indices)) != len(indices):
            raise ProtocolError("indices must be distinct and non-empty")
        if any(not 1 <= j <= n for j in indices):
            raise ProtocolError(f"indices must lie in 1..{n}")
        run.note(0, "messages", messages)
        run.note(1, "indices", indices)
        r_parts = []
        s_parts = []
        for i, m in enumerate(messages):
            r = run.noise(0, f"r{i + 1}")
            r_parts.append(r)
            s_parts.append(R.sub(m, r))
        run.send(0, 2, tuple(r_parts), "r parts", kind="elems")
        run.send(0, 1, tuple(s_parts), "s parts", kind="elems")
        run.send(1, 2, indices, "requested indices", kind="indices")
        served = tuple(r_parts[j - 1] for j in indices)
        run.send(2, 1, served, "served r parts", kind="elems")
        retrieved = tuple(R.add(served[t], s_parts[j - 1]) for t, j in enumerate(indices))
        run.note(1, "retrieved", retrieved)
        return OTOutcome(retrieved)
