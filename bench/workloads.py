"""The benchmark's workloads: seeded inputs, the package calls of one op, and its oracle.

Each workload builds a fixed list of ops from a freshly imported package and
a ``random.Random``; building it is the input-generation part of set-up.
A round runs every op once, always in the same order, and rounds repeat
until the run's time is up, so every run measures the same mix of work.
The seed draws sizes only within narrow bands, so runs with different
seeds measure nearly the same mix too.

An op's ``call`` holds the package calls and is the only timed part.  Its
``check`` is the oracle: it returns ``None`` when the output is right and a
description of the fault otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from math import prod
from pathlib import Path
from typing import Any, Callable

GOLDEN = Path(__file__).resolve().parent / "golden.json"


@dataclasses.dataclass
class Op:
    family: str  # protocol name; the tracer attributes per-protocol counts to it
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    runs: Callable[[Any], int] = lambda _result: 1  # protocol runs the op executed
    k: int | None = None  # number of parties, where the workload varies it
    tamper: bool = False  # the op replays a deliberately altered transcript


class Workload:
    """A fixed list of ops; every round runs all of them in this order.

    With the same order every round, each op follows the same ops each time,
    so the garbage collector and the allocator start every repeat of an op
    from a like state.
    """

    ops: list[Op]

    def post_checks(self) -> list[Op]:
        """Ops run once after the timed phase, untimed."""
        return []


def _problem(condition: bool, message: str) -> str | None:
    return None if condition else message


# -- verify-suite --------------------------------------------------------------


def full_run_count(spec) -> int:
    """Input assignments times noise assignments of an exhaustive check.

    Every protocol here draws each noise element uniformly from the whole
    ring, so the randomness space is m ** draws.  The draw counts are facts
    about the protocols, written out so the oracle does not ask the
    package it is checking.
    """
    proto = spec.protocol
    if proto.name == "share_secret_kk":
        draws = (proto.k - 1) + proto.k**2  # the dealer's k-1 pieces, then k re-splits of k
    else:
        draws = {"secure_sum": len(spec.input_domains), "commit3": 3, "commit2_dummy": 2,
                 "millionaires_compare": 2}[proto.name]
    return prod(len(d) for d in spec.input_domains) * proto.ring.modulus ** draws


PLANTED_ALL_MAX_RUNS = 256


class VerifySuite(Workload):
    """One op is one exhaustive secrecy check, as ``ringmpc verify`` runs them.

    The ops are the 24-check standard suite (every check must PASS), the
    ShareSecret dealer-ignorance check over Z_2 (must PASS), and planted
    leaks: standard checks with their ``given`` concession removed, which
    must FAIL.  A protocol group whose checks enumerate at most
    PLANTED_ALL_MAX_RUNS runs is planted for every observer; of each costlier
    group the seed picks one observer's check.  All choices in a group
    enumerate the same number of runs.  The seed also picks the order.

    Planting the cheap groups in full puts the median op in the middle of
    the eight checks of secure_sum over Z_2 with k=4, not at the upper edge
    of that cluster next to the twice as long checks over Z_3: there, which
    side of the gap the median fell on moved op_p50_ms by a quarter from
    run to run.
    """

    def __init__(self, pkg, rng, smoke=False):
        self.analysis = pkg.analysis
        standard = pkg.analysis.standard_suite()
        if smoke:
            standard = [s for s in standard if full_run_count(s) <= 256]
        self.standard = standard
        groups: dict[str, list] = {}
        for spec in standard:
            if spec.given is not None:
                groups.setdefault(spec.name.rsplit("/", 1)[0], []).append(
                    dataclasses.replace(spec, name=f"planted leak: {spec.name}", given=None)
                )
        self.planted_groups = list(groups.values())
        dealer = pkg.analysis.SecrecySpec(
            name="share_secret_kk/Z_2/k=3/D learns nothing about the shares",
            protocol=pkg.sharing.ShareSecret(pkg.ring.mod_ring(2), 3),
            input_domains=(range(2),),
            observer="D",
            observer_inputs=(0,),
            target=lambda _inputs, outcome: outcome.shares,
        )
        self.ops = [self.op(spec, True) for spec in standard + [dealer]]
        for group in self.planted_groups:
            cheap = full_run_count(group[0]) <= PLANTED_ALL_MAX_RUNS
            self.ops += [self.op(spec, False) for spec in (group if cheap else [rng.choice(group)])]
        rng.shuffle(self.ops)

    def op(self, spec, expect_pass: bool) -> Op:
        analysis = self.analysis
        full = full_run_count(spec)

        def check(report):
            if report.ok != expect_pass:
                return f"{spec.name}: reported {'PASS' if report.ok else 'FAIL'}"
            if expect_pass:
                return _problem(report.runs == full,
                                f"{spec.name}: PASS after {report.runs} of {full} runs")
            return _problem(report.counterexample is not None,
                            f"{spec.name}: FAIL without a counterexample")

        return Op(spec.protocol.name, lambda: analysis.secrecy_enumeration_check(spec),
                  check, runs=lambda report: report.runs)


# -- sum-many-parties ----------------------------------------------------------

# Party counts: two thirds of the ops have a few dozen to 300 parties, the
# rest up to 600, so that the quadratic view cost shows across the mix and
# the largest ops set peak memory.  The seed moves each k by at most 1%, so
# the op at each percentile is nearly the same size on every seed.  With ops
# of up to 2,000 parties, a run held too few of the large ones to be steady:
# their time moved by a fifth from run to run on a shared 2-core host.
SUM_PARTIES = tuple(range(60, 300, 10)) + (320, 345, 370, 400, 430, 460, 490, 520, 550, 580,
                                          600, 600)
SUM_PARTIES_SMOKE = (5, 10, 20, 40, 60)


class SumManyParties(Workload):
    """One op is ``ringmpc run --out`` of a ``secure_sum`` config over Z with k parties.

    The ops run in ascending k on every seed, so that the heap each op starts
    from does not depend on the seed.
    """

    def __init__(self, pkg, rng, smoke=False):
        self.cli = pkg.cli
        parties = SUM_PARTIES_SMOKE if smoke else SUM_PARTIES
        self.ops = [self.op(k + rng.randint(0, k // 100), rng) for k in parties]

    def op(self, k: int, rng) -> Op:
        cli = self.cli
        inputs = [rng.randrange(-10**9, 10**9) for _ in range(k)]
        config = {"protocol": "secure_sum", "inputs": [str(v) for v in inputs],
                  "seed": rng.randrange(2**31)}
        expected = sum(inputs)

        def call():
            outcome, transcript = cli.execute_config(config)
            return outcome, transcript.serialize()

        def check(result):
            outcome, text = result
            if int(outcome["sum"]) != expected:
                return f"k={k}: sum {outcome['sum']}, expected {expected}"
            # header, k forward sends and k broadcasts
            lines = text.count("\n")
            return _problem(lines == 2 * k + 1, f"k={k}: transcript has {lines} lines")

        return Op("secure_sum", call, check, k=k)


# -- cli-run-replay ------------------------------------------------------------

# One prime modulus per band for secure_product; the bands keep the total
# size of the unit tables, which the first use of each modulus builds, nearly
# the same for every seed.
PRIME_BANDS = ((120_000, 122_000), (275_000, 280_000), (530_000, 540_000), (985_000, 999_000))
PRIME_BANDS_SMOKE = ((1_000, 1_100), (5_000, 5_200))
CLI_PROTOCOLS = ("card_deal", "secure_product", "commit3", "ot_dummy", "share_secret_kk",
                 "millionaires_bitwise", "distribute_shares")
# Many configs each, so that the seed's draws of sizes and randomness average
# out within a run: with 15 each, op_p50_ms moved by 13% between seeds.
CONFIGS_PER_PROTOCOL = 40
TAMPER_EVERY = 7


def next_prime(n: int) -> int:
    def is_prime(v):
        return v > 1 and all(v % d for d in range(2, int(v**0.5) + 1))

    while not is_prime(n):
        n += 1
    return n


def _altered(value, pick: float):
    """A different JSON payload value: one field, picked by ``pick``, changed."""
    if isinstance(value, list):
        if not value:
            return ["0"]
        i = int(pick * len(value))
        return value[:i] + [_altered(value[i], pick)] + value[i + 1:]
    if isinstance(value, str):
        try:
            return str(int(value) + 1)
        except ValueError:
            return value + "~"
    return "0" if value is None else str(value) + "~"


def tamper_text(text: str, pick_line: float, pick_field: float) -> tuple[str, int]:
    """Alter one payload field of one message; return the text and that message's seq."""
    lines = text.split("\n")
    n = int(pick_line * (len(lines) - 2)) + 1  # a message line: not the header or the final ""
    record = json.loads(lines[n])
    record["payload"] = _altered(record["payload"], pick_field)
    lines[n] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines), int(record["seq"])


class CliRunReplay(Workload):
    """One op is ``ringmpc run --out`` then ``ringmpc replay`` of a seeded config.

    execute_config -> serialize -> parse_transcript -> replay_transcript.
    The ops are CONFIGS_PER_PROTOCOL seeded configs of every protocol in
    CLI_PROTOCOLS.  One op in TAMPER_EVERY, at seeded positions, replays its
    transcript with one payload field altered, and must be told of a
    divergence at exactly that seq.  Unit tables are not warmed: every CLI
    process pays for them, so the first use of each modulus builds one.
    """

    def __init__(self, pkg, rng, smoke=False):
        self.cli = pkg.cli
        self.engine = pkg.engine
        self.smoke = smoke
        bands = PRIME_BANDS_SMOKE if smoke else PRIME_BANDS
        self.primes = [next_prime(rng.randint(lo, hi)) for lo, hi in bands]
        self.golden = json.loads(GOLDEN.read_text())
        names = list(CLI_PROTOCOLS) * (1 if smoke else CONFIGS_PER_PROTOCOL)
        tampered = set(rng.sample(range(len(names)), len(names) // TAMPER_EVERY))
        self.ops = [self.op(name, rng, i in tampered) for i, name in enumerate(names)]
        rng.shuffle(self.ops)

    def op(self, name: str, rng, tamper: bool) -> Op:
        cli, engine = self.cli, self.engine
        config, oracle = getattr(self, f"_{name}")(rng)
        config["protocol"] = name
        config["seed"] = rng.randrange(2**31)
        picks = (rng.random(), rng.random()) if tamper else None

        def call():
            outcome, transcript = cli.execute_config(config)
            text = transcript.serialize()
            meta, records = engine.parse_transcript(text)
            altered_seq = None
            if picks:
                text, altered_seq = tamper_text(text, *picks)
            return outcome, meta, len(records), altered_seq, cli.replay_transcript(text)

        def check(result):
            outcome, meta, n_records, altered_seq, (ok, seq, detail) = result
            problem = oracle(outcome)
            if problem:
                return f"{name}: {problem}"
            if meta["protocol"] != name or n_records < 1:
                return f"{name}: parsed header names {meta['protocol']!r}, {n_records} messages"
            if altered_seq is None:
                return _problem(ok, f"{name}: untouched transcript diverged at seq {seq}: {detail}")
            return _problem(not ok and seq == altered_seq,
                            f"{name}: payload altered at seq {altered_seq}, replay said "
                            f"{'verified' if ok else f'divergence at seq {seq}'}")

        return Op(name, call, check, runs=lambda _result: 2, tamper=tamper)

    # Each returns (config without protocol and seed, oracle over the outcome JSON).

    def _card_deal(self, rng):
        r, k = (12, 3) if self.smoke else (52, 3)
        base, extra = divmod(r, k)

        def oracle(out):
            hands = [[int(c) for c in hand] for hand in out["hands"]]
            quotas = [int(q) for q in out["quotas"]]
            if sorted(c for hand in hands for c in hand) != list(range(1, r + 1)):
                return "hands do not partition the deck"
            if [len(h) for h in hands] != quotas or sum(quotas) != r:
                return f"hand sizes {[len(h) for h in hands]} vs quotas {quotas}"
            if sorted(quotas) != sorted([base] * (k - extra) + [base + 1] * extra):
                return f"quotas {quotas} are not an even split"
            return _problem(sorted(int(v) for v in out["labels"]) == list(range(1, r + 1)),
                            "labels are not a permutation of the deck")

        return {"inputs": [], "params": {"r": r, "k": k, "N": 10, "with_labels": True}}, oracle

    def _secure_product(self, rng):
        m = rng.choice(self.primes)
        inputs = [rng.randrange(1, m) for _ in range(rng.randint(3, 6))]
        expected = prod(inputs) % m
        return ({"inputs": inputs, "ring": {"ring": "Zm", "m": m}},
                lambda out: _problem(int(out["product"]) == expected,
                                     f"product {out['product']} != {expected} mod {m}"))

    def _commit3(self, rng):
        m = rng.choice((2, 3, 5, 7, 11, 101, 257))
        values = [rng.randrange(m) for _ in range(3)]

        def oracle(out):
            for party in ("P1", "P2", "P3"):
                if [int(v) for v in out[party]] != values:
                    return f"{party} recovered {out[party]}, committed {values}"
            return None

        return {"inputs": values, "ring": {"ring": "Zm", "m": m}}, oracle

    def _ot_dummy(self, rng):
        messages = [rng.randrange(-10**6, 10**6) for _ in range(rng.randint(3, 8))]
        indices = rng.sample(range(1, len(messages) + 1), rng.randint(1, len(messages)))
        expected = [messages[j - 1] for j in indices]
        return ({"inputs": {"messages": messages, "indices": indices}},
                lambda out: _problem([int(v) for v in out["retrieved"]] == expected,
                                     f"retrieved {out['retrieved']}, expected {expected}"))

    def _share_secret_kk(self, rng):
        k = rng.randint(3, 6)
        secret = rng.randrange(-10**9, 10**9)
        return ({"inputs": [secret], "params": {"k": k}},
                lambda out: _problem(len(out["shares"]) == k
                                     and sum(int(s) for s in out["shares"]) == secret,
                                     f"{k} shares {out['shares']} do not sum to {secret}"))

    def _millionaires_bitwise(self, rng):
        width = rng.randint(8, 16)
        n1 = rng.randrange(2**width)
        n2 = n1 if rng.random() < 0.25 else rng.randrange(2**width)
        verdict = "greater" if n1 > n2 else "less" if n1 < n2 else "equal"
        bit = (n1 ^ n2).bit_length() - 1 if n1 != n2 else None
        return ({"inputs": [n1, n2], "params": {"bit_width": width}},
                lambda out: _problem((out["verdict"], out["decided_bit"]) == (verdict, bit),
                                     f"{n1} vs {n2}: {out}, expected {verdict} at bit {bit}"))

    def _distribute_shares(self, rng):
        k = rng.randint(3, 8)
        value = rng.randrange(-10**9, 10**9)
        return ({"inputs": [value], "params": {"k": k, "initiator": rng.randrange(k)}},
                lambda out: _problem(len(out["summands"]) == k
                                     and sum(int(s) for s in out["summands"]) == value,
                                     f"summands {out['summands']} do not sum to {value}"))

    def post_checks(self) -> list[Op]:
        """Golden digests: same (protocol, inputs, seed) gives the same transcript bytes."""
        cli = self.cli

        def op(name, entry):
            def call():
                _, transcript = cli.execute_config(entry["config"])
                return hashlib.sha256(transcript.serialize().encode()).hexdigest()

            return Op(name, call, lambda digest: _problem(
                digest == entry["sha256"], f"{name}: transcript digest {digest} != golden"))

        return [op(name, entry) for name, entry in sorted(self.golden.items())]


WORKLOADS = {
    "verify-suite": VerifySuite,
    "sum-many-parties": SumManyParties,
    "cli-run-replay": CliRunReplay,
}
