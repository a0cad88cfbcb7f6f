"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:
run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

import pytest

import ringmpc.ring as rr
from ringmpc import analysis
from ringmpc.arithmetic import (
    EQUAL,
    ExampleF1,
    ExampleF2,
    GREATER,
    LESS,
    MillionairesBitwise,
    MillionairesCompare,
    NEGATIVE,
    POSITIVE,
    SecureProduct,
    SecureRating,
    SecureSum,
    SumOfPowers,
)
from ringmpc.cli import execute_config, replay_transcript
from ringmpc.commitment import Commit2Dummy, Commit3, ObliviousTransfer
from ringmpc.engine import ScriptedSource, commit, run
from ringmpc.errors import CheatDetected, DummyRandomnessError
from ringmpc.poker import (
    CardDeal,
    CollectiveRandom,
    DealConfig,
    dummy_deal_graph,
    dummy_deal_two_players,
    dummy_dealer_fixed_hands,
    dealer_graph,
    expected_circles,
    knuth_shuffle,
)
from ringmpc.sharing import ShareSecret, reconstruct
from ringmpc.topology import (
    ChannelGraph,
    Party,
    default_parties,
    validate_secure_edges,
    validate_topology,
)

CHI2_999_DF23 = 49.728  # 0.999 quantile, chi-square with 23 degrees of freedom


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    print(f"PASS  criterion {number}: {description}")


# -- criterion 1: oracle equivalence ----------------------------------------

MODULI = (2, 3, 5, 7, 251)
N_INSTANCES = 500


def _rings():
    return [rr.integers()] + [rr.mod_ring(m) for m in MODULI]


def _rand_elem(R, rng):
    return rng.randrange(R.modulus) if R.modular else rng.randint(-10**6, 10**6)


def _rand_unit(R, rng):
    if R.modular:
        units = R.units()
        return units[rng.randrange(len(units))]
    return rng.choice([-1, 1]) * rng.randint(1, 10**6)


def _sign(d):
    return POSITIVE if d > 0 else NEGATIVE if d < 0 else EQUAL


def _check_op(R, rng, mismatches):
    seed = rng.randint(0, 10**6)
    k = rng.randint(3, 6)
    values = [_rand_elem(R, rng) for _ in range(k)]
    if run(SecureSum(R), None, values, seed)[0] != R.normalize(sum(values)):
        mismatches.append(("secure_sum", R, values))
    if run(SecureRating(R, k), None, values, seed)[0] != R.normalize(sum(values)):
        mismatches.append(("secure_rating", R, values))

    units = [_rand_unit(R, rng) for _ in range(rng.randint(3, 5))]
    prod = 1
    for u in units:
        prod *= u
    if run(SecureProduct(R), None, units, seed)[0] != R.normalize(prod):
        mismatches.append(("secure_product", R, units))

    r = rng.randint(1, 3)
    powers = [_rand_elem(R, rng) for _ in range(rng.randint(3, 5))]
    if run(SumOfPowers(R, r), None, powers, seed)[0] != R.normalize(sum(v**r for v in powers)):
        mismatches.append(("sum_of_powers", R, (r, powers)))

    a, b, c = (_rand_elem(R, rng) for _ in range(3))
    if run(ExampleF1(R), None, (a, b, c), seed)[0] != R.normalize(a * b + b * c):
        mismatches.append(("example_f1", R, (a, b, c)))
    if run(ExampleF2(R, lambda x: x * x), None, (a, b, c), seed)[0] != R.normalize(a * b + c * c):
        mismatches.append(("example_f2", R, (a, b, c)))

    # millionaires: over a modular ring the difference must sit inside the
    # centered decode window, so inputs come from 0..(m-1)//2; m = 2 cannot
    # represent a sign at all and is exercised over Z instead
    if R.modular and R.modulus >= 3:
        hi = (R.modulus - 1) // 2
        x, y = rng.randint(0, hi), rng.randint(0, hi)
    else:
        x, y = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
    cmp_ring = R if (R.modular and R.modulus >= 3) else rr.integers()
    if run(MillionairesCompare(cmp_ring), None, (x, y), seed)[0].verdict != _sign(x - y):
        mismatches.append(("millionaires_compare", R, (x, y)))

    width = rng.randint(1, 10)
    x, y = rng.randrange(2**width), rng.randrange(2**width)
    expected = GREATER if x > y else LESS if x < y else EQUAL
    if run(MillionairesBitwise(width), None, (x, y), seed)[0].verdict != expected:
        mismatches.append(("millionaires_bitwise", R, (x, y, width)))

    secret = _rand_elem(R, rng)
    k_share = rng.choice([3, 4, 5])
    shares, _ = run(ShareSecret(R, k_share), None, (secret,), seed)
    if reconstruct(shares, ring=R) != R.normalize(secret):
        mismatches.append(("share_secret_kk", R, secret))

    n = rng.randint(1, 6)
    messages = tuple(_rand_elem(R, rng) for _ in range(n))
    indices = tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
    outcome, _ = run(ObliviousTransfer(R), None, (messages, indices), seed)
    if outcome.retrieved != tuple(R.normalize(messages[j - 1]) for j in indices):
        mismatches.append(("ot_dummy", R, (messages, indices)))

    # commitment is inherently modular; the integer section uses a modulus
    # wide enough to hold every |input| <= 10^6 uniquely
    commit_ring = R if R.modular else rr.mod_ring(2_000_003)
    triple = tuple(_rand_elem(R, rng) for _ in range(3))
    recovered = commit(Commit3(commit_ring), None, triple, seed).reveal()
    expected_triple = tuple(commit_ring.normalize(v) for v in triple)
    if any(recovered[p] != expected_triple for p in ("P1", "P2", "P3")):
        mismatches.append(("commit3", R, triple))


def test_criterion_1_oracle_equivalence():
    with criterion(1, f"oracle equivalence, {N_INSTANCES} instances x {len(_rings())} rings"):
        mismatches = []
        for R in _rings():
            rng = random.Random(f"oracle/{R}")
            for _ in range(N_INSTANCES):
                _check_op(R, rng, mismatches)
        assert mismatches == [], mismatches[:5]


# -- criterion 2: perfect secrecy --------------------------------------------


def test_criterion_2_perfect_secrecy_enumeration():
    with criterion(2, "perfect-secrecy enumeration suite, exact distribution equality"):
        failures = []
        total = 0
        for spec in analysis.standard_suite():
            report = analysis.secrecy_enumeration_check(spec)
            total += report.runs
            if not report.ok:
                failures.append((report.name, report.counterexample))
        assert failures == [], failures


# -- criterion 3: binding ------------------------------------------------------


def test_criterion_3_binding_fault_injection():
    with criterion(3, "binding: every reveal substitution caught, Z_2 exhaustive"):
        silent_wrong = []
        caught = recovered_fine = 0
        single_labels = ["n1+n2 to P1", "n1+n2 to P2", "r1 reveal",
                         "s2+s3 reveal", "r1+r2+r3 reveal"]
        for values in product(range(2), repeat=3):
            for splits in product(range(2), repeat=3):
                r1, r2, r3 = splits
                s = [(values[i] - splits[i]) % 2 for i in range(3)]
                honest_payload = {
                    "n1+n2 to P1": (values[0] + values[1]) % 2,
                    "n1+n2 to P2": (values[0] + values[1]) % 2,
                    "r1 reveal": r1,
                    "s2+s3 reveal": (s[1] + s[2]) % 2,
                    "r1+r2+r3 reveal": (r1 + r2 + r3) % 2,
                }
                tamper_cases = [{lbl: 1 - honest_payload[lbl]} for lbl in single_labels]
                both = {"n1+n2 to P1": 1 - honest_payload["n1+n2 to P1"],
                        "n1+n2 to P2": 1 - honest_payload["n1+n2 to P2"]}
                tamper_cases.append(both)  # a cheating P3 lies consistently
                for tamper in tamper_cases:
                    sources = {i: ScriptedSource([splits[i]]) for i in range(3)}
                    session = commit(Commit3(rr.mod_ring(2)), None, values, sources=sources)
                    try:
                        recovered = session.reveal(tamper)
                    except CheatDetected:
                        caught += 1
                        continue
                    if all(recovered[p] == values for p in recovered):
                        recovered_fine += 1
                    else:
                        silent_wrong.append((values, splits, tamper, recovered))

        for values in product(range(2), repeat=2):
            for splits in product(range(2), repeat=2):
                honest = (values[0] + values[1]) % 2
                for tamper in ({"n1+n2 to A": 1 - honest},
                               {"n1+n2 to B": 1 - honest},
                               {"n1+n2 to A": 1 - honest, "n1+n2 to B": 1 - honest}):
                    sources = {0: ScriptedSource([splits[0]]),
                               1: ScriptedSource([splits[1]])}
                    session = commit(Commit2Dummy(rr.mod_ring(2)), None, values, sources=sources)
                    try:
                        a_learns, b_learns = session.reveal(tamper)
                    except CheatDetected:
                        caught += 1
                        continue
                    if (a_learns, b_learns) == (values[1], values[0]):
                        recovered_fine += 1
                    else:
                        silent_wrong.append((values, splits, tamper, (a_learns, b_learns)))
        assert silent_wrong == [], silent_wrong[:5]
        assert caught > 0


# -- criterion 4: dealing invariants ------------------------------------------

DEAL_TRIALS = 10_000
SEED_BASE = 100_000  # fixed stream for the statistical bound


def test_criterion_4_dealing_invariants():
    bound = 3 * math.sqrt((1 / 3) * (2 / 3) / DEAL_TRIALS)
    with criterion(4, f"dealing: partition/quotas always, card frequencies within {bound:.4f} of 1/3"):
        for N in (2, 10):
            counts = {}
            deal = CardDeal(DealConfig(6, 3, N), with_labels=True)
            for i in range(DEAL_TRIALS):
                res, _ = run(deal, None, (), seed=SEED_BASE + i)
                indices = sorted(c for hand in res.hands for c in hand)
                assert indices == [1, 2, 3, 4, 5, 6]
                assert all(len(h) == q for h, q in zip(res.hands, res.quotas))
                assert res.quotas == (2, 2, 2)
                for p, hand in enumerate(res.labeled_hands()):
                    for card in hand:
                        counts[(card, p)] = counts.get((card, p), 0) + 1
            for card in range(1, 7):
                for p in range(3):
                    freq = counts.get((card, p), 0) / DEAL_TRIALS
                    assert abs(freq - 1 / 3) < bound, (N, card, p, freq)


# -- criterion 5: the 52-card deck --------------------------------------------


def test_criterion_5_52_card_hand_sizes():
    with criterion(5, "52-card deal always yields hand sizes {18,17,17}"):
        deal = CardDeal(DealConfig(52, 3, 10), with_labels=True)
        for seed in range(20):
            res, _ = run(deal, None, (), seed=seed)
            assert sorted(len(h) for h in res.hands) == [17, 17, 18]
            assert sorted(len(h) for h in res.labeled_hands()) == [17, 17, 18]


# -- criterion 6: the transmission formula -------------------------------------


def test_criterion_6_transmission_formula():
    with criterion(6, "mean circles per value matches sum(j^k)/N^k (3 sigma, 2000 deals)"):
        # exact agreement with brute-force enumeration of counter tuples
        for N in range(1, 7):
            for k in range(1, 5):
                brute = Fraction(
                    sum(min(t) for t in product(range(1, N + 1), repeat=k)), N**k
                )
                assert expected_circles(N, k) == brute
        assert expected_circles(10, 3) == Fraction(3025, 1000)

        # Monte Carlo over values with all k players still following counters
        samples = []
        for seed in range(2000):
            _, t = run(CardDeal(DealConfig(30, 3, 10)), None, (), seed=seed)
            samples.extend(analysis.transmission_stats(t).circle_samples())
        mean = sum(samples) / len(samples)
        expectation = Fraction(3025, 1000)
        second_moment = sum(
            j * j * (Fraction(11 - j, 10) ** 3 - Fraction(10 - j, 10) ** 3)
            for j in range(1, 11)
        )
        sigma = math.sqrt(float(second_moment - expectation**2) / len(samples))
        assert abs(mean - float(expectation)) < 3 * sigma, (mean, 3 * sigma)


# -- criterion 7: shuffle uniformity --------------------------------------------


def test_criterion_7_shuffle_uniformity():
    with criterion(7, "24,000 shuffles of 4 cards pass chi-square at 0.001"):
        rng = random.Random("shuffle-acceptance")
        counts = {}
        for _ in range(24_000):
            perm = tuple(knuth_shuffle(4, lambda lo, hi: rng.randint(lo, hi)))
            counts[perm] = counts.get(perm, 0) + 1
        assert len(counts) == 24
        expected = 24_000 / 24
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < CHI2_999_DF23, chi2


# -- criterion 8: the topology gate ----------------------------------------------

# number of 2-regular labelled graphs (disjoint cycle covers) on n vertices
CYCLE_COVER_COUNTS = {1: 0, 2: 0, 3: 1, 4: 3, 5: 12, 6: 70, 7: 465}


def _is_cycle_cover(n, pairs):
    # independent oracle: walk every component and confirm it is a cycle >= 3
    adj = {v: [] for v in range(n)}
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    if any(len(neighbours) != 2 for neighbours in adj.values()):
        return False
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        length = 0
        prev, cur = None, start
        while True:
            seen.add(cur)
            length += 1
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                return False
            prev, cur = cur, nxt[0]
            if cur == start:
                break
        if length < 3:
            return False
    return True


def test_criterion_8_topology_gate_exhaustive():
    with criterion(8, "topology gate exhaustive over all secure graphs on <= 7 vertices"):
        accepted_total = 0
        checked = 0
        for n in range(1, 8):
            all_edges = list(combinations(range(n), 2))
            E = len(all_edges)
            accepted_n = 0
            for mask in range(1 << E):
                pairs = [all_edges[b] for b in range(E) if (mask >> b) & 1]
                ok, reason = validate_secure_edges(n, pairs)
                deg = [0] * n
                for i, j in pairs:
                    deg[i] += 1
                    deg[j] += 1
                if min(deg, default=0) < 2:
                    assert not ok, (n, pairs)
                assert ok == _is_cycle_cover(n, pairs), (n, pairs)
                if not ok:
                    assert reason is not None
                accepted_n += ok
                checked += 1
                if checked % 1000 == 0:  # the public wrapper agrees with the core
                    g = ChannelGraph(default_parties(n),
                                     [(i, j, "secure") for i, j in pairs])
                    assert bool(validate_topology(g)) == ok
            assert accepted_n == CYCLE_COVER_COUNTS[n], n
            accepted_total += accepted_n
        assert accepted_total == 551


# -- criterion 9: determinism and replay -------------------------------------------

REPLAY_CATALOG = [
    {"protocol": "secure_sum", "inputs": [3, 5, 7], "seed": 11},
    {"protocol": "secure_sum", "inputs": [1, 0, 1, 1], "seed": 11,
     "ring": {"ring": "Zm", "m": 2}},
    {"protocol": "secure_rating", "inputs": [2, 4, 6], "seed": 11},
    {"protocol": "secure_product", "inputs": [2, 3, 5], "seed": 11},
    {"protocol": "sum_of_powers", "inputs": [1, 2, 3], "seed": 11,
     "params": {"exponent": 3}},
    {"protocol": "example_f1", "inputs": [2, 3, 4], "seed": 11},
    {"protocol": "example_f2", "inputs": [2, 3, 4], "seed": 11,
     "params": {"g": "cube"}},
    {"protocol": "millionaires_compare", "inputs": [9, 4], "seed": 11},
    {"protocol": "millionaires_bitwise", "inputs": [9, 4], "seed": 11,
     "params": {"bit_width": 5}},
    {"protocol": "commit3", "inputs": [3, 4, 5], "seed": 11,
     "ring": {"ring": "Zm", "m": 10}},
    {"protocol": "commit2_dummy", "inputs": [1, 0], "seed": 11,
     "ring": {"ring": "Zm", "m": 2}},
    {"protocol": "ot_dummy", "inputs": {"messages": [10, 20, 30], "indices": [2]},
     "seed": 11},
    {"protocol": "card_deal", "inputs": [], "seed": 11,
     "params": {"r": 8, "k": 3, "N": 3, "with_labels": True}},
    {"protocol": "card_deal", "inputs": [], "seed": 11,
     "topology": None,  # filled below with the dummy triangle
     "params": {"r": 6, "k": 3, "N": 4, "with_labels": True,
                "counter_contributors": [0, 1]}},
    {"protocol": "card_deal", "inputs": [], "seed": 11,
     "topology": None,  # filled below with the dealer graph
     "params": {"r": 6, "k": 3, "N": 10, "quotas": [2, 2, 2],
                "counter_contributors": [0, 1], "consolidate_to": 2,
                "post_draws": [[0, 1]]}},
    {"protocol": "share_secret_kk", "inputs": [12345], "seed": 11,
     "params": {"k": 4}},
    {"protocol": "distribute_shares", "inputs": [55], "seed": 11,
     "params": {"k": 3, "initiator": 1}},
]
REPLAY_CATALOG[13]["topology"] = dummy_deal_graph().to_config()
REPLAY_CATALOG[14]["topology"] = dealer_graph(2, 1).to_config()


def test_criterion_9_determinism_and_replay():
    with criterion(9, "byte-identical reruns; replay verifies and pinpoints any flip"):
        for config in REPLAY_CATALOG:
            config = {k: v for k, v in config.items() if v is not None}
            _, t1 = execute_config(dict(config))
            _, t2 = execute_config(dict(config))
            text = t1.serialize()
            assert text == t2.serialize(), config["protocol"]

            ok, _, _ = replay_transcript(text)
            assert ok, config["protocol"]

            lines = text.strip().split("\n")
            assert len(lines) > 2
            target = len(lines) // 2
            record = json.loads(lines[target])
            payload = record["payload"]
            if isinstance(payload, str) and payload.lstrip("-").isdigit():
                record["payload"] = str(int(payload) + 1)
            elif isinstance(payload, list) and payload:
                record["payload"] = [str(int(payload[0]) + 1)] + payload[1:]
            else:
                record["payload"] = "flipped"
            lines[target] = json.dumps(record, sort_keys=True, separators=(",", ":"))
            ok, seq, _ = replay_transcript("\n".join(lines) + "\n")
            assert not ok and seq == record["seq"], config["protocol"]


# -- criterion 10: dummy discipline --------------------------------------------------


def test_criterion_10_dummy_discipline():
    with criterion(10, "dummy draw attempts fault loudly; dummy suite draws zero randomness"):
        # a dummy planted in the sum cycle faults at its first noise draw
        parties = [Party(0, "P1"), Party(1, "P2", full=False), Party(2, "P3")]
        g = ChannelGraph(parties, [(0, 1, "secure"), (1, 2, "secure"), (0, 2, "secure")])
        with pytest.raises(DummyRandomnessError):
            run(SecureSum(rr.integers()), g, (1, 2, 3), seed=0)
        with pytest.raises(DummyRandomnessError):
            run(CollectiveRandom(5), dummy_deal_graph(), (), seed=0)

        audits = []
        _, t = run(MillionairesCompare(rr.integers()), None, (5, 3), seed=1)
        audits.append(t.draw_counts["D"])
        _, t = run(MillionairesBitwise(4), None, (9, 4), seed=1)
        audits.append(t.draw_counts["D"])
        session = commit(Commit2Dummy(rr.mod_ring(2)), None, (1, 0), seed=1)
        session.reveal()
        audits.append(session.transcript.draw_counts["D"])
        _, t = run(ObliviousTransfer(rr.integers()), None, ((10, 20, 30), (1, 3)), seed=1)
        audits.append(t.draw_counts["D"])
        _, _, _, t = dummy_deal_two_players(6, 4, seed=1)
        audits.append(t.draw_counts["P3"])
        outcome, t = dummy_dealer_fixed_hands(52, 2, 17, seed=1, post_draws=[(0, 2)])
        audits.append(t.draw_counts["D1"])
        assert audits == [0] * len(audits), audits
