"""Protocols at 64-bit and larger moduli, far beyond any table of units.

2^61 - 1 is a prime below the factorisation bound, so unit draws work;
2^100 is a prime power (the only prime is 2); 2^127 - 1 is a prime above
the bound, so protocols that draw no unit still run and a unit draw is a
typed error (exit 2 from the CLI).  Every protocol that takes a ring runs
and replays through the CLI at 2^61 - 1 and 2^127 - 1.
"""

import inspect
import json
import random
import time

import pytest
from click.testing import CliRunner

from ringmpc import (
    EQUAL,
    NEGATIVE,
    POSITIVE,
    Commit3,
    ExampleF2,
    MillionairesCompare,
    SecureProduct,
    SecureSum,
    commit,
    run,
)
from ringmpc.cli import RUNNERS, main
from ringmpc.errors import CheatDetected, RingError
from ringmpc.ring import mod_ring

M61 = 2**61 - 1
M127 = 2**127 - 1


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    assert time.perf_counter() - start < 1
    return result


@pytest.mark.parametrize("seed", range(5))
def test_unit_drawing_protocols_at_2_61_minus_1(seed):
    R = mod_ring(M61)
    rng = random.Random(seed)
    factors = [rng.randrange(1, M61) for _ in range(4)]
    product = 1
    for f in factors:
        product = product * f % M61
    assert _timed(run, SecureProduct(R), None, factors, seed)[0] == product

    n1, n2, n3 = (rng.randrange(M61) for _ in range(3))
    outcome, _ = _timed(run, ExampleF2(R, lambda x: x * x), None, (n1, n2, n3), seed)
    assert outcome == (n1 * n2 + n3 * n3) % M61

    a, b = rng.randrange(M61 // 2), rng.randrange(M61 // 2)
    want = POSITIVE if a > b else NEGATIVE if a < b else EQUAL
    assert _timed(run, MillionairesCompare(R), None, (a, b), seed)[0].verdict == want


def test_secure_product_at_2_100():
    R = mod_ring(2**100)
    factors = [3, 2**99 + 1, 2**100 - 1, 12345678901234567]
    product = 1
    for f in factors:
        product = product * f % 2**100
    assert _timed(run, SecureProduct(R), None, factors, 1)[0] == product


def test_sum_and_commitment_at_2_127_minus_1():
    R = mod_ring(M127)
    rng = random.Random(127)
    for seed in range(5):
        values = [rng.randrange(M127) for _ in range(rng.randint(3, 6))]
        assert run(SecureSum(R), None, values, seed)[0] == sum(values) % M127
        triple = tuple(rng.randrange(M127) for _ in range(3))
        assert commit(Commit3(R), None, triple, seed).reveal() == {
            name: triple for name in ("P1", "P2", "P3")}
    session = commit(Commit3(R), None, (1, 2, 3), seed=0)
    with pytest.raises(CheatDetected):
        session.reveal({"r1 reveal": session.ledgers["P2"]["r1"] + 1})


def test_unit_draw_at_2_127_minus_1_is_a_typed_error(tmp_path):
    with pytest.raises(RingError, match=str(M127)):
        _timed(run, SecureProduct(mod_ring(M127)), None, (2, 3, 5), seed=0)
    cfg = tmp_path / "product.json"
    cfg.write_text(json.dumps({"protocol": "secure_product", "inputs": ["2", "3", "5"],
                               "seed": 7, "ring": {"ring": "Zm", "m": M127}}))
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["run", str(cfg)])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert str(M127) in result.output


def _ring_case(name: str, m: int):
    """(config body, oracle of the printed outcome) of protocol ``name`` over Z_m."""
    a, b, c = 3, m - 1, m - 7
    abc = {"inputs": [str(a), str(b), str(c)]}

    def value(v: int) -> str:
        return str(v % m)

    def sums_to(key: str, total: int):
        return lambda out: len(out[key]) == 3 and sum(map(int, out[key])) % m == total

    return {
        "secure_sum": (abc, lambda out: out == {"sum": value(a + b + c)}),
        "secure_rating": (abc, lambda out: out == {"total": value(a + b + c)}),
        "secure_product": (abc, lambda out: out == {"product": value(a * b * c)}),
        "sum_of_powers": ({**abc, "params": {"exponent": 3}},
                          lambda out: out == {"power_sum": value(a**3 + b**3 + c**3)}),
        "example_f1": (abc, lambda out: out == {"value": value(a * b + b * c)}),
        "example_f2": ({**abc, "params": {"g": "square"}},
                       lambda out: out == {"value": value(a * b + c * c)}),
        "commit3": (abc, lambda out: out == dict.fromkeys(("P1", "P2", "P3"),
                                                          [str(a), str(b), str(c)])),
        "commit2_dummy": ({"inputs": [str(a), str(b)]},
                          lambda out: out == {"A learns n2": str(b), "B learns n1": str(a)}),
        "millionaires_compare": ({"inputs": [str(m // 2), str(a)]},
                                 lambda out: out == {"verdict": POSITIVE}),
        "ot_dummy": ({"inputs": {"messages": ["10", str(b), str(c)], "indices": [2, 3]}},
                     lambda out: out == {"retrieved": [str(b), str(c)]}),
        "share_secret_kk": ({"inputs": [str(b)], "params": {"k": 3}}, sums_to("shares", b)),
        "distribute_shares": ({"inputs": [str(b)]}, sums_to("summands", b)),
    }[name]


RING_PROTOCOLS = sorted(name for name, cls in RUNNERS.items()
                        if "ring" in inspect.signature(cls).parameters)
# A unit draw at 2^127 - 1 is a typed error: these two draw units.
UNIT_DRAWERS = {"secure_product", "example_f2"}


def test_every_protocol_but_the_card_deal_and_the_bitwise_comparison_takes_a_ring():
    assert set(RUNNERS) - set(RING_PROTOCOLS) == {"card_deal", "millionaires_bitwise"}


@pytest.mark.parametrize("m", [M61, M127], ids=["2^61-1", "2^127-1"])
@pytest.mark.parametrize("name", RING_PROTOCOLS)
def test_every_ring_protocol_runs_and_replays_at_a_large_modulus(name, m, tmp_path):
    body, oracle = _ring_case(name, m)
    cfg, out = tmp_path / "config.json", tmp_path / "t.jsonl"
    cfg.write_text(json.dumps({"protocol": name, "seed": 7, "ring": {"ring": "Zm", "m": m},
                               **body}))
    runner = CliRunner()
    result = runner.invoke(main, ["run", str(cfg), "--out", str(out)])
    if m == M127 and name in UNIT_DRAWERS:
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert str(M127) in result.output
        return
    assert result.exit_code == 0, result.output
    printed = json.loads(result.output)
    assert printed["protocol"] == name and oracle(printed["outcome"])
    replayed = runner.invoke(main, ["replay", str(out)])
    assert replayed.exit_code == 0 and replayed.output == "verified\n"
