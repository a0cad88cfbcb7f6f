import dataclasses
import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringmpc.engine import ScriptedSource
from ringmpc.errors import RingError
from ringmpc.ring import FACTOR_BOUND, MAX_PRIMES, RingSpec, integers, mod_ring


def test_add_over_integers():
    Z = integers()
    assert Z.add(3, 5) == 8


def test_mul_identity_over_z7():
    R = mod_ring(7)
    rng = random.Random(1)
    for _ in range(50):
        a = rng.randrange(7)
        assert R.mul(a, 1) == a


def test_pow_matches_repeated_multiplication():
    R = mod_ring(5)
    # oracle: repeated multiplication
    expected = 1
    for _ in range(3):
        expected = R.mul(expected, 2)
    assert expected == 3
    assert R.pow(2, 3) == 3


def test_pow_rejects_negative_exponent():
    with pytest.raises(RingError):
        mod_ring(5).pow(2, -1)


def test_exact_div_integers():
    Z = integers()
    assert Z.exact_div(15, 3) == 5
    assert Z.exact_div(1, 1) == 1


def test_exact_div_mod7_brute_force():
    R = mod_ring(7)
    # oracle: the unique x in 0..6 with 3*x = 4 (mod 7)
    solutions = [x for x in range(7) if (3 * x) % 7 == 4]
    assert solutions == [6]
    assert R.exact_div(4, 3) == 6


def test_exact_div_errors():
    Z = integers()
    with pytest.raises(RingError):
        Z.exact_div(5, 0)
    with pytest.raises(RingError):
        Z.exact_div(5, 3)  # not divisible: corrupted value
    R6 = mod_ring(6)
    with pytest.raises(RingError):
        R6.exact_div(4, 2)  # 2 is not a unit mod 6


def test_noise_uniform_over_z2():
    R = mod_ring(2)
    rng = random.Random(42)
    ones = sum(R.sample_noise(rng) for _ in range(10_000))
    assert 0.48 <= ones / 10_000 <= 0.52


def test_unit_noise_over_z6_stays_in_units():
    R = mod_ring(6)
    assert R.units() == (1, 5)
    rng = random.Random(3)
    for _ in range(200):
        assert R.sample_noise(rng, require_unit=True) in (1, 5)


def test_unit_noise_over_small_integers():
    Z = integers(noise_bound=1)
    rng = random.Random(5)
    values = {Z.sample_noise(rng, require_unit=True) for _ in range(100)}
    assert values == {-1, 1}


def test_noise_bounds_over_integers():
    Z = integers(noise_bound=4)
    rng = random.Random(9)
    values = {Z.sample_noise(rng) for _ in range(2000)}
    assert values == set(range(-4, 5))


def test_scripted_noise_indexes_candidate_set():
    R = mod_ring(6)
    # indices address the unit tuple (1, 5)
    assert R.sample_noise(ScriptedSource([0]), require_unit=True) == 1
    assert R.sample_noise(ScriptedSource([1]), require_unit=True) == 5
    Z = integers(noise_bound=2)
    # nonzero candidates in order: -2, -1, 1, 2
    got = [Z.sample_noise(ScriptedSource([i]), require_unit=True) for i in range(4)]
    assert got == [-2, -1, 1, 2]


def _candidates(R: RingSpec, require_unit: bool) -> list:
    """The candidate set of one noise draw in ascending order, from the ring's definition."""
    if R.modular:
        m = R.modulus
        return [x for x in range(m) if math.gcd(x, m) == 1] if require_unit else list(range(m))
    b = R.noise_bound
    return [x for x in range(-b, b + 1) if x or not require_unit]


NOISE_RINGS = [integers(b) for b in (1, 2, 4)] + [mod_ring(m) for m in (2, 5, 6, 12, 30, 210)]


@pytest.mark.parametrize("R", NOISE_RINGS, ids=str)
@pytest.mark.parametrize("require_unit", [False, True], ids=["plain", "unit"])
def test_noise_at_maps_each_index_to_its_candidate_in_ascending_order(R, require_unit):
    n = R.noise_domain(require_unit)
    got = [R.noise_at(i, require_unit) for i in range(n)]
    assert got == _candidates(R, require_unit)
    # sample_noise is one draw over the domain, mapped by noise_at
    assert got == [R.sample_noise(ScriptedSource([i]), require_unit) for i in range(n)]


@pytest.mark.parametrize("m", [5, 6])
def test_add_sub_roundtrip_exhaustive(m):
    R = mod_ring(m)
    for a in R.elements():
        for b in R.elements():
            assert R.sub(R.add(a, b), b) == a


@pytest.mark.parametrize("m", [5, 6])
def test_exact_div_inverts_mul_over_units(m):
    R = mod_ring(m)
    for a in R.units():
        for x in R.elements():
            assert R.exact_div(R.mul(a, x), a) == x


def test_ring_laws_random_over_integers():
    Z = integers()
    rng = random.Random(7)
    for _ in range(1000):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        assert Z.sub(Z.add(a, b), b) == a
        if a != 0:
            assert Z.exact_div(Z.mul(a, b), a) == b


@pytest.mark.parametrize("m", [2, 3, 5, 6, 251])
def test_canonical_form_closure(m):
    R = mod_ring(m)
    rng = random.Random(m)
    for _ in range(300):
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**9, 10**9)
        for result in (R.add(a, b), R.sub(a, b), R.mul(a, b), R.neg(a), R.pow(a, 5)):
            assert 0 <= result < m


def test_spec_validation():
    with pytest.raises(RingError):
        RingSpec("Zm", modulus=1)
    with pytest.raises(RingError):
        RingSpec("Z", noise_bound=0)
    with pytest.raises(RingError):
        RingSpec("weird")
    with pytest.raises(RingError):
        RingSpec("Z", modulus=5, noise_bound=3)


def test_config_roundtrip():
    for spec in (integers(123), mod_ring(17)):
        assert RingSpec.from_config(spec.to_config()) == spec


def test_is_unit():
    assert mod_ring(6).is_unit(5)
    assert not mod_ring(6).is_unit(3)
    assert integers().is_unit(-7)
    assert not integers().is_unit(0)


# -- the i-th unit of Z_m, selected from m's primes --------------------------


def test_unit_select_matches_gcd_filter_for_every_small_modulus():
    for m in range(2, 2001):
        oracle = tuple(v for v in range(m) if math.gcd(v, m) == 1)
        R = mod_ring(m)
        assert R.noise_domain(True) == len(oracle), m
        assert R.units() == oracle, m


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(2, 3000))
@example(30030)  # 2*3*5*7*11*13: six distinct primes
@example(60060)  # the same six primes, two periods of units
def test_noise_at_selects_the_units_in_ascending_order(m):
    R = mod_ring(m)
    got = [R.noise_at(i, True) for i in range(R.noise_domain(True))]
    assert got == _candidates(R, True)


def _units_below(v, primes):
    """How many of 1..v-1 are divisible by none of ``primes``: Mobius over every subset."""
    return sum((-1) ** len(subset) * ((v - 1) // math.prod(subset))
               for size in range(len(primes) + 1) for subset in combinations(primes, size))


LARGE_COMPOSITES = {  # m: its distinct primes
    2 * 3 * 5 * 7 * 11 * 13 * 17 * 19: (2, 3, 5, 7, 11, 13, 17, 19),
    2**40 * 3: (2, 3),
    720720: (2, 3, 5, 7, 11, 13),
    1048571 * 1048573: (1048571, 1048573),  # found by Pollard-Brent rho
    1000003**2 * 7: (7, 1000003),  # a square cofactor for rho
}


@pytest.mark.parametrize("m", sorted(LARGE_COMPOSITES))
def test_unit_select_at_large_composites(m):
    primes = LARGE_COMPOSITES[m]
    R = mod_ring(m)
    phi = m // math.prod(primes) * math.prod(p - 1 for p in primes)
    assert R.noise_domain(True) == phi

    def select(i):
        return R.sample_noise(ScriptedSource([i]), require_unit=True)

    rng = random.Random(m)
    indices = [0, 1, phi - 2, phi - 1] + [rng.randrange(phi) for _ in range(200)]
    for i in indices:
        v = select(i)
        assert math.gcd(v, m) == 1 and _units_below(v, primes) == i, (i, v)
    assert select(0) == 1 and select(phi - 1) == m - 1


# Primes, or a prime times 6, above the bound below which Miller-Rabin is exact.
@pytest.mark.parametrize("m", [2**127 - 1, 6 * (2**89 - 1)])
def test_unit_draw_above_the_factor_bound_raises_at_once(m):
    assert m // 6 >= FACTOR_BOUND
    R = mod_ring(m)
    start = time.perf_counter()
    for draw in (lambda: R.noise_domain(True),
                 lambda: R.sample_noise(random.Random(0), require_unit=True)):
        with pytest.raises(RingError, match=f"{m}.*{FACTOR_BOUND}"):
            draw()
    assert time.perf_counter() - start < 1
    # Nothing else needs the factors.
    assert R.exact_div(R.mul(5, 7), 5) == 7 and R.is_unit(5) and R.sample_noise(random.Random(0)) < m


def test_unit_draw_with_too_many_distinct_primes_raises():
    primes = [p for p in range(2, 100) if all(p % d for d in range(2, p))][:MAX_PRIMES + 1]
    m = math.prod(primes)
    with pytest.raises(RingError, match=f"{MAX_PRIMES + 1} distinct prime factors"):
        mod_ring(m).noise_domain(True)
    assert mod_ring(m // primes[-1]).noise_domain(True) == math.prod(p - 1 for p in primes[:-1])


def test_modular_is_derived_and_left_out_of_equality_hash_and_repr():
    a, b = mod_ring(5), mod_ring(5)
    assert a == b and hash(a) == hash(b) and a.modular
    assert repr(a) == "RingSpec(kind='Zm', modulus=5, noise_bound=None)"
    assert a.to_config() == {"ring": "Zm", "m": 5}
    seven = dataclasses.replace(a, modulus=7)
    assert seven.modular and seven == mod_ring(7) and seven != a
    assert str(seven) == "Z_7" and seven.normalize(9) == 2
    z = integers(10)
    assert z == integers(10) and hash(z) == hash(integers(10)) and not z.modular
    assert repr(z) == "RingSpec(kind='Z', modulus=None, noise_bound=10)"
    assert z.to_config() == {"ring": "Z", "noise_bound": 10}
    assert z != a and not dataclasses.replace(z, noise_bound=3).modular
    assert dataclasses.replace(z, kind="Zm", modulus=4, noise_bound=None).modular
    assert not dataclasses.replace(a, kind="Z", modulus=None, noise_bound=3).modular
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.modular = False


# Ring laws: add, sub, mul and neg reduce in one expression each, and must give
# normalize of the plain integer result, for operands that are negative or >= m.
LAW_RINGS = [integers(), *(mod_ring(m) for m in (2, 6, 2**61 - 1, 2**127 - 1))]
_OPERANDS = st.integers(-13, 13) | st.integers(-2**130, 2**130)


@pytest.mark.parametrize("R", LAW_RINGS, ids=str)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(a=_OPERANDS, b=_OPERANDS)
def test_ring_ops_equal_normalize_of_the_integer_result(R, a, b):
    assert R.add(a, b) == R.normalize(a + b)
    assert R.sub(a, b) == R.normalize(a - b)
    assert R.mul(a, b) == R.normalize(a * b)
    assert R.neg(a) == R.normalize(-a)
    if R.modular:
        assert all(0 <= v < R.modulus for v in (R.add(a, b), R.sub(a, b), R.mul(a, b), R.neg(a)))
    else:
        assert (R.add(a, b), R.sub(a, b), R.mul(a, b), R.neg(a)) == (a + b, a - b, a * b, -a)
