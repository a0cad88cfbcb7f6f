import random
from itertools import product

import pytest

import ringmpc.ring as rr
from ringmpc.arithmetic import (
    EQUAL,
    ExampleF1,
    ExampleF2,
    GREATER,
    LESS,
    MAX_BIT_WIDTH,
    MAX_POWER_BITS,
    MillionairesBitwise,
    MillionairesCompare,
    NEGATIVE,
    POSITIVE,
    SecureProduct,
    SecureRating,
    SecureSum,
    SumOfPowers,
    symmetric_from_power_sums,
)
from ringmpc.engine import ScriptedSource, eavesdropper_view, extract_view, run
from ringmpc.errors import ProtocolError, RingError, TopologyError
from ringmpc.topology import ChannelGraph, build_cycle, default_parties

B = rr.DEFAULT_NOISE_BOUND  # scripted integer noise value v sits at index v + B


class TestSecureSum:
    def test_zeros(self):
        assert run(SecureSum(), None, (0, 0, 0))[0] == 0

    def test_example(self):
        values = [3, 5, 7]
        assert run(SecureSum(), None, values)[0] == sum(values)

    def test_mod_two(self):
        values = [1, 1, 1, 1]
        assert run(SecureSum(rr.mod_ring(2)), None, values)[0] == sum(values) % 2

    def test_random_against_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randint(3, 6)
            values = [rng.randint(-10**6, 10**6) for _ in range(k)]
            assert run(SecureSum(), None, values, rng.randint(0, 999))[0] == sum(values)
            assert run(SecureSum(rr.mod_ring(7)), None, values)[0] == sum(values) % 7

    def test_disjoint_cycle_union(self):
        # Each triangle's subtotal would be public, a partial sum: refused before the run.
        edges = [(0, 1, "secure"), (1, 2, "secure"), (0, 2, "secure"),
                 (3, 4, "secure"), (4, 5, "secure"), (3, 5, "secure")]
        g = ChannelGraph(default_parties(6), edges)
        values = [1, 2, 3, 10, 20, 30]
        with pytest.raises(TopologyError, match="^secure_sum runs on a single cycle$"):
            run(SecureSum(), g, values)

    def test_path_rejected(self):
        path = ChannelGraph(default_parties(3), [(0, 1, "secure"), (1, 2, "secure")])
        with pytest.raises(TopologyError):
            run(SecureSum(), path, (1, 2, 3))


class TestSecureRating:
    def test_hand_trace_with_pinned_noise(self):
        # scores (3,5,7), noises (1,2,3): forward pass hands 21 to the boss,
        # the reverse pass hands 6, and the difference is the true total 15
        proto = SecureRating(rr.integers(), 3)
        sources = {0: ScriptedSource([1 + B]), 1: ScriptedSource([2 + B]),
                   2: ScriptedSource([3 + B])}
        outcome, t = run(proto, None, (3, 5, 7), seed=0, sources=sources)
        assert outcome == 15
        to_boss = [m.payload for m in t.messages if m.to == "B"]
        assert to_boss == [21, 6]

    def test_all_zero(self):
        assert run(SecureRating(rr.integers(), 4), None, (0, 0, 0, 0))[0] == 0

    def test_eavesdropper_sees_two_values_differing_by_total(self):
        proto = SecureRating(rr.integers(), 4)
        outcome, t = run(proto, None, (2, 4, 6, 8), seed=3)
        ev = eavesdropper_view(t)
        assert len(ev.entries) == 2
        (_, forward), (_, adjustment) = ev.entries
        assert forward - adjustment == outcome == 20

    def test_random_against_oracle(self):
        rng = random.Random(13)
        for _ in range(30):
            k = rng.randint(3, 6)
            values = [rng.randint(0, 10) for _ in range(k)]
            outcome, _ = run(SecureRating(rr.integers(), k), None, values, rng.randint(0, 999))
            assert outcome == sum(values)


class TestSecureProduct:
    def test_identity(self):
        assert run(SecureProduct(), None, (1, 1, 1))[0] == 1

    def test_example(self):
        values = [2, 3, 5]
        expected = 1
        for v in values:
            expected *= v
        assert run(SecureProduct(), None, values)[0] == expected

    def test_mod_seven(self):
        assert run(SecureProduct(rr.mod_ring(7)), None, (2, 3, 4))[0] == (2 * 3 * 4) % 7

    def test_zero_input_rejected(self):
        with pytest.raises(RingError):
            run(SecureProduct(), None, (2, 0, 5))

    def test_non_unit_rejected_in_modular_mode(self):
        with pytest.raises(RingError):
            run(SecureProduct(rr.mod_ring(6)), None, (2, 3, 4))  # 2, 3, 4 not units mod 6

    def test_random_against_oracle(self):
        rng = random.Random(17)
        for _ in range(50):
            k = rng.randint(3, 5)
            values = [rng.choice([-1, 1]) * rng.randint(1, 10**6) for _ in range(k)]
            expected = 1
            for v in values:
                expected *= v
            assert run(SecureProduct(), None, values, rng.randint(0, 999))[0] == expected

    def test_pre_broadcast_views_independent_of_other_inputs(self):
        # exhaustive over the units of Z_5, k = 3: what any single party has
        # seen before the unmasking broadcasts is identically distributed for
        # every choice of the other parties' inputs
        R = rr.mod_ring(5)
        proto = SecureProduct(R)
        g = build_cycle(3)
        units = R.units()
        tallies = {i: {} for i in range(3)}
        for values in product(units, repeat=3):
            for noise_idx in product(range(len(units)), repeat=3):
                sources = {i: ScriptedSource([noise_idx[i]]) for i in range(3)}
                _, t = run(proto, g, values, seed=0, sources=sources)
                for i in range(3):
                    entries = extract_view(t, f"P{i + 1}").entries
                    cut = next(
                        pos for pos, (lbl, _) in enumerate(entries)
                        if lbl == "masked product"
                    )
                    pre = tuple(e for e in entries[:cut] if e[0] != f"n{i + 1}")
                    others = tuple(v for j, v in enumerate(values) if j != i)
                    key = (i, values[i])
                    tallies[i].setdefault(key, {}).setdefault(others, []).append(pre)
        for i in range(3):
            for key, by_others in tallies[i].items():
                distributions = {
                    others: sorted(views) for others, views in by_others.items()
                }
                baseline = next(iter(distributions.values()))
                assert all(d == baseline for d in distributions.values()), (i, key)


class TestSumOfPowers:
    def test_reduces_to_sum_at_exponent_one(self):
        assert run(SumOfPowers(rr.integers(), 1), None, (3, 5, 7))[0] == 15

    def test_squares(self):
        values = [1, 2, 3]
        assert run(SumOfPowers(rr.integers(), 2), None, values)[0] == sum(v**2 for v in values)

    def test_zeros(self):
        assert run(SumOfPowers(rr.integers(), 3), None, (0, 0, 0))[0] == 0

    def test_single_mask_only(self):
        # the protocol draws exactly one random element, the initiator's mask
        _, t = run(SumOfPowers(rr.mod_ring(5), 2), build_cycle(4), (1, 2, 3, 4), seed=1)
        assert sum(t.draw_counts.values()) == 1

    def test_powers_over_z_are_bounded_by_exponent_times_input_bits(self):
        e = MAX_POWER_BITS // 2  # 3 has 2 bits
        assert run(SumOfPowers(rr.integers(), e), None, (3, 1, 0))[0] == 3**e + 1
        for exponent, inputs in ((e + 1, (3, 1, 0)), (10**9, (3, 3, 3)),
                                 (2, (2**MAX_POWER_BITS, 0, 0))):
            with pytest.raises(ProtocolError, match=f"^exponent {exponent} on inputs of "):
                run(SumOfPowers(rr.integers(), exponent), None, inputs)
        # Inputs 0, 1 and -1 have powers of at most one bit; a ring Z_m keeps its powers below m.
        assert run(SumOfPowers(rr.integers(), 10**9), None, (1, -1, 0))[0] == 2
        outcome, _ = run(SumOfPowers(rr.mod_ring(7), 10**9), None, (3, 3, 3))
        assert outcome == 3 * pow(3, 10**9, 7) % 7

    def test_random_against_oracle(self):
        rng = random.Random(19)
        for _ in range(50):
            k = rng.randint(3, 5)
            r = rng.randint(1, 3)
            values = [rng.randint(-100, 100) for _ in range(k)]
            outcome, _ = run(SumOfPowers(rr.integers(), r), None, values, rng.randint(0, 999))
            assert outcome == sum(v**r for v in values)


class TestSymmetricFunctions:
    def test_three_values(self):
        # oracle: expand (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        values = [1, 2, 3]
        p = [sum(v**r for v in values) for r in (1, 2, 3)]
        assert p == [6, 14, 36]
        assert symmetric_from_power_sums(p) == (6, 11, 6)

    def test_all_zero(self):
        assert symmetric_from_power_sums([0, 0, 0]) == (0, 0, 0)

    def test_single_variable(self):
        assert symmetric_from_power_sums([42]) == (42,)

    def test_random_against_polynomial_expansion(self):
        rng = random.Random(23)
        for _ in range(50):
            k = rng.randint(1, 5)
            values = [rng.randint(-9, 9) for _ in range(k)]
            p = [sum(v**r for v in values) for r in range(1, k + 1)]
            # oracle: elementary symmetric polynomials by direct expansion
            coeffs = [1]
            for v in values:
                coeffs = [coeffs[0]] + [coeffs[i] + v * coeffs[i - 1] for i in range(1, len(coeffs))] + [v * coeffs[-1]]
            expected = tuple(coeffs[1:])
            assert symmetric_from_power_sums(p) == expected

    def test_modular_requires_invertible_indices(self):
        with pytest.raises(RingError):
            symmetric_from_power_sums([1, 0], ring=rr.mod_ring(6))  # 2 not a unit mod 6

    def test_modular_with_invertible_indices(self):
        values = [1, 2, 3]
        p = [sum(v**r for v in values) % 7 for r in (1, 2, 3)]
        assert symmetric_from_power_sums(p, ring=rr.mod_ring(7)) == (6, 4, 6)


class TestExampleF1:
    def test_values(self):
        oracle = lambda a, b, c: a * b + b * c
        assert run(ExampleF1(), None, (1, 1, 1))[0] == oracle(1, 1, 1) == 2
        assert run(ExampleF1(), None, (5, 0, 7))[0] == 0
        assert run(ExampleF1(), None, (2, 3, 4))[0] == oracle(2, 3, 4) == 18

    def test_random_against_oracle(self):
        rng = random.Random(29)
        for _ in range(50):
            a, b, c = (rng.randint(-10**6, 10**6) for _ in range(3))
            assert run(ExampleF1(), None, (a, b, c), rng.randint(0, 999))[0] == a * b + b * c

    def test_products_never_determined_by_any_message(self):
        # exhaustive over Z_5 with nonzero mask: every message position still
        # varies with the mask, so no message is forced by the inputs alone to
        # equal n1*n2 or n2*n3 (or anything else)
        R = rr.mod_ring(5)
        proto = ExampleF1(R)
        for n1, n2, n3 in product(range(5), repeat=3):
            per_position = {}
            for mask in range(1, 5):
                _, t = run(proto, None, (n1, n2, n3), sources={1: ScriptedSource([mask])})
                for pos, m in enumerate(t.messages):
                    per_position.setdefault(pos, set()).add(m.payload)
            for payloads in per_position.values():
                assert len(payloads) == 4  # additive masking is a bijection


class TestExampleF2:
    def test_values(self):
        Z = rr.integers()
        assert run(ExampleF2(Z, lambda x: x * x), None, (2, 3, 4))[0] == 2 * 3 + 16 == 22
        assert run(ExampleF2(Z, lambda x: x), None, (0, 0, 5))[0] == 5
        assert run(ExampleF2(Z, lambda x: 0), None, (2, 3, 0))[0] == 6

    def test_random_against_oracle(self):
        rng = random.Random(31)
        g = lambda x: x * x + 1
        for _ in range(50):
            a, b, c = (rng.randint(-1000, 1000) for _ in range(3))
            outcome, _ = run(ExampleF2(rr.integers(), g), None, (a, b, c), rng.randint(0, 999))
            assert outcome == a * b + g(c)

    def test_modular_run(self):
        R = rr.mod_ring(7)
        assert run(ExampleF2(R, lambda x: x * x), None, (2, 3, 4))[0] == (6 + 16) % 7

    def test_product_never_determined_by_any_message(self):
        # exhaustive over Z_5, nonzero n1 and n2 (multiplicative masking can
        # only hide nonzero factors): no message is forced to equal n1*n2
        R = rr.mod_ring(5)
        proto = ExampleF2(R, lambda x: x * x, "square")
        units = R.units()
        for n1, n2, n3 in product(range(1, 5), range(1, 5), range(5)):
            per_position = {}
            for a_idx in range(len(units)):
                for c_idx in range(len(units)):
                    _, t = run(
                        proto, None, (n1, n2, n3),
                        sources={0: ScriptedSource([a_idx]), 2: ScriptedSource([c_idx])},
                    )
                    for pos, m in enumerate(t.messages):
                        per_position.setdefault(pos, set()).add(m.payload)
            for payloads in per_position.values():
                # multiplicative masking by a unit keeps every position varying
                assert len(payloads) > 1
                assert not (len(payloads) == 1 and (n1 * n2) % 5 in payloads)


class TestMillionaires:
    def test_hand_trace(self):
        # n1 = 5 split as 7 - 2, n2 = 3 split as 4 - 1:
        # the dummy receives 7+1 = 8 and 4+2 = 6, difference 2 -> positive
        proto = MillionairesCompare(rr.integers())
        sources = {0: ScriptedSource([2 + B]), 1: ScriptedSource([1 + B])}
        outcome, t = run(proto, None, (5, 3), seed=0, sources=sources)
        assert outcome.verdict == POSITIVE
        to_dummy = [m.payload for m in t.messages if m.to == "D"]
        assert to_dummy == [8, 6]

    def test_equal(self):
        assert run(MillionairesCompare(), None, (4, 4))[0].verdict == EQUAL

    def test_negative(self):
        assert run(MillionairesCompare(), None, (1, 9))[0].verdict == NEGATIVE

    def test_random_against_oracle(self):
        rng = random.Random(37)
        for _ in range(60):
            a = rng.randint(-10**6, 10**6)
            b = rng.randint(-10**6, 10**6)
            expected = POSITIVE if a > b else NEGATIVE if a < b else EQUAL
            outcome, _ = run(MillionairesCompare(), None, (a, b), rng.randint(0, 999))
            assert outcome.verdict == expected

    def test_views_hold_only_the_prescribed_values(self):
        proto = MillionairesCompare(rr.integers())
        _, t = run(proto, None, (5, 3), seed=1)
        d_view = extract_view(t, "D")
        assert d_view.value("difference") == 2
        assert "n1" not in d_view.labels() and "n2" not in d_view.labels()
        a_view = extract_view(t, "A")
        assert "n2 minus part" in a_view.labels()
        assert "n2" not in a_view.labels() and "n2 plus part" not in a_view.labels()
        b_view = extract_view(t, "B")
        assert "n1 minus part" in b_view.labels()
        assert "n1" not in b_view.labels()

    def test_modular_window_decoding(self):
        R = rr.mod_ring(11)
        assert run(MillionairesCompare(R), None, (7, 4))[0].verdict == POSITIVE
        assert run(MillionairesCompare(R), None, (1, 4))[0].verdict == NEGATIVE
        assert run(MillionairesCompare(R), None, (5, 5))[0].verdict == EQUAL

    def test_dummy_draws_nothing(self):
        proto = MillionairesCompare(rr.integers())
        _, t = run(proto, None, (5, 3), seed=1)
        assert t.draw_counts["D"] == 0


class TestMillionairesBitwise:
    def test_decided_at_high_bit(self):
        outcome, _ = run(MillionairesBitwise(3), None, (0b101, 0b011))
        assert outcome.verdict == GREATER and outcome.decided_bit == 2

    def test_equal_runs_all_rounds(self):
        outcome, _ = run(MillionairesBitwise(3), None, (0b110, 0b110))
        assert outcome.verdict == EQUAL and outcome.decided_bit is None

    def test_decided_at_low_bit(self):
        outcome, _ = run(MillionairesBitwise(3), None, (0b100, 0b101))
        assert outcome.verdict == LESS and outcome.decided_bit == 0

    def test_random_against_oracle(self):
        rng = random.Random(41)
        for _ in range(60):
            width = rng.randint(1, 12)
            a = rng.randrange(2**width)
            b = rng.randrange(2**width)
            expected = GREATER if a > b else LESS if a < b else EQUAL
            outcome, _ = run(MillionairesBitwise(width), None, (a, b), rng.randint(0, 999))
            assert outcome.verdict == expected
            if a != b:
                # oracle: position of the highest differing bit
                assert outcome.decided_bit == (a ^ b).bit_length() - 1

    def test_stops_at_first_difference(self):
        _, t = run(MillionairesBitwise(4), None, (0b1000, 0b0000), seed=0)
        verdicts = [m for m in t.messages if m.kind == "token"]
        assert len(verdicts) == 1  # decided at the top bit, no further rounds

    def test_out_of_range_inputs_rejected(self):
        from ringmpc.errors import ProtocolError

        with pytest.raises(ProtocolError):
            run(MillionairesBitwise(3), None, (8, 1))

    def test_a_width_above_the_bound_is_refused_before_any_run(self):
        from ringmpc.errors import ProtocolError

        assert MillionairesBitwise(MAX_BIT_WIDTH).bit_width == MAX_BIT_WIDTH
        with pytest.raises(ProtocolError,
                           match=f"^bit_width {MAX_BIT_WIDTH + 1} is above the bound "
                                 f"{MAX_BIT_WIDTH}$"):
            MillionairesBitwise(MAX_BIT_WIDTH + 1)
