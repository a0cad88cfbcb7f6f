"""Arithmetic over the two constructible rings the protocols run in.

Supported rings are the integers (``Z``) and the integers modulo m
(``Zm``).  Both have no zero divisors when m is prime, and both allow a
factor to be peeled off a product exactly: over Z by exact integer
division, over Zm by multiplying with a modular inverse (which is why
multiplicative masks must be units).

Elements are plain Python ints.  Modular values are kept in canonical
form 0..m-1 by every operation; the ring descriptor, not the element,
carries the ring.

Noise over Zm is uniform over the full residue set (or over the units),
so the masking used by the protocols hides perfectly.  Over Z a uniform
distribution does not exist; noise is uniform over a bounded symmetric
interval [-noise_bound, noise_bound], which makes hiding over Z
statistical rather than perfect.  All exhaustive secrecy checks in this
package therefore run over Zm.

A unit draw over Zm is one ``randrange(phi(m))`` whose index i selects the
i-th unit of Zm in ascending order, so an enumerator indexes the units as
it indexes the residues.  The select keeps no table: it needs only the
primes dividing m, found once per modulus by trial division below 1000,
Miller-Rabin with the first 13 prime bases (exact below FACTOR_BOUND,
about 3.3e24) and Pollard-Brent rho, and it costs about 2^k steps for k
distinct primes (one step when m is a prime power).  A unit draw raises
RingError when the part of m free of primes below 1000 is at or above
FACTOR_BOUND, as for m = 2^127 - 1, or when m has more than MAX_PRIMES
distinct primes; no modulus below FACTOR_BOUND has that many.  Every
other operation uses only ``gcd`` and ``pow`` and works for any m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, wraps

from .errors import RingError
from .jsonvalues import json_field


# Miller-Rabin with these bases is exact below FACTOR_BOUND (Sorenson and
# Webster, 2015); a cofactor at or above it cannot be proven prime here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
FACTOR_BOUND = 3_317_044_064_679_887_385_961_981
_TRIAL_LIMIT = 1000
# A unit select over k distinct primes counts up to 2^k terms.
MAX_PRIMES = 18


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < FACTOR_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n (Pollard-Brent rho, one c after another)."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=1024)
def _unit_basis(m: int) -> tuple[tuple[int, ...], int, int]:
    """(the primes dividing m in ascending order, their product rad, phi(rad))."""
    primes, n = set(), m
    for d in (2, *range(3, _TRIAL_LIMIT, 2)):
        if d * d > n:
            break
        if n % d == 0:
            primes.add(d)
            while n % d == 0:
                n //= d
    if n >= FACTOR_BOUND:
        raise RingError(f"cannot draw a unit modulo {m}: its part {n} free of primes below "
                        f"{_TRIAL_LIMIT} is not below {FACTOR_BOUND}, the bound up to which "
                        "primality is decided exactly")
    pending = [n] if n > 1 else []
    while pending:
        n = pending.pop()
        if _is_prime(n):
            primes.add(n)
        else:
            d = _rho(n)
            pending += [d, n // d]
    if len(primes) > MAX_PRIMES:
        raise RingError(f"cannot draw a unit modulo {m}: it has {len(primes)} distinct prime "
                        f"factors, more than the {MAX_PRIMES} a unit select allows")
    primes = tuple(sorted(primes))
    return primes, math.prod(primes), math.prod(p - 1 for p in primes)


def _coprime_count(x: int, primes: tuple[int, ...], end: int) -> int:
    """How many of 1..x are divisible by none of ``primes[:end]`` (ascending).

    Legendre's recursion, one term per squarefree product of those primes
    that is at most x: a multiple is counted under its smallest prime p_j
    as p_j times a number up to x // p_j free of the primes below p_j.
    """
    n = x
    for j in range(end):
        p = primes[j]
        if p > x:
            break
        n -= _coprime_count(x // p, primes, j)
    return n


def _unit(m: int, i: int) -> int:
    """The i-th unit of Z_m in ascending order, counting from 0.

    The units repeat with period rad(m), the product of the primes of m,
    phi(rad) of them per period, so the i-th is q * rad + s, where
    (q, r) = divmod(i, phi(rad)) and s is the (r + 1)-th number in 1..rad
    coprime to rad.  For a prime power p^e, s is simply r + 1.
    """
    primes, rad, phi_rad = _unit_basis(m)
    q, r = divmod(i, phi_rad)
    if len(primes) == 1:
        return q * rad + r + 1
    # The count of coprimes in 1..x strays from x * phi(rad) / rad by less than
    # 2^(len(primes) - 1): count there once, then step to the one with count r + 1.
    x = (r + 1) * rad // phi_rad
    c = _coprime_count(x, primes, len(primes))
    while c <= r:
        x += 1
        c += math.gcd(x, rad) == 1
    while c > r + 1 or math.gcd(x, rad) != 1:
        c -= math.gcd(x, rad) == 1
        x -= 1
    return q * rad + x


@dataclass(frozen=True)
class RingSpec:
    """Descriptor of the ambient ring for a protocol run.

    kind "Z": arbitrary-precision integers, noise drawn uniformly from
    [-noise_bound, noise_bound].  kind "Zm": integers modulo ``modulus``.
    """

    kind: str
    modulus: int | None = None
    noise_bound: int | None = None
    # Derived from kind; a plain attribute because every ring op reads it.
    modular: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "Zm":
            if self.modulus is None or self.modulus < 2:
                raise RingError("Zm needs a modulus >= 2")
            if self.noise_bound is not None:
                raise RingError("noise_bound is meaningless for Zm")
        elif self.kind == "Z":
            if self.modulus is not None:
                raise RingError("Z takes no modulus")
            if self.noise_bound is None or self.noise_bound < 1:
                raise RingError("Z needs a noise_bound >= 1")
        else:
            raise RingError(f"unknown ring kind {self.kind!r}")
        object.__setattr__(self, "modular", self.kind == "Zm")

    def normalize(self, v: int) -> int:
        return v % self.modulus if self.modular else v

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.modulus if self.modular else a + b

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.modulus if self.modular else a - b

    def neg(self, a: int) -> int:
        return -a % self.modulus if self.modular else -a

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.modulus if self.modular else a * b

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise RingError("exponent must be >= 0")
        if self.modular:
            return pow(a, e, self.modulus)
        return a**e

    def is_unit(self, a: int) -> bool:
        """True if ``a`` is a legal divisor: a unit mod m, nonzero over Z."""
        if self.modular:
            return math.gcd(self.normalize(a), self.modulus) == 1
        return a != 0

    def exact_div(self, r: int, a: int) -> int:
        """Return the unique x with a*x = r.

        Raises RingError when no such x is recoverable: a = 0, a not a
        unit mod m, or r not divisible by a over Z (which signals a
        corrupted protocol value rather than a caller bug).
        """
        if self.modular:
            a = self.normalize(a)
            if not self.is_unit(a):
                raise RingError(f"{a} is not a unit modulo {self.modulus}")
            return (r * pow(a, -1, self.modulus)) % self.modulus
        if a == 0:
            raise RingError("division by zero")
        if r % a != 0:
            raise RingError(f"{r} is not divisible by {a}: corrupted value")
        return r // a

    def noise_domain(self, require_unit: bool = False) -> int:
        """Size of the candidate set one noise draw indexes: its ``randrange`` bound."""
        if self.modular:
            if require_unit:
                _, rad, phi_rad = _unit_basis(self.modulus)
                return self.modulus // rad * phi_rad
            return self.modulus
        return 2 * self.noise_bound if require_unit else 2 * self.noise_bound + 1

    def noise_at(self, index: int, require_unit: bool = False) -> int:
        """The noise element that draw ``index`` in ``range(noise_domain(require_unit))`` selects.

        The candidates are indexed in ascending order: the residues of Zm or
        its units, [-b, b] over Z, or [-b, b] without 0 for a unit draw.
        """
        if self.modular:
            return _unit(self.modulus, index) if require_unit else index
        b = self.noise_bound
        if require_unit and index >= b:  # nonzero values of [-b, b]
            return index - b + 1
        return index - b

    def elements(self) -> range:
        """Enumerable element domain (modular rings only)."""
        if not self.modular:
            raise RingError("the integers are not enumerable")
        return range(self.modulus)

    def units(self) -> tuple[int, ...]:
        """Every unit of Z_m in ascending order: the candidates of a unit draw, in index order."""
        if not self.modular:
            raise RingError("over Z every nonzero element is a legal divisor")
        return tuple(_unit(self.modulus, i) for i in range(self.noise_domain(True)))

    def to_config(self) -> dict:
        if self.modular:
            return {"ring": "Zm", "m": self.modulus}
        return {"ring": "Z", "noise_bound": self.noise_bound}

    @classmethod
    def from_config(cls, cfg: dict) -> "RingSpec":
        if cfg.get("ring") == "Zm":
            return mod_ring(json_field(cfg, "m"))
        if cfg.get("ring") == "Z":
            return integers(json_field(cfg, "noise_bound", default=DEFAULT_NOISE_BOUND))
        raise RingError(f"bad ring config {cfg!r}")

    def __str__(self):
        return f"Z_{self.modulus}" if self.modular else "Z"


DEFAULT_NOISE_BOUND = 10**6


def pure(fn):
    """Mark ``fn(ring, *values)`` as a function of the ring and its values alone.

    A secrecy check may then trace a program that calls it even though
    ``fn`` branches on a value: given a ring that is not a ``RingSpec``,
    the traced ring of ``ringmpc.tracer``, the call is recorded as
    ``ring.call(fn, values)``, and the compiled check calls ``fn`` with
    numbers and the real ring.
    """

    @wraps(fn)
    def marked(ring, *values):
        if isinstance(ring, RingSpec):
            return fn(ring, *values)
        return ring.call(fn, values)

    return marked


def integers(noise_bound: int = DEFAULT_NOISE_BOUND) -> RingSpec:
    """The ring of integers with bounded uniform noise."""
    return RingSpec("Z", noise_bound=noise_bound)


def mod_ring(m: int) -> RingSpec:
    """The ring of integers modulo m, elements canonical in 0..m-1."""
    return RingSpec("Zm", modulus=m)
