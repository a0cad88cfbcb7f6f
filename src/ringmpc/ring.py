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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import RingError


@lru_cache(maxsize=None)
def _units(m: int) -> tuple[int, ...]:
    return tuple(v for v in range(m) if math.gcd(v, m) == 1)


@dataclass(frozen=True)
class RingSpec:
    """Descriptor of the ambient ring for a protocol run.

    kind "Z": arbitrary-precision integers, noise drawn uniformly from
    [-noise_bound, noise_bound].  kind "Zm": integers modulo ``modulus``.
    """

    kind: str
    modulus: int | None = None
    noise_bound: int | None = None

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

    @property
    def modular(self) -> bool:
        return self.kind == "Zm"

    def normalize(self, v: int) -> int:
        return v % self.modulus if self.modular else v

    def add(self, a: int, b: int) -> int:
        return self.normalize(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.normalize(a - b)

    def neg(self, a: int) -> int:
        return self.normalize(-a)

    def mul(self, a: int, b: int) -> int:
        return self.normalize(a * b)

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
            return len(self.units()) if require_unit else self.modulus
        return 2 * self.noise_bound if require_unit else 2 * self.noise_bound + 1

    def sample_noise(self, source, require_unit: bool = False) -> int:
        """Draw one noise element from ``source``.

        ``source`` needs a ``randrange(n)`` method (``random.Random``
        qualifies, as does the scripted source used for exhaustive
        enumeration).  Exactly one ``randrange(noise_domain(...))`` call
        is made per sample, drawn over the candidate set directly, so an
        enumerator can cover the noise space by indexing it.
        """
        idx = source.randrange(self.noise_domain(require_unit))
        if self.modular:
            return _units(self.modulus)[idx] if require_unit else idx
        b = self.noise_bound
        if require_unit:  # nonzero values of [-b, b]
            return idx - b if idx < b else idx - b + 1
        return idx - b

    def elements(self) -> range:
        """Enumerable element domain (modular rings only)."""
        if not self.modular:
            raise RingError("the integers are not enumerable")
        return range(self.modulus)

    def units(self) -> tuple[int, ...]:
        if not self.modular:
            raise RingError("over Z every nonzero element is a legal divisor")
        return _units(self.modulus)

    def to_config(self) -> dict:
        if self.modular:
            return {"ring": "Zm", "m": self.modulus}
        return {"ring": "Z", "noise_bound": self.noise_bound}

    @classmethod
    def from_config(cls, cfg: dict) -> "RingSpec":
        if cfg.get("ring") == "Zm":
            return mod_ring(int(cfg["m"]))
        if cfg.get("ring") == "Z":
            return integers(int(cfg.get("noise_bound", DEFAULT_NOISE_BOUND)))
        raise RingError(f"bad ring config {cfg!r}")

    def __str__(self):
        return f"Z_{self.modulus}" if self.modular else "Z"


DEFAULT_NOISE_BOUND = 10**6


def integers(noise_bound: int = DEFAULT_NOISE_BOUND) -> RingSpec:
    """The ring of integers with bounded uniform noise."""
    return RingSpec("Z", noise_bound=noise_bound)


def mod_ring(m: int) -> RingSpec:
    """The ring of integers modulo m, elements canonical in 0..m-1."""
    return RingSpec("Zm", modulus=m)
