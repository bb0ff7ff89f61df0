"""Element monoids for word operads.

Three monoids cover everything the library needs: the naturals under
addition, the naturals modulo some l under addition, and {0, 1} under
multiplication.  Elements are canonical nonnegative ints so that words of
elements hash and compare fast.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

_KINDS = ("N", "NL", "B01")


class CarrierError(ValueError):
    """An integer lies outside the carrier of a monoid."""


@dataclass(frozen=True)
class Monoid:
    """A commutative monoid on a set of nonnegative integers.

    kind is "N" (all naturals, +), "NL" (naturals mod `modulus`, +) or
    "B01" ({0, 1}, *).
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown monoid kind {self.kind!r}")
        if self.kind == "NL":
            if self.modulus is None or self.modulus < 1:
                raise ValueError("cyclic monoid needs a positive modulus")
        elif self.modulus is not None:
            raise ValueError(f"monoid kind {self.kind!r} takes no modulus")

    @property
    def name(self) -> str:
        return f"N{self.modulus}" if self.kind == "NL" else self.kind

    @property
    def unit(self) -> int:
        return 1 if self.kind == "B01" else 0

    @property
    def is_finite(self) -> bool:
        return self.kind != "N"

    def contains(self, a: int) -> bool:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            return False
        if self.kind == "N":
            return True
        if self.kind == "NL":
            return a < self.modulus
        return a <= 1

    def check(self, a: int) -> int:
        if not self.contains(a):
            raise CarrierError(f"{a!r} is not an element of {self.name}")
        return a

    def elements(self) -> range:
        """Carrier of a finite monoid, in canonical order."""
        if self.kind == "NL":
            return range(self.modulus)
        if self.kind == "B01":
            return range(2)
        raise ValueError("the additive naturals are infinite")

    @property
    def op(self) -> Callable[[int, int], int]:
        """The raw product on canonical ints, without carrier checks.

        Hoist this into a local before a hot loop.
        """
        if self.kind == "N":
            return operator.add
        if self.kind == "B01":
            return operator.mul
        l = self.modulus
        return lambda a, b: (a + b) % l

    def combine(self, a: int, b: int) -> int:
        """Product of two carrier elements, in canonical form."""
        return self.op(self.check(a), self.check(b))

    def __str__(self) -> str:
        return self.name


NATURALS = Monoid("N")
BOOLEAN = Monoid("B01")


def cyclic(modulus: int) -> Monoid:
    return Monoid("NL", modulus)


def parse_monoid(name: str) -> Monoid:
    """Parse a config name: "N", "B01", or "N<l>" such as "N2", "N3"."""
    if name == "N":
        return NATURALS
    if name == "B01":
        return BOOLEAN
    if name.startswith("N") and name[1:].isdigit():
        return cyclic(int(name[1:]))
    raise ValueError(f"unknown monoid name {name!r}")


@dataclass(frozen=True)
class Morphism:
    """A monoid morphism between element monoids, given by its map on
    carrier elements."""

    source: Monoid
    target: Monoid
    map: Callable[[int], int]

    def __call__(self, a: int) -> int:
        return self.map(self.source.check(a))


def identity_morphism(m: Monoid) -> Morphism:
    return Morphism(m, m, lambda a: a)


def reduce_mod(modulus: int) -> Morphism:
    """The surjection from the additive naturals onto the naturals mod `modulus`."""
    return Morphism(NATURALS, cyclic(modulus), lambda a: a % modulus)


def compose_morphisms(outer: Morphism, inner: Morphism) -> Morphism:
    if inner.target != outer.source:
        raise ValueError(
            f"cannot compose: inner targets {inner.target.name}, "
            f"outer starts from {outer.source.name}"
        )
    return Morphism(inner.source, outer.target, lambda a: outer.map(inner.map(a)))
