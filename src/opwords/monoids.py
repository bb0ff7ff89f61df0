"""Element monoids for word operads.

Three monoids cover everything the library needs: the naturals under
addition, the naturals modulo some l under addition, and {0, 1} under
multiplication.  Elements are canonical nonnegative ints so that words of
elements hash and compare fast.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable


class CarrierError(ValueError):
    """An integer lies outside the carrier of a monoid."""


@dataclass(frozen=True)
class Monoid:
    """A monoid on a set of nonnegative integers: the carrier is 0..size-1,
    or all naturals when `size` is None, and `op` is the raw product on
    canonical ints, without carrier checks.  `op` must be total on 0..255,
    since the closure and the axiom checker tabulate it over every byte.

    Two monoids are equal when their name, unit and size are.
    """

    name: str
    unit: int
    size: int | None
    op: Callable[[int, int], int] = field(compare=False, repr=False)

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def contains(self, a: int) -> bool:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            return False
        return self.size is None or a < self.size

    def check(self, a: int) -> int:
        if not self.contains(a):
            raise CarrierError(f"{a!r} is not an element of {self.name}")
        return a

    def elements(self) -> range:
        """Carrier of a finite monoid, in canonical order."""
        if self.size is None:
            raise ValueError("the additive naturals are infinite")
        return range(self.size)

    def combine(self, a: int, b: int) -> int:
        """Product of two carrier elements, in canonical form."""
        return self.op(self.check(a), self.check(b))

    def __str__(self) -> str:
        return self.name


NATURALS = Monoid("N", 0, None, operator.add)
BOOLEAN = Monoid("B01", 1, 2, operator.mul)


def cyclic(l: int) -> Monoid:
    """The naturals mod l under addition."""
    if l < 1:
        raise ValueError("cyclic monoid needs a positive modulus")
    return Monoid(f"N{l}", 0, l, lambda a, b: (a + b) % l)


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
