"""The operad of words over a monoid.

A word of arity n is a nonempty tuple of n monoid elements.  Substituting y
at position i of x splices y into x, multiplying every letter of y by the
letter it replaces.  Permutations act by rearranging letters, and a monoid
morphism lifts to words letterwise.  `check_axioms` verifies the operad laws
exhaustively on small domains.  It packs each word as `bytes`, one letter
per byte, and substitutes by slices and `bytes.translate`, so a compared
word holding a letter above 255 is refused.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .monoids import Monoid, Morphism

Letters = tuple[int, ...]
Perm = tuple[int, ...]  # one-line notation, a rearrangement of 1..n


class PositionError(IndexError):
    """A substitution or lookup position is outside 1..arity."""


class NotAMemberError(ValueError):
    """A word does not belong to the family required by a converter."""


class MonoidMismatchError(ValueError):
    """Two operands live over different monoids."""


@dataclass(frozen=True)
class Word:
    """A nonempty word of monoid elements; the arity is the length."""

    monoid: Monoid
    letters: Letters

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("words are nonempty")
        for a in self.letters:
            self.monoid.check(a)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_letters(self.letters)

    def to_record(self) -> str:
        """One JSONL record: {"monoid": ..., "letters": [...]}."""
        return json.dumps(
            {"monoid": self.monoid.name, "letters": list(self.letters)},
            separators=(", ", ": "),
        )


def format_letters(letters: Sequence[int]) -> str:
    """Digits run together while every letter fits one digit, else comma-separated."""
    if all(a <= 9 for a in letters):
        return "".join(str(a) for a in letters)
    return ",".join(str(a) for a in letters)


def parse_letters(text: str) -> Letters:
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)


def word(m: Monoid, source: str | Iterable[int]) -> Word:
    """Build a word from "0112"-style text or any iterable of letters."""
    letters = parse_letters(source) if isinstance(source, str) else tuple(source)
    return Word(m, letters)


def splice(x: Letters, i: int, y: Letters, op: Callable[[int, int], int]) -> Letters:
    """Raw substitution on letter tuples: y replaces slot i, scaled by x[i-1]."""
    return x[: i - 1] + tuple(map(op, itertools.repeat(x[i - 1]), y)) + x[i:]


def substitute(x: Word, i: int, y: Word) -> Word:
    """Substitute y at position i of x; the result has arity |x| + |y| - 1."""
    if x.monoid != y.monoid:
        raise MonoidMismatchError(f"{x.monoid.name} vs {y.monoid.name}")
    if not 1 <= i <= len(x):
        raise PositionError(f"position {i} not in 1..{len(x)}")
    return Word(x.monoid, splice(x.letters, i, y.letters, x.monoid.op))


# ---------------------------------------------------------------------------
# permutations


def is_permutation(sigma: Sequence[int]) -> bool:
    return sorted(sigma) == list(range(1, len(sigma) + 1))


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose_perms(sigma: Perm, tau: Perm) -> Perm:
    """(sigma . tau)_j = sigma_{tau_j}, so acting by the composite equals
    acting by sigma first and tau second."""
    return tuple(sigma[t - 1] for t in tau)


def inverse_perm(sigma: Perm) -> Perm:
    inv = [0] * len(sigma)
    for j, s in enumerate(sigma, start=1):
        inv[s - 1] = j
    return tuple(inv)


def all_perms(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(1, n + 1))


def permute(letters: Letters, sigma: Perm) -> Letters:
    """Raw action on letter tuples: letter j of the result is letter sigma_j."""
    return tuple(letters[j - 1] for j in sigma)


def act(x: Word, sigma: Perm) -> Word:
    """Right action of a degree-|x| permutation on the letters of x."""
    if len(sigma) != len(x):
        raise ValueError(f"degree {len(sigma)} does not match arity {len(x)}")
    if not is_permutation(sigma):
        raise ValueError(f"{sigma!r} is not a permutation in one-line notation")
    return Word(x.monoid, permute(x.letters, sigma))


def block_substitute(sigma: Perm, i: int, nu: Perm) -> Perm:
    """Substitute nu into slot i of sigma, on one-line notation.

    Values of sigma at least sigma_i shift up by deg(nu) - 1 to make room,
    and nu lands in the gap shifted up by sigma_i - 1.  This is the unique
    rule making the action and substitution compatible.
    """
    n, m = len(sigma), len(nu)
    if not 1 <= i <= n:
        raise PositionError(f"position {i} not in 1..{n}")
    si = sigma[i - 1]
    shifted = tuple(s if s < si else s + m - 1 for s in sigma)
    block = tuple(v + si - 1 for v in nu)
    return shifted[: i - 1] + block + shifted[i:]


def lift_morphism(theta: Morphism, x: Word) -> Word:
    """Apply a monoid morphism to every letter; arity is preserved."""
    if x.monoid != theta.source:
        raise MonoidMismatchError(
            f"word over {x.monoid.name}, morphism from {theta.source.name}"
        )
    return Word(theta.target, tuple(theta(a) for a in x.letters))


# ---------------------------------------------------------------------------
# axiom checking


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one exhaustively checked law."""

    axiom: str
    checked: int
    counterexample: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def __str__(self) -> str:
        if self.ok:
            return f"{self.axiom}: ok ({self.checked} checks)"
        return f"{self.axiom}: FAILED at {self.counterexample!r}"


def letter_range(m: Monoid, letter_cap: int) -> range:
    """Letters enumerated for exhaustive checks; the infinite monoid is capped."""
    if letter_cap < 0:
        raise ValueError(f"letter cap {letter_cap} is negative")
    return range(letter_cap + 1) if not m.is_finite else m.elements()


def words_up_to(m: Monoid, max_arity: int, letter_cap: int = 3) -> list[Letters]:
    alphabet = letter_range(m, letter_cap)
    out: list[Letters] = []
    for n in range(1, max_arity + 1):
        out.extend(itertools.product(alphabet, repeat=n))
    return out


# the most checks `check_axioms` may make; N at arity 3 makes 6.3 * 10^6
MAX_CHECKS = 10**7


def axiom_check_count(
    m: Monoid, max_arities: tuple[int, int, int] = (3, 3, 3), letter_cap: int = 3
) -> int:
    """The checks `check_axioms` makes when every law holds, from the sizes
    of its operand lists alone: series, parallel, unit and equivariance."""
    size = len(letter_range(m, letter_cap))

    def over(bound: int, weight: Callable[[int], int] = lambda n: 1) -> int:
        # weight(|w|) summed over the words w of arity 1..bound
        return sum(weight(n) * size**n for n in range(1, bound + 1))

    ax, ay, az = max_arities
    sx = over(ax, lambda n: n)
    return (
        sx * over(ay, lambda n: n) * over(az)
        + over(ax, lambda n: math.comb(n, 2)) * over(ay) * over(az)
        + over(ax) + sx
        + over(ax, lambda n: math.factorial(n) * n) * over(ay, math.factorial)
    )


def check_axioms(
    m: Monoid,
    max_arities: tuple[int, int, int] = (3, 3, 3),
    letter_cap: int = 3,
    subst: Callable[[Letters, int, Letters], Letters] | None = None,
) -> list[AxiomReport]:
    """Exhaustively check the four operad laws over small words.

    max_arities bounds the arities of the three operands (two for the laws
    that take two).  `subst` replaces the substitution under test, which lets
    a corrupted version be fed in to prove the checker catches it; it must be
    a pure function of its arguments, taking and returning letter tuples.
    More than `MAX_CHECKS` checks, or a compared word that may hold a letter
    above 255, are refused with `ValueError` before any substitution.

    The words are packed as `bytes`, one letter per byte, and every
    substitution goes through one row kernel (`_splice_rows`): w o_i v for
    each v of a row is w[:i-1] + v.translate(T[w_i]) + w[i:], where T[a] is
    a 256-byte table multiplying by a.  A `subst` is called on tuples and
    its result packed.  Each law runs over every operand tuple in a fixed
    loop order.  Its innermost loop is compared as one row of left sides
    against one row of right sides, memoised by `_rows`.  Only a failing row
    is scanned for its first failing index, so `checked` and the
    counterexample, unpacked to tuples, are those of checking one tuple at a
    time.
    """
    count = axiom_check_count(m, max_arities, letter_cap)
    if count > MAX_CHECKS:
        raise ValueError(f"{count} axiom checks, over the cap of {MAX_CHECKS}")
    # a compared word holds products of up to three letters; over N, sums
    top = letter_range(m, letter_cap)[-1] * (1 if m.is_finite else 3)
    if top > 255:
        raise ValueError(
            f"letter {top} over {m.name} is above 255 and cannot be packed "
            "into an axiom-check word"
        )
    xs, ys, zs = (tuple(map(bytes, words_up_to(m, a, letter_cap))) for a in max_arities)
    splice_row = _splice_rows(m, top, subst)
    row = _rows(splice_row)
    return [
        _check_series(row, splice_row, xs, ys, zs),
        _check_parallel(row, xs, ys, zs),
        _check_unit(splice_row, bytes([m.unit]), xs),
        _check_equivariance(row, xs, ys),
    ]


def _splice_rows(
    m: Monoid, top: int, subst: Callable[[Letters, int, Letters], Letters] | None
) -> Callable[[bytes, int, Sequence[bytes]], list[bytes]]:
    """The row kernel (w, i, vs) -> [w o_i v for v in vs] on packed words
    whose letters are at most `top`.

    By default w o_i v is w[:i-1] + v.translate(T[w_i]) + w[i:], where T[a]
    is a 256-byte table multiplying by a; each vs is translated once per
    letter a.  A `subst` is called on tuples instead and its results packed.
    """
    if subst is not None:
        def splice_row(w: bytes, i: int, vs: Sequence[bytes]) -> list[bytes]:
            x = tuple(w)
            return [bytes(subst(x, i, tuple(v))) for v in vs]

        return splice_row

    op = m.op
    # T[a][b] is the product of a and b; entries past `top` are never read
    tables = [bytes([op(a, b) & 255 for b in range(256)]) for a in range(top + 1)]
    # scaled[(id(vs), a)] holds vs and each v of it multiplied by a
    scaled: dict[tuple[int, int], tuple[Sequence[bytes], list[bytes]]] = {}

    def splice_row(w: bytes, i: int, vs: Sequence[bytes]) -> list[bytes]:
        a = w[i - 1]
        entry = scaled.get((id(vs), a))
        if entry is None:
            t = tables[a]
            entry = scaled[id(vs), a] = (vs, [v.translate(t) for v in vs])
        head, tail = w[: i - 1], w[i:]
        return [head + v + tail for v in entry[1]]

    return splice_row


# Substitution results held in memoised rows before the memo is cleared;
# N3 and N reach it at arity 3, and it bounds their memory.
_MEMO_CAP = 1 << 15


def _rows(splice_row: Callable[[bytes, int, Sequence[bytes]], list[bytes]]) -> Callable:
    """The row kernel memoised: (w, i, vs) -> (w o_i v for v in vs) as a
    tuple.  Rows are keyed by id(vs), and each entry holds its vs so that
    the id cannot be reused while the entry lives."""
    rows: dict[tuple[bytes, int, int], tuple[Sequence[bytes], tuple[bytes, ...]]] = {}
    held = 0

    def row(w: bytes, i: int, vs: Sequence[bytes]) -> tuple[bytes, ...]:
        nonlocal held
        key = (w, i, id(vs))
        entry = rows.get(key)
        if entry is None:
            if held >= _MEMO_CAP:
                rows.clear()
                held = 0
            held += len(vs)
            entry = rows[key] = (vs, tuple(splice_row(w, i, vs)))
        return entry[1]

    return row


def _failed(axiom: str, checked: int, *operands) -> AxiomReport:
    """A failing report, with packed words given back as letter tuples."""
    unpacked = tuple(tuple(v) if isinstance(v, bytes) else v for v in operands)
    return AxiomReport(axiom, checked, unpacked)


def _first_difference(lhs: tuple, rhs: tuple) -> int:
    return next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def _check_series(row, splice_row, xs, ys, zs) -> AxiomReport:
    # (x o_i y) o_{i+j-1} z == x o_i (y o_j z), a row over z
    # the right side takes x o_i v once for each distinct v = y o_j z, and
    # picks[(y, j)] holds the index into vs of each y o_j z in its row
    index: dict[bytes, int] = {}
    picks = {
        (y, j): tuple([index.setdefault(v, len(index)) for v in row(y, j, zs)])
        for y in ys for j in range(1, len(y) + 1)
    }
    vs = tuple(index)
    checked = 0
    for x in xs:
        for i in range(1, len(x) + 1):
            outer = splice_row(x, i, vs)
            for y, xy in zip(ys, row(x, i, ys)):
                for j in range(1, len(y) + 1):
                    lhs = row(xy, i + j - 1, zs)
                    rhs = tuple(map(outer.__getitem__, picks[(y, j)]))
                    if lhs != rhs:
                        k = _first_difference(lhs, rhs)
                        return _failed(
                            "series-associativity", checked + k + 1, x, i, y, j, zs[k]
                        )
                    checked += len(zs)
    return AxiomReport("series-associativity", checked)


def _check_parallel(row, xs, ys, zs) -> AxiomReport:
    # (x o_i y) o_{j+|y|-1} z == (x o_j z) o_i y  for i < j, a row over y
    checked = 0
    for x in xs:
        n = len(x)
        for i in range(1, n):
            xys = row(x, i, ys)
            for j in range(i + 1, n + 1):
                # column k holds (x o_i y_k) o_{j+|y_k|-1} z over every z
                columns = [row(xy, j + len(y) - 1, zs) for xy, y in zip(xys, ys)]
                for z, xz, lhs in zip(zs, row(x, j, zs), zip(*columns)):
                    rhs = row(xz, i, ys)
                    if lhs != rhs:
                        k = _first_difference(lhs, rhs)
                        return _failed(
                            "parallel-associativity", checked + k + 1, x, i, ys[k], j, z
                        )
                    checked += len(ys)
    return AxiomReport("parallel-associativity", checked)


def _check_unit(splice_row, one: bytes, xs) -> AxiomReport:
    ones = (one,)
    checked = 0
    for x, left in zip(xs, splice_row(one, 1, xs)):
        checked += 1
        if left != x:
            return _failed("unit", checked, "left", x)
        for i in range(1, len(x) + 1):
            checked += 1
            if splice_row(x, i, ones)[0] != x:
                return _failed("unit", checked, "right", x, i)
    return AxiomReport("unit", checked)


def _check_equivariance(row, xs, ys) -> AxiomReport:
    # (x.sigma) o_i (y.nu) == (x o_{sigma_i} y) . B_i(sigma, nu), a row over nu
    # B_i(sigma, nu) keeps the letters outside the block of y in an order set
    # by (sigma, i) alone and permutes the block by nu, so the right side is
    # head + q + tail over the rearrangements q of the block

    @functools.cache
    def rearranged(w: bytes) -> tuple[bytes, ...]:
        # w acted on by each permutation, in `all_perms` order
        return tuple(bytes(permute(w, nu)) for nu in all_perms(len(w)))

    @functools.cache
    def layout(n: int, m: int) -> tuple[tuple[Perm, tuple], ...]:
        # for each sigma of degree n and each slot i: the 0-based places in
        # x o_{sigma_i} y of the letters outside the block, and its start
        spots = []
        for sigma in all_perms(n):
            slots = []
            for i, si in enumerate(sigma, start=1):
                outside = [s - 1 if s < si else s + m - 2 for s in sigma]
                del outside[i - 1]
                slots.append((outside, si - 1))
            spots.append((sigma, tuple(slots)))
        return tuple(spots)

    checked = 0
    for k_y, y in enumerate(ys):
        m = len(y)
        nus = tuple(all_perms(m))
        acted = rearranged(y)
        for x in xs:
            n = len(x)
            plains = [row(x, p, ys)[k_y] for p in range(1, n + 1)]
            blocks = [rearranged(plain[s : s + m]) for s, plain in enumerate(plains)]
            for (sigma, slots), x_acted in zip(layout(n, m), rearranged(x)):
                for i, (outside_at, s) in enumerate(slots, start=1):
                    lhs = row(x_acted, i, acted)
                    outside = bytes(map(plains[s].__getitem__, outside_at))
                    head, tail = outside[: i - 1], outside[i - 1 :]
                    rhs = tuple([head + q + tail for q in blocks[s]])
                    if lhs != rhs:
                        k = _first_difference(lhs, rhs)
                        return _failed("equivariance", checked + k + 1, x, sigma, i, y, nus[k])
                    checked += len(nus)
    return AxiomReport("equivariance", checked)
