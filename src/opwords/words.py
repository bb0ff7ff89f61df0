"""The operad of words over a monoid.

A word of arity n is a nonempty tuple of n monoid elements.  Substituting y
at position i of x splices y into x, multiplying every letter of y by the
letter it replaces.  Permutations act by rearranging letters, and a monoid
morphism lifts to words letterwise.  `check_axioms` verifies the operad laws
exhaustively on small domains.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .monoids import Monoid, Morphism

Letters = tuple[int, ...]
Perm = tuple[int, ...]  # one-line notation, a rearrangement of 1..n


class PositionError(IndexError):
    """A substitution or lookup position is outside 1..arity."""


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

    @property
    def arity(self) -> int:
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


def unit_word(m: Monoid) -> Word:
    """The one-letter word holding the monoid unit."""
    return Word(m, (m.unit,))


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
    return range(letter_cap + 1) if not m.is_finite else m.elements()


def words_up_to(m: Monoid, max_arity: int, letter_cap: int = 3) -> list[Letters]:
    alphabet = letter_range(m, letter_cap)
    out: list[Letters] = []
    for n in range(1, max_arity + 1):
        out.extend(itertools.product(alphabet, repeat=n))
    return out


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
    a pure function of its arguments.

    Each law runs over every operand tuple in a fixed loop order.  Its
    innermost loop is compared as one row of left sides against one row of
    right sides, with each distinct substitution computed once
    (`_Substitutions`).  Only a failing row is scanned for its first failing
    index, so `checked` and the counterexample are those of checking one
    tuple at a time.
    """
    op = m.op
    if subst is None:
        def subst(x: Letters, i: int, y: Letters) -> Letters:
            return splice(x, i, y, op)

    ax, ay, az = max_arities
    xs = words_up_to(m, ax, letter_cap)
    ys = tuple(words_up_to(m, ay, letter_cap))
    zs = tuple(words_up_to(m, az, letter_cap))
    memo = _Substitutions(subst)
    reports = [
        _check_series(memo, xs, ys, zs),
        _check_parallel(memo, xs, ys, zs),
        _check_unit(subst, m, xs),
        _check_equivariance(memo, xs, ys),
    ]
    return reports


# Distinct substitution results held before every memo is cleared.  The
# finite monoids never reach it at arity 3; over N it bounds memory.
_MEMO_CAP = 1 << 15


class _Substitutions:
    """`subst` memoised, with equal results shared as one tuple so that rows
    of them compare mostly by identity.

    Rows over a fixed sequence are kept per (w, i); `apply` keeps w o_i v
    per (w, i, v) for arguments that do not come as a fixed sequence.
    """

    def __init__(self, subst: Callable[[Letters, int, Letters], Letters]) -> None:
        self.subst = subst
        self.shared: dict[Letters, Letters] = {}
        self.rows: dict[tuple, dict[tuple[Letters, int], tuple]] = {}
        self.slots: dict[tuple[Letters, int], dict[Letters, Letters]] = {}
        self.blocks: dict[tuple[Perm, int, int], tuple[tuple[int, ...], ...]] = {}

    def _make_room(self) -> None:
        # clear in place: the functions returned by `over` hold their tables
        if len(self.shared) >= _MEMO_CAP:
            self.shared.clear()
            self.slots.clear()
            self.blocks.clear()
            for table in self.rows.values():
                table.clear()

    def over(self, vs: tuple) -> Callable[[Letters, int], tuple]:
        """The function (w, i) -> (w o_i v for v in vs), memoised per (w, i)."""
        table = self.rows.setdefault(vs, {})
        subst, share = self.subst, self.shared.setdefault

        def row(w: Letters, i: int) -> tuple:
            found = table.get((w, i))
            if found is None:
                self._make_room()
                results = [subst(w, i, v) for v in vs]
                found = table[(w, i)] = tuple(map(share, results, results))
            return found

        return row

    def apply(self, w: Letters, i: int, vs: Sequence[Letters]) -> tuple:
        """(w o_i v for v in vs), memoised per (w, i, v)."""
        slot = self.slots.get((w, i))
        if slot is not None:
            try:
                return tuple(map(slot.__getitem__, vs))
            except KeyError:
                pass
        self._make_room()
        slot = self.slots.setdefault((w, i), {})
        subst, share = self.subst, self.shared.setdefault
        for v in vs:
            if v not in slot:
                r = subst(w, i, v)
                slot[v] = share(r, r)
        return tuple(map(slot.__getitem__, vs))

    def block_indices(self, sigma: Perm, i: int, m: int) -> tuple[tuple[int, ...], ...]:
        """0-based B_i(sigma, nu) for each nu of degree m, in `all_perms` order."""
        key = (sigma, i, m)
        found = self.blocks.get(key)
        if found is None:
            found = self.blocks[key] = tuple(
                tuple(j - 1 for j in block_substitute(sigma, i, nu))
                for nu in all_perms(m)
            )
        return found


def _first_difference(lhs: tuple, rhs: tuple) -> int:
    return next(k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def _check_series(memo: _Substitutions, xs, ys, zs) -> AxiomReport:
    # (x o_i y) o_{i+j-1} z == x o_i (y o_j z), a row over z
    checked = 0
    row_y, row_z = memo.over(ys), memo.over(zs)
    for x in xs:
        for i in range(1, len(x) + 1):
            for y, xy in zip(ys, row_y(x, i)):
                for j in range(1, len(y) + 1):
                    lhs = row_z(xy, i + j - 1)
                    rhs = memo.apply(x, i, row_z(y, j))
                    if lhs != rhs:
                        k = _first_difference(lhs, rhs)
                        return AxiomReport(
                            "series-associativity", checked + k + 1, (x, i, y, j, zs[k])
                        )
                    checked += len(zs)
    return AxiomReport("series-associativity", checked)


def _check_parallel(memo: _Substitutions, xs, ys, zs) -> AxiomReport:
    # (x o_i y) o_{j+|y|-1} z == (x o_j z) o_i y  for i < j, a row over y
    checked = 0
    row_y, row_z = memo.over(ys), memo.over(zs)
    for x in xs:
        n = len(x)
        for i in range(1, n):
            xys = row_y(x, i)
            for j in range(i + 1, n + 1):
                # column k holds (x o_i y_k) o_{j+|y_k|-1} z over every z
                columns = [row_z(xy, j + len(y) - 1) for xy, y in zip(xys, ys)]
                for z, xz, lhs in zip(zs, row_z(x, j), zip(*columns)):
                    rhs = row_y(xz, i)
                    if lhs != rhs:
                        k = _first_difference(lhs, rhs)
                        return AxiomReport(
                            "parallel-associativity", checked + k + 1, (x, i, ys[k], j, z)
                        )
                    checked += len(ys)
    return AxiomReport("parallel-associativity", checked)


def _check_unit(subst, m: Monoid, xs) -> AxiomReport:
    one = (m.unit,)
    checked = 0
    for x in xs:
        checked += 1
        if subst(one, 1, x) != x:
            return AxiomReport("unit", checked, ("left", x))
        for i in range(1, len(x) + 1):
            checked += 1
            if subst(x, i, one) != x:
                return AxiomReport("unit", checked, ("right", x, i))
    return AxiomReport("unit", checked)


def _check_equivariance(memo: _Substitutions, xs, ys) -> AxiomReport:
    # (x.sigma) o_i (y.nu) == (x o_{sigma_i} y) . B_i(sigma, nu), a row over nu
    checked = 0
    row_y = memo.over(ys)
    for k_y, y in enumerate(ys):
        m = len(y)
        nus = tuple(all_perms(m))
        row_acted = memo.over(tuple(permute(y, nu) for nu in nus))
        for x in xs:
            n = len(x)
            plains = [row_y(x, p)[k_y] for p in range(1, n + 1)]
            for sigma in all_perms(n):
                x_acted = permute(x, sigma)
                for i in range(1, n + 1):
                    lhs = row_acted(x_acted, i)
                    plain = plains[sigma[i - 1] - 1]
                    rhs = tuple([
                        tuple(map(plain.__getitem__, block))
                        for block in memo.block_indices(sigma, i, m)
                    ])
                    if lhs != rhs:
                        k = _first_difference(lhs, rhs)
                        return AxiomReport(
                            "equivariance", checked + k + 1, (x, sigma, i, y, nus[k])
                        )
                    checked += len(nus)
    return AxiomReport("equivariance", checked)
