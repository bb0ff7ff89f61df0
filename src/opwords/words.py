"""The operad of words over a monoid.

A word of arity n is a nonempty tuple of n monoid elements.  Substituting y
at position i of x splices y into x, multiplying every letter of y by the
letter it replaces.  Permutations act by rearranging letters, and a monoid
morphism lifts to words letterwise.  `check_axioms` verifies the operad laws
exhaustively on small domains, a block of words at a time.  It packs the
words of one arity into one `bytes`, one letter per byte, and substitutes
every word of one block into every word of another by strided column copies
and `bytes.translate`, so a compared word holding a letter above 255 is
refused.  The closure lays its candidates through the same kernel
(`_kernel`).  Blocks only decide whether the laws hold; a failure is located
by checking one operand tuple at a time through one memoised substitution.
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
    """Outcome of one exhaustively checked law; one with no checks is not shown as ok."""

    axiom: str
    checked: int
    counterexample: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def __str__(self) -> str:
        if not self.checked:
            return f"{self.axiom}: nothing to check at these arities"
        if self.ok:
            return f"{self.axiom}: ok ({self.checked} checks)"
        return f"{self.axiom}: FAILED at {self.counterexample!r}"


def letter_range(m: Monoid, letter_cap: int) -> range:
    """Letters enumerated for exhaustive checks; the infinite monoid is capped."""
    if letter_cap < 0:
        raise ValueError(f"letter cap {letter_cap} is negative")
    return range(letter_cap + 1) if not m.is_finite else m.elements()


# the most checks `check_axioms` may make; N at arity 3 makes 6.3 * 10^6
MAX_CHECKS = 10**7


def axiom_check_count(
    m: Monoid, max_arities: tuple[int, int, int] = (3, 3, 3), letter_cap: int = 3
) -> int:
    """The checks `check_axioms` makes when every law holds, from the sizes
    of its operand lists alone: series, parallel, unit and equivariance.

    The words are counted an arity at a time, and counting stops once the
    count passes `MAX_CHECKS`, so the count is exact up to the cap and past
    it only some number above the cap, however large the bounds.
    """
    size = len(letter_range(m, letter_cap))
    ax, ay, az = max_arities
    # over the words w counted so far: the sums of |w|, C(|w|, 2), 1 and
    # |w|! |w| over x; of |w|, 1 and |w|! over y; and of 1 over z
    sx = cx = nx = fx = sy = ny = fy = nz = count = 0
    # past max(ax, ay) only z's sum moves, by size**n an arity; over one
    # letter that is one an arity, so those arities are added at once
    top = max(ax, ay) if size == 1 else max(max_arities)
    for n in range(1, top + 1):
        words = size**n
        if n <= ax:
            sx += n * words
            cx += math.comb(n, 2) * words
            nx += words
            fx += math.factorial(n) * n * words
        if n <= ay:
            sy += n * words
            ny += words
            fy += math.factorial(n) * words
        if n <= az:
            nz += words
        count = sx * sy * nz + cx * ny * nz + nx + sx + fx * fy
        if count > MAX_CHECKS:
            break
    return count + (sx * sy + cx * ny) * max(az - top, 0)


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
    a pure function of its arguments, taking and returning letter tuples,
    and a result whose arity is not |x| + |y| - 1 raises `ValueError`.  It is
    called once per distinct argument triple.
    More than `MAX_CHECKS` checks, or a compared word that may hold a letter
    above 255, are refused with `ValueError` before any substitution.

    The words of each arity are packed into one block, one letter per byte
    and one row per word, and every substitution of a block goes through one
    all-pairs kernel (`_kernel`): K(W, slots, V) is the block of w o_i v
    over every slot i of `slots` and every row w of W and v of V.  Each law
    runs over its operand tuples in a fixed loop order, outermost operand
    first, and is checked a group at a time, one group per arity of the
    outermost operand.  A group is decided a block of operand arities and
    slots at a time, its two sides built through K and compared as two
    `bytes`; each row of a block is one check, so a group whose blocks all
    agree adds their rows to `checked`.  The first group with a block that
    differs is checked again one operand tuple at a time, in loop order, so
    `checked` and the counterexample, as tuples, are those of checking one
    tuple at a time from the start.  Blocks that differ where no check of
    their group fails raise `RuntimeError`.
    """
    if axiom_check_count(m, max_arities, letter_cap) > MAX_CHECKS:
        raise ValueError(f"the axiom checks number over the cap of {MAX_CHECKS}")
    # a compared word holds products of up to three letters; over N, sums
    alphabet = letter_range(m, letter_cap)
    top = alphabet[-1] * (1 if m.is_finite else 3)
    if top > 255:
        raise ValueError(
            f"letter {top} over {m.name} is above 255 and cannot be packed "
            "into an axiom-check word"
        )
    sub = _substitution(m, subst)
    compose = _kernel(m, None if subst is None else sub)
    blocks = _Blocks(alphabet, max(max_arities))
    ax, ay, az = max_arities
    return [
        _law("series-associativity", _series(compose, sub, blocks, ax, ay, az)),
        _law("parallel-associativity", _parallel(compose, sub, blocks, ax, ay, az)),
        _law("unit", _unit(compose, sub, blocks, (m.unit,), ax)),
        _law("equivariance", _equivariance(compose, sub, blocks, ax, ay)),
    ]


def _substitution(
    m: Monoid, subst: Callable[[Letters, int, Letters], Letters] | None
) -> Callable[[Letters, int, Letters], Letters]:
    """`subst`, or splicing over m, memoised, with a result of the wrong
    arity refused."""
    op = m.op
    if subst is None:
        def subst(w: Letters, i: int, v: Letters) -> Letters:
            return splice(w, i, v, op)

    @functools.cache
    def substitution(w: Letters, i: int, v: Letters) -> Letters:
        got = tuple(subst(w, i, v))
        if len(got) != len(w) + len(v) - 1:
            raise ValueError(
                f"subst gave a word of arity {len(got)} for {w} o_{i} {v}, "
                f"not {len(w) + len(v) - 1}"
            )
        return got

    return substitution


Block = tuple[bytes, int]  # words of one arity, packed and joined; that arity


class _Blocks(dict):
    """`self[n]` is the block of every word of arity n over the alphabet, in
    lexicographic order, and `self.words[n]` those words as tuples."""

    def __init__(self, alphabet: Sequence[int], max_arity: int) -> None:
        self.words = {
            n: list(itertools.product(alphabet, repeat=n)) for n in range(1, max_arity + 1)
        }
        super().__init__((n, (b"".join(map(bytes, ws)), n)) for n, ws in self.words.items())

    def upto(self, n: int) -> list[Letters]:
        """The words of arity 1..n, by arity and then lexicographically."""
        return [w for k in range(1, n + 1) for w in self.words[k]]


class _Tables(dict):
    """`self[a]` is the 256-byte table of `op(a, c)` for each byte c in
    `carrier`, kept mod 256 and built whole when first read; a byte outside
    the carrier maps to 0, which the kernel never reads.  So `op` must be
    total on the carrier, or on 0..255 when the carrier is every byte."""

    def __init__(self, op: Callable[[int, int], int], carrier: range) -> None:
        self.op, self.carrier = op, carrier

    def __missing__(self, a: int) -> bytes:
        table = self[a] = bytes([self.op(a, b) & 255 for b in self.carrier]).ljust(256, b"\0")
        return table


def _kernel(
    m: Monoid, subst: Callable[[Letters, int, Letters], Letters] | None = None
) -> Callable[..., Block]:
    """The all-pairs kernel K(W, slots, V, by_v=False): for each slot i of
    `slots` in turn, the block of w o_i v over every row w of W and v of V,
    with rows ordered by w and then v, or by v and then w when `by_v`.  A
    product past 255 is kept mod 256, so callers refuse such letters first.

    For each slot it loops over the smaller of W and V; looping over V, it
    slices W's columns once per call.  For each w, V scaled by w_i is V.translate(T[w_i]);
    for each v, each letter b of v scales W's column i on the right, to
    w_i b, through R[b].  T[a] is a 256-byte table of the products a c, and
    R[b] one of the products c b, c over the carrier (`_Tables`), each built
    when first read and kept for the kernel's life; the monoid need not
    commute.  Each column of the rows of one w, or of one v, is laid by one
    strided assignment.  A `subst` is called on tuples instead, and its
    results packed.
    """
    if subst is not None:
        def compose(W: Block, slots: Sequence[int], V: Block, by_v: bool = False) -> Block:
            (ws, n), (vs, r) = W, V
            lefts = [tuple(ws[s : s + n]) for s in range(0, len(ws), n)]
            rights = [tuple(vs[s : s + r]) for s in range(0, len(vs), r)]
            if by_v:
                pairs = [(w, v) for v in rights for w in lefts]
            else:
                pairs = [(w, v) for w in lefts for v in rights]
            return b"".join(bytes(subst(w, i, v)) for i in slots for w, v in pairs), n + r - 1

        return compose

    carrier = range(256 if m.size is None else min(m.size, 256))
    T, R = _Tables(m.op, carrier), _Tables(lambda b, c: m.op(c, b), carrier)

    def compose(W: Block, slots: Sequence[int], V: Block, by_v: bool = False) -> Block:
        (ws, n), (vs, r) = W, V
        cw, cv = len(ws) // n, len(vs) // r
        width = n + r - 1
        size = cw * cv * width
        out = bytearray(size * len(slots))
        # bytes from the row of (w, v) to those of the next w, and the next v
        w_step, v_step = (width, cw * width) if by_v else (cv * width, width)
        columns = [ws[c::n] for c in range(n)] if cw > cv else []  # read when looping over V
        # letter c of w lands in column c of the result before the slot, c + r - 1 after
        before, after = list(zip(range(n), range(n))), list(zip(range(n), range(r - 1, n + r - 1)))
        for base, i in zip(itertools.count(0, size), slots):
            kept = before[: i - 1] + after[i:]
            if cw <= cv:
                for s in range(cw):
                    w = ws[s * n : (s + 1) * n]
                    start = base + s * w_step
                    stop = start + cv * v_step
                    for c, at in kept:
                        out[start + at : stop : v_step] = w[c : c + 1] * cv
                    scaled = vs.translate(T[w[i - 1]])
                    for q in range(r):
                        out[start + i - 1 + q : stop : v_step] = scaled[q::r]
            else:
                for s in range(cv):
                    start = base + s * v_step
                    stop = start + cw * w_step
                    for c, at in kept:
                        out[start + at : stop : w_step] = columns[c]
                    for at, b in enumerate(vs[s * r : (s + 1) * r], start + i - 1):
                        out[at:stop:w_step] = columns[i - 1].translate(R[b])
        return out, width

    return compose


def _acted(block: Block, sigma: Perm) -> bytearray:
    """Every row of the block acted on by sigma: a strided copy per column."""
    joined, n = block
    out = bytearray(len(joined))
    for c, s in enumerate(sigma):
        out[c::n] = joined[s - 1 :: n]
    return out


def _law(axiom: str, groups: Iterable[tuple[Iterable, Iterable]]) -> AxiomReport:
    """Check a law a group at a time.  Each group gives its pairs of block
    sides, each side a kernel block, and, lazily, its checks one at a time as
    (operands, whether the law holds), in loop order.  A passing group adds
    the rows its pairs compared to `checked`, one check a row."""
    checked = 0
    for pairs, scan in groups:
        rows = 0
        for lhs, rhs in pairs:
            if lhs != rhs:
                break
            rows += len(lhs[0]) // lhs[1]
        else:
            checked += rows
            continue
        for checked, (operands, holds) in enumerate(scan, start=checked + 1):
            if not holds:
                return AxiomReport(axiom, checked, operands)
        raise RuntimeError(f"{axiom}: a block differs but none of its group's checks fails")
    return AxiomReport(axiom, checked)


def _series(compose, sub, blocks: _Blocks, ax: int, ay: int, az: int):
    # (x o_i y) o_{i+j-1} z == x o_i (y o_j z), a block per (|x|, i, |y|, j, |z|)
    # with rows in (x, y, z) order; loop order x, i, y, j, z
    ys, zs = blocks.upto(ay), blocks.upto(az)
    yzs = {
        (ny, j, nz): compose(blocks[ny], (j,), blocks[nz])
        for ny in range(1, ay + 1) for j in range(1, ny + 1) for nz in range(1, az + 1)
    }

    def pairs(nx: int):
        xs = blocks[nx]
        for i in range(1, nx + 1):
            for ny in range(1, ay + 1):
                xy = compose(xs, (i,), blocks[ny])
                for j in range(1, ny + 1):
                    for nz in range(1, az + 1):
                        lhs = compose(xy, (i + j - 1,), blocks[nz])
                        yield lhs, compose(xs, (i,), yzs[ny, j, nz])

    def scan(nx: int):
        for x in blocks.words[nx]:
            for i in range(1, nx + 1):
                for y in ys:
                    xy = sub(x, i, y)
                    for j in range(1, len(y) + 1):
                        for z in zs:
                            lhs = sub(xy, i + j - 1, z)
                            yield (x, i, y, j, z), lhs == sub(x, i, sub(y, j, z))

    for nx in range(1, ax + 1):
        yield pairs(nx), scan(nx)


def _parallel(compose, sub, blocks: _Blocks, ax: int, ay: int, az: int):
    # (x o_i y) o_{j+|y|-1} z == (x o_j z) o_i y for i < j, a block per
    # (|x|, i, j, |y|, |z|) with rows in (y, x, z) order; loop order x, i, j, z, y
    ys, zs = blocks.upto(ay), blocks.upto(az)

    def pairs(nx: int):
        xs = blocks[nx]
        xzs = {
            (j, nz): compose(xs, (j,), blocks[nz])
            for j in range(2, nx + 1) for nz in range(1, az + 1)
        }
        for i in range(1, nx):
            for ny in range(1, ay + 1):
                yx = compose(xs, (i,), blocks[ny], by_v=True)
                for j in range(i + 1, nx + 1):
                    for nz in range(1, az + 1):
                        lhs = compose(yx, (j + ny - 1,), blocks[nz])
                        yield lhs, compose(xzs[j, nz], (i,), blocks[ny], by_v=True)

    def scan(nx: int):
        for x in blocks.words[nx]:
            for i in range(1, nx + 1):
                for j in range(i + 1, nx + 1):
                    for z in zs:
                        xz = sub(x, j, z)
                        for y in ys:
                            lhs = sub(sub(x, i, y), j + len(y) - 1, z)
                            yield (x, i, y, j, z), lhs == sub(xz, i, y)

    for nx in range(1, ax + 1):
        yield pairs(nx), scan(nx)


def _unit(compose, sub, blocks: _Blocks, one: Letters, ax: int):
    # 1 o_1 x == x, then x o_i 1 == x for each i, a block per (|x|, side)
    # with the right side's rows in (i, x) order; loop order x, side
    unit = (bytes(one), 1)

    def pairs(nx: int):
        xs = blocks[nx]
        yield compose(unit, (1,), xs), xs
        yield compose(xs, range(1, nx + 1), unit), (xs[0] * nx, nx)

    def scan(nx: int):
        for x in blocks.words[nx]:
            yield ("left", x), sub(one, 1, x) == x
            for i in range(1, nx + 1):
                yield ("right", x, i), sub(x, i, one) == x

    for nx in range(1, ax + 1):
        yield pairs(nx), scan(nx)


def _equivariance(compose, sub, blocks: _Blocks, ax: int, ay: int):
    # (x.sigma) o_i (y.nu) == (x o_{sigma_i} y) . B_i(sigma, nu), a block per
    # (|y|, |x|, sigma) with rows in (i, nu, y, x) order; loop order y, x,
    # sigma, i, nu.  The right side is x o_{sigma_i} y, one block per slot,
    # acted on by B_i(sigma, nu) for each nu.
    xs = blocks.upto(ax)

    def pairs(ny: int):
        ys, nus = blocks[ny], tuple(all_perms(ny))
        ys_acted = (b"".join(_acted(ys, nu) for nu in nus), ny)
        for nx in range(1, ax + 1):
            plains = [compose(blocks[nx], (p,), ys, by_v=True) for p in range(1, nx + 1)]
            for sigma in all_perms(nx):
                xs_acted = (_acted(blocks[nx], sigma), nx)
                lhs = compose(xs_acted, range(1, nx + 1), ys_acted, by_v=True)
                rhs = b"".join(
                    _acted(plains[sigma[i - 1] - 1], block_substitute(sigma, i, nu))
                    for i in range(1, nx + 1) for nu in nus
                )
                yield lhs, (rhs, lhs[1])

    def scan(ny: int):
        nus = tuple(all_perms(ny))
        for y in blocks.words[ny]:
            for x in xs:
                for sigma in all_perms(len(x)):
                    for i in range(1, len(x) + 1):
                        plain = sub(x, sigma[i - 1], y)
                        for nu in nus:
                            lhs = sub(permute(x, sigma), i, permute(y, nu))
                            rhs = permute(plain, block_substitute(sigma, i, nu))
                            yield (x, sigma, i, y, nu), lhs == rhs

    for ny in range(1, ay + 1):
        yield pairs(ny), scan(ny)
