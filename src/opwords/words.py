"""The operad of words over a monoid.

A word of arity n is a nonempty tuple of n monoid elements.  Substituting y
at position i of x splices y into x, multiplying every letter of y by the
letter it replaces.  Permutations act by rearranging letters, and a monoid
morphism lifts to words letterwise.  `check_axioms` verifies the operad laws
exhaustively on small domains, a block of words at a time.  It packs the
words of one arity into one `bytes`, one letter per byte, and substitutes
every word of one block into every word of another by strided column copies
and `bytes.translate`, so a compared word holding a letter above 255 is
refused.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
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
    a pure function of its arguments, taking and returning letter tuples,
    and a result whose arity is not |x| + |y| - 1 raises `ValueError`.  It is
    called once per distinct argument triple.
    More than `MAX_CHECKS` checks, or a compared word that may hold a letter
    above 255, are refused with `ValueError` before any substitution.

    The words of each arity are packed into one block, one letter per byte
    and one row per word, and every substitution goes through one all-pairs
    kernel (`_kernel`): K(W, i, V) is the block of w o_i v over every row w
    of W and v of V.  A law is checked a block of operand arities and slots
    at a time, its two sides built through K and compared as two `bytes`.
    Only a failing block is scanned row by row.  The laws run over the
    operand tuples in a fixed loop order, outermost operand first, and
    `checked` and the counterexample, unpacked to tuples, are those of
    checking one tuple at a time in that order: the blocks of one arity of
    the outermost operand are all checked before a failure is reported, and
    the failure reported is the first of them in loop order.
    """
    count = axiom_check_count(m, max_arities, letter_cap)
    if count > MAX_CHECKS:
        raise ValueError(f"{count} axiom checks, over the cap of {MAX_CHECKS}")
    # a compared word holds products of up to three letters; over N, sums
    alphabet = letter_range(m, letter_cap)
    top = alphabet[-1] * (1 if m.is_finite else 3)
    if top > 255:
        raise ValueError(
            f"letter {top} over {m.name} is above 255 and cannot be packed "
            "into an axiom-check word"
        )
    blocks = _Blocks(alphabet, max(max_arities))
    compose = _kernel(m, top, subst)
    ax, ay, az = max_arities
    return [
        _check_series(compose, blocks, ax, ay, az),
        _check_parallel(compose, blocks, ax, ay, az),
        _check_unit(compose, blocks, bytes([m.unit]), ax),
        _check_equivariance(compose, blocks, ax, ay),
    ]


Block = tuple[bytes, int]  # words of one arity, packed and joined; that arity


class _Blocks(dict):
    """`self[n]` is the block of every word of arity n over the alphabet, in
    lexicographic order; `self.size` is the number of letters."""

    def __init__(self, alphabet: Sequence[int], max_arity: int) -> None:
        super().__init__(
            (n, (b"".join(map(bytes, itertools.product(alphabet, repeat=n))), n))
            for n in range(1, max_arity + 1)
        )
        self.size = len(alphabet)

    def before(self, n: int, weight: Callable[[int], int] = lambda n: 1) -> int:
        """weight(|w|) summed over the words w of arity 1..n - 1."""
        return sum(weight(k) * self.size**k for k in range(1, n))

    def head(self, n: int, rows: int) -> Block:
        """The first `rows` words of arity n."""
        return self[n][0][: rows * n], n

    def word(self, n: int, row: int) -> Letters:
        return tuple(self[n][0][row * n : (row + 1) * n])


def _kernel(
    m: Monoid, top: int, subst: Callable[[Letters, int, Letters], Letters] | None
) -> Callable[..., Block]:
    """The all-pairs kernel K(W, i, V, by_v=False): the block of w o_i v
    over every row w of W and v of V, whose letters are at most `top`, with
    rows ordered by w and then v, or by v and then w when `by_v`.

    It loops over the smaller of W and V.  For each w, V scaled by w_i is
    V.translate(T[w_i]), where T[a] is a 256-byte table multiplying on the
    left by a.  For each v, each letter b of v scales W's column i through a
    table multiplying on the right by b.  Each column of the rows of one w,
    or of one v, is laid by one strided assignment.  A `subst` is called on
    tuples instead, and its results packed and memoised.
    """
    if subst is not None:
        @functools.cache
        def packed(w: Letters, i: int, v: Letters) -> bytes:
            got = subst(w, i, v)
            if len(got) != len(w) + len(v) - 1:
                raise ValueError(
                    f"subst gave a word of arity {len(got)} for {w} o_{i} {v}, "
                    f"not {len(w) + len(v) - 1}"
                )
            return bytes(got)

        def compose(W: Block, i: int, V: Block, by_v: bool = False) -> Block:
            (ws, n), (vs, r) = W, V
            lefts = [tuple(ws[s : s + n]) for s in range(0, len(ws), n)]
            rights = [tuple(vs[s : s + r]) for s in range(0, len(vs), r)]
            if by_v:
                out = [packed(w, i, v) for v in rights for w in lefts]
            else:
                out = [packed(w, i, v) for w in lefts for v in rights]
            return b"".join(out), n + r - 1

        return compose

    op = m.op
    # left[a][b] and right[b][a] are the product of a and b; entries past
    # `top` are never read
    left = [bytes([op(a, b) & 255 for b in range(256)]) for a in range(top + 1)]
    right = [bytes([op(a, b) & 255 for a in range(256)]) for b in range(top + 1)]

    def compose(W: Block, i: int, V: Block, by_v: bool = False) -> Block:
        (ws, n), (vs, r) = W, V
        cw, cv = len(ws) // n, len(vs) // r
        width = n + r - 1
        out = bytearray(cw * cv * width)
        # bytes from the row of (w, v) to those of the next w, and the next v
        w_step, v_step = (width, cw * width) if by_v else (cv * width, width)
        # the column of the result each letter of w but w_i lands in
        kept = [(c, c if c < i - 1 else c + r - 1) for c in range(n) if c != i - 1]
        if cw <= cv:
            for s in range(cw):
                w = ws[s * n : (s + 1) * n]
                start = s * w_step
                stop = start + cv * v_step
                for c, at in kept:
                    out[start + at : stop : v_step] = w[c : c + 1] * cv
                scaled = vs.translate(left[w[i - 1]])
                for q in range(r):
                    out[start + i - 1 + q : stop : v_step] = scaled[q::r]
        else:
            columns = [ws[c::n] for c in range(n)]
            slot = columns[i - 1]
            for s in range(cv):
                start = s * v_step
                stop = start + cw * w_step
                for c, at in kept:
                    out[start + at : stop : w_step] = columns[c]
                for q, b in enumerate(vs[s * r : (s + 1) * r]):
                    out[start + i - 1 + q : stop : w_step] = slot.translate(right[b])
        return out, width

    return compose


def _acted(block: Block, sigma: Perm) -> bytearray:
    """Every row of the block acted on by sigma: a strided copy per column."""
    joined, n = block
    out = bytearray(len(joined))
    for c, s in enumerate(sigma):
        out[c::n] = joined[s - 1 :: n]
    return out


def _earliest(lhs: Block, rhs: bytes, inner: tuple[int, ...], weights: tuple[int, ...]):
    """Of the rows where a block and the rows of `rhs` differ, the one first
    in loop order.

    A row's coordinates are the rows of its operands, outermost first, the
    operands after the first having `inner` rows each.  Its offset in loop
    order is the sum of each coordinate times its weight.  Gives (offset,
    coordinates)."""
    a, n = lhs
    best = None
    for t in range(len(a) // n):
        if a[t * n : (t + 1) * n] != rhs[t * n : (t + 1) * n]:
            coordinates = []
            for count in reversed(inner):
                t, c = divmod(t, count)
                coordinates.append(c)
            coordinates.append(t)
            coordinates.reverse()
            offset = sum(map(operator.mul, coordinates, weights))
            if best is None or offset < best[0]:
                best = offset, coordinates
    return best


# Each law is checked one arity of its outermost operand at a time.  Once a
# block fails at the p-th word of that operand, no failure past that word
# comes first in loop order, so the later blocks of the arity are built
# from its first p + 1 words alone.


def _check_series(compose, blocks: _Blocks, ax: int, ay: int, az: int) -> AxiomReport:
    # (x o_i y) o_{i+j-1} z == x o_i (y o_j z), a block per (|x|, i, |y|, j, |z|)
    # with rows in (x, y, z) order; loop order x, i, y, j, z
    size = blocks.size
    per_j = blocks.before(az + 1)  # checks per (x, i, y, j)
    per_i = blocks.before(ay + 1, lambda n: n) * per_j  # checks per (x, i)
    yzs = {
        (ny, j, nz): compose(blocks[ny], j, blocks[nz])
        for ny in range(1, ay + 1) for j in range(1, ny + 1) for nz in range(1, az + 1)
    }
    checked = 0
    for nx in range(1, ax + 1):
        found, limit = [], size**nx
        for i in range(1, nx + 1):
            for ny in range(1, ay + 1):
                xs = blocks.head(nx, limit)
                xy = compose(xs, i, blocks[ny])
                for j in range(1, ny + 1):
                    for nz in range(1, az + 1):
                        lhs = compose(xy, i + j - 1, blocks[nz])
                        rhs = compose(xs, i, yzs[ny, j, nz])
                        if lhs[0] == rhs[0]:
                            continue
                        offset, (p, q, u) = _earliest(
                            lhs, rhs[0], (size**ny, size**nz), (nx * per_i, ny * per_j, 1)
                        )
                        index = offset + blocks.before(nz) + (
                            (blocks.before(nx, lambda n: n) + i - 1) * per_i
                            + (blocks.before(ny, lambda n: n) + j - 1) * per_j
                        )
                        operands = (blocks.word(nx, p), i, blocks.word(ny, q), j, blocks.word(nz, u))
                        found.append((index, operands))
                        limit = p + 1
        if found:
            return _failed("series-associativity", found)
        checked += nx * size**nx * per_i
    return AxiomReport("series-associativity", checked)


def _check_parallel(compose, blocks: _Blocks, ax: int, ay: int, az: int) -> AxiomReport:
    # (x o_i y) o_{j+|y|-1} z == (x o_j z) o_i y for i < j, a block per
    # (|x|, i, j, |y|, |z|) with rows in (y, x, z) order; loop order x, i, j, z, y
    size = blocks.size
    per_z = blocks.before(ay + 1)  # checks per (x, i, j, z)
    per_ij = blocks.before(az + 1) * per_z  # checks per (x, i, j)
    checked = 0
    for nx in range(1, ax + 1):
        found, limit = [], size**nx
        for i in range(1, nx):
            xs = blocks.head(nx, limit)
            xzs = {
                (j, nz): compose(xs, j, blocks[nz])
                for j in range(i + 1, nx + 1) for nz in range(1, az + 1)
            }
            for ny in range(1, ay + 1):
                ys = blocks[ny]
                yx = compose(xs, i, ys, by_v=True)
                for j in range(i + 1, nx + 1):
                    for nz in range(1, az + 1):
                        lhs = compose(yx, j + ny - 1, blocks[nz])
                        rhs = compose(xzs[j, nz], i, ys, by_v=True)
                        if lhs[0] == rhs[0]:
                            continue
                        offset, (q, p, u) = _earliest(
                            lhs, rhs[0], (len(xs[0]) // nx, size**nz),
                            (1, math.comb(nx, 2) * per_ij, per_z),
                        )
                        # the pairs before (i, j) for one x
                        pair = (i - 1) * nx - i * (i - 1) // 2 + j - i - 1
                        index = offset + blocks.before(ny) + (
                            (blocks.before(nx, lambda n: math.comb(n, 2)) + pair) * per_ij
                            + blocks.before(nz) * per_z
                        )
                        operands = (blocks.word(nx, p), i, blocks.word(ny, q), j, blocks.word(nz, u))
                        found.append((index, operands))
                        limit = p + 1
        if found:
            return _failed("parallel-associativity", found)
        checked += math.comb(nx, 2) * size**nx * per_ij
    return AxiomReport("parallel-associativity", checked)


def _check_unit(compose, blocks: _Blocks, one: bytes, ax: int) -> AxiomReport:
    # 1 o_1 x == x, then x o_i 1 == x for each i, a block per (|x|, side);
    # loop order x, side
    size = blocks.size
    unit = (one, 1)
    checked = 0
    for nx in range(1, ax + 1):
        xs, found = blocks[nx], []
        sides = [compose(unit, 1, xs)] + [compose(xs, i, unit) for i in range(1, nx + 1)]
        for i, side in enumerate(sides):
            if side[0] == xs[0]:
                continue
            offset, (p,) = _earliest(side, xs[0], (), (nx + 1,))
            x = blocks.word(nx, p)
            found.append((
                blocks.before(nx, lambda n: n + 1) + offset + i,
                ("right", x, i) if i else ("left", x),
            ))
        if found:
            return _failed("unit", found)
        checked += (nx + 1) * size**nx
    return AxiomReport("unit", checked)


def _check_equivariance(compose, blocks: _Blocks, ax: int, ay: int) -> AxiomReport:
    # (x.sigma) o_i (y.nu) == (x o_{sigma_i} y) . B_i(sigma, nu), a block per
    # (|y|, |x|, sigma, i) with rows in (nu, y, x) order; loop order y, x,
    # sigma, i, nu.  The right side is x o_{sigma_i} y, one block per slot,
    # acted on by B_i(sigma, nu) for each nu.
    size = blocks.size
    per_y = blocks.before(ax + 1, _sigma_slots)  # checks per (y, nu)
    checked = 0
    for ny in range(1, ay + 1):
        found, limit = [], size**ny
        nus = tuple(all_perms(ny))
        for nx in range(1, ax + 1):
            xs, rows = blocks[nx], None
            for s, sigma in enumerate(all_perms(nx)):
                if rows != limit:  # the first sigma, or a failure cut y short
                    rows = limit
                    ys = blocks.head(ny, rows)
                    ys_acted = (b"".join(_acted(ys, nu) for nu in nus), ny)
                    plains = [compose(xs, p, ys, by_v=True) for p in range(1, nx + 1)]
                xs_acted = (_acted(xs, sigma), nx)
                for i in range(1, nx + 1):
                    lhs = compose(xs_acted, i, ys_acted, by_v=True)
                    plain = plains[sigma[i - 1] - 1]
                    rhs = b"".join(_acted(plain, block_substitute(sigma, i, nu)) for nu in nus)
                    if lhs[0] == rhs:
                        continue
                    offset, (u, q, p) = _earliest(
                        lhs, rhs, (rows, size**nx),
                        (1, len(nus) * per_y, _sigma_slots(nx) * len(nus)),
                    )
                    index = offset + (
                        blocks.before(ny, math.factorial) * per_y
                        + (blocks.before(nx, _sigma_slots) + s * nx + i - 1) * len(nus)
                    )
                    operands = (blocks.word(nx, p), sigma, i, blocks.word(ny, q), nus[u])
                    found.append((index, operands))
                    limit = q + 1
        if found:
            return _failed("equivariance", found)
        checked += size**ny * len(nus) * per_y
    return AxiomReport("equivariance", checked)


def _sigma_slots(n: int) -> int:
    """The pairs of a permutation sigma of degree n and a slot i."""
    return math.factorial(n) * n


def _failed(axiom: str, found: list[tuple[int, tuple]]) -> AxiomReport:
    """The report of the failure first in loop order among (index, operands)."""
    index, operands = min(found)
    return AxiomReport(axiom, index + 1, operands)
