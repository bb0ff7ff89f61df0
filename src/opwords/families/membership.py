"""Membership predicates and enumerators for the word families.

Each family ships two independent routes to the same set: a letterwise
predicate and a direct enumerator per arity.  `check characterization`
compares a generated closure with the enumeration, and the tests compare
both with the predicate.  Twisted variants of the classical families
(endofunctions, parking functions, packed words, permutations) shift every
letter down by one so that substitution stays inside the set.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..generation import (
    GeneratorSet, GradedFamily, _keep, _packed, _recall, generate_closure,
)
from ..monoids import BOOLEAN, Monoid, NATURALS, cyclic
from ..words import Letters, NotAMemberError, Word, parse_letters, substitute
from .paths import da_phi, is_motzkin_prefix


# ---------------------------------------------------------------------------
# twisted classical families (letters shifted down by one)


def is_twisted_endofunction(letters: Letters) -> bool:
    n = len(letters)
    return all(a < n for a in letters)


def is_twisted_parking_function(letters: Letters) -> bool:
    return all(a <= idx for idx, a in enumerate(sorted(letters)))


def is_twisted_packed_word(letters: Letters) -> bool:
    seen = set(letters)
    return seen == set(range(max(letters) + 1))


def is_twisted_permutation(letters: Letters) -> bool:
    return sorted(letters) == list(range(len(letters)))


def has_repeated_letter(letters: Letters) -> bool:
    return len(set(letters)) < len(letters)


# ---------------------------------------------------------------------------
# generated families over the naturals


def is_prt_word(letters: Letters) -> bool:
    """Depth words of planar rooted trees: starts at 0, steps into 1..prev+1."""
    if letters[0] != 0:
        return False
    return all(1 <= b <= a + 1 for a, b in zip(letters, letters[1:]))


def is_fcat_word(letters: Letters, k: int) -> bool:
    """Starting ordinates of the up steps of a k-Dyck path."""
    if letters[0] != 0:
        return False
    return all(b <= a + k for a, b in zip(letters, letters[1:]))


def is_motz_word(letters: Letters) -> bool:
    """Ordinate sequences of Motzkin paths: 0 at both ends, unit steps."""
    if letters[0] != 0 or letters[-1] != 0:
        return False
    return all(abs(a - b) <= 1 for a, b in zip(letters, letters[1:]))


def is_schr_word(letters: Letters) -> bool:
    """Sector-depth words of trees whose nodes never have exactly one child.

    Every letter b >= 1 needs an occurrence of b - 1 reachable from it across
    letters that all stay >= b.
    """
    if 0 not in letters:
        return False
    for pos, b in enumerate(letters):
        if b == 0:
            continue
        if not _reaches_lower(letters, pos, b):
            return False
    return True


def _reaches_lower(letters: Letters, pos: int, b: int) -> bool:
    for q in range(pos - 1, -1, -1):
        if letters[q] == b - 1:
            return True
        if letters[q] < b:
            break
    for q in range(pos + 1, len(letters)):
        if letters[q] == b - 1:
            return True
        if letters[q] < b:
            break
    return False


def is_comp_word(letters: Letters) -> bool:
    """Words over {0, 1} that begin with 0; they encode integer compositions."""
    return letters[0] == 0 and all(a <= 1 for a in letters)


def is_scomp_word(letters: Letters) -> bool:
    """Words over {0, 1, 2} that begin with 0; segmented compositions."""
    return letters[0] == 0 and all(a <= 2 for a in letters)


def is_dias_word(letters: Letters) -> bool:
    """Words over {0, 1} holding exactly one 1."""
    return letters.count(1) == 1 and all(a <= 1 for a in letters)


# ---------------------------------------------------------------------------
# enumerators


def _prefix_walk(n: int, start: int, next_range: Callable[[int], Iterable[int]]):
    """All length-n walks from `start` where each step draws from next_range(prev)."""
    walks = [(start,)]
    for _ in range(n - 1):
        walks = [w + (b,) for w in walks for b in next_range(w[-1])]
    return walks


def enumerate_prt(n: int) -> list[Letters]:
    _check_counts(n, map(_fuss_catalan(1), itertools.count(0)))
    return _prefix_walk(n, 0, lambda a: range(1, a + 2))


def enumerate_fcat(n: int, k: int) -> list[Letters]:
    _check_counts(n, map(_fuss_catalan(k), itertools.count(1)))
    return _prefix_walk(n, 0, lambda a: range(0, a + k + 1))


def enumerate_motz(n: int) -> list[Letters]:
    """Walks from 0 in steps of -1, 0 or 1 that never go below 0 and end at
    0: each step goes only to a height the letters left can come down from."""
    _check_counts(n, _motz_counts())
    walks = [(0,)]
    for left in range(n - 2, -1, -1):  # letters left after the next one
        walks = [
            w + (b,) for w in walks for b in range(max(0, w[-1] - 1), min(w[-1] + 1, left) + 1)
        ]
    return walks


def _motz_counts() -> Iterator[int]:
    """The number of members of `enumerate_motz` at arity 1, 2, ...: the
    walks are counted by height, one letter at a time."""
    by_height = [1]
    while True:
        yield by_height[0]
        by_height = [sum(by_height[max(0, h - 1) : h + 2]) for h in range(len(by_height) + 1)]


def enumerate_schr(n: int) -> list[Letters]:
    """Members in lexicographic order, built from the run structure of
    `is_schr_word` rather than by filtering all n^n candidates.

    A word is a member when it holds a 0 and each maximal run of nonzero
    letters, lowered by one, is a shorter member: a 1 reaches the 0 that
    bounds its run, and the chain below a letter b >= 2 stays inside the run.
    """
    _check_counts(n, _schr_counts())
    # raised[k]: members of arity k with every letter raised by one;
    # spans[k]: words of length k whose maximal nonzero runs are raised members
    raised: list[list[Letters]] = [[]]
    spans: list[list[Letters]] = [[()]]
    found: list[Letters] = []
    for k in range(1, n + 1):
        found = [(0,) + tail for tail in spans[k - 1]]
        for r in range(1, k):
            found += [run + (0,) + tail for run in raised[r] for tail in spans[k - r - 1]]
        raised.append([tuple(a + 1 for a in w) for w in found])
        spans.append(found + raised[k])
    return sorted(found)


def _schr_counts() -> Iterator[int]:
    """The number of members of `enumerate_schr` at arity 1, 2, ..., by its
    run structure: F(k) = S(k - 1) + sum of F(r) S(k - r - 1) over 0 < r < k,
    where S(0) = 1 and S(j) = 2 F(j) counts the spans."""
    found, spans = [0], [1]
    while True:
        k = len(found)
        members = spans[k - 1] + sum(found[r] * spans[k - r - 1] for r in range(1, k))
        found.append(members)
        spans.append(2 * members)
        yield members


def enumerate_comp(n: int) -> list[Letters]:
    _check_counts(n, (2**m for m in itertools.count()))
    return [(0,) + tail for tail in itertools.product((0, 1), repeat=n - 1)]


def enumerate_scomp(n: int) -> list[Letters]:
    _check_counts(n, (3**m for m in itertools.count()))
    return [(0,) + tail for tail in itertools.product((0, 1, 2), repeat=n - 1)]


def enumerate_dias(n: int) -> list[Letters]:
    _check_counts(n, itertools.count(1))
    out = []
    for pos in range(n):
        w = [0] * n
        w[pos] = 1
        out.append(tuple(w))
    return out


# the most members an enumerator may build at one arity, counted before any
# is built: end stops at arity 11, pf at 13 and pw at 20, counting sorted
# members, and comp at 20, scomp at 13, fcat1 at 13, prt at 14, motz at 17
# and schr at 10
MAX_CANDIDATES = 10**6


def _check_counts(n: int, counts: Iterator[int]) -> None:
    """Refuse an arity at which a non-symmetric enumerator would build more
    than `MAX_CANDIDATES` members, given its counts at arity 1, 2, ....  No
    count falls as the arity grows, so the first count over the cap, at
    arity n or below, refuses n, and no count far above the cap is taken."""
    for m, members in zip(range(1, n + 1), counts):
        if members > MAX_CANDIDATES:
            built = f"{members} members"
            if m < n:
                built = f"at least the {built} of arity {m}"
            raise ValueError(f"arity {n} would build {built}, over the cap of {MAX_CANDIDATES}")


def _check_members(n: int, count: Callable[[int], int]) -> None:
    """Refuse an arity at which a symmetric enumerator would build more than
    `MAX_CANDIDATES` sorted members.  The letters of a symmetric family
    reach n - 1, so an arity above 256 cannot be packed; it is refused
    before its count is evaluated."""
    if n > 256:
        raise ValueError(f"arity {n} has letters above 255, which cannot be packed")
    members = count(n)
    if members > MAX_CANDIDATES:
        raise ValueError(
            f"arity {n} would build {members} sorted members, "
            f"over the cap of {MAX_CANDIDATES}"
        )


# the symmetric families enumerate their sorted members, one per orbit of the
# letter-permuting action, in lexicographic order: the form a symmetric
# `GradedFamily` keeps


def enumerate_end(n: int) -> list[Letters]:
    """Nondecreasing words over 0..n-1: the C(2n-1, n) multisets."""
    _check_members(n, lambda n: math.comb(2 * n - 1, n))
    return list(itertools.combinations_with_replacement(range(n), n))


def enumerate_pf(n: int) -> list[Letters]:
    """Nondecreasing words with a_i <= i, a Catalan number of them."""
    _check_members(n, lambda n: math.comb(2 * n, n) // (n + 1))
    words = [(0,)]
    for i in range(1, n):
        words = [w + (b,) for w in words for b in range(w[-1], i + 1)]
    return words


def enumerate_pw(n: int) -> list[Letters]:
    """Nondecreasing words from 0 in steps of 0 or 1, one per composition of n."""
    _check_members(n, lambda n: 2 ** (n - 1))
    return _prefix_walk(n, 0, lambda a: (a, a + 1))


def enumerate_per(n: int) -> list[Letters]:
    """The one sorted permutation, 0..n-1."""
    _check_members(n, lambda n: 1)
    return [tuple(range(n))]


# ---------------------------------------------------------------------------
# the directed-animal family is defined by its closure; the letter-difference
# description below is checked against it and reported, never assumed

_da_cache: GradedFamily | None = None


def da_closure(max_arity: int) -> GradedFamily:
    """`_da_cache`, the deepest `da` closure read, while it reads the levels
    that `generate_closure`, asked at every call, serves to the arity bound."""
    global _da_cache
    closure = generate_closure(FAMILIES["da"].generator_set(), max_arity)
    if (_da_cache is None or _da_cache.max_arity < max_arity
            or _da_cache._blocks is not closure._blocks):
        _da_cache = closure
    return _da_cache


# the closure refuses a bound below the generators' arity 2, so these two
# read a one-letter word from the arity-2 closure


def is_da_word(letters: Letters) -> bool:
    return da_closure(max(len(letters), 2)).contains(letters)


def enumerate_da(n: int) -> list[Letters]:
    return da_closure(max(n, 2)).words(n)


def da_prefix_description(letters: Letters) -> bool:
    """Conjectured description: starts with 0 and the step word of consecutive
    differences never dips below zero."""
    return letters[0] == 0 and is_motzkin_prefix(da_phi(letters))


def da_description_report(max_arity: int) -> list[tuple[int, bool, int, int]]:
    """Per arity: (n, agreement, closure count, description count).

    The described words are the words that `da_prefix_description` accepts,
    built independently of the closure, which is read first, so a bound is
    refused before any row is made.  Those of arity n are those of arity
    n - 1, each kept packed with the height its step word reaches, extended
    by each next letter, in increasing order, whose step keeps that height
    nonnegative; so each arity's come in increasing order, one pass builds
    every row, and they are compared with the closure's block as it is.
    """
    closure = da_closure(max_arity)
    rows = []
    described = [(b"\0", 0)]
    for n in range(1, max_arity + 1):
        if n > 1:
            described = [
                (w + c, h + s) for w, h in described for c, s in _DA_STEPS[w[-1]] if h + s >= 0
            ]
        block = closure._block(n)
        agree = block == b"".join(w for w, _ in described)
        rows.append((n, agree, len(block) // n, len(described)))
    return rows


# from each letter over N3, each next letter c, packed, in increasing order,
# and its step in {-1, 0, 1}, as `da_phi` reads it
_DA_STEPS = [[(bytes((c,)), (c - a + 1) % 3 - 1) for c in range(3)] for a in range(3)]


# ---------------------------------------------------------------------------
# family registry
#
# The tree and ribbon views import the predicates above, so they are imported
# only once those are defined.

from . import paths, ribbons, trees  # noqa: E402


@dataclass(frozen=True, eq=False)
class Family:
    """A named family: monoid, generators when finitely generated, predicate,
    and a per-arity enumerator.  Records compare and hash by identity, so
    what is kept per record is found without hashing its fields, and a
    record with equal fields keeps its own.

    The enumerator of a symmetric family returns its sorted members, one per
    orbit of the letter-permuting action; `enumerated(n).words(n)` expands
    them into every member.  `count` is the closed-form dimension at each
    arity, where one is known.
    A family with an object view maps a word to its object with `to_object`
    and back with `from_object`, and prints the object with `show`; `graft`
    is substitution on the objects, where it is implemented.
    """

    name: str
    monoid: Monoid
    generators: tuple[Letters, ...] | None
    symmetric: bool
    contains: Callable[[Letters], bool]
    enumerate_arity: Callable[[int], list[Letters]]
    table_dims: tuple[int, ...] | None = None
    note: str | None = None
    count: Callable[[int], int] | None = None
    to_object: Callable[[Letters], object] | None = None
    from_object: Callable[[object], Letters] | None = None
    show: Callable[[object], str] = str
    graft: Callable[[object, int, object], object] | None = None

    @property
    def finitely_generated(self) -> bool:
        return self.generators is not None

    def generator_set(self) -> GeneratorSet:
        if self.generators is None:
            raise ValueError(f"{self.name} has no finite generating set")
        return GeneratorSet(self.monoid, self.generators, self.symmetric)

    def closure(self, max_arity: int) -> GradedFamily:
        if self.name == "da":
            return da_closure(max_arity).truncate(max_arity)
        return generate_closure(self.generator_set(), max_arity)

    def enumerated(self, max_arity: int) -> GradedFamily:
        """The enumerator's words to the arity bound, one sorted word per
        orbit when symmetric, as sorted, deduplicated blocks, kept per family
        record and cap (`generation._kept`), so only the arities above the
        kept ones are enumerated, the top arity first: an over-cap
        enumeration is refused before any other work, and keeps nothing.
        Each arity is packed before the next is enumerated."""
        key = self, MAX_CANDIDATES
        blocks = _recall(key) or []
        top = len(blocks)
        fresh = [_packed(map(bytes, self.enumerate_arity(n))) for n in range(max_arity, top, -1)]
        if fresh:
            blocks += reversed(fresh)
            _keep(key, blocks, sum(map(len, blocks)))
        return GradedFamily._of(self.monoid, max_arity, blocks, self.symmetric)

    def expected_dims(self, max_arity: int) -> tuple[int, ...] | None:
        """Reference dimensions from a closed-form count, where one is known."""
        if self.count is None:
            return None
        return tuple(self.count(n) for n in range(1, max_arity + 1))


def _gens(*texts: str) -> tuple[Letters, ...]:
    return tuple(parse_letters(t) for t in texts)


def _fuss_catalan(k: int) -> Callable[[int], int]:
    def count(n: int) -> int:
        return math.comb((k + 1) * n, n) // (k * n + 1)

    return count


def fcat_family(k: int) -> Family:
    return Family(
        name=f"fcat{k}",
        monoid=NATURALS,
        generators=tuple((0, j) for j in range(k + 1)),
        symmetric=False,
        contains=lambda w, k=k: is_fcat_word(w, k),
        enumerate_arity=lambda n, k=k: enumerate_fcat(n, k),
        table_dims=None,
        count=_fuss_catalan(k),
        to_object=lambda w, k=k: paths.word_to_kdyck(w, k),
        from_object=lambda path, k=k: paths.kdyck_to_word(path, k),
    )


FAMILIES: dict[str, Family] = {
    "end": Family(
        "end", NATURALS, None, True, is_twisted_endofunction, enumerate_end,
        table_dims=(1, 4, 27, 256, 3125),
        count=lambda n: n**n,
    ),
    "pf": Family(
        "pf", NATURALS, None, True, is_twisted_parking_function, enumerate_pf,
        table_dims=(1, 3, 16, 125, 1296),
        count=lambda n: (n + 1) ** (n - 1),
    ),
    "pw": Family(
        "pw", NATURALS, _gens("00", "01"), True, is_twisted_packed_word,
        enumerate_pw,
        table_dims=(1, 3, 13, 75, 541),
    ),
    "per": Family(
        "per", NATURALS, None, True, is_twisted_permutation, enumerate_per,
        table_dims=(1, 2, 6, 24, 120),
        count=math.factorial,
    ),
    "prt": Family(
        "prt", NATURALS, _gens("01"), False, is_prt_word, enumerate_prt,
        table_dims=(1, 1, 2, 5, 14, 42),
        to_object=trees.word_to_tree,
        from_object=trees.tree_to_word,
        show=trees.tree_to_parens,
        graft=trees.prt_graft,
    ),
    "fcat0": fcat_family(0),
    "fcat1": fcat_family(1),
    "fcat2": fcat_family(2),
    "fcat3": fcat_family(3),
    "schr": Family(
        "schr", NATURALS, _gens("00", "01", "10"), False, is_schr_word,
        enumerate_schr,
        table_dims=(1, 3, 11, 45, 197),
        to_object=trees.schr_word_to_tree,
        from_object=trees.schr_tree_to_word,
        show=trees.tree_to_parens,
    ),
    "motz": Family(
        "motz", NATURALS, _gens("00", "010"), False, is_motz_word, enumerate_motz,
        table_dims=(1, 1, 2, 4, 9, 21, 51),
        to_object=paths.word_to_motzkin,
        from_object=paths.motzkin_to_word,
    ),
    "comp": Family(
        "comp", cyclic(2), _gens("00", "01"), False, is_comp_word, enumerate_comp,
        table_dims=(1, 2, 4, 8, 16, 32),
        count=lambda n: 2 ** (n - 1),
        to_object=ribbons.word_to_composition,
        from_object=ribbons.composition_to_word,
        show=ribbons.format_composition,
        graft=ribbons.ribbon_substitute,
    ),
    "da": Family(
        "da", cyclic(3), _gens("00", "01"), False, is_da_word, enumerate_da,
        table_dims=(1, 2, 5, 13, 35, 96),
        to_object=paths.da_phi,
        from_object=paths.steps_from_phi,
        show=paths.steps_to_string,
    ),
    "scomp": Family(
        "scomp", cyclic(3), _gens("00", "01", "02"), False, is_scomp_word,
        enumerate_scomp,
        table_dims=(1, 3, 27, 81, 243),
        note=(
            "reference table prints 1, 3, 27, 81, 243 but the membership count "
            "is 3^(n-1) = 1, 3, 9, 27, 81; the printed row is a suspected "
            "misprint and is flagged, not matched"
        ),
        count=lambda n: 3 ** (n - 1),
    ),
    "dias": Family(
        "dias", BOOLEAN, _gens("10", "01"), False, is_dias_word, enumerate_dias,
        table_dims=None,
        count=lambda n: n,
    ),
}


def get_family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")


# ---------------------------------------------------------------------------
# the permutation quotient: substitution with an absorbing zero


class _PerZero:
    __slots__ = ()

    def __repr__(self) -> str:
        return "PER_ZERO"


PER_ZERO = _PerZero()

PerElement = Word | _PerZero


@functools.lru_cache(maxsize=4096)
def _is_permutation(letters: Letters) -> bool:
    """`is_twisted_permutation`, once per distinct operand of `per_substitute`."""
    return is_twisted_permutation(letters)


def per_substitute(x: PerElement, i: int, y: PerElement) -> PerElement:
    """Substitution in the quotient of packed words by the repeated-letter
    ideal: the plain word substitution when the result stays duplicate-free,
    the absorbing zero otherwise.

    The result is duplicate-free exactly when y is the unit or the letter
    x_i is the maximum of x, which is len(x) - 1 once x is checked to be a
    permutation of 0..n-1.
    """
    if isinstance(x, _PerZero) or isinstance(y, _PerZero):
        return PER_ZERO
    if not _is_permutation(x.letters) or not _is_permutation(y.letters):
        raise NotAMemberError("operands must be duplicate-free words on 0..n-1")
    if not 1 <= i <= len(x):
        raise IndexError(f"position {i} not in 1..{len(x)}")
    if len(y) > 1 and x.letters[i - 1] != len(x) - 1:
        return PER_ZERO
    return substitute(x, i, y)
