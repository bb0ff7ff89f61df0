import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import random

import pytest
from conftest import nothing_kept, traced_peak, transformations

from opwords import families as fam
from opwords import generation
from opwords.cli import main
from opwords.generation import (
    ComparisonVerdict,
    GeneratorSet,
    GradedFamily,
    _arrangements,
    equals_predicate,
    generate_closure,
    quotient_image,
)
from opwords.monoids import (
    BOOLEAN,
    CarrierError,
    Morphism,
    NATURALS,
    cyclic,
    identity_morphism,
    parse_monoid,
    reduce_mod,
)
from opwords.words import Word, act, all_perms, splice, substitute


def closure_of(name, bound):
    return fam.get_family(name).closure(bound)


# ---------------------------------------------------------------------------
# dimension sequences


@pytest.mark.parametrize(
    "name,bound,dims",
    [
        ("prt", 6, (1, 1, 2, 5, 14, 42)),
        ("schr", 5, (1, 3, 11, 45, 197)),
        ("pw", 5, (1, 3, 13, 75, 541)),
        ("motz", 7, (1, 1, 2, 4, 9, 21, 51)),
        ("comp", 6, (1, 2, 4, 8, 16, 32)),
        ("da", 6, (1, 2, 5, 13, 35, 96)),
        ("fcat0", 6, (1, 1, 1, 1, 1, 1)),
        ("fcat1", 5, (1, 2, 5, 14, 42)),
        ("fcat2", 5, (1, 3, 12, 55, 273)),
        ("scomp", 5, (1, 3, 9, 27, 81)),
        ("dias", 6, (1, 2, 3, 4, 5, 6)),
    ],
)
def test_closure_dimensions(name, bound, dims):
    assert closure_of(name, bound).dimensions() == dims


def test_bound_below_generator_arity():
    gens = fam.get_family("motz").generator_set()  # includes an arity-3 generator
    with pytest.raises(ValueError):
        generate_closure(gens, 2)


def test_non_unit_arity_one_generator_over_naturals_is_refused():
    # x o_i (1) adds 1 to a letter, so arity 1 alone would hold 0, 1, 2, ...
    with pytest.raises(ValueError, match="arity-1 generator"):
        generate_closure(GeneratorSet(NATURALS, ((1,), (0, 1))), 3)
    unit = generate_closure(GeneratorSet(NATURALS, ((0,), (0, 1))), 4)
    assert unit.dimensions() == (1, 1, 2, 5)


def test_arity_one_generators_over_finite_monoids():
    closure = generate_closure(GeneratorSet(cyclic(3), ((1,), (0, 1))), 3)
    assert closure.dimensions() == (3, 9, 27)
    closure = generate_closure(GeneratorSet(BOOLEAN, ((0,),)), 3)
    assert closure.dimensions() == (2, 0, 0)


def test_closure_guard_refuses_a_level_before_laying_it(capsys, monkeypatch):
    monkeypatch.setattr(generation, "MAX_CLOSURE_CANDIDATES", 1000)
    assert main(["dims", "--operad", "prt", "--max-arity", "5"]) == 0
    capsys.readouterr()
    assert main(["dims", "--operad", "prt", "--max-arity", "12"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "through arity" in out.err and "the 1000 guard" in out.err


@pytest.mark.parametrize(
    "monoid,generators",
    [(cyclic(3), ((1,), (0, 1))), (cyclic(2), ((1,), (0, 1, 1), (1, 0))), (NATURALS, ((0, 1),))],
)
def test_closure_guard_counts_every_candidate(monkeypatch, monoid, generators):
    """A non-symmetric closure's count is exactly the candidates it splices,
    frontier passes included: it closes with the cap at that count and is
    refused one below it."""
    spliced = generation._spliced
    laid = []

    def counting(words, scaled, symmetric):
        laid.append(len(list(spliced(words, scaled, symmetric))))
        return spliced(words, scaled, symmetric)

    gens = GeneratorSet(monoid, generators)
    monkeypatch.setattr(generation, "_spliced", counting)
    expected = generate_closure(gens, 6)
    monkeypatch.setattr(generation, "_spliced", spliced)
    monkeypatch.setattr(generation, "MAX_CLOSURE_CANDIDATES", sum(laid))
    assert generate_closure(gens, 6) == expected
    monkeypatch.setattr(generation, "MAX_CLOSURE_CANDIDATES", sum(laid) - 1)
    with pytest.raises(ValueError, match=f"through arity 6 exceed the {sum(laid) - 1} guard"):
        generate_closure(gens, 6)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(NATURALS, ())
    with pytest.raises(ValueError):
        GeneratorSet(NATURALS, ((),))
    with pytest.raises(Exception):
        GeneratorSet(cyclic(2), ((0, 2),))


# ---------------------------------------------------------------------------
# closure laws


def assert_closed(graded, symmetric):
    """One more closure pass adds nothing; checked with the public operations."""
    m = graded.monoid
    for a in range(1, graded.max_arity + 1):
        for xl in graded.arity_set(a):
            x = Word(m, xl)
            if symmetric:
                for sigma in all_perms(a):
                    assert graded.contains(act(x, sigma).letters)
            for b in range(1, graded.max_arity - a + 2):
                for yl in graded.arity_set(b):
                    y = Word(m, yl)
                    for i in range(1, a + 1):
                        assert graded.contains(substitute(x, i, y).letters)


def test_closure_stability():
    assert_closed(closure_of("motz", 6), symmetric=False)
    assert_closed(closure_of("comp", 6), symmetric=False)
    assert_closed(closure_of("pw", 4), symmetric=True)


def test_closure_holds_the_unit():
    for name in ("prt", "comp", "dias", "pw"):
        closure = closure_of(name, 4)
        assert closure.contains((closure.monoid.unit,))


@pytest.mark.parametrize("name", ["prt", "da", "schr"])
def test_monotonicity(name):
    family = fam.get_family(name)
    big = generate_closure(family.generator_set(), 6)
    small = generate_closure(family.generator_set(), 4)
    assert big.truncate(4).by_arity == small.by_arity


def all_pairs_closure(gens, max_arity):
    """Reference closure by the all-pairs worklist: every word found is
    substituted with every word found so far, in both orders, at every
    position that fits the bound; symmetric sets insert whole orbits."""
    op = gens.monoid.op
    found = set()
    queue = []

    def insert(w):
        for v in set(itertools.permutations(w)) if gens.symmetric else (w,):
            if v not in found:
                found.add(v)
                queue.append(v)

    insert((gens.monoid.unit,))
    for g in gens.generators:
        insert(g)
    while queue:
        w = queue.pop()
        for v in list(found):
            if len(v) + len(w) - 1 <= max_arity:
                for i in range(1, len(v) + 1):
                    insert(splice(v, i, w, op))
                for i in range(1, len(w) + 1):
                    insert(splice(w, i, v, op))
    return {
        n: frozenset(w for w in found if len(w) == n) for n in range(1, max_arity + 1)
    }


def random_generator_set(seed):
    """Seeded small generator sets over N2, N3, N4, B01 and N, symmetric or
    not; arity-1 generators on the finite monoids, the unit word sometimes."""
    rng = random.Random(seed)
    name = ("N2", "N3", "N4", "B01", "N")[seed % 5]
    m = parse_monoid(name)
    letters = range(3) if name == "N" else m.elements()
    shortest = 2 if name == "N" else 1
    gens = [
        tuple(rng.choice(letters) for _ in range(rng.randint(shortest, 3)))
        for _ in range(rng.randint(1, 3))
    ]
    if seed % 7 == 0:
        gens.append((m.unit,))
    return GeneratorSet(m, tuple(gens), symmetric=(seed // 5) % 2 == 1)


def assert_matches_all_pairs(gens, bound):
    closure = generate_closure(gens, bound)
    got = {n: closure.arity_set(n) for n in range(1, bound + 1)}
    assert got == all_pairs_closure(gens, bound)


@pytest.fixture
def one_word_splices(monkeypatch):
    """Every non-symmetric level is spliced by columns, one word per buffer,
    so every slice boundary is crossed; every symmetric level is spliced
    word by word."""
    monkeypatch.setattr(generation, "_SPLICE_BYTES", 1)
    monkeypatch.setattr(generation, "_SMALL_LEVEL", 0)


@pytest.mark.parametrize("seed", range(60))
def test_frontier_closure_matches_all_pairs_reference(seed):
    gens = random_generator_set(seed)
    assert_matches_all_pairs(gens, 4 if gens.symmetric else 5)


@pytest.mark.parametrize("seed", range(60))
def test_one_word_column_splices_match_all_pairs_reference(seed, one_word_splices):
    gens = random_generator_set(seed)
    assert_matches_all_pairs(gens, 4 if gens.symmetric else 5)


def top_byte_generator_set(seed):
    """Seeded generator sets over N256 with every letter in 200..255, so the
    products wrap around the top of the byte range; every third set also has
    the arity-1 generator 224, of order 8.  Returns the set and an arity
    bound that keeps the all-pairs reference fast."""
    rng = random.Random(seed)
    symmetric, unary = seed % 2 == 1, seed % 3 == 0
    longest = 2 if symmetric and unary else 3
    gens = [
        tuple(rng.randint(200, 255) for _ in range(rng.randint(2, longest)))
        for _ in range(rng.randint(1, 2))
    ]
    if unary:
        gens.append((224,))
    return GeneratorSet(cyclic(256), tuple(gens), symmetric), 4 - symmetric - unary


@pytest.mark.parametrize("seed", range(20))
def test_frontier_closure_matches_all_pairs_reference_at_the_top_byte(seed):
    assert_matches_all_pairs(*top_byte_generator_set(seed))


@pytest.mark.parametrize("seed", range(20))
def test_one_word_column_splices_match_all_pairs_reference_at_the_top_byte(
    seed, one_word_splices
):
    assert_matches_all_pairs(*top_byte_generator_set(seed))


def test_dias_closure_through_arity_100_equals_its_enumeration():
    """From arity 80 on, a slice of a dias level would hold at most 20
    words, so those levels are spliced word by word, as are the small levels
    below arity 22; the levels between are spliced by columns."""
    closure = closure_of("dias", 100)
    for n in range(1, 101):
        assert closure.arity_set(n) == set(map(tuple, fam.enumerate_dias(n))), n


def test_column_splices_hold_one_slice_not_the_level():
    """fcat1@11 splices its 16,796 arity-10 words into 58,786 words of arity
    11.  In slices of `_SPLICE_BYTES`, a fresh closure peaks at about 5.4 MB
    traced, most of it the arity-11 set; laying the whole level at once,
    8.6 MB.  The peak is bounded, not its excess over the family: the family
    holds blocks only, while the level's set is the peak."""
    gens = fam.get_family("fcat1").generator_set()
    _, peak = traced_peak(lambda: generate_closure(gens, 11))
    assert len(generate_closure(gens, 11).by_arity[11]) == 58_786
    assert peak < 6 * 10**6


def test_a_closure_holds_one_level_set_at_a_time():
    """A fresh fcat1@12 closure peaks at about 20.8 MB traced, most of it
    the set of its 208,012 arity-12 words, sort included: the set is turned
    into a list and dropped before the list is sorted and joined.  Keeping
    the arity-11 set until that one was done, and handing it to the family,
    took 25.5 MB."""
    gens = fam.get_family("fcat1").generator_set()
    with nothing_kept():
        _, peak = traced_peak(lambda: generate_closure(gens, 12))
        dimensions = generate_closure(gens, 12).dimensions()
    assert peak < 23 * 10**6
    assert dimensions[11] == 208_012


@pytest.mark.parametrize("symmetric", [False, True])
def test_arity_one_generators_close_each_level_in_itself(symmetric):
    """Over N6 the arity-1 generator 2 has order 3 and (0, 3) mixes the
    classes mod 3, so each level's frontier grows over several rounds."""
    gens = GeneratorSet(cyclic(6), ((2,), (0, 3), (1, 1, 4)), symmetric)
    assert_matches_all_pairs(gens, 4 if symmetric else 5)


def test_closures_over_monoids_that_do_not_commute_match_all_pairs_reference():
    """Over T2, every set of two arity-2 generators; over T3, seeded sets of
    one or two generators (e, a), e the unit.  A level of over
    `_SMALL_LEVEL` words is laid by columns, and a letter x_i must multiply
    each letter of g on the left: 16 of the T2 sets and 7 of the T3 sets
    found too many words at arity 5 when it multiplied on the right."""
    T2, T3 = transformations(2), transformations(3)
    sets = [GeneratorSet(T2, pair)
            for pair in itertools.combinations(itertools.product(T2.elements(), repeat=2), 2)]
    for seed in range(30):
        rng = random.Random(seed)
        letters = [rng.choice(T3.elements()) for _ in range(rng.randint(1, 2))]
        sets.append(GeneratorSet(T3, tuple((T3.unit, a) for a in letters)))
    for gens in sets:
        assert_matches_all_pairs(gens, 5)


def test_letters_above_255_are_refused():
    with pytest.raises(ValueError, match="letter 256 over N "):
        generate_closure(GeneratorSet(NATURALS, ((0, 256),)), 2)
    # (0, 128) packs, but splicing it at its own 128 gives the block (128, 256)
    gens = GeneratorSet(cyclic(300), ((0, 128),))
    assert generate_closure(gens, 2).dimensions() == (1, 1)
    with pytest.raises(ValueError, match="letter 256 over N300 "):
        generate_closure(gens, 3)


def test_letters_above_255_are_refused_only_where_a_word_holds_them():
    # 01 o_2 (0, 0, 255) would hold 256, but it is above the arity bound
    gens = GeneratorSet(NATURALS, ((0, 1), (0, 0, 255)))
    closure = generate_closure(gens, 3)
    assert [closure.words(n) for n in (1, 2, 3)] == [
        [(0,)],
        [(0, 1)],
        [(0, 0, 255), (0, 1, 1), (0, 1, 2)],
    ]
    with pytest.raises(ValueError, match="letter 256 over N "):
        generate_closure(gens, 4)


# ---------------------------------------------------------------------------
# closures kept across calls


def fresh_closure(gens, bound):
    """The closure computed with no kept level, leaving the kept ones as
    they were."""
    with nothing_kept():
        return generate_closure(gens, bound)


def refusal(gens, bound):
    with pytest.raises(ValueError) as refused:
        generate_closure(gens, bound)
    return str(refused.value)


@pytest.mark.parametrize("seed", range(60))
def test_kept_closure_equals_a_fresh_one(seed):
    """Each set is asked at rising, falling and repeated bounds; every
    answer, kept levels read or extended, equals a fresh closure, and reads
    alike in a seeded order: its words, export, membership, truncations and
    comparisons, whichever of them sorts a kept level first."""
    gens = random_generator_set(seed)
    rng = random.Random(seed)
    top = 4 if gens.symmetric else 5
    rising = sorted(rng.sample(range(max(map(len, gens.generators)), top + 1), 2))
    letters = range(4) if gens.monoid.size is None else gens.monoid.elements()
    for bound in rising + [top, top] + rising[::-1] + [rng.randint(rising[0], top)]:
        kept, fresh = generate_closure(gens, bound), fresh_closure(gens, bound)
        probes = [w for n in range(1, bound + 1) for w in fresh.words(n)[:5]] + [
            tuple(rng.choice(letters) for _ in range(rng.randint(0, bound + 1)))
            for _ in range(10)
        ]
        cut = rng.randint(1, bound)
        reads = [
            lambda f: [f.words(n) for n in range(bound + 2)],
            lambda f: f.to_jsonl(),
            lambda f: [f.contains(w) for w in probes],
            lambda f: (f.truncate(cut) == fresh.truncate(cut), f.truncate(cut).words(cut)),
            lambda f: (equals_predicate(f, fresh), equals_predicate(fresh, f)),
            lambda f: f.dimensions(),
        ]
        rng.shuffle(reads)
        for read in reads:
            assert read(kept) == read(fresh), bound
        assert kept == fresh, bound


def kept_key(gens):
    """The key a closure of `gens` is kept under at the guard in force."""
    return gens, generation.MAX_CLOSURE_CANDIDATES


def kept_state(gens):
    kept = generation._kept[kept_key(gens)][0]
    return list(kept.blocks), kept.candidates


def test_memo_keeps_the_sets_used_last_within_its_bytes(monkeypatch):
    """97 seeded sets closed to arity 4 state 5,776 bytes of blocks; under a
    2,000-byte budget the sets used last are kept, a set used again over
    older ones, and an evicted set asked again answers as a fresh one,
    refusals too."""
    monkeypatch.setattr(generation, "_KEPT_BYTES", 2000)
    sets = list(dict.fromkeys(random_generator_set(seed) for seed in range(100)))
    for gens in sets:
        generate_closure(gens, 4)
        generate_closure(sets[0], 3)
    kept = generation._kept
    assert kept.total == sum(size for _, size in kept.values()) <= 2000
    assert 10 < len(kept) < len(sets) - 10
    assert list(kept)[-1] == kept_key(sets[0])
    assert list(kept)[:-1] == [kept_key(gens) for gens in sets[1 - len(kept):]]
    assert kept_key(sets[1]) not in kept
    monkeypatch.setattr(generation, "MAX_CLOSURE_CANDIDATES", 3)
    refused = outcome(generate_closure, sets[1], 5)
    assert refused == "4 candidates through arity 5 exceed the 3 guard"
    for bound in (4, 5, 3, 5):
        assert outcome(generate_closure, sets[1], bound) == outcome(fresh_closure, sets[1], bound)
    monkeypatch.undo()
    assert generate_closure(sets[1], 5) == fresh_closure(sets[1], 5)
    assert list(generation._kept)[-1] == kept_key(sets[1])


def outcome(close, gens, bound):
    """The closure, or the message it is refused with."""
    try:
        return close(gens, bound)
    except ValueError as refused:
        return str(refused)


def test_kept_closure_holds_one_joined_level_per_arity():
    """A kept level n is one `bytes` of n bytes a word, never a set."""
    cases = [
        (fam.get_family("fcat1").generator_set(), 9),
        (fam.get_family("pw").generator_set(), 6),
        (GeneratorSet(cyclic(3), ((1,), (0, 1))), 5),
    ]
    for gens, bound in cases:
        family = generate_closure(gens, bound)
        generate_closure(gens, bound - 2)
        blocks, _ = kept_state(gens)
        assert len(blocks) == bound
        for n, block in enumerate(blocks, 1):
            assert type(block) is bytes and len(block) == n * len(family.by_arity[n])
            assert frozenset(generation._unpacked(block, n)) == family.by_arity[n]


INVARIANT_CASES = {
    "fresh": (fam.get_family("fcat1").generator_set(), 8),
    "deeper": (fam.get_family("schr").generator_set(), 6),
    "symmetric": (fam.get_family("pw").generator_set(), 6),
    "arity-1": (GeneratorSet(cyclic(6), ((2,), (0, 3), (1, 1, 4))), 5),
}


@pytest.mark.parametrize("case", sorted(INVARIANT_CASES))
def test_every_kept_block_is_sorted_when_made_and_no_read_changes_it(case):
    """Each block is in bytes order as soon as its level is laid, fresh or
    extending a kept closure, symmetric or closed by an arity-1 generator;
    the ordered reads then leave every kept block the same object and the
    registry's bytes as they were."""
    gens, bound = INVARIANT_CASES[case]
    if case == "deeper":
        generate_closure(gens, bound - 2)
    family = generate_closure(gens, bound)
    blocks, _ = kept_state(gens)
    assert len(blocks) == bound
    for n, block in enumerate(blocks, 1):
        assert block == b"".join(sorted(generation._unpacked(block, n)))
    total = generation._kept.total
    for n in range(1, bound + 1):
        family.words(n)
    family.write_jsonl(io.StringIO())
    expected = fresh_closure(gens, bound)
    assert family == expected
    assert equals_predicate(family, expected).ok
    after, _ = kept_state(gens)
    assert len(after) == bound and all(a is b for a, b in zip(after, blocks))
    assert generation._kept.total == total


# sha256 of each `gen --out` file, as written by a closure that kept nothing
KEPT_EXPORT_DIGESTS = {
    "fcat1@11": "9311516ac540881b358ea751746fccd667db99f746c65e525b00397c040816ee",
    "schr@9": "fdc640397c68038211849b6c05cd93d2bd08100ea27a3aafd694f03e446e6e10",
    "comp@14": "06a849ac82dc606b2405ded84150aada3e91f904a85bd45bd2a0d420dd7c1cac",
    "pw@7": "adcabd2ff050a6afc6c6195668606ee08406f9588095606e2adf7ddc08091f87",
    "motz@12": "bf848ff08a89839eed1820129328c8d6f514a6b4ef77c8babfea74d386448187",
    "da@10": "8116f734b6ed6e08ad35a267baa30ccba25cd868a343346fc2aa3d0bd256c47f",
}


@pytest.mark.parametrize("spec", sorted(KEPT_EXPORT_DIGESTS))
def test_exports_from_kept_levels_are_pinned(spec, tmp_path, capsys):
    """`gen --out` after a shallower request of the same set, and again
    after it, writes the bytes a fresh closure wrote."""
    operad, bound = spec.split("@")
    assert main(["dims", "--operad", operad, "--max-arity", str(int(bound) - 3)]) == 0
    for name in ("extended", "read"):
        path = tmp_path / name
        assert main(["gen", "--operad", operad, "--max-arity", bound, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == KEPT_EXPORT_DIGESTS[spec], name


@pytest.mark.parametrize("cap", [1, 50, 400, 3000])
def test_kept_closure_is_refused_by_the_guard_as_a_fresh_one(monkeypatch, cap):
    """Read from kept levels, a closure is refused, message for message, at
    the bounds where a fresh one is, and served at the others."""
    gens = fam.get_family("schr").generator_set()
    generate_closure(gens, 6)
    monkeypatch.setattr(generation, "MAX_CLOSURE_CANDIDATES", cap)
    for bound in (6, 4, 2):
        expected = outcome(fresh_closure, gens, bound)
        assert outcome(generate_closure, gens, bound) == expected, bound


def test_refused_extension_keeps_the_kept_levels(monkeypatch, capsys):
    gens = fam.get_family("prt").generator_set()
    monkeypatch.setattr(generation, "MAX_CLOSURE_CANDIDATES", 1000)
    assert "1000 guard" in refusal(gens, 12)
    assert generation._kept == {}  # a refused first closure keeps nothing
    assert main(["dims", "--operad", "prt", "--max-arity", "5"]) == 0
    before = kept_state(gens)
    assert main(["dims", "--operad", "prt", "--max-arity", "12"]) == 2
    assert kept_state(gens) == before
    monkeypatch.setattr(generation, "MAX_CLOSURE_CANDIDATES", 10**6)
    assert generate_closure(gens, 12) == fresh_closure(gens, 12)


def test_kept_closure_is_refused_a_letter_above_255_as_a_fresh_one():
    gens = GeneratorSet(cyclic(300), ((0, 128),))
    assert generate_closure(gens, 2).dimensions() == (1, 1)
    message = refusal(gens, 3)
    assert message.startswith("letter 256 over N300 ")
    assert len(kept_state(gens)[0]) == 2
    generation._kept.clear()
    assert refusal(gens, 3) == message


def test_each_kept_level_is_sorted_once(monkeypatch, tmp_path, capsys):
    """Each level is sorted as it is laid: two exports, `check bijections`
    and `check characterization` of prt sort arities 1 to 8 once each, and
    every kept block is in bytes order."""
    sort = generation._sort
    sorted_arities = []

    def counting(words):
        sorted_arities.append(len(words[0]))
        return sort(words)

    monkeypatch.setattr(generation, "_sort", counting)
    out = str(tmp_path / "words.jsonl")
    for argv in (["gen", "--out", out], ["gen", "--out", out], ["check", "bijections"],
                 ["check", "characterization"]):
        assert main(argv + ["--operad", "prt", "--max-arity", "8"]) == 0
    assert sorted(sorted_arities) == list(range(1, 9))
    blocks, _ = kept_state(fam.get_family("prt").generator_set())
    for n, block in enumerate(blocks, 1):
        assert block == b"".join(sorted(generation._unpacked(block, n)))


def test_an_interrupted_sort_keeps_no_new_level(monkeypatch):
    """A sort interrupted while a deeper call lays arity 6 keeps neither
    arity 5 nor 6: the kept closure is as it was, and the next call equals
    the enumeration."""
    gens = fam.get_family("fcat1").generator_set()
    generate_closure(gens, 4)
    before = kept_state(gens)
    sort = generation._sort

    def interrupted(words):
        if len(words[0]) == 6:
            raise KeyboardInterrupt
        return sort(words)

    monkeypatch.setattr(generation, "_sort", interrupted)
    with pytest.raises(KeyboardInterrupt):
        generate_closure(gens, 6)
    assert kept_state(gens) == before
    monkeypatch.undo()
    family = generate_closure(gens, 6)
    assert family.dimensions() == (1, 2, 5, 14, 42, 132)
    assert family == fam.get_family("fcat1").enumerated(6)


@pytest.mark.parametrize("command", ["dims", "gen"])
def test_reading_a_kept_closure_builds_no_word(command, capsys):
    """Reading the kept fcat1@11, 82,499 words, allocates a few kilobytes,
    where rebuilding each level's set took megabytes."""
    argv = [command, "--operad", "fcat1", "--max-arity", "11"]
    assert main(argv) == 0

    def read():
        assert main(argv) == 0

    _, peak = traced_peak(read)
    assert peak < 64 * 1024


def test_refused_letter_is_the_least_refused_source_letter():
    """Letters 100, 150 and 200 would each leave a product above 255; the
    least is checked first, whatever the order of the level's words."""
    gens = GeneratorSet(NATURALS, ((0, 100), (0, 150), (0, 200)))
    assert refusal(gens, 3).startswith("letter 300 over N ")


def test_contains_is_false_for_words_that_cannot_be_packed():
    closure = closure_of("fcat1", 4)
    assert closure.contains((0, 1))
    assert not closure.contains((0, 256))
    assert not closure.contains((0, -1))
    assert not closure.contains(())


@pytest.mark.parametrize("seed", range(30))
def test_arrangements_are_the_distinct_permutations(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    alphabet = rng.sample(range(256), rng.randint(1, 3))
    sorted_word = bytes(sorted(rng.choice(alphabet) for _ in range(n)))
    memo = {}
    got = _arrangements(sorted_word, memo)
    assert len(got) == len(set(got))
    assert set(got) == set(map(bytes, itertools.permutations(sorted_word)))
    multinomial = math.factorial(n)
    for a in set(sorted_word):
        multinomial //= math.factorial(sorted_word.count(a))
    assert len(got) == multinomial
    assert _arrangements(sorted_word, memo) is got


def symmetric_generator_set(seed):
    """Seeded symmetric sets over N2, N3, B01 and N, two each, and a set over
    N256 whose letters wrap around the top of the byte range; with a bound."""
    if seed == 8:
        return GeneratorSet(cyclic(256), ((200, 255), (231, 224, 255)), True), 4
    rng = random.Random(500 + seed)
    name = ("N2", "N3", "B01", "N")[seed % 4]
    m = parse_monoid(name)
    letters = range(3) if name == "N" else m.elements()
    gens = [
        tuple(rng.choice(letters) for _ in range(rng.randint(2, 3)))
        for _ in range(rng.randint(1, 3))
    ]
    return GeneratorSet(m, tuple(gens), symmetric=True), 5


@pytest.mark.parametrize("seed", range(9))
def test_symmetric_family_edges_expand_every_orbit(seed):
    gens, bound = symmetric_generator_set(seed)
    closure = generate_closure(gens, bound)
    arities = range(1, bound + 1)
    full = {
        n: {v for w in closure.by_arity[n] for v in set(itertools.permutations(w))}
        for n in arities
    }
    assert closure.symmetric
    assert all(list(w) == sorted(w) for n in arities for w in closure.by_arity[n])
    for n in arities:
        assert closure.words(n) == sorted(full[n])
        assert closure.arity_set(n) == full[n]
    ordered = [w for n in arities for w in sorted(full[n])]
    assert list(closure.iter_all()) == ordered
    assert closure.dimensions() == tuple(len(full[n]) for n in arities)
    m = closure.monoid
    assert closure.to_jsonl() == "\n".join(Word(m, w).to_record() for w in ordered) + "\n"
    letters = sorted(set(itertools.chain.from_iterable(ordered)) | {m.unit})
    for n in range(1, 4):
        for w in itertools.product(letters, repeat=n):
            assert closure.contains(w) == (w in full[n]), w
    assert all(closure.contains(w) for w in ordered)
    small = closure.truncate(3)
    assert small.symmetric and small.dimensions() == closure.dimensions()[:3]
    assert all(small.arity_set(n) == full[n] for n in range(1, 4))


def test_pw_closure_keeps_one_sorted_word_per_composition():
    closure = generate_closure(fam.get_family("pw").generator_set(), 9)
    assert [len(closure.by_arity[n]) for n in range(1, 10)] == [
        2 ** (n - 1) for n in range(1, 10)
    ]
    for n in range(1, 10):
        for w in closure.by_arity[n]:
            assert list(w) == sorted(w) and fam.is_twisted_packed_word(tuple(w))


def test_truncate_upward_rejected():
    with pytest.raises(ValueError):
        closure_of("comp", 4).truncate(5)


# ---------------------------------------------------------------------------
# predicate comparison


@pytest.mark.parametrize("name,bound", [("prt", 7), ("comp", 8), ("fcat0", 8), ("pw", 5)])
def test_equals_predicate(name, bound):
    family = fam.get_family(name)
    verdict = equals_predicate(family.closure(bound), family.enumerated(bound))
    assert verdict.ok, str(verdict)


def test_fcat0_is_the_all_zero_family():
    closure = closure_of("fcat0", 8)
    for n in range(1, 9):
        assert closure.arity_set(n) == {(0,) * n}


def test_equals_predicate_reports_mismatch():
    verdict = equals_predicate(closure_of("fcat1", 5), fam.get_family("prt").enumerated(5))
    assert not verdict.ok
    assert verdict.arity == 2
    assert verdict.extra == (0, 0)  # generated by fcat1, rejected for trees
    assert "mismatch" in str(verdict)


def set_verdict(family, expected):
    """The verdict of comparing the two families' words as sets."""
    for n in range(1, max(family.max_arity, expected.max_arity) + 1):
        got, want = family.arity_set(n), expected.arity_set(n)
        if got != want:
            return ComparisonVerdict(
                False, n, min(want - got, default=None), min(got - want, default=None)
            )
    return ComparisonVerdict(True)


@pytest.mark.parametrize("name,bound", [("prt", 6), ("motz", 6), ("pw", 4)])
def test_enumeration_with_repeats_compares_as_its_set(name, bound):
    """An enumerator that repeats members, out of order, and one that also
    drops its least member, give the verdicts the set comparison gives."""
    family = fam.get_family(name)

    def repeating(n):
        words = family.enumerate_arity(n)
        return words[::-1] + words[: n % 3]

    def dropping(n):
        words = family.enumerate_arity(n)
        return (words[1:] + words[1:2])[::-1] if n > 2 else words

    closure = family.closure(bound)
    for enumerate_arity in (repeating, dropping):
        noisy = dataclasses.replace(family, enumerate_arity=enumerate_arity).enumerated(bound)
        assert equals_predicate(closure, noisy) == set_verdict(closure, noisy)
        assert equals_predicate(noisy, closure) == set_verdict(noisy, closure)
    assert equals_predicate(closure, noisy).extra == tuple(family.enumerate_arity(3)[0])


def test_equals_predicate_monoid_mismatch():
    verdict = equals_predicate(closure_of("comp", 4), fam.get_family("prt").enumerated(4))
    assert not verdict.ok and "monoid" in verdict.detail


def test_equals_predicate_symmetry_mismatch():
    """The same words, marked symmetric on one side only, are not compared:
    the verdict names the symmetry, not a missing or extra word."""
    closure = closure_of("pw", 5)
    plain = GradedFamily(closure.monoid, 5, closure.by_arity)
    for family, expected in ((closure, plain), (plain, closure)):
        verdict = equals_predicate(family, expected)
        assert not verdict.ok and "symmetry" in verdict.detail
        assert (verdict.arity, verdict.missing, verdict.extra) == (None, None, None)


# ---------------------------------------------------------------------------
# quotients and non-generation


def test_quotient_images():
    assert (
        quotient_image(closure_of("fcat1", 6), reduce_mod(2)).by_arity
        == closure_of("comp", 6).by_arity
    )
    assert (
        quotient_image(closure_of("fcat2", 5), reduce_mod(3)).by_arity
        == closure_of("scomp", 5).by_arity
    )
    comp = closure_of("comp", 5)
    assert quotient_image(comp, identity_morphism(cyclic(2))).by_arity == comp.by_arity


def test_quotient_image_of_a_symmetric_family_maps_every_word():
    # mod 2 sends the sorted word 012 to 010, which must be sorted again
    pw = closure_of("pw", 5)
    image = quotient_image(pw, reduce_mod(2))
    assert image.symmetric
    for n in range(1, 6):
        mapped = {tuple(a % 2 for a in w) for w in pw.arity_set(n)}
        assert image.arity_set(n) == mapped
        assert image.words(n) == sorted(mapped)
    assert image.dimensions() == tuple(len(image.arity_set(n)) for n in range(1, 6))


def test_quotient_image_holds_one_chunk_not_the_family():
    """fcat1@11 holds 82,499 words.  Its image mod 2 allocates at its peak
    about 0.2 MB over the image; joining every word at once took about 8 MB."""
    family = generate_closure(fam.get_family("fcat1").generator_set(), 11)
    kept, peak = traced_peak(lambda: quotient_image(family, reduce_mod(2)))
    image = quotient_image(family, reduce_mod(2))
    assert image.dimensions() == tuple(2 ** (n - 1) for n in range(1, 12))
    assert peak - kept < 2 * 10**6


def test_quotient_image_reads_one_chunk_at_a_time():
    """Mapping fcat1@11 mod 2 a `_CHUNK` of words at a time, letters found
    and words translated alike, peaks about 0.2 MB over its image; reading
    the whole arity-11 block at once took 0.75 MB."""
    family = generate_closure(fam.get_family("fcat1").generator_set(), 11)
    kept, peak = traced_peak(lambda: quotient_image(family, reduce_mod(2)))
    assert peak - kept < 4 * 10**5


def test_quotient_image_names_the_least_refused_letter():
    times_100 = Morphism(NATURALS, NATURALS, lambda a: 100 * a)
    # fcat1@5 holds the letters 0..4, of which 3 and 4 go above 255
    with pytest.raises(ValueError, match="letter 300 over N "):
        quotient_image(closure_of("fcat1", 5), times_100)


def test_quotient_image_above_255_is_refused():
    times_200 = Morphism(NATURALS, NATURALS, lambda a: 200 * a)
    assert quotient_image(closure_of("fcat1", 2), times_200).dimensions() == (1, 2)
    with pytest.raises(ValueError, match="letter 400 over N "):
        quotient_image(closure_of("fcat1", 3), times_200)


def test_quotient_image_source_mismatch():
    with pytest.raises(ValueError):
        quotient_image(closure_of("comp", 4), reduce_mod(2))


def test_constant_word_is_not_generated_from_lower_arities():
    # the all-(n-1) word of arity n is out of reach of smaller endofunctions
    n = 4
    gens = list(fam.get_family("end").enumerated(n - 1).iter_all())
    assert len(gens) == 1 + 4 + 27
    closure = generate_closure(GeneratorSet(NATURALS, tuple(gens), symmetric=True), n)
    assert not closure.contains((n - 1,) * n)
    # sanity: plenty of other arity-4 words are generated
    assert len(closure.arity_set(n)) > 0


def test_end_pf_pw_are_stable_under_substitution_and_action():
    members = {
        "end": fam.is_twisted_endofunction,
        "pf": fam.is_twisted_parking_function,
        "pw": fam.is_twisted_packed_word,
    }
    sizes = {
        "end": [1, 4, 27, 256, 3125],
        "pf": [1, 3, 16, 125, 1296],
        "pw": [1, 3, 13, 75, 541],
    }
    for name, member in members.items():
        enumerated = fam.get_family(name).enumerated(5)
        pools = {n: enumerated.words(n) for n in range(1, 6)}
        assert [len(pools[n]) for n in range(1, 6)] == sizes[name], name
        for a in range(1, 6):
            for xl in pools[a]:
                for sigma in all_perms(a):
                    assert member(tuple(xl[j - 1] for j in sigma))
            for b in range(1, 7 - a):
                for xl in pools[a]:
                    for yl in pools[b]:
                        for i in range(1, a + 1):
                            out = substitute(
                                Word(NATURALS, xl), i, Word(NATURALS, yl)
                            )
                            assert member(out.letters), (name, xl, i, yl)


# ---------------------------------------------------------------------------
# export


@pytest.mark.parametrize(
    "family",
    [
        lambda: closure_of("fcat1", 5),
        lambda: closure_of("da", 5),
        lambda: generate_closure(GeneratorSet(BOOLEAN, ((0, 1), (1, 1, 0))), 5),
        lambda: generate_closure(
            GeneratorSet(cyclic(256), ((200, 255), (255, 231, 224))), 4
        ),
    ],
    ids=["fcat1-N", "da-N3", "custom-B01", "top-byte-N256"],
)
def test_jsonl_lines_are_word_records(family):
    closure = family()
    expected = [Word(closure.monoid, w).to_record() for w in closure.iter_all()]
    assert closure.to_jsonl() == "\n".join(expected) + "\n"


def test_jsonl_export_checks_the_carrier():
    family = GradedFamily(cyclic(2), 2, {1: frozenset({b"\0"}), 2: frozenset({b"\0\2"})})
    with pytest.raises(CarrierError):
        family.to_jsonl()


def test_jsonl_export_sorted_and_deterministic():
    closure = closure_of("comp", 4)
    text = closure.to_jsonl()
    again = fam.get_family("comp").closure(4).to_jsonl()
    assert text == again
    records = [json.loads(line) for line in text.splitlines()]
    assert len(records) == sum(closure.dimensions())
    keys = [(len(r["letters"]), r["letters"]) for r in records]
    assert keys == sorted(keys)
    assert all(r["monoid"] == "N2" for r in records)


# ---------------------------------------------------------------------------
# streamed export


def _reference_jsonl(family):
    """Every word of each arity, orbits expanded through all permutations,
    sorted and written as `Word.to_record` lines."""
    lines = []
    for n in range(1, family.max_arity + 1):
        words = family.by_arity.get(n, ())
        if family.symmetric:
            words = {p for w in words for p in itertools.permutations(w)}
        lines += (Word(family.monoid, tuple(w)).to_record() for w in sorted(words))
    return "".join(line + "\n" for line in lines)


class _Writes:
    """A text handle that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


STREAMED = {
    # 4,862 words at arity 9, past one chunk
    "fcat1@9": lambda: closure_of("fcat1", 9),
    # seven first-letter groups at arity 7
    "pw@7": lambda: closure_of("pw", 7),
    "symmetric-N3": lambda: generate_closure(
        GeneratorSet(parse_monoid("N3"), ((0, 1), (1, 2, 2), (2, 0)), symmetric=True), 6
    ),
    "N256": lambda: generate_closure(
        GeneratorSet(cyclic(256), ((8, 97), (200, 255, 231))), 4
    ),
}


# sha256 of each `gen --out` file: every finitely generated preset at arity
# 7, fcat1@9 (past one chunk) and the custom sets of STREAMED, as written
# while each word's line was still formatted by itself
EXPORT_DIGESTS = {
    "N256": "17597976990a010cefaab04af3010d623a58cdb759505b14a75a01706a06c87e",
    "comp@7": "04ce105d26da3a305d7f614459dc754dac1d54cd1053b8f79e0e28ecf95cc5aa",
    "da@7": "69be7994f3355c6267a29ce3459af90d99222c697696baf70b7274a34f670b7f",
    "dias@7": "233f9fd462456c1312b945b0191da3c527e32d217d7f3de59794fc2a2a1d512b",
    "fcat0@7": "e2546c10492498977f14c09be5ba0cb7dda5575fd490ccdce88c05272e00b0a6",
    "fcat1@7": "a82d599dd2f85891d636ec4d85cca0ee2febd61ebdb09137fd3c3782bbe3dffa",
    "fcat1@9": "4cc697c25bcfee90c14c86a450cc01320178accfde8b49eebfbcba37c214c121",
    "fcat2@7": "debf68bc253c845a9649361f22f07d99c32c6abb4ad42fdd724f4f72913cdaa4",
    "fcat3@7": "9ae0cea973fb9caec3c5a99c58e44ec425280f3477d55f08faeb3864fd10a519",
    "motz@7": "b2fc98ee2bf43eb4d90a771170efc382af450ff92a8e7021d4a30449df47165c",
    "prt@7": "928ad0dc0bfcfc44da0ba6c71e13538a9eb1bd318859748c70b635de926f689c",
    "pw@7": "adcabd2ff050a6afc6c6195668606ee08406f9588095606e2adf7ddc08091f87",
    "schr@7": "74ea6a1f54abe48c6bcc9e8eb0f2dc6cd165f0d401641856b7c6346ed6aec8c8",
    "scomp@7": "ffd1f7de80fe39a99bee552718eb3490864d19df984149aebe1c6316777519aa",
    "symmetric-N3": "5a09156cf5bf9f1ccb63467c7de569b31f1f1d10e945a009ee9b2cefb1a677c8",
}


def test_every_finitely_generated_preset_export_is_pinned():
    presets = {name for name, f in fam.FAMILIES.items() if f.finitely_generated}
    assert {name.split("@")[0] for name in EXPORT_DIGESTS if "@" in name} == presets
    assert set(STREAMED) <= set(EXPORT_DIGESTS)


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_bytes_are_pinned(name, tmp_path, capsys):
    """A preset goes through `gen --out`; a custom set, whose letters the
    command line cannot spell, is written to a file opened as `gen` opens it."""
    path = tmp_path / "words.jsonl"
    if "@" in name:
        operad, bound = name.split("@")
        assert main(["gen", "--operad", operad, "--max-arity", bound, "--out", str(path)]) == 0
    else:
        with open(path, "w", encoding="utf-8") as handle:
            STREAMED[name]().write_jsonl(handle)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_export_is_the_whole_text(name, tmp_path):
    family = STREAMED[name]()
    path = tmp_path / "words.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        family.write_jsonl(handle)
    expected = _reference_jsonl(family)
    assert path.read_bytes() == expected.encode()
    assert family.to_jsonl() == expected


def test_streamed_export_crosses_a_chunk_boundary():
    family = STREAMED["fcat1@9"]()
    assert len(family.by_arity[9]) > generation._CHUNK
    handle = _Writes()
    family.write_jsonl(handle)
    sizes = [text.count("\n") for text in handle.writes]
    assert max(sizes) == generation._CHUNK
    assert sum(sizes) == sum(family.dimensions())
    assert "".join(handle.writes) == family.to_jsonl()


@pytest.mark.parametrize("name", ["pw@7", "symmetric-N3", "N256"])
@pytest.mark.parametrize("chunk", [1, 7])
def test_small_chunks_split_first_letter_groups_alike(monkeypatch, name, chunk):
    """N256's words mix letters of one, two and three digits."""
    family = STREAMED[name]()
    expected = _reference_jsonl(family)
    monkeypatch.setattr(generation, "_CHUNK", chunk)
    handle = _Writes()
    family.write_jsonl(handle)
    assert max(text.count("\n") for text in handle.writes) == chunk
    assert "".join(handle.writes) == expected


@pytest.mark.parametrize("chunk", [1, 2, 4096])
def test_export_of_mixed_digit_widths_is_the_literal_text(monkeypatch, chunk):
    """Letters of one, two and three digits side by side, the widest first
    or last in a word, and a three-digit letter alone in its arity."""
    family = GradedFamily(
        cyclic(256),
        3,
        {
            1: frozenset({b"\0", b"\xff"}),
            3: frozenset({bytes((0, 9, 10)), bytes((99, 100, 255)), bytes((255, 0, 99))}),
        },
    )
    monkeypatch.setattr(generation, "_CHUNK", chunk)
    assert family.to_jsonl() == (
        '{"monoid": "N256", "letters": [0]}\n'
        '{"monoid": "N256", "letters": [255]}\n'
        '{"monoid": "N256", "letters": [0, 9, 10]}\n'
        '{"monoid": "N256", "letters": [99, 100, 255]}\n'
        '{"monoid": "N256", "letters": [255, 0, 99]}\n'
    )


def test_symmetric_runs_share_their_first_two_letters():
    """pw@7 is listed one run per first two letters, in increasing order."""
    family = STREAMED["pw@7"]()
    runs = list(family._sorted_runs(7))
    prefixes = [{w[:2] for w in run} for run in runs]
    assert all(len(p) == 1 for p in prefixes)
    assert len(set().union(*prefixes)) == len(runs)
    assert [w for run in runs for w in run] == sorted(
        {bytes(p) for w in family.by_arity[7] for p in itertools.permutations(w)}
    )


@pytest.mark.parametrize("chunk", [1, 4096])
def test_streamed_export_checks_the_carrier_before_writing(monkeypatch, chunk):
    """A letter outside the carrier in the last word of the last arity, or
    in an orbit word, is refused before the first line is written."""
    monkeypatch.setattr(generation, "_CHUNK", chunk)
    plain = GradedFamily(
        cyclic(2), 2, {1: frozenset({b"\0"}), 2: frozenset({b"\0\0", b"\0\1", b"\1\2"})}
    )
    orbits = GradedFamily(
        cyclic(3), 2, {1: frozenset({b"\0"}), 2: frozenset({b"\1\3"})}, symmetric=True
    )
    for family in (plain, orbits):
        handle = io.StringIO()
        with pytest.raises(CarrierError):
            family.write_jsonl(handle)
        assert handle.getvalue() == ""


def test_export_finds_its_letters_one_chunk_at_a_time():
    """fcat1@12's arity-12 block holds 2.50 MB.  With every level sorted, its
    export peaks about 0.95 MB over the family; finding the letters by one
    `translate` of each whole block copied that block, 2.50 MB."""
    family = closure_of("fcat1", 12)
    with open(os.devnull, "w", encoding="utf-8") as handle:
        family.write_jsonl(handle)  # sorts every level
        _, peak = traced_peak(lambda: family.write_jsonl(handle))
    assert peak < 1.5 * 10**6


@pytest.mark.parametrize("name,bound_mb", [("pw", 4), ("fcat1", 2)])
def test_streamed_export_holds_one_chunk_not_the_text(name, bound_mb):
    """Streaming pw@7 or fcat1@10 allocates at its peak about 1.5 MB and
    1.0 MB over the family; building the whole text first, as `to_jsonl`
    did before exports were streamed, peaked at 11.8 MB and 4.9 MB."""
    family = closure_of(name, 7 if name == "pw" else 10)
    with open(os.devnull, "w", encoding="utf-8") as handle:
        _, peak = traced_peak(lambda: family.write_jsonl(handle))
    assert peak < bound_mb * 10**6
