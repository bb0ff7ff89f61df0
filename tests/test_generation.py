import itertools
import json
import random

import pytest

from opwords import families as fam
from opwords.generation import (
    ComparisonVerdict,
    GeneratorSet,
    GradedFamily,
    equals_predicate,
    generate_closure,
    quotient_image,
)
from opwords.monoids import (
    BOOLEAN,
    CarrierError,
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


@pytest.mark.parametrize("seed", range(60))
def test_frontier_closure_matches_all_pairs_reference(seed):
    gens = random_generator_set(seed)
    bound = 4 if gens.symmetric else 5
    assert generate_closure(gens, bound).by_arity == all_pairs_closure(gens, bound)


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
    gens, bound = top_byte_generator_set(seed)
    assert generate_closure(gens, bound).by_arity == all_pairs_closure(gens, bound)


def test_letters_above_255_are_refused():
    with pytest.raises(ValueError, match="letter 256 over N "):
        generate_closure(GeneratorSet(NATURALS, ((0, 256),)), 2)
    # (0, 128) packs, but splicing it at its own 128 gives the block (128, 256)
    gens = GeneratorSet(cyclic(300), ((0, 128),))
    assert generate_closure(gens, 2).dimensions() == (1, 1)
    with pytest.raises(ValueError, match="letter 256 over N300 "):
        generate_closure(gens, 3)


def test_truncate_upward_rejected():
    with pytest.raises(ValueError):
        closure_of("comp", 4).truncate(5)


# ---------------------------------------------------------------------------
# predicate comparison


@pytest.mark.parametrize("name,bound", [("prt", 7), ("comp", 8), ("fcat0", 8)])
def test_equals_predicate(name, bound):
    family = fam.get_family(name)
    verdict = equals_predicate(family.closure(bound), family)
    assert verdict.ok, str(verdict)


def test_fcat0_is_the_all_zero_family():
    closure = closure_of("fcat0", 8)
    for n in range(1, 9):
        assert closure.arity_set(n) == {(0,) * n}


def test_equals_predicate_reports_mismatch():
    verdict = equals_predicate(closure_of("fcat1", 5), fam.get_family("prt"))
    assert not verdict.ok
    assert verdict.arity == 2
    assert verdict.extra == (0, 0)  # generated by fcat1, rejected for trees
    assert "mismatch" in str(verdict)


def test_equals_predicate_monoid_mismatch():
    verdict = equals_predicate(closure_of("comp", 4), fam.get_family("prt"))
    assert not verdict.ok and "monoid" in verdict.detail


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


def test_quotient_image_source_mismatch():
    with pytest.raises(ValueError):
        quotient_image(closure_of("comp", 4), reduce_mod(2))


def test_constant_word_is_not_generated_from_lower_arities():
    # the all-(n-1) word of arity n is out of reach of smaller endofunctions
    n = 4
    gens = []
    for a in range(1, n):
        gens.extend(fam.enumerate_end(a))
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
    for name, member in members.items():
        family = fam.get_family(name)
        pools = {n: family.enumerate_arity(n) for n in range(1, 6)}
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
    ],
    ids=["fcat1-N", "da-N3", "custom-B01"],
)
def test_jsonl_lines_are_word_records(family):
    closure = family()
    expected = [Word(closure.monoid, w).to_record() for w in closure.iter_all()]
    assert closure.to_jsonl() == "\n".join(expected) + "\n"


def test_jsonl_export_checks_the_carrier():
    family = GradedFamily(cyclic(2), 2, {1: frozenset({(0,)}), 2: frozenset({(0, 2)})})
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
