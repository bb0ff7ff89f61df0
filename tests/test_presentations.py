import random

import pytest

from opwords import families as fam
from opwords import presentations
from opwords.monoids import NATURALS, cyclic
from opwords.presentations import (
    LEAF,
    GeneratorSymbol,
    PRESENTATIONS,
    Relation,
    SizeError,
    congruence_class_count,
    congruence_class_counts,
    enumerate_terms,
    eval_term,
    graft_term,
    node,
    parse_relations,
    parse_term,
    rewrites,
    term_arity,
    term_to_text,
    verify_relations,
)
from opwords.words import substitute, word

FCAT1 = PRESENTATIONS["fcat1"]
COMP = PRESENTATIONS["comp"]
A, B = FCAT1.symbols["a"], FCAT1.symbols["b"]


# ---------------------------------------------------------------------------
# terms


def test_term_text_round_trip():
    t = node("a", node("b", LEAF, LEAF), LEAF)
    assert term_to_text(t) == "a(b(.,.),.)"
    assert parse_term("a(b(., .), .)") == t
    assert parse_term(".") == LEAF
    assert term_arity(t) == 3
    assert term_arity(LEAF) == 1


def test_parse_term_errors():
    for bad in ["a(.", "a(.,.))", "a", "(.,.)", "a(.;.)"]:
        with pytest.raises(ValueError):
            parse_term(bad)


def test_relation_arity_guard():
    with pytest.raises(ValueError):
        Relation(node("a", LEAF, LEAF), LEAF)


def test_parse_relations():
    rels = parse_relations(
        """
        # comment
        a(a(.,.),.) == a(.,a(.,.))

        b(.,.) == a(.,.)  # tail comment
        """
    )
    assert len(rels) == 2
    with pytest.raises(ValueError):
        parse_relations("a(.,.) = b(.,.)")


def test_enumerate_terms_counts():
    one = {"a": A}
    two = {"a": A, "b": B}
    assert len(enumerate_terms(one, 1)) == 1
    assert enumerate_terms(one, 1) == [LEAF]
    assert len(enumerate_terms(one, 3)) == 2
    assert len(enumerate_terms(two, 3)) == 8  # 2 shapes x 4 decorations
    catalan = [1, 1, 2, 5, 14, 42]
    for n, c in enumerate(catalan, start=1):
        assert len(enumerate_terms(one, n)) == c


def test_enumerate_terms_below_arity_one_is_empty():
    one = {"a": A}
    for arity in (0, -1, -5):
        assert enumerate_terms(one, arity) == []
    assert enumerate_terms(PRESENTATIONS["motz"].symbols, -1) == []


# ---------------------------------------------------------------------------
# evaluation


def test_eval_term_examples():
    assert eval_term(node("b", LEAF, LEAF), FCAT1.symbols) == word(NATURALS, "01")
    # the first child lands in slot 1 of the image: 00 o_1 01 = 010
    got = eval_term(node("a", node("b", LEAF, LEAF), LEAF), FCAT1.symbols)
    assert got == substitute(word(NATURALS, "00"), 1, word(NATURALS, "01"))
    assert got == word(NATURALS, "010")
    # both sides of one shipped relation evaluate to the same word
    lhs = eval_term(parse_term("b(b(.,.),.)"), FCAT1.symbols)
    rhs = eval_term(parse_term("b(.,a(.,.))"), FCAT1.symbols)
    assert lhs == rhs == word(NATURALS, "011")


def test_eval_term_guards():
    mixed = {
        "a": GeneratorSymbol("a", word(NATURALS, "00")),
        "b": GeneratorSymbol("b", word(cyclic(2), "01")),
    }
    with pytest.raises(ValueError):
        eval_term(node("a", LEAF, LEAF), mixed)
    with pytest.raises(ValueError):
        eval_term(node("a", LEAF), FCAT1.symbols)  # arity mismatch


def test_eval_leaf_needs_a_monoid():
    assert eval_term(LEAF, FCAT1.symbols) == word(NATURALS, "0")
    with pytest.raises(ValueError):
        eval_term(LEAF, {})


# ---------------------------------------------------------------------------
# relation verification


@pytest.mark.parametrize("name,count", [
    ("prt", 0), ("fcat1", 3), ("comp", 4), ("schr", 7), ("motz", 4), ("dias", 5),
])
def test_shipped_relations_hold(name, count):
    preset = PRESENTATIONS[name]
    checks = verify_relations(preset.relations, preset.symbols)
    assert len(checks) == count
    for check in checks:
        assert check.ok, str(check.relation)


def test_verify_relations_detects_failure():
    bad = parse_relations("a(.,.) == b(.,.)")
    checks = verify_relations(bad, FCAT1.symbols)
    assert not checks[0].ok


# ---------------------------------------------------------------------------
# congruence classes


def test_free_counts_are_catalan():
    prt = PRESENTATIONS["prt"]
    counts = [congruence_class_count(prt.symbols, prt.relations, n) for n in range(1, 7)]
    assert counts == [1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize("name", ["fcat1", "comp", "dias"])
def test_class_counts_match_dimensions(name):
    preset = PRESENTATIONS[name]
    dims = fam.get_family(preset.family).closure(6).dimensions()
    counts = tuple(
        congruence_class_count(preset.symbols, preset.relations, n)
        for n in range(1, 7)
    )
    assert counts == dims


@pytest.mark.parametrize("name", ["schr", "motz"])
def test_degree_two_relations_are_sound(name):
    # completeness is not asserted for these; the counts are reported and must
    # only stay at or above the dimensions
    preset = PRESENTATIONS[name]
    bound = 6
    dims = fam.get_family(preset.family).closure(bound).dimensions()
    counts = tuple(
        congruence_class_count(preset.symbols, preset.relations, n)
        for n in range(1, bound + 1)
    )
    assert all(c >= d for c, d in zip(counts, dims)), (counts, dims)


def test_size_guard(monkeypatch):
    monkeypatch.setattr(presentations, "MAX_NODES", 10)
    with pytest.raises(SizeError):
        congruence_class_count(COMP.symbols, COMP.relations, 6)


def test_size_guard_counts_nodes_through_the_arity(monkeypatch):
    # comp builds 2 nodes at arity 2, 8 at arity 3 and 24 at arity 4
    monkeypatch.setattr(presentations, "MAX_NODES", 10)
    assert congruence_class_count(COMP.symbols, COMP.relations, 3) == 4
    with pytest.raises(SizeError, match="34 nodes through arity 4"):
        congruence_class_count(COMP.symbols, COMP.relations, 4)


def reference_class_count(symbols, relations, arity):
    """Enumerate every term, rewrite it in both directions at every subterm,
    and count the components of the rewrite graph."""
    terms = enumerate_terms(symbols, arity)
    index = {t: i for i, t in enumerate(terms)}
    parent = list(range(len(terms)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for t, i in index.items():
        for other in rewrites(t, relations):
            parent[find(i)] = find(index[other])
    return sum(1 for i in range(len(terms)) if find(i) == i)


def term_depth(t):
    return 0 if t.is_leaf else 1 + max(term_depth(a) for a in t.args)


def random_presentation(rng):
    names = "abc"[: rng.randint(2, 3)]
    symbols = {
        name: GeneratorSymbol(name, word(NATURALS, "0" * rng.randint(2, 3)))
        for name in names
    }
    pools = {}
    for n in range(3, 6):
        pool = [t for t in enumerate_terms(symbols, n) if term_depth(t) in (2, 3)]
        if len(pool) >= 2:
            pools[n] = pool
    relations = []
    for _ in range(rng.randint(1, 4)):
        left, right = rng.sample(pools[rng.choice(sorted(pools))], 2)
        relations.append(Relation(left, right))
    return symbols, tuple(relations)


def test_class_counts_match_term_rewriting_on_random_relations():
    rng = random.Random(2012)
    for _ in range(100):
        symbols, relations = random_presentation(rng)
        counts = []
        for n in range(1, 6):
            expected = reference_class_count(symbols, relations, n)
            got = congruence_class_count(symbols, relations, n)
            assert got == expected, ([str(r) for r in relations], n)
            counts.append(got)
        assert congruence_class_counts(symbols, relations, 5) == tuple(counts)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_class_counts_match_term_rewriting_on_presets(name):
    preset = PRESENTATIONS[name]
    counts = []
    for n in range(1, 7):
        expected = reference_class_count(preset.symbols, preset.relations, n)
        assert congruence_class_count(preset.symbols, preset.relations, n) == expected
        counts.append(expected)
    assert congruence_class_counts(preset.symbols, preset.relations, 6) == tuple(counts)


@pytest.mark.parametrize("names", [("a", "b", "c"), ("a",)])
def test_preset_names_must_match_the_generator_count(names):
    # fcat1 has the two generators 00 and 01
    preset = presentations.PresentationPreset("fcat1", names, "", asserted_complete=False)
    with pytest.raises(ValueError):
        preset.symbols


def test_schroder_classes_reach_arity_eight():
    # little Schröder numbers; arity 8 has 938,223 terms
    schr = PRESENTATIONS["schr"]
    counts = [congruence_class_count(schr.symbols, schr.relations, n) for n in range(1, 9)]
    assert counts == [1, 3, 11, 45, 197, 903, 4279, 20793]


def test_motzkin_classes_reach_arity_ten():
    motz = PRESENTATIONS["motz"]
    counts = [congruence_class_count(motz.symbols, motz.relations, n) for n in range(1, 11)]
    assert counts == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835]


def test_terms_need_symbols_of_arity_two():
    unary = {"a": A, "u": GeneratorSymbol("u", word(NATURALS, "1"))}
    for call in (
        lambda: enumerate_terms(unary, 3),
        lambda: congruence_class_count(unary, (), 2),
        lambda: congruence_class_count(unary, parse_relations("u(u(.)) == ."), 1),
    ):
        with pytest.raises(ValueError, match="arity 1"):
            call()
    # evaluation still accepts them
    assert eval_term(parse_term("u(a(.,.))"), unary) == word(NATURALS, "11")


@pytest.mark.parametrize("text,message", [
    ("c(.,.) == a(.,.)", "unknown symbol 'c'"),
    ("a(.,c(.,.)) == a(a(.,.),.)", "unknown symbol 'c'"),
    ("a(b(.,.,.),.) == a(.,b(.,.,.))", "b has arity 2, got 3 children"),
])
def test_relations_must_fit_the_symbols(text, message):
    with pytest.raises(ValueError, match=message):
        congruence_class_count(FCAT1.symbols, parse_relations(text), 3)


def test_preset_relations_are_parsed_once():
    assert COMP.relations is COMP.relations


def test_rewrites_preserve_evaluation():
    # a verified relation applied anywhere in a term never moves the value
    rng = random.Random(7)
    for preset in (FCAT1, COMP, PRESENTATIONS["motz"]):
        for arity in range(2, 7):
            terms = enumerate_terms(preset.symbols, arity)
            for t in rng.sample(terms, min(12, len(terms))):
                value = eval_term(t, preset.symbols)
                for other in rewrites(t, preset.relations):
                    assert eval_term(other, preset.symbols) == value


def test_rewrites_reach_both_directions():
    t = parse_term("a(a(.,.),.)")
    reachable = set(rewrites(t, COMP.relations))
    assert parse_term("a(.,a(.,.))") in reachable
    back = set(rewrites(parse_term("a(.,a(.,.))"), COMP.relations))
    assert t in back


# ---------------------------------------------------------------------------
# grafting terms


def test_graft_term_basic():
    t = node("a", LEAF, LEAF)
    s = node("b", LEAF, LEAF)
    assert graft_term(t, 1, s) == node("a", s, LEAF)
    assert graft_term(t, 2, s) == node("a", LEAF, s)
    assert graft_term(LEAF, 1, s) == s
    with pytest.raises(IndexError):
        graft_term(t, 3, s)


def test_eval_commutes_with_term_substitution():
    # grafting then evaluating equals evaluating then substituting words
    for name in ("fcat1", "dias"):
        preset = PRESENTATIONS[name]
        hosts = [t for n in (2, 3) for t in enumerate_terms(preset.symbols, n)]
        grafts = [t for n in (1, 2) for t in enumerate_terms(preset.symbols, n)]
        for t in hosts:
            t_val = eval_term(t, preset.symbols)
            for s in grafts:
                s_val = eval_term(s, preset.symbols)
                for i in range(1, term_arity(t) + 1):
                    combined = eval_term(graft_term(t, i, s), preset.symbols)
                    assert combined == substitute(t_val, i, s_val)
