import random

import pytest
from conftest import nothing_kept

from opwords import families as fam
from opwords import generation, presentations
from opwords.monoids import NATURALS, cyclic
from opwords.presentations import (
    LEAF,
    GeneratorSymbol,
    PRESENTATIONS,
    Relation,
    SizeError,
    Term,
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


def test_edge_guard_counts_edges_through_the_arity(monkeypatch):
    # each comp relation has one leaf assignment at arity 3 and six at arity 4
    monkeypatch.setattr(presentations, "MAX_EDGES", 10)
    assert congruence_class_count(COMP.symbols, COMP.relations, 3) == 4
    with pytest.raises(SizeError, match="^28 edges through arity 4 exceed the 10 guard$"):
        congruence_class_count(COMP.symbols, COMP.relations, 4)
    # the nodes are counted first: at arity 4 both guards are crossed
    monkeypatch.setattr(presentations, "MAX_NODES", 10)
    with pytest.raises(SizeError, match="^34 nodes through arity 4"):
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


def side_by_side(t):
    """Whether some node of t has two or more inner children."""
    inner = [a for a in t.args if not a.is_leaf]
    return len(inner) >= 2 or any(side_by_side(a) for a in inner)


# each relation of a shaped presentation is drawn to have one of these shapes
SHAPES = {
    "nested inner nodes": lambda left, right: term_depth(left) >= 3,
    "side-by-side inner nodes": lambda left, right: side_by_side(left),
    "inner nodes on both sides": lambda left, right: min(map(term_depth, (left, right))) >= 2,
    "equal sides": lambda left, right: left == right,
}


def shaped_presentation(rng):
    """2-3 symbols of arity 2-3 and 1-4 relations of arity 3-5, each of a
    named shape; `a` is binary, so that every shape fits in arity 4."""
    names = "abc"[: rng.randint(2, 3)]
    arities = {name: 2 if name == "a" else rng.randint(2, 3) for name in names}
    symbols = {name: GeneratorSymbol(name, word(NATURALS, "0" * k)) for name, k in arities.items()}
    relations, shapes = [], []
    for _ in range(rng.randint(1, 4)):
        shape = rng.choice(sorted(SHAPES))
        while True:
            pool = enumerate_terms(symbols, rng.randint(3, 5))
            left = rng.choice(pool)
            right = left if shape == "equal sides" else rng.choice(pool)
            if SHAPES[shape](left, right):
                break
        relations.append(Relation(left, right))
        shapes.append(shape)
    return symbols, tuple(relations), shapes


def test_class_counts_match_term_rewriting_on_shaped_relations():
    rng = random.Random(1980)
    seen = set()
    for _ in range(30):
        symbols, relations, shapes = shaped_presentation(rng)
        expected = tuple(reference_class_count(symbols, relations, n) for n in range(1, 6))
        got = congruence_class_counts(symbols, relations, 5)
        assert got == expected, [str(r) for r in relations]
        seen.update(shapes)
    assert seen == set(SHAPES)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_class_counts_match_term_rewriting_on_presets(name):
    preset = PRESENTATIONS[name]
    counts = []
    for n in range(1, 7):
        expected = reference_class_count(preset.symbols, preset.relations, n)
        assert congruence_class_count(preset.symbols, preset.relations, n) == expected
        counts.append(expected)
    assert congruence_class_counts(preset.symbols, preset.relations, 6) == tuple(counts)


def test_class_counts_match_term_rewriting_on_a_deep_left_side():
    # da's cubic relation: an inner node sits under an inner node's second child
    da = fam.get_family("da")
    symbols = {
        name: GeneratorSymbol(name, word(da.monoid, g)) for name, g in zip("ab", da.generators)
    }
    relations = parse_relations("a(b(.,b(.,.)),.) == b(.,b(.,b(.,.)))")
    assert all(check.ok for check in verify_relations(relations, symbols))
    expected = tuple(reference_class_count(symbols, relations, n) for n in range(1, 7))
    assert expected == (1, 2, 8, 39, 212, 1232)
    assert congruence_class_counts(symbols, relations, 6) == expected


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


def test_relation_symbols_need_their_children():
    childless = (Relation(node("a"), node("b")),)
    with pytest.raises(ValueError, match="a has arity 2, got 0 children"):
        congruence_class_count(FCAT1.symbols, childless, 3)


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
# counts and relation checks kept per process


def counts_key(symbols, relations):
    """The key a count is kept under at the guards in force."""
    key = presentations._key(symbols, relations)
    return key, presentations.MAX_NODES, presentations.MAX_EDGES


def fresh(call, *args):
    """What `call` gives with nothing kept, as its result or its exception's
    type and message; what is kept stays as it was."""
    with nothing_kept():
        return outcome(call, *args)


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as error:  # SizeError too; compared by type and message
        return type(error), str(error)


# rising, falling and repeated bounds, then a mix of the three
BOUNDS = (0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0, 2, 5, 1, 3, 3, 0)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_kept_counts_equal_a_fresh_count_on_presets(name):
    preset = PRESENTATIONS[name]
    top = 9 if name == "motz" else 7
    for n in BOUNDS + (top, 2, top - 1, top):
        expected = fresh(congruence_class_counts, preset.symbols, preset.relations, n)
        assert congruence_class_counts(preset.symbols, preset.relations, n) == expected
    assert len(generation._kept) == 1


def test_kept_counts_equal_a_fresh_count_on_random_relations():
    rng = random.Random(2012)
    for _ in range(100):
        symbols, relations = random_presentation(rng)
        for n in BOUNDS:
            expected = fresh(congruence_class_counts, symbols, relations, n)
            assert congruence_class_counts(symbols, relations, n) == expected, n
    assert len(generation._kept) == 100
    assert generation._kept.total <= generation._KEPT_BYTES


def test_memos_keep_the_relation_sets_used_last_within_their_bytes(monkeypatch):
    """The counts and checks of 100 relation sets to arity 4 state 536,092
    bytes; under a 170,000-byte budget those used last are kept, a set used
    again moved last; an evicted set asked again answers as a fresh one,
    refusals included."""
    monkeypatch.setattr(generation, "_KEPT_BYTES", 170_000)
    rng = random.Random(29)
    sets = [random_presentation(rng) for _ in range(100)]
    used = []
    for symbols, relations in sets:
        for args in ((symbols, relations), sets[0]):
            congruence_class_counts(*args, 4)
            verify_relations(args[1], args[0])
            used += [counts_key(*args), presentations._key(*args)]
    kept = generation._kept
    assert kept.total == sum(size for _, size in kept.values()) <= 170_000
    assert 20 < len(kept) < 180
    by_last_use = list(dict.fromkeys(reversed(used)))[::-1]
    assert list(kept) == by_last_use[-len(kept):]
    assert list(kept)[-2:] == [counts_key(*sets[0]), presentations._key(*sets[0])]
    for key in (counts_key, presentations._key):
        assert key(*sets[1]) not in kept
    symbols, relations = sets[1]
    monkeypatch.setattr(presentations, "MAX_NODES", 20)
    outcomes = [outcome(congruence_class_counts, symbols, relations, n) for n in (5, 2, 4, 5)]
    assert any(o[0] is SizeError for o in outcomes)
    for n, got in zip((5, 2, 4, 5), outcomes):
        assert got == fresh(congruence_class_counts, symbols, relations, n), n
    monkeypatch.undo()
    assert congruence_class_counts(symbols, relations, 5) == fresh(
        congruence_class_counts, symbols, relations, 5
    )
    assert verify_relations(relations, symbols) == fresh(verify_relations, relations, symbols)
    assert list(generation._kept)[-2:] == [
        counts_key(symbols, relations), presentations._key(symbols, relations)
    ]


@pytest.mark.parametrize("nodes, edges, message", [
    (10, None, "34 nodes through arity 4 exceed the 10 guard"),
    (None, 10, "28 edges through arity 4 exceed the 10 guard"),
    (10, 10, "34 nodes through arity 4 exceed the 10 guard"),
    (34, 27, "28 edges through arity 4 exceed the 27 guard"),
    (33, 28, "34 nodes through arity 4 exceed the 33 guard"),
])
def test_kept_counts_are_refused_with_the_fresh_message(monkeypatch, nodes, edges, message):
    # comp builds 2, 10 and 34 nodes through arities 2-4, and 0, 4 and 28 edges
    assert congruence_class_counts(COMP.symbols, COMP.relations, 6) == (1, 2, 4, 8, 16, 32)
    for guard, cap in (("MAX_NODES", nodes), ("MAX_EDGES", edges)):
        if cap is not None:
            monkeypatch.setattr(presentations, guard, cap)
    assert congruence_class_counts(COMP.symbols, COMP.relations, 3) == (1, 2, 4)
    for n in (6, 4, 5, 1, 4, 0, 3):
        expected = fresh(congruence_class_counts, COMP.symbols, COMP.relations, n)
        assert outcome(congruence_class_counts, COMP.symbols, COMP.relations, n) == expected
    assert fresh(congruence_class_counts, COMP.symbols, COMP.relations, 4) == (SizeError, message)


def test_a_refused_extension_keeps_the_arities_it_finished(monkeypatch):
    monkeypatch.setattr(presentations, "MAX_NODES", 100)
    assert congruence_class_counts(COMP.symbols, COMP.relations, 3) == (1, 2, 4)
    ((count, _),) = generation._kept.values()
    with pytest.raises(SizeError, match="^258 nodes through arity 6 exceed the 100 guard$"):
        congruence_class_counts(COMP.symbols, COMP.relations, 8)
    # arities 4 and 5 are kept; only arity 5, the top one, has no class ids
    assert [len(c) for c in count.classes] == [0, 1, 2, 4, 8, 16]
    assert count.pending is not None
    assert len(count.class_of) == 2 + 8 + 24
    assert list(generation._kept) == [counts_key(COMP.symbols, COMP.relations)]
    assert generation._kept[counts_key(COMP.symbols, COMP.relations)][0] is count
    monkeypatch.setattr(presentations, "MAX_NODES", 500_000)
    assert congruence_class_counts(COMP.symbols, COMP.relations, 8) == fresh(
        congruence_class_counts, COMP.symbols, COMP.relations, 8
    ) == (1, 2, 4, 8, 16, 32, 64, 128)
    assert list(generation._kept)[-1] == counts_key(COMP.symbols, COMP.relations)
    assert [len(c) for c in count.classes] == [0, 1, 2, 4, 8, 16]


def test_bounds_up_to_one_check_the_relations_and_keep_nothing_beyond():
    for n in (0, 1, 0, -1, -2):
        assert congruence_class_counts(COMP.symbols, COMP.relations, n) == (1,) * max(n, 0)
    ((count, _),) = generation._kept.values()
    assert len(count.classes) == 2 and count.pending is None
    assert congruence_class_counts(COMP.symbols, COMP.relations, 2) == (1, 2)
    # a relation set that does not fit its symbols is refused at every call
    for n in (0, 1, 0):
        with pytest.raises(ValueError, match="unknown symbol 'c'"):
            congruence_class_counts(FCAT1.symbols, parse_relations("c(.,.) == a(.,.)"), n)


def test_a_kept_count_is_found_without_hashing_a_term(monkeypatch):
    schr = PRESENTATIONS["schr"]
    congruence_class_counts(schr.symbols, schr.relations, 5)
    verify_relations(schr.relations, schr.symbols)
    hashed = []
    term_hash = Term.__hash__
    monkeypatch.setattr(Term, "__hash__", lambda t: hashed.append(t) or term_hash(t))
    assert congruence_class_counts(schr.symbols, schr.relations, 4) == (1, 3, 11, 45)
    assert all(check.ok for check in verify_relations(schr.relations, schr.symbols))
    assert hashed == []


def test_kept_relation_checks_are_new_lists_for_their_own_symbols():
    checks = verify_relations(COMP.relations, COMP.symbols)
    assert all(check.ok for check in checks)
    expected = list(checks)
    checks.clear()
    assert verify_relations(COMP.relations, COMP.symbols) == expected
    # the same names over other images are checked afresh
    swapped = {"a": COMP.symbols["b"], "b": COMP.symbols["a"]}
    assert verify_relations(COMP.relations, swapped) == fresh(
        verify_relations, COMP.relations, swapped
    )
    assert not all(check.ok for check in verify_relations(COMP.relations, swapped))


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
