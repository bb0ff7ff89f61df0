import itertools
import math

import pytest

from opwords import families as fam
from opwords.families import membership
from opwords.monoids import NATURALS, cyclic
from opwords.words import MonoidMismatchError, Word, act, all_perms, parse_letters, substitute, word


# ---------------------------------------------------------------------------
# twisted predicates against the shift definition


def _shift_up(letters):
    return tuple(a + 1 for a in letters)


def _classical_endofunction(v):
    return all(1 <= a <= len(v) for a in v)


def _classical_parking(v):
    return all(a <= i for i, a in enumerate(sorted(v), start=1))


def _classical_packed(v):
    return set(v) == set(range(1, max(v) + 1))


def _classical_permutation(v):
    return sorted(v) == list(range(1, len(v) + 1))


@pytest.mark.parametrize(
    "twisted,classical",
    [
        (fam.is_twisted_endofunction, _classical_endofunction),
        (fam.is_twisted_parking_function, _classical_parking),
        (fam.is_twisted_packed_word, _classical_packed),
        (fam.is_twisted_permutation, _classical_permutation),
    ],
)
def test_twisted_predicates_match_shift_definition(twisted, classical):
    for n in range(1, 6):
        for letters in itertools.product(range(n + 1), repeat=n):
            assert twisted(letters) == classical(_shift_up(letters))


def test_twisted_example():
    # 2300 shifts to 3411, an endofunction on four points
    assert fam.is_twisted_endofunction((2, 3, 0, 0))


def test_family_counts():
    assert [len(fam.enumerate_end(n)) for n in range(1, 6)] == [1, 4, 27, 256, 3125]
    assert [len(fam.enumerate_pf(n)) for n in range(1, 6)] == [1, 3, 16, 125, 1296]
    assert [len(fam.enumerate_pw(n)) for n in range(1, 6)] == [1, 3, 13, 75, 541]
    assert [len(fam.enumerate_per(n)) for n in range(1, 6)] == [1, 2, 6, 24, 120]
    assert [len(fam.enumerate_prt(n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]
    assert [len(fam.enumerate_motz(n)) for n in range(1, 8)] == [1, 1, 2, 4, 9, 21, 51]
    assert [len(fam.enumerate_comp(n)) for n in range(1, 7)] == [
        2 ** (n - 1) for n in range(1, 7)
    ]
    assert [len(fam.enumerate_scomp(n)) for n in range(1, 6)] == [
        3 ** (n - 1) for n in range(1, 6)
    ]
    assert [len(fam.enumerate_dias(n)) for n in range(1, 6)] == [1, 2, 3, 4, 5]


def test_candidate_cap_keeps_the_arities_in_use():
    assert 7**7 <= membership.MAX_CANDIDATES < 8**8
    assert math.factorial(9) <= membership.MAX_CANDIDATES < math.factorial(10)


def test_candidate_cap_refuses_larger_enumerations(monkeypatch):
    monkeypatch.setattr(membership, "MAX_CANDIDATES", 100)
    assert len(fam.enumerate_end(3)) == 27
    assert len(fam.enumerate_per(4)) == 24
    for enumerate_arity, n in ((fam.enumerate_end, 4), (fam.enumerate_pf, 4),
                               (fam.enumerate_pw, 4), (fam.enumerate_per, 5)):
        with pytest.raises(ValueError, match="over the cap of 100"):
            enumerate_arity(n)


# ---------------------------------------------------------------------------
# per-family knowledge held on the Family records

VIEW_FAMILIES = {"prt", "fcat0", "fcat1", "fcat2", "fcat3", "motz", "comp", "schr", "da"}
GRAFT_FAMILIES = {"prt", "comp"}
CLOSED_FORMS = {
    "end": (1, 4, 27, 256, 3125, 46656, 823543, 16777216),
    "pf": (1, 3, 16, 125, 1296, 16807, 262144, 4782969),
    "per": (1, 2, 6, 24, 120, 720, 5040, 40320),
    "comp": (1, 2, 4, 8, 16, 32, 64, 128),
    "scomp": (1, 3, 9, 27, 81, 243, 729, 2187),
    "dias": (1, 2, 3, 4, 5, 6, 7, 8),
    "fcat0": (1, 1, 1, 1, 1, 1, 1, 1),
    "fcat1": (1, 2, 5, 14, 42, 132, 429, 1430),
    "fcat2": (1, 3, 12, 55, 273, 1428, 7752, 43263),
    "fcat3": (1, 4, 22, 140, 969, 7084, 53820, 420732),
}


@pytest.mark.parametrize("name", sorted(fam.FAMILIES))
def test_family_record_views_and_counts(name):
    family = fam.FAMILIES[name]
    assert (family.to_object is not None) == (name in VIEW_FAMILIES)
    assert (family.from_object is not None) == (name in VIEW_FAMILIES)
    assert (family.graft is not None) == (name in GRAFT_FAMILIES)
    assert (family.count is not None) == (name in CLOSED_FORMS)
    assert family.expected_dims(8) == CLOSED_FORMS.get(name)
    if name in VIEW_FAMILIES:
        for w in family.closure(6).iter_all():
            assert family.from_object(family.to_object(w)) == w
            assert isinstance(family.show(family.to_object(w)), str)


# ---------------------------------------------------------------------------
# membership examples


def test_membership_examples():
    assert fam.get_family("prt").contains(parse_letters("0112333212"))
    assert fam.get_family("fcat2").contains(parse_letters("002413"))
    assert fam.get_family("motz").contains(parse_letters("001123221010"))
    assert fam.get_family("schr").contains(parse_letters("1132002122"))
    assert not fam.get_family("prt").contains(parse_letters("02"))


def test_membership_monoid_guard():
    # a family's words live over its declared monoid; substitution refuses
    # to mix them with words over another
    comp = fam.get_family("comp")
    assert comp.monoid == cyclic(2)
    with pytest.raises(MonoidMismatchError):
        substitute(word(comp.monoid, "01"), 1, word(NATURALS, "01"))
    with pytest.raises(KeyError):
        fam.get_family("nope")


def test_schr_factor_condition_edges():
    # a letter b needs a b-1 separated from it only by letters >= b,
    # occurrence by occurrence
    assert fam.is_schr_word((0, 2, 1))
    assert fam.is_schr_word((0, 1, 2, 1, 0))
    assert not fam.is_schr_word((0, 1, 0, 2))
    assert not fam.is_schr_word((0, 1, 2, 0, 2))
    assert not fam.is_schr_word((1, 1))  # no zero at all
    assert not fam.is_schr_word((0, 2, 0))


@pytest.mark.parametrize("n", range(1, 8))
def test_schr_enumerator_matches_predicate_filter(n):
    brute = [w for w in itertools.product(range(n), repeat=n) if fam.is_schr_word(w)]
    assert fam.enumerate_schr(n) == brute


def test_motz_words_end_at_zero():
    assert fam.is_motz_word((0, 1, 0))
    assert not fam.is_motz_word((0, 1, 1))
    assert not fam.is_motz_word((0, 2, 0))


def test_dias_words():
    assert fam.is_dias_word((0, 1, 0))
    assert not fam.is_dias_word((0, 0))
    assert not fam.is_dias_word((1, 1))


# ---------------------------------------------------------------------------
# directed animals


def test_da_counts_match_nonnegative_step_sequences():
    closure = fam.da_closure(7)
    for n in range(1, 8):
        prefixes = sum(1 for _ in fam.motzkin_prefixes(n - 1))
        assert len(closure.arity_set(n)) == prefixes
    assert closure.dimensions()[:6] == (1, 2, 5, 13, 35, 96)


def test_da_readers_answer_for_one_letter_words(monkeypatch):
    # the closure refuses bound 1; the readers read the arity-2 closure
    monkeypatch.setattr(membership, "_da_cache", None)
    assert fam.get_family("da").contains(parse_letters("0"))
    assert fam.enumerate_da(1) == [(0,)]
    with pytest.raises(ValueError, match="below the largest generator arity 2"):
        fam.da_closure(1)


def test_da_description_report_shape():
    rows = fam.da_description_report(5)
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5]
    for _, agree, n_closure, n_described in rows:
        assert isinstance(agree, bool)
        assert n_closure > 0 and n_described > 0


def brute_motzkin_prefixes(length):
    """Reference: filter every step sequence of the length."""
    steps = itertools.product((-1, 0, 1), repeat=length)
    return [s for s in steps if fam.is_motzkin_prefix(s)]


def brute_da_description_report(max_arity):
    """Reference: filter all 3^n words through the description predicate."""
    closure = fam.da_closure(max_arity)
    rows = []
    for n in range(1, max_arity + 1):
        generated = closure.arity_set(n)
        words = itertools.product(range(3), repeat=n)
        described = frozenset(w for w in words if fam.da_prefix_description(w))
        rows.append((n, generated == described, len(generated), len(described)))
    return rows


def test_motzkin_prefixes_match_the_brute_force_filter():
    for length in range(11):
        assert list(fam.motzkin_prefixes(length)) == brute_motzkin_prefixes(length)
    with pytest.raises(ValueError):
        fam.motzkin_prefixes(-1)


def test_da_description_report_matches_the_brute_force_filter():
    assert fam.da_description_report(9) == brute_da_description_report(9)


def test_da_membership_is_closure_membership():
    assert fam.get_family("da").contains(parse_letters("011220201"))
    assert not fam.get_family("da").contains(parse_letters("002"))


# ---------------------------------------------------------------------------
# the permutation quotient


def pw_word(text):
    return word(NATURALS, text)


def test_per_substitute_examples():
    assert fam.per_substitute(pw_word("01"), 2, pw_word("01")) == pw_word("012")
    assert fam.per_substitute(pw_word("01"), 1, pw_word("01")) is fam.PER_ZERO
    assert fam.per_substitute(fam.PER_ZERO, 1, pw_word("01")) is fam.PER_ZERO
    assert fam.per_substitute(pw_word("01"), 2, fam.PER_ZERO) is fam.PER_ZERO


def test_per_substitute_unit_is_the_exception():
    # substituting the one-letter unit never creates a duplicate, so it keeps
    # the word even off the maximum letter
    x = pw_word("01")
    assert fam.per_substitute(x, 1, pw_word("0")) == x


def test_per_substitute_guards():
    with pytest.raises(fam.NotAMemberError):
        fam.per_substitute(pw_word("00"), 1, pw_word("01"))
    with pytest.raises(IndexError):
        fam.per_substitute(pw_word("01"), 3, pw_word("01"))


def test_per_zero_agrees_with_duplicate_test():
    # zero exactly when the plain substitution repeats a letter
    pools = {n: [Word(NATURALS, p) for p in fam.enumerate_per(n)] for n in range(1, 5)}
    for a in range(1, 5):
        for b in range(1, 5):
            for x in pools[a]:
                for y in pools[b]:
                    for i in range(1, a + 1):
                        plain = substitute(x, i, y)
                        out = fam.per_substitute(x, i, y)
                        if fam.has_repeated_letter(plain.letters):
                            assert out is fam.PER_ZERO
                        else:
                            assert out == plain


def test_repeated_letter_words_form_an_ideal_small():
    packed = {n: fam.enumerate_pw(n) for n in range(1, 5)}
    dup = {
        n: [p for p in packed[n] if fam.has_repeated_letter(p)] for n in packed
    }
    for a in range(1, 5):
        for xl in dup[a]:
            for sigma in all_perms(a):
                assert fam.has_repeated_letter(tuple(xl[j - 1] for j in sigma))
        for b in range(1, 5):
            for xl, yl in itertools.product(dup[a], packed[b]):
                for i in range(1, a + 1):
                    out = substitute(Word(NATURALS, xl), i, Word(NATURALS, yl))
                    assert fam.has_repeated_letter(out.letters)
            for xl, yl in itertools.product(packed[a], dup[b]):
                for i in range(1, a + 1):
                    out = substitute(Word(NATURALS, xl), i, Word(NATURALS, yl))
                    assert fam.has_repeated_letter(out.letters)


def test_per_associativity_with_zero():
    elements = [fam.PER_ZERO] + [
        Word(NATURALS, p) for n in range(1, 5) for p in fam.enumerate_per(n)
    ]

    def arity(e):
        return 1 if e is fam.PER_ZERO else len(e)

    for x, y, z in itertools.product(elements, repeat=3):
        n, m = arity(x), arity(y)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                lhs = fam.per_substitute(fam.per_substitute(x, i, y), i + j - 1, z)
                rhs = fam.per_substitute(x, i, fam.per_substitute(y, j, z))
                assert lhs == rhs or (lhs is fam.PER_ZERO and rhs is fam.PER_ZERO)
            for j in range(i + 1, n + 1):
                lhs = fam.per_substitute(fam.per_substitute(x, i, y), j + m - 1, z)
                rhs = fam.per_substitute(fam.per_substitute(x, j, z), i, y)
                assert lhs == rhs or (lhs is fam.PER_ZERO and rhs is fam.PER_ZERO)
