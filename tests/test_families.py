import itertools
import math
import operator

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


def _members(name, n):
    """Every member of arity n, each orbit expanded when symmetric."""
    return fam.get_family(name).enumerated(n).words(n)


def test_family_counts():
    assert [len(_members("end", n)) for n in range(1, 6)] == [1, 4, 27, 256, 3125]
    assert [len(_members("pf", n)) for n in range(1, 6)] == [1, 3, 16, 125, 1296]
    assert [len(_members("pw", n)) for n in range(1, 6)] == [1, 3, 13, 75, 541]
    assert [len(_members("per", n)) for n in range(1, 6)] == [1, 2, 6, 24, 120]
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
    """The cap counts sorted members: C(2n-1, n) for end, Catalan for pf and
    2^(n-1) for pw admit end@11, pf@13 and pw@20, one arity short of each
    refusal."""
    cap = membership.MAX_CANDIDATES
    assert math.comb(21, 11) <= cap < math.comb(23, 12)
    assert math.comb(26, 13) // 14 <= cap < math.comb(28, 14) // 15
    assert 2**19 <= cap < 2**20


def test_candidate_cap_refuses_larger_enumerations(monkeypatch):
    """Under a cap of 100, end builds 35 sorted members at arity 4 and 126
    at 5, pf 42 at 5 and 132 at 6, and pw 64 at 7 and 128 at 8; per builds
    one at every arity."""
    monkeypatch.setattr(membership, "MAX_CANDIDATES", 100)
    assert len(_members("end", 4)) == 256
    assert len(_members("pf", 5)) == 1296
    assert len(fam.enumerate_pw(7)) == 64
    assert len(_members("per", 6)) == 720
    for enumerate_arity, n, members in ((fam.enumerate_end, 5, 126),
                                        (fam.enumerate_pf, 6, 132),
                                        (fam.enumerate_pw, 8, 128)):
        with pytest.raises(ValueError, match=f"would build {members} sorted members, "
                                             "over the cap of 100"):
            enumerate_arity(n)


NON_SYMMETRIC = sorted(
    name for name, f in fam.FAMILIES.items() if not f.symmetric and name != "da"
)


@pytest.mark.parametrize("name", NON_SYMMETRIC)
def test_non_symmetric_enumerators_refuse_what_they_would_build_over_the_cap(
    monkeypatch, name
):
    """Under a cap of 30, each enumerator builds every arity of at most 30
    members, and refuses the first larger one naming its count; a higher
    arity names the count of that first one."""
    enumerate_arity = fam.get_family(name).enumerate_arity
    built = [len(enumerate_arity(n)) for n in range(1, 8)]
    monkeypatch.setattr(membership, "MAX_CANDIDATES", 30)
    first = next((n for n, members in enumerate(built, 1) if members > 30), None)
    for n, members in enumerate(built, 1):
        if first is None or n < first:
            assert len(enumerate_arity(n)) == members
            continue
        text = f"{members} members"
        if n > first:
            text = f"at least the {built[first - 1]} members of arity {first}"
        with pytest.raises(ValueError) as refused:
            enumerate_arity(n)
        assert str(refused.value) == f"arity {n} would build {text}, over the cap of 30"
    assert (first is None) == (name in ("dias", "fcat0"))


def test_non_symmetric_caps_keep_the_arities_in_use():
    """comp@20, scomp@13, fcat1@13, fcat2@9, fcat3@8, prt@14, motz@17 and
    schr@10 are built; one arity more is refused.  The motz and schr counts
    taken by height and by runs are the Motzkin and little Schroeder
    numbers."""
    last = {"comp": 20, "scomp": 13, "fcat1": 13, "fcat2": 9, "fcat3": 8, "prt": 14,
            "motz": 17, "schr": 10}
    sizes = {
        "comp": lambda n: 2 ** (n - 1),
        "scomp": lambda n: 3 ** (n - 1),
        "fcat1": lambda n: math.comb(2 * n, n) // (n + 1),
        "fcat2": lambda n: math.comb(3 * n, n) // (2 * n + 1),
        "fcat3": lambda n: math.comb(4 * n, n) // (3 * n + 1),
        "prt": lambda n: math.comb(2 * n - 2, n - 1) // n,
        # sums over Catalan and Narayana numbers
        "motz": lambda n: sum(
            math.comb(n - 1, 2 * k) * math.comb(2 * k, k) // (k + 1) for k in range(n)
        ),
        "schr": lambda n: sum(
            math.comb(n, k) * math.comb(n, k - 1) // n * 2 ** (k - 1) for k in range(1, n + 1)
        ),
    }
    cap = membership.MAX_CANDIDATES
    for name, n in last.items():
        assert sizes[name](n) <= cap < sizes[name](n + 1), name
    for name, counts in (("motz", membership._motz_counts()),
                         ("schr", membership._schr_counts())):
        assert list(itertools.islice(counts, 20)) == [sizes[name](n) for n in range(1, 21)]


def test_motz_enumeration_is_the_filtered_prefix_walks():
    """Pruning the walks that cannot return to 0 keeps the members and their
    order: every Motzkin prefix from 0, filtered to those that end at 0."""
    for n in range(1, 13):
        walks = [(0,)]
        for _ in range(n - 1):
            walks = [w + (b,) for w in walks for b in range(max(0, w[-1] - 1), w[-1] + 2)]
        assert fam.enumerate_motz(n) == [bytes(w) for w in walks if w[-1] == 0], n


def test_symmetric_enumerators_refuse_letters_past_a_byte():
    """A symmetric member of arity n holds the letter n - 1, which packs only
    up to arity 256; a larger arity is refused before its count is taken."""
    assert fam.enumerate_per(256) == [bytes(range(256))]
    for enumerate_arity in (fam.enumerate_end, fam.enumerate_pf,
                            fam.enumerate_pw, fam.enumerate_per):
        with pytest.raises(ValueError, match="arity 257 has letters above 255"):
            enumerate_arity(257)
        with pytest.raises(ValueError, match="cannot be packed"):
            enumerate_arity(10**9)


def test_fcat_refuses_letters_past_a_byte():
    """A member of fcat_k of arity n reaches the letter k(n - 1), which packs
    only up to 255; a larger one is refused, not left out."""
    assert fam.enumerate_fcat(2, 255)[-1] == bytes((0, 255))
    with pytest.raises(ValueError, match="arity 2 has letters above 255"):
        fam.fcat_family(256).enumerated(2)


# ---------------------------------------------------------------------------
# the symmetric families' sorted members, one per orbit

def _fubini(n):
    """Ordered set partitions: a(m) = sum over k of C(m, k) a(m - k)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


# enumerator of sorted members, predicate, and count of every member
SYMMETRIC = {
    "end": (fam.enumerate_end, fam.is_twisted_endofunction, lambda n: n**n),
    "pf": (fam.enumerate_pf, fam.is_twisted_parking_function, lambda n: (n + 1) ** (n - 1)),
    "pw": (fam.enumerate_pw, fam.is_twisted_packed_word, _fubini),
    "per": (fam.enumerate_per, fam.is_twisted_permutation, math.factorial),
}


def _filtered_product(n, member):
    return [w for w in itertools.product(range(n), repeat=n) if member(w)]


def _orbit_size(letters):
    size = math.factorial(len(letters))
    for a in set(letters):
        size //= math.factorial(letters.count(a))
    return size


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_sorted_members_are_one_word_per_orbit(name):
    sorted_members, member, _ = SYMMETRIC[name]
    for n in range(1, 7):
        got = sorted_members(n)
        assert len(got) == len(set(got)), (name, n)
        orbits = {tuple(sorted(w)) for w in _filtered_product(n, member)}
        assert got == list(map(bytes, sorted(orbits))), (name, n)


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_sorted_members_count_every_member(monkeypatch, name):
    monkeypatch.setattr(membership, "MAX_CANDIDATES", 10**10)
    sorted_members, _, count = SYMMETRIC[name]
    for n in range(1, 11):
        assert sum(map(_orbit_size, sorted_members(n))) == count(n), (name, n)


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_full_enumerators_are_the_filtered_products(name):
    _, member, count = SYMMETRIC[name]
    for n in range(1, 6):
        members = _members(name, n)
        assert len(members) == count(n), (name, n)
        assert members == _filtered_product(n, member), (name, n)


NON_SYMMETRIC = sorted(name for name, family in fam.FAMILIES.items() if not family.symmetric)


@pytest.mark.parametrize("name", NON_SYMMETRIC)
def test_predicates_accept_exactly_the_enumerated_words(name):
    # every word on the letters 0..L+1, L the largest letter of any member
    family = fam.get_family(name)
    members = {n: set(family.enumerate_arity(n)) for n in range(1, 6)}
    letters = range(max(map(max, itertools.chain(*members.values()))) + 2)
    for n, want in members.items():
        got = {bytes(w) for w in itertools.product(letters, repeat=n) if family.contains(w)}
        assert got == want, (name, n)


@pytest.mark.parametrize("name", sorted(fam.FAMILIES))
def test_enumerators_return_packed_words_in_increasing_order(name):
    """Each enumerator returns its members of arity n, sorted ones when
    symmetric, as `bytes` of n letters in strictly increasing order, which
    `_packed` joins as they come, without sorting."""
    enumerate_arity = fam.get_family(name).enumerate_arity
    for n in range(1, 8):
        words = enumerate_arity(n)
        assert all(type(w) is bytes and len(w) == n for w in words), (name, n)
        assert all(map(operator.lt, words, words[1:])), (name, n)


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
    assert fam.enumerate_schr(n) == list(map(bytes, brute))


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


def test_da_readers_answer_for_one_letter_words():
    # the closure refuses bound 1; the readers read the arity-2 closure
    assert fam.get_family("da").contains(parse_letters("0"))
    assert fam.enumerate_da(1) == [b"\0"]
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


@pytest.mark.parametrize("bound", [3, 5, 7, 9, 11])
def test_da_description_report_matches_the_step_sequences(bound):
    """Reference: the described words as `steps_from_phi` of every
    nonnegative step sequence."""
    closure = fam.da_closure(bound)
    rows = []
    for n in range(1, bound + 1):
        described = sorted(fam.steps_from_phi(s) for s in fam.motzkin_prefixes(n - 1))
        generated = closure.words(n)
        rows.append((n, generated == described, len(generated), len(described)))
    assert fam.da_description_report(bound) == rows


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
    per = fam.get_family("per").enumerated(4)
    pools = {n: [Word(NATURALS, p) for p in per.words(n)] for n in range(1, 5)}
    assert [len(pools[n]) for n in range(1, 5)] == [1, 2, 6, 24]
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
    pw = fam.get_family("pw").enumerated(4)
    packed = {n: pw.words(n) for n in range(1, 5)}
    assert [len(packed[n]) for n in range(1, 5)] == [1, 3, 13, 75]
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
    per = fam.get_family("per").enumerated(4)
    elements = [fam.PER_ZERO] + [
        Word(NATURALS, p) for n in range(1, 5) for p in per.words(n)
    ]
    assert len(elements) == 1 + 1 + 2 + 6 + 24

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
