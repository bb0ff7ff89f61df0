"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""
import itertools
from contextlib import contextmanager

from opwords import families as fam
from opwords.cli import main as cli_main
from opwords.generation import equals_predicate, quotient_image
from opwords.monoids import BOOLEAN, NATURALS, cyclic, reduce_mod
from opwords.presentations import PRESENTATIONS, congruence_class_count, verify_relations
from opwords.words import (
    Word,
    act,
    all_perms,
    block_substitute,
    check_axioms,
    splice,
    substitute,
    word,
)


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {text}")
        raise
    print(f"criterion {number:2d}: PASS  {text}")


def test_criterion_01_dimension_reproduction():
    with criterion(1, "closure and enumeration dimensions match the reference"):
        closure_rows = {
            "prt": (6, (1, 1, 2, 5, 14, 42)),
            "pw": (5, (1, 3, 13, 75, 541)),
            "schr": (5, (1, 3, 11, 45, 197)),
            "motz": (7, (1, 1, 2, 4, 9, 21, 51)),
            "comp": (6, (1, 2, 4, 8, 16, 32)),
            "da": (6, (1, 2, 5, 13, 35, 96)),
            "fcat1": (5, (1, 2, 5, 14, 42)),
        }
        for name, (bound, dims) in closure_rows.items():
            got = fam.get_family(name).closure(bound).dimensions()
            assert got == dims, (name, got)
        predicate_rows = {
            "end": (1, 4, 27, 256, 3125),
            "pf": (1, 3, 16, 125, 1296),
            "per": (1, 2, 6, 24, 120),
        }
        for name, dims in predicate_rows.items():
            members = fam.get_family(name).enumerated(5)
            got = tuple(len(members.words(n)) for n in range(1, 6))
            assert got == dims, (name, got)


def test_criterion_02_scomp_discrepancy_is_flagged(capsys):
    with criterion(2, "segmented compositions count 3^(n-1); table row flagged"):
        family = fam.get_family("scomp")
        counts = tuple(len(family.enumerate_arity(n)) for n in range(1, 6))
        assert counts == (1, 3, 9, 27, 81)
        assert fam.get_family("scomp").closure(5).dimensions() == counts
        code = cli_main(["dims", "--operad", "scomp", "--max-arity", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "1, 3, 9, 27, 81" in out
        assert "misprint" in out and "1, 3, 27, 81, 243" in out
        assert "(match)" not in out  # the printed row is never adopted


def test_criterion_03_axiom_suite():
    with criterion(3, "operad laws hold exhaustively; corrupted splice caught"):
        for m in (cyclic(2), cyclic(3), BOOLEAN, NATURALS):
            for report in check_axioms(m, (3, 3, 3), letter_cap=3):
                assert report.ok, f"{m.name}: {report}"
        op = cyclic(2).op

        def skewed(x, i, y):
            xi = x[i % len(x)]
            return x[: i - 1] + tuple(op(xi, b) for b in y) + x[i:]

        reports = {r.axiom: r for r in check_axioms(cyclic(2), (3, 3, 3), subst=skewed)}
        assert not reports["series-associativity"].ok


def test_criterion_04_characterization_equivalence():
    with criterion(4, "generated closures equal the membership predicates"):
        for name, bound in [
            ("prt", 7), ("fcat1", 7), ("fcat2", 7), ("motz", 7),
            ("comp", 7), ("dias", 7), ("schr", 6), ("scomp", 6),
        ]:
            family = fam.get_family(name)
            verdict = equals_predicate(family.closure(bound), family.enumerated(bound))
            assert verdict.ok, f"{name}: {verdict}"


def test_criterion_05_presentation_counts():
    with criterion(5, "congruence class counts equal closure dimensions"):
        for name in ("prt", "fcat1", "comp", "dias"):
            preset = PRESENTATIONS[name]
            dims = fam.get_family(preset.family).closure(6).dimensions()
            counts = tuple(
                congruence_class_count(preset.symbols, preset.relations, n)
                for n in range(1, 7)
            )
            assert counts == dims, (name, counts, dims)
        assert tuple(
            congruence_class_count(
                PRESENTATIONS["dias"].symbols, PRESENTATIONS["dias"].relations, n
            )
            for n in range(1, 7)
        ) == (1, 2, 3, 4, 5, 6)


def test_criterion_06_relation_validity():
    with criterion(6, "every shipped relation evaluates to equal words"):
        expected = {"fcat1": 3, "comp": 4, "schr": 7, "motz": 4, "dias": 5}
        for name, count in expected.items():
            preset = PRESENTATIONS[name]
            checks = verify_relations(preset.relations, preset.symbols)
            assert len(checks) == count
            assert all(c.ok for c in checks), name


def test_criterion_07_bijection_round_trips():
    with criterion(7, "converters invert on every generated element"):
        def tree_trip(w):
            return fam.tree_to_word(fam.word_to_tree(w))

        def kdyck_trip(k):
            return lambda w: fam.kdyck_to_word(fam.word_to_kdyck(w, k), k)

        def motz_trip(w):
            return fam.motzkin_to_word(fam.word_to_motzkin(w))

        def comp_trip(w):
            return fam.composition_to_word(fam.word_to_composition(w))

        def schr_trip(w):
            return fam.schr_tree_to_word(fam.schr_word_to_tree(w))

        trips = [
            ("prt", 7, tree_trip),
            ("fcat0", 7, kdyck_trip(0)),
            ("fcat1", 7, kdyck_trip(1)),
            ("fcat2", 7, kdyck_trip(2)),
            ("fcat3", 7, kdyck_trip(3)),
            ("motz", 7, motz_trip),
            ("comp", 7, comp_trip),
            ("schr", 6, schr_trip),
        ]
        for name, bound, trip in trips:
            closure = fam.get_family(name).closure(bound)
            for letters in closure.iter_all():
                assert trip(letters) == letters, (name, letters)

        # object-level substitution agrees with the word splice
        prt_words = [w for n in range(1, 6) for w in map(tuple, fam.enumerate_prt(n))]
        trees = {w: fam.word_to_tree(w) for w in prt_words}
        add = NATURALS.op
        for s, t in itertools.product(prt_words, repeat=2):
            for i in range(1, len(s) + 1):
                grafted = fam.prt_graft(trees[s], i, trees[t])
                assert fam.tree_to_word(grafted) == splice(s, i, t, add)
        comp_words = [w for n in range(1, 6) for w in map(tuple, fam.enumerate_comp(n))]
        comps = {w: fam.word_to_composition(w) for w in comp_words}
        mod2 = cyclic(2).op
        for c, d in itertools.product(comp_words, repeat=2):
            for i in range(1, len(c) + 1):
                out = fam.ribbon_substitute(comps[c], i, comps[d])
                assert fam.composition_to_word(out) == splice(c, i, d, mod2)


def test_criterion_08_quotient_arrows():
    with criterion(8, "modular images of the generated families match"):
        arrows = [
            ("fcat1", reduce_mod(2), "comp"),
            ("fcat2", reduce_mod(3), "scomp"),
            ("fcat1", reduce_mod(3), "da"),
        ]
        for source, theta, target in arrows:
            image = quotient_image(fam.get_family(source).closure(5), theta)
            expected = fam.get_family(target).closure(5)
            assert image.by_arity == expected.by_arity, (source, target)


def test_criterion_09_per_partial_operad():
    with criterion(9, "absorbing-zero substitution matches the ideal quotient"):
        per = fam.get_family("per").enumerated(4)
        perms = {n: [Word(NATURALS, p) for p in per.words(n)] for n in range(1, 5)}
        assert [len(perms[n]) for n in range(1, 5)] == [1, 2, 6, 24]
        for a in range(1, 5):
            for b in range(1, 5):
                for x, y in itertools.product(perms[a], perms[b]):
                    for i in range(1, a + 1):
                        plain = substitute(x, i, y)
                        out = fam.per_substitute(x, i, y)
                        zero = out is fam.PER_ZERO
                        assert zero == fam.has_repeated_letter(plain.letters)

        pw = fam.get_family("pw").enumerated(5)
        packed = {n: pw.words(n) for n in range(1, 6)}
        assert [len(packed[n]) for n in range(1, 6)] == [1, 3, 13, 75, 541]
        dup = {n: [p for p in packed[n] if fam.has_repeated_letter(p)] for n in packed}
        add = NATURALS.op
        for a in range(1, 6):
            for xl in dup[a]:
                for sigma in all_perms(a):
                    assert fam.has_repeated_letter(tuple(xl[j - 1] for j in sigma))
            for b in range(1, 6):
                for xl in dup[a]:
                    for yl in packed[b]:
                        for i in range(1, a + 1):
                            assert fam.has_repeated_letter(splice(xl, i, yl, add))
                for xl in packed[a]:
                    for yl in dup[b]:
                        for i in range(1, a + 1):
                            assert fam.has_repeated_letter(splice(xl, i, yl, add))


def test_criterion_10_worked_micro_examples():
    with criterion(10, "worked micro-examples reproduce bit-exactly"):
        assert block_substitute((7, 4, 1, 5, 6, 2, 3), 4, (2, 3, 1)) == (
            9, 4, 1, 6, 7, 5, 8, 2, 3,
        )
        assert substitute(
            word(NATURALS, "2123"), 2, word(NATURALS, "30313")
        ) == word(NATURALS, "24142423")
        assert act(word(NATURALS, "11210"), (2, 3, 5, 1, 4)) == word(NATURALS, "12011")
        assert fam.da_phi((0, 1, 1, 2, 2, 0, 2, 0, 1)) == (1, 0, 1, 0, 1, -1, 1, 1)
