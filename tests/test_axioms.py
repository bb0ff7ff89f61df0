import functools
import itertools
import random
import zlib

import pytest

from opwords import words
from opwords.monoids import BOOLEAN, NATURALS, cyclic
from opwords.words import (
    AxiomReport,
    all_perms,
    axiom_check_count,
    block_substitute,
    check_axioms,
    letter_range,
    permute,
    splice,
)

AXIOM_NAMES = {
    "series-associativity",
    "parallel-associativity",
    "unit",
    "equivariance",
}


@pytest.mark.parametrize(
    "m", [cyclic(2), cyclic(3), BOOLEAN], ids=lambda m: m.name
)
def test_axioms_pass_on_finite_monoids(m):
    reports = check_axioms(m, (3, 3, 3))
    assert {r.axiom for r in reports} == AXIOM_NAMES
    for r in reports:
        assert r.ok, str(r)
        assert r.checked > 0


def test_axioms_pass_on_naturals_with_capped_letters():
    reports = check_axioms(NATURALS, (3, 3, 3), letter_cap=3)
    for r in reports:
        assert r.ok, str(r)


def test_corrupted_substitution_is_caught():
    # off-by-one splice: multiplies by the letter after the target slot
    op = cyclic(2).op

    def skewed(x, i, y):
        xi = x[i % len(x)]
        return x[: i - 1] + tuple(op(xi, b) for b in y) + x[i:]

    reports = {r.axiom: r for r in check_axioms(cyclic(2), (3, 3, 3), subst=skewed)}
    series = reports["series-associativity"]
    assert not series.ok
    assert series.counterexample is not None


def test_reports_render():
    ok_report = check_axioms(cyclic(2), (2, 2, 2))[0]
    assert "ok" in str(ok_report)

    def broken(x, i, y):
        return splice(x, i, y, lambda a, b: 0)

    bad = [r for r in check_axioms(cyclic(2), (2, 2, 2), subst=broken) if not r.ok]
    assert bad and "FAILED" in str(bad[0])


# ---------------------------------------------------------------------------
# the checker against a one-check-at-a-time reference


def words_up_to(m, max_arity, letter_cap=3):
    """Every word of arity 1..max_arity, by arity and then lexicographically."""
    alphabet = letter_range(m, letter_cap)
    return [w for n in range(1, max_arity + 1) for w in itertools.product(alphabet, repeat=n)]


def reference_check_axioms(m, max_arities, letter_cap=3, subst=None):
    """`check_axioms` as plain nested loops: one substitution per side of
    each check, in the same loop order."""
    op = m.op
    if subst is None:
        def subst(x, i, y):
            return splice(x, i, y, op)

    ax, ay, az = max_arities
    xs = words_up_to(m, ax, letter_cap)
    ys = words_up_to(m, ay, letter_cap)
    zs = words_up_to(m, az, letter_cap)
    return [
        _reference_series(subst, xs, ys, zs),
        _reference_parallel(subst, xs, ys, zs),
        _reference_unit(subst, m, xs),
        _reference_equivariance(subst, xs, ys),
    ]


def _reference_series(subst, xs, ys, zs):
    checked = 0
    for x in xs:
        for i in range(1, len(x) + 1):
            for y in ys:
                xy = subst(x, i, y)
                for j in range(1, len(y) + 1):
                    for z in zs:
                        checked += 1
                        if subst(xy, i + j - 1, z) != subst(x, i, subst(y, j, z)):
                            return AxiomReport(
                                "series-associativity", checked, (x, i, y, j, z)
                            )
    return AxiomReport("series-associativity", checked)


def _reference_parallel(subst, xs, ys, zs):
    checked = 0
    for x in xs:
        n = len(x)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for z in zs:
                    xz = subst(x, j, z)
                    for y in ys:
                        checked += 1
                        lhs = subst(subst(x, i, y), j + len(y) - 1, z)
                        if lhs != subst(xz, i, y):
                            return AxiomReport(
                                "parallel-associativity", checked, (x, i, y, j, z)
                            )
    return AxiomReport("parallel-associativity", checked)


def _reference_unit(subst, m, xs):
    one = (m.unit,)
    checked = 0
    for x in xs:
        checked += 1
        if subst(one, 1, x) != x:
            return AxiomReport("unit", checked, ("left", x))
        for i in range(1, len(x) + 1):
            checked += 1
            if subst(x, i, one) != x:
                return AxiomReport("unit", checked, ("right", x, i))
    return AxiomReport("unit", checked)


def _reference_equivariance(subst, xs, ys):
    checked = 0
    for y in ys:
        for x in xs:
            n = len(x)
            for sigma in all_perms(n):
                for i in range(1, n + 1):
                    plain = subst(x, sigma[i - 1], y)
                    for nu in all_perms(len(y)):
                        checked += 1
                        lhs = subst(permute(x, sigma), i, permute(y, nu))
                        if lhs != permute(plain, block_substitute(sigma, i, nu)):
                            return AxiomReport(
                                "equivariance", checked, (x, sigma, i, y, nu)
                            )
    return AxiomReport("equivariance", checked)


def outcomes(reports):
    return [(r.axiom, r.checked, r.counterexample) for r in reports]


CORRUPTED_MONOIDS = (cyclic(2), cyclic(3), BOOLEAN, NATURALS)
CORRUPTED_ARITIES = ((3, 3, 3), (2, 3, 2), (1, 3, 2), (3, 2, 3), (2, 2, 2))
CORRUPTED_SEEDS = range(160)


def corrupted_case(seed):
    """A seeded substitution that reverses, sorts or drops letters of the true
    result on a hashed subset of argument triples, keeping its arity."""
    m = CORRUPTED_MONOIDS[seed % 4]
    arities = CORRUPTED_ARITIES[seed // 4 % 5]
    if m == cyclic(3) and arities == (3, 3, 3):
        arities = (3, 2, 2)  # the reference takes seconds on a law that holds
    kind = ("reverse", "sort", "drop")[seed % 3]
    rate = (5, 29, 113, 401)[seed // 20 % 4]
    op = m.op

    def subst(x, i, y):
        r = splice(x, i, y, op)
        h = zlib.crc32(repr((seed, x, i, y)).encode())
        if h % rate:
            return r
        if kind == "reverse":
            return r[::-1]
        if kind == "sort":
            return tuple(sorted(r))
        k = h // rate % len(r)
        return r[:k] + r[k + 1:] + (m.unit,)

    return m, arities, subst


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("m", [cyclic(2), cyclic(3), BOOLEAN], ids=lambda m: m.name)
def test_reports_match_reference_on_finite_monoids(m, arity):
    bound = (arity,) * 3
    assert outcomes(check_axioms(m, bound)) == outcomes(reference_check_axioms(m, bound))


@functools.cache
def corrupted_reference(seed):
    """The reference's outcomes on a corrupted case, computed once for the
    two tests that compare with them."""
    m, arities, subst = corrupted_case(seed)
    return outcomes(reference_check_axioms(m, arities, 2, subst))


@pytest.mark.parametrize("seed", CORRUPTED_SEEDS)
def test_corrupted_reports_match_reference(seed):
    m, arities, subst = corrupted_case(seed)
    got = check_axioms(m, arities, letter_cap=2, subst=subst)
    assert outcomes(got) == corrupted_reference(seed)


def test_corrupted_set_fails_every_law():
    failed = set()
    for seed in CORRUPTED_SEEDS:
        m, arities, subst = corrupted_case(seed)
        failed |= {
            r.axiom for r in check_axioms(m, arities, letter_cap=2, subst=subst) if not r.ok
        }
    assert failed == AXIOM_NAMES


# a law, a bound and two argument triples at which a substitution over N2 is
# wrong; the first failure in loop order lies in a block laid after another
# failing block of the same arity of the outermost operand, and in the
# second case of a law at the same word of that operand as the other
LATE_FIRST_FAILURES = (
    ("series-associativity", (2, 2, 2), ((0, 1), 1, (0,)), ((0, 0), 1, (1, 0))),
    ("series-associativity", (2, 2, 2), ((0, 0), 2, (0, 0, 1)), ((1, 0, 1), 2, (0, 1, 0))),
    ("parallel-associativity", (3, 2, 2), ((1, 0, 0), 3, (1,)), ((0, 1), 2, (1,))),
    ("parallel-associativity", (3, 2, 2), ((1, 0), 2, (1, 0)), ((1, 0, 0), 3, (0,))),
    ("unit", (2, 2, 2), ((0, 0), 1, (0,)), ((0,), 1, (1, 0))),
    ("equivariance", (2, 2, 2), ((0, 1), 2, (1, 1)), ((1, 0), 1, (0, 0))),
    ("equivariance", (2, 2, 2), ((0, 1, 0), 1, (1, 0, 1)), ((0, 1), 1, (1,))),
)


def test_reports_match_reference_when_a_later_block_fails_first(monkeypatch):
    laid = {}
    failed = words._failed

    def watched(axiom, found):
        # the failures of one arity of the outermost operand, in laid order
        laid[axiom] = list(found)
        return failed(axiom, found)

    monkeypatch.setattr(words, "_failed", watched)
    m = cyclic(2)
    for axiom, bound, *wrong in LATE_FIRST_FAILURES:

        def subst(x, i, y, wrong=wrong):
            r = splice(x, i, y, m.op)
            return (1 - r[0],) + r[1:] if (x, i, y) in wrong else r

        got = check_axioms(m, bound, subst=subst)
        assert outcomes(got) == outcomes(reference_check_axioms(m, bound, subst=subst))
        assert len(laid[axiom]) > 1 and laid[axiom][0] != min(laid[axiom]), axiom
    for seed in CORRUPTED_SEEDS:
        m, arities, subst = corrupted_case(seed)
        got = check_axioms(m, arities, letter_cap=2, subst=subst)
        assert outcomes(got) == corrupted_reference(seed), seed


@pytest.mark.parametrize("m", [cyclic(2), cyclic(3), BOOLEAN], ids=lambda m: m.name)
def test_check_count_equals_the_checks_made(m):
    checked = sum(r.checked for r in check_axioms(m, (3, 3, 3)))
    assert axiom_check_count(m, (3, 3, 3)) == checked


def test_check_count_over_naturals_and_past_the_cap():
    # the four counts `check axioms --monoid N --max-arity 3` prints
    assert axiom_check_count(NATURALS, (3, 3, 3), 3) == 4366656 + 1467648 + 312 + 512400
    assert axiom_check_count(cyclic(2), (5, 5, 5)) > words.MAX_CHECKS
    assert axiom_check_count(cyclic(9), (3, 3, 3)) > words.MAX_CHECKS
    with pytest.raises(ValueError, match="over the cap"):
        check_axioms(cyclic(2), (5, 5, 5))


# ---------------------------------------------------------------------------
# the packed row kernel


@pytest.mark.parametrize(
    "m", [NATURALS, cyclic(2), cyclic(3), BOOLEAN], ids=lambda m: m.name
)
def test_packed_row_kernel_equals_splice(m):
    # over N with letter cap 3, a slot holds up to 6 and a result up to 9
    slot_letters, letters = (range(7), range(4)) if m == NATURALS else (m.elements(),) * 2
    compose = words._kernel(m, 9 if m == NATURALS else letters[-1], None)
    rng = random.Random(8)

    def draw(alphabet, n):
        return tuple(rng.choice(alphabet) for _ in range(n))

    loops = set()
    for _ in range(300):
        n, r = rng.randint(1, 4), rng.randint(1, 3)
        i = rng.randint(1, n)
        # the letter at slot i changes from row to row of W
        ws = [draw(slot_letters, n)]
        while len(ws) < rng.randint(1, 5):
            w = draw(slot_letters, n)
            if w[i - 1] != ws[-1][i - 1]:
                ws.append(w)
        vs = [draw(letters, r) for _ in range(rng.randint(1, 5))]
        loops.add(len(ws) <= len(vs))  # the kernel loops over the smaller
        packed_w, packed_v = (b"".join(map(bytes, ws)), n), (b"".join(map(bytes, vs)), r)
        for by_v, pairs in (
            (False, [(w, v) for w in ws for v in vs]),
            (True, [(w, v) for v in vs for w in ws]),
        ):
            expected = b"".join(bytes(splice(w, i, v, m.op)) for w, v in pairs)
            got = compose(packed_w, i, packed_v, by_v)
            assert got == (expected, n + r - 1), (ws, i, vs, by_v)
    assert loops == {True, False}


def test_subst_of_the_wrong_arity_is_refused():
    op = cyclic(2).op

    def padded(x, i, y):
        # one letter too many for one pair of arguments alone
        r = splice(x, i, y, op)
        return r + (0,) if y == (1, 1) else r

    with pytest.raises(ValueError, match=r"arity 3 for \(0,\) o_1 \(1, 1\), not 2"):
        check_axioms(cyclic(2), (2, 2, 2), subst=padded)


def test_failing_reports_give_operands_as_tuples():
    first = {}
    for seed in CORRUPTED_SEEDS:
        m, arities, subst = corrupted_case(seed)
        for r in check_axioms(m, arities, letter_cap=2, subst=subst):
            if not r.ok:
                first.setdefault(r.axiom, r)
        if len(first) == len(AXIOM_NAMES):
            break
    assert set(first) == AXIOM_NAMES
    for r in first.values():
        assert all(isinstance(v, (tuple, int, str)) for v in r.counterexample), r
        assert "FAILED at (" in str(r) and "b'" not in str(r)


def test_reports_match_reference_over_naturals():
    bound = (3, 2, 2)
    assert outcomes(check_axioms(NATURALS, bound, letter_cap=2)) == outcomes(
        reference_check_axioms(NATURALS, bound, 2)
    )
