import functools
import itertools
import math
import random
import time
import zlib

import pytest
from conftest import transformations

from opwords import words
from opwords.generation import GeneratorSet, generate_closure
from opwords.monoids import BOOLEAN, NATURALS, Monoid, cyclic
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


def test_axioms_pass_over_a_monoid_that_does_not_commute():
    """Over T2, the maps of two points under composition, the paper's T is
    an operad too.  Scaling a column of W by the letters of V on the left
    made blocks differ where no check fails, which raised `RuntimeError`."""
    T2 = transformations(2)
    reports = check_axioms(T2, (3, 3, 2))
    assert all(r.ok for r in reports), [str(r) for r in reports]
    assert sum(r.checked for r in reports) == axiom_check_count(T2, (3, 3, 2)) == 1_901_832


def test_a_table_monoid_is_read_on_its_carrier_only():
    """A monoid whose product is a table lookup defined on its carrier only
    is `cyclic(2)` under another name: its axiom reports and its closure's
    blocks are those of `cyclic(2)`.  Tabulating the product over every
    byte raised `IndexError`."""
    t = [[0, 1], [1, 0]]
    table = Monoid("Z2t", 0, 2, lambda a, b: t[a][b])
    assert check_axioms(table, (2, 2, 2)) == check_axioms(cyclic(2), (2, 2, 2))
    closures = [generate_closure(GeneratorSet(m, ((0, 1),)), 9) for m in (table, cyclic(2))]
    assert closures[0]._blocks[:9] == closures[1]._blocks[:9]


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


def test_a_law_with_nothing_to_check_does_not_render_ok():
    # parallel associativity needs a word of arity at least 2
    reports = {r.axiom: r for r in check_axioms(cyclic(2), (1, 1, 1))}
    parallel = reports.pop("parallel-associativity")
    assert (parallel.ok, parallel.checked) == (True, 0)
    assert str(parallel) == "parallel-associativity: nothing to check at these arities"
    assert all(r.checked and str(r).endswith(f"ok ({r.checked} checks)") for r in reports.values())


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
    groups_given = {}
    law = words._law

    def watched(axiom, groups):
        # the checks of each group the law was given, up to the one it stopped in
        counts = groups_given[axiom] = []

        def counted():
            for pairs, scan in groups:
                scan = list(scan)
                counts.append(len(scan))
                yield pairs, iter(scan)

        return law(axiom, counted())

    m = cyclic(2)
    with monkeypatch.context() as patch:
        patch.setattr(words, "_law", watched)
        for axiom, bound, *wrong in LATE_FIRST_FAILURES:

            def subst(x, i, y, wrong=wrong):
                r = splice(x, i, y, m.op)
                return (1 - r[0],) + r[1:] if (x, i, y) in wrong else r

            got = check_axioms(m, bound, subst=subst)
            assert outcomes(got) == outcomes(reference_check_axioms(m, bound, subst=subst))
            # the scan finds the failure in the group whose blocks differ
            (report,) = [r for r in got if r.axiom == axiom]
            counts = groups_given[axiom]
            assert sum(counts[:-1]) < report.checked <= sum(counts), axiom
    # listing every scan would compute each check, so the seeds run unwatched
    for seed in CORRUPTED_SEEDS:
        m, arities, subst = corrupted_case(seed)
        got = check_axioms(m, arities, letter_cap=2, subst=subst)
        assert outcomes(got) == corrupted_reference(seed), seed


def test_blocks_that_differ_where_no_check_fails_raise(monkeypatch):
    # a kernel that lays one letter wrong where W is a single word, as the
    # unit law's 1 o_1 x is; the substitution itself is right
    kernel = words._kernel

    def one_row_wrong(m, subst):
        compose = kernel(m, subst)

        def wrong(W, slots, V, by_v=False):
            out, width = compose(W, slots, V, by_v)
            if len(W[0]) == W[1]:
                out[-1] ^= 1
            return out, width

        return wrong

    monkeypatch.setattr(words, "_kernel", one_row_wrong)
    with pytest.raises(RuntimeError, match="unit: a block differs"):
        check_axioms(cyclic(2), (2, 2, 2))


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


def count_by_arity(m, max_arities, letter_cap):
    """`axiom_check_count` an arity at a time through the largest bound."""
    size = len(letter_range(m, letter_cap))
    ax, ay, az = max_arities
    sx = cx = nx = fx = sy = ny = fy = nz = count = 0
    for n in range(1, max(max_arities) + 1):
        w = size**n
        if n <= ax:
            sx, cx, nx = sx + n * w, cx + n * (n - 1) // 2 * w, nx + w
            fx += math.factorial(n) * n * w
        if n <= ay:
            sy, ny, fy = sy + n * w, ny + w, fy + math.factorial(n) * w
        if n <= az:
            nz += w
        count = sx * sy * nz + cx * ny * nz + nx + sx + fx * fy
        if count > words.MAX_CHECKS:
            break
    return count


def test_check_count_with_unequal_bounds_equals_the_count_by_arity():
    bounds = list(itertools.product(range(5), repeat=3))
    bounds += [(ax, ay, az) for ax in (1, 2) for ay in (1, 3) for az in (50, 3000)]
    for m, caps in ((cyclic(1), (3,)), (cyclic(2), (3,)), (BOOLEAN, (3,)), (NATURALS, (0, 1, 2))):
        for cap in caps:
            for b in bounds:
                expected = count_by_arity(m, b, cap)
                assert axiom_check_count(m, b, cap) == expected, (m.name, cap, b)


def test_check_count_over_one_letter_does_not_loop_per_arity():
    # x and y of arity 1 over one letter: z adds one check per arity
    start = time.perf_counter()
    assert axiom_check_count(cyclic(1), (1, 1, 10**6)) == 10**6 + 3
    assert axiom_check_count(cyclic(1), (1, 1, 10**7)) == 10**7 + 3 > words.MAX_CHECKS
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# the packed row kernel


@pytest.mark.parametrize(
    "m",
    [NATURALS, cyclic(2), cyclic(3), BOOLEAN, cyclic(256), transformations(2)],
    ids=lambda m: m.name,
)
def test_packed_row_kernel_equals_splice(m):
    # over N with letter cap 3, a slot holds up to 6 and a result up to 9;
    # over N256 the letters 200..255 give products that wrap past a byte;
    # T2 does not commute, so each side must be multiplied in its order
    if m == NATURALS:
        slot_letters, letters = range(7), range(4)
    elif m == cyclic(256):
        slot_letters = letters = range(200, 256)
    else:
        slot_letters = letters = m.elements()
    compose = words._kernel(m)
    # the tuple branch, as a `subst` under test reaches it
    through_tuples = words._kernel(m, lambda w, i, v: splice(w, i, v, m.op))
    rng = random.Random(8)

    def draw(alphabet, n):
        return tuple(rng.choice(alphabet) for _ in range(n))

    loops = set()
    for case in range(400):
        n, r = rng.randint(1, 4), rng.randint(1, 3)
        # one slot, as the laws lay, or every slot in one call, as the
        # closure lays a slice: over 20 words against 1 to 4 generators
        if case % 2:
            slots, rows, vrows = (rng.randint(1, n),), rng.randint(1, 5), rng.randint(1, 5)
        else:
            slots, rows, vrows = range(1, n + 1), rng.randint(21, 40), rng.randint(1, 4)
        # the letter at the first slot changes from row to row of W
        ws = [draw(slot_letters, n)]
        while len(ws) < rows:
            w = draw(slot_letters, n)
            if w[slots[0] - 1] != ws[-1][slots[0] - 1]:
                ws.append(w)
        vs = [draw(letters, r) for _ in range(vrows)]
        loops.add(len(ws) <= len(vs))  # the kernel loops over the smaller
        packed_w, packed_v = (b"".join(map(bytes, ws)), n), (b"".join(map(bytes, vs)), r)
        for by_v, pairs in (
            (False, [(w, v) for w in ws for v in vs]),
            (True, [(w, v) for v in vs for w in ws]),
        ):
            expected = b"".join(
                bytes(splice(w, i, v, m.op)) for i in slots for w, v in pairs
            ), n + r - 1
            assert compose(packed_w, slots, packed_v, by_v) == expected, (ws, slots, vs, by_v)
            assert through_tuples(packed_w, slots, packed_v, by_v) == expected
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
