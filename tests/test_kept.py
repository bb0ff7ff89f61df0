"""Results kept per arity for the rest of the process against fresh ones.

`check bijections` keeps each family record's round-trip lines and
substitution checks, `Family.enumerated` its levels and
`da_description_report` its rows.  A request served from what is kept must
report exactly what the same request reports once they are forgotten.
"""
import contextlib
import dataclasses
import io
import re

import pytest
from conftest import traced_peak

from opwords import cli, generation, presentations
from opwords import families as fam
from opwords.cli import main
from opwords.families import membership

# the text tail "pass (0.12s)" and the JSON field "seconds": 0.123
SECONDS = re.compile(r"\(\d+\.\d+s\)$|\"seconds\": [0-9.]+", re.M)

RISING = list(range(1, 9))
# rising, falling, repeated and mixed bounds, in one process
BOUNDS = RISING + RISING[::-1] + [5, 5, 8, 8] + [3, 7, 2, 6, 1, 4]
# the last bound taken where arity 8 holds over 20,000 words
TOP = {"fcat2": 7, "fcat3": 6, "schr": 7}

VIEWED = sorted(name for name, f in fam.FAMILIES.items() if f.to_object is not None)


def bounds(name):
    return [n for n in BOUNDS if n <= TOP.get(name, 8)]


def forget():
    """Drop every kept round-trip, enumeration and da row."""
    cli._round_trips.clear()
    membership._enumerations.clear()
    membership._da_rows.clear()


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, SECONDS.sub("?", out.getvalue()), err.getvalue()


def kept_and_fresh(argv, bounds):
    """Each request, text and JSON, run once after the kept results are
    forgotten, and then again at every bound in turn over kept results."""
    requests = [[*argv, "--max-arity", str(n), *flags]
                for n in bounds for flags in ([], ["--json"])]
    fresh = []
    for request in requests:
        forget()
        fresh.append(run(*request))
    forget()
    for request, expected in zip(requests, fresh):
        assert run(*request) == expected, request


@pytest.mark.parametrize("name", VIEWED)
def test_kept_round_trips_report_as_fresh_ones(name):
    """A bound below the generators is refused alike."""
    kept_and_fresh(["check", "bijections", "--operad", name], bounds(name))


def test_kept_da_rows_report_as_fresh_ones():
    kept_and_fresh(["check", "characterization", "--operad", "da"], BOUNDS)


def test_kept_characterizations_report_as_fresh_ones():
    for name in ("pw", "schr", "comp"):
        kept_and_fresh(["check", "characterization", "--operad", name], [6, 3, 6, 7])


@pytest.mark.parametrize("name", sorted(fam.FAMILIES))
def test_kept_enumerations_equal_fresh_ones(name):
    family = fam.get_family(name)
    fresh = {}
    for n in set(bounds(name)):
        forget()
        fresh[n] = family.enumerated(n)
    forget()
    for n in bounds(name):
        assert family.enumerated(n) == fresh[n], (name, n)


def test_a_broken_view_fails_alike_kept_or_fresh(monkeypatch):
    """A view that breaks 0112 fails arity 4 with that word at every bound
    from 4, served kept or fresh, and passes the other arities; the
    substitution check, which reads the same view, fails alike."""
    family = fam.get_family("prt")
    altered = family.to_object((0, 1, 1, 2))

    def from_object(view):
        return (0, 1, 2, 3) if view == altered else family.from_object(view)

    monkeypatch.setitem(
        fam.FAMILIES, "prt", dataclasses.replace(family, from_object=from_object)
    )
    argv = ["check", "bijections", "--operad", "prt"]
    kept_and_fresh(argv, [6, 4, 3, 7])
    code, out, _ = run(*argv, "--max-arity", "5")
    assert code == 1
    arities = out.splitlines()[1:6]
    assert arities[3] == "FAIL arity 4: 5 words round-trip; first failure 0112"
    assert [line[:4] for line in arities].count("FAIL") == 1


def test_an_over_cap_enumeration_keeps_nothing():
    family = fam.get_family("pw")
    refusal = "arity 21 would build 1048576 sorted members, over the cap of 1000000"
    for _ in range(2):
        with pytest.raises(ValueError) as refused:
            family.enumerated(21)
        assert str(refused.value) == refusal
        assert membership._enumerations == {}
    kept = family.enumerated(5)
    with pytest.raises(ValueError) as refused:
        family.enumerated(21)
    assert str(refused.value) == refusal
    levels, = membership._enumerations.values()
    assert len(levels.blocks) == 5
    assert family.enumerated(5) == kept


def test_an_enumeration_packs_one_arity_at_a_time():
    """dias to arity 200 holds 20,100 words of 2,686,700 letters: packed, 2.7 MB.
    Enumerating every arity before packing any held all 200 lists of
    tuples at once, 22.5 MB."""
    _, peak = traced_peak(lambda: fam.get_family("dias").enumerated(200))
    assert peak < 5 * 10**6


def test_a_repeated_bijection_check_calls_no_view(monkeypatch):
    family = fam.get_family("prt")
    calls = []

    def counted(fn):
        def view(*args):
            calls.append(fn)
            return fn(*args)

        return view

    views = ("to_object", "from_object", "show", "graft")
    counting = dataclasses.replace(
        family, **{field: counted(getattr(family, field)) for field in views}
    )
    monkeypatch.setitem(fam.FAMILIES, "prt", counting)
    argv = ["check", "bijections", "--operad", "prt", "--max-arity", "9"]
    first = run(*argv)
    assert first[0] == 0 and calls
    calls.clear()
    assert run(*argv) == first
    assert calls == []


def test_a_lower_cap_refuses_kept_levels_as_fresh_ones(monkeypatch):
    """Under a cap of 100, end refuses arity 5 (126 sorted members) even
    when arity 6 was kept under the default cap."""
    family = fam.get_family("end")
    family.enumerated(6)
    monkeypatch.setattr(membership, "MAX_CANDIDATES", 100)
    with pytest.raises(ValueError) as refused:
        family.enumerated(5)
    assert str(refused.value) == "arity 5 would build 126 sorted members, over the cap of 100"
    assert family.enumerated(4).dimensions() == (1, 4, 27, 256)


def capped_memo(name, monkeypatch, calls):
    """A capped memo's module, cap name, a lowered cap, the request, and the
    memo, with every splice, counted arity or enumerator call put in `calls`."""

    def counted(fn):
        def call(*args):
            calls.append(args)
            return fn(*args)

        return call

    if name == "closure":
        gens = fam.get_family("schr").generator_set()
        monkeypatch.setattr(generation, "_spliced", counted(generation._spliced))
        return (generation, "MAX_CLOSURE_CANDIDATES", 50,
                lambda: generation.generate_closure(gens, 6), generation._closures)
    if name == "count":
        comp = presentations.PRESENTATIONS["comp"]
        monkeypatch.setattr(presentations._Count, "pools", counted(presentations._Count.pools))
        return (presentations, "MAX_NODES", 10,
                lambda: presentations.congruence_class_counts(comp.symbols, comp.relations, 6),
                presentations._counts)
    family = fam.get_family("fcat1")
    family = dataclasses.replace(family, enumerate_arity=counted(family.enumerate_arity))
    return (membership, "MAX_CANDIDATES", 100,
            lambda: family.enumerated(8), membership._enumerations)


@pytest.mark.parametrize("name", ["closure", "count", "enumeration"])
def test_a_capped_memo_keeps_each_entry_under_its_cap(monkeypatch, name):
    """Kept at the default cap, a request is refused under a lowered cap with
    a fresh request's message; with the cap restored, it is served from the
    first entry with no new splice, arity or enumerator call."""
    calls = []
    module, cap, lowered, ask, memo = capped_memo(name, monkeypatch, calls)
    first = ask()
    (entry,) = memo.values()
    assert calls
    default = getattr(module, cap)
    monkeypatch.setattr(module, cap, lowered)
    with pytest.raises(ValueError) as kept_refusal:
        ask()
    kept = dict(memo)
    memo.clear()
    with pytest.raises(ValueError) as fresh_refusal:
        ask()
    memo.clear()
    memo.update(kept)
    assert str(kept_refusal.value) == str(fresh_refusal.value)
    assert f"{lowered}" in str(kept_refusal.value)
    monkeypatch.setattr(module, cap, default)
    calls.clear()
    assert ask() == first
    assert calls == []
    assert list(memo.values())[-1] is entry


def test_equal_family_records_are_kept_apart(monkeypatch):
    """Family records hash by identity: a copy with equal fields gets its own
    round-trips and enumerations."""
    family = fam.get_family("prt")
    twin = dataclasses.replace(family)
    assert twin != family
    for record in (family, twin):
        monkeypatch.setitem(fam.FAMILIES, "prt", record)
        assert run("check", "bijections", "--operad", "prt", "--max-arity", "4")[0] == 0
        record.enumerated(4)
    assert list(cli._round_trips) == [family, twin]
    assert [record for record, _ in membership._enumerations] == [family, twin]
