"""Results kept per arity for the rest of the process against fresh ones.

`check bijections` keeps each family record's round-trip lines and
substitution checks, and `Family.enumerated` its levels, in the one
registry `generation._kept`.  A request served from what is kept must
report exactly what the same request reports once they are forgotten.
"""
import contextlib
import dataclasses
import gc
import io
import re

import pytest
from conftest import nothing_kept, traced_peak

from opwords import generation, presentations
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
    """Drop every kept round-trip and enumeration: each entry kept by a
    family record, alone or with its cap."""
    kept = generation._kept.copy()
    generation._kept.clear()
    for key, (entry, size) in kept.items():
        if not (isinstance(key, fam.Family) or isinstance(key[0], fam.Family)):
            generation._keep(key, entry, size)


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
        assert generation._kept == {}
    kept = family.enumerated(5)
    with pytest.raises(ValueError) as refused:
        family.enumerated(21)
    assert str(refused.value) == refusal
    (blocks, _), = generation._kept.values()
    assert len(blocks) == 5
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
    """A capped memo's module, cap name, a lowered cap and the request, with
    every splice, counted arity or enumerator call put in `calls`."""

    def counted(fn):
        def call(*args):
            calls.append(args)
            return fn(*args)

        return call

    if name == "closure":
        gens = fam.get_family("schr").generator_set()
        monkeypatch.setattr(generation, "_spliced", counted(generation._spliced))
        return (generation, "MAX_CLOSURE_CANDIDATES", 50,
                lambda: generation.generate_closure(gens, 6))
    if name == "count":
        comp = presentations.PRESENTATIONS["comp"]
        monkeypatch.setattr(presentations._Count, "pools", counted(presentations._Count.pools))
        return (presentations, "MAX_NODES", 10,
                lambda: presentations.congruence_class_counts(comp.symbols, comp.relations, 6))
    family = fam.get_family("fcat1")
    family = dataclasses.replace(family, enumerate_arity=counted(family.enumerate_arity))
    return (membership, "MAX_CANDIDATES", 100, lambda: family.enumerated(8))


@pytest.mark.parametrize("name", ["closure", "count", "enumeration"])
def test_a_capped_memo_keeps_each_entry_under_its_cap(monkeypatch, name):
    """Kept at the default cap, a request is refused under a lowered cap with
    a fresh request's message; with the cap restored, it is served from the
    first entry with no new splice, arity or enumerator call."""
    calls = []
    module, cap, lowered, ask = capped_memo(name, monkeypatch, calls)
    first = ask()
    ((entry, _),) = generation._kept.values()
    assert calls
    default = getattr(module, cap)
    monkeypatch.setattr(module, cap, lowered)
    with pytest.raises(ValueError) as kept_refusal:
        ask()
    with nothing_kept(), pytest.raises(ValueError) as fresh_refusal:
        ask()
    assert str(kept_refusal.value) == str(fresh_refusal.value)
    assert f"{lowered}" in str(kept_refusal.value)
    monkeypatch.setattr(module, cap, default)
    calls.clear()
    assert ask() == first
    assert calls == []
    assert list(generation._kept.values())[-1][0] is entry


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
    cap = membership.MAX_CANDIDATES
    records = (family, (family, cap), twin, (twin, cap))
    assert [key for key in generation._kept if key in records] == list(records)


@pytest.mark.parametrize("command", [["dims"], ["check", "bijections"],
                                     ["check", "characterization"]],
                         ids=["dims", "bijections", "characterization"])
def test_a_kept_da_closure_is_refused_by_a_lowered_guard_as_a_fresh_one(monkeypatch, command):
    """da closed to arity 7 under the default guard is not served under a
    guard of 3 candidates, which a fresh da@5 passes by arity 3."""
    argv = [*command, "--operad", "da", "--max-arity"]
    assert run(*argv, "7")[0] == 0
    monkeypatch.setattr(generation, "MAX_CLOSURE_CANDIDATES", 3)
    kept = run(*argv, "5")
    generation._kept.clear()
    membership._da_cache = None
    assert kept == run(*argv, "5")
    assert kept[0] == 2
    assert "10 candidates through arity 3 exceed the 3 guard" in kept[2]


def requests(name, n):
    """The closure, congruence count and enumeration of a preset to arity
    n, each with the key it is kept under at the caps in force."""
    family, preset = fam.get_family(name), presentations.PRESENTATIONS[name]
    gens = family.generator_set()
    symbols, relations = preset.symbols, preset.relations
    return [
        ((gens, generation.MAX_CLOSURE_CANDIDATES),
         lambda: generation.generate_closure(gens, n)),
        ((presentations._key(symbols, relations), presentations.MAX_NODES,
          presentations.MAX_EDGES),
         lambda: presentations.congruence_class_counts(symbols, relations, n)),
        ((family, membership.MAX_CANDIDATES), lambda: family.enumerated(n)),
    ]


def outcome(ask):
    """The answer, or the type and message it is refused with."""
    try:
        return ask()
    except ValueError as refused:  # SizeError too
        return type(refused), str(refused)


def fresh(ask):
    """The outcome with nothing kept; what is kept stays as it was."""
    with nothing_kept():
        return outcome(ask)


def test_a_small_budget_keeps_the_entries_used_last(monkeypatch):
    """Under a 40,000-byte budget, which holds each entry but not all of
    them, closures, counts and enumerations of five presets at mixed bounds,
    then under lowered caps, answer as fresh ones, refusals included; the
    stated total stays within the budget, and the entries kept are those
    used last, in the order of their last use."""
    monkeypatch.setattr(generation, "_KEPT_BYTES", 40_000)
    kept = generation._kept
    used = []
    refused = 0
    lowered = [(generation, "MAX_CLOSURE_CANDIDATES", 50), (presentations, "MAX_NODES", 30),
               (membership, "MAX_CANDIDATES", 20)]
    for caps in ([], lowered):
        for module, cap, value in caps:
            monkeypatch.setattr(module, cap, value)
        for n in (3, 5, 4, 6, 2, 5, 6):
            for name in ("prt", "fcat1", "motz", "comp", "dias"):
                for key, ask in requests(name, n):
                    expected = fresh(ask)
                    assert outcome(ask) == expected, (name, n, key)
                    refused += isinstance(expected, tuple) and isinstance(expected[0], type)
                    if key in kept:  # a refused closure or enumeration keeps nothing new
                        used.append(key)
                    assert kept.total == sum(size for _, size in kept.values()) <= 40_000
        by_last_use = list(dict.fromkeys(reversed(used)))[::-1]
        assert list(kept) == by_last_use[-len(kept):]
        assert len(kept) < len(by_last_use)
    assert refused > 10


def test_an_entry_over_the_budget_is_not_kept(monkeypatch):
    """Under a 30,000-byte budget, the fcat1 count kept at arity 5 (7,256
    bytes) is dropped when it grows to arity 7 (87,584), and the schr
    closure to arity 7 (36,576) is never kept; both answer as fresh ones,
    and the fcat1 closure kept beside them stays."""
    monkeypatch.setattr(generation, "_KEPT_BYTES", 30_000)
    (closure_key, closure), (count_key, count), _ = requests("fcat1", 5)
    closure()
    assert count() == fresh(count)
    assert generation._kept.total == 286 + 7256
    for _, ask in (requests("fcat1", 7)[1], requests("schr", 7)[0]):
        assert ask() == fresh(ask)
    assert list(generation._kept) == [closure_key]
    assert generation._kept.total == 286
    assert count() == fresh(count)
    assert list(generation._kept) == [closure_key, count_key]


@pytest.mark.parametrize("first", [None, 3])
def test_a_refused_count_states_the_arities_it_finished(monkeypatch, first):
    """Refused at arity 6 under a 100-node guard, a comp count, new or kept
    to arity 3, is kept stating the bytes a count to arity 5 states."""
    monkeypatch.setattr(presentations, "MAX_NODES", 100)
    ask = requests("comp", 8)[1][1]
    if first:
        requests("comp", first)[1][1]()
    with pytest.raises(presentations.SizeError):
        ask()
    refused = [size for _, size in generation._kept.values()]
    generation._kept.clear()
    requests("comp", 5)[1][1]()
    assert refused == [size for _, size in generation._kept.values()]


def checks(name, n):
    """Relation checks of n freshly parsed copies of a preset's relations,
    each kept under its own tuple."""
    preset = presentations.PRESENTATIONS[name]
    return lambda: [
        presentations.verify_relations(
            presentations.parse_relations(preset.relations_text), preset.symbols
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize(
    "name, n, kind", [("fcat1", 11, 0), ("schr", 8, 1), ("prt", 10, 2), ("schr", 100, 3)],
    ids=["closure", "count", "enumeration", "check"],
)
def test_a_kept_entry_states_about_the_bytes_it_holds(name, n, kind):
    """The fcat1 closure to arity 11, the schr count to arity 8, the prt
    enumeration to arity 10 and the relation checks of 100 freshly parsed
    schr relation sets each state between half and twice the bytes they
    hold when kept (tracemalloc)."""
    ask = [*(ask for _, ask in requests(name, n)), checks(name, n)][kind]

    def kept_only():
        ask()
        gc.collect()  # empties the interpreter's free lists, which the trace counts

    held, _ = traced_peak(kept_only)
    assert 0.5 * held <= generation._kept.total <= 2 * held, held


def test_a_process_closing_more_than_the_budget_stays_under_it(monkeypatch):
    """Seven closures of 48 to 459 kB of blocks each, 1.56 MB in all, leave
    less than a 500 kB budget held (tracemalloc)."""
    monkeypatch.setattr(generation, "_KEPT_BYTES", 500_000)
    asked = [("fcat1", 10), ("schr", 8), ("fcat2", 7), ("fcat3", 6), ("motz", 13),
             ("prt", 11), ("comp", 15)]

    def close_all():
        for name, n in asked:
            fam.get_family(name).closure(n)

    held, _ = traced_peak(close_all)
    assert len(generation._kept) < len(asked)
    assert held < 500_000, held
