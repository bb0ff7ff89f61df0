import argparse
import ast
import dataclasses
import hashlib
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from opwords import families as fam
from opwords import cli, presentations, words
from opwords.cli import build_parser, main
from opwords.families import membership
from opwords.families.membership import Family
from opwords.monoids import NATURALS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_preset(capsys, tmp_path):
    out_path = tmp_path / "prt.jsonl"
    code, out, _ = run(
        capsys, "gen", "--operad", "prt", "--max-arity", "6", "--out", str(out_path)
    )
    assert code == 0
    assert "1, 1, 2, 5, 14, 42" in out
    records = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert len(records) == 65
    assert records[0] == {"monoid": "N", "letters": [0]}


# sha256 of each `gen --out` file, as written by the tuple-storing closure
PINNED_EXPORTS = [
    (("--operad", "fcat1", "--max-arity", "9"),
     "4cc697c25bcfee90c14c86a450cc01320178accfde8b49eebfbcba37c214c121"),
    (("--operad", "schr", "--max-arity", "7"),
     "74ea6a1f54abe48c6bcc9e8eb0f2dc6cd165f0d401641856b7c6346ed6aec8c8"),
    (("--operad", "comp", "--max-arity", "10"),
     "cf5d2e5a39c97d7accb145d5c7ceafd6bc71bebc3e2651540c66f7e8797e6532"),
    (("--operad", "motz", "--max-arity", "10"),
     "340185924b36d00182daccece52a5451faa61561fa0b374fae9e04896f5ec369"),
    (("--operad", "da", "--max-arity", "8"),
     "08491f272c82f5abe59e4234a12766b07b571ec8c09725c593375017f4a58a3e"),
    (("--operad", "pw", "--max-arity", "6"),
     "8e2bc991537da7977c9976d5b81a1dbfc992cf85b124afda20969e2b592f58aa"),
    (("--monoid", "N256", "--generators", "8,97", "--max-arity", "2"),
     "d79ff4ca9bf0554fb2b9b47b1601eb0daa348118d036bd5ba7db06f50d31b06f"),
]


@pytest.mark.parametrize(
    "argv,digest", PINNED_EXPORTS, ids=["fcat1", "schr", "comp", "motz", "da", "pw", "N256"]
)
def test_gen_exports_are_pinned(capsys, tmp_path, argv, digest):
    out_path = tmp_path / "words.jsonl"
    code, _, _ = run(capsys, "gen", *argv, "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_gen_symmetric_preset(capsys):
    code, out, _ = run(capsys, "gen", "--operad", "pw", "--max-arity", "5")
    assert code == 0
    assert "1, 3, 13, 75, 541" in out


def test_gen_rejects_non_generated(capsys):
    for name in ("end", "pf", "per"):
        code, _, err = run(capsys, "gen", "--operad", name, "--max-arity", "4")
        assert code == 2
        assert "not finitely generated" in err


def test_gen_custom_generators(capsys):
    code, out, _ = run(
        capsys, "gen", "--monoid", "N2", "--generators", "00,01", "--max-arity", "5"
    )
    assert code == 0
    assert "1, 2, 4, 8, 16" in out


def test_gen_requires_a_description(capsys):
    code, _, err = run(capsys, "gen", "--max-arity", "4")
    assert code == 2 and "need --operad" in err


@pytest.mark.parametrize(
    "extra",
    [
        ("--symmetric",),
        ("--monoid", "B01"),
        ("--generators", "11"),
        ("--symmetric", "--monoid", "B01", "--generators", "11"),
    ],
)
def test_gen_preset_refuses_custom_flags(capsys, extra):
    code, out, err = run(capsys, "gen", "--operad", "prt", "--max-arity", "4", *extra)
    assert code == 2 and out == ""
    assert "--operad" in err


def test_dims_with_table_annotation(capsys):
    code, out, _ = run(capsys, "dims", "--operad", "pw", "--max-arity", "5")
    assert code == 0
    assert "1, 3, 13, 75, 541" in out
    assert "match" in out


def test_dims_predicate_presets(capsys):
    code, out, _ = run(capsys, "dims", "--operad", "end", "--max-arity", "4")
    assert code == 0
    assert "1, 4, 27, 256" in out and "enumeration" in out
    code, out, _ = run(capsys, "dims", "--operad", "per", "--max-arity", "5")
    assert code == 0
    assert "1, 2, 6, 24, 120" in out


def test_dims_flags_suspect_table_row(capsys):
    code, out, _ = run(capsys, "dims", "--operad", "scomp", "--max-arity", "5")
    assert code == 0
    assert "1, 3, 9, 27, 81" in out
    assert "misprint" in out
    assert "1, 3, 27, 81, 243" in out  # the printed row is shown, not adopted


def test_dims_mismatch_sets_exit_code(capsys, monkeypatch):
    broken = Family(
        "prt", NATURALS, fam.get_family("prt").generators, False,
        fam.is_prt_word, fam.enumerate_prt, table_dims=(9, 9, 9),
    )
    monkeypatch.setitem(fam.FAMILIES, "prt", broken)
    code, out, _ = run(capsys, "dims", "--operad", "prt", "--max-arity", "3")
    assert code == 1
    assert "MISMATCH" in out


def test_unknown_preset_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--operad", "zzz"])
    assert exc.value.code == 2


def test_unknown_bijections_operad_is_an_argparse_usage_error(capsys):
    # the same message as the other --operad commands, not a quoted KeyError
    errors = []
    commands = (("dims",), ("check", "bijections"), ("check", "relations"),
                ("check", "presentation"))
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            main([*command, "--operad", "zzz"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err.splitlines()[-1])
    assert errors[1] == errors[0].replace("opwords dims:", "opwords check bijections:")
    # the presentation presets are fewer than the families, so only the
    # start of their line is shared
    for error in errors[1:]:
        assert "argument --operad: invalid choice: 'zzz'" in error


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "axioms", "--monoid", "N2", "--max-arity", "0"),
        ("dims", "--operad", "end", "--max-arity", "0"),
        ("gen", "--operad", "prt", "--max-arity", "-1"),
        ("check", "functor", "--max-arity", "x"),
    ],
)
def test_arity_bound_below_one_is_usage_error(capsys, argv):
    # a run over no arity would print pass after checking nothing
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "pass" not in out.out
    assert "at least 1" in out.err


@pytest.mark.parametrize("warm", [False, True])
def test_da_bound_below_its_generator_arity_is_usage_error(capsys, warm):
    """`da` refuses arity bound 1 like every generated family, whether or not
    the process already holds a larger `da` closure."""
    if warm:
        assert run(capsys, "dims", "--operad", "da", "--max-arity", "5")[0] == 0
    refusal = "error: arity bound 1 is below the largest generator arity 2\n"
    for argv in (
        ("dims", "--operad", "da", "--max-arity", "1"),
        ("check", "characterization", "--operad", "da", "--max-arity", "1"),
        ("check", "bijections", "--operad", "da", "--max-arity", "1"),
        ("gen", "--operad", "da", "--max-arity", "1"),
    ):
        assert run(capsys, *argv) == (2, "", refusal), argv


def test_gen_unwritable_out_is_an_error_not_a_mismatch(capsys, tmp_path):
    target = tmp_path / "missing" / "x.jsonl"
    code, out, err = run(
        capsys, "gen", "--operad", "prt", "--max-arity", "3", "--out", str(target)
    )
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not target.exists()


def test_gen_export_over_the_word_cap_is_refused_before_the_file(capsys, monkeypatch, tmp_path):
    """prt has 1, 1, 2, 5 and 14 words at arities 1-5: 9 words export under
    a cap of 10, and 23 are refused, with no file made."""
    monkeypatch.setattr(cli, "MAX_EXPORT_WORDS", 10)
    kept, refused = tmp_path / "kept.jsonl", tmp_path / "refused.jsonl"
    code, out, _ = run(capsys, "gen", "--operad", "prt", "--max-arity", "4", "--out", str(kept))
    assert code == 0 and f"wrote 9 words to {kept}" in out
    assert len(kept.read_text().splitlines()) == 9
    code, out, err = run(
        capsys, "gen", "--operad", "prt", "--max-arity", "5", "--out", str(refused)
    )
    assert (code, out) == (2, "")
    assert err == "error: export of 23 words is over the cap of 10\n"
    assert not refused.exists()
    code, out, _ = run(capsys, "gen", "--operad", "prt", "--max-arity", "5")
    assert code == 0 and "1, 1, 2, 5, 14" in out


def test_gen_export_cap_admits_pw_at_arity_9():
    assert 7685705 <= cli.MAX_EXPORT_WORDS < 10 * 7685705


def test_gen_non_unit_arity_one_generator_over_naturals(capsys):
    code, _, err = run(
        capsys, "gen", "--monoid", "N", "--generators", "1,01", "--max-arity", "3"
    )
    assert code == 2
    assert err.startswith("error: ") and "arity-1 generator" in err
    # over a finite monoid the same generators close to a finite family
    code, out, _ = run(
        capsys, "gen", "--monoid", "N3", "--generators", "1,01", "--max-arity", "3"
    )
    assert code == 0
    assert "3, 9, 27" in out


def test_check_axioms(capsys):
    code, out, _ = run(capsys, "check", "axioms", "--monoid", "N2", "--max-arity", "3")
    assert code == 0
    for name in ("series", "parallel", "unit", "equivariance"):
        assert name in out


def test_check_characterization(capsys):
    code, out, _ = run(
        capsys, "check", "characterization", "--operad", "motz", "--max-arity", "6"
    )
    assert code == 0 and "equal" in out


def test_check_characterization_da_reports(capsys):
    code, out, _ = run(
        capsys, "check", "characterization", "--operad", "da", "--max-arity", "5"
    )
    assert code == 0
    assert "step-word description" in out
    assert "agree" in out


def test_check_relations(capsys):
    code, out, _ = run(capsys, "check", "relations", "--operad", "comp")
    assert code == 0
    assert out.count("==") >= 4
    code, out, _ = run(capsys, "check", "relations", "--operad", "prt")
    assert code == 0 and "free" in out


def test_check_presentation(capsys):
    code, out, _ = run(
        capsys, "check", "presentation", "--operad", "comp", "--max-arity", "6"
    )
    assert code == 0
    assert "1, 2, 4, 8, 16, 32" in out
    code, out, _ = run(
        capsys, "check", "presentation", "--operad", "schr", "--max-arity", "5"
    )
    assert code == 0 and "reported only" in out


def test_check_presentation_builds_each_arity_once(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return presentations.congruence_class_counts(*args)

    monkeypatch.setattr(cli, "congruence_class_counts", counting)
    code, _, _ = run(
        capsys, "check", "presentation", "--operad", "comp", "--max-arity", "6"
    )
    assert code == 0
    # one pass over arities 1..6, not one count per arity
    assert calls == [6]


def test_check_presentation_counts_before_building_a_closure(capsys, monkeypatch):
    built = []
    closure = Family.closure

    def recording(self, max_arity):
        built.append((self.name, max_arity))
        return closure(self, max_arity)

    monkeypatch.setattr(Family, "closure", recording)
    code, out, err = run(
        capsys, "check", "presentation", "--operad", "schr", "--max-arity", "10"
    )
    assert (code, out) == (2, "")
    assert err == "error: 2025663 nodes through arity 10 exceed the 500000 guard\n"
    assert built == []


def test_failing_asserted_presentation_shows_its_gap(capsys, monkeypatch):
    # comp without its fourth relation a(b(.,.),.) == b(.,b(.,.))
    comp = presentations.PRESENTATIONS["comp"]
    first_three = "\n".join(comp.relations_text.strip().splitlines()[:3])
    monkeypatch.setitem(
        presentations.PRESENTATIONS, "comp", dataclasses.replace(comp, relations_text=first_three)
    )
    code, out, _ = run(
        capsys, "check", "presentation", "--operad", "comp", "--max-arity", "5"
    )
    assert code == 1
    line = next(line for line in out.splitlines() if "dimensions" in line)
    assert line.startswith("FAIL") and line.endswith("(gap: (0, 0, 1, 6, 26))")


def test_check_presentation_schr_at_arity_eight(capsys):
    code, out, _ = run(
        capsys, "check", "presentation", "--operad", "schr", "--max-arity", "8", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class_counts"] == payload["dimensions"]
    assert payload["class_counts"][-1] == 20793


def test_check_presentation_refuses_its_edges_before_building_them(capsys):
    # dias has p classes at arity p: its nodes grow like n^3 and its root
    # edges like n^5, 5 C(n+3, 6) through arity n; 2,375,100 through 26
    start = time.perf_counter()
    code, out, err = run(
        capsys, "check", "presentation", "--operad", "dias", "--max-arity", "60"
    )
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert err == "error: 2375100 edges through arity 26 exceed the 2000000 guard\n"


def test_check_bijections(capsys):
    code, out, _ = run(
        capsys, "check", "bijections", "--operad", "prt", "--max-arity", "6"
    )
    assert code == 0
    assert "round-trip" in out and "object-level" in out
    assert "((" in out  # sample trees render as parenthesis strings
    code, out, _ = run(
        capsys, "check", "bijections", "--operad", "motz", "--max-arity", "5"
    )
    assert code == 0 and ("U" in out or "S" in out)  # sample paths as step strings
    code, out, _ = run(
        capsys, "check", "bijections", "--operad", "comp", "--max-arity", "4"
    )
    # samples: 011 ~ 3 at arity 3, 0111 ~ 4 at arity 4
    assert code == 0 and "011 ~ 3" in out and "0111 ~ 4" in out
    code, _, err = run(
        capsys, "check", "bijections", "--operad", "pw", "--max-arity", "4"
    )
    assert code == 2 and "object view" in err


def test_check_bijections_reports_a_word_that_does_not_round_trip(capsys, monkeypatch):
    family = fam.get_family("prt")
    altered = family.to_object((0, 1, 1))

    def from_object(view):
        return (0, 1, 2) if view == altered else family.from_object(view)

    monkeypatch.setitem(
        fam.FAMILIES, "prt", dataclasses.replace(family, from_object=from_object)
    )
    code, out, _ = run(capsys, "check", "bijections", "--operad", "prt", "--max-arity", "4")
    assert code == 1
    lines = out.splitlines()
    assert lines[3] == "FAIL arity 3: 2 words round-trip; first failure 011"
    assert lines[2].startswith("     arity 2: 1 words round-trip")
    assert lines[4].startswith("     arity 4: 5 words round-trip")
    assert lines[-1].startswith("FAIL (")


def test_enumerations_over_the_candidate_cap_are_usage_errors(capsys, monkeypatch):
    """Under a cap of 100 sorted members, end passes arity 4 (35 members) and
    stops at 5 (126), pf at 6 (132) and pw at 8 (128); per builds one."""
    monkeypatch.setattr(membership, "MAX_CANDIDATES", 100)
    code, out, _ = run(capsys, "dims", "--operad", "end", "--max-arity", "4")
    assert code == 0 and "1, 4, 27, 256" in out
    code, out, _ = run(capsys, "dims", "--operad", "per", "--max-arity", "6")
    assert code == 0 and "1, 2, 6, 24, 120, 720" in out
    for argv in (
        ("dims", "--operad", "end", "--max-arity", "5"),
        ("dims", "--operad", "pf", "--max-arity", "6"),
        ("check", "characterization", "--operad", "pw", "--max-arity", "8"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "over the cap of 100" in err


def test_object_substitution_converts_each_word_once():
    """Each word of the closure goes through `to_object` once, and a wrong
    graft is reported at the same (x, y, i) case as before."""
    family = fam.get_family("comp")
    closure = family.closure(3)
    words_in = list(closure.iter_all())
    converted = []

    def to_object(w):
        converted.append(w)
        return family.to_object(w)

    bad_host = family.to_object((0, 1))

    def graft(c, i, d):
        wrong = c == bad_host and i == 2 and len(d) == 2
        return family.graft(c, i, d) + ((1,) if wrong else ())

    cases = [(x, y, i) for x in words_in for y in words_in for i in range(1, len(x) + 1)]
    counting = dataclasses.replace(family, to_object=to_object)
    assert cli._object_substitution_agrees(counting, closure) == (True, len(cases))
    assert sorted(converted) == sorted(words_in)
    first_bad = cases.index(((0, 1), words_in[1], 2)) + 1
    wrong = dataclasses.replace(family, graft=graft)
    assert cli._object_substitution_agrees(wrong, closure) == (False, first_bad)


def _record_enumerations(monkeypatch, name):
    """Swap the family's enumerator for one that records each arity asked."""
    family = fam.get_family(name)
    asked = []

    def enumerate_arity(n):
        asked.append(n)
        return family.enumerate_arity(n)

    monkeypatch.setitem(
        fam.FAMILIES, name, dataclasses.replace(family, enumerate_arity=enumerate_arity)
    )
    return asked


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "characterization", "--operad", "pw", "--max-arity", "21"),
        ("dims", "--operad", "pf", "--max-arity", "14"),
        ("dims", "--operad", "end", "--max-arity", "12"),
    ],
)
def test_over_cap_enumerations_are_refused_before_any_work(capsys, monkeypatch, argv):
    """The top arity is enumerated first and refused there, naming the
    sorted members it would build (2^20, Catalan(14) and C(23, 12)): no
    closure is built and no smaller arity is enumerated."""
    name = argv[argv.index("--operad") + 1]
    members = {"pw": 2**20, "pf": 2674440, "end": 1352078}[name]
    asked = _record_enumerations(monkeypatch, name)

    def no_closure(self, max_arity):
        raise AssertionError("closure built before the cap was checked")

    monkeypatch.setattr(Family, "closure", no_closure)
    code, out, err = run(capsys, *argv)
    n = int(argv[-1])
    assert (code, out) == (2, "")
    assert err == (
        f"error: arity {n} would build {members} sorted members, over the cap of 1000000\n"
    )
    assert asked == [n]


@pytest.mark.parametrize(
    "name,n,members,first",
    [("comp", 40, 2**20, 21), ("scomp", 30, 3**13, 14), ("fcat1", 20, 2674440, 14)],
)
def test_non_symmetric_characterizations_over_the_cap_are_refused_at_once(
    capsys, monkeypatch, name, n, members, first
):
    """2^39, 3^29 and Catalan(20) members are refused in under a second by
    the first arity whose count passes the cap, before any closure."""
    asked = _record_enumerations(monkeypatch, name)

    def no_closure(self, max_arity):
        raise AssertionError("closure built before the cap was checked")

    monkeypatch.setattr(Family, "closure", no_closure)
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "characterization", "--operad", name,
                         "--max-arity", str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        f"error: arity {n} would build at least the {members} members of arity {first}, "
        "over the cap of 1000000\n"
    )
    assert asked == [n]


def test_characterization_of_pw_reaches_arity_10(capsys):
    code, out, _ = run(
        capsys, "check", "characterization", "--operad", "pw", "--max-arity", "10"
    )
    assert code == 0 and "closure vs membership predicate: equal" in out


def test_characterization_enumerates_each_arity_once(capsys, monkeypatch):
    asked = _record_enumerations(monkeypatch, "pw")
    code, out, _ = run(capsys, "check", "characterization", "--operad", "pw", "--max-arity", "4")
    assert code == 0 and "closure vs membership predicate: equal" in out
    assert asked == [4, 3, 2, 1]


def test_characterization_witnesses_are_the_least_words_of_the_difference(
    capsys, monkeypatch
):
    """An enumerator that drops the orbit of 0112 and adds the non-member
    orbit of 0022 is reported by the least words of the full difference."""
    family = fam.get_family("pw")
    dropped, added = bytes((0, 1, 1, 2)), bytes((0, 0, 2, 2))

    def corrupted(n):
        words = family.enumerate_arity(n)
        return [w for w in words if w != dropped] + [added] if n == 4 else words

    monkeypatch.setitem(
        fam.FAMILIES, "pw", dataclasses.replace(family, enumerate_arity=corrupted)
    )
    members = {w for w in itertools.product(range(4), repeat=4) if fam.is_twisted_packed_word(w)}
    enumerated = set(fam.get_family("pw").enumerated(4).words(4))
    # 75 members, less the 12 rearrangements of 0112, plus the 6 of 0022
    assert (len(members), len(enumerated)) == (75, 75 - 12 + 6)
    missing, extra = min(enumerated - members), min(members - enumerated)
    code, out, _ = run(capsys, "check", "characterization", "--operad", "pw", "--max-arity", "4")
    assert code == 1
    assert f"mismatch at arity 4; missing {missing}; extra {extra}" in out


def test_dims_of_pw_reach_arity_12(capsys):
    code, out, _ = run(capsys, "dims", "--operad", "pw", "--max-arity", "12", "--json")
    assert code == 0
    assert json.loads(out)["dimensions"][11] == 28091567595


def test_axiom_checks_over_the_cap_are_usage_errors(capsys, monkeypatch):
    monkeypatch.setattr(words, "MAX_CHECKS", 1000)
    code, out, err = run(capsys, "check", "axioms", "--monoid", "N2", "--max-arity", "3")
    assert code == 2 and out == ""
    assert "over the cap of 1000" in err


@pytest.mark.parametrize("monoid, bound", [("N2", "10000"), ("N1", "1000000000")])
def test_axiom_checks_at_a_huge_bound_are_refused_at_once(capsys, monoid, bound):
    # the exact count at N2@1000 has over 4300 digits, and N1's words are one per arity
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "axioms", "--monoid", monoid, "--max-arity", bound)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "over the cap of 10000000" in err


def test_negative_letter_cap_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "check", "axioms", "--monoid", "N", "--max-arity", "2", "--letter-cap", "-1"
    )
    assert code == 2 and out == "" and "pass" not in err
    assert "negative" in err


@pytest.mark.parametrize("cap", ["0", "3"])
def test_letter_cap_over_a_finite_monoid_is_a_usage_error(capsys, cap):
    code, out, err = run(
        capsys, "check", "axioms", "--monoid", "N2", "--max-arity", "2", "--letter-cap", cap
    )
    assert code == 2 and out == ""
    assert "--letter-cap" in err and "N2 is finite" in err
    code, out, _ = run(capsys, "check", "axioms", "--monoid", "N", "--max-arity", "2", "--letter-cap", cap)
    assert code == 0 and out.splitlines()[-1].startswith("pass")


def test_letter_cap_past_a_packed_letter_is_a_usage_error(capsys):
    # over N a compared word holds sums of up to three letters: 3 * 85 = 255
    code, out, _ = run(
        capsys, "check", "axioms", "--monoid", "N", "--max-arity", "1", "--letter-cap", "85"
    )
    assert code == 0 and out.splitlines()[-1].startswith("pass")
    code, out, err = run(
        capsys, "check", "axioms", "--monoid", "N", "--max-arity", "1", "--letter-cap", "86"
    )
    assert code == 2 and out == ""
    assert "letter 258 over N is above 255" in err


def test_calls_in_one_process_print_what_a_first_call_prints(capsys):
    """`main` builds its parser once per process; no call, a usage error
    included, changes what a later call prints."""
    commands = [
        ("gen", "--operad", "prt", "--max-arity", "5"),
        ("dims", "--operad", "pw", "--max-arity", "4"),
        ("dims", "--operad", "pw", "--max-arity", "0"),
        ("check", "axioms", "--monoid", "N2", "--max-arity", "2"),
    ]

    def once(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out.splitlines()[:-1], err  # the last line carries wall time

    first = []
    for argv in commands:
        build_parser.cache_clear()
        first.append(once(argv))
    assert [code for code, _, _ in first] == [0, 0, 2, 0]
    assert [once(argv) for _ in range(2) for argv in commands] == first * 2
    assert build_parser.cache_info().misses == 1


def test_traced_commands_still_run():
    """The benchmark's tracer wraps the view functions where the modules and
    the family records hold them; it patches them process-wide, so it runs in
    a child process."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'perfbench')!r}, {str(root / 'src')!r}]\n"
        "import tracing\n"
        "tracer = tracing.install()\n"
        "import opwords.cli\n"
        "codes = [opwords.cli.main(['check', 'bijections', '--operad', 'comp',"
        " '--max-arity', '4']),\n"
        "         opwords.cli.main(['dims', '--operad', 'da', '--max-arity', '4']),\n"
        "         opwords.cli.main(['check', 'presentation', '--operad', 'schr',"
        " '--max-arity', '5'])]\n"
        "counts = tracer.dump()['counts']\n"
        "print(codes, counts['families.view_calls'], counts['families.da_calls'])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    # two view calls per round trip (15), one per sample (4), since a sample
    # reuses its round trip's object, one per word the grafts convert (15)
    # and two per graft (735)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] 1519 1"


def test_tracer_sees_the_orbit_enumerators():
    """`dims` and `check characterization` enumerate through the family
    records' enumerators, which the tracer wraps by name."""
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'perfbench')!r}, {str(root / 'src')!r}]\n"
        "import tracing\n"
        "tracer = tracing.install()\n"
        "import opwords.cli\n"
        "codes = [opwords.cli.main(['dims', '--operad', 'end', '--max-arity', '5']),\n"
        "         opwords.cli.main(['check', 'characterization', '--operad', 'pw',"
        " '--max-arity', '5'])]\n"
        "trace = tracer.dump()\n"
        "spans = sum(span[0] == 'families.enumerate' for span in trace['spans'])\n"
        "print(codes, spans, trace['counts']['families.enumerated'])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    # one span per arity of each command; 126 + 35 + 10 + 3 + 1 end multisets
    # and 16 + 8 + 4 + 2 + 1 pw compositions
    assert done.stdout.splitlines()[-1] == "[0, 0] 10 206"


def test_check_functor(capsys):
    code, out, _ = run(capsys, "check", "functor", "--max-arity", "5")
    assert code == 0
    assert out.count("equals") == 3


def test_check_functor_lines(capsys):
    code, out, _ = run(capsys, "check", "functor", "--max-arity", "3")
    assert code == 0
    assert out.splitlines()[1:4] == [
        "     image of fcat1 mod 2 equals comp up to arity 3",
        "     image of fcat2 mod 3 equals scomp up to arity 3",
        "     image of fcat1 mod 3 equals da up to arity 3",
    ]


def test_check_functor_reports_the_first_arity_that_differs(capsys, monkeypatch):
    reduce = cli.reduce_mod

    def to_zero(modulus):
        theta = reduce(modulus)
        return dataclasses.replace(theta, map=lambda a: 0) if modulus == 2 else theta

    monkeypatch.setattr(cli, "reduce_mod", to_zero)
    code, out, _ = run(capsys, "check", "functor", "--max-arity", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[1:4] == [
        "FAIL image of fcat1 mod 2 equals comp up to arity 3; mismatch at arity 2; "
        "missing (0, 1)",
        "     image of fcat2 mod 3 equals scomp up to arity 3",
        "     image of fcat1 mod 3 equals da up to arity 3",
    ]
    assert lines[4].startswith("FAIL (")


def test_check_functor_builds_each_closure_once(capsys, monkeypatch):
    calls = []
    generate = membership.generate_closure

    def counting(gens, max_arity):
        calls.append(max_arity)
        return generate(gens, max_arity)

    monkeypatch.setattr(membership, "generate_closure", counting)
    code, _, _ = run(capsys, "check", "functor", "--max-arity", "7")
    assert code == 0
    # fcat1, comp, fcat2, scomp and da; fcat1 feeds two arrows
    assert calls == [7] * 5


def test_json_report(capsys):
    code, out, _ = run(capsys, "dims", "--operad", "comp", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["dimensions"] == [1, 2, 4, 8, 16]
    assert "seconds" in payload


def test_reports_are_deterministic_up_to_timing(capsys, tmp_path):
    def snapshot():
        path = tmp_path / "out.jsonl"
        code, out, _ = run(
            capsys, "gen", "--operad", "motz", "--max-arity", "6", "--out", str(path)
        )
        assert code == 0
        lines = out.splitlines()
        return lines[:-1], path.read_text()  # final line carries wall time

    assert snapshot() == snapshot()


# ---------------------------------------------------------------------------
# a command line read in one pass, and the lines left to argparse

KINDS = ("axioms", "characterization", "relations", "presentation", "bijections", "functor")

# lines `cli._read` leaves to argparse, each with the spelled-out line that
# argparse reads it as, or None where argparse prints help or a usage error
FALL_THROUGH = [
    *((words, None) for words in [("-h",), ("gen", "-h"), ("dims", "-h"), ("check", "-h")]),
    *((("check", kind, "-h"), None) for kind in KINDS),
    (("dims", "--oper", "prt"), ("dims", "--operad", "prt")),
    (("check", "presentation", "--operad=prt"), ("check", "presentation", "--operad", "prt")),
    (("dims", "--operad", "prt", "--max-arity", "0"), None),
    (("gen", "--operad", "prt", "--max-arity", "-1"), None),
    (("check", "functor", "--max-arity"), None),
    (("check", "bijections", "--max-arity", "3"), None),
    (("dims", "--operad", "prt", "extra"), None),
    (("dims", "--operad", "prt", "--"), None),
    (("check", "axioms", "--monoid", "N", "--letter-cap", "x"), None),
    (("gen", "--operad", "prt", "--out", "--json"), None),
    (("--json", "gen", "--operad", "prt"), None),
    (("check",), None),
    ((), None),
]


def _well_formed_lines():
    """Each leaf with each preset its --operad takes (with each of four monoids
    for check axioms), bounds 1-3, with and without --json, --out and
    --letter-cap, the options in declared and in reverse order."""
    for words, (_, options) in build_parser().leaves.items():
        heads = ([("--operad", name) for name in options["--operad"].choices]
                 if "--operad" in options else
                 [("--monoid", m) for m in ("N", "N2", "N3", "B01")]
                 if "--monoid" in options else [()])
        bounds = [("--max-arity", str(n)) for n in (1, 2, 3)] if "--max-arity" in options else [()]
        extras = [part for part in [("--json",), ("--out", "x.jsonl"), ("--letter-cap", "2")]
                  if part[0] in options]
        for head, bound, k in itertools.product(heads, bounds, range(len(extras) + 1)):
            for chosen in itertools.combinations(extras, k):
                parts = [head, bound, *chosen]
                for order in (parts, parts[::-1]):
                    yield (*words, *itertools.chain(*order))


def _lines_in_this_file():
    """The command lines written out in this file: the arguments of each
    `run(capsys, ...)` call and each tuple or list that starts with a command
    word.  A part that is no string literal, a path or a bound, stands in as
    "7"; a line with a starred part is left out."""
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run":
            parts = node.args[1:]
        elif isinstance(node, (ast.Tuple, ast.List)):
            parts = node.elts
        else:
            continue
        literal = [p.value if isinstance(p, ast.Constant) and isinstance(p.value, str) else "7"
                   for p in parts]
        if literal and literal[0] in ("gen", "dims", "check") and not any(
            isinstance(p, ast.Starred) for p in parts
        ):
            yield tuple(literal)


def _read_line(argv):
    """What `cli._read` makes of the line."""
    return cli._read(build_parser().leaves, list(argv))


def _parsed(argv):
    """The namespace `parse_args` gives the line, or None where it exits."""
    try:
        return build_parser().parse_args(list(argv))
    except SystemExit:
        return None


def test_a_line_is_read_to_the_namespace_argparse_gives(capsys):
    """The reader refuses every line argparse refuses.  Of the lines argparse
    reads, it leaves to argparse only a value that starts with "-", which
    argparse reads as a negative number."""
    generated, written = set(_well_formed_lines()), set(_lines_in_this_file())
    assert len(generated) > 1000 and len(written) > 60
    left = set()
    for argv in sorted(generated | written - {argv for argv, _ in FALL_THROUGH}):
        got, parsed = _read_line(argv), _parsed(argv)
        assert got == parsed or (got is None and argv in written), argv
        if got is None and parsed is not None:
            left.add(argv)
    assert left == {("check", "axioms", "--monoid", "N", "--max-arity", "2", "--letter-cap", "-1")}
    capsys.readouterr()


@pytest.mark.parametrize("argv, spelled", FALL_THROUGH,
                         ids=[" ".join(argv) or "none" for argv, _ in FALL_THROUGH])
def test_a_line_the_reader_refuses_is_parsed_by_argparse(capsys, argv, spelled):
    """Help and usage errors come from argparse byte for byte, exit code
    included; an abbreviated line is read as its spelled-out line."""
    assert _read_line(argv) is None

    def outcome(parse):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
        return result, *capsys.readouterr()

    expected = outcome(build_parser().parse_args)
    if spelled:
        assert expected == (_read_line(spelled), "", "")
    else:
        assert outcome(main) == expected


def test_a_well_formed_line_runs_without_argparse(capsys, monkeypatch, tmp_path):
    """With argparse's parsing refused, well-formed lines still report through
    `main(argv)` and through `main()` on `sys.argv`, and every line left to
    argparse reaches it."""
    def refused(*args, **kwargs):
        raise AssertionError("argparse parsed the line")

    build_parser()
    for name in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(argparse.ArgumentParser, name, refused)
    lines = [
        ("gen", "--operad", "prt", "--max-arity", "3", "--out", str(tmp_path / "prt.jsonl")),
        ("dims", "--operad", "comp", "--max-arity", "4", "--json"),
        ("check", "axioms", "--monoid", "N", "--max-arity", "1", "--letter-cap", "2"),
        ("check", "characterization", "--operad", "motz", "--max-arity", "3"),
        ("check", "relations", "--operad", "comp"),
        ("check", "presentation", "--operad", "schr", "--max-arity", "3"),
        ("check", "bijections", "--operad", "prt", "--max-arity", "3"),
        ("check", "functor", "--max-arity", "2"),
    ]
    for argv in lines:
        monkeypatch.setattr(sys, "argv", ["opwords", *argv])
        for ran in (run(capsys, *argv), (main(), *capsys.readouterr())):
            code, out, err = ran
            assert (code, err) == (0, ""), argv
            report = json.loads(out)["lines"] if "--json" in argv else out.splitlines()[1:-1]
            assert report and "FAIL" not in str(report), argv
    assert (tmp_path / "prt.jsonl").read_text().count("\n") == 4
    for argv, _ in FALL_THROUGH:
        with pytest.raises(AssertionError, match="argparse parsed the line"):
            main(list(argv))
