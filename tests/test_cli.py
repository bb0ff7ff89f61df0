import json
import subprocess
import sys
from pathlib import Path

import pytest

from opwords import families as fam
from opwords import presentations, words
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
def test_da_bound_below_its_generator_arity_is_usage_error(capsys, monkeypatch, warm):
    """`da` refuses arity bound 1 like every generated family, whether or not
    the process already holds a larger `da` closure."""
    monkeypatch.setattr(membership, "_da_cache", None)
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
    built = []

    class CountingUnionFind(presentations._UnionFind):
        def __init__(self, size):
            built.append(size)
            super().__init__(size)

    monkeypatch.setattr(presentations, "_UnionFind", CountingUnionFind)
    code, _, _ = run(
        capsys, "check", "presentation", "--operad", "comp", "--max-arity", "6"
    )
    assert code == 0
    # one union-find per arity 2..6; one call per arity would build 15
    assert len(built) == 5


def test_check_presentation_schr_at_arity_eight(capsys):
    code, out, _ = run(
        capsys, "check", "presentation", "--operad", "schr", "--max-arity", "8", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class_counts"] == payload["dimensions"]
    assert payload["class_counts"][-1] == 20793


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


def test_enumerations_over_the_candidate_cap_are_usage_errors(capsys, monkeypatch):
    monkeypatch.setattr(membership, "MAX_CANDIDATES", 100)
    code, out, _ = run(capsys, "dims", "--operad", "end", "--max-arity", "3")
    assert code == 0 and "1, 4, 27" in out
    for argv in (
        ("dims", "--operad", "end", "--max-arity", "4"),
        ("dims", "--operad", "pf", "--max-arity", "4"),
        ("dims", "--operad", "per", "--max-arity", "5"),
        ("check", "characterization", "--operad", "pw", "--max-arity", "4"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "over the cap of 100" in err


def test_axiom_checks_over_the_cap_are_usage_errors(capsys, monkeypatch):
    monkeypatch.setattr(words, "MAX_CHECKS", 1000)
    code, out, err = run(capsys, "check", "axioms", "--monoid", "N2", "--max-arity", "3")
    assert code == 2 and out == ""
    assert "over the cap of 1000" in err


def test_negative_letter_cap_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "check", "axioms", "--monoid", "N", "--max-arity", "2", "--letter-cap", "-1"
    )
    assert code == 2 and out == "" and "pass" not in err
    assert "negative" in err


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
    # two view calls per round trip (15) and sample (4), four per graft (735)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] 2978 1"


def test_check_functor(capsys):
    code, out, _ = run(capsys, "check", "functor", "--max-arity", "5")
    assert code == 0
    assert out.count("equals") == 3


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
