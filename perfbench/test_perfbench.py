"""Self-tests of the benchmark: the oracle, the request lists, the trace maths.

    python3 -m pytest -q perfbench
"""
import random

import oracle
import tracing
import workloads

PRT = oracle.PRESETS["prt"]


def test_reference_rows_match_known_prefixes():
    known = {
        "prt": [1, 1, 2, 5, 14, 42], "fcat1": [1, 2, 5, 14, 42],
        "fcat2": [1, 3, 12, 55, 273], "fcat3": [1, 4, 22, 140, 969],
        "motz": [1, 1, 2, 4, 9, 21, 51], "schr": [1, 3, 11, 45, 197, 903],
        "da": [1, 2, 5, 13, 35, 96, 267], "pw": [1, 3, 13, 75, 541, 4683],
        "comp": [1, 2, 4, 8, 16], "scomp": [1, 3, 9, 27, 81], "dias": [1, 2, 3, 4],
        "end": [1, 4, 27, 256], "pf": [1, 3, 16, 125], "per": [1, 2, 6, 24, 120],
    }
    for name, row in known.items():
        assert oracle.reference_row(name, len(row)) == row, name


def test_reference_closure_matches_reference_rows():
    for name, (monoid, gens) in oracle.PRESETS.items():
        words = oracle.reference_closure(monoid, gens, 6)
        assert oracle.dims_of(words, 6) == oracle.reference_row(name, 6), name


def test_closure_oracle_accepts_the_closure():
    for monoid, gens in [PRT, ("N3", ((0, 2), (1, 1, 0))), ("B01", ((1, 0), (0, 0, 1)))]:
        words = oracle.reference_closure(monoid, gens, 6)
        assert oracle.closure_defect(monoid, gens, 6, words) is None


def test_closure_oracle_rejects_a_dropped_word():
    monoid, gens = PRT
    words = sorted(oracle.reference_closure(monoid, gens, 6))
    for dropped in (words[0], words[len(words) // 2], words[-1]):
        rest = [w for w in words if w != dropped]
        assert oracle.closure_defect(monoid, gens, 6, rest) is not None, dropped


def test_closure_oracle_rejects_an_added_word():
    monoid, gens = PRT
    words = oracle.reference_closure(monoid, gens, 6)
    for added in [(0, 0, 0, 0), (0, 2), (1,), (0, 1, 2, 3, 4, 5, 6)]:
        assert oracle.closure_defect(monoid, gens, 6, words | {added}) is not None, added


def test_export_oracle_rejects_missing_and_malformed_files(tmp_path):
    request = {"monoid": "N", "generators": PRT[1], "max_arity": 3}
    assert oracle.export_defect(request, str(tmp_path / "absent.jsonl"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"monoid": "N", "letters": [0]}\nnot json\n')
    assert oracle.export_defect(request, str(bad))
    good = tmp_path / "good.jsonl"
    good.write_text("".join(f'{{"monoid": "N", "letters": {list(w)}}}\n'
                            for w in oracle.reference_closure("N", PRT[1], 3)))
    assert oracle.export_defect(request, str(good)) is None
    good.write_text(good.read_text() + '{"monoid": "N", "letters": [0]}\n')
    assert oracle.export_defect(request, str(good)) == "repeated record"


def test_report_oracle_rejects_a_wrong_dimension_row():
    request = {"kind": "dims", "name": "fcat1", "max_arity": 5}
    good = {"ok": True, "dimensions": [1, 2, 5, 14, 42]}
    assert oracle.report_defect(request, 0, good) is None
    assert oracle.report_defect(request, 0, {"ok": True, "dimensions": [1, 2, 5, 14, 43]})
    assert oracle.report_defect(request, 0, {"ok": True, "dimensions": [1, 2, 5, 14]})
    assert oracle.report_defect(request, 1, good)
    assert oracle.report_defect(request, 2, None)
    custom = {"kind": "gen", "name": None, "max_arity": 4, "monoid": "N2",
              "generators": ((0, 0), (0, 1))}
    assert oracle.report_defect(custom, 0, {"ok": True, "dimensions": [1, 2, 4, 8]}) is None
    assert oracle.report_defect(custom, 0, {"ok": True, "dimensions": [1, 2, 4, 7]})
    pres = {"kind": "presentation", "name": "schr", "max_arity": 4}
    assert oracle.report_defect(
        pres, 0, {"ok": True, "class_counts": [1, 3, 11, 47], "dimensions": [1, 3, 11, 45]})


def test_axiom_check_counts():
    assert oracle._axiom_counts("N2", 3) == {
        "series-associativity": 16184, "parallel-associativity": 5488,
        "unit": 48, "equivariance": 9396,
    }


def test_same_seed_same_list_other_seed_other_list():
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 7, 8)
        assert first == workloads.build(workload, 7, 8)
        assert first != workloads.build(workload, 8, 8)
        assert len(first) >= 110, workload


def test_custom_sets_are_small_and_finite():
    rng = random.Random(0)
    for _ in range(200):
        monoid, gens, bound = workloads.custom_set(rng)
        assert monoid in ("N2", "N3", "B01")
        assert 2 <= len(gens) <= 3 and len(set(gens)) == len(gens)
        assert all(2 <= len(g) <= 3 for g in gens)
        assert bound >= max(len(g) for g in gens)
        words = len(oracle.reference_closure(monoid, gens, bound))
        assert workloads.CUSTOM_WORDS[0] <= words <= workloads.CUSTOM_WORDS[1]


def test_self_times_subtract_children():
    spans = [["cli.main", 0.0, 10.0, -1, 0],
             ["generation.closure", 1.0, 7.0, 0, 0],
             ["generation.export", 2.0, 3.0, 1, 0],
             ["families.views", 8.0, 9.0, 0, 0]]
    assert tracing.self_times(spans) == [3.0, 5.0, 1.0, 1.0]
    counts = {name: 0 for name in tracing.COUNTERS}
    metrics = tracing.summarize({"spans": spans, "counts": counts}, [10.5])
    assert metrics["cli.self_s"] == 3.0
    assert metrics["trace.unaccounted_s"] == 0.5
