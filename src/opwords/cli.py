"""Command-line front end: generation, dimension reports, and checks.

Exit codes: 0 when every sub-verdict passed, 1 when a counterexample or
mismatch was found, 2 on usage errors.  Identical command lines produce
identical reports and exports, except for the wall-time field.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field

from . import families as fam
from .generation import (
    GeneratorSet,
    GradedFamily,
    equals_predicate,
    generate_closure,
    quotient_image,
)
from .monoids import parse_monoid, reduce_mod
from .presentations import PRESENTATIONS, congruence_class_counts, verify_relations
from .words import check_axioms, format_letters, parse_letters, splice


class UsageError(ValueError):
    pass


@dataclass
class RunReport:
    """What a command did: echoed invocation, result lines, verdict, timing."""

    command: str
    lines: list[str] = field(default_factory=list)
    ok: bool = True
    seconds: float = 0.0
    data: dict = field(default_factory=dict)

    def add(self, text: str, ok: bool = True) -> None:
        self.lines.append(("     " if ok else "FAIL ") + text)
        self.ok = self.ok and ok

    def render(self, as_json: bool) -> str:
        if as_json:
            payload = {
                "command": self.command,
                "ok": self.ok,
                "lines": self.lines,
                "seconds": round(self.seconds, 3),
                **self.data,
            }
            return json.dumps(payload, sort_keys=True)
        status = "pass" if self.ok else "FAIL"
        tail = f"{status} ({self.seconds:.2f}s)"
        return "\n".join([f"$ {self.command}", *self.lines, tail])


def _format_dims(dims: tuple[int, ...]) -> str:
    return ", ".join(str(d) for d in dims)


def _resolve_generated(args) -> tuple[str, GeneratorSet]:
    """A preset name or a custom monoid/generator description."""
    if args.operad:
        if args.monoid or args.generators or args.symmetric:
            raise UsageError(
                "--operad takes its monoid, generators and symmetry from the preset; "
                "drop --monoid, --generators and --symmetric"
            )
        family = fam.get_family(args.operad)
        if not family.finitely_generated:
            raise UsageError(f"{family.name} is not finitely generated")
        return family.name, family.generator_set()
    if not (args.monoid and args.generators):
        raise UsageError("need --operad, or --monoid together with --generators")
    m = parse_monoid(args.monoid)
    gens = tuple(parse_letters(t) for t in args.generators.split(","))
    return "custom", GeneratorSet(m, gens, args.symmetric)


# ---------------------------------------------------------------------------
# commands


# the most words `gen --out` writes, checked before the file is opened:
# pw@9, 7,685,705 words, still exports
MAX_EXPORT_WORDS = 10**7


def cmd_gen(args) -> RunReport:
    report = RunReport(f"gen --operad {args.operad or 'custom'} --max-arity {args.max_arity}")
    name, gens = _resolve_generated(args)
    closure = generate_closure(gens, args.max_arity)
    dims = closure.dimensions()
    report.add(f"{name}: dimensions {_format_dims(dims)}")
    report.data["dimensions"] = list(dims)
    if args.out:
        total = sum(dims)
        if total > MAX_EXPORT_WORDS:
            raise UsageError(f"export of {total} words is over the cap of {MAX_EXPORT_WORDS}")
        with open(args.out, "w", encoding="utf-8") as handle:
            closure.write_jsonl(handle)
        report.add(f"wrote {total} words to {args.out}")
    return report


def cmd_dims(args) -> RunReport:
    report = RunReport(f"dims --operad {args.operad} --max-arity {args.max_arity}")
    family = fam.get_family(args.operad)
    if family.finitely_generated:
        dims = family.closure(args.max_arity).dimensions()
        source = "closure"
    else:
        dims = family.enumerated(args.max_arity).dimensions()
        source = "enumeration"
    report.add(f"{family.name} ({source}): {_format_dims(dims)}")
    report.data["dimensions"] = list(dims)

    expected = family.expected_dims(args.max_arity)
    if expected is not None:
        agrees = expected == dims
        report.add(f"closed-form count: {_format_dims(expected)}", ok=agrees)
    if family.table_dims is not None:
        k = min(len(family.table_dims), len(dims))
        if family.note is not None:
            # a known-suspect reference row is flagged, not matched
            report.add(f"note: {family.note}")
            report.data["table_row_flagged"] = True
        else:
            agrees = dims[:k] == family.table_dims[:k]
            report.add(
                f"reference table row: {_format_dims(family.table_dims[:k])} "
                f"({'match' if agrees else 'MISMATCH'})",
                ok=agrees,
            )
    return report


def cmd_check_axioms(args) -> RunReport:
    report = RunReport(f"check axioms --monoid {args.monoid} --max-arity {args.max_arity}")
    m = parse_monoid(args.monoid)
    if m.is_finite and args.letter_cap is not None:
        raise UsageError(f"--letter-cap caps the letters of N; {m.name} is finite")
    bound = (args.max_arity,) * 3
    cap = 3 if args.letter_cap is None else args.letter_cap
    for ax in check_axioms(m, bound, letter_cap=cap):
        report.add(str(ax), ok=ax.ok)
    return report


def cmd_check_characterization(args) -> RunReport:
    report = RunReport(
        f"check characterization --operad {args.operad} --max-arity {args.max_arity}"
    )
    family = fam.get_family(args.operad)
    if not family.finitely_generated:
        raise UsageError(f"{family.name} has no generated closure to compare")
    if family.name == "da":
        # membership is defined by the closure; the letter-difference
        # description is compared and reported, never asserted
        rows = fam.da_description_report(args.max_arity)
        for n, agree, n_closure, n_described in rows:
            report.add(
                f"arity {n}: closure {n_closure}, step-word description "
                f"{n_described}, {'agree' if agree else 'DISAGREE (reported only)'}"
            )
        # steps_from_phi is injective, so each described word is one sequence
        for n, _, n_closure, n_described in rows:
            report.add(
                f"arity {n}: nonnegative step sequences {n_described}",
                ok=n_described == n_closure,
            )
        return report
    # enumerated before the closure is built, so an over-cap enumeration is
    # refused first
    expected = family.enumerated(args.max_arity)
    closure = family.closure(args.max_arity)
    verdict = equals_predicate(closure, expected)
    report.add(f"{family.name}: closure vs membership predicate: {verdict}", ok=verdict.ok)
    report.data["dimensions"] = list(closure.dimensions())
    return report


def cmd_check_relations(args) -> RunReport:
    report = RunReport(f"check relations --operad {args.operad}")
    preset = _presentation(args.operad)
    checks = verify_relations(preset.relations, preset.symbols)
    for check in checks:
        report.add(
            f"{check.relation}: {check.left_word} == {check.right_word}",
            ok=check.ok,
        )
    if not checks:
        report.add("no relations (free)")
    return report


def cmd_check_presentation(args) -> RunReport:
    report = RunReport(
        f"check presentation --operad {args.operad} --max-arity {args.max_arity}"
    )
    preset = _presentation(args.operad)
    checks = verify_relations(preset.relations, preset.symbols)
    bad = [c for c in checks if not c.ok]
    report.add(f"{len(checks)} relations hold in the target operad", ok=not bad)
    family = fam.get_family(preset.family)
    dims = family.closure(args.max_arity).dimensions()
    counts = congruence_class_counts(preset.symbols, preset.relations, args.max_arity)
    report.data["class_counts"] = list(counts)
    report.data["dimensions"] = list(dims)
    sound = all(c >= d for c, d in zip(counts, dims))
    report.add(f"classes    {_format_dims(counts)}", ok=sound)
    gap = None if counts == dims else tuple(c - d for c, d in zip(counts, dims))
    line = f"dimensions {_format_dims(dims)}"
    if preset.asserted_complete:
        report.add(line if gap is None else f"{line} (gap: {gap})", ok=gap is None)
    else:
        # relations are only stated in degree 2; the gap is reported
        report.add(f"{line} (gap: {'none' if gap is None else gap}, reported only)")
    return report


def cmd_check_bijections(args) -> RunReport:
    report = RunReport(
        f"check bijections --operad {args.operad} --max-arity {args.max_arity}"
    )
    family = fam.get_family(args.operad)
    if family.to_object is None:
        raise UsageError(f"{args.operad} has no object view to round-trip")
    closure = family.closure(args.max_arity)
    for n in range(1, args.max_arity + 1):
        words_n = closure.words(n)
        bad = []
        for w in words_n:
            view = family.to_object(w)
            if family.from_object(view) != w:
                bad.append(w)
        sample = f"  e.g. {format_letters(words_n[-1])} ~ {family.show(view)}"
        report.add(
            f"arity {n}: {len(words_n)} words round-trip"
            + (sample if not bad else f"; first failure {format_letters(bad[0])}"),
            ok=not bad,
        )
    if family.graft is not None:
        small = closure.truncate(min(args.max_arity, 4))
        ok, checked = _object_substitution_agrees(family, small)
        report.add(f"object-level substitution vs word splice: {checked} cases", ok=ok)
    return report


def _object_substitution_agrees(
    family: fam.Family, closure: GradedFamily
) -> tuple[bool, int]:
    op = family.monoid.op
    checked = 0
    words = list(closure.iter_all())
    # the views are pure and their objects immutable, so each is built once
    objects = list(map(family.to_object, words))
    for x, x_object in zip(words, objects):
        for y, y_object in zip(words, objects):
            for i in range(1, len(x) + 1):
                checked += 1
                expected = splice(x, i, y, op)
                got = family.from_object(family.graft(x_object, i, y_object))
                if got != expected:
                    return False, checked
    return True, checked


def cmd_check_functor(args) -> RunReport:
    report = RunReport(f"check functor --max-arity {args.max_arity}")
    arrows = [("fcat1", "comp"), ("fcat2", "scomp"), ("fcat1", "da")]
    closure = functools.cache(lambda name: fam.get_family(name).closure(args.max_arity))
    for source, target in arrows:
        theta = reduce_mod(fam.get_family(target).monoid.size)
        image = quotient_image(closure(source), theta)
        expected = closure(target)
        ok = image.by_arity == expected.by_arity
        line = (
            f"image of {source} mod {theta.target.size} equals {target} "
            f"up to arity {args.max_arity}"
        )
        if not ok:
            diff = sorted(
                set(image.iter_all()) ^ set(expected.iter_all())
            )
            line += f"; first difference {format_letters(diff[0])}"
        report.add(line, ok=ok)
    return report


def _presentation(name: str):
    try:
        return PRESENTATIONS[name]
    except KeyError:
        raise UsageError(
            f"no presentation preset {name!r}; choose from {sorted(PRESENTATIONS)}"
        )


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="opwords",
        description="generate and verify word operads over a monoid",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[common], help="generate a closure and export it")
    _operad_args(gen)
    gen.add_argument("--out", help="write the family as JSONL")
    gen.set_defaults(func=cmd_gen)

    dims = sub.add_parser("dims", parents=[common], help="dimension sequence of a preset")
    dims.add_argument("--operad", required=True, choices=sorted(fam.FAMILIES))
    dims.add_argument("--max-arity", type=_arity, default=5)
    dims.set_defaults(func=cmd_dims)

    check = sub.add_parser("check", help="run a verification")
    kinds = check.add_subparsers(dest="kind", required=True)

    axioms = kinds.add_parser("axioms", parents=[common])
    axioms.add_argument("--monoid", required=True)
    axioms.add_argument("--max-arity", type=_arity, default=3)
    axioms.add_argument(
        "--letter-cap", type=int, help="largest letter checked over N (default 3)"
    )
    axioms.set_defaults(func=cmd_check_axioms)

    charac = kinds.add_parser("characterization", parents=[common])
    charac.add_argument("--operad", required=True, choices=sorted(fam.FAMILIES))
    charac.add_argument("--max-arity", type=_arity, default=6)
    charac.set_defaults(func=cmd_check_characterization)

    rels = kinds.add_parser("relations", parents=[common])
    rels.add_argument("--operad", required=True)
    rels.set_defaults(func=cmd_check_relations)

    pres = kinds.add_parser("presentation", parents=[common])
    pres.add_argument("--operad", required=True)
    pres.add_argument("--max-arity", type=_arity, default=6)
    pres.set_defaults(func=cmd_check_presentation)

    bij = kinds.add_parser("bijections", parents=[common])
    bij.add_argument("--operad", required=True, choices=sorted(fam.FAMILIES))
    bij.add_argument("--max-arity", type=_arity, default=6)
    bij.set_defaults(func=cmd_check_bijections)

    fun = kinds.add_parser("functor", parents=[common])
    fun.add_argument("--max-arity", type=_arity, default=5)
    fun.set_defaults(func=cmd_check_functor)
    return parser


def _arity(text: str) -> int:
    """An arity bound; a bound below 1 would check nothing."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, not {text!r}"
        )
    return n


def _operad_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--operad", choices=sorted(fam.FAMILIES), help="preset name")
    p.add_argument("--monoid", help="custom monoid: N, N2, N3, ..., B01")
    p.add_argument("--generators", help="comma-separated generator words, e.g. 00,01")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--max-arity", type=_arity, default=6)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report: RunReport = args.func(args)
    except (UsageError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.seconds = time.perf_counter() - start
    print(report.render(getattr(args, "json", False)))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
