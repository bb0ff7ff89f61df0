"""Spans and counters around the calls into each layer of `opwords`.

`install()` runs only in a traced worker.  It replaces public functions with
wrappers wherever a loaded `opwords` module (or a family record) holds them,
so calls made through any imported name are seen.  A span records
[name, start, end, parent, request]; spans stay in memory and are written
when the run ends.  Hot calls (`splice`, membership predicates, rewrites)
are counted, not spanned, and their time stays in the caller's self time.

Layers are the modules: cli, generation, families, presentations, words.
`monoids` has no call boundary of its own; its cost shows in the self time
of `words` and `generation`.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import time

# span name -> per-layer metric holding its self time
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "generation.closure": "generation.closure_s",
    "generation.compare": "generation.compare_s",
    "generation.quotient": "generation.quotient_s",
    "generation.export": "generation.export_s",
    "families.closure": "families.closure_s",
    "families.enumerate": "families.enumerate_s",
    "families.views": "families.views_s",
    "presentations.verify": "presentations.verify_s",
    "presentations.enumerate_terms": "presentations.enumerate_terms_s",
    "presentations.congruence": "presentations.congruence_s",
    "words.axioms": "words.axioms_s",
}
COUNTERS = (
    "generation.closure_calls", "generation.words_out", "generation.splices",
    "generation.export_bytes", "families.da_calls", "families.da_hits",
    "families.enumerated", "families.candidates", "families.accepted",
    "families.view_calls", "presentations.terms", "presentations.rewrite_calls",
    "presentations.neighbors", "presentations.classes", "presentations.refused",
    "words.axiom_checks", "words.splices",
)

ENUMERATORS = ("enumerate_prt", "enumerate_fcat", "enumerate_motz", "enumerate_schr",
               "enumerate_comp", "enumerate_scomp", "enumerate_dias", "enumerate_end",
               "enumerate_pf", "enumerate_pw", "enumerate_per", "enumerate_da")
PREDICATES = ("is_schr_word", "is_twisted_parking_function", "is_twisted_packed_word",
              "da_prefix_description")
VIEWS = ("word_to_tree", "tree_to_word", "tree_to_parens", "prt_graft",
         "word_to_kdyck", "kdyck_to_word", "word_to_motzkin", "motzkin_to_word",
         "word_to_composition", "composition_to_word", "format_composition",
         "ribbon_substitute", "schr_word_to_tree", "schr_tree_to_word",
         "da_phi", "steps_from_phi", "steps_to_string")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts = {name: [0] for name in COUNTERS}

    def spanned(self, name, fn, after=None, before=None):
        """fn wrapped in a span; after(result, args) runs once the span ends."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def add(self, name: str, amount: int) -> None:
        self.counts[name][0] += amount

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": {name: cell[0] for name, cell in self.counts.items()}}


def _replace(original, wrapper, modules=None) -> None:
    """Point every module attribute and family field holding `original` at
    `wrapper`; with `modules`, only attributes of those module names."""
    for name, module in list(sys.modules.items()):
        if not (name == "opwords" or name.startswith("opwords.")):
            continue
        if modules is not None and name not in modules:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
    from opwords.families import membership

    for family in membership.FAMILIES.values():
        for f in dataclasses.fields(family):
            if getattr(family, f.name) is original:
                object.__setattr__(family, f.name, wrapper)


def install() -> Tracer:
    import opwords.cli
    import opwords.generation as generation
    import opwords.presentations as presentations
    import opwords.words as words
    from opwords.families import membership, paths, ribbons, trees

    t = Tracer()

    def add(name, measure):
        return lambda result, args: t.add(name, measure(result))

    def closure_done(result, args):
        t.add("generation.closure_calls", 1)
        t.add("generation.words_out", sum(len(s) for s in result.by_arity.values()))

    _replace(generation.generate_closure,
             t.spanned("generation.closure", generation.generate_closure, closure_done))
    _replace(generation.equals_predicate,
             t.spanned("generation.compare", generation.equals_predicate))
    _replace(generation.quotient_image,
             t.spanned("generation.quotient", generation.quotient_image))
    generation.GradedFamily.to_jsonl = t.spanned(
        "generation.export", generation.GradedFamily.to_jsonl,
        add("generation.export_bytes", lambda text: len(text.encode())))
    _replace(words.splice, t.counted("generation.splices", words.splice),
             modules={"opwords.generation"})
    _replace(words.splice, t.counted("words.splices", words.splice))

    membership.Family.closure = t.spanned("families.closure", membership.Family.closure)

    def da_lookup(args):
        t.add("families.da_calls", 1)
        cache = membership._da_cache
        if cache is not None and cache.max_arity >= args[0]:
            t.add("families.da_hits", 1)

    _replace(membership.da_closure,
             t.spanned("families.closure", membership.da_closure, before=da_lookup))
    for name in ENUMERATORS:
        fn = getattr(membership, name)
        _replace(fn, t.spanned("families.enumerate", fn, add("families.enumerated", len)))
    _replace(membership.da_description_report,
             t.spanned("families.enumerate", membership.da_description_report,
                       add("families.enumerated", lambda rows: sum(r[3] for r in rows))))
    for name in PREDICATES:
        fn = getattr(membership, name)
        candidates, accepted = t.counts["families.candidates"], t.counts["families.accepted"]

        def predicate(letters, fn=fn, candidates=candidates, accepted=accepted):
            candidates[0] += 1
            ok = fn(letters)
            if ok:
                accepted[0] += 1
            return ok

        _replace(fn, predicate)
    for module in (paths, ribbons, trees):
        for name in VIEWS:
            fn = getattr(module, name, None)
            if fn is not None and fn.__module__ == module.__name__:
                _replace(fn, t.spanned("families.views", fn,
                                       lambda result, args: t.add("families.view_calls", 1)))

    _replace(presentations.verify_relations,
             t.spanned("presentations.verify", presentations.verify_relations))
    _replace(presentations.enumerate_terms,
             t.spanned("presentations.enumerate_terms", presentations.enumerate_terms,
                       add("presentations.terms", len)))
    congruence = t.spanned("presentations.congruence", presentations.congruence_class_count,
                           add("presentations.classes", int))

    def guarded(*args, **kwargs):
        try:
            return congruence(*args, **kwargs)
        except presentations.SizeError:
            t.add("presentations.refused", 1)
            raise

    _replace(presentations.congruence_class_count, guarded)
    rewrites = presentations.rewrites
    calls, neighbors = t.counts["presentations.rewrite_calls"], t.counts["presentations.neighbors"]

    def counted_rewrites(term, relations):
        calls[0] += 1
        for out in rewrites(term, relations):
            neighbors[0] += 1
            yield out

    _replace(rewrites, counted_rewrites)
    _replace(words.check_axioms,
             t.spanned("words.axioms", words.check_axioms,
                       add("words.axiom_checks", lambda reports: sum(r.checked for r in reports))))

    opwords.cli.main = t.spanned("cli.main", opwords.cli.main)
    return t


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans of
    one single-threaded request nest, so children never overlap."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(trace: dict, client_seconds: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    `trace.unaccounted_s` is the request time, measured by the client around
    `cli.main`, that no span's self time covers: the wrapper of the root span.
    """
    spans = trace["spans"]
    own = self_times(spans)
    metrics = {metric: 0.0 for metric in SPAN_METRICS.values()}
    per_request = [0.0] * len(client_seconds)
    for span, seconds in zip(spans, own):
        metrics[SPAN_METRICS[span[0]]] += seconds
        per_request[span[4]] += seconds
    counts = trace["counts"]
    metrics.update({name: counts[name] for name in COUNTERS if name != "families.accepted"})
    metrics["generation.words_per_splice"] = (
        counts["generation.words_out"] / counts["generation.splices"]
        if counts["generation.splices"] else 0.0)
    metrics["families.accept_ratio"] = (
        counts["families.accepted"] / counts["families.candidates"]
        if counts["families.candidates"] else 0.0)
    metrics["trace.spans"] = len(spans)
    metrics["trace.unaccounted_s"] = sum(
        wall - covered for wall, covered in zip(client_seconds, per_request))
    return metrics


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_splice")):
        return "ratio"
    return "count"
