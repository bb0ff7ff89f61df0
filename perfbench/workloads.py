"""Seeded request lists for the three workloads.

Each workload is a deck: a fixed multiset of costly requests whose total
time sets `wall_s` and whose largest members set `req_p90_ms`, plus seeded
parts that cost little each.  The seed orders the deck, picks `gen` or
`dims` and `--out` for the shallow closure requests, and draws the custom
generator sets.  Keeping the costly multiset fixed is what makes runs with
different seeds comparable; the order still matters, because the
directed-animal closure is cached per process.

- closure: `gen` and `dims` over the non-symmetric presets, up to about a
  step below the edge of desk scale, plus seeded custom generator sets over
  N2, N3 and B01.
  `generation` does over 90% of the work and `presentations` none, so a
  frontier or orbit closure shows here.
- presentation: `check presentation` for all six presets, weighted toward
  small arities.  Term enumeration, rewriting and the union-find take over
  90% of the time while the closures are small; a rewriting engine shows
  here and must not slow `closure`.
- verify: the check commands, a symmetric `gen` for pw and `dims` for the
  predicate-only families.  `families` and `words` are heavy, and
  `generation` runs many short closures and the symmetric orbit path, so a
  change tuned for deep non-symmetric closures that costs per call or per
  orbit shows here.
"""
from __future__ import annotations

import itertools
import random

import oracle

# One deck takes about this long on the seed commit (2-core x86-64 VM,
# CPython 3.11); a list of `seconds` holds round(seconds / DECK_SECONDS)
# decks, at least one.
DECK_SECONDS = 8

CLOSURE_BOUNDS = {
    "prt": 10, "fcat1": 10, "fcat2": 7, "fcat3": 6, "schr": 7,
    "comp": 11, "motz": 11, "da": 9, "scomp": 8, "dias": 12,
}
CUSTOM_SETS = 40
CUSTOM_MONOIDS = ("N2", "N3", "B01")
# words in a custom closure, all arities together: a few ms each, so the
# seeded custom requests sit below the median and never reach p90
CUSTOM_WORDS = (30, 60)
CUSTOM_MAX_ARITY = 12

PRESENTATION_DECK = {
    "prt": (2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 9),
    "fcat1": (2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6),
    "comp": (2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6),
    "schr": (2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 6),
    "motz": (3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8),
    "dias": (2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 6),
}

CHARACTERIZATION_DECK = {
    "prt": (3, 5, 7, 9), "fcat0": (3, 5, 8, 10), "fcat1": (3, 4, 6, 8),
    "fcat2": (3, 4, 5, 6), "fcat3": (2, 3, 4, 5), "motz": (3, 6, 8, 10),
    "schr": (3, 5, 6, 7), "comp": (3, 6, 8, 10), "da": (3, 5, 7, 9),
    "scomp": (3, 5, 6, 7), "dias": (3, 6, 8, 10), "pw": (3, 4, 5, 6),
}
BIJECTION_DECK = {
    "prt": (3, 5, 7, 9), "fcat0": (3, 5, 8, 10), "fcat1": (3, 4, 6, 8),
    "fcat2": (3, 4, 5, 6), "fcat3": (2, 3, 4, 5), "motz": (3, 6, 8, 10),
    "comp": (3, 6, 8, 10), "schr": (3, 5, 6), "da": (3, 5, 7, 8),
}
AXIOM_DECK = (("N3", 3), ("N3", 2), ("N3", 2), ("N2", 3), ("N2", 2), ("N2", 2),
              ("B01", 3), ("B01", 2), ("B01", 2))
FUNCTOR_DECK = (3, 4, 5, 6, 7)
PW_GEN_DECK = (3, 4, 5, 6, 7)
PREDICATE_DIMS_DECK = {"end": (3, 4, 5, 6), "pf": (3, 4, 5, 6), "per": (4, 6, 8)}

WORKLOADS = ("closure", "presentation", "verify")


def _fmt(letters) -> str:
    return "".join(str(a) for a in letters)


def _preset(kind: str, name: str, n: int, out: str | None = None) -> dict:
    monoid, gens = oracle.PRESETS.get(name, (None, None))
    argv = [kind, "--operad", name, "--max-arity", str(n), "--json"]
    if out:
        argv += ["--out", out]
    return {"kind": kind, "name": name, "max_arity": n, "monoid": monoid,
            "generators": gens, "out": out, "argv": argv}


def custom_set(rng: random.Random) -> tuple[str, tuple[tuple[int, ...], ...], int]:
    """A monoid, 2-3 distinct generators of arity 2-3, and the largest arity
    bound at which the closure holds at most CUSTOM_WORDS[1] words.

    Sets whose closure stays below CUSTOM_WORDS[0] words up to arity
    CUSTOM_MAX_ARITY are drawn again, so every custom request costs about
    the same.  Only finite monoids and generators of arity >= 2: a non-unit
    arity-1 generator over N makes the closure engine loop forever (a known
    defect of the engine, outside what the benchmark measures).
    """
    lo, hi = CUSTOM_WORDS
    while True:
        monoid = rng.choice(CUSTOM_MONOIDS)
        size = 2 if monoid == "B01" else int(monoid[1:])
        count = rng.choice((2, 3))
        gens: list[tuple[int, ...]] = []
        while len(gens) < count:
            g = tuple(rng.randrange(size) for _ in range(rng.choice((2, 3))))
            if g not in gens:
                gens.append(g)
        bound, words = None, 0
        for n in range(max(map(len, gens)), CUSTOM_MAX_ARITY + 1):
            total = len(oracle.reference_closure(monoid, gens, n))
            if total > hi:
                break
            bound, words = n, total
        if bound is not None and words >= lo:
            return monoid, tuple(gens), bound


def _closure_deck(rng: random.Random, out_path) -> list[dict]:
    deck = []
    for name, top in CLOSURE_BOUNDS.items():
        # the three deepest requests of every preset are fixed and set p90;
        # the deepest exports, the case users wait on
        deck.append(_preset("gen", name, top, out_path()))
        deck += [_preset("gen", name, n) for n in (top - 1, top - 2)]
        # each shallow bound twice, so the median lies among preset requests
        for n in range(3, top - 2):
            deck.append(_preset("dims", name, n))
            deck.append(_preset("gen", name, n, out_path() if rng.random() < 0.5 else None))
    exported = set(rng.sample(range(CUSTOM_SETS), CUSTOM_SETS // 2))
    for k in range(CUSTOM_SETS):
        monoid, gens, n = custom_set(rng)
        out = out_path() if k in exported else None
        argv = ["gen", "--monoid", monoid, "--generators", ",".join(map(_fmt, gens)),
                "--max-arity", str(n), "--json"]
        if out:
            argv += ["--out", out]
        deck.append({"kind": "gen", "name": None, "max_arity": n, "monoid": monoid,
                     "generators": gens, "out": out, "argv": argv})
    return deck


def _presentation_deck(rng: random.Random, out_path) -> list[dict]:
    return [
        {"kind": "presentation", "name": name, "max_arity": n,
         "argv": ["check", "presentation", "--operad", name, "--max-arity", str(n), "--json"]}
        for name, bounds in PRESENTATION_DECK.items()
        for n in bounds
    ]


def _check(kind: str, n: int, **extra) -> dict:
    argv = ["check", kind]
    if "name" in extra:
        argv += ["--operad", extra["name"]]
    if "monoid" in extra:
        argv += ["--monoid", extra["monoid"]]
    argv += ["--max-arity", str(n), "--json"]
    return {"kind": kind, "max_arity": n, "argv": argv, **extra}


def _verify_deck(rng: random.Random, out_path) -> list[dict]:
    deck = []
    for name, bounds in CHARACTERIZATION_DECK.items():
        deck += [_check("characterization", n, name=name) for n in bounds]
    for name, bounds in BIJECTION_DECK.items():
        deck += [_check("bijections", n, name=name) for n in bounds]
    deck += [_check("axioms", n, monoid=m) for m, n in AXIOM_DECK]
    deck += [_check("functor", n) for n in FUNCTOR_DECK]
    deck += [_preset("gen", "pw", n) for n in PW_GEN_DECK]
    for name, bounds in PREDICATE_DIMS_DECK.items():
        deck += [_preset("dims", name, n) for n in bounds]
    return deck


_DECKS = {"closure": _closure_deck, "presentation": _presentation_deck,
          "verify": _verify_deck}


def build(workload: str, seed: int, seconds: float) -> list[dict]:
    """A request list of about `seconds`: whole decks, shuffled by the seed.
    Export paths are relative to the client's working directory."""
    rng = random.Random(f"{workload}:{seed}")
    files = itertools.count()

    def out_path() -> str:
        return f"out{next(files):04d}.jsonl"

    requests = []
    for _ in range(max(1, round(seconds / DECK_SECONDS))):
        requests += _DECKS[workload](rng, out_path)
    rng.shuffle(requests)
    return requests
