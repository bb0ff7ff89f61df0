"""Lattice-path views: k-Dyck paths, Motzkin paths, and step words.

Paths are serialized as strings over "U", "D", "S" (up, down, stationary).
A word maps to a k-Dyck path by reading its letters as the starting
ordinates of the up steps; a word maps to a Motzkin path by reading its
letters as the ordinates of the path's points.

Each view reads its word or path once, left to right, and refuses a
non-member at the first letter or step that breaks it: `NotAMemberError`
for a path that dips below zero or a letter off the path, `ValueError` for
a step other than U, D or S; a path that ends above zero, or a k-Dyck path
with no up step, is refused at its end.
"""
from __future__ import annotations

from typing import Iterator, Sequence

from ..words import Letters, NotAMemberError

Steps = tuple[int, ...]  # entries in {-1, 0, 1}

_STEP_CHARS = {1: "U", 0: "S", -1: "D"}


def word_to_kdyck(letters: Letters, k: int) -> str:
    """The k-Dyck path whose up steps start at the given ordinates: the run
    of down steps before each up step, and after the last, joined by U."""
    out: list[str] = []
    height = 0
    for pos, a in enumerate(letters):
        if not 0 <= a <= height:
            raise NotAMemberError(f"letter {a} at position {pos + 1} breaks the path")
        out.append("D" * (height - a))
        height = a + k
    out.append("D" * height)
    return "U".join(out)


def kdyck_to_word(path: str, k: int) -> Letters:
    """Starting ordinates of the up steps; inverse of `word_to_kdyck`."""
    letters: list[int] = []
    height = 0
    for ch in path:
        if ch == "U":
            letters.append(height)
            height += k
        elif ch == "D":
            height -= 1
            if height < 0:
                raise NotAMemberError("path dips below zero")
        else:
            raise ValueError(f"bad k-Dyck step {ch!r}")
    if height != 0:
        raise NotAMemberError("path does not return to zero")
    if not letters:
        raise NotAMemberError("path has no up step")
    return tuple(letters)


def word_to_motzkin(letters: Letters) -> str:
    """The Motzkin path whose point ordinates read off the word; the path has
    one step fewer than the word has letters."""
    if letters[0] != 0 or letters[-1] != 0:
        raise NotAMemberError("ordinates must start and end at 0")
    steps = []
    for pos, (a, b) in enumerate(zip(letters, letters[1:])):
        if abs(b - a) > 1:
            raise NotAMemberError(f"jump of {b - a} after position {pos + 1}")
        steps.append(_STEP_CHARS[b - a])
    return "".join(steps)


def motzkin_to_word(path: str) -> Letters:
    """Point ordinates of a Motzkin path; inverse of `word_to_motzkin`."""
    letters = [0]
    height = 0
    for ch in path:
        if ch == "U":
            height += 1
        elif ch == "D":
            height -= 1
            if height < 0:
                raise NotAMemberError("path dips below zero")
        elif ch != "S":
            raise ValueError(f"bad Motzkin step {ch!r}")
        letters.append(height)
    if height != 0:
        raise NotAMemberError("path does not return to zero")
    return tuple(letters)


# ---------------------------------------------------------------------------
# step words of consecutive differences, mod 3, with 2 read as -1


def da_phi(letters: Letters) -> Steps:
    """Consecutive differences of a word over the naturals mod 3, each mapped
    into {-1, 0, 1}; a single letter maps to the empty sequence."""
    for a in letters:
        if not 0 <= a <= 2:
            raise ValueError(f"letter {a} is not an element of N3")
    diffs = []
    for a, b in zip(letters, letters[1:]):
        d = (b - a) % 3
        diffs.append(-1 if d == 2 else d)
    return tuple(diffs)


def steps_from_phi(steps: Steps) -> Letters:
    """The unique preimage of a step word that starts at 0, over N3."""
    letters = [0]
    for s in steps:
        letters.append((letters[-1] + s) % 3)
    return tuple(letters)


def is_motzkin_prefix(steps: Sequence[int]) -> bool:
    """True when every partial sum of the steps is nonnegative."""
    height = 0
    for s in steps:
        if s not in (-1, 0, 1):
            raise ValueError(f"bad step {s!r}")
        height += s
        if height < 0:
            return False
    return True


def motzkin_prefixes(length: int) -> Iterator[Steps]:
    """All step sequences of the given length with nonnegative partial sums,
    in lexicographic order, by a depth-first walk that never steps below
    height 0."""
    if length < 0:
        raise ValueError(f"negative length {length}")

    def walk(prefix: Steps, height: int) -> Iterator[Steps]:
        if len(prefix) == length:
            yield prefix
            return
        for s in (-1, 0, 1) if height else (0, 1):
            yield from walk(prefix + (s,), height + s)

    return walk((), 0)


def steps_to_string(steps: Sequence[int]) -> str:
    return "".join(_STEP_CHARS[s] for s in steps)
