"""Integer compositions as ribbon diagrams.

A composition (C_1, ..., C_l) is drawn as a staircase of columns: column p
has C_p boxes and starts on the row where the previous column ends, so the
boxes form a ribbon running down and to the right.  Boxes are scanned from
up to down and from left to right, which traverses the ribbon in order.
A box is replaced by a whole diagram during substitution: by the diagram
itself when the box is the upper box of its column, by its transpose
otherwise.  `ribbon_substitute` keeps the boxes of each diagram and of its
transpose, in scan order, for the last `_DIAGRAMS` compositions it met.
"""
from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from typing import Iterable

from ..words import Letters, NotAMemberError, PositionError
from .membership import is_comp_word

Composition = tuple[int, ...]
Box = tuple[int, int]  # (column, row); rows grow downward

_DIAGRAMS = 1024  # compositions whose diagrams `ribbon_substitute` keeps


def word_to_composition(letters: Letters) -> Composition:
    """Each 0 opens a part; each following 1 lengthens it."""
    if not is_comp_word(letters):
        raise NotAMemberError(f"{letters} is not a {{0,1}}-word starting with 0")
    parts: list[int] = []
    for a in letters:
        if a == 0:
            parts.append(1)
        else:
            parts[-1] += 1
    return tuple(parts)


def composition_to_word(parts: Composition) -> Letters:
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"{parts} is not a composition")
    out: list[int] = []
    for p in parts:
        out.append(0)
        out.extend([1] * (p - 1))
    return tuple(out)


def format_composition(parts: Composition) -> str:
    return ",".join(str(p) for p in parts)


def ribbon_boxes(parts: Composition) -> list[Box]:
    """Boxes of the ribbon diagram in scan order."""
    boxes: list[Box] = []
    row = 0
    for col, height in enumerate(parts):
        boxes.extend((col, r) for r in range(row, row + height))
        row += height - 1
    return boxes


def boxes_to_composition(boxes: Iterable[Box]) -> Composition:
    """Column heights of a diagram whose boxes come column by column, as in
    scan order."""
    return tuple(len(list(run)) for _, run in itertools.groupby(boxes, itemgetter(0)))


def transpose_boxes(boxes: list[Box]) -> list[Box]:
    """Mirror the diagram across the main diagonal, back in scan order."""
    return sorted((row, col) for col, row in boxes)


@functools.lru_cache(maxsize=_DIAGRAMS)
def _diagram(parts: Composition) -> tuple[list[Box], list[Box]]:
    """The boxes of the ribbon diagram of `parts` and of its transpose, both
    in scan order, kept for the last `_DIAGRAMS` compositions asked for and
    shared by every caller, so read and never changed."""
    boxes = ribbon_boxes(parts)
    return boxes, transpose_boxes(boxes)


def ribbon_substitute(c: Composition, i: int, d: Composition) -> Composition:
    """Replace the i-th box of c's ribbon diagram by the whole diagram of d,
    transposed unless the box is the upper box of its column; the rest of the
    ribbon reattaches after the inserted diagram.

    The box above the i-th is in the ribbon exactly when it is the box before
    it in scan order.  The result's boxes stay in scan order, so its column
    heights are counted run by run."""
    c_boxes = _diagram(tuple(c))[0]
    if not 1 <= i <= len(c_boxes):
        raise PositionError(f"position {i} not in 1..{len(c_boxes)}")
    target = c_boxes[i - 1]
    upper = i == 1 or c_boxes[i - 2][0] != target[0]
    d_boxes = _diagram(tuple(d))[0 if upper else 1]

    first, last = d_boxes[0], d_boxes[-1]
    place = (target[0] - first[0], target[1] - first[1])
    shift = (last[0] - first[0], last[1] - first[1])

    out = c_boxes[: i - 1]
    out += [(col + place[0], row + place[1]) for col, row in d_boxes]
    out += [(col + shift[0], row + shift[1]) for col, row in c_boxes[i:]]
    return boxes_to_composition(out)
