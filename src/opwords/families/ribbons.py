"""Integer compositions as ribbon diagrams.

A composition (C_1, ..., C_l) is drawn as a staircase of columns: column p
has C_p boxes and starts on the row where the previous column ends, so the
boxes form a ribbon running down and to the right.  Boxes are scanned from
up to down and from left to right, which traverses the ribbon in order.
A box is replaced by a whole diagram during substitution: by the diagram
itself when the box is the upper box of its column, by its transpose
otherwise.
"""
from __future__ import annotations

from collections import Counter

from ..words import Letters, PositionError
from .membership import NotAMemberError, is_comp_word

Composition = tuple[int, ...]
Box = tuple[int, int]  # (column, row); rows grow downward


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


def boxes_to_composition(boxes: list[Box]) -> Composition:
    heights = Counter(col for col, _ in boxes)
    return tuple(heights[col] for col in sorted(heights))


def transpose_boxes(boxes: list[Box]) -> list[Box]:
    """Mirror the diagram across the main diagonal, back in scan order."""
    return sorted((row, col) for col, row in boxes)


def ribbon_substitute(c: Composition, i: int, d: Composition) -> Composition:
    """Replace the i-th box of c's ribbon diagram by the whole diagram of d,
    transposed unless the box is the upper box of its column; the rest of the
    ribbon reattaches after the inserted diagram."""
    c_boxes = ribbon_boxes(c)
    if not 1 <= i <= len(c_boxes):
        raise PositionError(f"position {i} not in 1..{len(c_boxes)}")
    target = c_boxes[i - 1]
    upper = (target[0], target[1] - 1) not in set(c_boxes)

    d_boxes = ribbon_boxes(d)
    if not upper:
        d_boxes = transpose_boxes(d_boxes)

    first, last = d_boxes[0], d_boxes[-1]
    place = (target[0] - first[0], target[1] - first[1])
    shift = (last[0] - first[0], last[1] - first[1])

    out = c_boxes[: i - 1]
    out += [(col + place[0], row + place[1]) for col, row in d_boxes]
    out += [(col + shift[0], row + shift[1]) for col, row in c_boxes[i:]]
    return boxes_to_composition(out)
