"""Tree views: planar rooted trees as depth words and Schroeder trees as
sector-depth words.

A tree is a nested tuple of its child subtrees; the single-node tree is ().
Serialization is the balanced-parenthesis string of that structure with the
root written as one enclosing pair.

Each word costs one pass.  Both word-to-tree views read the word left to
right over a stack of the open nodes' finished children, and close a node
into its tuple once a later letter is no deeper; `tree_to_word` writes the
depths in one preorder walk that makes no call for a leaf.
"""
from __future__ import annotations

from ..words import Letters, NotAMemberError, PositionError

Tree = tuple  # children are themselves trees


def node_count(tree: Tree) -> int:
    return 1 + sum(node_count(child) for child in tree)


def leaf_count(tree: Tree) -> int:
    if not tree:
        return 1
    return sum(leaf_count(child) for child in tree)


def tree_to_parens(tree: Tree) -> str:
    return "(" + "".join(tree_to_parens(child) for child in tree) + ")"


# ---------------------------------------------------------------------------
# planar rooted trees <-> depth words (preorder)


def tree_to_word(tree: Tree) -> Letters:
    """Node depths in depth-first preorder; a leaf is written without a call."""
    out = [0]
    append = out.append

    def walk(node: Tree, depth: int) -> None:
        for child in node:
            append(depth)
            if child:
                walk(child, depth + 1)

    walk(tree, 1)
    return tuple(out)


def word_to_tree(letters: Letters) -> Tree:
    """Rebuild the tree whose preorder depth word is given, in one pass.

    `stack[d]` holds the finished children of the open depth-d node.  A
    letter d closes every open node at depth d or deeper into a tuple,
    appended to its parent's children, and opens the new node; the end of the
    word closes the rest.  Each letter is checked as it is read, so a
    non-member is refused at its first letter that is not a preorder depth.
    """
    if letters[0] != 0:
        raise NotAMemberError(f"{letters} is not a preorder depth word")
    stack: list[list] = [[]]
    for depth in letters[1:]:
        if not 0 < depth <= len(stack):
            raise NotAMemberError(f"{letters} is not a preorder depth word")
        while len(stack) > depth:
            node = tuple(stack.pop())
            stack[-1].append(node)
        stack.append([])
    node = tuple(stack.pop())
    while stack:
        node = (*stack.pop(), node)
    return node


def prt_graft(host: Tree, i: int, graft: Tree) -> Tree:
    """Attach the root subtrees of `graft` as leftmost children of the i-th
    node of `host` in depth-first preorder."""
    total = node_count(host)
    if not 1 <= i <= total:
        raise PositionError(f"position {i} not in 1..{total}")
    visited = 0

    def go(node: Tree) -> Tree:
        nonlocal visited
        visited += 1
        if visited == i:
            return tuple(graft) + node
        out = []
        for child in node:
            out.append(go(child) if visited < i else child)
        return tuple(out)

    return go(host)


# ---------------------------------------------------------------------------
# Schroeder trees <-> sector-depth words
#
# A sector sits between two adjacent child edges of a node; reading sector
# depths left to right across the whole tree gives the word.  A tree with
# n + 1 leaves and no single-child node has exactly n sectors.


def is_schroeder_tree(tree: Tree) -> bool:
    if len(tree) == 1:
        return False
    return all(is_schroeder_tree(child) for child in tree)


def schr_tree_to_word(tree: Tree) -> Letters:
    """Sector depths, left to right."""
    out: list[int] = []

    def walk(node: Tree, depth: int) -> None:
        if not node:
            return
        if len(node) == 1:
            raise NotAMemberError("a node with exactly one child has no sector word")
        walk(node[0], depth + 1)
        for child in node[1:]:
            out.append(depth)
            walk(child, depth + 1)

    walk(tree, 0)
    if not out:
        raise NotAMemberError("a bare leaf has no sectors")
    return tuple(out)


def schr_word_to_tree(letters: Letters) -> Tree:
    """Rebuild the tree from its sector-depth word, in one pass.

    `stack[d]` holds the finished children of the open depth-d node, whose
    next child is so far a leaf.  A letter a is a sector of the open depth-a
    node: it first closes every deeper open node, each into a tuple appended
    to its parent's children, or, when the stack is shallower, opens the
    nodes down to depth a, those above it with no child finished yet.  A
    node closed with one child is the root of a segment that misses its
    depth, as is the whole word when its least letter is not 0.
    """
    if not letters:
        return ()
    if min(letters) != 0 or max(letters) >= len(letters):  # too deep for its sectors
        raise _missing_depth(letters)
    stack: list[list] = [[]]
    for a in letters:
        node: Tree = ()
        while len(stack) > a + 1:
            children = stack.pop()
            if not children:
                raise _missing_depth(letters)
            children.append(node)
            node = tuple(children)
        if a < len(stack):
            stack[a].append(node)
        else:
            stack += [[] for _ in range(len(stack), a)]
            stack.append([node])
    node = ()
    while stack:
        children = stack.pop()
        if not children:
            raise _missing_depth(letters)
        children.append(node)
        node = tuple(children)
    return node


def _missing_depth(letters: Letters) -> NotAMemberError:
    """The refusal of a non-member, naming its first segment, in preorder,
    that misses its depth."""
    segment, depth = _first_gap(tuple(letters))
    return NotAMemberError(
        f"{letters} is not a sector-depth word (segment {segment} misses depth {depth})"
    )


def _first_gap(word: Letters) -> tuple[Letters, int]:
    """The first segment of a non-member, in preorder, that misses its depth,
    and that depth.  The root's segment is the whole word; below it, the
    depth-d segments are the maximal runs of letters >= d, in preorder when
    ordered by their start and then by depth."""
    if min(word) != 0:
        return word, 0
    for p, a in enumerate(word):
        for depth in range(word[p - 1] + 1 if p else 1, a + 1):  # those starting at p
            end = p
            while end < len(word) and word[end] >= depth:
                end += 1
            if depth not in word[p:end]:
                return word[p:end], depth
    raise ValueError(f"{word} is a sector-depth word")
