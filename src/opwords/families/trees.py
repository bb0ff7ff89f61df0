"""Tree views: planar rooted trees as depth words and Schroeder trees as
sector-depth words.

A tree is a nested tuple of its child subtrees; the single-node tree is ().
Serialization is the balanced-parenthesis string of that structure with the
root written as one enclosing pair.
"""
from __future__ import annotations

from ..words import Letters, PositionError
from .membership import NotAMemberError, is_prt_word

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
    """Node depths in depth-first preorder."""
    out: list[int] = []

    def walk(node: Tree, depth: int) -> None:
        out.append(depth)
        for child in node:
            walk(child, depth + 1)

    walk(tree, 0)
    return tuple(out)


def word_to_tree(letters: Letters) -> Tree:
    """Rebuild the tree whose preorder depth word is given."""
    if not is_prt_word(letters):
        raise NotAMemberError(f"{letters} is not a preorder depth word")
    root: list = []
    path = [root]  # path[d] holds the children of the current depth-d node
    for depth in letters[1:]:
        child: list = []
        path[depth - 1].append(child)
        del path[depth:]
        path.append(child)
    return _freeze(root)


def _freeze(node: list) -> Tree:
    return tuple(_freeze(child) for child in node)


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
    """Rebuild the tree from its sector-depth word.

    All occurrences of the minimum letter in a segment are the sectors of
    that segment's root, so they split the segment into the child subtrees.
    """

    def build(segment: Letters, depth: int) -> Tree:
        if not segment:
            return ()
        if min(segment) != depth:
            raise NotAMemberError(
                f"{letters} is not a sector-depth word (segment {segment} "
                f"misses depth {depth})"
            )
        children = []
        part: list[int] = []
        for a in segment:
            if a == depth:
                children.append(build(tuple(part), depth + 1))
                part = []
            else:
                part.append(a)
        children.append(build(tuple(part), depth + 1))
        return tuple(children)

    return build(tuple(letters), 0)
