"""Tree views: planar rooted trees as depth words and Schroeder trees as
sector-depth words.

A tree is a nested tuple of its child subtrees; the single-node tree is ().
Serialization is the balanced-parenthesis string of that structure with the
root written as one enclosing pair.

Each word costs one pass.  Both word-to-tree views read the word left to
right over a stack of the open nodes' finished children, and close a node
into its tuple once a later letter is no deeper.  The views that take a
tree walk it over an explicit stack, making no call per node, so a tree
deeper than the interpreter's recursion limit is read as any other.
"""
from __future__ import annotations

from ..words import Letters, NotAMemberError, PositionError

Tree = tuple  # children are themselves trees


def node_count(tree: Tree) -> int:
    count, stack = 0, [tree]
    while stack:
        count += 1
        stack.extend(stack.pop())
    return count


def leaf_count(tree: Tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if node:
            stack.extend(node)
        else:
            count += 1
    return count


def tree_to_parens(tree: Tree) -> str:
    """One pair per node; `stack[-1]` iterates the children of the deepest
    node still open."""
    out, stack = ["("], [iter(tree)]
    append = out.append
    while stack:
        for child in stack[-1]:
            if child:
                append("(")
                stack.append(iter(child))
                break
            append("()")
        else:
            stack.pop()
            append(")")
    return "".join(out)


# ---------------------------------------------------------------------------
# planar rooted trees <-> depth words (preorder)


def tree_to_word(tree: Tree) -> Letters:
    """Node depths in depth-first preorder.  `stack[-1]` iterates the
    children of the deepest node still open, so a child's depth is the
    stack's height."""
    out, stack = [0], [iter(tree)]
    append = out.append
    while stack:
        for child in stack[-1]:
            append(len(stack))
            if child:
                stack.append(iter(child))
                break
        else:
            stack.pop()
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
    node of `host` in depth-first preorder.

    The walk keeps the path from the root to the node it is at, each entry a
    node and the number of its children entered, then rebuilds that path
    from the grafted node up."""
    total = node_count(host)
    if not 1 <= i <= total:
        raise PositionError(f"position {i} not in 1..{total}")
    path = [[host, 0]]
    for _ in range(i - 1):  # step to the next node in preorder
        while path[-1][1] == len(path[-1][0]):
            path.pop()
        entry = path[-1]
        entry[1] += 1
        path.append([entry[0][entry[1] - 1], 0])
    node = tuple(graft) + path.pop()[0]
    for parent, j in reversed(path):
        node = parent[: j - 1] + (node,) + parent[j:]
    return node


# ---------------------------------------------------------------------------
# Schroeder trees <-> sector-depth words
#
# A sector sits between two adjacent child edges of a node; reading sector
# depths left to right across the whole tree gives the word.  A tree with
# n + 1 leaves and no single-child node has exactly n sectors.


def is_schroeder_tree(tree: Tree) -> bool:
    stack = [tree]
    while stack:
        node = stack.pop()
        if len(node) == 1:
            return False
        stack.extend(node)
    return True


def schr_tree_to_word(tree: Tree) -> Letters:
    """Sector depths, left to right.  The walk descends each node's leftmost
    path, keeping per node on it an iterator over its later children, so a
    sector's depth is the number of iterators below the top."""
    out: list[int] = []
    stack = []
    node = tree
    while True:
        while node:
            if len(node) == 1:
                raise NotAMemberError("a node with exactly one child has no sector word")
            stack.append(iter(node[1:]))
            node = node[0]
        while stack:
            node = next(stack[-1], None)
            if node is not None:
                out.append(len(stack) - 1)
                break
            stack.pop()
        else:
            break
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
