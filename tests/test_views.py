"""Bijections between words and trees, paths, and ribbon compositions."""
import collections
import itertools

import pytest

from opwords import families as fam
from opwords.families import ribbons
from opwords.monoids import NATURALS
from opwords.presentations import LEAF, PRESENTATIONS, eval_term, node
from opwords.words import PositionError, splice


# ---------------------------------------------------------------------------
# planar rooted trees

# depth word 0112333212: root with three children; the second child carries
# a three-child node and a leaf; the third child carries a single chain
SAMPLE_TREE = (
    (),
    (((), (), ()), ()),
    ((),),
)


def test_tree_word_example():
    assert fam.tree_to_word(SAMPLE_TREE) == (0, 1, 1, 2, 3, 3, 3, 2, 1, 2)
    assert fam.word_to_tree((0, 1, 1, 2, 3, 3, 3, 2, 1, 2)) == SAMPLE_TREE


def test_tree_word_small():
    assert fam.word_to_tree((0,)) == ()
    assert fam.word_to_tree((0, 1)) == ((),)
    assert fam.tree_to_word(()) == (0,)
    assert fam.node_count(SAMPLE_TREE) == 10


def test_word_to_tree_rejects_non_members():
    with pytest.raises(fam.NotAMemberError):
        fam.word_to_tree((0, 2))
    with pytest.raises(fam.NotAMemberError):
        fam.word_to_tree((1, 2))


def test_tree_round_trip_exhaustive():
    for n in range(1, 8):
        for letters in map(tuple, fam.enumerate_prt(n)):
            tree = fam.word_to_tree(letters)
            assert fam.tree_to_word(tree) == letters


def graft_oracle(s_letters, i, t_letters):
    return splice(s_letters, i, t_letters, NATURALS.op)


def test_graft_worked_example():
    s, t = (0, 1, 2, 1), (0, 1, 1, 2, 1)
    expected = graft_oracle(s, 2, t)
    assert expected == (0, 1, 2, 2, 3, 2, 2, 1)
    grafted = fam.prt_graft(fam.word_to_tree(s), 2, fam.word_to_tree(t))
    assert fam.tree_to_word(grafted) == expected


def test_graft_unit_cases():
    tree = fam.word_to_tree((0, 1, 2, 1))
    for i in range(1, 5):
        assert fam.prt_graft(tree, i, ()) == tree
    two_chain = fam.word_to_tree((0, 1))
    grafted = fam.prt_graft(two_chain, 1, two_chain)
    assert fam.tree_to_word(grafted) == graft_oracle((0, 1), 1, (0, 1)) == (0, 1, 1)


def test_graft_position_error():
    with pytest.raises(IndexError):
        fam.prt_graft((), 2, ())


def test_graft_matches_word_substitution_exhaustively():
    words = [w for n in range(1, 5) for w in map(tuple, fam.enumerate_prt(n))]
    trees = {w: fam.word_to_tree(w) for w in words}
    for s, t in itertools.product(words, repeat=2):
        for i in range(1, len(s) + 1):
            grafted = fam.prt_graft(trees[s], i, trees[t])
            assert fam.tree_to_word(grafted) == graft_oracle(s, i, t)


def test_parens_serialization():
    assert fam.tree_to_parens(SAMPLE_TREE) == "(()((()()())())(()))"
    assert fam.tree_to_parens(()) == "()"


# ---------------------------------------------------------------------------
# Schroeder trees

_PAIR = ((), ())
_LEFT = ((), (), (_PAIR, ()))       # three children, the last carrying a pair
_RIGHT = (_PAIR, ((), (), ()))      # a pair next to a three-leaf node
SAMPLE_SCHR = (_LEFT, (), _RIGHT)   # eleven leaves, ten sectors


def test_schr_tree_word_example():
    assert fam.schr_tree_to_word(SAMPLE_SCHR) == (1, 1, 3, 2, 0, 0, 2, 1, 2, 2)
    assert fam.schr_word_to_tree((1, 1, 3, 2, 0, 0, 2, 1, 2, 2)) == SAMPLE_SCHR


def test_schr_tree_validator():
    assert fam.is_schroeder_tree(SAMPLE_SCHR)
    assert fam.is_schroeder_tree(())
    assert not fam.is_schroeder_tree(((),))
    assert not fam.is_schroeder_tree((((),), ()))
    with pytest.raises(fam.NotAMemberError):
        fam.schr_tree_to_word(((),))
    with pytest.raises(fam.NotAMemberError):
        fam.schr_tree_to_word(())


def test_schr_word_to_tree_rejects_non_members():
    with pytest.raises(fam.NotAMemberError):
        fam.schr_word_to_tree((0, 2))
    with pytest.raises(fam.NotAMemberError):
        fam.schr_word_to_tree((1, 1))


def test_schr_round_trip_exhaustive():
    for n in range(1, 7):
        for letters in map(tuple, fam.enumerate_schr(n)):
            tree = fam.schr_word_to_tree(letters)
            assert fam.is_schroeder_tree(tree)
            assert fam.leaf_count(tree) == n + 1
            assert fam.schr_tree_to_word(tree) == letters


# ---------------------------------------------------------------------------
# lattice paths


def test_kdyck_example():
    path = fam.word_to_kdyck((0, 0, 2, 4, 1, 3), 2)
    assert path == "UDDUUUDDDDDUUDDDDD"
    assert fam.kdyck_to_word(path, 2) == (0, 0, 2, 4, 1, 3)


def test_kdyck_degenerate_and_small():
    assert fam.word_to_kdyck((0, 0, 0), 0) == "UUU"
    assert fam.kdyck_to_word("UUU", 0) == (0, 0, 0)
    assert fam.word_to_kdyck((0, 0), 1) == "UDUD"


def test_kdyck_rejects_non_members():
    with pytest.raises(fam.NotAMemberError):
        fam.word_to_kdyck((0, 3), 2)
    with pytest.raises(fam.NotAMemberError):
        fam.kdyck_to_word("UDDU", 1)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_kdyck_round_trip_exhaustive(k):
    for n in range(1, 6):
        for letters in map(tuple, fam.enumerate_fcat(n, k)):
            path = fam.word_to_kdyck(letters, k)
            assert len(path) == (k + 1) * n
            assert fam.kdyck_to_word(path, k) == letters


def test_motzkin_example():
    path = fam.word_to_motzkin((0, 0, 1, 1, 2, 3, 2, 2, 1, 0, 1, 0))
    assert path == "SUSUUDSDDUD"
    assert fam.motzkin_to_word(path) == (0, 0, 1, 1, 2, 3, 2, 2, 1, 0, 1, 0)


def test_motzkin_small():
    assert fam.word_to_motzkin((0,)) == ""
    assert fam.word_to_motzkin((0, 0)) == "S"
    assert fam.motzkin_to_word("") == (0,)


def test_motzkin_round_trip_exhaustive():
    for n in range(1, 8):
        for letters in map(tuple, fam.enumerate_motz(n)):
            path = fam.word_to_motzkin(letters)
            assert len(path) == n - 1
            assert fam.motzkin_to_word(path) == letters


# ---------------------------------------------------------------------------
# step words over N3


def test_phi_worked_example():
    # 011220201 with 2 read as -1
    assert fam.da_phi((0, 1, 1, 2, 2, 0, 2, 0, 1)) == (1, 0, 1, 0, 1, -1, 1, 1)


def test_phi_small():
    assert fam.da_phi((2,)) == ()
    assert fam.da_phi((0, 0, 0, 0)) == (0, 0, 0)
    with pytest.raises(ValueError):
        fam.da_phi((0, 3))


def test_phi_round_trip_on_da_words():
    for n in range(1, 7):
        for letters in map(tuple, fam.enumerate_da(n)):
            assert fam.steps_from_phi(fam.da_phi(letters)) == letters


def test_motzkin_prefix():
    assert fam.is_motzkin_prefix((1, 0, 1, 0, 1, -1, 1, 1))
    assert fam.is_motzkin_prefix(())
    assert not fam.is_motzkin_prefix((-1,))
    assert not fam.is_motzkin_prefix((1, -1, -1))
    with pytest.raises(ValueError):
        fam.is_motzkin_prefix((2,))


def test_step_strings():
    assert fam.steps_to_string((1, 0, -1)) == "USD"


# ---------------------------------------------------------------------------
# ribbon compositions


def test_composition_word_examples():
    assert fam.word_to_composition((0,)) == (1,)
    assert fam.word_to_composition((0, 1, 1)) == (3,)
    assert fam.word_to_composition((0, 1, 0, 0)) == (2, 1, 1)
    assert fam.composition_to_word((2, 1, 1)) == (0, 1, 0, 0)
    with pytest.raises(fam.NotAMemberError):
        fam.word_to_composition((1, 0))
    with pytest.raises(ValueError):
        fam.composition_to_word((2, 0))


def test_composition_round_trip_exhaustive():
    for n in range(1, 9):
        for letters in map(tuple, fam.enumerate_comp(n)):
            parts = fam.word_to_composition(letters)
            assert sum(parts) == n
            assert fam.composition_to_word(parts) == letters


def test_ribbon_boxes_shape():
    boxes = fam.ribbon_boxes((2, 1, 3, 2, 1))
    assert boxes == [
        (0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4),
    ]
    assert fam.transpose_boxes(fam.transpose_boxes(boxes)) == boxes


def comp_oracle(c, i, d):
    out = splice(
        fam.composition_to_word(c), i, fam.composition_to_word(d), lambda a, b: (a + b) % 2
    )
    return fam.word_to_composition(out)


def test_ribbon_substitute_upper_and_lower_box():
    c, d = (2, 1, 3, 2, 1), (1, 1, 2, 3, 1)
    # an upper box keeps the inserted diagram as drawn
    assert fam.ribbon_substitute(c, 4, d) == comp_oracle(c, 4, d) == (2, 1, 1, 1, 2, 3, 3, 2, 1)
    # a lower box inserts the transpose
    assert fam.ribbon_substitute(c, 5, d) == comp_oracle(c, 5, d)


def test_ribbon_substitute_units():
    c = (3, 1, 2)
    for i in range(1, 7):
        assert fam.ribbon_substitute(c, i, (1,)) == c
    d = (2, 2)
    assert fam.ribbon_substitute((1,), 1, d) == d


def test_ribbon_substitute_position_error():
    with pytest.raises(IndexError):
        fam.ribbon_substitute((2, 1), 4, (1,))


def test_ribbon_substitute_matches_word_oracle_exhaustively():
    comps = [
        fam.word_to_composition(w)
        for n in range(1, 5)
        for w in fam.enumerate_comp(n)
    ]
    for c, d in itertools.product(comps, repeat=2):
        for i in range(1, sum(c) + 1):
            assert fam.ribbon_substitute(c, i, d) == comp_oracle(c, i, d)


# ---------------------------------------------------------------------------
# the two one-sided products


DIAS = PRESENTATIONS["dias"].symbols


def test_dias_encode_generators():
    left = node("l", LEAF, LEAF)
    right = node("r", LEAF, LEAF)
    assert eval_term(left, DIAS).letters == (1, 0)
    assert eval_term(right, DIAS).letters == (0, 1)


def test_dias_encode_relation_instance():
    lhs = eval_term(node("l", node("r", LEAF, LEAF), LEAF), DIAS)
    rhs = eval_term(node("r", LEAF, node("l", LEAF, LEAF)), DIAS)
    assert lhs.letters == (0, 1, 0)
    assert lhs == rhs


def test_dias_encode_lands_on_single_one_words():
    terms = [node("l", LEAF, node("r", LEAF, LEAF)), node("r", node("l", LEAF, LEAF), LEAF)]
    for t in terms:
        assert fam.is_dias_word(eval_term(t, DIAS).letters)


# ---------------------------------------------------------------------------
# the one-pass views against their first-written forms, kept here as
# references: same objects for members, and for non-members the same
# exception type with the same message


def ref_word_to_tree(letters):
    """A path list of open child lists, frozen by a second recursive pass."""
    if not fam.is_prt_word(letters):
        raise fam.NotAMemberError(f"{letters} is not a preorder depth word")
    root = []
    path = [root]  # path[d] holds the children of the current depth-d node
    for depth in letters[1:]:
        child = []
        path[depth - 1].append(child)
        del path[depth:]
        path.append(child)

    def freeze(node):
        return tuple(freeze(child) for child in node)

    return freeze(root)


def ref_schr_word_to_tree(letters):
    """Split each segment at its least letter, recursively."""

    def build(segment, depth):
        if not segment:
            return ()
        if min(segment) != depth:
            raise fam.NotAMemberError(
                f"{letters} is not a sector-depth word (segment {segment} "
                f"misses depth {depth})"
            )
        children, part = [], []
        for a in segment:
            if a == depth:
                children.append(build(tuple(part), depth + 1))
                part = []
            else:
                part.append(a)
        children.append(build(tuple(part), depth + 1))
        return tuple(children)

    return build(tuple(letters), 0)


def ref_node_count(tree):
    return 1 + sum(ref_node_count(child) for child in tree)


def ref_leaf_count(tree):
    return sum(ref_leaf_count(child) for child in tree) if tree else 1


def ref_tree_to_parens(tree):
    return "(" + "".join(ref_tree_to_parens(child) for child in tree) + ")"


def ref_tree_to_word(tree):
    out = [0]

    def walk(node, depth):
        for child in node:
            out.append(depth)
            walk(child, depth + 1)

    walk(tree, 1)
    return tuple(out)


def ref_prt_graft(host, i, graft):
    total = ref_node_count(host)
    if not 1 <= i <= total:
        raise PositionError(f"position {i} not in 1..{total}")
    visited = 0

    def go(node):
        nonlocal visited
        visited += 1
        if visited == i:
            return tuple(graft) + node
        return tuple(go(child) if visited < i else child for child in node)

    return go(host)


def ref_is_schroeder_tree(tree):
    return len(tree) != 1 and all(ref_is_schroeder_tree(child) for child in tree)


def ref_schr_tree_to_word(tree):
    out = []

    def walk(node, depth):
        if not node:
            return
        if len(node) == 1:
            raise fam.NotAMemberError("a node with exactly one child has no sector word")
        walk(node[0], depth + 1)
        for child in node[1:]:
            out.append(depth)
            walk(child, depth + 1)

    walk(tree, 0)
    if not out:
        raise fam.NotAMemberError("a bare leaf has no sectors")
    return tuple(out)


def ref_kdyck_to_word(path, k):
    letters, height = [], 0
    for ch in path:
        if ch == "U":
            letters.append(height)
            height += k
        elif ch == "D":
            height -= 1
            if height < 0:
                raise fam.NotAMemberError("path dips below zero")
        else:
            raise ValueError(f"bad k-Dyck step {ch!r}")
    if height != 0:
        raise fam.NotAMemberError("path does not return to zero")
    if not letters:
        raise fam.NotAMemberError("path has no up step")
    return tuple(letters)


def ref_motzkin_to_word(path):
    steps = {"U": 1, "S": 0, "D": -1}
    letters = [0]
    for ch in path:
        if ch not in steps:
            raise ValueError(f"bad Motzkin step {ch!r}")
        letters.append(letters[-1] + steps[ch])
        if letters[-1] < 0:
            raise fam.NotAMemberError("path dips below zero")
    if letters[-1] != 0:
        raise fam.NotAMemberError("path does not return to zero")
    return tuple(letters)


def ref_ribbon_substitute(c, i, d):
    """The box model: whole box lists, a set lookup for the box above, and
    column heights counted over every box."""

    def boxes(parts):
        out, row = [], 0
        for col, height in enumerate(parts):
            out += [(col, r) for r in range(row, row + height)]
            row += height - 1
        return out

    c_boxes = boxes(c)
    if not 1 <= i <= len(c_boxes):
        raise PositionError(f"position {i} not in 1..{len(c_boxes)}")
    target = c_boxes[i - 1]
    d_boxes = boxes(d)
    if (target[0], target[1] - 1) in set(c_boxes):
        d_boxes = sorted((row, col) for col, row in d_boxes)
    first, last = d_boxes[0], d_boxes[-1]
    out = c_boxes[: i - 1]
    out += [(col + target[0] - first[0], row + target[1] - first[1]) for col, row in d_boxes]
    out += [(col + last[0] - first[0], row + last[1] - first[1]) for col, row in c_boxes[i:]]
    heights = collections.Counter(col for col, _ in out)
    return tuple(heights[col] for col in sorted(heights))


def outcome(view, *args):
    """What a view gives: its object, or its exception's type and message."""
    try:
        return view(*args)
    except Exception as error:  # compared by type and message
        return type(error), str(error)


def words_up_to(length, letters=range(4)):
    return [w for n in range(length + 1) for w in itertools.product(letters, repeat=n)]


def test_word_to_tree_matches_reference_on_every_prt_word():
    words = [w for n in range(1, 10) for w in map(tuple, fam.enumerate_prt(n))]
    assert len(words) == 2056
    for w in words:
        tree = fam.word_to_tree(w)
        assert tree == ref_word_to_tree(w)
        assert fam.tree_to_word(tree) == w


def test_tree_views_refuse_as_reference():
    # each word over 0..3 of length <= 6, the empty word too, and letters
    # below 0 or too deep for the sectors that follow them
    for w in words_up_to(6) + [(0, -1), (-1, 0), (0, 9), (9, 0, 1), (0, 1, 5, 0)]:
        assert outcome(fam.word_to_tree, w) == outcome(ref_word_to_tree, w)
        assert outcome(fam.schr_word_to_tree, w) == outcome(ref_schr_word_to_tree, w)


def test_schr_word_to_tree_matches_reference_on_every_schr_word():
    for n in range(1, 8):
        for w in fam.enumerate_schr(n):
            assert fam.schr_word_to_tree(w) == ref_schr_word_to_tree(w)


# every view that takes a tree, with its reference
TREE_VIEWS = [
    (fam.node_count, ref_node_count),
    (fam.leaf_count, ref_leaf_count),
    (fam.tree_to_parens, ref_tree_to_parens),
    (fam.tree_to_word, ref_tree_to_word),
    (fam.is_schroeder_tree, ref_is_schroeder_tree),
    (fam.schr_tree_to_word, ref_schr_tree_to_word),
]


def test_tree_views_match_reference_on_every_prt_and_schr_tree():
    prt = [fam.word_to_tree(w) for n in range(1, 9) for w in fam.enumerate_prt(n)]
    schr = [fam.schr_word_to_tree(w) for n in range(1, 8) for w in fam.enumerate_schr(n)]
    assert (len(prt), len(schr)) == (626, 5439)
    for tree in prt + schr + [5, None, ((), 5)]:
        for view, ref in TREE_VIEWS:
            assert outcome(view, tree) == outcome(ref, tree), (view.__name__, tree)
    for host, graft in itertools.product(prt[:65], prt[:9]):  # through arity 6 and 4
        for i in range(ref_node_count(host) + 2):
            assert outcome(fam.prt_graft, host, i, graft) == outcome(
                ref_prt_graft, host, i, graft
            )


def test_tree_views_take_a_tree_deeper_than_the_recursion_limit():
    # each reference raises RecursionError on this chain of 1,200 nodes
    chain = fam.word_to_tree(tuple(range(1200)))
    with pytest.raises(RecursionError):
        ref_node_count(chain)
    assert fam.tree_to_word(chain) == tuple(range(1200))
    assert fam.tree_to_parens(chain) == "(" * 1200 + ")" * 1200
    assert (fam.node_count(chain), fam.leaf_count(chain)) == (1200, 1)
    assert not fam.is_schroeder_tree(chain)
    with pytest.raises(fam.NotAMemberError, match="exactly one child"):
        fam.schr_tree_to_word(chain)
    grafted = fam.prt_graft(chain, 1200, ((), ()))
    assert fam.tree_to_word(grafted) == tuple(range(1200)) + (1200, 1200)
    # a Schroeder comb of 1,200 sectors whose sector depths rise by one
    comb = fam.schr_word_to_tree(tuple(range(1200)))
    assert fam.is_schroeder_tree(comb)
    assert fam.schr_tree_to_word(comb) == tuple(range(1200))
    assert fam.leaf_count(comb) == 1201


# through arity 8, but fcat3 through 7: its 420,732 words of arity 8 alone
# took 9 s
@pytest.mark.parametrize("k, top", [(1, 8), (2, 8), (3, 7)])
def test_kdyck_views_match_reference_both_ways(k, top):
    # the reference inverse takes each path back to its word, so the path
    # is the word's; the rewritten inverse must agree
    for n in range(1, top + 1):
        for w in map(tuple, fam.enumerate_fcat(n, k)):
            path = fam.word_to_kdyck(w, k)
            assert fam.kdyck_to_word(path, k) == ref_kdyck_to_word(path, k) == w


def test_motzkin_views_match_reference_both_ways():
    for n in range(1, 9):
        for w in map(tuple, fam.enumerate_motz(n)):
            path = fam.word_to_motzkin(w)
            assert fam.motzkin_to_word(path) == ref_motzkin_to_word(path) == w


def test_path_views_refuse_as_reference():
    # every string over U, D, S and a bad step X, up to length 7: paths that
    # dip, end above 0, hold no U, or hold a bad step
    paths = ["".join(p) for p in words_up_to(7, "UDSX")]
    for path in paths:
        assert outcome(fam.motzkin_to_word, path) == outcome(ref_motzkin_to_word, path)
        for k in (0, 1, 2, 3):
            assert outcome(fam.kdyck_to_word, path, k) == outcome(ref_kdyck_to_word, path, k)


def test_ribbon_substitute_matches_reference_on_every_case():
    comps = [fam.word_to_composition(w) for n in range(1, 6) for w in fam.enumerate_comp(n)]
    cases = [(c, i, d) for c in comps for d in comps for i in range(0, sum(c) + 2)]
    assert len(cases) == 3999 + 2 * 31 * 31
    for c, i, d in cases:
        assert outcome(fam.ribbon_substitute, c, i, d) == outcome(ref_ribbon_substitute, c, i, d)


def test_ribbon_diagrams_are_kept_for_a_bounded_number_of_compositions():
    comps = [fam.word_to_composition(w) for n in range(1, 12) for w in fam.enumerate_comp(n)]
    for c in comps:
        fam.ribbon_substitute(c, 1, (1,))
    assert len(comps) == 2047 > ribbons._DIAGRAMS
    assert ribbons._diagram.cache_info().currsize == ribbons._DIAGRAMS


def test_ribbon_substitute_draws_through_a_patched_ribbon_boxes(monkeypatch):
    drawn = []

    def ribbon_boxes(parts):
        drawn.append(parts)
        return fam.ribbon_boxes(parts)

    monkeypatch.setattr(ribbons, "ribbon_boxes", ribbon_boxes)
    assert fam.ribbon_substitute((2, 1), 2, (1, 1)) == (3, 1)
    assert drawn == [(2, 1), (1, 1)]
