"""Bijections between words and trees, paths, and ribbon compositions."""
import itertools

import pytest

from opwords import families as fam
from opwords.monoids import NATURALS
from opwords.presentations import LEAF, PRESENTATIONS, eval_term, node
from opwords.words import splice


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
        for letters in fam.enumerate_prt(n):
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
    words = [w for n in range(1, 5) for w in fam.enumerate_prt(n)]
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
        for letters in fam.enumerate_schr(n):
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
        for letters in fam.enumerate_fcat(n, k):
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
        for letters in fam.enumerate_motz(n):
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
        for letters in fam.enumerate_da(n):
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
        for letters in fam.enumerate_comp(n):
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
