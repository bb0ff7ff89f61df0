import json

import pytest
from hypothesis import given, strategies as st

from opwords.monoids import BOOLEAN, NATURALS, compose_morphisms, cyclic, identity_morphism, reduce_mod
from opwords.words import (
    MonoidMismatchError,
    PositionError,
    Word,
    act,
    all_perms,
    block_substitute,
    compose_perms,
    format_letters,
    identity_perm,
    inverse_perm,
    lift_morphism,
    parse_letters,
    substitute,
    word,
)

N = NATURALS


def w(text):
    return word(N, text)


# ---------------------------------------------------------------------------
# substitution


def test_substitute_worked_example():
    assert substitute(w("2123"), 2, w("30313")) == w("24142423")


def test_substitute_permutation_counterexample():
    # substituting one increasing run into another leaves the family of
    # endofunctions, which is what motivates the shifted variants
    assert substitute(w("12"), 2, w("12")) == w("134")


def test_substitute_unit_laws():
    x = w("0112")
    one = w("0")
    assert substitute(x, 3, one) == x
    assert substitute(one, 1, x) == x
    assert (N.unit, cyclic(2).unit, BOOLEAN.unit) == (0, 0, 1)


def test_substitute_errors():
    with pytest.raises(PositionError):
        substitute(w("01"), 3, w("0"))
    with pytest.raises(PositionError):
        substitute(w("01"), 0, w("0"))
    with pytest.raises(MonoidMismatchError):
        substitute(w("01"), 1, word(cyclic(2), "01"))


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    st.lists(st.integers(0, 5), min_size=1, max_size=6),
    st.data(),
)
def test_substitute_arity_arithmetic(xs, ys, data):
    x, y = word(N, xs), word(N, ys)
    i = data.draw(st.integers(1, len(x)))
    assert len(substitute(x, i, y)) == len(x) + len(y) - 1


# ---------------------------------------------------------------------------
# group action


def test_act_worked_example():
    assert act(w("11210"), (2, 3, 5, 1, 4)) == w("12011")


def test_act_identity_and_inverse():
    x = w("002413")
    assert act(x, identity_perm(6)) == x
    y = w("011")
    sigma = (2, 3, 1)
    assert act(act(y, sigma), inverse_perm(sigma)) == y


def test_act_degree_mismatch():
    with pytest.raises(ValueError):
        act(w("01"), (1, 2, 3))
    with pytest.raises(ValueError):
        act(w("012"), (1, 1, 2))


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5), st.data())
def test_act_is_right_action(xs, data):
    x = word(N, xs)
    n = len(x)
    perms = list(all_perms(n))
    sigma = data.draw(st.sampled_from(perms))
    tau = data.draw(st.sampled_from(perms))
    assert act(x, compose_perms(sigma, tau)) == act(act(x, sigma), tau)


# ---------------------------------------------------------------------------
# block substitution of permutations


def test_block_substitute_worked_example():
    assert block_substitute((7, 4, 1, 5, 6, 2, 3), 4, (2, 3, 1)) == (
        9, 4, 1, 6, 7, 5, 8, 2, 3,
    )


def test_block_substitute_into_trivial():
    assert block_substitute((1,), 1, (3, 1, 2)) == (3, 1, 2)


def _oracle_block(sigma, i, nu):
    """Solve the compatibility identity for the unique inserted permutation,
    using operand words with pairwise distinct letters."""
    x = word(N, [10 * j for j in range(1, len(sigma) + 1)])
    y = word(N, [j for j in range(1, len(nu) + 1)])
    lhs = substitute(act(x, sigma), i, act(y, nu))
    base = substitute(x, sigma[i - 1], y)
    matches = [
        tau for tau in all_perms(len(lhs)) if act(base, tau) == lhs
    ]
    assert len(matches) == 1
    return matches[0]


def test_block_substitute_small_case_against_oracle():
    # the action-compatibility identity pins the value down
    expected = _oracle_block((2, 1), 2, (1, 2))
    assert expected == (3, 1, 2)
    assert block_substitute((2, 1), 2, (1, 2)) == expected


def test_block_substitute_matches_oracle_exhaustively():
    for n in (1, 2, 3):
        for sigma in all_perms(n):
            for i in range(1, n + 1):
                for m in (1, 2):
                    for nu in all_perms(m):
                        assert block_substitute(sigma, i, nu) == _oracle_block(
                            sigma, i, nu
                        )


def test_block_substitute_position_error():
    with pytest.raises(PositionError):
        block_substitute((1, 2), 3, (1,))


# ---------------------------------------------------------------------------
# lifted morphisms


def test_lift_examples():
    assert lift_morphism(reduce_mod(2), w("002413")).letters == (0, 0, 0, 0, 1, 1)
    assert lift_morphism(reduce_mod(3), w("002413")).letters == (0, 0, 2, 1, 1, 0)
    x = w("0112")
    assert lift_morphism(identity_morphism(N), x) == x


def test_lift_source_mismatch():
    with pytest.raises(MonoidMismatchError):
        lift_morphism(reduce_mod(2), word(cyclic(3), "012"))


def test_lift_functoriality_and_commutation():
    theta = reduce_mod(2)
    omega_theta = compose_morphisms(identity_morphism(cyclic(2)), theta)
    theta_ident = compose_morphisms(reduce_mod(3), identity_morphism(N))
    xs = [w("0123"), w("031"), w("22")]
    ys = [w("01"), w("30")]
    for x in xs:
        assert lift_morphism(omega_theta, x) == lift_morphism(
            identity_morphism(cyclic(2)), lift_morphism(theta, x)
        )
        assert lift_morphism(theta_ident, x) == lift_morphism(
            reduce_mod(3), lift_morphism(identity_morphism(N), x)
        )
        for y in ys:
            for i in range(1, len(x) + 1):
                assert lift_morphism(theta, substitute(x, i, y)) == substitute(
                    lift_morphism(theta, x), i, lift_morphism(theta, y)
                )
        for sigma in all_perms(len(x)):
            assert lift_morphism(theta, act(x, sigma)) == act(
                lift_morphism(theta, x), sigma
            )


# ---------------------------------------------------------------------------
# text and record forms


def test_format_and_parse():
    assert format_letters((0, 0, 2, 4, 1, 3)) == "002413"
    assert format_letters((11, 2, 0)) == "11,2,0"
    assert parse_letters("002413") == (0, 0, 2, 4, 1, 3)
    assert parse_letters("11,2,0") == (11, 2, 0)
    assert str(w("0112")) == "0112"


def test_json_record():
    rec = json.loads(word(cyclic(2), "011").to_record())
    assert rec == {"monoid": "N2", "letters": [0, 1, 1]}


def test_word_validation():
    with pytest.raises(ValueError):
        Word(N, ())
    with pytest.raises(Exception):
        Word(cyclic(2), (0, 2))
