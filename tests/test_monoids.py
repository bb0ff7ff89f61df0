import itertools

import pytest

from opwords.monoids import (
    BOOLEAN,
    CarrierError,
    NATURALS,
    compose_morphisms,
    cyclic,
    identity_morphism,
    parse_monoid,
    reduce_mod,
)


def test_combine_examples():
    assert NATURALS.combine(2, 3) == 5
    assert cyclic(3).combine(2, 2) == 1
    assert BOOLEAN.combine(1, 0) == 0


def test_units():
    assert NATURALS.unit == 0
    assert cyclic(5).unit == 0
    assert BOOLEAN.unit == 1


def test_carrier_errors():
    with pytest.raises(CarrierError):
        cyclic(3).combine(3, 0)
    with pytest.raises(CarrierError):
        BOOLEAN.combine(2, 0)
    with pytest.raises(CarrierError):
        NATURALS.combine(-1, 0)


def test_cyclic_needs_a_positive_modulus():
    for build in (lambda: cyclic(0), lambda: cyclic(-1), lambda: parse_monoid("N0")):
        with pytest.raises(ValueError, match="positive modulus"):
            build()


def test_monoids_are_values():
    assert cyclic(3) == parse_monoid("N3")
    assert hash(cyclic(3)) == hash(parse_monoid("N3"))
    assert cyclic(2) != cyclic(3)
    assert BOOLEAN != cyclic(2)


def test_parse_names_round_trip():
    for name in ["N", "N2", "N3", "N6", "B01"]:
        assert parse_monoid(name).name == name
    with pytest.raises(ValueError):
        parse_monoid("Q")
    with pytest.raises(ValueError):
        parse_monoid("N-1")


def _carrier_sample(m):
    return range(21) if not m.is_finite else m.elements()


@pytest.mark.parametrize(
    "m", [NATURALS, BOOLEAN] + [cyclic(l) for l in range(1, 7)], ids=str
)
def test_associativity_and_units_exhaustive(m):
    sample = list(_carrier_sample(m))
    e = m.unit
    for a, b, c in itertools.product(sample, repeat=3):
        assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))
    for a in sample:
        assert m.combine(e, a) == a == m.combine(a, e)


def test_morphism_examples():
    assert reduce_mod(3)(4) == 1
    assert identity_morphism(NATURALS)(7) == 7
    comp = compose_morphisms(reduce_mod(2), identity_morphism(NATURALS))
    assert comp(5) == 1


def test_morphism_laws_exhaustive():
    for theta in [reduce_mod(2), reduce_mod(3), identity_morphism(NATURALS)]:
        assert theta(theta.source.unit) == theta.target.unit
        for a, b in itertools.product(range(21), repeat=2):
            assert theta(theta.source.combine(a, b)) == theta.target.combine(
                theta(a), theta(b)
            )


def test_morphism_composition_guard():
    with pytest.raises(ValueError):
        compose_morphisms(reduce_mod(2), reduce_mod(3))  # N3 is not N


def test_morphism_domain_error():
    theta = reduce_mod(2)
    with pytest.raises(CarrierError):
        theta(-3)
    ident3 = identity_morphism(cyclic(3))
    with pytest.raises(CarrierError):
        ident3(5)
