import math

import pytest

from groupcoh import (
    builtin_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    group_from_json,
    group_from_table,
    group_to_json,
    symmetric_group,
)
from groupcoh.errors import NoIdentity, NoInverse, NotAssociative, UnknownFamily
from groupcoh.groups import generated, greedy_generators, inverse, multiply


def assert_group_axioms(g):
    n = g.order
    for i in range(n):
        assert g.mul(0, i) == i and g.mul(i, 0) == i
        j = g.inv(i)
        assert g.mul(i, j) == 0 and g.mul(j, i) == 0
        assert g.inv(j) == i
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert g.mul(g.mul(i, j), k) == g.mul(i, g.mul(j, k))


def test_cyclic_basics():
    g = cyclic_group(3)
    assert g.order == 3
    assert_group_axioms(g)
    assert g.is_abelian
    assert inverse(g, 1) == 2  # g^-1 = g^2


def test_cyclic_order_counts():
    # number of solutions of x^k = 1 in Z/m is gcd(k, m)
    for m in (2, 3, 4, 6, 8):
        g = cyclic_group(m)
        for k in range(1, m + 1):
            count = sum(1 for i in range(m) if g.product([i] * k) == 0)
            assert count == math.gcd(k, m)


def test_multiply_identity_law():
    g = cyclic_group(5)
    for i in range(5):
        assert multiply(g, 0, i) == i


def test_z2_involution():
    g = cyclic_group(2)
    assert multiply(g, 1, 1) == 0


def test_dihedral():
    g = dihedral_group(4)
    assert g.order == 8
    assert_group_axioms(g)
    assert not g.is_abelian


def test_symmetric():
    g = symmetric_group(3)
    assert g.order == 6
    assert_group_axioms(g)
    assert not g.is_abelian
    assert g.noncommuting_pair() is not None
    with pytest.raises(UnknownFamily):
        symmetric_group(5)


def test_direct_product():
    g = direct_product(cyclic_group(2), cyclic_group(2))
    assert g.order == 4
    assert_group_axioms(g)
    assert g.is_abelian
    assert sorted(g.element_order(i) for i in range(4)) == [1, 2, 2, 2]


def test_builtin_parser():
    assert builtin_group("cyclic:4").order == 4
    assert builtin_group("dihedral:3").order == 6
    assert builtin_group("cyclic:2*cyclic:3").order == 6
    with pytest.raises(UnknownFamily):
        builtin_group("sporadic:1")
    with pytest.raises(UnknownFamily):
        builtin_group("cyclic:x")


def test_identity_normalization():
    # Z/2 table with the identity at index 1
    g = group_from_table([[1, 0], [0, 1]], labels=["t", "e"])
    assert g.elements[0] == "e"
    assert g.mul(1, 1) == 0


def test_no_identity():
    with pytest.raises(NoIdentity):
        group_from_table([[1, 0], [1, 0]])


def test_no_inverse():
    # 2x2 with table(1,1) = 1: x has no inverse
    with pytest.raises(NoInverse):
        group_from_table([[0, 1], [1, 1]])


def test_not_associative():
    # build a quasigroup table with identity but broken associativity
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAssociative) as exc:
        group_from_table(table)
    assert exc.value.witness is not None


def test_json_roundtrip():
    g = symmetric_group(3)
    g2 = group_from_json(group_to_json(g))
    assert g2.table == g.table
    assert g2.elements == g.elements


def test_element_order():
    g = cyclic_group(6)
    assert [g.element_order(i) for i in range(6)] == [1, 6, 3, 2, 3, 6]


@pytest.mark.parametrize("spec, expected", [
    ("cyclic:1", []), ("cyclic:6", [1]), ("cyclic:2*cyclic:2", [1, 2]),
    ("cyclic:2*cyclic:2*cyclic:2", [1, 2, 4]), ("symmetric:3", None), ("dihedral:4", None),
])
def test_generators_are_greedy_and_generate(spec, expected):
    g = builtin_group(spec)
    gens = greedy_generators(g)
    if expected is not None:
        assert gens == expected
    assert generated(g, gens) == set(range(g.order))
    # greedy: each generator lies outside the subgroup of the earlier ones,
    # and every element skipped lies inside it
    for k, s in enumerate(gens):
        earlier = generated(g, gens[:k])
        assert s not in earlier
        assert all(x in earlier for x in range(1, s))


def test_generated_is_the_subgroup_closure():
    g = cyclic_group(6)
    assert generated(g, []) == {0}
    assert generated(g, [2]) == {0, 2, 4}
    assert generated(g, [3]) == {0, 3}
    assert generated(g, [2, 3]) == set(range(6))
