import random

import pytest

from groupcoh import (
    Cochain,
    GModule,
    add_cochains,
    builtin_group,
    coboundary,
    cup,
    cup_with_pairing,
    cyclic_group,
    d2,
    evaluation_pairing,
    hom_module,
    is_cocycle,
    neg_cochain,
    ring_pairing,
    scale_cochain,
    solve_coboundary,
    sub_cochains,
    trivial_module,
)
from groupcoh.cochains import nonid_tuples
from groupcoh.cup import identity_pairing
from groupcoh.errors import NotACocycle, PairingMismatch


def random_cochain(rng, group, module, degree):
    vals = {}
    for tup in nonid_tuples(group.order, degree):
        vals[tup] = tuple(
            rng.randrange(d) if d else rng.randrange(-2, 3) for d in module.factors
        )
    return Cochain(group, module, degree, vals)


def test_cup_basic_z2():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    a = Cochain(g, m, 1, {(1,): (1,)})
    prod, tensor = cup(a, a)
    assert list(tensor.factors) == [2]
    assert prod.evaluate((1, 1)) == (1,)


def test_cup_zero_factor():
    g = cyclic_group(3)
    m = trivial_module(g, [3])
    z = Cochain(g, m, 1)
    a = Cochain(g, m, 1, {(1,): (1,), (2,): (2,)})
    prod, _ = cup(z, a)
    assert prod.is_zero()


def test_cup_degree_zero_unit():
    g = cyclic_group(4)
    zmod = trivial_module(g, [0])
    m = trivial_module(g, [6])
    e = Cochain(g, zmod, 0, {(): (1,)})
    rng = random.Random(0)
    b = random_cochain(rng, g, m, 2)
    prod, tensor = cup(e, b)
    assert list(tensor.factors) == [6]
    assert prod.values == b.values


def test_ring_pairing_cup():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    p = ring_pairing(m)
    a = Cochain(g, m, 1, {(1,): (1,)})
    prod = cup_with_pairing(p, a, a)
    assert prod.evaluate((1, 1)) == (1,)


def test_identity_pairing_equals_cup():
    g = cyclic_group(3)
    m = trivial_module(g, [3])
    n = trivial_module(g, [6])
    rng = random.Random(4)
    a = random_cochain(rng, g, m, 1)
    b = random_cochain(rng, g, n, 1)
    via_pairing = cup_with_pairing(identity_pairing(m, n), a, b)
    direct, _ = cup(a, b)
    assert via_pairing == direct


LEIBNIZ_GROUPS = ("cyclic:2", "cyclic:4", "symmetric:3")


def leibniz_defect(pairing, a, b):
    lhs = coboundary(cup_with_pairing(pairing, a, b))
    rhs = add_cochains(
        cup_with_pairing(pairing, coboundary(a), b),
        scale_cochain((-1) ** a.degree, cup_with_pairing(pairing, a, coboundary(b))),
    )
    return sub_cochains(lhs, rhs)


def test_leibniz_rule_random():
    rng = random.Random(2024)
    count = 0
    for name in LEIBNIZ_GROUPS:
        g = builtin_group(name)
        m = trivial_module(g, [4])
        pairing = ring_pairing(m)
        for p in (0, 1, 2):
            for q in (0, 1, 2):
                if p + q > 3:
                    continue
                for _ in range(4):
                    a = random_cochain(rng, g, m, p)
                    b = random_cochain(rng, g, m, q)
                    assert leibniz_defect(pairing, a, b).is_zero()
                    count += 1
    assert count > 0


def test_leibniz_fixed_regression():
    # one fixed degree (1,1) case on S3 with nontrivial values, kept as a
    # regression pin for the global sign convention
    g = builtin_group("symmetric:3")
    m = trivial_module(g, [6])
    pairing = ring_pairing(m)
    a = Cochain(g, m, 1, {(1,): (1,), (3,): (2,), (5,): (5,)})
    b = Cochain(g, m, 1, {(2,): (3,), (4,): (1,)})
    assert leibniz_defect(pairing, a, b).is_zero()


def test_cocycles_cup_to_cocycle():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    w = Cochain(g, m, 2, {(1, 1): (1,)})
    a = Cochain(g, m, 1, {(1,): (1,)})
    prod, _ = cup(w, a)
    assert is_cocycle(prod)
    prod2, _ = cup(w, w)
    assert is_cocycle(prod2)


def test_graded_commutativity_up_to_coboundary():
    rng = random.Random(77)
    z2 = builtin_group("cyclic:2")
    m2 = trivial_module(z2, [4])
    s3 = builtin_group("symmetric:3")
    m3 = trivial_module(s3, [4])
    # nontrivial degree-1 cocycles: homs into Z/4 through the 2-quotient
    sign2 = Cochain(z2, m2, 1, {(1,): (2,)})
    sign3 = Cochain(
        s3, m3, 1,
        {(i,): (2,) for i in range(1, 6) if s3.element_order(i) == 2},
    )
    for g, m, one_cocycle in ((z2, m2, sign2), (s3, m3, sign3)):
        assert is_cocycle(one_cocycle)
        pairing = ring_pairing(m)
        two_cocycle = coboundary(random_cochain(rng, g, m, 1))
        pairs = [
            (one_cocycle, one_cocycle),
            (one_cocycle, two_cocycle),
            (two_cocycle, two_cocycle),
        ]
        for a, b in pairs:
            diff = sub_cochains(
                cup_with_pairing(pairing, a, b),
                scale_cochain(
                    (-1) ** (a.degree * b.degree), cup_with_pairing(pairing, b, a)
                ),
            )
            assert solve_coboundary(diff) is not None


def test_evaluation_pairing():
    g = cyclic_group(2)
    a = trivial_module(g, [2])
    m = trivial_module(g, [2])
    pairing = evaluation_pairing(a, m)
    hom = pairing.right
    ident = hom.from_images([(1,)])
    assert pairing.apply((1,), ident) == (1,)
    assert pairing.apply((0,), ident) == (0,)


def test_evaluation_pairing_equivariance_sign():
    g = cyclic_group(2)
    a = GModule(g, [4], [[[1]], [[-1]]])
    m = GModule(g, [4], [[[1]], [[-1]]])
    pairing = evaluation_pairing(a, m)
    hom = pairing.right
    for f in hom.elements():
        for vec in a.elements():
            lhs = pairing.apply(a.act(1, vec), hom.act(1, f))
            rhs = m.act(1, pairing.apply(vec, f))
            assert lhs == rhs


def test_d2_single_tuple():
    g = cyclic_group(2)
    a = trivial_module(g, [2])
    m = trivial_module(g, [2])
    hom = hom_module(a, m)
    ident = hom.from_images([(1,)])
    b = Cochain(g, hom, 0, {(): ident})
    c = Cochain(g, a, 2, {(1, 1): (1,)})
    out = d2(b, c)
    # d2(b)(t,t) = -b(c(t,t)) = -1 = 1 mod 2
    assert out.evaluate((1, 1)) == (1,)


def test_d2_zero_witness():
    g = cyclic_group(2)
    a = trivial_module(g, [2])
    m = trivial_module(g, [2])
    hom = hom_module(a, m)
    b = Cochain(g, hom, 0)
    c = Cochain(g, a, 2, {(1, 1): (1,)})
    assert d2(b, c).is_zero()


def test_d2_requires_cocycle():
    g = builtin_group("cyclic:2*cyclic:2")
    a = trivial_module(g, [2])
    m = trivial_module(g, [2])
    hom = hom_module(a, m)
    b = Cochain(g, hom, 0, {(): hom.from_images([(1,)])})
    bad = Cochain(g, a, 2, {(1, 2): (1,)})
    with pytest.raises(NotACocycle):
        d2(b, bad)


def test_cup_and_d2_compare_the_action_of_their_coefficients():
    """Coefficients that match a pairing in group and factors but not in
    the action are rejected: the ring pairing of the trivial Z would read
    x cup y = 1 at (g, g) for x = y = (g -> 1) in Z_sgn, where the
    equivariant pairing Z_sgn x Z_sgn -> Z gives -1.  Matrices that differ
    but act as the same map on M are the same module."""
    g = cyclic_group(2)
    sign = GModule(g, [0], [[[1]], [[-1]]])
    x = Cochain(g, sign, 1, {(1,): (1,)})
    with pytest.raises(PairingMismatch):
        cup_with_pairing(ring_pairing(trivial_module(g, [0])), x, x)
    hom = hom_module(trivial_module(g, [4]), trivial_module(g, [4]))
    b = Cochain(g, hom, 0, {(): hom.from_images([(1,)])})
    # c(g, g) = 2 is a 2-cocycle of Z/4 with g acting by -1
    c = Cochain(g, GModule(g, [4], [[[1]], [[-1]]]), 2, {(1, 1): (2,)})
    assert is_cocycle(c)
    with pytest.raises(PairingMismatch):
        d2(b, c)
    same = GModule(g, [2], [[[1]], [[-1]]])
    assert same.same_ambient(trivial_module(g, [2]))
    b = Cochain(g, hom_module(same, same), 0)
    assert d2(b, Cochain(g, trivial_module(g, [2]), 2)).is_zero()


def test_d2_matches_evaluation_cup():
    g = cyclic_group(2)
    a = trivial_module(g, [2])
    m = trivial_module(g, [2])
    pairing = evaluation_pairing(a, m)
    hom = pairing.right
    b = Cochain(g, hom, 0, {(): hom.from_images([(1,)])})
    c = Cochain(g, a, 2, {(1, 1): (1,)})
    direct = d2(b, c)
    # d2(b) = -(b cup_ev c) with the pairing applied as P(c-value, b-value)
    flipped = pairing.flip()
    via_cup = neg_cochain(cup_with_pairing(flipped, b, c))
    assert direct == via_cup


def test_d2_output_is_cocycle():
    g = cyclic_group(3)
    a = trivial_module(g, [3])
    m = trivial_module(g, [3])
    hom = hom_module(a, m)
    b = Cochain(g, hom, 0, {(): hom.from_images([(2,)])})
    c_vals = {}
    # a nonzero 2-cocycle of Z/3 with Z/3 coefficients (carry cocycle)
    for i in (1, 2):
        for j in (1, 2):
            if i + j >= 3:
                c_vals[(i, j)] = (1,)
    c = Cochain(g, a, 2, c_vals)
    assert is_cocycle(c)
    assert is_cocycle(b)
    assert is_cocycle(d2(b, c))
