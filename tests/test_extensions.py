import itertools
import random

import pytest

from groupcoh import (
    Cochain,
    GModule,
    build_extension,
    builtin_group,
    coboundary,
    cyclic_group,
    extension_from_json,
    extension_to_json,
    kernel_view,
    lift_cochain,
    module_through_projection,
    restrict_cochain,
    trivial_module,
)
from groupcoh.cochains import nonid_tuples
from groupcoh.errors import KernelNotFinite, NotACocycle, ResourceLimit
from groupcoh.extensions import GroupExtension
from groupcoh.groups import generated, greedy_generators
from groupcoh.modules import element_index


def z4_extension():
    """Z/4 as the extension of Z/2 by Z/2 with c(t,t) = 1."""
    g = cyclic_group(2)
    a = trivial_module(g, [2])
    c = Cochain(g, a, 2, {(1, 1): (1,)})
    return build_extension(a, c)


def test_z4_extension():
    ext = z4_extension()
    assert ext.order == 4
    total = ext.total_group()
    orders = sorted(total.element_order(i) for i in range(4))
    assert orders == [1, 2, 4, 4]


def test_trivial_cocycle_gives_direct_product():
    g = cyclic_group(2)
    a = trivial_module(g, [2])
    ext = build_extension(a, Cochain(g, a, 2))
    total = ext.total_group()
    assert sorted(total.element_order(i) for i in range(4)) == [1, 2, 2, 2]


def test_identity_is_index_zero():
    ext = z4_extension()
    for i in range(ext.order):
        assert ext.mul(0, i) == i
        assert ext.mul(i, 0) == i


def test_pi_iota_homomorphisms():
    ext = z4_extension()
    g = ext.base
    for i in range(ext.order):
        for j in range(ext.order):
            assert ext.pi(ext.mul(i, j)) == g.mul(ext.pi(i), ext.pi(j))
    for a1 in range(len(ext.kernel_elements)):
        for a2 in range(len(ext.kernel_elements)):
            lhs = ext.mul(ext.iota(a1), ext.iota(a2))
            assert lhs == ext.iota(ext.add_kernel(a1, a2))
    # image(iota) = kernel(pi)
    imgs = {ext.iota(a) for a in range(len(ext.kernel_elements))}
    assert imgs == {i for i in range(ext.order) if ext.pi(i) == 0}


def test_non_cocycle_rejected_with_witness():
    g = builtin_group("cyclic:2*cyclic:2")
    a = trivial_module(g, [2])
    bad = Cochain(g, a, 2, {(1, 2): (1,)})
    with pytest.raises(NotACocycle) as exc:
        build_extension(a, bad)
    tup = exc.value.witness
    assert tup is not None and len(tup) == 3
    # the witness triple really breaks associativity in the would-be law
    from groupcoh.extensions import GroupExtension
    raw = GroupExtension(a, bad)
    i, j, k = (raw.iota(0) + t for t in tup)  # lift to (0, g) elements
    assert raw.mul(raw.mul(i, j), k) != raw.mul(i, raw.mul(j, k))


def test_infinite_kernel_rejected():
    g = cyclic_group(2)
    a = trivial_module(g, [0])
    with pytest.raises(KernelNotFinite):
        build_extension(a, Cochain(g, a, 2))


def test_lift_cochain_values():
    ext = z4_extension()
    g = ext.base
    m = trivial_module(g, [2])
    w = Cochain(g, m, 2, {(1, 1): (1,)})
    lifted = lift_cochain(ext, w)
    for i in range(ext.order):
        for j in range(ext.order):
            if i and j:
                assert lifted.evaluate((i, j)) == w.evaluate((ext.pi(i), ext.pi(j)))


def test_lift_commutes_with_coboundary():
    rng = random.Random(13)
    ext = z4_extension()
    g = ext.base
    m = trivial_module(g, [4])
    for degree in (1, 2):
        vals = {
            tup: (rng.randrange(4),) for tup in nonid_tuples(g.order, degree)
        }
        f = Cochain(g, m, degree, vals)
        lhs = coboundary(lift_cochain(ext, f))
        rhs = lift_cochain(ext, coboundary(f))
        assert lhs == rhs


def test_module_through_projection():
    ext = z4_extension()
    m = trivial_module(ext.base, [6])
    mg = module_through_projection(ext, m)
    assert mg.factors == m.factors
    for i in range(ext.order):
        assert mg.act(i, (5,)) == m.act(ext.pi(i), (5,))


def test_kernel_view_and_restrict():
    ext = z4_extension()
    agrp = kernel_view(ext)
    assert agrp.order == 2
    m = trivial_module(ext.base, [2])
    w = Cochain(ext.base, m, 2, {(1, 1): (1,)})
    lifted = lift_cochain(ext, w)
    restricted = restrict_cochain(ext, lifted)
    # iota followed by pi is trivial and omega is normalized, so this is 0
    assert restricted.is_zero()


def test_coboundary_equivalent_cocycles_same_order_multiset():
    # cocycles differing by a coboundary give isomorphic totals; compare
    # the element-order multisets as a weak invariant
    g = builtin_group("cyclic:2*cyclic:2")
    a = trivial_module(g, [2])
    rng = random.Random(21)
    # a bilinear form on (Z/2)^2 is always a 2-cocycle
    c_vals = {
        (i, j): (((i // 2) * (j // 2)) % 2,)
        for i in range(1, 4)
        for j in range(1, 4)
    }
    c = Cochain(g, a, 2, c_vals)
    from groupcoh import first_cocycle_defect
    assert first_cocycle_defect(c) is None
    u = Cochain(g, a, 1, {(t,): (rng.randrange(2),) for t in range(1, 4)})
    from groupcoh import add_cochains
    c2 = add_cochains(c, coboundary(u))
    e1 = build_extension(a, c)
    e2 = build_extension(a, c2)
    orders1 = sorted(e1.total_group().element_order(i) for i in range(e1.order))
    orders2 = sorted(e2.total_group().element_order(i) for i in range(e2.order))
    assert orders1 == orders2


def test_extension_json_roundtrip():
    ext = z4_extension()
    data = extension_to_json(ext)
    ext2 = extension_from_json(data)
    assert ext2.order == ext.order
    for i in range(4):
        for j in range(4):
            assert ext2.mul(i, j) == ext.mul(i, j)


# -- closed-form inverses ---------------------------------------------------


def _sign_z4_extension():
    """S3 acting on Z/4 by the sign, c = delta u for a random u."""
    g = builtin_group("symmetric:3")
    signs = [1 if g.element_order(i) != 2 else -1 for i in range(g.order)]
    a = GModule(g, [4], [[[s]] for s in signs])
    rng = random.Random(5)
    u = Cochain(g, a, 1, {(t,): (rng.randrange(4),) for t in range(1, g.order)})
    return build_extension(a, coboundary(u))


def _dihedral_extension():
    """D4 on Z/2, c(g, h) = x(g) x(h) + delta u for a nonzero x: D4 -> Z/2."""
    g = builtin_group("dihedral:4")
    a = trivial_module(g, [2])
    homs = []
    for bits in itertools.product(range(2), repeat=g.order - 1):
        x = (0,) + bits
        if all(x[g.mul(i, j)] == (x[i] + x[j]) % 2
               for i in range(g.order) for j in range(g.order)):
            homs.append(x)
    x = homs[1]
    rng = random.Random(8)
    u = Cochain(g, a, 1, {(t,): (rng.randrange(2),) for t in range(1, g.order)})
    c = Cochain(g, a, 2, {(i, j): (x[i] * x[j],) for i in range(1, g.order)
                          for j in range(1, g.order)})
    from groupcoh import add_cochains
    return build_extension(a, add_cochains(c, coboundary(u)))


def _universal_c3_extension():
    from groupcoh import universal_kernel
    return build_extension(*universal_kernel(cyclic_group(3), 3))


@pytest.mark.parametrize(
    "build", [_sign_z4_extension, _dihedral_extension, _universal_c3_extension]
)
def test_closed_form_inverse_matches_search(build):
    ext = build()
    assert any(ext.cocycle.values.values())
    for i in range(ext.order):
        found = [j for j in range(ext.order)
                 if ext.mul(i, j) == 0 and ext.mul(j, i) == 0]
        assert found == [ext.inv(i)]


def _kernel_plus_base(ext):
    """The generating set extensions once used: iota(e_j) for every
    nonzero kernel basis vector plus the base's generators, recursively
    down a tower."""
    base = ext.base
    below = (_kernel_plus_base(base) if isinstance(base, GroupExtension)
             else greedy_generators(base))
    kernel = ext.kernel
    basis = (element_index(kernel, kernel.reduce(kernel.basis_vector(j)))
             for j in range(kernel.dim))
    return [ext.iota(a) for a in basis if a] + list(below)


def test_extension_generators_are_the_greedy_set():
    # Z/4 = Z/2 by C2 with c(t, t) = 1 is cyclic: the lift (0, t) alone
    ext = z4_extension()
    assert greedy_generators(ext) == [1] and generated(ext, [1]) == set(range(4))
    assert _kernel_plus_base(ext) == [2, 1]
    # a tower: Z/9 by C3 is cyclic again, and the split Z/2 on top of it
    # is reached only by the greedy going on into the kernel coset
    g = cyclic_group(3)
    a = GModule(g, [3], [[[1]]] * 3)
    ext1 = build_extension(a, Cochain(g, a, 2, {(1, 2): (1,), (2, 1): (1,), (2, 2): (1,)}))
    b = trivial_module(ext1, [2])
    ext2 = build_extension(b, Cochain(ext1, b, 2))
    assert greedy_generators(ext1) == [1]
    gens = greedy_generators(ext2)
    assert gens == [1, ext2.iota(1)] and ext2.order == 18
    assert generated(ext2, gens) == set(range(ext2.order))
    assert len(_kernel_plus_base(ext2)) == 3
    # a factor of 1 leaves one kernel coordinate; c = 0 splits, so the
    # greedy takes (0, g) and then iota of the kernel generator
    c = GModule(g, [1, 3], [[[1, 0], [0, 1]]] * 3)
    split = build_extension(c, Cochain(g, c, 2))
    assert greedy_generators(split) == [1, split.iota(1)] == [1, 3]
    # one greedy for every group: the same set as the total group's table
    for e in (ext, ext1, ext2, split):
        assert greedy_generators(e) == greedy_generators(e.total_group())


# -- kernel addition from the two half tables --------------------------------


def _kernel_extension(factors, value, twisted=False):
    """A = Z/d_1 + ... over C2, acting trivially (or by -1), and the
    extension by c(t, t) = value: a normalized 2-cocycle whenever t fixes
    value, as -2 value = 0 in the twisted case."""
    g = cyclic_group(2)
    ident = [[int(i == j) for j in range(len(factors))] for i in range(len(factors))]
    t = [[-x for x in row] for row in ident] if twisted else ident
    a = GModule(g, factors, [ident, t])
    return build_extension(a, Cochain(g, a, 2, {(1, 1): value} if any(value) else {}))


def _tuple_mul(ext, i, j):
    """(a, g)(b, h) = (a + g.b + c(g, h), gh) by tuple arithmetic."""
    k, ng = ext.kernel, ext.base.order
    (a, g), (b, h) = divmod(i, ng), divmod(j, ng)
    x = k.add(k.add(ext.kernel_elements[a], k.act(g, ext.kernel_elements[b])),
              ext.cocycle.evaluate((g, h)))
    return element_index(k, x) * ng + ext.base.mul(g, h)


KERNEL_CASES = {
    "2x3x4": ((2, 3, 4), (1, 2, 3), False),
    "1x2": ((1, 2), (0, 1), False),
    "zero": ((), (), False),
    "6x6x6": ((6, 6, 6), (1, 5, 2), False),
    "twisted-4": ((4,), (2,), True),
}


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernel_addition_and_group_law_match_tuple_arithmetic(name):
    factors, value, twisted = KERNEL_CASES[name]
    ext = _kernel_extension(factors, value, twisted)
    k, elems = ext.kernel, ext.kernel_elements
    na = len(elems)
    sums = [[element_index(k, k.add(x, y)) for y in elems] for x in elems]
    assert [[ext.add_kernel(i, j) for j in range(na)] for i in range(na)] == sums
    assert [ext.add_row(i) for i in range(na)] == sums
    rows = sorted(random.Random(7).sample(range(ext.order), min(ext.order, 24)))
    for i in rows:
        expected = [_tuple_mul(ext, i, j) for j in range(ext.order)]
        assert ext.mul_row(i) == expected
        assert [ext.mul(i, j) for j in range(ext.order)] == expected
    for i in range(ext.order):
        assert _tuple_mul(ext, i, ext.inv(i)) == 0 == _tuple_mul(ext, ext.inv(i), i)


@pytest.mark.parametrize("factors, folds", [
    ((2, 3, 4), (15, 7)),  # (2, 3) | (4,): 3 * 5 and 7 entries
    ((2,) * 9, (81, 243)),  # (Z/2)^4 | (Z/2)^5
    ((5000,), (1, 9999)),  # one factor: no 5000^2 table
])
def test_kernel_addition_tables_stay_linear_in_the_kernel(factors, folds):
    ext = _kernel_extension(factors, (0,) * len(factors))
    assert (len(ext._fold_hi), len(ext._fold_lo)) == folds
    k, last = ext.kernel, ext.kernel_elements[-1]
    assert ext.add_kernel(len(ext.kernel_elements) - 1, 2) == element_index(
        k, k.add(last, ext.kernel_elements[2]))


def test_extension_of_512_elements_builds_below_the_square_of_its_kernel(monkeypatch):
    """(Z/2)^9 over (Z/2)^2: nothing is gated on |A|^2 = 262144 any more."""
    from groupcoh import universal_kernel
    monkeypatch.setenv("COCYCLE_MAX_TUPLES", "2048")
    kernel, c = universal_kernel(builtin_group("cyclic:2*cyclic:2"), 2)
    ext = build_extension(kernel, c)
    assert len(ext.kernel_elements) == 512 and ext.order == 2048
    rng = random.Random(3)
    for i in rng.sample(range(ext.order), 4):
        assert ext.mul_row(i) == [_tuple_mul(ext, i, j) for j in range(ext.order)]
    for _ in range(500):
        i, j = rng.randrange(ext.order), rng.randrange(ext.order)
        assert ext.mul(i, j) == _tuple_mul(ext, i, j)
        assert _tuple_mul(ext, i, ext.inv(i)) == 0


def test_restrict_cochain_resource_limit_names_the_count():
    # (Z/2)^2 by C2, split: a 2-cochain of the kernel reads (4 - 1)^2 tuples
    g = cyclic_group(2)
    a = trivial_module(g, [2, 2])
    ext = build_extension(a, Cochain(g, a, 2))
    alpha = Cochain(ext, module_through_projection(ext, trivial_module(g, [2])), 2)
    assert restrict_cochain(ext, alpha, max_entries=9).is_zero()
    with pytest.raises(ResourceLimit, match=r"^restricted cochain needs 9 entries \(limit 8\)$"):
        restrict_cochain(ext, alpha, max_entries=8)
