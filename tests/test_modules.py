import itertools
import math
import random

import pytest

from groupcoh import (
    Cochain,
    GModule,
    HomModule,
    cohomology,
    cyclic_group,
    dihedral_group,
    direct_product,
    hom_module,
    invariants,
    make_module,
    module_from_json,
    module_to_json,
    symmetric_group,
    tensor_module,
    torsion_submodule,
    trivial_module,
    trivialize_torsion,
    universal_kernel,
    verify_certificate,
)
from groupcoh import intlinalg
from groupcoh.cochains import pick_coordinates, place_coordinates
from groupcoh.modules import _validate_module, element_index
from groupcoh.errors import (
    ActionBreaksRelations,
    ActionNotHomomorphic,
    BadIdentityAction,
    SourceNotTorsion,
)


def sign_module(group=None):
    """Z with the generator of Z/2 acting by -1."""
    g = group or cyclic_group(2)
    return GModule(g, [0], [[[1]], [[-1]]])


def test_trivial_module_valid():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    assert m.act(1, (1,)) == (1,)
    assert m.add((1,), (1,)) == (0,)


def test_sign_module_valid():
    m = sign_module()
    assert m.act(1, (5,)) == (-5,)
    assert m.act(1, m.act(1, (5,))) == (5,)


def test_action_not_homomorphic():
    # Z/4 with t acting by multiplication by 2: rho(t)^2 = 4 = 0 != identity
    g = cyclic_group(2)
    with pytest.raises(ActionNotHomomorphic):
        make_module(g, [4], [[[1]], [[2]]])


@pytest.mark.parametrize("factors, mat, column", [
    ([4, 2], [[1, 1], [0, 1]], 1),  # 2 e_1 goes to (2, 2), and 2 != 0 mod 4
    ([0, 2], [[1, 1], [0, 1]], 1),  # 2 e_1 goes to (2, 2) in Z + Z/2
    ([2, 4, 3], [[1, 2, 0], [0, 1, 2], [0, 0, 1]], 2),  # 3 e_2 goes to (0, 6, 3)
    ([2, 3], [[1, 1], [1, 1]], 0),  # both columns break, the first is named
])
def test_action_breaks_relations_names_the_first_column(factors, mat, column):
    """A column j whose d_j multiple leaves the relation lattice, found on
    the nonzero entries only: the witness is (g, j) for the first such
    pair in index order, as a sweep over every entry finds it."""
    g = cyclic_group(2)
    ident = [[int(i == j) for j in range(len(factors))] for i in range(len(factors))]
    first = next(j for j, dj in enumerate(factors) if dj and any(
        (dj * row[j]) % di if di else dj * row[j] for row, di in zip(mat, factors)))
    assert first == column
    with pytest.raises(ActionBreaksRelations) as info:
        GModule(g, factors, [ident, mat])
    assert info.value.witness == ("g", column)


def test_bad_identity_action():
    g = cyclic_group(2)
    with pytest.raises(BadIdentityAction):
        make_module(g, [3], [[[2]], [[1]]])


def test_action_associativity_exhaustive():
    # act(g, act(h, m)) = act(gh, m) over all of S3 x Z/4^2
    g = symmetric_group(3)
    # S3 permutation action on Z/4 + Z/4 through the sign is too small;
    # use the 2-dim standard-ish action of the transposition and 3-cycle
    m = trivial_module(g, [4, 4])
    for a in range(g.order):
        for b in range(g.order):
            for vec in itertools.product(range(4), repeat=2):
                assert m.act(a, m.act(b, vec)) == m.act(g.mul(a, b), vec)


def test_scale_kills_exponent():
    g = cyclic_group(2)
    m = trivial_module(g, [4])
    assert m.scale(4, (3,)) == (0,)


def test_element_order():
    g = cyclic_group(2)
    m = trivial_module(g, [4, 0])
    assert m.element_order((2, 0)) == 2
    assert m.element_order((1, 0)) == 4
    assert m.element_order((0, 1)) == 0
    assert m.element_order((0, 0)) == 1


def test_invariants_trivial():
    g = cyclic_group(3)
    m = trivial_module(g, [6])
    inv, incl = invariants(m)
    assert list(inv.factors) == [6]


def test_invariants_sign():
    # a free factor is refused; H^0 reads M^G of any module
    m = sign_module()
    with pytest.raises(SourceNotTorsion, match=r"cohomology\(G, M, 0\)"):
        invariants(m)
    assert cohomology(m.group, m, 0) == []


def test_invariants_z2_any_action():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    inv, _ = invariants(m)
    assert list(inv.factors) == [2]


def test_invariants_map_is_fixed():
    g = cyclic_group(2)
    # Z/2 + Z/2 with the swap action; invariants = diagonal Z/2
    m = GModule(g, [2, 2], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    inv, incl = invariants(m)
    assert list(inv.factors) == [2]
    x = incl.apply((1,))
    assert m.act(1, x) == x and x != m.zero()


def test_torsion_submodule_split():
    g = cyclic_group(2)
    m = trivial_module(g, [4, 0])
    mt, free_part, tor, free = torsion_submodule(m)
    assert list(mt.factors) == [4]
    assert list(free_part.factors) == [0]
    # p o j = 0 and p o s = identity: the coordinates j places at are not
    # those p picks, and s places at the ones p picks
    assert (tor, free) == ([0], [1])
    j = Cochain(g, m, 1, {(1,): (1, 0)})
    s = place_coordinates(Cochain(g, free_part, 1, {(1,): (5,)}), free, m)
    assert pick_coordinates(j, free, free_part).is_zero()
    assert pick_coordinates(s, free, free_part).values == {(1,): (5,)}


def test_torsion_submodule_pure_cases():
    g = cyclic_group(2)
    mt, free_part, _, _ = torsion_submodule(trivial_module(g, [2, 3]))
    assert list(mt.factors) == [2, 3] and free_part.dim == 0
    mt, free_part, _, _ = torsion_submodule(sign_module(g))
    assert mt.dim == 0 and free_part.dim == 1


def count_homs(a_factors, m_factors):
    """Independent oracle: enumerate all maps on generators and keep the
    well-defined ones."""
    count = 0
    for imgs in itertools.product(
        itertools.product(*(range(d) for d in m_factors)), repeat=len(a_factors)
    ):
        ok = True
        for aj, img in zip(a_factors, imgs):
            if any((aj * x) % d for x, d in zip(img, m_factors)):
                ok = False
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("a_factors,m_factors", [
    ([2], [2]),
    ([2], [3]),
    ([2, 2], [4]),
    ([4], [6]),
    ([2, 4], [2, 8]),
])
def test_hom_module_size(a_factors, m_factors):
    g = cyclic_group(2)
    a = trivial_module(g, a_factors)
    m = trivial_module(g, m_factors)
    hom = hom_module(a, m)
    assert hom.size() == count_homs(a_factors, m_factors)


def test_hom_specific_structures():
    g = cyclic_group(2)
    assert hom_module(trivial_module(g, [2]), trivial_module(g, [2])).size() == 2
    assert hom_module(trivial_module(g, [2]), trivial_module(g, [3])).size() == 1
    h = hom_module(trivial_module(g, [2, 2]), trivial_module(g, [4]))
    assert sorted(h.factors) == [2, 2]


def test_hom_requires_torsion_source():
    g = cyclic_group(2)
    with pytest.raises(SourceNotTorsion):
        hom_module(trivial_module(g, [0]), trivial_module(g, [2]))


def test_hom_evaluation_and_roundtrip():
    g = cyclic_group(2)
    a = trivial_module(g, [2, 4])
    m = trivial_module(g, [8])
    hom = hom_module(a, m)
    imgs = [(4,), (2,)]
    f = hom.from_images(imgs)
    assert hom.images(f) == imgs
    assert hom.evaluate(f, (1, 1)) == (6,)
    assert hom.evaluate(f, (0, 2)) == (4,)


def test_hom_equivariance():
    # (g.f)(g.a) = g.(f(a)) with a nontrivial action on both sides
    g = cyclic_group(2)
    a = GModule(g, [4], [[[1]], [[-1]]])  # Z/4 with negation
    m = GModule(g, [8], [[[1]], [[-1]]])
    hom = hom_module(a, m)
    for f in hom.elements():
        for vec in a.elements():
            lhs = hom.evaluate(hom.act(1, f), a.act(1, vec))
            rhs = m.act(1, hom.evaluate(f, vec))
            assert lhs == rhs


def _cyclic_module(group, factors, gen):
    """The module over the cyclic group whose generator acts by gen."""
    k = len(factors)
    powers = [[[int(i == j) for j in range(k)] for i in range(k)]]
    for _ in range(1, group.order):
        prev = powers[-1]
        powers.append([[sum(gen[i][t] * prev[t][j] for t in range(k)) for j in range(k)]
                       for i in range(k)])
    return GModule(group, factors, powers)


def _hom_pairs():
    """(A, M) pairs: twisted source and target, a mixed torsion and free
    target, a non-diagonal action, a factor-1 source coordinate, and C4
    acting by 2 on Z/5."""
    c2, c3, c4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    order3 = [[0, 1, 0], [1, 1, 0], [0, 0, 1]]  # order 3 on (Z/2)^2, fixing Z/4
    return [
        (_cyclic_module(c2, [4, 2], [[-1, 0], [0, 1]]),
         _cyclic_module(c2, [8, 6], [[-1, 0], [0, -1]])),
        (trivial_module(c2, [6, 3]),
         _cyclic_module(c2, [2, 0, 9], [[1, 0, 0], [0, -1, 0], [0, 0, -1]])),
        (_cyclic_module(c3, [2, 2], [[0, 1], [1, 1]]), _cyclic_module(c3, [2, 2, 4], order3)),
        (trivial_module(c4, [1, 4]), _cyclic_module(c4, [6], [[-1]])),
        (trivial_module(c4, [5, 10]), _cyclic_module(c4, [5], [[2]])),
    ]


def _brute_homs(a, m):
    """Every tuple of images (m_j) with a_j m_j = 0 in M, free coordinates
    searched in [-2, 2]."""
    ranges = [range(d) if d else range(-2, 3) for d in m.factors]
    imgs = [
        [v for v in itertools.product(*ranges) if m.is_zero(m.scale(aj, v))]
        for aj in a.factors
    ]
    return [list(t) for t in itertools.product(*imgs)]


@pytest.mark.parametrize("case", range(5))
def test_hom_matches_brute_force(case):
    a, m = _hom_pairs()[case]
    hom = hom_module(a, m)
    homs = _brute_homs(a, m)
    assert hom.size() == len(homs)
    group = a.group
    for imgs in homs:
        f = hom.from_images(imgs)
        assert hom.images(f) == imgs
        for g in range(group.order):
            # (g.f)(e_j) = g.f(g^{-1}.e_j), computed from the images
            ginv = group.inv(g)
            direct = []
            for j in range(a.dim):
                pre = a.act(ginv, a.basis_vector(j))
                val = m.zero()
                for x, img in zip(pre, imgs):
                    val = m.add(val, m.scale(x, img))
                direct.append(m.act(g, val))
            assert hom.images(hom.act(g, f)) == direct


def test_hom_from_images_rejects_non_homomorphisms():
    g = cyclic_group(2)
    hom = hom_module(trivial_module(g, [2]), trivial_module(g, [4]))
    assert hom.images(hom.from_images([(2,)])) == [(2,)]
    with pytest.raises(ValueError):
        hom.from_images([(1,)])
    a, m = _hom_pairs()[1]
    with pytest.raises(ValueError):
        hom_module(a, m).from_images([(0, 1, 0), (0, 0, 0)])  # a free image
    a, m = _hom_pairs()[3]
    with pytest.raises(ValueError):
        hom_module(a, m).from_images([(3,), (0,)])  # Z/1 must map to 0


def _hom_by_ambient_matrix(hom):
    """(factors, action) of Hom(A, M) by the route the closed form
    replaced, kept here as its oracle: the ks x ks matrix of
    (g.f)(e_j) = rho_M(g) sum_i rho_A(g^{-1})[i][j] f(e_i) on stacked
    images, applied to step * e_(j, i) for each coordinate, and each
    column read back through `from_images`.  The factors come from the
    gcds, independently of the coordinates hom keeps."""
    a, m = hom.source, hom.target
    coords = [(j, i, d // math.gcd(aj, d)) for j, aj in enumerate(a.factors)
              for i, d in enumerate(m.factors) if d and math.gcd(aj, d) > 1]
    group, s, k = a.group, a.dim, m.dim
    action = []
    for g in range(group.order):
        rho_a, rho_m = a.action[group.inv(g)], m.action[g]
        amat = [[rho_a[i][j] * rho_m[r][t] for i in range(s) for t in range(k)]
                for j in range(s) for r in range(k)]
        cols = []
        for j0, i0, step0 in coords:
            flat = [step0 * row[j0 * k + i0] for row in amat]
            cols.append(hom.from_images([flat[j * k:(j + 1) * k] for j in range(s)]))
        action.append(tuple(zip(*cols)))
    return tuple(m.factors[i] // step for _, i, step in coords), tuple(action)


def _sign_character(group):
    """A homomorphism G -> {1, -1}, nontrivial when G has one."""
    n = group.order
    for signs in itertools.product((1, -1), repeat=n - 1):
        chi = (1,) + signs
        if -1 in chi and all(chi[group.mul(g, h)] == chi[g] * chi[h]
                             for g in range(n) for h in range(n)):
            return chi
    return (1,) * n


_DIFFERENTIAL_GROUPS = {
    "C2": lambda: cyclic_group(2), "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "V4": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "S3": lambda: symmetric_group(3), "D4": lambda: dihedral_group(4),
}


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_GROUPS))
def test_hom_closed_form_matches_ambient_matrix(name, n):
    group = _DIFFERENTIAL_GROUPS[name]()
    kernel = universal_kernel(group, n)[0]
    chi = _sign_character(group)
    signed = [GModule(group, [d], [[[x]] for x in chi]) for d in (0, 4, 6)]
    trivial = [trivial_module(group, f) for f in ([n], [0], [0, 2], [3, 4], [1, 6])]
    pairs = [(kernel, m) for m in trivial + signed]
    pairs += [(m, kernel) for m in trivial + signed if m.is_torsion]
    assert len(pairs) == 13
    # both are built unvalidated; the checks they skip must pass
    _validate_module(kernel)
    for a, m in pairs:
        hom = hom_module(a, m)
        assert (hom.factors, hom.action) == _hom_by_ambient_matrix(hom)
        _validate_module(hom)


def test_hom_module_builds_its_action_without_from_images(monkeypatch):
    calls = []
    from_images = HomModule.from_images

    def counted(self, images):
        calls.append(1)
        return from_images(self, images)

    monkeypatch.setattr(HomModule, "from_images", counted)
    group = symmetric_group(3)
    hom = hom_module(universal_kernel(group, 6)[0], trivial_module(group, [6]))
    assert hom.dim == 25
    for a, m in _hom_pairs():
        hom_module(a, m)
    assert calls == []


def test_hom_module_makes_no_smith_normal_form(monkeypatch):
    # Hom(A, M) is read off the factors; the certificate path solves nothing
    calls = []
    snf = intlinalg._snf_full

    def counted(*args, **kwargs):
        calls.append(1)
        return snf(*args, **kwargs)

    monkeypatch.setattr(intlinalg, "_snf_full", counted)
    for a, m in _hom_pairs():
        hom_module(a, m)
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    cert = trivialize_torsion(Cochain(g, m, 2, {(1, 1): (1,)}))
    assert verify_certificate(cert).ok()
    assert calls == []


def test_tensor_module():
    g = cyclic_group(2)
    t = tensor_module(trivial_module(g, [4]), trivial_module(g, [6]))
    assert list(t.factors) == [2]
    t2 = tensor_module(trivial_module(g, [2]), trivial_module(g, [3]))
    assert t2.dim == 0
    t3 = tensor_module(trivial_module(g, [2, 2]), trivial_module(g, [2]))
    assert list(t3.factors) == [2, 2]
    assert t3.pure((1, 0), (1,)) == (1, 0)
    assert t3.pure((1, 1), (1,)) == (1, 1)


def test_module_json_roundtrip():
    g = cyclic_group(2)
    m = GModule(g, [0, 4], [[[1, 0], [0, 1]], [[-1, 0], [0, 3]]])
    m2 = module_from_json(module_to_json(m))
    assert m2.factors == m.factors
    for i in range(2):
        assert m2.act(1, m.basis_vector(i)) == m.act(1, m.basis_vector(i))


# -- index tables ----------------------------------------------------------


def index_tables(m: GModule):
    """The oracle of GroupExtension's kernel tables: (neg, act) of a finite
    module on element indices (see element_index), neg[i] and act[g][i],
    each coordinate expanded digit by digit over every element, with no
    use of linearity."""
    factors = m.factors
    k = len(factors)

    def linear(mat):
        # digits[i][x] = (mat . x)_i mod d_i over all x, in index order
        digits = [[0] for _ in factors]
        for j in reversed(range(k)):
            span = range(factors[j])
            digits = [[(mat[i][j] * x + u) % di for x in span for u in col]
                      for i, (col, di) in enumerate(zip(digits, factors))]
        out = [0] * m.size()
        for col, d in zip(digits, factors):
            out = [o * d + u for o, u in zip(out, col)]
        return out

    neg = linear([[-1 if i == j else 0 for j in range(k)] for i in range(k)])
    return neg, [linear(m.action[g]) for g in range(m.group.order)]


def extension_tables(m: GModule):
    """(neg, act) of the extension of m's group by m with the zero cocycle:
    the tables GroupExtension builds by linearity, act as lists."""
    from groupcoh.extensions import GroupExtension
    ext = GroupExtension(m, Cochain(m.group, m, 2))
    return ext._neg, [list(a) for a in ext._act]


def _mixed_moduli_module():
    """Z/2 + Z/3 + Z/4 under S3: odd permutations negate every coordinate."""
    g = symmetric_group(3)
    mats = []
    for i in range(g.order):
        sign = 1 if g.element_order(i) != 2 else -1
        mats.append([[sign if r == c else 0 for c in range(3)] for r in range(3)])
    return GModule(g, [2, 3, 4], mats)


def _universal_kernel_c3():
    return universal_kernel(cyclic_group(3), 3)[0]


def _trivial_kernel():
    return GModule(cyclic_group(3), (), [[] for _ in range(3)])


def _seeded_module(seed):
    """A seeded module over S3 with mixed factors, a factor 1 among them:
    three equal factors permuted as S3 permutes its letters, then a few
    seeded factors, each coordinate or block twisted by the sign or not,
    and a multiple of d_i added to a seeded entry of row i of every
    non-identity matrix, which changes no map."""
    rng = random.Random(seed)
    g = symmetric_group(3)
    d = rng.choice([2, 3, 4, 6])
    rest = [1] + [rng.choice([1, 2, 3, 4, 5, 6]) for _ in range(rng.randrange(3))]
    rng.shuffle(rest)
    factors = [d, d, d] + rest
    twist = [rng.randrange(2) for _ in range(1 + len(rest))]
    k = len(factors)
    mats = []
    for x, label in enumerate(g.elements):
        sign = -1 if g.element_order(x) == 2 else 1
        mat = [[0] * k for _ in range(k)]
        for c, p in enumerate(label):
            mat[int(p)][c] = sign if twist[0] else 1
        for c in range(3, k):
            mat[c][c] = sign if twist[c - 2] else 1
        for i in range(k):
            if x:
                mat[i][rng.randrange(k)] += factors[i] * rng.randrange(-2, 3)
        mats.append(mat)
    return GModule(g, factors, mats)


def _universal_kernels():
    """The universal kernels of C2-C6, V4, S3 and D4 with N in {2, 3, 4, 6}
    that have at most 2^16 elements: C5 has 16 pair symbols and fits at N
    = 2 only, and C6, S3 and D4 have 25 or more, too many for every N."""
    groups = [("C2", cyclic_group(2)), ("C3", cyclic_group(3)), ("C4", cyclic_group(4)),
              ("C5", cyclic_group(5)), ("C6", cyclic_group(6)),
              ("V4", direct_product(cyclic_group(2), cyclic_group(2))),
              ("S3", symmetric_group(3)), ("D4", dihedral_group(4))]
    return [pytest.param(g, n, id=f"{name}-{n}") for name, g in groups for n in (2, 3, 4, 6)
            if n ** ((g.order - 1) ** 2) <= 2 ** 16]


@pytest.mark.parametrize("group, n", _universal_kernels())
def test_index_tables_of_universal_kernels_match_the_oracle(group, n):
    m = universal_kernel(group, n)[0]
    assert extension_tables(m) == index_tables(m)


@pytest.mark.parametrize("seed", range(8))
def test_index_tables_of_seeded_modules_match_the_oracle(seed):
    m = _seeded_module(seed)
    assert 1 in m.factors and len(set(m.factors)) > 1
    neg, act = extension_tables(m)
    assert (neg, act) == index_tables(m)
    elems = list(m.elements())
    assert neg == [element_index(m, m.neg(x)) for x in elems]
    assert act == [[element_index(m, m.act(g, x)) for x in elems] for g in range(m.group.order)]


def test_index_tables_catch_a_wrong_basis_image(monkeypatch):
    """A mutation: GroupExtension takes the image of the last basis vector
    for that of e_0, and neither table matches the oracle any more."""
    from groupcoh.extensions import GroupExtension
    m = _seeded_module(0)
    linear = GroupExtension._linear

    def mutated(self, images, canon):
        images = list(images)
        return linear(self, images[-1:] + images[1:], canon)

    monkeypatch.setattr(GroupExtension, "_linear", mutated)
    neg, act = extension_tables(m)
    oracle_neg, oracle_act = index_tables(m)
    assert neg != oracle_neg and act != oracle_act


@pytest.mark.parametrize("build", [_mixed_moduli_module, _universal_kernel_c3, _trivial_kernel])
def test_index_tables_match_module_arithmetic(build):
    m = build()
    elems = list(m.elements())
    assert [element_index(m, x) for x in elems] == list(range(len(elems)))
    neg, act = extension_tables(m)
    assert neg == [element_index(m, m.neg(x)) for x in elems]
    assert act == [
        [element_index(m, m.act(g, x)) for x in elems] for g in range(m.group.order)
    ]


def _sign_twisted_z4_z6():
    g = cyclic_group(2)
    return GModule(g, [4, 6], [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]])


def _zero_mod_d_entries():
    """The sign action on Z/4 + Z/6 written with entries that are 0 mod d
    but not 0, besides the 5 = -1 mod 6."""
    g = cyclic_group(2)
    return GModule(g, [4, 6], [[[5, 8], [12, 7]], [[-1, 4], [6, 5]]])


def _universal_kernel_v4():
    return universal_kernel(direct_product(cyclic_group(2), cyclic_group(2)), 2)[0]


@pytest.mark.parametrize("build", [_universal_kernel_v4, _sign_twisted_z4_z6, _zero_mod_d_entries])
def test_index_tables_match_brute_force_products(build):
    m = build()
    elems = list(m.elements())

    def index(mat, x):
        return element_index(m, [sum(a * v for a, v in zip(row, x)) % d
                                 for row, d in zip(mat, m.factors)])

    neg, act = extension_tables(m)
    assert neg == [index([[-1 if i == j else 0 for j in range(m.dim)] for i in range(m.dim)], x)
                   for x in elems]
    assert act == [[index(m.action[g], x) for x in elems] for g in range(m.group.order)]


def test_index_tables_reject_infinite_module():
    with pytest.raises(SourceNotTorsion):
        extension_tables(sign_module())
