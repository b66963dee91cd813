"""Lattices modulo N: the triangular kernel basis, back substitution and
the local Smith form that serve cohomology and the invariants of finite
modules.

The oracles are independent of that path: the index of a kernel lattice
is counted from the solutions modulo N, cohomology and invariants are
compared with the integer route (kernel_basis of the moduli-augmented
matrix, solve_integer, cokernel_structure) where that route finishes,
and with dimensions from ranks over F_p where its Smith normal form runs
away.
"""

import itertools
import math
import random
import time

import pytest

from groupcoh import (GModule, builtin_group, coboundary, cochain_from_function, cohomology,
                      cyclic_group, invariants, solve_coboundary, torsion_submodule,
                      trivial_module)
from groupcoh import intlinalg as la
from groupcoh.cochains import coboundary_matrix, nonid_tuples
from groupcoh.errors import ResourceLimit, SelfCheckFailed
from groupcoh.groups import greedy_generators


def congruent_zero(a, x, moduli):
    return all(sum(r * y for r, y in zip(row, x)) % md == 0 for row, md in zip(a, moduli))


def prime_powers(n):
    out, p = [], 2
    while n > 1:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    return out


def lattice_index(a, moduli, n):
    """[Z^n : L] for L = {x : a @ x = 0 modulo the row moduli}, all nonzero,
    by counting: L contains N*Z^n, so the index is N^n over the number of
    solutions modulo N, which splits over the prime powers q of N."""
    index = 1
    for q in prime_powers(math.lcm(1, *moduli)):
        local = [math.gcd(md, q) for md in moduli]
        sols = sum(1 for x in itertools.product(range(q), repeat=n)
                   if congruent_zero(a, x, local))
        index *= q ** n // sols
    return index


def check_triangular_basis(a, moduli, n, basis):
    """basis is the Hermite normal form of L: upper triangular with pivots
    dividing N, reduced above each pivot, inside L, and of L's index."""
    big = math.lcm(1, *moduli)
    assert len(basis) == n
    for j, w in enumerate(basis):
        assert len(w) == n and w[j] > 0 and big % w[j] == 0
        assert all(x == 0 for x in w[j + 1:])
        assert all(0 <= x < basis[i][i] for i, x in enumerate(w[:j]))
        assert congruent_zero(a, w, moduli)
    assert math.prod(w[j] for j, w in enumerate(basis)) == lattice_index(a, moduli, n)


MODULI = [2, 3, 4, 5, 6, 8, 9, 12]


def test_kernel_with_moduli_is_the_hermite_basis_of_the_lattice():
    rng = random.Random(41)
    for _ in range(150):
        rows, cols = rng.randrange(0, 5), rng.randrange(1, 4)
        a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        moduli = [rng.choice(MODULI) for _ in range(rows)]
        check_triangular_basis(a, moduli, cols, la.kernel_with_moduli(a, moduli, cols=cols))


def test_kernel_basis_is_not_just_generators():
    # 5x = 0 mod 5 holds on all of Z; x + y = 0 mod 4 has the basis (4, 0),
    # (3, 1); with no rows the lattice is Z^2
    assert la.kernel_with_moduli([[5]], [5], cols=1) == [[1]]
    assert la.kernel_with_moduli([[1, 1]], [4], cols=2) == [[4, 0], [3, 1]]
    assert la.kernel_with_moduli([], [], cols=2) == [[1, 0], [0, 1]]


def test_local_smith_form_is_a_divisibility_chain():
    rng = random.Random(42)
    for _ in range(200):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        moduli = [rng.choice([6, 12, 30, 36]) for _ in range(rows)]
        d, vt, big = la._diagonalize_modulo(a, moduli, cols)
        gcds = [math.gcd(d[i][i], big) for i in range(min(rows, cols))]
        assert all(y % x == 0 for x, y in zip(gcds, gcds[1:]))
        assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)


# -- the systems whose integer Smith normal form runs away -----------------


def test_runaway_6x4_system_modulo_12():
    # the augmented integer SNF did not finish this system in 40 s
    a = [[-4, -4, -1, 4], [-3, -2, 4, 0], [1, -2, 3, 2], [-2, -1, 4, 3], [1, 1, -4, -2],
         [4, -3, -4, -1]]
    start = time.perf_counter()
    basis = la.kernel_with_moduli(a, [12] * 6, cols=4)
    assert time.perf_counter() - start < 1.0
    check_triangular_basis(a, [12] * 6, 4, basis)


def test_runaway_5x5_basis_modulo_9_and_6():
    # the kernel came fast, but the integer SNF of its basis (entries up to
    # 275 bits) did not finish in 10 s; W / 18 Z^5 now takes no SNF
    a = [[-4, -3, 3, -2, 3], [-4, 0, 3, 3, 1], [-1, -4, -3, 2, 0], [3, -2, -4, -2, -3],
         [-4, -1, -1, 0, -2]]
    moduli = [9, 6, 9, 9, 9]
    start = time.perf_counter()
    basis = la.kernel_with_moduli(a, moduli, cols=5)
    factors, incl = la.kernel_quotient(a, moduli, [], [18] * 5)
    assert time.perf_counter() - start < 1.0
    check_triangular_basis(a, moduli, 5, basis)
    assert all(18 % f == 0 for f in factors)
    assert math.prod(factors) == 18 ** 5 // math.prod(w[j] for j, w in enumerate(basis))
    assert all(congruent_zero(a, col, moduli) for col in zip(*incl))


# -- the integer route, kept as an oracle ----------------------------------


def integer_route(a, moduli, gens, rel_moduli):
    """Invariant factors of W / R as cohomology and invariants computed them
    before the modular path: kernel_basis of the moduli-augmented matrix,
    solve_integer against the basis, cokernel_structure of the coordinates."""
    k = len(rel_moduli)
    aug, aug_cols = la._augment_moduli(a, moduli, k)
    basis = [vec[:k] for vec in la.kernel_basis(aug, cols=aug_cols)]
    gens = list(gens) + [[d if r == i else 0 for r in range(k)]
                         for i, d in enumerate(rel_moduli) if d]
    coords = la.solve_integer([[col[i] for col in basis] for i in range(k)], gens,
                              cols=len(basis))
    assert None not in coords
    return la.cokernel_structure(coords, len(basis))[0]


def integer_route_cohomology(group, module, n):
    k = module.dim
    if n == 0:
        rows = [[mat[i][j] - (i == j) for j in range(k)]
                for mat in module.action[1:] for i in range(k)]
        return integer_route(rows, list(module.factors) * (group.order - 1), [],
                             module.factors)
    cur = list(nonid_tuples(group.order, n))
    dmat, _, tgt = coboundary_matrix(group, module, n)
    prev, prev_dom, _ = coboundary_matrix(group, module, n - 1)
    images = [col for col in ([prev[i][j] for i in range(len(cur) * k)]
                              for j in range(len(prev_dom) * k)) if any(col)]
    return integer_route(dmat, [d for _ in tgt for d in module.factors], images,
                         [d for _ in cur for d in module.factors])


def test_kernel_quotient_matches_the_integer_route():
    rng = random.Random(43)
    for _ in range(150):
        rows, cols = rng.randrange(0, 4), rng.randrange(1, 4)
        a = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        moduli = [rng.choice(MODULI) for _ in range(rows)]
        rel = [math.lcm(1, *moduli) * rng.choice([1, 2, 3]) for _ in range(cols)]
        lattice = la.kernel_with_moduli(a, moduli, cols=cols)
        gens = []
        for _ in range(rng.randrange(0, 3)):
            coeffs = [rng.randrange(-2, 3) for _ in lattice]
            gens.append([sum(c * w[i] for c, w in zip(coeffs, lattice)) for i in range(cols)])
        factors, incl = la.kernel_quotient(a, moduli, gens, rel)
        assert factors == integer_route(a, moduli, gens, rel)
        assert all(congruent_zero(a, col, moduli) for col in zip(*incl))
    # a relation outside W
    assert la.kernel_quotient([[1, 0]], [4], [], [2, 4]) is None


# -- cohomology and invariants ---------------------------------------------

# the benchmark's cohomology table: (group, factor of a trivial module or
# "sign" for Z with C2 acting by -1, degree, invariant factors)
COHOM_TABLE = [
    ("cyclic:4", 4, 4, [4]), ("dihedral:4", 2, 2, [2, 2, 2]), ("symmetric:3", 0, 3, []),
    ("cyclic:3", 3, 0, [3]), ("cyclic:3", 3, 1, [3]), ("cyclic:3", 3, 2, [3]),
    ("cyclic:3", 3, 3, [3]), ("cyclic:4", 4, 2, [4]), ("cyclic:4", 4, 3, [4]),
    ("cyclic:5", 5, 2, [5]), ("cyclic:6", 6, 1, [6]), ("cyclic:6", 6, 2, [6]),
    ("cyclic:2", 2, 5, [2]), ("cyclic:4", 0, 0, [0]), ("cyclic:4", 0, 1, []),
    ("cyclic:4", 0, 2, [4]), ("cyclic:3", 0, 3, []), ("cyclic:2", 0, 4, [2]),
    ("cyclic:6", 0, 2, [6]), ("cyclic:2", "sign", 0, []), ("cyclic:2", "sign", 3, [2]),
    ("cyclic:2", "sign", 4, []), ("cyclic:2*cyclic:2", 2, 0, [2]),
    ("cyclic:2*cyclic:2", 2, 1, [2, 2]), ("cyclic:2*cyclic:2", 2, 2, [2, 2, 2]),
    ("cyclic:2*cyclic:2", 2, 3, [2, 2, 2, 2]), ("cyclic:2*cyclic:2", 0, 2, [2, 2]),
    ("cyclic:2*cyclic:2", 0, 3, [2]), ("symmetric:3", 0, 2, [2]), ("dihedral:4", 2, 1, [2, 2]),
]


def table_module(group, coeffs):
    if coeffs == "sign":
        return GModule(group, [0], [[[1]], [[-1]]])
    return GModule(group, [coeffs], [[[1]]] * group.order)


def test_cohomology_table_matches_the_integer_route():
    for gspec, coeffs, n, want in COHOM_TABLE:
        group = builtin_group(gspec)
        module = table_module(group, coeffs)
        assert cohomology(group, module, n) == want
        assert integer_route_cohomology(group, module, n) == want


def c2_minus_one_on_z4():
    return GModule(cyclic_group(2), [4], [[[1]], [[3]]])


def c3_on_f2_squared():
    return GModule(cyclic_group(3), [2, 2], [[[1, 0], [0, 1]], [[0, 1], [1, 1]],
                                             [[1, 1], [1, 0]]])


def c4_doubling_on_z5():
    return GModule(cyclic_group(4), [5], [[[pow(2, g, 5)]] for g in range(4)])


def s3_sign_on_z6():
    s3 = builtin_group("symmetric:3")
    odd = [g for g in range(6) if g and s3.mul(g, g) == 0]
    return GModule(s3, [6], [[[5 if g in odd else 1]] for g in range(6)])


# H^n(C2; Z/4 by -1) = Z/2 in every degree; C3 and C4 act on modules of
# order prime to theirs, with no fixed points; Z/6 by sign is Z/2 + Z/3_sgn,
# and H^n(S3; Z/3_sgn) is Z/3 exactly for n = 1, 2 mod 4
TWISTED = [
    (c2_minus_one_on_z4, [[2]] * 5, 5),
    (c3_on_f2_squared, [[]] * 5, 5),
    (c4_doubling_on_z5, [[]] * 5, 4),
    (s3_sign_on_z6, [[2], [6], [6], [2]], 2),
]


def fp_rank(mat, p):
    rows = [[x % p for x in row] for row in mat]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        prow = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                q = rows[i][c]
                rows[i] = [(x - q * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def fp_cohomology(group, module, n):
    """H^n(G; M) for M = (Z/N)^k with N squarefree: the sum over p | N of
    F_p-spaces of dimension dim C^n - rank delta_n - rank delta_{n-1}, as
    invariant factors."""
    dims = {}
    for p in prime_powers(module.factors[0]):
        mp = GModule(group, [p] * module.dim, [[[x % p for x in row] for row in mat]
                                               for mat in module.action])
        dim = (group.order - 1) ** n * module.dim
        dim -= fp_rank(coboundary_matrix(group, mp, n)[0], p)
        if n:
            dim -= fp_rank(coboundary_matrix(group, mp, n - 1)[0], p)
        dims[p] = dim
    top = max(dims.values(), default=0)
    return [math.prod(p for p, d in dims.items() if d > top - 1 - i) for i in range(top)]


@pytest.mark.parametrize("build, answers, through", TWISTED,
                         ids=[case[0].__name__ for case in TWISTED])
def test_twisted_cohomology_matches_the_oracles(build, answers, through):
    module = build()
    for n, want in enumerate(answers):
        got = cohomology(module.group, module, n)
        assert got == want
        if n < through:
            assert integer_route_cohomology(module.group, module, n) == want
        if module.factors[0] != 4:
            assert fp_cohomology(module.group, module, n) == want


@pytest.mark.parametrize("build", [c2_minus_one_on_z4, c3_on_f2_squared, c4_doubling_on_z5,
                                   s3_sign_on_z6])
def test_invariants_are_the_fixed_points(build):
    module = build()
    inv, incl = invariants(module)
    assert list(inv.factors) == integer_route_cohomology(module.group, module, 0)
    fixed = [x for x in module.elements()
             if all(module.act(g, x) == x for g in range(module.group.order))]
    images = {incl.apply(x) for x in inv.elements()}
    assert sorted(images) == sorted(fixed)
    assert len(images) == math.prod(inv.factors)


# -- cohomology with lattice coefficients ----------------------------------

LATTICE_GROUPS = ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5", "cyclic:6",
                  "cyclic:2*cyclic:2", "symmetric:3", "dihedral:4"]


def sign_module(group):
    """Z on which G acts through its first nontrivial homomorphism to
    {1, -1} (signs chosen on the generators), or None when G has none."""
    gens = greedy_generators(group)
    for mask in range(1, 2 ** len(gens)):
        sign = {0: 1}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for i, s in enumerate(gens):
                y = group.mul(s, x)
                if y not in sign:
                    sign[y] = -sign[x] if mask >> i & 1 else sign[x]
                    frontier.append(y)
        if all(sign[group.mul(a, b)] == sign[a] * sign[b]
               for a in range(group.order) for b in range(group.order)):
            return GModule(group, [0], [[[sign[g]]] for g in range(group.order)])
    return None


def permutation_module(group, cosets):
    """Z[G/H] for the left cosets listed as sets of element indices."""
    where = {x: c for c, coset in enumerate(cosets) for x in coset}
    reps = [min(coset) for coset in cosets]
    k = len(cosets)
    return GModule(group, [0] * k, [[[int(r == where[group.mul(g, reps[c])]) for c in range(k)]
                                     for r in range(k)] for g in range(group.order)])


def regular_module(group):
    return permutation_module(group, [{g} for g in range(group.order)])


def lattice_modules(group):
    mods = {"Z": trivial_module(group, [0]), "Z^2": trivial_module(group, [0, 0]),
            "Z_sgn": sign_module(group), "Z[G]": regular_module(group)}
    return {name: m for name, m in mods.items() if m is not None}


def lattice_cases(max_entries):
    """(group, module name, module, n) for n = 1..3 wherever delta_n, which
    the integer route factors, has at most max_entries entries."""
    for gspec in LATTICE_GROUPS:
        group = builtin_group(gspec)
        for name, module in lattice_modules(group).items():
            for n in (1, 2, 3):
                if module.dim ** 2 * (group.order - 1) ** (2 * n + 1) <= max_entries:
                    yield gspec, name, module, n


def test_lattice_cohomology_matches_the_integer_route():
    # beyond 25,000 entries the integer Smith normal forms take 0.05 s to
    # more than 1 s a case; 69 of the 90 cases fit
    cases = list(lattice_cases(25_000))
    assert len(cases) == 69
    for gspec, name, module, n in cases:
        got = cohomology(module.group, module, n)
        assert got == integer_route_cohomology(module.group, module, n), (gspec, name, n)
        assert all(module.group.order % f == 0 for f in got)


@pytest.mark.parametrize("gspec, degrees", [
    ("cyclic:2", 3), ("cyclic:3", 3), ("cyclic:4", 3), ("cyclic:5", 3), ("cyclic:6", 2),
    ("cyclic:2*cyclic:2", 3), ("symmetric:3", 3), ("dihedral:4", 2),
])
def test_shapiro_regular_module_is_acyclic(gspec, degrees):
    # H^n(G; Z[G]) = H^n(1; Z) = 0 for n >= 1 (Brown III.6)
    group = builtin_group(gspec)
    module = regular_module(group)
    assert [cohomology(group, module, n) for n in range(1, degrees + 1)] == [[]] * degrees


def test_shapiro_s3_on_cosets_of_c3():
    # H^n(S3; Z[S3/C3]) = H^n(C3; Z): Z/3 in even degrees, 0 in odd ones
    # (degree 4 adds 0.6 s)
    s3 = builtin_group("symmetric:3")
    c3 = {g for g in range(6) if s3.mul(g, s3.mul(g, g)) == 0}
    module = permutation_module(s3, [c3, set(range(6)) - c3])
    c3_group = cyclic_group(3)
    for n in range(1, 4):
        got = cohomology(s3, module, n)
        assert got == cohomology(c3_group, trivial_module(c3_group, [0]), n)
        assert got == ([3] if n % 2 == 0 else [])


def conjugated(module, p, p_inv):
    """The module with every rho(g) replaced by P rho(g) P^-1."""
    assert la.mat_mul(p, p_inv) == la.identity_matrix(len(p))
    return GModule(module.group, module.factors,
                   [la.mat_mul(la.mat_mul(p, mat), p_inv) for mat in module.action])


def test_lattice_cohomology_is_invariant_under_a_change_of_basis():
    c4, c3 = cyclic_group(4), cyclic_group(3)
    rotation = GModule(c4, [0, 0], [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]],
                                    [[0, 1], [-1, 0]]])
    s3 = builtin_group("symmetric:3")
    cases = [
        (rotation, [[2, 1], [1, 1]], [[1, -1], [-1, 2]]),
        (regular_module(c3), [[1, 2, -1], [0, 1, 3], [0, 0, 1]],
         [[1, -2, 7], [0, 1, -3], [0, 0, 1]]),
        (trivial_module(s3, [0, 0]), [[3, 2], [1, 1]], [[1, -2], [-1, 3]]),
        (GModule(s3, [0, 0], [[[m[0][0], 0], [0, 1]] for m in sign_module(s3).action]),
         [[1, 1], [0, 1]], [[1, -1], [0, 1]]),
    ]
    for module, p, p_inv in cases:
        other = conjugated(module, p, p_inv)
        for n in (1, 2, 3):
            assert cohomology(module.group, other, n) == cohomology(module.group, module, n)
    # C4 acting on Z[i] by i fixes nothing and has norm 1 + i + i^2 + i^3 = 0:
    # H^odd = Z[i] / (i - 1) = Z/2 and H^even = 0
    assert [cohomology(c4, rotation, n) for n in (1, 2, 3)] == [[2], [], [2]]


@pytest.mark.parametrize("gspec, n, want", [
    ("symmetric:3", 4, [6]), ("cyclic:2*cyclic:2", 4, [2, 2, 2]), ("cyclic:5", 4, [5]),
    ("dihedral:4", 3, [2]),
])
def test_lattice_cohomology_literature_values(gspec, n, want):
    # H^4(D4; Z) = (Z/2)^2 + Z/4 takes 3 s and is left out
    group = builtin_group(gspec)
    assert cohomology(group, trivial_module(group, [0]), n) == want


def test_lattice_cohomology_gates_on_delta_n_minus_1_only():
    # delta_1 of C4 is 9 x 3 = 27 entries; delta_2 (243) is never built
    c4 = cyclic_group(4)
    assert cohomology(c4, trivial_module(c4, [0]), 2, max_entries=27) == [4]
    with pytest.raises(ResourceLimit,
                       match=r"^coboundary matrix needs 27 entries \(limit 20\)$"):
        cohomology(c4, trivial_module(c4, [0]), 2, max_entries=20)


# -- mixed modules: the order identity of M/M_T -> M -> M/NM --------------


def mixed_module(label):
    c2, c4, s3 = cyclic_group(2), cyclic_group(4), builtin_group("symmetric:3")
    return {
        "S3 on Z": trivial_module(s3, [0]),
        "S3 on Z_sgn": sign_module(s3),
        "S3 on Z + Z/3": trivial_module(s3, [0, 3]),
        "C2 gluing Z onto Z/2": GModule(c2, [2, 0], [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]),
        "C4 on Z/2 + Z_sgn": GModule(c4, [2, 0], [[[1, 0], [0, m[0][0]]]
                                                  for m in sign_module(c4).action]),
    }[label]


MIXED = ("S3 on Z", "S3 on Z_sgn", "S3 on Z + Z/3", "C2 gluing Z onto Z/2", "C4 on Z/2 + Z_sgn")


@pytest.mark.parametrize("label, n", [(label, n) for label in MIXED for n in (1, 2, 3)])
def test_order_identity_on_mixed_modules(label, n):
    # with e the exponent of M_T, N = |G| e and s the basis-aligned section
    # of M -> M/M_T, N s is an injective G-map onto NM, as e kills M_T.  So
    # 0 -> M/M_T -> M -> M/NM -> 0 is exact, and as |G| kills H^n and
    # H^{n+1} of M/M_T for n >= 1, 0 -> H^n(M) -> H^n(M/NM) ->
    # H^{n+1}(M/M_T) -> 0 is exact too
    module = mixed_module(label)
    group = module.group
    big = group.order * math.lcm(*filter(None, module.factors))
    reduced = GModule(group, [d or big for d in module.factors], module.action)
    free = torsion_submodule(module)[2].target
    orders = [cohomology(group, reduced, n), cohomology(group, module, n),
              cohomology(group, free, n + 1)]
    assert 0 not in sum(orders, [])
    assert math.prod(orders[0]) == math.prod(orders[1]) * math.prod(orders[2])


@pytest.mark.parametrize("label", MIXED)
def test_mixed_cohomology_matches_the_integer_route(label):
    module = mixed_module(label)
    for n in (1, 2):
        got = cohomology(module.group, module, n)
        assert got == integer_route_cohomology(module.group, module, n), n


# -- no Smith normal form on finite coefficients ---------------------------


@pytest.mark.parametrize("gspec, coeffs, n, snf_calls", [
    ("cyclic:4", 4, 4, 0), ("dihedral:4", 2, 2, 0), ("cyclic:3", 3, 0, 0),
    ("cyclic:4", 0, 2, 0), pytest.param("cyclic:4", [0, 2], 2, 0, id="cyclic:4-0+2-2-0"),
])
def test_snf_calls(monkeypatch, gspec, coeffs, n, snf_calls):
    # a lattice in degree >= 1 takes one local Smith form, and a mixed
    # free-plus-torsion module is read over Z/N like a torsion one
    calls = []
    snf = la._snf_full

    def counted(*args, **kwargs):
        calls.append(1)
        return snf(*args, **kwargs)

    monkeypatch.setattr(la, "_snf_full", counted)
    group = builtin_group(gspec)
    factors = coeffs if isinstance(coeffs, list) else [coeffs]
    cohomology(group, trivial_module(group, factors), n)
    assert len(calls) == snf_calls


def test_integer_smith_forms_stay_module_sized(monkeypatch):
    # cohomology in degrees 0-3 and solve_coboundary in degrees 1-3 factor
    # no matrix of more than dim M |G| rows: only the invariants of a
    # module with a free factor reach the integer Smith normal form
    snf = la._snf_full
    limit = [0]

    def module_sized(a, *args, **kwargs):
        assert len(a) <= limit[0], f"a Smith normal form of {len(a)} rows"
        return snf(a, *args, **kwargs)

    monkeypatch.setattr(la, "_snf_full", module_sized)
    rotation = GModule(cyclic_group(4), [0, 0], [[[1, 0], [0, 1]], [[0, -1], [1, 0]],
                                                 [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]])
    rng = random.Random(17)
    for module in [mixed_module(label) for label in MIXED] + [rotation, s3_sign_on_z6()]:
        group, k = module.group, module.dim
        limit[0] = k * group.order
        for n in range(4):
            cohomology(group, module, n)
        for n in (1, 2, 3):
            f = coboundary(cochain_from_function(
                group, module, n - 1, lambda t: [rng.randrange(-3, 4) for _ in range(k)]))
            x = solve_coboundary(f)
            assert x is not None and coboundary(x) == f


@pytest.mark.parametrize("drop", [0, 5, -1])
def test_basis_missing_a_generator_fails_the_self_check(monkeypatch, drop):
    kernel = la.kernel_with_moduli

    def short(*args, **kwargs):
        basis = kernel(*args, **kwargs)
        del basis[drop % len(basis)]
        return basis

    monkeypatch.setattr(la, "kernel_with_moduli", short)
    group = cyclic_group(4)
    with pytest.raises(SelfCheckFailed, match="outside the cocycle lattice"):
        cohomology(group, table_module(group, 4), 2)
    with pytest.raises(ValueError, match="fixed lattice"):
        invariants(c2_minus_one_on_z4())
