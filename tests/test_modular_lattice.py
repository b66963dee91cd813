"""Lattices modulo N: the quotient W / R read in the coordinates of one
local Smith form, which serves cohomology and the invariants of finite
modules, and H^0 by the character formula.

The oracles are independent of that path: the Hermite route (a
triangular basis of W, back substitution of every relation;
tests/hermite.py), whose kernel lattice index is counted from the
solutions modulo N, cohomology and invariants are
compared with the integer route (kernel_basis of the moduli-augmented
matrix, solve_integer, cokernel_structure; the runtime never calls them)
where that route finishes, and with dimensions from ranks over F_p where
its Smith normal form runs away.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from groupcoh import (GModule, builtin_group, coboundary, cochain_from_function, cohomology,
                      cyclic_group, invariants, module_to_json, solve_coboundary,
                      torsion_submodule, trivial_module)
from groupcoh import intlinalg as la
from groupcoh.cochains import coboundary_matrix, nonid_tuples
from groupcoh.errors import ResourceLimit, SelfCheckFailed
from groupcoh.groups import greedy_generators

from hermite import hermite_route, kernel_with_moduli, triangular_coordinates
from test_intlinalg import augment_moduli


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
        check_triangular_basis(a, moduli, cols, kernel_with_moduli(a, moduli, cols=cols))


def test_kernel_basis_is_not_just_generators():
    # 5x = 0 mod 5 holds on all of Z; x + y = 0 mod 4 has the basis (4, 0),
    # (3, 1); with no rows the lattice is Z^2
    assert kernel_with_moduli([[5]], [5], cols=1) == [[1]]
    assert kernel_with_moduli([[1, 1]], [4], cols=2) == [[4, 0], [3, 1]]
    assert kernel_with_moduli([], [], cols=2) == [[1, 0], [0, 1]]


def test_local_smith_form_is_a_divisibility_chain():
    rng = random.Random(42)
    for _ in range(200):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        moduli = [rng.choice([6, 12, 30, 36]) for _ in range(rows)]
        pivots, tails, vt, vi, big = la._diagonalize_modulo(a, moduli, cols)
        gcds = [math.gcd(p, big) for p in pivots]
        assert all(y % x == 0 for x, y in zip(gcds, gcds[1:]))
        assert 0 not in pivots and len(pivots) <= min(rows, cols)
        assert len(tails) == rows and not any(tails) and len(vt) == cols and vi is None


# -- the systems whose integer Smith normal form runs away -----------------


def test_runaway_6x4_system_modulo_12():
    # the augmented integer SNF did not finish this system in 40 s
    a = [[-4, -4, -1, 4], [-3, -2, 4, 0], [1, -2, 3, 2], [-2, -1, 4, 3], [1, 1, -4, -2],
         [4, -3, -4, -1]]
    start = time.perf_counter()
    basis = kernel_with_moduli(a, [12] * 6, cols=4)
    assert time.perf_counter() - start < 1.0
    check_triangular_basis(a, [12] * 6, 4, basis)


def test_runaway_5x5_basis_modulo_9_and_6():
    # the kernel came fast, but the integer SNF of its basis (entries up to
    # 275 bits) did not finish in 10 s; W / 18 Z^5 now takes no SNF
    a = [[-4, -3, 3, -2, 3], [-4, 0, 3, 3, 1], [-1, -4, -3, 2, 0], [3, -2, -4, -2, -3],
         [-4, -1, -1, 0, -2]]
    moduli = [9, 6, 9, 9, 9]
    start = time.perf_counter()
    basis = kernel_with_moduli(a, moduli, cols=5)
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
    aug, aug_cols = augment_moduli(a, moduli, k)
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
        lattice = kernel_with_moduli(a, moduli, cols=cols)
        gens = []
        for _ in range(rng.randrange(0, 3)):
            coeffs = [rng.randrange(-2, 3) for _ in lattice]
            gens.append([sum(c * w[i] for c, w in zip(coeffs, lattice)) for i in range(cols)])
        factors, incl = la.kernel_quotient(a, moduli, gens, rel)
        assert factors == integer_route(a, moduli, gens, rel)
        assert all(congruent_zero(a, col, moduli) for col in zip(*incl))
    # a relation outside W
    assert la.kernel_quotient([[1, 0]], [4], [], [2, 4]) is None


def check_against_the_hermite_route(a, moduli, gens, rel):
    """kernel_quotient and the Hermite route agree on None and on the
    factors; every inclusion column lies in W + N Z^k, and in the Hermite
    route's coordinates the columns, each killed by its factor, generate
    the whole quotient."""
    got = la.kernel_quotient(a, moduli, gens, rel)
    route = hermite_route(a, moduli, gens, rel)
    assert (got is None) == (route is None)
    if got is None:
        return None
    factors, incl = got
    basis, want, proj, _ = route
    assert factors == want
    assert len(incl) == len(rel) and all(len(row) == len(factors) for row in incl)
    coords = triangular_coordinates(basis, [list(col) for col in zip(*incl)])
    assert coords is not None
    images = [tuple(sum(p * x for p, x in zip(row, c)) % f for row, f in zip(proj, want))
              for c in coords]
    assert all(all(f * y % g == 0 for y, g in zip(img, want)) for img, f in zip(images, factors))
    if math.prod(factors) <= 256:
        span = {tuple(0 for _ in want)}
        for img in images:
            span |= {tuple((x + t * y) % g for x, y, g in zip(s, img, want))
                     for s in span for t in range(1, max(want))}
        assert len(span) == math.prod(factors)
    return factors


def test_kernel_quotient_matches_the_hermite_route():
    # seeded systems: mixed row moduli, N a multiple of the row moduli'
    # lcm M or not (and M a multiple of N or not), relations inside W or
    # random (outside W + N Z^k, then both routes return None), and no rows
    rng = random.Random(44)
    seen = {"outside": 0, "N no multiple of M": 0, "M no multiple of N": 0, "no rows": 0}
    for case in range(400):
        rows, cols = rng.randrange(0, 5), rng.randrange(1, 5)
        if case % 10 == 0:
            rows = 0
        a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        moduli = [rng.choice(MODULI) for _ in range(rows)]
        if case % 3 == 0:
            rel = [math.lcm(1, *moduli) * rng.choice([1, 2, 3]) for _ in range(cols)]
        else:
            rel = [rng.choice(MODULI) for _ in range(cols)]
        lattice = kernel_with_moduli(a, moduli, cols=cols)
        gens = []
        for _ in range(rng.randrange(0, 4)):
            coeffs = [rng.randrange(-2, 3) for _ in lattice]
            gens.append([sum(c * w[i] for c, w in zip(coeffs, lattice)) for i in range(cols)])
        if case % 4 == 1:
            gens.append([rng.randrange(-6, 7) for _ in range(cols)])
        big, lcm = math.lcm(*rel), math.lcm(1, *moduli)
        if check_against_the_hermite_route(a, moduli, gens, rel) is None:
            seen["outside"] += 1
        seen["N no multiple of M"] += big % lcm != 0
        seen["M no multiple of N"] += lcm % big != 0
        seen["no rows"] += not a
    assert min(seen.values()) >= 20, seen


def test_kernel_quotient_of_no_coordinates():
    assert la.kernel_quotient([], [], [], []) == ([], [])
    assert la.kernel_quotient([[], []], [2, 3], [], []) == ([], [])
    # no rows: W = Z^2, and W / (2Z + 3Z) is Z/6, sent to a generator
    factors, incl = la.kernel_quotient([], [], [], [2, 3])
    assert factors == [6] and incl[0][0] % 2 and incl[1][0] % 3


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


def rotation_module():
    """Z^2 with the generator of C4 acting by the rotation i."""
    return GModule(cyclic_group(4), [0, 0], [[[1, 0], [0, 1]], [[0, -1], [1, 0]],
                                             [[-1, 0], [0, -1]], [[0, 1], [-1, 0]]])


def conjugated(module, p, p_inv):
    """The module with every rho(g) replaced by P rho(g) P^-1."""
    assert la.mat_mul(p, p_inv) == la.identity_matrix(len(p))
    return GModule(module.group, module.factors,
                   [la.mat_mul(la.mat_mul(p, mat), p_inv) for mat in module.action])


def test_lattice_cohomology_is_invariant_under_a_change_of_basis():
    c4, c3 = cyclic_group(4), cyclic_group(3)
    rotation = rotation_module()
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


# -- H^0 by the character formula -----------------------------------------


def h0_modules():
    """Every module of the degree-0 tests, and Z, Z^2, Z_sgn and Z[G] for
    each group of LATTICE_GROUPS: all small enough for the integer route."""
    for gspec, coeffs, n, _ in COHOM_TABLE:
        if n == 0:
            yield table_module(builtin_group(gspec), coeffs)
    yield trivial_module(cyclic_group(2), [6])
    yield from (build() for build, _, _ in TWISTED)
    yield from (mixed_module(label) for label in MIXED)
    yield rotation_module()
    for gspec in LATTICE_GROUPS:
        yield from lattice_modules(builtin_group(gspec)).values()


def test_h0_matches_the_integer_route():
    modules = list(h0_modules())
    assert len(modules) == 45
    for module in modules:
        want = integer_route_cohomology(module.group, module, 0)
        assert cohomology(module.group, module, 0) == want, module.factors


def c2_conjugated_swap(k):
    """C2 swapping the coordinates of Z^k in pairs, conjugated by P: the
    identity after 5 k seeded row operations.  Its entries reach 414,727
    at k = 8, where the integer Smith normal form of its H^0 runs away."""
    rng = random.Random(1)
    p, p_inv = la.identity_matrix(k), la.identity_matrix(k)
    for _ in range(5 * k):
        i, j = rng.sample(range(k), 2)
        q = rng.randint(-3, 3)
        p[i] = [x + q * y for x, y in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= q * row[i]
    swap = [[int(j == i ^ 1) for j in range(k)] for i in range(k)]
    return conjugated(GModule(cyclic_group(2), [0] * k, [la.identity_matrix(k), swap]), p, p_inv)


def c4_glued_regular():
    """Z[C4] + Z/4, mixed by a unimodular matrix and glued: g^i acts by the
    i-th power of G below, its last row reduced modulo 4.  H^0 = Z + Z/4;
    the integer Smith normal form of its H^0 runs away."""
    g = [[8, -7, 0, 4, 0], [19, 4, 4, 8, 0], [-87, -16, -18, -37, 0], [17, 21, 7, 6, 0],
         [2, 2, 2, 2, 1]]
    action = [la.identity_matrix(5)]
    for _ in range(3):
        power = la.mat_mul(action[-1], g)
        power[4] = [x % 4 for x in power[4]]
        action.append(power)
    return GModule(cyclic_group(4), [0, 0, 0, 0, 4], action)


UNBOUNDED = [(lambda: c2_conjugated_swap(4), [0, 0]), (lambda: c2_conjugated_swap(6), [0] * 3),
             (lambda: c2_conjugated_swap(8), [0] * 4), (c4_glued_regular, [4, 0])]


@pytest.mark.parametrize("build, want", UNBOUNDED, ids=["C2-Z4", "C2-Z6", "C2-Z8", "C4-Z4+Z/4"])
def test_h0_of_modules_the_integer_route_cannot_finish(tmp_path, build, want):
    module = build()
    start = time.perf_counter()
    assert cohomology(module.group, module, 0) == want
    assert time.perf_counter() - start < 2.0
    path = tmp_path / "m.json"
    path.write_text(json.dumps(module_to_json(module)))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "groupcoh", "cohomology", "--group",
                           f"cyclic:{module.group.order}", "--module", str(path), "--degree", "0",
                           "--max-entries", "1000", "--json"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"degree": 0, "factors": want}


# -- no integer Smith normal form in the runtime ---------------------------


@pytest.mark.parametrize("gspec, coeffs, n, snf_calls", [
    ("cyclic:4", 4, 4, 0), ("dihedral:4", 2, 2, 0), ("cyclic:3", 3, 0, 0),
    ("cyclic:4", 0, 2, 0), pytest.param("cyclic:4", [0, 2], 2, 0, id="cyclic:4-0+2-2-0"),
    ("cyclic:4", 0, 0, 0), pytest.param("cyclic:4", [0, 2], 0, 0, id="cyclic:4-0+2-0-0"),
])
def test_snf_calls(monkeypatch, gspec, coeffs, n, snf_calls):
    # a lattice in degree >= 1 takes one local Smith form, a mixed
    # free-plus-torsion module is read over Z/N like a torsion one, and
    # H^0 takes the character formula for its free part
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


def test_no_integer_smith_form_in_the_runtime(monkeypatch):
    # cohomology in degrees 0-3 and solve_coboundary in degrees 1-3 call
    # none of the integer reference routines
    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"the runtime called intlinalg.{name}")
        return refused

    for name in ("_snf_full", "solve_integer", "kernel_basis", "cokernel_structure"):
        monkeypatch.setattr(la, name, refuse(name))
    rng = random.Random(17)
    modules = [mixed_module(label) for label in MIXED]
    modules += [rotation_module(), s3_sign_on_z6(), c2_conjugated_swap(8), c4_glued_regular()]
    for module in modules:
        group, k = module.group, module.dim
        for n in range(4):
            cohomology(group, module, n)
        for n in (1, 2, 3):
            f = coboundary(cochain_from_function(
                group, module, n - 1, lambda t: [rng.randrange(-3, 4) for _ in range(k)]))
            x = solve_coboundary(f)
            assert x is not None and coboundary(x) == f


@pytest.mark.parametrize("drop", [0, 5, -1])
def test_basis_missing_a_generator_fails_the_self_check(monkeypatch, drop):
    # no basis of W is built: W + N Z^k is generated by the h_j V e_j, and
    # each relation is read through V^-1.  An entry of V^-1 lost in the
    # elimination of delta_2 changes the coordinates of some coboundary,
    # which the check V y = r catches; a pivot read as a unit drops the
    # generator h_0 V e_0, and the relation 2 e_0 of Z/2 + Z/4 falls
    # outside W + 4 Z^2
    diagonalize = la._diagonalize_modulo
    calls = []

    def lossy(*args, **kwargs):
        pivots, tails, vt, vi, big = diagonalize(*args, **kwargs)
        if not calls:
            entries = sorted((t, j) for t, row in enumerate(vi) for j in row)
            t, j = entries[drop % len(entries)]
            del vi[t][j]
        calls.append(1)
        return pivots, tails, vt, vi, big

    def unit(*args, **kwargs):
        pivots, *rest = diagonalize(*args, **kwargs)
        if not calls:
            pivots[0] = 1
        calls.append(1)
        return pivots, *rest

    group = cyclic_group(4)
    monkeypatch.setattr(la, "_diagonalize_modulo", lossy)
    with pytest.raises(SelfCheckFailed, match=r"V \(V\^-1 r\) is not r modulo N"):
        cohomology(group, table_module(group, 4), 2)
    calls.clear()
    monkeypatch.setattr(la, "_diagonalize_modulo", unit)
    module = GModule(cyclic_group(2), [2, 4], [[[1, 0], [0, 1]], [[1, 0], [2, 3]]])
    with pytest.raises(ValueError, match="fixed lattice"):
        invariants(module)
    monkeypatch.setattr(la, "_diagonalize_modulo", diagonalize)
    assert invariants(module)[0].factors == (4,)


@pytest.mark.parametrize("value", [0, 2])
def test_coarse_pivot_fails_the_self_check(monkeypatch, value):
    # delta_4 of C4 on Z/4 has 60 unit pivots modulo 4; one read as 0 or
    # 2 claims (4 / g_j) V e_j for a generator of W, and a @ x = 0 fails
    diagonalize = la._diagonalize_modulo
    calls = []

    def coarse(*args, **kwargs):
        pivots, *rest = diagonalize(*args, **kwargs)
        if not calls:
            assert len(pivots) == 60
            pivots[t] = value
        calls.append(1)
        return pivots, *rest

    monkeypatch.setattr(la, "_diagonalize_modulo", coarse)
    group = cyclic_group(4)
    for t in range(0, 60, 7):
        calls.clear()
        with pytest.raises(SelfCheckFailed, match=r"generator \(m / g_j\) V e_j of W fails"):
            cohomology(group, table_module(group, 4), 4)


@pytest.mark.parametrize("gspec, coeffs, n", [
    ("cyclic:4", [4], 4), ("dihedral:4", [2], 2), ("cyclic:3", [3], 2), ("cyclic:6", [6], 3),
    ("cyclic:2", [2, 4], 3)])
def test_torsion_cohomology_takes_two_local_smith_forms(monkeypatch, gspec, coeffs, n):
    # delta_n with V^-1 tracked, then the cokernel of the relations'
    # coordinates; the Hermite basis and back substitution are gone
    calls = []
    diagonalize = la._diagonalize_modulo

    def counted(*args, **kwargs):
        calls.append(kwargs.get("inverse", False))
        return diagonalize(*args, **kwargs)

    monkeypatch.setattr(la, "_diagonalize_modulo", counted)
    group = builtin_group(gspec)
    cohomology(group, trivial_module(group, coeffs), n)
    assert calls == [True, True]
    assert not any(hasattr(la, name) for name in
                   ("kernel_with_moduli", "_hnf_modulo", "_triangular_coordinates"))


def test_h4_of_c6_in_z_plus_z3():
    # H^4(C6; Z) = Z/6 and H^4(C6; Z/3) = Z/3 (Brown, Cohomology of Groups,
    # III.1): delta_4 has 1250 columns, and the Hermite route took 11 s here
    group = cyclic_group(6)
    assert cohomology(group, trivial_module(group, [0, 3]), 4) == [3, 6]
