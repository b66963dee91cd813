"""The sparse local Smith form over Z/N behind torsion and lattice
cohomology, invariants and the modular solves.

The oracles are independent of the elimination: the invariant factors
s_i of the row-scaled integer matrix from the gcds of its minors, or from
the integer Smith normal form (gcd(s_i, N) is the local factor), the row transform read back from
identity columns riding along as right-hand sides (U a V = D is checked
entry by entry), and determinants by Laplace expansion.
"""

import math
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from groupcoh import GModule, builtin_group, cohomology, invariants, trivial_module
from groupcoh import intlinalg as la
from groupcoh.cochains import coboundary_matrix
from groupcoh.errors import ResourceLimit

from hermite import hermite_kernel_quotient
from test_intlinalg import det, minor_gcd_factors
from test_modular_lattice import COHOM_TABLE, fp_rank, sign_module, table_module


def scaled(a, moduli):
    """The integer matrix that `_diagonalize_modulo` reduces: row i times
    N / moduli[i], entries taken in (-N/2, N/2] to keep the SNF small."""
    big = math.lcm(1, *moduli)
    out = []
    for row, md in zip(a, moduli):
        reduced = [big // md * x % big for x in row]
        out.append([x - big if 2 * x > big else x for x in reduced])
    return out


def local_factors(a, moduli, n, snf=False):
    """gcd(s_i, N) for the invariant factors s_i of the row-scaled matrix,
    with s_i = 0 past the rank, from the gcds of its k x k minors, or with
    snf from the integer Smith normal form (which runs away on small dense
    matrices with entries near N/2, but not on coboundary matrices)."""
    big = math.lcm(1, *moduli)
    rows, mat = min(len(a), n), scaled(a, moduli)
    if snf:
        _, _, d, _, _ = la._snf_full(mat, cols=n, track=())
        factors = [d[i][i] for i in range(rows)]
    else:
        factors = minor_gcd_factors(mat, len(a), n)
    return sorted(math.gcd(s, big) for s in factors + [0] * (rows - len(factors)))


def dense_local_smith(a, moduli, n, inverse=False):
    """`_diagonalize_modulo` laid out dense: (d, vt, big), d the reduced
    matrix (pivots on the diagonal, the tails past column n - 1) and vt[j]
    column j of V, and with inverse the rows of V^-1 after them."""
    pivots, tails, vt, vi, big = la._diagonalize_modulo(a, moduli, n, inverse)
    d = [[0] * (len(a[0]) if a else n) for _ in tails]
    for t, p in enumerate(pivots):
        d[t][t] = p
    for row, tail in zip(d, tails):
        for j, x in tail.items():
            row[j] = x
    out = d, [[col.get(i, 0) for i in range(n)] for col in vt], big
    return out + ([[row.get(i, 0) for i in range(n)] for row in vi],) if inverse else out


def check_local_smith(a, moduli, n):
    """Diagonalize a with right-hand sides riding along: they change
    neither D nor V, and identity columns read back U S (S the row
    scaling), so U S a V = D modulo N with V invertible modulo N and the
    factors those of the integer Smith normal form.  Tracking V^-1 changes
    none of them, and V V^-1 is the identity modulo N."""
    m = len(a)
    d, vt, big = dense_local_smith(a, moduli, n)
    # rows with right-hand sides of m - i entries: row weights count none
    heavy = [row + [int(j < m - i) for j in range(m)] for i, row in enumerate(a)]
    aug = [row + [int(i == j) for j in range(m)] for i, row in enumerate(a)]
    for extra in (heavy, aug):
        d_aug, vt_aug, big_aug = dense_local_smith(extra, moduli, n)
        assert (vt_aug, big_aug) == (vt, big)
        assert [row[:n] for row in d_aug] == d
    d_inv, vt_inv, big_inv, vi = dense_local_smith(a, moduli, n, inverse=True)
    assert (d_inv, vt_inv, big_inv) == (d, vt, big)
    vvi = la.mat_mul([list(row) for row in zip(*vt)], vi) if n else []
    assert [[x % big for x in row] for row in vvi] == [[int(i == j) % big for j in range(n)]
                                                      for i in range(n)]
    assert len(d) == m and all(len(row) == n for row in d) and len(vt) == n
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    gcds = [math.gcd(d[i][i], big) for i in range(min(m, n))]
    assert all(y % x == 0 for x, y in zip(gcds, gcds[1:]))
    assert sorted(gcds) == local_factors(a, moduli, n)
    us = [row[n:] for row in d_aug]
    v = [list(col) for col in zip(*vt)] if n else []
    usav = la.mat_mul(la.mat_mul(us, a), v) if m and n else []
    assert [[x % big for x in row] for row in usav] == (d if n else [])
    assert math.gcd(det(v), big) == 1
    return d, vt, us


MIXED = [6, 12, 30, 36, 4, 5]


def test_local_smith_form_matches_the_integer_smith_form():
    rng = random.Random(51)
    for case in range(320):
        rows, cols = rng.randrange(0, 6), rng.randrange(0, 6)
        if case % 8 == 0:
            rows, cols = (0, cols) if case % 16 == 0 else (rows, 0)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        if rows and case % 5 == 0:
            a[rng.randrange(rows)] = [0] * cols
        if cols and case % 7 == 0:
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        moduli = [rng.choice(MIXED) for _ in range(rows)]
        check_local_smith(a, moduli, cols)


def test_unit_pivot_takes_the_row_of_fewest_entries():
    # both rows hold a unit in column 0; row 1 has one entry, row 0 three
    d, vt, us = check_local_smith([[1, 1, 1], [1, 0, 0]], [2, 2], 3)
    assert us[0] == [0, 1]
    assert [d[i][i] for i in range(2)] == [1, 1]
    # right-hand sides do not count: three of them leave row 1 the lighter
    d_rhs, vt_rhs, _ = dense_local_smith([[1, 1, 1, 0, 0, 0], [1, 0, 0, 1, 1, 1]], [2, 2], 3)
    assert vt_rhs == vt and [row[:3] for row in d_rhs] == d


def test_column_without_a_unit_falls_back_to_the_least_gcd():
    # column 0 holds 2, 2 modulo 4: the scan takes the unit of row 1
    # (two entries) over those of row 0 (three entries), in column 1
    d, vt, us = check_local_smith([[2, 1, 1], [2, 1, 0]], [4, 4], 3)
    assert us[0] == [0, 1] and vt[0] == [0, 1, 0]
    # no unit at all: 2 at (1, 0) beats the 2 at (0, 1) by row weight
    d, vt, us = check_local_smith([[4, 2], [2, 0]], [8, 8], 2)
    assert us[0] == [0, 1] and vt[0] == [1, 0]
    assert [d[0][0], d[1][1]] == [2, 2]


def test_extended_gcd_row_pair():
    # 2 and 3 in one column modulo 6 meet in a unit only by a row pair
    d, _, _ = check_local_smith([[2], [3]], [6, 6], 1)
    assert d == [[1], [0]]


def test_extended_gcd_column_pair():
    # 2 and 3 in one row modulo 6 meet in a unit only by a column pair
    d, _, _ = check_local_smith([[2, 3]], [6], 2)
    assert d == [[1, 0]]


def test_settled_pivot_takes_in_a_bad_row():
    # pivot 2 settles alone, but does not divide the 3 of row 1: without
    # the bad-row step diag(2, 3) would not be a divisibility chain
    d, _, _ = check_local_smith([[2, 0], [0, 3]], [6, 6], 2)
    assert d == [[1, 0], [0, 0]]


def table_coboundaries():
    """(name, delta, moduli, columns) for delta_{n-1} and delta_n of every
    query of the cohomology table, with the moduli cohomology reduces them
    by: the module's factors, or |G|^2 on a lattice."""
    out = []
    for gspec, coeffs, n, _ in COHOM_TABLE:
        group = builtin_group(gspec)
        module = table_module(group, coeffs)
        for degree in {max(n - 1, 0), n}:
            mat, _, tgt = coboundary_matrix(group, module, degree)
            if any(module.factors):
                moduli = [d for _ in tgt for d in module.factors]
            else:
                moduli = [group.order ** 2] * len(mat)
            out.append((f"{gspec}-{coeffs}-{degree}", mat, moduli,
                        len(mat[0]) if mat else 0))
    return out


def test_coboundary_matrices_of_the_cohomology_table():
    for name, mat, moduli, cols in table_coboundaries():
        big = math.lcm(1, *moduli)
        d, vt, got = dense_local_smith(mat, moduli, cols)
        assert got == big, name
        gcds = [math.gcd(d[i][i], big) for i in range(min(len(mat), cols))]
        assert all(y % x == 0 for x, y in zip(gcds, gcds[1:])), name
        assert sorted(gcds) == local_factors(mat, moduli, cols, snf=True), name
        # V is invertible modulo every prime of N, and the rows of A V lie
        # in the row lattice of D modulo N, which has the invariants of A:
        # so the two lattices are equal
        primes = [p for p in range(2, big + 1) if big % p == 0 and all(p % q for q in range(2, p))]
        assert all(fp_rank(vt, p) == cols for p in primes), name
        av = la.mat_mul(scaled(mat, moduli), [list(col) for col in zip(*vt)])
        assert all(x % g == 0 for row in av for x, g in zip(row, gcds)), name
        assert all(x % big == 0 for row in av for x in row[len(gcds):]), name


# -- the cokernel read off V and V^-1 ---------------------------------------


def test_cokernel_lift_is_a_section_of_the_projection():
    # the factors are those of the gcds of minors, proj kills every
    # generator, and proj @ lift is the identity modulo N: so proj is onto
    # the sum of the Z/f, with kernel <gens> + N Z^ambient by counting
    rng = random.Random(52)
    for _ in range(150):
        ambient, big = rng.randrange(1, 6), rng.choice(MIXED)
        gens = [[rng.randrange(-6, 7) for _ in range(ambient)]
                for _ in range(rng.randrange(0, 5))]
        factors, proj, lift = la.cokernel_modulo(gens, ambient, big)
        want = local_factors(gens, [big] * len(gens), ambient) if gens else []
        want += [big] * (ambient - len(want))
        assert factors == [f for f in want if f != 1]
        for gen in gens:
            assert all(sum(p * x for p, x in zip(row, gen)) % f == 0
                       for row, f in zip(proj, factors))
        image = la.mat_mul(proj, lift) if factors else []
        assert [[x % big for x in row] for row in image] == [
            [int(r == i) for i in range(len(factors))] for r in range(len(factors))]


def seeded_module(rng):
    """A random G-module (Z/f)^k: regular, sign and trivial actions summed,
    then conjugated by a random unimodular P."""
    group = builtin_group(rng.choice(["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6",
                                      "cyclic:2*cyclic:2", "symmetric:3"]))
    f = rng.choice([2, 3, 4, 6, 8, 9, 12])
    order = group.order
    blocks = []
    sign = sign_module(group)
    for _ in range(rng.randrange(1, 3)):
        kind = rng.choice(["regular", "sign", "trivial"])
        if kind == "regular":
            blocks.append([[[int(group.mul(g, h) == r) for h in range(order)]
                            for r in range(order)] for g in range(order)])
        elif kind == "sign" and sign is not None:
            blocks.append(sign.action)
        else:
            blocks.append([[[1]]] * order)
    k = sum(len(b[0]) for b in blocks)
    action = []
    for g in range(order):
        mat, at = [[0] * k for _ in range(k)], 0
        for b in blocks:
            for i, row in enumerate(b[g]):
                mat[at + i][at:at + len(row)] = row
            at += len(b[g])
        action.append(mat)
    # P = product of elementary row operations row_i += q row_j, and
    # P^-1 the inverse column operations in the same order
    p, pinv = la.identity_matrix(k), la.identity_matrix(k)
    for _ in range(3 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        q = rng.randrange(-2, 3)
        p[i] = [x + q * y for x, y in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= q * row[i]
    action = [[[x % f for x in row] for row in la.mat_mul(la.mat_mul(p, mat), pinv)]
              for mat in action]
    return GModule(group, [f] * k, action)


def test_invariants_inclusion_columns_are_fixed_by_g(monkeypatch):
    # every inclusion column is fixed by G, and the inclusion has the
    # image of the Hermite route's: both are M^G
    rng = random.Random(53)
    modules = [seeded_module(rng) for _ in range(40)]
    got = [invariants(m) for m in modules]
    monkeypatch.setattr(la, "kernel_quotient", hermite_kernel_quotient)
    for m, (inv, incl) in zip(modules, got):
        ref_inv, ref_incl = invariants(m)
        assert inv.factors == ref_inv.factors
        for col in zip(*incl.matrix):
            col = m.reduce(col)
            assert all(m.act(g, col) == col for g in range(m.group.order))
        images = {incl.apply(x) for x in inv.elements()}
        assert len(images) == math.prod(inv.factors)
        assert images == {ref_incl.apply(x) for x in ref_inv.elements()}


# -- reach: queries the dense elimination took seconds over ----------------


@pytest.mark.parametrize("gspec, coeffs, n, want", [
    ("cyclic:6", 6, 3, [6]),
    ("cyclic:5", 5, 4, [5]),
])
def test_reach_of_torsion_cohomology(gspec, coeffs, n, want):
    group = builtin_group(gspec)
    start = time.perf_counter()
    assert cohomology(group, table_module(group, coeffs), n) == want
    assert time.perf_counter() - start < 5.0


S4_SCRIPT = """
import time
from groupcoh import builtin_group, cohomology, trivial_module
group = builtin_group("symmetric:4")
start = time.perf_counter()
print(cohomology(group, trivial_module(group, [2]), 2, max_entries=839_523),
      time.perf_counter() - start)
"""


def test_reach_h2_of_s4_in_z2_within_1_gb():
    # H^2(S4; Z/2) = (Z/2)^2 (Adem-Milgram, Cohomology of Finite Groups,
    # VI.1): delta_2 on the rows of the 3 generators is 1587 x 529, one
    # entry under the limit, in a process limited to 1 GB of address space
    group = builtin_group("symmetric:4")
    with pytest.raises(ResourceLimit, match=r"^coboundary matrix needs 839523 entries "
                                            r"\(limit 839522\)$"):
        cohomology(group, trivial_module(group, [2]), 2, max_entries=839_522)
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", S4_SCRIPT], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit, timeout=120,
                         check=True).stdout.split()
    assert out[:2] == ["[2,", "2]"]
    assert float(out[2]) < 10.0
