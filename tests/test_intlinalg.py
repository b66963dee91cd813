"""Smith normal form and integer linear algebra tests.

Oracles here are independent of the implementation: unimodularity is
checked through determinants computed by Laplace expansion, and invariant
factors are cross-checked with gcds of k x k minors (the determinantal
divisor characterization).
"""

import itertools
import math
import random

import pytest

from groupcoh import intlinalg as la


def det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
    return total


def minor_gcd_factors(mat, rows, cols):
    """Invariant factors via gcds of k x k minors (slow, independent)."""
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                sub = [[mat[i][j] for j in cs] for i in rs]
                g = math.gcd(g, abs(det(sub)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def check_snf(mat, rows, cols):
    u, ui, d, v, vi = la._snf_full([row[:] for row in mat], cols=cols)
    uav = la.mat_mul(la.mat_mul(u, mat), v)
    assert uav == d
    assert la.mat_mul(u, ui) == la.identity_matrix(rows)
    assert la.mat_mul(v, vi) == la.identity_matrix(cols)
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    nonzero = [x for x in diag if x]
    assert nonzero == minor_gcd_factors(mat, rows, cols)
    return diag


def test_snf_diag_2_3():
    diag = check_snf([[2, 0], [0, 3]], 2, 2)
    assert diag == [1, 6]


def test_snf_2x2_dense():
    diag = check_snf([[2, 4], [6, 8]], 2, 2)
    assert diag == [2, 4]


def test_snf_zero_matrix():
    u, d, v = la.smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        check_snf(mat, rows, cols)


def test_solve_integer():
    a = [[2, 4], [6, 8]]
    x = la.solve_integer(a, [6, 14])
    assert la.mat_vec(a, x) == [6, 14]
    assert la.solve_integer([[2]], [3]) is None
    assert la.solve_integer([[2, 0], [0, 3]], [4, -9]) == [2, -3]


def test_kernel_basis():
    ker = la.kernel_basis([[1, 2, 3]], cols=3)
    assert len(ker) == 2
    for col in ker:
        assert la.mat_vec([[1, 2, 3]], col) == [0]
    # full-rank square matrix has trivial kernel
    assert la.kernel_basis([[2, 1], [1, 1]]) == []


def test_kernel_basis_is_saturated():
    # kernel of [2 2] is generated by (1,-1), not (2,-2)
    ker = la.kernel_basis([[2, 2]], cols=2)
    assert len(ker) == 1
    assert sorted(map(abs, ker[0])) == [1, 1]


def test_solve_with_moduli():
    # 3x = 1 mod 5 -> x = 2
    x = la.solve_with_moduli([[3]], [1], [5])
    assert x is not None and (3 * x[0] - 1) % 5 == 0
    assert la.solve_with_moduli([[2]], [1], [4]) is None


def test_cokernel_structure():
    factors, proj, lift = la.cokernel_structure([[2, 0], [0, 3]], 2)
    assert sorted(factors) == [2, 3] or factors == [6]
    # Z^2 / <(2,0)> = Z/2 + Z
    factors, proj, lift = la.cokernel_structure([[2, 0]], 2)
    assert sorted(factors, key=lambda d: (d == 0, d)) == [2, 0]
    # proj o lift = identity on the quotient coordinates
    n = len(factors)
    pl = la.mat_mul(proj, lift)
    for i in range(n):
        for j in range(n):
            expect = 1 if i == j else 0
            d = factors[i]
            got = pl[i][j]
            assert (got - expect) % d == 0 if d else got == expect


def test_kron():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    k = la.kron(a, b)
    assert len(k) == 4 and len(k[0]) == 4
    assert k[0] == [0, 1, 0, 2]
    assert k[1] == [1, 0, 2, 0]
    assert k[2] == [0, 3, 0, 4]


# -- differential tests: transform selection, factored solves, sympy -------


def random_matrices(seed, count):
    """Seeded small matrices: square and not, some with zero rows."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows, cols = rng.randrange(0, 6), rng.randrange(1, 6)
        mat = [[rng.randrange(-4, 5) if rng.random() < 0.6 else 0 for _ in range(cols)]
               for _ in range(rows)]
        if rows and rng.random() < 0.3:
            mat[rng.randrange(rows)] = [0] * cols
        out.append((mat, cols))
    return out


def test_snf_transform_selection_matches_full_call():
    selections = [
        sel for k in range(len(la.TRANSFORMS) + 1)
        for sel in itertools.combinations(la.TRANSFORMS, k)
    ]
    for mat, cols in random_matrices(11, 60):
        full = la._snf_full(mat, cols=cols)
        for sel in selections:
            got = la._snf_full(mat, cols=cols, track=sel)
            assert got[2] == full[2]
            for idx, name in zip((0, 1, 3, 4), la.TRANSFORMS):
                assert got[idx] == (full[idx] if name in sel else [])


def test_factored_solve_matches_solve_integer():
    rng = random.Random(12)
    for mat, cols in random_matrices(12, 60):
        factored = la.FactoredMatrix(mat, cols=cols)
        for _ in range(4):
            x0 = [rng.randrange(-3, 4) for _ in range(cols)]
            for b in (la.mat_vec(mat, x0), [rng.randrange(-5, 6) for _ in mat]):
                x = factored.solve(b)
                assert x == la.solve_integer(mat, b, cols=cols)
                if x is not None:
                    assert la.mat_vec(mat, x) == b
            assert factored.solve(la.mat_vec(mat, x0)) is not None


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    for mat, cols in random_matrices(13, 40):
        if not mat:
            continue
        d = la._snf_full(mat, cols=cols, track=())[2]
        ours = [d[i][i] for i in range(min(len(mat), cols)) if d[i][i]]
        ref = smith_normal_form(sympy.Matrix(mat), domain=sympy.ZZ)
        theirs = [abs(int(ref[i, i])) for i in range(min(ref.shape)) if ref[i, i]]
        assert ours == theirs
