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

from hermite import kernel_with_moduli


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
    u, _, d, v, _ = la._snf_full([[0, 0], [0, 0]], track=("u", "v"))
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
    [x] = la.solve_integer(a, [[6, 14]])
    assert la.mat_vec(a, x) == [6, 14]
    assert la.solve_integer([[2]], [[3]]) == [None]
    assert la.solve_integer([[2, 0], [0, 3]], [[4, -9]]) == [[2, -3]]


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


def test_solve_with_moduli_rejects_a_free_modulus():
    a = [[2, 4, -1], [3, 1, 2]]
    with pytest.raises(ValueError, match="nonzero moduli"):
        la.solve_with_moduli(a, [3, 1], [0, 4])
    with pytest.raises(ValueError, match="nonzero moduli"):
        la.kernel_quotient(a, [0, 4], [], [4, 4, 4])
    with pytest.raises(ValueError, match="nonzero moduli"):
        la.kernel_quotient(a, [4, 4], [], [4, 0, 4])


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


# -- differential tests: transform selection, many right-hand sides, sympy --


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


def test_solve_integer_columns_match_single_solves():
    # one factorization for all right-hand sides gives what one call per
    # column gives; consistent columns are solved, and every x solves
    rng = random.Random(12)
    for mat, cols in random_matrices(12, 60):
        rhs = []
        for _ in range(4):
            x0 = [rng.randrange(-3, 4) for _ in range(cols)]
            rhs += [la.mat_vec(mat, x0), [rng.randrange(-5, 6) for _ in mat]]
        xs = la.solve_integer(mat, rhs, cols=cols)
        assert xs == [la.solve_integer(mat, [b], cols=cols)[0] for b in rhs]
        assert None not in xs[::2]
        for x, b in zip(xs, rhs):
            if x is not None:
                assert la.mat_vec(mat, x) == b


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


# -- solving modulo N against the augmented Smith normal form --------------

MODULI = {
    "prime": [2, 3, 5, 7],
    "prime power": [4, 8, 9],
    "composite": [6, 12],
    "mixed": [2, 3, 4, 5, 6, 7, 8, 9, 12],
}


def congruent(a, x, b, moduli):
    """a @ x = b modulo each row's modulus, exactly where it is 0."""
    return all(ax == bi if md == 0 else (ax - bi) % md == 0
               for ax, bi, md in zip(la.mat_vec(a, x), b, moduli))


def augment_moduli(a, moduli, cols):
    """(aug, aug_cols): a (with cols columns) followed by one column
    moduli[i] * e_i per nonzero modulus, so that a @ x = b modulo the
    per-row moduli exactly when aug @ (x, y) = b for some integer y."""
    rows = [i for i, md in enumerate(moduli) if md]
    aug = [row + [0] * len(rows) for row in a]
    for c, i in enumerate(rows):
        aug[i][cols + c] = moduli[i]
    return aug, cols + len(rows)


def augmented_snf_solve(a, b, moduli, cols):
    aug, aug_cols = augment_moduli(a, moduli, cols)
    [sol] = la.solve_integer(aug, [b], cols=aug_cols)
    return None if sol is None else sol[:cols]


@pytest.mark.parametrize("kind", list(MODULI))
def test_solve_modulo_matches_augmented_snf(kind):
    rng = random.Random(21 + list(MODULI).index(kind))
    solvable = unsolvable = 0
    for _ in range(150):
        rows, cols = rng.randrange(0, 7), rng.randrange(1, 7)
        a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        if kind == "mixed":
            moduli = [rng.choice(MODULI[kind]) for _ in range(rows)]
        else:
            moduli = [rng.choice(MODULI[kind])] * rows
        x0 = [rng.randrange(-9, 10) for _ in range(cols)]
        for b in (la.mat_vec(a, x0), [rng.randrange(-9, 10) for _ in range(rows)]):
            x = la.solve_with_moduli(a, b, moduli, cols=cols)
            ref = augmented_snf_solve(a, b, moduli, cols)
            assert (x is None) == (ref is None)
            if x is None:
                unsolvable += 1
            else:
                solvable += 1
                assert len(x) == cols and congruent(a, x, b, moduli)
    assert solvable and unsolvable


def test_solve_modulo_dense_entries_stay_bounded():
    # the augmented integer SNF does not finish this system within 60 s
    rng = random.Random(1)
    a = [[rng.randrange(-50, 51) for _ in range(8)] for _ in range(8)]
    b = [rng.randrange(-50, 51) for _ in range(8)]
    x = la.solve_with_moduli(a, b, [7] * 8)
    assert x is not None and congruent(a, x, b, [7] * 8)


def rational_solve(mat, b):
    """Gauss-Jordan over Q: (rank of mat, a solution t of mat @ t = b, or
    None when there is none)."""
    from fractions import Fraction

    n = len(mat[0]) if mat else 0
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(mat, b)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                q = rows[i][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    if any(row[-1] for row in rows[len(pivots):]):
        return len(pivots), None
    t = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        t[c] = rows[i][-1]
    return len(pivots), t


def test_kernel_with_moduli_returns_a_basis():
    # independent vectors that satisfy the congruences and generate every
    # solution in a box and the lcm multiples of the unit vectors.  The
    # lattice holds lcm * Z^n, so there are n of them, and each solution
    # has unique rational coordinates, read off the inverse of the basis
    # matrix, which must be integers.  (solve_integer cannot be the oracle:
    # the integer Smith normal form of such bases can run away, as on the
    # 5 x 5 system of tests/test_modular_lattice.py.)
    rng = random.Random(31)
    for _ in range(200):
        rows, cols = rng.randrange(0, 6), rng.randrange(1, 6)
        a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        moduli = [rng.choice([2, 3, 5, 7, 4, 6, 9, 12]) for _ in range(rows)]
        zero = [0] * rows
        basis = kernel_with_moduli(a, moduli, cols=cols)
        assert all(len(v) == cols and congruent(a, v, zero, moduli) for v in basis)
        kmat = [[v[i] for v in basis] for i in range(cols)]
        assert len(basis) == cols and rational_solve(kmat, [0] * cols)[0] == cols
        inverse = [rational_solve(kmat, [int(i == j) for i in range(cols)])[1]
                   for j in range(cols)]
        big = math.lcm(1, *moduli)
        tries = list(itertools.product(range(-2, 3), repeat=cols))
        tries += [tuple(big if i == j else 0 for i in range(cols)) for j in range(cols)]
        for x in tries:
            if congruent(a, x, zero, moduli):
                t = [sum(col[r] * xj for col, xj in zip(inverse, x)) for r in range(cols)]
                assert all(c.denominator == 1 for c in t)
