"""Exact integer linear algebra on plain Python ints.

Matrices are row-major lists of lists.  Entries grow without bound during
elimination, so everything stays in arbitrary precision; no numpy here.

Two eliminations serve every routine.  The integer Smith normal form
`_snf_full` builds only the transforms a caller reads through its
``track`` keyword: `kernel_basis` tracks V, `FactoredMatrix` (and so
`solve_integer`) U and V, and `cokernel_structure` U and U^-1;
`FactoredMatrix` keeps one factorization for solving against many
right-hand sides.  `solve_with_moduli` with every row modulus nonzero
diagonalizes over Z/N instead (`_solve_modulo`), so its entries stay
below N; a free (0) modulus keeps the augmented integer system.
"""

from __future__ import annotations

import math

Matrix = list  # list[list[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return []
    n = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        orow = [0] * cols
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cols):
                    orow[j] += x * brow[j]
        out.append(orow)
    return out


def mat_vec(a: Matrix, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_transpose(a: Matrix, cols: int = None) -> Matrix:
    if not a:
        return [[] for _ in range(cols or 0)]
    return [list(col) for col in zip(*a)]


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row index (i, k) -> i*len(b)+k."""
    bn = len(b)
    bm = len(b[0]) if b else 0
    am = len(a[0]) if a else 0
    out = []
    for i in range(len(a)):
        for k in range(bn):
            row = []
            for j in range(am):
                aij = a[i][j]
                row.extend(aij * b[k][l] for l in range(bm))
            out.append(row)
    return out


TRANSFORMS = ("u", "ui", "v", "vi")


def _snf_full(a: Matrix, cols: int = None, track=TRANSFORMS):
    """Return (U, Uinv, D, V, Vinv) with U*a*V = D, D diagonal with a
    divisibility chain, U and V unimodular (inverses tracked exactly).

    ``track`` names the transforms to build, out of "u", "ui", "v" and
    "vi"; an untracked one comes back as [].  The pivot sequence depends
    on D alone, so D and every tracked transform are the same entry for
    entry whatever the selection, and tracking less only saves work.
    """
    if not set(track) <= set(TRANSFORMS):
        raise ValueError(f"unknown transforms {sorted(set(track) - set(TRANSFORMS))}")
    m = len(a)
    n = len(a[0]) if m else (cols or 0)
    d = [row[:] for row in a]
    u = identity_matrix(m) if "u" in track else []
    ui = identity_matrix(m) if "ui" in track else []
    v = identity_matrix(n) if "v" in track else []
    vi = identity_matrix(n) if "vi" in track else []

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        if u:
            u[i], u[j] = u[j], u[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        if vi:
            vi[i], vi[j] = vi[j], vi[i]

    def row_add(i, j, q):
        # row_i += q * row_j ; inverse: col_j of Uinv -= q * col_i.  Rows
        # i, j >= t are zero left of column t, so only columns t.. change.
        d[i][t:] = [x + q * y for x, y in zip(d[i][t:], d[j][t:])]
        if u:
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in ui:
            if r[i]:
                r[j] -= q * r[i]

    def col_add(j, i, q):
        # col_j += q * col_i ; inverse: row_i of Vinv -= q * row_j
        for r in d:
            if r[i]:
                r[j] += q * r[i]
        for r in v:
            if r[i]:
                r[j] += q * r[i]
        if vi:
            vi[i] = [x - q * y for x, y in zip(vi[i], vi[j])]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        if u:
            u[i] = [-x for x in u[i]]
        for r in ui:
            r[i] = -r[i]

    t = 0
    while t < min(m, n):
        # locate the first entry (row-major) of least nonzero magnitude in
        # the trailing block; a unit cannot be beaten, so stop at the first
        pivot = None
        best = None
        for i in range(t, m):
            row = d[i][t:]
            if not any(row):
                continue
            low = min(map(abs, filter(None, row)))
            if best is None or low < best:
                best = low
                pivot = (i, t + next(j for j, x in enumerate(row) if abs(x) == low))
                if best == 1:
                    break
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            stable = True
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_add(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        stable = False
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_add(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        stable = False
            if not stable:
                continue
            # pivot must divide every remaining entry for the chain d_i | d_{i+1};
            # a unit divides everything
            p = d[t][t]
            if abs(p) == 1:
                break
            rem = p.__rmod__  # rem(x) == x % p
            bad = next((i for i in range(t + 1, m) if any(map(rem, d[i][t + 1:]))), None)
            if bad is None:
                break
            row_add(t, bad, 1)
        if d[t][t] < 0:
            row_negate(t)
        t += 1
    return u, ui, d, v, vi


def smith_normal_form(a: Matrix, cols: int = None):
    """U*a*V = D with D = diag(d1,...,dr,0,...), d1 | d2 | ... ; U, V unimodular."""
    u, _, d, v, _ = _snf_full(a, cols, track=("u", "v"))
    return u, d, v


class FactoredMatrix:
    """The Smith normal form U*a*V = D of one matrix, computed once (with
    only U and V tracked) and kept for solving a @ x = b against many
    right-hand sides b."""

    def __init__(self, a: Matrix, cols: int = None):
        self.rows = len(a)
        self.cols = len(a[0]) if self.rows else (cols or 0)
        self._u = self._v = self._diag = []
        if self.rows:
            self._u, _, d, self._v, _ = _snf_full(a, cols, track=("u", "v"))
            self._diag = [d[i][i] if i < self.cols else 0 for i in range(self.rows)]

    def solve(self, b: list):
        """One integer solution x of a @ x = b, or None; the same x that
        solve_integer(a, b) returns."""
        if self.rows == 0:
            return [0] * self.cols
        y = [0] * self.cols
        for i, (di, ubi) in enumerate(zip(self._diag, mat_vec(self._u, b))):
            if di == 0:
                if ubi != 0:
                    return None
            else:
                q, r = divmod(ubi, di)
                if r:
                    return None
                y[i] = q
        return mat_vec(self._v, y)


def solve_integer(a: Matrix, b: list, cols: int = None):
    """One integer solution x of a @ x = b, or None."""
    return FactoredMatrix(a, cols).solve(b)


def kernel_basis(a: Matrix, cols: int = None) -> list:
    """Basis (as a list of column vectors) of the saturated integer kernel."""
    m = len(a)
    n = len(a[0]) if m else (cols or 0)
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    _, _, d, v, _ = _snf_full(a, cols, track=("v",))
    out = []
    for j in range(n):
        dj = d[j][j] if j < m else 0
        if dj == 0:
            out.append([v[i][j] for i in range(n)])
    return out


def _augment_moduli(a: Matrix, moduli: list, cols: int):
    """(aug, aug_cols): a (with cols columns) followed by one column
    moduli[i] * e_i per nonzero modulus, so that a @ x = b modulo the
    per-row moduli exactly when aug @ (x, y) = b for some integer y."""
    rows = [i for i, md in enumerate(moduli) if md]
    aug = [row + [0] * len(rows) for row in a]
    for c, i in enumerate(rows):
        aug[i][cols + c] = moduli[i]
    return aug, cols + len(rows)


def _xgcd(p: int, x: int):
    """(e, s, u) with s*p + u*x = e = gcd(p, x)."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while x:
        q, r = divmod(p, x)
        p, x = x, r
        s0, s1, u0, u1 = s1, s0 - q * s1, u1, u0 - q * u1
    return p, s0, u0


def _solve_modulo(a: Matrix, b: list, moduli: list, n: int):
    """Solve a @ x = b modulo per-row moduli, all nonzero, over Z/N.

    Row i is scaled by N/moduli[i] (N = lcm of the moduli), so every row
    holds modulo N, and the matrix is diagonalized over Z/N with entries
    reduced at every step.  A pivot p clears an entry x outright when
    gcd(p, N) | x; otherwise a unimodular 2x2 extended-gcd step on the two
    rows (or columns) replaces p by gcd(p, x), whose gcd with N is a proper
    divisor of gcd(p, N), so every pivot settles after finitely many steps.
    Row operations act on b directly; only the column transform V is
    tracked, and x = V y for the diagonal solution y.
    """
    big = math.lcm(*moduli)
    d = []
    c = []
    for row, bi, md in zip(a, b, moduli):
        scale = big // md
        d.append([scale * x % big for x in row])
        c.append(scale * bi % big)
    m = len(d)
    vt = identity_matrix(n)  # vt[j] is column j of V

    def row_add(i, j, q):
        # row_i += q * row_j; rows i, j >= t are zero left of column t
        d[i][t:] = [(x + q * y) % big for x, y in zip(d[i][t:], d[j][t:])]
        c[i] = (c[i] + q * c[j]) % big

    def row_pair(i, j, s, u, w, z):
        # (row_i, row_j) <- (s row_i + u row_j, w row_i + z row_j)
        ri, rj = d[i][t:], d[j][t:]
        d[i][t:] = [(s * x + u * y) % big for x, y in zip(ri, rj)]
        d[j][t:] = [(w * x + z * y) % big for x, y in zip(ri, rj)]
        c[i], c[j] = (s * c[i] + u * c[j]) % big, (w * c[i] + z * c[j]) % big

    def col_pair(i, j, s, u, w, z):
        # (col_i, col_j) <- (s col_i + u col_j, w col_i + z col_j); rows
        # above t are zero in both columns
        for row in d[t:]:
            x, y = row[i], row[j]
            if x or y:
                row[i], row[j] = (s * x + u * y) % big, (w * x + z * y) % big
        vi, vj = vt[i], vt[j]
        vt[i] = [(s * x + u * y) % big for x, y in zip(vi, vj)]
        vt[j] = [(w * x + z * y) % big for x, y in zip(vi, vj)]

    def quotient(x, p, g):
        # q with q * p == x (mod N), given g = gcd(p, N) dividing x
        return x // g * pow(p // g, -1, big // g) % (big // g)

    t = 0
    while t < min(m, n):
        # the trailing entry whose gcd with N is least; a unit cannot be
        # beaten, so stop at the first
        pivot = None
        best = big
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                if row[j]:
                    g = math.gcd(row[j], big)
                    if g < best:
                        best, pivot = g, (i, j)
                        if g == 1:
                            break
            if best == 1:
                break
        if pivot is None:
            break
        i, j = pivot
        d[t], d[i] = d[i], d[t]
        c[t], c[i] = c[i], c[t]
        if j != t:
            for row in d:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
        settled = False
        while not settled:
            p = d[t][t]
            g = math.gcd(p, big)
            for i in range(t + 1, m):
                x = d[i][t]
                if not x:
                    continue
                if x % g == 0:
                    row_add(i, t, -quotient(x, p, g))
                else:
                    e, s, u = _xgcd(p, x)
                    row_pair(t, i, s, u, -x // e, p // e)
                    p = e
                    g = math.gcd(p, big)
            # column t is clear below the pivot, so clearing row t by a
            # column operation changes only row t and V
            settled = True
            row = d[t]
            for j in range(t + 1, n):
                x = row[j]
                if not x:
                    continue
                if x % g == 0:
                    q = quotient(x, p, g)
                    row[j] = 0
                    vt[j] = [(y - q * z) % big for y, z in zip(vt[j], vt[t])]
                else:
                    e, s, u = _xgcd(p, x)
                    col_pair(t, j, s, u, -x // e, p // e)
                    settled = False
                    break
        t += 1
    y = [0] * n
    for i in range(m):
        if i < t:
            p = d[i][i]
            g = math.gcd(p, big)
            if c[i] % g:
                return None
            y[i] = quotient(c[i], p, g)
        elif c[i]:
            return None
    x = [0] * n
    for yj, col in zip(y, vt):
        if yj:
            x = [(xi + yj * vj) % big for xi, vj in zip(x, col)]
    return x


def solve_with_moduli(a: Matrix, b: list, moduli: list, cols: int = None):
    """Solve a @ x = b modulo per-row moduli (0 = exact).  Returns x or None.

    With every modulus nonzero the system is solved over Z/N by
    `_solve_modulo`; a free (0) modulus puts the moduli into extra columns
    and solves the augmented system over Z.
    """
    n = len(a[0]) if a else (cols or 0)
    if all(moduli):
        return _solve_modulo(a, b, moduli, n)
    aug, aug_cols = _augment_moduli(a, moduli, n)
    sol = solve_integer(aug, b, cols=aug_cols)
    if sol is None:
        return None
    return sol[:n]


def kernel_with_moduli(a: Matrix, moduli: list, cols: int = None) -> list:
    """A basis of the lattice of x with a @ x = 0 modulo per-row moduli
    (0 = exact).

    kernel_basis gives a basis of the kernel of the augmented matrix
    (x, y), and (x, y) -> x is injective there: each y-column is
    moduli[i] * e_i for a nonzero modulus, in a row of its own, so x = 0
    forces y = 0.  The x-parts are therefore a basis, not just generators.
    """
    n = len(a[0]) if a else (cols or 0)
    aug, aug_cols = _augment_moduli(a, moduli, n)
    return [vec[:n] for vec in kernel_basis(aug, cols=aug_cols)]


def cokernel_structure(gens: list, ambient: int):
    """Structure of Z^ambient / <gens> (gens are column vectors).

    Returns (factors, proj, lift): coordinate moduli in invariant-factor
    order (torsion ascending, then 0 for free), with modulus-1 coordinates
    dropped; proj maps ambient coords to quotient coords, lift is a section.
    """
    r = len(gens)
    mat = [[gens[j][i] for j in range(r)] for i in range(ambient)]
    u, ui, d, _, _ = _snf_full(mat, cols=r, track=("u", "ui"))
    moduli = [d[i][i] if i < r else 0 for i in range(ambient)]
    keep = [i for i, md in enumerate(moduli) if md != 1]
    factors = [moduli[i] for i in keep]
    proj = [u[i] for i in keep]
    lift = [[ui[i][j] for j in keep] for i in range(ambient)]
    return factors, proj, lift
