"""Exact integer linear algebra on plain Python ints.

Matrices are row-major lists of lists.  Entries grow without bound during
elimination, so everything stays in arbitrary precision; no numpy here.

Every routine rests on one Smith normal form elimination, `_snf_full`,
whose ``track`` keyword builds only the transforms a caller reads:
`kernel_basis` tracks V, `FactoredMatrix` (and so `solve_integer`) U and
V, and `cokernel_structure` U and U^-1.  `FactoredMatrix` keeps one
factorization for solving against many right-hand sides.
"""

from __future__ import annotations

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


def solve_with_moduli(a: Matrix, b: list, moduli: list, cols: int = None):
    """Solve a @ x = b modulo per-row moduli (0 = exact).  Returns x or None."""
    n = len(a[0]) if a else (cols or 0)
    aug, aug_cols = _augment_moduli(a, moduli, n)
    sol = solve_integer(aug, b, cols=aug_cols)
    if sol is None:
        return None
    return sol[:n]


def kernel_with_moduli(a: Matrix, moduli: list, cols: int = None) -> list:
    """Generators (not necessarily independent) of the lattice of x with
    a @ x = 0 modulo per-row moduli (0 = exact)."""
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
