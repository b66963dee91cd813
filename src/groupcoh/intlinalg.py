"""Exact integer linear algebra on plain Python ints.

Matrices are row-major lists of lists, in arbitrary precision; no numpy
here.

Two eliminations serve every routine.  With every row modulus nonzero,
one local Smith form over Z/N (`_diagonalize_modulo`, N the lcm of the
moduli, every entry below N) serves `solve_with_moduli`,
`kernel_with_moduli` (whose generators reduce to a triangular Hermite
basis modulo N) and `cokernel_modulo`; `kernel_quotient` joins them by
back substitution into the quotient W / R that cohomology and invariants
read.  Cohomology with lattice coefficients calls the local Smith form
directly, on delta_{n-1} over Z/|G|^2.  Where a modulus is free (0)
otherwise, the integer Smith normal form `_snf_full` serves instead,
whose entries grow without bound on dense inputs.  It builds only the
transforms a caller reads through its ``track`` keyword: `kernel_basis`
tracks V, `FactoredMatrix` (and so `solve_integer`) U and V, and
`cokernel_structure` U and U^-1; `FactoredMatrix` keeps one
factorization for solving against many right-hand sides.
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


def _quotient(x, p, g, big):
    """q with q * p == x (mod big), given g = gcd(p, big) dividing x."""
    return x // g * pow(p // g, -1, big // g) % (big // g)


def _diagonalize_modulo(a: Matrix, moduli: list, n: int):
    """The local Smith form of the first n columns of a modulo per-row
    moduli, all nonzero.

    Row i is scaled by N/moduli[i] (N = lcm of the moduli), so every row
    holds modulo N, and the matrix is diagonalized over Z/N with entries
    reduced at every step.  A pivot p clears an entry x outright when
    gcd(p, N) | x; otherwise a unimodular 2x2 extended-gcd step on the two
    rows (or columns) replaces p by gcd(p, x), whose gcd with N is a proper
    divisor of gcd(p, N), so every pivot settles after finitely many steps.
    A settled pivot whose gcd with N does not divide some trailing entry
    takes that entry's row in and settles again, so gcd(d_i, N) divides
    gcd(d_{i+1}, N).  Columns of a past the n-th (right-hand sides) take
    part in the row operations only.

    Returns (d, vt, N): d is the reduced matrix, whose first n columns are
    zero but for d[i][i] != 0 with i below the rank; vt[j] is column j of
    the column transform V, and U a V = d modulo N for a row transform U
    invertible modulo N that is not tracked.
    """
    big = math.lcm(*moduli)
    d = [[big // md * x % big for x in row] for row, md in zip(a, moduli)]
    m = len(d)
    vt = identity_matrix(n)

    def row_add(i, j, q):
        # row_i += q * row_j; rows i, j >= t are zero left of column t
        d[i][t:] = [(x + q * y) % big for x, y in zip(d[i][t:], d[j][t:])]

    def row_pair(i, j, s, u, w, z):
        # (row_i, row_j) <- (s row_i + u row_j, w row_i + z row_j)
        ri, rj = d[i][t:], d[j][t:]
        d[i][t:] = [(s * x + u * y) % big for x, y in zip(ri, rj)]
        d[j][t:] = [(w * x + z * y) % big for x, y in zip(ri, rj)]

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
                    row_add(i, t, -_quotient(x, p, g, big))
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
                    q = _quotient(x, p, g, big)
                    row[j] = 0
                    vt[j] = [(y - q * z) % big for y, z in zip(vt[j], vt[t])]
                else:
                    e, s, u = _xgcd(p, x)
                    col_pair(t, j, s, u, -x // e, p // e)
                    settled = False
                    break
            if settled and g > 1:
                bad = next((i for i in range(t + 1, m)
                            if any(x % g for x in d[i][t + 1:n])), None)
                if bad is not None:
                    row_add(t, bad, 1)
                    settled = False
        t += 1
    return d, vt, big


def _solve_modulo(a: Matrix, b: list, moduli: list, n: int):
    """Solve a @ x = b modulo per-row moduli, all nonzero: b rides along
    as column n of the local Smith form U a V = D, y_i solves
    d_i y_i = (U b)_i modulo N (solvable iff gcd(d_i, N) divides it; rows
    past the rank need (U b)_i = 0), and x = V y."""
    d, vt, big = _diagonalize_modulo([row + [bi] for row, bi in zip(a, b)], moduli, n)
    x = [0] * n
    for i, row in enumerate(d):
        p, c = (row[i] if i < n else 0), row[n]
        if not p:
            if c:
                return None
            continue
        g = math.gcd(p, big)
        if c % g:
            return None
        y = _quotient(c, p, g, big)
        if y:
            x = [(xi + y * vj) % big for xi, vj in zip(x, vt[i])]
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


def _hnf_modulo(gens: list, n: int, big: int) -> list:
    """The Hermite normal form of the lattice spanned by gens and big*Z^n:
    n column vectors, w_j with its last nonzero entry h_j = w_j[j]
    dividing big, and w_k[j] in [0, h_j) for k > j.  This is Cohen's HNF
    modulo D (GTM 138, Alg. 2.4.8) for a lattice that contains big*Z^n,
    where big need not be a multiple of the determinant.

    From the last coordinate j down, big*e_j meets every generator with a
    nonzero entry j in unimodular extended-gcd steps.  They leave one
    vector w_j with entry h_j = gcd(big, those entries) at j and clear
    entry j of the others, which carry on to the coordinates left of j.
    As big*e_j takes part as a whole vector, no generator is lost; the
    entries left of j stay reduced modulo big, since big*Z^n lies in the
    lattice.
    """
    basis = []
    for j in reversed(range(n)):
        piv, h = [0] * j, big  # w_j left of j, and its entry at j
        rest = []
        for g in gens:
            x, g = g[j], g[:j]
            if x % h == 0:
                q = x // h
                if q:
                    g = [(z - q * y) % big for y, z in zip(piv, g)]
            else:
                e, s, u = _xgcd(h, x)
                piv, g = ([(s * y + u * z) % big for y, z in zip(piv, g)],
                          [(h // e * z - x // e * y) % big for y, z in zip(piv, g)])
                h = e
            if any(g):
                rest.append(g)
        gens = rest
        basis.append(piv + [h] + [0] * (n - 1 - j))
    basis.reverse()
    for k, w in enumerate(basis):
        for j in reversed(range(k)):
            q = w[j] // basis[j][j]
            if q:
                w[:j + 1] = [x - q * y for x, y in zip(w[:j + 1], basis[j])]
    return basis


def kernel_with_moduli(a: Matrix, moduli: list, cols: int = None) -> list:
    """A basis of the lattice L of x with a @ x = 0 modulo per-row moduli
    (0 = exact).

    With every modulus nonzero, L contains N*Z^n (N = lcm of the moduli)
    and the local Smith form U a V = D of `_diagonalize_modulo` spans it
    modulo N: column j of V times N/gcd(d_j, N), with d_j = 0 past the
    rank.  V is invertible only modulo N, so these are generators, not a
    basis ([2] modulo 5 spans 2Z); with N*Z^n they reduce to the Hermite
    normal form, an upper-triangular basis (vector j ends in entry j)
    whose diagonal product is [Z^n : L].

    A free modulus takes kernel_basis of the augmented matrix (x, y), and
    (x, y) -> x is injective there: each y-column is moduli[i] * e_i for a
    nonzero modulus, in a row of its own, so x = 0 forces y = 0.  The
    x-parts are therefore a basis, not just generators.
    """
    n = len(a[0]) if a else (cols or 0)
    if all(moduli):
        d, vt, big = _diagonalize_modulo(a, moduli, n)
        gens = []
        for j, col in enumerate(vt):
            scale = big // math.gcd(d[j][j] if j < len(d) else 0, big)
            if scale < big:
                gens.append([scale * x % big for x in col])
        return _hnf_modulo(gens, n, big)
    aug, aug_cols = _augment_moduli(a, moduli, n)
    return [vec[:n] for vec in kernel_basis(aug, cols=aug_cols)]


def _triangular_coordinates(basis: list, vecs: list):
    """The integer coordinates in basis of each vector of vecs, by back
    substitution, or None when one of them lies outside the lattice.  The
    basis vectors end (have their last nonzero entry, the pivot) in
    distinct coordinates, as `kernel_with_moduli` returns them."""
    steps = []
    for j, w in enumerate(basis):
        p = max(i for i, x in enumerate(w) if x)
        steps.append((p, j, w[p], [(i, x) for i, x in enumerate(w[:p]) if x]))
    steps.sort(reverse=True)
    out = []
    for vec in vecs:
        r = list(vec)
        t = [0] * len(basis)
        for p, j, h, above in steps:
            q, rem = divmod(r[p], h)
            if rem:
                return None
            if q:
                t[j] = q
                r[p] = 0
                for i, x in above:
                    r[i] -= q * x
        if any(r):
            return None
        out.append(t)
    return out


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


def cokernel_modulo(gens: list, ambient: int, big: int):
    """Structure of Z^ambient / (<gens> + big*Z^ambient), as
    cokernel_structure returns it (here every factor divides big).

    With the gens as the rows of G, one local Smith form U G V = D over
    Z/big makes x -> V^T x map the quotient onto the sum of Z/gcd(d_i, big),
    a divisibility chain (a coordinate past the rank is Z/big).  proj keeps
    the rows of V^T whose factor is not 1, and lift column i solves
    proj @ x = e_i modulo the factors, which V^T invertible modulo big
    makes solvable.
    """
    d, vt, _ = _diagonalize_modulo(gens, [big] * len(gens), ambient)
    moduli = [math.gcd(d[i][i] if i < len(d) else 0, big) for i in range(ambient)]
    keep = [i for i, md in enumerate(moduli) if md != 1]
    factors = [moduli[i] for i in keep]
    proj = [vt[i] for i in keep]
    cols = []
    for i in range(len(keep)):
        x = _solve_modulo(proj, [int(r == i) for r in range(len(keep))], factors, ambient)
        if x is None:
            raise ArithmeticError("cokernel_modulo: the projection is not onto the quotient")
        cols.append(x)
    lift = [[col[r] for col in cols] for r in range(ambient)]
    return factors, proj, lift


def kernel_quotient(a: Matrix, moduli: list, gens: list, rel_moduli: list):
    """W / R for the lattice W of x in Z^k with a @ x = 0 modulo per-row
    moduli (0 = exact), and R spanned by the column vectors gens and by
    rel_moduli[i] * e_i (k = len(rel_moduli), 0 = no relation).

    Returns (factors, incl): the invariant factors of W / R in
    cokernel_structure's order, and the k x len(factors) matrix that
    sends each quotient generator to a vector of W; or None when a
    generator of R lies outside W.

    With every modulus and every relation nonzero, W has the triangular
    basis of `kernel_with_moduli`, R contains N*W (N = lcm of rel_moduli),
    and so the generators' coordinates, found by back substitution, give
    W / R by `cokernel_modulo` over Z/N.  Otherwise W's basis is factored
    once by the integer Smith normal form, every generator is solved
    against it, and `cokernel_structure` reads the quotient.
    """
    k = len(rel_moduli)
    gens = list(gens) + [[d if r == i else 0 for r in range(k)]
                         for i, d in enumerate(rel_moduli) if d]
    basis = kernel_with_moduli(a, moduli, cols=k)
    kmat = [[col[i] for col in basis] for i in range(k)]
    if all(moduli) and all(rel_moduli):
        coords = _triangular_coordinates(basis, gens)
        if coords is None:
            return None
        factors, _, lift = cokernel_modulo(coords, len(basis), math.lcm(*rel_moduli))
    else:
        lattice = FactoredMatrix(kmat, cols=len(basis))
        coords = [lattice.solve(gen) for gen in gens]
        if None in coords:
            return None
        factors, _, lift = cokernel_structure(coords, len(basis))
    return factors, mat_mul(kmat, lift)
