"""Exact integer linear algebra on plain Python ints.

Matrices are row-major lists of lists, in arbitrary precision; no numpy
here.

One elimination serves the runtime: the local Smith form over Z/N
(`_diagonalize_modulo`, N the lcm of the row moduli, every modulus
nonzero and every entry below N), behind `solve_with_moduli`,
`cokernel_modulo` and `kernel_quotient`.  It is sparse: each row is a
dict of its nonzero entries, a column index lists the rows of each
column, and the pivot is a unit in the first column that has entries, in
the row of fewest entries, so clearing a coboundary matrix (at most n + 2
nonzero blocks a row) costs about its nonzeros, not its rows times its
columns (Dumas, Saunders and Villard, JSC 2001).  On request it tracks
V^-1 next to V; `cokernel_modulo` reads its lift off V^-1, and
`kernel_quotient` reads the quotient W / R, which the invariants of a
finite module and the cohomology of a module with a finite factor need,
in the coordinates V^-1 gives W: one local Smith form of the kernel's
matrix and one of the relations' coordinates.  Cohomology with lattice
coefficients calls the local Smith form directly, on delta_{n-1} over
Z/|G|^2, and every coboundary equation is solved over Z/N.  Each runtime
routine refuses a free (0) modulus with ValueError.

The last section is the integer reference, with no runtime caller: the
integer Smith normal form `_snf_full`, whose entries grow without bound
on dense inputs, and `solve_integer`, `kernel_basis` and
`cokernel_structure` over it.  The tests compare the runtime against
them.
"""

from __future__ import annotations

import math
from itertools import compress

from .errors import SelfCheckFailed

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


def _xgcd(p: int, x: int):
    """(e, s, u) with s*p + u*x = e = gcd(p, x)."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while x:
        q, r = divmod(p, x)
        p, x = x, r
        s0, s1, u0, u1 = s1, s0 - q * s1, u1, u0 - q * u1
    return p, s0, u0


def _diagonalize_modulo(a: Matrix, moduli: list, n: int, inverse: bool = False):
    """The local Smith form of the first n columns of a modulo per-row
    moduli, all nonzero, by sparse elimination.

    Row i is scaled by N/moduli[i] (N = lcm of the moduli), so every row
    holds modulo N, and kept as a {column: entry} dict of its nonzero
    entries modulo N; an index maps each of the first n columns to its
    rows.  Nothing is swapped: pivots are recorded as (row, column) and d
    and V laid out in pivot order at the end.  The pivot is the unit, in
    the first column that has entries, whose row has the fewest entries;
    if that column holds no unit, a scan of all entries takes the least
    gcd with N, ties to the row of fewest entries.  Either way no entry
    left has a smaller gcd with N.  A pivot p clears an entry x of its
    column or row by a sparse axpy over the pivot row (or a column of V)
    when gcd(p, N) | x; otherwise a unimodular 2x2 extended-gcd step on
    the two rows (or columns) makes p = gcd(p, x), whose gcd with N
    properly divides gcd(p, N), so every pivot settles.  A settled pivot
    whose gcd with N does not divide some entry left takes that entry's
    row in and settles again.  So gcd(d_i, N) divides every entry left
    after step i, and operations modulo N keep that, as it divides N:
    gcd(d_i, N) divides gcd(d_{i+1}, N).  Columns of a past the n-th
    (right-hand sides) take part in the row operations only; no pivot or
    operation reads them, so they change nothing else.

    With inverse, V^-1 is tracked next to V: col_j += q col_c on V is
    row_c -= q row_j on V^-1, and the 2x2 step (s, u, w, z) on columns
    (c, j), of determinant s z - u w = 1, is (z, -w, -u, s) on rows (c, j).

    Returns (pivots, tails, vt, vi, N): U a V = D modulo N for a row
    transform U invertible modulo N that is not tracked, D zero in its
    first n columns but for D[t][t] = pivots[t] != 0, t below the rank;
    tails[t] holds the entries of row t of D past column n-1, as a
    {column: entry} dict; vt[j] is column j of V and vi[j] row j of V^-1
    (None without inverse), both {index: entry} dicts.
    """
    big = math.lcm(*moduli)
    rows, tails = [], []
    for row, md in zip(a, moduli):
        s = big // md
        entries = {j: y for j in compress(range(len(row)), row) if (y := s * row[j] % big)}
        tails.append({j: entries.pop(j) for j in [j for j in entries if j >= n]})
        rows.append(entries)
    index = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            index[j].add(i)
    vt = [{j: 1} for j in range(n)]
    vi = [{j: 1} for j in range(n)] if inverse else None

    def pair(x, y, s, u, w, z):
        # (s x + u y, w x + z y) for sparse vectors x and y
        out_x, out_y = {}, {}
        for k in x.keys() | y.keys():
            xk, yk = x.get(k, 0), y.get(k, 0)
            if e := (s * xk + u * yk) % big:
                out_x[k] = e
            if e := (w * xk + z * yk) % big:
                out_y[k] = e
        return out_x, out_y

    def axpy(x, y, q):
        # x += q y in place, for sparse vectors
        for k, yk in y.items():
            if e := (x.get(k, 0) + q * yk) % big:
                x[k] = e
            else:
                x.pop(k, None)

    def row_add(i, j, q):
        # row_i += q row_j, over the entries of row_j only
        row = rows[i]
        for k, yk in rows[j].items():
            if k in row:
                if e := (row[k] + q * yk) % big:
                    row[k] = e
                else:
                    del row[k]
                    index[k].discard(i)
            elif e := q * yk % big:
                row[k] = e
                index[k].add(i)
        if tails[j]:
            axpy(tails[i], tails[j], q)

    def row_pair(i, j, *coeffs):
        for r in (i, j):
            for k in rows[r]:
                index[k].discard(r)
        rows[i], rows[j] = pair(rows[i], rows[j], *coeffs)
        tails[i], tails[j] = pair(tails[i], tails[j], *coeffs)
        for r in (i, j):
            for k in rows[r]:
                index[k].add(r)

    def col_pair(i, j, s, u, w, z):
        for r in index[i] | index[j]:
            row = rows[r]
            x, y = row.get(i, 0), row.get(j, 0)
            for k, e in ((i, (s * x + u * y) % big), (j, (w * x + z * y) % big)):
                if e:
                    row[k] = e
                    index[k].add(r)
                else:
                    row.pop(k, None)
                    index[k].discard(r)
        vt[i], vt[j] = pair(vt[i], vt[j], s, u, w, z)
        if inverse:
            vi[i], vi[j] = pair(vi[i], vi[j], z, -w, -u, s)

    pivots = []
    first = 0
    while True:
        while first < n and not index[first]:
            first += 1
        c = first
        units = [i for i in index[c] if math.gcd(rows[i][c], big) == 1] if c < n else []
        if units:
            r = min(units, key=lambda i: (len(rows[i]), i))
        else:
            best = min(((math.gcd(x, big), len(row), i, j) for i, row in enumerate(rows)
                        for j, x in row.items()), default=None)
            if best is None:
                break
            _, _, r, c = best
        settled = False
        while not settled:
            p = rows[r][c]
            g = math.gcd(p, big)
            unit = pow(p // g, -1, big // g)  # x // g * unit * p == x (mod N)
            for i in list(index[c]):
                if i == r:
                    continue
                x = rows[i][c]
                if x % g == 0:
                    row_add(i, r, -(x // g) * unit)
                else:
                    e, s, u = _xgcd(p, x)
                    row_pair(r, i, s, u, -x // e, p // e)
                    p = e
                    g = math.gcd(p, big)
                    unit = pow(p // g, -1, big // g)
            # column c is clear but for the pivot, so clearing row r by a
            # column operation changes only row r and V
            settled = True
            row = rows[r]
            for j, x in list(row.items()):
                if j == c:
                    continue
                if x % g == 0:
                    del row[j]
                    index[j].discard(r)
                    q = -(x // g) * unit
                    axpy(vt[j], vt[c], q)
                    if inverse:
                        axpy(vi[c], vi[j], -q)
                else:
                    e, s, u = _xgcd(p, x)
                    col_pair(c, j, s, u, -x // e, p // e)
                    settled = False
                    break
            if settled and g > 1:
                bad = next((i for i, row in enumerate(rows)
                            if any(x % g for x in row.values())), None)
                if bad is not None:
                    row_add(r, bad, 1)
                    settled = False
        pivots.append((r, c, rows[r][c]))
        rows[r] = {}
        index[c].clear()

    order = [r for r, _, _ in pivots]
    order += sorted(set(range(len(a))) - set(order))
    perm = [c for _, c, _ in pivots]
    perm += sorted(set(range(n)) - set(perm))
    return ([p for _, _, p in pivots], [tails[r] for r in order], [vt[c] for c in perm],
            [vi[c] for c in perm] if inverse else None, big)


def _solve_modulo(a: Matrix, rhs: list, moduli: list, n: int):
    """Solve a @ x = b modulo per-row moduli, all nonzero, for every
    column b of rhs (a list of columns), returning one x or None for each.
    The right-hand sides ride along as columns n, n + 1, ... of one local
    Smith form U a V = D; y_t solves d_t y_t = (U b)_t modulo N (solvable
    iff gcd(d_t, N) divides it; rows past the rank need (U b)_t = 0), and
    x = V y."""
    pivots, tails, vt, _, big = _diagonalize_modulo(
        [row + [b[i] for b in rhs] for i, row in enumerate(a)], moduli, n)
    out = []
    for c in range(n, n + len(rhs)):
        x = [0] * n
        for t, tail in enumerate(tails):
            # a zero pivot has gcd N with N, which divides b only if b = 0
            p, b = (pivots[t] if t < len(pivots) else 0), tail.get(c, 0)
            g = math.gcd(p, big)
            if b % g:
                x = None
                break
            y = b // g * pow(p // g, -1, big // g) % (big // g) if p else 0
            if y:
                for k, v in vt[t].items():
                    x[k] = (x[k] + y * v) % big
        out.append(x)
    return out


def solve_with_moduli(a: Matrix, b: list, moduli: list, cols: int = None):
    """Solve a @ x = b modulo per-row moduli over Z/N by `_solve_modulo`.
    Returns x or None.  Every modulus must be nonzero; a free (0) one
    raises ValueError."""
    if not all(moduli):
        raise ValueError("solve_with_moduli needs nonzero moduli")
    return _solve_modulo(a, [b], moduli, len(a[0]) if a else (cols or 0))[0]


def cokernel_modulo(gens: list, ambient: int, big: int):
    """Structure of Z^ambient / (<gens> + big*Z^ambient), as
    cokernel_structure returns it (here every factor divides big).

    With the gens as the rows of G, one local Smith form U G V = D over
    Z/big makes x -> V^T x map the quotient onto the sum of Z/gcd(d_i, big),
    a divisibility chain (a coordinate past the rank is Z/big).  proj keeps
    the rows of V^T whose factor is not 1, and lift column i is the row of
    V^-1 at proj's row i: (V^T)^-1 = (V^-1)^T, so proj @ lift is the
    identity modulo big.
    """
    pivots, _, vt, vi, _ = _diagonalize_modulo(gens, [big] * len(gens), ambient, inverse=True)
    moduli = [math.gcd(p, big) for p in pivots] + [big] * (ambient - len(pivots))
    keep = [i for i, md in enumerate(moduli) if md != 1]
    proj = [[vt[i].get(r, 0) for r in range(ambient)] for i in keep]
    lift = [[vi[i].get(r, 0) for i in keep] for r in range(ambient)]
    return [moduli[i] for i in keep], proj, lift


def kernel_quotient(a: Matrix, moduli: list, gens: list, rel_moduli: list):
    """(W + N Z^k) / R for the lattice W of x in Z^k with a @ x = 0 modulo
    per-row moduli, R spanned by the column vectors gens and by
    rel_moduli[i] * e_i (k = len(rel_moduli)), and N = lcm of rel_moduli,
    so that R contains N Z^k.  Every modulus and every relation must be
    nonzero; a free (0) one raises ValueError.

    Returns (factors, incl): the invariant factors of the quotient, a
    divisibility chain, and the k x len(factors) matrix that sends each
    quotient generator to a vector of W + N Z^k, reduced modulo N; or None
    when a generator of R lies outside W + N Z^k.

    One local Smith form U a V = D, with V^-1 tracked, runs modulo m = lcm
    of the row moduli and N (a zero row of modulus N joins a).  Let g_j =
    gcd(d_j, m), g_j = m past the rank, and h_j = gcd(m / g_j, N).  Then
    x -> y = V^-1 x modulo N maps (W + N Z^k) / N Z^k onto the sum of
    h_j Z/N Z.  Proof: U invertible modulo m makes x lie in W iff
    D V^-1 x = 0 modulo m, iff (V^-1 x)_j is a multiple of m / g_j modulo
    m; and (m / g_j) Z + N Z = h_j Z.  So V^-1 sends W + N Z^k into the
    sum.  Conversely, if y_j = (m / g_j) c_j + N b_j, then w = V c' with
    c'_j = (m / g_j) c_j lies in W, and V^-1 (x - w) = 0 modulo N gives
    x - w = V V^-1 (x - w) = 0 modulo N, V V^-1 being the identity modulo
    m.  Hence r lies in W + N Z^k iff h_j divides y_j for every j, and
    then z_j = y_j / h_j modulo N / h_j are its coordinates in the sum of
    Z/(N / h_j).  The quotient is that sum over the z of R, which
    `cokernel_modulo` reads over Z/N with the rows (N / h_j) e_j added; a
    coordinate with h_j = N is Z/1 and is dropped.  A relation d_i e_i with
    d_i = N has y = 0 and is skipped.  Each lift column w maps back to
    V (h_j w_j) modulo N.

    Two checks raise SelfCheckFailed, also under python -O: a @ x = 0 for
    each generator x = (m / g_j) V e_j of W with g_j < m (so a pivot read
    too coarse, or a corrupted column of V, shows), and V y = r modulo N
    for every relation used (so does a corrupted V^-1).
    """
    if not (all(moduli) and all(rel_moduli)):
        raise ValueError("kernel_quotient needs nonzero moduli and relations")
    k = len(rel_moduli)
    big = math.lcm(*rel_moduli)
    pivots, _, vt, vi, m = _diagonalize_modulo(list(a) + [[0] * k], list(moduli) + [big], k,
                                               inverse=True)
    scale = [m // math.gcd(p, m) for p in pivots] + [1] * (k - len(pivots))
    a_cols = [[] for _ in range(k)]
    for i, row in enumerate(a):
        for j in compress(range(k), row):
            a_cols[j].append((i, row[j]))
    for t, s in enumerate(scale):
        if s < m:
            image = {}
            for j, v in vt[t].items():
                for i, x in a_cols[j]:
                    image[i] = image.get(i, 0) + x * v
            if any(s * x % moduli[i] for i, x in image.items()):
                raise SelfCheckFailed("kernel_quotient: a generator (m / g_j) V e_j of W "
                                      "fails a @ x = 0")
    h = [math.gcd(s, big) for s in scale]
    vi_cols = [{} for _ in range(k)]
    for t, row in enumerate(vi):
        for j, x in row.items():
            vi_cols[j][t] = x
    rels = [{j: x for j, x in enumerate(r) if x} for r in gens]
    rels += [{i: d} for i, d in enumerate(rel_moduli) if d % big]
    keep = [t for t in range(k) if h[t] != big]
    at = {t: i for i, t in enumerate(keep)}
    rows = [[big // h[t] if i == at[t] else 0 for i in range(len(keep))]
            for t in keep if h[t] != 1]
    for r in rels:
        y = {}
        for j, x in r.items():
            for t, v in vi_cols[j].items():
                y[t] = y.get(t, 0) + x * v
        y = {t: e for t, yt in y.items() if (e := yt % big)}
        back = {}
        for t, yt in y.items():
            for j, v in vt[t].items():
                back[j] = back.get(j, 0) + yt * v
        if any((back.get(j, 0) - r.get(j, 0)) % big for j in back.keys() | r.keys()):
            raise SelfCheckFailed("kernel_quotient: V (V^-1 r) is not r modulo N")
        if any(yt % h[t] for t, yt in y.items()):
            return None
        z = [0] * len(keep)
        for t, yt in y.items():
            if t in at:
                z[at[t]] = yt // h[t]
        if any(z):
            rows.append(z)
    factors, _, lift = cokernel_modulo(rows, len(keep), big)
    incl = [[0] * len(factors) for _ in range(k)]
    for t, row in zip(keep, lift):
        for f, w in enumerate(row):
            if w := w * h[t] % big:
                for j, v in vt[t].items():
                    incl[j][f] = (incl[j][f] + w * v) % big
    return factors, incl


# -- integer reference: no runtime caller ---------------------------------

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


def solve_integer(a: Matrix, rhs: list, cols: int = None) -> list:
    """Solve a @ x = b over Z for every column b of rhs (a list of
    columns), returning one integer x or None for each.  One Smith normal
    form U a V = D serves them all: y_i solves d_i y_i = (U b)_i (rows
    past the rank need (U b)_i = 0), and x = V y."""
    n = len(a[0]) if a else (cols or 0)
    if not a:
        return [[0] * n for _ in rhs]
    u, _, d, v, _ = _snf_full(a, cols, track=("u", "v"))
    out = []
    for b in rhs:
        y = [0] * n
        for i, ub in enumerate(mat_vec(u, b)):
            di = d[i][i] if i < n else 0
            if di:
                y[i], ub = divmod(ub, di)
            if ub:
                y = None
                break
        out.append(None if y is None else mat_vec(v, y))
    return out


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
