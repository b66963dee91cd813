"""The Hermite route to W / R, kept as an oracle for `kernel_quotient`.

A triangular Hermite basis of the kernel lattice modulo N, the integer
coordinates of the relations in it by back substitution, and the
invariant factors of the coordinates by `cokernel_modulo`.  It reads the
generators of W off the same local Smith form, but no V^-1: each
relation is written in an integer basis, so it checks the coordinates
that `kernel_quotient` reads through V^-1.
"""

import math

from groupcoh import intlinalg as la


def hnf_modulo(gens: list, n: int, big: int) -> list:
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
                e, s, u = la._xgcd(h, x)
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


def kernel_with_moduli(a: list, moduli: list, cols: int = None) -> list:
    """A basis of the lattice L of x with a @ x = 0 modulo per-row moduli.
    Every modulus must be nonzero; a free (0) one raises ValueError.

    L contains N*Z^n (N = lcm of the moduli), and the local Smith form
    U a V = D spans it modulo N: column j of V times N/gcd(d_j, N), with
    d_j = 0 past the rank.  V is invertible only modulo N, so these are
    generators, not a basis ([2] modulo 5 spans 2Z); with N*Z^n they
    reduce to the Hermite normal form, an upper-triangular basis (vector j
    ends in entry j) whose diagonal product is [Z^n : L].
    """
    if not all(moduli):
        raise ValueError("kernel_with_moduli needs nonzero moduli")
    n = len(a[0]) if a else (cols or 0)
    pivots, _, vt, _, big = la._diagonalize_modulo(a, moduli, n)
    gens = []
    for j, col in enumerate(vt):
        scale = big // math.gcd(pivots[j] if j < len(pivots) else 0, big)
        if scale < big:
            gens.append([scale * col.get(i, 0) % big for i in range(n)])
    return hnf_modulo(gens, n, big)


def triangular_coordinates(basis: list, vecs: list):
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


def hermite_route(a: list, moduli: list, gens: list, rel_moduli: list):
    """W + N Z^k by the Hermite route: (basis, factors, proj, lift), with
    basis the Hermite basis of W modulo N (reduced again modulo N when N
    is no multiple of the row moduli) and (factors, proj, lift) the
    `cokernel_modulo` of every relation's coordinates in it; or None when
    a relation lies outside."""
    if not (all(moduli) and all(rel_moduli)):
        raise ValueError("kernel_quotient needs nonzero moduli and relations")
    k = len(rel_moduli)
    gens = list(gens) + [[d if r == i else 0 for r in range(k)] for i, d in enumerate(rel_moduli)]
    basis = kernel_with_moduli(a, moduli, cols=k)
    big = math.lcm(*rel_moduli)
    if big % math.lcm(*moduli):
        basis = hnf_modulo(basis, k, big)
    coords = triangular_coordinates(basis, gens)
    if coords is None:
        return None
    return (basis, *la.cokernel_modulo(coords, len(basis), big))


def hermite_kernel_quotient(a: list, moduli: list, gens: list, rel_moduli: list):
    """`kernel_quotient` by the Hermite route."""
    route = hermite_route(a, moduli, gens, rel_moduli)
    if route is None:
        return None
    basis, factors, _, lift = route
    columns = [list(col) for col in zip(*basis)] or [[] for _ in rel_moduli]
    return factors, la.mat_mul(columns, lift)
