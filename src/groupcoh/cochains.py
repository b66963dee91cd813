"""Normalized cochains, the coboundary operator, cohomology as cocycles
modulo coboundaries (over Z/N when the coefficients are finite), the
coboundary-equation solver, and the rational averaging homotopy.

A degree-n cochain stores a sparse mapping from n-tuples of non-identity
element indices to coefficient-module elements; tuples touching the
identity are not storable, which enforces normalization structurally.
Basis order for all tuple-indexed linear algebra is lexicographic on
element indices with the identity excluded, so assembled matrices (and
hence certificates) are reproducible.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str

from . import intlinalg as la
from .errors import DegreeMismatch, NotACocycle, ResourceLimit, SelfCheckFailed
from .groups import greedy_generators, json_object, tower_base_order
from .modules import GModule, invariants, torsion_submodule

DEFAULT_MAX_ENTRIES = 10_000_000


def max_entries_limit(override=None) -> int:
    """The resource ceiling: override when given, else COCYCLE_MAX_TUPLES
    when set, else DEFAULT_MAX_ENTRIES.  A COCYCLE_MAX_TUPLES that is not
    an integer >= 0 raises a ValueError naming the variable."""
    if override is not None:
        return override
    env = os.environ.get("COCYCLE_MAX_TUPLES")
    try:
        limit = int(env) if env else DEFAULT_MAX_ENTRIES
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(f"COCYCLE_MAX_TUPLES is {env!r}, expected an integer >= 0")
    return limit


def check_entries(stage: str, count: int, max_entries=None, formula="") -> None:
    """The one resource gate: ResourceLimit("<stage> needs <formula><count>
    entries (limit L)"), with stage, count and L as its attributes, when
    count exceeds L = `max_entries_limit`.  Every caller works count out
    from sizes before it allocates anything count bounds."""
    limit = max_entries_limit(max_entries)
    if count > limit:
        raise ResourceLimit(f"{stage} needs {formula}{count} entries (limit {limit})",
                            stage=stage, count=count, limit=limit)


def nonid_tuples(order: int, n: int, firsts=None):
    """All n-tuples of non-identity element indices, lexicographic; with
    firsts (non-identity indices, n >= 1) only those whose first element is
    in firsts."""
    if firsts is None:
        return itertools.product(range(1, order), repeat=n)
    return itertools.product(sorted(firsts), *[range(1, order)] * (n - 1))


class Cochain:
    def __init__(self, group, coeffs: GModule, degree: int, values=None):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.group = group
        self.coeffs = coeffs
        self.degree = degree
        vals = {}
        for tup, v in (values or {}).items():
            tup = tuple(tup)
            if len(tup) != degree:
                raise DegreeMismatch(f"tuple {tup} has wrong length for degree {degree}")
            if 0 in tup:
                raise ValueError(f"tuple {tup} touches the identity")
            v = coeffs.reduce(v)
            if not coeffs.is_zero(v):
                vals[tup] = v
        self.values = vals

    @classmethod
    def _from_reduced(cls, group, coeffs, degree, values) -> "Cochain":
        """The cochain storing values as given, with no check: for data the
        program built itself.  The caller guarantees that every tuple has
        length degree and no 0 in it, and that every value is reduced in
        coeffs and nonzero (a stored zero would break __eq__, which
        compares the values dicts).  Everything read from input takes
        __init__."""
        f = cls.__new__(cls)
        f.group, f.coeffs, f.degree, f.values = group, coeffs, degree, values
        return f

    def __call__(self, tup) -> tuple:
        return self.evaluate(tup)

    def evaluate(self, tup) -> tuple:
        tup = tuple(tup)
        if len(tup) != self.degree:
            raise DegreeMismatch(
                f"expected a {self.degree}-tuple, got {len(tup)} entries"
            )
        if 0 in tup:
            return self.coeffs.zero()
        return self.values.get(tup, self.coeffs.zero())

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.degree == other.degree
            and self.values == other.values
        )

    def __repr__(self):
        return f"Cochain(degree={self.degree}, support={len(self.values)})"


def zero_cochain(group, coeffs, degree) -> Cochain:
    return Cochain(group, coeffs, degree)


def cochain_from_function(group, coeffs, degree, fn) -> Cochain:
    """The cochain with value fn(t) at every non-identity tuple t; reduced
    by coeffs.reduce, and the zeros dropped."""
    vals = {}
    for tup in nonid_tuples(group.order, degree):
        v = coeffs.reduce(fn(tup))
        if not coeffs.is_zero(v):
            vals[tup] = v
    return Cochain._from_reduced(group, coeffs, degree, vals)


def add_cochains(f: Cochain, g: Cochain) -> Cochain:
    """f + g in f's coefficients; m.add reduces every sum it makes, and
    the zero sums are dropped."""
    if f.degree != g.degree:
        raise DegreeMismatch("cannot add cochains of different degrees")
    m = f.coeffs
    vals = dict(f.values)
    for tup, v in g.values.items():
        w = m.add(vals.get(tup, m.zero()), v)
        if m.is_zero(w):
            vals.pop(tup, None)
        else:
            vals[tup] = w
    return Cochain._from_reduced(f.group, m, f.degree, vals)


def neg_cochain(f: Cochain) -> Cochain:
    """-f; m.neg of a reduced nonzero value is reduced and nonzero."""
    m = f.coeffs
    return Cochain._from_reduced(f.group, m, f.degree,
                                 {t: m.neg(v) for t, v in f.values.items()})


def sub_cochains(f: Cochain, g: Cochain) -> Cochain:
    return add_cochains(f, neg_cochain(g))


def scale_cochain(n: int, f: Cochain) -> Cochain:
    """n f; m.scale reduces every product, and the zero ones are dropped."""
    m = f.coeffs
    vals = {}
    for t, v in f.values.items():
        w = m.scale(n, v)
        if not m.is_zero(w):
            vals[t] = w
    return Cochain._from_reduced(f.group, m, f.degree, vals)


def map_coefficients(f: Cochain, matrix, target: GModule) -> Cochain:
    """matrix applied to every value of f; target.reduce reduces each
    image, and the zero ones are dropped."""
    vals = {}
    for tup, v in f.values.items():
        w = target.reduce(la.mat_vec(matrix, v))
        if not target.is_zero(w):
            vals[tup] = w
    return Cochain._from_reduced(f.group, target, f.degree, vals)


def divide_cochain(f: Cochain, q: int) -> Cochain:
    """f / q, exact, for q >= 1 (every caller divides by |G| or |G| e): a
    reduced value 0 <= x < d gives 0 <= x/q < d, a free coordinate needs no
    reduction, and x != 0 gives x/q != 0, so the quotients are reduced and
    nonzero."""
    vals = {}
    for tup, v in f.values.items():
        out = []
        for x in v:
            d, r = divmod(x, q)
            if r:
                raise SelfCheckFailed(f"divide_cochain: value at {tup} is not divisible by {q}")
            out.append(d)
        vals[tup] = tuple(out)
    return Cochain._from_reduced(f.group, f.coeffs, f.degree, vals)


def coboundary_value(f: Cochain, tup) -> tuple:
    """(delta f)(tup) by the standard alternating-sum formula, one tuple at
    a time: the reference for the row-wise `delta_rows`, and the evaluator
    of the textbook spot-check in `trivialize_torsion`."""
    g = f.group
    m = f.coeffs
    n = f.degree
    out = m.act(tup[0], f.evaluate(tup[1:]))
    sign = -1
    for i in range(1, n + 1):
        merged = tup[: i - 1] + (g.mul(tup[i - 1], tup[i]),) + tup[i + 1 :]
        if 0 not in merged:
            term = f.evaluate(merged)
            out = m.add(out, m.scale(sign, term))
        sign = -sign
    out = m.add(out, m.scale(sign, f.evaluate(tup[:n])))
    return out


def _act(mat, row):
    """mat . row, column by column, on coordinate-major rows."""
    out = []
    for mrow in mat:
        col = [0] * len(row[0])
        for a, r in zip(mrow, row):
            if a:
                col = [x + a * y for x, y in zip(col, r)]
        out.append(col)
    return out


def _prefix_rows(f: Cochain) -> dict:
    """{u: row} for every (n-1)-prefix u of f's support (n = f.degree >=
    1), where row[c][j] is coordinate c of f(u, j) for every element j."""
    order, dim = f.group.order, f.coeffs.dim
    rows = {}
    for tup, v in f.values.items():
        row = rows.get(tup[:-1])
        if row is None:
            row = rows[tup[:-1]] = [[0] * order for _ in range(dim)]
        for r, x in zip(row, v):
            r[tup[-1]] = x
    return rows


def delta_rows(f: Cochain, firsts=None):
    """(t, row) for each n-prefix t (n = f.degree) where delta f can be
    nonzero, lexicographically, where row[c][j] is coordinate c of (delta
    f)(t, j) for every element j: plain ints, reduced modulo each torsion
    factor and unreduced on a free one.  Every other row of W, the
    n-prefixes of non-identity elements whose first element is in firsts
    when given (n >= 1), is zero; the zero cochain yields no row.

    The rows are scattered from f's support.  Each (n-1)-prefix u of it,
    with r = f(u, .), adds s . r to row (s,) + u for every first slot s,
    (-1)^i r to each row u[:i-1] + (a, b) + u[i:] with ab = u_i and a, b !=
    e, the pairs (u_i b^-1, b) read from group.inverses() and
    group.mul_row(u_i), and then, in a pass that reduces each row, (-1)^n
    (r[t_n j] - r[t_n]) to row u + (t_n,) through group.mul_row(t_n).
    Each table row is fetched once and held until the generator ends, so
    no term calls group.mul.  The cost is about |supp f| n |G| row
    additions, not the |W| n of reading every row of W.  The touched rows
    are held until yielded, and may share lists with each other and with
    f's rows, so callers must not modify them.  Degree 0 is the single row
    j . f() - f()."""
    group, m, n = f.group, f.coeffs, f.degree
    order, factors = group.order, m.factors
    if not f.values:
        return
    if n == 0:
        v = f.evaluate(())
        images = [m.act(j, v) for j in range(order)]
        yield (), [[(w[c] - x) % d if d else w[c] - x for w in images]
                   for c, (x, d) in enumerate(zip(v, factors))]
        return
    heads = sorted(firsts) if firsts is not None else range(1, order)
    inside = set(heads)
    ident = tuple(map(tuple, la.identity_matrix(m.dim)))
    actions = [(s, None if m.action[s] == ident else m.action[s]) for s in heads]
    inverse = group.inverses() if n > 1 else None
    product = functools.lru_cache(maxsize=None)(group.mul_row)  # each row fetched once
    pairs, acc = {}, {}
    rows = _prefix_rows(f)
    negs = {u: [[-x for x in c] for c in r] for u, r in rows.items()}
    for u, r in rows.items():
        terms = [((s,) + u, r if mat is None else _act(mat, r)) for s, mat in actions]
        for i in range(n - 1):  # the merge of slots i, i + 1 of t into u_i
            if i and u[0] not in inside:
                break
            x = u[i]
            ps = pairs.get(x)
            if ps is None:
                xr = product(x)
                ps = pairs[x] = [(xr[inverse[b]], b) for b in range(1, order) if b != x]
            term, head, tail = negs[u] if i % 2 == 0 else r, u[:i], u[i + 1:]
            terms += [(head + (a, b) + tail, term) for a, b in ps if i or a in inside]
        for t, term in terms:
            a = acc.get(t)
            acc[t] = term if a is None else [[x + y for x, y in zip(p, q)]
                                             for p, q in zip(a, term)]
    # (-1)^n f(u, t_n j), and the constant -(-1)^n f(u, t_n)
    signed = [(u, negs[u] if n % 2 else r) for u, r in rows.items() if n == 1 or u[0] in inside]
    out, zero_row = {}, [[0] * order for _ in factors]
    for tn in (heads if n == 1 else range(1, order)) if signed else ():
        p = product(tn)
        for u, h_rows in signed:
            t = u + (tn,)
            out[t] = [[(x + h[j] - v) % d for x, j in zip(a, p)] if d
                      else [x + h[j] - v for x, j in zip(a, p)]
                      for a, h, v, d in zip(acc.pop(t, zero_row), h_rows,
                                            [h[tn] for h in h_rows], factors)]
    for t, a in acc.items():
        out[t] = [[x % d for x in c] if d else c for c, d in zip(a, factors)]
    for t in sorted(out):
        yield t, out[t]


def coboundary(f: Cochain, max_entries=None) -> Cochain:
    """delta f, from the rows `delta_rows` touches (every other row is
    zero), which are reduced modulo each torsion factor; the zero values
    and the column of the identity (zero, as delta f is normalized) are not
    stored.  Gated on the (|G|-1)^n |G| dim M entries of all n-prefix
    rows, which bound the touched rows held at once."""
    order = f.group.order
    check_entries("coboundary", (order - 1) ** f.degree * order * f.coeffs.dim, max_entries)
    vals = {}
    for t, row in delta_rows(f):
        if any(map(any, row)):
            for j, v in enumerate(zip(*row)):
                if j and any(v):
                    vals[t + (j,)] = v
    return Cochain._from_reduced(f.group, f.coeffs, f.degree + 1, vals)


def coboundary_defect(x: Cochain, f: Cochain = None, firsts=None, max_entries=None):
    """The lexicographically first tuple where delta x differs from f o pi,
    or None when every row of W agrees.  The one comparison of a
    coboundary with a cochain: every cocycle check and delta x = f check is
    this loop.

    W holds the n-prefixes t of non-identity elements (n = x.degree), row t
    holding (delta x)(t, j) for every element j.  Only the rows
    `delta_rows(x, firsts)` touches and those where f(pi t, pi j) is
    nonzero can differ; their sorted union is walked, each row compared in
    one step.  f is zero when None (the cocycle check).  f lives on x's
    group, and pi is the identity, or on a base G of x's tower of
    extensions (`tower_base_order`), and pi is the projection i -> i mod
    |G|: the fibre of v is range(v, |x.group|, |G|), and a row of f is
    repeated |x.group| / |G| times.  Both sides are reduced modulo each
    torsion factor and unreduced on a free one.

    With firsts = S = `greedy_generators(x.group)` W holds only the rows
    whose first slot lies in S.  That is sound only when F = delta x - f o
    pi is a normalized cocycle, which the caller must prove: then the g
    with F(g, ...) = 0 on every tuple form a subgroup (dF(s, y, ...) = 0
    gives F(sy, ...) = s . F(y, ...) for s in it), the first row outside
    it is a generator (see `greedy_generators`), and so the rows of S pass
    exactly when every row does, and their first failing tuple is the
    lexicographically first (Brown, Cohomology of Groups, III.1).  delta x
    is a normalized cocycle when the group is associative and the action a
    homomorphism; f o pi is one when f is, pi being a homomorphism.

    max_entries, when not None, bounds the entries of W's rows (|G| dim M
    per row) as `coboundary` bounds its own, with the same ResourceLimit
    message; the rows held at once are rows of W, so it bounds them too."""
    group, k, n = x.group, x.coeffs.dim, x.degree
    order = group.order
    heads = sorted(firsts) if firsts is not None and n else range(1, order)
    if max_entries is not None:
        size = len(heads) * (order - 1) ** (n - 1) if n else 1
        check_entries("coboundary", size * order * k, max_entries)
    lhs = dict(delta_rows(x, firsts))
    rhs = {}
    if f is not None:
        f_rows = _prefix_rows(f)
        if f.group is group:
            inside = set(heads)
            rhs = {u: row for u, row in f_rows.items() if not n or u[0] in inside}
        else:  # the first slot from heads, the others from pi's fibres
            ng = tower_base_order(group, f.group)
            firsts_over = {}
            for s in heads:
                firsts_over.setdefault(s % ng, []).append(s)
            for u, rows in f_rows.items():
                slots = ([firsts_over.get(v, ()) for v in u[:1]]
                         + [range(v, order, ng) for v in u[1:]])
                rhs.update(dict.fromkeys(itertools.product(*slots),
                                         [r * (order // ng) for r in rows]))
    zero = [[0] * order for _ in range(k)]
    # lhs is sorted; on a pass f o pi is nonzero only on rows delta x touches
    for t in lhs if rhs.keys() <= lhs.keys() else sorted(lhs.keys() | rhs.keys()):
        row, want = lhs.get(t, zero), rhs.get(t, zero)
        if row != want:
            return t + (next(j for j, (v, w) in enumerate(zip(zip(*row), zip(*want))) if v != w),)
    return None


def first_cocycle_defect(f: Cochain):
    """The lexicographically first tuple where delta f is nonzero, or None
    when f is a cocycle.

    The zero cochain is a cocycle.  Degree 0 has the single row of delta f.
    In degree n >= 1 `coboundary_defect` walks only the rows of delta f
    whose first slot lies in S = `greedy_generators`: delta f is a
    normalized (n+1)-cocycle, as delta delta = 0 once the group is
    associative and the action a homomorphism; every caller has proved
    both (tables and modules are validated at load, an extension cocycle
    before the extension is built).  It is the cocycle test every delta x
    = f check with generator rows rests on, and a non-cocycle omega fails
    delta alpha = pi^* omega on it alone (see `_verify_degree2_indexed`)."""
    if not f.values:
        return None
    return coboundary_defect(f, firsts=greedy_generators(f.group) if f.degree >= 1 else None)


def is_cocycle(f: Cochain) -> bool:
    return first_cocycle_defect(f) is None


# -- tuple-indexed linear algebra -----------------------------------------


def coboundary_matrix(group, module: GModule, n: int, max_entries=None, firsts=None):
    """Integer matrix of delta_n : C^n -> C^{n+1} over the tuple basis.

    Returns (matrix, domain_tuples, target_tuples); rows and columns are
    blocked by tuple then coefficient coordinate.  With firsts, only the
    rows of the target tuples whose first element is in firsts are built
    (`nonid_tuples`), and the resource gate counts those rows before it
    lists any tuple.
    """
    k = module.dim
    order = group.order
    cols = (order - 1) ** n * k
    rows = (order - 1 if firsts is None else len(firsts)) * cols
    check_entries("coboundary matrix", rows * cols, max_entries)
    dom = [()] if n == 0 else list(nonid_tuples(order, n))
    tgt = list(nonid_tuples(order, n + 1, firsts))
    dom_idx = {t: i for i, t in enumerate(dom)}
    mat = la.zeros(rows, cols)
    for ti, tup in enumerate(tgt):
        base = ti * k
        rho = module.action[tup[0]]
        rest = tup[1:]
        if rest in dom_idx:
            cbase = dom_idx[rest] * k
            for r in range(k):
                row = mat[base + r]
                for c in range(k):
                    row[cbase + c] += rho[r][c]
        sign = -1
        for i in range(1, n + 1):
            merged = tup[: i - 1] + (group.mul(tup[i - 1], tup[i]),) + tup[i + 1 :]
            if 0 not in merged:
                cbase = dom_idx[merged] * k
                for r in range(k):
                    mat[base + r][cbase + r] += sign
            sign = -sign
        prefix = tup[:n]
        if prefix in dom_idx:
            cbase = dom_idx[prefix] * k
            for r in range(k):
                mat[base + r][cbase + r] += sign
    return mat, dom, tgt


def _cochain_vector(f: Cochain, tuples) -> list:
    out = []
    for tup in tuples:
        out.extend(f.evaluate(tup))
    return out


def _vector_cochain(group, module, degree, tuples, vec) -> Cochain:
    k = module.dim
    vals = {}
    for i, tup in enumerate(tuples):
        v = vec[i * k : (i + 1) * k]
        if degree == 0:
            vals[()] = v
        else:
            vals[tup] = v
    return Cochain(group, module, degree, vals)


def solve_coboundary(f: Cochain, max_entries=None):
    """A cochain x with delta x = f exactly, or None when f is not a
    coboundary (decided constructively over the tuple basis).

    Let e be the exponent of the torsion submodule M_T and N = |G| e.  The
    solve comes first: one solve over M/NM (each free factor taken modulo
    N) on the rows of delta_{n-1} whose first slot lies in S =
    `greedy_generators`.  A coboundary f = delta x solves every row, so an
    unsolvable system proves f no coboundary, cocycle or not.  Otherwise
    it gives y with delta y = f modulo NM on those rows.  When f is a
    cocycle, delta y - f modulo N is a normalized cocycle of M/NM that
    vanishes on those rows, hence zero (see `greedy_generators`), so
    |S| (|G|-1)^(n-1) dim M rows decide what all (|G|-1)^n dim M rows
    would.

    On a torsion module NM = 0 and x = y, accepted by `coboundary_defect`
    of x against f on every row alone.  Only when that check fails is f
    tested for the cocycle condition: a non-cocycle is no coboundary
    (None), while on a cocycle delta x - f would be a cocycle vanishing on
    the S-rows, so the solver is at fault (SelfCheckFailed).

    On a module with a free factor f must be a cocycle before the lattice
    correction (a non-cocycle gives None): f - delta y = N s(u), s the
    basis-aligned section of M -> M/M_T, and as e s and N s are G-maps (e
    kills M_T), delta f = N s(delta u), so u is a cocycle of the lattice
    M/M_T.  The averaging homotopy then gives delta h = |G| u, and x = y +
    e s(h) has delta x = delta y + N s(u) = f, which is checked on every
    tuple."""
    n = f.degree
    if n < 1:
        raise ValueError("cannot solve below degree 1")
    group, module = f.group, f.coeffs
    mat, dom, tgt = coboundary_matrix(group, module, n - 1, max_entries,
                                      firsts=greedy_generators(group))
    exponent = math.lcm(*filter(None, module.factors))
    big = group.order * exponent
    moduli = [d or big for _ in tgt for d in module.factors]
    x = la.solve_with_moduli(mat, _cochain_vector(f, tgt), moduli, cols=len(dom) * module.dim)
    if x is None:
        return None
    sol = _vector_cochain(group, module, n - 1, dom, x)
    if not module.is_torsion:
        if first_cocycle_defect(f) is not None:
            return None
        _, _, pmap, smap = torsion_submodule(module)
        u = divide_cochain(map_coefficients(sub_cochains(f, coboundary(sol)), pmap.matrix,
                                            pmap.target), big)
        try:
            h = averaging_homotopy(u).numerator
        except NotACocycle as exc:
            raise SelfCheckFailed("solve_coboundary: (f - delta y) / N is no cocycle of "
                                  "M/M_T, though f is a cocycle") from exc
        sol = add_cochains(sol, map_coefficients(scale_cochain(exponent, h), smap.matrix,
                                                 module))
    if coboundary_defect(sol, f) is not None:
        if module.is_torsion and first_cocycle_defect(f) is not None:
            return None
        raise SelfCheckFailed("solve_coboundary: the solution x does not satisfy delta x = f")
    return sol


def cohomology(group, module: GModule, n: int, max_entries=None) -> list:
    """Invariant factors of H^n(G; M) (0 denotes a free summand).

    On a lattice M (every factor 0) and n >= 1 they are read off one local
    Smith form of delta_{n-1} alone (`_lattice_cohomology`).  Otherwise, for
    n >= 1, H^n = W / R over Z/N by `intlinalg.kernel_quotient`, with e the
    exponent of the torsion part M_T, N = |G| e, m = |G| N, C_F the free
    coordinates of C^n, W the x with delta_n x = 0 modulo d_i on torsion
    rows and m on free ones, plus N C_F, and R = im delta_{n-1} + N C_F +
    the relations d_i e_i; on a torsion module C_F is empty.  With s the
    basis-aligned section of M -> L = M/M_T, e s is a G-map.  A cocycle b +
    N s(c) has delta_L c = 0, so |G| c = delta_L h (Brown, Cohomology of
    Groups, III.10) and N s(c) = delta(e s(h)): H^n = (Z^n + N C^n) /
    (B^n + N C^n).  If delta x = m s(v), then |G| v = delta_L h and
    x - N s(h) is a cocycle, so Z^n + N C^n = W; and N C^n = N C_F.  For
    n >= 1, |G| kills H^n, so every factor is checked to divide |G|.

    W is cut out by the rows of delta_n whose first slot lies in S =
    `greedy_generators` alone.  The torsion columns of rho(g) have zero
    free rows, so M/mM is a G-module, and delta x reduced modulo d_i and m
    is a normalized cocycle of M/mM; one that vanishes on its S-rows is
    zero (see `greedy_generators`).

    H^0 = M^G takes no elimination over Z.  M^G is finitely generated, its
    torsion subgroup is M^G meet M_T = (M_T)^G, and its rank is
    dim_Q (M (x) Q)^G = dim_Q ((M/M_T) (x) Q)^G = r_0 = sum_g tr rho_F(g) /
    |G| (the character formula; Serre, Linear Representations of Finite
    Groups, 2.3), where rho_F is the free block of the action: the torsion
    columns have zero free rows, so rho_F is the action on M/M_T.  Hence
    M^G = Z^{r_0} + (M_T)^G, and (M_T)^G is read over Z/N by `invariants`.
    |G| must divide the trace sum and 0 <= r_0 <= dim M/M_T."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        torsion, _, pmap, _ = torsion_submodule(module)
        free = pmap.target
        trace = _trace_sum(free)
        rank = trace // group.order
        if trace != rank * group.order or not 0 <= rank <= free.dim:
            raise SelfCheckFailed(f"cohomology: the character sum {trace} of M/M_T is not "
                                  f"|G| = {group.order} times a rank in [0, {free.dim}]")
        inv, _ = invariants(torsion)
        return list(inv.factors) + [0] * rank
    if group.order == 1 or not module.dim:
        return []
    if not any(module.factors):
        factors = _lattice_cohomology(group, module, n, max_entries)
    else:
        big = group.order * math.lcm(*filter(None, module.factors))
        dmat, cur, tgt = coboundary_matrix(group, module, n, max_entries,
                                           firsts=greedy_generators(group))
        prev_mat, _, _ = coboundary_matrix(group, module, n - 1, max_entries)
        images = [list(col) for col in zip(*prev_mat) if any(col)]
        quotient = la.kernel_quotient(
            dmat, [d or group.order * big for _ in tgt for d in module.factors], images,
            [d or big for _ in cur for d in module.factors])
        if quotient is None:
            raise SelfCheckFailed("cohomology: a coboundary lies outside the cocycle lattice")
        factors, _ = quotient
    if any(not p or group.order % p for p in factors):
        raise SelfCheckFailed(f"cohomology: an invariant factor of {factors} does not "
                              f"divide |G| = {group.order}")
    return factors


def _trace_sum(module: GModule) -> int:
    """sum_g tr rho(g): |G| times the rank of M^G over Q (the character
    formula)."""
    return sum(mat[i][i] for mat in module.action for i in range(module.dim))


def _rational_rank(module: GModule, n: int) -> int:
    """|G| times the rank of delta_n over Q, independent of any Smith
    form: rank delta_0 = k - r_0 with r_0 = `_trace_sum` / |G| the rank of
    M^G, and rank delta_j = dim C^j - rank delta_{j-1}, as the rational
    complex is exact in degrees >= 1.  Kept multiplied by |G|, so no
    division is taken on trust."""
    order, k = module.group.order, module.dim
    rank = k * order - _trace_sum(module)
    for j in range(1, n + 1):
        rank = k * (order - 1) ** j * order - rank
    return rank


def _lattice_cohomology(group, module: GModule, n: int, max_entries=None) -> list:
    """H^n(G; M) for a lattice M and n >= 1, from delta_{n-1} alone.

    C^n / Z^n embeds in C^{n+1}, so it is free, and H^n = Z^n / B^n is
    finite, killed by |G| (Brown, Cohomology of Groups, III.10).  So H^n is
    the torsion of coker delta_{n-1}: the invariant factors d_i of
    delta_{n-1} that are neither 0 nor 1, each dividing |G|.  Over Z/m
    with m = |G|^2, the local Smith form gives gcd(d_i, m), which is d_i
    itself for those and m for a zero factor past the rank.  The number of
    pivots below m must be the rank of delta_{n-1} over Q; `cohomology`
    checks that every kept factor divides |G|."""
    order = group.order
    big = order * order
    mat, dom, _ = coboundary_matrix(group, module, n - 1, max_entries)
    cols = len(dom) * module.dim
    pivots, _, _, _, _ = la._diagonalize_modulo(mat, [big] * len(mat), cols)
    pivots = [math.gcd(p, big) for p in pivots]
    if sum(p < big for p in pivots) * order != _rational_rank(module, n - 1):
        raise SelfCheckFailed(f"cohomology: the local Smith form of delta_{n - 1} modulo "
                              f"{big} misses its rational rank")
    return [p for p in pivots if 1 < p < big]


# -- rational cochains and the averaging homotopy --------------------------


@dataclass
class RationalCochain:
    """numerator / denominator, with an integer-valued numerator cochain."""

    numerator: Cochain
    denominator: int

    def evaluate(self, tup):
        return self.numerator.evaluate(tup)


def averaging_homotopy(f: Cochain) -> RationalCochain:
    """For a cocycle f of degree n >= 1 with free coefficients, the
    transfer-style primitive h with delta h = f over (1/|G|) Z^r:
    h(g_1..g_{n-1}) = (-1)^n / |G| * sum_g f(g_1..g_{n-1}, g), the sums
    read from f's support, so only its (n-1)-prefixes get a value.
    """
    module = f.coeffs
    if any(d != 0 for d in module.factors):
        raise ValueError("averaging homotopy needs free coefficients")
    n = f.degree
    if n < 1:
        raise ValueError("degree must be >= 1")
    defect = first_cocycle_defect(f)
    if defect is not None:
        raise NotACocycle("averaging homotopy input must be a cocycle", witness=defect)
    group = f.group
    sign = 1 if n % 2 == 0 else -1
    sums = {}  # sum_g f(u, g) over the (n-1)-prefixes u of f's support, in order
    for tup, v in sorted(f.values.items()):
        sums[tup[:-1]] = module.add(sums.get(tup[:-1], module.zero()), v)
    num = Cochain._from_reduced(group, module, n - 1, {
        u: module.scale(sign, v) for u, v in sums.items() if not module.is_zero(v)})
    # delta num - |G| f is a normalized cocycle, f being one: generator rows
    if coboundary_defect(num, scale_cochain(group.order, f),
                         firsts=greedy_generators(group)) is not None:
        raise SelfCheckFailed("averaging_homotopy: delta h differs from |G| f")
    return RationalCochain(num, group.order)


# -- serialization ---------------------------------------------------------


def cochain_to_json(f: Cochain) -> dict:
    labels = f.group.elements
    entries = []
    for tup in sorted(f.values):
        entries.append(
            {"tuple": [labels[i] for i in tup], "value": list(f.values[tup])}
        )
    return {"degree": f.degree, "values": entries}


class MatrixForm:
    """A cochain over a HomModule Hom(A, M), for `write_json` to write in
    the form trivialize's `_witness_to_json` gives it: each value as the
    list of images of A's basis vectors, under "matrix"."""

    def __init__(self, cochain: Cochain):
        self.cochain = cochain


def write_json(write, value, ind="\n") -> None:
    """Write value, whose dict keys are strings, through write(str) as the
    bytes of json.dump(value, fh, sort_keys=True, indent=1); ind is a
    newline and the indentation of the line value starts on.  A Cochain in
    value is written as its `cochain_to_json` dict would be, a MatrixForm
    as its "matrix" dict, entry by entry (see `_write_cochain`): neither
    dict nor the whole text is ever built."""
    if isinstance(value, Cochain):
        _write_cochain(write, value, ind)
    elif isinstance(value, MatrixForm):
        _write_cochain(write, value.cochain, ind, matrix=True)
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = ind + " "
        sep = "{" + inner
        for key in sorted(value):
            write(sep + _encode_str(key) + ": ")
            write_json(write, value[key], inner)
            sep = "," + inner
        write(ind + "}")
    elif isinstance(value, (list, tuple)):
        if all(type(x) is int for x in value):
            write(_int_list(value, ind))
            return
        inner = ind + " "
        sep = "[" + inner
        for x in value:
            write(sep)
            write_json(write, x, inner)
            sep = "," + inner
        write(ind + "]")
    elif isinstance(value, str):
        write(_encode_str(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        write(int.__repr__(value))
    else:
        # None, a bool, a float, or json's TypeError for anything else
        write(json.dumps(value))


def _int_list(xs, ind: str) -> str:
    """A list of ints as indent-1 JSON, its items one level below ind."""
    if not xs:
        return "[]"
    inner = ind + " "
    return "[" + inner + ("," + inner).join(map(int.__repr__, xs)) + ind + "]"


def _write_cochain(write, f: Cochain, ind: str, matrix=False, chunk=256) -> None:
    """`write_json` of cochain_to_json(f), or with matrix of f's "matrix"
    dict: the entries in sorted tuple order, chunk of them per write, each
    element label encoded once and each distinct value once per chunk."""
    i1 = ind + " "
    i2, i3, i4 = i1 + " ", i1 + "  ", i1 + "   "
    write("{" + i1 + '"degree": ' + int.__repr__(f.degree) + "," + i1 + '"values": ')
    if not f.values:
        write("[]" + ind + "}")
        return
    labels = [i4 + _encode_str(lbl) for lbl in f.group.elements]
    head, close, tail = i2 + "{" + i3, i3 + "]", i2 + "}"
    shown = {}

    def entry(tup, v):
        text = shown.get(v)
        if text is None:
            if matrix:
                rows = [_int_list(img, i4) for img in f.coeffs.images(v)]
                text = "[" + ",".join([i4 + row for row in rows]) + close if rows else "[]"
            else:
                text = _int_list(v, i3)
            shown[v] = text
        where = "[" + ",".join([labels[i] for i in tup]) + close if tup else "[]"
        if matrix:
            return head + '"matrix": ' + text + "," + i3 + '"tuple": ' + where + tail
        return head + '"tuple": ' + where + "," + i3 + '"value": ' + text + tail

    vals = f.values
    keys = sorted(vals)
    sep = "["
    for lo in range(0, len(keys), chunk):
        shown.clear()  # a bound on what the cache holds
        write(sep + ",".join([entry(t, vals[t]) for t in keys[lo:lo + chunk]]))
        sep = ","
    write(i1 + "]" + ind + "}")


def json_entries(data: dict, group):
    """(degree, [(index tuple, entry)]) of a serialized cochain, checked
    before use: data is an object with an int `degree`, `values` a list of
    objects, and each `tuple` a list of `degree` labels of non-identity
    elements; anything else raises ValueError."""
    degree = json_object(data, "cochain", ("degree",))["degree"]
    if type(degree) is not int:
        raise ValueError(f"cochain degree {degree!r} is not an integer")
    entries = data.get("values", [])
    if not isinstance(entries, list):
        raise ValueError(f"cochain values {entries!r} is not a list")
    index = dict(zip(group.elements, range(group.order))).__getitem__
    out = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"cochain entry {entry!r} is not an object")
        labels = entry["tuple"]
        if not isinstance(labels, list) or len(labels) != degree:
            raise ValueError(f"cochain tuple {labels!r} is not a list of {degree} labels")
        try:
            tup = tuple(map(index, labels))
        except (KeyError, TypeError):
            raise ValueError(f"cochain tuple {labels!r} names an unknown element") from None
        if 0 in tup:
            raise ValueError(f"input tuple {labels} contains the identity")
        out.append((tup, entry))
    return degree, out


def json_int_vector(value, dim: int, where) -> tuple:
    """value as a tuple, or ValueError unless it is a list of exactly dim
    ints (bools excluded)."""
    if not isinstance(value, list) or len(value) != dim or any(type(x) is not int for x in value):
        raise ValueError(f"cochain value {value!r} at {where} is not a list of {dim} integers")
    return tuple(value)


def cochain_from_json(data: dict, group, coeffs: GModule) -> Cochain:
    """The cochain a `cochain_to_json` dict describes; a malformed entry
    (see `json_entries`), or a `value` that is not a list of coeffs.dim
    ints, raises ValueError.  One pass checks, reduces and keeps each
    value; the zeros are dropped at the end, as `Cochain` would."""
    degree, entries = json_entries(data, group)
    dim, factors, torsion = coeffs.dim, coeffs.factors, coeffs.is_torsion
    ints = [int] * dim
    vals, zeros = {}, False
    for tup, entry in entries:
        value = entry["value"]
        if not isinstance(value, list) or [*map(type, value)] != ints:
            raise ValueError(f"cochain value {value!r} at {entry['tuple']} is not a list of "
                             f"{dim} integers")
        vals[tup] = v = tuple(map(int.__mod__, value, factors)) if torsion else coeffs.reduce(value)
        zeros = zeros or not any(v)
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if zeros:
        vals = {tup: v for tup, v in vals.items() if any(v)}
    return Cochain._from_reduced(group, coeffs, degree, vals)


def load_cochain(path: str, group, coeffs) -> Cochain:
    with open(path) as fh:
        return cochain_from_json(json.load(fh), group, coeffs)
