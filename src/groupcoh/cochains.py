"""Normalized cochains, the coboundary operator, cohomology via Smith
normal form, the coboundary-equation solver, and the rational averaging
homotopy.

A degree-n cochain stores a sparse mapping from n-tuples of non-identity
element indices to coefficient-module elements; tuples touching the
identity are not storable, which enforces normalization structurally.
Basis order for all tuple-indexed linear algebra is lexicographic on
element indices with the identity excluded, so assembled matrices (and
hence certificates) are reproducible.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

from . import intlinalg as la
from .errors import DegreeMismatch, NotACocycle, ResourceLimit, SelfCheckFailed
from .modules import GModule, invariants, _lattice_basis

DEFAULT_MAX_ENTRIES = 10_000_000


def max_entries_limit(override=None) -> int:
    if override is not None:
        return override
    env = os.environ.get("COCYCLE_MAX_TUPLES")
    return int(env) if env else DEFAULT_MAX_ENTRIES


def nonid_tuples(order: int, n: int):
    """All n-tuples of non-identity element indices, lexicographic."""
    return itertools.product(range(1, order), repeat=n)


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
    vals = {}
    for tup in nonid_tuples(group.order, degree):
        v = coeffs.reduce(fn(tup))
        if not coeffs.is_zero(v):
            vals[tup] = v
    return Cochain(group, coeffs, degree, vals)


def add_cochains(f: Cochain, g: Cochain) -> Cochain:
    if f.degree != g.degree:
        raise DegreeMismatch("cannot add cochains of different degrees")
    m = f.coeffs
    vals = dict(f.values)
    for tup, v in g.values.items():
        vals[tup] = m.add(vals.get(tup, m.zero()), v)
    return Cochain(f.group, m, f.degree, vals)


def neg_cochain(f: Cochain) -> Cochain:
    m = f.coeffs
    return Cochain(f.group, m, f.degree, {t: m.neg(v) for t, v in f.values.items()})


def sub_cochains(f: Cochain, g: Cochain) -> Cochain:
    return add_cochains(f, neg_cochain(g))


def scale_cochain(n: int, f: Cochain) -> Cochain:
    m = f.coeffs
    return Cochain(f.group, m, f.degree, {t: m.scale(n, v) for t, v in f.values.items()})


def coboundary_value(f: Cochain, tup) -> tuple:
    """(delta f)(tup) by the standard alternating-sum formula."""
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


def coboundary(f: Cochain) -> Cochain:
    vals = {}
    m = f.coeffs
    for tup in nonid_tuples(f.group.order, f.degree + 1):
        v = coboundary_value(f, tup)
        if not m.is_zero(v):
            vals[tup] = v
    return Cochain(f.group, m, f.degree + 1, vals)


def first_cocycle_defect(f: Cochain):
    """First tuple where delta f is nonzero, or None when f is a cocycle."""
    m = f.coeffs
    for tup in nonid_tuples(f.group.order, f.degree + 1):
        if not m.is_zero(coboundary_value(f, tup)):
            return tup
    return None


def is_cocycle(f: Cochain) -> bool:
    return first_cocycle_defect(f) is None


# -- tuple-indexed linear algebra -----------------------------------------


def coboundary_matrix(group, module: GModule, n: int, max_entries=None):
    """Integer matrix of delta_n : C^n -> C^{n+1} over the tuple basis.

    Returns (matrix, domain_tuples, target_tuples); rows and columns are
    blocked by tuple then coefficient coordinate.
    """
    k = module.dim
    order = group.order
    dom = [()] if n == 0 else list(nonid_tuples(order, n))
    tgt = list(nonid_tuples(order, n + 1))
    rows, cols = len(tgt) * k, len(dom) * k
    limit = max_entries_limit(max_entries)
    if rows * cols > limit:
        raise ResourceLimit(
            f"coboundary matrix needs {rows * cols} entries (limit {limit})"
        )
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
    coboundary (decided constructively over the tuple basis)."""
    n = f.degree
    if n < 1:
        raise ValueError("cannot solve below degree 1")
    module = f.coeffs
    mat, dom, tgt = coboundary_matrix(f.group, module, n - 1, max_entries)
    b = _cochain_vector(f, tgt)
    moduli = [d for _ in tgt for d in module.factors]
    x = la.solve_with_moduli(mat, b, moduli, cols=len(dom) * module.dim)
    if x is None:
        return None
    sol = _vector_cochain(f.group, module, n - 1, dom, x)
    if coboundary(sol) != f:
        raise SelfCheckFailed("solve_coboundary: the solution x does not satisfy delta x = f")
    return sol


def cohomology(group, module: GModule, n: int, max_entries=None) -> list:
    """Invariant factors of H^n(G; M) (0 denotes a free summand)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        inv, _ = invariants(module)
        return list(inv.factors)
    k = module.dim
    dom = [()] if n - 1 == 0 else list(nonid_tuples(group.order, n - 1))
    cur = list(nonid_tuples(group.order, n))
    dim_cur = len(cur) * k
    if dim_cur == 0:
        return []
    dmat, _, tgt = coboundary_matrix(group, module, n, max_entries)
    # cocycle lattice: x with delta x = 0 modulo the target relations
    moduli = [d for _ in tgt for d in module.factors]
    gens = la.kernel_with_moduli(dmat, moduli, cols=dim_cur)
    basis = _lattice_basis(gens, dim_cur)
    kmat = [[col[i] for col in basis] for i in range(dim_cur)]
    # coboundary subgroup: image of delta_{n-1} plus the relation lattice
    prev_mat, prev_dom, _ = coboundary_matrix(group, module, n - 1, max_entries)
    sub_gens = []
    for j in range(len(prev_dom) * k):
        col = [prev_mat[i][j] for i in range(dim_cur)]
        if any(col):
            sub_gens.append(col)
    for i, d in enumerate(d for _ in cur for d in module.factors):
        if d:
            sub_gens.append([d if r == i else 0 for r in range(dim_cur)])
    lattice = la.FactoredMatrix(kmat, cols=len(basis))
    coords = []
    for gen in sub_gens:
        t = lattice.solve(gen)
        if t is None:
            raise SelfCheckFailed("cohomology: a coboundary lies outside the cocycle lattice")
        coords.append(t)
    factors, _, _ = la.cokernel_structure(coords, len(basis))
    return factors


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
    h(g_1..g_{n-1}) = (-1)^n / |G| * sum_g f(g_1..g_{n-1}, g).
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
    order = group.order
    sign = 1 if n % 2 == 0 else -1

    def total(tup):
        out = module.zero()
        for g in range(1, order):
            out = module.add(out, f.evaluate(tup + (g,)))
        return module.scale(sign, out)

    num = cochain_from_function(group, module, n - 1, total)
    if coboundary(num) != scale_cochain(order, f):
        raise SelfCheckFailed("averaging_homotopy: delta h differs from |G| f")
    return RationalCochain(num, order)


# -- serialization ---------------------------------------------------------


def cochain_to_json(f: Cochain) -> dict:
    labels = f.group.elements
    entries = []
    for tup in sorted(f.values):
        entries.append(
            {"tuple": [labels[i] for i in tup], "value": list(f.values[tup])}
        )
    return {"degree": f.degree, "values": entries}


def cochain_from_json(data: dict, group, coeffs: GModule) -> Cochain:
    label_to_idx = {lbl: i for i, lbl in enumerate(group.elements)}
    vals = {}
    for entry in data.get("values", []):
        tup = tuple(label_to_idx[lbl] for lbl in entry["tuple"])
        if 0 in tup:
            raise ValueError(f"input tuple {entry['tuple']} contains the identity")
        vals[tup] = tuple(entry["value"])
    return Cochain(group, coeffs, data["degree"], vals)


def load_cochain(path: str, group, coeffs) -> Cochain:
    with open(path) as fh:
        return cochain_from_json(json.load(fh), group, coeffs)
