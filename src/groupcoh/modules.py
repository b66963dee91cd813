"""Finitely generated abelian groups with a G-action by integer matrices.

A module is a quotient Z^k / <d_i e_i> with per-coordinate moduli
(d_i = 0 means a free Z factor) and one k x k action matrix per group
element.  Elements are plain integer tuples reduced into [0, d_i) on
torsion coordinates.  All kernel/cokernel computations go through the
Smith normal form helpers in intlinalg.
"""

from __future__ import annotations

import itertools
import json
import math

from . import intlinalg as la
from .errors import (
    ActionBreaksRelations,
    ActionNotHomomorphic,
    BadIdentityAction,
    SourceNotTorsion,
)
from .groups import FiniteGroup, group_from_json, group_to_json


class GModule:
    def __init__(self, group, factors, action, _validate=True):
        self.group = group
        self.factors = tuple(int(d) for d in factors)
        self.action = tuple(tuple(tuple(row) for row in m) for m in action)
        if _validate:
            _validate_module(self)

    # -- element arithmetic ------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.factors)

    def reduce(self, vec) -> tuple:
        return tuple(x % d if d else x for x, d in zip(vec, self.factors))

    def zero(self) -> tuple:
        return (0,) * self.dim

    def basis_vector(self, i) -> tuple:
        return tuple(1 if j == i else 0 for j in range(self.dim))

    def add(self, x, y) -> tuple:
        return tuple(
            (a + b) % d if d else a + b for a, b, d in zip(x, y, self.factors)
        )

    def neg(self, x) -> tuple:
        return tuple((-a) % d if d else -a for a, d in zip(x, self.factors))

    def sub(self, x, y) -> tuple:
        return self.add(x, self.neg(y))

    def scale(self, n, x) -> tuple:
        return tuple((n * a) % d if d else n * a for a, d in zip(x, self.factors))

    def act(self, g, x) -> tuple:
        return self.reduce(la.mat_vec(self.action[g], x))

    def is_zero(self, x) -> bool:
        return all(v == 0 for v in x)

    # -- global structure --------------------------------------------------

    @property
    def is_torsion(self) -> bool:
        return all(d > 0 for d in self.factors)

    @property
    def exponent(self):
        """lcm of the torsion moduli; None if a free factor is present."""
        if not self.is_torsion:
            return None
        return math.lcm(*self.factors) if self.factors else 1

    def size(self):
        """Number of elements, or None when infinite."""
        if not self.is_torsion:
            return None
        out = 1
        for d in self.factors:
            out *= d
        return out

    def elements(self):
        if not self.is_torsion:
            raise SourceNotTorsion("cannot enumerate an infinite module")
        return itertools.product(*(range(d) for d in self.factors))

    def element_order(self, x) -> int:
        """Additive order of x; 0 when infinite."""
        if any(v and d == 0 for v, d in zip(x, self.factors)):
            return 0
        orders = [d // math.gcd(d, v) for v, d in zip(x, self.factors) if d]
        return math.lcm(*orders) if orders else 1

    def same_ambient(self, other) -> bool:
        return self.factors == other.factors and self.group is other.group

    def __repr__(self):
        return f"GModule(factors={self.factors}, |G|={self.group.order})"


def _validate_module(m: GModule):
    k = m.dim
    order = m.group.order
    if len(m.action) != order:
        raise ValueError("need one action matrix per group element")
    for mat in m.action:
        if len(mat) != k or any(len(row) != k for row in mat):
            raise ValueError("action matrices must be k x k")
    ident = la.identity_matrix(k)
    if any(m.reduce(row) != m.reduce(irow) for row, irow in zip(m.action[0], ident)):
        raise BadIdentityAction("identity element must act as the identity matrix")
    # columns scaled by their modulus must stay in the relation lattice
    for g in range(order):
        mat = m.action[g]
        for j, dj in enumerate(m.factors):
            if dj == 0:
                continue
            for i, di in enumerate(m.factors):
                v = dj * mat[i][j]
                if (v % di) if di else v:
                    raise ActionBreaksRelations(
                        "action does not descend to the quotient",
                        witness=(m.group.elements[g], j),
                    )
    for g in range(order):
        for h in range(order):
            gh = m.group.mul(g, h)
            prod = la.mat_mul(m.action[g], m.action[h])
            for row_p, row_t in zip(prod, m.action[gh]):
                if m.reduce(row_p) != m.reduce(row_t):
                    raise ActionNotHomomorphic(
                        "action is not a homomorphism",
                        witness=(m.group.elements[g], m.group.elements[h]),
                    )


def make_module(group: FiniteGroup, factors, action) -> GModule:
    return GModule(group, factors, action)


def trivial_module(group: FiniteGroup, factors) -> GModule:
    k = len(factors)
    ident = la.identity_matrix(k)
    return GModule(group, factors, [ident] * group.order, _validate=False)


# -- maps ------------------------------------------------------------------


class ModuleMap:
    """Abelian-group homomorphism source -> target given by an integer
    matrix on coordinates."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)
        # relation-lattice compatibility
        for j, dj in enumerate(source.factors):
            if dj == 0:
                continue
            col = [dj * self.matrix[i][j] for i in range(target.dim)]
            if not target.is_zero(target.reduce(col)):
                raise ValueError(f"matrix does not respect source relation {j}")

    def apply(self, x) -> tuple:
        return self.target.reduce(la.mat_vec(self.matrix, x))


# -- subquotients of an ambient module ------------------------------------


class Subquotient:
    """W / L presented inside Z^k / L: K is a basis of the sublattice W
    (which must contain the relation lattice L of the ambient module)."""

    def __init__(self, ambient: GModule, basis_columns):
        self.ambient = ambient
        self.basis = basis_columns  # list of length-k vectors
        k = ambient.dim
        kmat = [[col[i] for col in basis_columns] for i in range(k)]
        self._kmat = kmat
        self._factored = la.FactoredMatrix(kmat, cols=len(basis_columns))
        rels = []
        for i, d in enumerate(ambient.factors):
            if d:
                rel = self._factored.solve([d if j == i else 0 for j in range(k)])
                if rel is None:
                    raise ValueError("sublattice does not contain the relation lattice")
                rels.append(rel)
        self.factors, self._proj, self._lift = la.cokernel_structure(
            rels, len(basis_columns)
        )

    @property
    def dim(self):
        return len(self.factors)

    def embed(self, coords) -> tuple:
        t = la.mat_vec(self._lift, coords)
        return self.ambient.reduce(la.mat_vec(self._kmat, t))

    def coords(self, ambient_vec) -> tuple:
        t = self._factored.solve(list(ambient_vec))
        if t is None:
            raise ValueError("vector not in the sublattice")
        vec = la.mat_vec(self._proj, t)
        return tuple(x % d if d else x for x, d in zip(vec, self.factors))

    def induced_action(self, ambient_matrix):
        """Matrix of an ambient endomorphism restricted to the subquotient."""
        cols = []
        for j in range(self.dim):
            e = [1 if i == j else 0 for i in range(self.dim)]
            img = la.mat_vec(ambient_matrix, self.embed(e))
            cols.append(self.coords(self.ambient.reduce(img)))
        return [[cols[j][i] for j in range(self.dim)] for i in range(len(self.factors))]


# -- invariants / coinvariants / torsion ----------------------------------


def invariants(m: GModule):
    """(M^G as a trivial module, inclusion map into M)."""
    k = m.dim
    order = m.group.order
    rows = []
    moduli = []
    for g in range(1, order):
        mat = m.action[g]
        for i in range(k):
            rows.append([mat[i][j] - (1 if i == j else 0) for j in range(k)])
            moduli.append(m.factors[i])
    cols = la.kernel_with_moduli(rows, moduli, cols=k)
    # drop duplicate/zero x-parts while keeping a full generating set
    sub = Subquotient(m, _lattice_basis(cols, k))
    inv = trivial_module(m.group, sub.factors)
    incl = ModuleMap(inv, m, _embed_matrix(sub))
    return inv, incl


def coinvariants(m: GModule):
    """(M_G as a trivial module, projection map from M)."""
    k = m.dim
    gens = [
        [d if r == i else 0 for r in range(k)]
        for i, d in enumerate(m.factors)
        if d
    ]
    for g in range(1, m.group.order):
        mat = m.action[g]
        for j in range(k):
            gens.append([mat[i][j] - (1 if i == j else 0) for i in range(k)])
    factors, proj, _lift = la.cokernel_structure(gens, k)
    co = trivial_module(m.group, factors)
    pmap = ModuleMap(m, co, proj)
    return co, pmap


def _lattice_basis(columns, ambient):
    """Reduce a generating set of columns to a lattice basis via SNF."""
    if not columns:
        return []
    mat = [[col[i] for col in columns] for i in range(ambient)]
    _, ui, d, _, _ = la._snf_full(mat, cols=len(columns), track=("ui",))
    rank = sum(
        1 for i in range(min(ambient, len(columns))) if d[i][i]
    )
    # basis = Uinv * D restricted to nonzero diagonal entries
    basis = []
    for j in range(rank):
        col = [ui[i][j] * d[j][j] for i in range(ambient)]
        basis.append(col)
    return basis


def _embed_matrix(sub: Subquotient):
    cols = []
    for j in range(sub.dim):
        e = [1 if i == j else 0 for i in range(sub.dim)]
        cols.append(sub.embed(e))
    return [[cols[j][i] for j in range(sub.dim)] for i in range(sub.ambient.dim)]


def torsion_submodule(m: GModule):
    """(M_T, inclusion j, projection p: M -> M/M_T, section s of p).

    Coordinates split cleanly in invariant-factor form: torsion coordinates
    are those with d_i > 0.  The section s is basis-aligned and is only an
    abelian-group splitting, not G-equivariant in general.
    """
    tor = [i for i, d in enumerate(m.factors) if d > 0]
    free = [i for i, d in enumerate(m.factors) if d == 0]
    t_action = [
        [[mat[i][j] for j in tor] for i in tor] for mat in m.action
    ]
    f_action = [
        [[mat[i][j] for j in free] for i in free] for mat in m.action
    ]
    mt = GModule(m.group, [m.factors[i] for i in tor], t_action, _validate=False)
    mf = GModule(m.group, [0] * len(free), f_action, _validate=False)
    jmat = [[1 if (i in tor and tor.index(i) == j) else 0 for j in range(len(tor))]
            for i in range(m.dim)]
    pmat = [[1 if j == free[i] else 0 for j in range(m.dim)] for i in range(len(free))]
    smat = [[1 if (i in free and free.index(i) == j) else 0 for j in range(len(free))]
            for i in range(m.dim)]
    jmap = ModuleMap(mt, m, jmat)
    pmap = ModuleMap(m, mf, pmat)
    smap = ModuleMap(mf, m, smat)
    return mt, jmap, pmap, smap


# -- Hom modules -----------------------------------------------------------


class HomModule(GModule):
    """Hom_Ab(A, M) as a G-module, (g.f)(a) = g.f(g^{-1}.a).

    A must have finite exponent.  Elements are stored in the canonical
    coordinates of the subquotient {(m_1..m_s) : a_j m_j = 0 in M} of M^s;
    `evaluate` and `from_images` translate to and from images of A's
    basis vectors.
    """

    def __init__(self, source: GModule, target: GModule):
        if not source.is_torsion:
            raise SourceNotTorsion("Hom(A, M) needs a torsion source")
        self.source = source
        self.target = target
        s, k = source.dim, target.dim
        group = source.group
        ambient = GModule(
            group,
            target.factors * s,
            [_block_diag([mat] * s, k) for mat in target.action] if s else
            [[] for _ in range(group.order)],
            _validate=False,
        )
        cols = []
        for j in range(s):
            aj = source.factors[j]
            rows = [[aj if c == i else 0 for c in range(k)] for i in range(k)]
            for vec in la.kernel_with_moduli(rows, target.factors, cols=k):
                block = [0] * (k * s)
                block[j * k : (j + 1) * k] = vec
                cols.append(block)
        sub = Subquotient(ambient, _lattice_basis(cols, k * s))
        self._sub = sub
        action = []
        for g in range(group.order):
            ginv = group.inv(g)
            amat = _hom_ambient_action(source, target, g, ginv)
            action.append(sub.induced_action(amat))
        super().__init__(group, sub.factors, action, _validate=True)

    def images(self, coords):
        """Images of the source basis vectors, as a list of target elements."""
        vec = self._sub.embed(coords)
        k = self.target.dim
        return [
            self.target.reduce(vec[j * k : (j + 1) * k])
            for j in range(self.source.dim)
        ]

    def from_images(self, images):
        flat = []
        for img in images:
            flat.extend(img)
        return self._sub.coords(flat)

    def evaluate(self, coords, a) -> tuple:
        imgs = self.images(coords)
        out = self.target.zero()
        for aj, img in zip(a, imgs):
            if aj:
                out = self.target.add(out, self.target.scale(aj, img))
        return out


def _block_diag(mats, k):
    s = len(mats)
    out = la.zeros(k * s, k * s)
    for b, mat in enumerate(mats):
        for i in range(k):
            for j in range(k):
                out[b * k + i][b * k + j] = mat[i][j]
    return out


def _hom_ambient_action(source, target, g, ginv):
    """(g.f)(e_j) = rho_M(g) sum_i rho_A(g^{-1})[i][j] f(e_i) on stacked images."""
    s, k = source.dim, target.dim
    rho_a = source.action[ginv]
    rho_m = target.action[g]
    out = la.zeros(k * s, k * s)
    for j in range(s):
        for i in range(s):
            c = rho_a[i][j]
            if c:
                for r in range(k):
                    for t in range(k):
                        out[j * k + r][i * k + t] = c * rho_m[r][t]
    return out


def hom_module(source: GModule, target: GModule) -> HomModule:
    return HomModule(source, target)


# -- tensor modules --------------------------------------------------------


class TensorModule(GModule):
    """M (x) N with the diagonal action; coordinate (i, j) has modulus
    gcd(d_i, d'_j), and coordinates with gcd 1 are dropped."""

    def __init__(self, left: GModule, right: GModule):
        self.left = left
        self.right = right
        kl, kr = left.dim, right.dim
        keep = []
        factors = []
        for i in range(kl):
            for j in range(kr):
                d = math.gcd(left.factors[i], right.factors[j])
                if d != 1:
                    keep.append(i * kr + j)
                    factors.append(d)
        self._keep = keep
        action = []
        for g in range(left.group.order):
            full = la.kron(left.action[g], right.action[g])
            action.append([[full[i][j] for j in keep] for i in keep])
        super().__init__(left.group, factors, action, _validate=True)

    def pure(self, m, n) -> tuple:
        kr = self.right.dim
        vec = [m[idx // kr] * n[idx % kr] for idx in self._keep]
        return self.reduce(vec)


def tensor_module(left: GModule, right: GModule) -> TensorModule:
    if left.group is not right.group:
        raise ValueError("tensor factors must share a group")
    return TensorModule(left, right)


# -- serialization ---------------------------------------------------------


def module_to_json(m: GModule, embed_group=True) -> dict:
    data = {
        "factors": list(m.factors),
        "action": {
            m.group.elements[g]: [list(row) for row in m.action[g]]
            for g in range(m.group.order)
        },
    }
    if embed_group:
        data["group"] = group_to_json(m.group)
    return data


def module_from_json(data: dict, group: FiniteGroup = None) -> GModule:
    if group is None:
        group = group_from_json(data["group"])
    label_to_idx = {lbl: i for i, lbl in enumerate(group.elements)}
    k = len(data["factors"])
    ident = la.identity_matrix(k)
    action = [ident] * group.order
    action = list(action)
    for lbl, mat in data.get("action", {}).items():
        action[label_to_idx[lbl]] = mat
    return GModule(group, data["factors"], action)


def load_module(path: str, group: FiniteGroup = None) -> GModule:
    with open(path) as fh:
        return module_from_json(json.load(fh), group)
