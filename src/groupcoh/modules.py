"""Finitely generated abelian groups with a G-action by integer matrices.

A module is a quotient Z^k / <d_i e_i> with per-coordinate moduli
(d_i = 0 means a free Z factor) and one k x k action matrix per group
element.  Elements are plain integer tuples reduced into [0, d_i) on
torsion coordinates.
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
    SelfCheckFailed,
    SourceNotTorsion,
)
from .groups import FiniteGroup, greedy_generators, group_from_json, group_to_json, json_object


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
    """Shape, identity action, descent to the quotient, and rho(g) rho(h) =
    rho(gh), matrices compared as maps on M (see _same_map).  The last is
    checked on the pairs (s, h) with s in S = `greedy_generators` and every
    h.  The g with rho(g) rho(h) = rho(gh) for every h form a subgroup: e
    acts as the identity, each rho(g) is a map on M, and for g1, g2 in it
    rho(g1 g2) rho(h) = rho(g1) rho(g2) rho(h) = rho(g1) rho(g2 h) =
    rho(g1 g2 h).  So the first failing g in index order is a generator
    (see `greedy_generators`), and ActionNotHomomorphic names the first
    failing (s, h), which is the first failing pair in index order."""
    k = m.dim
    group = m.group
    order = group.order
    if len(m.action) != order:
        raise ValueError("need one action matrix per group element")
    for mat in m.action:
        if len(mat) != k or any(len(row) != k for row in mat):
            raise ValueError("action matrices must be k x k")
    if not _same_map(m, m.action[0], la.identity_matrix(k)):
        raise BadIdentityAction("identity element must act as the identity matrix")
    # the nonzero entries (i, v) of every column j of every matrix; column j
    # scaled by d_j must stay in the relation lattice
    cols = [[[(i, v) for i, v in enumerate(col) if v] for col in zip(*mat)] for mat in m.action]
    factors = m.factors
    for g in range(order):
        for j, (dj, col) in enumerate(zip(factors, cols[g])):
            if dj and any(dj * v % factors[i] if factors[i] else v for i, v in col):
                raise ActionBreaksRelations(
                    "action does not descend to the quotient",
                    witness=(group.elements[g], j),
                )
    for s in greedy_generators(group):
        for h, sh in enumerate(group.mul_row(s)):
            if not _acts_as_product(m, cols, s, h, sh):
                raise ActionNotHomomorphic(
                    "action is not a homomorphism",
                    witness=(group.elements[s], group.elements[h]),
                )


def _same_map(m: GModule, a, b) -> bool:
    """Whether the integer matrices a and b induce the same map Z^k -> M:
    row i agrees modulo d_i, the modulus of the coordinate it computes."""
    return all(not ((x - y) % d if d else x - y)
               for row_a, row_b, d in zip(a, b, m.factors) for x, y in zip(row_a, row_b))


def _acts_as_product(m: GModule, cols, g, h, gh) -> bool:
    """rho(g) rho(h) = rho(gh) as maps on M, over cols[x][j], the nonzero
    entries (i, v) of column j of rho(x): row i agrees modulo d_i."""
    factors, col_g = m.factors, cols[g]
    for col, want in zip(cols[h], cols[gh]):
        diff = {i: -v for i, v in want}
        for r, w in col:
            for i, v in col_g[r]:
                diff[i] = diff.get(i, 0) + v * w
        if any(x % factors[i] if factors[i] else x for i, x in diff.items()):
            return False
    return True


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


# -- finite modules as index tables ----------------------------------------


def element_index(m: GModule, x) -> int:
    """Position of the reduced element x in m.elements(): x read as a
    mixed-radix integer whose last coordinate is the least significant."""
    i = 0
    for v, d in zip(x, m.factors):
        i = i * d + v
    return i


def digit_sums(factors):
    """(spread, fold) for digit-wise addition on the mixed-radix indices
    of Z/d_1 + ... + Z/d_k (see element_index).  spread[x] re-reads the
    digits of x with the weights prod_{j>i} (2 d_j - 1), so spread[x] +
    spread[y] holds every digit sum x_i + y_i <= 2 d_i - 2 without a
    carry, and fold[spread[x] + spread[y]] is the index of x + y.  spread
    has one entry per element and fold prod (2 d_i - 1), so a single
    factor Z/d costs 3d - 1 entries, not the d^2 of an addition table."""
    spread, fold, weight, size = [0], [0], 1, 1
    for d in reversed(factors):
        spread = [x * weight + e for x in range(d) for e in spread]
        fold = [(u % d) * size + r for u in range(2 * d - 1) for r in fold]
        weight *= 2 * d - 1
        size *= d
    return spread, fold


# -- invariants / torsion --------------------------------------------------


def invariants(m: GModule):
    """(M^G as a trivial module, inclusion map into M) for a finite module
    M; a free factor raises SourceNotTorsion, as the inclusion of a free
    part needs an integer kernel (`cochains.cohomology` in degree 0 reads
    M^G of any module).  x is fixed by every g once it is fixed by each s in
    S = `greedy_generators`, which generate G, so only the rows rho(s) - 1
    are built."""
    if not m.is_torsion:
        raise SourceNotTorsion("invariants need a finite module; "
                               "cohomology(G, M, 0) gives M^G of any module")
    k = m.dim
    gens = greedy_generators(m.group)
    rows = [[m.action[s][i][j] - (i == j) for j in range(k)] for s in gens for i in range(k)]
    moduli = list(m.factors) * len(gens)
    # M^G = W / L: W is the lattice of fixed vectors, L the relations of M
    quotient = la.kernel_quotient(rows, moduli, [], m.factors)
    if quotient is None:
        raise ValueError("the fixed lattice does not contain the relation lattice")
    factors, incl = quotient
    inv = trivial_module(m.group, factors)
    # inclusion: each quotient generator lifted to W, reduced in M row by row
    incl = [[x % d for x in row] for row, d in zip(incl, m.factors)]
    return inv, ModuleMap(inv, m, incl)


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

    A must have finite exponent.  For A = sum_j Z/a_j and M = sum_i Z/d_i,
    Hom(A, M) = sum_{j,i} Z/gcd(a_j, d_i): a map Z/a -> Z/d sends 1 to a
    multiple of d/gcd(a, d), and Hom(Z/a, Z) = 0.  So f has one coordinate
    x per pair (j, i) with d_i > 0 and gcd(a_j, d_i) > 1, modulus that
    gcd, and f(e_j)_i = x * d_i/gcd(a_j, d_i); `images` and `from_images`
    translate to and from images of A's basis vectors.

    The action is written down in closed form.  With
    (g.f)(e_j) = rho_M(g) sum_j0 rho_A(g^{-1})[j0][j] f(e_j0), coordinate
    (j0, i0, step0) sends e_j to rho_A(g^{-1})[j0][j] * step0 *
    rho_M(g)[:, i0], so the matrix entry at row (j, r, step) is that value
    reduced modulo d_r and divided by step; only the nonzeros of row j0 of
    rho_A(g^{-1}) contribute.  The division is exact: g.f is a
    homomorphism A -> M, since rho_A(g^{-1}) respects A's relations and
    rho_M(g) respects M's, so a_j (g.f)(e_j) = 0, which says that the
    image is a multiple of step at each coordinate (j, r) and 0 where Hom
    has none.  A and M are validated modules, so a failure of that check
    is a defect and raises SelfCheckFailed.

    The module is built unvalidated: with that check passed, the action is
    a G-action on Hom(A, M) by construction.  Column n of the matrix of g
    holds the coordinates of g.f_n, f_n the n-th basis map, so the matrix
    sends the coordinates of any f to those of g.f (f -> g.f is additive).
    e.f = f, as rho_A(e) and rho_M(e) are the identity on A and M; and
    (g.(h.f))(a) = rho_M(g) rho_M(h) f(rho_A(h^{-1}) rho_A(g^{-1}) a) =
    rho_M(gh) f(rho_A((gh)^{-1}) a) = ((gh).f)(a), as rho_A and rho_M are
    homomorphisms.  The modulus of coordinate n kills f_n, so it kills g.f_n
    too: the matrices descend to Hom(A, M).
    """

    def __init__(self, source: GModule, target: GModule):
        if not source.is_torsion:
            raise SourceNotTorsion("Hom(A, M) needs a torsion source")
        self.source = source
        self.target = target
        self._coords = _hom_coords(source, target)
        factors = [target.factors[i] // step for _, i, step in self._coords]
        position = {(j, i): (n, step) for n, (j, i, step) in enumerate(self._coords)}
        # per source coordinate j: (r, d_r, Hom coordinate or None, its step)
        slots = [[(r, d) + position.get((j, r), (None, None))
                  for r, d in enumerate(target.factors)]
                 for j in range(source.dim)]
        group = source.group
        action = []
        for g in range(group.order):
            rho_a = source.action[group.inv(g)]
            m_cols = list(zip(*target.action[g]))
            cols = []
            for j0, i0, step0 in self._coords:
                col = [0] * len(factors)
                m_col = m_cols[i0]
                for j, c in enumerate(rho_a[j0]):
                    if not c:
                        continue
                    for r, d, n, step in slots[j]:
                        v = c * step0 * m_col[r]
                        if d:
                            v %= d
                        if n is not None and not v % step:
                            col[n] = v // step
                        elif v:
                            raise SelfCheckFailed(
                                f"Hom action of {group.elements[g]} sends coordinate "
                                f"{(j0, i0)} to {v} at {(j, r)}, which Hom(A, M) "
                                f"cannot hold")
                cols.append(col)
            action.append(list(zip(*cols)))
        super().__init__(group, factors, action, _validate=False)

    def images(self, coords):
        """Images of the source basis vectors, as a list of target elements."""
        out = [[0] * self.target.dim for _ in range(self.source.dim)]
        for x, (j, i, step) in zip(coords, self._coords):
            out[j][i] = x * step % self.target.factors[i]
        return [tuple(img) for img in out]

    def from_images(self, images):
        """Coordinates of the map with the given images of A's basis
        vectors; ValueError unless a_j * images[j] = 0 in M for every j."""
        m = self.target
        images = [m.reduce(img) for img in images]
        for a, img in zip(self.source.factors, images):
            if not m.is_zero(m.scale(a, img)):
                raise ValueError(f"images {images} do not define a homomorphism: "
                                 f"{a} * {img} is not 0")
        return tuple(images[j][i] // step for j, i, step in self._coords)

    def evaluate(self, coords, a) -> tuple:
        """f(a) = sum_j a_j f(e_j) for the map f with these coordinates."""
        out = [0] * self.target.dim
        for x, (j, i, step) in zip(coords, self._coords):
            out[i] += a[j] * x * step
        return self.target.reduce(out)


def _hom_coords(source: GModule, target: GModule):
    """(j, i, d_i / gcd(a_j, d_i)) per coordinate of Hom(A, M)."""
    return [
        (j, i, d // math.gcd(a, d))
        for j, a in enumerate(source.factors)
        for i, d in enumerate(target.factors)
        if d and math.gcd(a, d) > 1
    ]


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
    """The module of a `module_to_json` dict over group (or over its own
    `group` when group is None); data that is not an object with
    `factors` (and `group` when needed), or malformed factors or action
    matrices, raise ValueError."""
    json_object(data, "module", ("factors",) if group is not None else ("factors", "group"))
    if group is None:
        group = group_from_json(data["group"])
    factors = data["factors"]
    if not isinstance(factors, list) or any(type(d) is not int or d < 0 for d in factors):
        raise ValueError(f"module factors {factors!r} are not a list of integers >= 0")
    k = len(factors)
    label_to_idx = {lbl: i for i, lbl in enumerate(group.elements)}
    action = [la.identity_matrix(k)] * group.order
    matrices = data.get("action", {})
    if not isinstance(matrices, dict):
        raise ValueError(f"module action {matrices!r} is not an object of label -> matrix")
    for lbl, mat in matrices.items():
        if lbl not in label_to_idx:
            raise ValueError(f"module action names an unknown element {lbl!r}")
        if not isinstance(mat, list) or len(mat) != k or not all(
                isinstance(row, list) and len(row) == k and all(type(x) is int for x in row)
                for row in mat):
            raise ValueError(f"module action of {lbl!r} is not a {k}x{k} integer matrix: {mat!r}")
        action[label_to_idx[lbl]] = mat
    return GModule(group, factors, action)


def load_module(path: str, group: FiniteGroup = None) -> GModule:
    with open(path) as fh:
        return module_from_json(json.load(fh), group)
