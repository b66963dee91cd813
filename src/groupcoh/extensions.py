"""Group extensions A x|_c G built from a 2-cocycle, with the projection
pi and inclusion iota, and cochain lifting/restriction along them.

The total group indexes pairs (a, g) a-major (kernel element lexicographic,
then base element), so the identity (0, 1) lands at index 0.  The group law
(a,g)(b,h) = (a + g.b + c(g,h), gh) is driven by kernel action tables and a
kernel addition read from two small tables, one per half of A's factors,
so nothing of size |A|^2 is built, and the total multiplication table is
only materialized when something downstream really needs a FiniteGroup.
"""

from __future__ import annotations

import itertools
import json
import math

from .cochains import Cochain, cochain_from_json, cochain_to_json, first_cocycle_defect, max_entries_limit, nonid_tuples
from .errors import KernelNotFinite, NotACocycle, ResourceLimit
from .groups import FiniteGroup, cyclic_group, group_from_json, group_to_json
from .modules import (
    GModule,
    digit_sums,
    element_index,
    index_tables,
    module_from_json,
    module_to_json,
    trivial_module,
)


class GroupExtension:
    def __init__(self, kernel: GModule, cocycle: Cochain):
        self.kernel = kernel
        self.cocycle = cocycle
        self.base = kernel.group
        base = self.base

        self.kernel_elements = list(kernel.elements())
        na, ng = len(self.kernel_elements), base.order
        self.order = na * ng

        self._neg, self._act = index_tables(kernel)
        # a = hi * s + lo with s the size of the last factors; the split
        # point keeps the two fold tables of `digit_sums` smallest
        factors = kernel.factors
        widths = [2 * d - 1 for d in factors]
        folds = [math.prod(widths[:k]) + math.prod(widths[k:]) for k in range(len(factors) + 1)]
        k = folds.index(min(folds))
        s = math.prod(factors[k:])
        self._spread_hi, fold_hi = digit_sums(factors[:k])
        self._spread_lo, self._fold_lo = digit_sums(factors[k:])
        self._fold_hi = [x * s for x in fold_hi]
        # the spread halves of every kernel index
        self._hi = [e for e in self._spread_hi for _ in range(s)]
        self._lo = self._spread_lo * (na // s)
        self._rows = {}
        self._coc = [
            [
                element_index(kernel, cocycle.evaluate((g, h))) if g and h else 0
                for h in range(ng)
            ]
            for g in range(ng)
        ]
        self._total = None
        self._labels = None

    # -- group-like protocol (duck-typed alongside FiniteGroup) ------------

    @property
    def elements(self):
        if self._labels is None:
            base = self.base
            self._labels = tuple(
                f"({','.join(map(str, self.kernel_elements[a]))};{base.elements[g]})"
                for a in range(len(self.kernel_elements))
                for g in range(base.order)
            )
        return self._labels

    def add_kernel(self, i: int, j: int) -> int:
        """The kernel index of a_i + a_j, one half of the digits at a time
        (see digit_sums)."""
        hi, lo = self._hi, self._lo
        return self._fold_hi[hi[i] + hi[j]] + self._fold_lo[lo[i] + lo[j]]

    def add_row(self, i: int) -> list:
        """a_i + a_j for every kernel index j, in index order; cached, and
        shared between callers, who must not modify it."""
        row = self._rows.get(i)
        if row is None:
            hi, lo = self._hi[i], self._lo[i]
            fold_hi, fold_lo = self._fold_hi, self._fold_lo
            low = [fold_lo[lo + e] for e in self._spread_lo]
            row = self._rows[i] = [fold_hi[hi + e] + x for e in self._spread_hi for x in low]
        return row

    def mul(self, i: int, j: int) -> int:
        ng = self.base.order
        a1, g1 = divmod(i, ng)
        a2, g2 = divmod(j, ng)
        a = self.add_kernel(self.add_kernel(a1, self._act[g1][a2]), self._coc[g1][g2])
        return a * ng + self.base.mul(g1, g2)

    def mul_row(self, i: int):
        """i * j for every element j, in index order: with (a,g) = i and
        j = (b,h), a-major, the kernel part (a + g.b) + c(g,h) is read from
        the addition rows one h at a time, and gh from the base's row."""
        ng = self.base.order
        a, g = divmod(i, ng)
        add_a = self.add_row(a)
        shifted = [add_a[b] for b in self._act[g]]
        out = [0] * self.order
        for h, (c, gh) in enumerate(zip(self._coc[g], self.base.mul_row(g))):
            col = self.add_row(c)
            out[h::ng] = [col[x] * ng + gh for x in shifted]
        return out

    def inv(self, i: int) -> int:
        """(a,g)^-1 = (-g^-1.(a + c(g,g^-1)), g^-1)."""
        a, g = divmod(i, self.base.order)
        gi = self.base.inv(g)
        b = self._neg[self._act[gi][self.add_kernel(a, self._coc[g][gi])]]
        return b * self.base.order + gi

    def product(self, indices) -> int:
        out = 0
        for i in indices:
            out = self.mul(out, i)
        return out

    # -- structure maps ----------------------------------------------------

    def pi(self, i: int) -> int:
        return i % self.base.order

    def iota(self, a_idx: int) -> int:
        return a_idx * self.base.order

    def total_group(self, max_entries=None) -> FiniteGroup:
        """The total group as a FiniteGroup, its table read from `mul_row`.
        Nothing is re-validated: A x|_c G is a group once c is a 2-cocycle
        (see `build_extension`), its identity (0, e) is index 0 by
        construction, and the inverses come from `inv`."""
        if self._total is None:
            limit = max_entries_limit(max_entries)
            if self.order * self.order > limit:
                raise ResourceLimit(
                    f"total group table needs {self.order ** 2} entries (limit {limit})"
                )
            self._total = FiniteGroup(
                order=self.order, elements=self.elements,
                table=tuple(tuple(self.mul_row(i)) for i in range(self.order)),
                inverse=tuple(self.inv(i) for i in range(self.order)))
        return self._total


def build_extension(kernel: GModule, cocycle: Cochain, max_entries=None) -> GroupExtension:
    """Construct A x|_c G; fails with the associativity-violating triple
    when c is not a 2-cocycle (the two failure sets coincide).  Gated on
    the |A||G| entries of its element and action tables."""
    if not kernel.is_torsion:
        raise KernelNotFinite("extension kernel must be finite")
    if cocycle.degree != 2:
        raise NotACocycle("extension cocycle must have degree 2")
    defect = first_cocycle_defect(cocycle)
    if defect is not None:
        raise NotACocycle(
            "extension cocycle fails the 2-cocycle condition", witness=defect
        )
    count = kernel.size() * kernel.group.order
    limit = max_entries_limit(max_entries)
    if count > limit:
        raise ResourceLimit(f"extension table needs |A||G| = {count} entries (limit {limit})")
    return GroupExtension(kernel, cocycle)


def module_through_projection(ext: GroupExtension, module: GModule) -> GModule:
    """A G-module viewed as a module over the total group: the kernel acts
    trivially, everything factors through pi."""
    action = [module.action[ext.pi(i)] for i in range(ext.order)]
    return GModule(ext, module.factors, action, _validate=False)


def lift_cochain(ext: GroupExtension, omega: Cochain, max_entries=None) -> Cochain:
    """pi^* omega as a cochain of the total group, materialized from the
    support only: pi^* omega(t) = omega(u) for every t in the product of
    the fibres pi^-1(u_i) = {a |G| + u_i}, for each u in omega's support.
    The values are stored in lexicographic tuple order.  Gated on the
    |supp omega| * |A|^n entries it allocates."""
    n = omega.degree
    ng, na = ext.base.order, len(ext.kernel_elements)
    count = len(omega.values) * na ** n
    limit = max_entries_limit(max_entries)
    if count > limit:
        raise ResourceLimit(f"lifted cochain needs {count} entries (limit {limit})")
    coeffs = module_through_projection(ext, omega.coeffs)
    lifted = []
    for u, v in omega.values.items():
        fibres = [range(x, ext.order, ng) for x in u]
        lifted.extend((t, v) for t in itertools.product(*fibres))
    lifted.sort()
    return Cochain(ext, coeffs, n, dict(lifted))


def kernel_view(ext: GroupExtension) -> GroupExtension:
    """The kernel A as a group under addition: the extension of the trivial
    group by A with the zero cocycle, so its element indices are A's and
    its products come from two small digit tables (see `digit_sums`), not
    from an |A|^2 table."""
    trivial = cyclic_group(1)
    kernel = trivial_module(trivial, ext.kernel.factors)
    return GroupExtension(kernel, Cochain(trivial, kernel, 2))


def restrict_cochain(ext: GroupExtension, alpha: Cochain, max_entries=None) -> Cochain:
    """iota^* alpha as a cochain of `kernel_view(ext)`, on A's element
    indices; the kernel acts trivially on the coefficients.  Gated on the
    (|A|-1)^n tuples it reads."""
    n = alpha.degree
    count = (len(ext.kernel_elements) - 1) ** n
    limit = max_entries_limit(max_entries)
    if count > limit:
        raise ResourceLimit(f"restricted cochain needs {count} entries (limit {limit})")
    agrp = kernel_view(ext)
    coeffs = trivial_module(agrp, alpha.coeffs.factors)
    vals = {}
    for tup in nonid_tuples(agrp.order, n):
        v = alpha.evaluate(tuple(ext.iota(a) for a in tup))
        if not alpha.coeffs.is_zero(v):
            vals[tup] = v
    return Cochain(agrp, coeffs, n, vals)


# -- serialization ---------------------------------------------------------


def extension_to_json(ext: GroupExtension) -> dict:
    return {
        "base": group_to_json(ext.base),
        "kernel": module_to_json(ext.kernel, embed_group=False),
        "cocycle": cochain_to_json(ext.cocycle),
    }


def extension_from_json(data: dict) -> GroupExtension:
    """Rebuild from (base, kernel, cocycle); the total table is always
    recomputed, never trusted from input."""
    base = group_from_json(data["base"])
    kernel = module_from_json(data["kernel"], group=base)
    cocycle = cochain_from_json(data["cocycle"], base, kernel)
    return build_extension(kernel, cocycle)


def load_extension(path: str) -> GroupExtension:
    with open(path) as fh:
        return extension_from_json(json.load(fh))
