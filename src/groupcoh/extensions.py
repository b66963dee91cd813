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
import math

from .cochains import Cochain, check_entries, cochain_from_json, cochain_to_json, first_cocycle_defect, nonid_tuples
from .errors import KernelNotFinite, NotACocycle, SourceNotTorsion
from .groups import FiniteGroup, cyclic_group, group_from_json, group_to_json
from .modules import (
    GModule,
    digit_sums,
    element_index,
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

        if not kernel.is_torsion:
            raise SourceNotTorsion("cannot build an extension by an infinite module")
        na, ng = kernel.size(), base.order
        self.order = na * ng

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
        # rho_A(g) and -1 by linearity from the columns; e acts as the identity
        canon = list(range(na))
        self._neg = self._linear([kernel.neg(kernel.basis_vector(j)) for j in range(kernel.dim)],
                                 canon)
        self._act = [range(na)] + [self._linear(map(kernel.reduce, zip(*kernel.action[g])), canon)
                                   for g in range(1, ng)]
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
        self._inverses = None

    def _linear(self, images, canon) -> list:
        """The additive map e_j -> images[j] on kernel indices: sum_j x_j e_j
        goes to the kernel sum of the x_j * images[j], built from the last
        coordinate forward through the fold tables (see `add_kernel`), its
        entries read from canon so that tables share their int objects."""
        hi, lo, fold_hi, fold_lo = self._hi, self._lo, self._fold_hi, self._fold_lo
        out = [0]
        for d, img in zip(reversed(self.kernel.factors), reversed(list(images))):
            b = element_index(self.kernel, img)
            mults = [0]
            for _ in range(d - 1):
                m = mults[-1]
                mults.append(fold_hi[hi[m] + hi[b]] + fold_lo[lo[m] + lo[b]])
            tail = [(hi[t], lo[t]) for t in out]
            out = [fold_hi[hm + u] + fold_lo[lm + v]
                   for hm, lm in [(hi[m], lo[m]) for m in mults] for u, v in tail]
        return list(map(canon.__getitem__, out))

    # -- group-like protocol (duck-typed alongside FiniteGroup) ------------

    @property
    def elements(self):
        """"(a_1,...,a_k;g)" for every (a, g), in index order: the kernel
        prefixes "(a_1", "(a_1,a_2", ... are built one digit at a time and
        each is joined to ";g)"."""
        if self._labels is None:
            prefixes, sep = ["("], ""
            for d in self.kernel.factors:
                digits = [sep + str(x) for x in range(d)]
                prefixes = [p + x for p in prefixes for x in digits]
                sep = ","
            suffixes = [";" + lbl + ")" for lbl in self.base.elements]
            self._labels = tuple(p + s for p in prefixes for s in suffixes)
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

    def mul_pointwise(self, others, left=False) -> list:
        """i * others[i] (others[i] * i with left) for every element i, in
        index order, one base element g at a time: when others[g::ng] lies
        over one h, as the right identity and the inverses do, the block is
        read from the tables as a whole list and written to out[g::ng];
        otherwise it goes element by element."""
        ng = self.base.order
        hi, lo, fold_hi, fold_lo = self._hi, self._lo, self._fold_hi, self._fold_lo
        kernel = range(self.order // ng)
        out = [0] * self.order
        for g in range(ng):
            block = others[g::ng]
            h = block[0] % ng
            if [j % ng for j in block].count(h) != len(block):
                pairs = zip(range(g, self.order, ng), block)
                out[g::ng] = [self.mul(j, i) if left else self.mul(i, j) for i, j in pairs]
                continue
            b = [j // ng for j in block]
            x, y, s, t = (b, kernel, h, g) if left else (kernel, b, g, h)
            act = self._act[s]
            col = self.add_row(self._coc[s][t])
            st = self.base.mul(s, t)
            out[g::ng] = [col[fold_hi[hi[u] + hi[v]] + fold_lo[lo[u] + lo[v]]] * ng + st
                          for u, v in zip(x, [act[z] for z in y])]
        return out

    def inverses(self) -> list:
        """(a,g)^-1 = (-g^-1.(a + c(g,g^-1)), g^-1) for every (a,g), in index
        order, one g at a time; cached and shared, so callers must not
        modify it."""
        if self._inverses is None:
            ng, neg = self.base.order, self._neg
            out = [0] * self.order
            for g in range(ng):
                gi = self.base.inv(g)
                act = self._act[gi]
                out[g::ng] = [neg[act[x]] * ng + gi for x in self.add_row(self._coc[g][gi])]
            self._inverses = out
        return self._inverses

    def inv(self, i: int) -> int:
        return self.inverses()[i]

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
        construction, and the inverses come from `inverses`."""
        if self._total is None:
            check_entries("total group table", self.order ** 2, max_entries)
            self._total = FiniteGroup(
                order=self.order, elements=self.elements,
                table=tuple(tuple(self.mul_row(i)) for i in range(self.order)),
                inverse=tuple(self.inverses()))
        return self._total


def build_extension(kernel: GModule, cocycle: Cochain, max_entries=None) -> GroupExtension:
    """Construct A x|_c G from a (kernel, c) read from input; fails with
    the associativity-violating triple when c is not a 2-cocycle (the two
    failure sets coincide), then calls `_extension`."""
    if not kernel.is_torsion:
        raise KernelNotFinite("extension kernel must be finite")
    if cocycle.degree != 2:
        raise NotACocycle("extension cocycle must have degree 2")
    defect = first_cocycle_defect(cocycle)
    if defect is not None:
        raise NotACocycle(
            "extension cocycle fails the 2-cocycle condition", witness=defect
        )
    return _extension(kernel, cocycle, max_entries)


def _extension(kernel: GModule, cocycle: Cochain, max_entries=None) -> GroupExtension:
    """The work of `build_extension`: gated on the |A||G| entries of its
    element and action tables, with nothing else checked.  The caller
    proves that A is finite and c a 2-cocycle, as `universal_kernel` does
    for the (A, c) it builds."""
    check_entries("extension table", kernel.size() * kernel.group.order, max_entries,
                  formula="|A||G| = ")
    return GroupExtension(kernel, cocycle)


def module_through_projection(ext: GroupExtension, module: GModule) -> GModule:
    """A G-module viewed as a module over the total group: the kernel acts
    trivially, everything factors through pi.  Element i = a|G| + g acts
    as g, so the action is G's tuple of matrices repeated |A| times, its
    matrices shared, not copied."""
    out = GModule(ext, module.factors, (), _validate=False)
    out.action = module.action * (ext.order // ext.base.order)
    return out


def lift_cochain(ext: GroupExtension, omega: Cochain, max_entries=None) -> Cochain:
    """pi^* omega as a cochain of the total group, materialized from the
    support only: pi^* omega(t) = omega(u) for every t in the product of
    the fibres pi^-1(u_i) = {a |G| + u_i}, for each u in omega's support.
    The values are stored in lexicographic tuple order; they are omega's,
    reduced and nonzero, and every t_i lies over u_i != e, so t_i != 0.
    Gated on the |supp omega| * |A|^n entries it allocates."""
    n = omega.degree
    ng, na = ext.base.order, ext.order // ext.base.order
    check_entries("lifted cochain", len(omega.values) * na ** n, max_entries)
    coeffs = module_through_projection(ext, omega.coeffs)
    lifted = []
    for u, v in omega.values.items():
        fibres = [range(x, ext.order, ng) for x in u]
        lifted.extend((t, v) for t in itertools.product(*fibres))
    lifted.sort()
    return Cochain._from_reduced(ext, coeffs, n, dict(lifted))


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
    indices; the kernel acts trivially on the coefficients.  The values
    are alpha's, reduced, and the zero ones are dropped.  Gated on the
    (|A|-1)^n tuples it reads."""
    n = alpha.degree
    check_entries("restricted cochain", (ext.order // ext.base.order - 1) ** n, max_entries)
    agrp = kernel_view(ext)
    coeffs = trivial_module(agrp, alpha.coeffs.factors)
    vals = {}
    for tup in nonid_tuples(agrp.order, n):
        v = alpha.evaluate(tuple(ext.iota(a) for a in tup))
        if not alpha.coeffs.is_zero(v):
            vals[tup] = v
    return Cochain._from_reduced(agrp, coeffs, n, vals)


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
