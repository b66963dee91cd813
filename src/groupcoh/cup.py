"""Cup products via the Alexander-Whitney diagonal, module pairings, the
evaluation pairing into Hom-modules, and the degree-2 transgression-style
differential that kills lifted cocycles."""

from __future__ import annotations

from .cochains import Cochain, check_entries, first_cocycle_defect, neg_cochain
from .errors import GroupMismatch, NotACocycle, PairingMismatch
from .modules import GModule, HomModule, tensor_module


class Pairing:
    """G-equivariant bilinear map left x right -> target, given by a
    bilinear callable fn(m, n) whose value the target reduces; no tensor
    of the pairing is materialized."""

    def __init__(self, left: GModule, right: GModule, target: GModule, fn, check=True):
        self.left = left
        self.right = right
        self.target = target
        self.fn = fn
        if check:
            defect = self.equivariance_defect()
            if defect is not None:
                raise ValueError(f"pairing is not G-equivariant at {defect}")

    def apply(self, m, n) -> tuple:
        return self.target.reduce(self.fn(m, n))

    def equivariance_defect(self):
        """P(g.m, g.n) = g.P(m, n) checked on basis vectors (enough, by
        bilinearity); returns a witness (g, i, j) or None."""
        for g in range(self.left.group.order):
            for i in range(self.left.dim):
                ei = self.left.basis_vector(i)
                gei = self.left.act(g, ei)
                for j in range(self.right.dim):
                    ej = self.right.basis_vector(j)
                    lhs = self.apply(gei, self.right.act(g, ej))
                    rhs = self.target.act(g, self.apply(ei, ej))
                    if lhs != rhs:
                        return (self.left.group.elements[g], i, j)
        return None

    def flip(self) -> "Pairing":
        return Pairing(self.right, self.left, self.target, lambda n, m: self.fn(m, n),
                       check=False)


def identity_pairing(left: GModule, right: GModule) -> Pairing:
    """The tautological pairing into the materialized tensor module."""
    tm = tensor_module(left, right)
    return Pairing(left, right, tm, tm.pure, check=False)


def ring_pairing(module: GModule) -> Pairing:
    """Coordinatewise multiplication pairing for a cyclic trivial module."""
    if module.dim != 1:
        raise PairingMismatch("ring pairing expects a rank-1 module")
    return Pairing(module, module, module, lambda m, n: (m[0] * n[0],))


def evaluation_pairing(source: GModule, target: GModule) -> Pairing:
    """A (x) Hom(A, M) -> M, a (x) f -> f(a)."""
    hom = HomModule(source, target)
    return Pairing(source, hom, target, lambda a, f: hom.evaluate(f, a))


def cup_with_pairing(pairing: Pairing, alpha: Cochain, beta: Cochain,
                     max_entries=None) -> Cochain:
    """(alpha cup_P beta)(g_1..g_{p+q}) =
    P(alpha(g_1..g_p), (g_1...g_p) . beta(g_{p+1}..g_{p+q})), over the
    pairs of a prefix in alpha's support and a suffix in beta's.  The
    target reduces every value and sum, and the zero ones are dropped.
    Gated on the number of those pairs, which bounds the entries it
    allocates."""
    if alpha.group is not beta.group:
        raise GroupMismatch("cup factors must share a group")
    if not (alpha.coeffs is pairing.left or alpha.coeffs.same_ambient(pairing.left)):
        raise PairingMismatch("left cochain coefficients do not match the pairing")
    if not (beta.coeffs is pairing.right or beta.coeffs.same_ambient(pairing.right)):
        raise PairingMismatch("right cochain coefficients do not match the pairing")
    group = alpha.group
    tgt = pairing.target
    p = alpha.degree
    vals = {}
    prefixes = alpha.values.items() if p > 0 else [((), alpha.evaluate(()))]
    suffixes = beta.values.items() if beta.degree > 0 else [((), beta.evaluate(()))]
    check_entries("cup product", len(prefixes) * len(suffixes), max_entries)
    for prefix, av in prefixes:
        gprod = group.product(prefix)
        for suffix, bv in suffixes:
            v = pairing.apply(av, pairing.right.act(gprod, bv))
            if tgt.is_zero(v):
                continue
            tup = prefix + suffix
            cur = vals.get(tup)
            vals[tup] = v if cur is None else tgt.add(cur, v)
    vals = {t: v for t, v in vals.items() if not tgt.is_zero(v)}
    return Cochain._from_reduced(group, tgt, p + beta.degree, vals)


def cup(alpha: Cochain, beta: Cochain, max_entries=None):
    """Alexander-Whitney cup product into the tensor module; returns
    (cochain, tensor module)."""
    pairing = identity_pairing(alpha.coeffs, beta.coeffs)
    return cup_with_pairing(pairing, alpha, beta, max_entries), pairing.target


def d2(b: Cochain, c: Cochain, max_entries=None) -> Cochain:
    """d2(b)(g_1..g_{r+2}) = -b_{(g_1..g_r)}((g_1...g_r) . c(g_{r+1}, g_{r+2}))
    for b with values in Hom(A, M) and c a 2-cocycle valued in A: the
    negated cup product of b and c under the evaluation pairing.  The
    entry for a (b, c) read from input: it checks the shapes and proves c
    a 2-cocycle (NotACocycle names the failing triple), then calls
    `_d2`."""
    hom = b.coeffs
    if not isinstance(hom, HomModule):
        raise PairingMismatch("witness cochain must take values in a Hom-module")
    if c.degree != 2:
        raise PairingMismatch("c must have degree 2")
    if not (c.coeffs is hom.source or c.coeffs.same_ambient(hom.source)):
        raise PairingMismatch("c must be valued in the Hom source")
    defect = first_cocycle_defect(c)
    if defect is not None:
        raise NotACocycle("d2 requires a 2-cocycle", witness=defect)
    return _d2(b, c, max_entries)


def _d2(b: Cochain, c: Cochain, max_entries=None) -> Cochain:
    """The work of `d2`, with nothing checked: the caller proves that b
    takes values in a HomModule whose source holds c, and that c is a
    2-cocycle (`universal_kernel` self-checks the c it builds, and the
    verifier's `kernel-cocycle` line the c it loaded)."""
    hom = b.coeffs
    pairing = Pairing(hom, hom.source, hom.target, hom.evaluate, check=False)
    return neg_cochain(cup_with_pairing(pairing, b, c, max_entries))
