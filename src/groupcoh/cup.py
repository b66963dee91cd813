"""Cup products via the Alexander-Whitney diagonal, module pairings, the
evaluation pairing into Hom-modules, and the degree-2 transgression-style
differential that kills lifted cocycles."""

from __future__ import annotations

from .cochains import Cochain, first_cocycle_defect, neg_cochain
from .errors import GroupMismatch, NotACocycle, PairingMismatch
from .modules import GModule, HomModule, tensor_module


class Pairing:
    """G-equivariant bilinear map left x right -> target.

    Backed either by a dense 3-tensor (tensor[i][j] is the target vector of
    e_i (x) e_j) or by an arbitrary bilinear callable; the evaluation
    pairing uses the callable form to avoid materializing Hom tensors.
    """

    def __init__(self, left: GModule, right: GModule, target: GModule,
                 tensor=None, fn=None, check=True):
        if (tensor is None) == (fn is None):
            raise ValueError("provide exactly one of tensor or fn")
        self.left = left
        self.right = right
        self.target = target
        self.tensor = tensor
        self.fn = fn
        if check:
            defect = self.equivariance_defect()
            if defect is not None:
                raise ValueError(f"pairing is not G-equivariant at {defect}")

    def apply(self, m, n) -> tuple:
        if self.fn is not None:
            return self.target.reduce(self.fn(m, n))
        out = [0] * self.target.dim
        for i, mi in enumerate(m):
            if not mi:
                continue
            row = self.tensor[i]
            for j, nj in enumerate(n):
                if nj:
                    vec = row[j]
                    c = mi * nj
                    for t in range(len(out)):
                        out[t] += c * vec[t]
        return self.target.reduce(out)

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
        if self.fn is not None:
            return Pairing(self.right, self.left, self.target,
                           fn=lambda n, m: self.fn(m, n), check=False)
        flipped = [
            [self.tensor[i][j] for i in range(self.left.dim)]
            for j in range(self.right.dim)
        ]
        return Pairing(self.right, self.left, self.target, tensor=flipped, check=False)


def identity_pairing(left: GModule, right: GModule) -> Pairing:
    """The tautological pairing into the materialized tensor module."""
    tm = tensor_module(left, right)
    tensor = [
        [tm.pure(left.basis_vector(i), right.basis_vector(j)) for j in range(right.dim)]
        for i in range(left.dim)
    ]
    return Pairing(left, right, tm, tensor=tensor, check=False)


def ring_pairing(module: GModule) -> Pairing:
    """Coordinatewise multiplication pairing for a cyclic trivial module."""
    if module.dim != 1:
        raise PairingMismatch("ring pairing expects a rank-1 module")
    return Pairing(module, module, module, tensor=[[(1,)]])


def evaluation_pairing(source: GModule, target: GModule) -> Pairing:
    """A (x) Hom(A, M) -> M, a (x) f -> f(a)."""
    hom = HomModule(source, target)
    return Pairing(source, hom, target, fn=lambda a, f: hom.evaluate(f, a))


def cup_with_pairing(pairing: Pairing, alpha: Cochain, beta: Cochain) -> Cochain:
    """(alpha cup_P beta)(g_1..g_{p+q}) =
    P(alpha(g_1..g_p), (g_1...g_p) . beta(g_{p+1}..g_{p+q}))."""
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
    for prefix, av in prefixes:
        gprod = group.product(prefix)
        suffixes = beta.values.items() if beta.degree > 0 else [((), beta.evaluate(()))]
        for suffix, bv in suffixes:
            v = pairing.apply(av, pairing.right.act(gprod, bv))
            if tgt.is_zero(v):
                continue
            tup = prefix + suffix
            cur = vals.get(tup)
            vals[tup] = v if cur is None else tgt.add(cur, v)
    return Cochain(group, tgt, p + beta.degree, vals)


def cup(alpha: Cochain, beta: Cochain):
    """Alexander-Whitney cup product into the tensor module; returns
    (cochain, tensor module)."""
    pairing = identity_pairing(alpha.coeffs, beta.coeffs)
    return cup_with_pairing(pairing, alpha, beta), pairing.target


def d2(b: Cochain, c: Cochain) -> Cochain:
    """d2(b)(g_1..g_{r+2}) = -b_{(g_1..g_r)}((g_1...g_r) . c(g_{r+1}, g_{r+2}))
    for b with values in Hom(A, M) and c a 2-cocycle valued in A: the
    negated cup product of b and c under the evaluation pairing."""
    hom = b.coeffs
    if not isinstance(hom, HomModule):
        raise PairingMismatch("witness cochain must take values in a Hom-module")
    if c.degree != 2:
        raise PairingMismatch("c must have degree 2")
    if c.coeffs is not hom.source and c.coeffs.factors != hom.source.factors:
        raise PairingMismatch("c must be valued in the Hom source")
    defect = first_cocycle_defect(c)
    if defect is not None:
        raise NotACocycle("d2 requires a 2-cocycle", witness=defect)
    pairing = Pairing(hom, hom.source, hom.target,
                      fn=lambda f, a: hom.evaluate(f, a), check=False)
    return neg_cochain(cup_with_pairing(pairing, b, c))
