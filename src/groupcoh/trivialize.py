"""Constructive cocycle trivialization in finite abelian extensions.

Two drivers:

* trivialize_torsion -- for an n-cocycle (n >= 2) whose values all have
  finite order: build the universal kernel A = (Z/N)^((|G|-1)^2), the
  universal 2-cocycle c, the witness b in Hom(A, M) with d2(b, c) = omega,
  the extension Gamma = A x|_c G and a primitive alpha with
  delta_Gamma alpha = pi^* omega, proved on the generator rows of Gamma.

* trivialize_general -- for arbitrary finitely generated coefficients and
  n >= 3: split off the torsion submodule, kill the free part with the
  rational averaging homotopy, and chain two torsion trivializations.

Both emit a TrivializationCertificate that verify_certificate re-checks
from scratch.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

from . import cochains
from . import intlinalg as la
from .cochains import (
    Cochain,
    MatrixForm,
    add_cochains,
    averaging_homotopy,
    check_entries,
    coboundary,
    coboundary_defect,
    coboundary_value,  # unused here; kept bound for perfbench/tracer.py and its test
    cochain_from_json,
    cochain_to_json,
    divide_cochain,
    first_cocycle_defect,
    json_entries,
    json_int_vector,
    max_entries_limit,
    pick_coordinates,
    place_coordinates,
    scale_cochain,
    sub_cochains,
    write_json,
)
from .cup import _d2
from .errors import (
    DegreeMismatch,
    DegreeTooLow,
    ExponentMismatch,
    NonTorsionValue,
    NotACocycle,
    ResourceLimit,
    SelfCheckFailed,
)
from .extensions import (
    GroupExtension,
    _extension,
    build_extension,
    lift_cochain,
    module_through_projection,
    restrict_cochain,
)
from .groups import greedy_generators, group_from_json, group_to_json
from .modules import (
    GModule,
    HomModule,
    module_from_json,
    module_to_json,
    torsion_submodule,
)


# -- building blocks -------------------------------------------------------


def torsion_exponent(omega: Cochain) -> int:
    """lcm of the orders of the values of omega; 1 for the zero cochain.
    Raises NonTorsionValue (with the offending tuple) on infinite order."""
    n = 1
    for tup, v in omega.values.items():
        order = omega.coeffs.element_order(v)
        if order == 0:
            raise NonTorsionValue("cocycle value has infinite order", witness=tup)
        n = math.lcm(n, order)
    return n


def universal_kernel(group, exponent: int):
    """(A, c): A = (Z/N)^((|G|-1)^2) generated by pair symbols x_{g,h}
    (g, h nonidentity) with g . x_{h,k} = x_{gh,k} - x_{g,hk} + x_{g,h}
    and x_{e,*} = x_{*,e} = 0; c(g, h) = x_{g,h} is then a 2-cocycle.

    A is built unvalidated, as the formula is an action of the (validated,
    so associative) group G.  On the free module on every symbol x_{h,k},
    modulo the x_{e,.} and x_{.,e}, the formula respects those zeros: h = e
    gives x_{g,k} - x_{g,k} + x_{g,e} = 0, and k = e gives x_{gh,e} -
    x_{g,h} + x_{g,h} = 0; the matrices below drop exactly these symbols.
    e acts as the identity, as x_{e,hk} = x_{e,h} = 0.  And g1 . (g2 .
    x_{h,k}) = (x_{g1g2h,k} - x_{g1,g2hk} + x_{g1,g2h}) - (x_{g1g2,hk} -
    x_{g1,g2hk} + x_{g1,g2}) + (x_{g1g2,h} - x_{g1,g2h} + x_{g1,g2}) =
    (g1g2) . x_{h,k}, as x_{g1,g2hk}, x_{g1,g2h} and x_{g1,g2} cancel.  So
    g -> rho(g) is a homomorphism of integer matrices, and as every
    modulus is N any integer matrix descends to A.  c is checked to be a
    2-cocycle all the same, and this is the one check of c in a
    trivialization: `trivialize_torsion` hands c to the unchecked cores
    `cup._d2` and `extensions._extension` on its strength.  The values of c
    are unit vectors, reduced modulo N >= 2 and nonzero."""
    order = group.order
    nonid = order - 1
    s = nonid * nonid

    def pair_index(g, h):
        return (g - 1) * nonid + (h - 1)

    if exponent == 1 or s == 0:
        kernel = GModule(group, (), [[] for _ in range(order)], _validate=False)
        c = Cochain(group, kernel, 2)
        return kernel, c

    action = []
    for g in range(order):
        mat = la.zeros(s, s)
        for h in range(1, order):
            for k in range(1, order):
                col = pair_index(h, k)
                gh = group.mul(g, h)
                hk = group.mul(h, k)
                if gh:
                    mat[pair_index(gh, k)][col] += 1
                if g and hk:
                    mat[pair_index(g, hk)][col] -= 1
                if g:
                    mat[pair_index(g, h)][col] += 1
        action.append(mat)
    kernel = GModule(group, (exponent,) * s, action, _validate=False)
    vals = {
        (g, h): tuple(1 if i == pair_index(g, h) else 0 for i in range(s))
        for g in range(1, order)
        for h in range(1, order)
    }
    c = Cochain._from_reduced(group, kernel, 2, vals)
    if first_cocycle_defect(c) is not None:
        raise SelfCheckFailed("universal_kernel: c is not a 2-cocycle")
    return kernel, c


def build_witness(omega: Cochain, kernel: GModule, c: Cochain) -> Cochain:
    """The (n-2)-cochain b with values in Hom(A, M) satisfying d2(b, c) =
    omega: first the pair-symbol transporter Y_(g_1..g_{n-2})(x_{g,h}) =
    -omega(g_1..g_{n-2},g,h), then b(a) = Y(s^{-1} . a) with s =
    g_1...g_{n-2} acting on A only (the Hom-action s . Y composed with
    s^{-1} on M), so that b(s . x) = Y(x) as d2 needs.  Every value comes
    from `HomModule.from_images`, so it is reduced, and the zero ones are
    dropped."""
    n = omega.degree
    if n < 2:
        raise DegreeTooLow("witness construction needs degree >= 2")
    group = omega.group
    module = omega.coeffs
    exponent = kernel.exponent
    for tup, v in omega.values.items():
        if not module.is_zero(module.scale(exponent, v)):
            raise ExponentMismatch(
                f"kernel exponent {exponent} does not annihilate omega at {tup}"
            )
    hom = HomModule(kernel, module)
    nonid = group.order - 1
    # Y vanishes on every prefix outside the support of omega, and so does b
    rows = {}
    for tup, v in sorted(omega.values.items()):
        rows.setdefault(tup[:n - 2], []).append((tup[n - 2:], v))
    vals = {}
    for prefix, row in rows.items():
        images = [module.zero()] * kernel.dim
        for (g, h), v in row:
            images[(g - 1) * nonid + (h - 1)] = module.neg(v)
        s = group.product(prefix)
        b = hom.act(s, hom.from_images(images))
        b = hom.from_images([module.act(group.inv(s), v) for v in hom.images(b)])
        if not hom.is_zero(b):
            vals[prefix] = b
    return Cochain._from_reduced(group, hom, n - 2, vals)


def _phi_table(kernel: GModule, module: GModule, images, rho, sign: int) -> list:
    """sign * b(rho . a) for every kernel index a, b: A -> M given by the
    images of A's basis vectors: coordinate c of M is the digit expansion
    of sum_j x_j y_j over A's indices, y_j = sign * sum_i rho[i][j]
    b(e_i)_c, reduced modulo d_c; the coordinates are zipped into tuples."""
    coords = []
    for c, dc in enumerate(module.factors):
        col = [0]
        for j, d in enumerate(kernel.factors):
            y = sign * sum(r[j] * img[c] for r, img in zip(rho, images))
            steps = [x * y for x in range(d)]
            col = [v + u for v in col for u in steps]
        coords.append([v % dc for v in col] if dc else col)
    return list(zip(*coords))


def closed_form_alpha(ext: GroupExtension, omega: Cochain, witness: Cochain,
                      max_entries=None) -> Cochain:
    """The primitive alpha((a_1,g_1)..(a_{n-1},g_{n-1})) =
    (-1)^n b_(g_1..g_{n-2})((g_1...g_{n-2}) . a_{n-1}).

    Exact: alpha = +-(pi^* b cup s) with s(a, g) = a and delta s = -pi^* c,
    so the Leibniz rule and delta b = 0 give delta alpha = pi^* d2(b, c).

    alpha ignores a_1..a_{n-2} and g_{n-1} and is linear in a_{n-1}: for
    each prefix gs in the support of b the homomorphism phi_gs =
    (-1)^n b_gs o rho_A(g_1...g_{n-2}) : A -> M is tabulated once over
    A's element indices, and every tuple of the fibre product over gs
    reads its value from that table.  The values are emitted in
    lexicographic tuple order; each is reduced modulo the factors of M and
    nonzero, so its kernel index a is not 0 (phi(0) = 0) and no tuple holds
    the identity (0, e).  Gated on the (|Gamma|-1)^(n-1) tuples of its
    domain.
    """
    n = omega.degree
    check_entries("closed-form primitive", (ext.order - 1) ** (n - 1), max_entries)
    hom: HomModule = witness.coeffs
    module, kernel = omega.coeffs, ext.kernel
    sign = 1 if n % 2 == 0 else -1
    ng = ext.base.order
    tables = {}  # phi_gs as (kernel index, nonzero value) pairs
    for gs, b in witness.values.items():
        phi = _phi_table(kernel, module, hom.images(b), kernel.action[ext.base.product(gs)], sign)
        tables[gs] = [(a, v) for a, v in enumerate(phi) if any(v)]
    vals = {}
    lifts = [t for t in range(1, ext.order) if t % ng]  # t over a g != 1
    for prefix in itertools.product(lifts, repeat=n - 2):
        for a, v in tables.get(tuple(t % ng for t in prefix), ()):
            for t in range(a * ng, a * ng + ng):
                vals[prefix + (t,)] = v
    return Cochain._from_reduced(ext, module_through_projection(ext, module), n - 1, vals)


# -- verification of delta_Gamma alpha = pi^* omega ------------------------


def verify_lift_primitive(ext: GroupExtension, omega: Cochain, alpha: Cochain,
                          max_entries=None, decided=None):
    """Prove delta_Gamma alpha = pi^* omega, with pi projecting Gamma down
    its tower of extensions to the group of omega, over all Gamma^n tuples
    by the row-wise sweep of `_verify_degree2_indexed`, for every
    coefficient module; its rows are gated on max_entries (ResourceLimit).

    Returns (ok, witness, info) with info = {mode: "exhaustive", seed: 0,
    checked: |Gamma|^n}: the generator rows cover every tuple.  A failure
    with no witness means that omega is no cocycle.  When the generator
    rows decide a pass, their number is appended to the list decided, if
    one is given.
    """
    n = omega.degree
    ok, witness, rows = _verify_degree2_indexed(omega, alpha, max_entries)
    if rows is not None and decided is not None:
        decided.append(rows)
    return ok, witness, {"mode": "exhaustive", "seed": 0, "checked": ext.order ** n}


def _textbook_defect(omega: Cochain, alpha: Cochain):
    """First of 16 uniform Gamma^n tuples drawn by random.Random(0) where
    the textbook delta alpha (`coboundary_value`, one tuple at a time)
    differs from pi^* omega, pi reading i mod |G|, or None: a spot-check
    of the row-wise sweep, independent of it."""
    rng = random.Random(0)
    m, ng = alpha.coeffs, omega.group.order
    for _ in range(16):
        tup = tuple(rng.randrange(alpha.group.order) for _ in range(omega.degree))
        if m.reduce(cochains.coboundary_value(alpha, tup)) != m.reduce(
                omega.evaluate(tuple(i % ng for i in tup))):
            return tup
    return None


def _verify_degree2_indexed(omega: Cochain, alpha: Cochain, max_entries):
    """The exhaustive check of delta alpha = pi^* omega in every degree
    n >= 2: `coboundary_defect` of alpha against omega, which it reads
    through pi, on the generator rows of Gamma, gated on the entries of
    those rows (ResourceLimit beyond `max_entries_limit(max_entries)`).

    When omega is no cocycle the check fails at once, with no witness and
    no row walked: pi^* omega = delta alpha would make pi^* omega, hence
    omega (pi^* is injective and commutes with delta), a cocycle.  When
    omega is a cocycle, delta alpha - pi^* omega is a normalized n-cocycle
    of Gamma (delta alpha is one, and pi is a homomorphism), so only the
    |S| (|Gamma|-1)^(n-2) rows whose prefix starts in S =
    `greedy_generators(Gamma)` are walked, each of |Gamma| dim M entries;
    a pass there is a pass everywhere, and the first failing tuple there
    is the lexicographically first one.  The name predates the other
    degrees and is kept because perfbench/tracer.py patches it.  Returns
    (ok, first failing tuple, the number of generator rows that decided a
    pass)."""
    if first_cocycle_defect(omega) is not None:
        return False, None, None
    gens = greedy_generators(alpha.group)
    bad = coboundary_defect(alpha, omega, gens, max_entries_limit(max_entries))
    if bad is not None:
        return False, bad, None
    return True, None, len(gens) * (alpha.group.order - 1) ** (omega.degree - 2)


# -- certificates ----------------------------------------------------------


@dataclass
class TrivializationCertificate:
    mode: str  # "torsion" | "general"
    omega: Cochain
    exponent: int = None
    kernel: GModule = None
    cocycle: Cochain = None
    witness: Cochain = None
    extension: GroupExtension = None
    alpha: Cochain = None
    partial: bool = False
    stages: dict = None
    verification: dict = field(default_factory=dict)
    # why a partial certificate stopped: the estimate and the limit (not
    # serialized, so certificate bytes do not depend on it)
    reason: str = None

    @property
    def group(self):
        return self.omega.group

    @property
    def module(self):
        return self.omega.coeffs

    @property
    def degree(self):
        return self.omega.degree

    def total_order(self):
        if self.mode == "general":
            return self.stages["stage2"].extension.order
        return self.extension.order if self.extension else None


def trivialize_torsion(omega: Cochain, max_entries=None) -> TrivializationCertificate:
    """Main torsion-coefficient driver (degree n >= 2, all values of
    finite order).  The returned certificate satisfies
    delta_Gamma alpha = pi^* omega, proved on every tuple; when Gamma,
    alpha or that proof exceeds the resource limit, the certificate is
    emitted partial, with the (b, c) witness pair only (and Gamma's order
    once it is built), its reason naming the gate."""
    n = omega.degree
    if n < 2:
        raise DegreeTooLow("trivialization needs degree >= 2")
    defect = first_cocycle_defect(omega)
    if defect is not None:
        raise NotACocycle("input is not a cocycle", witness=defect)
    exponent = torsion_exponent(omega)
    group = omega.group
    kernel, c = universal_kernel(group, exponent)
    witness = build_witness(omega, kernel, c)
    if first_cocycle_defect(witness) is not None:
        raise SelfCheckFailed("trivialize_torsion: the witness b is not a cocycle")
    # c is a 2-cocycle, as universal_kernel has just checked: the cores of
    # d2 and build_extension do not check it again
    if _d2(witness, c) != omega:
        raise SelfCheckFailed("trivialize_torsion: d2(b, c) differs from omega")

    ext = None
    try:
        ext = _extension(kernel, c, max_entries)
        alpha = closed_form_alpha(ext, omega, witness, max_entries)
        ok, bad, info = verify_lift_primitive(ext, omega, alpha, max_entries)
    except ResourceLimit as exc:
        return TrivializationCertificate(
            mode="torsion", omega=omega, exponent=exponent, kernel=kernel,
            cocycle=c, witness=witness, extension=ext, partial=True,
            verification={"mode": "partial", "seed": 0, "checked": 0},
            reason=str(exc),
        )
    if not ok:
        raise SelfCheckFailed(f"trivialize_torsion: delta alpha differs from pi^* omega at {bad}")
    # the textbook formula of cochains on a few tuples: a spot-check of the
    # row-wise sweep, independent of it, on every primitive emitted
    bad = _textbook_defect(omega, alpha)
    if bad is not None:
        raise SelfCheckFailed(f"trivialize_torsion: the textbook delta alpha differs from "
                              f"pi^* omega at {bad}")
    return TrivializationCertificate(
        mode="torsion", omega=omega, exponent=exponent, kernel=kernel,
        cocycle=c, witness=witness, extension=ext, alpha=alpha,
        verification=info,
    )


def trivialize_general(omega: Cochain, max_entries=None) -> TrivializationCertificate:
    """Driver for arbitrary finitely generated coefficients, degree >= 3.

    Pipeline: push omega to the free quotient M/M_T, average it to the
    integer cochain h with delta h = |G| p omega, reduce h mod |G| to a
    torsion cocycle of degree n-1, kill that in a first extension, correct
    to an integral primitive, and kill the remaining M_T-valued defect in a
    second extension stacked on the first.
    """
    n = omega.degree
    if n < 3:
        raise DegreeTooLow("the general driver needs degree >= 3")
    defect = first_cocycle_defect(omega)
    if defect is not None:
        raise NotACocycle("input is not a cocycle", witness=defect)
    group = omega.group
    module = omega.coeffs
    q = group.order

    mt, mfree, tor, free = torsion_submodule(module)
    p_omega = pick_coordinates(omega, free, mfree)
    h = averaging_homotopy(p_omega)
    modq = GModule(group, (q,) * mfree.dim, mfree.action, _validate=False)
    hbar = Cochain(group, modq, n - 1, h.values)

    stage1 = trivialize_torsion(hbar, max_entries)
    if stage1.partial:
        raise ResourceLimit(f"stage-1 torsion trivialization came back partial: "
                            f"{stage1.reason}")
    ext1 = stage1.extension

    # lift omega before any sweep over ext1, so its resource gate fails first
    pi_omega = lift_cochain(ext1, omega, max_entries)
    mfree_g = module_through_projection(ext1, mfree)
    # stage 1 is not partial, so alpha is there; its values lie in [0, q)
    # and are nonzero, so they are reduced in the free module too
    rho_lift = Cochain._from_reduced(ext1, mfree_g, n - 2, stage1.alpha.values)
    pi_h = lift_cochain(ext1, h, max_entries)
    eta = divide_cochain(sub_cochains(pi_h, coboundary(rho_lift, max_entries)), q)
    # delta eta - pi^* p omega is a normalized cocycle (p omega is one, p
    # being a G-map and omega a cocycle): generator rows decide it
    if coboundary_defect(eta, p_omega, greedy_generators(ext1)) is not None:
        raise SelfCheckFailed("trivialize_general: delta eta differs from the free part of pi^* omega")

    module_g = module_through_projection(ext1, module)
    eta_tilde = place_coordinates(eta, free, module_g)
    beta_m = sub_cochains(pi_omega, coboundary(eta_tilde, max_entries))
    # the defect lands in the torsion submodule: its free coordinates are zero
    for tup, v in beta_m.values.items():
        if any(v[i] for i in free):
            raise SelfCheckFailed(f"trivialize_general: the defect has a free component at {tup}")
    beta = pick_coordinates(beta_m, tor, module_through_projection(ext1, mt))

    stage2 = trivialize_torsion(beta, max_entries)
    if stage2.partial:
        raise ResourceLimit(f"stage-2 torsion trivialization came back partial: "
                            f"{stage2.reason}")
    ext2 = stage2.extension

    lifted_eta = lift_cochain(ext2, eta_tilde, max_entries)
    # stage 2 is not partial, so its alpha is there
    alpha = add_cochains(lifted_eta, place_coordinates(stage2.alpha, tor, lifted_eta.coeffs))

    cert = TrivializationCertificate(
        mode="general", omega=omega,
        stages={
            "h": h, "hbar": hbar, "stage1": stage1, "eta": eta,
            "eta_tilde": eta_tilde, "beta": beta, "stage2": stage2,
        },
        alpha=alpha,
    )
    ok, bad, info = verify_lift_primitive(ext2, omega, alpha, max_entries)
    if not ok:
        raise SelfCheckFailed(f"trivialize_general: composite primitive failed verification at {bad}")
    cert.verification = info
    return cert

# -- independent verification ----------------------------------------------


@dataclass
class Check:
    name: str
    ok: bool  # True / False / None (absent or skipped)
    witness: object = None
    note: str = ""

    def line(self) -> str:
        if self.ok is None:
            status = "absent"
        else:
            status = "pass" if self.ok else "FAIL"
        out = f"{self.name}: {status}"
        if self.note:
            out += f" ({self.note})"
        if self.ok is False and self.witness is not None:
            out += f" witness={self.witness}"
        return out


@dataclass
class VerificationReport:
    checks: list

    def ok(self, allow_partial=False) -> bool:
        if any(c.ok is False for c in self.checks):
            return False
        if any(c.ok is None for c in self.checks) and not allow_partial:
            return False
        return True

    def lines(self):
        return [c.line() for c in self.checks]


def _first_difference(f: Cochain, g: Cochain):
    """The lexicographically first tuple where f, its values reduced in g's
    coefficients, differs from g, or None; only the union of their supports
    can hold one."""
    m = g.coeffs
    for tup in sorted(f.values.keys() | g.values.keys()):
        if m.reduce(f.evaluate(tup)) != g.evaluate(tup):
            return tup
    return None


def _first_failure(*pairs):
    """The least index at which some list differs from the list paired with
    it, or None when every pair is equal."""
    if all(found == want for found, want in pairs):
        return None
    return min(next(i for i, (x, y) in enumerate(zip(found, want)) if x != y)
               for found, want in pairs if found != want)


def _check_group_axioms(ext: GroupExtension):
    """Identity and the closed-form two-sided inverse on every element of
    A x|_c G, compared as whole lists in index order: `mul_row(0)`, and
    the right identity (a,g)(0,e), the inverses and both products of each
    element with its inverse, built one base element g at a time by
    `mul_pointwise` and `inverses`.  A failure names the least failing
    element.  Associativity is not sampled: A x|_c G is a group exactly
    when G is a group, A is a G-module and c is a normalized 2-cocycle
    (Brown, Cohomology of Groups, IV.3), and the verifier proves all three
    through group_from_json, module_from_json and the kernel-cocycle check
    (a Cochain stores no tuple that touches the identity)."""
    order = ext.order
    ident, zero = list(range(order)), [0] * order
    bad = _first_failure((ext.mul_row(0), ident), (ext.mul_pointwise(zero), ident))
    if bad is not None:
        return Check("extension-identity", False, witness=bad)
    invs = ext.inverses()
    bad = _first_failure((ext.mul_pointwise(invs), zero),
                         (ext.mul_pointwise(invs, left=True), zero))
    if bad is not None:
        return Check("extension-inverses", False, witness=bad)
    return Check("extension-axioms", True,
                 note=f"identity and inverses on {order} elements; associativity "
                      "follows from the validated base group, kernel module and kernel-cocycle")


def _check_restriction(ext: GroupExtension, alpha: Cochain, max_entries, prefix=""):
    """The Remark's consequence: the restriction of alpha to the kernel is
    a cocycle of A with (trivial-action) coefficients, in every degree
    `first_cocycle_defect` of `restrict_cochain` on the generator rows of
    A, which `kernel_view` reads with no table.  `_alpha_checks` runs it
    only when an exhaustive pass of alpha-trivializes does not imply it."""
    name = prefix + "alpha-restriction"
    try:
        restricted = restrict_cochain(ext, alpha, max_entries)
    except ResourceLimit as exc:
        return Check(name, None, note=str(exc))
    defect = first_cocycle_defect(restricted)
    if defect is not None:
        return Check(name, False, witness=defect)
    return Check(name, True, note=f"cocycle on the generator rows of A, |A| = "
                                  f"{restricted.group.order}")


def _alpha_checks(prefix, ext, omega, alpha, max_entries, declared):
    """The alpha-trivializes and alpha-restriction lines of alpha on ext.

    A pass of alpha-trivializes implies the restriction: iota is a
    homomorphism, so iota^* delta alpha = delta iota^* alpha once A acts
    trivially on the coefficients (as it does through
    `module_through_projection`, checked here on every iota(a)), and
    iota^* pi^* omega = (pi iota)^* omega = 0 for a normalized omega.
    So delta iota^* alpha = 0, and the line reads pass (implied: ...).
    After a failure, or should A act nontrivially, `_check_restriction`
    computes it."""
    trivializes = _trivializes_check(prefix + "alpha-trivializes", ext, omega, alpha,
                                     max_entries, declared)
    action = alpha.coeffs.action
    if trivializes.ok and all(
            action[ext.iota(a)] == action[0] for a in range(ext.order // ext.base.order)):
        restriction = Check(prefix + "alpha-restriction", True,
                            note="implied: delta alpha = pi^* omega on every tuple, iota is a "
                                 "homomorphism and A acts trivially on M, so delta iota^* alpha "
                                 "= iota^* pi^* omega = 0")
    else:
        restriction = _check_restriction(ext, alpha, max_entries, prefix)
    return [trivializes, restriction]


def _trivializes_check(name, ext, omega, alpha, max_entries, declared):
    """The alpha-trivializes line; the note says how many generator rows
    decided a pass, or that omega is no cocycle, which fails it with no
    witness and no row walked.  It also fails when the certificate's
    verification record (declared) claims other than all |Gamma|^n
    tuples."""
    decided = []
    ok, bad, info = verify_lift_primitive(ext, omega, alpha, max_entries, decided)
    note = f"{info['mode']}, {info['checked']} tuples"
    if not ok and bad is None:
        note = "omega is no cocycle, so pi^* omega is no coboundary"
    if decided:
        note += f"; decided on {decided[0]} generator rows"
    if declared.get("checked") != info["checked"]:
        ok = False
        note += (f"; declared verification.checked is {declared.get('checked')!r}, "
                 f"expected |Gamma|^{omega.degree} = {info['checked']}")
    return Check(name, ok, witness=bad, note=note)


def _verify_torsion_cert(cert, checks, max_entries, prefix=""):
    omega = cert.omega
    defect = first_cocycle_defect(omega)
    checks.append(Check(prefix + "omega-cocycle", defect is None, witness=defect))

    # N >= 1, so N v = 0 says that the order of v is finite and divides N
    bad = next((tup for tup, v in omega.values.items()
                if not omega.coeffs.is_zero(omega.coeffs.scale(cert.exponent, v))), None)
    checks.append(Check(prefix + "exponent-annihilates", bad is None, witness=bad,
                        note=f"N={cert.exponent}"))

    c_defect = first_cocycle_defect(cert.cocycle)
    checks.append(Check(prefix + "kernel-cocycle", c_defect is None, witness=c_defect))
    defect = first_cocycle_defect(cert.witness)
    checks.append(Check(prefix + "witness-cocycle", defect is None, witness=defect))
    # d2 is defined for a 2-cocycle c only, and kernel-cocycle has proved it
    if c_defect is None:
        diff = _first_difference(_d2(cert.witness, cert.cocycle), omega)
        checks.append(Check(prefix + "witness-d2", diff is None, witness=diff))
    else:
        checks.append(Check(prefix + "witness-d2", None, note="kernel-cocycle failed"))

    if cert.extension is None:
        checks.append(Check(prefix + "extension-axioms", None, note="extension absent"))
        checks.append(Check(prefix + "alpha-trivializes", None, note="partial certificate"))
        checks.append(Check(prefix + "alpha-restriction", None, note="partial certificate"))
        return
    axioms = _check_group_axioms(cert.extension)
    axioms.name = prefix + axioms.name
    checks.append(axioms)

    if cert.alpha is None:
        checks.append(Check(prefix + "alpha-trivializes", None, note="partial certificate"))
        checks.append(Check(prefix + "alpha-restriction", None, note="partial certificate"))
        return
    checks.extend(_alpha_checks(prefix, cert.extension, omega, cert.alpha, max_entries,
                                cert.verification))


def verify_certificate(cert: TrivializationCertificate,
                       max_entries=None) -> VerificationReport:
    """Re-validate a certificate from scratch: the cocycle conditions of
    omega, c and b, d2(b, c) = omega, the group axioms of the extension,
    delta alpha = pi^* omega, and the kernel-restriction cocycle property
    (implied by a pass of the one before, see `_alpha_checks`).  Every
    failure carries a witness tuple; a check beyond the resource limit
    raises ResourceLimit."""
    checks = []
    if cert.mode == "torsion":
        _verify_torsion_cert(cert, checks, max_entries)
        return VerificationReport(checks)

    omega = cert.omega
    defect = first_cocycle_defect(omega)
    checks.append(Check("omega-cocycle", defect is None, witness=defect))

    module = omega.coeffs
    group = omega.group
    q = group.order
    _, mfree, tor, free = torsion_submodule(module)
    p_omega = pick_coordinates(omega, free, mfree)
    h = cert.stages["h"]
    # each delta x = f line walks the generator rows once the checks that
    # make delta x - f a normalized cocycle have passed (see
    # `coboundary_defect`), else every row; gated on the entries either way
    limit = max_entries_limit(max_entries)
    diff = coboundary_defect(h, scale_cochain(q, p_omega),
                             greedy_generators(group) if defect is None else None, limit)
    checks.append(Check("averaging-primitive", diff is None, witness=diff,
                        note=f"denominator {q}"))
    diff = _first_difference(h, cert.stages["hbar"])
    checks.append(Check("hbar-reduction", diff is None, witness=diff))

    stage1 = cert.stages["stage1"]
    _verify_torsion_cert(stage1, checks, max_entries, prefix="stage1:")
    ext1 = stage1.extension

    # Gamma_1 is a group once c is a cocycle and the axioms hold
    passed = {c.name for c in checks if c.ok}
    gens1 = (greedy_generators(ext1) if defect is None and
             {"stage1:kernel-cocycle", "stage1:extension-axioms"} <= passed else None)
    eta = cert.stages["eta"]
    pi_omega = lift_cochain(ext1, omega, max_entries)
    diff = coboundary_defect(eta, p_omega, gens1, limit)
    checks.append(Check("eta-primitive", diff is None, witness=diff))

    eta_tilde = cert.stages["eta_tilde"]
    beta = cert.stages["beta"]
    beta_defect = first_cocycle_defect(beta)
    # delta eta~ = pi^* omega - j beta
    rhs = sub_cochains(pi_omega, place_coordinates(beta, tor, eta_tilde.coeffs))
    diff = coboundary_defect(eta_tilde, rhs, gens1 if beta_defect is None else None, limit)
    checks.append(Check("beta-defect", diff is None, witness=diff))
    checks.append(Check("beta-cocycle", beta_defect is None, witness=beta_defect))

    stage2 = cert.stages["stage2"]
    _verify_torsion_cert(stage2, checks, max_entries, prefix="stage2:")
    ext2 = stage2.extension

    if cert.alpha is None or ext2 is None:
        checks.append(Check("alpha-trivializes", None, note="partial certificate"))
        checks.append(Check("alpha-restriction", None, note="partial certificate"))
    else:
        checks.extend(_alpha_checks("", ext2, omega, cert.alpha, max_entries,
                                    cert.verification))
    return VerificationReport(checks)

# -- serialization ---------------------------------------------------------


def _witness_to_json(b: Cochain) -> dict:
    hom: HomModule = b.coeffs
    labels = b.group.elements
    entries = []
    for tup in sorted(b.values):
        imgs = hom.images(b.values[tup])
        entries.append({
            "tuple": [labels[i] for i in tup],
            "matrix": [list(img) for img in imgs],
        })
    return {"degree": b.degree, "values": entries}


def _witness_from_json(data: dict, group, hom: HomModule) -> Cochain:
    degree, entries = json_entries(data, group)
    vals = {}
    for tup, entry in entries:
        rows = entry["matrix"]
        if not isinstance(rows, list) or len(rows) != hom.source.dim:
            raise ValueError(f"witness matrix {rows!r} at {entry['tuple']} does not have "
                             f"{hom.source.dim} rows")
        vals[tup] = hom.from_images(
            [json_int_vector(row, hom.target.dim, entry["tuple"]) for row in rows])
    return Cochain(group, hom, degree, vals)


def _certificate_tree(cert: TrivializationCertificate, leaf, witness, embed_group=True) -> dict:
    """The certificate's layout, the one both writers share: a dict tree
    whose cochains are leaf(cochain), and the witness b witness(b)."""
    inp = {
        "module": module_to_json(cert.module, embed_group=False),
        "degree": cert.degree,
        "omega": leaf(cert.omega),
    }
    if embed_group:
        inp["group"] = group_to_json(cert.group)
    data = {
        "format": "groupcoh-certificate",
        "mode": cert.mode,
        "input": inp,
        "partial": cert.partial,
        "verification": cert.verification,
        "alpha": leaf(cert.alpha) if cert.alpha is not None else None,
    }
    if cert.mode == "torsion":
        data["N"] = cert.exponent
        data["kernel"] = module_to_json(cert.kernel, embed_group=False)
        data["c"] = leaf(cert.cocycle)
        data["b"] = witness(cert.witness)
        data["gamma"] = (
            {"order": cert.extension.order} if cert.extension is not None else None
        )
    else:
        st = cert.stages
        data["stages"] = {
            "h": {
                "numerator": leaf(st["h"]),
                "denominator": cert.group.order,
            },
            "stage1": _certificate_tree(st["stage1"], leaf, witness, embed_group=False),
            "eta": leaf(st["eta"]),
            "eta_tilde": leaf(st["eta_tilde"]),
            "stage2": _certificate_tree(st["stage2"], leaf, witness, embed_group=False),
        }
    return data


def certificate_to_json(cert: TrivializationCertificate, embed_group=True) -> dict:
    return _certificate_tree(cert, cochain_to_json, _witness_to_json, embed_group)


def _expect_degree(field, data, expected):
    """Reject a certificate field whose "degree" is not the one its place in
    the certificate fixes."""
    if data["degree"] != expected:
        raise DegreeMismatch(
            f"certificate field {field}.degree is {data['degree']!r}, expected {expected}"
        )


def _expect_field(field, value, expected):
    """Reject a declared certificate field whose value (of the same type:
    1 is not True) is not the one the rest of the certificate fixes."""
    if type(value) is not type(expected) or value != expected:
        raise ValueError(f"certificate field {field} is {value!r}, expected {expected!r}")


def _load_field(field, load, *args):
    """load(*args), with a ValueError naming the certificate field loaded."""
    try:
        return load(*args)
    except ValueError as exc:
        raise ValueError(f"certificate field {field}: {exc}") from None


def _expect_object(field, value):
    """value, or a ValueError naming the certificate field (the whole
    certificate when field is empty) unless it is a JSON object."""
    if not isinstance(value, dict):
        where = f"certificate field {field}" if field else "certificate"
        raise ValueError(f"{where} is {value!r}, expected an object")
    return value


def _expect_verification(field, value, partial):
    """The declared verification record: an object whose mode is
    "partial" exactly when alpha is absent, else "exhaustive", with seed
    and checked integers >= 0, checked 0 exactly when partial.  The
    verifier compares an exhaustive count with |Gamma|^n (see
    _trivializes_check)."""
    _expect_object(field, value)
    mode = value.get("mode")
    _expect_field(field + ".mode", mode, "partial" if partial else "exhaustive")
    for key in ("seed", "checked"):
        x = value.get(key)
        if type(x) is not int or x < 0:
            raise ValueError(f"certificate field {field}.{key} is {x!r}, "
                             "expected an integer >= 0")
    if partial:
        _expect_field(field + ".checked", value["checked"], 0)
    elif value["checked"] < 1:
        raise ValueError(f"certificate field {field}.checked is 0, expected an integer >= 1 "
                         f"in {mode} mode")
    return value


def certificate_from_json(data: dict, group=None, max_entries=None,
                          field="") -> TrivializationCertificate:
    """Rebuild a certificate.  Every nested object is checked to be one,
    every degree against the input degree n before anything is built, and
    the declared fields `format`, `mode`, `partial` (true exactly when
    alpha is absent), `verification`, `N` (the lcm of the orders of
    omega's values), `input.group.order`, `gamma.order` and
    `stages.h.denominator` against what they declare;
    field prefixes the field names in those errors (it names the stage of
    a nested certificate)."""
    _expect_object(field[:-1], data)
    _expect_field(field + "format", data.get("format"), "groupcoh-certificate")
    inp = _expect_object(field + "input", data["input"])
    if group is None:
        group_data = _expect_object(field + "input.group", inp["group"])
        # a certificate must declare the order; group_from_json checks it
        # only when present, under a message without the field's path
        if isinstance(group_data.get("table"), list):
            _expect_field(field + "input.group.order", group_data.get("order"),
                          len(group_data["table"]))
        group = _load_field(field + "input.group", group_from_json, group_data)
    module = _load_field(field + "input.module", module_from_json,
                         _expect_object(field + "input.module", inp["module"]), group)
    omega = cochain_from_json(_expect_object(field + "input.omega", inp["omega"]), group, module)
    n = omega.degree
    _expect_degree(field + "input", inp, n)
    alpha_data = data.get("alpha")
    if alpha_data is not None:
        _expect_degree(field + "alpha", _expect_object(field + "alpha", alpha_data), n - 1)
    partial = data.get("partial", False)
    _expect_field(field + "partial", partial, alpha_data is None)
    verification = _expect_verification(field + "verification", data.get("verification"),
                                        alpha_data is None)

    mode = data.get("mode")
    if mode not in ("torsion", "general"):
        raise ValueError(f"certificate field {field}mode is {mode!r}, "
                         "expected 'torsion' or 'general'")
    if mode == "torsion":
        exponent = data["N"]
        if type(exponent) is not int or exponent < 1:
            raise ValueError(f"certificate field {field}N is {exponent!r}, expected an integer >= 1")
        # N is the exponent trivialize_torsion records; a value of infinite
        # order fails exponent-annihilates with a witness instead
        if all(module.element_order(v) for v in omega.values.values()):
            _expect_field(field + "N", exponent, torsion_exponent(omega))
        _expect_degree(field + "c", _expect_object(field + "c", data["c"]), 2)
        _expect_degree(field + "b", _expect_object(field + "b", data["b"]), n - 2)
        kernel = _load_field(field + "kernel", module_from_json,
                             _expect_object(field + "kernel", data["kernel"]), group)
        if not kernel.is_torsion:
            raise ValueError(f"certificate field {field}kernel.factors is {list(kernel.factors)}, "
                             "expected integers >= 1")
        c = cochain_from_json(data["c"], group, kernel)
        hom = HomModule(kernel, module)
        b = _load_field(field + "b", _witness_from_json, data["b"], group, hom)
        ext = None
        alpha = None
        if data.get("gamma") is not None:
            ext = build_extension(kernel, c, max_entries)
            gamma = _expect_object(field + "gamma", data["gamma"])
            _expect_field(field + "gamma.order", gamma.get("order"), ext.order)
            if alpha_data is not None:
                coeffs = module_through_projection(ext, module)
                alpha = cochain_from_json(alpha_data, ext, coeffs)
        elif alpha_data is not None:
            raise ValueError(f"certificate field {field}gamma is None, but alpha lives on "
                             "the extension")
        return TrivializationCertificate(
            mode="torsion", omega=omega, exponent=exponent, kernel=kernel,
            cocycle=c, witness=b, extension=ext, alpha=alpha, partial=partial,
            verification=verification,
        )

    st = _expect_object(field + "stages", data["stages"])
    for name in ("h", "stage1", "stage2"):
        _expect_object(f"{field}stages.{name}", st[name])
    for name, sub, degree in (("h.numerator", st["h"]["numerator"], n - 1),
                              ("stage1.input", st["stage1"]["input"], n - 1),
                              ("eta", st["eta"], n - 1),
                              ("eta_tilde", st["eta_tilde"], n - 1),
                              ("stage2.input", st["stage2"]["input"], n)):
        name = f"{field}stages.{name}"
        _expect_degree(name, _expect_object(name, sub), degree)
    _expect_field(f"{field}stages.h.denominator", st["h"].get("denominator"), group.order)
    mfree = torsion_submodule(module)[1]
    h = cochain_from_json(st["h"]["numerator"], group, mfree)
    stage1 = certificate_from_json(st["stage1"], group=group, max_entries=max_entries,
                                   field=f"{field}stages.stage1.")
    ext1 = stage1.extension
    if ext1 is None:
        raise ValueError(f"certificate field {field}stages.stage1.gamma is None, but the "
                         "later stages live on the stage-1 extension")
    mfree_g = module_through_projection(ext1, mfree)
    eta = cochain_from_json(st["eta"], ext1, mfree_g)
    module_g = module_through_projection(ext1, module)
    eta_tilde = cochain_from_json(st["eta_tilde"], ext1, module_g)
    stage2 = certificate_from_json(st["stage2"], group=ext1, max_entries=max_entries,
                                   field=f"{field}stages.stage2.")
    ext2 = stage2.extension
    alpha = None
    if alpha_data is not None:
        if ext2 is None:
            raise ValueError(f"certificate field {field}stages.stage2.gamma is None, but alpha "
                             "lives on the stage-2 extension")
        module_g2 = module_through_projection(ext2, module_g)
        alpha = cochain_from_json(alpha_data, ext2, module_g2)
    return TrivializationCertificate(
        mode="general", omega=omega, alpha=alpha, partial=partial,
        stages={
            "h": h, "hbar": stage1.omega, "stage1": stage1, "eta": eta,
            "eta_tilde": eta_tilde, "beta": stage2.omega, "stage2": stage2,
        },
        verification=verification,
    )


def save_certificate(cert: TrivializationCertificate, path: str):
    """Write the bytes of json.dump(certificate_to_json(cert), fh,
    sort_keys=True, indent=1) and a newline, streamed: every cochain is
    written entry by entry from the Cochain itself (see `write_json`)."""
    with open(path, "w") as fh:
        write_json(fh.write, _certificate_tree(cert, lambda f: f, MatrixForm))
        fh.write("\n")


def load_certificate(path: str, max_entries=None) -> TrivializationCertificate:
    with open(path) as fh:
        return certificate_from_json(json.load(fh), max_entries=max_entries)
