import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap

import pytest

from groupcoh import (
    Cochain,
    GModule,
    add_cochains,
    build_extension,
    build_witness,
    builtin_group,
    certificate_from_json,
    certificate_to_json,
    coboundary,
    cochain_from_function,
    cyclic_group,
    d2,
    first_cocycle_defect,
    is_cocycle,
    lift_cochain,
    module_through_projection,
    restrict_cochain,
    scale_cochain,
    solve_coboundary,
    torsion_exponent,
    trivial_module,
    trivialize_general,
    trivialize_torsion,
    universal_kernel,
    verify_certificate,
)
from groupcoh.cochains import coboundary_value, nonid_tuples
from groupcoh.errors import (
    DegreeTooLow,
    ExponentMismatch,
    NonTorsionValue,
    NotACocycle,
    ResourceLimit,
    SelfCheckFailed,
)
from groupcoh.extensions import GroupExtension
from groupcoh.groups import generated, greedy_generators
from groupcoh.modules import element_index
from groupcoh import cochains as cochains_module
from groupcoh import trivialize as trivialize_module
from groupcoh.trivialize import _check_restriction, verify_lift_primitive


def z2_generator_cocycle():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    return Cochain(g, m, 2, {(1, 1): (1,)})


# -- torsion_exponent ------------------------------------------------------


def test_exponent_zero_cochain():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    assert torsion_exponent(Cochain(g, m, 2)) == 1


def test_exponent_single_value():
    assert torsion_exponent(z2_generator_cocycle()) == 2


def test_exponent_lcm():
    g = cyclic_group(2)
    m = trivial_module(g, [6])
    f = Cochain(g, m, 1, {(1,): (3,)})
    f2 = Cochain(g, m, 2, {(1, 1): (2,)})
    assert torsion_exponent(f) == 2
    assert torsion_exponent(f2) == 3
    mixed = Cochain(g, m, 2, {(1, 1): (1,)})
    assert torsion_exponent(mixed) == 6


def test_exponent_rejects_free_value():
    g = cyclic_group(2)
    m = trivial_module(g, [0])
    f = Cochain(g, m, 2, {(1, 1): (1,)})
    with pytest.raises(NonTorsionValue) as exc:
        torsion_exponent(f)
    assert exc.value.witness == (1, 1)


# -- universal_kernel ------------------------------------------------------


def test_universal_kernel_z2():
    g = cyclic_group(2)
    a, c = universal_kernel(g, 2)
    assert list(a.factors) == [2]
    # t . x_{t,t} = x_{tt,t} - x_{t,tt} + x_{t,t} = x_{t,t} (other terms hit
    # the identity and vanish), so the action is trivial
    assert a.act(1, (1,)) == (1,)
    assert c.evaluate((1, 1)) == (1,)
    assert is_cocycle(c)


def test_universal_kernel_trivial_group():
    g = cyclic_group(1)
    a, c = universal_kernel(g, 5)
    assert a.dim == 0
    assert c.is_zero()


def test_universal_kernel_s3():
    g = builtin_group("symmetric:3")
    a, c = universal_kernel(g, 6)
    assert a.dim == 25
    assert all(d == 6 for d in a.factors)
    assert is_cocycle(c)


def test_universal_kernel_action_is_action():
    g = builtin_group("cyclic:2*cyclic:2")
    a, c = universal_kernel(g, 2)
    # (gh).x = g.(h.x) checked on all generators (GModule validation also
    # covers this; re-assert explicitly)
    for x in range(a.dim):
        e = a.basis_vector(x)
        for i in range(g.order):
            for j in range(g.order):
                assert a.act(g.mul(i, j), e) == a.act(i, a.act(j, e))


# -- build_witness ---------------------------------------------------------


def test_witness_z2():
    w = z2_generator_cocycle()
    a, c = universal_kernel(w.group, 2)
    b = build_witness(w, a, c)
    assert b.degree == 0
    hom = b.coeffs
    assert hom.images(b.evaluate(())) == [(1,)]
    assert is_cocycle(b)
    assert d2(b, c) == w


def test_witness_degree_too_low():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    f = Cochain(g, m, 1, {(1,): (1,)})
    a, c = universal_kernel(g, 2)
    with pytest.raises(DegreeTooLow):
        build_witness(f, a, c)


def test_witness_exponent_mismatch():
    g = cyclic_group(2)
    m = trivial_module(g, [4])
    w = Cochain(g, m, 2, {(1, 1): (1,)})  # order 4 value
    a, c = universal_kernel(g, 2)  # exponent-2 kernel cannot absorb it
    with pytest.raises(ExponentMismatch):
        build_witness(w, a, c)


def test_witness_d2_roundtrip_z3():
    g = cyclic_group(3)
    m = trivial_module(g, [3])
    vals = {(i, j): (1,) for i in (1, 2) for j in (1, 2) if i + j >= 3}
    w = Cochain(g, m, 2, vals)
    assert is_cocycle(w)
    a, c = universal_kernel(g, 3)
    b = build_witness(w, a, c)
    assert is_cocycle(b)
    assert d2(b, c) == w


def test_witness_d2_roundtrip_degree3():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    w = Cochain(g, m, 3, {(1, 1, 1): (1,)})
    assert is_cocycle(w)
    a, c = universal_kernel(g, 2)
    b = build_witness(w, a, c)
    assert b.degree == 1
    assert is_cocycle(b)
    assert d2(b, c) == w


def test_witness_d2_roundtrip_twisted_and_noncentral_prefixes():
    # b(a) = Y(s^-1 . a) acts on A only: acting on Hom(A, M) as a whole
    # breaks d2(b, c) = omega once M is twisted (C2 by -1 on Z/4) or the
    # prefix product s has order > 2 (C3)
    rng = random.Random(4)
    c2, c3 = cyclic_group(2), cyclic_group(3)
    sign = GModule(c2, [4], [[[1]], [[-1]]])
    times2 = GModule(c3, [7], [[[1]], [[2]], [[4]]])

    def delta_random(m, n):
        return coboundary(cochain_from_function(
            m.group, m, n - 1, lambda t: (rng.randrange(m.factors[0]),)))

    # a (b + c - [b + c]) / 3 generates H^3(C3; Z/3)
    carry = cochain_from_function(c3, trivial_module(c3, [3]), 3,
                                  lambda t: (t[0] * ((t[1] + t[2]) // 3),))
    omegas = [Cochain(c2, sign, 3, {(1, 1, 1): (1,)}), delta_random(times2, 3),
              delta_random(times2, 4), carry]
    for w in omegas:
        assert not w.is_zero() and is_cocycle(w)
        a, c = universal_kernel(w.group, w.coeffs.exponent)
        b = build_witness(w, a, c)
        assert is_cocycle(b)
        assert d2(b, c) == w


@pytest.mark.parametrize("value", [1, 2, 3])
def test_trivialize_sign_action_degree3(value):
    # C2 acting by -1 on Z/4 with omega(t,t,t) = value: every class
    # trivializes and verifies
    g = cyclic_group(2)
    m = GModule(g, [4], [[[1]], [[-1]]])
    cert = trivialize_torsion(Cochain(g, m, 3, {(1, 1, 1): (value,)}))
    assert not cert.partial
    assert verify_certificate(cert).ok()


# -- trivialize_torsion ----------------------------------------------------


def test_trivialize_smallest():
    cert = trivialize_torsion(z2_generator_cocycle())
    assert cert.exponent == 2
    assert cert.extension.order == 4
    assert cert.verification == {"mode": "exhaustive", "seed": 0, "checked": 16}
    assert verify_certificate(cert).ok()


def test_trivialize_rejects_non_cocycle():
    g = builtin_group("cyclic:2*cyclic:2")
    m = trivial_module(g, [2])
    bad = Cochain(g, m, 2, {(1, 2): (1,)})
    with pytest.raises(NotACocycle):
        trivialize_torsion(bad)


def test_trivialize_degree_too_low():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    f = Cochain(g, m, 1, {(1,): (1,)})
    with pytest.raises(DegreeTooLow):
        trivialize_torsion(f)


def test_trivialize_coboundary_input():
    # already-trivial classes still get a valid certificate, and the
    # base-level solver finds a primitive without any extension
    g = cyclic_group(3)
    m = trivial_module(g, [3])
    u = Cochain(g, m, 1, {(1,): (1,)})
    w = coboundary(u)
    assert not w.is_zero()
    cert = trivialize_torsion(w)
    assert verify_certificate(cert).ok()
    assert solve_coboundary(w) is not None


def test_trivialize_z3_generator():
    g = cyclic_group(3)
    m = trivial_module(g, [3])
    vals = {(i, j): (1,) for i in (1, 2) for j in (1, 2) if i + j >= 3}
    w = Cochain(g, m, 2, vals)
    cert = trivialize_torsion(w)
    assert cert.exponent == 3
    assert list(cert.kernel.factors) == [3, 3, 3, 3]
    assert cert.extension.order == 243
    assert cert.verification["mode"] == "exhaustive"
    assert cert.verification["checked"] == 243 ** 2


def test_trivialize_nontrivial_action():
    # Z/2 acting on Z/4 by negation
    g = cyclic_group(2)
    m = GModule(g, [4], [[[1]], [[-1]]])
    found = None
    for v in range(1, 4):
        w = Cochain(g, m, 2, {(1, 1): (v,)})
        if first_cocycle_defect(w) is None:
            found = w
            break
    assert found is not None
    cert = trivialize_torsion(found)
    assert verify_certificate(cert).ok()


def test_trivialize_partial_when_kernel_huge():
    g = builtin_group("symmetric:3")
    m = trivial_module(g, [6])
    w = Cochain(g, m, 2)
    # exponent 1 keeps this small; force a big kernel case via a real value
    vals = {}
    # bilinear-form style cocycle on the cyclic 3-subgroup is fiddly; use a
    # coboundary so cocycle-ness is automatic
    u = Cochain(g, m, 1, {(i,): (i,) for i in range(1, 6)})
    w = coboundary(u)
    if w.is_zero():
        pytest.skip("chosen coboundary degenerated")
    cert = trivialize_torsion(w)
    assert cert.partial
    assert cert.alpha is None and cert.extension is None
    # witness pair is still fully checked
    report = verify_certificate(cert)
    assert not any(c.ok is False for c in report.checks)
    assert report.ok(allow_partial=True)
    assert not report.ok(allow_partial=False)


def test_sampled_verification_mode():
    # shrink the resource limit so the 16-pair sweep gets sampled instead
    w = z2_generator_cocycle()
    cert = trivialize_torsion(w, max_entries=10**9)  # build everything
    ok, bad, info = verify_lift_primitive(
        cert.extension, w, cert.alpha, max_entries=10, seed=5, sample_size=50
    )
    assert ok and info == {"mode": "sampled", "seed": 5, "checked": 50}


@pytest.mark.parametrize("limit", range(4, 9))
def test_closed_form_resource_limit_gives_partial_certificate(limit):
    # Gamma = 4 elements fit, the (|Gamma|-1)^2 = 9 alpha tuples do not
    g = cyclic_group(2)
    w = Cochain(g, trivial_module(g, [2]), 3, {(1, 1, 1): (1,)})
    cert = trivialize_torsion(w, max_entries=limit)
    assert cert.partial and cert.alpha is None
    assert cert.verification == {"mode": "partial", "seed": 0, "checked": 0}
    assert certificate_to_json(cert)["gamma"] == {"order": 4}


# -- trivialize_general ----------------------------------------------------


def h4_z2_generator():
    g = cyclic_group(2)
    m = trivial_module(g, [0])
    return Cochain(g, m, 4, {(1, 1, 1, 1): (1,)})


def test_general_degree_too_low():
    g = cyclic_group(2)
    m = trivial_module(g, [0])
    w = Cochain(g, m, 2, {(1, 1): (1,)})
    with pytest.raises(DegreeTooLow):
        trivialize_general(w)


def test_general_h4_z():
    w = h4_z2_generator()
    assert is_cocycle(w)
    assert solve_coboundary(w) is None  # genuinely nontrivial class
    cert = trivialize_general(w)
    assert cert.total_order() == 4
    assert cert.verification["checked"] == 256
    assert cert.stages["beta"].is_zero()  # no torsion part in Z
    assert verify_certificate(cert).ok()
    # the final primitive really trivializes the composite lift
    ext2 = cert.stages["stage2"].extension
    proj = trivialize_module._projection(ext2, w.group)
    for tup in nonid_tuples(ext2.order, 4):
        lhs = coboundary_value(cert.alpha, tup)
        rhs = w.evaluate(tuple(proj[i] for i in tup))
        assert cert.alpha.coeffs.reduce(lhs) == cert.alpha.coeffs.reduce(rhs)


def test_general_stage_checks_name_the_first_failing_tuple():
    """Each of h, eta and eta~ of two certificates over Z + Z/2 (one with
    h != 0, one with beta != 0), changed at one tuple at a time, passes or
    fails its delta x = f line as the textbook delta says, and a failure
    names the lexicographically first tuple where it differs.  The lines:
    averaging-primitive, delta h = |G| p omega; eta-primitive, delta eta =
    pi^* p omega; beta-defect, delta eta~ = pi^* omega - j beta."""
    from groupcoh.cochains import RationalCochain, map_coefficients
    from groupcoh.intlinalg import mat_vec
    from groupcoh.modules import torsion_submodule

    g = cyclic_group(2)
    module = trivial_module(g, [0, 2])
    _, jmap, pmap, _ = torsion_submodule(module)

    def first_failure(x, f):
        m = x.coeffs
        return next((t for t in nonid_tuples(x.group.order, x.degree + 1)
                     if m.reduce(coboundary_value(x, t)) != m.reduce(f(t))), None)

    rng, failed = random.Random(24), set()
    for n, value in ((4, (1, 0)), (3, (0, 1))):
        omega = Cochain(g, module, n, {(1,) * n: value})
        cert = trivialize_general(omega)
        assert verify_certificate(cert).ok()
        p_omega = map_coefficients(omega, pmap.matrix, pmap.target)
        ext1, beta = cert.stages["stage1"].extension, cert.stages["beta"]

        def down(t):
            return tuple(ext1.pi(i) for i in t)

        rhs = {
            "averaging-primitive": lambda t: pmap.target.scale(2, p_omega.evaluate(t)),
            "eta-primitive": lambda t: p_omega.evaluate(down(t)),
            "beta-defect": lambda t: module.reduce([a - b for a, b in zip(
                omega.evaluate(down(t)), mat_vec(jmap.matrix, beta.evaluate(t)))]),
        }
        for line, stage in (("averaging-primitive", "h"), ("eta-primitive", "eta"),
                            ("beta-defect", "eta_tilde")):
            good = cert.stages[stage]
            x = good.numerator if stage == "h" else good
            tuples = list(nonid_tuples(x.group.order, x.degree))
            for tup in rng.sample(tuples, min(3, len(tuples))):
                vals = dict(x.values)
                vals[tup] = x.coeffs.add(x.evaluate(tup), (1,) * x.coeffs.dim)
                bad = Cochain(x.group, x.coeffs, x.degree, vals)
                stages = dict(cert.stages, **{stage: RationalCochain(bad, 2) if stage == "h"
                                              else bad})
                check = next(c for c in verify_certificate(
                    dataclasses.replace(cert, stages=stages)).checks if c.name == line)
                want = first_failure(bad, rhs[line])
                assert (check.ok, check.witness) == (want is None, want), (n, line)
                if want is not None:
                    failed.add(line)
    assert failed == set(rhs)


def test_general_lines_walk_generator_rows_only_once_their_checks_pass(monkeypatch):
    """averaging-primitive walks the generator rows of G once omega is a
    cocycle, eta-primitive those of Gamma_1 once c and the stage-1
    extension axioms pass too, and beta-defect once beta is a cocycle
    too; otherwise every row, the witness then the least failing tuple.
    An omega that is no cocycle (the action of g flipped on the free
    coordinate) sends all three to every row.  beta-cocycle is decided
    first but printed after beta-defect.  Every
    2-cochain of C2 in a trivial module is a cocycle, so the stage-1 gate
    is shown through a failing extension-axioms line."""
    from groupcoh.intlinalg import mat_vec
    from groupcoh.modules import torsion_submodule

    g = cyclic_group(2)
    cert = trivialize_general(Cochain(g, trivial_module(g, [0, 2]), 4, {(1,) * 4: (1, 0)}))
    walked = {}
    defect = trivialize_module.coboundary_defect

    def logged(x, f=None, proj=None, firsts=None, max_entries=None):
        walked[x.degree, x.group.order, id(x.coeffs)] = firsts is not None
        return defect(x, f, proj, firsts, max_entries)

    monkeypatch.setattr(trivialize_module, "coboundary_defect", logged)

    def lines(base=cert, **stages):
        walked.clear()
        base = dataclasses.replace(base, stages=dict(base.stages, **stages))
        checks = verify_certificate(base)
        keys = [(x.degree, x.group.order, id(x.coeffs)) for x in (
            base.stages["h"].numerator, base.stages["eta"], base.stages["eta_tilde"])]
        return [walked[k] for k in keys], {c.name: c for c in checks.checks}, checks

    def shifted(x, tup):
        vals = dict(x.values)
        vals[tup] = x.coeffs.add(x.evaluate(tup), (1,) * x.coeffs.dim)
        return Cochain(x.group, x.coeffs, x.degree, vals)

    assert lines()[0] == [True, True, True] and lines()[2].ok()
    data = certificate_to_json(cert)
    data["input"]["module"]["action"]["g"] = [[-1, 0], [0, 1]]
    gens, named, _ = lines(certificate_from_json(data))
    assert gens == [False, False, False] and named["omega-cocycle"].ok is False
    beta = cert.stages["beta"]
    bad_beta = shifted(beta, (1, 2, 3, 1))
    assert first_cocycle_defect(bad_beta) is not None
    gens, named, report = lines(beta=bad_beta)
    assert gens == [True, True, False]
    assert named["beta-cocycle"].ok is False and named["beta-defect"].ok is False
    names = [c.name for c in report.checks]
    assert names.index("beta-cocycle") == names.index("beta-defect") + 1
    x, m = cert.stages["eta_tilde"], cert.stages["eta_tilde"].coeffs
    jmap = torsion_submodule(cert.module)[1]
    want = next(t for t in nonid_tuples(x.group.order, 4)
                if m.reduce(coboundary_value(x, t)) != m.reduce([a - b for a, b in zip(
                    cert.omega.evaluate(tuple(i % 2 for i in t)),
                    mat_vec(jmap.matrix, bad_beta.evaluate(t)))]))
    assert named["beta-defect"].witness == want
    ext1, axioms = cert.stages["stage1"].extension, trivialize_module._check_group_axioms
    monkeypatch.setattr(trivialize_module, "_check_group_axioms", lambda ext: (
        trivialize_module.Check("extension-axioms", False, witness=1) if ext is ext1
        else axioms(ext)))
    gens, named, _ = lines()
    assert gens == [True, False, False] and named["stage1:extension-axioms"].ok is False


def test_general_mode_gates_every_coboundary_on_its_entries():
    """H^4(C2; Z): with 20 entries allowed, stage 1 (|Gamma| = 4) and the
    lifts fit, but delta of its degree-2 primitive needs 3^2 * 4 = 36.  The
    verifier's delta eta (degree 3) walks the |S| = 1 generator row block
    of Gamma, 1 * 3^2 * 4 = 36 entries, once omega, c and the extension
    axioms have passed.  An omega that is no cocycle (the certificate's
    action of g flipped to -1) walks every row: 3^3 * 4 = 108."""
    w = h4_z2_generator()
    with pytest.raises(ResourceLimit, match=r"^coboundary needs 36 entries \(limit 20\)$"):
        trivialize_general(w, max_entries=20, sample_size=100)
    cert = trivialize_general(w)
    with pytest.raises(ResourceLimit, match=r"^coboundary needs 36 entries \(limit 35\)$"):
        verify_certificate(cert, max_entries=35, sample_size=100)
    assert verify_certificate(cert, max_entries=36, sample_size=100).ok()
    data = certificate_to_json(cert)
    data["input"]["module"]["action"]["g"] = [[-1]]
    tampered = certificate_from_json(data)
    with pytest.raises(ResourceLimit, match=r"^coboundary needs 108 entries \(limit 107\)$"):
        verify_certificate(tampered, max_entries=107, sample_size=100)
    lines = {c.name: c for c in verify_certificate(tampered, max_entries=108,
                                                   sample_size=100).checks}
    assert lines["omega-cocycle"].ok is False
    assert (lines["eta-primitive"].ok, lines["eta-primitive"].witness) == (False, (1, 1, 1, 2))


@pytest.mark.parametrize("factors, degree, value, limit, message", [
    ([0], 4, (1,), 3, "stage-1 torsion trivialization came back partial: "
                      "extension table needs |A||G| = 4 entries (limit 3)"),
    ([0], 4, (1,), 8, "stage-1 torsion trivialization came back partial: "
                      "closed-form primitive needs 9 entries (limit 8)"),
    ([0, 2], 4, (1, 1), 250, "stage-2 torsion trivialization came back partial: "
                             "extension table needs |A||G| = 2048 entries (limit 250)"),
    ([0, 2], 3, (0, 1), 8, "stage-2 torsion trivialization came back partial: "
                           "closed-form primitive needs 9 entries (limit 8)"),
])
def test_partial_stage_names_its_estimate_and_limit(factors, degree, value, limit, message):
    g = cyclic_group(2)
    w = Cochain(g, trivial_module(g, factors), degree, {(1,) * degree: value})
    with pytest.raises(ResourceLimit) as info:
        trivialize_general(w, max_entries=limit, sample_size=10)
    assert str(info.value) == message


def test_partial_reason_stays_off_the_certificate_bytes():
    w = Cochain(cyclic_group(2), trivial_module(cyclic_group(2), [2]), 7, {(1,) * 7: (1,)})
    partial = trivialize_torsion(w, max_entries=8)
    assert partial.partial
    assert partial.reason == "closed-form primitive needs 729 entries (limit 8)"
    data = certificate_to_json(partial)
    assert "reason" not in json.dumps(data)
    assert certificate_from_json(data).reason is None


def test_general_torsion_module_degenerates():
    # M pure torsion: free stage is vacuous, stage 2 does all the work
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    w = Cochain(g, m, 3, {(1, 1, 1): (1,)})
    cert = trivialize_general(w)
    assert cert.stages["h"].numerator.is_zero()
    assert cert.stages["stage1"].extension.order == g.order  # trivial stage
    assert verify_certificate(cert).ok()
    # agrees with the direct torsion driver on the final contract
    direct = trivialize_torsion(w)
    assert verify_certificate(direct).ok()


def test_general_zero_cocycle():
    g = cyclic_group(2)
    m = trivial_module(g, [0, 2])
    cert = trivialize_general(Cochain(g, m, 3))
    assert cert.total_order() == g.order  # both extensions trivial
    assert cert.alpha.is_zero()
    assert verify_certificate(cert).ok()


def test_general_mixed_module():
    # M = Z-sign + Z/2 over Z/2, with a cocycle touching both parts
    g = cyclic_group(2)
    m = GModule(g, [0, 2], [[[1, 0], [0, 1]], [[-1, 0], [0, 1]]])
    u = Cochain(g, m, 2, {(1, 1): (1, 0)})
    w = coboundary(u)  # (t,t,t) -> (-2, 0)
    assert not w.is_zero()
    w = Cochain(
        g, m, 3, {(1, 1, 1): m.add(w.evaluate((1, 1, 1)), (0, 1))}
    )
    if first_cocycle_defect(w) is not None:
        w = coboundary(u)
    cert = trivialize_general(w)
    assert verify_certificate(cert).ok()


# -- verify_certificate ----------------------------------------------------


def test_verify_detects_corrupted_alpha():
    cert = trivialize_torsion(z2_generator_cocycle())
    data = certificate_to_json(cert)
    entry = data["alpha"]["values"][0]
    entry["value"] = [(entry["value"][0] + 1) % 2]
    bad = certificate_from_json(data)
    report = verify_certificate(bad)
    assert not report.ok()
    failing = [c for c in report.checks if c.ok is False]
    assert failing and failing[0].witness is not None


def test_verify_detects_corrupted_witness():
    cert = trivialize_torsion(z2_generator_cocycle())
    data = certificate_to_json(cert)
    data["b"]["values"][0]["matrix"][0][0] ^= 1
    bad = certificate_from_json(data)
    report = verify_certificate(bad)
    assert any(c.name == "witness-d2" and c.ok is False for c in report.checks)


def test_certificate_json_roundtrip():
    cert = trivialize_torsion(z2_generator_cocycle())
    data = certificate_to_json(cert)
    again = certificate_from_json(data)
    assert verify_certificate(again).ok()
    assert certificate_to_json(again) == data


def test_general_certificate_json_roundtrip():
    cert = trivialize_general(h4_z2_generator())
    data = certificate_to_json(cert)
    again = certificate_from_json(data)
    assert verify_certificate(again).ok()
    assert certificate_to_json(again) == data


def test_certificate_json_deterministic():
    w = z2_generator_cocycle()
    d1 = json.dumps(certificate_to_json(trivialize_torsion(w)), sort_keys=True)
    d2_ = json.dumps(certificate_to_json(trivialize_torsion(w)), sort_keys=True)
    assert d1 == d2_


# -- the verifier's checks --------------------------------------------------


def z3_generator_cocycle():
    g = cyclic_group(3)
    m = trivial_module(g, [3])
    return Cochain(g, m, 2, {(i, j): (1,) for i in (1, 2) for j in (1, 2) if i + j >= 3})


def test_sampled_verification_note_names_the_limit():
    cert = trivialize_torsion(z2_generator_cocycle())
    report = verify_certificate(cert, max_entries=10, seed=5, sample_size=50)
    check = next(c for c in report.checks if c.name == "alpha-trivializes")
    assert check.ok
    assert check.note == "sampled, 50 tuples; |Gamma|^2 = 16 tuples exceed the limit 10"
    assert report.verification == cert.verification  # certificate data untouched


def test_restriction_check_witness_is_a_delta_defect():
    cert = trivialize_torsion(z3_generator_cocycle())
    ext = cert.extension
    assert _check_restriction(ext, cert.alpha, None).ok
    m = cert.alpha.coeffs
    a = 5  # a nonzero kernel element that is not a generator
    vals = dict(cert.alpha.values)
    vals[(ext.iota(a),)] = m.add(cert.alpha.evaluate((ext.iota(a),)), (1,))
    corrupted = Cochain(ext, m, 1, vals)
    check = _check_restriction(ext, corrupted, None)
    assert check.ok is False and check.witness is not None
    restricted = restrict_cochain(ext, corrupted)
    assert not m.is_zero(coboundary_value(restricted, check.witness))


def test_restriction_witness_of_a_degree_1_alpha_is_the_first_failing_pair():
    """alpha restricted to A = (Z/3)^4 must be additive.  Corrupted at one
    kernel element at a time, the witness is the brute-force first pair
    (a, b) of kernel indices with alpha(a + b) != alpha(a) + alpha(b)."""
    cert = trivialize_torsion(z3_generator_cocycle())
    ext, m, kernel = cert.extension, cert.alpha.coeffs, cert.extension.kernel
    elems = ext.kernel_elements

    def first_failing_pair(alpha):
        val = [alpha.evaluate((ext.iota(a),)) for a in range(len(elems))]
        for a, b in itertools.product(range(1, len(elems)), repeat=2):
            if m.add(val[a], val[b]) != val[element_index(kernel, kernel.add(elems[a], elems[b]))]:
                return (a, b)
        return None

    rng = random.Random(24)
    witnesses = set()
    for a in rng.sample(range(1, len(elems)), 6):
        vals = dict(cert.alpha.values)
        vals[(ext.iota(a),)] = m.add(cert.alpha.evaluate((ext.iota(a),)), (1,))
        corrupted = Cochain(ext, m, 1, vals)
        check = _check_restriction(ext, corrupted, None)
        assert check.ok is False
        assert check.witness == first_failing_pair(corrupted) is not None
        witnesses.add(check.witness)
    assert len(witnesses) > 1


def _restriction_cases():
    certs = [
        trivialize_torsion(z2_generator_cocycle()),
        trivialize_torsion(z3_generator_cocycle()),
        trivialize_general(h4_z2_generator()).stages["stage1"],
    ]
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    certs.append(trivialize_torsion(Cochain(g, m, 3, {(1, 1, 1): (1,)})))
    for cert in certs:
        yield cert.extension, cert.alpha
        m = cert.alpha.coeffs
        for tup in itertools.islice(nonid_tuples(cert.extension.order, cert.alpha.degree), 0, 40, 7):
            vals = dict(cert.alpha.values)
            vals[tup] = m.add(cert.alpha.evaluate(tup), (1,) * m.dim)
            yield cert.extension, Cochain(cert.extension, m, cert.alpha.degree, vals)


def test_restriction_check_agrees_with_restricted_cocycle_check():
    outcomes = set()
    for ext, alpha in _restriction_cases():
        check = _check_restriction(ext, alpha, None)
        exact = first_cocycle_defect(restrict_cochain(ext, alpha)) is None
        assert check.ok is exact
        outcomes.add(exact)
    assert outcomes == {True, False}


def _restriction_calls(monkeypatch):
    """The names of the restriction checks `verify_certificate` computes."""
    calls, check = [], _check_restriction

    def counted(ext, alpha, max_entries, prefix=""):
        calls.append(prefix + "alpha-restriction")
        return check(ext, alpha, max_entries, prefix)

    monkeypatch.setattr(trivialize_module, "_check_restriction", counted)
    return calls


def test_restriction_is_implied_by_an_exhaustive_pass(monkeypatch):
    g = cyclic_group(2)
    certs = [trivialize_torsion(z2_generator_cocycle()),
             trivialize_torsion(z3_generator_cocycle()),
             trivialize_torsion(Cochain(g, trivial_module(g, [2]), 3, {(1, 1, 1): (1,)})),
             trivialize_general(h4_z2_generator())]
    calls = _restriction_calls(monkeypatch)
    for cert in certs:
        report = verify_certificate(cert)
        assert report.ok()
        lines = {c.name: c.line() for c in report.checks if c.name.endswith("alpha-restriction")}
        names = (["stage1:alpha-restriction", "stage2:alpha-restriction", "alpha-restriction"]
                 if cert.mode == "general" else ["alpha-restriction"])
        assert list(lines) == names
        assert all(line.split(": ", 1)[1].startswith("pass (implied: ")
                   for line in lines.values()), lines
    assert calls == []


def test_restriction_is_computed_after_a_failure_or_in_sampled_mode(monkeypatch):
    cert = trivialize_torsion(z3_generator_cocycle())
    ext, m = cert.extension, cert.alpha.coeffs
    vals = dict(cert.alpha.values)
    vals[(ext.iota(5),)] = m.add(cert.alpha.evaluate((ext.iota(5),)), (1,))
    corrupted = dataclasses.replace(cert, alpha=Cochain(ext, m, 1, vals))
    calls = _restriction_calls(monkeypatch)
    checks = {c.name: c for c in verify_certificate(corrupted).checks}
    assert checks["alpha-trivializes"].ok is False
    restriction = checks["alpha-restriction"]
    assert restriction.ok is False and restriction.witness is not None
    restricted = restrict_cochain(ext, corrupted.alpha)
    assert not m.is_zero(coboundary_value(restricted, restriction.witness))
    assert calls == ["alpha-restriction"]
    # sampled under a tiny limit: the pass covers 50 tuples, not all 16
    calls.clear()
    checks = {c.name: c for c in verify_certificate(trivialize_torsion(z2_generator_cocycle()),
                                                    max_entries=10, sample_size=50).checks}
    assert checks["alpha-trivializes"].note.startswith("sampled")
    assert checks["alpha-restriction"].line() == \
        "alpha-restriction: pass (cocycle on the generator rows of A, |A| = 2)"
    assert calls == ["alpha-restriction"]


def test_sampled_declared_count_is_named_but_not_judged():
    cert = trivialize_torsion(z2_generator_cocycle(), max_entries=10, sample_size=50)
    assert cert.verification == {"mode": "sampled", "seed": 0, "checked": 50}
    data = certificate_to_json(cert)

    def trivializes(checked):
        data["verification"]["checked"] = checked
        report = verify_certificate(certificate_from_json(data), max_entries=10, sample_size=50)
        return report.ok(), next(c for c in report.checks if c.name == "alpha-trivializes")

    ok, check = trivializes(50)
    assert ok and check.note == "sampled, 50 tuples; |Gamma|^2 = 16 tuples exceed the limit 10"
    ok, check = trivializes(7)
    assert ok and check.ok
    assert check.note == ("sampled, 50 tuples; |Gamma|^2 = 16 tuples exceed the limit 10; "
                          "declared verification.checked is 7, verify sampled 50")


def test_library_certificate_with_non_cocycle_c_fails_without_raising():
    cert = trivialize_torsion(z3_generator_cocycle())
    c = cert.cocycle
    vals = dict(c.values)
    vals[(1, 1)] = c.coeffs.add(c.evaluate((1, 1)), c.coeffs.basis_vector(0))
    bad = dataclasses.replace(cert, cocycle=Cochain(c.group, c.coeffs, 2, vals))
    report = verify_certificate(bad)
    checks = {check.name: check for check in report.checks}
    assert checks["kernel-cocycle"].ok is False
    assert checks["kernel-cocycle"].witness is not None
    assert checks["witness-d2"].ok is None
    assert checks["witness-d2"].note == "kernel-cocycle failed"
    assert not report.ok(allow_partial=True)


def test_kernel_cocycle_failure_is_rejected_with_witness():
    cert = trivialize_torsion(z3_generator_cocycle())
    data = certificate_to_json(cert)
    entry = data["c"]["values"][0]
    entry["value"] = [(v + 1) % 3 for v in entry["value"]]
    with pytest.raises(NotACocycle) as exc:
        certificate_from_json(data)
    assert exc.value.witness is not None and len(exc.value.witness) == 3


# -- the indexed delta alpha = pi^* omega sweep --------------------------------


def _brute_force_lift_check(ext, omega, alpha):
    """delta alpha = pi^* omega one tuple at a time, lexicographically, with
    pi composed down the tower of extensions element by element."""
    def project(i):
        top = ext
        while top is not omega.group:
            i, top = top.pi(i), top.base
        return i

    m = alpha.coeffs
    for tup in itertools.product(range(ext.order), repeat=omega.degree):
        lhs = coboundary_value(alpha, tup)
        rhs = omega.evaluate(tuple(project(i) for i in tup))
        if m.reduce(lhs) != m.reduce(rhs):
            return False, tup
    return True, None


def _sweep_cases():
    g = cyclic_group(2)
    z2 = trivial_module(g, [2])
    sign = GModule(g, [4], [[[1]], [[-1]]])
    certs = [trivialize_torsion(Cochain(g, z2, n, {(1,) * n: (1,)})) for n in range(2, 6)]
    certs.append(trivialize_torsion(Cochain(g, sign, 2, {(1, 1): (2,)})))
    certs.append(trivialize_torsion(Cochain(g, sign, 3, {(1, 1, 1): (2,)})))
    general = trivialize_general(Cochain(g, trivial_module(g, [4]), 4, {(1,) * 4: (1,)}))
    assert general.stages["stage2"].extension.base is general.stages["stage1"].extension
    # infinite coefficients: Z in degree 6 and Z_sgn in degree 7
    z_sgn = GModule(g, [0], [[[1]], [[-1]]])
    infinite = [trivialize_general(Cochain(g, trivial_module(g, [0]), 6, {(1,) * 6: (1,)})),
                trivialize_general(Cochain(g, z_sgn, 7, {(1,) * 7: (1,)}))]
    for cert in certs + [general] + infinite:
        ext = cert.stages["stage2"].extension if cert.mode == "general" else cert.extension
        alpha = cert.alpha
        yield ext, cert.omega, alpha
        m = alpha.coeffs
        step = max(1, (ext.order - 1) ** alpha.degree // 8)
        for tup in itertools.islice(nonid_tuples(ext.order, alpha.degree), 0, None, step):
            vals = dict(alpha.values)
            vals[tup] = m.add(alpha.evaluate(tup), (1,) * m.dim)
            yield ext, cert.omega, Cochain(ext, m, alpha.degree, vals)


def test_indexed_sweep_agrees_with_brute_force(monkeypatch):
    def per_tuple(*args):
        raise AssertionError("the per-tuple loop ran")

    monkeypatch.setattr(trivialize_module, "coboundary_value", per_tuple)
    verdicts = set()
    for ext, omega, alpha in _sweep_cases():
        ok, bad, info = verify_lift_primitive(ext, omega, alpha)
        assert info == {"mode": "exhaustive", "seed": 0, "checked": ext.order ** omega.degree}
        assert (ok, bad) == _brute_force_lift_check(ext, omega, alpha)
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_exhaustive_checks_make_no_per_tuple_calls(monkeypatch):
    # every exhaustive cocycle check and delta alpha = pi^* omega sweep runs
    # on delta_rows, so coboundary_value is left to sampled mode
    g = builtin_group("cyclic:2*cyclic:2")
    bilinear = {(x, y): (((x >> 1) & 1) * (y & 1),) for x in range(1, 4) for y in range(1, 4)}
    c2 = cyclic_group(2)
    z_sgn = GModule(c2, [0], [[[1]], [[-1]]])
    certs = [
        trivialize_torsion(Cochain(g, trivial_module(g, [2]), 2, bilinear)),
        trivialize_general(Cochain(c2, trivial_module(c2, [0]), 6, {(1,) * 6: (1,)})),
        trivialize_general(Cochain(c2, z_sgn, 7, {(1,) * 7: (1,)})),
    ]
    assert certs[0].extension.order == 2048
    calls = []
    reference = coboundary_value

    def counted(*args):
        calls.append(1)
        return reference(*args)

    monkeypatch.setattr(cochains_module, "coboundary_value", counted)
    monkeypatch.setattr(trivialize_module, "coboundary_value", counted)
    for cert in certs:
        report = verify_certificate(cert)
        assert report.ok() and cert.verification["mode"] == "exhaustive"
        assert all("sampled" not in check.note for check in report.checks)
    ext = certs[0].extension
    assert len(ext.kernel_elements) == 512
    assert first_cocycle_defect(restrict_cochain(ext, certs[0].alpha)) is None
    assert calls == []


def test_trivialize_spot_checks_alpha_with_the_textbook_formula(monkeypatch):
    # a textbook delta that disagrees with the row-wise sweep stops the build
    def off_by_one(f, tup):
        return f.coeffs.add(coboundary_value(f, tup), (1,) * f.coeffs.dim)

    monkeypatch.setattr(cochains_module, "coboundary_value", off_by_one)
    with pytest.raises(SelfCheckFailed, match="textbook delta alpha differs"):
        trivialize_torsion(z2_generator_cocycle())


# -- self-checks that survive python -O ---------------------------------------

SELF_CHECK_SCRIPT = textwrap.dedent("""
    from groupcoh import Cochain, cochains, cyclic_group, trivial_module, trivialize
    from groupcoh.errors import SelfCheckFailed

    if __debug__:
        raise SystemExit("not running under -O")

    def on_call(fn, k, corrupt):
        # fn with its k-th result (every result when k is 0) replaced
        calls = [0]
        def wrapper(*args, **kwargs):
            calls[0] += 1
            out = fn(*args, **kwargs)
            return corrupt(out) if k in (0, calls[0]) else out
        return wrapper

    def plus_one(f):
        tup = next(iter(cochains.nonid_tuples(f.group.order, f.degree)))
        vals = dict(f.values)
        vals[tup] = f.coeffs.add(f.evaluate(tup), (1,) * f.coeffs.dim)
        return Cochain(f.group, f.coeffs, f.degree, vals)

    def zero(f):
        return Cochain(f.group, f.coeffs, f.degree)

    def failed(out):
        return (False, (1,) * 2, out[2])

    g = cyclic_group(2)
    torsion = Cochain(g, trivial_module(g, [2]), 2, {(1, 1): (1,)})
    general = Cochain(g, trivial_module(g, [0]), 4, {(1, 1, 1, 1): (1,)})
    cases = [
        ("universal_kernel", "first_cocycle_defect", 2, lambda out: (1, 1, 1), torsion),
        ("witness-cocycle", "first_cocycle_defect", 3, lambda out: (1, 1, 1), torsion),
        ("witness-d2", "_d2", 1, zero, torsion),
        ("solver-fallback", "verify_lift_primitive", 0, failed, torsion),
        ("divide", "sub_cochains", 1, plus_one, general),
        ("eta-primitive", "divide_cochain", 0, zero, general),
        ("free-component", "sub_cochains", 2, plus_one, general),
        ("composite", "verify_lift_primitive", 3, failed, general),
    ]
    for label, name, k, corrupt, omega in cases:
        original = getattr(trivialize, name)
        setattr(trivialize, name, on_call(original, k, corrupt))
        run = trivialize.trivialize_torsion if omega is torsion else trivialize.trivialize_general
        try:
            run(omega)
        except SelfCheckFailed as exc:
            print("caught", label, exc)
        finally:
            setattr(trivialize, name, original)
""")


def test_trivialize_self_checks_raise_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", SELF_CHECK_SCRIPT],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    caught = [line.split()[1] for line in proc.stdout.splitlines()]
    assert caught == ["universal_kernel", "witness-cocycle", "witness-d2", "solver-fallback",
                      "divide", "eta-primitive", "free-component", "composite"], proc.stdout


# -- generator rows decide a pass ---------------------------------------------


def _bilinear_cert():
    """x1 y2 on (Z/2)^2 in Z/2, trivialized over its 2048-element extension."""
    g = builtin_group("cyclic:2*cyclic:2")
    bilinear = {(x, y): (((x >> 1) & 1) * (y & 1),) for x in range(1, 4) for y in range(1, 4)}
    return trivialize_torsion(Cochain(g, trivial_module(g, [2]), 2, bilinear))


def _shifted(alpha, support):
    """alpha + v on each (tuple, v) of support."""
    vals = dict(alpha.values)
    for tup, v in support.items():
        vals[tup] = alpha.coeffs.add(alpha.evaluate(tup), v)
    return Cochain(alpha.group, alpha.coeffs, alpha.degree, vals)


def test_generator_rows_decide_a_pass(monkeypatch):
    cert = _bilinear_cert()
    ext = cert.extension
    gens = greedy_generators(ext)
    # the lifts of the three non-identity elements of (Z/2)^2 generate Gamma
    assert gens == [1, 2, 3] and len(generated(ext, gens)) == ext.order == 2048
    starts, rows = [], cochains_module.delta_rows

    def counted(f, firsts=None):
        for t, row in rows(f, firsts):
            if f.group is ext:  # not the cocycle check of omega on (Z/2)^2
                starts.append(t[0])
            yield t, row

    monkeypatch.setattr(cochains_module, "delta_rows", counted)
    decided = []
    ok, bad, info = verify_lift_primitive(ext, cert.omega, cert.alpha, decided=decided)
    assert (ok, bad) == (True, None)
    assert info == {"mode": "exhaustive", "seed": 0, "checked": 2048 ** 2}
    assert sorted(starts) == sorted(gens) and decided == [3]
    monkeypatch.undo()
    note = {c.name: c.note for c in verify_certificate(cert).checks}["alpha-trivializes"]
    assert note == "exhaustive, 4194304 tuples; decided on 3 generator rows"


def _s3_sign_extension():
    """S3 acting on Z/4 by the sign, c = delta u: 24 elements, 6 per kernel element."""
    g = builtin_group("symmetric:3")
    a = GModule(g, [4], [[[1 if g.element_order(i) != 2 else -1]] for i in range(g.order)])
    u = Cochain(g, a, 1, {(t,): (t % 4,) for t in range(1, g.order)})
    return build_extension(a, coboundary(u))


@pytest.mark.parametrize("step", [6, 1], ids=["same-base", "other-base"])
def test_extension_axioms_name_the_least_failing_element(monkeypatch, step):
    """Elements 5 = (0, 5) and 7 = (1, 1) lie in different base-element
    blocks, and the block of g = 1 is built before that of g = 5; the
    witness is still the smaller index, as one element at a time found
    it.  step 6 moves a value within its block, step 1 into another."""
    ext = _s3_sign_extension()
    assert ext.base.order == 6 and 5 % 6 == 5 and 7 % 6 == 1
    assert trivialize_module._check_group_axioms(ext).ok
    real_products, real_inverses = GroupExtension.mul_pointwise, GroupExtension.inverses

    def moved(out):
        out = list(out)
        for i in (7, 5):
            out[i] = (out[i] + step) % ext.order
        return out

    def right_identity(self, others, left=False):
        out = real_products(self, others, left)
        return moved(out) if not left and not any(others) else out

    monkeypatch.setattr(GroupExtension, "mul_pointwise", right_identity)
    check = trivialize_module._check_group_axioms(ext)
    assert (check.name, check.ok, check.witness) == ("extension-identity", False, 5)
    monkeypatch.setattr(GroupExtension, "mul_pointwise", real_products)
    monkeypatch.setattr(GroupExtension, "inverses", lambda self: moved(real_inverses(self)))
    check = trivialize_module._check_group_axioms(ext)
    assert (check.name, check.ok, check.witness) == ("extension-inverses", False, 5)


def test_verify_checks_the_extension_axioms_without_a_mul_per_element(monkeypatch):
    cert = _bilinear_cert()
    order = cert.extension.order
    calls, real = [], GroupExtension.mul

    def counted(self, i, j):
        calls.append((i, j))
        return real(self, i, j)

    monkeypatch.setattr(GroupExtension, "mul", counted)
    report = verify_certificate(cert)
    assert report.ok() and any(line.startswith("extension-axioms: pass")
                               for line in report.lines())
    assert len(calls) < order == 2048


def test_generator_rows_agree_with_brute_force_off_the_generators():
    # C3 acts nontrivially on its universal kernel A = (Z/3)^4; corruptions
    # at elements outside S reach the generator rows only through products
    cert = trivialize_torsion(z3_generator_cocycle())
    ext, omega, alpha = cert.extension, cert.omega, cert.alpha
    assert ext.order == 243 and any(a != ext.kernel.action[0] for a in ext.kernel.action)
    gens = set(greedy_generators(ext))
    outside = [x for x in range(1, ext.order) if x not in gens]
    rng = random.Random(8)
    cases = [alpha]
    for _ in range(6):
        picks = rng.sample(outside, rng.choice((1, 2)))
        cases.append(_shifted(alpha, {(x,): (rng.randrange(1, 3),) for x in picks}))
    for case in cases:
        ok, bad, _ = verify_lift_primitive(ext, omega, case)
        assert (ok, bad) == _brute_force_lift_check(ext, omega, case)
    assert not verify_lift_primitive(ext, omega, cases[1])[0]


def test_generator_rows_need_omega_to_be_a_cocycle():
    # Z/8 as the extension of C4 by Z/2 through the carry cocycle c: the
    # greedy generators are (0, 1) alone, which projects to 1, never to 2,
    # so an error of omega' = c + e with e supported at first slot 2 shows
    # on no generator row; only the cocycle check of omega' sends the sweep
    # on.  alpha(a, g) = a has delta alpha = -pi^* c = pi^* c in Z/2.
    g = cyclic_group(4)
    m = trivial_module(g, [2])
    carry = Cochain(g, m, 2, {(i, j): (1,) for i in range(1, 4) for j in range(1, 4)
                              if i + j >= 4})
    ext = build_extension(m, carry)
    assert greedy_generators(ext) == [1] and ext.pi(1) == 1
    alpha = Cochain(ext, module_through_projection(ext, m), 1,
                    {(x,): (1,) for x in range(4, ext.order)})
    assert verify_lift_primitive(ext, carry, alpha)[:2] == (True, None)
    omega = add_cochains(carry, Cochain(g, m, 2, {(2, 1): (1,)}))
    assert first_cocycle_defect(omega) is not None
    decided = []
    ok, bad, _ = verify_lift_primitive(ext, omega, alpha, decided=decided)
    assert (ok, bad) == _brute_force_lift_check(ext, omega, alpha) == (False, (2, 1))
    assert decided == []


def _certificate_extensions():
    """(name, extension) of certificates built in these tests and the
    acceptance suite, every stage of the general ones included."""
    g = cyclic_group(2)
    z2 = trivial_module(g, [2])
    z_sgn = GModule(g, [0], [[[1]], [[-1]]])
    c4 = cyclic_group(4)
    carry = {(i, j): (1,) for i in range(1, 4) for j in range(1, 4) if i + j >= 4}
    certs = [("c2-z2-deg2", trivialize_torsion(z2_generator_cocycle())),
             ("c3-z3-deg2", trivialize_torsion(z3_generator_cocycle())),
             ("c2-z2-deg3", trivialize_torsion(Cochain(g, z2, 3, {(1, 1, 1): (1,)}))),
             ("c2-sign-z4-deg3", trivialize_torsion(Cochain(g, _sign_module_z4(), 3,
                                                            {(1, 1, 1): (2,)}))),
             ("c4-carry", trivialize_torsion(Cochain(c4, trivial_module(c4, [2]), 2, carry))),
             ("c2-z-deg4", trivialize_general(h4_z2_generator())),
             ("c2-z4-deg4", trivialize_general(Cochain(g, trivial_module(g, [4]), 4,
                                                       {(1,) * 4: (1,)}))),
             ("c2-zsgn-deg7", trivialize_general(Cochain(g, z_sgn, 7, {(1,) * 7: (1,)})))]
    certs += [(f"z2xz2-beta{v}", trivialize_torsion(_bilinear_plus_delta(v))) for v in (0, 5)]
    for name, cert in certs:
        if cert.mode == "general":
            yield name + ":stage1", cert.stages["stage1"].extension
            yield name + ":stage2", cert.stages["stage2"].extension
        else:
            yield name, cert.extension


def test_greedy_generators_of_certificate_extensions():
    from test_extensions import _kernel_plus_base

    towers = 0
    for name, ext in _certificate_extensions():
        gens = greedy_generators(ext)
        assert len(generated(ext, gens)) == ext.order, name
        assert len(gens) <= len(_kernel_plus_base(ext)), name
        towers += isinstance(ext.base, type(ext))
    assert towers == 3


def test_ladder_reject_witness_is_the_first_failing_tuple():
    """The corrupted certificate of the benchmark's ladder: x^7 on C2 with
    Z/2, |Gamma| = 4, so 4^7 = 16,384 tuples.  Each of 8 seeded alpha
    entries, flipped as perfbench/workloads.py `reject_op` flips one,
    fails alpha-trivializes with the lexicographically first failing tuple
    as its witness, which lies on a generator row."""
    g = cyclic_group(2)
    cert = trivialize_torsion(Cochain(g, trivial_module(g, [2]), 7, {(1,) * 7: (1,)}))
    assert cert.extension.order ** 7 == 16384
    data = json.dumps(certificate_to_json(cert))
    rng = random.Random(21)
    witnesses = set()
    for _ in range(8):
        bad = json.loads(data)
        entries = bad["alpha"]["values"]
        entry = entries[int(rng.random() * len(entries))]
        entry["value"] = [(entry["value"][0] + 1) % 2]
        corrupted = certificate_from_json(bad)
        check = next(c for c in verify_certificate(corrupted).checks
                     if c.name == "alpha-trivializes")
        ok, want = _brute_force_lift_check(corrupted.extension, corrupted.omega,
                                           corrupted.alpha)
        assert check.ok is False and not ok
        assert check.witness == want
        assert want[0] in greedy_generators(corrupted.extension)
        witnesses.add(want)
    assert len(witnesses) > 1


def test_verify_decides_on_generator_rows_under_python_O(tmp_path):
    cert = _bilinear_cert()
    ext = cert.extension
    gens = set(greedy_generators(ext))
    data = certificate_to_json(cert)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(data))
    index = {label: i for i, label in enumerate(ext.elements)}
    entry = next(e for e in data["alpha"]["values"] if index[e["tuple"][0]] not in gens)
    entry["value"] = [(entry["value"][0] + 1) % 2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    corrupted = certificate_from_json(data)
    ok, witness = _brute_force_lift_check(corrupted.extension, corrupted.omega, corrupted.alpha)
    assert not ok

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)

    def verify(path):
        return subprocess.run([sys.executable, "-O", "-m", "groupcoh.cli", "verify", str(path)],
                              env=env, capture_output=True, text=True, timeout=120)

    proc = verify(good)
    assert proc.returncode == 0, proc.stderr
    assert "alpha-trivializes: pass (exhaustive, 4194304 tuples; decided on 3 generator rows)" \
        in proc.stdout
    assert "alpha-restriction: pass (implied: " in proc.stdout
    proc = verify(bad)
    assert proc.returncode == 7, proc.stderr
    assert f"alpha-trivializes: FAIL (exhaustive, 4194304 tuples) witness={witness}" \
        in proc.stdout.splitlines()
    # the failure sends the restriction to be computed; the corrupted
    # entry lies on a kernel element, so it fails with a witness too
    restriction = _check_restriction(corrupted.extension, corrupted.alpha, None)
    assert restriction.ok is False and restriction.witness is not None
    assert restriction.line() in proc.stdout.splitlines()


# -- the closed-form primitive by linearity ----------------------------------


def _per_tuple_alpha(ext, omega, witness, tuples=None):
    """The primitive one tuple at a time, as closed_form_alpha computed it
    before it tabulated phi_gs: b_gs((g_1...g_{n-2}) . a_{n-1}) by module
    arithmetic on every tuple of tuples (by default every non-identity
    (n-1)-tuple of Gamma)."""
    n = omega.degree
    hom, module = witness.coeffs, omega.coeffs
    sign = 1 if n % 2 == 0 else -1
    ng = ext.base.order
    vals = {}
    for tup in tuples or nonid_tuples(ext.order, n - 1):
        pairs = [divmod(i, ng) for i in tup]
        gs = tuple(g for _, g in pairs[:-1])
        if 0 in gs or gs not in witness.values:
            continue
        images = hom.images(witness.values[gs])
        a = ext.kernel.act(ext.base.product(gs), ext.kernel_elements[pairs[-1][0]])
        out = module.zero()
        for aj, img in zip(a, images):
            if aj:
                out = module.add(out, module.scale(aj, img))
        out = module.scale(sign, out)
        if not module.is_zero(out):
            vals[tup] = out
    return vals


def _alpha_inputs(omega):
    kernel, c = universal_kernel(omega.group, torsion_exponent(omega))
    witness = build_witness(omega, kernel, c)
    return trivialize_module.build_extension(kernel, c), witness


def _bilinear_plus_delta(variant):
    """x1 y2 + delta(beta) on (Z/2)^2, beta read from the bits of variant."""
    g = builtin_group("cyclic:2*cyclic:2")
    m = trivial_module(g, [2])
    bilinear = cochain_from_function(g, m, 2, lambda t: (((t[0] >> 1) & 1) * (t[1] & 1),))
    beta = Cochain(g, m, 1, {(i,): ((variant >> (i - 1)) & 1,) for i in range(1, 4)})
    return add_cochains(bilinear, coboundary(beta))


def _sign_module_z4():
    g = cyclic_group(2)
    return GModule(g, [4], [[[1]], [[-1]]])


def _carry_cocycle(group_spec, d):
    """x cup e on C_n in trivial Z/d: (a, b, c) -> a * floor((b + c) / n)."""
    g = builtin_group(group_spec)
    return cochain_from_function(g, trivial_module(g, [d]), 3,
                                 lambda t: (t[0] * ((t[1] + t[2]) // g.order),))


def _c2_mixed_deg3():
    """(1, 2) at (g, g, g) on C2 in trivial Z/2 + Z/4: delta of it is 2 (1, 2) = 0."""
    g = cyclic_group(2)
    return Cochain(g, trivial_module(g, [2, 4]), 3, {(1, 1, 1): (1, 2)})


def _c2_sign_mixed_deg3():
    """(1, 2) at (g, g, g) on C2 in Z/4 + Z/6, g acting by -1: a cocycle for
    any value, and of exponent 12."""
    g = cyclic_group(2)
    m = GModule(g, [4, 6], [[[1, 0], [0, 1]], [[-1, 0], [0, -1]]])
    return Cochain(g, m, 3, {(1, 1, 1): (1, 2)})


def _z2xz2_mixed_deg2():
    """Three bilinear forms on (Z/2)^2 in trivial Z/2 + Z/2 + Z/3, the
    last coordinate 0."""
    g = builtin_group("cyclic:2*cyclic:2")
    return cochain_from_function(g, trivial_module(g, [2, 2, 3]), 2,
                                 lambda t: ((t[0] >> 1) * (t[1] & 1), (t[0] & 1) * (t[1] & 1), 0))


ALPHA_CASES = (
    [(f"z2xz2-deg2-beta{v}", lambda v=v: _bilinear_plus_delta(v)) for v in range(8)]
    + [("c2-z2-deg7", lambda: Cochain(cyclic_group(2), trivial_module(cyclic_group(2), [2]),
                                      7, {(1,) * 7: (1,)}))]
    + [(f"c2-sign-z4-deg3-w{v}", lambda v=v: Cochain(cyclic_group(2), _sign_module_z4(), 3,
                                                     {(1, 1, 1): (v,)})) for v in (1, 2, 3)]
    + [("c3-z3-deg3", lambda: _carry_cocycle("cyclic:3", 3))]
    + [("c2-z2+z4-deg3", _c2_mixed_deg3), ("c2-sign-z4+z6-deg3", _c2_sign_mixed_deg3),
       ("z2xz2-z2+z2+z3-deg2", _z2xz2_mixed_deg2)]
)


@pytest.mark.parametrize("name, build", ALPHA_CASES, ids=[c[0] for c in ALPHA_CASES])
def test_closed_form_alpha_matches_the_per_tuple_formula(name, build):
    omega = build()
    ext, witness = _alpha_inputs(omega)
    alpha = trivialize_module.closed_form_alpha(ext, omega, witness)
    expected = _per_tuple_alpha(ext, omega, witness)
    assert expected, name
    assert alpha.values == expected
    assert list(alpha.values) == sorted(alpha.values)


@pytest.mark.parametrize("name, build", ALPHA_CASES, ids=[c[0] for c in ALPHA_CASES])
def test_phi_tables_match_a_per_element_evaluation(name, build):
    """Every phi_gs = (-1)^n b_gs o rho_A(g_1...g_{n-2}), tabulated one
    coordinate of M at a time, against b_gs of rho_A(s) . a computed by
    module arithmetic for every element a of A."""
    omega = build()
    assert first_cocycle_defect(omega) is None
    ext, witness = _alpha_inputs(omega)
    kernel, module, hom = ext.kernel, omega.coeffs, witness.coeffs
    sign = -1 if omega.degree % 2 else 1
    assert witness.values
    for gs, b in witness.values.items():
        s = ext.base.product(gs)
        table = trivialize_module._phi_table(kernel, module, hom.images(b), kernel.action[s], sign)
        assert table == [module.scale(sign, hom.evaluate(b, kernel.act(s, a)))
                         for a in kernel.elements()], gs


def test_closed_form_alpha_matches_the_per_tuple_formula_on_c4_rows():
    """C4 in Z/2, degree 3: |Gamma| = 2048, and the per-tuple formula over
    all 2047^2 tuples takes about a minute, so it is compared on the full
    rows of 10 seeded first entries."""
    omega = _carry_cocycle("cyclic:4", 2)
    ext, witness = _alpha_inputs(omega)
    alpha = trivialize_module.closed_form_alpha(ext, omega, witness)
    firsts = sorted(random.Random(12).sample(range(1, ext.order), 10))
    rows = [(t,) + rest for t in firsts for rest in nonid_tuples(ext.order, 1)]
    expected = _per_tuple_alpha(ext, omega, witness, rows)
    assert expected
    assert {t: v for t, v in alpha.values.items() if t[0] in firsts} == expected


def test_closed_form_alpha_resource_limit_names_the_count():
    omega = Cochain(cyclic_group(2), trivial_module(cyclic_group(2), [2]), 3, {(1, 1, 1): (1,)})
    ext, witness = _alpha_inputs(omega)
    with pytest.raises(ResourceLimit, match=r"^closed-form primitive needs 9 entries \(limit 8\)$"):
        trivialize_module.closed_form_alpha(ext, omega, witness, max_entries=8)
