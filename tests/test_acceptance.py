"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with -s (or read the captured output) to see the per-criterion lines;
each criterion is also a separate test so pytest -v names them directly.
"""

import itertools
import json
import random
import time

import pytest

from groupcoh import (
    Cochain,
    build_extension,
    builtin_group,
    certificate_from_json,
    certificate_to_json,
    coboundary,
    cohomology,
    cup_with_pairing,
    cyclic_group,
    d2,
    first_cocycle_defect,
    is_cocycle,
    restrict_cochain,
    ring_pairing,
    scale_cochain,
    symmetric_group,
    trivial_module,
    trivialize_general,
    trivialize_torsion,
    verify_certificate,
)
from groupcoh.cochains import nonid_tuples
from groupcoh.errors import NotACocycle
from groupcoh.modules import GModule

from test_cochains import brute_cohomology
from test_cup import leibniz_defect, random_cochain


def report(num, ok, note=""):
    tail = f" ({note})" if note else ""
    print(f"criterion {num}: {'pass' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed{tail}"


def all_two_cocycles(group, module):
    tuples = list(nonid_tuples(group.order, 2))
    for combo in itertools.product(list(module.elements()), repeat=len(tuples)):
        f = Cochain(group, module, 2, dict(zip(tuples, combo)))
        if first_cocycle_defect(f) is None:
            yield f


@pytest.fixture(scope="module")
def smallest_cert():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    omega = Cochain(g, m, 2, {(1, 1): (1,)})
    start = time.monotonic()
    cert = trivialize_torsion(omega)
    return cert, time.monotonic() - start


@pytest.fixture(scope="module")
def sweep_certs():
    out = []
    start = time.monotonic()
    for name in ("cyclic:2", "cyclic:2*cyclic:2"):
        g = builtin_group(name)
        m = trivial_module(g, [2])
        certs = [trivialize_torsion(w) for w in all_two_cocycles(g, m)]
        out.append((name, certs))
    return out, time.monotonic() - start


@pytest.fixture(scope="module")
def degree3_cert():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    assert cohomology(g, m, 3) == [2]
    # find a representative of the nonzero class by enumeration
    rep = None
    tuples = list(nonid_tuples(g.order, 3))
    for combo in itertools.product(list(m.elements()), repeat=len(tuples)):
        f = Cochain(g, m, 3, dict(zip(tuples, combo)))
        if first_cocycle_defect(f) is None and not f.is_zero():
            rep = f
            break
    assert rep is not None
    start = time.monotonic()
    cert = trivialize_torsion(rep)
    return cert, time.monotonic() - start


@pytest.fixture(scope="module")
def general_cert():
    g = cyclic_group(2)
    m = trivial_module(g, [0])
    assert cohomology(g, m, 4) == [2]
    omega = Cochain(g, m, 4, {(1, 1, 1, 1): (1,)})
    assert is_cocycle(omega)
    start = time.monotonic()
    cert = trivialize_general(omega)
    return cert, time.monotonic() - start


def test_criterion_01_torsion_smallest(smallest_cert):
    cert, elapsed = smallest_cert
    ok = (
        cert.exponent == 2
        and cert.extension.order == 4
        and any(
            cert.extension.total_group().element_order(i) == 4 for i in range(4)
        )
        and cert.verification == {"mode": "exhaustive", "seed": 0, "checked": 16}
        and not cert.partial
        and elapsed < 1.0
    )
    report(1, ok, f"{elapsed:.3f}s")


def test_criterion_02_torsion_sweep(sweep_certs):
    sweeps, elapsed = sweep_certs
    ok = elapsed < 300.0
    counts = {}
    for name, certs in sweeps:
        counts[name] = len(certs)
        for cert in certs:
            if cert.partial or cert.verification["mode"] != "exhaustive":
                ok = False
    ok = ok and counts["cyclic:2"] == 2 and counts["cyclic:2*cyclic:2"] == 16
    big = dict(sweeps)["cyclic:2*cyclic:2"]
    nonzero = [c for c in big if not c.omega.is_zero() and c.exponent == 2]
    ok = ok and all(
        c.extension.order == 4 * 2 ** 9
        and c.verification["checked"] == (4 * 2 ** 9) ** 2
        for c in nonzero
    )
    report(2, ok, f"{sum(counts.values())} cocycles, {elapsed:.1f}s")


def test_criterion_03_torsion_degree3(degree3_cert):
    cert, elapsed = degree3_cert
    ok = (
        cert.degree == 3
        and not cert.partial
        and cert.verification["mode"] == "exhaustive"
        and cert.verification["checked"] == cert.extension.order ** 3 == 64
        and elapsed < 1.0
    )
    report(3, ok, f"{elapsed:.3f}s")


def test_criterion_04_d2_consistency(smallest_cert, sweep_certs, degree3_cert):
    certs = [smallest_cert[0], degree3_cert[0]]
    for _, batch in sweep_certs[0]:
        certs.extend(batch)
    ok = all(
        is_cocycle(c.witness) and d2(c.witness, c.cocycle) == c.omega
        for c in certs
    )
    report(4, ok, f"{len(certs)} certificates")


def sign_cohomology_oracle(degree):
    """H^n(Z/2; Z with sigma = -1) by the classical norm-map description:
    odd degrees ker(1+sigma)/(sigma-1)Z, even positive degrees
    Z^G/(1+sigma)Z.  Here 1+sigma = 0 and sigma-1 = -2 on Z."""
    if degree % 2 == 1:
        return [2]  # Z / 2Z
    return []  # fixed points are 0


def test_criterion_05_cohomology_oracles():
    start = time.monotonic()
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    m2 = trivial_module(z2, [2])
    m3 = trivial_module(z3, [3])
    sign = GModule(z2, [0], [[[1]], [[-1]]])
    ok = True
    for n in (1, 2, 3):
        ok = ok and cohomology(z2, m2, n) == brute_cohomology(z2, m2, n)
    for n in (1, 2):
        ok = ok and cohomology(z3, m3, n) == brute_cohomology(z3, m3, n)
        ok = ok and cohomology(z2, sign, n) == sign_cohomology_oracle(n)
    ok = ok and cohomology(z2, m2, 2) == [2]
    ok = ok and cohomology(z3, m3, 1) == [3]
    ok = ok and cohomology(z2, sign, 1) == [2]
    elapsed = time.monotonic() - start
    report(5, ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_06_torsion_bound():
    cases = [
        (cyclic_group(2), [2], (1, 2, 3, 4)),
        (cyclic_group(2), [0], (1, 2, 3, 4)),
        (cyclic_group(3), [3], (1, 2)),
        (cyclic_group(4), [4], (1, 2)),
        (symmetric_group(3), [6], (1, 2)),
        (builtin_group("cyclic:2*cyclic:2"), [2], (1, 2)),
    ]
    ok = True
    for group, factors, degrees in cases:
        module = trivial_module(group, factors)
        for n in degrees:
            for f in cohomology(group, module, n):
                if group.order % f:
                    ok = False
    report(6, ok)


def test_criterion_07_leibniz_suite():
    start = time.monotonic()
    rng = random.Random(1729)
    groups = [builtin_group(n) for n in ("cyclic:2", "cyclic:4", "symmetric:3")]
    checked = 0
    ok = True
    while checked < 200:
        g = groups[checked % len(groups)]
        m = trivial_module(g, [4])
        pairing = ring_pairing(m)
        p = rng.randrange(0, 3)
        q = rng.randrange(0, 4 - p) if p < 3 else 0
        a = random_cochain(rng, g, m, p)
        b = random_cochain(rng, g, m, q)
        if not leibniz_defect(pairing, a, b).is_zero():
            ok = False
        checked += 1
    elapsed = time.monotonic() - start
    report(7, ok and elapsed < 60.0, f"{checked} pairs, {elapsed:.1f}s")


def test_criterion_08_general_pipeline(general_cert):
    cert, elapsed = general_cert
    g = cert.group
    ok = (
        cert.total_order() == 4
        and not cert.partial
        and cert.verification["mode"] == "exhaustive"
        and cert.verification["checked"] == 256
        and elapsed < 10.0
    )
    # intermediate contracts, exactly
    h = cert.stages["h"]
    ptw = cert.stages["stage1"]  # stage-1 certificate over hbar
    # delta(h) = p_* omega over the rationals: the numerator satisfies
    # delta(h_num) = |G| * (free part of omega); here M is free so the
    # projection is the identity
    ok = ok and coboundary(h) == scale_cochain(g.order, cert.omega)
    ok = ok and certificate_to_json(cert)["stages"]["h"]["denominator"] == g.order
    ok = ok and cert.stages["eta"].coeffs.factors == cert.module.factors
    ok = ok and cert.stages["beta"].is_zero()
    ok = ok and verify_certificate(cert).ok()
    report(8, ok, f"{elapsed:.2f}s")


def test_criterion_09_restriction(smallest_cert, sweep_certs, degree3_cert,
                                  general_cert):
    certs = [smallest_cert[0], degree3_cert[0]]
    for _, batch in sweep_certs[0]:
        certs.extend(batch)
    ok = True
    for cert in certs:
        restricted = restrict_cochain(cert.extension, cert.alpha)
        if first_cocycle_defect(restricted) is not None:
            ok = False
    # the general certificate's nested stages carry the extensions
    gcert = general_cert[0]
    for stage in ("stage1", "stage2"):
        sub = gcert.stages[stage]
        restricted = restrict_cochain(sub.extension, sub.alpha)
        if first_cocycle_defect(restricted) is not None:
            ok = False
    report(9, ok, f"{len(certs) + 2} certificates")


def test_criterion_10_negative_controls(smallest_cert):
    g = builtin_group("cyclic:2*cyclic:2")
    a = trivial_module(g, [2])
    bad = Cochain(g, a, 2, {(1, 2): (1,)})
    ok = True
    try:
        build_extension(a, bad)
        ok = False
    except NotACocycle as exc:
        ok = ok and exc.witness is not None and len(exc.witness) == 3

    data = certificate_to_json(smallest_cert[0])
    entry = data["alpha"]["values"][0]
    entry["value"] = [(entry["value"][0] + 1) % 2]
    corrupted = certificate_from_json(data)
    rep = verify_certificate(corrupted)
    failing = [c for c in rep.checks if c.ok is False]
    ok = ok and not rep.ok() and failing and failing[0].witness is not None
    report(10, ok)
