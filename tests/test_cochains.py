import itertools
import math
import os
import random
import subprocess
import sys
import textwrap

import pytest

from groupcoh import (
    Cochain,
    GModule,
    averaging_homotopy,
    builtin_group,
    coboundary,
    cochain_from_json,
    cochain_to_json,
    cohomology,
    cyclic_group,
    first_cocycle_defect,
    is_cocycle,
    scale_cochain,
    solve_coboundary,
    sub_cochains,
    symmetric_group,
    trivial_module,
)
from groupcoh import intlinalg
from groupcoh.cochains import coboundary_value, nonid_tuples
from groupcoh.errors import DegreeMismatch, ResourceLimit


def random_cochain(rng, group, module, degree, spread=None):
    vals = {}
    for tup in nonid_tuples(group.order, degree):
        vals[tup] = tuple(
            rng.randrange(d) if d else rng.randrange(-3, 4) for d in module.factors
        )
    return Cochain(group, module, degree, vals)


# -- independent enumeration oracle ----------------------------------------


def all_cochains(group, module, degree):
    tuples = list(nonid_tuples(group.order, degree))
    for combo in itertools.product(list(module.elements()), repeat=len(tuples)):
        yield Cochain(group, module, degree, dict(zip(tuples, combo)))


def cochain_vector(f, tuples):
    out = []
    for t in tuples:
        out.extend(f.evaluate(t))
    return tuple(out)


def invariant_factors_from_orders(orders):
    """Recover the invariant factors of a finite abelian group from the
    multiset of its element orders (prime by prime, counting p^j-torsion)."""
    primes = set()
    for o in orders:
        d = 2
        while d * d <= o:
            if o % d == 0:
                primes.add(d)
                while o % d == 0:
                    o //= d
            d += 1
        if o > 1:
            primes.add(o)
    per_prime = {}
    for p in sorted(primes):
        ge = []  # ge[j] = number of elementary divisors with exponent >= j+1
        prev = 1
        j = 1
        while True:
            c = sum(1 for o in orders if p ** j % o == 0)
            r = round(math.log(c / prev, p))
            if c == prev:
                break
            ge.append(r)
            prev = c
            j += 1
        exps = []
        for depth, count in enumerate(ge, start=1):
            nxt = ge[depth] if depth < len(ge) else 0
            exps.extend([depth] * (count - nxt))
        per_prime[p] = sorted(exps, reverse=True)
    width = max((len(v) for v in per_prime.values()), default=0)
    factors = []
    for t in range(width):
        f = 1
        for p, exps in per_prime.items():
            if t < len(exps):
                f *= p ** exps[t]
        factors.append(f)
    return sorted(factors)


def brute_cohomology(group, module, degree):
    """H^n by full enumeration of cochains; feasible for tiny inputs only."""
    tuples = list(nonid_tuples(group.order, degree))
    cocycles = [
        cochain_vector(f, tuples)
        for f in all_cochains(group, module, degree)
        if first_cocycle_defect(f) is None
    ]
    if degree == 0:
        boundaries = {cochain_vector(Cochain(group, module, 0), tuples)}
    else:
        boundaries = {
            cochain_vector(coboundary(f), tuples)
            for f in all_cochains(group, module, degree - 1)
        }
    moduli = [d for _ in tuples for d in module.factors]

    def add(x, y):
        return tuple((a + b) % d if d else a + b for a, b, d in zip(x, y, moduli))

    def canon(z):
        return min(add(z, b) for b in boundaries)

    cosets = {canon(z) for z in cocycles}
    orders = []
    for z in cosets:
        k, acc = 1, z
        zero = canon(tuple(0 for _ in z))
        while canon(acc) != zero:
            acc = add(acc, z)
            k += 1
        orders.append(k)
    return invariant_factors_from_orders(orders)


# -- basics ----------------------------------------------------------------


def test_normalization_structural():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    with pytest.raises(ValueError):
        Cochain(g, m, 2, {(0, 1): (1,)})
    f = Cochain(g, m, 2, {(1, 1): (1,)})
    assert f.evaluate((0, 1)) == (0,)
    with pytest.raises(DegreeMismatch):
        f.evaluate((1,))


def test_degree1_coboundary_by_hand():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    f = Cochain(g, m, 1, {(1,): (1,)})
    # (df)(t,t) = t.f(t) - f(t^2) + f(t) = 1 - 0 + 1 = 0
    assert coboundary(f).is_zero()


def test_degree1_coboundary_sign_action():
    g = cyclic_group(2)
    m = GModule(g, [0], [[[1]], [[-1]]])
    f = Cochain(g, m, 1, {(1,): (1,)})
    # (df)(t,t) = t.f(t) - f(1) + f(t) = -1 - 0 + 1 = 0
    assert coboundary(f).is_zero()


def test_degree2_cocycle_z2():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    w = Cochain(g, m, 2, {(1, 1): (1,)})
    assert is_cocycle(w)


def test_delta_delta_zero_random():
    rng = random.Random(11)
    for name in ("cyclic:2", "cyclic:4", "symmetric:3", "cyclic:2*cyclic:2"):
        group = builtin_group(name)
        for factors in ([2], [0], [4, 3]):
            module = trivial_module(group, factors)
            for degree in (0, 1, 2):
                if (group.order - 1) ** (degree + 2) > 20000:
                    continue
                f = random_cochain(rng, group, module, degree)
                assert coboundary(coboundary(f)).is_zero()


def test_delta_delta_zero_nontrivial_action():
    rng = random.Random(5)
    g = cyclic_group(4)
    # Z/5 with i acting by multiplication by 2^i (2 has order 4 mod 5)
    m = GModule(g, [5], [[[1]], [[2]], [[4]], [[3]]])
    for degree in (0, 1, 2):
        f = random_cochain(rng, g, m, degree)
        assert coboundary(coboundary(f)).is_zero()


def test_non_cocycle_witness():
    g = builtin_group("cyclic:2*cyclic:2")
    m = trivial_module(g, [2])
    f = Cochain(g, m, 2, {(1, 2): (1,)})
    w = first_cocycle_defect(f)
    assert w is not None
    assert not m.is_zero(coboundary_value(f, w))


def test_solve_coboundary_roundtrip():
    rng = random.Random(3)
    g = symmetric_group(3)
    m = trivial_module(g, [4])
    u = random_cochain(rng, g, m, 1)
    f = coboundary(u)
    x = solve_coboundary(f)
    assert x is not None
    assert coboundary(x) == f


def test_solve_coboundary_no_solution():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    w = Cochain(g, m, 2, {(1, 1): (1,)})
    assert solve_coboundary(w) is None


def test_solve_coboundary_zero():
    g = cyclic_group(3)
    m = trivial_module(g, [3])
    z = Cochain(g, m, 2)
    x = solve_coboundary(z)
    assert coboundary(x).is_zero()


def test_resource_limit():
    g = symmetric_group(4)
    m = trivial_module(g, [2])
    with pytest.raises(ResourceLimit):
        cohomology(g, m, 3, max_entries=1000)


# -- cohomology against the enumeration oracle -----------------------------


@pytest.mark.parametrize("family,factors,degree", [
    ("cyclic:2", [2], 1),
    ("cyclic:2", [2], 2),
    ("cyclic:2", [2], 3),
    ("cyclic:3", [3], 1),
    ("cyclic:3", [3], 2),
    ("cyclic:2", [4], 1),
    ("cyclic:2", [4], 2),
    ("cyclic:2*cyclic:2", [2], 1),
])
def test_cohomology_matches_enumeration(family, factors, degree):
    group = builtin_group(family)
    module = trivial_module(group, factors)
    assert sorted(cohomology(group, module, degree)) == brute_cohomology(
        group, module, degree
    )


def test_cohomology_known_values():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    sign = GModule(z2, [0], [[[1]], [[-1]]])
    assert cohomology(z2, trivial_module(z2, [2]), 2) == [2]
    assert cohomology(z3, trivial_module(z3, [3]), 1) == [3]
    # cyclic-group cohomology via the norm map: H^1(Z/2; Z-sign) =
    # ker(1+sigma)/im(sigma-1) = Z/2Z, H^0 = ker(sigma-1) = 0, H^2 =
    # Z^G/norm = 0
    assert cohomology(z2, sign, 0) == []
    assert cohomology(z2, sign, 1) == [2]
    assert cohomology(z2, sign, 2) == []


def test_cohomology_integral_coefficients():
    z2 = cyclic_group(2)
    zmod = trivial_module(z2, [0])
    assert cohomology(z2, zmod, 1) == []
    assert cohomology(z2, zmod, 2) == [2]
    assert cohomology(z2, zmod, 3) == []
    assert cohomology(z2, zmod, 4) == [2]


def test_cohomology_degree_zero_is_invariants():
    z2 = cyclic_group(2)
    m = trivial_module(z2, [6])
    assert cohomology(z2, m, 0) == [6]


def test_cohomology_factors_each_matrix_once(monkeypatch):
    # kernel, lattice basis, one factorization for every coboundary
    # generator, cokernel: one Smith normal form each
    calls = []
    snf = intlinalg._snf_full

    def counted(*args, **kwargs):
        calls.append(1)
        return snf(*args, **kwargs)

    monkeypatch.setattr(intlinalg, "_snf_full", counted)
    g = cyclic_group(4)
    assert cohomology(g, trivial_module(g, [4]), 4) == [4]
    assert len(calls) <= 4


def test_cohomology_trivial_group():
    g = cyclic_group(1)
    m = trivial_module(g, [4])
    assert cohomology(g, m, 1) == []
    assert cohomology(g, m, 2) == []


# -- averaging homotopy -----------------------------------------------------


def test_averaging_homotopy_h2_z():
    z2 = cyclic_group(2)
    zmod = trivial_module(z2, [0])
    w = Cochain(z2, zmod, 2, {(1, 1): (1,)})
    assert is_cocycle(w)
    h = averaging_homotopy(w)
    assert h.denominator == 2
    assert coboundary(h.numerator) == scale_cochain(2, w)


def test_averaging_homotopy_on_coboundary():
    rng = random.Random(9)
    g = cyclic_group(4)
    m = trivial_module(g, [0, 0])
    u = random_cochain(rng, g, m, 1)
    f = coboundary(u)
    h = averaging_homotopy(f)
    assert coboundary(h.numerator) == scale_cochain(g.order, f)


def test_averaging_homotopy_zero():
    g = cyclic_group(3)
    m = trivial_module(g, [0])
    h = averaging_homotopy(Cochain(g, m, 2))
    assert h.numerator.is_zero()


# -- serialization ----------------------------------------------------------


def test_cochain_json_roundtrip():
    g = symmetric_group(3)
    m = trivial_module(g, [6])
    rng = random.Random(1)
    f = random_cochain(rng, g, m, 2)
    f2 = cochain_from_json(cochain_to_json(f), g, m)
    assert f2 == f


def test_cochain_json_rejects_identity():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    data = {"degree": 1, "values": [{"tuple": ["e"], "value": [1]}]}
    with pytest.raises(ValueError):
        cochain_from_json(data, g, m)


# -- self-checks that survive python -O ---------------------------------------

SELF_CHECK_SCRIPT = textwrap.dedent("""
    from groupcoh import cochains, intlinalg
    from groupcoh import coboundary, cochain_from_function, cyclic_group, trivial_module
    from groupcoh.errors import SelfCheckFailed

    if __debug__:
        raise SystemExit("not running under -O")

    def expect_failure(name, run):
        try:
            run()
        except SelfCheckFailed:
            print("caught", name)

    g = cyclic_group(3)
    z3 = trivial_module(g, [3])
    f = coboundary(cochain_from_function(g, z3, 1, lambda t: (t[0] == 1,)))
    solve = intlinalg.solve_with_moduli
    intlinalg.solve_with_moduli = lambda *a, **k: [0] * len(solve(*a, **k))
    expect_failure("solve_coboundary", lambda: cochains.solve_coboundary(f))
    intlinalg.solve_with_moduli = solve

    intlinalg.FactoredMatrix.solve = lambda self, b: None
    expect_failure("cohomology", lambda: cochains.cohomology(g, z3, 2))

    z = trivial_module(g, [0])
    w = coboundary(cochain_from_function(g, z, 1, lambda t: (t[0],)))
    cochains.cochain_from_function = lambda group, coeffs, degree, fn: (
        cochains.zero_cochain(group, coeffs, degree))
    expect_failure("averaging_homotopy", lambda: cochains.averaging_homotopy(w))
""")


def test_self_checks_raise_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", SELF_CHECK_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == [
        "caught solve_coboundary", "caught cohomology", "caught averaging_homotopy",
    ]
