import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from groupcoh import (
    Cochain,
    GModule,
    averaging_homotopy,
    builtin_group,
    coboundary,
    cochain_from_function,
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
from groupcoh.cochains import (
    add_cochains,
    coboundary_matrix,
    coboundary_value,
    delta_rows,
    neg_cochain,
    nonid_tuples,
    zero_cochain,
)
from groupcoh.errors import DegreeMismatch, ResourceLimit
from groupcoh.groups import greedy_generators


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


@pytest.mark.parametrize("n", [2, 4, 6])
def test_cancelling_sums_store_no_zero_value(n):
    # __eq__ compares the values dicts, and add/scale trust their own
    # reductions, so they must drop every zero they make
    g = symmetric_group(3)
    m = trivial_module(g, [n])
    f = cochain_from_function(g, m, 2, lambda t: (t[0] + 2 * t[1],))
    assert f.values and all(v != (0,) for v in f.values.values())
    zero = zero_cochain(g, m, 2)
    for total in (add_cochains(f, neg_cochain(f)), sub_cochains(f, f), scale_cochain(n, f)):
        assert total.values == {} and total == zero
    half = scale_cochain(n // 2, f)
    assert all(v != (0,) for v in half.values.values())
    assert half == Cochain(g, m, 2, {t: (n // 2 * v[0],) for t, v in f.values.items()})


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


def test_coboundary_resource_limit_names_the_count():
    # delta of a 2-cochain of C3 in Z/3 + Z/3: (3 - 1)^2 rows of 3 * 2 entries
    g = cyclic_group(3)
    f = Cochain(g, trivial_module(g, [3, 3]), 2, {(1, 2): (1, 2)})
    assert not coboundary(f, max_entries=24).is_zero()
    with pytest.raises(ResourceLimit, match=r"^coboundary needs 24 entries \(limit 23\)$"):
        coboundary(f, max_entries=23)


def test_resource_limit_carries_its_stage_count_and_limit(monkeypatch):
    """The gate's attributes: the stage, the estimate and the ceiling, with
    the message unchanged; an extension gate adds its formula to the text
    only, and the ceiling may come from COCYCLE_MAX_TUPLES."""
    from groupcoh.extensions import build_extension
    g = cyclic_group(3)
    f = Cochain(g, trivial_module(g, [3, 3]), 2, {(1, 2): (1, 2)})
    with pytest.raises(ResourceLimit) as info:
        coboundary(f, max_entries=23)
    assert str(info.value) == "coboundary needs 24 entries (limit 23)"
    assert (info.value.stage, info.value.count, info.value.limit) == ("coboundary", 24, 23)
    kernel = trivial_module(g, [2, 2])
    monkeypatch.setenv("COCYCLE_MAX_TUPLES", "11")
    with pytest.raises(ResourceLimit) as info:
        build_extension(kernel, Cochain(g, kernel, 2))
    assert str(info.value) == "extension table needs |A||G| = 12 entries (limit 11)"
    assert (info.value.stage, info.value.count, info.value.limit) == ("extension table", 12, 11)


@pytest.mark.parametrize("factors, degree", [([3], 16), ([0], 17)])
def test_cohomology_gates_before_listing_any_tuple(factors, degree):
    # C3 in degree 16: delta_16 on the rows of its one generator would be
    # 2^16 x 2^16 (Z/3); the lattice H^17 (Z) builds all 2^17 rows of
    # delta_16; listing its 2^16 domain tuples alone held about 45 MB
    # (tracemalloc), the count is worked out from sizes
    entries = {16: 4294967296, 17: 8589934592}[degree]
    g = cyclic_group(3)
    m = trivial_module(g, factors)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=rf"^coboundary matrix needs {entries} "
                                                r"entries \(limit 10000000\)$"):
            cohomology(g, m, degree, max_entries=10_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("firsts, entries", [(None, 32), ([1], 16), ([1, 2], 32)])
def test_coboundary_matrix_counts_the_rows_it_would_build(firsts, entries):
    # delta_1 of C3 in Z/3 + Z/3: (2 or |firsts|) * 2 tuples * 2 coordinates
    # rows by 2 * 2 columns
    g = cyclic_group(3)
    m = trivial_module(g, [3, 3])
    mat, dom, tgt = coboundary_matrix(g, m, 1, max_entries=entries, firsts=firsts)
    assert len(mat) * len(mat[0]) == entries and len(dom) == 2
    with pytest.raises(ResourceLimit, match=rf"^coboundary matrix needs {entries} entries "
                                            rf"\(limit {entries - 1}\)$"):
        coboundary_matrix(g, m, 1, max_entries=entries - 1, firsts=firsts)


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
    # finite coefficients take no integer Smith normal form at all
    # (tests/test_modular_lattice.py counts them on more modules)
    calls = []
    snf = intlinalg._snf_full

    def counted(*args, **kwargs):
        calls.append(1)
        return snf(*args, **kwargs)

    monkeypatch.setattr(intlinalg, "_snf_full", counted)
    g = cyclic_group(4)
    assert cohomology(g, trivial_module(g, [4]), 4) == [4]
    assert len(calls) == 0


def sign_on_z(group):
    """Z on which the elements of order 2 act by -1: the sign of C2 or S3."""
    return GModule(group, [0], [[[-1 if g and group.mul(g, g) == 0 else 1]]
                                for g in range(group.order)])


def test_solve_coboundary_runs_no_integer_snf(monkeypatch):
    # every module is solved over Z/N, a free factor then by the averaging
    # homotopy: no integer Smith normal form on any of them
    def refuse(*args, **kwargs):
        raise AssertionError("solve_coboundary ran an integer Smith normal form")

    monkeypatch.setattr(intlinalg, "_snf_full", refuse)
    c2, c3, c4, s3 = cyclic_group(2), cyclic_group(3), cyclic_group(4), symmetric_group(3)
    glued = GModule(c2, [2, 0], [[[1, 0], [0, 1]], [[1, 1], [0, 1]]])
    cases = [trivial_module(c4, [0]), trivial_module(s3, [0]), sign_on_z(c2), sign_on_z(s3),
             trivial_module(s3, [0, 3]), glued, trivial_module(c4, [4])]
    rng = random.Random(16)
    for module in cases:
        for n in (1, 2, 3):
            f = coboundary(random_cochain(rng, module.group, module, n - 1))
            x = solve_coboundary(f)
            assert x is not None and coboundary(x) == f, (module.factors, n)
    z = trivial_module(c3, [0])
    # the generator of H^2(C3; Z) = Z/3
    carry = cochain_from_function(c3, z, 2, lambda t: ((t[0] + t[1]) // 3,))
    assert is_cocycle(carry) and solve_coboundary(carry) is None
    # delta f is 9 at (1, 2), so f is no cocycle, yet delta f vanishes modulo N = 3
    f = Cochain(c3, z, 1, {(1,): (3,), (2,): (6,)})
    assert not is_cocycle(f) and solve_coboundary(f) is None


@pytest.mark.parametrize("factor, snf_calls", [(4, 0), (0, 0)])
def test_solve_coboundary_snf_count(monkeypatch, factor, snf_calls):
    # torsion coefficients are solved over Z/N, a free coefficient over Z/N
    # then by the averaging homotopy: neither runs a Smith normal form
    calls = []
    snf = intlinalg._snf_full

    def counted(*args, **kwargs):
        calls.append(1)
        return snf(*args, **kwargs)

    monkeypatch.setattr(intlinalg, "_snf_full", counted)
    g = cyclic_group(4)
    m = trivial_module(g, [factor])
    f = coboundary(cochain_from_function(g, m, 2, lambda t: (t[0] * t[1] + 1,)))
    x = solve_coboundary(f)
    assert x is not None and coboundary(x) == f
    assert len(calls) == snf_calls


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
    assert coboundary(h) == scale_cochain(2, w)


def test_averaging_homotopy_on_coboundary():
    rng = random.Random(9)
    g = cyclic_group(4)
    m = trivial_module(g, [0, 0])
    u = random_cochain(rng, g, m, 1)
    f = coboundary(u)
    h = averaging_homotopy(f)
    assert coboundary(h) == scale_cochain(g.order, f)


def test_averaging_homotopy_zero():
    g = cyclic_group(3)
    m = trivial_module(g, [0])
    h = averaging_homotopy(Cochain(g, m, 2))
    assert h.is_zero()


def test_averaging_homotopy_is_the_integer_sum_over_the_last_slot():
    """h is an integer cochain of f's coefficients in degree n - 1, h(u) =
    (-1)^n sum_g f(u, g), and delta h = |G| f: no denominator is carried."""
    g = symmetric_group(3)
    m = trivial_module(g, [0, 0])
    rng = random.Random(37)
    for n in (1, 2, 3):
        x = cochain_from_function(g, m, n - 1, lambda t: (rng.randrange(-3, 4),
                                                          rng.randrange(-3, 4)))
        f = coboundary(x)
        h = averaging_homotopy(f)
        assert type(h) is Cochain and h.coeffs is m and h.degree == n - 1
        for u in itertools.product(range(1, g.order), repeat=n - 1):
            want = [sum(f.evaluate(u + (j,))[c] for j in range(g.order)) * (-1) ** n
                    for c in range(2)]
            assert h.evaluate(u) == tuple(want)
        assert coboundary(h) == scale_cochain(g.order, f)


def test_averaging_homotopy_input_guards():
    """Torsion coordinates and degree 0 raise ValueError; a non-cocycle
    raises NotACocycle with the first tuple where delta f is nonzero."""
    from groupcoh.errors import NotACocycle

    g = cyclic_group(2)
    for factors in ([2], [0, 2]):
        with pytest.raises(ValueError, match="needs free coefficients"):
            averaging_homotopy(Cochain(g, trivial_module(g, factors), 2))
    z = trivial_module(g, [0])
    with pytest.raises(ValueError, match="degree must be >= 1"):
        averaging_homotopy(Cochain(g, z, 0, {(): (1,)}))
    # delta f (g, g) = f(g) - f(e) + f(g) = 2
    with pytest.raises(NotACocycle) as info:
        averaging_homotopy(Cochain(g, z, 1, {(1,): (1,)}))
    assert info.value.witness == (1, 1)


# -- serialization ----------------------------------------------------------


def test_cochain_json_roundtrip():
    g = symmetric_group(3)
    m = trivial_module(g, [6])
    rng = random.Random(1)
    f = random_cochain(rng, g, m, 2)
    f2 = cochain_from_json(cochain_to_json(f), g, m)
    assert f2 == f


# -- the row-wise delta against the textbook formula ---------------------------


def _brute_delta(f):
    """(values of delta f, first tuple where it is nonzero), one
    coboundary_value at a time over every (n+1)-tuple, lexicographically."""
    m = f.coeffs
    vals, first = {}, None
    for tup in nonid_tuples(f.group.order, f.degree + 1):
        v = m.reduce(coboundary_value(f, tup))
        if not m.is_zero(v):
            vals[tup] = v
            first = first or tup
    return vals, first


def _delta_case(label):
    """(group, module, degrees) of a named case: every kind of coefficient
    module, on a FiniteGroup, a GroupExtension and a two-level tower."""
    from groupcoh import build_extension, module_through_projection, trivialize_torsion

    c2, c4, s3 = cyclic_group(2), cyclic_group(4), symmetric_group(3)
    sign4 = GModule(c2, [4], [[[1]], [[-1]]])
    z_sgn = GModule(c2, [0], [[[1]], [[-1]]])
    z2 = trivial_module(c2, [2])
    ext = build_extension(z2, Cochain(c2, z2, 2, {(1, 1): (1,)}))  # Z/4
    a2 = trivial_module(ext, [2])
    # the C2 class inflated to Z/4: an extension of order 8 over ext
    tower = build_extension(a2, Cochain(ext, a2, 2, {t: (1,) for t in
                                                     itertools.product((1, 3), repeat=2)}))
    cert = trivialize_torsion(Cochain(c2, z2, 3, {(1, 1, 1): (1,)}))
    return {
        "trivial Z/2 on C2": (c2, z2, range(6)),
        "C2 by -1 on Z/4": (c2, sign4, range(6)),
        "free Z on C4": (c4, trivial_module(c4, [0]), range(5)),
        "Z_sgn on C2": (c2, z_sgn, range(6)),
        "Z/2 + Z on S3": (s3, trivial_module(s3, [2, 0]), range(4)),
        "Z/4 by -1 on an extension": (ext, module_through_projection(ext, sign4), range(5)),
        "Z_sgn on a tower": (tower, module_through_projection(
            tower, module_through_projection(ext, z_sgn)), range(4)),
        "Hom(A, M) witness": (c2, cert.witness.coeffs, range(4)),
        "universal kernel": (c2, cert.cocycle.coeffs, range(5)),
    }[label]


DELTA_CASES = [
    "trivial Z/2 on C2", "C2 by -1 on Z/4", "free Z on C4", "Z_sgn on C2", "Z/2 + Z on S3",
    "Z/4 by -1 on an extension", "Z_sgn on a tower", "Hom(A, M) witness", "universal kernel",
]


@pytest.mark.parametrize("label", DELTA_CASES)
def test_delta_rows_match_textbook_formula(label):
    # coboundary and first_cocycle_defect run on delta_rows; both must give
    # exactly what coboundary_value gives tuple by tuple, first witness
    # included, on random cochains, on coboundaries and on ~8 corruptions
    # of each coboundary
    group, module, degrees = _delta_case(label)
    rng = random.Random(label)
    for n in degrees:
        f = random_cochain(rng, group, module, n)
        cases = [f]
        if n:
            base = coboundary(random_cochain(rng, group, module, n - 1))
            tuples = list(nonid_tuples(group.order, n))
            cases.append(base)
            for tup in tuples[::max(1, len(tuples) // 8)]:
                vals = dict(base.values)
                vals[tup] = module.add(base.evaluate(tup), tuple(
                    rng.randrange(1, d) if d else rng.choice((-1, 1)) for d in module.factors))
                cases.append(Cochain(group, module, n, vals))
        for g in cases:
            vals, first = _brute_delta(g)
            assert coboundary(g).values == vals, (label, n)
            assert first_cocycle_defect(g) == first, (label, n)


@pytest.mark.parametrize("label", DELTA_CASES)
def test_delta_rows_scatter_covers_every_nonzero_row(label):
    # delta_rows yields only the rows it scatters to from the support of
    # f; over every row of W, with all first slots and with the greedy
    # generators, on a dense and a sparse cochain of each degree: the rows
    # it yields are sorted, lie in W and equal coboundary_value, every row
    # it does not yield is zero, and the zero cochain yields no row
    group, module, degrees = _delta_case(label)
    rng = random.Random(label)
    gens = greedy_generators(group)
    for n in degrees:
        dense = random_cochain(rng, group, module, n)
        tuples = list(nonid_tuples(group.order, n))
        sparse = Cochain(group, module, n, {t: dense.evaluate(t)
                                            for t in rng.sample(tuples, min(2, len(tuples)))})
        for f in (dense, sparse):
            for firsts in (None, gens) if n else (None,):
                got = list(delta_rows(f, firsts))
                assert [t for t, _ in got] == sorted({t for t, _ in got}), (label, n)
                rows = dict(got)
                for t in nonid_tuples(group.order, n, firsts):
                    want = [module.reduce(coboundary_value(f, t + (j,)))
                            for j in range(group.order)]
                    if t in rows:
                        assert list(zip(*rows.pop(t))) == want, (label, n, t)
                    else:
                        assert not any(map(any, want)), (label, n, t)
                assert rows == {}, (label, n)
        assert list(delta_rows(Cochain(group, module, n))) == [], (label, n)


def test_cochain_json_rejects_identity():
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    data = {"degree": 1, "values": [{"tuple": ["e"], "value": [1]}]}
    with pytest.raises(ValueError):
        cochain_from_json(data, g, m)


# -- self-checks that survive python -O ---------------------------------------

SELF_CHECK_SCRIPT = textwrap.dedent("""
    from groupcoh import cochains, intlinalg
    from groupcoh import GModule, coboundary, cochain_from_function, cyclic_group, trivial_module
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
    # a zeroed solution fails delta x = f, and f passes the cocycle check
    # that runs only then: the solver is at fault
    solve = intlinalg.solve_with_moduli
    intlinalg.solve_with_moduli = lambda *a, **k: [0] * len(solve(*a, **k))
    expect_failure("solve_coboundary", lambda: cochains.solve_coboundary(f))
    intlinalg.solve_with_moduli = solve

    # an entry of V^-1 dropped in the elimination of delta_2 moves the
    # coordinates y of a coboundary r, and V y = r fails
    diagonalize = intlinalg._diagonalize_modulo

    def lossy(*a, **k):
        pivots, tails, vt, vi, big = diagonalize(*a, **k)
        if vi and len(vi) > 1:
            del vi[0][min(vi[0])]
        return pivots, tails, vt, vi, big

    intlinalg._diagonalize_modulo = lossy
    expect_failure("cohomology", lambda: cochains.cohomology(g, z3, 2))

    # a pivot past the rank of delta_2 of C4 on Z/4 read as a unit drops a
    # generator of the cocycles, and a coboundary falls outside them
    def unit_past_rank(*a, **k):
        pivots, *rest = diagonalize(*a, **k)
        if k.get("inverse") and len(pivots) == 6:
            pivots += [1] * 3
        return pivots, *rest

    c4 = cyclic_group(4)
    intlinalg._diagonalize_modulo = unit_past_rank
    expect_failure("cohomology: pivot",
                   lambda: cochains.cohomology(c4, trivial_module(c4, [4]), 2))

    # a unit pivot read as 0 claims a vector outside the cocycles for one
    # of their generators
    def coarse_first_pivot(*a, **k):
        pivots, *rest = diagonalize(*a, **k)
        if k.get("inverse") and len(pivots) == 6:
            pivots[0] = 0
        return pivots, *rest

    intlinalg._diagonalize_modulo = coarse_first_pivot
    expect_failure("cohomology: coarse pivot",
                   lambda: cochains.cohomology(c4, trivial_module(c4, [4]), 2))

    # over Z: a dropped pivot misses the rational rank of delta_1, and a
    # pivot of 8 modulo 16 on C4 is a factor that does not divide |G|
    def first_pivot(value):
        def patched(*a, **k):
            pivots, *rest = diagonalize(*a, **k)
            pivots[0] = value
            return pivots, *rest
        return patched

    intlinalg._diagonalize_modulo = first_pivot(0)
    expect_failure("cohomology over Z: rank",
                   lambda: cochains.cohomology(g, trivial_module(g, [0]), 2))
    intlinalg._diagonalize_modulo = first_pivot(8)
    expect_failure("cohomology over Z: divisor",
                   lambda: cochains.cohomology(c4, trivial_module(c4, [0]), 2))
    intlinalg._diagonalize_modulo = diagonalize

    # H^2(C3; Z + Z/3) = (Z/3)^2 read as (Z/6)^2: factors that do not divide |G|
    cokernel = intlinalg.cokernel_modulo

    def doubled(*a, **k):
        factors, proj, lift = cokernel(*a, **k)
        return [2 * f for f in factors], proj, lift

    intlinalg.cokernel_modulo = doubled
    expect_failure("cohomology over Z + Z/3: divisor",
                   lambda: cochains.cohomology(g, trivial_module(g, [0, 3]), 2))
    intlinalg.cokernel_modulo = cokernel

    # C3 acting on Z with traces 1, 1, 0: a character sum of 2, which
    # |G| = 3 does not divide (no valid module has it)
    broken = GModule(g, [0], [[[1]], [[1]], [[0]]], _validate=False)
    expect_failure("cohomology H^0: character", lambda: cochains.cohomology(g, broken, 0))

    z = trivial_module(g, [0])
    w = coboundary(cochain_from_function(g, z, 1, lambda t: (t[0],)))
    # solved modulo N = 3, delta x for x = 5 at g and 0 at g2 leaves a rest
    # that only the averaging homotopy accounts for
    v = coboundary(cochain_from_function(g, z, 1, lambda t: (5 * (t[0] == 1),)))
    averaging = cochains.averaging_homotopy
    cochains.averaging_homotopy = lambda f: cochains.zero_cochain(f.group, f.coeffs,
                                                                  f.degree - 1)
    expect_failure("solve_coboundary over Z", lambda: cochains.solve_coboundary(v))
    cochains.averaging_homotopy = averaging

    # f = w + 3 c with c no cocycle passes a cocycle test that is blind
    # once: solved modulo N = 3, (f - delta y) / 3 is then no cocycle
    check = cochains.first_cocycle_defect
    blind = [None]
    cochains.first_cocycle_defect = lambda f: blind.pop() if blind else check(f)
    c = cochain_from_function(g, z, 2, lambda t: (t == (1, 1),))
    expect_failure("solve_coboundary: no cocycle", lambda: cochains.solve_coboundary(
        cochains.add_cochains(w, cochains.scale_cochain(3, c))))
    cochains.first_cocycle_defect = check

    # an addition that drops its second term sums every f(u, .) to zero
    add = cochains.GModule.add
    cochains.GModule.add = lambda self, x, y: x
    expect_failure("averaging_homotopy", lambda: cochains.averaging_homotopy(w))
    cochains.GModule.add = add

    # Hom((Z/2)^2, Z/4) with C2 swapping the summands: a coordinate step
    # corrupted from 2 to 1 sends that coordinate to an odd image at e_1
    from groupcoh import modules
    coords = modules._hom_coords
    modules._hom_coords = lambda a, m: [
        (j, i, 1 if n == 0 else step) for n, (j, i, step) in enumerate(coords(a, m))]
    c2 = cyclic_group(2)
    swap = GModule(c2, [2, 2], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    expect_failure("HomModule", lambda: modules.HomModule(swap, trivial_module(c2, [4])))
    modules._hom_coords = coords

    # a subgroup closure that drops an element never spans the group, so
    # the greedy ends on a set that does not generate it
    from groupcoh import groups
    closure = groups.generated
    groups.generated = lambda group, gens, span=None, rows=None: (
        closure(group, gens, span, rows) - {group.order - 1})
    expect_failure("greedy_generators", lambda: groups.greedy_generators(g))
    groups.generated = closure
""")


def test_self_checks_raise_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", SELF_CHECK_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:13] == [
        "caught solve_coboundary", "caught cohomology", "caught cohomology: pivot",
        "caught cohomology: coarse pivot", "caught cohomology over Z: rank",
        "caught cohomology over Z: divisor", "caught cohomology over Z + Z/3: divisor",
        "caught cohomology H^0: character",
        "caught solve_coboundary over Z", "caught solve_coboundary: no cocycle",
        "caught averaging_homotopy", "caught HomModule", "caught greedy_generators",
    ]
