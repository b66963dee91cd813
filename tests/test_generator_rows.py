"""Differential tests of the checks decided on the rows of a generating
set: the cocycle test `first_cocycle_defect`, the homomorphism test of
module validation, the support-only `lift_cochain` and the product rows
of `delta_rows`, each against a brute-force oracle; `solve_coboundary`
on the generator rows of delta against the solve on every row, with the
cocycle check it runs only after the solve; and the cocycle lattices of
`cohomology` and the fixed points of `invariants` on generator rows
against every row."""

import itertools
import math
import os
import random
import resource
import subprocess
import sys

import pytest

from groupcoh import (
    Cochain,
    GModule,
    add_cochains,
    build_extension,
    builtin_group,
    coboundary,
    cohomology,
    cyclic_group,
    first_cocycle_defect,
    hom_module,
    invariants,
    lift_cochain,
    scale_cochain,
    solve_coboundary,
    trivial_module,
)
from groupcoh import cochains as cochains_module
from groupcoh import intlinalg as la
from groupcoh import modules as modules_module
from groupcoh.cochains import (coboundary_defect, coboundary_matrix, coboundary_value, delta_rows,
                               divide_cochain, map_coefficients, nonid_tuples)
from groupcoh.errors import (ActionNotHomomorphic, BadIdentityAction, GroupcohError,
                             ResourceLimit)
from groupcoh.extensions import GroupExtension
from groupcoh.groups import generated, greedy_generators
from groupcoh.modules import torsion_submodule

from hermite import kernel_with_moduli


def _sign_character(group):
    """A homomorphism group -> {1, -1}, nontrivial when one exists, found by
    brute force over all sign assignments."""
    for signs in itertools.product((1, -1), repeat=group.order - 1):
        chi = (1,) + signs
        if -1 in chi and all(chi[group.mul(g, h)] == chi[g] * chi[h]
                             for g in range(group.order) for h in range(group.order)):
            return chi
    return (1,) * group.order


def _modules(group):
    """Trivial Z/2, Z/4 and Z twisted by a sign character, and
    Hom(Z/4 twisted, Z/4 + Z/2)."""
    chi = _sign_character(group)
    z4_sign = GModule(group, [4], [[[s]] for s in chi])
    return {
        "Z/2": trivial_module(group, [2]),
        "Z/4 sign": z4_sign,
        "Z sign": GModule(group, [0], [[[s]] for s in chi]),
        "Hom": hom_module(z4_sign, trivial_module(group, [4, 2])),
    }


def _split_c3_extension():
    """Z/3 x C3 as the extension by the coboundary c = delta u, u(1) = 1:
    (0, 1) generates a subgroup H of order 3 without (0, 2), so the greedy
    generators are (0, 1) and (0, 2)."""
    g = cyclic_group(3)
    a = trivial_module(g, [3])
    return build_extension(a, coboundary(Cochain(g, a, 1, {(1,): (1,)})))


def _off_two_generators(ext):
    """A generating set of the split extension that leaves out (0, 2):
    (0, 1) and the first element outside H after index 2."""
    h = {0, 1, ext.mul(1, 1)}
    other = [1, next(x for x in range(3, ext.order) if x not in h)]
    assert 2 not in other and len(generated(ext, other)) == ext.order
    return other


def _groups():
    s3 = builtin_group("symmetric:3")
    z2 = trivial_module(s3, [2])
    x = _sign_character(s3)
    # c(g, h) = x(g) x(h) with x: S3 -> Z/2 the sign, a non-split class
    c = Cochain(s3, z2, 2, {(g, h): (1,) for g in range(1, 6) for h in range(1, 6)
                            if x[g] == x[h] == -1})
    c2 = cyclic_group(2)
    a = trivial_module(c2, [2])
    z4 = build_extension(a, Cochain(c2, a, 2, {(1, 1): (1,)}))
    b = trivial_module(z4, [2])
    # pi^* of the class of Z/4 -> C2, a 2-cocycle of Z/4
    lifted = lift_cochain(z4, Cochain(c2, a, 2, {(1, 1): (1,)}))
    tower = build_extension(b, Cochain(z4, b, 2, lifted.values))
    return {
        "S3": s3,
        "D4": builtin_group("dihedral:4"),
        "S3 ext": build_extension(z2, c),
        "tower": tower,
        "split C3 ext": _split_c3_extension(),
    }


def _brute_defect(f):
    """The lexicographically first non-identity tuple where the textbook
    delta f, one tuple at a time, is nonzero; None when there is none."""
    m = f.coeffs
    for tup in nonid_tuples(f.group.order, f.degree + 1):
        if not m.is_zero(m.reduce(coboundary_value(f, tup))):
            return tup
    return None


def _random_value(rng, m):
    return tuple(rng.randrange(d) if d else rng.randrange(-3, 4) for d in m.factors)


def _cocycles(rng, group, m, degree):
    """Zero, and coboundaries of seeded cochains one degree down; in degree
    1 with trivial coefficients also a homomorphism (the sign character)."""
    out = [Cochain(group, m, degree)]
    for _ in range(2):
        u = Cochain(group, m, degree - 1,
                    {t: _random_value(rng, m) for t in nonid_tuples(group.order, degree - 1)})
        out.append(coboundary(u))
    if degree == 1 and m.factors == (2,) and all(mat == ((1,),) for mat in m.action):
        chi = _sign_character(group)
        out.append(Cochain(group, m, 1, {(g,): (1,) for g in range(1, group.order)
                                         if chi[g] == -1}))
    return out


def _corruptions(rng, f, count=8):
    """count copies of f with one value changed by a nonzero element; every
    other one at a tuple whose first slot is outside the greedy generators."""
    group, m = f.group, f.coeffs
    gens = set(greedy_generators(group))
    tuples = list(nonid_tuples(group.order, f.degree))
    off = [t for t in tuples if t[0] not in gens]
    out = []
    for i in range(count):
        tup = rng.choice(off if i % 2 and off else tuples)
        delta = _random_value(rng, m)
        while m.is_zero(m.reduce(delta)):
            delta = _random_value(rng, m)
        vals = dict(f.values)
        vals[tup] = m.add(f.evaluate(tup), delta)
        out.append(Cochain(group, m, f.degree, vals))
    return out


GROUPS = _groups()


@pytest.mark.parametrize("group_name", list(GROUPS))
def test_first_cocycle_defect_matches_brute_force(group_name):
    group = GROUPS[group_name]
    rng = random.Random(sum(map(ord, group_name)))
    degrees = (1, 2, 3) if group.order <= 6 else (1, 2)
    for name, m in _modules(group).items():
        for degree in degrees:
            for f in _cocycles(rng, group, m, degree):
                assert first_cocycle_defect(f) is None, (name, degree)
                assert _brute_defect(f) is None, (name, degree)
                for bad in _corruptions(rng, f):
                    want = _brute_defect(bad)
                    assert first_cocycle_defect(bad) == want, (name, degree, bad.values)


def test_first_cocycle_defect_witness_off_the_generators():
    """f constant on the cosets of H = <(0, 1)>, zero on H, and 1 on the
    coset of (0, 2): delta f vanishes on the rows starting in H but not on
    row 2.  Under the greedy S the lexicographically first defect always
    has its first slot in S (each earlier element lies in the subgroup of
    the earlier generators, whose rows vanish), so 2 is a generator here."""
    ext = _split_c3_extension()
    h = {0, 1, ext.mul(1, 1)}
    assert len(h) == 3 and 2 not in h and greedy_generators(ext) == [1, 2]
    f = _coset_cochain(ext, trivial_module(ext, [3]))
    want = _brute_defect(f)
    assert want[0] == 2
    assert first_cocycle_defect(f) == want


def _coset_cochain(ext, m):
    """The 1-cochain of the split C3 extension that is 1 on the coset of
    (0, 2) modulo H = <(0, 1)> and 0 elsewhere."""
    h = {0, 1, ext.mul(1, 1)}
    return Cochain(ext, m, 1, {(ext.mul(2, x),): (1,) for x in h})


def _first_non_homomorphic_pair(group, action, factors):
    """The first (g, h) in index order with rho(g) rho(h) != rho(gh) on M."""
    for g in range(group.order):
        for h in range(group.order):
            a, b, gh = action[g], action[h], action[group.mul(g, h)]
            for i, d in enumerate(factors):
                row = [sum(a[i][t] * b[t][j] for t in range(len(factors)))
                       for j in range(len(factors))]
                if any((x - y) % d if d else x - y for x, y in zip(row, gh[i])):
                    return group.elements[g], group.elements[h]
    return None


def test_validate_module_witness_off_the_generators():
    """rho = 1 on H = <(0, 1)> and -1 elsewhere on Z: the row of (0, 1)
    passes, the row of (0, 2) fails, and the first failing pair in index
    order is (2, 2).  2 is a greedy generator (the first failing g always
    is one, as the passing g form a subgroup)."""
    ext = _split_c3_extension()
    action = _coset_action(ext)
    want = _first_non_homomorphic_pair(ext, action, [0])
    assert want == (ext.elements[2], ext.elements[2]) and 2 in greedy_generators(ext)
    with pytest.raises(ActionNotHomomorphic) as info:
        GModule(ext, [0], action)
    assert info.value.witness == want


def _coset_action(ext):
    """rho = 1 on H = <(0, 1)> and -1 elsewhere, on Z: no action."""
    h = {0, 1, ext.mul(1, 1)}
    return [[[1]] if x in h else [[-1]] for x in range(ext.order)]


def test_brute_force_tests_catch_a_generating_set_that_is_not_greedy(monkeypatch):
    """A mutation check of the brute-force comparisons: with
    greedy_generators replaced, at its bindings in cochains, modules and
    trivialize, by a generating set of the split C3 extension that leaves
    out (0, 2), each check still fails, but names a witness on another
    generator row than the brute-force sweep's first failing one."""
    import groupcoh.trivialize as tz
    from groupcoh.extensions import module_through_projection

    ext = _split_c3_extension()
    other = _off_two_generators(ext)
    greedy = greedy_generators
    m = trivial_module(ext.base, [3])
    omega = Cochain(ext.base, m, 2)
    f = _coset_cochain(ext, trivial_module(ext, [3]))
    alpha = _coset_cochain(ext, module_through_projection(ext, m))
    action = _coset_action(ext)

    def witnesses():
        with pytest.raises(ActionNotHomomorphic) as info:
            GModule(ext, [0], action)
        ok, bad, _ = tz.verify_lift_primitive(ext, omega, alpha)
        assert not ok
        return first_cocycle_defect(f), info.value.witness, bad

    want = (_brute_defect(f), _first_non_homomorphic_pair(ext, action, [0]), _brute_defect(alpha))
    assert witnesses() == want
    for module in (cochains_module, modules_module, tz):
        monkeypatch.setattr(module, "greedy_generators",
                            lambda group: list(other) if group is ext else greedy(group))
    got = witnesses()
    assert all(g != w for g, w in zip(got, want)), (got, want)
    assert got[0][0] == got[2][0] == other[1] and got[1][0] == ext.elements[other[1]]


@pytest.mark.parametrize("group_name", list(GROUPS))
def test_validate_module_matches_brute_force(group_name):
    """Seeded actions on Z/4 + Z/2 through a sign character, plus a few
    corrupted matrices: validation passes exactly when the brute-force
    sweep finds no failing pair, and otherwise names the same pair."""
    group = GROUPS[group_name]
    rng = random.Random(len(group_name))
    chi = _sign_character(group)
    good = [[[s, 0], [0, 1]] for s in chi]
    assert _first_non_homomorphic_pair(group, good, [4, 2]) is None
    GModule(group, [4, 2], good)
    for _ in range(4):
        bad = [[row[:] for row in mat] for mat in good]
        x = rng.randrange(1, group.order)
        bad[x] = [[rng.choice([1, 3]), 2 * rng.randrange(2)], [0, 1]]
        want = _first_non_homomorphic_pair(group, bad, [4, 2])
        if want is None:
            GModule(group, [4, 2], bad)
        else:
            with pytest.raises(ActionNotHomomorphic) as info:
                GModule(group, [4, 2], bad)
            assert info.value.witness == want


# -- lifting and product rows ----------------------------------------------


def test_lift_cochain_matches_brute_force_on_a_tower():
    tower = GROUPS["tower"]
    base = tower.base
    rng = random.Random(3)
    for name, m in _modules(base).items():
        for degree in (0, 1, 2, 3):
            tuples = list(nonid_tuples(base.order, degree))
            f = Cochain(base, m, degree,
                        {t: _random_value(rng, m) for t in rng.sample(tuples, min(3, len(tuples)))})
            want = {}
            for tup in nonid_tuples(tower.order, degree):
                v = f.evaluate(tuple(tower.pi(i) for i in tup))
                if not m.is_zero(v):
                    want[tup] = v
            lifted = lift_cochain(tower, f)
            assert lifted.values == want, (name, degree)
            assert list(lifted.values) == list(want), (name, degree)


def test_lift_cochain_gate_counts_support_times_fibres():
    ext = GROUPS["S3 ext"]  # |A| = 2
    m = trivial_module(ext.base, [2])
    f = Cochain(ext.base, m, 3, {(1, 2, 3): (1,), (2, 2, 2): (1,), (5, 4, 1): (1,)})
    assert len(lift_cochain(ext, f, max_entries=3 * 2 ** 3).values) == 24
    with pytest.raises(ResourceLimit, match="needs 24 entries .limit 23."):
        lift_cochain(ext, f, max_entries=23)


def test_delta_rows_on_an_extension_never_calls_mul(monkeypatch):
    tower = GROUPS["tower"]
    rng = random.Random(9)
    m = _modules(tower)["Z/4 sign"]
    f = Cochain(tower, m, 3, {t: _random_value(rng, m)
                              for t in rng.sample(list(nonid_tuples(tower.order, 3)), 40)})
    want = {t: list(zip(*row)) for t, row in delta_rows(f)}
    for t, row in want.items():
        assert row == [m.reduce(coboundary_value(f, t + (j,))) for j in range(tower.order)]

    def forbidden(self, i, j):
        raise AssertionError("GroupExtension.mul called")

    monkeypatch.setattr(GroupExtension, "mul", forbidden)
    assert {t: list(zip(*row)) for t, row in delta_rows(f)} == want
    assert first_cocycle_defect(coboundary(f)) is None


def test_action_matrices_compare_as_maps_on_the_module():
    """Row i of an action matrix computes coordinate i, so it is compared
    modulo d_i: on Z/4 + Z/2, [[1, 0], [2, 1]] is the identity map and
    t = [[1, 2], [0, 1]] is not (t^2 is)."""
    ident, t = [[1, 0], [0, 1]], [[1, 2], [0, 1]]
    c2, c3 = cyclic_group(2), cyclic_group(3)
    GModule(c2, [4, 2], [[[1, 0], [2, 1]], ident])
    GModule(c3, [4, 2], [ident, [[1, 0], [2, 1]], ident])
    GModule(c2, [4, 2], [ident, t])
    with pytest.raises(BadIdentityAction):
        GModule(c2, [4, 2], [t, ident])
    with pytest.raises(ActionNotHomomorphic) as info:
        GModule(c3, [4, 2], [ident, t, ident])
    assert info.value.witness == ("g", "g2")


def test_general_mode_gates_the_lift_of_omega_before_sweeping_the_extension(monkeypatch):
    """H^4(C2; Z): with 12 entries allowed, stage 1 is built (its check
    sampled) but pi^* omega needs 1 * 2^4 = 16 entries, which must fail
    before any coboundary over Gamma."""
    import groupcoh.trivialize as tz

    g = cyclic_group(2)
    omega = Cochain(g, trivial_module(g, [0]), 4, {(1, 1, 1, 1): (1,)})
    swept = []
    monkeypatch.setattr(tz, "coboundary", lambda f: swept.append(f.group) or coboundary(f))
    with pytest.raises(ResourceLimit, match="lifted cochain needs 16 entries .limit 12."):
        tz.trivialize_general(omega, max_entries=12, sample_size=100)
    assert swept == []


# -- one comparison: coboundary_defect against building delta x -------------

DEFECT_GROUPS = {"C2": ("cyclic:2", 3), "C3": ("cyclic:3", 3), "C4": ("cyclic:4", 3),
                 "V4": ("cyclic:2*cyclic:2", 3), "S3": ("symmetric:3", 2),
                 "D4": ("dihedral:4", 2)}


def _least_difference(dx, f):
    """The oracle: the least tuple where the built delta x and f differ."""
    return min((t for t in dx.values.keys() | f.values.keys()
                if dx.evaluate(t) != f.evaluate(t)), default=None)


def _defect_cases(group_name):
    """(x, f, proj, firsts, want) on Z/2, Z, Z_sgn and a Hom module, up to
    the degree DEFECT_GROUPS gives: x a seeded cochain, f a right-hand side
    (None for the cocycle check, delta x itself, another coboundary, and
    two corruptions of delta x), firsts the greedy generators when delta x
    - f is a cocycle (each such case is also run on all rows), and want the
    oracle's tuple.  The S3 and V4 cases add x on an extension with f on
    its base, read through pi."""
    spec, top = DEFECT_GROUPS[group_name]
    group = builtin_group(spec)
    gens = greedy_generators(group)
    rng = random.Random(group_name)
    modules = _modules(group)
    modules = {"Z/2": modules["Z/2"], "Z": trivial_module(group, [0]),
               "Z sign": modules["Z sign"], "Hom": modules["Hom"]}
    cases = []
    for m in modules.values():
        for n in range(top + 1):
            def cochain(degree):
                return Cochain(group, m, degree, {t: _random_value(rng, m)
                                                  for t in nonid_tuples(group.order, degree)})
            x = cochain(n)
            dx = coboundary(x)
            zero = Cochain(group, m, n + 1)
            for f, cocycle in ([(None, True), (dx, True), (coboundary(cochain(n)), True)]
                               + [(g, False) for g in _corruptions(rng, dx, 2)]):
                want = _least_difference(dx, zero if f is None else f)
                cases.append((x, f, None, None, want))
                if cocycle and n:
                    cases.append((x, f, None, gens, want))
    if group_name in ("S3", "V4"):
        z2 = trivial_module(group, [2])
        # V4: the bilinear x1 y2, a non-split class; S3: the split extension
        bilinear = {(a, b): (((a >> 1) & 1) * (b & 1),) for a in range(1, 4) for b in range(1, 4)}
        ext = build_extension(z2, Cochain(group, z2, 2, bilinear if group_name == "V4" else {}))
        proj = [ext.pi(i) for i in range(ext.order)]
        for n in (0, 1):
            y = Cochain(group, z2, n, {t: _random_value(rng, z2)
                                       for t in nonid_tuples(group.order, n)})
            f = coboundary(y)
            lifted = lift_cochain(ext, y)
            last = (ext.order - 1,) * n
            noisy = Cochain(ext, lifted.coeffs, n,
                            {**lifted.values, last: z2.add(lifted.evaluate(last), (1,))})
            for x in (lifted, noisy):
                want = _least_difference(coboundary(x), lift_cochain(ext, f))
                cases.append((x, f, proj, None, want))
                if n:
                    cases.append((x, f, proj, greedy_generators(ext), want))
    return cases


def _defect_disagreements(cases):
    """The cases where `coboundary_defect` misses the oracle's tuple, or
    counts other than the rows before it (all of them on a pass)."""
    out = []
    for x, f, proj, firsts, want in cases:
        order, n = x.group.order, x.degree
        walked = list(nonid_tuples(order, n, firsts if n else None))
        agreed = len(walked) if want is None else walked.index(want[:-1])
        if coboundary_defect(x, f, proj, firsts) != (want, agreed):
            out.append((x, f, firsts, want))
    return out


@pytest.mark.parametrize("group_name", list(DEFECT_GROUPS))
def test_coboundary_defect_matches_the_built_coboundary(group_name):
    cases = _defect_cases(group_name)
    assert {want is None for *_, want in cases} == {True, False}
    assert any(firsts and want for *_, firsts, want in cases)
    assert group_name not in ("S3", "V4") or any(proj and firsts and want
                                                 for _, _, proj, firsts, want in cases)
    assert _defect_disagreements(cases) == []


def test_the_differential_test_catches_a_loop_that_skips_its_last_row(monkeypatch):
    cases = _defect_cases("C3")  # the oracle's answers, from the unmutated rows
    rows = cochains_module.delta_rows

    def all_but_last(f, firsts=None):
        return iter(list(rows(f, firsts))[:-1])

    monkeypatch.setattr(cochains_module, "delta_rows", all_but_last)
    assert _defect_disagreements(cases)


def test_coboundary_defect_names_rows_where_only_the_right_hand_side_is_nonzero():
    """delta 0 touches no row, so against a nonzero f the first difference
    is the least tuple of W where f is nonzero, and agreed is the rank of
    its row in W: f = omega on V4 read through pi from the 8-element
    extension by x1 y2, and f = pi^* omega on the extension itself; all
    rows, and the generator rows S of the extension."""
    group = builtin_group("cyclic:2*cyclic:2")
    z2 = trivial_module(group, [2])
    bilinear = {(a, b): (((a >> 1) & 1) * (b & 1),) for a in range(1, 4) for b in range(1, 4)}
    ext = build_extension(z2, Cochain(group, z2, 2, bilinear))
    proj = [ext.pi(i) for i in range(ext.order)]
    rng = random.Random(30)
    ranks = []
    for n in (0, 1, 2):
        tuples = list(nonid_tuples(group.order, n + 1))
        omega = Cochain(group, z2, n + 1, {t: (1,) for t in rng.sample(tuples, min(3, len(tuples)))})
        lifted = lift_cochain(ext, omega)
        zero = Cochain(ext, lifted.coeffs, n)
        for firsts in (None, greedy_generators(ext)) if n else (None,):
            walked = list(nonid_tuples(ext.order, n, firsts))
            want = min(t for t in lifted.values if t[:-1] in walked)
            ranks.append(walked.index(want[:-1]))
            for f, p in ((omega, proj), (lifted, None)):
                assert coboundary_defect(zero, f, p, firsts) == (want, ranks[-1]), (n, firsts)
    assert any(ranks)


def test_delta_rows_skips_most_rows_of_the_degree_8_certificate():
    """The scatter touches 256 of the 729 generator rows of W on the
    degree-7 alpha of the C2, Z/2 degree-8 certificate (Gamma = Z/4, S =
    {1}); walking every row would yield all 729."""
    from groupcoh import trivialize_torsion

    g = cyclic_group(2)
    cert = trivialize_torsion(Cochain(g, trivial_module(g, [2]), 8, {(1,) * 8: (1,)}))
    gens = greedy_generators(cert.extension)
    assert len(gens) * (cert.extension.order - 1) ** 6 == 729
    rows = list(delta_rows(cert.alpha, gens))
    assert len(rows) < 729 / 2 and sum(any(map(any, row)) for _, row in rows) > 0


def test_coboundary_defect_gates_the_rows_it_walks():
    g = cyclic_group(3)
    m = trivial_module(g, [3, 3])
    x = Cochain(g, m, 2, {(1, 2): (1, 2)})
    # (3 - 1)^2 rows of 3 * 2 entries, or the |S| = 1 generator row's (3 - 1) of them
    assert coboundary_defect(x, max_entries=24)[0] is not None
    with pytest.raises(ResourceLimit, match=r"^coboundary needs 24 entries \(limit 23\)$"):
        coboundary_defect(x, max_entries=23)
    with pytest.raises(ResourceLimit, match=r"^coboundary needs 12 entries \(limit 11\)$"):
        coboundary_defect(x, firsts=[1], max_entries=11)


# -- coboundary solving on generator rows ----------------------------------


def _solve_modules(group):
    """The coefficients of the solve differential: trivial Z/2, Z/4, Z/6,
    Z and Z + Z/3, Z twisted by a sign character, and on C2 the module
    gluing Z onto Z/2 (g acts by e_2 -> e_1 + e_2)."""
    chi = _sign_character(group)
    out = {f"Z/{d}": trivial_module(group, [d]) for d in (2, 4, 6)}
    out.update({"Z": trivial_module(group, [0]), "Z + Z/3": trivial_module(group, [0, 3]),
                "Z_sgn": GModule(group, [0], [[[s]] for s in chi])})
    if group.order == 2:
        out["glued"] = GModule(group, [2, 0], [[[1, 0], [0, 1]], [[1, 1], [0, 1]]])
    return out


def _cocycle_basis(module, n):
    """Integer vectors over the tuple basis spanning the n-cocycles of a
    finite module: the kernel of all of delta_n over Z/N."""
    mat, _, tgt = coboundary_matrix(module.group, module, n)
    return kernel_with_moduli(mat, [d for _ in tgt for d in module.factors])


def _random_cocycle(rng, module, n):
    """A seeded n-cocycle of M: j(z_T) + e s(z_L), with z_T a random cocycle
    of the torsion part M_T, e its exponent, s the basis-aligned section of
    M -> L = M/M_T (e s is a G-map, as e kills M_T), and z_L = delta c / |G|
    the Bockstein of a random (n-1)-cocycle c of L / |G| L."""
    group = module.group
    mt, jmap, _, smap = torsion_submodule(module)
    lattice = smap.source

    def combination(basis, m, degree):
        coeffs = [rng.randrange(4) for _ in basis]
        vec = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*basis)]
        dom = [()] if degree == 0 else nonid_tuples(group.order, degree)
        return Cochain(group, m, degree, {t: tuple(vec[i * m.dim:(i + 1) * m.dim])
                                          for i, t in enumerate(dom)})

    out = Cochain(group, module, n)
    if mt.dim:
        z_t = combination(_cocycle_basis(mt, n), mt, n)
        out = add_cochains(out, map_coefficients(z_t, jmap.matrix, module))
    if lattice.dim:
        reduced = GModule(group, [group.order] * lattice.dim, lattice.action)
        c = combination(_cocycle_basis(reduced, n - 1), lattice, n - 1)
        z_l = divide_cochain(coboundary(c), group.order)
        exponent = math.lcm(1, *mt.factors)
        out = add_cochains(out, map_coefficients(scale_cochain(exponent, z_l), smap.matrix,
                                                 module))
    return out


def _full_row_solvable(f):
    """Whether delta x = f has a solution modulo N = |G| e on every row of
    delta_{n-1}: the oracle for the generator-row solve."""
    group, module, n = f.group, f.coeffs, f.degree
    mat, dom, tgt = coboundary_matrix(group, module, n - 1)
    big = group.order * math.lcm(*filter(None, module.factors))
    rhs = [x for t in tgt for x in f.evaluate(t)]
    moduli = [d or big for _ in tgt for d in module.factors]
    return la.solve_with_moduli(mat, rhs, moduli, cols=len(dom) * module.dim) is not None


SOLVE_GROUPS = {"C2": 4, "C3": 4, "C4": 4, "V4": 4, "S3": 3, "D4": 3}
SOLVE_SPECS = {"C2": "cyclic:2", "C3": "cyclic:3", "C4": "cyclic:4", "V4": "cyclic:2*cyclic:2",
               "S3": "symmetric:3", "D4": "dihedral:4"}


@pytest.mark.parametrize("group_name", list(SOLVE_GROUPS))
def test_generator_row_solve_matches_the_full_row_solve(group_name):
    group = builtin_group(SOLVE_SPECS[group_name])
    gens = greedy_generators(group)
    rng = random.Random(sum(map(ord, group_name)) + 18)
    unsolvable = 0
    for name, module in _solve_modules(group).items():
        for n in range(1, SOLVE_GROUPS[group_name] + 1):
            # the generator rows are the full rows whose first slot is in S
            full, dom, tgt = coboundary_matrix(group, module, n - 1)
            rows, dom_s, tgt_s = coboundary_matrix(group, module, n - 1, firsts=gens)
            k = module.dim
            assert dom_s == dom and tgt_s == [t for t in tgt if t[0] in gens]
            assert rows == [full[i * k + c] for i, t in enumerate(tgt) if t[0] in gens
                            for c in range(k)]
            shift = coboundary(Cochain(group, module, n - 1, {
                t: _random_value(rng, module) for t in nonid_tuples(group.order, n - 1)}))
            cocycle = add_cochains(_random_cocycle(rng, module, n), shift)
            assert first_cocycle_defect(cocycle) is None
            for f in (shift, cocycle):
                want = _full_row_solvable(f)
                assert want or f is cocycle, (name, n)
                x = solve_coboundary(f)
                assert (x is not None) == want, (name, n, f.values)
                assert x is None or coboundary(x) == f, (name, n)
                unsolvable += not want
    assert unsolvable


def _solve_events(monkeypatch):
    """The steps `solve_coboundary` takes, in call order: "solve" for the
    solve modulo N, "delta" for a full coboundary or a delta x = f check
    (`coboundary_defect` with a right-hand side), and "cocycle" for a
    cocycle check."""
    events = []

    def logged(name, fn, when=lambda args, kwargs: True):
        def wrapper(*args, **kwargs):
            if when(args, kwargs):
                events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(la, "solve_with_moduli", logged("solve", la.solve_with_moduli))
    for name, attr in (("delta", "coboundary"), ("cocycle", "first_cocycle_defect")):
        monkeypatch.setattr(cochains_module, attr, logged(name, getattr(cochains_module, attr)))
    monkeypatch.setattr(cochains_module, "coboundary_defect", logged(
        "delta", cochains_module.coboundary_defect,
        lambda args, kwargs: len(args) > 1 or kwargs.get("f") is not None))
    return events


def test_solve_coboundary_runs_no_cocycle_check_on_its_answers(monkeypatch):
    """The solve comes first: a delta x in C^3(D4; Z/2) is accepted by the
    full delta x = f check alone, and the non-coboundary x^3 + delta y of
    the benchmark (x a nonzero homomorphism D4 -> Z/2) fails the generator-row
    solve at once; neither runs a cocycle check."""
    group = builtin_group("dihedral:4")
    m = trivial_module(group, [2])
    rng = random.Random(19)
    f = coboundary(Cochain(group, m, 2, {t: (rng.randrange(2),)
                                         for t in nonid_tuples(group.order, 2)}))
    refl = [x // 4 for x in range(group.order)]
    cube = add_cochains(Cochain(group, m, 3, {t: (refl[t[0]] * refl[t[1]] * refl[t[2]],)
                                              for t in nonid_tuples(group.order, 3)}),
                        coboundary(Cochain(group, m, 2, {t: (rng.randrange(2),)
                                                         for t in nonid_tuples(8, 2)})))
    assert first_cocycle_defect(cube) is None
    events = _solve_events(monkeypatch)
    x = solve_coboundary(f)
    assert events == ["solve", "delta"] and coboundary(x) == f
    events.clear()
    assert solve_coboundary(cube) is None
    assert events == ["solve"]


def test_solve_coboundary_tells_a_non_cocycle_by_the_post_check(monkeypatch):
    """On S3 with Z/2, f = delta x + 1 at (a, 1) with a outside S is no
    cocycle, yet it agrees with the coboundary delta x on every generator
    row, so the generator-row solve succeeds: the full delta y = f check
    fails, and the cocycle test that runs only then tells f apart."""
    group = builtin_group("symmetric:3")
    m = trivial_module(group, [2])
    gens = greedy_generators(group)
    a = next(x for x in range(1, group.order) if x not in gens)
    rng = random.Random(5)
    f = coboundary(Cochain(group, m, 1, {(g,): (rng.randrange(2),) for g in range(1, 6)}))
    bad = Cochain(group, m, 2, {**f.values, (a, 1): m.add(f.evaluate((a, 1)), (1,))})
    assert first_cocycle_defect(bad) is not None
    events = _solve_events(monkeypatch)
    assert solve_coboundary(bad) is None
    assert events == ["solve", "delta", "cocycle"]


def test_solve_coboundary_checks_the_cocycle_before_the_lattice_correction(monkeypatch):
    """Over Z + Z/3 on S3, f = delta x + (1, 0) at (a, 1) with a outside S
    solves on the generator rows; the cocycle check after the solve returns
    None before the lattice correction splits off the torsion."""
    group = builtin_group("symmetric:3")
    m = trivial_module(group, [0, 3])
    gens = greedy_generators(group)
    a = next(x for x in range(1, group.order) if x not in gens)
    rng = random.Random(6)
    f = coboundary(Cochain(group, m, 1, {(g,): (rng.randrange(-4, 5), rng.randrange(3))
                                         for g in range(1, 6)}))
    bad = Cochain(group, m, 2, {**f.values, (a, 1): m.add(f.evaluate((a, 1)), (1, 0))})
    assert first_cocycle_defect(bad) is not None
    events = _solve_events(monkeypatch)

    def no_split(module):
        raise AssertionError("the lattice correction ran on a non-cocycle")

    monkeypatch.setattr(cochains_module, "torsion_submodule", no_split)
    assert solve_coboundary(bad) is None
    assert events == ["solve", "cocycle"]


# -- cocycle lattices and invariants on generator rows ----------------------


def _free_modulus(module):
    """m = |G| N, the modulus `cohomology` takes on the free rows of delta_n."""
    return module.group.order ** 2 * math.lcm(*filter(None, module.factors))


def _cocycle_lattice(module, n, firsts=None):
    """The Hermite basis of `kernel_with_moduli` of delta_n, on the rows
    whose first slot is in firsts when given, with the row moduli of
    `cohomology`: d_i on torsion rows, m on free ones."""
    mat, dom, tgt = coboundary_matrix(module.group, module, n, firsts=firsts)
    big = _free_modulus(module)
    return kernel_with_moduli(mat, [d or big for _ in tgt for d in module.factors],
                                 cols=len(dom) * module.dim)


# delta_3 of D4 on every row takes seconds per module
LATTICE_DEGREES = {**SOLVE_GROUPS, "D4": 2}


def _generator_row_disagreements(group_name, monkeypatch):
    """Where the rows of S = greedy_generators, as bound in cochains and
    modules at call time, disagree with the rows of every g != e: the
    cocycle lattice of delta_n and H^n for each module of `_solve_modules`
    in degrees 1 to LATTICE_DEGREES, and the invariants of M/mM.  A raised
    error is an outcome."""
    group = builtin_group(SOLVE_SPECS[group_name])
    gens = cochains_module.greedy_generators(group)

    def outcome(fn, every):
        with monkeypatch.context() as mp:
            for module in (cochains_module, modules_module) if every else ():
                mp.setattr(module, "greedy_generators", lambda g: list(range(1, g.order)))
            try:
                return fn()
            except GroupcohError as exc:
                return type(exc).__name__

    out = []
    for name, module in _solve_modules(group).items():
        for n in range(1, LATTICE_DEGREES[group_name] + 1):
            if _cocycle_lattice(module, n, gens) != _cocycle_lattice(module, n):
                out.append(("lattice", name, n))
            if outcome(lambda: cohomology(group, module, n), False) != outcome(
                    lambda: cohomology(group, module, n), True):
                out.append(("cohomology", name, n))
        big = _free_modulus(module)
        finite = GModule(group, [d or big for d in module.factors], module.action)

        def fixed():
            inv, incl = invariants(finite)
            return inv.factors, incl.matrix

        if outcome(fixed, False) != outcome(fixed, True):
            out.append(("invariants", name, 0))
    return out


@pytest.mark.parametrize("group_name", list(SOLVE_GROUPS))
def test_generator_rows_cut_out_the_cocycle_lattice_and_the_invariants(group_name, monkeypatch):
    assert _generator_row_disagreements(group_name, monkeypatch) == []


def test_generator_row_differential_catches_a_generating_set_missing_its_last_generator(
        monkeypatch):
    """A mutation check: with the last greedy generator dropped, at the
    bindings in cochains and modules, the S-rows cut out a larger lattice
    and fewer fixed-point conditions on V4 or S3, and each comparison of
    the differential test above fails on some module."""
    greedy = greedy_generators
    for module in (cochains_module, modules_module):
        monkeypatch.setattr(module, "greedy_generators", lambda g: greedy(g)[:-1])
    kinds = {kind for group_name in ("V4", "S3")
             for kind, *_ in _generator_row_disagreements(group_name, monkeypatch)}
    assert kinds == {"lattice", "cohomology", "invariants"}


S4_SOLVE_SCRIPT = """
import random, resource, time
from groupcoh import Cochain, builtin_group, coboundary, solve_coboundary, trivial_module
from groupcoh.cochains import nonid_tuples
group = builtin_group("symmetric:4")
m = trivial_module(group, [2])
rng = random.Random(4)
f = coboundary(Cochain(group, m, 2, {t: (rng.randrange(2),) for t in nonid_tuples(24, 2)}))
start = time.perf_counter()
x = solve_coboundary(f, max_entries=1_000_000)
print(coboundary(x) == f, time.perf_counter() - start,
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""


def test_reach_of_the_solve_in_c3_of_s4_within_1_gb():
    """A delta x round trip in C^3(S4; Z/2): all of delta_2 would be
    12167 x 529 = 6,436,343 entries, its rows on S = greedy_generators (3
    elements) 3 * 23^2 x 23^2 = 839,523."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", S4_SOLVE_SCRIPT], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
                         timeout=120, check=True).stdout.split()
    assert out[0] == "True"
    assert float(out[1]) < 5.0 and int(out[2]) < 120
    group = builtin_group("symmetric:4")
    m = trivial_module(group, [2])
    assert len(greedy_generators(group)) == 3
    f = coboundary(Cochain(group, m, 2, {(1, 1): (1,)}))
    with pytest.raises(ResourceLimit, match="needs 839523 entries .limit 839522."):
        solve_coboundary(f, max_entries=839_522)
