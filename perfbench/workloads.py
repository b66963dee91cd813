"""The four benchmark workloads: seeded inputs, the program calls that are
timed, and an independent oracle for every answer.

A workload's ``setup(rng, tmpdir)`` builds its groups, modules and input
files and returns the list of ops for one round.  An op is
``Op(name, phase, run, check)``: ``run()`` is the timed program call and
``check(result)`` (untimed) returns None when the answer is right, else a
one-line reason; an optional ``prepare()`` runs untimed just before.  Ops look the program up through ``groupcoh``'s module
attributes at call time, so a tracer installed after setup sees them.

Every expected answer comes from mathematics independent of groupcoh:

* H^n(C_m; Z/m) = Z/m, and H^n(C_m; Z) is Z/m in even degrees n > 0 and 0
  in odd degrees (periodic resolution; Brown, Cohomology of Groups,
  GTM 87, III.1);
* H^n(C_2; Z_sgn) is Z/2 in odd degrees and 0 in even degrees (same
  resolution with the twisted action);
* H^*(V_4; F_2) = F_2[x, y], so H^n has dimension n + 1, and the integral
  groups follow by the Kunneth formula;
* H^1(S_3; Z) = 0, H^2(S_3; Z) = Z/2 and H^3(S_3; Z) = 0 (Adem-Milgram,
  Cohomology of Finite Groups, II.4);
* H^*(D_8; F_2) = F_2[x, y, w] / (xy) with |x| = |y| = 1, |w| = 2
  (Adem-Milgram IV.2), so H^1(D_8; Z/2) = (Z/2)^2 and
  H^2(D_8; Z/2) = (Z/2)^3, and the cube of any nonzero degree-1 class is
  nonzero.

Coboundaries are re-checked with :func:`delta`, written here and not taken
from groupcoh.  Certificates must match the sha256 recorded in
``golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")


@dataclass
class Op:
    name: str
    phase: str
    run: object
    check: object
    prepare: object = None  # untimed, called right before run


# -- independent cochain arithmetic ------------------------------------------


def delta(table, action, moduli, values, n):
    """Normalized bar coboundary of an (n)-cochain given as a dict from
    non-identity tuples to coordinate tuples; action[g] is an integer
    matrix, moduli[i] = 0 marks a free coordinate.  Returns the nonzero
    values of the (n+1)-cochain."""
    order = len(table)
    k = len(moduli)
    zero = (0,) * k

    def val(tup):
        return zero if 0 in tup else values.get(tup, zero)

    out = {}
    for tup in itertools.product(range(1, order), repeat=n + 1):
        mat = action[tup[0]]
        head = val(tup[1:])
        acc = [sum(mat[r][c] * head[c] for c in range(k)) for r in range(k)]
        sign = -1
        for i in range(1, n + 1):
            merged = tup[: i - 1] + (table[tup[i - 1]][tup[i]],) + tup[i + 1:]
            term = val(merged)
            acc = [a + sign * t for a, t in zip(acc, term)]
            sign = -sign
        tail = val(tup[:n])
        acc = [a + sign * t for a, t in zip(acc, tail)]
        red = tuple(a % d if d else a for a, d in zip(acc, moduli))
        if any(red):
            out[tup] = red
    return out


def reduce_values(values, moduli):
    out = {}
    for tup, v in values.items():
        red = tuple(a % d if d else a for a, d in zip(v, moduli))
        if any(red):
            out[tup] = red
    return out


def cochain_json(labels, n, values):
    entries = [{"tuple": [labels[i] for i in tup], "value": list(values[tup])}
               for tup in sorted(values)]
    return {"degree": n, "values": entries}


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
    return path


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def run_cli(argv):
    """groupcoh.cli.main in-process; returns (exit code, stdout, stderr)."""
    import groupcoh.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = groupcoh.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def perm_parity(label):
    p = [int(ch) for ch in label]
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


# -- certificate round trips -------------------------------------------------


@dataclass
class CertCase:
    """One trivialize + verify round trip through the CLI."""

    key: str  # golden key: case name and seeded variant
    group: str
    module: object  # CLI module spec, or module JSON written to a file
    degree: int
    cocycle: dict  # cocycle JSON
    mode: str = "torsion"
    partial: bool = False


def cert_ops(case: CertCase, tmpdir, golden):
    """The trivialize and verify ops of a case; returns (ops, cert path)."""
    stem = os.path.join(tmpdir, case.key.replace("/", "_"))
    omega_path = write_json(stem + ".omega.json", case.cocycle)
    module = case.module
    if isinstance(module, dict):
        module = write_json(stem + ".module.json", module)
    cert_path = stem + ".cert.json"
    argv = ["trivialize", "--group", case.group, "--module", module,
            "--cocycle", omega_path, "--degree", str(case.degree),
            "--out", cert_path]
    if case.mode != "torsion":
        argv += ["--mode", case.mode]
    want = golden.get(case.key)
    status = "status: partial" if case.partial else "status: pass"

    def check_trivialize(res):
        code, out, err = res
        if code != 0:
            return f"trivialize exit {code}: {err.strip()[:200]}"
        if status not in out:
            return f"trivialize did not print {status!r}"
        got = sha256_file(cert_path)
        if got != want:
            return f"certificate sha256 {got[:16]} != golden {str(want)[:16]}"
        return None

    verify_argv = ["verify", cert_path] + (["--allow-partial"] if case.partial else [])

    def check_verify(res):
        code, out, err = res
        if code != 0:
            return f"verify exit {code}: {err.strip()[:200]}"
        if "verdict: pass" not in out:
            return "verify did not print a pass verdict"
        return None

    ops = [
        Op(f"trivialize {case.key}", "trivialize", lambda: run_cli(argv), check_trivialize),
        Op(f"verify {case.key}", "verify", lambda: run_cli(verify_argv), check_verify),
    ]
    return ops, cert_path


def cert_2048_cases(rng, groupcoh):
    """The bilinear class x1*y2 of (Z/2)^2 in Z/2 plus delta of a seeded
    1-cochain beta; beta has 8 possible values, each with a golden sha256."""
    g = groupcoh.builtin_group("cyclic:2*cyclic:2")
    variant = rng.randrange(8)
    beta = {1: variant & 1, 2: (variant >> 1) & 1, 3: (variant >> 2) & 1}
    table = g.table
    bilinear = {(x, y): (((x >> 1) & 1) * (y & 1),)
                for x in range(1, 4) for y in range(1, 4)}
    values = dict(bilinear)
    beta_values = {(i,): (b,) for i, b in beta.items()}
    for tup, v in delta(table, [[[1]]] * 4, (2,), beta_values, 1).items():
        values[tup] = ((values.get(tup, (0,))[0] + v[0]) % 2,)
    values = reduce_values(values, (2,))
    return [CertCase(f"cert-2048/beta{variant}", "cyclic:2*cyclic:2", "trivial:2", 2,
                     cochain_json(g.elements, 2, values))]


SIGN_MODULE = {"factors": [0], "action": {"e": [[1]], "g": [[-1]]}}


def ladder_cases(rng, groupcoh):
    """Small groups, high degree and general mode.  On C2 with Z/2 every
    coboundary vanishes, so those two inputs are fixed; the other cases add
    a seeded coboundary from a small family, each with a golden sha256."""
    c2 = groupcoh.builtin_group("cyclic:2")
    s3 = groupcoh.builtin_group("symmetric:3")
    b_free = rng.randrange(3)
    b_sign = rng.randrange(3)
    s3_var = rng.randrange(10)

    def ones(n, v):
        return cochain_json(c2.elements, n, {(1,) * n: (v,)})

    # delta of b on the single tuple (g, ..., g): b + (-1)^n b for trivial Z
    # coefficients, -b - b under the sign action (n odd)
    cases = [
        CertCase("cert-ladder/c2-z2-deg7", "cyclic:2", "trivial:2", 7, ones(7, 1)),
        CertCase("cert-ladder/c2-z2-deg8", "cyclic:2", "trivial:2", 8, ones(8, 1)),
        CertCase(f"cert-ladder/c2-z-deg6/b{b_free}", "cyclic:2", "trivial:0", 6,
                 ones(6, 1 + 2 * b_free), mode="general"),
        CertCase(f"cert-ladder/c2-sign-deg7/b{b_sign}", "cyclic:2", SIGN_MODULE, 7,
                 ones(7, 1 - 2 * b_sign), mode="general"),
    ]
    # 3 sgn cup sgn on S3 in Z/6, plus delta of beta = c at one element
    # (c in {2, 4}, element 1..5): the exponent stays 6, and the universal
    # kernel (Z/6)^25 is too large, so the certificate is partial
    par = [perm_parity(lbl) for lbl in s3.elements]
    values = {(x, y): (3 * par[x] * par[y],) for x in range(1, 6) for y in range(1, 6)}
    elem, c = 1 + s3_var % 5, 2 + 2 * (s3_var // 5)
    for tup, v in delta(s3.table, [[[1]]] * 6, (6,), {(elem,): (c,)}, 1).items():
        values[tup] = ((values.get(tup, (0,))[0] + v[0]) % 6,)
    values = reduce_values(values, (6,))
    cases.append(CertCase(f"cert-ladder/s3-z6-deg2/v{s3_var}", "symmetric:3", "trivial:6",
                          2, cochain_json(s3.elements, 2, values), partial=True))
    return cases


def setup_cert_2048(rng, tmpdir):
    import groupcoh

    golden = load_golden()
    ops = []
    for case in cert_2048_cases(rng, groupcoh):
        case_ops, _ = cert_ops(case, tmpdir, golden)
        ops += case_ops
    return ops


def setup_cert_ladder(rng, tmpdir):
    import groupcoh

    golden = load_golden()
    ops = []
    corrupt_pick = rng.random()
    for case in ladder_cases(rng, groupcoh):
        case_ops, cert_path = cert_ops(case, tmpdir, golden)
        ops += case_ops
        if case.key == "cert-ladder/c2-z2-deg7":
            ops.append(reject_op(cert_path, corrupt_pick))
    return ops


def reject_op(cert_path, pick):
    """Negative control: flip one seeded entry of alpha in the degree-7
    certificate (written by the round's trivialize op); verify must exit 7
    and name a witness."""
    bad_path = cert_path.replace(".cert.json", ".corrupt.json")

    def prepare():
        with open(cert_path) as fh:
            data = json.load(fh)
        entries = data["alpha"]["values"]
        entry = entries[int(pick * len(entries))]
        entry["value"] = [(entry["value"][0] + 1) % 2]
        write_json(bad_path, data)

    def check(res):
        code, out, err = res
        if code != 7:
            return f"corrupted certificate: verify exit {code}, expected 7"
        if "verdict: FAIL" not in err:
            return "corrupted certificate: no FAIL verdict"
        if not any(": FAIL" in line and "witness=" in line for line in out.splitlines()):
            return "corrupted certificate: no failing check with a witness"
        return None

    return Op("reject cert-ladder/c2-z2-deg7", "reject",
              lambda: run_cli(["verify", bad_path]), check, prepare)


# -- library workloads -------------------------------------------------------

# (group, coefficients, degree, expected invariant factors); coefficient
# specs: ("trivial", d) or ("sign",) for Z with C2 acting by -1
COHOM_TABLE = [
    ("cyclic:4", ("trivial", 4), 4, [4]),
    ("dihedral:4", ("trivial", 2), 2, [2, 2, 2]),
    ("symmetric:3", ("trivial", 0), 3, []),
    ("cyclic:3", ("trivial", 3), 0, [3]),
    ("cyclic:3", ("trivial", 3), 1, [3]),
    ("cyclic:3", ("trivial", 3), 2, [3]),
    ("cyclic:3", ("trivial", 3), 3, [3]),
    ("cyclic:4", ("trivial", 4), 2, [4]),
    ("cyclic:4", ("trivial", 4), 3, [4]),
    ("cyclic:5", ("trivial", 5), 2, [5]),
    ("cyclic:6", ("trivial", 6), 1, [6]),
    ("cyclic:6", ("trivial", 6), 2, [6]),
    ("cyclic:2", ("trivial", 2), 5, [2]),
    ("cyclic:4", ("trivial", 0), 0, [0]),
    ("cyclic:4", ("trivial", 0), 1, []),
    ("cyclic:4", ("trivial", 0), 2, [4]),
    ("cyclic:3", ("trivial", 0), 3, []),
    ("cyclic:2", ("trivial", 0), 4, [2]),
    ("cyclic:6", ("trivial", 0), 2, [6]),
    ("cyclic:2", ("sign",), 0, []),
    ("cyclic:2", ("sign",), 3, [2]),
    ("cyclic:2", ("sign",), 4, []),
    ("cyclic:2*cyclic:2", ("trivial", 2), 0, [2]),
    ("cyclic:2*cyclic:2", ("trivial", 2), 1, [2, 2]),
    ("cyclic:2*cyclic:2", ("trivial", 2), 2, [2, 2, 2]),
    ("cyclic:2*cyclic:2", ("trivial", 2), 3, [2, 2, 2, 2]),
    ("cyclic:2*cyclic:2", ("trivial", 0), 2, [2, 2]),
    ("cyclic:2*cyclic:2", ("trivial", 0), 3, [2]),
    ("symmetric:3", ("trivial", 0), 2, [2]),
    ("dihedral:4", ("trivial", 2), 1, [2, 2]),
]


def _module(groupcoh, group, spec):
    if spec[0] == "sign":
        return groupcoh.GModule(group, [0], [[[1]], [[-1]]])
    return groupcoh.trivial_module(group, [spec[1]])


def _describe(group, spec, n):
    coeffs = "Z_sgn" if spec[0] == "sign" else ("Z" if spec[1] == 0 else f"Z/{spec[1]}")
    return f"H^{n}({group}; {coeffs})"


def setup_cohom_table(rng, tmpdir):
    import groupcoh

    entries = list(COHOM_TABLE)
    rng.shuffle(entries)
    ops = []
    for gspec, mspec, n, want in entries:
        group = groupcoh.builtin_group(gspec)
        module = _module(groupcoh, group, mspec)

        def run(group=group, module=module, n=n):
            import groupcoh

            return groupcoh.cohomology(group, module, n)

        def check(res, want=want):
            return None if res == want else f"got {res}, expected {want}"

        ops.append(Op(_describe(gspec, mspec, n), "cohomology", run, check))
    return ops


# (group, modulus, degree of delta x)
COB_SOLVE = [
    ("dihedral:4", 2, 3),
    ("cyclic:5", 5, 4),
    ("symmetric:3", 6, 3),
]


def _dihedral_homs(group):
    """The three nonzero homomorphisms D4 -> Z/2: reflection parity,
    rotation parity and their sum (elements are r^i s^b at index 4b + i)."""
    refl = [idx // 4 for idx in range(group.order)]
    rot = [idx % 2 for idx in range(group.order)]
    return [refl, rot, [(a + b) % 2 for a, b in zip(refl, rot)]]


def setup_cob_solve(rng, tmpdir):
    import groupcoh

    ops = []
    for gspec, m, n in COB_SOLVE:
        group = groupcoh.builtin_group(gspec)
        x = {tup: (rng.randrange(m),)
             for tup in itertools.product(range(1, group.order), repeat=n - 1)}
        f = delta(group.table, [[[1]]] * group.order, (m,), x, n - 1)
        ops.append(_solve_op(groupcoh, group, gspec, m, n, f, True))
    # x cup x cup x for a nonzero hom x: D4 -> Z/2, plus a seeded coboundary
    group = groupcoh.builtin_group("dihedral:4")
    hom = _dihedral_homs(group)[rng.randrange(3)]
    values = {tup: (hom[tup[0]] * hom[tup[1]] * hom[tup[2]],)
              for tup in itertools.product(range(1, 8), repeat=3)}
    y = {tup: (rng.randrange(2),) for tup in itertools.product(range(1, 8), repeat=2)}
    for tup, v in delta(group.table, [[[1]]] * 8, (2,), y, 2).items():
        values[tup] = ((values[tup][0] + v[0]) % 2,)
    f = reduce_values(values, (2,))
    ops.append(_solve_op(groupcoh, group, "dihedral:4", 2, 3, f, False))
    return ops


def _solve_op(groupcoh, group, gspec, m, n, fvalues, solvable):
    module = groupcoh.trivial_module(group, [m])
    f = groupcoh.Cochain(group, module, n, fvalues)
    action = [[[1]]] * group.order

    def run():
        import groupcoh

        return groupcoh.solve_coboundary(f)

    def check(res):
        if not solvable:
            return None if res is None else "found a primitive of a non-coboundary"
        if res is None:
            return "no primitive for a coboundary"
        if res.degree != n - 1:
            return f"primitive has degree {res.degree}"
        if delta(group.table, action, (m,), res.values, n - 1) != fvalues:
            return "delta of the primitive differs from the input"
        return None

    kind = "delta x" if solvable else "x^3"
    return Op(f"solve {kind} in C^{n}({gspec}; Z/{m})", "solve", run, check)


WORKLOADS = {
    "cert-2048": setup_cert_2048,
    "cert-ladder": setup_cert_ladder,
    "cohom-table": setup_cohom_table,
    "cob-solve": setup_cob_solve,
}

# phase -> end-to-end name of its per-round time
PHASES = {
    "trivialize": "trivialize_s",
    "verify": "verify_s",
    "reject": "reject_s",
    "cohomology": "cohomology_s",
    "solve": "solve_s",
}


def all_cert_variants(groupcoh):
    """Every certificate case any seed can produce, for recording goldens."""

    class Fixed:
        def __init__(self, values):
            self.values = list(values)

        def randrange(self, n):
            return self.values.pop(0)

    cases = {}
    for v in range(8):
        for case in cert_2048_cases(Fixed([v]), groupcoh):
            cases[case.key] = case
    for b in range(3):
        for s3 in range(10):
            for case in ladder_cases(Fixed([b, b, s3]), groupcoh):
                cases[case.key] = case
    return list(cases.values())
