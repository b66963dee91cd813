"""Check once, at the input boundary.

Everything read from a file goes through the checked constructors:
`Cochain.__init__` reduces every value and drops the zeros, and
`_validate_module` checks every action.  What the program derives from
checked objects is built through `Cochain._from_reduced` or an unvalidated
module, and the docstring of each such site proves its data valid.  These
tests pin both halves: the loaders still reduce, drop and reject, and the
derived cochains hold what the checked path would store (the modules are
checked in tests/test_modules.py).

The universal 2-cocycle c is proved a cocycle once per run: by
`universal_kernel` in trivialize, and in verify by `build_extension` at
load (when the certificate declares Gamma) and by the kernel-cocycle
line.  The checked entries `d2` and `build_extension` are called only
where c comes from input; code that built or proved c calls their cores."""

import ast
import copy
import importlib
import json
import pathlib

import pytest

from groupcoh import (
    Cochain,
    GModule,
    HomModule,
    add_cochains,
    builtin_group,
    coboundary,
    cochain_from_function,
    cyclic_group,
    trivial_module,
    trivialize_general,
    trivialize_torsion,
)
from groupcoh import cochains as cochains_module
from groupcoh import extensions as extensions_module
from groupcoh import trivialize as trivialize_module
from groupcoh.cli import main
from groupcoh.cochains import cochain_from_json, cochain_to_json, zero_cochain
from groupcoh.cup import d2
from groupcoh.errors import ActionNotHomomorphic
from groupcoh.extensions import lift_cochain, restrict_cochain
from groupcoh.modules import module_from_json
from groupcoh.trivialize import (
    _witness_from_json,
    load_certificate,
    save_certificate,
    verify_certificate,
)

C2 = cyclic_group(2)
# the package exports the function cup under the module's name
cup_module = importlib.import_module("groupcoh.cup")


def rebuilt_checked(f: Cochain) -> Cochain:
    return Cochain(f.group, f.coeffs, f.degree, f.values)


def assert_as_if_checked(f: Cochain):
    """f holds exactly what the checked constructor would store: the same
    values dict (reduced tuples), and no zero value."""
    assert rebuilt_checked(f).values == f.values
    assert all(type(v) is tuple and not f.coeffs.is_zero(v) for v in f.values.values())


# -- the loaders reduce and drop zeros ----------------------------------------


@pytest.mark.parametrize("value, stored", [
    ([1, 1], {(1,): (1, 1)}),
    ([5, 3], {(1,): (5, 1)}),
    ([-2, -1], {(1,): (-2, 1)}),
    ([0, 2], {}),
    ([0, 0], {}),
])
def test_cochain_from_json_reduces_and_drops_zeros(value, stored):
    m = trivial_module(C2, [0, 2])
    f = cochain_from_json({"degree": 1, "values": [{"tuple": ["g"], "value": value}]}, C2, m)
    assert f.values == stored
    if not stored:
        assert f == zero_cochain(C2, m, 1)


# -- every malformed cochain entry, with its message and in its order -------

# (id, data, exception, message) for cochain_from_json on C2 = {e, g} with
# two coordinates: every tuple is checked before any value, the values in
# entry order, and a negative degree only once every entry has passed; an
# entry without a tuple or a value raises KeyError, which the CLI reports
# with exit 1
MALFORMED_COCHAINS = [
    ('not-an-object', [],
     ValueError, 'cochain [] is not a JSON object'),
    ('no-degree', {'values': []},
     ValueError, "cochain has no field 'degree'"),
    ('degree-bool', {'degree': True, 'values': []},
     ValueError, 'cochain degree True is not an integer'),
    ('degree-float', {'degree': 1.0, 'values': []},
     ValueError, 'cochain degree 1.0 is not an integer'),
    ('values-not-list', {'degree': 1, 'values': {}},
     ValueError, 'cochain values {} is not a list'),
    ('entry-not-object', {'degree': 1, 'values': [3]},
     ValueError, 'cochain entry 3 is not an object'),
    ('entry-without-tuple', {'degree': 1, 'values': [{'value': [1, 1]}]},
     KeyError, "'tuple'"),
    ('tuple-not-list', {'degree': 1, 'values': [{'tuple': 'g', 'value': [1, 1]}]},
     ValueError, "cochain tuple 'g' is not a list of 1 labels"),
    ('tuple-too-long', {'degree': 1, 'values': [{'tuple': ['g', 'g'], 'value': [1, 1]}]},
     ValueError, "cochain tuple ['g', 'g'] is not a list of 1 labels"),
    ('unknown-label', {'degree': 1, 'values': [{'tuple': ['x'], 'value': [1, 1]}]},
     ValueError, "cochain tuple ['x'] names an unknown element"),
    ('unhashable-label', {'degree': 1, 'values': [{'tuple': [['g']], 'value': [1, 1]}]},
     ValueError, "cochain tuple [['g']] names an unknown element"),
    ('identity', {'degree': 1, 'values': [{'tuple': ['e'], 'value': [1, 1]}]},
     ValueError, "input tuple ['e'] contains the identity"),
    ('entry-without-value', {'degree': 1, 'values': [{'tuple': ['g']}]},
     KeyError, "'value'"),
    ('value-not-list', {'degree': 1, 'values': [{'tuple': ['g'], 'value': 1}]},
     ValueError, "cochain value 1 at ['g'] is not a list of 2 integers"),
    ('value-string', {'degree': 1, 'values': [{'tuple': ['g'], 'value': '11'}]},
     ValueError, "cochain value '11' at ['g'] is not a list of 2 integers"),
    ('value-too-short', {'degree': 1, 'values': [{'tuple': ['g'], 'value': [1]}]},
     ValueError, "cochain value [1] at ['g'] is not a list of 2 integers"),
    ('value-too-long', {'degree': 1, 'values': [{'tuple': ['g'], 'value': [1, 1, 1]}]},
     ValueError, "cochain value [1, 1, 1] at ['g'] is not a list of 2 integers"),
    ('value-bool', {'degree': 1, 'values': [{'tuple': ['g'], 'value': [1, True]}]},
     ValueError, "cochain value [1, True] at ['g'] is not a list of 2 integers"),
    ('value-float', {'degree': 1, 'values': [{'tuple': ['g'], 'value': [1.0, 1]}]},
     ValueError, "cochain value [1.0, 1] at ['g'] is not a list of 2 integers"),
    ('value-null', {'degree': 1, 'values': [{'tuple': ['g'], 'value': [None, 1]}]},
     ValueError, "cochain value [None, 1] at ['g'] is not a list of 2 integers"),
    ('negative-degree', {'degree': -1, 'values': []},
     ValueError, 'degree must be >= 0'),
    ('negative-degree-with-entry', {'degree': -1, 'values': [{'tuple': [], 'value': [1, 1]}]},
     ValueError, 'cochain tuple [] is not a list of -1 labels'),
    ('bad-value-then-bad-tuple', {'degree': 1, 'values': [
        {'tuple': ['g'], 'value': [True, 1]}, {'tuple': ['e'], 'value': [1, 1]}]},
     ValueError, "input tuple ['e'] contains the identity"),
    ('bad-value-then-missing-tuple', {'degree': 1, 'values': [
        {'tuple': ['g'], 'value': [True, 1]}, {'value': [1, 1]}]},
     KeyError, "'tuple'"),
    ('two-bad-values', {'degree': 1, 'values': [
        {'tuple': ['g'], 'value': [1, 1, 1]}, {'tuple': ['g'], 'value': [True, 1]}]},
     ValueError, "cochain value [1, 1, 1] at ['g'] is not a list of 2 integers"),
    ('bad-tuple-then-bad-entry', {'degree': 1, 'values': [{'tuple': ['x']}, 3]},
     ValueError, "cochain tuple ['x'] names an unknown element"),
]


@pytest.mark.parametrize("factors", [[0, 2], [3, 2]], ids=["Z+Z2", "Z3+Z2"])
@pytest.mark.parametrize("name, data, exc, message", MALFORMED_COCHAINS,
                         ids=[c[0] for c in MALFORMED_COCHAINS])
def test_cochain_from_json_names_each_malformed_entry(factors, name, data, exc, message):
    with pytest.raises(exc) as info:
        cochain_from_json(data, C2, trivial_module(C2, factors))
    assert str(info.value) == message


@pytest.mark.parametrize("matrix, image", [([[2]], (2,)), ([[6]], (2,)), ([[-2]], (2,)),
                                           ([[4]], None), ([[0]], None)])
def test_witness_from_json_reduces_and_drops_zeros(matrix, image):
    # Hom(Z/2, Z/4): the generator maps to 0 or 2
    hom = HomModule(trivial_module(C2, [2]), trivial_module(C2, [4]))
    b = _witness_from_json({"degree": 1, "values": [{"tuple": ["g"], "matrix": matrix}]},
                           C2, hom)
    if image is None:
        assert b.values == {}
    else:
        assert b.values == {(1,): (1,)} and hom.images(b.values[(1,)]) == [image]


def test_module_from_json_rejects_a_non_homomorphic_action():
    data = {"factors": [2], "action": {"g": [[0]]}}
    with pytest.raises(ActionNotHomomorphic) as exc:
        module_from_json(data, C2)
    assert exc.value.witness == ("g", "g")


def _c2_certificate(tmp_path):
    omega = Cochain(C2, trivial_module(C2, [2]), 2, {(1, 1): (1,)})
    cert = trivialize_torsion(omega)
    path = tmp_path / "cert.json"
    save_certificate(cert, str(path))
    return cert, path


def _unreduced(data):
    """The certificate data with every value shifted by a multiple of its
    modulus, and a zero entry added to alpha at (0;g)."""
    data = copy.deepcopy(data)
    data["input"]["omega"]["values"][0]["value"] = [5]
    data["c"]["values"][0]["value"] = [-1]
    data["b"]["values"][0]["matrix"] = [[3]]
    for k, entry in enumerate(data["alpha"]["values"]):
        entry["value"] = [entry["value"][0] + 2 * (k + 1)]
    data["alpha"]["values"].append({"tuple": ["(0;g)"], "value": [2]})
    return data


def test_load_certificate_reduces_and_drops_zeros(tmp_path, capsys):
    cert, path = _c2_certificate(tmp_path)
    bad = tmp_path / "unreduced.json"
    bad.write_text(json.dumps(_unreduced(json.loads(path.read_text()))))
    loaded = load_certificate(str(bad))
    for name in ("omega", "cocycle", "witness", "alpha"):
        assert getattr(loaded, name).values == getattr(cert, name).values, name
    assert main(["verify", str(bad)]) == 0
    assert "verdict: pass" in capsys.readouterr().out


@pytest.mark.parametrize("path, labels, message", [
    (("alpha",), ["(0;e)"], "input tuple ['(0;e)'] contains the identity"),
    (("c",), ["e", "g"], "input tuple ['e', 'g'] contains the identity"),
    (("input", "omega"), ["g", "e"], "input tuple ['g', 'e'] contains the identity"),
    (("alpha",), ["(1;e)", "(1;g)"], "cochain tuple ['(1;e)', '(1;g)'] is not a list of 1 "
                                     "labels"),
    (("c",), ["g"], "cochain tuple ['g'] is not a list of 2 labels"),
    (("input", "omega"), ["g", "g", "g"], "cochain tuple ['g', 'g', 'g'] is not a list of 2 "
                                          "labels"),
])
def test_verify_rejects_a_tuple_touching_the_identity_or_of_wrong_length_exit_1(
        capsys, tmp_path, path, labels, message):
    _, cert_path = _c2_certificate(tmp_path)
    data = json.loads(cert_path.read_text())
    node = data
    for key in path:
        node = node[key]
    node["values"][0]["tuple"] = labels
    cert_path.write_text(json.dumps(data))
    assert main(["verify", str(cert_path)]) == 1
    assert f"bad input: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("path", [("kernel",), ("input", "module")])
def test_verify_rejects_a_non_homomorphic_action_exit_2(capsys, tmp_path, path):
    _, cert_path = _c2_certificate(tmp_path)
    data = json.loads(cert_path.read_text())
    node = data
    for key in path:
        node = node[key]
    node["action"] = {"e": [[1]], "g": [[0]]}
    cert_path.write_text(json.dumps(data))
    assert main(["verify", str(cert_path)]) == 2
    assert "action is not a homomorphism: witness ('g', 'g')" in capsys.readouterr().err


# -- derived cochains hold what the checked path would store ---------------


def _s3_omega():
    """3 sgn cup sgn on S3 in Z/6 plus delta of 2 at the first non-identity
    element: the S3 certificate of the benchmark's ladder, partial."""
    s3 = builtin_group("symmetric:3")
    z6 = trivial_module(s3, [6])
    odd = [s3.element_order(x) == 2 for x in range(s3.order)]  # the transpositions
    cup = cochain_from_function(s3, z6, 2, lambda t: (3 * odd[t[0]] * odd[t[1]],))
    return add_cochains(cup, coboundary(Cochain(s3, z6, 1, {(1,): (2,)})))


def ladder_certificates():
    z2, z = trivial_module(C2, [2]), trivial_module(C2, [0])
    sign = GModule(C2, [0], [[[1]], [[-1]]])
    return [
        trivialize_torsion(Cochain(C2, z2, 7, {(1,) * 7: (1,)})),
        trivialize_torsion(Cochain(C2, z2, 8, {(1,) * 8: (1,)})),
        trivialize_general(Cochain(C2, z, 6, {(1,) * 6: (3,)})),
        trivialize_general(Cochain(C2, sign, 7, {(1,) * 7: (-1,)})),
        trivialize_torsion(_s3_omega()),
    ]


def internal_cochains(cert):
    """Every cochain of a certificate, and those trivialize and verify
    derive from it: d2(b, c), delta alpha, pi^* omega and iota^* alpha."""
    yield cert.omega
    if cert.mode == "general":
        st = cert.stages
        yield from (st["h"], st["hbar"], st["eta"], st["eta_tilde"], st["beta"])
        yield from internal_cochains(st["stage1"])
        yield from internal_cochains(st["stage2"])
        yield cert.alpha
        return
    yield from (cert.cocycle, cert.witness, d2(cert.witness, cert.cocycle))
    if cert.alpha is not None:
        yield from (cert.alpha, coboundary(cert.alpha), lift_cochain(cert.extension, cert.omega),
                    restrict_cochain(cert.extension, cert.alpha))


def test_internal_cochains_equal_their_checked_rebuild():
    certs = ladder_certificates()
    assert [c.partial for c in certs] == [False] * 4 + [True]
    count = 0
    for cert in certs:
        for f in internal_cochains(cert):
            assert_as_if_checked(f)
            count += 1
    # 8 per full torsion certificate, 4 for the partial one, and 7 more
    # around the two stages of a general one
    assert count == 2 * 8 + 2 * (7 + 2 * 8) + 4


# -- c is checked once ------------------------------------------------------


def _checked_cochains(monkeypatch):
    """The list every `first_cocycle_defect` call appends its cochain to,
    through each module binding of the function."""
    seen = []
    original = cochains_module.first_cocycle_defect

    def counted(f, *args, **kwargs):
        seen.append(f)
        return original(f, *args, **kwargs)

    for module in (cochains_module, trivialize_module, cup_module, extensions_module):
        monkeypatch.setattr(module, "first_cocycle_defect", counted)
    return seen


@pytest.mark.parametrize("omega, partial", [
    (Cochain(C2, trivial_module(C2, [2]), 7, {(1,) * 7: (1,)}), False),
    (_s3_omega(), True),
])
def test_each_run_checks_c_once(monkeypatch, tmp_path, omega, partial):
    """trivialize and an in-memory verify each check c once; a saved
    certificate is checked at load when it declares Gamma, and on the
    kernel-cocycle line."""
    seen = _checked_cochains(monkeypatch)

    def checks_of(c):
        count = sum(f is c for f in seen)
        seen.clear()
        return count

    cert = trivialize_torsion(omega)
    assert cert.partial is partial
    if partial:
        assert cert.reason.startswith("extension table needs |A||G| = ")
    assert checks_of(cert.cocycle) == 1
    assert verify_certificate(cert).ok(allow_partial=True)
    assert checks_of(cert.cocycle) == 1
    path = tmp_path / "cert.json"
    save_certificate(cert, str(path))
    loaded = load_certificate(str(path))
    assert verify_certificate(loaded).ok(allow_partial=True)
    assert checks_of(loaded.cocycle) == (1 if partial else 2)


def test_partial_certificate_with_non_cocycle_c_fails_on_kernel_cocycle(capsys, tmp_path):
    """A partial certificate declares no Gamma, so loading does not check c
    and the kernel-cocycle line is the only check of it."""
    c3 = cyclic_group(3)
    omega = Cochain(c3, trivial_module(c3, [3]), 2,
                    {(1, 2): (1,), (2, 1): (1,), (2, 2): (1,)})
    omega_path = tmp_path / "omega.json"
    omega_path.write_text(json.dumps(cochain_to_json(omega)))
    cert_path = tmp_path / "cert.json"
    assert main(["trivialize", "--group", "cyclic:3", "--module", "trivial:3",
                 "--cocycle", str(omega_path), "--degree", "2", "--max-entries", "50",
                 "--out", str(cert_path)]) == 0
    assert "status: partial" in capsys.readouterr().out
    data = json.loads(cert_path.read_text())
    assert data["gamma"] is None
    entry = data["c"]["values"][0]
    entry["value"] = [(v + 1) % 3 for v in entry["value"]]
    cert_path.write_text(json.dumps(data))
    assert main(["verify", str(cert_path), "--allow-partial"]) == 7
    lines = capsys.readouterr().out.splitlines()
    assert "kernel-cocycle: FAIL witness=(1, 1, 2)" in lines
    assert "witness-d2: absent (kernel-cocycle failed)" in lines


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "groupcoh"

# the checked entries, and the functions that hand them a c read from input
INPUT_BOUNDARY = {
    "build_extension": {"cli.cmd_extend", "trivialize.certificate_from_json",
                        "extensions.extension_from_json"},
    "d2": {"cli.cmd_d2"},
}


def _callers(name):
    """module.function of every call of name in src/groupcoh, by the
    innermost function around it."""
    found = set()

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.add(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.<module>")
    return found


@pytest.mark.parametrize("name", list(INPUT_BOUNDARY))
def test_checked_entries_are_called_only_at_the_input_boundary(name):
    assert _callers(name) == INPUT_BOUNDARY[name]


def _raises(name):
    """module.function of every `raise name(...)` in src/groupcoh, once per
    statement, by the innermost function around it."""
    found = []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split('.')[0]}.{node.name}"
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == name:
                found.append(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.<module>")
    return sorted(found)


def test_one_resource_gate_raises_every_resource_limit():
    # the gate, and the two re-raises of a partial stage of the general driver
    assert _raises("ResourceLimit") == ["cochains.check_entries",
                                        "trivialize.trivialize_general",
                                        "trivialize.trivialize_general"]


def test_certificates_are_read_through_load_certificate():
    # load_certificate, and the nested stages of a general certificate
    assert _callers("certificate_from_json") == {"trivialize.load_certificate",
                                                 "trivialize.certificate_from_json"}
