import json
import os
import subprocess
import sys

import pytest

from groupcoh import (
    Cochain,
    cochain_to_json,
    cyclic_group,
    group_to_json,
    module_to_json,
    trivial_module,
)
from groupcoh import cli
from groupcoh.cli import main
from groupcoh.cochains import cochain_from_json, max_entries_limit
from groupcoh.extensions import GroupExtension
from groupcoh.modules import GModule, load_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n")
    return str(path)


def z2_cocycle_file(tmp_path, name="omega.json"):
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    w = Cochain(g, m, 2, {(1, 1): (1,)})
    return write_json(tmp_path / name, cochain_to_json(w))


# -- group -----------------------------------------------------------------


def test_group_builtin(capsys):
    code, out, _ = run(capsys, "group", "--builtin", "cyclic:4")
    assert code == 0
    assert "order: 4" in out
    assert "abelian: yes" in out


def test_group_json_output(capsys):
    code, out, _ = run(capsys, "group", "--builtin", "symmetric:3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6
    assert data["abelian"] is False
    assert sorted(data["element_orders"]) == [1, 2, 2, 2, 3, 3]


def test_group_table_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "g.json"
    code, _, _ = run(capsys, "group", "--builtin", "cyclic:3", "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "group", "--table", str(out_path))
    assert code == 0 and "order: 3" in out


def test_group_bad_table_exit_2(capsys, tmp_path):
    path = write_json(tmp_path / "bad.json", {"table": [[1, 0], [1, 0]]})
    code, _, err = run(capsys, "group", "--table", path)
    assert code == 2
    assert "error:" in err


def test_group_unknown_family_exit_2(capsys):
    code, _, err = run(capsys, "group", "--builtin", "sporadic:1")
    assert code == 2


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["group"])  # missing required source
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


# -- cohomology ------------------------------------------------------------


def test_cohomology_value(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--group", "cyclic:2",
        "--module", "trivial:2", "--degree", "2",
    )
    assert code == 0
    assert "[2]" in out


def test_cohomology_json(capsys):
    code, out, _ = run(
        capsys, "cohomology", "--group", "cyclic:2",
        "--module", "trivial:0", "--degree", "4", "--json",
    )
    assert code == 0
    assert json.loads(out) == {"degree": 4, "factors": [2]}


def test_cohomology_module_file(capsys, tmp_path):
    g = cyclic_group(2)
    sign = GModule(g, [0], [[[1]], [[-1]]])
    path = write_json(tmp_path / "sign.json", module_to_json(sign, embed_group=False))
    code, out, _ = run(
        capsys, "cohomology", "--group", "cyclic:2",
        "--module", path, "--degree", "1",
    )
    assert code == 0 and "[2]" in out


def test_module_file_group_must_be_the_group_of_the_command(capsys, tmp_path):
    # a module file read over --group may embed no group, or the same table
    module = module_to_json(trivial_module(cyclic_group(2), [2]), embed_group=False)
    argv = ("cohomology", "--group", "cyclic:2", "--degree", "1", "--module")
    for data in (module, dict(module, group=group_to_json(cyclic_group(2)))):
        code, out, _ = run(capsys, *argv, write_json(tmp_path / "m.json", data))
        assert code == 0 and "H^1 invariant factors: [2]" in out
    other = dict(module, group=group_to_json(cyclic_group(3)))
    code, out, err = run(capsys, *argv, write_json(tmp_path / "m.json", other))
    assert code == 1 and out == ""
    assert "module field 'group' holds a 3-element table that is not the table of --group" in err


def test_module_file_group_that_is_no_group_exit_1(capsys, tmp_path):
    # the embedded group is read in full: a C3 table that claims order 7
    data = dict(module_to_json(trivial_module(cyclic_group(2), [2])),
                group=dict(group_to_json(cyclic_group(3)), order=7))
    code, out, err = run(capsys, "cohomology", "--group", "cyclic:2", "--degree", "1",
                         "--module", write_json(tmp_path / "m.json", data))
    assert code == 1 and out == ""
    assert "group field 'order' is 7, expected 3" in err


@pytest.mark.parametrize("order", [3, True, "2", None])
def test_group_order_field_must_be_the_table_size_exit_1(capsys, tmp_path, order):
    data = group_to_json(cyclic_group(2))
    data["order"] = order
    code, _, err = run(capsys, "group", "--table", write_json(tmp_path / "g.json", data))
    assert code == 1
    assert f"group field 'order' is {order!r}, expected 2" in err
    # the CLI reads modules over --group; a module file's own group is read
    # by load_module without one
    module = dict(module_to_json(trivial_module(cyclic_group(2), [2])), group=data)
    with pytest.raises(ValueError, match=f"group field 'order' is {order!r}, expected 2"):
        load_module(write_json(tmp_path / "m.json", module))


def test_group_file_without_order_loads(capsys, tmp_path):
    data = group_to_json(cyclic_group(2))
    del data["order"]
    code, out, _ = run(capsys, "group", "--table", write_json(tmp_path / "g.json", data))
    assert code == 0 and "order: 2" in out
    module = dict(module_to_json(trivial_module(cyclic_group(2), [2])), group=data)
    assert load_module(write_json(tmp_path / "m.json", module)).group.order == 2


def test_cohomology_resource_limit_exit_3(capsys):
    code, _, err = run(
        capsys, "cohomology", "--group", "symmetric:4",
        "--module", "trivial:2", "--degree", "3", "--max-entries", "100",
    )
    assert code == 3


def test_lattice_cohomology_gates_on_delta_n_minus_1(capsys):
    # H^2(C4; Z) builds delta_1 (27 entries) and never delta_2 (243)
    args = ("cohomology", "--group", "cyclic:4", "--module", "trivial:0", "--degree", "2")
    code, out, _ = run(capsys, *args, "--max-entries", "100")
    assert code == 0 and out.strip() == "H^2 invariant factors: [4]"
    code, _, err = run(capsys, *args, "--max-entries", "20")
    assert code == 3 and "coboundary matrix needs 27 entries (limit 20)" in err


def test_memory_error_exit_3(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_cohomology", exhausted)
    code, _, err = run(
        capsys, "cohomology", "--group", "cyclic:2", "--module", "trivial:2", "--degree", "1",
    )
    assert code == 3
    assert err == "error: cohomology ran out of memory (MemoryError)\n"


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch, tmp_path):
    # one parser serves every call, with the outputs a fresh parser gives
    cert = tmp_path / "cert.json"
    argvs = [
        ["trivialize", "--group", "cyclic:2", "--module", "trivial:2",
         "--cocycle", z2_cocycle_file(tmp_path), "--degree", "2", "--out", str(cert)],
        ["verify", str(cert)],
        ["trivialize", "--group", "cyclic:2"],  # usage error: required flags missing
        ["cohomology", "--group", "cyclic:2", "--module", "trivial:2", "--degree", "2"],
    ]
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)

    def outcomes(fresh):
        out = []
        for argv in argvs:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", None)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            out.append((code,) + tuple(capsys.readouterr()) + (cert.read_bytes(),))
        return out

    monkeypatch.setattr(cli, "_PARSER", None)
    cached = outcomes(fresh=False)
    assert len(built) == 1
    assert [o[0] for o in cached] == [0, 0, ("exit", 1), 0]
    assert outcomes(fresh=True) == cached
    assert len(built) == 5


def test_bad_module_spec_exit_2(capsys):
    code, _, err = run(
        capsys, "cohomology", "--group", "cyclic:2",
        "--module", "nonsense", "--degree", "1",
    )
    assert code == 2


# -- trivialize + verify ---------------------------------------------------


def test_trivialize_torsion_end_to_end(capsys, tmp_path):
    cocycle = z2_cocycle_file(tmp_path)
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", cocycle, "--degree", "2", "--out", str(cert_path),
    )
    assert code == 0
    assert "N: 2" in out
    assert "gamma order: 4" in out
    assert "status: pass" in out
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0
    assert "verdict: pass" in out


def test_trivialize_degree_mismatch_exit_1(capsys, tmp_path):
    cocycle = z2_cocycle_file(tmp_path)
    code, _, err = run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", cocycle, "--degree", "3", "--out", str(tmp_path / "c.json"),
    )
    assert code == 1
    assert "does not match" in err


def test_trivialize_non_cocycle_exit_4(capsys, tmp_path):
    g = cyclic_group(4)
    m = trivial_module(g, [2])
    bad = Cochain(g, m, 2, {(1, 2): (1,)})
    path = write_json(tmp_path / "bad.json", cochain_to_json(bad))
    code, _, err = run(
        capsys, "trivialize", "--group", "cyclic:4", "--module", "trivial:2",
        "--cocycle", path, "--degree", "2", "--out", str(tmp_path / "c.json"),
    )
    assert code == 4


def test_trivialize_non_torsion_exit_5(capsys, tmp_path):
    g = cyclic_group(2)
    m = trivial_module(g, [0])
    w = Cochain(g, m, 2, {(1, 1): (1,)})
    path = write_json(tmp_path / "w.json", cochain_to_json(w))
    code, _, err = run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:0",
        "--cocycle", path, "--degree", "2", "--out", str(tmp_path / "c.json"),
    )
    assert code == 5


def test_trivialize_degree_too_low_exit_6(capsys, tmp_path):
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    f = Cochain(g, m, 1, {(1,): (1,)})
    path = write_json(tmp_path / "f.json", cochain_to_json(f))
    code, _, err = run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", path, "--degree", "1", "--out", str(tmp_path / "c.json"),
    )
    assert code == 6


def test_trivialize_general_mode(capsys, tmp_path):
    g = cyclic_group(2)
    m = trivial_module(g, [0])
    w = Cochain(g, m, 4, {(1, 1, 1, 1): (1,)})
    path = write_json(tmp_path / "w.json", cochain_to_json(w))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:0",
        "--cocycle", path, "--degree", "4", "--mode", "general",
        "--out", str(cert_path),
    )
    assert code == 0
    assert "status: pass" in out
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 0
    assert "verdict: pass" in out


def test_verify_corrupted_exit_7(capsys, tmp_path):
    cocycle = z2_cocycle_file(tmp_path)
    cert_path = tmp_path / "cert.json"
    run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", cocycle, "--degree", "2", "--out", str(cert_path),
    )
    data = json.loads(cert_path.read_text())
    entry = data["alpha"]["values"][0]
    entry["value"] = [(entry["value"][0] + 1) % 2]
    cert_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 7
    assert "verdict: FAIL" in err
    assert "FAIL" in out  # the failing check line names itself


def test_verify_partial_requires_flag(capsys, tmp_path, monkeypatch):
    # force a partial certificate by shrinking the build budget
    cocycle = z2_cocycle_file(tmp_path)
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", cocycle, "--degree", "2", "--max-entries", "3",
        "--out", str(cert_path),
    )
    assert code == 0
    assert "status: partial" in out
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 7
    code, out, _ = run(capsys, "verify", str(cert_path), "--allow-partial")
    assert code == 0
    assert "partial allowed" in out


def test_trivialize_byte_deterministic(capsys, tmp_path):
    cocycle = z2_cocycle_file(tmp_path)
    p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for p in (p1, p2):
        code, _, _ = run(
            capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
            "--cocycle", cocycle, "--degree", "2", "--out", str(p),
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_file_exit_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", str(tmp_path / "absent.json"), "--degree", "2",
        "--out", str(tmp_path / "c.json"),
    )
    assert code == 1


# -- cup / d2 / extend -----------------------------------------------------


def test_cup_command(capsys, tmp_path):
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    a = Cochain(g, m, 1, {(1,): (1,)})
    path = write_json(tmp_path / "a.json", cochain_to_json(a))
    out_path = tmp_path / "cup.json"
    code, out, _ = run(
        capsys, "cup", "--group", "cyclic:2",
        "--left-module", "trivial:2", "--right-module", "trivial:2",
        "--left", path, "--right", path, "--out", str(out_path),
    )
    assert code == 0
    assert "degree 2" in out
    data = json.loads(out_path.read_text())
    assert data["factors"] == [2]
    tensor = trivial_module(g, [2])
    prod = cochain_from_json(
        {"degree": data["degree"], "values": data["values"]}, g, tensor
    )
    assert prod.evaluate((1, 1)) == (1,)


def test_extend_command(capsys, tmp_path):
    cocycle = z2_cocycle_file(tmp_path)
    out_path = tmp_path / "ext.json"
    code, out, _ = run(
        capsys, "extend", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", cocycle, "--out", str(out_path),
    )
    assert code == 0
    assert "extension order: 4" in out
    data = json.loads(out_path.read_text())
    assert data["base"]["order"] == 2
    assert data["kernel"]["factors"] == [2]


def test_extend_non_cocycle_exit_4(capsys, tmp_path):
    g = cyclic_group(4)
    m = trivial_module(g, [2])
    bad = Cochain(g, m, 2, {(1, 2): (1,)})
    path = write_json(tmp_path / "bad.json", cochain_to_json(bad))
    code, _, err = run(
        capsys, "extend", "--group", "cyclic:4", "--module", "trivial:2",
        "--cocycle", path,
    )
    assert code == 4
    assert "witness" in err


def test_d2_command(capsys, tmp_path):
    # take b and c from a real certificate so the pair is compatible
    cocycle = z2_cocycle_file(tmp_path)
    cert_path = tmp_path / "cert.json"
    run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", cocycle, "--degree", "2", "--out", str(cert_path),
    )
    cert = json.loads(cert_path.read_text())
    kernel_path = write_json(tmp_path / "kernel.json", cert["kernel"])
    c_path = write_json(tmp_path / "c.json", cert["c"])
    b_path = write_json(tmp_path / "b.json", cert["b"])
    out_path = tmp_path / "d2.json"
    code, out, _ = run(
        capsys, "d2", "--group", "cyclic:2", "--module", "trivial:2",
        "--kernel", kernel_path, "--witness", b_path, "--cocycle", c_path,
        "--out", str(out_path),
    )
    assert code == 0
    # d2(b, c) must reproduce the original omega
    g = cyclic_group(2)
    m = trivial_module(g, [2])
    result = cochain_from_json(json.loads(out_path.read_text()), g, m)
    assert result.evaluate((1, 1)) == (1,)


def test_d2_non_cocycle_exit_4(capsys, tmp_path):
    from groupcoh import builtin_group

    g = builtin_group("cyclic:2*cyclic:2")
    a = trivial_module(g, [2])
    bad = Cochain(g, a, 2, {(1, 2): (1,)})
    c_path = write_json(tmp_path / "badc.json", cochain_to_json(bad))
    b_path = write_json(tmp_path / "b.json", {"degree": 0, "values": []})
    code, _, err = run(
        capsys, "d2", "--group", "cyclic:2*cyclic:2", "--module", "trivial:2",
        "--kernel", "trivial:2", "--witness", b_path, "--cocycle", c_path,
    )
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["cohomology", "--module", "trivial:2", "--degree", "1"],
    ["cup", "--left-module", "trivial:2", "--right-module", "trivial:2", "--left", "a.json",
     "--right", "a.json"],
    ["d2", "--module", "trivial:2", "--kernel", "trivial:2", "--witness", "b.json",
     "--cocycle", "c.json"],
    ["extend", "--module", "trivial:2", "--cocycle", "c.json"],
])
def test_seed_is_a_flag_of_trivialize_and_verify_only_exit_1(capsys, argv):
    # these four commands draw nothing at random, so --seed is a usage error
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--group", "cyclic:2", "--seed", "99"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 99" in capsys.readouterr().err


def test_extend_gates_on_the_extension_table_exit_3(capsys, tmp_path):
    # (Z/2)^6 by C2 has 128 elements
    path = write_json(tmp_path / "c.json", {"degree": 2, "values": []})
    args = ("extend", "--group", "cyclic:2", "--module", "trivial:2,2,2,2,2,2",
            "--cocycle", path, "--max-entries")
    code, _, err = run(capsys, *args, "3")
    assert code == 3
    assert "extension table needs |A||G| = 128 entries (limit 3)" in err
    code, out, _ = run(capsys, *args, "128")
    assert code == 0 and "extension order: 128 (kernel 64, base 2)" in out


def test_cup_and_d2_gate_on_the_product_of_the_supports_exit_3(capsys, tmp_path):
    g = cyclic_group(3)
    a = Cochain(g, trivial_module(g, [3]), 1, {(1,): (1,), (2,): (2,)})
    path = write_json(tmp_path / "a.json", cochain_to_json(a))
    args = ("cup", "--group", "cyclic:3", "--left-module", "trivial:3",
            "--right-module", "trivial:3", "--left", path, "--right", path, "--max-entries")
    code, _, err = run(capsys, *args, "3")
    assert code == 3 and "cup product needs 4 entries (limit 3)" in err
    code, out, _ = run(capsys, *args, "4")
    assert code == 0 and "cup product: degree 2, support 4" in out
    # b of degree 0 (support 1) against c on C3 (support 3)
    c = Cochain(g, trivial_module(g, [3]), 2, {(1, 2): (1,), (2, 1): (1,), (2, 2): (1,)})
    c_path = write_json(tmp_path / "c.json", cochain_to_json(c))
    b_path = write_json(tmp_path / "b.json",
                        {"degree": 0, "values": [{"tuple": [], "matrix": [[1]]}]})
    args = ("d2", "--group", "cyclic:3", "--module", "trivial:3", "--kernel", "trivial:3",
            "--witness", b_path, "--cocycle", c_path, "--max-entries")
    code, _, err = run(capsys, *args, "2")
    assert code == 3 and "cup product needs 3 entries (limit 2)" in err
    code, out, _ = run(capsys, *args, "3")
    assert code == 0 and "d2: degree 2, support 3" in out


def test_verify_missing_certificate_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert code == 1


def _certificate(capsys, tmp_path, mode):
    g = cyclic_group(2)
    spec, n = ("trivial:2", 2) if mode == "torsion" else ("trivial:0", 4)
    m = trivial_module(g, [int(spec[-1])])
    w = Cochain(g, m, n, {(1,) * n: (1,)})
    path = write_json(tmp_path / "w.json", cochain_to_json(w))
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", spec, "--cocycle", path,
        "--degree", str(n), "--mode", mode, "--out", str(cert_path),
    )
    assert code == 0
    return cert_path


@pytest.mark.parametrize("mode, field", [
    ("torsion", "c"), ("torsion", "b"), ("torsion", "alpha"), ("torsion", "input"),
    ("general", "alpha"), ("general", "stages.eta"),
    ("general", "stages.stage1.c"), ("general", "stages.stage1.b"),
    ("general", "stages.stage2.b"), ("general", "stages.stage2.alpha"),
])
def test_verify_rejects_wrong_degree_field(capsys, tmp_path, mode, field):
    cert_path = _certificate(capsys, tmp_path, mode)
    data = json.loads(cert_path.read_text())
    node = data
    for key in field.split("."):
        node = node[key]
    node["degree"] = 5
    cert_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 4
    assert f"certificate field {field}.degree is 5" in err


@pytest.mark.parametrize("degree", ["2", True, 2.5])
def test_verify_rejects_non_integer_omega_degree_exit_1(capsys, tmp_path, degree):
    cert_path = _certificate(capsys, tmp_path, "torsion")
    data = json.loads(cert_path.read_text())
    data["input"]["omega"]["degree"] = degree
    cert_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert f"cochain degree {degree!r} is not an integer" in err


VALUE = ("alpha", "values", 0, "value")
TUPLE = ("alpha", "values", 0, "tuple")
MATRIX = ("b", "values", 0, "matrix")


@pytest.mark.parametrize("path, value, message", [
    (VALUE, ["1"], "is not a list of 1 integers"),
    (VALUE, [1, 1], "is not a list of 1 integers"),
    (VALUE, 1, "is not a list of 1 integers"),
    (VALUE, [True], "is not a list of 1 integers"),
    (("alpha", "values"), {"tuple": ["g"], "value": [1]}, "is not a list"),
    (("alpha", "values", 0), ["g"], "is not an object"),
    (TUPLE, "g", "is not a list of 1 labels"),
    (TUPLE, ["g", "g"], "is not a list of 1 labels"),
    (TUPLE, [["g"]], "names an unknown element"),
    (TUPLE, ["nope"], "names an unknown element"),
    (MATRIX, [["1"]], "is not a list of 1 integers"),
    (MATRIX, [[1, 1]], "is not a list of 1 integers"),
    (MATRIX, [[1], [1]], "does not have 1 rows"),
    (MATRIX, [1], "is not a list of 1 integers"),
])
def test_verify_rejects_malformed_cochain_entry_exit_1(capsys, tmp_path, path, value, message):
    # a string, a bool or an extra coordinate in a value used to end in a
    # TypeError or pass unnoticed
    cert_path = _certificate(capsys, tmp_path, "torsion")
    data = json.loads(cert_path.read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cert_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert message in err


@pytest.mark.parametrize("mode, path, value, message", [
    ("torsion", ("N",), "x", "field N is 'x'"),
    ("torsion", ("N",), None, "field N is None"),
    ("torsion", ("kernel", "factors"), [-1], "field kernel: module factors [-1]"),
    ("torsion", ("input", "module", "factors"), [None], "field input.module: module factors"),
    ("torsion", ("input", "module", "action"), "x", "field input.module: module action 'x'"),
    ("torsion", ("input", "group", "table"), "x", "field input.group: group table 'x'"),
    ("torsion", ("input", "group", "table"), [[0, "x"], [1, 0]], "field input.group: group table"),
    ("torsion", ("input", "group", "elements"), 5, "field input.group: group elements 5"),
    ("torsion", ("gamma", "order"), 10 ** 6, "field gamma.order is 1000000, expected 4"),
    ("torsion", ("partial",), "x", "field partial is 'x', expected False"),
    ("torsion", ("partial",), True, "field partial is True, expected False"),
    ("torsion", ("format",), "x", "field format is 'x'"),
    ("general", ("stages", "stage1", "gamma"), None, "field stages.stage1.gamma is None"),
])
def test_verify_rejects_malformed_or_wrong_declared_field_exit_1(capsys, tmp_path, mode, path,
                                                                 value, message):
    # the N, module, group and general-mode cases used to end in a
    # TypeError, AttributeError or SourceNotTorsion traceback, and the
    # declared gamma.order, partial and format fields to verify with exit 0
    cert_path = _certificate(capsys, tmp_path, mode)
    data = json.loads(cert_path.read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cert_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert "certificate " + message in err


@pytest.mark.parametrize("mode, path, value", [
    ("torsion", ("input",), "x"),
    ("torsion", ("input", "omega"), 3),
    ("torsion", ("alpha",), []),
    ("torsion", ("kernel",), 0),
    ("torsion", ("c",), "x"),
    ("torsion", ("b",), [1]),
    ("torsion", ("gamma",), 4),
    ("general", ("stages",), 5),
    ("general", ("stages", "stage1"), 5),
    ("general", ("stages", "stage2", "input"), "x"),
])
def test_verify_rejects_scalar_in_place_of_object_exit_1(capsys, tmp_path, mode, path, value):
    # each used to end in a TypeError traceback; gamma = 4, the order of
    # Gamma, used to verify with exit 0
    cert_path = _certificate(capsys, tmp_path, mode)
    data = json.loads(cert_path.read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cert_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert f"certificate field {'.'.join(path)} is {value!r}, expected an object" in err


def test_verify_rejects_a_certificate_that_is_not_an_object_exit_1(capsys, tmp_path):
    path = write_json(tmp_path / "cert.json", [])
    code, _, err = run(capsys, "verify", path)
    assert code == 1
    assert "certificate is [], expected an object" in err


@pytest.mark.parametrize("mode, path, value, message", [
    ("torsion", ("verification",), 5, "field verification is 5, expected an object"),
    ("torsion", ("verification", "mode"), "x",
     "field verification.mode is 'x', expected 'exhaustive' or 'sampled'"),
    ("torsion", ("verification", "mode"), "partial",
     "field verification.mode is 'partial', expected 'exhaustive' or 'sampled'"),
    ("torsion", ("verification", "seed"), -1, "field verification.seed is -1, expected an "
                                              "integer >= 0"),
    ("torsion", ("verification", "checked"), True, "field verification.checked is True, "
                                                   "expected an integer >= 0"),
    ("general", ("stages", "stage1", "verification", "seed"), "x",
     "field stages.stage1.verification.seed is 'x', expected an integer >= 0"),
    ("torsion", ("input", "group", "order"), 10 ** 6,
     "field input.group.order is 1000000, expected 2"),
    ("general", ("mode",), "x", "field mode is 'x', expected 'torsion' or 'general'"),
    ("general", ("stages", "h", "denominator"), "x", "field stages.h.denominator is 'x', "
                                                     "expected 2"),
])
def test_verify_rejects_wrong_declared_field_exit_1(capsys, tmp_path, mode, path, value,
                                                    message):
    # every one of these used to verify with exit 0
    cert_path = _certificate(capsys, tmp_path, mode)
    data = json.loads(cert_path.read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cert_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert "certificate " + message in err


def test_verify_partial_certificate_declares_partial_mode(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COCYCLE_MAX_TUPLES", "3")
    cert_path = _certificate(capsys, tmp_path, "torsion")
    data = json.loads(cert_path.read_text())
    assert data["alpha"] is None and data["verification"]["mode"] == "partial"
    code, _, _ = run(capsys, "verify", str(cert_path), "--allow-partial")
    assert code == 0
    data["verification"]["mode"] = "exhaustive"
    cert_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(cert_path), "--allow-partial")
    assert code == 1
    assert "certificate field verification.mode is 'exhaustive', expected 'partial'" in err


def test_d2_infinite_kernel_exit_4(capsys, tmp_path):
    # Hom(A, M) needs a finite A; this used to end in a SourceNotTorsion traceback
    b_path = write_json(tmp_path / "b.json", {"degree": 0, "values": []})
    c_path = write_json(tmp_path / "c.json", {"degree": 2, "values": []})
    code, _, err = run(
        capsys, "d2", "--group", "cyclic:2", "--module", "trivial:2",
        "--kernel", "trivial:0", "--witness", b_path, "--cocycle", c_path,
    )
    assert code == 4
    assert "torsion source" in err


def test_negative_seed_exit_1(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["trivialize", "--group", "cyclic:2", "--module", "trivial:2", "--cocycle",
              z2_cocycle_file(tmp_path), "--degree", "2", "--out", str(tmp_path / "c.json"),
              "--seed", "-1"])
    assert exc.value.code == 1
    assert "expected an integer >= 0" in capsys.readouterr().err


H1_C2 = ("cohomology", "--group", "cyclic:2", "--module", "trivial:2", "--degree", "1")


@pytest.mark.parametrize("value", ["-1", "1e7", "x", ""])
def test_max_entries_flag_must_be_an_integer_at_least_0_exit_1(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main([*H1_C2, "--max-entries", value])
    assert exc.value.code == 1
    assert (f"argument --max-entries: invalid value {value!r}: expected an integer >= 0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", ["-3", "1e7", "x"])
def test_max_tuples_variable_must_be_an_integer_at_least_0_exit_1(capsys, monkeypatch, value):
    monkeypatch.setenv("COCYCLE_MAX_TUPLES", value)
    code, _, err = run(capsys, *H1_C2)
    assert code == 1
    assert err == f"error: bad input: COCYCLE_MAX_TUPLES is {value!r}, expected an integer >= 0\n"
    with pytest.raises(ValueError, match="COCYCLE_MAX_TUPLES"):
        max_entries_limit()


def test_a_ceiling_of_0_is_valid_exit_3(capsys, monkeypatch):
    # delta_1 of C2 in Z/2 has one entry
    code, _, err = run(capsys, *H1_C2, "--max-entries", "0")
    assert code == 3 and err == "error: coboundary matrix needs 1 entries (limit 0)\n"
    monkeypatch.setenv("COCYCLE_MAX_TUPLES", "0")
    code, _, err = run(capsys, *H1_C2)
    assert code == 3 and err == "error: coboundary matrix needs 1 entries (limit 0)\n"
    assert run(capsys, *H1_C2, "--max-entries", "1")[:2] == (0, "H^1 invariant factors: [2]\n")


def _off_by_one(method, element, when):
    """GroupExtension.<method>, whose result is a list in element order,
    with the entry of element moved to the next element on the calls whose
    arguments satisfy when."""
    real = getattr(GroupExtension, method)

    def patched(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        if when(*args, **kwargs):
            out = list(out)
            out[element] = (out[element] + 1) % self.order
        return out
    return patched


def _right_identity(others, left=False):
    """The call of mul_pointwise that builds every (a, g)(0, e)."""
    return not left and not any(others)


@pytest.mark.parametrize("method, when, element, line", [
    ("mul_pointwise", _right_identity, 3, "extension-identity: FAIL witness=3"),
    ("inverses", lambda: True, 2, "extension-inverses: FAIL witness=2"),
], ids=["right-identity", "inverses"])
def test_verify_fails_the_extension_axioms_with_the_element_exit_7(capsys, tmp_path, monkeypatch,
                                                                   method, when, element, line):
    cert_path = _certificate(capsys, tmp_path, "torsion")  # |Gamma| = 4
    monkeypatch.setattr(GroupExtension, method, _off_by_one(method, element, when))
    code, out, err = run(capsys, "verify", str(cert_path))
    assert code == 7 and err == "verdict: FAIL\n"
    assert line in out.splitlines()


def test_verify_kernel_factor_one_fails_with_witness_exit_7(capsys, tmp_path):
    # a factor of 1 makes the kernel basis vector zero; the degree-1
    # restriction check used to index past the one kernel element
    cert_path = _certificate(capsys, tmp_path, "torsion")
    data = json.loads(cert_path.read_text())
    data["kernel"]["factors"] = [1]
    data["gamma"]["order"] = 2
    for field in ("c", "b", "alpha"):
        data[field]["values"] = []
    cert_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 7
    assert "witness-d2: FAIL witness=(1, 1)" in out
    assert "alpha-restriction: pass (cocycle on the generator rows of A, |A| = 1)" in out


def _mutate(cert_path, path, value):
    data = json.loads(cert_path.read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cert_path.write_text(json.dumps(data))


CHECKED = ("verification", "checked")


@pytest.mark.parametrize("mode, path, value, message", [
    ("torsion", ("N",), 10 ** 6, "field N is 1000000, expected 2"),
    ("torsion", ("N",), 4, "field N is 4, expected 2"),
    ("general", ("stages", "stage1", "N"), 4, "field stages.stage1.N is 4, expected 2"),
    ("general", ("stages", "stage2", "N"), 2, "field stages.stage2.N is 2, expected 1"),
    ("torsion", CHECKED, 0,
     "field verification.checked is 0, expected an integer >= 1 in exhaustive mode"),
    ("general", CHECKED, 0,
     "field verification.checked is 0, expected an integer >= 1 in exhaustive mode"),
    ("general", ("stages", "stage1") + CHECKED, 0,
     "field stages.stage1.verification.checked is 0, expected an integer >= 1"),
    ("general", ("stages", "stage2") + CHECKED, 0,
     "field stages.stage2.verification.checked is 0, expected an integer >= 1"),
])
def test_verify_rejects_wrong_exponent_or_checked_count_exit_1(capsys, tmp_path, mode, path,
                                                               value, message):
    # every one of these used to verify with exit 0
    cert_path = _certificate(capsys, tmp_path, mode)
    _mutate(cert_path, path, value)
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert "certificate " + message in err


def test_verify_rejects_checked_count_of_sampled_or_partial_exit_1(capsys, tmp_path,
                                                                   monkeypatch):
    cert_path = _certificate(capsys, tmp_path, "torsion")
    _mutate(cert_path, CHECKED, 0)
    _mutate(cert_path, ("verification", "mode"), "sampled")
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert "field verification.checked is 0, expected an integer >= 1 in sampled mode" in err
    monkeypatch.setenv("COCYCLE_MAX_TUPLES", "3")
    cert_path = _certificate(capsys, tmp_path, "torsion")
    _mutate(cert_path, CHECKED, 10 ** 6)
    code, _, err = run(capsys, "verify", str(cert_path), "--allow-partial")
    assert code == 1
    assert "field verification.checked is 1000000, expected 0" in err


@pytest.mark.parametrize("mode, prefix, n, order", [
    ("torsion", (), 2, 4),
    ("general", (), 4, 4),
    ("general", ("stages", "stage1"), 3, 4),
    ("general", ("stages", "stage2"), 4, 4),
])
def test_verify_fails_exhaustive_count_other_than_all_tuples_exit_7(capsys, tmp_path, mode,
                                                                    prefix, n, order):
    cert_path = _certificate(capsys, tmp_path, mode)
    _mutate(cert_path, prefix + CHECKED, 10 ** 6)
    code, out, _ = run(capsys, "verify", str(cert_path))
    assert code == 7
    name = prefix[-1] + ":alpha-trivializes" if prefix else "alpha-trivializes"
    line = next(line for line in out.splitlines() if line.startswith(name + ":"))
    assert line.startswith(name + ": FAIL")
    assert (f"declared verification.checked is 1000000, expected |Gamma|^{n} = {order ** n}"
            in line)


def test_verify_rejects_witness_that_is_not_a_homomorphism_exit_1(capsys, tmp_path):
    # b takes values in Hom(Z/2, Z/4): the generator must map to 0 or 2
    g = cyclic_group(2)
    w = Cochain(g, trivial_module(g, [4]), 2, {(1, 1): (2,)})
    path = write_json(tmp_path / "w.json", cochain_to_json(w))
    cert_path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:4",
                     "--cocycle", path, "--degree", "2", "--out", str(cert_path))
    assert code == 0
    assert json.loads(cert_path.read_text())["b"]["values"][0]["matrix"] == [[2]]
    code, _, _ = run(capsys, "verify", str(cert_path))
    assert code == 0
    _mutate(cert_path, MATRIX, [[1]])
    code, _, err = run(capsys, "verify", str(cert_path))
    assert code == 1
    assert "certificate field b: images [(1,)] do not define a homomorphism" in err


# -- input files that are not objects --------------------------------------


NOT_OBJECTS = ["x", None, [], 5]


@pytest.mark.parametrize("value", NOT_OBJECTS)
def test_group_table_file_not_an_object_exit_1(capsys, tmp_path, value):
    path = write_json(tmp_path / "g.json", value)
    code, _, err = run(capsys, "group", "--table", path)
    assert code == 1
    assert f"group {value!r} is not a JSON object" in err


@pytest.mark.parametrize("value", NOT_OBJECTS)
def test_module_file_not_an_object_exit_1(capsys, tmp_path, value):
    path = write_json(tmp_path / "m.json", value)
    code, _, err = run(capsys, "cohomology", "--group", "cyclic:2", "--module", path,
                       "--degree", "2")
    assert code == 1
    assert f"module {value!r} is not a JSON object" in err


@pytest.mark.parametrize("value", NOT_OBJECTS)
def test_cochain_file_not_an_object_exit_1(capsys, tmp_path, value):
    path = write_json(tmp_path / "omega.json", value)
    code, _, err = run(capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
                       "--cocycle", path, "--degree", "2", "--out", str(tmp_path / "c.json"))
    assert code == 1
    assert f"cochain {value!r} is not a JSON object" in err


@pytest.mark.parametrize("argv, data, field", [
    (["group", "--table"], {"elements": ["e"]}, "group has no field 'table'"),
    (["cohomology", "--group", "cyclic:2", "--degree", "2", "--module"], {"action": {}},
     "module has no field 'factors'"),
    (["extend", "--group", "cyclic:2", "--module", "trivial:2", "--cocycle"], {"values": []},
     "cochain has no field 'degree'"),
])
def test_input_object_without_required_field_exit_1(capsys, tmp_path, argv, data, field):
    code, _, err = run(capsys, *argv, write_json(tmp_path / "in.json", data))
    assert code == 1
    assert field in err


def test_python_dash_m_groupcoh(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "groupcoh", "cohomology", "--group", "cyclic:2",
         "--module", "trivial:2", "--degree", "2"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "H^2 invariant factors: [2]" in proc.stdout
