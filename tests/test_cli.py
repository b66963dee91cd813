import json

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
from groupcoh.cochains import cochain_from_json
from groupcoh.modules import GModule


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


def test_cohomology_resource_limit_exit_3(capsys):
    code, _, err = run(
        capsys, "cohomology", "--group", "symmetric:4",
        "--module", "trivial:2", "--degree", "3", "--max-entries", "100",
    )
    assert code == 3


def test_memory_error_exit_3(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_cohomology", exhausted)
    code, _, err = run(
        capsys, "cohomology", "--group", "cyclic:2", "--module", "trivial:2", "--degree", "1",
    )
    assert code == 3
    assert err == "error: cohomology ran out of memory (MemoryError)\n"


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


def test_threads_flag_does_not_change_output(capsys, tmp_path):
    cocycle = z2_cocycle_file(tmp_path)
    p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
    run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", cocycle, "--degree", "2", "--out", str(p1),
    )
    run(
        capsys, "trivialize", "--group", "cyclic:2", "--module", "trivial:2",
        "--cocycle", cocycle, "--degree", "2", "--threads", "4", "--out", str(p2),
    )
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
