"""The one JSON writer: `cochains.write_json` emits the bytes of
json.dump(value, fh, sort_keys=True, indent=1), and certificates are
streamed through it entry by entry."""

import ast
import io
import json
import pathlib

import pytest

from groupcoh import (
    Cochain,
    builtin_group,
    certificate_to_json,
    cochain_from_function,
    cochain_to_json,
    cyclic_group,
    group_to_json,
    trivial_module,
    trivialize_general,
    trivialize_torsion,
    zero_cochain,
)
from groupcoh.cli import main
from groupcoh.cochains import write_json
from groupcoh.groups import group_from_table
from groupcoh.trivialize import save_certificate

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "groupcoh"


def dumped(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1)


def written(value, ind="\n") -> str:
    buf = io.StringIO()
    write_json(buf.write, value, ind)
    return buf.getvalue()


def odd_labels_c3():
    """C3 whose labels hold a quote, a backslash and non-ASCII characters."""
    return group_from_table(cyclic_group(3).table, ["e", 'a"b', "c\\d;ü☃"])


def c2_degree(n):
    g = cyclic_group(2)
    return Cochain(g, trivial_module(g, [2]), n, {(1,) * n: (1,)})


@pytest.fixture(scope="module")
def certs():
    g3 = odd_labels_c3()
    carry = cochain_from_function(g3, trivial_module(g3, [3]), 2,
                                  lambda t: ((t[0] + t[1]) // 3,))
    z = cyclic_group(2)
    integral = Cochain(z, trivial_module(z, [0]), 4, {(1, 1, 1, 1): (1,)})
    return {
        "full": trivialize_torsion(c2_degree(3)),
        "partial": trivialize_torsion(c2_degree(3), max_entries=5),
        "sampled": trivialize_torsion(c2_degree(3), max_entries=10, sample_size=50),
        "general": trivialize_general(integral),
        "general-zero": trivialize_general(zero_cochain(z, trivial_module(z, [0]), 4)),
        "degree-2": trivialize_torsion(c2_degree(2)),
        "odd-labels": trivialize_torsion(carry),
    }


def test_the_cases_cover_what_they_name(certs):
    assert sorted(certs) == CERT_NAMES
    assert certs["partial"].partial
    assert certs["sampled"].verification["mode"] == "sampled"
    assert certs["general"].mode == "general"
    assert "group" not in certificate_to_json(certs["general"])["stages"]["stage1"]["input"]
    assert certificate_to_json(certs["degree-2"])["b"]["values"][0]["tuple"] == []
    assert certificate_to_json(certs["general-zero"])["input"]["omega"]["values"] == []


CERT_NAMES = ["degree-2", "full", "general", "general-zero", "odd-labels", "partial", "sampled"]


@pytest.mark.parametrize("name", CERT_NAMES)
def test_saved_certificate_is_json_dump_of_certificate_to_json(certs, name, tmp_path):
    cert = certs[name]
    path = tmp_path / "cert.json"
    save_certificate(cert, str(path))
    assert path.read_bytes() == (dumped(certificate_to_json(cert)) + "\n").encode("ascii")


def test_odd_labels_are_escaped_as_json_escapes_them(certs, tmp_path):
    path = tmp_path / "cert.json"
    save_certificate(certs["odd-labels"], str(path))
    text = path.read_text()
    # G's labels in the action and in omega, Gamma's in alpha
    assert '"a\\"b"' in text and '"c\\\\d;\\u00fc\\u2603"' in text
    assert ';a\\"b)"' in text and ';c\\\\d;\\u00fc\\u2603)"' in text


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_zero_cochain_writes_empty_values(degree):
    g = cyclic_group(3)
    f = zero_cochain(g, trivial_module(g, [3]), degree)
    assert written(f) == dumped(cochain_to_json(f))
    assert written(f).endswith('"values": []\n}')


@pytest.mark.parametrize("value", [
    {}, [], "", 0, -7, 10**30, True, False, None, 1.5, float("inf"),
    {"b": [1, [2, []], {}], "a": {"z": None, "y": [True, -1.25, "é\"\\\n"]}},
    [[1, 2], [3], [], [{"k": "v"}]],
    (1, (2, 3)),
])
def test_plain_values_match_json_dumps(value):
    assert written(value) == dumped(value)


def test_indentation_continues_from_ind():
    value = {"a": [1, {"b": []}], "c": "d"}
    assert written(value, "\n   ") == dumped(value).replace("\n", "\n   ")


def test_cochain_is_streamed_in_chunks():
    g = cyclic_group(9)
    f = cochain_from_function(g, trivial_module(g, [9, 3]), 4,
                              lambda t: (t[0] * t[1] + t[2] * t[3], t[0] - t[3]))
    assert len(f.values) > 3000
    writes = []
    write_json(writes.append, f)
    text = "".join(writes)
    assert text == dumped(cochain_to_json(f))
    assert max(map(len, writes)) < len(text) / 8


def test_no_json_call_in_the_package_takes_indent():
    calls = []
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("dump", "dumps")
                    and any(kw.arg == "indent" for kw in node.keywords)):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


# -- every file the CLI writes ----------------------------------------------


def redumped(path) -> bytes:
    """The bytes json.dump(..., sort_keys=True, indent=1) + newline gives
    for the value the file holds."""
    return (dumped(json.loads(path.read_text())) + "\n").encode("ascii")


def cochain_file(tmp_path, name, f):
    path = tmp_path / name
    path.write_text(json.dumps(cochain_to_json(f)))
    return str(path)


def test_cli_out_files_are_json_dump_bytes(tmp_path, capsys):
    omega = cochain_file(tmp_path, "omega.json", c2_degree(2))
    outs = {name: tmp_path / f"{name}.json" for name in ("group", "cup", "extend", "cert", "d2")}
    assert main(["group", "--builtin", "symmetric:3", "--out", str(outs["group"])]) == 0
    assert main(["cup", "--group", "cyclic:2", "--left-module", "trivial:2",
                 "--right-module", "trivial:2", "--left", omega, "--right", omega,
                 "--out", str(outs["cup"])]) == 0
    assert main(["extend", "--group", "cyclic:2", "--module", "trivial:2",
                 "--cocycle", omega, "--out", str(outs["extend"])]) == 0
    assert main(["trivialize", "--group", "cyclic:2", "--module", "trivial:2",
                 "--cocycle", omega, "--degree", "2", "--out", str(outs["cert"])]) == 0
    cert = json.loads(outs["cert"].read_text())
    parts = {}
    for key in ("kernel", "c", "b"):
        parts[key] = tmp_path / f"{key}.json"
        parts[key].write_text(json.dumps(cert[key]))
    assert main(["d2", "--group", "cyclic:2", "--module", "trivial:2",
                 "--kernel", str(parts["kernel"]), "--witness", str(parts["b"]),
                 "--cocycle", str(parts["c"]), "--out", str(outs["d2"])]) == 0
    capsys.readouterr()
    for name, path in outs.items():
        assert path.read_bytes() == redumped(path), name
    assert outs["group"].read_bytes() == (dumped(group_to_json(builtin_group("symmetric:3")))
                                          + "\n").encode("ascii")


def test_group_json_stdout_is_json_dumps(capsys):
    assert main(["group", "--builtin", "dihedral:4", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == dumped(json.loads(out)) + "\n"
