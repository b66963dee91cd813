"""Command-line front end.

Commands: group, cohomology, cup, d2, extend, trivialize, verify.

Exit codes:
  0  success
  1  usage error (bad flags, missing/inconsistent inputs)
  2  group validation failure (identity/inverse/associativity witness)
  3  resource limit exceeded (override with --max-entries or COCYCLE_MAX_TUPLES)
     or out of memory
  4  cocycle or compatibility failure (NotACocycle, mismatched inputs,
     an infinite kernel)
  5  non-torsion value in torsion mode
  6  degree too low for the requested driver
  7  certificate verification failure

All randomness flows from the --seed of trivialize and verify (default 0)
and is recorded in outputs; identical inputs and seed produce
byte-identical files.

The argument parser is built once per process, on the first call of main,
and reused by every later call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cochains import cochain_from_json, cochain_to_json, cohomology, load_cochain, write_json
from .cup import cup, d2
from .errors import (
    ActionBreaksRelations,
    ActionNotHomomorphic,
    BadIdentityAction,
    DegreeMismatch,
    DegreeTooLow,
    GroupMismatch,
    KernelNotFinite,
    NoIdentity,
    NoInverse,
    NonTorsionValue,
    NotACocycle,
    NotAssociative,
    PairingMismatch,
    ResourceLimit,
    SourceNotTorsion,
    UnknownFamily,
    WitnessedError,
)
from .extensions import build_extension, extension_to_json
from .groups import builtin_group, group_from_json, group_to_json, json_object, load_group
from .modules import HomModule, module_from_json, trivial_module
from .trivialize import (
    _witness_from_json,
    load_certificate,
    save_certificate,
    trivialize_general,
    trivialize_torsion,
    verify_certificate,
)

_GROUP_ERRORS = (NoIdentity, NoInverse, NotAssociative, UnknownFamily)
_MODULE_ERRORS = (BadIdentityAction, ActionNotHomomorphic, ActionBreaksRelations)
_MISMATCH_ERRORS = (
    NotACocycle, GroupMismatch, PairingMismatch, DegreeMismatch, KernelNotFinite,
    SourceNotTorsion,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _describe(exc: Exception) -> str:
    if isinstance(exc, WitnessedError) and exc.witness is not None:
        return f"{exc} [witness: {exc.witness}]"
    return str(exc)


def _load_group_arg(spec: str):
    if os.path.exists(spec):
        return load_group(spec)
    return builtin_group(spec)


def _load_module_arg(spec: str, group):
    """A module is either a JSON file or an inline "trivial:d1,d2,..."
    spec (0 denotes a free Z factor).  A file read over group may embed
    a `group` of its own only when that group has the same table."""
    if os.path.exists(spec):
        with open(spec) as fh:
            data = json_object(json.load(fh), "module")
        if "group" in data:
            table = group_from_json(data["group"]).table
            if table != group.table:
                raise ValueError(
                    f"module field 'group' holds a {len(table)}-element table that is not "
                    f"the table of --group ({group.order} elements)")
        return module_from_json(data, group)
    if spec.startswith("trivial:"):
        try:
            factors = [int(x) for x in spec[len("trivial:"):].split(",") if x != ""]
        except ValueError:
            raise UnknownFamily(f"bad trivial-module spec {spec!r}")
        return trivial_module(group, factors)
    raise UnknownFamily(f"module spec {spec!r} is neither a file nor trivial:...")


def _natural(text: str) -> int:
    """A --max-entries or --seed value: an integer >= 0 (a certificate's
    verification.seed must be one, and random.Random(-s) draws what
    random.Random(s) does anyway)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"invalid value {text!r}: expected an integer >= 0")
    return value


def _write_json(data, path):
    with open(path, "w") as fh:
        write_json(fh.write, data)
        fh.write("\n")


# -- commands --------------------------------------------------------------


def cmd_group(args) -> int:
    if args.table:
        group = load_group(args.table)
    else:
        group = builtin_group(args.builtin)
    orders = [group.element_order(i) for i in range(group.order)]
    if args.json:
        out = group_to_json(group)
        out["abelian"] = group.is_abelian
        out["element_orders"] = orders
        write_json(sys.stdout.write, out)
        print()
    else:
        print(f"order: {group.order}")
        if group.is_abelian:
            print("abelian: yes")
        else:
            i, j = group.noncommuting_pair()
            print(f"abelian: no ({group.elements[i]} and {group.elements[j]} do not commute)")
        print("element orders:", " ".join(map(str, orders)))
    if args.out:
        _write_json(group_to_json(group), args.out)
    return 0


def cmd_cohomology(args) -> int:
    group = _load_group_arg(args.group)
    module = _load_module_arg(args.module, group)
    factors = cohomology(group, module, args.degree, args.max_entries)
    if args.json:
        print(json.dumps({"degree": args.degree, "factors": factors}, sort_keys=True))
    else:
        print(f"H^{args.degree} invariant factors: {factors}")
    return 0


def cmd_cup(args) -> int:
    group = _load_group_arg(args.group)
    left_mod = _load_module_arg(args.left_module, group)
    right_mod = _load_module_arg(args.right_module, group)
    left = load_cochain(args.left, group, left_mod)
    right = load_cochain(args.right, group, right_mod)
    result, tensor = cup(left, right, args.max_entries)
    data = cochain_to_json(result)
    data["factors"] = list(tensor.factors)
    if args.out:
        _write_json(data, args.out)
    print(f"cup product: degree {result.degree}, support {len(result.values)}, "
          f"coefficients {list(tensor.factors)}")
    return 0


def cmd_d2(args) -> int:
    group = _load_group_arg(args.group)
    module = _load_module_arg(args.module, group)
    kernel = _load_module_arg(args.kernel, group)
    c = load_cochain(args.cocycle, group, kernel)
    hom = HomModule(kernel, module)
    with open(args.witness) as fh:
        b = _witness_from_json(json.load(fh), group, hom)
    result = d2(b, c, args.max_entries)
    if args.out:
        _write_json(result, args.out)
    print(f"d2: degree {result.degree}, support {len(result.values)}")
    return 0


def cmd_extend(args) -> int:
    group = _load_group_arg(args.group)
    kernel = _load_module_arg(args.module, group)
    c = load_cochain(args.cocycle, group, kernel)
    ext = build_extension(kernel, c, args.max_entries)
    if args.out:
        _write_json(extension_to_json(ext), args.out)
    print(f"extension order: {ext.order} (kernel {len(ext.kernel_elements)}, "
          f"base {group.order})")
    return 0


def cmd_trivialize(args) -> int:
    group = _load_group_arg(args.group)
    module = _load_module_arg(args.module, group)
    with open(args.cocycle) as fh:
        data = json_object(json.load(fh), "cochain", ("degree",))
    if data["degree"] != args.degree:
        return _fail(1, f"--degree {args.degree} does not match cocycle file "
                        f"degree {data['degree']}")
    omega = cochain_from_json(data, group, module)
    if args.mode == "torsion":
        cert = trivialize_torsion(omega, args.max_entries, args.seed)
    else:
        cert = trivialize_general(omega, args.max_entries, args.seed)
    save_certificate(cert, args.out)
    if cert.mode == "torsion":
        print(f"N: {cert.exponent}")
    total = cert.total_order()
    print(f"gamma order: {total if total is not None else 'not constructed'}")
    if cert.partial:
        print("status: partial (no primitive; witness pair only)")
    else:
        print(f"verification: {cert.verification['mode']} "
              f"({cert.verification['checked']} tuples, seed {cert.verification['seed']})")
        print("status: pass")
    print(f"certificate: {args.out}")
    return 0


def cmd_verify(args) -> int:
    cert = load_certificate(args.certificate, args.max_entries)
    report = verify_certificate(cert, args.max_entries, args.seed)
    for line in report.lines():
        print(line)
    if report.ok(allow_partial=args.allow_partial):
        print("verdict: pass" + (" (partial allowed)" if cert.partial else ""))
        return 0
    print("verdict: FAIL", file=sys.stderr)
    return 7


# -- wiring ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="groupcoh", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--max-entries", type=_natural, default=None,
                       help="resource limit override, >= 0 (also COCYCLE_MAX_TUPLES)")

    def seeded(p):
        common(p)
        p.add_argument("--seed", type=_natural, default=0,
                       help="seed for sampled verification, >= 0 (default 0)")

    p = sub.add_parser("group", help="build/validate a finite group")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", help="family spec, e.g. cyclic:4 or cyclic:2*cyclic:2")
    src.add_argument("--table", help="JSON multiplication-table file")
    p.add_argument("--out", help="write normalized group JSON here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cohomology", help="invariant factors of H^n(G; M)")
    p.add_argument("--group", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--json", action="store_true")
    common(p)

    p = sub.add_parser("cup", help="cup product of two cochains")
    p.add_argument("--group", required=True)
    p.add_argument("--left-module", required=True)
    p.add_argument("--right-module", required=True)
    p.add_argument("--left", required=True, help="left cochain JSON file")
    p.add_argument("--right", required=True, help="right cochain JSON file")
    p.add_argument("--out")
    common(p)

    p = sub.add_parser("d2", help="apply the witness differential to (b, c)")
    p.add_argument("--group", required=True)
    p.add_argument("--module", required=True, help="coefficient module M")
    p.add_argument("--kernel", required=True, help="kernel module A")
    p.add_argument("--witness", required=True, help="b as JSON (matrices per tuple)")
    p.add_argument("--cocycle", required=True, help="2-cocycle c JSON file")
    p.add_argument("--out")
    common(p)

    p = sub.add_parser("extend", help="build the extension of a 2-cocycle")
    p.add_argument("--group", required=True)
    p.add_argument("--module", required=True, help="kernel module A")
    p.add_argument("--cocycle", required=True)
    p.add_argument("--out")
    common(p)

    p = sub.add_parser("trivialize", help="trivialize a cocycle in an extension")
    p.add_argument("--group", required=True)
    p.add_argument("--module", required=True)
    p.add_argument("--cocycle", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mode", choices=["torsion", "general"], default="torsion")
    p.add_argument("--out", required=True, help="certificate output path")
    seeded(p)

    p = sub.add_parser("verify", help="independently re-check a certificate")
    p.add_argument("certificate")
    p.add_argument("--allow-partial", action="store_true",
                   help="exit 0 even when the primitive is absent")
    seeded(p)

    return parser


_PARSER = None


def main(argv=None) -> int:
    """Run one command.  The parser is built on the first call and reused;
    parsing never changes it.  cmd_<command> is looked up when the command
    runs, not bound into the parser, so a replaced cmd_* takes effect."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except _GROUP_ERRORS as exc:
        return _fail(2, _describe(exc))
    except _MODULE_ERRORS as exc:
        return _fail(2, _describe(exc))
    except ResourceLimit as exc:
        return _fail(3, _describe(exc))
    except MemoryError:
        return _fail(3, f"{args.command} ran out of memory (MemoryError)")
    except _MISMATCH_ERRORS as exc:
        return _fail(4, _describe(exc))
    except NonTorsionValue as exc:
        return _fail(5, _describe(exc))
    except DegreeTooLow as exc:
        return _fail(6, _describe(exc))
    except FileNotFoundError as exc:
        return _fail(1, str(exc))
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        return _fail(1, f"bad input: {exc}")


if __name__ == "__main__":
    sys.exit(main())
