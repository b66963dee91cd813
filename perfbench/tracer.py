"""Outside-in tracer for groupcoh: spans and counters recorded by wrapping
the calls into each ``groupcoh`` module from the benchmark's own files.

Nothing happens until :meth:`Tracer.install` is called; :meth:`uninstall`
puts every original binding back.  ``from .cochains import coboundary_value``
copies a binding into the importing module, so install patches every
``groupcoh.*`` namespace that binds a wrapped function, and patches class
attributes for methods.

Spans are kept in memory as ``[name, start, end, parent, op, attrs]`` and
written out by :meth:`Tracer.write_jsonl` when the run ends.  Hot leaves
(``coboundary_value``, ``GroupExtension.mul``, ``GModule`` arithmetic) get
bare counters instead of spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)

TRIVIALIZE_ROOTS = ("trivialize.torsion", "trivialize.general")
VERIFY_ROOT = "trivialize.verify"


# -- hooks that attach sizes to a span --------------------------------------


def _snf_attrs(args, kwargs, result):
    a = args[0]
    cells = len(a) * len(a[0]) if a else 0
    u, _, d, v, _ = result
    bits = 0
    for mat in (d, u, v):
        for row in mat:
            if row:
                bits = max(bits, max(map(abs, row)).bit_length())
    return {"cells": cells, "max_bits": bits}


def _matrix_attrs(args, kwargs, result):
    mat = result[0]
    return {"entries": len(mat) * len(mat[0]) if mat else 0}


def _extension_attrs(args, kwargs, result):
    return {"order": args[0].order}


def _lift_check_attrs(args, kwargs, result):
    return {"checked": result[2]["checked"]}


# (module, attribute, span name, attrs hook); "Class.method" patches the class.
SPANS = [
    ("groupcoh.intlinalg", "_snf_full", "intlinalg.snf", _snf_attrs),
    ("groupcoh.intlinalg", "solve_integer", "intlinalg.solve", None),
    ("groupcoh.intlinalg", "solve_with_moduli", "intlinalg.solve", None),
    ("groupcoh.intlinalg", "kernel_basis", "intlinalg.kernel", None),
    ("groupcoh.intlinalg", "cokernel_structure", "intlinalg.cokernel", None),
    ("groupcoh.cochains", "coboundary_matrix", "cochains.matrix", _matrix_attrs),
    ("groupcoh.cochains", "first_cocycle_defect", "cochains.cocycle_check", None),
    ("groupcoh.cochains", "coboundary", "cochains.coboundary", None),
    ("groupcoh.cochains", "averaging_homotopy", "cochains.averaging", None),
    ("groupcoh.cochains", "solve_coboundary", "cochains.solve", None),
    ("groupcoh.cochains", "cohomology", "cochains.cohomology", None),
    ("groupcoh.modules", "_validate_module", "modules.validate", None),
    ("groupcoh.modules", "HomModule.__init__", "modules.hom", None),
    ("groupcoh.modules", "invariants", "modules.invariants", None),
    ("groupcoh.modules", "torsion_submodule", "modules.torsion_split", None),
    ("groupcoh.groups", "group_from_table", "groups.validate", None),
    ("groupcoh.cup", "d2", "cup.d2", None),
    ("groupcoh.extensions", "GroupExtension.__init__", "extensions.build", _extension_attrs),
    ("groupcoh.extensions", "GroupExtension.inv", "extensions.inv", None),
    ("groupcoh.extensions", "lift_cochain", "extensions.lift", None),
    ("groupcoh.extensions", "restrict_cochain", "extensions.restrict", None),
    ("groupcoh.extensions", "kernel_view", "extensions.restrict", None),
    ("groupcoh.trivialize", "trivialize_torsion", "trivialize.torsion", None),
    ("groupcoh.trivialize", "trivialize_general", "trivialize.general", None),
    ("groupcoh.trivialize", "universal_kernel", "trivialize.kernel", None),
    ("groupcoh.trivialize", "build_witness", "trivialize.witness", None),
    ("groupcoh.trivialize", "closed_form_alpha", "trivialize.alpha", None),
    ("groupcoh.trivialize", "verify_lift_primitive", "trivialize.lift_check", _lift_check_attrs),
    ("groupcoh.trivialize", "_verify_degree2_indexed", "trivialize.indexed_sweep", None),
    ("groupcoh.trivialize", "verify_certificate", VERIFY_ROOT, None),
    ("groupcoh.trivialize", "_check_group_axioms", "trivialize.verify_axioms", None),
    ("groupcoh.trivialize", "_check_restriction", "trivialize.verify_restriction", None),
    ("groupcoh.trivialize", "save_certificate", "trivialize.save", None),
    ("groupcoh.trivialize", "certificate_from_json", "trivialize.load", None),
    ("groupcoh.cli", "main", "cli.main", None),
]

COUNTERS = [
    ("groupcoh.cochains", "coboundary_value", "cochains.delta_value.calls"),
    ("groupcoh.extensions", "GroupExtension.mul", "extensions.mul.calls"),
    ("groupcoh.modules", "GModule.add", "modules.elem_ops.calls"),
    ("groupcoh.modules", "GModule.neg", "modules.elem_ops.calls"),
    ("groupcoh.modules", "GModule.scale", "modules.elem_ops.calls"),
    ("groupcoh.modules", "GModule.act", "modules.elem_ops.calls"),
    ("groupcoh.modules", "GModule.reduce", "modules.elem_ops.calls"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = {}
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin(self, name, attrs=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, attrs])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def counter(self, name) -> list:
        return self.counters.setdefault(name, [0])

    def take_counts(self) -> dict:
        """Counter values since the last call, then reset to zero."""
        out = {}
        for name, cell in self.counters.items():
            out[name] = cell[0]
            cell[0] = 0
        return out

    def _span_wrapper(self, fn, name, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), None, parent, tracer.op, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                # the hook's own cost is a child span, so it never counts as
                # the wrapped layer's self time
                spans.append(["trace.hook", rec[END], None, idx, tracer.op, None])
                rec[ATTRS] = hook(args, kwargs, result)
                rec[END] = spans[-1][END] = clock()
            return result

        return wrapper

    @staticmethod
    def _count_wrapper(fn, cell):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import groupcoh  # noqa: F401  (makes every submodule importable below)
        import groupcoh.cli  # noqa: F401

        for mod, attr, name, hook in SPANS:
            self._patch(mod, attr, lambda fn, n=name, h=hook: self._span_wrapper(fn, n, h))
        for mod, attr, name in COUNTERS:
            cell = self.counter(name)
            self._patch(mod, attr, lambda fn, c=cell: self._count_wrapper(fn, c))

    def _patch(self, modname, attr, make):
        owner = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "groupcoh" or name.startswith("groupcoh.")):
                continue
            space = vars(module)
            for key, value in list(space.items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


# -- analysis ----------------------------------------------------------------


def self_times(spans, lo=0, hi=None) -> list:
    """Self time of each span in spans[lo:hi]: its duration minus the part
    of its interval covered by the union of its children's intervals."""
    hi = len(spans) if hi is None else hi
    children = {}
    for idx in range(lo, hi):
        parent = spans[idx][PARENT]
        if parent >= lo:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx in range(lo, hi):
        start, end = spans[idx][START], spans[idx][END]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(idx, ()), key=lambda k: spans[k][START]):
            a, b = max(spans[c][START], start), min(spans[c][END], end)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _ancestor(spans, idx, names, lo):
    """Name of the nearest ancestor of spans[idx] whose name is in names."""
    parent = spans[idx][PARENT]
    while parent >= lo:
        if spans[parent][NAME] in names:
            return spans[parent][NAME]
        parent = spans[parent][PARENT]
    return None


SELF_TIME_METRICS = {
    "intlinalg.snf.s": "intlinalg.snf",
    "cochains.matrix.s": "cochains.matrix",
    "cochains.cocycle_check.s": "cochains.cocycle_check",
    "cochains.coboundary.s": "cochains.coboundary",
    "cochains.averaging.s": "cochains.averaging",
    "modules.validate.s": "modules.validate",
    "modules.hom.s": "modules.hom",
    "modules.invariants.s": "modules.invariants",
    "modules.torsion_split.s": "modules.torsion_split",
    "groups.validate.s": "groups.validate",
    "cup.d2.s": "cup.d2",
    "extensions.build.s": "extensions.build",
    "extensions.inv.s": "extensions.inv",
    "extensions.lift.s": "extensions.lift",
    "extensions.restrict.s": "extensions.restrict",
    "trivialize.kernel.s": "trivialize.kernel",
    "trivialize.witness.s": "trivialize.witness",
    "trivialize.alpha.s": "trivialize.alpha",
    "trivialize.indexed_sweep.s": "trivialize.indexed_sweep",
    "trivialize.save.s": "trivialize.save",
    "trivialize.load.s": "trivialize.load",
    "trivialize.verify_axioms.s": "trivialize.verify_axioms",
    "trivialize.verify_restriction.s": "trivialize.verify_restriction",
    "cli.main.s": "cli.main",
}

CALL_METRICS = {
    "intlinalg.snf.calls": "intlinalg.snf",
    "intlinalg.kernel.calls": "intlinalg.kernel",
    "intlinalg.cokernel.calls": "intlinalg.cokernel",
    "cochains.cocycle_check.calls": "cochains.cocycle_check",
    "cup.d2.calls": "cup.d2",
    "extensions.build.calls": "extensions.build",
    "cli.main.calls": "cli.main",
}

COUNTER_METRICS = sorted({name for _, _, name in COUNTERS})

# the verifier's own trivialize.* spans; a cocycle or d2 check whose nearest
# such ancestor is the verify root belongs to verify_cocycles
_VERIFY_SCOPES = (VERIFY_ROOT, "trivialize.verify_axioms", "trivialize.verify_restriction",
                  "trivialize.lift_check") + TRIVIALIZE_ROOTS


def layer_metrics(spans, counts, lo=0, hi=None) -> dict:
    """Per-layer metrics of spans[lo:hi] plus the counter values counts."""
    hi = len(spans) if hi is None else hi
    selfs = self_times(spans, lo, hi)
    out = {m: 0.0 for m in SELF_TIME_METRICS}
    out.update({m: 0 for m in CALL_METRICS})
    by_name_self = {}
    by_name_calls = {}
    for off, idx in enumerate(range(lo, hi)):
        name = spans[idx][NAME]
        by_name_self[name] = by_name_self.get(name, 0.0) + selfs[off]
        by_name_calls[name] = by_name_calls.get(name, 0) + 1
    for metric, name in SELF_TIME_METRICS.items():
        out[metric] = by_name_self.get(name, 0.0)
    for metric, name in CALL_METRICS.items():
        out[metric] = by_name_calls.get(name, 0)

    snf_cells = snf_bits = matrix_entries = gamma_max = 0
    solve_calls = fallback_calls = tuples_checked = 0
    check_s = verify_alpha_s = verify_cocycles_s = 0.0
    verify_tuples = 0
    verify_alpha_wall = 0.0
    for off, idx in enumerate(range(lo, hi)):
        name, start, end, parent, _, attrs = spans[idx]
        if name == "intlinalg.snf":
            snf_cells += attrs["cells"]
            snf_bits = max(snf_bits, attrs["max_bits"])
        elif name == "intlinalg.solve":
            if parent < lo or spans[parent][NAME] != "intlinalg.solve":
                solve_calls += 1
        elif name == "cochains.matrix":
            matrix_entries += attrs["entries"]
        elif name == "extensions.build":
            gamma_max = max(gamma_max, attrs["order"])
        elif name == "cochains.solve":
            if _ancestor(spans, idx, TRIVIALIZE_ROOTS, lo):
                fallback_calls += 1
        elif name == "trivialize.lift_check":
            tuples_checked += attrs["checked"]
            if _ancestor(spans, idx, TRIVIALIZE_ROOTS, lo):
                check_s += selfs[off]
            else:
                verify_alpha_s += selfs[off]
                verify_tuples += attrs["checked"]
                verify_alpha_wall += end - start
        elif name in ("cochains.cocycle_check", "cup.d2"):
            if _ancestor(spans, idx, _VERIFY_SCOPES, lo) == VERIFY_ROOT:
                verify_cocycles_s += end - start
    out.update({
        "intlinalg.snf.cells": snf_cells,
        "intlinalg.snf.max_bits": snf_bits,
        "intlinalg.solve.calls": solve_calls,
        "cochains.matrix.entries": matrix_entries,
        "extensions.gamma_max": gamma_max,
        "trivialize.check.s": check_s,
        "trivialize.fallback.calls": fallback_calls,
        "trivialize.tuples_checked": tuples_checked,
        "trivialize.verify_alpha.s": verify_alpha_s,
        "trivialize.verify_cocycles.s": verify_cocycles_s,
        "trivialize.verify_tuples_per_s": (verify_tuples / verify_alpha_wall
                                           if verify_alpha_wall else 0.0),
    })
    for name in COUNTER_METRICS:
        out[name] = counts.get(name, 0)
    return out
