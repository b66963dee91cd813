"""groupcoh benchmark: one workload per process, closed loop, one op at a time.

    python3 perfbench/run.py --workload cert-2048 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a checkout; it imports groupcoh from ``src/``
there.  A run sets up its seeded inputs several times (setup_s is the
median), then repeats rounds of the workload's ops while another round
still fits in ``--seconds``, always finishing at least one round.  Every
answer is checked, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: setup_s, wall_s (the median
round) and peak_rss_mb.  Times are in reference seconds, measured seconds
corrected for the machine's speed by perfbench/speed.py; the measured
seconds are printed too.  ``--trace 1`` runs one untraced round, installs
the tracer (perfbench/tracer.py) and reports the per-layer metrics as the
median over traced rounds, in measured seconds, plus trace.overhead_frac;
spans go to ``.perfbench_out/spans-<workload>-<seed>.jsonl``.

``--workload all`` runs every workload, untraced and then traced, each in
its own process and one after another, prints the tables and exits 1 if
any answer was wrong.  ``--record-golden`` rewrites perfbench/golden.json
from the current program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9

sys.path.insert(0, HERE)
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_import():
    """Import groupcoh from this checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "groupcoh" or n.startswith("groupcoh.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        groupcoh = importlib.import_module("groupcoh")
        importlib.import_module("groupcoh.cli")
    except ImportError as exc:
        fail(f"cannot import groupcoh from {SRC}: {exc}")
    if not os.path.abspath(groupcoh.__file__).startswith(SRC + os.sep):
        fail(f"groupcoh imported from {groupcoh.__file__}, not from {SRC}")
    return groupcoh


def run_op(op, probe):
    """Run one op; returns ((measured s, reference s), failure or None)."""
    if op.prepare is not None:
        op.prepare()
    mark = probe.mark()
    try:
        result = op.run()
    except Exception:  # an op that raises is a failed op, not a crash
        return probe.measure(mark), f"{op.name}: raised {traceback.format_exc(limit=3)}"
    times = probe.measure(mark)
    reason = op.check(result)
    return times, None if reason is None else f"{op.name}: {reason}"


def another_round_fits(start, last_round, seconds):
    """Whether a round as long as the last one still ends within seconds."""
    return time.perf_counter() - start + last_round <= seconds


def run_workload(args):
    os.environ.pop("COCYCLE_MAX_TUPLES", None)
    if not os.path.isdir(os.path.join(SRC, "groupcoh")):
        fail(f"no groupcoh sources under {SRC}")
    setup = workloads.WORKLOADS[args.workload]
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    # the traced run reports measured seconds: its probe is never started
    probe = speed.SpeedProbe()
    if not args.trace:
        probe.start()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(tmpdir, ignore_errors=True)
            mark = probe.mark()
            fresh_import()
            os.makedirs(tmpdir)
            ops = setup(random.Random(args.seed), tmpdir)
            setup_times.append(probe.measure(mark))
        if args.trace:
            traced(args, ops, probe)
        else:
            untraced(args, ops, setup_times, probe, tmpdir)
    finally:
        probe.stop()
        shutil.rmtree(tmpdir, ignore_errors=True)


def untraced(args, ops, setup_times, probe, tmpdir):
    start = time.perf_counter()
    rounds = []  # per round: list of (op, (measured s, reference s))
    failed = 0
    while True:
        t0 = time.perf_counter()
        rnd = []
        for op in ops:
            times, failure = run_op(op, probe)
            rnd.append((op, times))
            if failure:
                failed += 1
                print(f"FAILED {failure}", file=sys.stderr)
        rounds.append(rnd)
        if not another_round_fits(start, time.perf_counter() - t0, args.seconds):
            break
    attempted = len(ops) * len(rounds)

    def per_round(which, phase=None):
        return [sum(t[which] for op, t in rnd if phase in (None, op.phase)) for rnd in rounds]

    series = {
        "setup_s": [t[1] for t in setup_times],
        "wall_s": per_round(1),
        "raw_setup_s": [t[0] for t in setup_times],
        "raw_wall_s": per_round(0),
    }
    for phase, name in workloads.PHASES.items():
        values = per_round(1, phase)
        if any(values):
            series[name] = values
    medians = {k: statistics.median(v) for k, v in series.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cert_bytes = sum(os.path.getsize(os.path.join(tmpdir, f))
                     for f in os.listdir(tmpdir) if f.endswith(".cert.json"))

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} ops, {failed} failed; {len(probe.samples)} speed samples, "
          f"mean factor {probe.factor(0):.3f}")
    print(f"  {'metric':<14} {'median':>10} {'min':>10} {'max':>10}  n")
    for name, values in series.items():
        print(f"  {name:<14} {medians[name]:>10.4f} {min(values):>10.4f} "
              f"{max(values):>10.4f}  {len(values)}")
    print(f"  peak_rss_mb    {peak_rss_mb:>10.1f}")
    for op, (raw, ref) in rounds[0]:
        print(f"  op {op.name}: {raw:.4f} s measured, {ref:.4f} s reference (first round)")
    detail = dict(medians, rounds=len(rounds), cert_bytes=cert_bytes,
                  failed_frac=failed / attempted)
    print("detail " + json.dumps(detail, sort_keys=True))
    emit(failed, attempted, {
        "setup_s": (medians["setup_s"], "s"),
        "wall_s": (medians["wall_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    })


def traced(args, ops, probe):
    start = time.perf_counter()
    base_wall, failed = 0.0, 0
    for op in ops:
        (raw, _), failure = run_op(op, probe)
        base_wall += raw
        if failure:
            failed += 1
            print(f"FAILED {failure}", file=sys.stderr)
    tracer = tracing.Tracer()
    tracer.install()
    per_round, walls = [], []
    try:
        while True:
            lo = len(tracer.spans)
            wall = 0.0
            for op_id, op in enumerate(ops):
                tracer.op = op_id
                span = tracer.begin("op", {"op": op.name})
                (raw, _), failure = run_op(op, probe)
                tracer.end(span)
                wall += raw
                if failure:
                    failed += 1
                    print(f"FAILED {failure}", file=sys.stderr)
            tracer.op = None
            walls.append(wall)
            per_round.append(tracing.layer_metrics(tracer.spans, tracer.take_counts(), lo))
            if not another_round_fits(start, wall, args.seconds):
                break
    finally:
        tracer.uninstall()
    attempted = len(ops) * (1 + len(per_round))
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["trace.overhead_frac"] = statistics.median(walls) / base_wall - 1
    units = layer_units()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_jsonl(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(f"workload {args.workload}, seed {args.seed}: {len(per_round)} traced rounds, "
          f"{len(tracer.spans)} spans, {failed} failed")
    for name in sorted(metrics):
        print(f"  {name:<34} {metrics[name]:>16.6g} {units[name]}")
    emit(failed, attempted, {k: (v, units[k]) for k, v in metrics.items()})


def layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def emit(failed, attempted, metrics):
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


# -- every workload ----------------------------------------------------------


def run_all(args):
    names = list(workloads.WORKLOADS)
    results = {name: {} for name in names}
    ok = True
    env = {k: v for k, v in os.environ.items() if k != "COCYCLE_MAX_TUPLES"}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}) exited {proc.returncode}")
                ok = False
                continue
            metrics = json.loads(lines[-1])
            ok = ok and metrics["correct"]
            values = {k: v["value"] for k, v in metrics["metrics"].items()}
            for line in lines:
                if line.startswith("detail "):
                    values.update(json.loads(line[len("detail "):]))
            results[name][trace] = values

    def table(title, rows, trace):
        print(f"{title:<40}" + "".join(f"{n:>14}" for n in names))
        for metric, unit in rows:
            cells = ""
            for n in names:
                value = results[n].get(trace, {}).get(metric)
                cells += f"{'-':>14}" if value is None else f"{value:>14.6g}"
            print(f"{metric + ' [' + unit + ']':<40}" + cells)

    e2e = list(END_TO_END_UNITS.items()) + [(m, "s") for m in workloads.PHASES.values()]
    e2e += [("raw_setup_s", "s"), ("raw_wall_s", "s"), ("cert_bytes", "B"),
            ("failed_frac", "ratio")]
    table("end-to-end (untraced)", e2e, 0)
    print()
    table("per-layer (traced)", layer_units().items(), 1)
    return 0 if ok else 1


# -- golden certificates -----------------------------------------------------


def record_golden():
    os.environ.pop("COCYCLE_MAX_TUPLES", None)
    groupcoh = fresh_import()
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", f"golden-{os.getpid()}")
    os.makedirs(tmpdir)
    golden = {}
    try:
        for case in workloads.all_cert_variants(groupcoh):
            ops, cert_path = workloads.cert_ops(case, tmpdir, {})
            code, _, err = ops[0].run()
            if code != 0:
                fail(f"{case.key}: trivialize exit {code}: {err}")
            golden[case.key] = workloads.sha256_file(cert_path)
            print(f"{case.key} {golden[case.key]}")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    workloads.write_json(workloads.GOLDEN_PATH, golden)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
