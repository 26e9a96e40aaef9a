#!/usr/bin/env python3
"""parasched benchmark: closed-loop task-set throughput, end to end and per
layer.

    python3 perfbench/run.py --workload sweep-desk --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --pin      # re-pin the default-seed records

One process, no threads: the caller starts the next task set only after
the previous one completes.  The loop runs ops until their summed time, at
the reference speed (see Speed), reaches --seconds, at least MIN_OPS ops
are done and the last round of inputs is complete.  Each op's output is checked
against the properties the tests assert and, for the default seed, against
the records pinned in pins.json.  With --trace 0 the last stdout line holds
the end-to-end metrics of BENCHMARK.json; with --trace 1 each op runs twice,
untraced and traced, and the line holds the per-layer metrics.  A result
file (manifest, metrics, per-op records, failures) and, when traced, the
spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from spans import LAYERS, Tracer, omega_only_waste, summarize_spans
from workloads import METHODS, ROUND, WORKLOADS, matches_pin, record_key

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"
DEFAULT_SEED = 1
MIN_OPS = 12      # also the ops that counts and the printed digest cover
SETUPS = 3        # set-ups per run; setup_s is their median
# Time of reference_kernel() in the slower of the two speeds the machine
# the benchmark was defined on alternates between (2 vCPUs, x86_64 at
# 2.0 GHz, CPython 3.11.7; about 2 ms in the faster).  Times are scaled to
# it; see Speed.
REFERENCE_S = 0.003
REFERENCE_SHARE = 0.05   # kernel time after each op, as a share of the op
WALL_SHARE = 1.25        # a run's loop ends by this many times --seconds

STAGES = ("timing_diagram", "build_segments", "segment_workload",
          "distribute_laxity", "reassemble", "dbf_and_load")


def use_sources() -> bool:
    """Put the checkout's src/ on the import path; False when it has no
    parasched sources."""
    if not (SRC / "parasched" / "__init__.py").is_file():
        print(f"perfbench: no parasched sources under {SRC}",
              file=sys.stderr)
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def import_parasched():
    """A fresh import of the package; returns the layer modules."""
    for name in [n for n in sys.modules
                 if n == "parasched" or n.startswith("parasched.")]:
        del sys.modules[name]
    importlib.import_module("parasched")
    return {layer: importlib.import_module(f"parasched.{layer}")
            for layer in LAYERS}


def set_up(wl, seed, workdir, speed):
    """Import, input generation and one warm-up op, SETUPS times; the last
    set-up's modules and inputs are the ones measured.  Returns the set-up
    times, raw and at the reference speed."""
    raw = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        modules = import_parasched()
        ps = SimpleNamespace(**modules)
        items = wl.setup(ps, seed, workdir)
        wl.op(ps, items[0])
        raw.append((t0, time.perf_counter() - t0))
        speed.sample(REFERENCE_SHARE * raw[-1][1])
    scaled = [s * speed.scale_at(t0, t0 + s) for t0, s in raw]
    return modules, ps, items, [s for _, s in raw], scaled


def reference_kernel():
    """Fixed pure-Python work shaped like parasched's: Fraction arithmetic,
    dict updates, a sort.  It imports nothing from parasched, so no change
    to the program moves it."""
    acc, table = Fraction(0), {}
    for i in range(1, 300):
        acc += Fraction(i, i % 7 + 1) * Fraction(1, i)
        table[i % 13] = max(table.get(i % 13, acc), acc)
    return sorted(table.values())


class Speed:
    """The machine's speed during a run, from the reference kernel timed
    between ops.

    The shared machine's speed drifts by a quarter or more within a minute,
    and CPU time drifts with it.  Each op's time is multiplied by
    REFERENCE_S / (the kernel's mean time within WINDOW_S of the op), which
    takes out the drift the kernel sees; raw times are kept in the result
    file.  The kernel runs with the cyclic collector off, so the program's
    heap does not slow it."""

    WINDOW_S = 1.0

    def __init__(self):
        reference_kernel()
        self.times = []         # start of each kernel call
        self.samples = []       # its duration

    def sample(self, budget):
        gc.disable()
        try:
            spent = 0.0
            while spent < budget:
                t0 = time.perf_counter()
                reference_kernel()
                self.times.append(t0)
                self.samples.append(time.perf_counter() - t0)
                spent += self.samples[-1]
        finally:
            gc.enable()

    @property
    def scale(self):
        """For the whole run."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def scale_at(self, start, end):
        """For an op that ran from start to end."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        near = self.samples[lo:hi]
        return REFERENCE_S / statistics.fmean(near) if near else self.scale


class Run:
    """Ops, their checks and their timings for one run."""

    def __init__(self, wl, ps, items, pins):
        self.wl, self.ps, self.items, self.pins = wl, ps, items, pins
        self.ops = []           # one dict per op executed
        self.records = {}       # op index -> record of its checked output

    def execute(self, index, runner, traced):
        item = self.items[index % len(self.items)]
        t0 = time.perf_counter()
        try:
            out, seconds = runner(item)
        except Exception:
            seconds = time.perf_counter() - t0
            self._fail(index, item, traced, t0, seconds,
                       ["raised " + traceback.format_exc(limit=-1)
                        .strip().splitlines()[-1]], None)
            return seconds
        full = index < self.wl.full_checks
        try:
            record, problems = self.wl.check(self.ps, item, out, full)
        except Exception:
            record, problems = None, ["check raised " + traceback
                                      .format_exc(limit=-1).strip()
                                      .splitlines()[-1]]
        if record is not None and self.pins is not None:
            pinned = self.pins[index % len(self.pins)]
            if not matches_pin(pinned, record):
                problems.append(f"record {record_key(record)} differs from "
                                f"pinned {pinned}")
        if problems:
            self._fail(index, item, traced, t0, seconds, problems, record)
        else:
            self.ops.append({"op": index, "traced": traced, "t": t0,
                             "s": seconds, "ok": True,
                             "key": record_key(record)})
            self.records.setdefault(index, record)
        return seconds

    def _fail(self, index, item, traced, t0, seconds, problems, record):
        self.ops.append({
            "op": index, "traced": traced, "t": t0, "s": seconds,
            "ok": False,
            "key": record and record_key(record), "problems": problems,
            "set": {"item": item.index, "bucket": str(item.bucket),
                    "seed": item.seed, "path": item.path}})

    @property
    def failures(self):
        return [o for o in self.ops if not o["ok"]]

    def digest(self):
        """sha256 over the keys of the first MIN_OPS ops' records."""
        keys = [record_key(self.records[i]) for i in range(MIN_OPS)
                if i in self.records]
        return hashlib.sha256("\n".join(keys).encode()).hexdigest(), \
            len(keys)


def untraced(wl, ps):
    def runner(item):
        t0 = time.perf_counter()
        out = wl.op(ps, item)
        return out, time.perf_counter() - t0
    return runner


def more(index, spent, started, seconds):
    """Whether the loop goes on: until `seconds` are spent (or, on a slow
    machine, WALL_SHARE x `seconds` of wall time), MIN_OPS ops are done,
    and the last round of inputs is complete, so every run weighs the
    utilization buckets alike."""
    wall = time.perf_counter() - started
    return (spent < seconds and wall < WALL_SHARE * seconds) \
        or index < MIN_OPS or index % ROUND


def measure(run, seconds, speed):
    """The loop counts op time at the reference speed, so a slow phase of
    the machine does not change how many ops a run holds."""
    runner = untraced(run.wl, run.ps)
    spent, index, started = 0.0, 0, time.perf_counter()
    while more(index, spent, started, seconds):
        t0 = time.perf_counter()
        op_s = run.execute(index, runner, False)
        speed.sample(REFERENCE_SHARE * op_s)
        spent += op_s * speed.scale_at(t0, t0 + op_s)
        index += 1
    return spent


def measure_traced(run, tracer, seconds, speed):
    """Each op runs untraced and traced, alternating which goes first."""
    plain = untraced(run.wl, run.ps)

    def traced(item):
        return tracer.run_op(index, run.wl.op, run.ps, item)

    spent, index, started = 0.0, 0, time.perf_counter()
    while more(index, spent, started, seconds):
        pair = [(plain, False), (traced, True)]
        for runner, is_traced in pair if index % 2 == 0 else pair[::-1]:
            op_s = run.execute(index, runner, is_traced)
            speed.sample(REFERENCE_SHARE * op_s)
            spent += op_s
        index += 1
    return spent


def tail(values, pct):
    """The pct-th percentile (linear between order statistics) and the
    number of samples above it."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, sum(v > value for v in ordered)


def end_to_end(run, setup_raw, setup_scaled, speed):
    """The metrics, from times scaled to the reference speed; the raw
    figures go to the notes."""
    def figures(times, setup):
        return {"sets_per_s": ok / sum(times),
                "set_ms_p50": 1000 * statistics.median(times),
                "set_ms_tail": 1000 * tail(times, run.wl.tail_pct)[0],
                "setup_s": statistics.median(setup)}

    ok = sum(o["ok"] for o in run.ops)
    for o in run.ops:
        o["scaled_s"] = o["s"] * speed.scale_at(o["t"], o["t"] + o["s"])
    times = [o["scaled_s"] for o in run.ops]
    metrics = figures(times, setup_scaled)
    metrics["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {"set_ms_tail_percentile": run.wl.tail_pct,
             "samples_above_tail": tail(times, run.wl.tail_pct)[1],
             "samples": len(times),
             "failed_frac": (len(run.ops) - ok) / len(run.ops),
             "raw": figures([o["s"] for o in run.ops], setup_raw),
             "speed_scale": speed.scale,
             "reference_ms": [1000 * s for s in speed.samples],
             "setup_samples_s": setup_raw}
    return metrics, notes


def counting_hooks():
    def segments(tracer, args, kwargs, result):
        tracer.count("segment_calls")
        tracer.count("vertices", len(args[0].real_vertex_ids))
        tracer.count("segments", len(result.segments))
        tracer.count("splits", result.split_count)

    def gedf(tracer, args, kwargs, result):
        tasks, horizon = args[0], args[2]
        jobs = sum(-((sub.release - horizon) // dt.period)
                   for dt in tasks for sub in dt.subtasks
                   if sub.wcet != 0 and sub.release < horizon)
        tracer.count("gedf_jobs", jobs)
        tracer.count("gedf_misses", len(result.misses))

    def uniform(tracer, args, kwargs, result):
        tracer.count("uniform_events", len(result.events))

    def dispatcher(tracer, args, kwargs, result):
        tracer.count("dispatcher_splits", result.split_count)

    return {"decomposition.segment_workload": segments,
            "sim.simulate_gedf": gedf, "sim.simulate_uniform": uniform,
            "sim.simulate_dispatcher": dispatcher}


def per_layer(run, tracer, speed):
    """Per-call medians are scaled to the reference speed by the run's
    mean, as the end-to-end times are; shares and counts are not times."""
    s = summarize_spans(tracer.spans)
    durations, self_time, wall = s["durations"], s["self_time"], s["op_wall"]

    def ms(name):
        return 1000 * statistics.median(durations[name]) * speed.scale \
            if durations.get(name) else 0.0

    def share(layer):
        return self_time.get(layer, 0.0) / wall

    counts = {}
    for op, per_op in tracer.counts.items():
        if op < MIN_OPS:
            for key, n in per_op.items():
                counts[key] = counts.get(key, 0) + n
    calls = counts.get("segment_calls", 0)
    accepted = {}
    for index in range(MIN_OPS):
        bits = run.records[index]["verdicts"] if index in run.records else ""
        for name, bit in zip(METHODS + ("G-EDF-load",), bits):
            accepted[name] = accepted.get(name, 0) + (bit == "1")
    traced_s = sum(o["s"] for o in run.ops if o["traced"])
    plain_s = sum(o["s"] for o in run.ops if not o["traced"])

    m = {"gen.gen_taskset_ms": ms("gen.gen_taskset"),
         "gen.share": share("gen"),
         "model.validate_ms": ms("model.validate"),
         "model.load_taskset_ms": ms("model.load_taskset"),
         "model.share": share("model")}
    for stage in STAGES:
        m[f"decomposition.{stage}_ms"] = ms(f"decomposition.{stage}")
    for key in ("vertices", "segments", "splits"):
        m[f"decomposition.{key}"] = counts.get(key, 0) / calls if calls \
            else 0.0
    m["decomposition.omega_only_waste"] = \
        omega_only_waste(tracer.spans) if run.wl.omega_only else 0.0
    m["decomposition.share"] = share("decomposition")
    for stage in ("segment_workload", "dbf_and_load"):
        m[f"decomposition.{stage}.share"] = \
            sum(durations.get(f"decomposition.{stage}", ())) / wall
    for test in ("decomposed_test", "federated_allocate",
                 "gli_capacity_test", "gedf_density_test"):
        m[f"analysis.{test}_ms"] = ms(f"analysis.{test}")
    m["analysis.share"] = share("analysis")
    for name in ("D-OUR", "F-LI", "G-LI", "G-EDF-load"):
        m[f"analysis.accepted.{name}"] = accepted.get(name, 0)
    m.update({"semifed.sf1_ms": ms("semifed.sf1"),
              "semifed.sf2_ms": ms("semifed.sf2"),
              "semifed.share": share("semifed"),
              "semifed.accepted.SF1": accepted.get("SF1", 0),
              "semifed.accepted.SF2": accepted.get("SF2", 0),
              "sim.simulate_gedf_ms": ms("sim.simulate_gedf"),
              "sim.gedf_jobs": counts.get("gedf_jobs", 0),
              "sim.gedf_misses": counts.get("gedf_misses", 0),
              "sim.simulate_uniform_ms": ms("sim.simulate_uniform"),
              "sim.uniform_events": counts.get("uniform_events", 0),
              "sim.simulate_dispatcher_ms": ms("sim.simulate_dispatcher"),
              "sim.dispatcher_splits": counts.get("dispatcher_splits", 0),
              "sim.share": share("sim"),
              "cli.analyze_ms": ms("cli.cmd_analyze"),
              "cli.share": share("cli"),
              "trace.coverage": s["coverage"],
              "trace.overhead": traced_s / plain_s})
    notes = {"spans": len(tracer.spans), "traced_ops": sum(
        o["traced"] for o in run.ops),
        "self_s": self_time, "op_wall_s": wall, "counts": counts,
        "speed_scale": speed.scale}
    return m, notes


def commit():
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha():
    h = hashlib.sha256()
    for path in sorted((SRC / "parasched").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(args, wl, ps):
    return {"commit": commit(), "source_sha256": source_sha(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "min_ops": MIN_OPS, "setups": SETUPS,
            "inputs": wl.describe(ps)}


def load_pins(name, seed):
    """The default seed's pinned records, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    pins = json.loads(PINS.read_text())
    if pins["seed"] != DEFAULT_SEED or name not in pins["workloads"]:
        raise SystemExit(f"pins.json has no records for {name}")
    return pins["workloads"][name]["records"]


def bench(workload, seed, seconds, trace, pins=None, tamper=None):
    """One run; returns the result dict (also what the CLI prints).
    `tamper(ps)` runs after set-up (the self-check breaks properties)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[workload]
    workdir = OUT / f"{workload}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        speed = Speed()
        modules, ps, items, setup_raw, setup_scaled = set_up(
            wl, seed, workdir, speed)
        if tamper is not None:
            tamper(ps)
        run = Run(wl, ps, items, pins)
        gc.collect()
        if trace:
            tracer = Tracer(modules, counting_hooks())
            spent = measure_traced(run, tracer, seconds, speed)
            values, notes = per_layer(run, tracer, speed)
            wanted = spec["per_layer"]
        else:
            tracer = None
            spent = measure(run, seconds, speed)
            values, notes = end_to_end(run, setup_raw, setup_scaled, speed)
            wanted = spec["end_to_end"]
        args = SimpleNamespace(seed=seed, seconds=seconds, trace=int(trace))
        digest, digest_ops = run.digest()
        result = {
            "manifest": manifest(args, wl, ps),
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]} for m in wanted},
            "notes": {**notes, "measured_s": spent},
            "digest": digest, "digest_ops": digest_ops,
            "attempted": len(run.ops), "failed": len(run.failures),
            "failures": run.failures, "ops": run.ops,
        }
        stem = OUT / f"{workload}-s{seed}-t{int(trace)}"
        stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
        if tracer is not None:
            tracer.write(stem.with_suffix(".spans.csv"))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def pin(names):
    """Record every input of the default seed's cycle, with omega, into
    pins.json."""
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {
        "seed": DEFAULT_SEED, "workloads": {}}
    OUT.mkdir(parents=True, exist_ok=True)
    for name in names:
        wl = WORKLOADS[name]
        workdir = OUT / f"pin-{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            ps = SimpleNamespace(**import_parasched())
            keys = []
            for item in wl.setup(ps, DEFAULT_SEED, workdir):
                record, problems = wl.check(ps, item, wl.op(ps, item), True)
                if problems:
                    raise SystemExit(f"{name} item {item.index}: {problems}")
                keys.append(record_key(record))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        pins["workloads"][name] = {
            "digest": hashlib.sha256("\n".join(keys).encode()).hexdigest(),
            "records": keys}
        print(f"pinned {len(keys)} records of {name}", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=0) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the default-seed records (all "
                             "workloads unless --workload is given)")
    args = parser.parse_args(argv)
    if not use_sources():
        return 2
    if args.pin:
        pin([args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    result = bench(args.workload, args.seed, args.seconds, args.trace,
                   pins=load_pins(args.workload, args.seed))
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    notes = result["notes"]
    if "failed_frac" in notes:
        print(f"failed_frac = {notes['failed_frac']!r} "
              f"({result['failed']} of {result['attempted']} sets)")
        print(f"set_ms_tail is p{notes['set_ms_tail_percentile']} of "
              f"{notes['samples']} sets, {notes['samples_above_tail']} "
              "above it")
        print(f"times scaled to the reference speed (run mean "
              f"{notes['speed_scale']!r}); raw: {json.dumps(notes['raw'])}")
    check = "checked against pins.json" if args.seed == DEFAULT_SEED \
        else "not pinned for this seed"
    print(f"digest of the first {result['digest_ops']} sets = "
          f"{result['digest']} ({check})")
    for failure in result["failures"][:20]:
        print("FAILED " + json.dumps(failure, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
