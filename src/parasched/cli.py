"""Command line front end.

Subcommands: gen (random task sets), decompose (segment + stretch one
task set), analyze (schedulability verdicts), simulate (trace one DAG),
experiment (acceptance-ratio sweeps).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .analysis import (Verdict, decomposed_test, federated_allocate,
                       gli_capacity_test)
from .decomposition import decompose, segment_omega
from .errors import ConstrainedDeadline, ParaschedError
from .experiment import METHODS, GenConfig, emit, sweep
from .gen import PAPER_SCALE, gen_taskset
from .model import (dump_taskset, format_rational, load_taskset, summarize,
                    validate)
from .semifed import sf1, sf2
from .sim import simulate_dispatcher, simulate_gedf, simulate_uniform


@contextmanager
def _out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fp:
            yield fp


def _load(path):
    with open(path) as fp:
        return load_taskset(fp)


def _config_from(args) -> GenConfig:
    scale = PAPER_SCALE if args.paper_scale else (10, 50)
    return GenConfig(seed=args.seed, n_tasks=args.n_tasks, p=args.p,
                     m=args.m, util=args.util, n_vertices=scale,
                     period_mode=args.period_mode)


def cmd_gen(args):
    tasks = gen_taskset(_config_from(args))
    with _out(args.out) as fp:
        dump_taskset(tasks, fp)
    return 0


def cmd_decompose(args):
    tasks = _load(args.taskset)
    out = []
    for task in tasks:
        dec = decompose(task)
        out.append({
            "task": task.id,
            "omega": format_rational(dec.omega),
            "segments": [{"start": format_rational(s.start),
                          "end": format_rational(s.end),
                          "workload": format_rational(s.c),
                          "stretched": format_rational(d.d)}
                         for s, d in zip(dec.segmentation.segments,
                                         dec.stretched)],
            "subtasks": [{"vertex": st.origin,
                          "release": format_rational(st.release),
                          "deadline": format_rational(st.deadline),
                          "wcet": format_rational(st.wcet)}
                         for st in dec.decomposed.subtasks],
        })
    with _out(args.out) as fp:
        json.dump(out, fp, indent=2)
        fp.write("\n")
    return 0


def cmd_analyze(args):
    tasks = _load(args.taskset)
    metrics = [validate(t) for t in tasks]
    verdicts = []
    wanted = args.test
    if wanted in ("decomposed", "all"):
        verdicts.append(_decomposed_verdict(tasks, metrics, args.m))
    if wanted in ("federated", "all"):
        verdicts.append(federated_allocate(tasks, args.m, metrics))
    if wanted in ("sf1", "all"):
        v = sf1(tasks, args.m, metrics)
        verdicts.append(v)
    if wanted in ("sf2", "all"):
        verdicts.append(sf2(tasks, args.m, metrics))
    if wanted in ("gli", "all"):
        verdicts.append(gli_capacity_test(tasks, args.m, metrics))
    with _out(args.out) as fp:
        for v in verdicts:
            rec = {"test": getattr(v, "test", getattr(v, "algorithm", "?")),
                   "schedulable": v.schedulable,
                   "min_m": getattr(v, "min_m", None),
                   "detail": _jsonable(getattr(v, "detail",
                                               getattr(v, "reason", "")))}
            fp.write(json.dumps(rec) + "\n")
    return 0


def _decomposed_verdict(tasks, metrics, m):
    """D-OUR, or its rejection when a task lies outside its
    implicit-deadline model; the other tests still run on such a set."""
    try:
        omegas = [segment_omega(t, met) for t, met in zip(tasks, metrics)]
    except ConstrainedDeadline as exc:
        return Verdict(schedulable=False, test="decomposed",
                       detail={"reason": str(exc)})
    summary = summarize(tasks, metrics=metrics, omegas=omegas)
    return decomposed_test(summary, m)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def cmd_simulate(args):
    tasks = _load(args.taskset)
    with _out(args.out) as fp:
        if args.engine == "gedf":
            decomposed = [decompose(t).decomposed for t in tasks]
            horizon = args.horizon or 10 * max(t.period for t in tasks)
            report = simulate_gedf(decomposed, args.m, horizon)
            for miss in report.misses:
                fp.write(json.dumps({"kind": "miss",
                                     "job": _jsonable(list(miss[0])),
                                     "deadline": format_rational(miss[1])})
                         + "\n")
            fp.write(json.dumps({"kind": "summary", "misses":
                                 len(report.misses),
                                 "horizon": format_rational(report.horizon)})
                     + "\n")
            return 0 if report.ok else 1
        task = tasks[0]
        values = [Fraction(s) for s in args.speeds.split(",")]
        if args.engine == "uniform":
            trace = simulate_uniform(task, values,
                                     migration=not args.no_migration)
        else:
            trace = simulate_dispatcher(task, values)
        for ev in trace.events:
            fp.write(json.dumps(_jsonable(list(ev))) + "\n")
        fp.write(json.dumps({"kind": "summary",
                             "response_time":
                                 format_rational(trace.response_time),
                             "splits": trace.split_count}) + "\n")
    return 0


def cmd_experiment(args):
    base = _config_from(args)
    methods = tuple(args.methods.split(",")) if args.methods else METHODS
    buckets = None
    if args.buckets:
        conv = {"utilization": Fraction, "processors": int, "p": float}
        buckets = [conv[args.axis](b) for b in args.buckets.split(",")]
    records = sweep(args.axis, base, args.trials, buckets=buckets,
                    methods=methods)
    with _out(args.out) as fp:
        emit(records, fp, fmt=args.format)
    return 0


def _add_gen_flags(sub):
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--n-tasks", type=int, default=5)
    sub.add_argument("--p", type=float, default=0.1)
    sub.add_argument("--m", type=int, default=8)
    sub.add_argument("--util", type=float, default=0.5,
                     help="normalized utilization U_sum/m")
    sub.add_argument("--period-mode", default="target-utilization",
                     choices=["target-utilization", "gamma-formula"])
    sub.add_argument("--paper-scale", action="store_true",
                     help="vertex counts in [50,250] instead of [10,50]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parasched",
        description="Schedulability analysis and simulation of parallel "
                    "DAG tasks on multiprocessors.")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen", help="generate a random task set")
    _add_gen_flags(g)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_gen)

    d = subs.add_parser("decompose", help="segment and stretch a task set")
    d.add_argument("taskset")
    d.add_argument("--out", default="-")
    d.set_defaults(func=cmd_decompose)

    a = subs.add_parser("analyze", help="run schedulability tests")
    a.add_argument("taskset")
    a.add_argument("--m", type=int, required=True)
    a.add_argument("--test", default="all",
                   choices=["decomposed", "federated", "sf1", "sf2", "gli",
                            "all"])
    a.add_argument("--out", default="-")
    a.set_defaults(func=cmd_analyze)

    s = subs.add_parser("simulate", help="trace one DAG or a GEDF run")
    s.add_argument("taskset")
    s.add_argument("--engine", default="uniform",
                   choices=["uniform", "dispatcher", "gedf"])
    s.add_argument("--speeds", default="1",
                   help="comma-separated speeds / load bounds")
    s.add_argument("--no-migration", action="store_true")
    s.add_argument("--m", type=int, default=1, help="processors for gedf")
    s.add_argument("--horizon", type=Fraction, default=None)
    s.add_argument("--out", default="-")
    s.set_defaults(func=cmd_simulate)

    e = subs.add_parser("experiment", help="acceptance-ratio sweep")
    _add_gen_flags(e)
    e.add_argument("--axis", required=True,
                   choices=["utilization", "processors", "p"])
    e.add_argument("--trials", type=int, default=100)
    e.add_argument("--methods", default=None,
                   help="comma-separated subset of " + ",".join(METHODS))
    e.add_argument("--buckets", default=None,
                   help="comma-separated bucket values")
    e.add_argument("--out", default="-")
    e.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    e.set_defaults(func=cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParaschedError as exc:
        print(f"parasched: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
