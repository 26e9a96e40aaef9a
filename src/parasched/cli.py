"""Command line front end.

Subcommands: gen (random task sets), decompose (segment + stretch one
task set), analyze (schedulability verdicts), simulate (trace the first
DAG, or all under global EDF), experiment (acceptance-ratio sweeps).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import lru_cache

from .analysis import TESTS
from .decomposition import decompose
from .errors import ParaschedError
from .experiment import (METHODS, GenConfig, check_distinct, check_methods,
                         emit, sweep)
from .gen import PAPER_SCALE, gen_taskset
from .model import TaskSet, dump_taskset, format_rational, load_taskset
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
                     m=args.m, util=float(args.util), n_vertices=scale,
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
                          "stretched": format_rational(s.d)}
                         for s in dec.stretched],
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
    """One JSON row per selected test, in registry order.  The set is
    wrapped once, as a ``TaskSet``, so the tests share one summary and one
    classification, which go when the command returns."""
    tasks = TaskSet.of(_load(args.taskset))
    with _out(args.out) as fp:
        for method in TESTS.values():
            if args.test in (method.flag, "all"):
                _write_row(fp, method.run(tasks, args.m))
    return 0


def _json_default(obj):
    """``json.dumps``'s hook for what JSON lacks: a rational as a string, a
    dataclass as its fields in declaration order (as ``asdict`` gives
    them)."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_row(fp, row) -> None:
    fp.write(json.dumps(row, default=_json_default) + "\n")


def cmd_simulate(args):
    tasks = _load(args.taskset)
    with _out(args.out) as fp:
        if args.engine == "gedf":
            decomposed = [decompose(t).decomposed for t in tasks]
            horizon = args.horizon or 10 * max(t.period for t in tasks)
            report = simulate_gedf(decomposed, args.m, horizon)
            for job, deadline, _ in report.misses:
                _write_row(fp, {"kind": "miss", "job": job,
                                "deadline": deadline})
            _write_row(fp, {"kind": "summary", "misses": len(report.misses),
                            "horizon": report.horizon})
            return 0 if report.ok else 1
        task = tasks[0]
        if len(tasks) > 1:
            print(f"parasched: traced task {task.id!r}, the file's first; "
                  f"skipped {len(tasks) - 1} more", file=sys.stderr)
        if args.engine == "uniform":
            trace = simulate_uniform(task, args.speeds,
                                     migration=not args.no_migration)
        else:
            trace = simulate_dispatcher(task, args.speeds)
        for ev in trace.events:
            _write_row(fp, ev)
        _write_row(fp, {"kind": "summary",
                        "response_time": trace.response_time,
                        "splits": trace.split_count})
    return 0


def cmd_experiment(args):
    base = _config_from(args)
    methods = args.methods or METHODS
    records = sweep(args.axis, base, args.trials, buckets=args.buckets,
                    methods=methods)
    with _out(args.out) as fp:
        emit(records, fp, fmt=args.format)
    return 0


def _checked(convert, ok, what):
    """An argparse type: ``convert(text)``, a usage error unless it is
    ``ok``."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_count = _checked(int, lambda v: v >= 1, "an integer >= 1")
_positive = _checked(Fraction, lambda v: v > 0, "a positive number")
_probability = _checked(float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
_speeds = _checked(lambda text: [Fraction(s) for s in text.split(",")],
                   lambda vs: all(v > 0 for v in vs),
                   "a list of positive numbers")
_BUCKET = {"utilization": _positive, "processors": _count, "p": _probability}


def _method_list(text) -> tuple:
    try:
        return check_methods(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_gen_flags(sub):
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--n-tasks", type=_count, default=5)
    sub.add_argument("--p", type=_probability, default=0.1)
    sub.add_argument("--m", type=_count, default=8)
    sub.add_argument("--util", type=_positive, default=0.5,
                     help="normalized utilization U_sum/m")
    sub.add_argument("--period-mode", default="target-utilization",
                     choices=["target-utilization", "gamma-formula"])
    sub.add_argument("--paper-scale", action="store_true",
                     help="vertex counts in [50,250] instead of [10,50]")


@lru_cache(maxsize=None)
def _parser():
    """The parser and its ``experiment`` subparser, built once per process.
    It holds no function: ``main`` looks up ``cmd_<command>`` per call."""
    parser = argparse.ArgumentParser(
        prog="parasched",
        description="Schedulability analysis and simulation of parallel "
                    "DAG tasks on multiprocessors.")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen", help="generate a random task set")
    _add_gen_flags(g)
    g.add_argument("--out", default="-")

    d = subs.add_parser("decompose", help="segment and stretch a task set")
    d.add_argument("taskset")
    d.add_argument("--out", default="-")

    a = subs.add_parser("analyze", help="run schedulability tests")
    a.add_argument("taskset")
    a.add_argument("--m", type=_count, required=True)
    a.add_argument("--test", default="all",
                   choices=[t.flag for t in TESTS.values()] + ["all"])
    a.add_argument("--out", default="-")

    s = subs.add_parser("simulate", help="trace the first DAG or a GEDF run")
    s.add_argument("taskset")
    s.add_argument("--engine", default="uniform",
                   choices=["uniform", "dispatcher", "gedf"])
    s.add_argument("--speeds", type=_speeds, default="1",
                   help="comma-separated speeds / load bounds")
    s.add_argument("--no-migration", action="store_true")
    s.add_argument("--m", type=_count, default=1, help="processors for gedf")
    s.add_argument("--horizon", type=_positive, default=None)
    s.add_argument("--out", default="-")

    e = subs.add_parser("experiment", help="acceptance-ratio sweep")
    _add_gen_flags(e)
    e.add_argument("--axis", required=True,
                   choices=["utilization", "processors", "p"])
    e.add_argument("--trials", type=_count, default=100)
    e.add_argument("--methods", default=None, type=_method_list,
                   help="comma-separated subset of " + ",".join(METHODS))
    e.add_argument("--buckets", default=None,
                   help="comma-separated bucket values")
    e.add_argument("--out", default="-")
    e.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    return parser, e


def main(argv=None) -> int:
    parser, experiment = _parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and args.buckets:
        try:
            args.buckets = check_distinct([_BUCKET[args.axis](b) for b in
                                           args.buckets.split(",")], "bucket")
        except (argparse.ArgumentTypeError, ValueError) as exc:
            experiment.error(f"argument --buckets: {exc}")
    try:
        status = globals()["cmd_" + args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader left: say nothing, and let the flush at exit reach devnull
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 1
    except (ParaschedError, OSError) as exc:
        print(f"parasched: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
