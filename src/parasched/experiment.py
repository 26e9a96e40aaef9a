"""Acceptance-ratio sweeps over randomly generated task sets.

A sweep varies one axis -- normalized utilization, processor count, or
edge probability p -- and reports, per bucket and per method, how many of
the generated task sets each schedulability test accepts.  Seeds for each
(bucket, trial) pair are derived by hashing, so any single bucket can be
re-run in isolation.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .analysis import TESTS
from .gen import GenConfig, gen_taskset
from .model import TaskSet, check_m

METHODS = tuple(TESTS)

DEFAULT_BUCKETS = {
    "utilization": [Fraction(i, 10) for i in range(1, 11)],
    "processors": [4, 6, 8, 10, 12, 14, 16],
    "p": [0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
}


@dataclass(frozen=True)
class ExperimentRecord:
    axis: str
    bucket: object
    method: str
    accepted: int
    total: int
    seed: int

    @property
    def ratio(self) -> float:
        return self.accepted / self.total if self.total else 0.0


def trial_seed(master: int, axis: str, bucket, trial: int) -> int:
    digest = hashlib.sha256(
        f"{master}|{axis}|{bucket}|{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def check_distinct(values, what: str) -> tuple:
    """The values as a tuple; ValueError on a value equal to an earlier one."""
    values = tuple(values)
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"repeated {what} {', '.join(map(str, repeated))}")
    return values


def check_methods(methods) -> tuple:
    """The names as a tuple; ValueError on a name unknown or repeated."""
    unknown = [name for name in methods if name not in TESTS]
    if unknown:
        raise ValueError(f"unknown method {', '.join(unknown)}; "
                         f"choose from {','.join(METHODS)}")
    return check_distinct(methods, "method")


def run_methods(tasks, m: int, methods=METHODS) -> dict:
    """Apply each schedulability test to one task set on m processors;
    ValueError unless m is an int >= 1.  The set is wrapped once, as a
    ``TaskSet``, so the tests share one summary and one classification,
    which go when the call returns."""
    methods = check_methods(methods)
    check_m(m)
    tasks = TaskSet.of(tasks)
    return {name: TESTS[name].run(tasks, m).schedulable for name in methods}


def _bucket_config(axis: str, bucket, base: GenConfig):
    """Generation config and processor count for one bucket; ValueError
    for a processors bucket that is not an integer >= 1."""
    if axis == "utilization":
        return replace(base, util=float(bucket)), base.m
    if axis == "processors":
        if int(bucket) != bucket:
            raise ValueError(f"processors bucket {bucket} is not an integer")
        cfg = replace(base, m=int(bucket))      # ValueError for m < 1
        # total utilization stays fixed at base.util * base.m
        total = Fraction(base.util) * base.m
        return replace(cfg, util=float(total / cfg.m)), cfg.m
    return replace(base, p=float(bucket)), base.m


def sweep(axis: str, base: GenConfig, trials: int,
          buckets=None, methods=METHODS) -> list:
    """Acceptance ratios per (bucket, method); deterministic under
    base.seed.  ValueError on trials not an int >= 1 or a repeated bucket."""
    check_m(trials, "trials")
    if axis not in DEFAULT_BUCKETS:
        raise ValueError(f"unknown sweep axis {axis!r}")
    methods = check_methods(methods)
    buckets = check_distinct(
        DEFAULT_BUCKETS[axis] if buckets is None else buckets, "bucket")
    records = []
    for bucket in buckets:
        cfg, m = _bucket_config(axis, bucket, base)
        accepted = {meth: 0 for meth in methods}
        for trial in range(trials):
            seed = trial_seed(base.seed, axis, bucket, trial)
            tasks = gen_taskset(cfg, seed=seed)
            verdicts = run_methods(tasks, m, methods)
            for meth, ok in verdicts.items():
                accepted[meth] += int(ok)
        for meth in methods:
            records.append(ExperimentRecord(
                axis=axis, bucket=bucket, method=meth,
                accepted=accepted[meth], total=trials, seed=base.seed))
    return records


def _bucket_str(bucket) -> str:
    if isinstance(bucket, Fraction) and bucket.denominator == 1:
        return str(bucket.numerator)
    return str(float(bucket)) if isinstance(bucket, (float, Fraction)) \
        else str(bucket)


_FIELDS = ("axis", "bucket", "method", "accepted", "total", "ratio", "seed")


def emit(records, fp, fmt: str = "csv") -> None:
    """Write records as CSV (stable row order) or JSON lines, one row of
    ``_FIELDS`` per record."""
    rows = ({**{name: getattr(r, name) for name in _FIELDS},
             "bucket": _bucket_str(r.bucket)} for r in records)
    if fmt == "csv":
        writer = csv.DictWriter(fp, _FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    elif fmt == "jsonl":
        for row in rows:
            fp.write(json.dumps(row) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
