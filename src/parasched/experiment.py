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

from .analysis import decomposed_test, federated_allocate, gli_capacity_test
from .decomposition import segment_omega
from .gen import GenConfig, gen_taskset
from .model import summarize, validate
from .semifed import sf1, sf2

METHODS = ("D-OUR", "F-LI", "SF1", "SF2", "G-LI")

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


def run_methods(tasks, m: int, methods=METHODS) -> dict:
    """Apply each schedulability test to one task set on m processors."""
    metrics = [validate(t) for t in tasks]
    out = {}
    if "D-OUR" in methods:
        omegas = [segment_omega(t, met) for t, met in zip(tasks, metrics)]
        summary = summarize(tasks, metrics=metrics, omegas=omegas)
        out["D-OUR"] = decomposed_test(summary, m).schedulable
    if "F-LI" in methods:
        out["F-LI"] = federated_allocate(tasks, m, metrics).schedulable
    if "SF1" in methods:
        out["SF1"] = sf1(tasks, m, metrics).schedulable
    if "SF2" in methods:
        out["SF2"] = sf2(tasks, m, metrics).schedulable
    if "G-LI" in methods:
        out["G-LI"] = gli_capacity_test(tasks, m, metrics).schedulable
    return out


def _bucket_config(axis: str, bucket, base: GenConfig):
    """Generation config and processor count for one bucket."""
    if axis == "utilization":
        return replace(base, util=float(bucket)), base.m
    if axis == "processors":
        m = int(bucket)
        # total utilization stays fixed at base.util * base.m
        total = Fraction(base.util) * base.m
        return replace(base, m=m, util=float(total / m)), m
    if axis == "p":
        return replace(base, p=float(bucket)), base.m
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep(axis: str, base: GenConfig, trials: int,
          buckets=None, methods=METHODS) -> list:
    """Acceptance ratios per (bucket, method); deterministic under
    base.seed."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if axis not in DEFAULT_BUCKETS:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if buckets is None:
        buckets = DEFAULT_BUCKETS[axis]
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


def emit(records, fp, fmt: str = "csv") -> None:
    """Write records as CSV (stable row order) or JSON lines."""
    if fmt == "csv":
        writer = csv.writer(fp)
        writer.writerow(["axis", "bucket", "method", "accepted", "total",
                         "ratio", "seed"])
        for r in records:
            writer.writerow([r.axis, _bucket_str(r.bucket), r.method,
                             r.accepted, r.total, repr(r.ratio), r.seed])
    elif fmt == "jsonl":
        for r in records:
            fp.write(json.dumps({
                "axis": r.axis, "bucket": _bucket_str(r.bucket),
                "method": r.method, "accepted": r.accepted,
                "total": r.total, "ratio": r.ratio, "seed": r.seed}) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def parse_csv(fp) -> list:
    """Inverse of emit(..., fmt='csv'); buckets come back as strings."""
    reader = csv.DictReader(fp)
    return [ExperimentRecord(axis=row["axis"], bucket=row["bucket"],
                             method=row["method"],
                             accepted=int(row["accepted"]),
                             total=int(row["total"]),
                             seed=int(row["seed"]))
            for row in reader]
