#!/usr/bin/env python3
"""Self-check of the benchmark, on tiny runs (MIN_OPS ops each).

    python3 perfbench/selfcheck.py

Shows that a corrupted pinned record and a broken property each fail ops,
that every metric of BENCHMARK.json prints by name with its unit for every
workload in both modes, that the count metrics repeat exactly across two
runs, and that a directory without the parasched sources exits non-zero
without printing a result.  Exits 1 when any of these does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import run

FAILED = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILED.append(what)


def cli(*argv):
    """run.main in-process; returns its stdout lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    expect(code == 0, f"run.py {' '.join(argv)} exits 0")
    return buf.getvalue().splitlines()


def check_pins():
    pins = run.load_pins("sweep-desk", run.DEFAULT_SEED)
    result = run.bench("sweep-desk", run.DEFAULT_SEED, 0, False, pins=pins)
    expect(result["failed"] == 0, "sweep-desk matches its pinned records")
    bad = list(pins)
    bits, _, rest = bad[3].partition(":")
    bad[3] = ("1" if bits[0] == "0" else "0") + bits[1:] + ":" + rest
    result = run.bench("sweep-desk", run.DEFAULT_SEED, 0, False, pins=bad)
    failed_ops = {f["op"] for f in result["failures"]}
    expect(failed_ops == {3} and result["notes"]["failed_frac"] > 0,
           "a corrupted pinned record fails exactly its op")


def check_properties():
    def tamper(ps):
        ps.analysis.uniform_response_bound = lambda met, plat: Fraction(0)
        simulate = ps.sim.simulate_gedf

        def missing(*args, **kwargs):
            report = simulate(*args, **kwargs)
            report.misses.append((("injected", 0, 0), Fraction(0),
                                  Fraction(1)))
            return report
        ps.sim.simulate_gedf = missing

    result = run.bench("verify", 2, 0, False, tamper=tamper)
    problems = [p for f in result["failures"] for p in f["problems"]]
    expect(result["failed"] == result["attempted"]
           and result["notes"]["failed_frac"] == 1,
           "a broken criterion-5 bound fails every verify op")
    expect(any(p.startswith("criterion 10") for p in problems),
           "an injected GEDF miss on a D-OUR-accepted set fails its op")


def check_metrics(spec):
    counts = {}
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = cli("--workload", workload, "--seed", "2",
                        "--seconds", "0", "--trace", str(trace))
            last = json.loads(lines[-1])
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            values = [v["value"] for v in last["metrics"].values()]
            expect(got == wanted
                   and set(last) == {"correct", "attempted", "failed",
                                     "metrics"}
                   and all(isinstance(v, (int, float))
                           and not isinstance(v, bool) and math.isfinite(v)
                           for v in values),
                   f"{workload} --trace {trace}: every {key} metric, "
                   "with its unit")
            printed = {line.split(" = ")[0] for line in lines
                       if " = " in line}
            expect(set(wanted) <= printed,
                   f"{workload} --trace {trace}: each metric on its own line")
            if trace:
                counts[workload] = {k: v["value"]
                                    for k, v in last["metrics"].items()
                                    if v["unit"] == "count"}
    for workload in ("sweep-desk", "verify"):
        again = run.bench(workload, 2, 0, True)["metrics"]
        expect(all(again[k]["value"] == v
                   for k, v in counts[workload].items()),
               f"{workload}: counts repeat exactly across two runs")


def check_bare_directory():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the sources it exits non-zero and prints no result")


def main():
    if not run.use_sources():
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_pins()
    check_properties()
    check_metrics(spec)
    check_bare_directory()
    print(f"{len(FAILED)} self-check failures")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
