"""The benchmark's workloads: inputs made from a seed, the timed op, and the
check of each op's output.

Every call into parasched goes through a module attribute (``ps.gen.…``),
so a traced run sees it.  ``ps`` holds the layer modules of one import.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

METHODS = ("D-OUR", "F-LI", "SF1", "SF2", "G-LI")
# test names as `parasched analyze` prints them
CLI_TESTS = {"decomposed": "D-OUR", "federated": "F-LI", "sf1": "SF1",
             "sf2": "SF2", "gli-capacity": "G-LI"}
SPEEDS = (Fraction(1), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
HORIZON_PERIODS = 2
ROUND = 10        # inputs per pass over the utilization buckets


@dataclass
class Item:
    index: int
    bucket: Fraction
    seed: int
    config: object                  # parasched.gen.GenConfig
    path: Optional[str] = None      # verify: the task set as JSON
    tasks: Optional[list] = None    # verify: that file, loaded


def record_key(record: dict) -> str:
    """Verdict bits, then a hash of the exact quantities when present:
    "11011:3fa9c2d1e0b4"."""
    rest = {k: v for k, v in record.items() if k != "verdicts"}
    if not rest:
        return record["verdicts"]
    blob = json.dumps(rest, sort_keys=True).encode()
    return record["verdicts"] + ":" + hashlib.sha256(blob).hexdigest()[:12]


def matches_pin(pinned: str, record: dict) -> bool:
    """A record without the exact quantities is held to the verdict bits
    only."""
    key = record_key(record)
    if ":" in key:
        return key == pinned
    return pinned.partition(":")[0] == key


def _bits(verdicts: dict, names) -> str:
    return "".join("1" if verdicts[n] else "0" for n in names)


class Sweep:
    """One sweep trial per op: gen_taskset, then run_methods with all five
    methods on m = 8, utilization cycling through the default buckets."""

    m = 8
    omega_only = True               # run_methods reads only omega

    def __init__(self, name, scale, cycle, full_checks, tail_pct):
        self.name = name
        self.scale = scale            # "desk" or "paper" vertex counts
        self.cycle = cycle            # distinct trials before inputs repeat
        self.full_checks = full_checks  # leading ops whose omega is checked
        self.tail_pct = tail_pct      # percentile reported as set_ms_tail

    def base_config(self, ps):
        n_vertices = ps.gen.PAPER_SCALE if self.scale == "paper" else (10, 50)
        return ps.gen.GenConfig(n_tasks=5, p=0.05, m=self.m,
                                n_vertices=n_vertices)

    def describe(self, ps) -> dict:
        return {"config": _config_dict(self.base_config(ps)),
                "util": "cycles through "
                        + ",".join(map(str, _buckets(ps))),
                "m": self.m, "methods": list(METHODS), "cycle": self.cycle}

    def setup(self, ps, seed, workdir):
        base, buckets = self.base_config(ps), _buckets(ps)
        items = []
        for i in range(self.cycle):
            bucket, trial = buckets[i % len(buckets)], i // len(buckets)
            items.append(Item(
                index=i, bucket=bucket,
                seed=ps.experiment.trial_seed(seed, "utilization", bucket,
                                              trial),
                config=replace(base, util=float(bucket))))
        return items

    def op(self, ps, item):
        tasks = ps.gen.gen_taskset(item.config, seed=item.seed)
        return tasks, ps.experiment.run_methods(tasks, self.m)

    def check(self, ps, item, out, full):
        """Record for the digest, and the properties the op broke.  With
        `full`, omega_top is recomputed here, outside the timed op."""
        tasks, verdicts = out
        problems = []
        if set(verdicts) != set(METHODS):
            problems.append(f"methods {sorted(verdicts)}")
            return {"verdicts": ""}, problems
        record = {"verdicts": _bits(verdicts, METHODS)}
        if full:
            record["omega_top"] = str(max(
                ps.decomposition.decompose(t).omega for t in tasks))
        return record, problems


class Verify:
    """Small task sets written to JSON at set-up; each op analyzes one
    through the CLI, decomposes it with the load, and runs all three
    simulators on it."""

    m = 4
    full_checks = 1 << 30           # every op's record is complete
    omega_only = False              # the op reads the subtasks

    def __init__(self, name, cycle, tail_pct):
        self.name = name
        self.cycle = cycle
        self.tail_pct = tail_pct

    def configs(self, ps):
        """Utilization cycles through the default buckets.  Vertex counts
        stay within 14-16 and periods come from the gamma formula, which
        keeps a set's periods within a small factor of each other: the
        load costs about n^4 and GEDF simulation about the period ratio, so
        wider draws let a few ops set a run's median and tail."""
        buckets = _buckets(ps)
        for i in range(self.cycle):
            bucket = buckets[i % len(buckets)]
            yield i, bucket, ps.gen.GenConfig(
                n_tasks=3, p=0.1, m=self.m, util=float(bucket),
                n_vertices=(14, 16), period_mode="gamma-formula")

    def describe(self, ps) -> dict:
        return {"config": _config_dict(next(self.configs(ps))[2]),
                "util": "cycles through "
                        + ",".join(map(str, _buckets(ps))),
                "m": self.m, "speeds": [str(s) for s in SPEEDS],
                "horizon": f"{HORIZON_PERIODS} x the largest period",
                "cycle": self.cycle}

    def setup(self, ps, seed, workdir):
        items = []
        for i, bucket, cfg in self.configs(ps):
            item_seed = ps.experiment.trial_seed(seed, "verify", bucket, i)
            path = workdir / f"set{i}.json"
            with open(path, "w") as fp:
                ps.model.dump_taskset(ps.gen.gen_taskset(cfg, seed=item_seed),
                                      fp)
            with open(path) as fp:
                tasks = ps.model.load_taskset(fp)
            items.append(Item(index=i, bucket=bucket, seed=item_seed,
                              config=cfg, path=str(path), tasks=tasks))
        return items

    def op(self, ps, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ps.cli.main(["analyze", item.path, "--m", str(self.m)])
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        decs = [ps.decomposition.decompose(t, compute_load=True)
                for t in item.tasks]
        summary = ps.model.summarize(
            item.tasks, metrics=[d.metrics for d in decs],
            omegas=[d.omega for d in decs], loads=[d.load for d in decs],
            max_densities=[d.max_vertex_density for d in decs])
        gedf = ps.analysis.gedf_density_test(summary.ell_sum,
                                             summary.delta_top, self.m)
        # criterion 10: a D-OUR-accepted set is simulated at its min_m
        dour = next((r for r in rows if r["test"] == "decomposed"), {})
        m_sim = dour["min_m"] if dour.get("schedulable") else self.m
        horizon = HORIZON_PERIODS * max(t.period for t in item.tasks)
        report = ps.sim.simulate_gedf([d.decomposed for d in decs], m_sim,
                                      horizon)
        runs = [(ps.sim.simulate_uniform(t, SPEEDS),
                 ps.sim.simulate_uniform(t, SPEEDS, migration=False),
                 ps.sim.simulate_dispatcher(t, SPEEDS))
                for t in item.tasks]
        return code, rows, decs, summary, gedf, m_sim, report, runs

    def check(self, ps, item, out, full):
        code, rows, decs, summary, gedf, m_sim, report, runs = out
        problems = []
        if code != 0:
            problems.append(f"analyze exited {code}")
        verdicts = {CLI_TESTS.get(r["test"], r["test"]): r["schedulable"]
                    for r in rows}
        if set(verdicts) != set(METHODS):
            problems.append(f"analyze printed {sorted(verdicts)}")
            return {"verdicts": ""}, problems
        verdicts["G-EDF-load"] = gedf.schedulable
        if verdicts["D-OUR"] and report.misses:
            problems.append(f"criterion 10: D-OUR accepts, "
                            f"{len(report.misses)} GEDF misses on "
                            f"{m_sim} processors")
        platform = ps.analysis.UniformPlatform(SPEEDS)
        for task, dec, (mig, pinned, _disp) in zip(item.tasks, decs, runs):
            if mig.response_time > ps.analysis.uniform_response_bound(
                    dec.metrics, platform):
                problems.append(f"criterion 5: task {task.id} migrating "
                                "response above its bound")
            if pinned.response_time > ps.analysis.weak_response_bound(
                    dec.metrics, platform):
                problems.append(f"criterion 5: task {task.id} pinned "
                                "response above its bound")
        record = {
            "verdicts": _bits(verdicts, METHODS + ("G-EDF-load",)),
            "omega_top": str(summary.omega_top),
            "loads": [str(d.load) for d in decs],
            "gedf_m": m_sim,
            "gedf_misses": len(report.misses),
            "response": [[str(r.response_time) for r in run]
                         for run in runs],
        }
        return record, problems


def _buckets(ps):
    return ps.experiment.DEFAULT_BUCKETS["utilization"]


def _config_dict(cfg) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(cfg).items()
            if k not in ("seed", "util")}


# tail_pct is fixed per workload, so that two runs compare the same
# percentile.  On sweep-paper and verify it is about the highest with at
# least 10 of a 30 s run's ops above it (about 90 and 50 ops).  Sweep-desk
# ops last about 30 ms, as long as the machine's short slow spells, and
# above p90 its tail measured those spells instead of the inputs.
WORKLOADS = {
    "sweep-desk": Sweep("sweep-desk", "desk", cycle=3000, full_checks=60,
                        tail_pct=90),
    "sweep-paper": Sweep("sweep-paper", "paper", cycle=400, full_checks=12,
                         tail_pct=85),
    "verify": Verify("verify", cycle=120, tail_pct=75),
}
