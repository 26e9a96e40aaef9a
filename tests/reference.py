"""Reference code that the tests compare the package against and that no
CLI path, registered test or simulator runs: an exact max-flow oracle for
the optimal Omega, the Fraction segments it cuts, a single-DAG generator and
the speed bound of a decomposed set."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from parasched.decomposition import (Segment, TimingDiagram, _cover_ranges,
                                     timing_diagram)
from parasched.errors import ParaschedError
from parasched.gen import GenConfig, gen_period, gen_structure
from parasched.model import DagTask, TaskSetSummary


class DegenerateWindow(ParaschedError):
    pass


class OracleTooLarge(ParaschedError):
    pass


# --- exact maximum flow ---------------------------------------------------
#
# Edmonds-Karp (BFS augmenting paths) over an adjacency-list residual graph.
# Capacities are Fractions, so the result is exact; intended for the
# segmentation optimality oracle and other desk-scale instances only.

INF = Fraction(1 << 62)


class FlowNetwork:
    def __init__(self):
        self.adj: dict[object, list[int]] = {}
        # edge i and its reverse i^1 are stored adjacently
        self.to: list[object] = []
        self.cap: list[Fraction] = []

    def add_node(self, node) -> None:
        self.adj.setdefault(node, [])

    def add_edge(self, u, v, capacity) -> None:
        self.add_node(u)
        self.add_node(v)
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(Fraction(capacity))
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(Fraction(0))

    def max_flow(self, source, sink) -> Fraction:
        total = Fraction(0)
        while True:
            # BFS for a shortest augmenting path
            parent_edge = {source: None}
            queue = deque([source])
            while queue and sink not in parent_edge:
                u = queue.popleft()
                for ei in self.adj[u]:
                    v = self.to[ei]
                    if v not in parent_edge and self.cap[ei] > 0:
                        parent_edge[v] = ei
                        queue.append(v)
            if sink not in parent_edge:
                return total
            # bottleneck along the path
            bottleneck = INF
            v = sink
            while parent_edge[v] is not None:
                ei = parent_edge[v]
                bottleneck = min(bottleneck, self.cap[ei])
                v = self.to[ei ^ 1]
            v = sink
            while parent_edge[v] is not None:
                ei = parent_edge[v]
                self.cap[ei] -= bottleneck
                self.cap[ei ^ 1] += bottleneck
                v = self.to[ei ^ 1]
            total += bottleneck


# --- segmentation optimality oracle ---------------------------------------

@dataclass(frozen=True)
class OracleResult:
    omega_opt: Fraction


def build_segments(td: TimingDiagram) -> list:
    """Cut [0, L] at every distinct rdy/fsh value."""
    if td.cpl_int == 0:
        raise DegenerateWindow("critical path has zero length")
    points = [Fraction(t, td.den) for t in td.cuts]
    return [Segment(index=i, start=a, end=b)
            for i, (a, b) in enumerate(zip(points, points[1:]))]


def segmentation_oracle(task: DagTask, max_vertices: int = 12
                        ) -> OracleResult:
    """Optimal omega via exact rational max flow.

    source -> vertex (cap c(v)) -> segment (iff covered, cap inf) -> sink
    (cap e(s) * C/L).  The workload that cannot be routed is exactly the
    minimal overflow C_out, and omega_opt = 1 + C_out / C.
    """
    real = task.real_vertex_ids
    if len(real) > max_vertices:
        raise OracleTooLarge(
            f"{len(real)} vertices exceeds the oracle cap {max_vertices}")
    td = timing_diagram(task)
    segments = build_segments(td)
    work, cpl = task.metrics.work, task.metrics.critical_path

    ranges = _cover_ranges(td)
    net = FlowNetwork()
    for v in real:
        net.add_edge("src", ("v", v), task.wcets[v])
        lo, hi = ranges[v]
        for seg in segments[lo:hi]:
            net.add_edge(("v", v), ("s", seg.index), work + 1)
    for seg in segments:
        net.add_edge(("s", seg.index), "snk", seg.e * work / cpl)

    c_out = work - net.max_flow("src", "snk")
    return OracleResult(omega_opt=1 + c_out / work)


# --- bounds and generators ------------------------------------------------

def speed_requirement(summary: TaskSetSummary, m: int) -> Fraction:
    """Minimal processor speed making a decomposed set schedulable:
    s >= Omega*U_sum/m + Omega*Gamma_top*(1 - 1/m)."""
    omega = summary.omega_top
    return (omega * summary.u_sum / m
            + omega * summary.gamma_top * (1 - Fraction(1, m)))


def gen_dag(config: GenConfig, rng: random.Random, task_id=0) -> DagTask:
    """A single DAG; the period comes from the gamma formula so that no
    utilization split is needed."""
    shape = DagTask(*gen_structure(config, rng, task_id))
    cfg = config if config.period_mode == "gamma-formula" else GenConfig(
        **{**config.__dict__, "period_mode": "gamma-formula"})
    return shape.with_period(
        gen_period(shape.work, shape.critical_path, cfg, rng))
