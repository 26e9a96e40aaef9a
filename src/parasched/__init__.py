"""Schedulability analysis, decomposition and simulation of parallel
real-time DAG tasks on multiprocessors."""

from .model import (DagTask, TaskMetrics, TaskSet, TaskSetSummary,
                    dump_taskset, load_taskset, summarize, validate)
from .decomposition import (Decomposition, decompose, timing_diagram,
                            segment_workload, distribute_laxity, reassemble,
                            dbf_and_load)
from .analysis import (UniformPlatform, Verdict, decomposed_test,
                       federated_allocate, gedf_density_test,
                       gli_capacity_test, uniform_response_bound,
                       weak_response_bound)
from .semifed import ContainerTask, sf1, sf2
from .sim import (SimTrace, simulate_dispatcher, simulate_gedf,
                  simulate_uniform)
from .gen import GenConfig, gen_taskset, gen_period, uunifast
from .experiment import ExperimentRecord, emit, run_methods, sweep

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
