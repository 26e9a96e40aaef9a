"""Schedulability analysis, decomposition and simulation of parallel
real-time DAG tasks on multiprocessors."""

from .model import (DagTask, TaskMetrics, TaskSetSummary, dump_taskset,
                    load_taskset, summarize, validate)
from .decomposition import (Decomposition, decompose, segment_omega,
                            timing_diagram, build_segments, segment_workload,
                            segmentation_oracle, distribute_laxity,
                            reassemble, dbf_and_load)
from .analysis import (UniformPlatform, Verdict, capacity_bound,
                       decomposed_test, federated_allocate,
                       gedf_density_test, gli_capacity_test,
                       speed_requirement, uniform_response_bound,
                       weak_response_bound)
from .semifed import (ContainerPlan, ContainerTask, capacity_requirement,
                      delta_star, gamma, sf1, sf2, worst_fit_partition)
from .sim import (SimTrace, simulate_dispatcher, simulate_gedf,
                  simulate_uniform)
from .gen import GenConfig, gen_dag, gen_taskset, gen_period, uunifast
from .experiment import ExperimentRecord, emit, parse_csv, run_methods, sweep

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
