"""Multipath object scheduling toolkit.

Schedulers that split application-layer objects across paths with uncertain
delay (tail-bound optimizing SOS, its redundancy-adding SOS-FEC variant, and
the EDF/SEDPF per-packet baselines), a deterministic discrete-event
simulator with trace replay and synthetic delay sources, priority-aware page
transmission, and a benchmark harness.
"""

from .baselines import edf_assign, sedpf_assign
from .delay_sources import (
    DelaySourceSpec,
    make_source,
    oracle_stats,
)
from .errors import (
    ConfigError,
    NoDataError,
    ParseError,
    SosimError,
    ValidationError,
)
from .estimation import RollingWindow, snapshot_params
from .fec import solve_fec_split
from .harness import (
    ExperimentConfig,
    MetricsRow,
    parse_config,
    run_experiment,
    run_sweep,
    write_csv,
)
from .priority_engine import PriorityEngine, run_page
from .scheduler_core import (
    PathParams,
    Plan,
    SolveStats,
    compute_w,
    d_upper,
    solve_integer,
    solve_relaxed,
    split_object,
    variance_w,
)
from .simulator import SimConfig, TransferRecord, make_policy
from .workloads import (
    ObjectQueue,
    ObjectSpec,
    PageResult,
    Trigger,
    expand_chunked,
    load_page_spec,
    random_page,
)

__version__ = "0.1.0"
