"""Distributed high-cardinality host (super point) detection.

A compact 8-bit rough-estimator cube recovers candidate hosts from merged
per-node sketches; per-candidate linear estimators, inner-merged at each
node and outer-merged at the coordinator, provide the cardinality
estimates. The package also ships an exact oracle, a synthetic trace
generator, a window-protocol simulator with byte-exact payloads, and a
CLI (``superpoint gen|run|verify``).
"""

from .estimators import (
    CANDIDATE_BITS,
    DetectorParams,
    LinearEstimator,
    RoughEstimator,
    compute_tau,
    le_std_dev,
    le_std_dev_hosts,
    lsb,
)
from .hashing import HashSuite
from .learray import CandidateEstimate, LEArray, estimate_candidates, lea_merge_outer
from .recube import (
    RECube,
    RECubeConfig,
    derive_indices,
    rec_merge_outer,
    recover_candidates,
)
from .node import ObservationNode, Trace
from .coordinator import MODE_NAIVE, MODE_READ, WindowReport, expected_comms, run_window
from .harness import (
    Metrics,
    TraceSpec,
    exact_cardinalities,
    generate_trace,
    oracle_evaluate,
    partition_stream,
    true_super_points,
)

__version__ = "0.1.0"

__all__ = [
    "CANDIDATE_BITS",
    "CandidateEstimate",
    "DetectorParams",
    "HashSuite",
    "LEArray",
    "LinearEstimator",
    "Metrics",
    "MODE_NAIVE",
    "MODE_READ",
    "ObservationNode",
    "RECube",
    "RECubeConfig",
    "RoughEstimator",
    "Trace",
    "TraceSpec",
    "WindowReport",
    "compute_tau",
    "derive_indices",
    "estimate_candidates",
    "exact_cardinalities",
    "expected_comms",
    "generate_trace",
    "lea_merge_outer",
    "le_std_dev",
    "le_std_dev_hosts",
    "lsb",
    "oracle_evaluate",
    "partition_stream",
    "rec_merge_outer",
    "recover_candidates",
    "run_window",
    "true_super_points",
]
