"""Distributed high-cardinality host (super point) detection.

A compact 8-bit rough-estimator cube recovers candidate hosts from merged
per-node sketches; per-candidate linear estimators, inner-merged at each
node and outer-merged at the coordinator, provide the cardinality
estimates. The package also ships an exact oracle, a synthetic trace
generator, a window-protocol simulator with byte-exact payloads, and a
CLI (``superpoint gen|run``).

The root re-exports what drives one window in-process; everything else
lives in its module (``superpoint.recube``, ``superpoint.wire``, ...).
"""

from .estimators import DetectorParams
from .recube import RECubeConfig
from .node import ObservationNode, Trace
from .coordinator import WindowReport, run_window

__version__ = "0.1.0"

__all__ = [
    "DetectorParams",
    "ObservationNode",
    "RECubeConfig",
    "Trace",
    "WindowReport",
    "run_window",
]
