"""Observation-node state machine and IP-pair trace I/O.

A node ingests its partition of the pair stream for one window, then
answers the three protocol stages: ship the cube, receive the candidate
list, ship the inner-merged per-candidate estimators.

Trace formats: binary records of 12 bytes {a u32 BE, b u32 BE, ts u32 BE},
or CSV lines "a_dotted,b_dotted[,ts]". Malformed records are skipped and
counted, never fatal.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

import numpy as np

from .estimators import DetectorParams
from .hashing import HashSuite
from .learray import LEArray
from .recube import RECube, RECubeConfig
from . import wire


@dataclass
class Trace:
    """Columnar IP-pair stream: source a, opposite b, timestamps ts
    (zeros when not given)."""

    a: np.ndarray
    b: np.ndarray
    ts: np.ndarray | None = None

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.uint32)
        self.b = np.asarray(self.b, dtype=np.uint32)
        self.ts = np.asarray(
            np.zeros(self.a.shape, np.uint32) if self.ts is None else self.ts, dtype=np.uint32
        )
        if self.ts.shape != self.a.shape:
            raise ValueError("ts column length mismatch")
        if self.a.shape != self.b.shape:
            raise ValueError("a and b column length mismatch")

    def __len__(self) -> int:
        return self.a.size

    def take(self, index: np.ndarray) -> "Trace":
        return Trace(self.a[index], self.b[index], self.ts[index])

    @staticmethod
    def concatenate(traces: list["Trace"]) -> "Trace":
        return Trace(
            np.concatenate([t.a for t in traces]),
            np.concatenate([t.b for t in traces]),
            np.concatenate([t.ts for t in traces]),
        )


def write_trace_binary(path, trace: Trace) -> None:
    stacked = np.empty((len(trace), 3), dtype=">u4")
    stacked[:, 0] = trace.a
    stacked[:, 1] = trace.b
    stacked[:, 2] = trace.ts
    with open(path, "wb") as fh:
        fh.write(stacked.tobytes())


def read_trace_binary(path) -> tuple[Trace, int]:
    """Read a binary trace; returns (trace, malformed_record_count)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    malformed = 1 if len(raw) % 12 else 0
    usable = len(raw) - (len(raw) % 12)
    records = np.frombuffer(raw, dtype=">u4", count=usable // 4).reshape(-1, 3)
    return (
        Trace(
            records[:, 0].astype(np.uint32),
            records[:, 1].astype(np.uint32),
            records[:, 2].astype(np.uint32),
        ),
        malformed,
    )


def dotted(address: int) -> str:
    return socket.inet_ntoa(struct.pack("!I", address & 0xFFFFFFFF))


def parse_dotted(text: str) -> int:
    return struct.unpack("!I", socket.inet_aton(text))[0]


def write_trace_csv(path, trace: Trace) -> None:
    with open(path, "w") as fh:
        for a, b, t in zip(trace.a.tolist(), trace.b.tolist(), trace.ts.tolist()):
            fh.write(f"{dotted(a)},{dotted(b)},{t}\n")


def read_trace_csv(path) -> tuple[Trace, int]:
    """Read a CSV trace; returns (trace, malformed_line_count)."""
    a_col: list[int] = []
    b_col: list[int] = []
    ts_col: list[int] = []
    malformed = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                a = parse_dotted(fields[0])
                b = parse_dotted(fields[1])
                t = int(fields[2]) if len(fields) > 2 else 0
            except (IndexError, ValueError, OSError):
                malformed += 1
                continue
            a_col.append(a)
            b_col.append(b)
            ts_col.append(t)
    return (
        Trace(
            np.array(a_col, dtype=np.uint32),
            np.array(b_col, dtype=np.uint32),
            np.array(ts_col, dtype=np.uint32),
        ),
        malformed,
    )


class ObservationNode:
    """One edge scanner: cube + LE grid + the shared hash suite.

    A new node holds empty sketches for window 0; `reset_window` starts
    the next window.
    """

    def __init__(
        self,
        node_id: int,
        params: DetectorParams,
        cube_config: RECubeConfig,
        master_seed: int,
    ):
        self.node_id = node_id
        self.params = params
        self.cube_config = cube_config
        self.hs = HashSuite(master_seed)
        self.reset_window(0)

    def fingerprint(self) -> tuple:
        """Everything that must match across nodes for merging to be valid."""
        return (self.params, self.cube_config, self.hs.master_seed)

    def reset_window(self, window_id: int) -> None:
        self.window_id = window_id
        self.rec = RECube(self.cube_config)
        self.lea = LEArray(self.params.u_hat, self.params.v_hat, self.params.le_len)
        self.pairs_scanned = 0

    def scan_window(self, trace: Trace) -> tuple[RECube, LEArray]:
        """Fold one window's pair stream into the sketches."""
        self.rec.update_pairs(trace.a, trace.b, self.params.tau, self.hs)
        self.lea.update_pairs(trace.a, trace.b, self.hs)
        self.pairs_scanned += len(trace)
        return self.rec, self.lea

    def stage1_payload(self) -> bytes:
        return wire.encode_stage1(self.node_id, self.window_id, self.rec)

    def stage3_payload(self, candidates) -> bytearray:
        """Inner-merged estimator per candidate, in the given order."""
        sketches = self.lea.extract_candidates(candidates, self.hs)
        return wire.encode_stage3(
            self.node_id, self.window_id, candidates, sketches, self.params.le_len
        )

    def master_structure_bytes(self) -> int:
        return self.cube_config.nbytes + self.params.lea_bytes
