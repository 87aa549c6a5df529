"""Observation-node state machine and IP-pair trace I/O.

A node ingests its partition of the pair stream for one window, then
answers the three protocol stages: ship the cube as a header and a
read-only view of its own cells, receive the candidate list, ship the
inner-merged per-candidate estimators as a header and a block for each
range of candidates the coordinator asks for, which any thread may
build.

Trace formats: binary records of 12 bytes {a u32 BE, b u32 BE, ts u32 BE},
or CSV lines "a_dotted,b_dotted[,ts]". Both are read in batches of at
most BATCH_RECORDS records; malformed records, such as a CSV address
field that holds whitespace, are skipped and counted, never fatal.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import socket
import struct
from dataclasses import dataclass
from typing import Callable

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
    np.column_stack((trace.a, trace.b, trace.ts)).astype(">u4").tofile(path)


def dotted(address: int) -> str:
    return socket.inet_ntoa(struct.pack("!I", address & 0xFFFFFFFF))


def parse_dotted(text: str) -> int:
    """The address of exactly four decimal octets 0-255, none with a
    leading zero, and nothing around them; `inet_aton` would also take
    `010.1.0.1` (octal), `10.1` and `10.1.0.1 junk`."""
    try:
        octets = bytes(int(part) for part in text.split("."))
    except ValueError:
        octets = b""
    if len(octets) != 4 or ".".join(map(str, octets)) != text:
        raise ValueError(f"not a dotted-quad address: {text!r}")
    return int.from_bytes(octets, "big")


def write_trace_csv(path, trace: Trace) -> None:
    with open(path, "w") as fh:
        for a, b, t in zip(trace.a.tolist(), trace.b.tolist(), trace.ts.tolist()):
            fh.write(f"{dotted(a)},{dotted(b)},{t}\n")


#: records per `read_trace` batch; kept small because a binary batch is
#: one `read` whose whole buffer is allocated before any byte arrives
BATCH_RECORDS = 1 << 16


def read_trace(path, start: int = 0, stop: int | None = None):
    """Yield (byte offset, Trace, malformed count) for each batch of at
    most BATCH_RECORDS records of a .bin or .csv trace file, from byte
    `start` until a batch would begin at or past byte `stop` (None: the
    end of the file). A batch's offset is a valid `start` for a later read."""
    with open(path, "rb") as fh:
        offset = fh.seek(start)
        while stop is None or offset < stop:
            if str(path).endswith(".csv"):
                trace, malformed = _parse_csv(list(itertools.islice(fh, BATCH_RECORDS)))
            else:
                raw = fh.read(12 * BATCH_RECORDS)
                records = np.frombuffer(raw, ">u4", count=len(raw) // 12 * 3).reshape(-1, 3)
                trace = Trace(*records.T.astype(np.uint32, order="C"))
                malformed = int(len(raw) % 12 != 0)  # a partial record ends the file
            if fh.tell() == offset:
                return
            yield offset, trace, malformed
            offset = fh.tell()


def _parse_csv(lines: list[bytes]) -> tuple[Trace, int]:
    """Parse CSV lines; blank lines are skipped, malformed ones counted. A
    line's leading and trailing whitespace is stripped; an address field
    that holds whitespace is malformed."""
    addresses = bytearray()  # a then b of each record, 4 big-endian bytes each
    ts: list[int] = []
    malformed = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            a, b, *rest = line.decode().strip().split(",")
            if len(rest) > 1:
                raise ValueError("more than three fields")
            t = int(rest[0]) if rest else 0
            if not 0 <= t <= 0xFFFFFFFF:
                raise ValueError("timestamp out of uint32 range")
            # inet_aton stops at whitespace, so "1.2.3.4 junk" would read as 1.2.3.4
            if a.split() != [a] or b.split() != [b]:
                raise ValueError("whitespace in an address field")
            pair = socket.inet_aton(a) + socket.inet_aton(b)
        except (ValueError, OSError):
            malformed += 1
            continue
        addresses += pair
        ts.append(t)
    ab = np.frombuffer(addresses, ">u4").reshape(-1, 2)
    return Trace(ab[:, 0], ab[:, 1], ts), malformed


def window_spans(paths: list[str], window_seconds: int, tmp: str) -> tuple[dict, int]:
    """Map each file to (the binary file the window passes read, {window id:
    its byte span there, for `read_trace`}) and count the malformed records.
    A CSV file is parsed once, here, into a binary copy in `tmp`."""
    spans: dict[str, tuple[str, dict[int, tuple[int, int]]]] = {}
    malformed = 0
    for i, path in enumerate(paths):
        copy = os.path.join(tmp, f"{i}.bin") if path.endswith(".csv") else None
        windows: dict[int, tuple[int, int]] = {}
        with open(copy, "wb") if copy else contextlib.nullcontext() as sink:
            for offset, batch, bad in read_trace(path):
                malformed += bad
                if sink is not None:
                    offset = sink.tell()
                    write_trace_binary(sink, batch)
                wids = batch.ts // window_seconds
                lo, hi = (int(wids.min()), int(wids.max())) if len(batch) else (0, -1)
                for wid in [lo] if lo == hi else np.unique(wids).tolist():
                    windows[wid] = (windows.get(wid, (offset,))[0], offset + 12 * len(batch))
        spans[path] = (copy or path, windows)
    return spans, malformed


def window_pairs(path: str, windows: dict, window_id: int, window_seconds: int):
    """Yield, batch by batch, one window's records from a `window_spans` span."""
    for _, batch, _ in read_trace(path, *windows.get(window_id, (0, 0))):
        inside = batch.ts // window_seconds == window_id
        # a batch wholly inside the window, as every batch of a one-window
        # file is, goes through uncopied
        yield batch if inside.all() else batch.take(np.flatnonzero(inside))


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
        # a payload's id field is 16 bits and 0xFFFF is the coordinator's
        if not 0 <= node_id < wire.COORDINATOR_ID:
            raise ValueError(
                f"node_id must be in 0..{wire.COORDINATOR_ID - 1:#x}, got {node_id:#x}"
            )
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
        self.rec = self.lea = None  # freed first, so a node never holds two sets of sketches
        try:
            self.rec = RECube(self.cube_config)
            self.lea = LEArray(self.params.u_hat, self.params.v_hat, self.params.le_len)
        except MemoryError:
            p = self.params
            raise ValueError(
                f"cannot allocate {self.master_structure_bytes()} bytes of sketches per node "
                f"(u_hat={p.u_hat}, v_hat={p.v_hat}, le_len={p.le_len})"
            ) from None
        self.pairs_scanned = 0

    def scan_window(self, trace: Trace) -> tuple[RECube, LEArray]:
        """Fold one window's pair stream into the sketches."""
        self.rec.update_pairs(trace.a, trace.b, self.params.tau, self.hs)
        self.lea.update_pairs(trace.a, trace.b, self.hs)
        self.pairs_scanned += len(trace)
        return self.rec, self.lea

    def stage1_payload(self) -> tuple[bytes, memoryview]:
        """The header, then a read-only view of the cube's cells: the next scan changes it."""
        header = wire.stage1_header(self.node_id, self.window_id, self.cube_config)
        return header, memoryview(self.rec.cells.reshape(-1)).toreadonly()

    def stage3_payload(self, candidates) -> tuple[bytes, Callable[[int, int], bytearray]]:
        """The stage-3 payload, the inner-merged estimator of each candidate
        in the given order: its header, and a builder. build(lo, hi) returns
        a new block of the records of candidates lo..hi-1; calls share no
        state, so any thread may build any range. The header, then the
        blocks of consecutive ranges from 0 to w, are the whole payload."""
        candidates = np.asarray(candidates, dtype=np.uint32)
        header = wire.stage3_header(self.node_id, self.window_id, candidates.size, self.params.le_len)
        cols = self.lea.candidate_columns(candidates, self.hs)  # hashed once per payload

        def build(lo: int, hi: int) -> bytearray:
            # the block is made once its sketches are: a block and the
            # gather's temporaries are never alive together
            sketches = self.lea.extract_candidates([col[lo:hi] for col in cols])
            return wire.encode_stage3_block(candidates[lo:hi], sketches)

        return header, build

    def master_structure_bytes(self) -> int:
        return self.cube_config.nbytes + self.params.lea_bytes
