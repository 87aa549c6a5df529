"""Observation-node state machine and IP-pair trace I/O.

A node ingests its partition of the pair stream for one window, ends
the window, which folds or seals its grid's log, then answers the three
protocol stages: ship the cube as a header and a read-only view of its
own cells, receive the candidate list, ship the inner-merged
per-candidate estimators as a header and a block for each range of
candidates the coordinator asks for, which any thread may build.

Trace formats: binary records of 12 bytes {a u32 BE, b u32 BE, ts u32 BE},
or CSV lines "a,b[,ts]" in `_CSV_RECORD`'s grammar, parsed once, a fixed
byte chunk at a time, into a binary copy; the window passes read binary
batches of BATCH_RECORDS records. Malformed records are skipped and counted.
"""

from __future__ import annotations

import os
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .estimators import DetectorParams
from .hashing import HashSuite
from .learray import LEArray, fold_due
from .recube import RECube, RECubeConfig, _candidate_cells
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


#: records per `read_trace` batch; kept small because a binary batch is
#: one `read` whose whole buffer is allocated before any byte arrives
BATCH_RECORDS = 1 << 16
CSV_LINE_BYTES = 256  #: bytes of the longest CSV line, its newline not counted

#: a dotted-quad address: four decimal octets 0-255, none with a leading zero
_ADDRESS = re.compile(rb"\.".join([rb"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"] * 4))
#: a CSV record line after the newline before it: at most CSV_LINE_BYTES bytes of
#: ASCII whitespace, "a,b" and an optional ",ts" of 1-10 digits, whitespace
_CSV_RECORD = re.compile(rb"\n(?=[^\n]{0,%d}\n)[ \t\r\v\f]*(%s,%s)(?:,([0-9]{1,10}))?[ \t\r\v\f]*(?=\n)"
                         % (CSV_LINE_BYTES, _ADDRESS.pattern, _ADDRESS.pattern))
_CSV_BLANK = re.compile(rb"\n[ \t\r\v\f]{0,%d}(?=\n)" % CSV_LINE_BYTES)
_SEPARATORS = bytes.maketrans(b".,", b"  ")


def dotted(address: int) -> str:
    return f"{address >> 24 & 255}.{address >> 16 & 255}.{address >> 8 & 255}.{address & 255}"


def parse_dotted(text: str) -> int:
    """The address `text` spells in `_ADDRESS`'s grammar, with nothing around it."""
    if not (text.isascii() and _ADDRESS.fullmatch(text.encode())):
        raise ValueError(f"not a dotted-quad address: {text!r}")
    return int.from_bytes(bytes(map(int, text.split("."))), "big")


#: each octet's decimal digits, left-aligned in 3 bytes padded with NULs
_OCTET_DIGITS = np.array([list(str(i).encode().ljust(3, b"\0")) for i in range(256)], np.uint8)
#: the place value of each of a timestamp's 10 decimal digits
_PLACES = 10 ** np.arange(9, -1, -1, dtype=np.int64)


def write_trace_csv(path, trace: Trace) -> None:
    """Write "a,b,ts" lines, `dotted` addresses and a decimal timestamp.
    Each BATCH_RECORDS records' text is a fixed-width byte matrix of the
    fields, NUL where a field is short, whose NULs are dropped."""
    with open(path, "wb") as fh:
        for lo in range(0, len(trace), BATCH_RECORDS):
            part = trace.take(slice(lo, lo + BATCH_RECORDS))
            text = np.empty((len(part), 43), np.uint8)
            for offset, address in ((0, part.a), (16, part.b)):
                for k in range(4):
                    octet = address >> (24 - 8 * k) & 255
                    text[:, offset + 4 * k : offset + 4 * k + 3] = _OCTET_DIGITS[octet]
                    text[:, offset + 4 * k + 3] = ord("." if k < 3 else ",")
            ts = part.ts.astype(np.int64)[:, None]
            digits = ts // _PLACES % 10 + ord("0")
            digits[:, :-1] *= ts >= _PLACES[:-1]  # no leading zeros; 0 is "0"
            text[:, 32:42] = digits
            text[:, 42] = ord("\n")
            fh.write(text[text != 0].tobytes())


def read_trace(path, start: int = 0, stop: int | None = None):
    """Yield (byte offset, Trace, malformed count) for each batch of at
    most BATCH_RECORDS records of a binary trace file, from byte `start`
    until a batch would begin at or past byte `stop` (None: the end of
    the file). A batch's offset is a valid `start` for a later read."""
    with open(path, "rb") as fh:
        offset = fh.seek(start)
        while stop is None or offset < stop:
            raw = fh.read(12 * BATCH_RECORDS)
            records = np.frombuffer(raw, ">u4", count=len(raw) // 12 * 3).reshape(-1, 3)
            trace = Trace(*records.T.astype(np.uint32, order="C"))
            malformed = int(len(raw) % 12 != 0)  # a partial record ends the file
            if fh.tell() == offset:
                return
            yield offset, trace, malformed
            offset = fh.tell()


def read_trace_csv(path):
    """Yield (Trace, malformed count) per 12 * BATCH_RECORDS bytes of a CSV
    trace file, a partial last line carried over: at most BATCH_RECORDS
    records, as a record's line takes 16 bytes or more. Of a line longer
    than CSV_LINE_BYTES, only enough is kept to count it malformed."""
    with open(path, "rb") as fh:
        tail = b""
        while chunk := fh.read(12 * BATCH_RECORDS):
            lines = tail + chunk
            cut = lines.rfind(b"\n") + 1
            lines, tail = lines[:cut], lines[cut : cut + CSV_LINE_BYTES + 1]
            yield _parse_csv(lines)
        if tail:
            yield _parse_csv(tail + b"\n")


def _parse_csv(lines: bytes) -> tuple[Trace, int]:
    """(records, malformed count) of whole CSV lines, each ending in a newline."""
    lines = b"\n" + lines  # so that each line follows a newline, as _CSV_RECORD reads it
    found = _CSV_RECORD.findall(lines)
    pairs, ts = zip(*found) if found else ((), ())
    ab = np.fromstring(b" ".join(pairs).translate(_SEPARATORS), np.uint8, sep=" ").reshape(-1, 8).view(">u4")
    ts = np.fromstring(b" 0".join((b"", *ts)), np.int64, sep=" ")  # "0" before each: an absent one reads 0
    trace = Trace(*ab.T, ts).take(np.flatnonzero(ts <= 0xFFFFFFFF))
    n_lines = lines.count(b"\n") - 1
    # a line that did not match may be blank, which is not malformed
    blank = len(_CSV_BLANK.findall(lines)) if len(found) < n_lines else 0
    return trace, n_lines - blank - len(trace)


def window_spans(paths: list[str], window_seconds: int, tmp: str) -> tuple[dict, int]:
    """Map each file to (the binary file the window passes read, {window id:
    its byte span there, for `read_trace`}) and count the malformed records.
    A CSV file is parsed once, here, into a binary copy in `tmp`."""
    spans: dict[str, tuple[str, dict[int, tuple[int, int]]]] = {}
    malformed = 0
    for i, path in enumerate(paths):
        source = path
        if path.endswith(".csv"):
            source = os.path.join(tmp, f"{i}.bin")
            with open(source, "wb") as sink:
                for batch, bad in read_trace_csv(path):
                    malformed += bad
                    write_trace_binary(sink, batch)
        windows: dict[int, tuple[int, int]] = {}
        for offset, batch, bad in read_trace(source):
            malformed += bad
            wids = batch.ts // window_seconds
            lo, hi = (int(wids.min()), int(wids.max())) if len(batch) else (0, -1)
            for wid in [lo] if lo == hi else np.unique(wids).tolist():
                windows[wid] = (windows.get(wid, (offset,))[0], offset + 12 * len(batch))
        spans[path] = (source, windows)
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
        """Fold one window's pair stream into the sketches: the grid logs
        the pairs, or writes them once its log has reached its cap and
        folded; its form is decided at the window end otherwise."""
        self.rec.update_pairs(trace.a, trace.b, self.params.tau, self.hs)
        self.lea.update_pairs(trace.a, trace.b, self.hs)
        self.pairs_scanned += len(trace)
        return self.rec, self.lea

    def end_window(self) -> Iterator[None]:
        """The window-end step, after the last scan, in steps of a grid row:
        fold the grid's log if `learray.fold_due` says so, with this node's
        cube's most >= 3-bit cells in a row as its candidates, else seal it.
        An empty log skips the rule and the sort; a folded or sealed grid
        takes no step."""
        lea = self.lea
        cells = max(k.size for k, _, _ in _candidate_cells(self.rec)) if lea.log_pairs else 0
        if fold_due(cells, lea.log_pairs, lea.u_hat, lea.le_len, lea.key_bytes):
            yield from lea.fold()
        else:
            yield from lea.seal()

    def stage1_payload(self) -> tuple[bytes, memoryview]:
        """The header, then a read-only view of the cube's cells: the next scan changes it."""
        header = wire.stage1_header(self.node_id, self.window_id, self.cube_config)
        return header, memoryview(self.rec.cells.reshape(-1)).toreadonly()

    def stage3_payload(self, candidates) -> tuple[bytes, Callable[[int, int], bytearray]]:
        """The stage-3 payload, the inner-merged estimator of each candidate
        in the given order: its header, and a builder. build(lo, hi) returns
        a new block of the records of candidates lo..hi-1; calls share no
        state, so any thread may build any range. The header, then the
        blocks of consecutive ranges from 0 to w, are the whole payload.
        A window that `end_window` has not ended yet is ended first."""
        deque(self.end_window(), maxlen=0)
        candidates = np.asarray(candidates, dtype=np.uint32)
        header = wire.stage3_header(self.node_id, self.window_id, candidates.size, self.params.le_len)
        reads = self.lea.candidate_reads(candidates, self.hs)  # hashed and settled once per payload

        def build(lo: int, hi: int) -> bytearray:
            # the block is made once its sketches are: a block and the
            # gather's temporaries are never alive together
            sketches = self.lea.extract_candidates([read[lo:hi] for read in reads])
            return wire.encode_stage3_block(candidates[lo:hi], sketches)

        return header, build

    def master_structure_bytes(self) -> int:
        return self.cube_config.nbytes + self.params.lea_bytes
