"""Byte-exact payload formats for the three protocol stages.

Everything is fixed little-endian so payloads are bit-identical across
platforms. Common header: magic "READ", version, stage, node id, window
id. Stage 1 carries the merged-ready rough-estimator cube, stage 2 the
candidate broadcast, stage 3 the per-candidate linear estimators. A
node's payload moves as chunks: its header, then at stage 1 the cells of
its cube, at stage 3 blocks of whole records, one per range of
candidates that the coordinator asks for.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .recube import RECube, RECubeConfig

MAGIC = b"READ"
VERSION = 1

STAGE_CUBE = 1
STAGE_CANDIDATES = 2
STAGE_CANDIDATE_LES = 3

#: node id used for coordinator-originated payloads
COORDINATOR_ID = 0xFFFF

_HEADER = struct.Struct("<4sBBHI")
HEADER_LEN = _HEADER.size  # 12 bytes


@dataclass(frozen=True)
class PayloadHeader:
    stage: int
    node_id: int
    window_id: int


def _pack_header(stage: int, node_id: int, window_id: int) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, stage, node_id, window_id)


def _unpack_header(data: bytes, expected_stage: int) -> PayloadHeader:
    if len(data) < HEADER_LEN:
        raise ValueError(f"payload truncated: {len(data)} bytes")
    magic, version, stage, node_id, window_id = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported version {version}")
    if stage != expected_stage:
        raise ValueError(f"expected stage {expected_stage}, got {stage}")
    return PayloadHeader(stage, node_id, window_id)


def _unpack(fmt: str, data: bytes, offset: int) -> tuple:
    """struct.unpack_from that reports a short payload as ValueError."""
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error as exc:
        raise ValueError(f"payload truncated: {exc}") from None


def _check_size(data: bytes, expected: int) -> None:
    if len(data) != expected:
        raise ValueError(f"expected a {expected}-byte payload, got {len(data)}")


# -- stage 1: rough-estimator cube ---------------------------------------


def stage1_header(node_id: int, window_id: int, cfg: RECubeConfig) -> bytes:
    """The first chunk of a stage-1 payload: the common header, then the
    cube's geometry (r, u, then each row's width l and offset s)."""
    geom = struct.pack(f"<BB{cfg.u}B{cfg.u}B", cfg.r, cfg.u, *cfg.l, *cfg.s)
    return _pack_header(STAGE_CUBE, node_id, window_id) + geom


def decode_stage1(header, cells) -> tuple[PayloadHeader, RECube]:
    """Decode a stage-1 payload from its header chunk and its cells chunk;
    the cube is a read-only view of `cells`."""
    head = _unpack_header(header, STAGE_CUBE)
    r, u = _unpack("<BB", header, HEADER_LEN)
    widths_offsets = _unpack(f"<{2 * u}B", header, HEADER_LEN + 2)
    _check_size(header, HEADER_LEN + 2 + 2 * u)
    cfg = RECubeConfig(r=r, l=widths_offsets[:u], s=widths_offsets[u:])
    cells = np.frombuffer(cells, np.uint8)
    if cells.size != cfg.nbytes:
        raise ValueError(f"expected {cfg.nbytes} bytes of cells, got {cells.size}")
    # a writable buffer (bytearray) must not be changed through the cube
    cells.flags.writeable = False
    return head, RECube(cfg, cells.reshape(1 << r, -1))


# -- stage 2: candidate broadcast ----------------------------------------


def stage2_size(w: int) -> int:
    return HEADER_LEN + 4 + 4 * w


def encode_stage2(window_id: int, candidates) -> bytes:
    body = np.asarray(candidates, dtype="<u4")
    header = _pack_header(STAGE_CANDIDATES, COORDINATOR_ID, window_id)
    return b"".join((header, struct.pack("<I", body.size), body))


def decode_stage2(data) -> tuple[PayloadHeader, np.ndarray]:
    """Decode a stage-2 payload; the candidates are a read-only (w,)
    `<u4` view of `data`."""
    header = _unpack_header(data, STAGE_CANDIDATES)
    (w,) = _unpack("<I", data, HEADER_LEN)
    _check_size(data, stage2_size(w))
    candidates = np.frombuffer(data, "<u4", count=w, offset=HEADER_LEN + 4)
    candidates.flags.writeable = False
    return header, candidates


# -- stage 3: per-candidate linear estimators ----------------------------

#: the common header, then w and le_len
STAGE3_HEADER_LEN = HEADER_LEN + 8


@functools.cache
def _stage3_records(le_len: int) -> np.dtype:
    """One stage-3 record: candidate address, then its packed sketch; built
    once per le_len, as every block of a stream uses it."""
    return np.dtype([("c", "<u4"), ("le", "u1", (le_len // 8,))])


def stage3_header(node_id: int, window_id: int, w: int, le_len: int) -> bytes:
    """The first chunk of a stage-3 payload: the common header, w and le_len."""
    return _pack_header(STAGE_CANDIDATE_LES, node_id, window_id) + struct.pack("<II", w, le_len)


def encode_stage3_block(candidates, sketches: np.ndarray) -> bytearray:
    """A block of stage-3 records: each candidate's address, then its
    packed sketch, row i of the (len(candidates), le_len // 8) uint8
    sketches."""
    record = _stage3_records(8 * sketches.shape[1])
    block = bytearray(len(candidates) * record.itemsize)
    records = np.frombuffer(block, record)
    records["c"] = candidates
    records["le"] = sketches
    return block


def decode_stage3_header(data) -> tuple[PayloadHeader, int, int]:
    """Decode the header chunk of a stage-3 payload into (header, w, le_len)."""
    header = _unpack_header(data, STAGE_CANDIDATE_LES)
    w, le_len = _unpack("<II", data, HEADER_LEN)
    if le_len < 8 or le_len & (le_len - 1):
        raise ValueError(f"le_len must be a power of two >= 8, got {le_len}")
    _check_size(data, STAGE3_HEADER_LEN)
    return header, w, le_len


def decode_stage3_block(data, le_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode a block of stage-3 records into (candidates, sketches), both
    read-only views of `data`: (n,) uint32 and (n, le_len // 8) uint8."""
    record = _stage3_records(le_len)
    if len(data) % record.itemsize:
        raise ValueError(f"block of {len(data)} bytes ends in a partial {record.itemsize}-byte record")
    records = np.frombuffer(data, record)
    # a writable buffer (bytearray) must not be changed through the views
    records.flags.writeable = False
    return records["c"], records["le"]
