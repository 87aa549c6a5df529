"""Byte-exact payload formats for the three protocol stages.

Everything is fixed little-endian so payloads are bit-identical across
platforms. Common header: magic "READ", version, stage, node id, window
id. Stage 1 carries the merged-ready rough-estimator cube, stage 2 the
candidate broadcast, stage 3 the per-candidate linear estimators. A
stage-3 payload moves as a stream of chunks: its header, then blocks of
whole records.
"""

from __future__ import annotations

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


def stage1_size(cfg: RECubeConfig) -> int:
    return HEADER_LEN + 2 + 2 * cfg.u + cfg.nbytes  # r, u, l and s, then the cells


def _stage1_header(node_id: int, window_id: int, cfg: RECubeConfig) -> bytes:
    """The bytes that precede the cube's cells."""
    geom = struct.pack(f"<BB{cfg.u}B{cfg.u}B", cfg.r, cfg.u, *cfg.l, *cfg.s)
    return _pack_header(STAGE_CUBE, node_id, window_id) + geom


def stage1_buffer(node_id: int, window_id: int, cfg: RECubeConfig) -> tuple[np.ndarray, RECube]:
    """A stage-1 payload whose cells are those of the empty cube returned
    with it: the payload holds the cube as it fills."""
    header = _stage1_header(node_id, window_id, cfg)
    buf = np.zeros(len(header) + cfg.nbytes, np.uint8)
    buf[: len(header)] = np.frombuffer(header, np.uint8)
    return buf, RECube(cfg, buf[len(header) :].reshape(1 << cfg.r, -1))


def decode_stage1(data: bytes) -> tuple[PayloadHeader, RECube]:
    """Decode a stage-1 payload; the cube is a read-only view of `data`."""
    header = _unpack_header(data, STAGE_CUBE)
    r, u = _unpack("<BB", data, HEADER_LEN)
    widths_offsets = _unpack(f"<{2 * u}B", data, HEADER_LEN + 2)
    cfg = RECubeConfig(r=r, l=widths_offsets[:u], s=widths_offsets[u:])
    _check_size(data, stage1_size(cfg))
    cube = RECube.from_cell_bytes(cfg, memoryview(data)[-cfg.nbytes :])
    return header, cube


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


def stage3_size(w: int, le_len: int) -> int:
    return STAGE3_HEADER_LEN + w * (4 + le_len // 8)


def _stage3_records(le_len: int) -> np.dtype:
    """One stage-3 record: candidate address, then its packed sketch."""
    return np.dtype([("c", "<u4"), ("le", "u1", (le_len // 8,))])


def stage3_header(node_id: int, window_id: int, w: int, le_len: int) -> bytes:
    """The first chunk of a stage-3 payload: the common header, w and le_len."""
    return _pack_header(STAGE_CANDIDATE_LES, node_id, window_id) + struct.pack("<II", w, le_len)


def stage3_block(candidates, le_len: int) -> tuple[bytearray, np.ndarray]:
    """A block of stage-3 records, one per candidate, with the candidate
    column written, and the writable (len(candidates), le_len // 8) view
    of its sketches, for the node to fill in place."""
    candidates = np.asarray(candidates, dtype=np.uint32)
    record = _stage3_records(le_len)
    block = bytearray(candidates.size * record.itemsize)
    records = np.frombuffer(block, record)
    records["c"] = candidates
    return block, records["le"]


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
