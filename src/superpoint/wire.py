"""Byte-exact payload formats for the three protocol stages.

Everything is fixed little-endian so payloads are bit-identical across
platforms. Common header: magic "READ", version, stage, node id, window
id. Stage 1 carries the merged-ready rough-estimator cube, stage 2 the
candidate broadcast, stage 3 the per-candidate linear estimators.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .estimators import LinearEstimator
from .learray import CandidateLE
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


def stage1_header_len(cfg: RECubeConfig) -> int:
    return HEADER_LEN + 2 + 2 * cfg.u


def stage1_size(cfg: RECubeConfig) -> int:
    return stage1_header_len(cfg) + cfg.nbytes


def encode_stage1(node_id: int, window_id: int, cube: RECube) -> bytes:
    cfg = cube.config
    geom = struct.pack(
        f"<BB{cfg.u}B{cfg.u}B", cfg.r, cfg.u, *cfg.l, *cfg.s
    )
    return b"".join(
        (_pack_header(STAGE_CUBE, node_id, window_id), geom, cube.cells)
    )


def decode_stage1(data: bytes) -> tuple[PayloadHeader, RECube]:
    """Decode a stage-1 payload; the cube is a read-only view of `data`."""
    header = _unpack_header(data, STAGE_CUBE)
    r, u = _unpack("<BB", data, HEADER_LEN)
    widths_offsets = _unpack(f"<{2 * u}B", data, HEADER_LEN + 2)
    cfg = RECubeConfig(r=r, l=widths_offsets[:u], s=widths_offsets[u:])
    _check_size(data, stage1_size(cfg))
    cube = RECube.from_cell_bytes(cfg, memoryview(data)[stage1_header_len(cfg) :])
    return header, cube


# -- stage 2: candidate broadcast ----------------------------------------


def stage2_size(w: int) -> int:
    return HEADER_LEN + 4 + 4 * w


def encode_stage2(window_id: int, candidates: list[int]) -> bytes:
    body = struct.pack(f"<I{len(candidates)}I", len(candidates), *candidates)
    return _pack_header(STAGE_CANDIDATES, COORDINATOR_ID, window_id) + body


def decode_stage2(data: bytes) -> tuple[PayloadHeader, list[int]]:
    header = _unpack_header(data, STAGE_CANDIDATES)
    (w,) = _unpack("<I", data, HEADER_LEN)
    _check_size(data, stage2_size(w))
    candidates = list(struct.unpack_from(f"<{w}I", data, HEADER_LEN + 4))
    return header, candidates


# -- stage 3: per-candidate linear estimators ----------------------------


def stage3_header_len() -> int:
    return HEADER_LEN + 8


def stage3_size(w: int, le_len: int) -> int:
    return stage3_header_len() + w * (4 + le_len // 8)


def encode_stage3(
    node_id: int, window_id: int, records: list[CandidateLE], le_len: int
) -> bytes:
    parts = [
        _pack_header(STAGE_CANDIDATE_LES, node_id, window_id),
        struct.pack("<II", len(records), le_len),
    ]
    for record in records:
        if record.le.nbits != le_len:
            raise ValueError(
                f"record length {record.le.nbits} != payload le_len {le_len}"
            )
        parts.append(struct.pack("<I", record.candidate))
        parts.append(record.le.to_bytes())
    return b"".join(parts)


def decode_stage3(data: bytes) -> tuple[PayloadHeader, list[CandidateLE], int]:
    header = _unpack_header(data, STAGE_CANDIDATE_LES)
    w, le_len = _unpack("<II", data, HEADER_LEN)
    if le_len < 8 or le_len & (le_len - 1):
        raise ValueError(f"le_len must be a power of two >= 8, got {le_len}")
    _check_size(data, stage3_size(w, le_len))
    offset = stage3_header_len()
    le_bytes = le_len // 8
    records = []
    for _ in range(w):
        (candidate,) = struct.unpack_from("<I", data, offset)
        offset += 4
        le = LinearEstimator.from_bytes(data[offset : offset + le_bytes], le_len)
        offset += le_bytes
        records.append(CandidateLE(candidate, le))
    return header, records, le_len
