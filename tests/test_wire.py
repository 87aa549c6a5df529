import functools
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import decode_stage3, encode_stage1, encode_stage3, same_sketch

from superpoint import wire
from superpoint.hashing import HashSuite
from superpoint.recube import RECube, RECubeConfig, rec_merge_outer

CFG = RECubeConfig(r=2, l=(6,) * 8, s=(0, 4, 8, 12, 16, 20, 24, 28))
HS = HashSuite(31337)


def _populated_cube(cube=None):
    rng = np.random.default_rng(20)
    cube = RECube(CFG) if cube is None else cube
    cube.update_pairs(
        rng.integers(0, 2**32, 2000, dtype=np.uint32),
        rng.integers(0, 2**32, 2000, dtype=np.uint32),
        0.0,
        HS,
    )
    return cube


def test_header_layout_golden_bytes():
    payload = wire.encode_stage2(window_id=7, candidates=[])
    # magic, version=1, stage=2, node_id=0xFFFF LE, window_id=7 LE, w=0
    assert payload == b"READ" + bytes([1, 2, 0xFF, 0xFF, 7, 0, 0, 0, 0, 0, 0, 0])


def test_stage1_round_trip_and_size():
    cube = _populated_cube()
    payload = encode_stage1(node_id=3, window_id=9, cube=cube)
    assert len(payload) == wire.stage1_size(CFG)
    assert len(payload) == 12 + 2 + 2 * CFG.u + CFG.nbytes
    header, decoded = wire.decode_stage1(payload)
    assert (header.stage, header.node_id, header.window_id) == (1, 3, 9)
    assert same_sketch(decoded, cube)


def test_stage1_size_at_default_geometry():
    cfg = RECubeConfig(r=6, l=(14, 14, 14), s=(0, 10, 20))
    assert wire.stage1_size(cfg) == 20 + 3 * 2**20


def test_stage2_round_trip_and_size():
    cands = [0, 1, 0xFFFFFFFF, 395429206]
    payload = wire.encode_stage2(window_id=2, candidates=cands)
    assert len(payload) == wire.stage2_size(4) == 12 + 4 + 16
    header, decoded = wire.decode_stage2(payload)
    assert header.node_id == wire.COORDINATOR_ID
    assert decoded.dtype == np.dtype("<u4")
    assert decoded.tolist() == cands
    assert not decoded.flags.writeable


def test_stage3_round_trip_and_size():
    le_len = 64
    candidates = np.array([10, 11], np.uint32)
    sketches = np.array(
        [[0b1010, 0, 0, 0, 0, 0, 0, 0], [0xFF] * 8], np.uint8
    )
    header = wire.stage3_header(5, 1, 2, le_len)
    block, les = wire.stage3_block(candidates, le_len)
    assert les.shape == (2, 8) and not les.any()
    les[:] = sketches  # the view writes into the block's records
    payload = header + block
    assert len(header) == wire.STAGE3_HEADER_LEN
    assert len(payload) == wire.stage3_size(2, le_len) == 12 + 8 + 2 * (4 + 8)
    # each record is the little-endian address, then the sketch bytes
    assert payload[20:32] == struct.pack("<I", 10) + sketches[0].tobytes()
    assert payload == encode_stage3(5, 1, candidates, sketches, le_len)
    got_header, w, got_le_len = wire.decode_stage3_header(header)
    assert (got_header.node_id, got_header.window_id, w, got_le_len) == (5, 1, 2, le_len)
    got_candidates, got_sketches = wire.decode_stage3_block(block, le_len)
    assert got_candidates.tolist() == [10, 11]
    assert got_sketches.shape == (2, 8)
    assert np.array_equal(got_sketches, sketches)
    empty, les = wire.stage3_block([], le_len)
    assert les.shape == (0, 8)
    _, got_candidates, got_sketches = decode_stage3(wire.stage3_header(5, 1, 0, le_len) + empty)
    assert got_candidates.size == 0 and got_sketches.shape == (0, 8)


def test_stage3_decode_is_read_only_view():
    block, les = wire.stage3_block([1, 2], 64)
    les[:] = np.arange(16, dtype=np.uint8).reshape(2, 8)
    before = bytes(block)
    candidates, decoded = wire.decode_stage3_block(block, 64)
    for view in (candidates, decoded):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view |= 1
    assert bytes(block) == before


def test_stage3_size_formula_at_default_length():
    # w records at |C| = 2^14: 4-byte address + 2048-byte bit vector each
    assert wire.stage3_size(0, 2**14) == 20
    assert wire.stage3_size(100, 2**14) == 20 + 100 * 2052


def test_stage3_rejects_wrong_record_length():
    # the reference encoder, which the coordinator tests fake payloads with
    with pytest.raises(ValueError):
        encode_stage3(0, 0, [1], np.zeros((1, 4), np.uint8), 64)
    with pytest.raises(ValueError):
        encode_stage3(0, 0, [1, 2], np.zeros((1, 8), np.uint8), 64)


def test_decode_rejects_corruption():
    cube = _populated_cube()
    payload = encode_stage1(0, 0, cube)
    with pytest.raises(ValueError):
        wire.decode_stage1(b"JUNK" + payload[4:])
    with pytest.raises(ValueError):
        wire.decode_stage1(bytes([99]) + payload[1:])  # bad magic
    with pytest.raises(ValueError):
        wire.decode_stage1(payload[:8])  # truncated header
    with pytest.raises(ValueError):
        wire.decode_stage1(payload[:-1])  # truncated cells
    with pytest.raises(ValueError):
        wire.decode_stage2(payload)  # wrong stage
    bad_version = payload[:4] + bytes([9]) + payload[5:]
    with pytest.raises(ValueError):
        wire.decode_stage1(bad_version)


def test_payloads_are_deterministic():
    first, second = wire.stage1_buffer(1, 2, CFG), wire.stage1_buffer(1, 2, CFG)
    for _, cube in (first, second):
        _populated_cube(cube)
    assert np.array_equal(first[0], second[0])


DEFAULT_CFG = RECubeConfig(r=6, l=(14, 14, 14), s=(0, 10, 20))


def _default_geometry_cube(cube):
    rng = np.random.default_rng(21)
    cube.update_pairs(
        rng.integers(0, 2**32, 200_000, dtype=np.uint32),
        rng.integers(0, 2**32, 200_000, dtype=np.uint32),
        2.0,
        HS,
    )
    return cube


def test_stage1_golden_digests():
    # digests of the plane-major layout; any change to the cell order,
    # the geometry header or the scan shows up here. The payload a cube
    # fills in place is the reference encoder's bytes of that cube.
    small, cube = wire.stage1_buffer(node_id=3, window_id=9, cfg=CFG)
    _populated_cube(cube)
    assert hashlib.sha256(small).hexdigest() == (
        "b1e89fc9a50db99b332e240134f81f6921605d073dd4bb3a17033c18d3679306"
    )
    assert small.tobytes() == encode_stage1(3, 9, cube)
    default, cube = wire.stage1_buffer(node_id=1, window_id=4, cfg=DEFAULT_CFG)
    _default_geometry_cube(cube)
    assert hashlib.sha256(default).hexdigest() == (
        "7bba4c9b6a0fcd01a3ddc89674cd31a8ca7ace2fdd9c3c4cc6f3c66be5e1fee3"
    )
    assert default.tobytes() == encode_stage1(1, 4, cube)


def test_merge_does_not_write_through_decoded_payloads():
    first = _populated_cube()
    second = RECube(CFG)
    second.update_pairs(
        np.arange(500, dtype=np.uint32), np.arange(500, dtype=np.uint32), 0.0, HS
    )
    # bytes and a writable bytearray: neither may change under the merge
    payloads = [
        encode_stage1(0, 1, first),
        bytearray(encode_stage1(1, 1, second)),
    ]
    digests = [hashlib.sha256(p).digest() for p in payloads]
    decoded = [wire.decode_stage1(p)[1] for p in payloads]
    snapshots = [cube.cells.copy() for cube in decoded]

    merged = rec_merge_outer(decoded)
    merged.update_pairs(
        np.arange(10_000, 12_000, dtype=np.uint32),
        np.arange(2000, dtype=np.uint32),
        0.0,
        HS,
    )
    merged.cells |= 0x80

    assert [hashlib.sha256(p).digest() for p in payloads] == digests
    assert all(np.array_equal(cube.cells, cells) for cube, cells in zip(decoded, snapshots))
    with pytest.raises(ValueError):
        decoded[1].rows[0][0, 0] = 0xFF  # decoded cubes are read-only


def _stage3_payload(w, le_len):
    return wire._pack_header(wire.STAGE_CANDIDATE_LES, 0, 0) + struct.pack(
        "<II", w, le_len
    ) + bytes(w * (4 + le_len // 8))


def _stage1_payload():
    return encode_stage1(0, 0, _populated_cube())


@pytest.mark.parametrize(
    "decode, payload",
    [
        pytest.param(wire.decode_stage1, lambda: _stage1_payload()[:13], id="stage1-geometry-cut"),
        pytest.param(wire.decode_stage1, lambda: _stage1_payload()[:20], id="stage1-rows-cut"),
        pytest.param(wire.decode_stage1, lambda: _stage1_payload() + b"\0", id="stage1-trailing"),
        pytest.param(wire.decode_stage2, lambda: wire.encode_stage2(0, [1, 2])[:14], id="stage2-count-cut"),
        pytest.param(wire.decode_stage2, lambda: wire.encode_stage2(0, [1, 2])[:-1], id="stage2-truncated"),
        pytest.param(wire.decode_stage2, lambda: wire.encode_stage2(0, [1, 2]) + b"\0", id="stage2-trailing"),
        pytest.param(decode_stage3, lambda: _stage3_payload(2, 64)[:16], id="stage3-header-cut"),
        pytest.param(decode_stage3, lambda: _stage3_payload(2, 64)[:-1], id="stage3-truncated"),
        pytest.param(decode_stage3, lambda: _stage3_payload(2, 64) + b"\0", id="stage3-trailing"),
        pytest.param(decode_stage3, lambda: _stage3_payload(0, 12), id="stage3-le-len-12"),
        pytest.param(decode_stage3, lambda: _stage3_payload(0, 4), id="stage3-le-len-4"),
        pytest.param(decode_stage3, lambda: _stage3_payload(0, 0), id="stage3-le-len-0"),
        # the chunk decoders the coordinator reads a stage-3 stream with
        pytest.param(wire.decode_stage3_header, lambda: _stage3_payload(1, 64), id="stage3-header-with-records"),
        pytest.param(functools.partial(wire.decode_stage3_block, le_len=64), lambda: bytes(11), id="stage3-block-partial"),
    ],
)
def test_decoders_raise_only_value_error(decode, payload):
    with pytest.raises(ValueError):
        decode(payload())


@functools.cache
def _valid_payloads():
    """A valid payload of each stage, empty ones included."""
    sketches = np.arange(24, dtype=np.uint8).reshape(3, 8)
    return [
        _stage1_payload(),
        wire.encode_stage2(4, [3, 1, 0xFFFFFFFF]),
        wire.encode_stage2(4, []),
        encode_stage3(2, 4, [5, 6, 7], sketches, 64),
        encode_stage3(2, 4, [], np.zeros((0, 8), np.uint8), 64),
    ]


@st.composite
def _damaged_payloads(draw):
    """Random bytes, a random body behind a valid header, a truncation,
    trailing bytes, or up to four byte flips (biased to the header and
    geometry bytes) of a valid payload."""
    payload = draw(st.sampled_from(_valid_payloads()))
    kind = draw(st.sampled_from(["random", "body", "cut", "append", "flip"]))
    if kind == "random":
        return draw(st.binary(max_size=64))
    if kind == "body":
        return payload[: wire.HEADER_LEN] + draw(st.binary(max_size=64))
    if kind == "cut":
        return payload[: draw(st.integers(0, len(payload) - 1))]
    if kind == "append":
        return payload + draw(st.binary(min_size=1, max_size=16))
    damaged = bytearray(payload)
    last = len(payload) - 1
    position = st.one_of(st.integers(0, min(31, last)), st.integers(0, last))
    for index, mask in draw(st.lists(st.tuples(position, st.integers(1, 255)), min_size=1, max_size=4)):
        damaged[index] ^= mask
    return bytes(damaged)


@settings(max_examples=500, deadline=None)
@given(payload=_damaged_payloads())
def test_decoders_raise_only_value_error_on_fuzzed_payloads(payload):
    # a stage-3 payload is also read as the coordinator reads it: the
    # header chunk, then the rest as one block at the header's le_len
    # (64 when the header does not decode)
    head, rest = payload[: wire.STAGE3_HEADER_LEN], payload[wire.STAGE3_HEADER_LEN :]
    le_len = 64
    try:
        _, _, le_len = wire.decode_stage3_header(head)
    except ValueError:
        pass
    for decode, data in (
        (wire.decode_stage1, payload),
        (wire.decode_stage2, payload),
        (decode_stage3, payload),
        (functools.partial(wire.decode_stage3_block, le_len=le_len), rest),
    ):
        try:
            decode(data)
        except ValueError:
            pass
