"""Oracle tests pinning the array-packed plane encoder to a scalar scan.

``encode_plane`` builds one token array per plane and packs it with
numpy.  :func:`_encode_block` is the plain per-block reference: it walks
the 63 AC slots one by one and writes every symbol through
``HuffmanTable.encode``.  A chain of reference blocks must produce the
same bytes and the same ``bits_written`` as ``encode_plane``, from any
writer state, for both table pairs.
"""

import numpy as np
import pytest

from repro.mjpeg.bitio import BitWriter
from repro.mjpeg.encoder import encode_plane
from repro.mjpeg.huffman import (
    EOB,
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    ZRL,
    encode_magnitude,
    magnitude_category,
)

TABLE_PAIRS = {
    "luma": (STD_DC_LUMA, STD_AC_LUMA),
    "chroma": (STD_DC_CHROMA, STD_AC_CHROMA),
}


def _encode_block(writer, zz, prev_dc, dc_table, ac_table):
    """Scalar single-block encode; returns the block's DC value for the
    next block's difference."""
    dc = int(zz[0])
    diff = dc - prev_dc
    category = magnitude_category(diff)
    dc_table.encode(writer, category)
    encode_magnitude(writer, diff, category)

    run = 0
    last_nonzero = int(np.max(np.nonzero(zz[1:])[0])) + 1 if np.any(zz[1:]) else 0
    for k in range(1, last_nonzero + 1):
        value = int(zz[k])
        if value == 0:
            run += 1
            continue
        while run > 15:
            ac_table.encode(writer, ZRL)
            run -= 16
        category = magnitude_category(value)
        ac_table.encode(writer, (run << 4) | category)
        encode_magnitude(writer, value, category)
        run = 0
    if last_nonzero < 63:
        ac_table.encode(writer, EOB)
    return dc


def _encode_plane_scalar(writer, qzz, dc_table, ac_table):
    prev_dc = 0
    for zz in qzz:
        prev_dc = _encode_block(writer, zz, prev_dc, dc_table, ac_table)


def _edge_blocks():
    """Blocks covering every token shape the packer has to get right."""
    blocks = []
    # Zero runs of 15, 16, 32 and 48 before a coefficient: 0..3 ZRLs.
    for run in (15, 16, 32, 48):
        zz = np.zeros(64, dtype=np.int32)
        zz[1 + run] = -3
        blocks.append(zz)
    # Three ZRLs and then a coefficient in the last slot (run 62).
    zz = np.zeros(64, dtype=np.int32)
    zz[63] = 1
    blocks.append(zz)
    # A nonzero coefficient at zigzag 63 ends the block without an EOB.
    blocks.append(np.arange(1, 65, dtype=np.int32) * (-1) ** np.arange(64))
    # All-zero blocks (DC difference 0, EOB only).
    blocks.extend(np.zeros((2, 64), dtype=np.int32))
    # Maximum categories: DC differences of +/-2047 (11), AC +/-1023 (10).
    for dc, ac in ((2047, 1023), (0, -1023), (-2047, -1), (0, 1)):
        zz = np.zeros(64, dtype=np.int32)
        zz[0] = dc
        zz[1] = ac
        zz[40] = -ac
        blocks.append(zz)
    return np.array(blocks, dtype=np.int32)


def _random_plane(seed):
    """Random sparse blocks around the edge cases, DC differences kept
    within the tables' 11 categories."""
    rng = np.random.default_rng(seed)
    n = 40
    qzz = np.zeros((n, 64), dtype=np.int32)
    qzz[:, 0] = rng.integers(-1023, 1024, size=n)
    for b in range(n):
        k = rng.integers(1, 64, size=int(rng.integers(0, 20)))
        qzz[b, k] = rng.integers(-1023, 1024, size=k.size)
    edges = _edge_blocks()
    at = int(rng.integers(0, n))
    return np.concatenate([qzz[:at], edges, qzz[at:]])


@pytest.mark.parametrize("tables", sorted(TABLE_PAIRS))
@pytest.mark.parametrize("lead_bits", [0, 3])
@pytest.mark.parametrize("seed", [1, 7, 42])
def test_encode_plane_matches_scalar_chain(seed, lead_bits, tables):
    dc_table, ac_table = TABLE_PAIRS[tables]
    qzz = _random_plane(seed)
    fast, ref = BitWriter(), BitWriter()
    for writer in (fast, ref):
        writer.write(0b101, lead_bits)  # not byte-aligned on entry
    encode_plane(fast, qzz, dc_table, ac_table)
    _encode_plane_scalar(ref, qzz, dc_table, ac_table)
    assert fast.getvalue() == ref.getvalue()
    assert fast.bits_written == ref.bits_written


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_planes_chain_through_one_writer(seed):
    # Luma then chroma through one writer, no alignment in between, the
    # way encode_color_image lays out its three planes.
    luma, chroma = _random_plane(seed), _random_plane(seed + 1)[:13]
    fast, ref = BitWriter(), BitWriter()
    encode_plane(fast, luma, STD_DC_LUMA, STD_AC_LUMA)
    encode_plane(fast, chroma, STD_DC_CHROMA, STD_AC_CHROMA)
    _encode_plane_scalar(ref, luma, STD_DC_LUMA, STD_AC_LUMA)
    _encode_plane_scalar(ref, chroma, STD_DC_CHROMA, STD_AC_CHROMA)
    assert fast.getvalue() == ref.getvalue()
    assert fast.bits_written == ref.bits_written


def test_empty_plane_writes_nothing():
    writer = BitWriter()
    encode_plane(writer, np.zeros((0, 64), dtype=np.int32))
    assert writer.bits_written == 0 and writer.getvalue() == b""


@pytest.mark.parametrize("tables", sorted(TABLE_PAIRS))
@pytest.mark.parametrize(
    "position, value",
    [(0, 4095), (0, -2048), (5, 1024), (63, -1500)],
    ids=["dc-cat12", "dc-cat12-neg", "ac-cat11", "ac-cat11-last"],
)
def test_out_of_table_category_raises_like_scalar(tables, position, value):
    dc_table, ac_table = TABLE_PAIRS[tables]
    qzz = np.zeros((3, 64), dtype=np.int32)
    qzz[1, position] = value
    with pytest.raises(ValueError, match="not in table"):
        _encode_plane_scalar(BitWriter(), qzz, dc_table, ac_table)
    writer = BitWriter()
    with pytest.raises(ValueError, match="not in table"):
        encode_plane(writer, qzz, dc_table, ac_table)
    assert writer.bits_written == 0  # nothing written before the check
