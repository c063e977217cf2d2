"""Baseline JPEG-style encoder for synthetic MJPEG streams.

Grayscale, 8x8 blocks, Annex K luminance tables, DC differential +
run-length AC coding -- a real entropy-coded segment, so the Fetch
component's Huffman decode exercises a genuine bitstream.  The container
is our own (no JFIF markers): each frame record carries its bit payload
plus geometry, which is all the decoder needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.mjpeg.bitio import BitWriter
from repro.mjpeg.color import rgb_to_ycbcr, subsample_420
from repro.mjpeg.dct import fdct_blocks
from repro.mjpeg.huffman import (
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    ZRL,
)
from repro.mjpeg.quant import quant_table, quantize
from repro.mjpeg.zigzag import zigzag


def image_to_blocks(image: np.ndarray) -> np.ndarray:
    """(H, W) -> (H//8 * W//8, 8, 8), raster block order."""
    image = np.asarray(image)
    h, w = image.shape
    if h % 8 or w % 8:
        raise ValueError(f"image dimensions must be multiples of 8, got {image.shape}")
    return (
        image.reshape(h // 8, 8, w // 8, 8).swapaxes(1, 2).reshape(-1, 8, 8)
    )


def blocks_to_image(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`image_to_blocks`."""
    blocks = np.asarray(blocks)
    if height % 8 or width % 8:
        raise ValueError(f"dimensions must be multiples of 8: {(height, width)}")
    n = (height // 8) * (width // 8)
    if blocks.shape != (n, 8, 8):
        raise ValueError(f"expected {(n, 8, 8)}, got {blocks.shape}")
    return (
        blocks.reshape(height // 8, width // 8, 8, 8).swapaxes(1, 2).reshape(height, width)
    )


@dataclass
class EncodedFrame:
    """One encoded image: bit payload + everything needed to decode it."""

    payload: bytes
    n_bits: int
    height: int
    width: int
    quality: int
    n_blocks: int
    #: Quantized zigzag coefficients (n_blocks, 64) -- retained so the
    #: cost-model-only decode path can skip the Python-level bit walk.
    qcoefs_zz: np.ndarray


def encode_image(image: np.ndarray, quality: int = 75) -> EncodedFrame:
    """Encode a grayscale uint8 image into an entropy-coded segment."""
    image = np.asarray(image)
    if image.dtype != np.uint8:
        raise ValueError(f"expected uint8 image, got {image.dtype}")
    h, w = image.shape
    blocks = image_to_blocks(image).astype(np.float64) - 128.0
    table = quant_table(quality)
    qblocks = quantize(fdct_blocks(blocks), table)
    qzz = zigzag(qblocks)  # (n_blocks, 64), int32

    writer = BitWriter()
    encode_plane(writer, qzz)
    writer.align()  # 1-pad the tail byte here, not in getvalue()
    payload = writer.getvalue()
    return EncodedFrame(
        payload=payload,
        n_bits=writer.bits_written,
        height=h,
        width=w,
        quality=quality,
        n_blocks=qzz.shape[0],
        qcoefs_zz=qzz.astype(np.int16),
    )


def encode_plane(
    writer: BitWriter,
    qzz: np.ndarray,
    dc_table=STD_DC_LUMA,
    ac_table=STD_AC_LUMA,
) -> None:
    """Encode one plane's (n, 64) quantized zigzag blocks with its own DC
    predictor chain and Huffman tables.

    The plane becomes one token array over a grid of 65 slots per block,
    in ``block * 65 + slot`` order.  Slot 0 holds the DC code and
    magnitude bits.  Slot k in 1..63 holds, for a nonzero coefficient at
    zigzag position k, the ZRL codes of its zero run (at most three), its
    run/size code and its magnitude bits.  Slot 64 holds the EOB code of
    a block whose last coefficient is zero.  Every token is built with
    whole-plane numpy ops and the array is packed by one
    :meth:`BitWriter.write_many` call, so no Python code runs per symbol.
    A symbol missing from a table raises ``ValueError`` before anything
    is written.
    """
    qzz = np.asarray(qzz)
    n_blocks = qzz.shape[0]
    if n_blocks == 0:
        return
    # Slot values: the DC difference, the AC coefficients, 0 for EOB.
    grid = np.zeros((n_blocks, 65), dtype=np.int64)
    grid[:, :64] = qzz
    grid[1:, 0] -= qzz[:-1, 0]
    occupied = grid != 0
    occupied[:, 0] = True
    occupied[:, 64] = qzz[:, 63] == 0
    tokens = np.flatnonzero(occupied)
    slot = tokens % 65
    size, bits = _magnitudes(grid.ravel()[tokens])
    # Every AC token follows its block's DC token or previous AC token.
    run = slot - np.roll(slot, 1) - 1
    is_dc = slot == 0
    run[is_dc | (slot == 64)] = 0
    symbol = ((run & 15) << 4) | size  # the DC symbol is its size; EOB is 0x00
    dc_codes, dc_lengths = dc_table.code_arrays
    ac_codes, ac_lengths = ac_table.code_arrays
    length = np.where(is_dc, dc_lengths[symbol], ac_lengths[symbol])
    missing = np.flatnonzero(length == 0)
    if missing.size:
        i = missing[0]
        table = dc_table if is_dc[i] else ac_table
        raise ValueError(f"symbol {int(symbol[i]):#x} not in table {table.name!r}")
    code = np.where(is_dc, dc_codes[symbol], ac_codes[symbol])
    n_zrl = run >> 4
    if n_zrl.any():
        zrl_length = int(ac_lengths[ZRL])
        if not zrl_length:
            raise ValueError(f"symbol {ZRL:#x} not in table {ac_table.name!r}")
        zrl_code = int(ac_codes[ZRL])
        prefix = np.array([sum(zrl_code << (zrl_length * i) for i in range(n)) for n in range(4)])
        code |= prefix[n_zrl] << length
        length += n_zrl * zrl_length
    writer.write_many((code << size) | bits, length + size)


def _magnitudes(v: np.ndarray):
    """JPEG magnitude category and additional bits of every value."""
    size = np.frexp(np.abs(v))[1].astype(np.int64)  # |v|.bit_length()
    return size, (v - (v < 0)) & ((1 << size) - 1)


@dataclass
class EncodedColorFrame:
    """One encoded 4:2:0 color image: three planar entropy segments."""

    payload: bytes
    n_bits: int
    height: int
    width: int
    quality: int
    #: (plane, n_blocks, bit_offset) in Y, Cb, Cr order.  bit_offset is
    #: the starting bit of the plane's segment inside ``payload``.
    plane_index: tuple


def _plane_to_qzz(plane: np.ndarray, table: np.ndarray) -> np.ndarray:
    blocks = image_to_blocks_float(plane) - 128.0
    return zigzag(quantize(fdct_blocks(blocks), table))


def image_to_blocks_float(plane: np.ndarray) -> np.ndarray:
    """(H, W) float plane -> (n, 8, 8) blocks (same layout as
    :func:`image_to_blocks` but without the uint8 requirement)."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    if h % 8 or w % 8:
        raise ValueError(f"plane dimensions must be multiples of 8, got {plane.shape}")
    return plane.reshape(h // 8, 8, w // 8, 8).swapaxes(1, 2).reshape(-1, 8, 8)


def encode_color_image(rgb: np.ndarray, quality: int = 75) -> EncodedColorFrame:
    """Encode an (H, W, 3) uint8 RGB image as planar 4:2:0 YCbCr.

    Dimensions must be multiples of 16 (so the subsampled chroma planes
    still align to 8x8 blocks).  Planes are entropy-coded back to back
    (Y with the luminance tables, Cb/Cr with the chrominance tables),
    each with its own DC predictor -- the planar analogue of a baseline
    JFIF scan.
    """
    rgb = np.asarray(rgb)
    if rgb.dtype != np.uint8:
        raise ValueError(f"expected uint8 RGB image, got {rgb.dtype}")
    h, w = rgb.shape[:2]
    if h % 16 or w % 16:
        raise ValueError(f"color images need dimensions divisible by 16, got {(h, w)}")
    ycc = rgb_to_ycbcr(rgb)
    y_plane = ycc[..., 0]
    cb = subsample_420(ycc[..., 1])
    cr = subsample_420(ycc[..., 2])

    luma_q = quant_table(quality, chroma=False)
    chroma_q = quant_table(quality, chroma=True)
    writer = BitWriter()
    index = []
    for plane, table, dc_t, ac_t in (
        (y_plane, luma_q, STD_DC_LUMA, STD_AC_LUMA),
        (cb, chroma_q, STD_DC_CHROMA, STD_AC_CHROMA),
        (cr, chroma_q, STD_DC_CHROMA, STD_AC_CHROMA),
    ):
        qzz = _plane_to_qzz(plane, table)
        index.append((qzz.shape[0], writer.bits_written))
        encode_plane(writer, qzz, dc_t, ac_t)
    writer.align()  # 1-pad the tail byte here, not in getvalue()
    payload = writer.getvalue()
    return EncodedColorFrame(
        payload=payload,
        n_bits=writer.bits_written,
        height=h,
        width=w,
        quality=quality,
        plane_index=(
            ("Y", index[0][0], index[0][1]),
            ("Cb", index[1][0], index[1][1]),
            ("Cr", index[2][0], index[2][1]),
        ),
    )
