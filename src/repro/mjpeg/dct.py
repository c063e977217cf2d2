"""8x8 type-II/III DCT, vectorised over batches of blocks.

The transform is two matrix products with the orthonormal DCT-II basis
matrix ``C``: ``X = (C @ B) @ C^T`` forward and ``B = (C^T @ X) @ C``
inverse, broadcast by ``matmul`` over any leading batch dimensions, so
no Python loop touches a pixel.  ``C^T`` is precomputed as a contiguous
array, so a call pays only for the two products.

A scaled AAN-style variant (:func:`idct_blocks_scaled`) demonstrates the
classic embedded-decoder optimisation of folding the descaling constants
into the dequantization table.
"""

from __future__ import annotations

import numpy as np


def _dct_matrix() -> np.ndarray:
    k = np.arange(8).reshape(8, 1)
    n = np.arange(8).reshape(1, 8)
    c = np.cos((2 * n + 1) * k * np.pi / 16)
    c[0, :] *= np.sqrt(1 / 8)
    c[1:, :] *= np.sqrt(2 / 8)
    return c


#: Orthonormal 8-point DCT-II basis matrix.
DCT_MATRIX = _dct_matrix()
_DCT_MATRIX_T = np.ascontiguousarray(DCT_MATRIX.T)


def fdct_blocks(blocks: np.ndarray) -> np.ndarray:
    """Forward 2-D DCT of (..., 8, 8) pixel blocks (float64 out)."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing (8, 8), got {blocks.shape}")
    return (DCT_MATRIX @ blocks) @ _DCT_MATRIX_T


def idct_blocks(coefs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT of (..., 8, 8) coefficient blocks (float64 out)."""
    coefs = np.asarray(coefs, dtype=np.float64)
    if coefs.shape[-2:] != (8, 8):
        raise ValueError(f"expected trailing (8, 8), got {coefs.shape}")
    return (_DCT_MATRIX_T @ coefs) @ DCT_MATRIX


def idct_blocks_scaled(qcoefs: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """Dequantize + inverse DCT with the descale folded into the table.

    Mathematically identical to ``idct_blocks(qcoefs * quant)`` but does
    the dequantization multiply once against a precomputed float table --
    the memory-traffic-saving trick embedded IDCT kernels use.
    """
    folded = np.asarray(quant, dtype=np.float64)
    return idct_blocks(np.asarray(qcoefs, dtype=np.float64) * folded)


def pixels_from_idct(samples: np.ndarray) -> np.ndarray:
    """Undo the JPEG level shift and clamp to uint8."""
    out = np.rint(samples)
    out += 128
    np.clip(out, 0, 255, out=out)
    return out.astype(np.uint8)
