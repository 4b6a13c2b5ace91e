"""Resolution-aligned aggregation of per-scale alignment maps.

Down is 2x average pooling and Up is 2x nearest-neighbor replication; both are
exact, parameter-free linear operators with trivial adjoints. The coarse fused
map feeds the contrastive loss, the fine fused map feeds the geometry loss.

Both work on the four strided 2x2 slices of a C-contiguous array. The block sum
keeps the order numpy's reshape(...).mean(axis=(-3, -1)) adds in, so the pooled
values are bit-identical to that form: ((a00 + a01) + (a10 + a11)) / 4, and
(((a00 + a01) + a10) + a11) / 4 when the input is two columns wide.
"""

import numpy as np

from .errors import DimensionError


def downsample2x(m):
    """Average each non-overlapping 2x2 block of the trailing two axes."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    h, w = m.shape[-2], m.shape[-1]
    if h % 2 or w % 2:
        raise DimensionError(f"downsample2x needs even trailing dims, got {m.shape}")
    a00, a01, a10, a11 = m[..., 0::2, 0::2], m[..., 0::2, 1::2], m[..., 1::2, 0::2], m[..., 1::2, 1::2]
    if w == 2:
        return (((a00 + a01) + a10) + a11) / 4.0
    return ((a00 + a01) + (a10 + a11)) / 4.0


def upsample2x(m):
    """Replicate each cell of the trailing two axes into a 2x2 block."""
    m = np.asarray(m, dtype=np.float64)
    out = np.empty(m.shape[:-2] + (2 * m.shape[-2], 2 * m.shape[-1]))
    out[..., 0::2, 0::2] = m
    out[..., 0::2, 1::2] = m
    out[..., 1::2, 0::2] = m
    out[..., 1::2, 1::2] = m
    return out


def downsample2x_adjoint(g):
    """Adjoint of downsample2x: spread each cell's value evenly over its block."""
    return upsample2x(np.asarray(g, dtype=np.float64) / 4.0)


def upsample2x_adjoint(g):
    """Adjoint of upsample2x: sum each 2x2 block (4x the block mean)."""
    out = downsample2x(g)
    return np.multiply(out, 4.0, out=out)


def check_pyramid(m3, m4, m5):
    """Validate the scale relation H3 = 2*H4 = 4*H5 (same for widths, same leading dims)."""
    m3, m4, m5 = (np.asarray(m, dtype=np.float64) for m in (m3, m4, m5))
    if m3.shape[:-2] != m4.shape[:-2] or m3.shape[:-2] != m5.shape[:-2]:
        raise DimensionError(f"pyramid leading dims differ: {m3.shape}, {m4.shape}, {m5.shape}")
    h3, w3 = m3.shape[-2:]
    if (h3, w3) != (2 * m4.shape[-2], 2 * m4.shape[-1]) or (h3, w3) != (4 * m5.shape[-2], 4 * m5.shape[-1]):
        raise DimensionError(
            f"pyramid shape violation: P3 {m3.shape[-2:]}, P4 {m4.shape[-2:]}, P5 {m5.shape[-2:]}"
        )
    return m3, m4, m5


def _average_into(fresh, m):
    """(fresh + m) / 2, written into fresh, an array the caller just made."""
    fresh += m
    fresh /= 2.0
    return fresh


def fuse_down(m3, m4, m5):
    """Coarse unified map: (Down((Down(m3) + m4) / 2) + m5) / 2, at P5 resolution."""
    m3, m4, m5 = check_pyramid(m3, m4, m5)
    return _average_into(downsample2x(_average_into(downsample2x(m3), m4)), m5)


def fuse_up(m3, m4, m5):
    """Fine unified map: (Up((Up(m5) + m4) / 2) + m3) / 2, at P3 resolution."""
    m3, m4, m5 = check_pyramid(m3, m4, m5)
    return _average_into(upsample2x(_average_into(upsample2x(m5), m4)), m3)


def fuse_down_adjoint(g):
    """Backpropagate a P5-shaped gradient through fuse_down; returns (g3, g4, g5)."""
    g5 = np.asarray(g, dtype=np.float64) / 2.0
    g4 = downsample2x_adjoint(g5)  # the gradient at the (Down(m3)+m4)/2 node, halved in place
    g4 /= 2.0
    g3 = downsample2x_adjoint(g4)
    return g3, g4, g5


def fuse_up_adjoint(g):
    """Backpropagate a P3-shaped gradient through fuse_up; returns (g3, g4, g5)."""
    g3 = np.asarray(g, dtype=np.float64) / 2.0
    g4 = upsample2x_adjoint(g3)  # the gradient at the (Up(m5)+m4)/2 node, halved in place
    g4 /= 2.0
    g5 = upsample2x_adjoint(g4)
    return g3, g4, g5
