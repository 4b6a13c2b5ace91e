"""Heatmap export as binary PGM (P5) with a JSON sidecar of scale bounds.

PGM needs no image library; the sidecar records per-map min/max so original
values are recoverable up to the 8-bit quantization step.
"""

import json
import os

import numpy as np

from .errors import DomainError

HEATMAP_SCHEMA_VERSION = 1


def write_pgm(path, values):
    """Min-max scale a 2-D map to 8-bit gray and write binary PGM; returns (lo, hi)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"heatmap must be 2-D, got shape {values.shape}")
    lo, hi = float(values.min()), float(values.max())
    half_range = hi / 2 - lo / 2  # by halves, so a range wider than the largest float does not overflow
    if half_range > 0:
        scaled = np.rint((values / 2 - lo / 2) / half_range * 255.0)
    else:
        scaled = np.zeros_like(values)
    data = scaled.astype(np.uint8)
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
    return lo, hi


def read_pgm(path):
    """Inverse of write_pgm up to quantization; returns the uint8 array."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError(f"not a binary PGM file: magic {magic!r}")
        dims = fh.readline().split()
        w, h = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        if maxval != 255:
            raise ValueError(f"expected 8-bit PGM, got maxval {maxval}")
        data = np.frombuffer(fh.read(w * h), dtype=np.uint8)
    return data.reshape(h, w)


def export_heatmaps(out_dir, maps):
    """Write one PGM per map plus a sidecar heatmaps.json; returns the sidecar dict.
    A non-finite map raises DomainError before the directory or any file is made."""
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 3:
        raise ValueError(f"expected (P, H, W) maps, got shape {maps.shape}")
    finite = np.isfinite(maps).all(axis=(1, 2))
    if not finite.all():
        raise DomainError(f"heatmap of prompt {int(np.argmin(finite))} contains non-finite values")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for p in range(maps.shape[0]):
        name = f"prompt_{p:02d}.pgm"
        lo, hi = write_pgm(os.path.join(out_dir, name), maps[p])
        entries.append({"file": name, "min": lo, "max": hi,
                        "height": int(maps.shape[1]), "width": int(maps.shape[2])})
    sidecar = {"schema_version": HEATMAP_SCHEMA_VERSION, "maps": entries}
    with open(os.path.join(out_dir, "heatmaps.json"), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return sidecar


def reconstruct(pgm_values, lo, hi):
    """Map 8-bit gray back to original units using the sidecar bounds."""
    return lo + pgm_values.astype(np.float64) / 255.0 * (hi - lo)
