"""Binary PGM (P5, 8-bit) image IO for grayscale images.

In-memory images are float64 arrays in [0, 1]; on disk they are 8-bit
P5 PGM. Quantization rounds to nearest level.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_pgm(image: np.ndarray, path: str | Path) -> None:
    """Write a [0,1] float image as binary PGM (P5, maxval 255)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise ValueError("image contains non-finite values")
    levels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    h, w = levels.shape
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


class PGMError(ValueError):
    """Bytes that are not an 8-bit binary PGM; the message names the file."""


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) file into a float64 array in [0, 1].

    Any content that is not such a file raises PGMError naming ``path``.
    """
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise PGMError(f"{path}: not a binary PGM (P5) file")
    # Header fields: width, height, maxval, each a run of ASCII digits;
    # '#' comments allowed between them.
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise PGMError(f"{path}: truncated header")
        if not (token.isdigit() and len(token) <= 18):
            raise PGMError(f"{path}: bad header field {token[:20]!r}")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise PGMError(f"{path}: unsupported maxval {maxval} (expected 255)")
    if len(data) - pos < w * h:
        raise PGMError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return pixels.reshape(h, w).astype(np.float64) / 255.0
