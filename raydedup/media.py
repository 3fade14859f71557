"""Image column primitives: decode, perceptual hash, PSNR, resize.

The input table carries images as opaque ``bytes`` with typed metadata
(w, h, fmt) — the multimodal-column pattern. Supported ``fmt``:

- ``raw``: ``h*w*3`` uint8 RGB buffer (zero-copy reshape).
- ``png``: the full-spec decoder in :mod:`raydedup.png` (all filters,
  color types, depths, Adam7, tRNS; alpha composited over white).
- ``jpeg``/``jpg``: the from-scratch JFIF codec in :mod:`raydedup.jpeg`
  (baseline + progressive) — the real lossy path behind the PSNR ≥
  40 dB per-row decode invariant. Grayscale streams widen to 3
  channels and the EXIF Orientation tag is honored, so phashes are
  rotation-metadata-invariant.
- ``gif``/``webp``/``bmp``/``ico``/``tiff``/``pnm``: real from-scratch
  codecs (:mod:`raydedup.gif` / :mod:`raydedup.webp` lossless VP8L /
  :mod:`raydedup.bmp` incl. ICO / :mod:`raydedup.tiff` baseline 6.0 /
  Netpbm P5+P6 in this module).
- anything else (avif, lossy-VP8, jpeg-xl, heic — formats whose DSP
  tables can't be faithfully reproduced offline) →
  ``NotImplementedError`` (clearly-marked stub per the task brief; the
  Ray-side plumbing — schema, batch size, actor signature — is real
  and tested either way).

All functions are numpy-vectorized per image; batch loops live in the
actor-pool stages (stages/media.py).
"""

from __future__ import annotations

import numpy as np

from raydedup.jpeg import decode_jpeg_rgb8, encode_jpeg_rgb8  # noqa: F401 (re-export)
from raydedup.png import decode_png_rgb8, encode_png_rgb8  # noqa: F401 (re-export)


def sniff_format(data: bytes) -> str | None:
    """Identify an image payload by magic bytes — crawl metadata lies
    (a JPEG served under a .png URL is routine), and every container
    here except raw/TGA is self-describing. Returns a ``decode_image``
    fmt string, or None when nothing matches."""
    if len(data) < 4:
        return None
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        return "png"
    if data[:2] == b"\xff\xd8":
        return "jpeg"
    if data[:6] in (b"GIF87a", b"GIF89a"):
        return "gif"
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        return "webp"
    if data[:2] == b"BM":
        return "bmp"
    if data[:4] == b"\x00\x00\x01\x00":
        return "ico"
    if data[:2] in (b"II", b"MM") and data[2:4] in (b"*\x00", b"\x00*"):
        return "tiff"
    if data[:2] in (b"P5", b"P6"):
        return "pnm"
    return None


def decode_image(data: bytes, w: int, h: int, fmt: str) -> np.ndarray:
    """Decode one image payload to (h, w, 3) uint8. ``fmt="auto"``
    sniffs the container by magic bytes (raw/TGA carry none and must
    be declared)."""
    if fmt == "auto":
        sniffed = sniff_format(data)
        if sniffed is None:
            raise ValueError("cannot sniff image format (no known magic)")
        fmt = sniffed
    if fmt == "raw":
        return np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    if fmt == "png":
        return decode_png_rgb8(data)
    if fmt in ("jpeg", "jpg"):
        from raydedup.jpeg import exif_orientation

        img = decode_jpeg_rgb8(data)
        if img.shape[-1] == 1:  # grayscale stream → 3-channel contract
            img = np.repeat(img, 3, axis=2)
        return apply_orientation(img, exif_orientation(data))
    if fmt == "gif":
        from raydedup.gif import decode_gif_rgb8

        return decode_gif_rgb8(data)
    if fmt == "webp":
        from raydedup.webp import decode_webp_rgb8

        return decode_webp_rgb8(data)
    if fmt == "bmp":
        from raydedup.bmp import decode_bmp_rgb8

        return decode_bmp_rgb8(data)
    if fmt == "ico":
        from raydedup.bmp import decode_ico_rgb8

        return decode_ico_rgb8(data)
    if fmt in ("tiff", "tif"):
        from raydedup.tiff import decode_tiff_rgb8

        return decode_tiff_rgb8(data)
    if fmt in ("pnm", "ppm", "pgm"):
        return decode_pnm_rgb8(data)
    if fmt == "tga":
        from raydedup.tga import decode_tga_rgb8

        return decode_tga_rgb8(data)
    raise NotImplementedError(f"codec for fmt={fmt!r} not available in this environment")


def apply_orientation(img: np.ndarray, o: int) -> np.ndarray:
    """Re-orient a decoded raster to upright per its EXIF Orientation
    value (1-8). A crawl stores camera rotations as metadata, not
    rotated pixels — a dedup pipeline that ignores the tag hashes the
    same photo to up to 8 different phashes. Views where possible;
    callers needing contiguity copy."""
    if o == 1:
        return img
    if o == 2:
        return img[:, ::-1]
    if o == 3:
        return img[::-1, ::-1]
    if o == 4:
        return img[::-1]
    if o == 5:
        return img.swapaxes(0, 1)
    if o == 6:
        return np.rot90(img, -1)
    if o == 7:
        return np.rot90(img.swapaxes(0, 1), 2)
    if o == 8:
        return np.rot90(img, 1)
    raise ValueError(f"bad EXIF orientation {o}")


def box_downsample(img: np.ndarray, out: int = 8) -> np.ndarray:
    """Mean-pool an (h, w, 3) image to (out, out) grayscale float64.
    Requires h, w divisible by out's grid via integer trimming."""
    gray = img.astype(np.float64).mean(axis=2)
    h, w = gray.shape
    bh, bw = max(h // out, 1), max(w // out, 1)
    gray = gray[: bh * out, : bw * out]
    return gray.reshape(out, bh, out, bw).mean(axis=(1, 3))


def phash64(img: np.ndarray) -> int:
    """64-bit perceptual-hash surrogate: mean-threshold of the 8×8
    box-downsample (FIXTURES.md F1). Bit i = cell i (row-major) above
    the mean. Returned as *signed* int64 (the table's storage type)."""
    cells = box_downsample(img, 8).reshape(-1)
    bits = cells > cells.mean()
    # bit i = cell i: OR-reduce the shifted bits in one vector op
    # (bit-exact with the original per-bit loop; pinned by the stored
    # phash columns every image corpus and feature query re-checks)
    word = np.bitwise_or.reduce(
        bits.astype(np.uint64) << np.arange(64, dtype=np.uint64)
    )
    # reinterpret as signed int64
    return int(word.astype(np.int64))


def resize_bilinear(img: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Bilinear resample of (h, w[, c]) uint8 to (oh, ow[, c]) uint8,
    half-pixel sample centers, edge-clamped — fully vectorized (one
    gather + one lerp per axis, no Python loops). Same-size resize is
    bit-exact identity (the lerp weights collapse to 0), which
    ``test_resize_kernels`` pins."""
    h, w = img.shape[:2]
    if (oh, ow) == (h, w):
        return img.copy()
    ys = (np.arange(oh, dtype=np.float64) + 0.5) * (h / oh) - 0.5
    xs = (np.arange(ow, dtype=np.float64) + 0.5) * (w / ow) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)
    wx = np.clip(xs - x0, 0.0, 1.0)
    f = img.astype(np.float64)
    top = f[y0][:, x0] * (1 - wx)[None, :, None] + f[y0][:, x1] * wx[None, :, None] \
        if img.ndim == 3 else f[y0][:, x0] * (1 - wx) + f[y0][:, x1] * wx
    bot = f[y1][:, x0] * (1 - wx)[None, :, None] + f[y1][:, x1] * wx[None, :, None] \
        if img.ndim == 3 else f[y1][:, x0] * (1 - wx) + f[y1][:, x1] * wx
    wy = wy[:, None, None] if img.ndim == 3 else wy[:, None]
    out = top * (1 - wy) + bot * wy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def resize_image(img: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Thumbnail-grade resize: exact block-mean (area) averaging when
    both axes downscale by integer factors — the anti-aliased path a
    training-data thumbnailer wants — else bilinear. Deterministic."""
    h, w = img.shape[:2]
    if oh < h and ow < w and h % oh == 0 and w % ow == 0:
        fy, fx = h // oh, w // ow
        if img.ndim == 3:
            blocks = img.reshape(oh, fy, ow, fx, img.shape[2]).astype(np.float64)
            return np.clip(np.rint(blocks.mean(axis=(1, 3))), 0, 255).astype(np.uint8)
        blocks = img.reshape(oh, fy, ow, fx).astype(np.float64)
        return np.clip(np.rint(blocks.mean(axis=(1, 3))), 0, 255).astype(np.uint8)
    return resize_bilinear(img, oh, ow)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images;
    ``inf`` for identical buffers."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(255.0**2 / mse))


def encode_pnm_rgb8(pixels: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → binary PPM (P6); 2-D/1-channel input → PGM
    (P5). The Netpbm interchange formats dataset tooling emits."""
    if pixels.ndim == 2 or pixels.shape[2] == 1:
        g = pixels.reshape(pixels.shape[0], pixels.shape[1])
        head = f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode()
        return head + np.ascontiguousarray(g).tobytes()
    h, w, _ = pixels.shape
    return f"P6\n{w} {h}\n255\n".encode() + np.ascontiguousarray(pixels).tobytes()


def decode_pnm_rgb8(data: bytes) -> np.ndarray:
    """Binary PPM (P6) / PGM (P5) → (h, w, 3) uint8. Handles comment
    lines and arbitrary whitespace in the header; maxval ≤ 255."""
    if data[:2] not in (b"P5", b"P6"):
        raise NotImplementedError("only binary PGM (P5) / PPM (P6) supported")
    gray = data[:2] == b"P5"
    pos, fields = 2, []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":  # comment to end of line
            while pos < len(data) and data[pos] not in (10, 13):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval, then raster
    w, h, maxval = fields
    if maxval > 255:
        raise NotImplementedError("16-bit PNM not supported")
    n = w * h * (1 if gray else 3)
    px = np.frombuffer(data, np.uint8, count=n, offset=pos)
    if maxval != 255:
        px = ((px.astype(np.uint16) * 255 + maxval // 2) // maxval).astype(np.uint8)
    if gray:
        return np.repeat(px.reshape(h, w, 1), 3, axis=2)
    return px.reshape(h, w, 3).copy()
