"""GIF codec conformance: LZW round trips, interlace, animation
compositing (transparency + disposal methods), quantization bounds,
and the Ray-side frame-sampling integration."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from raydedup.gif import (
    _lzw_decode,
    _lzw_encode,
    _subblocks,
    decode_gif,
    decode_gif_rgb8,
    encode_gif_rgb8,
    gif_frame_count,
)


def test_lzw_roundtrip_and_table_clear():
    rng = np.random.default_rng(0)
    for mcs, n in [(2, 10), (2, 5000), (8, 100_000), (4, 1)]:
        idx = rng.integers(0, 1 << mcs, n).astype(np.uint8)
        out = _lzw_decode(_lzw_encode(idx, mcs), mcs, n)
        assert np.array_equal(out, idx), (mcs, n)
    # highly repetitive stream grows the table to the 12-bit clear
    idx = np.tile(np.arange(256, dtype=np.uint8), 400)
    assert np.array_equal(_lzw_decode(_lzw_encode(idx, 8), 8, len(idx)), idx)


def test_gif_single_frame_exact_palette():
    img = np.zeros((16, 16, 3), np.uint8)
    img[4:12, 4:12] = [255, 0, 0]
    img[6:10, 6:10] = [0, 255, 0]
    data = encode_gif_rgb8(img)
    assert data[:6] == b"GIF89a"
    assert np.array_equal(decode_gif_rgb8(data), img)
    assert gif_frame_count(data) == 1


def test_gif_interlaced_odd_dims():
    rng = np.random.default_rng(5)
    for h, w in [(37, 19), (5, 9), (8, 8)]:
        img = (rng.integers(0, 4, (h, w, 3)) * 80).astype(np.uint8)
        assert np.array_equal(decode_gif_rgb8(encode_gif_rgb8(img, interlace=True)), img)


def test_gif_quantization_bounds():
    # >256 unique colors: documented 3-3-2 fallback, error bounded by
    # half a cell per channel
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (40, 40, 3), dtype=np.uint8)
    out = decode_gif_rgb8(encode_gif_rgb8(img))
    err = np.abs(out.astype(int) - img.astype(int))
    assert err[..., 0].max() <= 16 and err[..., 1].max() <= 16 and err[..., 2].max() <= 32


@pytest.mark.parametrize("optimize", [False, True])
def test_gif_animation_roundtrip(optimize):
    frames = []
    for k in range(5):
        f = np.zeros((20, 28, 3), np.uint8)
        f[2 + k : 8 + k, 3:9] = [10 * k + 5, 200, 40]
        f[0, 0] = [1, 2, 3]
        frames.append(f)
    data = encode_gif_rgb8(frames, optimize=optimize)
    dec = decode_gif(data)
    assert gif_frame_count(data) == 5
    assert len(dec) == 5
    for a, b in zip(dec, frames):
        assert np.array_equal(a, b)
    if optimize:  # diff-cropped + transparent frames must be smaller
        assert len(data) < len(encode_gif_rgb8(frames, optimize=False))


def test_gif_identical_frames_empty_diff():
    img = np.zeros((12, 12, 3), np.uint8)
    img[3:6, 3:6] = [9, 9, 9]
    dec = decode_gif(encode_gif_rgb8([img, img.copy(), img.copy()], optimize=True))
    assert len(dec) == 3
    for f in dec:
        assert np.array_equal(f, img)


def _handmade_gif(frames_spec, gct, bg_idx):
    """Build a GIF with explicit per-frame (left, top, indices,
    disposal, transparent_idx) — exercises decoder paths the encoder
    doesn't emit (disposal 2/3, local placement)."""
    n = len(gct)
    p = max(0, (n - 1).bit_length() - 1)
    table_n = 2 << p
    pal = np.zeros((table_n, 3), np.uint8)
    pal[:n] = gct
    out = bytearray(b"GIF89a")
    hh = max(t + idx.shape[0] for _, t, idx, _, _ in frames_spec)
    ww = max(l + idx.shape[1] for l, _, idx, _, _ in frames_spec)
    out += struct.pack("<HH", ww, hh)
    out += bytes([0x80 | p, bg_idx, 0])
    out += pal.tobytes()
    mcs = max(2, p + 1)
    for left, top, idx, disposal, transp in frames_spec:
        gpacked = (disposal << 2) | (1 if transp >= 0 else 0)
        out += b"\x21\xf9\x04" + bytes([gpacked, 0, 0, max(transp, 0), 0])
        ih, iw = idx.shape
        out += b"\x2c" + struct.pack("<HHHH", left, top, iw, ih) + b"\x00"
        out += bytes([mcs]) + _subblocks(_lzw_encode(idx.reshape(-1), mcs))
    out += b"\x3b"
    return bytes(out)


def test_gif_disposal_restore_background():
    # palette: 0 black, 1 red, 2 green, 3 blue(bg)
    gct = np.array([[0, 0, 0], [255, 0, 0], [0, 255, 0], [0, 0, 255]], np.uint8)
    f1 = np.full((4, 4), 1, np.uint8)  # full red, disposal 2
    f2 = np.full((2, 2), 2, np.uint8)  # green patch at (1,1)
    data = _handmade_gif([(0, 0, f1, 2, -1), (1, 1, f2, 0, -1)], gct, bg_idx=3)
    dec = decode_gif(data)
    assert np.array_equal(dec[0], np.broadcast_to(gct[1], (4, 4, 3)))
    expect = np.broadcast_to(gct[3], (4, 4, 3)).copy()  # region restored to bg
    expect[1:3, 1:3] = gct[2]
    assert np.array_equal(dec[1], expect)


def test_gif_disposal_restore_previous_and_transparency():
    gct = np.array([[0, 0, 0], [255, 0, 0], [0, 255, 0], [0, 0, 255]], np.uint8)
    f1 = np.full((4, 4), 1, np.uint8)  # full red
    f2 = np.array([[2, 0], [0, 2]], np.uint8)  # green diag, 0 transparent, disposal 3
    f3 = np.full((1, 1), 3, np.uint8)  # blue pixel at origin
    data = _handmade_gif([(0, 0, f1, 0, -1), (1, 1, f2, 3, 0), (0, 0, f3, 0, -1)], gct, 0)
    dec = decode_gif(data)
    assert len(dec) == 3
    red = np.broadcast_to(gct[1], (4, 4, 3)).copy()
    assert np.array_equal(dec[0], red)
    e2 = red.copy()
    e2[1, 1] = gct[2]
    e2[2, 2] = gct[2]  # transparent cells keep the red below
    assert np.array_equal(dec[1], e2)
    e3 = red.copy()  # disposal 3 reverted frame 2 entirely
    e3[0, 0] = gct[3]
    assert np.array_equal(dec[2], e3)


def test_gif_bad_inputs():
    with pytest.raises(ValueError):
        decode_gif(b"NOTAGIF" + b"\x00" * 16)
    with pytest.raises(ValueError):
        encode_gif_rgb8(np.zeros((4, 4, 3), np.int32))
    with pytest.raises(ValueError):
        encode_gif_rgb8([np.zeros((4, 4, 3), np.uint8), np.zeros((5, 4, 3), np.uint8)])


def test_decode_image_gif_fmt():
    from raydedup.media import decode_image

    img = np.zeros((10, 8, 3), np.uint8)
    img[2:5, 1:7] = [40, 90, 200]
    data = encode_gif_rgb8(img)
    assert np.array_equal(decode_image(data, 8, 10, "gif"), img)


def test_frame_sample_stage_gif(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.media import phash64
    from raydedup.stages.media import FrameSampleStage
    from raydedup.synth import make_videos_table

    table = make_videos_table(n=9, seed=13)
    assert "gif" in set(table.column("codec").to_pylist())
    # two input blocks, one per actor of the pool
    ds = rd.from_arrow([table.slice(0, 5), table.slice(5)]).map_batches(
        FrameSampleStage,
        fn_constructor_kwargs=dict(every_n=5, max_frames=4),
        batch_format="pyarrow",
        concurrency=2,
        batch_size=4,
    )
    out = ds.to_pandas()
    # every sampled frame's phash matches the stored round-trip phash
    stored = {
        vid: ph
        for vid, ph in zip(table.column("video_id").to_pylist(), table.column("frame_phashes").to_pylist())
    }
    per_vid: dict[str, list] = {}
    for _, row in out.sort_values(["video_id", "frame_idx"]).iterrows():
        px = np.frombuffer(row["frame_bytes"], np.uint8).reshape(row["h"], row["w"], 3)
        per_vid.setdefault(row["video_id"], []).append(phash64(px))
    assert set(per_vid) == set(stored)
    for vid, hashes in per_vid.items():
        assert hashes == stored[vid], vid
