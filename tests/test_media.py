"""Multimodal plumbing: PNG codec, decode/feature/resize actor stages,
decode-invariant stage, ANN stages."""

import numpy as np
import pytest

from raydedup.media import box_downsample, decode_image, phash64, psnr
from raydedup.png import decode_png_rgb8, encode_png_rgb8


def test_png_roundtrip():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, (24, 17, 3), dtype=np.uint8)
    data = encode_png_rgb8(img)
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    back = decode_png_rgb8(data)
    assert np.array_equal(img, back)


def _smooth_image(h: int, w: int) -> np.ndarray:
    """Band-limited test image (the synth corpus is similarly smooth)."""
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.zeros((h, w, 3))
    for c in range(3):
        img[..., c] = 128 + 60 * np.sin(xx / (5 + 3 * c)) * np.cos(yy / (7 + 2 * c))
    return np.clip(img, 0, 255).astype(np.uint8)


def test_jpeg_roundtrip_psnr():
    from raydedup.jpeg import decode_jpeg_rgb8, encode_jpeg_rgb8

    # non-multiple-of-8 dims exercise edge-padding on both sides
    for h, w in [(64, 64), (33, 41), (8, 8)]:
        img = _smooth_image(h, w)
        data = encode_jpeg_rgb8(img, quality=90, subsample="444")
        assert data[:2] == b"\xff\xd8" and data[-2:] == b"\xff\xd9"
        out = decode_jpeg_rgb8(data)
        assert out.shape == img.shape
        assert psnr(img, out) >= 40.0  # the input_hint lossy invariant
    # 4:2:0 subsampling: chroma halves, still a faithful decode
    img = _smooth_image(48, 40)
    out = decode_jpeg_rgb8(encode_jpeg_rgb8(img, quality=95, subsample="420"))
    assert out.shape == img.shape
    assert psnr(img, out) >= 35.0


def test_jpeg_quality_monotone_and_stuffing():
    from raydedup.jpeg import decode_jpeg_rgb8, encode_jpeg_rgb8

    rng = np.random.default_rng(3)
    # noise maximizes entropy-coded bytes → exercises 0xFF byte stuffing
    img = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    sizes, errs = [], []
    for q in (50, 75, 95):
        data = encode_jpeg_rgb8(img, quality=q)
        out = decode_jpeg_rgb8(data)
        sizes.append(len(data))
        errs.append(np.mean((img.astype(float) - out.astype(float)) ** 2))
    assert sizes[0] < sizes[1] < sizes[2]
    assert errs[0] > errs[1] > errs[2]


def test_jpeg_unsupported_modes():
    from raydedup.jpeg import decode_jpeg_rgb8, encode_jpeg_rgb8

    img = _smooth_image(16, 16)
    with pytest.raises(NotImplementedError):
        encode_jpeg_rgb8(img, subsample="422")
    data = bytearray(encode_jpeg_rgb8(img))
    # flip SOF0 → SOF9 (arithmetic coding): decoder must refuse, not garble
    sof = data.find(b"\xff\xc0")
    data[sof + 1] = 0xC9
    with pytest.raises(NotImplementedError):
        decode_jpeg_rgb8(bytes(data))


def test_jpeg_progressive_roundtrip():
    """Progressive (SOF2) streams decode to the exact pixels of the
    baseline stream built from the same quantized blocks — both the
    Annex G.1 encoder and the G.2 decoder are exercised across
    subsampling modes, odd dimensions, and high-entropy content
    (EOB runs, ZRL, AC refinement correction bits)."""
    from raydedup.jpeg import decode_jpeg_rgb8, encode_jpeg_rgb8

    rng = np.random.default_rng(11)
    cases = [
        (_smooth_image(32, 32), "444", 90),
        (_smooth_image(48, 40), "420", 90),
        (_smooth_image(33, 31), "444", 95),
        (rng.integers(0, 256, (37, 29, 3), dtype=np.uint8), "420", 75),
        (rng.integers(0, 256, (32, 32, 3), dtype=np.uint8), "444", 50),
        (np.full((64, 48, 3), 128, dtype=np.uint8), "444", 90),  # long EOB runs
    ]
    for img, sub, q in cases:
        base = encode_jpeg_rgb8(img, quality=q, subsample=sub)
        prog = encode_jpeg_rgb8(img, quality=q, subsample=sub, progressive=True)
        assert b"\xff\xc2" in prog and b"\xff\xc2" not in base  # SOF2 marker
        assert np.array_equal(decode_jpeg_rgb8(prog), decode_jpeg_rgb8(base))


def test_decode_raw_and_unknown_fmt():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    assert np.array_equal(decode_image(img.tobytes(), 8, 8, "raw"), img)
    with pytest.raises(NotImplementedError):
        decode_image(b"xxxx", 8, 8, "avif")  # stubbed codec path
    with pytest.raises(ValueError):
        decode_image(b"xxxx", 8, 8, "jpeg")  # real codec, invalid bytes
    with pytest.raises(ValueError):
        decode_image(b"xxxx", 8, 8, "webp")  # real codec, invalid bytes


def test_psnr_and_phash():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    assert psnr(img, img) == float("inf")
    quant = (img >> 2) << 2
    p = psnr(img, quant)
    assert 38.0 < p < 60.0
    h1, h2 = phash64(img), phash64(quant)
    # quantization barely moves the perceptual hash
    from raydedup.simhash import hamming_distance64, simhash_from_phash

    d = hamming_distance64(simhash_from_phash(np.array([h1])), simhash_from_phash(np.array([h2])))[0]
    assert d <= 4
    assert box_downsample(img, 8).shape == (8, 8)


def test_decode_stages(ray_session):
    import ray.data as rd

    from raydedup.stages.media import DecodeFeaturesStage, ResizeStage
    from raydedup.synth import make_images_table

    table, truth = make_images_table(n_base=40, seed=42)
    corrupt = set(truth.corrupt_ids)
    ds = rd.from_arrow(table)
    feats = ds.map_batches(
        DecodeFeaturesStage, batch_format="pyarrow", batch_size=16, concurrency=(1, 2), num_cpus=1
    ).take_all()
    assert len(feats) == table.num_rows
    # decode_ok is False for exactly the planted corrupt rows
    assert {f["image_id"] for f in feats if not f["decode_ok"]} == corrupt
    # recomputed phash must equal the stored phash column
    stored = dict(zip(table.column("image_id").to_pylist(), table.column("phash").to_pylist()))
    for f in feats:
        if f["image_id"] not in corrupt:
            assert f["phash_check"] == stored[f["image_id"]]

    thumbs = ds.map_batches(
        ResizeStage,
        fn_constructor_kwargs={"out": 16, "out_w": 24},
        batch_format="pyarrow",
        batch_size=16,
        concurrency=(1, 2),
        num_cpus=1,
    ).take_all()
    assert len(thumbs) == table.num_rows - len(corrupt)  # bad rows dropped
    assert all(len(t["thumb"]) == 16 * 24 * 3 for t in thumbs)
    assert all(t["thumb_h"] == 16 and t["thumb_w"] == 24 for t in thumbs)

    gray = ds.map_batches(
        ResizeStage,
        fn_constructor_kwargs={"mode": "gray"},
        batch_format="pyarrow",
        batch_size=16,
        concurrency=(1, 2),
        num_cpus=1,
    ).take_all()
    assert all(len(t["thumb"]) == 64 for t in gray)


def test_decode_invariant_stage(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.media import DecodeInvariantStage
    from raydedup.synth import _pixels, _pixels_smooth, make_images_table

    table, _ = make_images_table(n_base=40, seed=42)
    # attach the regenerated reference pixels for base rows (the lossy
    # slice draws from the band-limited generator)
    refs = []
    for i in range(table.num_rows):
        iid = table.column("image_id")[i].as_py()
        idx = int(iid.split("-")[1])
        w = table.column("w")[i].as_py()
        h = table.column("h")[i].as_py()
        fmt = table.column("fmt")[i].as_py()
        if idx < 40:
            gen = _pixels_smooth if fmt == "jpeg" else _pixels
            refs.append(gen(idx, w, h, 42).tobytes())
        else:
            refs.append(None)
    t = table.append_column("ref_pixels", pa.array(refs, pa.binary()))
    t = t.filter(pa.compute.is_valid(t.column("ref_pixels")))
    out = rd.from_arrow(t).map_batches(
        DecodeInvariantStage, batch_format="pyarrow", batch_size=16, concurrency=(1, 2), num_cpus=1
    ).to_pandas()
    assert len(out) == t.num_rows
    assert out["ok"].all()  # lossless exact, lossy ≥ 40 dB
    assert (out["psnr_db"] >= 40.0).all()


def test_ann_brute_force_matches_numpy(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.ann import brute_force_topk

    rng = np.random.default_rng(3)
    emb = rng.standard_normal((200, 16))
    t = pa.table(
        {"vec_id": pa.array(range(200), pa.int64()), "embedding": pa.array(emb.tolist())}
    )
    q = emb[:2]
    got = brute_force_topk(rd.from_arrow(t), q, k=5).take_all()
    norm = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    cos = norm @ qn.T
    for qi in range(2):
        want = set(np.argsort(-cos[:, qi])[:5].tolist())
        have = {r["vec_id"] for r in got if r["query_idx"] == qi}
        assert have == want


def test_audio_feature_stage_plumbing(ray_session):
    """Actor-pool audio stage: pcm16 decodes for real; unknown codecs
    take the clearly-marked stub path (decode_ok=False, not a crash)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.media import AudioFeatureStage

    rng = np.random.default_rng(3)
    tone = (np.sin(np.linspace(0, 440 * 2 * np.pi, 16000)) * 0.5 * 32768).astype(np.int16)
    t = pa.table(
        {
            "audio_id": pa.array(["a0", "a1"], pa.string()),
            "bytes": pa.array([tone.tobytes(), b"\x00\x01"], pa.binary()),
            "sample_rate": pa.array([16000, 16000], pa.int32()),
            "n_samples": pa.array([16000, 1], pa.int32()),
            "codec": pa.array(["pcm16", "opus"], pa.string()),
        }
    )
    out = (
        rd.from_arrow(t)
        .map_batches(AudioFeatureStage, batch_format="pyarrow", batch_size=16, concurrency=(1, 2), num_cpus=1)
        .take_all()
    )
    by_id = {r["audio_id"]: r for r in out}
    assert by_id["a0"]["decode_ok"] and abs(by_id["a0"]["duration_s"] - 1.0) < 1e-9
    assert 0.3 < by_id["a0"]["rms"] < 0.4  # sine RMS ≈ A/√2 ≈ 0.354
    assert not by_id["a1"]["decode_ok"]  # stubbed codec, no crash


def test_frame_sample_stage_plumbing(ray_session):
    """Frame sampling flat-maps rawvideo payloads into per-frame rows
    the image stages consume; stub codecs are skipped (or strict-raise)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.media import FrameSampleStage

    w = h = 4
    n_frames = 25
    rng = np.random.default_rng(1)
    video = rng.integers(0, 256, size=n_frames * w * h * 3, dtype=np.uint8).tobytes()
    t = pa.table(
        {
            "video_id": pa.array(["v0", "v1"], pa.string()),
            "bytes": pa.array([video, b"x"], pa.binary()),
            "w": pa.array([w, w], pa.int32()),
            "h": pa.array([h, h], pa.int32()),
            "n_frames": pa.array([n_frames, 1], pa.int32()),
            "codec": pa.array(["rawvideo", "h264"], pa.string()),
        }
    )
    out = (
        rd.from_arrow(t)
        .map_batches(FrameSampleStage, fn_constructor_kwargs=dict(every_n=10, max_frames=4), batch_format="pyarrow", batch_size=8, concurrency=(1, 2), num_cpus=1)
        .take_all()
    )
    rows = [r for r in out if r["video_id"] == "v0"]
    assert [r["frame_idx"] for r in rows] == [0, 10, 20]
    assert all(len(r["frame_bytes"]) == w * h * 3 for r in rows)
    frame0 = np.frombuffer(video[: w * h * 3], dtype=np.uint8)
    assert np.array_equal(np.frombuffer(rows[0]["frame_bytes"], dtype=np.uint8), frame0)
    assert not [r for r in out if r["video_id"] == "v1"]  # stub codec skipped


def test_exif_orientation_honored_on_decode():
    """A camera-rotated JPEG (pixels stored rotated, Orientation tag
    set) must decode upright through decode_image — same shape and
    near-identical content for every orientation value, both baseline
    and progressive."""
    from raydedup.jpeg import exif_orientation
    from raydedup.media import apply_orientation

    rng = np.random.default_rng(11)
    up = np.cumsum(rng.integers(-2, 3, (24, 40, 3)), axis=1).astype(np.uint8)
    inv = {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 8, 7: 7, 8: 6}
    from raydedup.jpeg import encode_jpeg_rgb8 as enc

    for o in range(1, 9):
        stored = np.ascontiguousarray(apply_orientation(up, inv[o]))
        for prog in (False, True):
            data = enc(stored, quality=95, progressive=prog, orientation=o)
            assert exif_orientation(data) == o
            out = decode_image(data, up.shape[1], up.shape[0], "jpeg")
            assert out.shape == up.shape, (o, prog, out.shape)
            assert psnr(out, up) > 35.0, (o, prog)
    # no tag → upright, and tagless streams still parse as orientation 1
    plain = enc(up, quality=95)
    assert exif_orientation(plain) == 1
    assert decode_image(plain, up.shape[1], up.shape[0], "jpeg").shape == up.shape


def test_exif_big_endian_and_malformed():
    import struct

    from raydedup.jpeg import _exif_app1, encode_jpeg_rgb8, exif_orientation

    img = np.full((8, 8, 3), 77, np.uint8)
    data = encode_jpeg_rgb8(img, orientation=6)
    # rewrite the APP1 as big-endian TIFF with the same tag
    tiff = (
        b"MM"
        + struct.pack(">H", 42)
        + struct.pack(">I", 8)
        + struct.pack(">H", 1)
        + struct.pack(">HHI", 0x0112, 3, 1)
        + struct.pack(">HH", 6, 0)
        + struct.pack(">I", 0)
    )
    payload = b"Exif\x00\x00" + tiff
    app1 = b"\xff\xe1" + struct.pack(">H", 2 + len(payload)) + payload
    le = _exif_app1(6)
    assert app1 != le and data.count(le) == 1
    assert exif_orientation(data.replace(le, app1)) == 6
    # malformed TIFF magic → default upright
    assert exif_orientation(data.replace(b"II*\x00", b"XX*\x00")) == 1
    assert exif_orientation(b"\xff\xd8\xff\xd9") == 1


def test_grayscale_jpeg_widens_to_three_channels():
    """A genuine 1-component JFIF stream (grayscale encode path)
    decodes to the (h, w, 3) contract via decode_image, with all
    channels equal and content intact."""
    from raydedup.jpeg import decode_jpeg_rgb8, encode_jpeg_rgb8

    rng = np.random.default_rng(13)
    g = np.cumsum(rng.integers(-2, 3, (24, 17)), axis=1).astype(np.uint8)
    data = encode_jpeg_rgb8(g, quality=95)  # (h, w) → single component
    raw = decode_jpeg_rgb8(data)
    assert raw.shape == (24, 17, 1)
    out = decode_image(data, 17, 24, "jpeg")
    assert out.shape == (24, 17, 3)
    assert np.array_equal(out[..., 0], out[..., 1])
    assert np.array_equal(out[..., 0], out[..., 2])
    assert psnr(out[..., 0], g) > 40.0
    # (h, w, 1) input and EXIF tag compose with the gray path
    data2 = encode_jpeg_rgb8(g[..., None], quality=95, orientation=6)
    up = decode_image(data2, 24, 17, "jpeg")
    assert up.shape == (17, 24, 3)
    with pytest.raises(NotImplementedError):
        encode_jpeg_rgb8(g, progressive=True)


def test_resize_kernels():
    from raydedup.media import resize_bilinear, resize_image

    rng = np.random.default_rng(17)
    img = rng.integers(0, 256, (12, 20, 3), np.uint8)
    # identity is bit-exact
    assert np.array_equal(resize_bilinear(img, 12, 20), img)
    assert np.array_equal(resize_image(img, 12, 20), img)
    # constants are preserved exactly by both paths
    const = np.full((9, 7, 3), 123, np.uint8)
    assert (resize_bilinear(const, 23, 5) == 123).all()
    assert (resize_image(const, 3, 7) == 123).all()
    # bilinear of a horizontal ramp matches an independent 1-D interp
    w = 16
    ramp = np.repeat(
        np.repeat(np.arange(w, dtype=np.uint8)[None, :, None] * 10, 3, 2), 4, 0
    ).reshape(4, w, 3)
    ow = 40
    out = resize_bilinear(ramp, 4, ow)
    xs = (np.arange(ow) + 0.5) * (w / ow) - 0.5
    exp = np.clip(
        np.rint(np.interp(xs, np.arange(w), np.arange(w) * 10.0)), 0, 255
    ).astype(np.uint8)
    assert np.array_equal(out[0, :, 0], exp)
    assert (out == out[0:1]).all()  # rows identical
    # integer-factor downscale is exact block means
    blocks = rng.integers(0, 256, (8, 8, 3), np.uint8)
    area = resize_image(blocks, 2, 2)
    exp = np.rint(
        blocks.reshape(2, 4, 2, 4, 3).astype(np.float64).mean(axis=(1, 3))
    ).astype(np.uint8)
    assert np.array_equal(area, exp)
    # 2-D grayscale input round-trips shapes
    g = rng.integers(0, 256, (10, 10), np.uint8)
    assert resize_bilinear(g, 5, 7).shape == (5, 7)
    assert resize_image(g, 5, 5).shape == (5, 5)


def test_jpeg_restart_markers_roundtrip():
    """DRI + RSTn emission: restart intervals must not change decoded
    pixels (the decoder byte-aligns and resets DC predictions at each
    marker), across subsampling modes and grayscale, and the markers
    must actually be present in the stream."""
    from raydedup.jpeg import decode_jpeg_rgb8, encode_jpeg_rgb8

    rng = np.random.default_rng(19)
    img = np.clip(np.cumsum(rng.integers(-3, 4, (64, 80, 3)), axis=1), 0, 255).astype(
        np.uint8
    )
    for sub in ("444", "420"):
        base = decode_jpeg_rgb8(encode_jpeg_rgb8(img, quality=90, subsample=sub))
        for ri in (1, 2, 5):
            data = encode_jpeg_rgb8(img, quality=90, subsample=sub, restart_interval=ri)
            assert b"\xff\xdd" in data
            n_rst = sum(data.count(bytes([0xFF, 0xD0 + k])) for k in range(8))
            assert n_rst > 0, (sub, ri)
            assert np.array_equal(decode_jpeg_rgb8(data), base), (sub, ri)
    g = img[..., 0]
    d = encode_jpeg_rgb8(g, quality=90, restart_interval=3)
    assert np.array_equal(
        decode_jpeg_rgb8(d), decode_jpeg_rgb8(encode_jpeg_rgb8(g, quality=90))
    )
    with pytest.raises(NotImplementedError):
        encode_jpeg_rgb8(img, progressive=True, restart_interval=2)


def test_pnm_round_trips():
    from raydedup.media import decode_pnm_rgb8, encode_pnm_rgb8

    rng = np.random.default_rng(23)
    im = rng.integers(0, 256, (9, 13, 3), np.uint8)
    assert np.array_equal(decode_pnm_rgb8(encode_pnm_rgb8(im)), im)
    assert np.array_equal(decode_image(encode_pnm_rgb8(im), 13, 9, "ppm"), im)
    g = rng.integers(0, 256, (5, 7), np.uint8)
    out = decode_pnm_rgb8(encode_pnm_rgb8(g))
    assert out.shape == (5, 7, 3) and np.array_equal(out[..., 0], g)
    # header with comments and a non-255 maxval
    data = b"P5\n# a comment\n 2 1\n# more\n63\n" + bytes([0, 63])
    out = decode_pnm_rgb8(data)
    assert out[0, 0, 0] == 0 and out[0, 1, 0] == 255
    with pytest.raises(NotImplementedError):
        decode_pnm_rgb8(b"P3\n1 1\n255\n0 0 0")  # ASCII form unsupported


def test_stages_survive_corrupt_payloads(ray_session):
    """Crawl reality: corrupt blobs are guaranteed at scale — every
    media stage must flag or drop the bad row, never kill the batch;
    strict=True must still raise."""
    import pyarrow as pa
    import ray.data as rd

    from raydedup.stages.media import (
        AudioFeatureStage,
        DecodeFeaturesStage,
        FrameSampleStage,
        ResizeStage,
    )

    rng = np.random.default_rng(29)
    good = rng.integers(0, 256, (8, 8, 3), np.uint8)
    imgs = pa.table(
        {
            "image_id": pa.array(["ok", "bad-png", "bad-trunc"], pa.string()),
            "bytes": pa.array(
                [good.tobytes(), b"\x89PNG\r\n\x1a\ngarbage", b"\xff\xd8\xff"],
                pa.binary(),
            ),
            "w": pa.array([8, 8, 8], pa.int32()),
            "h": pa.array([8, 8, 8], pa.int32()),
            "fmt": pa.array(["raw", "png", "jpeg"], pa.string()),
        }
    )
    feats = DecodeFeaturesStage()(imgs)
    assert feats.column("decode_ok").to_pylist() == [True, False, False]
    thumbs = ResizeStage(4)(imgs)
    assert thumbs.column("image_id").to_pylist() == ["ok"]  # bad rows dropped
    with pytest.raises(Exception):
        DecodeFeaturesStage(strict=True)(imgs)
    with pytest.raises(Exception):
        ResizeStage(4, strict=True)(imgs)

    auds = pa.table(
        {
            "audio_id": pa.array(["ok", "bad"], pa.string()),
            "bytes": pa.array(
                [np.zeros(100, np.int16).tobytes(), b"fLaCbroken"], pa.binary()
            ),
            "sample_rate": pa.array([8000, 8000], pa.int32()),
            "n_samples": pa.array([100, 100], pa.int32()),
            "codec": pa.array(["pcm16", "flac"], pa.string()),
        }
    )
    af = AudioFeatureStage()(auds)
    assert af.column("decode_ok").to_pylist() == [True, False]
    with pytest.raises(Exception):
        AudioFeatureStage(strict=True)(auds)

    vids = pa.table(
        {
            "video_id": pa.array(["ok", "bad"], pa.string()),
            "bytes": pa.array(
                [good.tobytes() * 3, b"RIFFbroken-avi-payload"], pa.binary()
            ),
            "w": pa.array([8, 8], pa.int32()),
            "h": pa.array([8, 8], pa.int32()),
            "n_frames": pa.array([3, 3], pa.int32()),
            "codec": pa.array(["rawvideo", "avi"], pa.string()),
        }
    )
    vf = FrameSampleStage(every_n=1, max_frames=2)(vids)
    assert set(vf.column("video_id").to_pylist()) == {"ok"}
    with pytest.raises(Exception):
        FrameSampleStage(every_n=1, strict=True)(vids)


def test_format_sniffing_and_mislabeled_payloads():
    """Crawl metadata lies: a payload served under the wrong fmt must
    still decode via magic-byte sniffing — decode_image(fmt="auto")
    directly, and DecodeFeaturesStage's sniff-retry on declared-fmt
    failure."""
    import pyarrow as pa

    from raydedup.media import sniff_format
    from raydedup.png import encode_png_rgb8
    from raydedup.stages.media import DecodeFeaturesStage

    rng = np.random.default_rng(31)
    im = rng.integers(0, 256, (8, 8, 3), np.uint8)
    from raydedup.bmp import encode_bmp_rgb8, encode_ico_rgb8
    from raydedup.jpeg import encode_jpeg_rgb8
    from raydedup.media import encode_pnm_rgb8
    from raydedup.tiff import encode_tiff_rgb8
    from raydedup.webp import encode_webp_rgb8

    blobs = {
        "png": encode_png_rgb8(im),
        "jpeg": encode_jpeg_rgb8(im),
        "webp": encode_webp_rgb8(im),
        "bmp": encode_bmp_rgb8(im),
        "ico": encode_ico_rgb8(im),
        "tiff": encode_tiff_rgb8(im),
        "pnm": encode_pnm_rgb8(im),
    }
    for fmt, blob in blobs.items():
        assert sniff_format(blob) == fmt, fmt
        out = decode_image(blob, 8, 8, "auto")
        assert out.shape == (8, 8, 3)
    assert sniff_format(im.tobytes()) is None
    with pytest.raises(ValueError):
        decode_image(im.tobytes(), 8, 8, "auto")

    # stage: a PNG mislabeled as jpeg decodes via sniff-retry with the
    # correct phash; garbage stays flagged
    batch = pa.table(
        {
            "image_id": pa.array(["mislabeled", "garbage"], pa.string()),
            "bytes": pa.array([blobs["png"], b"\x00\x01\x02\x03" * 4], pa.binary()),
            "w": pa.array([8, 8], pa.int32()),
            "h": pa.array([8, 8], pa.int32()),
            "fmt": pa.array(["jpeg", "png"], pa.string()),
        }
    )
    feats = DecodeFeaturesStage()(batch)
    assert feats.column("decode_ok").to_pylist() == [True, False]
    assert feats.column("phash_check").to_pylist()[0] == phash64(im)
