"""Deterministic synthetic image+caption corpus (FIXTURES.md F1).

Generates the flagship input table (BASELINE.json ``input_hint`` schema)
with planted duplicate structure and its ground truth:

- near-dup caption clusters (light token edits, high 3-shingle overlap)
- exact duplicate rows (verbatim copy, new image_id)
- substring dups (caption = strict token-slice of a base caption)
- near-dup images (pixel perturbation with phash Hamming ≤ 2)
- a skew probe: one caption repeated n_base//10 times (hot LSH bucket)

Everything derives from ``np.random.default_rng(seed)`` (variant
choices) and per-row ``default_rng(seed + i)`` (pixels) so the table and
its ground-truth pairs are reproducible byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from raydedup.jpeg import decode_jpeg_rgb8, encode_jpeg_rgb8
from raydedup.media import phash64
from raydedup.png import encode_png_rgb8
from raydedup.schema import IMAGES_SCHEMA

_VOCAB = None


def vocab_200() -> list[str]:
    """Deterministic 200-word vocabulary (syllable combinations)."""
    global _VOCAB
    if _VOCAB is None:
        cons = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"]
        vow = ["a", "e", "i", "o", "u"]
        words = []
        for c1 in cons:
            for v1 in vow:
                for c2 in cons[:3]:
                    words.append(c1 + v1 + c2 + "o")
                    if len(words) == 200:
                        _VOCAB = words
                        return _VOCAB
        _VOCAB = words
    return _VOCAB


@dataclass
class GroundTruth:
    """Planted structure: for every non-base row, its root base id."""

    root: dict[str, str] = field(default_factory=dict)  # image_id -> base image_id
    kind: dict[str, str] = field(default_factory=dict)  # image_id -> planted kind
    skew_caption_ids: list[str] = field(default_factory=list)
    corrupt_ids: list[str] = field(default_factory=list)  # undecodable payloads

    def pairs(self) -> set[tuple[str, str]]:
        out = set()
        for img, base in self.root.items():
            a, b = sorted((img, base))
            out.add((a, b))
        return out

    def clusters(self) -> dict[str, str]:
        """image_id -> cluster root (min id in component), for all planted rows."""
        from collections import defaultdict

        members = defaultdict(set)
        for img, base in self.root.items():
            members[base].add(img)
            members[base].add(base)
        out = {}
        for base, mem in members.items():
            r = min(mem)
            for m in mem:
                out[m] = r
        return out


def _pixels(i: int, w: int, h: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed + i).integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def _pixels_smooth(i: int, w: int, h: int, seed: int) -> np.ndarray:
    """Deterministic band-limited image for the lossy (JPEG) slice.
    Uniform noise is the JPEG worst case (no quality setting reaches
    40 dB on it); real photographs are band-limited, which is the
    premise of transform coding — so the lossy rows get smooth content
    with per-row random frequencies/phases."""
    r = np.random.default_rng(seed + 500_000_000 + i)
    yy, xx = np.mgrid[0:h, 0:w]
    img = np.empty((h, w, 3))
    for c in range(3):
        f1, f2 = r.uniform(3.0, 9.0, size=2)
        p1, p2 = r.uniform(0.0, 2 * np.pi, size=2)
        amp = r.uniform(30.0, 70.0)
        img[..., c] = 128.0 + amp * np.sin(xx / f1 + p1) * np.cos(yy / f2 + p2)
    return np.clip(img, 0, 255).astype(np.uint8)


def _caption(rng: np.random.Generator, vocab: list[str]) -> str:
    n = int(rng.integers(8, 41))
    idx = rng.integers(0, len(vocab), size=n)
    return " ".join(vocab[j] for j in idx)


def _edit_caption(rng: np.random.Generator, caption: str, vocab: list[str]) -> str:
    """Light token edit keeping high 3-shingle overlap: append, drop-last,
    or swap one mid token (long captions only)."""
    toks = caption.split()
    op = int(rng.integers(0, 3))
    if op == 0 or len(toks) < 12:
        toks = toks + [vocab[int(rng.integers(0, len(vocab)))]]
    elif op == 1:
        toks = toks[:-1]
    else:
        j = int(rng.integers(2, len(toks) - 2))
        toks[j] = vocab[int(rng.integers(0, len(vocab)))]
    return " ".join(toks)


def make_images_table(
    n_base: int = 1000,
    seed: int = 42,
    dims: tuple[int, ...] = (16, 32, 64),
    with_images: bool = True,
) -> tuple[pa.Table, GroundTruth]:
    """Build the F1 corpus. ``with_images=False`` emits 8×8 payloads
    (for caption-only benches at large row counts)."""
    rng = np.random.default_rng(seed)
    vocab = vocab_200()
    truth = GroundTruth()

    ids: list[str] = []
    blobs: list[bytes] = []
    ws: list[int] = []
    hs: list[int] = []
    fmts: list[str] = []
    caps: list[str] = []
    phashes: list[int] = []
    next_id = 0

    def add_row(pixels: np.ndarray, caption: str, fmt: str) -> str:
        nonlocal next_id
        iid = f"img-{next_id:08d}"
        next_id += 1
        h, w, _ = pixels.shape
        if fmt == "png":
            data = encode_png_rgb8(pixels)
        elif fmt == "webp":
            from raydedup.webp import encode_webp_rgb8

            data = encode_webp_rgb8(pixels)
        elif fmt == "jpeg":
            # real lossy path: the stored phash must describe what a
            # consumer DECODES, so it is computed on the round-tripped
            # pixels, not the pre-encode buffer
            data = encode_jpeg_rgb8(pixels, quality=90, subsample="444")
            pixels = decode_jpeg_rgb8(data)
        else:
            data = pixels.tobytes()
        ids.append(iid)
        blobs.append(data)
        ws.append(w)
        hs.append(h)
        fmts.append(fmt)
        caps.append(caption)
        phashes.append(phash64(pixels))
        return iid

    base_rows: list[tuple[str, np.ndarray, str]] = []
    for i in range(n_base):
        if with_images:
            w = int(dims[int(rng.integers(0, len(dims)))])
            h = int(dims[int(rng.integers(0, len(dims)))])
            px = _pixels(i, w, h, seed)
        else:
            # 8×8 = the smallest payload phash64's box-downsample accepts
            px = _pixels(i, 8, 8, seed)
        # fmt mix: mostly raw; some lossless png/webp; a small genuinely
        # lossy JPEG slice (baseline JFIF, quality 90, 4:4:4 — decodes
        # at PSNR ≈ 46 dB, comfortably above the 40 dB invariant).
        # The png branch is split for webp-lossless (VP8L) rather than
        # re-drawn so the rng stream — and hence every pixel, caption
        # and truth pair — is identical to the pre-webp corpus.
        u = rng.random()
        if u < 0.90 or not with_images:
            fmt = "raw"
        elif u < 0.94:
            fmt = "png"
        elif u < 0.98:
            fmt = "webp"
        else:
            fmt = "jpeg"
            px = _pixels_smooth(i, px.shape[1], px.shape[0], seed)
        cap = _caption(rng, vocab)
        iid = add_row(px, cap, fmt)
        base_rows.append((iid, px, cap))

    # near-dup caption clusters: 20% of base rows, 1-4 variants each
    for bi in rng.choice(n_base, size=max(1, n_base // 5), replace=False):
        biid, bpx, bcap = base_rows[bi]
        for _ in range(int(rng.integers(1, 5))):
            cap = _edit_caption(rng, bcap, vocab)
            px = bpx if rng.random() < 0.5 else _pixels(next_id, bpx.shape[1], bpx.shape[0], seed + 10_000_000)
            vid = add_row(px, cap, "raw")
            truth.root[vid] = biid
            truth.kind[vid] = "caption_near_dup"

    # exact dups: 5%
    for bi in rng.choice(n_base, size=max(1, n_base // 20), replace=False):
        biid, bpx, bcap = base_rows[bi]
        vid = add_row(bpx, bcap, "raw")
        truth.root[vid] = biid
        truth.kind[vid] = "exact_dup"

    # substring dups: 5% (caption strictly contained in base caption)
    for bi in rng.choice(n_base, size=max(1, n_base // 20), replace=False):
        biid, bpx, bcap = base_rows[bi]
        toks = bcap.split()
        if len(toks) < 10:
            continue
        lo = int(rng.integers(1, 3))
        hi = len(toks) - int(rng.integers(1, 3))
        cap = " ".join(toks[lo:hi])
        vid = add_row(_pixels(next_id, 16, 16, seed + 20_000_000), cap, "raw")
        truth.root[vid] = biid
        truth.kind[vid] = "substring_dup"

    # near-dup images: 10% of base rows get a pixel-perturbed twin
    for bi in rng.choice(n_base, size=max(1, n_base // 10), replace=False):
        biid, bpx, bcap = base_rows[bi]
        px = bpx.copy()
        # nudge a handful of pixels by ±1 — phash moves ≤ 2 bits
        idx = rng.integers(0, px.size, size=8)
        flat = px.reshape(-1)
        flat[idx] = np.clip(flat[idx].astype(np.int16) + 1, 0, 255).astype(np.uint8)
        vid = add_row(px, _caption(rng, vocab), "raw")
        truth.root[vid] = biid
        truth.kind[vid] = "image_near_dup"

    # skew probe: one caption repeated n_base//10 times
    hot_cap = _caption(rng, vocab)
    hot_root = None
    for _ in range(max(2, n_base // 10)):
        vid = add_row(_pixels(next_id, 16, 16, seed + 30_000_000), hot_cap, "raw")
        truth.skew_caption_ids.append(vid)
        if hot_root is None:
            hot_root = vid
        else:
            truth.root[vid] = hot_root
            truth.kind[vid] = "skew_exact_caption"

    # EXIF-rotated dups: ~2% of base rows re-stored as camera-rotated
    # JPEGs — the raster is rotated on disk and upright only via the
    # APP1 Orientation tag, exactly how phone-camera crawl images
    # arrive. The stored phash is computed on the decoded-and-
    # reoriented pixels (what decode_image yields), so the twin
    # collapses onto its base through the ordinary phash channel with
    # no special-casing downstream. Placed after all other slices so
    # the rng stream for pre-existing rows is unchanged.
    from raydedup.media import apply_orientation, decode_image

    inv_o = {2: 2, 3: 3, 4: 4, 5: 5, 6: 8, 7: 7, 8: 6}
    for bi in rng.choice(n_base, size=max(1, n_base // 50), replace=False):
        biid, bpx, bcap = base_rows[bi]
        o = int(rng.integers(2, 9))
        stored_px = np.ascontiguousarray(apply_orientation(bpx, inv_o[o]))
        data = encode_jpeg_rgb8(stored_px, quality=95, subsample="444", orientation=o)
        upright = decode_image(data, bpx.shape[1], bpx.shape[0], "jpeg")
        iid = f"img-{next_id:08d}"
        next_id += 1
        ids.append(iid)
        blobs.append(data)
        hs.append(upright.shape[0])
        ws.append(upright.shape[1])
        fmts.append("jpeg")
        caps.append(_caption(rng, vocab))
        phashes.append(phash64(upright))
        truth.root[iid] = biid
        truth.kind[iid] = "exif_rotated_dup"

    # cross-format dups: ~1.5% of base rows re-served losslessly as
    # bmp / tiff / ico — the classic crawl duplicate (same asset behind
    # different format negotiations). Lossless codecs ⇒ identical
    # decoded pixels ⇒ the phash channel collapses them with zero
    # special-casing. Appended last; fresh captions via rng are fine
    # because nothing after this consumes the stream.
    from raydedup.bmp import encode_bmp_rgb8, encode_ico_rgb8
    from raydedup.tiff import encode_tiff_rgb8

    for k, bi in enumerate(rng.choice(n_base, size=max(1, (3 * n_base) // 200), replace=False)):
        biid, bpx, bcap = base_rows[bi]
        fmt = ("bmp", "tiff", "ico")[k % 3]
        if fmt == "bmp":
            data = encode_bmp_rgb8(bpx)
        elif fmt == "tiff":
            data = encode_tiff_rgb8(bpx)
        else:
            data = encode_ico_rgb8(bpx)
        iid = f"img-{next_id:08d}"
        next_id += 1
        ids.append(iid)
        blobs.append(data)
        hs.append(bpx.shape[0])
        ws.append(bpx.shape[1])
        fmts.append(fmt)
        caps.append(_caption(rng, vocab))
        phashes.append(phash64(bpx))
        truth.root[iid] = biid
        truth.kind[iid] = "format_dup"

    # corrupt payloads: three rows whose METADATA is valid (caption,
    # phash, dims — computed upstream, as in a real crawl) but whose
    # bytes are undecodable (bad zlib stream / headerless JPEG / bad
    # VP8L signature — the storage-truncation class). Always the LAST
    # rows of the table so consumers can assert exactly which rows a
    # hardened decode stage must flag without killing the batch. Not
    # planted as dups: phashes are fresh.
    import struct as _struct

    corrupt_blobs = [
        (
            b"\x89PNG\r\n\x1a\n"
            + b"\x00\x00\x00\x0dIHDR"
            + _struct.pack(">IIBBBBB", 8, 8, 8, 2, 0, 0, 0)
            + b"XXXX"
            + b"\x00\x00\x00\x04IDAT"
            + b"nota"
            + b"XXXX"
            + b"\x00\x00\x00\x00IEND"
            + b"XXXX",
            "png",
        ),
        (
            b"\xff\xd8\xff\xe0"
            + _struct.pack(">H", 16)
            + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
            + b"\xff\xd9",
            "jpeg",
        ),
        (
            b"RIFF" + _struct.pack("<I", 13) + b"WEBPVP8L" + _struct.pack("<I", 2) + b"\x00\x00",
            "webp",
        ),
    ]
    for data, fmt in corrupt_blobs:
        iid = f"img-{next_id:08d}"
        next_id += 1
        ids.append(iid)
        blobs.append(data)
        hs.append(8)
        ws.append(8)
        fmts.append(fmt)
        caps.append(_caption(rng, vocab))
        phashes.append(phash64(_pixels(next_id, 8, 8, seed + 40_000_000)))
        truth.corrupt_ids.append(iid)

    table = pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(caps, pa.string()),
            "phash": pa.array(phashes, pa.int64()),
        },
        schema=IMAGES_SCHEMA,
    )
    return table, truth


def truth_pairs_table(table: pa.Table, truth: GroundTruth) -> pa.Table:
    """Planted-pair ground truth with the per-pair detectability
    ingredients precomputed, so an at-scale recall check needs only the
    pipeline's (image_id, cluster_id) output plus config thresholds:

    - ``vid_tokens``: token count of the VARIANT caption — a substring
      dup is findable only when the contained caption spans at least
      one anchor window (``cfg.substring_window``);
    - ``simhash_dist``: Hamming distance between the pair's 64-bit
      SimHash fingerprints — an image near-dup is findable when the
      distance fits the banded Hamming budget
      (``pipeline.SIMHASH_BANDS - 1``).

    Kinds: exact_dup / skew_exact_caption (always detectable),
    substring_dup, image_near_dup (gated as above), caption_near_dup
    (probabilistic under MinHash LSH — reported, not asserted)."""
    import numpy as np

    ids = table.column("image_id").to_pylist()
    pos = {iid: k for k, iid in enumerate(ids)}
    caps = table.column("caption").to_pylist()
    ph = table.column("phash").to_numpy(zero_copy_only=False)

    vids = list(truth.root)
    bases = [truth.root[v] for v in vids]
    kinds = [truth.kind[v] for v in vids]
    vi = np.array([pos[v] for v in vids], dtype=np.int64)
    bi = np.array([pos[b] for b in bases], dtype=np.int64)

    from raydedup.simhash import hamming_distance64, simhash_from_phash

    sd = hamming_distance64(
        simhash_from_phash(ph[vi]), simhash_from_phash(ph[bi])
    ).astype(np.int32)
    ntok = np.array([len(caps[k].split()) for k in vi], dtype=np.int32)
    return pa.table(
        {
            "image_id": pa.array(vids, pa.string()),
            "base_id": pa.array(bases, pa.string()),
            "kind": pa.array(kinds, pa.string()),
            "vid_tokens": pa.array(ntok),
            "simhash_dist": pa.array(sd),
        }
    )


def planted_recall(
    clusters: pa.Table,
    truth: pa.Table,
    substring_window: int = 4,
    simhash_bands: int = 4,
) -> dict:
    """Dup-pair recall of a pipeline's (image_id, cluster_id) output
    against a ``truth_pairs_table``: a planted pair is RECALLED when
    both members carry the same cluster label. ``must`` pairs are the
    deterministically-detectable subset at the given config (exact +
    skew always; substring when the variant spans an anchor window;
    image near-dups within the banded Hamming budget) — the north-rule
    bar is recall ≥ 0.99 on these. ``caption_near_dup`` is MinHash-LSH
    probabilistic (variants straddle the Jaccard threshold) and is
    reported per-kind, not gated. ``recall_per_kind`` averages over ALL
    planted pairs of the kind — including out-of-budget outliers (e.g.
    a pixel perturbation that moved the phash beyond the banded Hamming
    radius), so a kind can sit below 1.0 while the gated
    ``dup_pair_recall`` is exactly 1.0. Driver-side pandas joins: the
    truth table is planted pairs only (a small fraction of the corpus)."""
    import numpy as np

    lab = clusters.select(["image_id", "cluster_id"]).to_pandas()
    tt = truth.to_pandas()
    m = tt.merge(
        lab.rename(columns={"cluster_id": "c_v"}), on="image_id", how="left"
    ).merge(
        lab.rename(columns={"image_id": "base_id", "cluster_id": "c_b"}),
        on="base_id",
        how="left",
    )
    hit = (m["c_v"].notna() & (m["c_v"] == m["c_b"])).to_numpy()
    kind = m["kind"].to_numpy()
    must = (
        np.isin(kind, ("exact_dup", "skew_exact_caption"))
        | ((kind == "substring_dup") & (m["vid_tokens"].to_numpy() >= substring_window))
        | (
            np.isin(kind, ("image_near_dup", "exif_rotated_dup", "format_dup"))
            & (m["simhash_dist"].to_numpy() <= simhash_bands - 1)
        )
    )
    per_kind = {
        k: round(float(hit[kind == k].mean()), 4)
        for k in sorted(set(kind.tolist()))
    }
    return {
        "dup_pair_recall": round(float(hit[must].mean()), 4) if must.any() else None,
        "must_pairs": int(must.sum()),
        "planted_pairs": int(len(m)),
        "recall_per_kind": per_kind,
    }


def make_audio_table(n: int = 200, seed: int = 11, rate: int = 16000) -> pa.Table:
    """Deterministic audio corpus over every real codec path: each row
    is a two-tone + noise signal encoded as one of pcm16 / wav(IMA
    ADPCM, mono or stereo) / ulaw / alaw / flac / aiff / au, with the
    ORIGINAL (stereo: downmixed) signal's RMS stored
    as ``expected_rms`` so a verifier can check feature extraction
    (companded codecs reproduce RMS within ~2%; FLAC is lossless — exact)."""
    from raydedup import audio

    codecs = ["pcm16", "wav", "ulaw", "alaw", "flac", "aiff", "au", "wav_stereo"]
    ids, blobs, rates, ns, cods, exp = [], [], [], [], [], []
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        dur = int(rate * (0.25 + 0.5 * rng.random()))
        t = np.arange(dur)
        f1, f2 = rng.uniform(80, 500), rng.uniform(500, 3000)
        a1, a2 = rng.uniform(3000, 12000), rng.uniform(1000, 6000)
        x = a1 * np.sin(2 * np.pi * f1 * t / rate) + a2 * np.sin(2 * np.pi * f2 * t / rate)
        pcm = np.clip(x + rng.normal(0, 200, dur), -32768, 32767).astype(np.int16)
        codec = codecs[i % len(codecs)]
        if codec == "pcm16":
            blob = pcm.tobytes()
        elif codec == "wav":
            blob = audio.encode_wav_adpcm(pcm, rate)
        elif codec == "ulaw":
            blob = audio.encode_ulaw(pcm).tobytes()
        elif codec == "flac":
            from raydedup.flac import encode_flac

            blob = encode_flac(pcm, rate)  # lossless: RMS reproduced exactly
        elif codec == "aiff":
            blob = audio.encode_aiff_pcm16(pcm, rate)  # lossless container
        elif codec == "au":
            blob = audio.encode_au_ulaw(pcm, rate)  # µ-law companded
        elif codec == "wav_stereo":
            # stereo IMA ADPCM: R = attenuated phase-shifted copy; the
            # stage downmixes (mean), so the verified target is the
            # DOWNMIXED signal's RMS
            right = np.clip(pcm.astype(np.int32) * 2 // 3, -32768, 32767).astype(np.int16)
            lr = np.stack([pcm, np.roll(right, 7)], axis=1)
            blob = audio.encode_wav_adpcm_stereo(lr, rate)
            pcm = ((lr[:, 0].astype(np.int32) + lr[:, 1].astype(np.int32)) // 2).astype(
                np.int16
            )
        else:
            blob = audio.encode_alaw(pcm).tobytes()
        ids.append(f"aud-{i:06d}")
        blobs.append(blob)
        rates.append(rate)
        ns.append(dur)
        cods.append("wav" if codec == "wav_stereo" else codec)
        exp.append(float(np.sqrt(np.mean((pcm.astype(np.float64) / 32768.0) ** 2))))
    return pa.table(
        {
            "audio_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "sample_rate": pa.array(rates, pa.int32()),
            "n_samples": pa.array(ns, pa.int32()),
            "codec": pa.array(cods, pa.string()),
            "expected_rms": pa.array(exp, pa.float64()),
        }
    )


def make_videos_table(n: int = 40, seed: int = 13, w: int = 48, h: int = 32) -> pa.Table:
    """Deterministic video corpus: cycling mjpeg (real lossy codec),
    rawvideo and animated-gif payloads of drifting-gradient frames. Stores
    the phash64 of each ROUND-TRIPPED sampled frame (every 5th, ≤4) as
    ``frame_phashes`` so a verifier can check the sampling+decode path
    bit-exactly — the same decoded-pixels-invariant pattern the image
    corpus uses for its JPEG slice."""
    from raydedup.gif import decode_gif, encode_gif_rgb8
    from raydedup.media import phash64 as _ph
    from raydedup.video import decode_mjpeg_frame, encode_mjpeg, split_mjpeg

    ids, blobs, ws, hs, nfs, cods, phl = [], [], [], [], [], [], []
    for i in range(n):
        rng = np.random.default_rng(seed + i)
        n_frames = int(rng.integers(8, 20))
        frames = []
        phase = rng.uniform(0, 6.28)
        for fidx in range(n_frames):
            y, x = np.mgrid[0:h, 0:w]
            base = 128 + 60 * np.sin(x / 7.0 + phase + fidx * 0.5) + 50 * np.cos(y / 5.0 - fidx * 0.3)
            f = np.stack([base, np.roll(base, fidx, axis=1), base[::-1]], axis=-1)
            frames.append(np.clip(f + rng.normal(0, 2, f.shape), 0, 255).astype(np.uint8))
        codec = ("mjpeg", "rawvideo", "gif", "avi")[i % 4]
        if codec == "mjpeg":
            blob = encode_mjpeg(frames, quality=90)
            decoded = [decode_mjpeg_frame(p) for p in split_mjpeg(blob)]
        elif codec == "avi":
            # the container real crawl MJPEG arrives in: RIFF/AVI with
            # MJPG '00dc' chunks; stored phashes from the round-tripped
            # container walk, the same decoded-pixels invariant
            from raydedup.video import encode_avi_mjpeg, parse_avi_mjpeg

            blob = encode_avi_mjpeg(frames, fps=10, quality=90)
            decoded = [decode_mjpeg_frame(p) for p in parse_avi_mjpeg(blob)[0]]
        elif codec == "gif":
            # animated GIF89a (3-3-2-quantized palette, diff-optimized
            # frames): stored phashes come from the round-tripped
            # composited frames, the same decoded-pixels invariant
            blob = encode_gif_rgb8(frames, optimize=True)
            decoded = decode_gif(blob)
        else:
            blob = b"".join(f.tobytes() for f in frames)
            decoded = frames
        sampled = [decoded[fidx] for k, fidx in enumerate(range(0, n_frames, 5)) if k < 4]
        ids.append(f"vid-{i:06d}")
        blobs.append(blob)
        ws.append(w)
        hs.append(h)
        nfs.append(n_frames)
        cods.append(codec)
        phl.append([_ph(f) for f in sampled])
    return pa.table(
        {
            "video_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "n_frames": pa.array(nfs, pa.int32()),
            "codec": pa.array(cods, pa.string()),
            "frame_phashes": pa.array(phl, pa.list_(pa.int64())),
        }
    )
