"""Multimodal map stages: image decode, feature-extract, resize; audio
features; video frame sampling.

Images are opaque ``binary`` payloads with typed metadata (w, h, fmt).
Each stage is a callable class holding only scalar parameters; the
queries run it as plain tasks, ``map_batches(grouped.task_stage(Cls,
**kwargs), batch_size=B)`` (it also works as an actor-pool class) —
small batches because payloads are wide (the brief's memory-aware
rule). The raw/png/jpeg/gif/webp/bmp/tiff/ico/pnm codecs
are real from-scratch implementations (raydedup.media dispatches; jpeg
covers the lossy PSNR-invariant path, baseline AND progressive, with
EXIF Orientation honored); only DSP-table-bound codecs (lossy VP8,
avif, heic) raise ``NotImplementedError`` — a clearly-marked stub with
the Ray-side plumbing (schema, actor signature, output layout) real
and tested.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from raydedup.media import (
    box_downsample,
    decode_image,
    phash64,
    psnr,
    resize_image,
    sniff_format,
)


class DecodeFeaturesStage:
    """Decode each payload and emit compact per-image features:
    (image_id, phash_check:int64, mean_r/g/b:float64, decode_ok:bool).
    Never re-emits the pixels — features leave, bytes stay."""

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        ws = batch.column("w").to_pylist()
        hs = batch.column("h").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        ph, means, ok = [], [], []
        for i in range(len(ids)):
            img = None
            try:
                img = decode_image(blobs[i], ws[i], hs[i], fmts[i])
            except Exception:
                if self.strict:
                    raise
                # crawl reality: metadata lies — before flagging, retry
                # under the magic-byte-sniffed container (a JPEG served
                # as .png is routine); raw/TGA have no magic and stay
                # declared-only
                sniffed = sniff_format(blobs[i])
                if sniffed is not None and sniffed != fmts[i]:
                    try:
                        img = decode_image(blobs[i], ws[i], hs[i], sniffed)
                    except Exception:
                        img = None
            if img is not None:
                ph.append(phash64(img))
                means.append(img.reshape(-1, 3).mean(axis=0))
                ok.append(True)
            else:
                ph.append(0)
                means.append(np.zeros(3))
                ok.append(False)
        means = np.asarray(means, dtype=np.float64)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "phash_check": pa.array(ph, pa.int64()),
                "mean_r": pa.array(means[:, 0], pa.float64()),
                "mean_g": pa.array(means[:, 1], pa.float64()),
                "mean_b": pa.array(means[:, 2], pa.float64()),
                "decode_ok": pa.array(ok, pa.bool_()),
            }
        )


class DecodeInvariantStage:
    """Actor-pool stage checking the per-row image invariant
    (BASELINE.json input_hint): decode the payload and report PSNR vs a
    deterministically regenerated reference buffer (lossless fmts must
    be bit-exact → PSNR inf; lossy must be ≥ min_psnr_db).

    Emits (image_id, fmt, psnr_db, ok) — a metrics table, not a filter.
    """

    def __init__(self, min_psnr_db: float = 40.0):
        self.min_psnr_db = min_psnr_db

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        ws = batch.column("w").to_pylist()
        hs = batch.column("h").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        refs = batch.column("ref_pixels").to_pylist() if "ref_pixels" in batch.column_names else None
        out_psnr, ok = [], []
        for i in range(len(ids)):
            img = decode_image(blobs[i], ws[i], hs[i], fmts[i])
            if refs is not None:
                ref = np.frombuffer(refs[i], dtype=np.uint8).reshape(hs[i], ws[i], 3)
                p = psnr(img, ref)
            else:
                p = float("inf")  # decode succeeded; no reference buffer provided
            out_psnr.append(p)
            ok.append(p >= self.min_psnr_db)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "fmt": pa.array(fmts, pa.string()),
                "psnr_db": pa.array(out_psnr, pa.float64()),
                "ok": pa.array(ok, pa.bool_()),
            }
        )


class ResizeStage:
    """Resize every image to a fixed target and emit the raster as
    fixed-size binary — the thumbnail / model-input path.

    ``mode="rgb"`` (default) emits (out_h, out_w, 3) uint8 via
    :func:`raydedup.media.resize_image` — exact block-mean (area)
    averaging on integer-factor downscales, bilinear otherwise, both
    fully vectorized. ``mode="gray"`` keeps the legacy grayscale
    box-downsample (square ``out``). Output payloads are fixed-width,
    so downstream batches are dense and shuffles ship predictable
    bytes — the property a 100-TB thumbnail stage needs."""

    def __init__(
        self,
        out: int = 8,
        out_w: int | None = None,
        mode: str = "rgb",
        strict: bool = False,
    ):
        if mode not in ("rgb", "gray"):
            raise ValueError(f"mode {mode!r}: rgb or gray")
        self.out_h = out
        self.out_w = out if out_w is None else out_w
        self.mode = mode
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        ws = batch.column("w").to_pylist()
        hs = batch.column("h").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        out_ids, thumbs = [], []
        for i in range(len(ids)):
            try:
                img = decode_image(blobs[i], ws[i], hs[i], fmts[i])
            except Exception:
                # corrupt payload: drop the row (flat-map semantics) —
                # a thumbnailer must not die to one bad crawl blob
                if self.strict:
                    raise
                continue
            if self.mode == "gray":
                t = np.clip(box_downsample(img, self.out_h), 0, 255).astype(np.uint8)
            else:
                t = resize_image(img, self.out_h, self.out_w)
            out_ids.append(ids[i])
            thumbs.append(t.tobytes())
        return pa.table(
            {
                "image_id": pa.array(out_ids, pa.string()),
                "thumb": pa.array(thumbs, pa.binary()),
                "thumb_w": pa.array([self.out_w] * len(out_ids), pa.int32()),
                "thumb_h": pa.array([self.out_h] * len(out_ids), pa.int32()),
            }
        )


class AudioFeatureStage:
    """Audio feature extraction over opaque ``binary`` payloads with
    typed metadata (sample_rate:int32, n_samples:int32, codec:string).

    The Ray-side plumbing is real — actor-pool signature, small batch
    sizing, feature-only output schema (audio bytes never re-emitted).
    Decoders (:mod:`raydedup.audio`, from the public specs): raw
    ``pcm16``, RIFF ``wav`` containers (PCM8/PCM16, G.711 µ-law/A-law,
    mono and stereo IMA ADPCM format tags), and raw ``ulaw``/``alaw``
    streams.
    Codecs this environment genuinely can't build from scratch (opus,
    mp3, aac) raise ``NotImplementedError`` — a clearly-marked
    env-gated stub; a library decoder slots into ``_decode``
    unchanged."""

    SCHEMA = pa.schema(
        [
            ("audio_id", pa.string()),
            ("rms", pa.float64()),
            ("peak", pa.float64()),
            ("zero_crossings", pa.int64()),
            ("duration_s", pa.float64()),
            ("decode_ok", pa.bool_()),
        ]
    )

    def __init__(self, strict: bool = False):
        self.strict = strict

    def _decode(self, data: bytes, codec: str) -> np.ndarray:
        from raydedup import audio

        if codec == "pcm16":
            return np.frombuffer(data, dtype=np.int16).astype(np.float64) / 32768.0
        if codec == "wav":
            return audio.decode_wav(data)[0]
        if codec == "ulaw":
            return audio.decode_ulaw(data).astype(np.float64) / 32768.0
        if codec == "alaw":
            return audio.decode_alaw(data).astype(np.float64) / 32768.0
        if codec == "flac":
            from raydedup.flac import decode_flac

            samples, _ = decode_flac(data)
            if samples.ndim == 2:  # features over the mono mixdown
                samples = samples.mean(axis=1)
            return samples.astype(np.float64) / 32768.0
        if codec == "aiff":
            return audio.decode_aiff(data)[0]
        if codec == "au":
            return audio.decode_au(data)[0]
        raise NotImplementedError(
            f"audio codec {codec!r}: no audio libraries in this environment"
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        from raydedup import audio

        ids = batch.column("audio_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        codecs = batch.column("codec").to_pylist()
        rates = batch.column("sample_rate").to_pylist()
        nsamp = (
            batch.column("n_samples").to_pylist()
            if "n_samples" in batch.column_names
            else [None] * len(ids)
        )
        # WAV rows decode as ONE batch so every ADPCM block in the
        # batch becomes a lane of the vectorized recurrence (the
        # per-clip scalar loop was ~50× slower on the feature corpus);
        # per-row errors come back as exception entries.
        wav_rows = [k for k, c in enumerate(codecs) if c == "wav"]
        wav_dec = dict(
            zip(wav_rows, audio.decode_wav_batch([blobs[k] for k in wav_rows]))
        )
        rms, peak, zc, dur, ok = [], [], [], [], []
        for k, (blob, codec, rate, n) in enumerate(zip(blobs, codecs, rates, nsamp)):
            try:
                if codec == "wav":
                    v = wav_dec[k]
                    if isinstance(v, Exception):
                        raise v
                    x = v[0]
                else:
                    x = self._decode(blob, codec)
                if n:  # block codecs (ADPCM) pad the final block
                    x = x[:n]
                rms.append(float(np.sqrt(np.mean(x * x))) if len(x) else 0.0)
                peak.append(float(np.abs(x).max()) if len(x) else 0.0)
                zc.append(int(np.count_nonzero(np.signbit(x[1:]) != np.signbit(x[:-1]))))
                dur.append(len(x) / max(rate, 1))
                ok.append(True)
            except Exception:
                # corrupt payloads flag the row, never kill the batch
                if self.strict:
                    raise
                rms.append(0.0)
                peak.append(0.0)
                zc.append(0)
                dur.append(0.0)
                ok.append(False)
        return pa.table(
            {
                "audio_id": pa.array(ids, pa.string()),
                "rms": pa.array(rms, pa.float64()),
                "peak": pa.array(peak, pa.float64()),
                "zero_crossings": pa.array(zc, pa.int64()),
                "duration_s": pa.array(dur, pa.float64()),
                "decode_ok": pa.array(ok, pa.bool_()),
            }
        )


class FrameSampleStage:
    """Video frame sampling over opaque ``binary`` payloads with typed
    metadata (w, h, n_frames:int32, codec:string): emits one row PER
    SAMPLED FRAME (video_id, frame_idx, frame_bytes, w, h) — the
    flat-map layout downstream image stages consume directly.

    ``rawvideo`` (concatenated h*w*3 frames), ``mjpeg`` (concatenated
    baseline JPEGs, decoded by the from-scratch codec in
    :mod:`raydedup.video` — sampled frames are marker-indexed first so
    unsampled frames' bytes are never entropy-decoded) and ``gif``
    (animated GIF89a via :mod:`raydedup.gif`, composited per disposal
    semantics) sample for real; inter-frame codecs (h264 etc.) raise
    ``NotImplementedError`` (env-gated stub — not buildable from
    scratch here)."""

    def __init__(self, every_n: int = 10, max_frames: int = 4, strict: bool = False):
        self.every_n = every_n
        self.max_frames = max_frames
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from raydedup.gif import decode_gif
        from raydedup.video import decode_mjpeg_frame, mjpeg_frame_offsets

        ids = batch.column("video_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        ws = batch.column("w").to_pylist()
        hs = batch.column("h").to_pylist()
        nf = batch.column("n_frames").to_pylist()
        codecs = batch.column("codec").to_pylist()
        o_id, o_idx, o_bytes, o_w, o_h = [], [], [], [], []
        for vid, blob, w, h, n, codec in zip(ids, blobs, ws, hs, nf, codecs):
            # per-video buffers: a corrupt payload mid-decode drops the
            # whole video (no partial emissions) instead of killing the
            # batch — crawl-shaped behavior; strict=True raises
            v_idx: list[int] = []
            v_frames: list = []
            try:
                if codec == "rawvideo":
                    frame_sz = w * h * 3
                    for k, f in enumerate(range(0, n, self.every_n)):
                        if k >= self.max_frames:
                            break
                        v_idx.append(f)
                        v_frames.append((blob[f * frame_sz : (f + 1) * frame_sz], w, h))
                elif codec in ("mjpeg", "avi"):
                    if codec == "avi":
                        # container chunks give exact frame payloads with
                        # no marker scan; only sampled frames are decoded
                        from raydedup.video import parse_avi_mjpeg

                        payloads, _, _, _ = parse_avi_mjpeg(blob)
                        offs = [(None, p) for p in payloads]
                    else:
                        offs = mjpeg_frame_offsets(blob)
                    for k, f in enumerate(range(0, min(n, len(offs)), self.every_n)):
                        if k >= self.max_frames:
                            break
                        a, b = offs[f]
                        px = decode_mjpeg_frame(b if a is None else blob[a:b])
                        v_idx.append(f)
                        v_frames.append((px.tobytes(), px.shape[1], px.shape[0]))
                elif codec == "gif":
                    # animated GIF: frames depend on their predecessors
                    # (disposal/transparency), so decode sequentially and
                    # sample the composited frames
                    frames = decode_gif(blob)
                    for k, f in enumerate(range(0, min(n, len(frames)), self.every_n)):
                        if k >= self.max_frames:
                            break
                        px = frames[f]
                        v_idx.append(f)
                        v_frames.append((px.tobytes(), px.shape[1], px.shape[0]))
                else:
                    raise NotImplementedError(
                        f"video codec {codec!r}: no video libraries in this environment"
                    )
            except Exception:
                if self.strict:
                    raise
                continue
            for f, (fb, fw, fh) in zip(v_idx, v_frames):
                o_id.append(vid)
                o_idx.append(f)
                o_bytes.append(fb)
                o_w.append(fw)
                o_h.append(fh)
        return pa.table(
            {
                "video_id": pa.array(o_id, pa.string()),
                "frame_idx": pa.array(o_idx, pa.int32()),
                "frame_bytes": pa.array(o_bytes, pa.binary()),
                "w": pa.array(o_w, pa.int32()),
                "h": pa.array(o_h, pa.int32()),
            }
        )
