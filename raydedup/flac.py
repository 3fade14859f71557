"""Pure-numpy FLAC codec — no libFLAC/soundfile in this environment.

Real audio corpora are mostly compressed; FLAC is the one mainstream
audio compression buildable from scratch here because it is fully
specified (the public FLAC format spec / RFC 9639) and lossless — the
decoded-samples invariant is exact equality, the strongest form of the
media-path verification the engine uses everywhere else.

- decoder: STREAMINFO + frame parsing (UTF-8-coded frame numbers,
  all block-size/sample-rate/sample-size code forms), subframe types
  CONSTANT / VERBATIM / FIXED(0-4) / LPC(1-32), Rice-partitioned
  residuals (4- and 5-bit parameters, escape-to-raw), stereo
  decorrelation (independent, left/side, right/side, mid/side), and
  CRC-8 (header) + CRC-16 (frame) verification. FIXED reconstruction
  is vectorized as repeated integer cumsum; LPC is the inherently
  sequential IIR recurrence.
- encoder: per-block best-of CONSTANT / FIXED(0-4) / LPC(8) chosen by
  the Rice-optimal bit estimate; LPC analysis is textbook
  autocorrelation + Levinson-Durbin with coefficient quantization;
  mono or stereo (independent or mid/side, whichever estimates
  smaller); writes the STREAMINFO MD5 so any decoder can verify.

Like :mod:`raydedup.jpeg` and :mod:`raydedup.gif`, this implements the
public wire format from the spec, not a port of any library.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_CRC8_POLY = 0x07
_CRC16_POLY = 0x8005


def _crc_table(poly: int, width: int) -> np.ndarray:
    tbl = np.zeros(256, dtype=np.uint32)
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    for i in range(256):
        c = i << (width - 8)
        for _ in range(8):
            c = ((c << 1) ^ poly) if c & top else (c << 1)
        tbl[i] = c & mask
    return tbl


_CRC8_TBL = _crc_table(_CRC8_POLY, 8)
_CRC16_TBL = _crc_table(_CRC16_POLY, 16)


def _crc8(data: bytes) -> int:
    c = 0
    for b in data:
        c = int(_CRC8_TBL[c ^ b])
    return c


def _crc16(data: bytes) -> int:
    c = 0
    for b in data:
        c = int(_CRC16_TBL[((c >> 8) ^ b) & 0xFF]) ^ ((c << 8) & 0xFFFF)
    return c


# ------------------------------------------------------------- bit io
class _BitReader:
    """MSB-first reader with a set-bit index for O(log n) unary reads
    (Rice quotients are zeros terminated by a one)."""

    __slots__ = ("bits", "ones", "pos")

    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.ones = np.flatnonzero(self.bits)
        self.pos = 0

    def read(self, n: int) -> int:
        if n == 0:
            return 0
        b = self.bits[self.pos : self.pos + n]
        if len(b) < n:
            raise ValueError("truncated FLAC bitstream")
        self.pos += n
        return int(b.dot(1 << np.arange(n - 1, -1, -1, dtype=np.int64)))

    def read_signed(self, n: int) -> int:
        v = self.read(n)
        return v - (1 << n) if v >= (1 << (n - 1)) else v

    def read_unary(self) -> int:
        i = int(np.searchsorted(self.ones, self.pos))
        if i >= len(self.ones):
            raise ValueError("truncated FLAC unary")
        one = int(self.ones[i])
        q = one - self.pos
        self.pos = one + 1
        return q

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7


class _BitWriter:
    __slots__ = ("out", "buf", "nbuf")

    def __init__(self):
        self.out = bytearray()
        self.buf = 0
        self.nbuf = 0

    def write(self, v: int, n: int) -> None:
        if n == 0:
            return
        self.buf = (self.buf << n) | (v & ((1 << n) - 1))
        self.nbuf += n
        while self.nbuf >= 8:
            self.nbuf -= 8
            self.out.append((self.buf >> self.nbuf) & 0xFF)
        self.buf &= (1 << self.nbuf) - 1

    def write_unary(self, q: int) -> None:
        while q >= 32:
            self.write(0, 32)
            q -= 32
        self.write(1, q + 1)

    def align(self) -> None:
        if self.nbuf:
            self.write(0, 8 - self.nbuf)

    def tobytes(self) -> bytes:
        if self.nbuf:
            raise ValueError("bit writer is not byte-aligned; call align() first")
        return bytes(self.out)


# ------------------------------------------------------------- residual
def _rice_decode(br: _BitReader, n: int, bps_escape: int) -> np.ndarray:
    """One Rice partition: ``n`` zigzag-folded residuals at the current
    parameter (already read by the caller as ``bps_escape``: >=0 means
    rice parameter k, -raw-1 means escape with raw bit width)."""
    out = np.empty(n, dtype=np.int64)
    if bps_escape < 0:
        raw = -bps_escape - 1
        if raw == 0:
            out[:] = 0
            return out
        for i in range(n):
            out[i] = br.read_signed(raw)
        return out
    k = bps_escape
    for i in range(n):
        q = br.read_unary()
        u = (q << k) | br.read(k)
        out[i] = (u >> 1) ^ -(u & 1)  # unfold zigzag
    return out


def _read_residual(br: _BitReader, block_size: int, pred_order: int) -> np.ndarray:
    method = br.read(2)
    if method > 1:
        raise ValueError("reserved FLAC residual coding method")
    pbits = 4 if method == 0 else 5
    escape = (1 << pbits) - 1
    part_order = br.read(4)
    nparts = 1 << part_order
    if block_size % nparts:
        raise ValueError("invalid FLAC partition order")
    out = np.empty(block_size - pred_order, dtype=np.int64)
    at = 0
    for p in range(nparts):
        n = (block_size >> part_order) - (pred_order if p == 0 else 0)
        param = br.read(pbits)
        if param == escape:
            spec = -(br.read(5) + 1)
        else:
            spec = param
        out[at : at + n] = _rice_decode(br, n, spec)
        at += n
    return out


def _rice_cost(res: np.ndarray, k: int) -> int:
    u = (res << 1) ^ (res >> 63)
    return int((u >> k).sum()) + len(res) * (k + 1)


def _best_rice_k(res: np.ndarray) -> int:
    if len(res) == 0:
        return 0
    u = (res << 1) ^ (res >> 63)
    mean = max(1.0, float(u.mean()))
    k = max(0, int(np.log2(mean)))
    best, bestc = k, _rice_cost(res, k)
    for cand in (k - 1, k + 1, k + 2):
        if 0 <= cand <= 14:
            c = _rice_cost(res, cand)
            if c < bestc:
                best, bestc = cand, c
    return best


def _write_residual(bw: _BitWriter, res: np.ndarray) -> None:
    """Single-partition 4-bit Rice coding (partition order 0)."""
    bw.write(0, 2)  # method: rice, 4-bit params
    bw.write(0, 4)  # partition order 0
    k = min(_best_rice_k(res), 14)
    bw.write(k, 4)
    u = (res << 1) ^ (res >> 63)
    for v in u:
        v = int(v)
        bw.write_unary(v >> k)
        bw.write(v, k)


# ------------------------------------------------------------ predictors
_FIXED_COEFS = {
    0: np.array([], dtype=np.int64),
    1: np.array([1], dtype=np.int64),
    2: np.array([2, -1], dtype=np.int64),
    3: np.array([3, -3, 1], dtype=np.int64),
    4: np.array([4, -6, 4, -1], dtype=np.int64),
}


def _fixed_residual(x: np.ndarray, order: int) -> np.ndarray:
    r = x.astype(np.int64)
    for _ in range(order):
        r = np.diff(r)
    return r


def _lpc_restore(warm: np.ndarray, res: np.ndarray, coefs: np.ndarray, shift: int) -> np.ndarray:
    order = len(coefs)
    out = np.empty(order + len(res), dtype=np.int64)
    out[:order] = warm
    c = [int(v) for v in coefs]
    o = out
    for i in range(order, len(out)):
        pred = 0
        for j in range(order):
            pred += c[j] * int(o[i - 1 - j])
        o[i] = int(res[i - order]) + (pred >> shift)
    return out


def _levinson(x: np.ndarray, order: int) -> np.ndarray:
    """Autocorrelation + Levinson-Durbin -> LPC coefficients (float)."""
    xf = x.astype(np.float64)
    n = len(xf)
    ac = np.array([float(np.dot(xf[: n - lag], xf[lag:])) for lag in range(order + 1)])
    if ac[0] == 0:
        return np.zeros(order)
    err = ac[0]
    a = np.zeros(order)
    for i in range(order):
        acc = ac[i + 1] - np.dot(a[:i], ac[1 : i + 1][::-1])
        k = acc / err
        a[: i + 1] = np.concatenate([a[:i] - k * a[:i][::-1], [k]])
        err *= 1 - k * k
        if err <= 0:
            break
    return a


def _quantize_lpc(a: np.ndarray, precision: int = 12) -> tuple[np.ndarray, int]:
    cmax = float(np.abs(a).max()) if len(a) else 0.0
    if cmax <= 0:
        return np.zeros(len(a), dtype=np.int64), 0
    shift = precision - 1 - max(0, int(np.floor(np.log2(cmax))) + 1)
    shift = max(0, min(15, shift))
    q = np.clip(np.round(a * (1 << shift)), -(1 << (precision - 1)), (1 << (precision - 1)) - 1)
    return q.astype(np.int64), shift


def _lpc_residual(x: np.ndarray, coefs: np.ndarray, shift: int) -> np.ndarray:
    order = len(coefs)
    xi = x.astype(np.int64)
    pred = np.zeros(len(xi) - order, dtype=np.int64)
    for j in range(order):
        pred += int(coefs[j]) * xi[order - 1 - j : len(xi) - 1 - j]
    return xi[order:] - (pred >> shift)


# ---------------------------------------------------------------- frames
def _utf8_number(bw: _BitWriter, v: int) -> None:
    """FLAC's UTF-8-style frame-number coding."""
    if v < 0x80:
        bw.write(v, 8)
        return
    bits = v.bit_length()
    nbytes = 2
    while bits > 1 + 5 * nbytes:
        nbytes += 1
    lead = (0xFF << (8 - nbytes)) & 0xFF
    bw.write(lead | (v >> (6 * (nbytes - 1))), 8)
    for i in range(nbytes - 2, -1, -1):
        bw.write(0x80 | ((v >> (6 * i)) & 0x3F), 8)


def _read_utf8_number(br: _BitReader) -> int:
    b0 = br.read(8)
    if b0 < 0x80:
        return b0
    n = 0
    while b0 & (0x80 >> n):
        n += 1
    v = b0 & (0x7F >> n)
    for _ in range(n - 1):
        v = (v << 6) | (br.read(8) & 0x3F)
    return v


_BLOCK = 4096


def _subframe_plan(x: np.ndarray) -> tuple[str, int, np.ndarray, np.ndarray, int]:
    """Choose (kind, order, residual, coefs, shift) minimizing the Rice
    bit estimate across CONSTANT / FIXED 0-4 / LPC(8)."""
    if np.all(x == x[0]):
        return "constant", 0, x[:0].astype(np.int64), _FIXED_COEFS[0], 0
    best = None
    for order in range(5):
        if order >= len(x):
            break
        res = _fixed_residual(x, order)
        cost = _rice_cost(res, _best_rice_k(res)) + order * 17
        if best is None or cost < best[0]:
            best = (cost, "fixed", order, res, _FIXED_COEFS[order], 0)
    order = 8
    if len(x) > 2 * order:
        coefs, shift = _quantize_lpc(_levinson(x, order))
        if np.any(coefs):
            res = _lpc_residual(x, coefs, shift)
            cost = _rice_cost(res, _best_rice_k(res)) + order * (17 + 12) + 9
            if cost < best[0]:
                best = (cost, "lpc", order, res, coefs, shift)
    return best[1], best[2], best[3], best[4], best[5]


def _write_subframe(bw: _BitWriter, x: np.ndarray, bps: int) -> None:
    kind, order, res, coefs, shift = _subframe_plan(x)
    bw.write(0, 1)  # zero pad
    if kind == "constant":
        bw.write(0b000000, 6)
        bw.write(0, 1)  # no wasted bits
        bw.write(int(x[0]) & ((1 << bps) - 1), bps)
        return
    if kind == "fixed":
        bw.write(0b001000 | order, 6)
        bw.write(0, 1)
        for v in x[:order]:
            bw.write(int(v) & ((1 << bps) - 1), bps)
        _write_residual(bw, res)
        return
    bw.write(0b100000 | (order - 1), 6)  # LPC
    bw.write(0, 1)
    for v in x[:order]:
        bw.write(int(v) & ((1 << bps) - 1), bps)
    bw.write(12 - 1, 4)  # qlp precision code
    bw.write(shift, 5)
    for c in coefs:
        bw.write(int(c) & 0xFFF, 12)
    _write_residual(bw, res)


def _read_subframe(br: _BitReader, block_size: int, bps: int) -> np.ndarray:
    if br.read(1):
        raise ValueError("FLAC subframe padding bit set")
    stype = br.read(6)
    wasted = 0
    if br.read(1):  # wasted-bits-per-sample flag: unary count - 1
        wasted = br.read_unary() + 1
    eff = bps - wasted
    if stype == 0b000000:  # constant
        out = np.full(block_size, br.read_signed(eff), dtype=np.int64)
    elif stype == 0b000001:  # verbatim
        out = np.array([br.read_signed(eff) for _ in range(block_size)], dtype=np.int64)
    elif 0b001000 <= stype <= 0b001100:  # fixed
        order = stype & 0x07
        warm = np.array([br.read_signed(eff) for _ in range(order)], dtype=np.int64)
        res = _read_residual(br, block_size, order)
        if order == 0:
            out = res
        else:
            out = warm.copy()
            # repeated integration: each pass undoes one diff
            cur = res
            for d in range(order, 0, -1):
                w = _fixed_residual(warm, d - 1)[-1:] if d > 1 else warm[-1:]
                cur = np.cumsum(np.concatenate([w, cur]))[1:]
            out = np.concatenate([warm, cur])
    elif stype >= 0b100000:  # LPC
        order = (stype & 0x1F) + 1
        warm = np.array([br.read_signed(eff) for _ in range(order)], dtype=np.int64)
        prec = br.read(4) + 1
        if prec == 16:
            raise ValueError("invalid FLAC qlp precision")
        shift = br.read(5)
        coefs = np.array([br.read_signed(prec) for _ in range(order)], dtype=np.int64)
        res = _read_residual(br, block_size, order)
        out = _lpc_restore(warm, res, coefs, shift)
    else:
        raise ValueError(f"reserved FLAC subframe type {stype:#08b}")
    return out << wasted


_BS_CODE_FIXED = {192: 1, 576: 2, 1152: 3, 2304: 4, 4608: 5, 256: 8, 512: 9, 1024: 10, 2048: 11, 4096: 12, 8192: 13, 16384: 14, 32768: 15}


def encode_flac(pcm: np.ndarray, rate: int) -> bytes:
    """int16 samples (mono ``(n,)`` or stereo ``(n, 2)``) -> FLAC bytes
    (STREAMINFO with real MD5 + fixed-blocksize frames; per block the
    cheaper of independent and mid/side stereo)."""
    if pcm.dtype != np.int16 or pcm.ndim not in (1, 2):
        raise ValueError("encode_flac expects int16 (n,) or (n, 2)")
    stereo = pcm.ndim == 2
    if stereo and pcm.shape[1] != 2:
        raise ValueError("only mono or 2-channel supported")
    n = pcm.shape[0]
    if n == 0:
        raise ValueError("empty signal")
    md5 = hashlib.md5(pcm.astype("<i2").tobytes()).digest()

    out = bytearray(b"fLaC")
    # STREAMINFO (last metadata block)
    si = bytearray()
    si += struct.pack(">HH", min(_BLOCK, n), min(_BLOCK, n))
    si += b"\x00\x00\x00" * 2  # min/max frame size unknown
    packed = (rate << 44) | ((2 if stereo else 1) - 1) << 41 | (16 - 1) << 36 | n
    si += packed.to_bytes(8, "big")
    si += md5
    out += bytes([0x80]) + len(si).to_bytes(3, "big") + si

    for fi, start in enumerate(range(0, n, _BLOCK)):
        block = pcm[start : start + _BLOCK]
        bs = block.shape[0]
        bw = _BitWriter()
        bs_code = _BS_CODE_FIXED.get(bs, 7)  # 7: 16-bit follow value
        if stereo:
            left = block[:, 0].astype(np.int64)
            right = block[:, 1].astype(np.int64)
            mid = (left + right) >> 1
            side = left - right
            cost_ind = _rice_cost(np.diff(left), 10) + _rice_cost(np.diff(right), 10)
            cost_ms = _rice_cost(np.diff(mid), 10) + _rice_cost(np.diff(side), 10)
            use_ms = cost_ms < cost_ind
            chan_assign = 0b1010 if use_ms else 0b0001
        else:
            chan_assign = 0b0000
        bw.write(0b11111111111110, 14)
        bw.write(0, 1)  # reserved
        bw.write(0, 1)  # fixed blocksize stream
        bw.write(bs_code, 4)
        bw.write(0, 4)  # sample rate: from STREAMINFO
        bw.write(chan_assign, 4)
        bw.write(0b100, 3)  # 16 bps
        bw.write(0, 1)
        _utf8_number(bw, fi)
        if bs_code == 7:
            bw.write(bs - 1, 16)
        bw.align()
        hdr = bw.tobytes()
        bw2 = _BitWriter()
        if not stereo:
            _write_subframe(bw2, block.astype(np.int64), 16)
        elif chan_assign == 0b1010:  # mid/side: side gets bps+1
            _write_subframe(bw2, mid, 16)
            _write_subframe(bw2, side, 17)
        else:
            _write_subframe(bw2, left, 16)
            _write_subframe(bw2, right, 16)
        bw2.align()
        body = hdr + bytes([_crc8(hdr)]) + bw2.tobytes()
        out += body + struct.pack(">H", _crc16(body))
    return bytes(out)


def decode_flac(data: bytes) -> tuple[np.ndarray, int]:
    """FLAC bytes -> (int16 samples ``(n,)`` or ``(n, ch)``, rate),
    verifying header CRC-8, frame CRC-16, and the STREAMINFO MD5 when
    present."""
    if data[:4] != b"fLaC":
        raise ValueError("not a FLAC stream")
    pos = 4
    rate = channels = bps = None
    total = 0
    md5 = b"\x00" * 16
    while True:
        hdr = data[pos]
        btype = hdr & 0x7F
        last = bool(hdr & 0x80)
        ln = int.from_bytes(data[pos + 1 : pos + 4], "big")
        body = data[pos + 4 : pos + 4 + ln]
        pos += 4 + ln
        if btype == 0:  # STREAMINFO
            packed = int.from_bytes(body[10:18], "big")
            rate = packed >> 44
            channels = ((packed >> 41) & 0x7) + 1
            bps = ((packed >> 36) & 0x1F) + 1
            total = packed & ((1 << 36) - 1)
            md5 = body[18:34]
        if last:
            break
    if rate is None:
        raise ValueError("FLAC stream missing STREAMINFO")
    if bps != 16:
        raise NotImplementedError("only 16-bit FLAC supported")

    chans: list[list[np.ndarray]] = [[] for _ in range(channels)]
    got = 0
    while pos < len(data) and (total == 0 or got < total):
        frame_start = pos
        br = _BitReader(data[pos:])
        if br.read(14) != 0b11111111111110:
            raise ValueError("lost FLAC frame sync")
        br.read(1)
        br.read(1)  # blocking strategy
        bs_code = br.read(4)
        sr_code = br.read(4)
        chan_assign = br.read(4)
        ss_code = br.read(3)
        br.read(1)
        _read_utf8_number(br)
        if bs_code == 6:
            bs = br.read(8) + 1
        elif bs_code == 7:
            bs = br.read(16) + 1
        elif bs_code == 1:
            bs = 192
        elif 2 <= bs_code <= 5:
            bs = 576 << (bs_code - 2)
        elif bs_code >= 8:
            bs = 256 << (bs_code - 8)
        else:
            raise ValueError("reserved FLAC block size code")
        if sr_code == 12:
            br.read(8)
        elif sr_code in (13, 14):
            br.read(16)
        hdr_len = br.pos // 8
        if _crc8(data[pos : pos + hdr_len]) != br.read(8):
            raise ValueError("FLAC frame header CRC mismatch")
        if ss_code not in (0, 0b100):
            raise NotImplementedError("only 16-bit FLAC frames supported")

        if chan_assign <= 0b0111:
            nch = chan_assign + 1
            subs = [_read_subframe(br, bs, bps) for _ in range(nch)]
        else:
            # stereo decorrelation: the side channel carries bps+1
            if chan_assign == 0b1000:  # left/side
                left = _read_subframe(br, bs, bps)
                side = _read_subframe(br, bs, bps + 1)
                subs = [left, left - side]
            elif chan_assign == 0b1001:  # right/side
                side = _read_subframe(br, bs, bps + 1)
                right = _read_subframe(br, bs, bps)
                subs = [right + side, right]
            elif chan_assign == 0b1010:  # mid/side
                mid = _read_subframe(br, bs, bps)
                side = _read_subframe(br, bs, bps + 1)
                m2 = (mid << 1) | (side & 1)
                subs = [(m2 + side) >> 1, (m2 - side) >> 1]
            else:
                raise ValueError("reserved FLAC channel assignment")
        br.align()
        frame_len = br.pos // 8
        crc = struct.unpack(">H", data[pos + frame_len : pos + frame_len + 2])[0]
        if _crc16(data[frame_start : frame_start + frame_len]) != crc:
            raise ValueError("FLAC frame CRC-16 mismatch")
        pos += frame_len + 2
        for ci, s in enumerate(subs):
            chans[ci].append(s)
        got += bs

    planes = [np.concatenate(c) for c in chans]
    n = min(total, len(planes[0])) if total else len(planes[0])
    samples = np.stack([p[:n] for p in planes], axis=1) if channels > 1 else planes[0][:n]
    samples = samples.astype(np.int16)
    if md5 != b"\x00" * 16:
        if hashlib.md5(samples.astype("<i2").tobytes()).digest() != md5:
            raise ValueError("FLAC MD5 mismatch: decoded samples corrupt")
    return samples, rate
