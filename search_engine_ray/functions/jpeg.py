"""Baseline JFIF/JPEG codec — stdlib + numpy only, no PIL.

Scope (documented, raised-on otherwise):
- encode: baseline sequential DCT, 8-bit, YCbCr 4:4:4 (no subsampling),
  standard Annex K quantization tables scaled by a quality factor, and
  the Annex K "typical" Huffman tables. Produces real JFIF files any
  standard decoder reads.
- decode: baseline sequential DCT (SOF0), 8-bit, grayscale or YCbCr
  with per-component sampling factors of 1 (4:4:4) or the common 2x2
  luma / 1x1 chroma (4:2:0, upsampled by pixel doubling). Restart
  markers supported. Progressive (SOF2), arithmetic coding and 12-bit
  precision raise ValueError.

The DCT is the exact orthonormal 8x8 DCT-II as two matrix multiplies —
vectorized over all blocks of a component at once; the entropy coder is
the only per-symbol Python loop (inherent to Huffman).
"""

from __future__ import annotations

import struct

import numpy as np

# ---------------------------------------------------------------------------
# tables (ITU-T T.81 Annex K)
# ---------------------------------------------------------------------------

QUANT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int32).reshape(8, 8)

QUANT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int32).reshape(8, 8)

# (bits[1..16], values) per table
DC_LUMA = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
           list(range(12)))
DC_CHROMA = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
             list(range(12)))
AC_LUMA = ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D], [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])
AC_CHROMA = ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63],
    dtype=np.int64)
UNZIGZAG = np.argsort(ZIGZAG)


def _dct_matrix() -> np.ndarray:
    k = np.arange(8)
    m = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16)
    m *= np.sqrt(2 / 8)
    m[0] *= np.sqrt(0.5)
    return m


_DCT = _dct_matrix()


def _blocks_of(plane: np.ndarray) -> np.ndarray:
    """(H, W) → (n_blocks, 8, 8), padding by edge replication."""
    h, w = plane.shape
    ph, pw = -(-h // 8) * 8, -(-w // 8) * 8
    if (ph, pw) != (h, w):
        plane = np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")
    return (plane.reshape(ph // 8, 8, pw // 8, 8)
            .transpose(0, 2, 1, 3).reshape(-1, 8, 8))


def _rgb_to_ycbcr(arr: np.ndarray) -> np.ndarray:
    a = arr.astype(np.float64)
    r, g, b = a[..., 0], a[..., 1], a[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(y, cb, cr) -> np.ndarray:
    r = y + 1.402 * (cr - 128)
    g = y - 0.344136 * (cb - 128) - 0.714136 * (cr - 128)
    b = y + 1.772 * (cb - 128)
    return np.clip(np.stack([r, g, b], axis=-1), 0, 255).astype(np.uint8)


def _scaled_quant(base: np.ndarray, quality: int) -> np.ndarray:
    quality = min(max(quality, 1), 100)
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    q = (base * scale + 50) // 100
    return np.clip(q, 1, 255).astype(np.int32)


def _build_enc_table(bits, values) -> dict[int, tuple[int, int]]:
    """symbol → (code, length)."""
    out = {}
    code = 0
    vi = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            out[values[vi]] = (code, ln)
            code += 1
            vi += 1
        code <<= 1
    return out


class _BitWriter:
    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | code
        self.n += length
        while self.n >= 8:
            byte = (self.acc >> (self.n - 8)) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:
                self.buf.append(0x00)
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def align(self) -> None:
        """Pad to a byte boundary with 1-bits (pre-RST-marker state)."""
        if self.n:
            pad = 8 - self.n
            byte = ((self.acc << pad) | ((1 << pad) - 1)) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:
                self.buf.append(0x00)
            self.acc = self.n = 0

    def raw(self, data: bytes) -> None:
        """Emit marker bytes verbatim (caller must align() first)."""
        self.buf += data

    def flush(self) -> bytes:
        self.align()
        return bytes(self.buf)


def _magnitude(v: int) -> tuple[int, int]:
    """JPEG magnitude category + unsigned code for a signed value."""
    if v == 0:
        return 0, 0
    size = int(abs(v)).bit_length()
    code = v if v > 0 else v + (1 << size) - 1
    return size, code


def _emit_block(bw, zz, enc_dc, enc_ac, prev_dc, ci) -> None:
    diff = int(zz[0]) - prev_dc[ci]
    prev_dc[ci] = int(zz[0])
    size, code = _magnitude(diff)
    c, ln = enc_dc[size]
    bw.write(c, ln)
    if size:
        bw.write(code, size)
    run = 0
    nz = np.flatnonzero(zz[1:])
    last = nz[-1] + 1 if len(nz) else 0
    for k in range(1, last + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            c, ln = enc_ac[0xF0]
            bw.write(c, ln)
            run -= 16
        size, code = _magnitude(v)
        c, ln = enc_ac[(run << 4) | size]
        bw.write(c, ln)
        bw.write(code, size)
        run = 0
    if last < 63:
        c, ln = enc_ac[0x00]
        bw.write(c, ln)


def jpeg_encode(arr: np.ndarray, quality: int = 90,
                subsample: bool = False,
                restart_interval: int = 0) -> bytes:
    """Encode (H, W, 3) uint8 RGB as baseline JFIF — 4:4:4 by default,
    4:2:0 (2x2-mean chroma downsample) with subsample=True; a nonzero
    restart_interval emits DRI + RSTn markers every that many MCUs
    (byte-aligned, DC predictors reset)."""
    h, w, _ = arr.shape
    ycc = _rgb_to_ycbcr(arr)
    ql = _scaled_quant(QUANT_LUMA, quality)
    qc = _scaled_quant(QUANT_CHROMA, quality)
    enc_dc = [_build_enc_table(*DC_LUMA), _build_enc_table(*DC_CHROMA)]
    enc_ac = [_build_enc_table(*AC_LUMA), _build_enc_table(*AC_CHROMA)]
    sampling = [(2, 2), (1, 1), (1, 1)] if subsample else [(1, 1)] * 3
    hmax = max(s[0] for s in sampling)
    vmax = max(s[1] for s in sampling)
    mcus_x, mcus_y = -(-w // (8 * hmax)), -(-h // (8 * vmax))

    grids = []
    for ci in range(3):
        ch, cv = sampling[ci]
        plane = ycc[..., ci]
        if (ch, cv) != (hmax, vmax):
            # 2x2 mean downsample (pad to even first)
            ph, pw = -(-plane.shape[0] // 2) * 2, \
                -(-plane.shape[1] // 2) * 2
            p = np.pad(plane, ((0, ph - plane.shape[0]),
                               (0, pw - plane.shape[1])), mode="edge")
            plane = p.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))
        th, tw = mcus_y * cv * 8, mcus_x * ch * 8
        plane = np.pad(plane,
                       ((0, th - plane.shape[0]),
                        (0, tw - plane.shape[1])), mode="edge")
        blocks = _blocks_of(plane) - 128.0
        coefs = np.einsum("ij,njk,lk->nil", _DCT, blocks, _DCT)
        q = (ql if ci == 0 else qc).astype(np.float64)
        quant = np.round(coefs / q).astype(np.int32)
        zz = quant.reshape(-1, 64)[:, ZIGZAG]
        grids.append(zz.reshape(th // 8, tw // 8, 64))

    bw = _BitWriter()
    prev_dc = [0, 0, 0]
    mcu_count = 0
    rst = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_count \
                    and mcu_count % restart_interval == 0:
                bw.align()
                bw.raw(bytes([0xFF, 0xD0 + rst]))
                rst = (rst + 1) & 7
                prev_dc = [0, 0, 0]
            mcu_count += 1
            for ci in range(3):
                ch, cv = sampling[ci]
                ti = 0 if ci == 0 else 1
                for by in range(cv):
                    for bx in range(ch):
                        zz = grids[ci][my * cv + by, mx * ch + bx]
                        _emit_block(bw, zz, enc_dc[ti], enc_ac[ti],
                                    prev_dc, ci)
    entropy = bw.flush()

    def seg(marker: int, payload: bytes) -> bytes:
        return struct.pack(">HH", marker, len(payload) + 2) + payload

    out = bytearray(b"\xFF\xD8")
    out += seg(0xFFE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    out += seg(0xFFDB, bytes([0]) + bytes(
        ql.reshape(-1)[ZIGZAG].astype(np.uint8)))
    out += seg(0xFFDB, bytes([1]) + bytes(
        qc.reshape(-1)[ZIGZAG].astype(np.uint8)))
    sof = struct.pack(">BHHB", 8, h, w, 3)
    for ci, (cid, tq) in enumerate(((1, 0), (2, 1), (3, 1))):
        ch, cv = sampling[ci]
        sof += bytes([cid, (ch << 4) | cv, tq])
    out += seg(0xFFC0, sof)
    for tc_th, (bits, values) in ((0x00, DC_LUMA), (0x01, DC_CHROMA),
                                  (0x10, AC_LUMA), (0x11, AC_CHROMA)):
        out += seg(0xFFC4, bytes([tc_th]) + bytes(bits) + bytes(values))
    if restart_interval:
        out += seg(0xFFDD, struct.pack(">H", restart_interval))
    sos = bytes([3]) + bytes([1, 0x00, 2, 0x11, 3, 0x11]) + \
        bytes([0, 63, 0])
    out += seg(0xFFDA, sos)
    out += entropy
    out += b"\xFF\xD9"
    return bytes(out)


# ---------------------------------------------------------------------------
# decoder
# ---------------------------------------------------------------------------

def _unstuff(data: bytes, pos: int) -> list[bytes]:
    """Entropy segments from ``pos``: 0xFF00 unstuffed, split at RST
    markers (one segment per restart interval), stopping at the first
    real marker. One numpy pass locates the (rare) 0xFF bytes; only
    those positions loop in Python."""
    arr = np.frombuffer(data, dtype=np.uint8, offset=pos)
    ffs = np.flatnonzero(arr == 0xFF)
    segs: list[bytes] = []
    parts: list[bytes] = []
    start = 0
    for f in ffs.tolist():
        if f < start:
            continue  # the 0x00 of a previous stuffed pair
        nxt = arr[f + 1] if f + 1 < len(arr) else 0xD9
        if nxt == 0x00:  # stuffed 0xFF data byte
            parts.append(arr[start:f + 1].tobytes())
            start = f + 2
        elif 0xD0 <= nxt <= 0xD7:  # RST: close the segment
            parts.append(arr[start:f].tobytes())
            segs.append(b"".join(parts))
            parts = []
            start = f + 2
        else:  # real marker: end of entropy data
            parts.append(arr[start:f].tobytes())
            segs.append(b"".join(parts))
            return segs
    parts.append(arr[start:].tobytes())
    segs.append(b"".join(parts))
    return segs


class _FastBits:
    """MSB-first reader over pre-unstuffed entropy segments. peek16 +
    skip(n) enable the one-lookup Huffman fast path; past-the-end reads
    pad with zero bits (spec fill). ``resync`` jumps to the next RST
    segment."""

    __slots__ = ("segs", "si", "buf", "i", "acc", "n")

    def __init__(self, segs: list[bytes]):
        self.segs = segs
        self.si = 0
        self.buf = segs[0] if segs else b""
        self.i = 0
        self.acc = 0
        self.n = 0

    def resync(self) -> None:
        self.si += 1
        self.buf = (self.segs[self.si]
                    if self.si < len(self.segs) else b"")
        self.i = 0
        self.acc = 0
        self.n = 0

    def peek16(self) -> int:
        acc, n, i, buf = self.acc, self.n, self.i, self.buf
        while n < 16:
            acc = (acc << 8) | (buf[i] if i < len(buf) else 0)
            if i < len(buf):
                i += 1
            n += 8
        self.acc, self.n, self.i = acc, n, i
        return (acc >> (n - 16)) & 0xFFFF

    def skip(self, k: int) -> None:
        self.n -= k
        self.acc &= (1 << self.n) - 1

    def take(self, k: int) -> int:
        if k == 0:
            return 0
        acc, n, i, buf = self.acc, self.n, self.i, self.buf
        while n < k:
            acc = (acc << 8) | (buf[i] if i < len(buf) else 0)
            if i < len(buf):
                i += 1
            n += 8
        n -= k
        self.acc = acc & ((1 << n) - 1)
        self.n, self.i = n, i
        return (acc >> n) & ((1 << k) - 1)


_LUT_CACHE: dict[tuple, tuple[list[int], list[int]]] = {}


def _dec_lut(bits, values) -> tuple[list[int], list[int]]:
    """16-bit-lookahead Huffman LUT: every 16-bit window maps to
    (symbol, code length) in one list index — the classic libjpeg fast
    path. Built once per distinct table (cached: the four standard
    Annex-K tables cover every image this repo synthesizes)."""
    key = (bytes(bits), bytes(values))
    hit = _LUT_CACHE.get(key)
    if hit is not None:
        return hit
    sym = np.zeros(65536, dtype=np.int32)
    ln_arr = np.zeros(65536, dtype=np.int32)  # 0 = invalid code
    code = 0
    vi = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            lo = code << (16 - ln)
            hi = lo + (1 << (16 - ln))
            sym[lo:hi] = values[vi]
            ln_arr[lo:hi] = ln
            code += 1
            vi += 1
        code <<= 1
    out = (sym.tolist(), ln_arr.tolist())
    if len(_LUT_CACHE) < 64:
        _LUT_CACHE[key] = out
    return out


def _extend(v: int, size: int) -> int:
    if size == 0:
        return 0
    return v if v >= (1 << (size - 1)) else v - (1 << size) + 1


def jpeg_decode(payload: bytes) -> np.ndarray:
    """Decode baseline JFIF to (H, W, 3) uint8 RGB (grayscale is
    replicated). Supports 4:4:4 and 4:2:0; raises on progressive /
    arithmetic / 12-bit streams."""
    if payload[:2] != b"\xFF\xD8":
        raise ValueError("not a JPEG payload")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    htabs: dict[tuple[int, int], object] = {}
    comps = None
    h = w = 0
    restart_interval = 0
    while pos < len(payload):
        if payload[pos] != 0xFF:
            pos += 1
            continue
        # T.81 B.1.1.2: a marker may be preceded by any number of 0xFF
        # fill bytes — skip the run so the marker code is never read as
        # a spurious 0xFF "marker" with a bogus segment length
        while pos + 1 < len(payload) and payload[pos + 1] == 0xFF:
            pos += 1
        marker = payload[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            break
        ln = struct.unpack_from(">H", payload, pos)[0]
        body = payload[pos + 2: pos + ln]
        if marker == 0xDB:
            bpos = 0
            while bpos < len(body):
                pq_tq = body[bpos]
                if pq_tq >> 4:
                    raise ValueError("16-bit quant tables unsupported")
                q = np.frombuffer(body, np.uint8, 64, bpos + 1)
                qtabs[pq_tq & 15] = q[UNZIGZAG].reshape(8, 8).astype(
                    np.int32)
                bpos += 65
        elif marker == 0xC4:
            bpos = 0
            while bpos < len(body):
                tc_th = body[bpos]
                bits = list(body[bpos + 1: bpos + 17])
                nv = sum(bits)
                values = list(body[bpos + 17: bpos + 17 + nv])
                htabs[(tc_th >> 4, tc_th & 15)] = _dec_lut(bits, values)
                bpos += 17 + nv
        elif marker == 0xC0 or marker == 0xC1:
            prec, h, w, nc = struct.unpack_from(">BHHB", body, 0)
            if prec != 8:
                raise ValueError("only 8-bit precision supported")
            comps = []
            for ci in range(nc):
                cid, hv, tq = body[6 + ci * 3: 9 + ci * 3]
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 15,
                              "tq": tq})
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError(
                f"unsupported SOF marker 0xFF{marker:02X} "
                "(progressive/arithmetic/lossless)")
        elif marker == 0xDD:
            restart_interval = struct.unpack_from(">H", body, 0)[0]
        elif marker == 0xDA:
            ns = body[0]
            scan = []
            for si in range(ns):
                cs, tdta = body[1 + si * 2: 3 + si * 2]
                comp = next(c for c in comps if c["id"] == cs)
                scan.append((comp, tdta >> 4, tdta & 15))
            pos = pos + ln
            return _decode_scan(payload, pos, scan, qtabs, htabs, h, w,
                                restart_interval)
        pos += ln
    raise ValueError("no SOS marker found")


def _decode_scan(payload, pos, scan, qtabs, htabs, h, w,
                 restart_interval) -> np.ndarray:
    hmax = max(c["h"] for c, _, _ in scan)
    vmax = max(c["v"] for c, _, _ in scan)
    if not all(c["h"] in (1, 2) and c["v"] in (1, 2)
               for c, _, _ in scan):
        raise ValueError("sampling factors beyond 2 unsupported")
    mcu_w, mcu_h = 8 * hmax, 8 * vmax
    mcus_x, mcus_y = -(-w // mcu_w), -(-h // mcu_h)
    planes = []
    for c, _, _ in scan:
        pw = mcus_x * c["h"] * 8
        ph = mcus_y * c["v"] * 8
        planes.append(np.zeros((ph, pw), dtype=np.float64))
    br = _FastBits(_unstuff(payload, pos))
    prev_dc = [0] * len(scan)
    mcu_count = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_count \
                    and mcu_count % restart_interval == 0:
                br.resync()
                prev_dc = [0] * len(scan)  # spec: DC predictors reset
            mcu_count += 1
            for si, (c, td, ta) in enumerate(scan):
                dc_sym, dc_len = htabs[(0, td)]
                ac_sym, ac_len = htabs[(1, ta)]
                for by in range(c["v"]):
                    for bx in range(c["h"]):
                        # one-lookup Huffman: peek 16 bits, LUT gives
                        # (symbol, code length) — no per-bit loop
                        zz = np.zeros(64, dtype=np.int32)
                        p = br.peek16()
                        s = dc_sym[p]
                        cl = dc_len[p]
                        if cl == 0:
                            raise ValueError("bad Huffman code")
                        br.skip(cl)
                        diff = _extend(br.take(s), s)
                        prev_dc[si] += diff
                        zz[0] = prev_dc[si]
                        k = 1
                        while k < 64:
                            p = br.peek16()
                            rs = ac_sym[p]
                            cl = ac_len[p]
                            if cl == 0:
                                raise ValueError("bad Huffman code")
                            br.skip(cl)
                            r, s = rs >> 4, rs & 15
                            if s == 0:
                                if r == 15:
                                    k += 16
                                    continue
                                break
                            k += r
                            if k > 63:
                                raise ValueError("AC index overflow")
                            zz[k] = _extend(br.take(s), s)
                            k += 1
                        blk = (zz[UNZIGZAG].reshape(8, 8)
                               * qtabs[c["tq"]]).astype(np.float64)
                        pix = _DCT.T @ blk @ _DCT + 128.0
                        y0 = (my * c["v"] + by) * 8
                        x0 = (mx * c["h"] + bx) * 8
                        planes[si][y0: y0 + 8, x0: x0 + 8] = pix
    full = []
    for (c, _, _), plane in zip(scan, planes):
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            plane = np.repeat(np.repeat(plane, ry, axis=0), rx, axis=1)
        full.append(plane[: mcus_y * mcu_h, : mcus_x * mcu_w][:h, :w])
    if len(full) == 1:
        g = np.clip(full[0], 0, 255).astype(np.uint8)
        return np.repeat(g[..., None], 3, axis=2)
    if len(full) != 3:
        raise ValueError(f"{len(full)}-component JPEG unsupported")
    return _ycbcr_to_rgb(full[0], full[1], full[2])
