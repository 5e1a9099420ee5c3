"""Multimodal column plumbing: image/audio/video as opaque binary columns
with typed metadata, processed by actor-pool map_batches stages.

Decode reality, by modality:
- audio: REAL — payloads are genuine RIFF/WAV (synth_media_table writes
  PCM16 via the stdlib ``wave`` module) and AudioFrameSample parses them
  back with ``wave``; the fake byte-energy path remains only as the
  fallback for non-WAV payloads.
- image: REAL for BMP, PNG and JPEG — synth_media_table rotates genuine
  24-bit BMPs, 8-bit PNGs, and baseline JFIF JPEGs (4:4:4 and 4:2:0),
  and ImageDecodeResize decodes all three with the zero-dependency
  codecs (pure numpy for BMP; stdlib zlib + numpy defiltering for PNG,
  all five row filters; functions/jpeg.py for JPEG — spec Annex K
  tables, Huffman entropy coding, exact orthonormal DCT). PIL remains a
  fallback for formats outside those codecs (progressive JPEG etc.);
  ``decoder="real"`` raises if PIL is absent, ``strict=True`` raises on
  any payload none of the real codecs accept.
The Ray-side plumbing is real and tested either way: schemas, actor
signature (decode state in __init__), small batch sizes for large
binary payloads, and the output layout a downstream training pipeline
would consume.

Batch discipline: each __call__ filters the batch ONCE with a vectorized
Arrow predicate and pulls every column ONCE (to numpy / pylist); the only
per-row work left is the decode kernel itself, which is per-item for any
real codec too.

Scale notes: binary payload rows are wide — these stages run with small
``batch_size`` so batch × concurrency fits worker heaps, and the object
store handles spill (ray_guide 'Memory-aware').
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),          # image | audio | video
    ("payload", pa.binary()),       # opaque encoded bytes
    ("mime", pa.string()),
    ("width", pa.int32()),          # images/video
    ("height", pa.int32()),
    ("sample_rate", pa.int32()),    # audio
    ("duration_ms", pa.int32()),    # audio/video
])


def _wav_payload(rng: np.random.Generator, sample_rate: int,
                 duration_ms: int) -> bytes:
    """A real RIFF/WAV file (PCM16 mono) with deterministic content —
    decoded back by the stdlib ``wave`` module in AudioFrameSample."""
    import io
    import wave

    n = sample_rate * duration_ms // 1000
    t = np.arange(n, dtype=np.float64)
    freq = float(rng.uniform(110.0, 880.0))
    tone = np.sin(2 * np.pi * freq * t / sample_rate)
    noise = rng.standard_normal(n) * 0.05
    samples = np.clip((tone + noise) * 12000, -32768, 32767).astype("<i2")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(samples.tobytes())
    return buf.getvalue()


def bmp_encode(arr: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 RGB array as a real 24-bit BI_RGB BMP
    (bottom-up, BGR, 4-byte row padding) — pure numpy, no codec deps."""
    import struct

    h, w, _ = arr.shape
    stride = (w * 3 + 3) // 4 * 4
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, : w * 3] = arr[::-1, :, ::-1].reshape(h, w * 3)
    data = rows.tobytes()
    header = struct.pack("<2sIHHI", b"BM", 14 + 40 + len(data), 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data),
                       2835, 2835, 0, 0)
    return header + info + data


def bmp_decode(payload: bytes) -> np.ndarray:
    """Decode a 24-bit uncompressed BMP to (H, W, 3) uint8 RGB — pure
    numpy. Raises ValueError on anything but BI_RGB 24bpp."""
    import struct

    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    offset = struct.unpack_from("<I", payload, 10)[0]
    w, h = struct.unpack_from("<ii", payload, 18)
    bpp = struct.unpack_from("<H", payload, 28)[0]
    comp = struct.unpack_from("<I", payload, 30)[0]
    if bpp != 24 or comp != 0:
        raise ValueError(f"unsupported BMP: bpp={bpp} compression={comp}")
    flip = h > 0
    h = abs(h)
    stride = (w * 3 + 3) // 4 * 4
    rows = np.frombuffer(payload, dtype=np.uint8,
                         count=h * stride, offset=offset).reshape(h, stride)
    img = rows[:, : w * 3].reshape(h, w, 3)[:, :, ::-1]  # BGR → RGB
    return img[::-1] if flip else img


_PNG_SIG = b"\x89PNG\r\n\x1a\n"


# ---------------------------------------------------------------------------
# GIF89a codec (animated, global 256-color palette, real LZW both ways,
# stdlib only) — gives the video modality a genuine multi-frame container
# so frame sampling decodes actual pixels, like WAV/BMP/PNG do for
# audio/images.
# ---------------------------------------------------------------------------

def _lzw_encode(indices: np.ndarray, mcs: int) -> bytes:
    """GIF-variant LZW: growing code width, clear/EOI codes, LSB-first
    bit packing."""
    clear, eoi = 1 << mcs, (1 << mcs) + 1
    out_bits: list[tuple[int, int]] = []  # (code, width)
    width = mcs + 1
    table: dict[bytes, int] = {bytes([i]): i for i in range(1 << mcs)}
    next_code = eoi + 1
    out_bits.append((clear, width))
    prefix = b""
    for sym in indices.tolist():
        cand = prefix + bytes([sym])
        if cand in table:
            prefix = cand
            continue
        out_bits.append((table[prefix], width))
        table[cand] = next_code
        if next_code == (1 << width) and width < 12:
            width += 1
        next_code += 1
        if next_code > 4095:
            out_bits.append((clear, width))
            table = {bytes([i]): i for i in range(1 << mcs)}
            next_code = eoi + 1
            width = mcs + 1
        prefix = bytes([sym])
    if prefix:
        out_bits.append((table[prefix], width))
    out_bits.append((eoi, width))
    acc = n = 0
    data = bytearray()
    for code, wd in out_bits:
        acc |= code << n
        n += wd
        while n >= 8:
            data.append(acc & 0xFF)
            acc >>= 8
            n -= 8
    if n:
        data.append(acc & 0xFF)
    return bytes(data)


def _lzw_decode(data: bytes, mcs: int) -> np.ndarray:
    clear, eoi = 1 << mcs, (1 << mcs) + 1
    width = mcs + 1
    table: list[bytes] = [bytes([i]) for i in range(1 << mcs)] + [b"", b""]
    acc = n = pos = 0
    out = bytearray()
    prev: bytes | None = None
    while True:
        while n < width:
            if pos >= len(data):
                return np.frombuffer(bytes(out), dtype=np.uint8)
            acc |= data[pos] << n
            pos += 1
            n += 8
        code = acc & ((1 << width) - 1)
        acc >>= width
        n -= width
        if code == clear:
            table = table[: eoi + 1]
            width = mcs + 1
            prev = None
            continue
        if code == eoi:
            return np.frombuffer(bytes(out), dtype=np.uint8)
        if code < len(table):
            entry = table[code]
        elif code == len(table) and prev is not None:
            entry = prev + prev[:1]
        else:
            raise ValueError("corrupt LZW stream")
        out.extend(entry)
        if prev is not None:
            table.append(prev + entry[:1])
            if len(table) == (1 << width) and width < 12:
                width += 1
        prev = entry
    raise ValueError("unterminated LZW stream")


def _gif_palette() -> np.ndarray:
    """Web-safe 6x6x6 cube padded to 256 — the synth corpus draws frame
    pixels from it so encoding is exact palette lookup, no quantizer."""
    levels = np.arange(6) * 51
    cube = np.stack(np.meshgrid(levels, levels, levels,
                                indexing="ij"), axis=-1).reshape(-1, 3)
    return np.vstack([cube, np.zeros((256 - 216, 3))]).astype(np.uint8)


def gif_encode(frames: list[np.ndarray], delay_ms: int = 100) -> bytes:
    """Encode (H, W) uint8 palette-index frames as a real animated
    GIF89a (global web-safe palette, real LZW)."""
    import struct

    h, w = frames[0].shape
    pal = _gif_palette()
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0xF7, 0, 0)  # global table, 256
    out += pal.tobytes()
    out += bytes([0x21, 0xFF, 11]) + b"NETSCAPE2.0" + \
        bytes([3, 1, 0, 0, 0])  # loop forever
    for fr in frames:
        out += bytes([0x21, 0xF9, 4, 0]) + struct.pack(
            "<H", delay_ms // 10) + bytes([0, 0])
        out += bytes([0x2C]) + struct.pack("<HHHH", 0, 0, w, h) + \
            bytes([0])
        mcs = 8
        out += bytes([mcs])
        lzw = _lzw_encode(fr.reshape(-1), mcs)
        for i in range(0, len(lzw), 255):
            blk = lzw[i: i + 255]
            out += bytes([len(blk)]) + blk
        out += bytes([0])
    out += bytes([0x3B])
    return bytes(out)


def gif_decode(payload: bytes) -> list[np.ndarray]:
    """Decode an animated GIF to a list of (H, W, 3) uint8 RGB frames —
    stdlib only. Non-interlaced, full-canvas frames (what gif_encode
    writes); raises ValueError otherwise."""
    import struct

    if payload[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF payload")
    w, h, packed, _, _ = struct.unpack_from("<HHBBB", payload, 6)
    pos = 13
    gpal = None
    if packed & 0x80:
        size = 3 * (2 << (packed & 7))
        gpal = np.frombuffer(payload, np.uint8, size, pos).reshape(-1, 3)
        pos += size
    frames = []
    while pos < len(payload):
        b0 = payload[pos]
        if b0 == 0x3B:
            break
        if b0 == 0x21:  # extension: skip sub-blocks
            pos += 2
            while payload[pos]:
                pos += 1 + payload[pos]
            pos += 1
        elif b0 == 0x2C:
            left, top, fw, fh, fpacked = struct.unpack_from(
                "<HHHHB", payload, pos + 1)
            pos += 10
            pal = gpal
            if fpacked & 0x80:
                size = 3 * (2 << (fpacked & 7))
                pal = np.frombuffer(payload, np.uint8, size,
                                    pos).reshape(-1, 3)
                pos += size
            if fpacked & 0x40:
                raise ValueError("interlaced GIF unsupported")
            if (left, top, fw, fh) != (0, 0, w, h):
                raise ValueError("partial-canvas GIF frame unsupported")
            mcs = payload[pos]
            pos += 1
            data = bytearray()
            while payload[pos]:
                ln = payload[pos]
                data += payload[pos + 1: pos + 1 + ln]
                pos += 1 + ln
            pos += 1
            idx = _lzw_decode(bytes(data), mcs)[: w * h].reshape(h, w)
            frames.append(pal[idx])
        else:
            raise ValueError(f"unexpected GIF block 0x{b0:02x}")
    return frames


def png_encode(arr: np.ndarray) -> bytes:
    """Encode (H, W, 3) or (H, W, 4) uint8 as a real PNG (8-bit,
    non-interlaced, filter 0 rows) — stdlib zlib only."""
    import struct
    import zlib

    h, w, ch = arr.shape
    color = {3: 2, 4: 6}[ch]

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    raw = np.zeros((h, 1 + w * ch), dtype=np.uint8)
    raw[:, 1:] = arr.reshape(h, w * ch)
    return (_PNG_SIG + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
            + chunk(b"IEND", b""))


def png_decode(payload: bytes) -> np.ndarray:
    """Decode an 8-bit non-interlaced greyscale/RGB/RGBA PNG to
    (H, W, 3) uint8 RGB — stdlib zlib + numpy defiltering (all five
    filter types; Sub as a modular prefix-sum, Up vectorized, Avg and
    Paeth per-row). Raises ValueError on anything else."""
    import struct
    import zlib

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos, idat = 8, []
    w = h = depth = color = interlace = None
    while pos + 8 <= len(payload):
        ln, tag = struct.unpack_from(">I4s", payload, pos)
        data = payload[pos + 8: pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            w, h, depth, color, _, _, interlace = struct.unpack(
                ">IIBBBBB", data)
        elif tag == b"IDAT":
            idat.append(data)
        elif tag == b"IEND":
            break
    ch = {0: 1, 2: 3, 6: 4}.get(color)
    if ch is None or depth != 8 or interlace:
        raise ValueError(
            f"unsupported PNG: depth={depth} color={color} "
            f"interlace={interlace}")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    stride = w * ch
    raw = raw.reshape(h, 1 + stride)
    ftypes, rows = raw[:, 0], raw[:, 1:]
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        f, row = int(ftypes[y]), rows[y]
        prev = out[y - 1] if y else np.zeros(stride, dtype=np.uint8)
        if f == 0:
            out[y] = row
        elif f == 1:   # Sub: modular prefix sum per byte lane
            lanes = row.reshape(-1, ch).astype(np.uint32)
            out[y] = (np.cumsum(lanes, axis=0) % 256).astype(
                np.uint8).reshape(-1)
        elif f == 2:   # Up
            out[y] = row + prev
        elif f == 3:   # Average (left is sequential per pixel)
            cur = out[y]
            for x in range(stride):
                left = cur[x - ch] if x >= ch else 0
                cur[x] = (int(row[x]) + (int(left) + int(prev[x])) // 2) \
                    % 256
        elif f == 4:   # Paeth
            cur = out[y]
            for x in range(stride):
                a = int(cur[x - ch]) if x >= ch else 0
                b = int(prev[x])
                c = int(prev[x - ch]) if x >= ch else 0
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa_ <= pb and pa_ <= pc_ else \
                    (b if pb <= pc_ else c)
                cur[x] = (int(row[x]) + pred) % 256
        else:
            raise ValueError(f"bad PNG filter {f}")
    img = out.reshape(h, w, ch)
    if ch == 1:
        return np.repeat(img, 3, axis=2)
    return img[:, :, :3]


def _bmp_payload(rng: np.random.Generator, w: int, h: int) -> bytes:
    """A real BMP with deterministic gradient+noise pixel content."""
    yy, xx = np.mgrid[0:h, 0:w]
    base = ((xx * 255 // max(w - 1, 1))[..., None]
            * np.array([1, 0, 0])
            + (yy * 255 // max(h - 1, 1))[..., None]
            * np.array([0, 1, 0]))
    noise = rng.integers(0, 64, size=(h, w, 3))
    return bmp_encode(((base + noise) % 256).astype(np.uint8))


def _gif_payload(rng: np.random.Generator, w: int, h: int,
                 n_frames: int, delay_ms: int) -> bytes:
    """A real animated GIF: drifting gradient frames over the web-safe
    palette's 6x6x6 cube (indices computed directly, so encode is exact
    lookup — no quantizer)."""
    yy, xx = np.mgrid[0:h, 0:w]
    frames = []
    for f in range(n_frames):
        r = (xx * 5 // max(w - 1, 1) + f) % 6
        g = (yy * 5 // max(h - 1, 1)) % 6
        b = rng.integers(0, 6, size=(h, w))
        frames.append((r * 36 + g * 6 + b).astype(np.uint8))
    return gif_encode(frames, delay_ms)


def synth_media_batch(ids, seed: int = 42) -> pa.Table:
    """Deterministic media rows for the given media_ids: audio rows
    carry REAL WAV payloads, image rows REAL BMPs/PNGs/JPEGs, video
    rows REAL animated GIF89a — every modality decodes for real with
    zero codec deps. Seeded PER ID ((seed<<20)^id, like the page
    synthesis) so the corpus is identical at any batching/parallelism —
    the distributed-synthesis requirement."""
    kinds = ["image", "audio", "video"]
    rows = {k.name: [] for k in MEDIA_SCHEMA}
    for i in ids:
        i = int(i)
        rng = np.random.default_rng((seed << 20) ^ i)
        kind = kinds[i % 3]
        if kind == "audio":
            # duration bounded (i % 64) so web-scale ids don't synthesize
            # multi-minute WAV payloads
            payload = _wav_payload(rng, 16000, 1000 + (i % 64) * 37)
        elif kind == "image":
            payload = _bmp_payload(rng, 64 + (i % 8) * 32,
                                   48 + (i % 6) * 32)
            variant = (i // 3) % 4  # rotate real container formats
            if variant == 1:
                payload = png_encode(bmp_decode(payload))
            elif variant == 2:
                from .jpeg import jpeg_encode
                payload = jpeg_encode(bmp_decode(payload), quality=95)
            elif variant == 3:
                from .jpeg import jpeg_encode
                payload = jpeg_encode(bmp_decode(payload), quality=95,
                                      subsample=True)
        else:
            payload = _gif_payload(rng, 32 + (i % 4) * 16,
                                   24 + (i % 3) * 16,
                                   n_frames=4 + i % 5, delay_ms=100)
        rows["media_id"].append(i)
        rows["kind"].append(kind)
        rows["payload"].append(payload)
        if kind == "image":
            mime = {1: "image/png", 2: "image/jpeg",
                    3: "image/jpeg"}.get((i // 3) % 4, "image/bmp")
        else:
            mime = {"audio": "audio/wav", "video": "image/gif"}[kind]
        rows["mime"].append(mime)
        rows["width"].append(32 + (i % 4) * 16 if kind == "video"
                             else (64 + (i % 8) * 32 if kind == "image"
                                   else 0))
        rows["height"].append(24 + (i % 3) * 16 if kind == "video"
                              else (48 + (i % 6) * 32 if kind == "image"
                                    else 0))
        rows["sample_rate"].append(16000 if kind == "audio" else 0)
        rows["duration_ms"].append(
            (4 + i % 5) * 100 if kind == "video"
            else (1000 + (i % 64) * 37 if kind == "audio" else 0))
    return pa.table({f.name: pa.array(rows[f.name], f.type)
                     for f in MEDIA_SCHEMA})


def synth_media_table(n: int = 64, seed: int = 42) -> pa.Table:
    """Driver-side corpus for tests/small runs (same rows the
    distributed synthesis produces for ids 0..n-1)."""
    return synth_media_batch(np.arange(n), seed)


def rows_of_kind(n: int, k: int):
    """The media rows of kind ``k`` (0 image, 1 audio, 2 video) among ids
    0..n-1: synth_media_batch gives id i the kind i % 3 and is
    deterministic per id, so map_batches synthesizes ids k, k + 3, …
    alone, and no corpus is materialized."""
    import ray.data as rd

    return rd.range(len(range(k, n, 3))).map_batches(
        lambda b: synth_media_batch(
            3 * b.column("id").to_numpy(zero_copy_only=False) + k),
        batch_format="pyarrow", batch_size=64)


class ImageDecodeResize:
    """Actor-pool stage: decode → resize → CHW float features.

    decoder="fake"   deterministic pseudo-pixels from the payload bytes
    decoder="real"   PIL (import checked once in __init__; raises
                     NotImplementedError here if unavailable)
    strict=True      NotImplementedError at the decode call site — the
                     explicit marker that codecs are stubbed
    """

    def __init__(self, out_w: int = 32, out_h: int = 32,
                 strict: bool = False, decoder: str = "auto"):
        self.out_w = out_w
        self.out_h = out_h
        self.strict = strict
        self.decoder = decoder
        self._pil = None
        if decoder in ("auto", "real"):
            try:
                from PIL import Image  # noqa: PLC0415
                self._pil = Image
            except ImportError as e:
                if decoder == "real":
                    raise NotImplementedError(
                        "decoder='real' needs pillow, which is not in "
                        "this container") from e
                # auto: documented fallback to the deterministic fake

    def _decode(self, payload: bytes, w: int, h: int) -> np.ndarray:
        if payload[:2] == b"BM":
            # REAL decode, zero deps: 24-bit BMP via the numpy codec
            return bmp_decode(payload)
        if payload[:8] == _PNG_SIG:
            # REAL decode, zero deps: stdlib-zlib PNG codec
            return png_decode(payload)
        if payload[:2] == b"\xff\xd8":
            # REAL decode, zero deps: baseline-JFIF codec (functions/
            # jpeg.py — 4:4:4 and 4:2:0; progressive raises and falls
            # through to PIL/strict below)
            from .jpeg import jpeg_decode
            try:
                return jpeg_decode(payload)
            except ValueError:
                pass
        if self._pil is not None:
            import io
            try:
                img = self._pil.open(io.BytesIO(payload)).convert("RGB")
                return np.asarray(img)
            except Exception:
                if self.decoder == "real":
                    raise
                # auto: payload isn't a decodable image → fall through
        if self.strict:
            raise NotImplementedError(
                "payload is not BMP/PNG/baseline-JPEG (nor "
                "PIL-decodable); progressive-JPEG and exotic codecs "
                "are unavailable in this container")
        raw = np.frombuffer(payload, dtype=np.uint8)
        reps = -(-(w * h * 3) // len(raw))
        return np.tile(raw, reps)[:w * h * 3].reshape(h, w, 3)

    def __call__(self, batch: pa.Table) -> pa.Table:
        imgs = batch.filter(pc.equal(batch.column("kind"), "image"))
        ids = imgs.column("media_id").to_numpy(zero_copy_only=False)
        widths = imgs.column("width").to_numpy(zero_copy_only=False)
        heights = imgs.column("height").to_numpy(zero_copy_only=False)
        payloads = imgs.column("payload").to_pylist()
        n = len(ids)
        dim = self.out_w * self.out_h * 3
        feats = np.empty((n, dim), dtype=np.float32)
        for i in range(n):
            w, h = int(widths[i]), int(heights[i])
            img = self._decode(payloads[i], w, h)
            h_eff, w_eff = img.shape[0], img.shape[1]
            ys = np.arange(self.out_h) * h_eff // self.out_h
            xs = np.arange(self.out_w) * w_eff // self.out_w
            small = img[ys][:, xs].astype(np.float32) / 255.0
            feats[i] = small.transpose(2, 0, 1).ravel()
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "features": pa.FixedSizeListArray.from_arrays(
                pa.array(feats.reshape(-1), pa.float32()), dim).cast(
                    pa.list_(pa.float32())),
            "feat_dim": pa.array(np.full(n, dim, dtype=np.int32),
                                 pa.int32()),
        })


class AudioFrameSample:
    """Actor-pool stage: frame-sample audio payloads into fixed windows
    with an energy feature per frame.

    Decode is REAL for WAV payloads: the stdlib ``wave`` module parses
    the RIFF container and the energies run over the actual PCM16
    samples. Non-WAV payloads fall back to the documented byte-energy
    fake; ``strict=True`` raises instead of falling back."""

    def __init__(self, frame_ms: int = 100, strict: bool = False):
        self.frame_ms = frame_ms
        self.strict = strict
        import wave  # stdlib, always present — checked once per actor
        self._wave = wave

    def _decode(self, payload: bytes) -> np.ndarray:
        if payload[:4] == b"RIFF":
            import io
            with self._wave.open(io.BytesIO(payload), "rb") as w:
                frames = w.readframes(w.getnframes())
            return np.frombuffer(frames, dtype="<i2").astype(np.int64)
        if self.strict:
            raise NotImplementedError(
                "non-WAV audio codecs unavailable in this container")
        return np.frombuffer(payload, dtype=np.uint8).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        audio = batch.filter(pc.equal(batch.column("kind"), "audio"))
        ids = audio.column("media_id").to_numpy(zero_copy_only=False)
        durs = audio.column("duration_ms").to_numpy(zero_copy_only=False)
        payloads = audio.column("payload").to_pylist()
        o_id, o_frame, o_energy = [], [], []
        for i in range(len(ids)):
            samples = self._decode(payloads[i])
            n_frames = max(1, int(durs[i]) // self.frame_ms)
            sq = samples.astype(np.int64) ** 2
            # per-frame energies via one cumulative sum, no per-frame
            # loop; boundaries replicate np.array_split (first l%n
            # chunks get the extra element)
            neach, extras = divmod(len(sq), n_frames)
            sizes = np.full(n_frames, neach, dtype=np.int64)
            sizes[:extras] += 1
            bounds = np.concatenate([[0], np.cumsum(sizes)])
            csum = np.concatenate([[0], np.cumsum(sq)])
            energies = csum[bounds[1:]] - csum[bounds[:-1]]
            o_id.append(np.full(n_frames, ids[i], dtype=np.int64))
            o_frame.append(np.arange(n_frames, dtype=np.int32))
            o_energy.append(energies)
        empty = not o_id
        return pa.table({
            "media_id": pa.array(
                np.concatenate(o_id) if not empty else [], pa.int64()),
            "frame": pa.array(
                np.concatenate(o_frame) if not empty else [], pa.int32()),
            "energy": pa.array(
                np.concatenate(o_energy) if not empty else [], pa.int64()),
        })


class VideoFrameSample:
    """Actor-pool stage: decode video payloads into frames, sample every
    ``stride``-th frame, downsample each to out_w × out_h CHW float
    features (one output row per sampled frame).

    Decode is REAL for animated GIF89a (the zero-dep LZW codec above).
    Other containers (mp4 etc. need ffmpeg-class codecs this container
    lacks) fall back to a single deterministic fake frame;
    ``strict=True`` raises instead."""

    def __init__(self, out_w: int = 16, out_h: int = 16, stride: int = 2,
                 strict: bool = False):
        self.out_w = out_w
        self.out_h = out_h
        self.stride = stride
        self.strict = strict

    def _decode(self, payload: bytes) -> list[np.ndarray]:
        if payload[:6] in (b"GIF87a", b"GIF89a"):
            return gif_decode(payload)
        if self.strict:
            raise NotImplementedError(
                "non-GIF video codecs unavailable in this container")
        raw = np.frombuffer(payload, dtype=np.uint8)
        side = 16
        reps = -(-(side * side * 3) // len(raw))
        return [np.tile(raw, reps)[: side * side * 3]
                .reshape(side, side, 3)]

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids = batch.filter(pc.equal(batch.column("kind"), "video"))
        ids = vids.column("media_id").to_numpy(zero_copy_only=False)
        payloads = vids.column("payload").to_pylist()
        dim = self.out_w * self.out_h * 3
        o_id, o_frame, o_feat = [], [], []
        for i in range(len(ids)):
            frames = self._decode(payloads[i])
            for fi in range(0, len(frames), self.stride):
                img = frames[fi]
                ys = np.arange(self.out_h) * img.shape[0] // self.out_h
                xs = np.arange(self.out_w) * img.shape[1] // self.out_w
                small = img[ys][:, xs].astype(np.float32) / 255.0
                o_id.append(ids[i])
                o_frame.append(fi)
                o_feat.append(small.transpose(2, 0, 1).ravel())
        feats = (np.stack(o_feat) if o_feat
                 else np.empty((0, dim), dtype=np.float32))
        return pa.table({
            "media_id": pa.array(np.asarray(o_id, dtype=np.int64),
                                 pa.int64()),
            "frame": pa.array(np.asarray(o_frame, dtype=np.int32),
                              pa.int32()),
            "features": pa.FixedSizeListArray.from_arrays(
                pa.array(feats.reshape(-1), pa.float32()), dim).cast(
                    pa.list_(pa.float32())),
            "feat_dim": pa.array(np.full(len(o_id), dim, dtype=np.int32),
                                 pa.int32()),
        })


def _pool_concurrency(cap: int, divisor: int) -> int:
    """Actor-pool size cap strictly below the node's CPU count so the pool
    can never starve its upstream synthesis/read tasks (a pool that
    reserves every CPU deadlocks the pipeline — observed at
    num_cpus=4).  Safe before ray.init: falls back to the default."""
    import ray
    cpus = 4
    if ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 4))
    return max(2, min(cap, cpus // divisor))


def media_rows_for_sf(sf_dir: str) -> int:
    """Media corpus size for an sf dir: one media row per 10 event rows
    (events is the table that scales with sf), floor 64."""
    import pyarrow.parquet as pq

    try:
        n_events = pq.read_metadata(
            os.path.join(sf_dir, "events.parquet")).num_rows
    except OSError:
        return 64
    return max(64, n_events // 10)


def media_pipeline(n: int | None = None, sf_dir: str | None = None,
                   concurrency: int | tuple[int, int] | None = None):
    """Demo pipeline over the synthetic media table: decode+resize images
    (actor pool, small batches for wide binary rows), frame-sample audio
    and video; returns (image_features, audio_frames, video_frames).

    ``sf_dir`` scales the corpus with the scale factor (events//10) and
    synthesizes it DISTRIBUTED, so the decode actor pools see sf-sized
    input instead of a fixed 64-row demo table."""
    if n is None:
        n = media_rows_for_sf(sf_dir) if sf_dir else 64
    if concurrency is None:
        # pure-Python codecs are CPU-bound: size the pool to the node,
        # capped so three stages don't oversubscribe it; start at one
        # actor, so a one-block input starts no idle second one
        concurrency = (1, _pool_concurrency(12, 3))
    # the pools hold no CPU: the synthesis tasks stream into them, and a
    # decode actor holding a 1-CPU node's one CPU left those tasks
    # unscheduled, so the pipeline never finished (media_audio_spectrogram
    # likewise)
    return tuple(rows_of_kind(n, k).map_batches(
        stage, batch_format="pyarrow", batch_size=8,
        concurrency=concurrency, num_cpus=0) for k, stage in enumerate(
            (ImageDecodeResize, AudioFrameSample, VideoFrameSample)))


class AudioSpectrogram(AudioFrameSample):
    """Actor-pool stage: log-magnitude SPECTROGRAM features per frame —
    the multimodal feature-extract op (brief: "decode /
    feature-extract ... as actor-pool map_batches stages").

    Real compute on real decoded PCM: the WAV payload is parsed by the
    stdlib ``wave`` module (inherited ``_decode``), each clip is
    reshaped into fixed-length frames and ONE vectorized ``np.fft.rfft``
    call covers every frame of the clip (no per-frame Python loop);
    magnitudes are pooled into ``n_bands`` log-spaced bins with one
    ``np.add.reduceat``.  Output is long-form
    (media_id, frame, band, log_energy) — integer milli-units so
    downstream joins/aggregates shuffle ints, not floats.
    """

    def __init__(self, frame_ms: int = 100, n_bands: int = 16,
                 strict: bool = False):
        super().__init__(frame_ms=frame_ms, strict=strict)
        self.n_bands = n_bands
        self._edge_cache: dict[int, np.ndarray] = {}

    def _decode_with_rate(self, payload: bytes) -> tuple[np.ndarray, int]:
        """(PCM16 samples, sample rate) — the rate comes from the WAV
        header, so frame length always means ``frame_ms`` of REAL time
        (the byte-fallback fake assumes 8 kHz)."""
        if payload[:4] == b"RIFF":
            import io
            with self._wave.open(io.BytesIO(payload), "rb") as w:
                rate = w.getframerate()
                frames = w.readframes(w.getnframes())
            return np.frombuffer(frames, dtype="<i2").astype(np.int64), rate
        return self._decode(payload), 8000

    def _edges(self, frame_len: int) -> np.ndarray:
        """Strictly-increasing log-spaced rfft-bin edges for one frame
        length, cached per actor.  The strict-monotonicity pass (max
        with index+1) keeps low bands one-bin wide where rounding would
        collapse geomspace edges, so the spacing is genuinely
        logarithmic at the top instead of silently falling back to
        linear."""
        got = self._edge_cache.get(frame_len)
        if got is not None:
            return got
        n_bins = frame_len // 2 + 1
        if n_bins < 3:  # degenerate 1-2-bin frames: single band
            edges = np.array([0, n_bins - 1], dtype=np.int64)
            self._edge_cache[frame_len] = edges
            return edges
        k = min(self.n_bands, max(1, n_bins - 1))
        raw = np.round(np.geomspace(1, n_bins - 1, k + 1)).astype(
            np.int64)
        idx = np.arange(k + 1, dtype=np.int64)
        edges = np.maximum.accumulate(raw - idx) + idx  # strict increase
        edges = np.minimum(edges, n_bins - 1)
        self._edge_cache[frame_len] = edges
        return edges

    def __call__(self, batch: pa.Table) -> pa.Table:
        audio = batch.filter(pc.equal(batch.column("kind"), "audio"))
        ids = audio.column("media_id").to_numpy(zero_copy_only=False)
        payloads = audio.column("payload").to_pylist()
        o_id, o_frame, o_band, o_energy = [], [], [], []
        for i in range(len(ids)):
            samples, rate = self._decode_with_rate(payloads[i])
            if len(samples) == 0:
                continue
            samples = samples.astype(np.float64)
            frame_len = max(1, min(rate * self.frame_ms // 1000,
                                   len(samples)))
            edges = self._edges(frame_len)
            n_frames = len(samples) // frame_len
            use = samples[:n_frames * frame_len]
            frames = use.reshape(n_frames, -1)
            mag = np.abs(np.fft.rfft(frames, axis=1))
            # pool rfft bins into log-spaced bands, one reduceat call
            pooled = np.add.reduceat(mag, edges[:-1], axis=1)
            logm = np.round(np.log1p(pooled) * 1000.0).astype(np.int64)
            nb = len(edges) - 1
            o_id.append(np.repeat(np.full(n_frames, ids[i],
                                          dtype=np.int64), nb))
            o_frame.append(np.repeat(np.arange(n_frames,
                                               dtype=np.int32), nb))
            o_band.append(np.tile(np.arange(nb, dtype=np.int32),
                                  n_frames))
            o_energy.append(logm.ravel())
        empty = not o_id
        return pa.table({
            "media_id": pa.array(
                np.concatenate(o_id) if not empty else [], pa.int64()),
            "frame": pa.array(
                np.concatenate(o_frame) if not empty else [], pa.int32()),
            "band": pa.array(
                np.concatenate(o_band) if not empty else [], pa.int32()),
            "log_energy_milli": pa.array(
                np.concatenate(o_energy) if not empty else [],
                pa.int64()),
        })


def media_audio_spectrogram(sf_dir: str | None = None,
                            n: int | None = None):
    """(media_id, frame, band, log_energy_milli): log-spectrogram
    features for every audio row of the sf-scaled media corpus."""
    if n is None:
        n = media_rows_for_sf(sf_dir) if sf_dir else 64
    concurrency = (1, _pool_concurrency(8, 2))
    # the pool holds no CPU: on a 1-CPU node an actor holding the one CPU
    # left the synthesis tasks feeding it unscheduled, and the dataset
    # never finished (the join's probe pool, functions/join.py, likewise)
    return rows_of_kind(n, 1).map_batches(
        AudioSpectrogram, batch_format="pyarrow", batch_size=8,
        concurrency=concurrency, num_cpus=0)
