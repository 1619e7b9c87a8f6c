"""Pure-Python baseline JPEG codec (ITU-T T.81 / ISO 10918-1, from the
public spec — no library code). Exists so the MJPEG branch of the AVI
frame-decode seam (``functions/avi.py``) is a REAL decode in this
container: compressed video coverage must not depend on an external
ffmpeg binary the sandbox lacks.

Scope — baseline sequential DCT, 8-bit:

* encoder: 1- or 3-component (grayscale / RGB→YCbCr JFIF), 4:4:4 (no
  subsampling), Annex K quantization tables with libjpeg-style quality
  scaling, Annex K Huffman tables. Deterministic byte output.
* decoder: any baseline stream with SOF0 — 1 or 3 components, arbitrary
  DQT/DHT tables, sampling factors up to 2×2 (covers 4:4:4 / 4:2:2 /
  4:2:0 — what ffmpeg's MJPEG encoder emits), restart markers (DRI/RSTn).

The DCT uses the orthonormal 8-point matrix (T[u,x] = c(u)·cos((2x+1)uπ/16)),
so F = T·f·Tᵀ is exactly the spec's FDCT and f = Tᵀ·F·T its inverse; both
run as one einsum over every block of a plane at once, never per-pixel
Python. The entropy coder is the only sequential part (bit-serial by
nature); frames in this repo's pipelines are thumbnail-scale, and the
scale path for real video remains the batched ffmpeg subprocess seam.
"""

from __future__ import annotations

import struct

import numpy as np

# --- Annex K tables (public spec constants) --------------------------------

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
_UNZIGZAG = np.argsort(ZIGZAG)

_QT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64)

_QT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64)

_DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUMA_VALS = list(range(12))
_DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHROMA_VALS = list(range(12))

_AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
_AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]
_AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
_AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]

# orthonormal 8-point DCT matrix
_x = np.arange(8)
_DCT_T = np.cos((2 * _x[None, :] + 1) * _x[:, None] * np.pi / 16) * 0.5
_DCT_T[0, :] = np.sqrt(1.0 / 8.0)

# decode-side allocation bound: SOF-declared w*h caps every plane alloc
# and the MCU loop (thumbnail-to-HD is the codec's documented role)
_MAX_PIXELS = 1 << 26  # 67 M pixels (~8k x 8k)


# --- shared helpers ---------------------------------------------------------


def _quality_scale(base: np.ndarray, quality: int) -> np.ndarray:
    """libjpeg-style quality scaling of a base quantization table."""
    quality = min(100, max(1, int(quality)))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)


def _build_huff_codes(bits: list[int], vals: list[int]) -> dict:
    """symbol → (code, length), canonical per spec Annex C."""
    out: dict = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


def _build_huff_decode(bits: list[int], vals: list[int]) -> dict:
    """(length, code) → symbol."""
    out: dict = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[(length, code)] = vals[k]
            code += 1
            k += 1
        code <<= 1
    return out


_DEFAULT_HUFF: tuple | None = None


def _default_huff_tables() -> tuple[dict, dict]:
    """Implied Annex K decode tables (0 = luma, 1 = chroma), built once
    per process — they sit on the per-frame decode path for DHT-less
    MJPEG streams."""
    global _DEFAULT_HUFF
    if _DEFAULT_HUFF is None:
        _DEFAULT_HUFF = (
            {
                0: _build_huff_decode(_DC_LUMA_BITS, _DC_LUMA_VALS),
                1: _build_huff_decode(_DC_CHROMA_BITS, _DC_CHROMA_VALS),
            },
            {
                0: _build_huff_decode(_AC_LUMA_BITS, _AC_LUMA_VALS),
                1: _build_huff_decode(_AC_CHROMA_BITS, _AC_CHROMA_VALS),
            },
        )
    return _DEFAULT_HUFF


def _rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    f = img.astype(np.float64)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
    return np.stack([y, cb, cr], axis=-1)


def _ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    cb = cb - 128.0
    cr = cr - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.stack([r, g, b], axis=-1).round(), 0, 255).astype(
        np.uint8
    )


def _plane_blocks(plane: np.ndarray) -> np.ndarray:
    """(H, W) float plane (H, W multiples of 8) → (n_blocks, 8, 8) in
    raster block order."""
    h, w = plane.shape
    return (
        plane.reshape(h // 8, 8, w // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
    )


# --- encoder ----------------------------------------------------------------


class _BitWriter:
    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            byte = (self.acc >> self.nbits) & 0xFF
            self.buf.append(byte)
            if byte == 0xFF:  # byte stuffing
                self.buf.append(0x00)
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> None:
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1-bits per spec


def _magnitude(v: int) -> tuple[int, int]:
    """value → (ssss category, offset bits) per spec F.1.2.1."""
    if v == 0:
        return 0, 0
    a = abs(v)
    ssss = a.bit_length()
    bits = v if v > 0 else v + (1 << ssss) - 1
    return ssss, bits


def _encode_plane_coeffs(
    plane: np.ndarray, qt: np.ndarray
) -> np.ndarray:
    """float plane → (n_blocks, 64) quantized zigzag coefficients.
    ``qt`` is in RASTER order (as the Annex K literals are written); the
    DQT segment serializes it in zigzag order per spec B.2.4.1."""
    blocks = _plane_blocks(plane) - 128.0
    coef = np.einsum("ux,nxy,vy->nuv", _DCT_T, blocks, _DCT_T)
    q = qt.reshape(8, 8)
    quant = np.round(coef / q).astype(np.int64)
    return quant.reshape(-1, 64)[:, ZIGZAG]


def _entropy_encode(
    bw: _BitWriter, zz: np.ndarray, pred: int, dc_codes: dict, ac_codes: dict
) -> int:
    dc = int(zz[0])
    ssss, bits = _magnitude(dc - pred)
    code, length = dc_codes[ssss]
    bw.write(code, length)
    if ssss:
        bw.write(bits, ssss)
    run = 0
    nz = np.flatnonzero(zz[1:])
    last = nz[-1] + 1 if len(nz) else 0
    for k in range(1, last + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, length = ac_codes[0xF0]  # ZRL
            bw.write(code, length)
            run -= 16
        ssss, bits = _magnitude(v)
        code, length = ac_codes[(run << 4) | ssss]
        bw.write(code, length)
        bw.write(bits, ssss)
        run = 0
    if last < 63:
        code, length = ac_codes[0x00]  # EOB
        bw.write(code, length)
    return dc


def encode_jpeg(
    img: np.ndarray,
    quality: int = 90,
    subsampling: str = "444",
    restart_interval: int = 0,
) -> bytes:
    """uint8 (h, w, 3) RGB or (h, w) grayscale → baseline JFIF bytes,
    Annex K Huffman tables. ``subsampling``: "444" (one block per
    component per MCU) or "420" (2×2 luma + box-averaged chroma — what
    ffmpeg's MJPEG encoder emits, so the decoder's subsampled path is
    self-testable in-sandbox). ``restart_interval`` > 0 emits DRI + RSTn
    markers every n MCUs (predictor resets), exercising the decoder's
    restart path. Deterministic byte output."""
    img = np.asarray(img)
    gray = img.ndim == 2
    h, w = img.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("empty image")
    if subsampling not in ("444", "420"):
        raise ValueError(f"unsupported subsampling {subsampling!r}")
    qt_l = _quality_scale(_QT_LUMA, quality)
    qt_c = _quality_scale(_QT_CHROMA, quality)

    ncomp = 1 if gray else 3
    if subsampling == "420" and not gray:
        samp = [(2, 2), (1, 1), (1, 1)]
    else:
        samp = [(1, 1)] * ncomp
    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcus_x = (w + 8 * hmax - 1) // (8 * hmax)
    mcus_y = (h + 8 * vmax - 1) // (8 * vmax)

    if gray:
        fulls = [img.astype(np.float64)]
    else:
        ycc = _rgb_to_ycbcr(img)
        fulls = [ycc[..., i] for i in range(3)]
    planes = []
    for (sh, sv), p in zip(samp, fulls):
        fh, fw = mcus_y * 8 * vmax, mcus_x * 8 * hmax
        pad = np.pad(p, ((0, fh - h), (0, fw - w)), mode="edge")
        ry, rx = vmax // sv, hmax // sh
        if ry > 1 or rx > 1:  # box-average downsample
            pad = pad.reshape(fh // ry, ry, fw // rx, rx).mean(axis=(1, 3))
        planes.append(pad)

    out = bytearray()
    out += b"\xff\xd8"  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00"
    out += struct.pack(">HHBB", 1, 1, 0, 0)
    # DQT — tables serialize in ZIGZAG order (spec B.2.4.1); the literals
    # and the quantize step use raster order
    out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + bytes(
        int(x) for x in qt_l[ZIGZAG]
    )
    if not gray:
        out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x01" + bytes(
            int(x) for x in qt_c[ZIGZAG]
        )
    # SOF0
    out += b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for ci in range(ncomp):
        sh, sv = samp[ci]
        out += struct.pack(
            "BBB", ci + 1, (sh << 4) | sv, 0 if ci == 0 else 1
        )
    # DHT
    for tc_th, bits, vals in (
        (0x00, _DC_LUMA_BITS, _DC_LUMA_VALS),
        (0x10, _AC_LUMA_BITS, _AC_LUMA_VALS),
    ) + (() if gray else (
        (0x01, _DC_CHROMA_BITS, _DC_CHROMA_VALS),
        (0x11, _AC_CHROMA_BITS, _AC_CHROMA_VALS),
    )):
        out += b"\xff\xc4" + struct.pack(
            ">H", 19 + len(vals)
        ) + bytes([tc_th]) + bytes(bits) + bytes(vals)
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)
    # SOS
    out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * ncomp, ncomp)
    for ci in range(ncomp):
        out += struct.pack("BB", ci + 1, 0x00 if ci == 0 else 0x11)
    out += b"\x00\x3f\x00"

    dc_l = _build_huff_codes(_DC_LUMA_BITS, _DC_LUMA_VALS)
    ac_l = _build_huff_codes(_AC_LUMA_BITS, _AC_LUMA_VALS)
    dc_c = _build_huff_codes(_DC_CHROMA_BITS, _DC_CHROMA_VALS)
    ac_c = _build_huff_codes(_AC_CHROMA_BITS, _AC_CHROMA_VALS)

    coeffs = [
        _encode_plane_coeffs(planes[i], qt_l if i == 0 else qt_c)
        for i in range(ncomp)
    ]
    bwidths = [p.shape[1] // 8 for p in planes]

    bw = _BitWriter()
    preds = [0] * ncomp
    mcu_count = 0
    rst_n = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_count == restart_interval:
                bw.flush()
                out += bw.buf
                out += bytes([0xFF, 0xD0 + (rst_n & 7)])
                bw = _BitWriter()
                preds = [0] * ncomp
                mcu_count = 0
                rst_n += 1
            for ci in range(ncomp):
                sh, sv = samp[ci]
                for by in range(sv):
                    for bx in range(sh):
                        bi = (my * sv + by) * bwidths[ci] + (mx * sh + bx)
                        preds[ci] = _entropy_encode(
                            bw, coeffs[ci][bi], preds[ci],
                            dc_l if ci == 0 else dc_c,
                            ac_l if ci == 0 else ac_c,
                        )
            mcu_count += 1
    bw.flush()
    out += bw.buf
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# --- decoder ----------------------------------------------------------------


class _BitReader:
    """Entropy-segment bit reader: un-stuffs 0xFF 0x00, stops at markers
    (exposes them for restart handling)."""

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos
        self.acc = 0
        self.nbits = 0
        self.marker: int | None = None

    def _fill(self) -> None:
        if self.marker is not None:
            raise EOFError("hit marker")
        if self.pos >= len(self.data):
            raise EOFError("truncated scan")
        b = self.data[self.pos]
        if b == 0xFF:
            nxt = self.data[self.pos + 1] if self.pos + 1 < len(self.data) else 0xD9
            if nxt == 0x00:
                self.pos += 2
            else:
                self.marker = nxt
                raise EOFError("hit marker")
        else:
            self.pos += 1
        self.acc = (self.acc << 8) | b
        self.nbits += 8

    def read_bit(self) -> int:
        if self.nbits == 0:
            self._fill()
        self.nbits -= 1
        bit = (self.acc >> self.nbits) & 1
        # drop the consumed high bit — an unmasked accumulator grows one
        # byte per _fill, turning every shift into an O(scan-size) bigint
        # op (quadratic total on a large frame)
        self.acc &= (1 << self.nbits) - 1
        return bit

    def read_bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v

    def align_past_marker(self) -> int:
        """Consume the pending marker (RSTn), reset bit state."""
        m = self.marker
        if m is None:
            # marker not yet reached: scan forward (spec allows fill bits)
            while self.marker is None:
                try:
                    self.read_bit()
                except EOFError:
                    break
            m = self.marker
        self.marker = None
        self.acc = 0
        self.nbits = 0
        self.pos += 2  # past FF xx
        return m if m is not None else 0xD9


def _huff_decode(br: _BitReader, table: dict) -> int:
    code = 0
    for length in range(1, 17):
        code = (code << 1) | br.read_bit()
        sym = table.get((length, code))
        if sym is not None:
            return sym
    raise ValueError("invalid Huffman code")


def _extend(v: int, ssss: int) -> int:
    return v if v >= (1 << (ssss - 1)) else v - (1 << ssss) + 1


def decode_jpeg(data: bytes) -> np.ndarray:
    """Baseline JPEG bytes → uint8 RGB (h, w, 3) (grayscale stacked to 3
    channels). Supports multiple DQT/DHT segments, omitted-DHT streams
    (the MJPEG-in-AVI convention: Annex K tables implied), sampling
    factors ≤ 2×2, and restart markers.

    Error contract: EVERY malformed input raises ``ValueError`` — the
    poison-row handlers upstream (``VideoFrameSampler``) catch exactly
    that, so a truncated scan or missing table must never surface as
    EOFError/KeyError and kill a Ray task."""
    try:
        return _decode_jpeg(data)
    except (EOFError, KeyError, IndexError, StopIteration, struct.error,
            ZeroDivisionError, MemoryError, OverflowError) as exc:
        # OverflowError: corrupt Huffman symbols can run the DC predictor
        # accumulation past int64 (fuzz-found)
        raise ValueError(
            f"malformed JPEG stream ({type(exc).__name__}: {exc})"
        ) from exc


def _decode_jpeg(data: bytes) -> np.ndarray:
    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (no SOI)")
    pos = 2
    qts: dict[int, np.ndarray] = {}
    dc_tabs: dict[int, dict] = {}
    ac_tabs: dict[int, dict] = {}
    comps: list[dict] = []
    h = w = 0
    restart_interval = 0
    while pos < len(data):
        if data[pos] != 0xFF:
            raise ValueError(f"marker expected at {pos}")
        marker = data[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:  # EOI
            break
        (seglen,) = struct.unpack_from(">H", data, pos)
        seg = data[pos + 2 : pos + seglen]
        if marker == 0xDB:  # DQT (may hold several tables)
            sp = 0
            while sp < len(seg):
                pq, tq = seg[sp] >> 4, seg[sp] & 0x0F
                sp += 1
                if pq:
                    qts[tq] = np.frombuffer(
                        seg, dtype=">u2", count=64, offset=sp
                    ).astype(np.int64)
                    sp += 128
                else:
                    qts[tq] = np.frombuffer(
                        seg, dtype=np.uint8, count=64, offset=sp
                    ).astype(np.int64)
                    sp += 64
        elif marker == 0xC4:  # DHT
            sp = 0
            while sp < len(seg):
                tc, th = seg[sp] >> 4, seg[sp] & 0x0F
                bits = list(seg[sp + 1 : sp + 17])
                nv = sum(bits)
                vals = list(seg[sp + 17 : sp + 17 + nv])
                tab = _build_huff_decode(bits, vals)
                (ac_tabs if tc else dc_tabs)[th] = tab
                sp += 17 + nv
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 (baseline-ish)
            _prec, h, w, nc = struct.unpack_from(">BHHB", seg, 0)
            if h == 0 or w == 0 or h * w > _MAX_PIXELS:
                # declared dimensions bound every allocation downstream —
                # a 200-byte stream claiming 65535x65535 must be a
                # ValueError poison row, not a 34 GB plane allocation
                raise ValueError(
                    f"unreasonable JPEG dimensions {w}x{h} "
                    f"(cap {_MAX_PIXELS} pixels)"
                )
            comps = []
            for ci in range(nc):
                cid, hv, tq = struct.unpack_from("BBB", seg, 6 + 3 * ci)
                sh, sv = hv >> 4, hv & 0x0F
                if not (1 <= sh <= 4 and 1 <= sv <= 4):
                    raise ValueError(
                        f"invalid sampling factors {sh}x{sv}"
                    )
                comps.append({"id": cid, "h": sh, "v": sv, "tq": tq})
            # the scan upsamples each plane by hmax // h and vmax // v: a
            # factor that does not divide the maximum (3x1 luma with 2x1
            # chroma) would give planes of mismatched shapes
            hmax = max((c["h"] for c in comps), default=1)
            vmax = max((c["v"] for c in comps), default=1)
            for c in comps:
                if hmax % c["h"] or vmax % c["v"]:
                    raise ValueError(
                        f"sampling factors {c['h']}x{c['v']} of component "
                        f"{c['id']} do not divide the maximum "
                        f"{hmax}x{vmax}"
                    )
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                        0xCD, 0xCE, 0xCF):
            raise ValueError(
                f"non-baseline SOF marker 0x{marker:02x} unsupported"
            )
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xDA:  # SOS — entropy data follows
            ns = seg[0]
            scan = []
            ddc, dac = _default_huff_tables()
            for si in range(ns):
                cs, tdta = seg[1 + 2 * si], seg[2 + 2 * si]
                comp = next(c for c in comps if c["id"] == cs)
                td, ta = tdta >> 4, tdta & 0x0F
                # omitted/partial-DHT convention (common for MJPEG-in-AVI):
                # any table id the stream references but never defined is
                # the implied Annex K table — filled PER id, so a stream
                # carrying only its luma DHT still decodes
                if td not in dc_tabs and td in ddc:
                    dc_tabs[td] = ddc[td]
                if ta not in ac_tabs and ta in dac:
                    ac_tabs[ta] = dac[ta]
                scan.append((comp, td, ta))
            pos += seglen
            return _decode_scan(
                data, pos, h, w, comps, scan, qts, dc_tabs, ac_tabs,
                restart_interval,
            )
        pos += seglen
    raise ValueError("no SOS marker found")


def _decode_scan(
    data: bytes, pos: int, h: int, w: int, comps: list[dict], scan: list,
    qts: dict, dc_tabs: dict, ac_tabs: dict, restart_interval: int,
) -> np.ndarray:
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcus_x = (w + 8 * hmax - 1) // (8 * hmax)
    mcus_y = (h + 8 * vmax - 1) // (8 * vmax)
    planes = []
    for c in comps:
        cw = mcus_x * 8 * c["h"]
        ch = mcus_y * 8 * c["v"]
        planes.append(np.zeros((ch, cw), dtype=np.float64))

    br = _BitReader(data, pos)
    preds = [0] * len(comps)
    zz = np.empty(64, dtype=np.int64)
    mcu_count = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and mcu_count == restart_interval:
                m = br.align_past_marker()
                if not 0xD0 <= m <= 0xD7:
                    raise ValueError(f"expected RST marker, got 0x{m:02x}")
                preds = [0] * len(comps)
                mcu_count = 0
            for ci, (comp, td, ta) in enumerate(scan):
                dct = dc_tabs[td]
                act = ac_tabs[ta]
                q = qts[comp["tq"]][_UNZIGZAG].reshape(8, 8)
                for by in range(comp["v"]):
                    for bx in range(comp["h"]):
                        zz[:] = 0
                        ssss = _huff_decode(br, dct)
                        diff = _extend(br.read_bits(ssss), ssss) if ssss else 0
                        preds[ci] += diff
                        zz[0] = preds[ci]
                        k = 1
                        while k < 64:
                            rs = _huff_decode(br, act)
                            r, s = rs >> 4, rs & 0x0F
                            if s == 0:
                                if r == 15:
                                    k += 16
                                    continue
                                break  # EOB
                            k += r
                            if k > 63:
                                raise ValueError("AC run past block end")
                            zz[k] = _extend(br.read_bits(s), s)
                            k += 1
                        block = (zz[_UNZIGZAG].reshape(8, 8) * q).astype(
                            np.float64
                        )
                        pix = _DCT_T.T @ block @ _DCT_T + 128.0
                        y0 = (my * comp["v"] + by) * 8
                        x0 = (mx * comp["h"] + bx) * 8
                        planes[ci][y0 : y0 + 8, x0 : x0 + 8] = pix
            mcu_count += 1

    # upsample to full resolution and crop
    full = []
    for c, p in zip(comps, planes):
        ry, rx = vmax // c["v"], hmax // c["h"]
        if ry > 1 or rx > 1:
            p = np.repeat(np.repeat(p, ry, axis=0), rx, axis=1)
        full.append(p[:h, :w])
    if len(full) == 1:
        g = np.clip(full[0].round(), 0, 255).astype(np.uint8)
        return np.stack([g, g, g], axis=-1)
    return _ycbcr_to_rgb(full[0], full[1], full[2])
