"""Pure-Python baseline JPEG codec (functions/jpeg.py): roundtrip error
bounds, chroma subsampling, restart markers, grayscale, determinism, and
malformed-input rejection."""

from __future__ import annotations

import numpy as np
import pytest

from datacat_ray.functions.jpeg import decode_jpeg, encode_jpeg


def _gradient(h, w):
    y, x = np.mgrid[0:h, 0:w]
    return np.stack([
        np.clip(x * 3, 0, 255),
        np.clip(y * 4, 0, 255),
        np.clip(120 + x, 0, 255),
    ], axis=-1).astype(np.uint8)


def test_flat_color_exact():
    """A flat block is DC-only — q95 roundtrip is bit-exact."""
    flat = np.full((16, 24, 3), [120, 64, 200], dtype=np.uint8)
    assert (decode_jpeg(encode_jpeg(flat, 95)) == flat).all()


def test_gradient_tight_bound():
    img = _gradient(33, 47)
    d = decode_jpeg(encode_jpeg(img, 95))
    assert np.abs(d.astype(int) - img.astype(int)).max() <= 3


@pytest.mark.parametrize("shape", [(8, 8, 3), (9, 13, 3), (1, 1, 3), (7, 3, 3)])
def test_odd_shapes_roundtrip(shape):
    rng = np.random.RandomState(sum(shape))
    img = rng.randint(0, 256, shape, dtype=np.uint8)
    assert decode_jpeg(encode_jpeg(img, 90)).shape == shape


def test_grayscale():
    y, x = np.mgrid[0:21, 0:15]
    g = np.clip(y * 7, 0, 255).astype(np.uint8)
    d = decode_jpeg(encode_jpeg(g, 90))
    assert d.shape == (21, 15, 3)
    assert np.abs(d[:, :, 0].astype(int) - g.astype(int)).max() <= 2
    assert (d[:, :, 0] == d[:, :, 1]).all() and (d[:, :, 0] == d[:, :, 2]).all()


def test_420_subsampling_roundtrip():
    """4:2:0 (ffmpeg's MJPEG layout): decoder upsamples h2v2 correctly;
    flat chroma survives exactly, gradients within a loose bound."""
    flat = np.full((24, 40, 3), [200, 30, 90], dtype=np.uint8)
    assert (decode_jpeg(encode_jpeg(flat, 95, subsampling="420")) == flat).all()
    img = _gradient(37, 53)
    d = decode_jpeg(encode_jpeg(img, 95, subsampling="420"))
    assert np.abs(d.astype(int) - img.astype(int)).max() <= 8


def test_restart_markers():
    """DRI/RSTn: predictors reset per interval; output equals the
    no-restart encode's decode exactly (same coefficients either way)."""
    img = _gradient(24, 40)
    plain = decode_jpeg(encode_jpeg(img, 90))
    for interval in (1, 2, 5):
        d = decode_jpeg(encode_jpeg(img, 90, restart_interval=interval))
        assert (d == plain).all()
    d = decode_jpeg(
        encode_jpeg(img, 90, subsampling="420", restart_interval=2)
    )
    assert np.abs(d.astype(int) - img.astype(int)).max() <= 8


def test_deterministic_bytes():
    img = _gradient(16, 16)
    assert encode_jpeg(img, 80) == encode_jpeg(img, 80)


def test_quality_monotone_size():
    img = np.random.RandomState(1).randint(0, 256, (32, 32, 3), np.uint8)
    assert len(encode_jpeg(img, 95)) > len(encode_jpeg(img, 50))


def test_rejects_malformed():
    with pytest.raises(ValueError, match="SOI"):
        decode_jpeg(b"not a jpeg")
    # progressive (SOF2) is out of baseline scope — explicit error
    data = bytearray(encode_jpeg(_gradient(8, 8), 90))
    sof = data.find(b"\xff\xc0")
    data[sof + 1] = 0xC2
    with pytest.raises(ValueError, match="non-baseline"):
        decode_jpeg(bytes(data))
    with pytest.raises(ValueError, match="empty"):
        encode_jpeg(np.zeros((0, 4, 3), np.uint8))
    with pytest.raises(ValueError, match="subsampling"):
        encode_jpeg(_gradient(8, 8), 90, subsampling="422")


def test_malformed_raises_valueerror_only():
    """Error contract: truncated scans, missing tables, and garbage all
    raise ValueError (never EOFError/KeyError) — the poison-row handlers
    upstream catch exactly ValueError."""
    data = encode_jpeg(_gradient(16, 16), 90)
    with pytest.raises(ValueError):
        decode_jpeg(data[:-10])  # truncated mid-entropy-data
    # strip the DHT segments AND the DQT ids they pair with is hard to do
    # surgically; instead corrupt a Huffman table id in SOS so lookup
    # misses → must still be ValueError
    sos = data.find(b"\xff\xda")
    bad = bytearray(data)
    bad[sos + 6] = 0x33  # component 1 now wants tables 3/3 (absent)
    with pytest.raises(ValueError):
        decode_jpeg(bytes(bad))


def test_omitted_dht_uses_standard_tables():
    """MJPEG-in-AVI convention: streams with no DHT segment decode with
    the implied Annex K tables."""
    data = encode_jpeg(_gradient(24, 16), 92)
    out = bytearray()
    pos = 0
    while pos < len(data):  # strip every DHT segment
        if data[pos:pos + 2] == b"\xff\xc4":
            import struct as _s

            (seglen,) = _s.unpack_from(">H", data, pos + 2)
            pos += 2 + seglen
            continue
        out.append(data[pos])
        pos += 1
    stripped = bytes(out)
    assert b"\xff\xc4" not in stripped[:stripped.find(b"\xff\xda")]
    assert (decode_jpeg(stripped) == decode_jpeg(data)).all()


def test_quant_table_raster_semantics():
    """The effective quantization matrix equals the Annex K raster table
    (a zigzag/raster mixup quantizes low horizontal frequencies ~4x too
    hard): encode a pure horizontal low-frequency pattern at quality 50
    (=the unscaled base table) and demand near-exact recovery, which only
    holds when coefficient (0,1)/(0,2) get their fine Annex K steps."""
    import numpy as np

    y, x = np.mgrid[0:8, 0:8]
    wave = (128 + 60 * np.cos((2 * x + 1) * np.pi / 16)).round().astype(
        np.uint8
    )  # exactly DCT basis (u,v)=(0,1) — quant step 11 raster vs 40 scrambled
    img = np.stack([wave, wave, wave], axis=-1)
    d = decode_jpeg(encode_jpeg(img, 50))
    err = np.abs(d[:, :, 0].astype(int) - wave.astype(int)).max()
    assert err <= 4, err


def test_adversarial_headers_are_valueerror():
    """Zero sampling factors and absurd SOF dimensions must be ValueError
    poison rows, never ZeroDivisionError / a multi-GB allocation."""
    import struct as _s

    data = bytearray(encode_jpeg(_gradient(8, 8), 90))
    sof = data.find(b"\xff\xc0")
    # sampling byte of component 1 lives at sof+2(marker)+2(len)+6+1
    samp_off = sof + 4 + 6 + 1
    bad = bytearray(data)
    bad[samp_off] = 0x00
    with pytest.raises(ValueError, match="sampling"):
        decode_jpeg(bytes(bad))
    bad = bytearray(data)
    _s.pack_into(">HH", bad, sof + 5, 65535, 65535)  # h, w
    with pytest.raises(ValueError, match="dimensions"):
        decode_jpeg(bytes(bad))


def test_non_dividing_sampling_factors_rejected_at_sof():
    """3x1 luma with 2x1 chroma: 2 does not divide hmax 3, so the planes
    could not be upsampled to one shape. Rejected when the SOF is parsed,
    with a message naming the factors."""
    data = bytearray(encode_jpeg(_gradient(16, 16), 90, subsampling="420"))
    sof = data.find(b"\xff\xc0")
    assert data[sof + 9] == 3  # three components follow
    for ci, hv in enumerate((0x31, 0x21, 0x21)):
        data[sof + 4 + 6 + 3 * ci + 1] = hv
    with pytest.raises(ValueError, match="sampling factors 2x1 of component"
                       " 2 do not divide the maximum 3x1"):
        decode_jpeg(bytes(data))


def test_partial_dht_fills_missing_ids():
    """A stream defining only its LUMA tables still decodes: the chroma
    ids fall back to the implied Annex K tables per id."""
    data = encode_jpeg(_gradient(24, 16), 92)
    out = bytearray()
    pos = 0
    dropped = 0
    while pos < len(data):
        if data[pos:pos + 2] == b"\xff\xc4":
            import struct as _s

            (seglen,) = _s.unpack_from(">H", data, pos + 2)
            tc_th = data[pos + 4]
            if tc_th & 0x0F == 1:  # drop only the chroma tables
                pos += 2 + seglen
                dropped += 1
                continue
        out.append(data[pos])
        pos += 1
    assert dropped == 2
    assert (decode_jpeg(bytes(out)) == decode_jpeg(data)).all()


def test_decode_fuzz_error_contract():
    """Fuzz the error contract: byte mutations, truncations, and random
    garbage must either decode to an image or raise ValueError — never a
    foreign exception (the poison-row guarantee). Deterministic seeds."""
    import numpy as np

    base = encode_jpeg(_gradient(16, 16), 85)
    rng = np.random.RandomState(20260819)

    def probe(data: bytes) -> None:
        try:
            out = decode_jpeg(data)
        except ValueError:
            return
        assert out.dtype == np.uint8 and out.ndim == 3

    for _ in range(150):  # k-byte mutations
        bad = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            bad[rng.randint(0, len(bad))] = rng.randint(0, 256)
        probe(bytes(bad))
    for _ in range(50):  # truncations
        probe(base[: rng.randint(0, len(base))])
    for _ in range(50):  # garbage with a valid SOI
        probe(b"\xff\xd8" + bytes(rng.randint(0, 256, rng.randint(0, 200),
                                              dtype=np.uint8)))
