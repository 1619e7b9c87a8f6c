"""Pure-Python uncompressed-DIB AVI (RIFF) codec — a REAL container format
(Microsoft AVI with BI_RGB 24-bit frames: 'vids'/'DIB ' stream, '00db'
movi chunks, bottom-up BGR rows padded to 4 bytes), readable by any
standard player/ffprobe. Replaces the repo's earlier ad-hoc frame
container so the video pipeline decodes a format that exists outside
this repo. Written from the public AVI RIFF specification; no codec
library involved (frames are uncompressed, which is exactly what the
pipeline plumbing needs — a production deployment swaps the frame codec
for ffmpeg/decord behind the same two functions).

Surface:
  encode_avi(frames, fps)          -> bytes      (frames: uint8 (h,w,3) RGB)
  parse_avi_header(payload)        -> (n_frames, width, height, fps)
  decode_avi_frame(payload, idx)   -> uint8 (h, w, 3) RGB
"""

from __future__ import annotations

import struct

import numpy as np

_AVIH = struct.Struct("<IIIIIIIIII4I")  # 56-byte MainAVIHeader
_STRH = struct.Struct("<4s4sIHHIIIIIIII4H")  # 56-byte AVIStreamHeader
_BMIH = struct.Struct("<IiiHHIIiiII")  # 40-byte BITMAPINFOHEADER
_AVIF_HASINDEX = 0x10
_AVIIF_KEYFRAME = 0x10


def _row_stride(w: int) -> int:
    return (w * 3 + 3) & ~3  # BGR rows padded to 4 bytes


def _frame_dib(frame: np.ndarray) -> bytes:
    """uint8 (h, w, 3) RGB → bottom-up padded BGR plane (BI_RGB)."""
    h, w, c = frame.shape
    if c < 3:
        raise ValueError("need RGB frames")
    stride = _row_stride(w)
    out = np.zeros((h, stride), dtype=np.uint8)
    bgr = frame[::-1, :, 2::-1]  # flip rows (bottom-up) + RGB→BGR
    out[:, : w * 3] = bgr.reshape(h, w * 3)
    return out.tobytes()


def encode_avi(frames: list, fps: int) -> bytes:
    """Single-video-stream uncompressed AVI. All frames must share one
    (h, w, 3) shape."""
    if not frames:
        raise ValueError("need at least one frame")
    h, w = frames[0].shape[0], frames[0].shape[1]
    payloads = []
    for f in frames:
        if f.shape[:2] != (h, w):
            raise ValueError("all frames must share one shape")
        payloads.append(_frame_dib(np.asarray(f, dtype=np.uint8)))
    return _build_avi(payloads, w, h, fps, handler=b"DIB ", chunk=b"00db",
                      compression=0)


MJPG_FOURCC = struct.unpack("<I", b"MJPG")[0]


def encode_avi_mjpeg(
    frames: list, fps: int, quality: int = 90, subsampling: str = "420"
) -> bytes:
    """Motion-JPEG AVI: every frame an independent baseline JPEG in a
    '00dc' chunk, ``biCompression`` = 'MJPG' (the standard intra-only
    compressed AVI layout). The JPEG codec is the in-repo pure-Python
    baseline implementation (``functions/jpeg.py``), so the compressed
    branch of the video seam is encodable AND decodable without ffmpeg."""
    from datacat_ray.functions.jpeg import encode_jpeg

    if not frames:
        raise ValueError("need at least one frame")
    h, w = frames[0].shape[0], frames[0].shape[1]
    payloads = []
    for f in frames:
        if f.shape[:2] != (h, w):
            raise ValueError("all frames must share one shape")
        payloads.append(
            encode_jpeg(np.asarray(f, dtype=np.uint8), quality=quality,
                        subsampling=subsampling)
        )
    return _build_avi(payloads, w, h, fps, handler=b"MJPG", chunk=b"00dc",
                      compression=MJPG_FOURCC)


def _build_avi(
    payloads: list, w: int, h: int, fps: int,
    handler: bytes, chunk: bytes, compression: int,
) -> bytes:
    """Assemble the RIFF container around ready frame payloads (one
    builder for the BI_RGB and MJPG layouts)."""
    n = len(payloads)
    frame_size = max(len(p) for p in payloads)

    avih = b"avih" + struct.pack("<I", _AVIH.size) + _AVIH.pack(
        int(round(1_000_000 / fps)),  # dwMicroSecPerFrame
        frame_size * fps,  # dwMaxBytesPerSec
        0,  # dwPaddingGranularity
        _AVIF_HASINDEX,  # dwFlags
        n,  # dwTotalFrames
        0,  # dwInitialFrames
        1,  # dwStreams
        frame_size,  # dwSuggestedBufferSize
        w,
        h,
        0, 0, 0, 0,  # dwReserved
    )
    strh = b"strh" + struct.pack("<I", _STRH.size) + _STRH.pack(
        b"vids", handler,
        0,  # dwFlags
        0, 0,  # wPriority, wLanguage
        0,  # dwInitialFrames
        1, fps,  # dwScale, dwRate → fps frames/sec
        0,  # dwStart
        n,  # dwLength (frames)
        frame_size,  # dwSuggestedBufferSize
        0xFFFFFFFF,  # dwQuality (-1 = default)
        0,  # dwSampleSize (0: one sample per chunk)
        0, 0, w, h,  # rcFrame
    )
    strf = b"strf" + struct.pack("<I", _BMIH.size) + _BMIH.pack(
        _BMIH.size, w, h, 1, 24, compression, frame_size, 0, 0, 0, 0
    )
    strl = b"LIST" + struct.pack("<I", 4 + len(strh) + len(strf)) + b"strl" \
        + strh + strf
    hdrl = b"LIST" + struct.pack("<I", 4 + len(avih) + len(strl)) + b"hdrl" \
        + avih + strl

    movi_chunks = []
    idx = []
    offset = 4  # idx1 offsets are relative to the 'movi' fourcc
    for p in payloads:
        pad = b"\x00" if len(p) & 1 else b""  # chunks are word-aligned
        movi_chunks.append(chunk + struct.pack("<I", len(p)) + p + pad)
        idx.append(struct.pack(
            "<4sIII", chunk, _AVIIF_KEYFRAME, offset, len(p)))
        offset += 8 + len(p) + len(pad)
    movi_body = b"".join(movi_chunks)
    movi = b"LIST" + struct.pack("<I", 4 + len(movi_body)) + b"movi" \
        + movi_body
    idx1 = b"idx1" + struct.pack("<I", 16 * n) + b"".join(idx)

    body = b"AVI " + hdrl + movi + idx1
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _find_chunk(payload: bytes, pos: int, end: int, fourcc: bytes,
                list_type: bytes | None = None) -> tuple[int, int]:
    """Walk sibling chunks in [pos, end); return (data_start, data_size)
    of the first match (for LIST chunks, matches on the list type and the
    returned region EXCLUDES the 4-byte type)."""
    while pos + 8 <= end:
        ck = payload[pos:pos + 4]
        (size,) = struct.unpack_from("<I", payload, pos + 4)
        data = pos + 8
        if ck == fourcc and list_type is None:
            return data, size
        if ck == b"LIST" and list_type is not None \
                and payload[data:data + 4] == list_type:
            return data + 4, size - 4
        pos = data + size + (size & 1)  # chunks are word-aligned
    raise ValueError(f"chunk {fourcc!r}/{list_type!r} not found")


def parse_avi_header(payload: bytes) -> tuple[int, int, int, int]:
    """(n_frames, width, height, fps) from the avih/strh headers."""
    if not payload or payload[:4] != b"RIFF" or payload[8:12] != b"AVI ":
        raise ValueError("not an AVI")
    end = 12 + struct.unpack_from("<I", payload, 4)[0] - 4
    hdrl, hsize = _find_chunk(payload, 12, end, b"LIST", b"hdrl")
    avih, asize = _find_chunk(payload, hdrl, hdrl + hsize, b"avih")
    vals = _AVIH.unpack_from(payload, avih)
    n_frames, width, height = vals[4], vals[8], vals[9]
    strl, ssize = _find_chunk(payload, hdrl, hdrl + hsize, b"LIST", b"strl")
    strh, _ = _find_chunk(payload, strl, strl + ssize, b"strh")
    s = _STRH.unpack_from(payload, strh)
    scale, rate = s[6], s[7]
    fps = int(round(rate / scale)) if scale else 0
    return n_frames, width, height, fps


def _frame_chunks(
    payload: bytes, frame_idxs: list[int]
) -> list[tuple[int, int]]:
    """(data offset, size) per requested frame — ONE header parse and ONE
    movi walk for the whole sampled grid (a per-frame walk would make a
    dense grid over a long stream quadratic in stream length), shared by
    the BI_RGB and MJPG decode paths."""
    n, _w, _h, _fps = parse_avi_header(payload)
    wanted: dict[int, tuple[int, int] | None] = {}
    for fi in frame_idxs:
        if not 0 <= fi < n:
            raise ValueError("frame index out of range")
        wanted.setdefault(fi, None)
    end = 12 + struct.unpack_from("<I", payload, 4)[0] - 4
    movi, msize = _find_chunk(payload, 12, end, b"LIST", b"movi")
    pos = movi
    seen = 0
    remaining = len(wanted)
    while pos + 8 <= movi + msize and remaining:
        ck = payload[pos:pos + 4]
        (size,) = struct.unpack_from("<I", payload, pos + 4)
        if ck in (b"00db", b"00dc"):
            if seen in wanted and wanted[seen] is None:
                wanted[seen] = (pos + 8, size)
                remaining -= 1
            seen += 1
        pos += 8 + size + (size & 1)
    if remaining:
        raise ValueError("frame chunk missing from movi list")
    return [wanted[fi] for fi in frame_idxs]  # type: ignore[misc]


def _decode_dib(payload: bytes, off: int, size: int, w: int,
                h: int) -> np.ndarray:
    stride = _row_stride(w)
    if size < stride * h:
        raise ValueError("truncated frame chunk")
    plane = np.frombuffer(
        payload, dtype=np.uint8, count=stride * h, offset=off
    ).reshape(h, stride)
    bgr = plane[:, : w * 3].reshape(h, w, 3)
    return bgr[::-1, :, ::-1].copy()  # bottom-up → top-down, BGR→RGB


def decode_avi_frame(payload: bytes, frame_idx: int) -> np.ndarray:
    """Walk the movi list to the frame_idx-th '00db'/'00dc' chunk and
    decode the BI_RGB plane back to uint8 (h, w, 3) RGB."""
    _n, w, h, _fps = parse_avi_header(payload)
    off, size = _frame_chunks(payload, [frame_idx])[0]
    return _decode_dib(payload, off, size, w, h)


# ---------------------------------------------------------------------------
# compressed-codec seam (ffmpeg)
# ---------------------------------------------------------------------------


class UnsupportedCodec(ValueError):
    """AVI video stream uses a codec the pure-Python decoder cannot read
    and no external decoder is available."""


def _strf_offset(payload: bytes) -> int:
    """Byte offset of the video stream's BITMAPINFOHEADER (strf data)."""
    end = 12 + struct.unpack_from("<I", payload, 4)[0] - 4
    hdrl, hsize = _find_chunk(payload, 12, end, b"LIST", b"hdrl")
    strl, ssize = _find_chunk(payload, hdrl, hdrl + hsize, b"LIST", b"strl")
    strf, _ = _find_chunk(payload, strl, strl + ssize, b"strf")
    return strf


def avi_compression(payload: bytes) -> int:
    """``biCompression`` of the video stream (0 = BI_RGB uncompressed;
    anything else is a fourcc codec id the pure-Python path can't read)."""
    if not payload or payload[:4] != b"RIFF" or payload[8:12] != b"AVI ":
        raise ValueError("not an AVI")
    return _BMIH.unpack_from(payload, _strf_offset(payload))[5]


def has_ffmpeg() -> bool:
    """ffmpeg present on PATH? Cached per process (one which() call)."""
    global _FFMPEG
    if _FFMPEG is None:
        import shutil

        _FFMPEG = shutil.which("ffmpeg") is not None
    return _FFMPEG


_FFMPEG: bool | None = None


def decode_frames_ffmpeg(
    payload: bytes, frame_idxs: list[int]
) -> list[np.ndarray]:
    """Decode ALL requested frames in ONE ffmpeg subprocess (rawvideo/
    rgb24 to stdout, one select expression) — per-frame invocations would
    re-write the payload and re-decode the stream from frame 0 each call,
    making a sampled grid quadratic in stream length. Container geometry
    still comes from the AVI headers (codec-independent), so the output
    contract is identical to ``decode_avi_frame``: uint8 (h, w, 3) RGB
    per index, in ``frame_idxs`` order."""
    import subprocess
    import tempfile

    n, w, h, _fps = parse_avi_header(payload)
    if not frame_idxs:
        return []
    if not all(0 <= fi < n for fi in frame_idxs):
        raise ValueError("frame index out of range")
    # ffmpeg's select filter emits frames in stream order regardless of
    # the expression's term order; decode sorted-unique then reorder
    uniq = sorted(set(frame_idxs))
    expr = "+".join(f"eq(n\\,{fi})" for fi in uniq)
    with tempfile.NamedTemporaryFile(suffix=".avi") as f:
        f.write(payload)
        f.flush()
        proc = subprocess.run(
            [
                "ffmpeg", "-loglevel", "error", "-i", f.name,
                "-map", "0:v:0", "-vf", f"select={expr}",
                "-vsync", "0", "-frames:v", str(len(uniq)),
                "-f", "rawvideo", "-pix_fmt", "rgb24", "pipe:1",
            ],
            capture_output=True,
        )
    want = w * h * 3 * len(uniq)
    if proc.returncode != 0 or len(proc.stdout) != want:
        raise ValueError(
            f"ffmpeg decode failed (rc={proc.returncode}, "
            f"got {len(proc.stdout)} of {want} bytes): "
            f"{proc.stderr.decode(errors='replace')[:200]}"
        )
    mat = np.frombuffer(proc.stdout, dtype=np.uint8).reshape(
        len(uniq), h, w, 3
    )
    by_idx = {fi: mat[i] for i, fi in enumerate(uniq)}
    return [by_idx[fi].copy() for fi in frame_idxs]


def decode_video_frames(
    payload: bytes, frame_idxs: list[int]
) -> list[np.ndarray]:
    """THE frame-decode seam, batched per payload: BI_RGB and MJPG
    streams decode in pure Python (random access via the container
    walk, no cross-frame state — MJPEG frames are independent baseline
    JPEGs, handled by ``functions/jpeg.py``; preferred over ffmpeg even
    when present because the in-repo decode is deterministic and
    subprocess-free). Other compressed codecs route to ONE ffmpeg
    subprocess for the whole sampled grid when present, else raise
    ``UnsupportedCodec`` with the fix spelled out. One signature for
    every codec, so pipeline stages never branch on the payload."""
    comp = avi_compression(payload)
    if comp == 0:
        _n, w, h, _fps = parse_avi_header(payload)
        return [
            _decode_dib(payload, off, size, w, h)
            for off, size in _frame_chunks(payload, frame_idxs)
        ]
    if comp == MJPG_FOURCC:
        from datacat_ray.functions.jpeg import decode_jpeg

        # container errors (bad frame index, missing chunk) are the
        # caller's and propagate; only a JPEG the baseline decoder rejects
        # falls back to ffmpeg
        chunks = _frame_chunks(payload, frame_idxs)
        try:
            return [decode_jpeg(payload[off : off + size])
                    for off, size in chunks]
        except ValueError:
            # an MJPEG feature outside the baseline subset (progressive
            # scan, sampling >2x2): keep the pre-MJPG behavior — the
            # ffmpeg seam still decodes it when available
            if has_ffmpeg():
                return decode_frames_ffmpeg(payload, frame_idxs)
            raise
    if has_ffmpeg():
        return decode_frames_ffmpeg(payload, frame_idxs)
    fourcc = struct.pack("<I", comp)
    raise UnsupportedCodec(
        f"AVI video stream is compressed (biCompression={fourcc!r}); the "
        "pure-Python decoders cover BI_RGB and MJPG — install ffmpeg to "
        "enable the subprocess decode path (decode_frames_ffmpeg) for "
        "other codecs"
    )


def decode_video_frame(payload: bytes, frame_idx: int) -> np.ndarray:
    """Single-frame convenience wrapper over ``decode_video_frames``."""
    return decode_video_frames(payload, [frame_idx])[0]
