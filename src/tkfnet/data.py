"""Dataset ingestion, preprocessing and the synthetic grating corpus.

Image folders follow root/<class_name>/<file>, one subdirectory per class,
with classes and files ordered lexicographically. Supported formats are
binary PPM (P6, maxval 255) and the single-record raw tensor container
(.rt32). Decoded pixels live in [0, 1].
"""

import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import Tensor
from .weights import WeightsFormatError, read_tensor

logger = logging.getLogger(__name__)

SUPPORTED_EXTENSIONS = (".ppm", ".rt32")
_WHITESPACE = b" \t\n\r\x0b\x0c"


class DataError(ValueError):
    """An unreadable or malformed dataset file."""


@dataclass
class Sample:
    image: Tensor
    label: int
    source_path: str | None = None


@dataclass
class Dataset:
    samples: list
    class_names: list
    skipped: int = 0

    def __len__(self):
        return len(self.samples)

    def labels(self):
        return np.array([s.label for s in self.samples], dtype=np.int64)


def _next_token(data, pos):
    while pos < len(data):
        ch = data[pos]
        if ch in _WHITESPACE:
            pos += 1
        elif ch == ord("#"):
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        else:
            break
    if pos >= len(data):
        raise DataError(f"truncated header at byte {pos}")
    start = pos
    while pos < len(data) and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    return data[start:pos], start, pos


def _header_int(data, pos, what):
    token, start, end = _next_token(data, pos)
    if not token.isdigit():
        raise DataError(f"malformed {what} {token!r} at byte {start}")
    return int(token), end


def decode_ppm(data):
    """Decode binary P6 bytes into a (1, h, w, 3) tensor scaled to [0, 1].

    Only maxval 255 is accepted. Malformed input raises ``DataError`` naming
    the byte offset of the problem.
    """
    magic, start, pos = _next_token(data, 0)
    if magic != b"P6" or start != 0:
        raise DataError(f"bad magic {magic!r} at byte {start}; expected P6")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise DataError(f"invalid dimensions {width}x{height} at byte {pos}")
    if maxval != 255:
        raise DataError(f"unsupported maxval {maxval} at byte {pos}; only 255 is handled")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise DataError(f"missing whitespace before pixel payload at byte {pos}")
    payload = pos + 1
    need = width * height * 3
    if len(data) - payload < need:
        raise DataError(
            f"truncated pixel payload at byte {len(data)}: need {need} bytes, "
            f"have {len(data) - payload}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=payload)
    arr = pixels.reshape(height, width, 3).astype(np.float32) / 255.0
    return Tensor(arr.reshape(1, height, width, 3))


def encode_ppm(image):
    """Encode a (1, h, w, 3) tensor in [0, 1] as binary P6 bytes."""
    arr = image.data if isinstance(image, Tensor) else np.asarray(image)
    if arr.ndim != 4 or arr.shape[0] != 1 or arr.shape[3] != 3:
        raise ValueError(f"expected a (1, h, w, 3) image, got shape {arr.shape}")
    quantized = np.clip(np.rint(arr[0] * 255.0), 0, 255).astype(np.uint8)
    h, w = quantized.shape[:2]
    return b"P6\n%d %d\n255\n" % (w, h) + quantized.tobytes()


def load_image(path):
    """Load one .ppm or .rt32 file as a (1, h, w, 3) tensor in [0, 1]."""
    path = Path(path)
    ext = path.suffix.lower()
    if ext not in SUPPORTED_EXTENSIONS:
        raise DataError(f"{path}: unsupported extension {ext!r}; expected .ppm or .rt32")
    try:
        if ext == ".ppm":
            return decode_ppm(path.read_bytes())
        arr = read_tensor(path)
    except (DataError, WeightsFormatError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if arr.ndim != 4 or arr.shape[0] != 1 or arr.shape[3] != 3:
        raise DataError(f"{path}: raw tensor must be (1, h, w, 3), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: raw tensor holds a non-finite value")
    if arr.min() < -1e-6 or arr.max() > 1.0 + 1e-6:
        raise DataError(
            f"{path}: raw tensor values must lie in [0, 1], got "
            f"[{arr.min():.6g}, {arr.max():.6g}]"
        )
    return Tensor(np.clip(arr, 0.0, 1.0))


def _worker_count():
    raw = os.environ.get("TKF_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def load_image_folder(root):
    """Load a class-per-subdirectory image tree into a ``Dataset``.

    Classes and files are ordered lexicographically, so reloading the same
    tree reproduces the same sample order. Files with unsupported extensions
    are skipped and counted; unreadable supported files raise ``DataError``
    naming the path. Decoding honours the TKF_THREADS worker cap.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    class_dirs = sorted((d for d in root.iterdir() if d.is_dir()), key=lambda d: d.name)
    if not class_dirs:
        raise DataError(f"no class subdirectories under {root}")
    jobs = []
    skipped = 0
    for label, class_dir in enumerate(class_dirs):
        for path in sorted((p for p in class_dir.iterdir() if p.is_file()), key=lambda p: p.name):
            if path.suffix.lower() in SUPPORTED_EXTENSIONS:
                jobs.append((path, label))
            else:
                skipped += 1
    workers = _worker_count()
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            images = list(pool.map(load_image, (path for path, _ in jobs)))
    else:
        images = [load_image(path) for path, _ in jobs]
    samples = [
        Sample(image, label, str(path)) for (path, label), image in zip(jobs, images)
    ]
    if skipped:
        logger.warning("skipped %d files with unsupported extensions under %s", skipped, root)
    return Dataset(samples, [d.name for d in class_dirs], skipped)


def _axis_coords(src, dst, dtype):
    if dst == 1:
        idx = np.zeros(1, dtype=np.intp)
        return idx, idx, np.zeros(1, dtype=dtype)
    positions = np.arange(dst) * ((src - 1) / (dst - 1))
    lo = np.minimum(np.floor(positions).astype(np.intp), src - 1)
    hi = np.minimum(lo + 1, src - 1)
    frac = (positions - lo).astype(dtype)
    return lo, hi, frac


def _lerp(arr, lo, hi, frac, axis):
    """(1 - frac) * arr[lo] + frac * arr[hi] along ``axis``, blended in place
    in the two gathered copies."""
    frac = frac.reshape([-1 if a == axis else 1 for a in range(arr.ndim)])
    out = np.take(arr, lo, axis=axis)
    upper = np.take(arr, hi, axis=axis)
    out *= 1 - frac
    upper *= frac
    out += upper
    return out


def _resize_bilinear(arr, th, tw):
    n, h, w, c = arr.shape
    r0, r1, fr = _axis_coords(h, th, arr.dtype)
    c0, c1, fc = _axis_coords(w, tw, arr.dtype)
    # Separable: blend columns once per source row, then gather and blend
    # rows. Every output element gets the same float operations, in the same
    # order, as blending the four gathered corners.
    return _lerp(_lerp(arr, c0, c1, fc, axis=2), r0, r1, fr, axis=1)


def preprocess(sample, target=None, normalize=True):
    """Resize with align-corners bilinear sampling and map [0, 1] to [-1, 1].

    ``sample`` may be a ``Sample`` or a raw (n, h, w, c) tensor. ``target``
    is a (height, width) pair or None to keep the source extent; resizing to
    the source extent is an identity.
    """
    image = sample.image if isinstance(sample, Sample) else sample
    n, h, w, c = image.shape
    if h < 1 or w < 1:
        raise ValueError(f"source image must have positive extent, got {image.shape}")
    data = image.data
    if target is not None:
        th, tw = target
        if th < 1 or tw < 1:
            raise ValueError(f"resize target must be positive, got {target}")
        if (th, tw) != (h, w):
            data = _resize_bilinear(data, th, tw)
    if normalize:
        # A resized array is this call's own and is normalized in place; the
        # caller's ``image.data`` never is.
        data = data - 0.5 if data is image.data else np.subtract(data, 0.5, out=data)
        data /= 0.5
    return Tensor(data)


# Seven orientation families cover the label space; angles are k * pi / 7.
MAX_SYNTH_CLASSES = 7
# Grating cycles per pixel, mean amplitude and its relative jitter.
SYNTH_FREQUENCY = 0.125
SYNTH_AMPLITUDE = 0.35
SYNTH_JITTER = 0.1


def synth_dataset(classes=7, per_class=20, size=(32, 32), seed=0, noise_sigma=0.05):
    """Procedural corpus of oriented sinusoidal gratings.

    Each class has a fixed orientation; every sample draws a random phase,
    a jittered amplitude and additive Gaussian noise, then clamps to [0, 1].
    Identical seeds reproduce identical pixels.
    """
    if not 1 <= classes <= MAX_SYNTH_CLASSES:
        raise ValueError(f"classes must be in 1..{MAX_SYNTH_CLASSES}, got {classes}")
    if per_class < 1:
        raise ValueError(f"per_class must be positive, got {per_class}")
    h, w = size
    if h < 1 or w < 1:
        raise ValueError(f"size must be positive, got {size}")
    rng = np.random.default_rng(seed)
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    samples = []
    for label in range(classes):
        angle = math.pi * label / MAX_SYNTH_CLASSES
        axis = xs * math.cos(angle) + ys * math.sin(angle)
        for _ in range(per_class):
            phase = rng.uniform(0.0, 2.0 * math.pi)
            amp = SYNTH_AMPLITUDE * (1.0 + rng.uniform(-SYNTH_JITTER, SYNTH_JITTER))
            img = 0.5 + amp * np.sin(2.0 * math.pi * SYNTH_FREQUENCY * axis + phase)
            if noise_sigma > 0:
                img = img + rng.normal(0.0, noise_sigma, size=(h, w))
            img = np.clip(img, 0.0, 1.0).astype(np.float32)
            data = np.repeat(img[None, :, :, None], 3, axis=3)
            samples.append(Sample(Tensor(data), label))
    names = [f"grating_{k}" for k in range(classes)]
    return Dataset(samples, names)


def split_dataset(dataset, fraction, seed=0):
    """Deterministically split off ``fraction`` of the samples as a holdout.

    Returns (train, held) datasets sharing the class-name list.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(dataset.samples)
    held_count = max(1, int(round(n * fraction)))
    if held_count >= n:
        raise ValueError(f"split of {fraction} leaves no training samples from {n}")
    order = np.random.default_rng(seed).permutation(n)
    held_idx = set(int(i) for i in order[:held_count])
    train = [s for i, s in enumerate(dataset.samples) if i not in held_idx]
    held = [s for i, s in enumerate(dataset.samples) if i in held_idx]
    return (
        Dataset(train, list(dataset.class_names)),
        Dataset(held, list(dataset.class_names)),
    )
