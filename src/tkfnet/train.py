"""Loss, momentum optimization, the epoch loop and evaluation metrics.

A training batch is stepped as two shards at once when each shard holds a
tape of ``_TAPE_SAMPLES`` samples and such a tape holds at least
``_SHARD_FLOOR`` input elements: shard 0, the first ceil(n / 2)
samples, on the model in the calling thread, and shard 1, the rest, on a
replica in one helper thread. The replica's parameters share the model's
arrays and keep their own gradients. Each shard records one tape per
``_TAPE_SAMPLES`` of its samples (one per sample when they do not divide it)
and runs each tape's backward, so its gradients add up over its tapes. Then
each tape's gradient is weighted by its samples' share of the batch and the
two shards are summed in shard order, as are their losses. While the shards
run, numpy's OpenBLAS runs one thread, and then gets its previous thread
count back. Where numpy's BLAS exports no thread setter, no batch is
sharded. The shard count is fixed, never the CPU count, so a run's bits do
not depend on the machine it runs on.
"""

import contextlib
import contextvars
import ctypes
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import preprocess
from .model import TKFNet
from .tensor import ShapeError, Tape, Tensor, softmax_cross_entropy

# Samples per evaluation forward, so evaluation needs no more memory than a
# batch-8 training step. Under OpenBLAS 0.3.31's SkylakeX and SandyBridge
# kernels a row's logits have the same bits in any batch of 8 or more; in a
# smaller one, such as a trailing batch, they may not. Under its Haswell and
# Prescott kernels they may differ between batches of 8 or more too.
EVAL_BATCH = 8
# Least input elements in a tape of _TAPE_SAMPLES samples for a batch to
# shard. The two shards take turns at each tape's Python work, so a batch of
# small tapes loses. Measured on a 2-CPU box, median taped step in one
# process, unsharded against sharded, batch 8 unless given, by input
# elements per tape: small@32 (6,144) batch 32 11 -> 55 ms, batch 256 66 ->
# 722 ms; base@96 (55,296) 86 -> 116 ms; base@128 (98,304) 151 -> 159 ms;
# base@160 (153,600) 204 -> 192 ms; base@224 (301,056) 470 -> 357 ms, batch
# 4 207 -> 188 ms, while batch 2, a tape of 1 per shard, loses 125 -> 134 ms.
# So the floor lies between base@128's loss and base@160's gain. The input
# size does not see the model's width: small@224 (301,056) loses too, 66 ->
# 79 ms.
_SHARD_FLOOR = 1 << 17
# Samples per tape within a shard. A base@224 batch-8 step, the variants
# interleaved in one process: unsharded 400 ms; tapes of 4, 2 and 1 samples
# 256, 252 and 327 ms (one sample per tape leaves the step bound by its
# Python work, which the two threads take turns at). Tapes of 2 hold less at
# once: the step's two shards peak at 37 MiB of arrays, against 54 MiB with
# tapes of 4 and 46 MiB unsharded.
_TAPE_SAMPLES = 2
# 1 MiB blocks that the helper thread allocates and frees after its last
# shard of an epoch, more than one 64 MiB malloc heap holds; see
# _release_shard_memory.
_RELEASE_BLOCKS = 70


def _blas_thread_functions():
    """(get, set) of the thread count of the OpenBLAS that numpy calls, or
    None. They are looked up through numpy's own extension module, whose
    symbol search covers the libraries it links, so an OpenBLAS that another
    package loaded is never found instead."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


_BLAS_THREADS = _blas_thread_functions()


def _glibc():
    """glibc, with the signatures of the functions used here, or None on
    another C library."""
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.malloc_trim.argtypes, libc.malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
    except (OSError, AttributeError):
        return None
    libc.malloc.argtypes, libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
    libc.free.argtypes, libc.free.restype = [ctypes.c_void_p], None
    return libc


_GLIBC = _glibc()


def _release_shard_memory():
    """Hand the heap memory that an epoch's shards freed back to the system.
    Runs in the helper thread, on glibc.

    Shard-sized blocks are a quarter of an evaluation batch's, so the
    evaluation that follows training cannot reuse them, and kept resident
    they add to its peak. glibc gives each thread after the first its own
    arena, of heaps of at most 64 MiB. ``malloc_trim`` returns the pages of
    every arena's free chunks but, of the arenas' free tops, only the main
    one's; a free trims a thread arena's top only once the top reaches the
    trim threshold, which can grow to 64 MiB, a whole heap. So
    ``_RELEASE_BLOCKS`` blocks of 1 MiB, more than one heap holds, take this
    thread's top and spill into a new heap. All but the last are freed, so
    they lie binned below it, where ``malloc_trim`` returns their pages, and
    freeing the last unmaps the spilled heap. The blocks come from the arena
    when its mmap threshold is above 1 MiB, as it is once a shard has freed
    a mapped array of several MiB. Only the blocks' headers are written.

    In the train-base224 benchmark, every 64 MiB thread-arena heap held
    2 MiB resident after this, both at the mmap threshold that the run had
    reached and with the threshold forced to its 32 MiB cap.
    """
    blocks = [_GLIBC.malloc(1 << 20) for _ in range(_RELEASE_BLOCKS)]
    for block in blocks[:-1]:
        _GLIBC.free(block)
    _GLIBC.malloc_trim(0)
    _GLIBC.free(blocks[-1])


@contextlib.contextmanager
def _one_blas_thread():
    """Run OpenBLAS single-threaded inside the block, then restore its count."""
    get, set_ = _BLAS_THREADS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def compute_loss(logits, labels):
    """Mean softmax cross-entropy; see ``tensor.softmax_cross_entropy``."""
    return softmax_cross_entropy(logits, labels)


@dataclass(frozen=True)
class LrSchedule:
    """Polynomial decay from lr_init to lr_end over total_steps."""

    lr_init: float
    lr_end: float
    total_steps: int
    power: float = 0.5

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be positive, got {self.total_steps}")
        if self.power <= 0:
            raise ValueError(f"power must be positive, got {self.power}")

    def at(self, step):
        """Learning rate before taking step ``step`` (0-based)."""
        if step <= 0:
            return self.lr_init
        if step >= self.total_steps:
            return self.lr_end
        frac = 1.0 - step / self.total_steps
        return self.lr_end + (self.lr_init - self.lr_end) * frac**self.power


class MomentumOptimizer:
    """Velocity-accumulating gradient descent.

    Each step does v = momentum * v + grad, p = p - lr(t) * v, clears every
    gradient buffer and advances the step counter.
    """

    def __init__(self, params, schedule, momentum=0.9):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.params = list(params)
        self.schedule = schedule
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    @property
    def lr(self):
        return self.schedule.at(self.step_count)

    def step(self):
        for p in self.params:
            if p.grad is None:
                raise RuntimeError(
                    f"parameter {getattr(p, 'name', '<unnamed>')} has no gradient; "
                    f"run a backward pass before stepping"
                )
        lr = self.schedule.at(self.step_count)
        for p, v in zip(self.params, self.velocity):
            v *= self.momentum
            v += p.grad
            p.data -= lr * v
            p.grad = None
        self.step_count += 1


def _batch_arrays(samples, input_size):
    """Images and labels; each image goes into the batch array as it is made."""
    x = None
    for i, sample in enumerate(samples):
        image = preprocess(sample, target=input_size).data
        if x is None:
            x = np.empty((len(samples),) + image.shape[1:], dtype=image.dtype)
        if image.shape != (1,) + x.shape[1:]:
            raise ShapeError(f"sample {i} preprocesses to {image.shape}, not {(1,) + x.shape[1:]}")
        x[i] = image[0]
    y = np.array([s.label for s in samples], dtype=np.int64)
    return Tensor(x), y


def _taped_step(model, x, y):
    """Record one tape of ``model``'s loss on (x, y) and replay it; returns the loss."""
    with Tape() as tape:
        loss = compute_loss(model(x), y)
        tape.backward(loss)
    return loss.item()


def _shards(x):
    """Whether the batch ``x`` is stepped as two shards; see the module docstring."""
    return (_BLAS_THREADS is not None and len(x.data) >= 2 * _TAPE_SAMPLES
            and _TAPE_SAMPLES * x.data[0].size >= _SHARD_FLOOR)


def _replica(model):
    """A TKFNet whose parameters share ``model``'s arrays and own their gradients."""
    params = model.parameters()
    return TKFNet(model.config, dtype=params[0].dtype, state={p.name: p.data for p in params})


def _shard_step(model, x, y):
    """Step the shard (x, y) on ``model``, ``_TAPE_SAMPLES`` samples per tape
    when they divide it and one otherwise; returns (samples per tape, the
    sum of the tape losses)."""
    n = len(y)
    k = _TAPE_SAMPLES if n % _TAPE_SAMPLES == 0 else 1
    loss = 0.0
    for a in range(0, n, k):
        loss += _taped_step(model, Tensor(x.data[a : a + k]), y[a : a + k])
    return k, loss


def _sharded_step(model, replica, pool, x, y):
    """Step (x, y) as two shards, shard 1 on ``replica`` in ``pool``'s thread;
    leaves the weighted sum of the shard gradients in ``model``'s parameters
    and returns the weighted sum of the shard losses.

    Shard 1 runs in a copy of the caller's context, so numpy's error state
    holds there too. A shard's exception is raised once both have ended,
    shard 0's first.
    """
    n = len(y)
    n0 = -(-n // 2)
    with _one_blas_thread():
        shard1 = pool.submit(contextvars.copy_context().run, _shard_step,
                             replica, Tensor(x.data[n0:]), y[n0:])
        try:
            k0, loss0 = _shard_step(model, Tensor(x.data[:n0]), y[:n0])
        finally:
            shard1.exception()
        k1, loss1 = shard1.result()
    # A tape's gradient and loss are means over its k samples: weight k / n.
    w0, w1 = k0 / n, k1 / n
    for p, r in zip(model.parameters(), replica.parameters()):
        p.grad *= w0
        r.grad *= w1
        p.grad += r.grad
        # -0 + 0 is +0: a gradient never holds -0, as in tensor._accum.
        p.grad += 0.0
        r.grad = None
    return w0 * loss0 + w1 * loss1


def train_epoch(model, dataset, optimizer, batch_size, seed, epoch, input_size=None):
    """One pass over the dataset; returns the sample-weighted mean loss.

    The visiting order is a permutation drawn deterministically from
    (seed, epoch). A trailing partial batch is kept. A batch above the
    shard floor is stepped as two shards; see the module docstring.
    """
    n = len(dataset.samples)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    order = np.random.default_rng([seed, epoch]).permutation(n)
    total = 0.0
    replica = None
    with ThreadPoolExecutor(1) as pool:
        for start in range(0, n, batch_size):
            batch = [dataset.samples[i] for i in order[start : start + batch_size]]
            x, y = _batch_arrays(batch, input_size)
            if _shards(x):
                if replica is None:
                    replica = _replica(model)
                loss = _sharded_step(model, replica, pool, x, y)
            else:
                loss = _taped_step(model, x, y)
            optimizer.step()
            total += loss * len(batch)
        if replica is not None and _GLIBC is not None:
            pool.submit(_release_shard_memory).result()
    return total / n


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    lr: float
    seconds: float


def fit(model, dataset, optimizer, *, epochs, batch_size, seed, input_size=None, progress=None):
    """Run ``epochs`` training epochs; returns one record per epoch.

    The recorded lr is the rate in effect at the epoch's first step.
    """
    records = []
    for epoch in range(epochs):
        lr_start = optimizer.lr
        t0 = time.perf_counter()
        mean_loss = train_epoch(
            model, dataset, optimizer, batch_size, seed, epoch, input_size=input_size
        )
        record = EpochRecord(epoch, mean_loss, lr_start, time.perf_counter() - t0)
        records.append(record)
        if progress is not None:
            progress(record)
    return records


@dataclass
class Metrics:
    """Aggregate evaluation results; confusion rows are true classes."""

    accuracy: float
    confusion: np.ndarray
    per_class_recall: np.ndarray


def predictions(logits):
    """Argmax class per row; ties resolve to the lowest class index."""
    n = logits.shape[0]
    return np.argmax(logits.data.reshape(n, -1), axis=1)


def evaluate(model, dataset, *, input_size=None):
    """Forward the dataset untaped, EVAL_BATCH at a time; tally a confusion matrix."""
    n = len(dataset.samples)
    if n == 0:
        raise ValueError("cannot evaluate an empty dataset")
    q = len(dataset.class_names)
    confusion = np.zeros((q, q), dtype=np.int64)
    for start in range(0, n, EVAL_BATCH):
        batch = dataset.samples[start : start + EVAL_BATCH]
        x, y = _batch_arrays(batch, input_size)
        logits = model(x)
        if logits.shape[3] != q:
            raise ShapeError(
                f"model emits {logits.shape[3]} classes but the dataset has {q}"
            )
        np.add.at(confusion, (y, predictions(logits)), 1)
    total = int(confusion.sum())
    diag = np.diag(confusion).astype(np.float64)
    row_sums = confusion.sum(axis=1)
    recall = np.divide(diag, row_sums, out=np.zeros(q), where=row_sums > 0)
    return Metrics(float(np.trace(confusion)) / total, confusion, recall)
