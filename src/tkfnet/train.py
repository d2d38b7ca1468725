"""Loss, momentum optimization, the epoch loop and evaluation metrics."""

import time
from dataclasses import dataclass

import numpy as np

from .data import preprocess
from .tensor import ShapeError, Tape, Tensor, softmax_cross_entropy

# Samples per evaluation forward, so evaluation needs no more memory than a
# batch-8 training step. Under OpenBLAS 0.3.31's SkylakeX and SandyBridge
# kernels a row's logits have the same bits in any batch of 8 or more; in a
# smaller one, such as a trailing batch, they may not. Under its Haswell and
# Prescott kernels they may differ between batches of 8 or more too.
EVAL_BATCH = 8


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


def train_epoch(model, dataset, optimizer, batch_size, seed, epoch, input_size=None):
    """One pass over the dataset; returns the sample-weighted mean loss.

    The visiting order is a permutation drawn deterministically from
    (seed, epoch). A trailing partial batch is kept.
    """
    n = len(dataset.samples)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    order = np.random.default_rng([seed, epoch]).permutation(n)
    total = 0.0
    for start in range(0, n, batch_size):
        batch = [dataset.samples[i] for i in order[start : start + batch_size]]
        x, y = _batch_arrays(batch, input_size)
        with Tape() as tape:
            loss = compute_loss(model(x), y)
            tape.backward(loss)
        optimizer.step()
        total += loss.item() * len(batch)
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
