"""Single-layer LSTM next-step predictor.

One cell step consumes the whole lag window as a multi-feature input
vector from the zero state, so backpropagation is depth 1 per sample and
the batch gradient is exact.  From the zero state the recurrent weights
and the forget gate of the Hochreiter & Schmidhuber / Gers et al. cell
never reach an output, so the model holds only the input, output and
candidate gates (see ``kernels``).  Training is full-batch gradient
descent; 64-bit floats throughout.

``LstmParams`` holds the three gates in one (3 hidden, k) weight matrix
``W`` and one (3 hidden,) bias ``b``, row blocks in the order ``i, o,
g``; it has no per-gate views.  Every prediction, one window or a batch,
takes one product over ``W`` per window and the gate sequence of
``kernels._hidden``, so batch and online predictions are equal bit for
bit (see ``kernels``).  Training instead updates one augmented matrix
``[W | b]`` of shape (3 hidden, k + 1), with ``w_y`` and ``b_y``, and
builds its result from it when it ends.  Per-gate blocks exist only in
the model file (``_FILE_FIELDS``): its writer slices ``W`` and ``b`` into
them and its reader stacks them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DivergenceError
from .kernels import (_cpus, _GradWork, _hidden, loss_and_grads_numpy,
                      predict_batch_numpy)
from .pipeline import LAGS, WindowSet, _integer, _utf8_errors

MODEL_MAGIC = "lstm-model v2"

#: Block order of each readable model file version.  The gate blocks
#: ``W_i b_i W_o b_o W_g b_g`` exist only in the file: they are the row
#: blocks ``i, o, g`` of ``W`` and ``b``.  A v1 file also holds the
#: recurrent matrices and the forget gate of the four-gate cell; they are
#: read, checked and dropped.
_FILE_FIELDS = {
    "lstm-model v1": ("W_i", "U_i", "b_i", "W_f", "U_f", "b_f",
                      "W_o", "U_o", "b_o", "W_g", "U_g", "b_g", "w_y"),
    MODEL_MAGIC: ("W_i", "b_i", "W_o", "b_o", "W_g", "b_g", "w_y"),
}


class LstmParams:
    """Gate and projection weights; also the gradient container (same
    shapes, field for field).

    ``W`` is the C-contiguous (3 hidden, input_dim) gate matrix and ``b``
    the (3 hidden,) gate bias, row blocks ordered ``i, o, g``; ``w_y``
    (hidden,) and the scalar ``b_y`` are the output projection.
    ``input_dim`` and ``hidden_dim`` follow from the shapes.  The
    constructor copies every array it is given, so instances never share
    storage, and raises ``ValueError`` when the shapes do not fit one gate
    matrix.
    """

    def __init__(self, W, b, w_y, b_y: float):
        self.W = np.array(W, dtype=np.float64, order="C")
        self.b = np.array(b, dtype=np.float64)
        self.w_y = np.array(w_y, dtype=np.float64)
        self.b_y = b_y
        if self.W.ndim != 2 or self.w_y.ndim != 1 \
                or self.W.shape[0] != 3 * len(self.w_y) \
                or self.b.shape != (self.W.shape[0],):
            raise ValueError(
                f"W {self.W.shape}, b {self.b.shape} and w_y "
                f"{self.w_y.shape} do not fit one (3 hidden, k) gate matrix")
        self.hidden_dim, self.input_dim = len(self.w_y), self.W.shape[1]

    def arrays(self) -> tuple[np.ndarray, ...]:
        """``(W, b, w_y)``."""
        return self.W, self.b, self.w_y


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 1500
    hidden_dim: int = 23
    lag: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(
                f"learning_rate must be finite and positive, "
                f"got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lag not in LAGS:
            raise ValueError("lag must be 1, 2 or 3")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        self.rng_seed = _integer("rng_seed", self.rng_seed, 0)


@dataclass
class TrainReport:
    epoch_losses: np.ndarray
    wall_seconds: float


#: Half-width of the uniform init for the output projection.  The head
#: must map the tanh-bounded hidden vector onto the full normalized target
#: range; at the 1/sqrt(hidden) scale of the gate matrices it starts an
#: order of magnitude too small for plain gradient descent to grow within
#: the default epoch budget.
OUTPUT_INIT_RANGE = 2.0


def init_params(input_dim: int, hidden_dim: int, rng_seed: int) -> LstmParams:
    """Seeded initialization: gate weights uniform in [-r, r] with
    r = 1/sqrt(hidden_dim), output projection uniform in
    [-OUTPUT_INIT_RANGE, OUTPUT_INIT_RANGE]; biases 0.

    The draws are those of ``numpy.random.default_rng(rng_seed).uniform``
    in row-major order, made by ``_pcg64`` without loading
    ``numpy.random``.  ``rng_seed`` must be a non-negative integer;
    anything else raises ``ValueError``."""
    if input_dim not in LAGS:
        raise ValueError("input_dim must be 1, 2 or 3")
    if hidden_dim < 1:
        raise ValueError("hidden_dim must be >= 1")
    from ._pcg64 import Pcg64
    rng = Pcg64(rng_seed)
    r = 1.0 / math.sqrt(hidden_dim)
    h, k = hidden_dim, input_dim
    # The four-gate cell drew an input and a recurrent block per gate, in
    # the order i, f, o, g, one 64-bit draw per weight.  Skipping the draws
    # of the blocks it no longer has keeps the weights each seed gave it.
    gates = []
    for gate in "ifog":
        if gate == "f":
            rng.advance(h * k)
        else:
            gates += rng.uniform(-r, r, h * k)
        rng.advance(h * h)
    return LstmParams(
        np.reshape(gates, (3 * h, k)), np.zeros(3 * h),
        rng.uniform(-OUTPUT_INIT_RANGE, OUTPUT_INIT_RANGE, h), 0.0)


def predict_window(params: LstmParams, window: np.ndarray) -> float:
    """Next-value prediction from one lag window (oldest value first),
    computed in a single cell step from the zero state.  Pure: never
    mutates its arguments.

    One gemv ``W @ x``, the in-place gate ufuncs of ``kernels._hidden``
    and one dot ``w_y @ h``: the calls ``predict_windows`` makes for every
    window of a batch, so online and batch predictions agree bit for bit
    (see ``kernels``).
    """
    x = np.asarray(window, dtype=np.float64)
    if x.shape != (params.input_dim,):
        raise ValueError(
            f"window has shape {x.shape}, expected ({params.input_dim},)")
    z = np.dot(params.W, x)
    np.add(z, params.b, z)
    return float(np.dot(params.w_y, _hidden(z, params.hidden_dim))
                 + params.b_y)


def predict_windows(params: LstmParams, inputs: np.ndarray) -> np.ndarray:
    """``predict_window`` of every row of an (n, input_dim) batch, bit for
    bit."""
    inputs = np.ascontiguousarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.input_dim:
        raise ValueError("inputs must have shape (n, input_dim)")
    return predict_batch_numpy(inputs, params.W, params.b, params.w_y,
                               params.b_y)


def _check_windows(params: LstmParams, windows: WindowSet) -> None:
    if len(windows) == 0:
        raise ValueError("window set is empty")
    if windows.inputs.shape[1] != params.input_dim:
        raise ValueError(
            f"windows built with lag {windows.inputs.shape[1]}, "
            f"model expects {params.input_dim}")


def _augmented(params: LstmParams) -> np.ndarray:
    """A fresh (3 hidden, input_dim + 1) gate matrix ``[W | b]``."""
    return np.concatenate((params.W, params.b[:, None]), axis=1)


def bptt_gradients(params: LstmParams,
                   windows: WindowSet) -> tuple[LstmParams, float]:
    """Exact gradients of the mean squared error over a window set.

    Returns (gradients, loss); the gradient container mirrors LstmParams.
    """
    _check_windows(params, windows)
    work = _GradWork(windows.inputs, windows.targets, params.hidden_dim)
    loss, _, dWb, dw_y, db_y = loss_and_grads_numpy(
        _augmented(params), params.w_y, params.b_y, work)
    return LstmParams(dWb[:, :-1], dWb[:, -1], dw_y, float(db_y)), float(loss)


def train(config: TrainConfig,
          windows: WindowSet) -> tuple[LstmParams, TrainReport]:
    """Full-batch gradient descent for the configured number of epochs.

    Deterministic for a fixed seed.  Each epoch records the loss at the
    parameters before that epoch's update.  Non-finite parameters abort
    with a DivergenceError naming the epoch, and numpy warns of no overflow.
    The inputs are laid out for the kernel once, in a ``_GradWork`` that
    serves every epoch, and the kernel runs on the augmented gate matrix
    ``[W | b]``, from which the returned parameters are built.  Its chunks
    run on one thread per CPU, at most two and one per chunk, with the same
    bits at any count; the threads end before ``train`` returns or raises.
    """
    if windows.lag != config.lag:
        raise ValueError(
            f"window set lag {windows.lag} != config lag {config.lag}")
    if len(windows) == 0:
        raise ValueError("window set is empty")
    init = init_params(config.lag, config.hidden_dim, config.rng_seed)
    work = _GradWork(windows.inputs, windows.targets, config.hidden_dim,
                     _cpus())
    Wb, w_y, b_y = _augmented(init), init.w_y, init.b_y
    lr = config.learning_rate
    losses = np.empty(config.epochs)

    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"), work.threads():
        for epoch in range(config.epochs):
            losses[epoch], _, dWb, dw_y, db_y = loss_and_grads_numpy(
                Wb, w_y, b_y, work)
            Wb -= lr * dWb
            w_y -= lr * dw_y
            b_y -= lr * db_y
            if not (np.isfinite(Wb).all() and np.isfinite(w_y).all()
                    and np.isfinite(b_y) and np.isfinite(losses[epoch])):
                raise DivergenceError(epoch + 1)
    wall = time.perf_counter() - start
    return (LstmParams(Wb[:, :-1], Wb[:, -1], w_y, b_y),
            TrainReport(epoch_losses=losses, wall_seconds=wall))


def _format(v: float) -> str:
    return f"{v:.17g}"


def save_model(path, params: LstmParams) -> None:
    """Write the line-oriented model file (round-trip exact floats), the
    gates as per-gate row blocks of ``W`` and ``b``."""
    lines = [MODEL_MAGIC,
             f"input_dim={params.input_dim} hidden_dim={params.hidden_dim}"]
    h = params.hidden_dim
    blocks = {"w_y": params.w_y[None]}
    for j, gate in enumerate("iog"):
        blocks[f"W_{gate}"] = params.W[j * h:(j + 1) * h]
        blocks[f"b_{gate}"] = params.b[None, j * h:(j + 1) * h]
    for name in _FILE_FIELDS[MODEL_MAGIC]:
        lines.append(name)
        lines += (" ".join(_format(v) for v in row) for row in blocks[name])
    lines += ["b_y", _format(params.b_y)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_block(lines: list[str], cursor: int, name: str, rows: int,
                width: int) -> tuple[np.ndarray, int]:
    """Parse the block ``name`` of ``rows`` lines of ``width`` finite
    floats starting at ``lines[cursor]``; returns it and the next cursor."""
    if cursor >= len(lines) or lines[cursor].strip() != name:
        raise DataError(f"model file: expected block {name!r}")
    cursor += 1
    block = []
    for _ in range(rows):
        if cursor >= len(lines):
            raise DataError(f"model file: truncated block {name!r}")
        try:
            row = [float(tok) for tok in lines[cursor].split()]
        except ValueError:
            raise DataError(
                f"model file: non-numeric value in block {name!r}") from None
        if len(row) != width:
            raise DataError(
                f"model file: block {name!r} row has {len(row)} values, "
                f"expected {width}")
        block.append(row)
        cursor += 1
    arr = np.asarray(block, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"model file: non-finite value in block {name!r}")
    return arr, cursor


def load_model(path) -> LstmParams:
    """Read a v2 model file, or a v1 file whose recurrent and forget-gate
    blocks are checked and dropped; rejects unknown versions, an input_dim
    outside 1-3 or a hidden_dim below 1, bad shapes, non-finite values
    and any line but a blank one after ``b_y``."""
    with open(path, "r", encoding="utf-8") as fh, _utf8_errors(path):
        lines = [ln.rstrip("\n") for ln in fh]
    version = lines[0].strip() if lines else "<empty>"
    if version not in _FILE_FIELDS:
        raise DataError(f"unsupported model version: {version!r}")
    try:
        dims = dict(tok.split("=") for tok in lines[1].split())
        input_dim = int(dims["input_dim"])
        hidden_dim = int(dims["hidden_dim"])
    except (IndexError, KeyError, ValueError):
        raise DataError("malformed model dimension line") from None
    if input_dim not in LAGS or hidden_dim < 1:
        raise DataError(
            f"model dimensions input_dim={input_dim} hidden_dim={hidden_dim} "
            "out of range: input_dim must be 1, 2 or 3 and hidden_dim >= 1")

    cursor = 2
    fields = {}
    for name in _FILE_FIELDS[version]:
        fields[name], cursor = _read_block(
            lines, cursor, name, hidden_dim if name[0] in "WU" else 1,
            input_dim if name[0] == "W" else hidden_dim)
    b_y, cursor = _read_block(lines, cursor, "b_y", 1, 1)
    for line_no in range(cursor, len(lines)):
        if lines[line_no].strip():
            raise DataError(f"model file: unexpected line {line_no + 1} "
                            f"after block 'b_y'")
    return LstmParams(np.vstack([fields["W_" + gate] for gate in "iog"]),
                      np.hstack([fields["b_" + gate] for gate in "iog"])[0],
                      fields["w_y"][0], float(b_y[0, 0]))
