"""Single-layer LSTM next-step predictor.

One cell step consumes the whole lag window as a multi-feature input
vector from the zero state, so backpropagation is depth 1 per sample and
the batch gradient is exact.  From the zero state the recurrent weights
and the forget gate of the Hochreiter & Schmidhuber / Gers et al. cell
never reach an output, so the model holds only the input, output and
candidate gates (see ``kernels``).  Training is full-batch gradient
descent; 64-bit floats throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DivergenceError
from .kernels import loss_and_grads_numpy, predict_batch_numpy
from .pipeline import WindowSet

#: Matrix/vector fields in canonical order (model file block order).
PARAM_FIELDS = ("W_i", "b_i", "W_o", "b_o", "W_g", "b_g", "w_y")

MODEL_MAGIC = "lstm-model v2"

#: Block order of each readable model file version.  A v1 file also holds
#: the recurrent matrices and the forget gate of the four-gate cell; they
#: are read, checked and dropped.
_FILE_FIELDS = {
    "lstm-model v1": ("W_i", "U_i", "b_i", "W_f", "U_f", "b_f",
                      "W_o", "U_o", "b_o", "W_g", "U_g", "b_g", "w_y"),
    MODEL_MAGIC: PARAM_FIELDS,
}


@dataclass
class LstmParams:
    """Gate and projection weights; also reused as the gradient container
    (same shapes, field for field)."""
    input_dim: int
    hidden_dim: int
    W_i: np.ndarray
    b_i: np.ndarray
    W_o: np.ndarray
    b_o: np.ndarray
    W_g: np.ndarray
    b_g: np.ndarray
    w_y: np.ndarray
    b_y: float

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in PARAM_FIELDS)

    def copy(self) -> "LstmParams":
        return LstmParams(
            self.input_dim, self.hidden_dim,
            *(arr.copy() for arr in self.arrays()), self.b_y)

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(arr)) for arr in self.arrays()) \
            and np.isfinite(self.b_y)


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 1500
    hidden_dim: int = 23
    lag: int = 3
    rng_seed: int = 0
    gradient_clip: float | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lag not in (1, 2, 3):
            raise ValueError("lag must be 1, 2 or 3")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.gradient_clip is not None and self.gradient_clip <= 0:
            raise ValueError("gradient_clip must be positive when set")


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
    [-OUTPUT_INIT_RANGE, OUTPUT_INIT_RANGE]; biases 0."""
    if input_dim not in (1, 2, 3):
        raise ValueError("input_dim must be 1, 2 or 3")
    if hidden_dim < 1:
        raise ValueError("hidden_dim must be >= 1")
    rng = np.random.default_rng(rng_seed)
    r = 1.0 / np.sqrt(hidden_dim)
    h, k = hidden_dim, input_dim
    # Draw in the four-gate order W_i U_i W_f U_f W_o U_o W_g U_g and drop
    # the recurrent and forget blocks, so a seed still gives the weights
    # it gave the four-gate cell.
    W_i, _, _, _, W_o, _, W_g, _ = (
        rng.uniform(-r, r, size=(h, cols)) for cols in (k, h) * 4)
    return LstmParams(
        input_dim=k, hidden_dim=h,
        W_i=W_i, b_i=np.zeros(h),
        W_o=W_o, b_o=np.zeros(h),
        W_g=W_g, b_g=np.zeros(h),
        w_y=rng.uniform(-OUTPUT_INIT_RANGE, OUTPUT_INIT_RANGE, size=h),
        b_y=0.0,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def predict_window(params: LstmParams, window: np.ndarray) -> float:
    """Next-value prediction from one lag window (oldest value first),
    computed in a single cell step from the zero state.

    Evaluates the cell formula one window at a time, independently of the
    batch kernel; the finite-difference oracle and online detection use
    it.  Pure: never mutates its arguments.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.shape != (params.input_dim,):
        raise ValueError(
            f"window has shape {x.shape}, expected ({params.input_dim},)")
    i = _sigmoid(params.W_i @ x + params.b_i)
    o = _sigmoid(params.W_o @ x + params.b_o)
    g = np.tanh(params.W_g @ x + params.b_g)
    h = o * np.tanh(i * g)
    return float(params.w_y @ h + params.b_y)


def predict_windows(params: LstmParams, inputs: np.ndarray) -> np.ndarray:
    """Vectorized predict_window over an (n, input_dim) batch."""
    inputs = np.ascontiguousarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.input_dim:
        raise ValueError("inputs must have shape (n, input_dim)")
    return predict_batch_numpy(inputs, *params.arrays(), params.b_y)


def _check_windows(params: LstmParams, windows: WindowSet) -> None:
    if len(windows) == 0:
        raise ValueError("window set is empty")
    if windows.inputs.shape[1] != params.input_dim:
        raise ValueError(
            f"windows built with lag {windows.inputs.shape[1]}, "
            f"model expects {params.input_dim}")


def bptt_gradients(params: LstmParams,
                   windows: WindowSet) -> tuple[LstmParams, float]:
    """Exact gradients of the mean squared error over a window set.

    Returns (gradients, loss); the gradient container mirrors LstmParams.
    """
    _check_windows(params, windows)
    x = np.ascontiguousarray(windows.inputs, dtype=np.float64)
    y = np.ascontiguousarray(windows.targets, dtype=np.float64)
    loss, _, *grad_arrays, grad_b_y = loss_and_grads_numpy(
        x, y, *params.arrays(), params.b_y)
    grads = LstmParams(params.input_dim, params.hidden_dim,
                       *grad_arrays, float(grad_b_y))
    return grads, float(loss)


def forward_loss(params: LstmParams, windows: WindowSet) -> float:
    """MSE via per-window forward steps only (no backward pass); this is
    the evaluation route used by the finite-difference oracle."""
    _check_windows(params, windows)
    total = 0.0
    for window, target in zip(windows.inputs, windows.targets):
        residual = predict_window(params, window) - target
        total += residual * residual
    return total / len(windows)


def finite_difference_gradient(params: LstmParams, windows: WindowSet,
                               epsilon: float = 1e-5) -> LstmParams:
    """Central-difference gradient of the window-set loss, one parameter
    at a time: (L(p + eps) - L(p - eps)) / (2 eps)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _check_windows(params, windows)
    work = params.copy()
    grads = LstmParams(params.input_dim, params.hidden_dim,
                       *(np.zeros_like(a) for a in params.arrays()), 0.0)
    for name in PARAM_FIELDS:
        arr = getattr(work, name)
        grad_arr = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + epsilon
            loss_plus = forward_loss(work, windows)
            arr[idx] = original - epsilon
            loss_minus = forward_loss(work, windows)
            arr[idx] = original
            grad_arr[idx] = (loss_plus - loss_minus) / (2.0 * epsilon)
    original = work.b_y
    work.b_y = original + epsilon
    loss_plus = forward_loss(work, windows)
    work.b_y = original - epsilon
    loss_minus = forward_loss(work, windows)
    work.b_y = original
    grads.b_y = (loss_plus - loss_minus) / (2.0 * epsilon)
    return grads


def train(config: TrainConfig,
          windows: WindowSet) -> tuple[LstmParams, TrainReport]:
    """Full-batch gradient descent for the configured number of epochs.

    Deterministic for a fixed seed.  Each epoch records the loss at the
    parameters before that epoch's update.  Non-finite parameters abort
    with a DivergenceError naming the epoch.
    """
    if windows.lag != config.lag:
        raise ValueError(
            f"window set lag {windows.lag} != config lag {config.lag}")
    if len(windows) == 0:
        raise ValueError("window set is empty")
    params = init_params(config.lag, config.hidden_dim, config.rng_seed)
    x = np.ascontiguousarray(windows.inputs, dtype=np.float64)
    y = np.ascontiguousarray(windows.targets, dtype=np.float64)
    param_arrays = params.arrays()
    lr = config.learning_rate
    clip = config.gradient_clip
    losses = np.empty(config.epochs)

    start = time.perf_counter()
    for epoch in range(config.epochs):
        losses[epoch], _, *grad_arrays, grad_b_y = loss_and_grads_numpy(
            x, y, *param_arrays, params.b_y)
        if clip is not None:
            grad_arrays = tuple(np.clip(g, -clip, clip) for g in grad_arrays)
            grad_b_y = min(max(grad_b_y, -clip), clip)
        for target, grad in zip(param_arrays, grad_arrays):
            target -= lr * grad
        params.b_y -= lr * grad_b_y
        if not (params.all_finite() and np.isfinite(losses[epoch])):
            raise DivergenceError(epoch + 1)
    wall = time.perf_counter() - start
    return params, TrainReport(epoch_losses=losses, wall_seconds=wall)


def _format(v: float) -> str:
    return f"{v:.17g}"


def save_model(path, params: LstmParams) -> None:
    """Write the line-oriented model file (round-trip exact floats)."""
    lines = [MODEL_MAGIC,
             f"input_dim={params.input_dim} hidden_dim={params.hidden_dim}"]
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        lines.append(name)
        if arr.ndim == 1:
            lines.append(" ".join(_format(v) for v in arr))
        else:
            for row in arr:
                lines.append(" ".join(_format(v) for v in row))
    lines.append("b_y")
    lines.append(_format(params.b_y))
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
    blocks are checked and dropped; rejects unknown versions, bad shapes
    and non-finite values."""
    with open(path, "r", encoding="utf-8") as fh:
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

    cursor = 2
    fields = {}
    for name in _FILE_FIELDS[version]:
        matrix = name[0] in "WU"
        arr, cursor = _read_block(
            lines, cursor, name, hidden_dim if matrix else 1,
            input_dim if name[0] == "W" else hidden_dim)
        fields[name] = arr if matrix else arr[0]
    b_y, cursor = _read_block(lines, cursor, "b_y", 1, 1)
    return LstmParams(input_dim=input_dim, hidden_dim=hidden_dim,
                      **{name: fields[name] for name in PARAM_FIELDS},
                      b_y=float(b_y[0, 0]))
