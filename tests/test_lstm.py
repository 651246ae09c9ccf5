"""Core predictor: initialization, forward pass, gradients, training, IO."""

import hashlib
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from synwatch import kernels, lstm
from synwatch.errors import DataError, DivergenceError
from synwatch.lstm import (LstmParams, TrainConfig, bptt_gradients,
                           init_params, load_model, predict_window,
                           predict_windows, save_model, train)
from synwatch.pipeline import WindowSet

from conftest import assert_within_per_gate_bound, make_window_set
from fd_oracle import finite_difference_gradient, forward_loss


def params_finite(params):
    return all(np.all(np.isfinite(arr)) for arr in params.arrays()) \
        and np.isfinite(params.b_y)


#: Block order of an ``lstm-model v2`` file, the three-gate cell, and of
#: an ``lstm-model v1`` file, the four-gate cell.
V2_FIELDS = ("W_i", "b_i", "W_o", "b_o", "W_g", "b_g", "w_y")
V1_FIELDS = ("W_i", "U_i", "b_i", "W_f", "U_f", "b_f",
             "W_o", "U_o", "b_o", "W_g", "U_g", "b_g", "w_y")
DEAD_FIELDS = ("U_i", "W_f", "U_f", "b_f", "U_o", "U_g")

#: The perfbench model, an ``lstm-model v1`` file, and the sha256 of the
#: v2 file that ``save_model`` writes for it.
FIXTURE_MODEL = Path(__file__).parent.parent / "perfbench/fixture/model.txt"
FIXTURE_V2_SHA256 = \
    "97ace04126120c7110fb2371f1f23722611d6b354e22405bfcfc8053feece827"


def from_blocks(blocks):
    """An ``LstmParams`` from per-gate ``W_i b_i W_o b_o W_g b_g w_y`` and
    ``b_y`` blocks."""
    return LstmParams(np.vstack([blocks["W_" + gate] for gate in "iog"]),
                      np.concatenate([blocks["b_" + gate] for gate in "iog"]),
                      blocks["w_y"], blocks["b_y"])


def max_rel_diff(a: LstmParams, b: LstmParams) -> float:
    worst = 0.0
    for ga, gb in zip(a.arrays(), b.arrays()):
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gb)), 1e-8)
        worst = max(worst, float(np.max(np.abs(ga - gb) / denom)))
    return max(worst, abs(a.b_y - b.b_y) / max(abs(a.b_y), abs(b.b_y), 1e-8))


def zero_params(input_dim, hidden_dim, b_y=0.0):
    h, k = hidden_dim, input_dim
    return LstmParams(np.zeros((3 * h, k)), np.zeros(3 * h), np.zeros(h), b_y)


def random_v1_blocks(rng, k, h):
    """Every block of a four-gate cell, dead ones included, non-zero."""
    blocks = {name: rng.normal(0, 0.6, size=(h, k) if name[0] == "W"
                               else (h, h) if name[0] == "U" else h)
              for name in V1_FIELDS}
    blocks["b_y"] = float(rng.normal())
    return blocks


def four_gate_cell(blocks, x):
    """The four-gate cell with the Gers et al. forget gate, one step from
    h = c = 0, written out in full for an (n, k) batch of windows, one
    product per gate."""
    h0 = c0 = np.zeros(len(blocks["b_i"]))

    def pre(gate):
        return (x @ blocks[f"W_{gate}"].T + blocks[f"U_{gate}"] @ h0
                + blocks[f"b_{gate}"])

    i, f, o = (1.0 / (1.0 + np.exp(-pre(gate))) for gate in "ifo")
    g = np.tanh(pre("g"))
    h = o * np.tanh(f * c0 + i * g)
    return h @ blocks["w_y"] + blocks["b_y"]


def write_v1(path, blocks, k, h):
    lines = ["lstm-model v1", f"input_dim={k} hidden_dim={h}"]
    for name in V1_FIELDS + ("b_y",):
        lines.append(name)
        lines += [" ".join(f"{v:.17g}" for v in row)
                  for row in np.atleast_2d(blocks[name])]
    path.write_text("\n".join(lines) + "\n")


class TestInitParams:
    def test_shapes(self):
        p = init_params(3, 23, rng_seed=42)
        assert (p.input_dim, p.hidden_dim) == (3, 23)
        assert p.W.shape == (69, 3) and p.b.shape == (69,)
        assert p.w_y.shape == (23,)
        assert p.b_y == 0.0

    def test_smallest_network_and_forget_bias(self):
        # the zero-state cell has no forget gate, so every bias starts at 0
        p = init_params(1, 1, rng_seed=0)
        assert p.W.shape == (3, 1)
        assert not hasattr(p, "b_f")
        assert np.all(p.b == 0.0)

    def test_deterministic_per_seed(self):
        a = init_params(3, 23, rng_seed=42)
        b = init_params(3, 23, rng_seed=42)
        for got, want in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(got, want)
        c = init_params(3, 23, rng_seed=43)
        assert not np.array_equal(a.W, c.W)

    # seeds of one to five 32-bit words
    @pytest.mark.parametrize("seed", [0, 7, 2024, 2**32 - 1, 2**32,
                                      2**63 + 5, 2**128 + 7, 10**40])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("h", [1, 2, 23, 64])
    def test_seed_keeps_four_gate_draw_order(self, seed, k, h):
        # the four-gate cell drew W_i U_i W_f U_f W_o U_o W_g U_g w_y from
        # numpy's default generator; init_params draws the same stream
        # without numpy and skips the draws of the blocks it drops
        rng = np.random.default_rng(seed)
        r = 1.0 / np.sqrt(h)
        drawn = {name: rng.uniform(-r, r, size=(h, k if name[0] == "W" else h))
                 for name in ("W_i", "U_i", "W_f", "U_f",
                              "W_o", "U_o", "W_g", "U_g")}
        drawn["w_y"] = rng.uniform(-2.0, 2.0, size=h)
        p = init_params(k, h, rng_seed=seed)
        np.testing.assert_array_equal(
            p.W, np.vstack([drawn["W_" + gate] for gate in "iog"]))
        np.testing.assert_array_equal(p.w_y, drawn["w_y"])

    @pytest.mark.parametrize("bad_k", [0, 4, -1])
    def test_rejects_bad_input_dim(self, bad_k):
        with pytest.raises(ValueError):
            init_params(bad_k, 8, rng_seed=0)

    def test_rejects_bad_hidden_dim(self):
        with pytest.raises(ValueError):
            init_params(2, 0, rng_seed=0)

    @pytest.mark.parametrize("bad_seed", [-1, -2**70, 1.5, 2.0, None, "3",
                                          [1, 2]])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self,
                                                                bad_seed):
        # the seed is cut into 32-bit words by shifting, which never ends
        # on a negative int, so the check has to come first: run the call
        # on a thread and require it to be done at once
        raised = []

        def call():
            try:
                init_params(3, 23, rng_seed=bad_seed)
            except ValueError as exc:
                raised.append(str(exc))
        worker = threading.Thread(target=call, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert len(raised) == 1 and "non-negative integer" in raised[0]

    def test_numpy_integer_seed_is_its_value(self):
        for got, want in zip(init_params(3, 5, np.int64(11)).arrays(),
                             init_params(3, 5, 11).arrays()):
            np.testing.assert_array_equal(got, want)

    def test_all_finite(self):
        assert params_finite(init_params(2, 7, rng_seed=9))


class TestForwardStep:
    """One cell step from the zero state, through predict_window."""

    def test_zero_weights_propagation(self, rng):
        # a tanh(0) candidate zeroes the cell, so only b_y survives
        # whatever the input and output gates do
        p = init_params(2, 4, rng_seed=3)
        p.W[8:] = 0.0                        # the g rows
        p.b[:8] = rng.normal(size=8)         # the i and o rows
        p.b_y = 0.37
        for x in (np.array([5.0, -3.0]), rng.normal(size=2)):
            assert predict_window(p, x) == 0.37
        np.testing.assert_array_equal(
            predict_windows(p, rng.normal(size=(6, 2))), 0.37)

    def test_purity(self, rng):
        p = init_params(3, 5, rng_seed=1)
        before = LstmParams(*p.arrays(), p.b_y)
        x = rng.normal(size=3)
        x_copy = x.copy()
        assert predict_window(p, x) == predict_window(p, x)
        np.testing.assert_array_equal(x, x_copy)
        for got, want in zip(p.arrays(), before.arrays()):
            np.testing.assert_array_equal(got, want)
        assert p.b_y == before.b_y

    def test_dimension_mismatch_rejected(self):
        p = init_params(3, 5, rng_seed=1)
        for bad in (np.zeros(2), np.zeros((1, 3)), np.zeros((3, 1)),
                    np.float64(0.0)):
            with pytest.raises(ValueError):
                predict_window(p, bad)

    def test_hidden_strictly_inside_unit_interval(self, rng):
        # output gate times tanh keeps every hidden component in (-1, 1),
        # so the prediction stays strictly within sum|w_y| of b_y
        for trial in range(20):
            p = init_params(3, 6, rng_seed=trial)
            p.b_y = float(rng.normal())
            x = rng.normal(size=3) * 10
            bound = float(np.sum(np.abs(p.w_y)))
            assert abs(predict_window(p, x) - p.b_y) < bound

    def test_input_perturbation_matches_analytic_gradient(self, rng):
        # independent chain-rule oracle recomputed here from the raw params
        p = init_params(3, 4, rng_seed=8)
        p.b[...] = rng.normal(size=12) * 0.3
        x = rng.normal(size=3)
        W_i, W_o, W_g = np.split(p.W, 3)
        b_i, b_o, b_g = np.split(p.b, 3)

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        i = sig(W_i @ x + b_i)
        o = sig(W_o @ x + b_o)
        g = np.tanh(W_g @ x + b_g)
        c = i * g
        di_dx = (i * (1 - i))[:, None] * W_i
        do_dx = (o * (1 - o))[:, None] * W_o
        dg_dx = (1 - g * g)[:, None] * W_g
        dc_dx = g[:, None] * di_dx + i[:, None] * dg_dx
        dh_dx = np.tanh(c)[:, None] * do_dx \
            + (o * (1 - np.tanh(c) ** 2))[:, None] * dc_dx
        dpred_dx = p.w_y @ dh_dx

        eps = 1e-6
        for j in range(3):
            bump = np.zeros(3)
            bump[j] = eps
            plus = predict_window(p, x + bump)
            minus = predict_window(p, x - bump)
            fd = (plus - minus) / (2 * eps)
            assert fd == pytest.approx(dpred_dx[j], rel=1e-6, abs=1e-10)


class TestPredictWindow:
    def test_lag1_and_lag3(self):
        p1 = init_params(1, 4, rng_seed=2)
        assert isinstance(predict_window(p1, np.array([0.3])), float)
        p3 = init_params(3, 4, rng_seed=2)
        assert isinstance(predict_window(p3, np.array([0.1, 0.2, 0.3])), float)

    def test_zero_params_gives_output_bias(self):
        p = zero_params(3, 5, b_y=1.25)
        for window in (np.zeros(3), np.array([4.0, -2.0, 9.0])):
            assert predict_window(p, window) == pytest.approx(1.25)

    def test_length_mismatch_rejected(self):
        p = init_params(2, 4, rng_seed=3)
        with pytest.raises(ValueError):
            predict_window(p, np.zeros(3))

    def test_batch_matches_scalar_path(self, rng):
        p = init_params(3, 7, rng_seed=4)
        inputs = rng.uniform(0, 1, size=(11, 3))
        batch = predict_windows(p, inputs)
        singles = [predict_window(p, w) for w in inputs]
        assert batch.tolist() == singles


def per_gate_prediction(params, x):
    """The one-window formula gate by gate, each gate's weights in an
    array of its own: predict_window's formula before the gates were
    stored fused, within the per-gate bound of it."""
    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    W_i, W_o, W_g = (np.array(W) for W in np.split(params.W, 3))
    b_i, b_o, b_g = (np.array(b) for b in np.split(params.b, 3))
    w_y = params.w_y
    i = sigmoid(W_i @ x + b_i)
    o = sigmoid(W_o @ x + b_o)
    g = np.tanh(W_g @ x + b_g)
    h = o * np.tanh(i * g)
    return float(w_y @ h + params.b_y)


@st.composite
def params_and_windows(draw):
    """Random weights at lags 1-3 and hidden sizes 1-64, plus windows."""
    k = draw(st.integers(1, 3))
    h = draw(st.integers(1, 64))
    scale = draw(st.sampled_from((0.01, 0.3, 1.0, 5.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = {name: rng.normal(0.0, scale, size=(h, k) if name[0] == "W"
                               else h) for name in V2_FIELDS}
    blocks["b_y"] = float(rng.normal())
    params = from_blocks(blocks)
    value = st.floats(-10.0, 10.0)
    windows = draw(st.lists(
        hnp.arrays(np.float64, k, elements=value), min_size=1, max_size=8))
    return params, windows


class TestFusedStorage:
    """The gates live in one (3h, k) matrix and one (3h,) bias, and the
    constructor copies and checks what it is given."""

    def test_layout(self):
        p = init_params(3, 5, rng_seed=1)
        assert p.W.shape == (15, 3) and p.b.shape == (15,)
        assert p.W.flags.c_contiguous
        assert (p.input_dim, p.hidden_dim) == (3, 5)
        assert [arr.shape for arr in p.arrays()] == [(15, 3), (15,), (5,)]
        # a Fortran-ordered matrix is stored C-contiguous all the same
        assert LstmParams(np.asfortranarray(p.W), p.b, p.w_y,
                          0.0).W.flags.c_contiguous

    @pytest.mark.parametrize("W, b, w_y", [
        pytest.param(np.zeros((12, 2)), np.zeros(12), np.zeros(5),
                     id="W_rows_not_3h"),
        pytest.param(np.zeros((15, 2)), np.zeros(12), np.zeros(5),
                     id="b_length_not_3h"),
        pytest.param(np.zeros((15, 2)), np.zeros((15, 1)), np.zeros(5),
                     id="b_not_1d"),
        pytest.param(np.zeros(15), np.zeros(15), np.zeros(5),
                     id="W_1d"),
        pytest.param(np.zeros((15, 2, 1)), np.zeros(15), np.zeros(5),
                     id="W_3d"),
        pytest.param(np.zeros((15, 2)), np.zeros(15), np.zeros((5, 1)),
                     id="w_y_not_1d"),
    ])
    def test_rejects_shapes_that_do_not_fit(self, W, b, w_y):
        with pytest.raises(ValueError, match="do not fit"):
            LstmParams(W, b, w_y, 0.0)

    @settings(max_examples=100)
    @given(case=params_and_windows(), data=st.data())
    def test_updates_to_W_and_b_reach_the_prediction(self, case, data):
        params, windows = case
        h, k = params.hidden_dim, params.input_dim
        r, c = data.draw(st.integers(0, h - 1)), data.draw(st.integers(0, k - 1))
        d = data.draw(st.floats(-2.0, 2.0).filter(lambda v: v != 0.0))
        expected = params.W[r, c] + d
        params.W[r, c] += d
        assert params.W[r, c] == expected
        new = data.draw(hnp.arrays(np.float64, h, elements=st.floats(-3, 3)))
        params.b[2 * h:] = new
        fresh = LstmParams(*params.arrays(), params.b_y)
        # windows up to 10 in size and weights of std up to 5: bound the
        # gap by the size of the terms summed, |w_y| (|W| |x| + |b|)
        W_size = np.abs(params.W).reshape(3, h, k).sum(axis=0)
        b_size = np.abs(params.b).reshape(3, h).sum(axis=0)
        for x in windows:
            assert predict_window(params, x) == predict_window(fresh, x)
            size = np.abs(params.w_y) @ (W_size @ np.abs(x) + b_size)
            assert_within_per_gate_bound(predict_window(params, x),
                                         per_gate_prediction(params, x),
                                         max(1.0, size))

    @settings(max_examples=50)
    @given(case=params_and_windows())
    def test_constructor_copies_its_arrays(self, case):
        params, windows = case
        W, b, w_y = (arr.copy() for arr in params.arrays())
        dup = LstmParams(W, b, w_y, params.b_y)
        for got, given_arr, other in zip(dup.arrays(), (W, b, w_y),
                                         params.arrays()):
            assert not np.shares_memory(got, given_arr)
            assert not np.shares_memory(got, other)
        before = [predict_window(params, x) for x in windows]
        assert [predict_window(dup, x) for x in windows] == before
        W += 1.0                             # the caller's arrays ...
        b[0] -= 1.0
        w_y *= 2.0
        assert [predict_window(dup, x) for x in windows] == before
        dup.W[params.hidden_dim:] += 1.0     # ... and the copy's own
        dup.w_y *= 2.0
        assert [predict_window(params, x) for x in windows] == before


class TestGradients:
    def test_perfect_fit_gives_zero_loss_and_gradients(self):
        p = zero_params(2, 3, b_y=0.6)
        windows = WindowSet(lag=2, inputs=np.random.default_rng(0).normal(size=(5, 2)),
                            targets=np.full(5, 0.6),
                            origin_steps=np.arange(1, 6))
        grads, loss = bptt_gradients(p, windows)
        assert loss == 0.0
        for grad in grads.arrays():
            np.testing.assert_array_equal(grad, 0.0)
        assert grads.b_y == 0.0

    def test_matches_finite_differences_on_random_instances(self):
        rng = np.random.default_rng(77)
        for trial in range(8):
            k = int(rng.integers(1, 4))
            h = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            params = init_params(k, h, rng_seed=trial)
            windows = make_window_set(rng, k, n)
            analytic, _ = bptt_gradients(params, windows)
            numeric = finite_difference_gradient(params, windows)
            assert max_rel_diff(analytic, numeric) <= 1e-4

    def test_zero_state_keeps_recurrent_and_forget_gradients_zero(self, rng):
        # why the model holds three gates: from h = c = 0, moving any
        # recurrent or forget-gate weight of the four-gate cell leaves
        # every prediction bit-identical, so its gradient is exactly zero
        blocks = random_v1_blocks(rng, 3, 4)
        x = rng.normal(size=(7, 3))
        base = four_gate_cell(blocks, x)
        for name in DEAD_FIELDS:
            for step in (0.5, -2.0):
                moved = dict(blocks)
                moved[name] = blocks[name] + step
                np.testing.assert_array_equal(
                    four_gate_cell(moved, x), base)

    def test_doubling_residuals_quadruples_loss(self, tiny_instance):
        params, windows = tiny_instance
        preds = predict_windows(params, windows.inputs)
        _, loss1 = bptt_gradients(params, windows)
        doubled = WindowSet(lag=windows.lag, inputs=windows.inputs,
                            targets=preds - 2 * (preds - windows.targets),
                            origin_steps=windows.origin_steps)
        _, loss2 = bptt_gradients(params, doubled)
        assert loss2 == pytest.approx(4 * loss1, rel=1e-12)

    def test_empty_window_set_rejected(self):
        p = init_params(2, 3, rng_seed=0)
        empty = WindowSet(lag=2, inputs=np.zeros((0, 2)), targets=np.zeros(0),
                          origin_steps=np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            bptt_gradients(p, empty)
        with pytest.raises(ValueError):
            finite_difference_gradient(p, empty)

    def test_one_small_step_does_not_increase_loss(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            k = int(rng.integers(1, 4))
            h = int(rng.integers(1, 5))
            params = init_params(k, h, rng_seed=trial + 100)
            windows = make_window_set(rng, k, int(rng.integers(2, 9)))
            grads, loss_before = bptt_gradients(params, windows)
            lr = 1e-4
            for arr, grad in zip(params.arrays(), grads.arrays()):
                arr -= lr * grad
            params.b_y -= lr * grads.b_y
            _, loss_after = bptt_gradients(params, windows)
            assert loss_after <= loss_before + 1e-15


class TestFiniteDifferenceOracle:
    def test_zero_gradient_case(self):
        p = zero_params(2, 3, b_y=0.4)
        windows = WindowSet(lag=2,
                            inputs=np.random.default_rng(5).normal(size=(4, 2)),
                            targets=np.full(4, 0.4),
                            origin_steps=np.arange(1, 5))
        grads = finite_difference_gradient(p, windows)
        for grad in grads.arrays():
            assert np.all(np.abs(grad) < 1e-8)
        assert abs(grads.b_y) < 1e-8

    def test_epsilon_must_be_positive(self, tiny_instance):
        params, windows = tiny_instance
        for bad in (0.0, -1e-5):
            with pytest.raises(ValueError):
                finite_difference_gradient(params, windows, epsilon=bad)

    def test_halving_epsilon_shrinks_estimates_quadratically(self, tiny_instance):
        # central differences: error term is O(eps^2)
        params, windows = tiny_instance
        exact, _ = bptt_gradients(params, windows)
        err = {}
        for eps in (1e-2, 5e-3):
            fd = finite_difference_gradient(params, windows, epsilon=eps)
            err[eps] = max(
                float(np.max(np.abs(got - want)))
                for got, want in zip(fd.arrays(), exact.arrays()))
        # quartering within slack; roundoff keeps this from being exact
        assert err[5e-3] <= err[1e-2] / 2.5


def constant_window_set(value, n=60, lag=3):
    # normalized constant series maps to all zeros under the min-max rule
    values = np.zeros(n + lag)
    inputs = np.lib.stride_tricks.sliding_window_view(values, lag)[:-1]
    return WindowSet(lag=lag, inputs=np.ascontiguousarray(inputs),
                     targets=values[lag:].copy(),
                     origin_steps=np.arange(lag - 1, len(values) - 1))


class TestTrain:
    def test_constant_series_reaches_tiny_loss(self):
        windows = constant_window_set(7.0)
        config = TrainConfig(epochs=50, rng_seed=1)
        params, report = train(config, windows)
        assert report.epoch_losses[-1] < 1e-4
        assert len(report.epoch_losses) == 50
        assert report.wall_seconds >= 0

    def test_epochs_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            TrainConfig(rng_seed=-1)

    @pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf])
    def test_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="finite and positive"):
            TrainConfig(learning_rate=value)

    def test_lag_mismatch_rejected(self, rng):
        windows = make_window_set(rng, 2, 10)
        with pytest.raises(ValueError):
            train(TrainConfig(lag=3, epochs=1), windows)

    def test_bit_for_bit_deterministic(self, rng):
        windows = make_window_set(rng, 3, 40)
        config = TrainConfig(epochs=25, rng_seed=9)
        p1, r1 = train(config, windows)
        p2, r2 = train(config, windows)
        for a, b in zip(p1.arrays(), p2.arrays()):
            np.testing.assert_array_equal(a, b)
        assert p1.b_y == p2.b_y
        np.testing.assert_array_equal(r1.epoch_losses, r2.epoch_losses)

    def test_divergence_raises_with_epoch(self, rng):
        # unnormalized large-magnitude data at a huge rate blows up fast
        inputs = rng.normal(0, 1e3, size=(20, 3))
        targets = rng.normal(0, 1e3, size=20)
        windows = WindowSet(lag=3, inputs=inputs, targets=targets,
                            origin_steps=np.arange(2, 22))
        with pytest.raises(DivergenceError) as exc_info, \
                np.errstate(all="ignore"):
            train(TrainConfig(learning_rate=1e12, epochs=50, rng_seed=0),
                  windows)
        assert exc_info.value.epoch >= 1
        assert str(exc_info.value.epoch) in str(exc_info.value)

    def test_loss_trend_on_sinusoid_smoke(self):
        # short-budget smoke check; the full-default run lives in acceptance
        t = np.arange(200)
        values = 100.0 + 50.0 * np.sin(2 * np.pi * t / 20.0)
        norm = (values - values.min()) / (values.max() - values.min())
        inputs = np.lib.stride_tricks.sliding_window_view(norm, 3)[:-1]
        windows = WindowSet(lag=3, inputs=np.ascontiguousarray(inputs),
                            targets=norm[3:].copy(),
                            origin_steps=np.arange(2, 199))
        _, report = train(TrainConfig(epochs=300, rng_seed=0), windows)
        assert report.epoch_losses[-1] < report.epoch_losses[0]


class TestTrainThreads:
    """``train`` runs the kernel's chunks on helper threads that exist only
    while it runs.  Here it sees three CPUs, whatever the host's, and takes
    the two workers it may, on chunks of 16 windows."""

    @pytest.fixture
    def live_threads(self, monkeypatch):
        """The threads alive at each kernel call ``train`` makes."""
        monkeypatch.setattr(kernels, "_TRAIN_CHUNK", 16)
        monkeypatch.setattr(lstm, "_cpus", lambda: 3)
        seen = []
        kernel = lstm.loss_and_grads_numpy

        def spy(*args):
            seen.append(threading.active_count())
            return kernel(*args)
        monkeypatch.setattr(lstm, "loss_and_grads_numpy", spy)
        return seen

    def test_no_thread_outlives_a_return(self, rng, live_threads):
        before = threading.enumerate()
        train(TrainConfig(epochs=3), make_window_set(rng, 3, 40))
        assert live_threads == [len(before) + 1] * 3
        assert threading.enumerate() == before

    def test_no_thread_outlives_a_divergence(self, rng, live_threads):
        # under train's errstate in every thread: an overflow in a helper
        # thread warns of nothing, so DivergenceError is what surfaces
        inputs = rng.normal(0, 1e3, size=(40, 3))
        windows = WindowSet(lag=3, inputs=inputs,
                            targets=rng.normal(0, 1e3, size=40),
                            origin_steps=np.arange(2, 42))
        before = threading.enumerate()
        with pytest.raises(DivergenceError):
            train(TrainConfig(learning_rate=1e12, epochs=50), windows)
        assert live_threads and live_threads[0] == len(before) + 1
        assert threading.enumerate() == before

    def test_no_thread_outlives_an_exception_in_a_helper(
            self, rng, live_threads, monkeypatch):
        # chunk 1 runs on the first helper thread; what it raises there
        # is raised by train
        chunk_grads = kernels._chunk_grads
        failed = []

        def fail_on_chunk_1(work, j, *args):
            if j == 1:
                failed.append(threading.current_thread())
                raise ArithmeticError("chunk 1")
            return chunk_grads(work, j, *args)
        monkeypatch.setattr(kernels, "_chunk_grads", fail_on_chunk_1)
        before = threading.enumerate()
        with pytest.raises(ArithmeticError, match="chunk 1"):
            train(TrainConfig(epochs=3), make_window_set(rng, 3, 40))
        assert failed and failed[0] is not threading.current_thread()
        assert threading.enumerate() == before


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(3, 23, rng_seed=42)
        params.b_y = 0.123456789123456789
        path = tmp_path / "model.txt"
        save_model(path, params)
        loaded = load_model(path)
        assert loaded.input_dim == 3 and loaded.hidden_dim == 23
        for got, want in zip(loaded.arrays(), params.arrays()):
            np.testing.assert_array_equal(got, want)
        assert loaded.b_y == params.b_y

    def test_save_load_save_is_byte_identical(self, tmp_path):
        params = init_params(2, 5, rng_seed=7)
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        save_model(a, params)
        save_model(b, load_model(a))
        assert a.read_bytes() == b.read_bytes()

    def test_fixture_model_bytes_pinned(self, tmp_path):
        # the v1 fixture saved as v2 gives fixed bytes, and loading and
        # saving that v2 file gives the same bytes again
        v2, again = tmp_path / "v2.txt", tmp_path / "again.txt"
        save_model(v2, load_model(FIXTURE_MODEL))
        assert hashlib.sha256(v2.read_bytes()).hexdigest() \
            == FIXTURE_V2_SHA256
        save_model(again, load_model(v2))
        assert again.read_bytes() == v2.read_bytes()

    @settings(max_examples=60)
    @given(data=st.data(), input_dim=st.integers(1, 3),
           hidden_dim=st.integers(1, 40))
    def test_random_parameters_round_trip(self, data, input_dim, hidden_dim):
        # Any finite float, with -0.0 and subnormals drawn often.
        value = st.one_of(
            st.sampled_from((-0.0, 5e-324, -1e-310, 2.2250738585072009e-308)),
            st.floats(allow_nan=False, allow_infinity=False))
        h, k = hidden_dim, input_dim
        blocks = {name: data.draw(hnp.arrays(
            np.float64, (h, k) if name[0] == "W" else h, elements=value))
            for name in V2_FIELDS}
        blocks["b_y"] = data.draw(value)
        params = from_blocks(blocks)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
            save_model(a, params)
            loaded = load_model(a)
            save_model(b, loaded)
            assert a.read_bytes() == b.read_bytes()
        assert (loaded.input_dim, loaded.hidden_dim) == (k, h)
        for got, want in zip(loaded.arrays(), params.arrays()):
            assert got.tobytes() == want.tobytes()
        assert np.float64(loaded.b_y).tobytes() \
            == np.float64(params.b_y).tobytes()

    def test_header_and_version(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, init_params(1, 2, rng_seed=0))
        lines = path.read_text().splitlines()
        assert lines[0] == "lstm-model v2"
        assert lines[1] == "input_dim=1 hidden_dim=2"
        assert [ln for ln in lines[2:] if ln[:1].isalpha()] == [
            "W_i", "b_i", "W_o", "b_o", "W_g", "b_g", "w_y", "b_y"]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, init_params(1, 2, rng_seed=0))
        text = path.read_text().replace("lstm-model v2", "lstm-model v3")
        path.write_text(text)
        with pytest.raises(DataError, match="unsupported model version"):
            load_model(path)

    def test_v1_file_predicts_like_four_gate_cell(self, tmp_path, rng):
        # the dropped blocks are random and non-zero, yet the predictions
        # stay within the per-gate bound of the full four-gate cell from
        # the zero state, whose products are per gate
        for k, h in ((1, 1), (3, 23), (2, 5)):
            blocks = random_v1_blocks(rng, k, h)
            path = tmp_path / "v1.txt"
            write_v1(path, blocks, k, h)
            params = load_model(path)
            x = rng.uniform(-0.5, 1.5, size=(300, k))
            preds = predict_windows(params, x)
            assert_within_per_gate_bound(preds, four_gate_cell(blocks, x))
            assert preds[:50].tolist() == [predict_window(params, window)
                                           for window in x[:50]]

    def test_v1_to_v2_keeps_live_lines(self, tmp_path, rng):
        blocks = random_v1_blocks(rng, 3, 4)
        v1, v2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        write_v1(v1, blocks, 3, 4)
        save_model(v2, load_model(v1))

        def block_lines(path):
            lines = path.read_text().splitlines()
            starts = [i for i, ln in enumerate(lines) if ln[:1].isalpha()]
            return {lines[i]: lines[i + 1:j] for i, j in
                    zip(starts, starts[1:] + [len(lines)])}

        old, new = block_lines(v1), block_lines(v2)
        assert list(new) == ["lstm-model v2", "input_dim=3 hidden_dim=4",
                             *V2_FIELDS, "b_y"]
        for name in V2_FIELDS + ("b_y",):
            assert new[name] == old[name]

    @pytest.mark.parametrize("version, block", [
        ("v2", "W_i"), ("v2", "w_y"), ("v2", "b_y"),
        ("v1", "U_f"), ("v1", "b_f"), ("v1", "b_g")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, rng, version, block,
                                        value):
        path = tmp_path / "model.txt"
        if version == "v1":
            write_v1(path, random_v1_blocks(rng, 2, 3), 2, 3)
        else:
            save_model(path, init_params(2, 3, rng_seed=0))
        lines = path.read_text().splitlines()
        row = lines.index(block) + 1
        lines[row] = " ".join([value] + lines[row].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"non-finite value in block "
                                            f"'{block}'"):
            load_model(path)

    @pytest.mark.parametrize("dims", [
        "input_dim=0 hidden_dim=0", "input_dim=4 hidden_dim=2",
        "input_dim=1 hidden_dim=0", "input_dim=2 hidden_dim=-1"])
    def test_dimensions_out_of_range_rejected(self, tmp_path, dims):
        path = tmp_path / "model.txt"
        save_model(path, init_params(1, 2, rng_seed=0))
        lines = path.read_text().splitlines()
        lines[1] = dims
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"model dimensions {dims} "):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, init_params(1, 2, rng_seed=0))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("tail, line", [
        ("W_i\nnot a number\n", 22), ("\n\nx\n", 24), (None, 22)],
        ids=["junk", "junk-after-blank-lines", "two-models"])
    def test_lines_after_b_y_rejected(self, tmp_path, tail, line):
        # a v2 model of input_dim 1 and hidden_dim 2 ends at line 21
        path = tmp_path / "model.txt"
        save_model(path, init_params(1, 2, rng_seed=0))
        text = path.read_text()
        path.write_text(text + (text if tail is None else tail))
        with pytest.raises(DataError, match=f"unexpected line {line} after "
                                            f"block 'b_y'"):
            load_model(path)

    def test_blank_lines_after_b_y_accepted(self, tmp_path):
        path = tmp_path / "model.txt"
        params = init_params(1, 2, rng_seed=0)
        save_model(path, params)
        path.write_text(path.read_text() + "\n  \n\t\n")
        np.testing.assert_array_equal(load_model(path).W, params.W)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, init_params(1, 2, rng_seed=0))
        lines = path.read_text().splitlines()
        lines[3] = "definitely not a float"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_model(path)


def test_forward_loss_matches_bptt_loss(tiny_instance):
    params, windows = tiny_instance
    _, loss_bptt = bptt_gradients(params, windows)
    assert forward_loss(params, windows) == pytest.approx(loss_bptt, rel=1e-12)
