"""Core predictor: initialization, forward pass, gradients, training, IO."""

import numpy as np
import pytest

from synwatch.errors import DataError, DivergenceError
from synwatch.lstm import (PARAM_FIELDS, LstmParams, TrainConfig,
                           bptt_gradients, finite_difference_gradient,
                           forward_loss, init_params, load_model,
                           predict_window, predict_windows, save_model, train)
from synwatch.pipeline import WindowSet

from conftest import make_window_set

#: Block order of an ``lstm-model v1`` file: the four-gate cell.
V1_FIELDS = ("W_i", "U_i", "b_i", "W_f", "U_f", "b_f",
             "W_o", "U_o", "b_o", "W_g", "U_g", "b_g", "w_y")
DEAD_FIELDS = ("U_i", "W_f", "U_f", "b_f", "U_o", "U_g")


def max_rel_diff(a: LstmParams, b: LstmParams) -> float:
    worst = 0.0
    for name in PARAM_FIELDS:
        ga, gb = getattr(a, name), getattr(b, name)
        denom = np.maximum(np.maximum(np.abs(ga), np.abs(gb)), 1e-8)
        worst = max(worst, float(np.max(np.abs(ga - gb) / denom)))
    return max(worst, abs(a.b_y - b.b_y) / max(abs(a.b_y), abs(b.b_y), 1e-8))


def zero_params(input_dim, hidden_dim, b_y=0.0):
    h, k = hidden_dim, input_dim
    return LstmParams(
        input_dim=k, hidden_dim=h,
        W_i=np.zeros((h, k)), b_i=np.zeros(h),
        W_o=np.zeros((h, k)), b_o=np.zeros(h),
        W_g=np.zeros((h, k)), b_g=np.zeros(h),
        w_y=np.zeros(h), b_y=b_y)


def random_v1_blocks(rng, k, h):
    """Every block of a four-gate cell, dead ones included, non-zero."""
    blocks = {name: rng.normal(0, 0.6, size=(h, k) if name[0] == "W"
                               else (h, h) if name[0] == "U" else h)
              for name in V1_FIELDS}
    blocks["b_y"] = float(rng.normal())
    return blocks


def four_gate_cell(blocks, x, batch):
    """The four-gate cell with the Gers et al. forget gate, one step from
    h = c = 0, written out in full.  ``batch`` selects the (n, k) input
    layout of the batch kernel; otherwise ``x`` is one window."""
    h0 = c0 = np.zeros(len(blocks["b_i"]))

    def pre(gate):
        W = blocks[f"W_{gate}"]
        wx = x @ W.T if batch else W @ x
        return wx + blocks[f"U_{gate}"] @ h0 + blocks[f"b_{gate}"]

    i, f, o = (1.0 / (1.0 + np.exp(-pre(gate))) for gate in "ifo")
    g = np.tanh(pre("g"))
    h = o * np.tanh(f * c0 + i * g)
    if batch:
        return h @ blocks["w_y"] + blocks["b_y"]
    return float(blocks["w_y"] @ h + blocks["b_y"])


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
        for gate in "iog":
            assert getattr(p, f"W_{gate}").shape == (23, 3)
            assert getattr(p, f"b_{gate}").shape == (23,)
        assert p.w_y.shape == (23,)
        assert p.b_y == 0.0

    def test_smallest_network_and_forget_bias(self):
        # the zero-state cell has no forget gate, so every bias starts at 0
        p = init_params(1, 1, rng_seed=0)
        assert p.W_i.shape == (1, 1)
        assert not hasattr(p, "b_f")
        assert np.all(p.b_i == 0.0) and np.all(p.b_o == 0.0)
        assert np.all(p.b_g == 0.0)

    def test_deterministic_per_seed(self):
        a = init_params(3, 23, rng_seed=42)
        b = init_params(3, 23, rng_seed=42)
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        c = init_params(3, 23, rng_seed=43)
        assert not np.array_equal(a.W_i, c.W_i)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_seed_keeps_four_gate_draw_order(self, seed):
        # the four-gate cell drew W_i U_i W_f U_f W_o U_o W_g U_g w_y
        k, h = 3, 23
        rng = np.random.default_rng(seed)
        r = 1.0 / np.sqrt(h)
        drawn = {name: rng.uniform(-r, r, size=(h, k if name[0] == "W" else h))
                 for name in ("W_i", "U_i", "W_f", "U_f",
                              "W_o", "U_o", "W_g", "U_g")}
        drawn["w_y"] = rng.uniform(-2.0, 2.0, size=h)
        p = init_params(k, h, rng_seed=seed)
        for name in ("W_i", "W_o", "W_g", "w_y"):
            np.testing.assert_array_equal(getattr(p, name), drawn[name])

    @pytest.mark.parametrize("bad_k", [0, 4, -1])
    def test_rejects_bad_input_dim(self, bad_k):
        with pytest.raises(ValueError):
            init_params(bad_k, 8, rng_seed=0)

    def test_rejects_bad_hidden_dim(self):
        with pytest.raises(ValueError):
            init_params(2, 0, rng_seed=0)

    def test_all_finite(self):
        p = init_params(2, 7, rng_seed=9)
        assert p.all_finite()


class TestForwardStep:
    """One cell step from the zero state, through predict_window."""

    def test_zero_weights_propagation(self, rng):
        # a tanh(0) candidate zeroes the cell, so only b_y survives
        # whatever the input and output gates do
        p = init_params(2, 4, rng_seed=3)
        p.W_g[...] = 0.0
        p.b_i[...] = rng.normal(size=4)
        p.b_o[...] = rng.normal(size=4)
        p.b_y = 0.37
        for x in (np.array([5.0, -3.0]), rng.normal(size=2)):
            assert predict_window(p, x) == 0.37
        np.testing.assert_array_equal(
            predict_windows(p, rng.normal(size=(6, 2))), 0.37)

    def test_purity(self, rng):
        p = init_params(3, 5, rng_seed=1)
        before = p.copy()
        x = rng.normal(size=3)
        x_copy = x.copy()
        assert predict_window(p, x) == predict_window(p, x)
        np.testing.assert_array_equal(x, x_copy)
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(p, name),
                                          getattr(before, name))
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
        p.b_i[...] = rng.normal(size=4) * 0.3
        p.b_o[...] = rng.normal(size=4) * 0.3
        p.b_g[...] = rng.normal(size=4) * 0.3
        x = rng.normal(size=3)

        def sig(z):
            return 1.0 / (1.0 + np.exp(-z))

        i = sig(p.W_i @ x + p.b_i)
        o = sig(p.W_o @ x + p.b_o)
        g = np.tanh(p.W_g @ x + p.b_g)
        c = i * g
        di_dx = (i * (1 - i))[:, None] * p.W_i
        do_dx = (o * (1 - o))[:, None] * p.W_o
        dg_dx = (1 - g * g)[:, None] * p.W_g
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
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestGradients:
    def test_perfect_fit_gives_zero_loss_and_gradients(self):
        p = zero_params(2, 3, b_y=0.6)
        windows = WindowSet(lag=2, inputs=np.random.default_rng(0).normal(size=(5, 2)),
                            targets=np.full(5, 0.6),
                            origin_steps=np.arange(1, 6))
        grads, loss = bptt_gradients(p, windows)
        assert loss == 0.0
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(grads, name), 0.0)
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
        base = four_gate_cell(blocks, x, batch=True)
        for name in DEAD_FIELDS:
            for step in (0.5, -2.0):
                moved = dict(blocks)
                moved[name] = blocks[name] + step
                np.testing.assert_array_equal(
                    four_gate_cell(moved, x, batch=True), base)

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
            for name in PARAM_FIELDS:
                getattr(params, name)[...] -= lr * getattr(grads, name)
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
        for name in PARAM_FIELDS:
            assert np.all(np.abs(getattr(grads, name)) < 1e-8)
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
                float(np.max(np.abs(getattr(fd, n) - getattr(exact, n))))
                for n in PARAM_FIELDS)
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

    def test_lag_mismatch_rejected(self, rng):
        windows = make_window_set(rng, 2, 10)
        with pytest.raises(ValueError):
            train(TrainConfig(lag=3, epochs=1), windows)

    def test_bit_for_bit_deterministic(self, rng):
        windows = make_window_set(rng, 3, 40)
        config = TrainConfig(epochs=25, rng_seed=9)
        p1, r1 = train(config, windows)
        p2, r2 = train(config, windows)
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(p1, name), getattr(p2, name))
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

    def test_gradient_clip_accepted(self, rng):
        windows = make_window_set(rng, 3, 10)
        config = TrainConfig(epochs=5, rng_seed=2, gradient_clip=0.5)
        params, report = train(config, windows)
        assert params.all_finite()

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


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_params(3, 23, rng_seed=42)
        params.b_y = 0.123456789123456789
        path = tmp_path / "model.txt"
        save_model(path, params)
        loaded = load_model(path)
        assert loaded.input_dim == 3 and loaded.hidden_dim == 23
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(loaded, name),
                                          getattr(params, name))
        assert loaded.b_y == params.b_y

    def test_save_load_save_is_byte_identical(self, tmp_path):
        params = init_params(2, 5, rng_seed=7)
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        save_model(a, params)
        save_model(b, load_model(a))
        assert a.read_bytes() == b.read_bytes()

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
        # the dropped blocks are random and non-zero, yet both prediction
        # paths equal the full four-gate cell from the zero state bit for bit
        for k, h in ((1, 1), (3, 23), (2, 5)):
            blocks = random_v1_blocks(rng, k, h)
            path = tmp_path / "v1.txt"
            write_v1(path, blocks, k, h)
            params = load_model(path)
            x = rng.uniform(-0.5, 1.5, size=(300, k))
            np.testing.assert_array_equal(
                predict_windows(params, x), four_gate_cell(blocks, x, True))
            for window in x[:50]:
                assert predict_window(params, window) == \
                    four_gate_cell(blocks, window, False)

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
                             *PARAM_FIELDS, "b_y"]
        for name in PARAM_FIELDS + ("b_y",):
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

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(path, init_params(1, 2, rng_seed=0))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(DataError):
            load_model(path)

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
