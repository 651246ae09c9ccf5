"""Collective anomaly detection for network-traffic time series.

Trains a small LSTM on normal per-step packet counts, predicts each next
value, and flags sustained floods by thresholding the density and mean of
the last few prediction errors.
"""

__version__ = "0.1.0"

from .calibration import (CalibrationGrid, EvalReport, calibrate,
                          default_grid, evaluate, prediction_pairs,
                          replay_trace)
from .detector import (AlarmEvent, Detector, DetectorConfig, StepVerdict,
                       relative_error, segment_alarms)
from .errors import DataError, DivergenceError
from .lstm import (LstmParams, TrainConfig, TrainReport, bptt_gradients,
                   init_params, load_model, predict_window, predict_windows,
                   save_model, train)
from .pipeline import (LabeledTimeSeries, Scaler, SynthConfig, TimeSeries,
                       WindowSet, aggregate_counts, build_windows, fit_scaler,
                       generate_synthetic, load_series, load_tshark_csv,
                       save_series, split_protocol)

__all__ = [name for name in dir() if not name.startswith("_")]
