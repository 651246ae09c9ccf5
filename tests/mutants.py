"""A catalogue of one-line mutants of ``src/`` and the tests that kill them.

    python3 tests/mutants.py [NAME ...]

Run from the root of a checkout.  Each mutant names a file under
``src/``, an exact ``before`` text that occurs once in it, the ``after``
text that replaces it, and the test ids expected to fail on the result.
For each mutant (or only the named ones) the script copies ``src/`` to a
temporary directory, applies the mutant there, and runs its tests
against the copy with ``-x -q -p no:cacheprovider``.  A mutant is killed
when a test fails, and survives when they all pass.  The script prints one
line per mutant and a total, and exits 1 if any mutant survived.

``tests/test_mutants.py`` checks that each ``before`` text occurs
exactly once in its file and that each named test exists, so that a
change to the program that moves a mutant's text, or a renamed test,
shows in tier-1 without running any mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the root of a checkout
    before: str
    after: str
    tests: tuple[str, ...]


MUTANTS = [
    # the replay's window sum, oldest to newest as Detector.step sums it
    Mutant("rolling-sum-order", "src/synwatch/detector.py",
           "    for j in range(1, width):\n",
           "    for j in range(width - 1, 0, -1):\n",
           ("tests/test_calibration.py::TestReplayStreamingEquivalence::"
            "test_bitwise_identical_statistics_and_events",)),
    # the replay's relative error divides by at least EPSILON_FLOOR
    Mutant("replay-epsilon-floor", "src/synwatch/detector.py",
           "/ np.maximum(np.abs(actual), EPSILON_FLOOR))",
           "/ np.maximum(np.abs(actual), 1e-9))",
           ("tests/test_detect_replay.py::TestDetectMatchesStreamingDetector::"
            "test_zero_counts_use_the_epsilon_floor",)),
    # the column alarm needs dc strictly above alpha
    Mutant("column-alarm-strict", "src/synwatch/detector.py",
           "alarm = ~self.warmup & (dc > config.alpha)",
           "alarm = ~self.warmup & (dc >= config.alpha)",
           ("tests/test_detect_replay.py::TestDetectMatchesStreamingDetector::"
            "test_danger_met_exactly_does_not_fire",)),
    # so does the streaming alarm
    Mutant("detector-alarm-strict", "src/synwatch/detector.py",
           "alarm = dc > cfg.alpha and are > cfg.beta",
           "alarm = dc >= cfg.alpha and are > cfg.beta",
           ("tests/test_detect_replay.py::TestDetectMatchesStreamingDetector::"
            "test_danger_met_exactly_does_not_fire",)),
    # an event joins alarmed rows only at consecutive steps
    Mutant("event-step-join", "src/synwatch/detector.py",
           "| (np.diff(at) != 1)",
           "| (np.diff(at) < 1)",
           ("tests/test_detector.py::TestSegmentAlarms::"
            "test_step_gap_splits_event",)),
    # with no intervals the detection rate is vacuously 100
    Mutant("vacuous-rate", "src/synwatch/calibration.py",
           "    return 100.0\n",
           "    return 0.0\n",
           ("tests/test_calibration.py::TestEvaluate::"
            "test_vacuous_no_attacks_no_alarms",)),
    # intervals that share a step overlap
    Mutant("interval-overlap", "src/synwatch/calibration.py",
           "        if s2 <= e1:\n",
           "        if s2 < e1:\n",
           ("tests/test_calibration.py::TestEvaluate::"
            "test_overlapping_intervals_rejected",)),
    # a replayed step array has an integer dtype
    Mutant("replay-step-dtype", "src/synwatch/detector.py",
           'taken = steps.dtype.kind in "iu" and',
           'taken = steps.dtype.kind in "iuf" and',
           ("tests/test_calibration.py::TestReplayTrace::"
            "test_step_array_that_is_not_int64_rejected",)),
    # a replayed step sequence is read step by step, not promoted by numpy
    Mutant("replay-step-sequence", "src/synwatch/detector.py",
           "taken = all(map(_is_step, steps))",
           'taken = np.asarray(steps).dtype.kind in "iu"',
           ("tests/test_detect_replay.py::"
            "test_detector_takes_a_step_sequence_exactly_when_replay_does",)),
    # a bool is not a step
    Mutant("step-not-bool", "src/synwatch/detector.py",
           "return ((type(step) is int or",
           "return ((isinstance(step, int) or",
           ("tests/test_detector.py::TestDetectorStep::"
            "test_float_and_bool_steps_rejected_and_state_kept",)),
    # a series header is exactly one of its two forms
    Mutant("series-header-exact", "src/synwatch/pipeline.py",
           "                if header not in (",
           "                if header[:3] not in (",
           ("tests/test_cli.py::"
            "test_header_with_another_column_is_a_data_error",)),
    # a model's dimension line is exactly its two keys, in order
    Mutant("model-dims-exact", "src/synwatch/lstm.py",
           "m = _re.fullmatch(r\"input_dim=",
           "m = _re.match(r\"input_dim=",
           ("tests/test_lstm.py::TestModelFile::"
            "test_malformed_dimension_line_rejected",)),
]


def run(mutant: Mutant) -> bool:
    """Whether the mutant's tests fail on a copy of ``src/`` with it
    applied."""
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.before) != 1:
        raise SystemExit(f"{mutant.name}: before text is not in "
                         f"{mutant.path} exactly once")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        (Path(tmp) / mutant.path).write_text(
            text.replace(mutant.before, mutant.after), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    # 1: a test failed.  Any other non-zero code (a usage error, an id
    # that names no test) says nothing of the mutant.
    if result.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}"
                         f"\n{result.stdout}{result.stderr}")
    return result.returncode == 1


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    survived = []
    for mutant in chosen:
        killed = run(mutant)
        print(f"{'killed' if killed else 'SURVIVED'}  {mutant.name}",
              flush=True)
        if not killed:
            survived.append(mutant.name)
    print(f"{len(chosen) - len(survived)} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
