"""Seeded input generator for the pipeline benchmark.

Every input is made here with numpy alone, never with the package's own
synthesizer, so the program under test cannot change its own inputs.  The
same seed and sizes always give byte-identical files.

Traffic model: per-step packet counts are rounded draws from N(100, 10)
clamped at zero.  An attack is a run of 20 to 40 steps whose counts are
drawn around 100 * m, with m uniform in [1.2, 1.5] per attack: weak enough
that neither calibration nor detection saturates.  Attack runs are kept at
least 12 steps (the default window) apart and away from the series start.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_MEAN = 100.0
BASE_STD = 10.0
ATTACK_LEN = (20, 40)
ATTACK_MULTIPLIER = (1.2, 1.5)
ATTACK_GAP = 12
START = np.datetime64("2000-01-01T00:00:00", "us")
PACKET_RATE = 100.0   # packets per second in a generated capture

# Stream salts keep the inputs of different workloads independent for one
# seed.
SALT = {"train": 1, "validation": 2, "test": 3, "capture": 4, "fixture": 5}

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@dataclass
class Stream:
    """A labeled count series as written to disk."""
    counts: np.ndarray                 # float64 whole counts
    intervals: list[tuple[int, int]]   # closed attack step ranges

    @property
    def labels(self) -> np.ndarray:
        labels = np.zeros(len(self.counts), dtype=bool)
        for start, end in self.intervals:
            labels[start:end + 1] = True
        return labels


def rng_for(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, SALT[stream]])


def make_stream(rng: np.random.Generator, length: int,
                attacks: int) -> Stream:
    counts = np.rint(np.maximum(rng.normal(BASE_MEAN, BASE_STD, length), 0.0))
    lengths = rng.integers(ATTACK_LEN[0], ATTACK_LEN[1] + 1, size=attacks)
    slack = length - ATTACK_GAP * (attacks + 1) - int(lengths.sum())
    if slack < 0:
        raise ValueError(f"{attacks} attacks do not fit in {length} steps")
    offsets = np.sort(rng.integers(0, slack + 1, size=attacks))
    multipliers = rng.uniform(*ATTACK_MULTIPLIER, size=attacks)
    intervals = []
    cursor = ATTACK_GAP
    for k in range(attacks):
        start = cursor + int(offsets[k])
        end = start + int(lengths[k]) - 1
        burst = rng.normal(BASE_MEAN * multipliers[k], BASE_STD,
                           int(lengths[k]))
        counts[start:end + 1] = np.rint(np.maximum(burst, 0.0))
        intervals.append((start, end))
        cursor += int(lengths[k]) + ATTACK_GAP
    return Stream(counts=counts, intervals=intervals)


def write_series(path: Path, stream: Stream, labeled: bool) -> None:
    """Series CSV ``step,timestamp,count[,label]`` at a 1-second cadence."""
    n = len(stream.counts)
    stamps = np.datetime_as_string(
        START + np.arange(n) * np.timedelta64(1, "s"), unit="s").tolist()
    counts = stream.counts.astype(np.int64).tolist()
    if labeled:
        tags = np.where(stream.labels, "attack", "normal").tolist()
        rows = [f"{i},{t},{c},{g}"
                for i, t, c, g in zip(range(n), stamps, counts, tags)]
        header = "step,timestamp,count,label"
    else:
        rows = [f"{i},{t},{c}" for i, t, c in zip(range(n), stamps, counts)]
        header = "step,timestamp,count"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


@dataclass
class Capture:
    """What the ingest stage should make of a generated capture."""
    rows: int
    malformed: int
    start_iso: str
    end_iso: str
    in_range: int     # valid rows with start <= timestamp < end
    steps: int


def _tshark_text(us: np.ndarray) -> list[str]:
    """tshark's default frame.time form, with nanosecond digits."""
    stamps = us.astype("datetime64[us]")
    days = stamps.astype("datetime64[D]")
    months = stamps.astype("datetime64[M]")
    years = stamps.astype("datetime64[Y]").astype(np.int64) + 1970
    mon = (months.astype(np.int64) % 12)
    day = (days - months.astype("datetime64[D]")).astype(np.int64) + 1
    tod = (stamps - days.astype("datetime64[us]")).astype(np.int64)
    secs, frac = np.divmod(tod, 1_000_000)
    hh, rem = np.divmod(secs, 3600)
    mm, ss = np.divmod(rem, 60)
    return [f"{_MONTHS[m]} {d:2d}, {y} {h:02d}:{mi:02d}:{s:02d}.{f:06d}000 UTC"
            for m, d, y, h, mi, s, f in zip(
                mon.tolist(), day.tolist(), years.tolist(), hh.tolist(),
                mm.tolist(), ss.tolist(), frac.tolist())]


def write_capture(path: Path, rng: np.random.Generator, rows: int) -> Capture:
    """A tshark field export (``-E quote=d``) of ``rows`` packets.

    Half the timestamps are ISO-8601 and half tshark text.  About 1% of
    rows are swapped with their successor, so the file is out of time
    order there.  About 0.1% of rows are malformed in one of four ways,
    each of which the ingest stage must reject.
    """
    duration_us = int(rows / PACKET_RATE * 1e6)
    offsets = np.sort(rng.integers(0, duration_us, size=rows))
    swap = np.flatnonzero(rng.random(rows - 1) < 0.01)
    swap = swap[np.diff(np.concatenate(([-2], swap))) > 1]  # disjoint pairs
    offsets[swap], offsets[swap + 1] = offsets[swap + 1], offsets[swap].copy()

    us = START.astype(np.int64) + offsets
    iso = np.datetime_as_string(us.astype("datetime64[us]"), unit="us")
    text = _tshark_text(us)
    use_iso = (rng.random(rows) < 0.5).tolist()
    stamps = [i if u else t for i, t, u in zip(iso.tolist(), text, use_iso)]
    lengths = rng.integers(54, 1515, size=rows).tolist()

    bad = np.flatnonzero(rng.random(rows) < 0.001)
    kinds = rng.integers(0, 4, size=len(bad))
    lines = ['"frame.number","frame.len","frame.time","ip.proto"']
    lines += [f'"{k + 1}","{n}","{s}","6"'
              for k, (n, s) in enumerate(zip(lengths, stamps))]
    for k, kind in zip(bad.tolist(), kinds.tolist()):
        if kind == 0:
            lines[k + 1] = f'"{k + 1}","{lengths[k]}"'
        elif kind == 1:
            lines[k + 1] = f'"{k + 1}","-{lengths[k]}","{stamps[k]}","6"'
        elif kind == 2:
            lines[k + 1] = f'"{k + 1}","{lengths[k]}","not a time","6"'
        else:
            lines[k + 1] = f'"{k + 1}","x{lengths[k]}","{stamps[k]}","6"'
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # The ingest range drops the first and last ~2% of the capture.
    lo_s = int(duration_us * 0.02 // 1_000_000)
    hi_s = int(duration_us * 0.98 // 1_000_000)
    valid = np.ones(rows, dtype=bool)
    valid[bad] = False
    lo_us = START.astype(np.int64) + lo_s * 1_000_000
    hi_us = START.astype(np.int64) + hi_s * 1_000_000
    in_range = int(np.sum(valid & (us >= lo_us) & (us < hi_us)))
    iso_of = lambda s: str(START + np.timedelta64(s, "s"))  # noqa: E731
    return Capture(rows=rows, malformed=len(bad), start_iso=iso_of(lo_s),
                   end_iso=iso_of(hi_s), in_range=in_range,
                   steps=hi_s - lo_s)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
