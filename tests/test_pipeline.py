"""Ingestion, aggregation, scaling, windowing, splitting, synthesis, IO."""

import csv
import io
import re
import tempfile
import tracemalloc
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingest_oracle import load_tshark_csv_per_row
from series_oracle import load_series_per_row
from synwatch import pipeline
from synwatch import _bulk
from synwatch.detector import DetectorConfig
from synwatch.errors import DataError
from synwatch.lstm import TrainConfig
from synwatch.pipeline import (EPOCH, LabeledTimeSeries, Scaler, SynthConfig,
                               TimeSeries, _parse_timestamp, aggregate_counts,
                               build_windows,
                               fit_scaler, generate_synthetic,
                               intervals_from_labels, load_scaler, load_series, load_tshark_csv,
                               save_scaler, save_series, scale_windows,
                               split_protocol)

T0 = datetime(1999, 3, 11, 8, 0, 0)

TSHARK_HEADER = "frame.number,frame.len,frame.time,ip.proto"


def tshark_csv(rows):
    return TSHARK_HEADER + "\n" + "\n".join(rows) + "\n"


def load_capture(text, load=load_tshark_csv):
    """``load`` of a capture file that holds ``text`` in UTF-8."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "capture.csv"
        path.write_bytes(text.encode("utf-8"))
        return load(path)


def us(when: datetime) -> int:
    """Microseconds since the ingest epoch."""
    return (when - EPOCH) // timedelta(microseconds=1)


class TestLoadTsharkCsv:
    def test_three_valid_rows(self):
        text = tshark_csv([
            '1,60,"Mar 11, 1999 08:00:00.000001000",6',
            '2,60,"Mar 11, 1999 08:00:00.500000000",6',
            '3,1500,"Mar 11, 1999 08:00:01.250000000 GMT",6',
        ])
        result = load_capture(text)
        assert not result.rejected
        assert result.timestamps_us.dtype == np.int64
        np.testing.assert_array_equal(result.timestamps_us, [
            us(T0) + 1, us(T0) + 500_000, us(T0) + 1_250_000])

    def test_iso_timestamps_accepted(self):
        text = tshark_csv(["1,60,1999-03-11T08:00:05.125,6",
                           "2,70,1999-03-11 08:00:06,17",
                           "3,70,1999-03-11T10:00:07.5+02:00,17",
                           "4,70,1999-03-11T08:00:08.25Z,17"])
        result = load_capture(text)
        assert not result.rejected
        np.testing.assert_array_equal(result.timestamps_us, [
            us(T0) + 5_125_000, us(T0) + 6_000_000, us(T0) + 7_500_000,
            us(T0) + 8_250_000])

    def test_fraction_truncated_to_microseconds(self):
        text = tshark_csv(['1,60,"Mar 11, 1999 08:00:00.1234569 UTC",6',
                           '2,60,"Mar 11, 1999 08:00:00.5",6',
                           '3,60,"Mar 11, 1999 08:00:00",6',
                           "4,60,1999-03-11T08:00:01.9999999,6"])
        result = load_capture(text)
        np.testing.assert_array_equal(result.timestamps_us - us(T0),
                                      [0, 123_456, 500_000, 1_999_999])

    def test_empty_file_is_missing_header(self):
        with pytest.raises(DataError, match="missing header"):
            load_capture("")

    @pytest.mark.parametrize("text, where", [
        (tshark_csv(["1,60,1999-03-11T08:00:05,6",
                     f'2,60,"{"x" * 200_000}",6']), "row 2: "),
        ('"' + "x" * 200_000 + '"\n', "header: ")])
    def test_field_past_csv_size_limit_is_data_error(self, text, where):
        with pytest.raises(DataError, match=where + "field larger"):
            load_capture(text)

    @pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"])
    def test_path_that_is_not_utf8_is_data_error(self, tmp_path, bad):
        # a byte no UTF-8 text holds, or an encoded surrogate, in a line
        # that the csv module reads
        head = tshark_csv(["1,60,1999-03-11T08:00:01,6"]).encode()
        path = tmp_path / "packets.csv"
        path.write_bytes(head + b"2,60," + bad + b",6\n")
        with pytest.raises(DataError, match=(
                f"not UTF-8 text: byte 0x{bad[0]:02x} at offset "
                f"{len(head) + 5}")):
            load_tshark_csv(path)

    def test_wrong_header_rejected(self):
        with pytest.raises(DataError, match="missing header"):
            load_capture("a,b,c\n1,2,3\n")

    def test_malformed_timestamp_rejected_with_row_number(self):
        rows = [f'{i},60,"Mar 11, 1999 08:00:{i:02d}.000000000",6'
                for i in range(1, 10)]
        rows.insert(4, '99,60,"not a timestamp",6')
        result = load_capture(tshark_csv(rows))
        assert len(result.timestamps_us) == 9
        assert result.rejected == [
            (5, "unrecognized timestamp: 'not a timestamp'")]
        assert result.rejected_by_reason["bad_timestamp"] == 1

    def test_records_sorted_by_timestamp(self):
        text = tshark_csv(["2,60,1999-03-11T08:00:02,6",
                           '1,60,"Mar 11, 1999 08:00:01.000000000",6',
                           "3,60,1999-03-11T08:00:03,6",
                           "4,60,1999-03-11T08:00:01,6"])
        result = load_capture(text)
        np.testing.assert_array_equal(
            result.timestamps_us - us(T0),
            [1_000_000, 1_000_000, 2_000_000, 3_000_000])

    def test_short_row_rejected(self):
        text = tshark_csv(["1,60,1999-03-11T08:00:01,6", "2,60"])
        result = load_capture(text)
        assert len(result.timestamps_us) == 1
        assert result.rejected == [(2, "expected >= 4 fields, got 2")]
        assert result.rejected_by_reason["short_row"] == 1

    def test_rejections_counted_by_reason(self):
        good = "1999-03-11T08:00:01"
        rows = [f"1,60,{good},6",
                "2,60",                          # short row
                f"x3,60,{good},6",               # bad frame.number
                f"4, 6 0 ,{good},6",             # bad frame.len
                f"5,60,{good},tcp",              # bad ip.proto
                "6,60,1999-02-30T08:00:01,6",    # no such day
                f"7,-60,{good},6",               # negative frame.len
                "8,-60,bad,6",                   # the timestamp fails first
                "x9,60,bad,6",                   # the integer fails first
                f"10,-60,{good},udp",            # ip.proto fails first
                "11,60,0001-01-01T00:00:00+01:00,6",
                "",                              # blank lines are skipped
                f"13,60,{good},6"]
        result = load_capture(tshark_csv(rows))
        assert len(result.timestamps_us) == 2
        assert result.rejected == [
            (2, "expected >= 4 fields, got 2"),
            (3, "invalid literal for int() with base 10: 'x3'"),
            (4, "invalid literal for int() with base 10: '6 0'"),
            (5, "invalid literal for int() with base 10: 'tcp'"),
            (6, "unrecognized timestamp: '1999-02-30T08:00:01'"),
            (7, "negative frame.len"),
            (8, "unrecognized timestamp: 'bad'"),
            (9, "invalid literal for int() with base 10: 'x9'"),
            (10, "invalid literal for int() with base 10: 'udp'"),
            (11, "timestamp out of range in UTC: "
                 "'0001-01-01T00:00:00+01:00'"),
        ]
        assert result.rejected_by_reason == {
            "short_row": 1, "bad_integer": 5, "bad_timestamp": 3,
            "negative_length": 1}

    def test_nothing_accepted_gives_empty_array(self):
        result = load_capture(tshark_csv(["1,60"]))
        assert result.timestamps_us.dtype == np.int64
        assert result.timestamps_us.shape == (0,)

    def test_load_peak_grows_with_the_timestamps_only(self, tmp_path):
        def row(i):
            when = T0 + timedelta(microseconds=1000 * i + i * 7919 % 997)
            stamp = (when.isoformat() if i % 2 else
                     f'"{when:%b %d, %Y %H:%M:%S}.{when:%f}000 UTC"')
            return f"{i + 1},60,{stamp},6"
        peaks = {}
        for n in (20_000, 80_000):
            path = tmp_path / f"capture{n}.csv"
            path.write_text(tshark_csv(row(i) for i in range(n)))
            with mock.patch.object(pipeline, "_BLOCK_BYTES", 1 << 16):
                load_tshark_csv(path)
                tracemalloc.start()
                try:
                    result = load_tshark_csv(path)
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert len(result.timestamps_us) == n and not result.rejected
            text_per_row = path.stat().st_size / n
        # the timestamps (8 bytes a row), a few times over while the
        # blocks' arrays are joined and sorted, but less than the text,
        # about 40 bytes a row
        per_row = (peaks[80_000] - peaks[20_000]) / 60_000
        assert per_row < 3 * result.timestamps_us.itemsize < text_per_row


MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
          "Oct", "Nov", "Dec")


@st.composite
def timestamp_stems(draw):
    """A timestamp text with a slot for its fraction: ISO-8601 or tshark's
    frame.time, now and then with a field out of range or the seconds
    left out, ``.`` or ``,`` before the fraction, and a zone suffix that is
    empty, ``Z``, an offset (with seconds and a fraction, too) or a name."""
    year = draw(st.sampled_from([1, 1969, 1970, 1999, 2000, 2024, 9999]))
    fields = [draw(st.integers(1, 12)), draw(st.integers(1, 31)),
              draw(st.integers(0, 23)), draw(st.integers(0, 59)),
              draw(st.integers(0, 59))]
    broken = draw(st.integers(0, 14))
    if broken < len(fields):
        fields[broken] = draw(st.sampled_from(([0, 13], [0, 32], [24],
                                               [60], [60])[broken]))
    month, day, hour, minute, second = fields
    clock = f"{hour:02d}:{minute:02d}"
    if draw(st.integers(0, 5)):
        clock += f":{second:02d}"
    if draw(st.booleans()):
        sep = draw(st.sampled_from("T "))
        head = f"{year:04d}-{month:02d}-{day:02d}{sep}{clock}"
        zones = ["", "Z", "+02:00", "-05:30", "+23:59", "+24:00",
                 "+02:00:00.5", "-01:00:30", " UTC"]
    else:
        name = MONTHS[month - 1] if 1 <= month <= 12 else "Foo"
        head = f"{name} {day:2d}, {year:04d} {clock}"
        zones = ["", " UTC", " GMT", " CEST", " America/New_York", " +0100",
                 "Z", "+02:00"]
    mark = draw(st.sampled_from("..,"))
    return head, mark, draw(st.sampled_from(zones))


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"error: {exc}"


def bulk_timestamps(texts):
    """``_bulk.timestamps`` of ``texts``, as the fields of one block of
    bytes, one line each."""
    fields = [text.encode("utf-8", "surrogatepass") for text in texts]
    data = b"".join(field + b"\n" for field in fields)
    lengths = np.array([len(field) for field in fields], dtype=np.int64)
    stops = np.cumsum(lengths + 1) - 1
    starts = stops - lengths
    return _bulk.timestamps(data, data.translate(_bulk._CLASS), starts, stops)


def bulk(text):
    """The byte path's microseconds for one text, or None when it leaves
    the text to ``_parse_timestamp``."""
    read, stamps = bulk_timestamps([text])
    return int(stamps[0]) if read[0] else None


def full(text):
    return us(_parse_timestamp(text))


class TestTimestampParser:
    """The byte path's timestamp reader against the full parse."""

    @settings(max_examples=500)
    @given(stems=st.lists(timestamp_stems(), min_size=1, max_size=4),
           picks=st.lists(st.tuples(st.integers(0, 3),
                                    st.text("0123456789", max_size=13)),
                          min_size=1, max_size=25))
    def test_equals_full_parse(self, stems, picks):
        # the fields of one block, read together as the loader reads them
        texts = []
        for index, digits in picks:
            head, mark, zone = stems[index % len(stems)]
            texts.append(head + (mark + digits if digits else "") + zone)
        read, stamps = bulk_timestamps(texts)
        for text, was_read, stamp in zip(texts, read, stamps):
            if was_read:
                assert int(stamp) == outcome(full, text), text

    @pytest.mark.parametrize("text", [
        "1999-03-11T08:00:01", "1999-03-11T08:00:01.250000",
        "0001-01-01T00:00:00", "9999-12-31T23:59:59.999999",
        "2000-02-29T00:00:00", "2004-02-29T23:59:59.000001",
        "Mar 11, 1999 08:00:01.250000999", "Mar  1, 1999 08:00:01.000000000",
        "Mar 01, 1999 08:00:01.000000000 UTC",
        "Dec 31, 9999 23:59:59.999999999",
        "Jan  1, 0001 00:00:00.000000000 CET", "Feb 29, 2000 12:00:00.5000000"
        "00 America/New_York", "Oct 30, 2022 01:30:00.000000000 +0100",
        "Oct 30, 2022 01:30:00.000000000 Etc/GMT-5"])
    def test_reads_the_common_forms(self, text):
        assert bulk(text) == full(text)

    def test_seconds_and_zones_read_apart(self):
        texts = [f"Mar 11, 1999 08:00:{s:02d}.250000000{zone}"
                 for s in (1, 2, 11, 1) for zone in ("", " UTC", " CET")]
        read, stamps = bulk_timestamps(texts)
        assert read.all()
        assert stamps.tolist() == [full(t) for t in texts]

    @pytest.mark.parametrize("text", [
        # valid, but not in a fixed-width form
        "Mar 11, 1999 08:00:01.25", "Mar 1, 1999 08:00:01.000000000",
        "Mar  1, 1999 8:00:01.000000000", "1999-03-11 08:00:01",
        "1999-03-11T08:00:01.25", "1999-03-11T08:00:01Z",
        " 1999-03-11T08:00:01", "1999-03-11T08:00:01\n",
        "Mar  1, 1999 08:00:01.000000000  UTC",
        "Mar  ٣, 1999 08:00:01.000000000",
        # invalid
        "١٩٩٩-03-11T08:00:01",
        "Mar 11, 1999 08:00:00.5x UTC", "Mar 11, 1999 08:00:00. UTC",
        "Mar 11, 1999 08:00:00.000000000 U!C", "1999-02-30T08:00:01",
        "1900-02-29T00:00:00", "Feb 29, 1900 00:00:00.000000000",
        "Feb 30, 2004 00:00:00.000000000", "0000-01-01T00:00:00",
        "Jan  1, 0000 00:00:00.000000000", "1999-03-11T24:00:00",
        "1999-03-11T23:59:60", "Mar 11, 1999 24:00:00.000000000",
        "Mar 11, 1999 23:60:00.000000000", "jan 11, 1999 08:00:00.000000000",
        "Mar  0, 1999 08:00:00.000000000", "1999-00-11T08:00:00",
        "1999-13-11T08:00:00", "Mar 11, 1999 08:00:0\x00.000000000",
        "1999-03-11T08:00:0\x00", "1999-03-1１T08:00:00",
        "1999-03-1²T08:00:00"])
    def test_leaves_other_texts_to_the_parser(self, text):
        assert bulk(text) is None

    def test_bad_text_with_a_known_prefix_is_still_rejected(self):
        rows = ['1,60,"Mar 11, 1999 08:00:00.500000000 UTC",6',
                '2,60,"Mar 11, 1999 08:00:00.5x UTC",6',
                '3,60,"Mar 11, 1999 08:00:00. UTC",6']
        result = load_capture(tshark_csv(rows))
        assert result.timestamps_us.tolist() == [us(T0) + 500_000]
        assert result.rejected == [
            (2, "unrecognized timestamp: 'Mar 11, 1999 08:00:00.5x UTC'"),
            (3, "unrecognized timestamp: 'Mar 11, 1999 08:00:00. UTC'")]

    def test_python_floor_reads_every_iso_form(self):
        # forms that Python 3.10's datetime.fromisoformat rejects, so the
        # package may not claim to run on 3.10
        assert [_parse_timestamp(text) for text in (
            "2024-03-05T06:07:08Z", "2024-03-05T06:07:08.1",
            "20240305T060708")] == [datetime(2024, 3, 5, 6, 7, 8),
                                    datetime(2024, 3, 5, 6, 7, 8, 100_000),
                                    datetime(2024, 3, 5, 6, 7, 8)]
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        assert 'requires-python = ">=3.11"\n' in pyproject.read_text()


#: Fields the byte path's integer check must leave to ``int()``: a sign,
#: spaces, an underscore, non-ASCII digits (``int`` takes the first two), a
#: digit that is not decimal, a NUL, nothing, and lengths at and past its
#: limits.
ODD_INTEGERS = ["+5", " 5", "5 ", "5_0", "-5", "٣", "１", "²", "\x00", "",
                "x7", "9" * 18, "9" * 19, "1" * 4301]

#: Timestamps on the edges of the byte path's timestamp forms.
ODD_TIMESTAMPS = [
    "1900-02-29T00:00:00", "2000-02-29T00:00:00", "2004-02-29T00:00:00",
    "2004-02-30T00:00:00", "Feb 29, 1900 00:00:00.000000000 UTC",
    "Feb 29, 2000 00:00:00.000000000", "Feb 29, 2004 00:00:00.000000000 CET",
    "Feb 30, 2004 00:00:00.000000000", "0000-01-01T00:00:00",
    "0001-01-01T00:00:00", "9999-12-31T23:59:59.999999",
    "Jan  1, 0000 00:00:00.000000000", "Jan  1, 0001 00:00:00.000000000",
    "Dec 31, 9999 23:59:59.999999999 UTC", "2024-01-01T24:00:00",
    "2024-01-01T23:59:60", "Jan  1, 2024 24:00:00.000000000",
    "Jan  1, 2024 23:59:60.000000000 UTC", "jan  1, 2024 00:00:00.000000000",
    "Jan 1, 2024 00:00:00.000000000", "Jan 1, 2024 00:00:00.000000000 UTC",
    "0001-01-01T00:00:00+01:00"]


def with_char_at_digit(text, char, nth):
    """``text`` with its ``nth`` ASCII digit (mod their count) replaced."""
    digits = [i for i, c in enumerate(text) if c in "0123456789"]
    at = digits[nth % len(digits)]
    return text[:at] + char + text[at + 1:]


ODD_TIMESTAMPS += [with_char_at_digit(base, char, nth)
                   for base in ("2024-03-05T06:07:08.123456",
                                "Mar  5, 2024 06:07:08.123456789 UTC")
                   for char in ("\x00", "٣", "１", "²")
                   for nth in (0, 5, 7, 13)]


@st.composite
def timestamp_fields(draw):
    kind = draw(st.integers(0, 3))
    if kind == 0:
        head, mark, zone = draw(timestamp_stems())
        digits = draw(st.text("0123456789", max_size=10))
        return head + (mark + digits if digits else "") + zone
    if kind == 1:
        return draw(st.sampled_from(ODD_TIMESTAMPS))
    when = EPOCH + timedelta(microseconds=draw(st.integers(
        us(datetime(1, 1, 1)), us(datetime(9999, 12, 31, 23, 59, 59)))))
    if kind == 2:
        return when.isoformat()
    zone = draw(st.sampled_from(["", " UTC", " CET", " America/New_York",
                                 " +0100", " Etc/GMT-5"]))
    return (f"{MONTHS[when.month - 1]} {when.day:2d}, {when.year:04d} "
            f"{when:%H:%M:%S}.{when.microsecond:06d}"
            f"{draw(st.text('0123456789', min_size=3, max_size=3))}{zone}")


integer_fields = st.one_of(st.integers(0, 99_999).map(str),
                           st.sampled_from(ODD_INTEGERS))


#: Lines written as they stand: quotes inside or after a field, a quoted
#: field that runs on into the next line, a lone carriage return, a NUL and
#: text that is not ASCII.
RAW_LINES = ['1,6"0,2024-03-05T06:07:08,6', '"1"x,60,2024-03-05T06:07:08,6',
             '"1","60","2024-03-05T06:07:08 ,"6"', '1,"60" ,2024,6',
             '1,"60,2024-03-05T06:07:08', '6",1',
             '1,60\r2024-03-05T06:07:08,6',
             '1,6\x000,2024-03-05T06:07:08,6', 'ü,60,2024-03-05T06:07:08,6',
             '"1","60","2024-03-05T06:07:08","6"\r', '"', '""', ',,,']

#: Extra trailing fields that the csv module must quote: a comma, line
#: ends, a quote, text that is not ASCII, a NUL.
QUOTED_EXTRAS = ["10.0.0.1,2", "a\nb", "a\r\nb", "a\rb", 'say "hi"', "hôte",
                 "\x00", ""]


@st.composite
def captures(draw):
    """A tshark export as text: the four fields in any order, maybe with
    another column; rows unquoted, all quoted or mixed; ``\n`` or ``\r\n``
    line ends, with or without a final one.  Rows may be blank or short,
    odd in any field, carry an extra field the csv module must quote, be
    one of ``RAW_LINES`` or a lone ``\r``, or hold a field past the csv
    module's size limit."""
    names = draw(st.permutations(pipeline.TSHARK_FIELDS + ("ip.src",)))
    if draw(st.booleans()):
        names = [name for name in names if name != "ip.src"]
    out = io.StringIO()
    end = draw(st.sampled_from(["\n", "\r\n"]))
    writers = [csv.writer(out, lineterminator=end, quoting=quoting)
               for quoting in draw(st.sampled_from(
                   [[csv.QUOTE_MINIMAL], [csv.QUOTE_ALL],
                    [csv.QUOTE_MINIMAL, csv.QUOTE_ALL]]))]

    def write(row):
        writers[draw(st.integers(0, len(writers) - 1))].writerow(row)

    write(names)
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 40))
        if kind == 0:
            write([])
        elif kind == 1:
            write(["1"] * draw(st.integers(1, len(names) - 1)))
        elif kind == 2:
            out.write('"' + "9" * 131_073 + '"' + end)
        elif kind == 3:
            out.write(draw(st.sampled_from(RAW_LINES + ["\r"])) + end)
        else:
            fields = {"frame.number": draw(integer_fields),
                      "frame.len": draw(integer_fields),
                      "frame.time": draw(timestamp_fields()),
                      "ip.proto": draw(integer_fields),
                      "ip.src": "10.0.0.1"}
            row = [fields[name] for name in names]
            if kind == 4:
                row.append(draw(st.sampled_from(QUOTED_EXTRAS)))
            write(row)
    text = out.getvalue()
    if draw(st.booleans()):
        text = text.removesuffix(end)
    return text


def loaded(load, text):
    try:
        result = load_capture(text, load)
    except DataError as exc:
        return f"data error: {exc}"
    assert result.timestamps_us.dtype == np.int64
    return (result.timestamps_us.tolist(), result.rejected,
            result.rejected_by_reason)


#: Block sizes from one byte, where every line straddles blocks, to the
#: loader's own.
BLOCK_SIZES = [1, 2, 7, 16, 64, 4096, pipeline._BLOCK_BYTES]


def loaded_in_blocks(block, text):
    with mock.patch.object(pipeline, "_BLOCK_BYTES", block):
        return loaded(load_tshark_csv, text)


class TestBulkMatchesPerRowReader:
    """``load_tshark_csv`` against ``ingest_oracle``'s per-row reader:
    the same timestamps, rejected rows, messages and counts by reason,
    whatever the block size."""

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @settings(max_examples=100)
    @given(text=captures())
    def test_random_captures(self, block, text):
        assert loaded_in_blocks(block, text) == loaded(
            load_tshark_csv_per_row, text)

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_listed_rows(self, block):
        good = "2024-03-05T06:07:08.123456"
        rows = [["1", "60", ts, "6"] for ts in ODD_TIMESTAMPS]
        for odd in ODD_INTEGERS:
            rows += [[odd, "60", good, "6"], ["1", odd, good, "6"],
                     ["1", "60", good, odd], []]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            [list(pipeline.TSHARK_FIELDS)] + rows)
        got = loaded_in_blocks(block, out.getvalue())
        assert got == loaded(load_tshark_csv_per_row, out.getvalue())
        stamps, rejected, by_reason = got
        assert len(stamps) == len(rows) - len(ODD_INTEGERS) - len(rejected)
        # in each integer column: "²", NUL, "", "x7" and 4,301 digits
        assert by_reason["bad_integer"] == 15
        assert by_reason["negative_length"] == 1  # frame.len "-5"
        messages = dict(rejected)
        # 29 February exists in 2000 and 2004 only, in either form
        assert [row in messages for row in range(1, 9)] == [
            True, False, False, True, True, False, False, True]
        # the 4,301-digit frame.number fails int()'s digit limit
        assert "Exceeds the limit (4300 digits)" in messages[
            len(ODD_TIMESTAMPS) + 4 * (len(ODD_INTEGERS) - 1) + 1]

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("text, stamps, rejected", [
        # header only, with and without a final line end
        (TSHARK_HEADER + "\n", 0, []), (TSHARK_HEADER, 0, []),
        # no final line end; \r\n line ends; blank lines
        (tshark_csv(["1,60,2024-03-05T06:07:08,6"]).rstrip("\n"), 1, []),
        ("\r\n".join([TSHARK_HEADER, "", "1,60,2024-03-05T06:07:08,6", "",
                      '"2","60","2024-03-05T06:07:09","6"', ""]), 2, []),
        # a lone \r ends a row, here the header and a data row
        (TSHARK_HEADER + "\r1,60,2024-03-05T06:07:08,6\r2,60\n", 1,
         [(2, "expected >= 4 fields, got 2")]),
        # a NUL, text that is not ASCII
        (tshark_csv(["1,6\x000,2024-03-05T06:07:08,6",
                     "1,60,2024-03-05T06:07:08,6,hôte",
                     "٣,60,2024-03-05T06:07:08,6"]), 2,
         [(1, "invalid literal for int() with base 10: '6\\x000'")]),
        # a NUL as the date-time separator or after the seconds, which
        # datetime.fromisoformat would take
        (tshark_csv(["1,60,2024-03-05\x0006:07:08,6",
                     "2,60,2024-03-05T06:07:08\x00,6",
                     '3,60,"2024-03-05T06:07:08\x00",6']), 0,
         [(1, "unrecognized timestamp: '2024-03-05\\x0006:07:08'"),
          (2, "unrecognized timestamp: '2024-03-05T06:07:08\\x00'"),
          (3, "unrecognized timestamp: '2024-03-05T06:07:08\\x00'")]),
        # quoted fields holding a comma or a line end
        (tshark_csv(['1,60,"2024-03-05T06:07:08",6,"a,b"',
                     '2,60,2024-03-05T06:07:09,6,"a\nb"',
                     '3,60,"2024-03-05',
                     'T06:07:10",6']), 2,
         [(3, "unrecognized timestamp: '2024-03-05\\nT06:07:10'")]),
        # a quote inside an unquoted field, which the csv module keeps as
        # text: the comma after it still ends the field, so frame.number
        # is '1"', not 60
        ("ip.src," + TSHARK_HEADER + '\na"b,1",60,60,2024-03-05T06:07:08,6\n'
         '2",60,60,2024-03-05T06:07:08,6\n', 1,
         [(1, "invalid literal for int() with base 10: '1\"'")]),
        # a quoted field left open at the end of the capture runs to its
        # end, closing quote and all
        ("frame.number,frame.len,ip.proto,frame.time\n"
         '1,60,6,"2024-03-05T06:07:089', 0,
         [(1, "unrecognized timestamp: '2024-03-05T06:07:089'")]),
        # a header that opens a quoted field, so that every row after it
        # goes through the csv module
        ('"frame.number\n",frame.len,frame.time,ip.proto\n'
         "1,60,2024-03-05T06:07:08,6\n2,60,2024-03-05T06:07:09,x\n", 1,
         [(2, "invalid literal for int() with base 10: 'x'")])])
    def test_listed_captures(self, block, text, stamps, rejected):
        got = loaded_in_blocks(block, text)
        assert got == loaded(load_tshark_csv_per_row, text)
        assert (len(got[0]), got[1]) == (stamps, rejected)

    def test_timestamp_with_a_nul_is_a_bad_timestamp(self):
        text = tshark_csv(["1,60,2024-03-05\x0006:07:08,6",
                           "2,60,2024-03-05T06:07:08\x00,6",
                           "3,60,2024-03-05T06:07:08,6"])
        for load in (load_tshark_csv, load_tshark_csv_per_row):
            stamps, _, by_reason = loaded(load, text)
            assert len(stamps) == 1
            assert by_reason["bad_timestamp"] == 2

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    @pytest.mark.parametrize("bad_row", [1, 2, 3, 7, 8, 9])
    def test_csv_error_names_its_row(self, block, bad_row):
        rows = ['1,60,2024-03-05T06:07:08,6'] * 9
        rows[bad_row - 1] = '1,60,"' + "9" * 131_073 + '",6'
        text = tshark_csv(rows[:4] + [""] + rows[4:])
        row_no = bad_row + (bad_row > 4)
        got = loaded_in_blocks(block, text)
        assert got == loaded(load_tshark_csv_per_row, text) == (
            f"data error: row {row_no}: field larger than field limit "
            "(131072)")

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_long_field_in_a_column_not_read(self, block):
        # a line with the header's field count is still read by the csv
        # module when one of its fields may pass the csv size limit
        text = (TSHARK_HEADER + ",ip.src\n1,60,2024-03-05T06:07:08,6,"
                + "1" * 131_073 + "\n")
        assert loaded_in_blocks(block, text) == loaded(
            load_tshark_csv_per_row, text) == (
            "data error: row 1: field larger than field limit (131072)")


class TestAggregateCounts:
    @staticmethod
    def stamps(offsets_seconds):
        return np.array([us(T0 + timedelta(seconds=s))
                         for s in offsets_seconds], dtype=np.int64)

    def test_no_records_gives_zeros(self):
        series = aggregate_counts(np.zeros(0, dtype=np.int64), 1_000_000,
                                  T0, T0 + timedelta(seconds=10))
        np.testing.assert_array_equal(series.values, np.zeros(10))

    def test_counts_land_in_their_step(self):
        series = aggregate_counts(self.stamps([2.1, 2.5, 2.9, 2.0, 2.999]),
                                  1_000_000, T0, T0 + timedelta(seconds=4))
        np.testing.assert_array_equal(series.values, [0, 0, 5, 0])
        assert series.values.dtype == np.float64

    def test_conservation_on_uniform_fixture(self):
        rng = np.random.default_rng(100)
        offsets = rng.uniform(0, 100, size=1000)
        series = aggregate_counts(self.stamps(offsets), 1_000_000,
                                  T0, T0 + timedelta(seconds=100))
        assert len(series) == 100
        assert series.values.sum() == 1000

    def test_out_of_range_records_ignored(self):
        series = aggregate_counts(self.stamps([-0.5, 0.5, 9.5, 10.5]),
                                  1_000_000, T0, T0 + timedelta(seconds=10))
        np.testing.assert_array_equal(series.values,
                                      [1, 0, 0, 0, 0, 0, 0, 0, 0, 1])

    def test_range_edges(self):
        # start is inside the range and end is not, to the microsecond
        start_us, end_us = us(T0), us(T0) + 3_000_000
        stamps = np.array([start_us - 1, start_us, end_us - 1, end_us])
        series = aggregate_counts(stamps, 1_000_000, T0,
                                  T0 + timedelta(seconds=3))
        np.testing.assert_array_equal(series.values, [1, 0, 1])

    def test_partial_last_step(self):
        series = aggregate_counts(self.stamps([2.4]), 1_000_000,
                                  T0, T0 + timedelta(seconds=2.5))
        assert len(series) == 3
        assert series.values[2] == 1

    def test_step_longer_than_range(self):
        series = aggregate_counts(self.stamps([0.5, 1.5]), 10**19,
                                  T0, T0 + timedelta(seconds=2))
        np.testing.assert_array_equal(series.values, [2])

    @settings(max_examples=100)
    @given(offsets=st.lists(st.integers(-5_000, 50_000), max_size=60),
           step_us=st.integers(1, 7_000), total_us=st.integers(1, 40_000))
    def test_equals_per_packet_count(self, offsets, step_us, total_us):
        end = T0 + timedelta(microseconds=total_us)
        series = aggregate_counts(np.array(offsets, dtype=np.int64) + us(T0),
                                  step_us, T0, end)
        expected = np.zeros(-(-total_us // step_us))
        for offset in offsets:
            if 0 <= offset < total_us:
                expected[offset // step_us] += 1
        np.testing.assert_array_equal(series.values, expected)

    def test_preconditions(self):
        for step in (0, -1, 1.0, np.nan, None):
            with pytest.raises(ValueError, match="step_us must be"):
                aggregate_counts([], step, T0, T0 + timedelta(seconds=1))
        with pytest.raises(ValueError, match="start must precede end"):
            aggregate_counts([], 1_000_000, T0, T0)


class TestScaler:
    def test_basic_min_max(self):
        scaler = fit_scaler(TimeSeries(T0, 1_000_000, [0.0, 5.0, 10.0]))
        assert scaler.offset == 0.0 and scaler.scale == 10.0
        np.testing.assert_allclose(scaler.apply([0, 5, 10]), [0, 0.5, 1])

    def test_constant_series_rule(self):
        scaler = fit_scaler(TimeSeries(T0, 1_000_000, [7.0, 7.0, 7.0]))
        assert scaler.offset == 7.0 and scaler.scale == 1.0
        np.testing.assert_array_equal(scaler.apply([7.0, 7.0]), [0.0, 0.0])

    def test_round_trip_identity(self, rng):
        values = rng.uniform(0, 500, size=200)
        scaler = fit_scaler(TimeSeries(T0, 1_000_000, values))
        back = scaler.invert(scaler.apply(values))
        np.testing.assert_allclose(back, values, rtol=1e-12)

    @settings(max_examples=200)
    @given(y=st.floats(-1e6, 1e6), offset=st.floats(-1e6, 1e6),
           scale=st.floats(1e-300, 1e6))
    def test_scalar_invert_equals_array_path(self, y, offset, scale):
        scaler = Scaler(offset=offset, scale=scale)
        scalar = scaler.invert(y)
        assert type(scalar) is float
        assert np.float64(scalar).tobytes() \
            == scaler.invert(np.array([y]))[0].tobytes()

    @pytest.mark.parametrize("x", [
        np.array([0.0, 3.5, -7.25, 1e300, 5e-324]),
        np.array([[1.0, 2.0], [3.0, 4.0]]), np.arange(6),
        np.array([1.5], dtype=np.float32), np.float64(2.75), np.array(9.0),
        [1, 2, 3], [0.1, 0.2, 0.3], [], 7, 2**60 + 1, 0.3, -0.0])
    @pytest.mark.parametrize("offset, scale", [
        (3.25, 197.125), (-0.1, 0.3), (0.0, 1.0), (1e-300, 1e300)])
    def test_apply_equals_plain_expression_bit_for_bit(self, x, offset,
                                                       scale):
        got = Scaler(offset=offset, scale=scale).apply(x)
        want = (np.asarray(x, dtype=np.float64) - offset) / scale
        assert type(got) is type(want)
        assert got.dtype == want.dtype and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        if isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim:
            assert got is not x

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            Scaler(offset=0.0, scale=0.0)

    @pytest.mark.parametrize("offset, scale", [
        (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (0.0, np.nan),
        (0.0, np.inf), (0.0, -1.0)])
    def test_offset_and_scale_must_be_finite(self, offset, scale):
        with pytest.raises(ValueError, match="must be finite"):
            Scaler(offset=offset, scale=scale)

    @pytest.mark.parametrize("text", [
        "offset=0 scale=-1", "offset=0 scale=0", "offset=x scale=1",
        "offset=nan scale=1", "offset=0 scale=inf", "offset=1 scale=nan"])
    def test_bad_scaler_file_is_data_error_naming_it(self, tmp_path, text):
        path = tmp_path / "model.txt.scaler"
        path.write_text(text + "\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: ")):
            load_scaler(path)

    def test_file_round_trip(self, tmp_path):
        scaler = Scaler(offset=3.25, scale=197.125)
        path = tmp_path / "model.scaler"
        save_scaler(path, scaler)
        loaded = load_scaler(path)
        assert loaded.offset == scaler.offset
        assert loaded.scale == scaler.scale


class TestBuildWindows:
    def test_lag3_example(self):
        series = TimeSeries(T0, 1_000_000, [1.0, 2.0, 3.0, 4.0, 5.0])
        ws = build_windows(series, 3)
        np.testing.assert_array_equal(ws.inputs, [[1, 2, 3], [2, 3, 4]])
        np.testing.assert_array_equal(ws.targets, [4, 5])
        np.testing.assert_array_equal(ws.origin_steps, [2, 3])

    def test_window_count_formula(self):
        series = TimeSeries(T0, 1_000_000, [1.0, 2.0, 3.0, 4.0])
        assert len(build_windows(series, 3)) == 1
        for lag in (1, 2, 3):
            n = len(build_windows(
                TimeSeries(T0, 1_000_000, np.arange(9.0)), lag))
            assert n == 9 - lag

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_windows(TimeSeries(T0, 1_000_000, [1.0, 2.0, 3.0]), 3)

    def test_bad_lag_rejected(self):
        series = TimeSeries(T0, 1_000_000, np.arange(10.0))
        for bad in (0, 4):
            with pytest.raises(ValueError):
                build_windows(series, bad)

    def test_windows_reconstruct_series(self, rng):
        values = rng.uniform(0, 50, size=40)
        for lag in (1, 2, 3):
            ws = build_windows(TimeSeries(T0, 1_000_000, values), lag)
            rebuilt = np.concatenate([values[:lag], ws.targets])
            np.testing.assert_array_equal(rebuilt, values)
            newest = ws.inputs[:, -1]
            np.testing.assert_array_equal(newest, values[lag - 1:-1])

    def test_scale_windows(self, rng):
        values = rng.uniform(0, 50, size=30)
        series = TimeSeries(T0, 1_000_000, values)
        scaler = fit_scaler(series)
        ws = scale_windows(build_windows(series, 2), scaler)
        assert ws.inputs.min() >= 0.0 and ws.inputs.max() <= 1.0


def labels_on(length, intervals):
    """``length`` attack flags, set on the closed [start, end]
    ``intervals``."""
    labels = np.zeros(length, dtype=bool)
    for start, end in intervals:
        labels[start:end + 1] = True
    return labels


def labeled_series(values, intervals):
    values = np.asarray(values, dtype=float)
    return LabeledTimeSeries(series=TimeSeries(T0, 1_000_000, values),
                             labels=labels_on(len(values), intervals))


@st.composite
def split_cases(draw):
    """A labeled series of 3 to 50 steps of 1 us to 10**11 us, with an
    all-normal training part, and fractions that cut it into parts of
    ``n_train`` and ``n_val`` steps and a test part."""
    n = draw(st.integers(3, 50))
    n_train = draw(st.integers(1, n - 2))
    n_val = draw(st.integers(1, n - 1 - n_train))
    step_us = draw(st.integers(1, 10**11))
    start = draw(st.datetimes(max_value=datetime(9000, 1, 1)))
    values = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False),
                           min_size=n, max_size=n))
    labels = [False] * n_train + draw(st.lists(
        st.booleans(), min_size=n - n_train, max_size=n - n_train))
    data = LabeledTimeSeries(TimeSeries(start, step_us, values), labels)
    return data, (n_train + 0.25) / n, (n_val + 0.25) / n


def saved_fields(data):
    """The timestamp, count and label fields of each row of ``data`` once
    saved; an unlabeled row has no label."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        save_series(path, data)
        lines = path.read_text().splitlines()[1:]
    return [tuple(line.split(",")[1:]) for line in lines]


def assert_parts_match_the_whole(data, train_fraction, validation_fraction):
    """Each part ``split_protocol`` cuts ``data`` into saves with the
    timestamps, counts and labels of its rows in the whole file."""
    parts = split_protocol(data, train_fraction, validation_fraction)
    whole = saved_fields(data)
    lo = 0
    for part in parts:
        fields = saved_fields(part)
        assert fields == [row[:len(fields[0])]
                          for row in whole[lo:lo + len(fields)]]
        lo += len(fields)
    assert lo == len(whole)


class TestSplitProtocol:
    @settings(max_examples=100, deadline=None)
    @given(case=split_cases())
    def test_parts_save_as_the_rows_of_the_whole_file(self, case):
        assert_parts_match_the_whole(*case)

    def test_a_late_part_starts_on_the_whole_cadence(self):
        # 100,000 steps of 86,399.999999 s fall 100 ms short of 100,000
        # days; lo * step * 1e6 in floating point lands 2 us late here
        n = 250_000
        data = LabeledTimeSeries(
            TimeSeries(datetime(1, 1, 1), 86_399_999_999, np.zeros(n)),
            np.zeros(n, bool))
        _, validation, _ = split_protocol(data, 0.4, 0.2)
        assert (validation.series.start_time.isoformat()
                == "0274-10-16T23:59:59.900000")
        assert_parts_match_the_whole(data, 0.4, 0.2)

    def test_chronological_fractions(self):
        data = labeled_series(np.arange(10.0) + 1, [])
        train, val, test = split_protocol(data, 0.4, 0.2)
        np.testing.assert_array_equal(train.values, [1, 2, 3, 4])
        np.testing.assert_array_equal(val.series.values, [5, 6])
        np.testing.assert_array_equal(test.series.values, [7, 8, 9, 10])
        assert val.series.start_time == T0 + timedelta(seconds=4)

    def test_contamination_rejected(self):
        data = labeled_series(np.arange(10.0) + 1, [(1, 2)])
        with pytest.raises(DataError, match="training segment"):
            split_protocol(data, 0.4, 0.2)

    def test_attacks_allowed_outside_training(self):
        # the first attack straddles the validation/test boundary at step 12
        data = labeled_series(np.arange(20.0) + 1, [(10, 12), (16, 18)])
        train, val, test = split_protocol(data, 0.4, 0.2)
        assert val.attack_intervals == [(2, 3)]
        assert test.attack_intervals == [(0, 0), (4, 6)]

    def test_segments_cover_and_are_disjoint(self, rng):
        n = 57
        data = labeled_series(rng.uniform(1, 9, size=n), [(50, 52)])
        train, val, test = split_protocol(data, 0.3, 0.25)
        total = np.concatenate(
            [train.values, val.series.values, test.series.values])
        np.testing.assert_array_equal(total, data.series.values)

    def test_degenerate_fractions_rejected(self):
        data = labeled_series(np.arange(10.0) + 1, [])
        for tf, vf in ((0.0, 0.2), (0.5, 0.5), (0.9, 0.2), (-0.1, 0.3)):
            with pytest.raises(ValueError):
                split_protocol(data, tf, vf)

    @pytest.mark.parametrize("tf, vf", [
        (float("nan"), 0.2), (0.4, float("nan")), (float("-inf"), 0.2)])
    def test_non_finite_fractions_rejected(self, tf, vf):
        data = labeled_series(np.arange(10.0) + 1, [])
        with pytest.raises(ValueError, match="fractions must be finite"):
            split_protocol(data, tf, vf)


class TestGenerateSynthetic:
    def test_no_attacks_all_normal(self):
        out = generate_synthetic(SynthConfig(length=100, rng_seed=3))
        assert not out.labels.any()
        assert out.attack_intervals == []
        assert np.all(out.series.values >= 0)

    def test_seeded_instance_attacks_dominate_baseline(self):
        config = SynthConfig(length=1000, attack_count=3, rng_seed=2024)
        out = generate_synthetic(config)
        assert len(out.attack_intervals) == 3
        attack_values = out.series.values[out.labels]
        normal_values = out.series.values[~out.labels]
        assert attack_values.min() > normal_values.max()

    def test_interval_lengths_and_separation(self):
        config = SynthConfig(length=2000, attack_count=4, rng_seed=8)
        out = generate_synthetic(config)
        intervals = out.attack_intervals
        for start, end in intervals:
            assert 20 <= end - start + 1 <= 40
        assert intervals[0][0] >= 12
        for (_, e1), (s2, _) in zip(intervals, intervals[1:]):
            assert s2 - e1 - 1 >= 12

    def test_attack_spacing_is_the_detector_window(self):
        assert pipeline.MIN_ATTACK_SEPARATION == DetectorConfig.mat
        assert_attacks_packed_at_separation(DetectorConfig.mat)

    @pytest.mark.parametrize("gap", (1, 30))
    def test_attack_spacing_follows_min_separation(self, gap, monkeypatch):
        monkeypatch.setattr(pipeline, "MIN_ATTACK_SEPARATION", gap)
        assert_attacks_packed_at_separation(gap)

    def test_deterministic_per_seed(self):
        config = SynthConfig(length=500, attack_count=2, rng_seed=11)
        a = generate_synthetic(config)
        b = generate_synthetic(config)
        np.testing.assert_array_equal(a.series.values, b.series.values)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.attack_intervals == b.attack_intervals

    def test_labels_match_intervals(self):
        out = generate_synthetic(SynthConfig(length=800, attack_count=3,
                                             rng_seed=5))
        np.testing.assert_array_equal(
            out.labels, labels_on(len(out), out.attack_intervals))

    def test_infeasible_placement_reported(self):
        with pytest.raises(DataError, match="cannot place"):
            generate_synthetic(SynthConfig(length=100, attack_count=50,
                                           rng_seed=0))

    @pytest.mark.parametrize("config", [
        lambda seed: SynthConfig(length=5, rng_seed=seed),
        lambda seed: TrainConfig(rng_seed=seed)], ids=["synth", "train"])
    @pytest.mark.parametrize("seed, message", [
        (1.5, "rng_seed must be an integer, got 1.5"),
        (None, "rng_seed must be an integer, got None"),
        ("3", "rng_seed must be an integer, got '3'"),
        (-1, "rng_seed must be >= 0")])
    def test_config_rejects_a_seed_that_is_not_a_non_negative_integer(
            self, config, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config(seed)

    def test_config_takes_a_numpy_integer_seed_as_an_int(self):
        for config in (SynthConfig(length=5, rng_seed=np.int64(7)),
                       TrainConfig(rng_seed=np.uint8(7))):
            assert type(config.rng_seed) is int and config.rng_seed == 7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(length=0)
        with pytest.raises(ValueError):
            SynthConfig(length=10, attack_multiplier=1.0)
        with pytest.raises(ValueError):
            SynthConfig(length=10, attack_min_len=5, attack_max_len=4)
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            SynthConfig(length=10, rng_seed=-1)

    def test_attack_mean_overflow_checked_only_with_attacks(self):
        with pytest.raises(ValueError, match="attack mean"):
            SynthConfig(length=10, baseline_mean=1e308, attack_count=1)
        SynthConfig(length=10, baseline_mean=1e308)  # no attack drawn


def assert_attacks_packed_at_separation(gap):
    """Three 20-step attacks in a series with no slack sit exactly ``gap``
    steps from the start and from each other; one step less cannot hold
    them."""
    length = 3 * gap + 60
    config = dict(attack_count=3, attack_min_len=20, attack_max_len=20,
                  rng_seed=4)
    out = generate_synthetic(SynthConfig(length=length, **config))
    assert out.attack_intervals == [
        (gap + j * (gap + 20), gap + j * (gap + 20) + 19) for j in range(3)]
    with pytest.raises(DataError, match=f"with {gap}-step separation"):
        generate_synthetic(SynthConfig(length=length - 1, **config))


def joined_series_text(data, seed=None):
    """A series file as one joined text, the way ``save_series`` once
    wrote it: the reference for the line-by-line writer."""
    labeled = isinstance(data, LabeledTimeSeries)
    series = data.series if labeled else data
    step_us = series.step_us
    lines = [] if seed is None else [f"# seed={seed}"]
    lines.append("step,timestamp,count,label" if labeled
                 else "step,timestamp,count")
    for i, value in enumerate(series.values):
        ts = (series.start_time + timedelta(microseconds=i * step_us))
        row = f"{i},{ts.isoformat()},{value:.17g}"
        if labeled:
            row += ",attack" if data.labels[i] else ",normal"
        lines.append(row)
    return "\n".join(lines) + "\n"


class TestSeriesFiles:
    def test_bytes_equal_the_joined_text(self, tmp_path):
        labeled = generate_synthetic(SynthConfig(length=3000, attack_count=4,
                                                 rng_seed=5))
        captured = aggregate_counts(
            load_capture(tshark_csv(
                [f"{i},60,1999-03-11T08:{i // 60:02d}:{i % 60:02d}.5,6"
                 for i in range(0, 3000, 7)])).timestamps_us,
            250_000, T0, T0 + timedelta(minutes=50))
        for data, seed in ((labeled, 5), (labeled, None), (captured, None)):
            path = tmp_path / "series.csv"
            save_series(path, data, seed=seed)
            assert path.read_bytes() == joined_series_text(
                data, seed).encode("utf-8")

    def test_unlabeled_round_trip(self, tmp_path, rng):
        series = TimeSeries(T0, 1_000_000,
                            np.rint(rng.uniform(0, 300, size=25)))
        path = tmp_path / "series.csv"
        save_series(path, series)
        loaded = load_series(path)
        assert isinstance(loaded, TimeSeries)
        np.testing.assert_array_equal(loaded.values, series.values)
        assert loaded.start_time == series.start_time
        assert loaded.step_us == series.step_us

    def test_labeled_round_trip_with_seed_comment(self, tmp_path):
        out = generate_synthetic(SynthConfig(length=300, attack_count=2,
                                             rng_seed=21))
        path = tmp_path / "series.csv"
        save_series(path, out, seed=21)
        first_line = path.read_text().splitlines()[0]
        assert first_line == "# seed=21"
        loaded = load_series(path)
        assert isinstance(loaded, LabeledTimeSeries)
        np.testing.assert_array_equal(loaded.series.values, out.series.values)
        np.testing.assert_array_equal(loaded.labels, out.labels)
        assert loaded.attack_intervals == out.attack_intervals

    @settings(max_examples=100)
    @given(values=st.lists(st.floats(min_value=0.0, allow_infinity=False)
                           | st.just(-0.0), min_size=2, max_size=40),
           start=st.datetimes(max_value=datetime(9000, 1, 1)),
           step_us=st.integers(1, 10**9),
           attack=st.none() | st.lists(st.booleans(), min_size=40,
                                       max_size=40),
           seed=st.none() | st.integers(0, 2**63))
    def test_random_series_round_trip_bit_exact(self, values, start, step_us,
                                                attack, seed):
        series = TimeSeries(start, step_us, values)
        data = series
        if attack is not None:
            labels = np.array(attack[:len(values)])
            data = LabeledTimeSeries(series, labels)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            save_series(path, data, seed=seed)
            loaded = load_series(path)
        assert type(loaded) is type(data)
        if attack is not None:
            np.testing.assert_array_equal(loaded.labels, data.labels)
            assert loaded.attack_intervals == data.attack_intervals
            loaded = loaded.series
        np.testing.assert_array_equal(loaded.values.view(np.uint64),
                                      series.values.view(np.uint64))
        assert loaded.start_time == start
        assert loaded.step_us == step_us

    def test_fractional_step_round_trip(self, tmp_path):
        series = TimeSeries(T0, 500_000, np.arange(8.0))
        path = tmp_path / "series.csv"
        save_series(path, series)
        assert load_series(path).step_us == 500_000

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(DataError):
            load_series(path)

    @pytest.mark.parametrize("count, kind", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("-inf", "non-finite"),
        ("-3", "negative")])
    def test_bad_count_rejected_with_row_number(self, tmp_path, count, kind):
        series = TimeSeries(T0, 1_000_000, np.arange(5.0))
        path = tmp_path / "series.csv"
        save_series(path, series)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[2] = count
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"row 3: {kind} count"):
            load_series(path)

    @staticmethod
    def write_rows(path, rows):
        path.write_text("step,timestamp,count\n" + "".join(
            f"{step},{(T0 + timedelta(seconds=sec)).isoformat()},1\n"
            for step, sec in rows))

    @pytest.mark.parametrize("seconds, row", [
        ((0, 1, 5, 2), 3), ((0, 1, 5, 2, 3, 4), 3), ((0, 1, 2, 4, 5), 4),
        ((0, 2, 4, 5), 4), ((0, 1, 2, 2), 4), ((0, 1, 2, 3, 1), 5)])
    def test_off_cadence_timestamp_rejected(self, tmp_path, seconds, row):
        path = tmp_path / "series.csv"
        self.write_rows(path, enumerate(seconds))
        expected = (T0 + timedelta(
            seconds=(row - 1) * (seconds[1] - seconds[0]))).isoformat()
        with pytest.raises(DataError, match=f"row {row}: timestamp .* off "
                                            f"the cadence, expected "
                                            f"{expected}"):
            load_series(path)

    @pytest.mark.parametrize("steps, row", [
        ((1, 2, 3), 1), ((0, 1, 3, 3), 3), ((0, 1, 1), 3), ((0, 2), 2),
        ((5,), 1)])
    def test_step_column_must_count_rows(self, tmp_path, steps, row):
        path = tmp_path / "series.csv"
        self.write_rows(path, ((step, i) for i, step in enumerate(steps)))
        with pytest.raises(DataError, match=f"row {row}: step "
                                            f"{steps[row - 1]}, expected "
                                            f"{row - 1}"):
            load_series(path)

    @pytest.mark.parametrize("token", ["1.0", "x", ""])
    def test_non_integer_step_rejected(self, tmp_path, token):
        path = tmp_path / "series.csv"
        self.write_rows(path, [(0, 0), (token, 1)])
        with pytest.raises(DataError, match="row 2:"):
            load_series(path)

    @pytest.mark.parametrize("stamp", ["1999-03-11\x0008:00:01",
                                       "1999-03-11T08:00:01\x00"])
    def test_timestamp_with_a_nul_rejected(self, tmp_path, stamp):
        path = tmp_path / "series.csv"
        self.write_rows(path, [(0, 0)])
        path.write_text(path.read_text() + f"1,{stamp},1\n")
        with pytest.raises(DataError,
                           match="row 2: unrecognized timestamp"):
            load_series(path)

    def test_repeated_first_timestamp_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        self.write_rows(path, [(0, 0), (1, 0), (2, 1)])
        with pytest.raises(DataError, match="non-increasing"):
            load_series(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -3.0])
    def test_time_series_rejects_bad_counts(self, bad):
        with pytest.raises(ValueError):
            TimeSeries(T0, 1_000_000, np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("step", [0, -1, 1.0, 1.5, np.float64(2.0),
                                      None, "1", 10**18])
    def test_time_series_rejects_a_step_that_is_not_a_positive_integer(
            self, step):
        # 10**18 us puts the last step past the datetime range
        message = ("the last step falls past 9999-12-31 23:59:59.999999"
                   if step == 10**18 else "step_us must be >= 1"
                   if isinstance(step, int) else "step_us must be an integer")
        with pytest.raises(ValueError, match=re.escape(message)):
            TimeSeries(T0, step, np.arange(5.0))

    def test_time_series_takes_a_numpy_integer_step_as_an_int(self):
        series = TimeSeries(T0, np.int64(250_000), np.arange(3.0))
        assert type(series.step_us) is int and series.step_us == 250_000

    @pytest.mark.parametrize("start", [
        datetime(2000, 1, 1, tzinfo=timezone.utc), date(2000, 1, 1),
        "2000-01-01T00:00:00"])
    def test_time_series_rejects_a_start_the_file_cannot_carry(self, start):
        with pytest.raises(ValueError, match="naive datetime"):
            TimeSeries(start, 1_000_000, np.arange(3.0))

    @settings(max_examples=150, deadline=None)
    @given(step=st.integers(1, 10**12), length=st.integers(2, 6),
           bulk=st.booleans())
    def test_any_accepted_step_survives_a_save_and_load(self, step, length,
                                                        bulk):
        # a one-row file holds no cadence, so the series have two rows or
        # more; the byte path reads the file when bulk is set
        series = TimeSeries(T0, step, np.arange(float(length)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            save_series(path, series)
            with mock.patch.object(pipeline, "_BULK_MIN_BYTES",
                                   0 if bulk else 1 << 30):
                loaded = load_series(path)
        assert loaded.step_us == step
        assert loaded.start_time == T0
        np.testing.assert_array_equal(loaded.values, series.values)

    @pytest.mark.parametrize("smallest", [0, pipeline._BULK_MIN_BYTES])
    def test_a_cadence_across_the_whole_datetime_range_loads_and_saves_back(
            self, tmp_path, smallest):
        # the step of 315537897599.999999 s is no float's whole number of
        # microseconds
        text = ("step,timestamp,count\n0,0001-01-01T00:00:00,1\n"
                "1,9999-12-31T23:59:59.999999,1\n")
        path = tmp_path / "series.csv"
        path.write_text(text)
        with mock.patch.object(pipeline, "_BULK_MIN_BYTES", smallest):
            series = load_series(path)
        assert series.step_us == 315_537_897_599_999_999
        save_series(path, series)
        assert path.read_text() == text

    @pytest.mark.parametrize("smallest", [0, pipeline._BULK_MIN_BYTES])
    @pytest.mark.parametrize("step_us", [250_000, 10**30])
    def test_a_one_row_file_loads_with_a_one_second_step(
            self, tmp_path, smallest, step_us):
        # one row carries no cadence, whatever step it was saved with; a
        # step past int64 still saves
        start = datetime(2000, 1, 1, 0, 0, 0, 5)
        data = LabeledTimeSeries(TimeSeries(start, step_us, [7.0]), [True])
        path = tmp_path / "series.csv"
        save_series(path, data)
        with mock.patch.object(pipeline, "_BULK_MIN_BYTES", smallest):
            loaded = load_series(path)
        assert loaded.series.start_time == start
        assert loaded.series.values.tolist() == [7.0]
        assert loaded.labels.tolist() == [True]
        assert loaded.series.step_us == 1_000_000


#: Count fields the per-row reader accepts or rejects in ways the byte
#: path must send to it: spaces, signs, exponents, a bare ``.``, digit
#: separators, ``-0``, non-finite and negative values, digits that are not
#: ASCII, and long or dotted digit strings.
ODD_COUNTS = [" 12 ", "+5", "1e3", ".5", "5.", "1_000", "-0", "-0.0", "nan",
              "inf", "-3", "\u0663", "\uff11\uff12", "", "x", "0x1",
              "1e+20", "12.5", "0.10000000000000001", "007", "9" * 17,
              "9" * 19, "9" * 33, "1" * 16 + "." + "1" * 15]

#: Steps and labels likewise, with a step of ASCII digits that does not
#: count the rows and a label of the right length that is not one.
ODD_STEPS = [" {i}", "+{i}", "0{i}", "{i}.0", "{i}_0", "x", "", "-{i}",
             "\u0663", "{i}\x00", "{i}1"]
ODD_LABELS = [" attack", "attack ", "ATTACK", "Normal", "x", "",
              "normal\x0b"]


@st.composite
def series_files(draw):
    """A series file as bytes: a header with or without a label column
    (rarely another column), ``#`` and blank lines before it, then rows on
    a cadence with ISO timestamps (rarely with a space for the ``T``).
    Rows may carry an odd count, step, label or timestamp, an extra or a
    missing field, a ``#`` or blank line, a form feed, a NUL or a byte
    that is not UTF-8; lines end in ``\n``, ``\r\n`` or a lone ``\r``,
    with or without a final one.  A third of the files hold whole counts
    only, as every series writer writes them, so that their blocks are
    read in place."""
    labeled = draw(st.booleans())
    counts = st.sampled_from([0.0, 1.0, 97.0, 1234.0]) | (
        st.integers(0, 10**6).map(float) if draw(st.integers(0, 2)) == 0
        else st.floats(0, 1e6))
    header = ["step", "timestamp", "count"] + (["label"] if labeled else [])
    if draw(st.integers(0, 9)) == 0:
        header.append("extra")
    if draw(st.integers(0, 9)) == 0:
        header = [f" {name} " for name in header]
    lines = draw(st.lists(st.sampled_from(["# seed=3", "", "  # note"]),
                          max_size=2))
    lines.append(",".join(header))
    start = draw(st.datetimes(min_value=datetime(1, 1, 2),
                              max_value=datetime(9000, 1, 1)))
    cadence = draw(st.sampled_from([1, 999_999, 10**6, 86_400 * 10**6]))
    sep = draw(st.sampled_from("T" * 5 + " "))
    for i in range(draw(st.integers(0, 25))):
        when = start + timedelta(microseconds=i * cadence)
        stamp = when.isoformat(sep)
        fields = [str(i), stamp, "%.17g" % draw(counts)]
        if labeled:
            fields.append(draw(st.sampled_from(["normal", "attack"])))
        if len(header) > len(fields):
            fields.append("x")
        kind = draw(st.integers(0, 60))
        if kind == 0:
            fields[2] = draw(st.sampled_from(ODD_COUNTS))
        elif kind == 1:
            fields[0] = draw(st.sampled_from(ODD_STEPS)).format(i=i)
        elif kind == 2 and len(fields) > 3:
            fields[3] = draw(st.sampled_from(ODD_LABELS))
        elif kind == 3:
            fields[1] = (when + timedelta(microseconds=draw(st.sampled_from(
                [-1, 1, cadence])))).isoformat()
        elif kind == 4:
            fields[1] = draw(st.sampled_from(
                [when.isoformat() + "+01:00", " " + stamp, stamp + "\x00",
                 stamp.replace("T", " "), "never"]))
        elif kind == 5:
            fields.append(draw(st.sampled_from(["", "x", "12"])))
        elif kind == 6:
            fields.pop()
        elif kind == 7:
            lines.append(draw(st.sampled_from(["", "   ", "# late", "\x0c"])))
        line = ",".join(fields)
        if kind == 8:
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(
                ["\x0c", "\x00", "\u2028", "\r", "\ufeff"])) + line[at:]
        lines.append(line)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    data = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def read_outcome(load, path):
    """What ``load`` makes of the series file at ``path``: its message, or
    its type, counts (by bits), labels, start and cadence."""
    try:
        data = load(path)
    except DataError as exc:
        return f"data error: {exc}"
    labeled = isinstance(data, LabeledTimeSeries)
    series = data.series if labeled else data
    return (type(data).__name__, series.values.view(np.uint64).tolist(),
            data.labels.tolist() if labeled else None,
            data.attack_intervals if labeled else None,
            series.start_time, series.step_us)


#: Block sizes from one byte, where each block is one line, to the
#: loader's own, on the byte path; then small and whole-file blocks row by
#: row, the path of files up to ``_BULK_MIN_BYTES``.
SERIES_PATHS = [(1, 0), (7, 0), (64, 0), (pipeline._BLOCK_BYTES, 0),
                (7, 1 << 30),
                (pipeline._BLOCK_BYTES, pipeline._BULK_MIN_BYTES)]


def load_series_in_blocks(block, smallest, path):
    """What ``load_series`` makes of ``path`` read ``block`` bytes at a
    time, on the byte path when the file is larger than ``smallest``."""
    with mock.patch.object(pipeline, "_BLOCK_BYTES", block), \
            mock.patch.object(pipeline, "_BULK_MIN_BYTES", smallest):
        return read_outcome(load_series, path)


class TestSeriesReaderMatchesPerRowReader:
    """``load_series`` against ``series_oracle``'s per-row reader: the same
    series or the same DataError message, whatever the block size."""

    @pytest.mark.parametrize("block, smallest", SERIES_PATHS)
    @settings(max_examples=150)
    @given(data=series_files())
    def test_random_files(self, block, smallest, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            path.write_bytes(data)
            assert load_series_in_blocks(block, smallest, path) == \
                read_outcome(load_series_per_row, path)

    @pytest.mark.parametrize("block, smallest", SERIES_PATHS)
    @pytest.mark.parametrize("rows, message", [
        # a decimal comma, and a label after a label: one field too many
        (["0,2000-01-01T00:00:00,12,5"], "malformed row 1: 4 fields, the "
                                         "header has 3"),
        (["0,2000-01-01T00:00:00,12,normal,attack"],
         "malformed row 1: 5 fields, the header has 4"),
        # one field too few, after a good row
        (["0,2000-01-01T00:00:00,12", "1,2000-01-01T00:00:01"],
         "malformed row 2: 2 fields, the header has 3")])
    def test_field_count_must_equal_the_header(self, tmp_path, block,
                                               smallest, rows, message):
        header = "step,timestamp,count" + (",label" if "normal" in rows[0]
                                           else "")
        path = tmp_path / "series.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        assert load_series_in_blocks(block, smallest, path) == \
            read_outcome(load_series_per_row, path) == \
            f"data error: {path}: {message}"

    @pytest.mark.parametrize("block, smallest", SERIES_PATHS)
    @pytest.mark.parametrize("text", [
        # one row, so no cadence check: its timestamp is read as the
        # per-row reader reads it, offset included
        "step,timestamp,count\n0,2000-01-01T00:00:00+01:00,5\n",
        "step,timestamp,count,label\n0,2000-01-01T00:00:00.000001,5,attack",
        # good rows the byte path does not read in place, among others
        "# seed=1\r\n step , timestamp , count , label \r\n"
        "0,2000-01-01T00:00:00,5,normal\r\n\r\n1,2000-01-01T00:00:01, 7 ,"
        "attack\r\n2,2000-01-01 00:00:02,8,attack\r\n",
        "step,timestamp,count\n0,2000-01-01T00:00:00,1e3\n"
        "1,2000-01-01T00:00:01,-0\n2,2000-01-01T00:00:02,2\n"])
    def test_listed_files(self, tmp_path, block, smallest, text):
        path = tmp_path / "series.csv"
        path.write_text(text, newline="")
        got = load_series_in_blocks(block, smallest, path)
        assert got == read_outcome(load_series_per_row, path)
        assert not isinstance(got, str)

    @pytest.mark.parametrize("block, smallest", SERIES_PATHS)
    def test_error_in_a_late_block_names_its_row(self, tmp_path, block,
                                                 smallest):
        series = TimeSeries(T0, 1_000_000, np.arange(3000.0))
        path = tmp_path / "series.csv"
        save_series(path, series)
        lines = path.read_text().splitlines()
        # row 2500's count, signed, is still read; row 2900's is negative
        lines[2500] = lines[2500].rsplit(",", 1)[0] + ",+2499"
        lines[2900] = lines[2900].rsplit(",", 1)[0] + ",-1"
        path.write_text("\n".join(lines) + "\n")
        assert load_series_in_blocks(block, smallest, path) == \
            read_outcome(load_series_per_row, path) == \
            f"data error: {path}: row 2900: negative count '-1'"

    @pytest.mark.parametrize("block, smallest", SERIES_PATHS)
    @pytest.mark.parametrize("labeled, row, field, text, message", [
        (True, 2900, 0, "2901", "row 2900: step 2901, expected 2899"),
        (True, 2900, 3, "Normal", "row 2900: bad label 'Normal'"),
        # headers with a column that is not read in place
        (False, 0, 2, "count,extra", "row 1: 3 fields, the header has 4"),
        (True, 0, 3, "label,extra", "row 1: 4 fields, the header has 5")])
    def test_a_bad_line_among_lines_read_in_place_is_named(
            self, tmp_path, block, smallest, labeled, row, field, text,
            message):
        # whole counts, as save_series writes them: every other line is
        # read in place, so the byte path's own checks must find the bad one
        data = generate_synthetic(SynthConfig(length=3000, attack_count=5,
                                              rng_seed=4))
        path = tmp_path / "series.csv"
        save_series(path, data if labeled else data.series)
        lines = path.read_text().splitlines()
        fields = lines[row].split(",")
        fields[field] = text
        lines[row] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        got = load_series_in_blocks(block, smallest, path)
        assert got == read_outcome(load_series_per_row, path)
        assert got.startswith(f"data error: {path}: ")
        assert got.endswith(message)

    @pytest.mark.parametrize("block, smallest", SERIES_PATHS)
    def test_bad_utf8_is_reported_before_a_row_error(self, tmp_path, block,
                                                     smallest):
        # the per-row reader decodes the whole file first
        path = tmp_path / "series.csv"
        path.write_bytes(b"step,timestamp,count\n0,2000-01-01T00:00:00,x\n"
                         + b"1,2000-01-01T00:00:01,1\n" * 40 + b"\xff\n")
        got = load_series_in_blocks(block, smallest, path)
        assert got == read_outcome(load_series_per_row, path)
        assert "not UTF-8 text: byte 0xff at offset 1005" in got

    @settings(max_examples=300)
    @given(digits=st.text("0123456789", min_size=1, max_size=18)
           | st.integers(2**53, 10**18 - 1).map(str),
           longer=st.text("0123456789", min_size=19, max_size=32),
           point=st.integers(0, 18), sign=st.sampled_from("+-"))
    def test_plain_decimals_parse_as_float_does(self, digits, longer, point,
                                                sign):
        # a count the byte path reads is a string of 1 to 18 ASCII digits,
        # leading zeros and values past 2**53 included, and gets float()'s
        # double; a longer string, a point or a sign is left to the per-row
        # checks
        texts = [digits, longer, digits[:point] + "." + digits[point:],
                 sign + digits]
        data = ",".join(texts).encode()
        stops = np.cumsum([len(t) + 1 for t in texts]) - 1
        starts = stops - [len(t) for t in texts]
        ok, values = _bulk.naturals(data, data.translate(_bulk._CLASS),
                                    starts, stops)
        assert ok.tolist() == [True, False, False, False]
        assert values[0] == int(digits)
        assert values.astype(np.float64)[0].view(np.uint64) == \
            np.float64(float(digits)).view(np.uint64)


class TestSeriesFileBlocks:
    """The writer's block size changes no byte, and the reader's working
    set grows with the series it returns, not with the file's text."""

    @pytest.mark.parametrize("chunk", [1, 7, _bulk._CHUNK])
    def test_save_series_bytes_do_not_depend_on_the_block(self, tmp_path,
                                                          chunk):
        labeled = generate_synthetic(SynthConfig(length=5000, attack_count=6,
                                                 rng_seed=9))
        odd = TimeSeries(datetime(1969, 12, 31, 23, 59, 59, 999_990),
                         250_000, np.array([0.0, -0.0, 1.5, 1e20, 5e-324] * 7))
        with mock.patch.object(_bulk, "_CHUNK", chunk):
            for data, seed in ((labeled, 9), (odd, None)):
                path = tmp_path / "series.csv"
                save_series(path, data, seed=seed)
                assert path.read_bytes() == joined_series_text(
                    data, seed).encode("utf-8")

    def test_load_peak_grows_with_the_result_only(self, tmp_path):
        peaks = {}
        for n in (20_000, 80_000):
            path = tmp_path / f"series{n}.csv"
            save_series(path, generate_synthetic(SynthConfig(
                length=n, attack_count=n // 400, rng_seed=2)))
            with mock.patch.object(pipeline, "_BLOCK_BYTES", 1 << 16), \
                    mock.patch.object(pipeline, "_BULK_MIN_BYTES", 0):
                load_series(path)
                tracemalloc.start()
                try:
                    load_series(path)
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            text_per_row = path.stat().st_size / n
        # the counts (8 bytes a row) and the labels (1 byte a row), a few
        # times over while the arrays are joined and checked, but much
        # less than the text, about 34 bytes a row
        per_row = (peaks[80_000] - peaks[20_000]) / 60_000
        assert per_row < 3 * 9 < text_per_row


def step_runs(labels):
    """The runs of True in the list ``labels``, found one step at a time,
    as closed [start, end] index pairs."""
    runs, start = [], None
    for step, flag in enumerate(labels):
        if flag and start is None:
            start = step
        elif not flag and start is not None:
            runs.append((start, step - 1))
            start = None
    if start is not None:
        runs.append((start, len(labels) - 1))
    return runs


class TestLabelHelpers:
    def test_round_trip(self):
        labels = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=bool)
        intervals = intervals_from_labels(labels)
        assert intervals == [(1, 2), (5, 5), (7, 9)]
        np.testing.assert_array_equal(labels_on(10, intervals), labels)

    @settings(max_examples=300)
    @given(labels=st.one_of(
        st.lists(st.booleans(), max_size=60),
        st.integers(0, 60).map(lambda n: [True] * n),
        st.integers(0, 60).map(lambda n: [False] * n)))
    def test_intervals_equal_the_step_loop(self, labels):
        got = intervals_from_labels(np.array(labels, dtype=bool))
        assert got == step_runs(labels)
        assert all(type(i) is int for pair in got for i in pair)
        if not labels:
            return  # a series has at least one step
        # a labeled series, each part of a split and each series read
        # back, on both read paths, report the runs of their own labels
        data = LabeledTimeSeries(
            TimeSeries(T0, 1_000_000, np.ones(len(labels))), labels)
        assert data.attack_intervals == step_runs(labels)
        # normal steps first, so that the training half holds no attack
        whole = LabeledTimeSeries(
            TimeSeries(T0, 1_000_000, np.ones(2 * len(labels) + 2)),
            [False] * (len(labels) + 2) + labels)
        parts = list(split_protocol(whole, 0.5, 0.25)[1:])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            save_series(path, data)
            for smallest in (0, pipeline._BULK_MIN_BYTES):
                with mock.patch.object(pipeline, "_BULK_MIN_BYTES", smallest):
                    parts.append(load_series(path))
                assert parts[-1].labels.tolist() == labels
        for part in parts:
            assert part.attack_intervals == step_runs(part.labels.tolist())
