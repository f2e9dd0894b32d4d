"""Persistence: JSON schemas, CSV round trips, provenance sidecars."""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import multiprocessing
import os
import stat
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mevgen as mg
from mevgen import fileio
from mevgen import _csvfmt
from mevgen._csvfmt import format_rows, parse_rows
from mevgen.errors import CsvFormatError, ShapeError

from conftest import EX3_ALPHA, savetxt_bytes


def _dump_old_layout(obj, path) -> None:
    """The indented layout every JSON file was written in before the compact writer."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _percent_rows(block: np.ndarray) -> bytes:
    """The reference CSV rows of a block: one ``%`` over the row format repeated per row."""
    m, d = block.shape
    return ((",".join(["%.17g"] * d) + "\n") * m % tuple(block.ravel().tolist())).encode("ascii")


def _in_fast_range(x: np.ndarray) -> np.ndarray:
    return x[(x >= 1e-4) & (x < 1e16)]


def _read_reference(path):
    """What the line-by-line parser alone makes of a CSV file: array or error text."""
    with open(path, "r", encoding="utf-8") as fh:
        d = len(fh.readline().strip().split(","))
        try:
            return fileio._parse_lines(fh, path, d)
        except CsvFormatError as exc:
            return str(exc)


class TestJsonFiles:
    def test_spec_round_trip(self, tmp_path, ex1_spec):
        path = tmp_path / "spec.json"
        fileio.dump_json(ex1_spec.to_json_dict(), path)
        again = fileio.load_spec(path)
        assert np.array_equal(again.alpha, ex1_spec.alpha)
        assert again.C == ex1_spec.C
        assert again.fingerprint() == ex1_spec.fingerprint()

    def test_tail_dep_round_trip(self, tmp_path, ex2_target):
        path = tmp_path / "lam.json"
        fileio.dump_json(ex2_target.to_json_dict(), path)
        assert np.array_equal(fileio.load_tail_dep(path).values, ex2_target.values)

    def test_synthesis_result_file_shape(self, tmp_path, ex2_target):
        path = tmp_path / "result.json"
        fileio.dump_synthesis(mg.synthesize(ex2_target, c=2.0), path)
        obj = json.loads(path.read_text())
        assert set(obj) == {"spec", "achieved", "exact", "c_used", "c_min"}
        assert obj["spec"]["D"] == 6

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ShapeError):
            fileio.load_json(path)

    @pytest.mark.parametrize(
        "obj",
        [
            {"b": [[1.0, None, -0.0], [5e-324, 1e308, 0.1]], "a": "x", "n": 3},
            [{"u": 0.9, "flagged_pairs": []}, {"u": 0.95, "flagged_pairs": [[1, 2]]}],
        ],
    )
    def test_dump_json_writes_one_compact_line(self, tmp_path, obj):
        path = tmp_path / "o.json"
        fileio.dump_json(obj, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.count("\n") == 1
        assert " " not in text
        assert json.loads(text) == obj

    def test_old_indented_layout_still_reads(self, tmp_path, ex3_target, ex3_spec):
        spec_path = tmp_path / "spec.json"
        result_path = tmp_path / "result.json"
        csv_path = tmp_path / "s.csv"
        _dump_old_layout(ex3_spec.to_json_dict(), spec_path)
        _dump_old_layout(mg.synthesize(ex3_target).to_json_dict(), result_path)
        fileio.write_csv(mg.sample_batch(ex3_spec, 5, seed=77), csv_path, sidecar=False)
        sidecar = {"n": 5, "seed": 77, "spec_fingerprint": ex3_spec.fingerprint()}
        _dump_old_layout(sidecar, fileio.sidecar_path(csv_path))
        assert "\n  " in spec_path.read_text()
        assert fileio.load_sidecar(csv_path) == sidecar
        compact = tmp_path / "compact.json"
        fileio.dump_json(ex3_spec.to_json_dict(), compact)
        for path in (spec_path, result_path, compact):
            # the pinned EX3 fingerprint, whichever layout the spec came from
            assert fileio.load_spec(path).fingerprint() == (
                "1d3eec8248091cb7dc17b69230b85b4df73196a95d47c5a4e76a1b9a5f2bfd9a"
            )

    def test_old_dense_spec_files_keep_their_fingerprint(self, tmp_path):
        # a synthesized d=9 spec is now written sparse; files from before hold it dense
        lam = np.full((9, 9), 0.1)
        np.fill_diagonal(lam, 1.0)
        result = mg.synthesize(mg.TailDepMatrix(lam))
        obj = result.to_json_dict()
        assert set(obj["spec"]["alpha"]) == {"i", "j", "v"}
        obj["spec"]["alpha"] = result.spec.alpha.tolist()
        dense = {"d": 9, "D": 36, "C": 1.0, "alpha": result.spec.alpha.tolist()}
        expect = hashlib.sha256(
            json.dumps(dense, sort_keys=True, separators=(",", ":")).encode("ascii")
        ).hexdigest()
        assert result.spec.fingerprint() == expect
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        compact.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        _dump_old_layout(obj, indented)
        for path in (compact, indented):
            spec = fileio.load_spec(path)
            assert np.array_equal(spec.alpha, result.spec.alpha)
            assert spec.fingerprint() == expect

    def test_malformed_json_raises_decode_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d": 2,\n "lambda": [[1, ')
        with pytest.raises(json.JSONDecodeError) as err:
            fileio.load_tail_dep(path)
        assert err.value.lineno == 2


class TestCsv:
    def test_round_trip_is_bit_exact(self, tmp_path, ex3_spec):
        batch = mg.sample_batch(ex3_spec, 200, seed=6)
        path = tmp_path / "samples.csv"
        fileio.write_csv(batch, path)
        again = fileio.read_csv(path)
        assert np.array_equal(again, batch.data)  # 17 significant digits round-trip

    def test_header_labels_are_one_based(self, tmp_path, ex3_spec):
        path = tmp_path / "s.csv"
        fileio.write_csv(mg.sample_batch(ex3_spec, 2, seed=0), path)
        assert path.read_text().splitlines()[0] == "x1,x2,x3"

    def test_empty_batch_writes_header_only(self, tmp_path, ex3_spec):
        path = tmp_path / "empty.csv"
        fileio.write_csv(mg.sample_batch(ex3_spec, 0, seed=0), path)
        assert path.read_text() == "x1,x2,x3\n"
        assert fileio.read_csv(path).shape == (0, 3)

    def test_sidecar_contents(self, tmp_path, ex3_spec):
        path = tmp_path / "s.csv"
        batch = mg.sample_batch(ex3_spec, 5, seed=77)
        fileio.write_csv(batch, path)
        meta = fileio.load_sidecar(path)
        assert meta == {
            "n": 5,
            "seed": 77,
            "spec_fingerprint": ex3_spec.fingerprint(),
            "spec_digest": ex3_spec.digest(ex3_spec.fingerprint()),
        }

    def test_sidecar_optional(self, tmp_path, ex3_spec):
        path = tmp_path / "s.csv"
        fileio.write_csv(mg.sample_batch(ex3_spec, 5, seed=7), path, sidecar=False)
        assert fileio.load_sidecar(path) is None

    def test_sidecar_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1\n1.0\n")
        fileio.sidecar_path(path).write_text('{"n": 1}')
        with pytest.raises(ShapeError):
            fileio.load_sidecar(path)

    def test_blank_trailing_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.0,2.0\n\n")
        assert fileio.read_csv(path).shape == (1, 2)

    def test_error_names_offending_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            fileio.read_csv(path)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.0,abc\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            fileio.read_csv(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.0,inf\n")
        with pytest.raises(CsvFormatError, match="non-finite"):
            fileio.read_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            fileio.read_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError, match="empty"):
            fileio.read_csv(path)

    @pytest.mark.parametrize("step", [1, 7, 64, 2**22])
    @pytest.mark.parametrize("bad", [None, b"7,x", b"7", b"7.5,8\r"], ids=["good", "x", "short", "cr"])
    def test_in_process_read_in_steps_reads_as_the_line_parser(
        self, tmp_path, monkeypatch, step, bad
    ):
        monkeypatch.setattr(fileio, "_READ_BYTES", step)
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + _second_range_body(bad or b"7.5,8"))
        expected = _read_reference(path)
        if isinstance(expected, str):
            with pytest.raises(CsvFormatError) as err:
                fileio.read_csv(path)
            assert str(err.value) == expected
        else:
            assert fileio.read_csv(path).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.integers(1, 5).flatmap(
            lambda d: arrays(
                np.float64,
                st.tuples(st.integers(0, 12), st.just(d)),
                elements=st.floats(allow_nan=False, allow_infinity=False),
            )
        )
    )
    def test_written_arrays_read_back_bitwise(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        fileio.write_csv(mg.SampleBatch(data, seed=0, spec_fingerprint=""), path, sidecar=False)
        again = fileio.read_csv(path)
        assert again.dtype == np.float64
        assert again.shape == data.shape
        assert again.tobytes() == data.tobytes()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,2\n3\n", "line 3: expected 2 fields, found 1"),
            ("1,2\n3,4,5\n", "line 3: expected 2 fields, found 3"),
            ("1,2,3\n4,5,6\n", "line 2: expected 2 fields, found 3"),
            ("1,\n", "line 2: non-numeric field"),
            ("1,abc\n", "line 2: non-numeric field"),
            ("1,nan\n", "line 2: non-finite value"),
            ("1,2\ninf,2\n", "line 3: non-finite value"),
            ("1,-inf\n", "line 2: non-finite value"),
            ("1e999,2\n", "line 2: non-finite value"),
            ("1,2#x\n", "line 2: non-numeric field"),
            ("1,2\n \n3\n", "line 4: expected 2 fields, found 1"),
            ("1,2\r\n3,x\r\n", "line 3: non-numeric field"),
            ("1,2\n3", "line 3: expected 2 fields, found 1"),
        ],
    )
    def test_malformed_body_gives_line_message(self, tmp_path, body, message):
        path = tmp_path / "s.csv"
        path.write_bytes(("x1,x2\n" + body).encode())
        with pytest.raises(CsvFormatError) as err:
            fileio.read_csv(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "body, rows",
        [
            ("1,2\n \n3,4\n", [[1, 2], [3, 4]]),
            ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
            ("", []),
            ("\n\n", []),
            ("1,2\n3,4", [[1, 2], [3, 4]]),
            (" 1 ,\t2\n1_0,2\n", [[1, 2], [10, 2]]),
        ],
    )
    def test_accepted_edge_layouts(self, tmp_path, body, rows):
        path = tmp_path / "s.csv"
        path.write_bytes(("x1,x2\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a header-only file reads without a warning
            again = fileio.read_csv(path)
        assert again.shape == (len(rows), 2)
        assert np.array_equal(again, np.array(rows, dtype=np.float64).reshape(-1, 2))

    @settings(max_examples=300, deadline=None)
    @given(
        body=st.text(alphabet="0159.e-+,,,\n\n\r \t#nafi_\x0c\xa0", max_size=30),
        d=st.integers(1, 3),
    )
    def test_same_result_as_line_parser(self, tmp_path_factory, body, d):
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        path.write_bytes((fileio.csv_header(d) + "\n" + body).encode())
        expected = _read_reference(path)
        if isinstance(expected, str):
            with pytest.raises(CsvFormatError) as err:
                fileio.read_csv(path)
            assert str(err.value) == expected
        else:
            again = fileio.read_csv(path)
            assert again.shape == expected.shape
            assert again.tobytes() == expected.tobytes()


def _split_reads(monkeypatch, cpus: int, range_bytes: int) -> None:
    """Make the CSV reader see ``cpus`` CPUs and split bodies every ``range_bytes`` bytes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(fileio, "_RANGE_BYTES", range_bytes)


def _outcome(path):
    """``read_csv``'s array, or the type and text of its error."""
    try:
        return fileio.read_csv(path)
    except (CsvFormatError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def _second_range_body(bad: bytes, rows: int = 40) -> bytes:
    """A two-column body of ``rows`` good lines with ``bad`` in the middle of the second half."""
    good = [b"%d.25,%d" % (i, i + 1) for i in range(rows)]
    return b"\n".join(good[: 3 * rows // 4] + [bad] + good[3 * rows // 4 :]) + b"\n"


class TestParallelRead:
    """A large body is parsed in line-aligned ranges on every CPU, with today's results."""

    def test_ranges_end_at_line_ends(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + _second_range_body(b"7,8", rows=200))
        _split_reads(monkeypatch, 3, 64)
        d, ranges = fileio._body_ranges(path)
        raw = path.read_bytes()
        assert d == 2 and len(ranges) == 3
        assert ranges[0][0] == len(b"x1,x2\n") and ranges[-1][1] == len(raw)
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo and raw[hi - 1 : hi] == b"\n"

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_arrays_equal_the_in_process_read_bitwise(self, tmp_path, monkeypatch, cpus):
        data = np.random.default_rng(3).standard_normal((500, 4)) * 1e5
        path = tmp_path / "s.csv"
        fileio.write_csv(mg.SampleBatch(data, seed=0, spec_fingerprint=""), path, sidecar=False)
        _split_reads(monkeypatch, cpus, 4096)
        assert len(fileio._body_ranges(path)[1]) == cpus
        again = fileio.read_csv(path)
        assert again.dtype == np.float64 and again.flags.c_contiguous
        assert again.tobytes() == data.tobytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "body",
        [
            b"1,2\n\n" * 300 + b"\n \n3,4\n",
            b"1,2\r\n" * 300 + b"3,4\r\n",
            b"1,2\n" * 300 + b"3,4",
            b"1,2\n" + b"\n" * 600 + b"3,4\n",  # a range of blank lines only
            b"1,2\r" * 300 + b"3,4\n",
            b"1\n" + b"\n" * 600 + b"3\n",  # one column: the blank range adds no rows
        ],
        ids=["blank-lines", "crlf", "no-final-newline", "blank-range", "lone-cr", "one-column"],
    )
    def test_edge_layouts_read_as_in_process(self, tmp_path, monkeypatch, body):
        path = tmp_path / "s.csv"
        path.write_bytes((b"x1\n" if body.startswith(b"1\n") else b"x1,x2\n") + body)
        _split_reads(monkeypatch, 1, 128)
        expected = fileio.read_csv(path)
        _split_reads(monkeypatch, 3, 128)
        assert len(fileio._body_ranges(path)[1]) == 3
        again = fileio.read_csv(path)
        assert again.shape == expected.shape and again.tobytes() == expected.tobytes()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "bad",
        [b"7,x", b"7,8,9", b"7", b"inf,8", b"7,nan", b"7,\xff"],
        ids=["bad-value", "extra-field", "missing-field", "inf", "nan", "non-utf8"],
    )
    def test_bad_line_in_the_second_range_gives_the_same_error(self, tmp_path, monkeypatch, bad):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + _second_range_body(bad, rows=400))
        _split_reads(monkeypatch, 1, 1024)
        expected = _outcome(path)
        assert isinstance(expected, tuple)
        _split_reads(monkeypatch, 2, 1024)
        (lo, _), (mid, _) = fileio._body_ranges(path)[1]
        assert path.read_bytes().index(b"\n" + bad + b"\n") >= mid > lo
        assert _outcome(path) == expected
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "header",
        [b"x1,x3\n", b"\rx1,x2\n", b"x1\r,x2\n", b"\xffx1,x2\n", b"x1,x2"],
        ids=["bad-name", "leading-cr", "inner-cr", "non-utf8", "header-only"],
    )
    def test_odd_headers_read_in_process(self, tmp_path, monkeypatch, header):
        path = tmp_path / "s.csv"
        path.write_bytes(header + b"1,2\n" * 2000 if header.endswith(b"\n") else header)
        _split_reads(monkeypatch, 1, 1024)
        expected = _outcome(path)
        _split_reads(monkeypatch, 2, 1024)
        assert fileio._body_ranges(path) is None
        outcome = _outcome(path)
        if isinstance(expected, tuple):
            assert outcome == expected
        else:
            assert outcome.tobytes() == expected.tobytes()

    def test_a_named_pipe_is_opened_once_and_read_in_process(self, tmp_path, monkeypatch):
        fifo = tmp_path / "s.csv"
        os.mkfifo(fifo)
        _split_reads(monkeypatch, 2, 1000)

        def write():
            with open(fifo, "wb") as fh:
                fh.write(b"x1,x2\n" + b"1.5,2\n" * 2000)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        data = fileio.read_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert data.shape == (2000, 2) and np.all(data == [1.5, 2])

    @pytest.mark.parametrize(
        "body, message",
        [(b"1,2\n3\n", "line 3: expected 2 fields, found 1"), (b"1,2\r\n\n3,4\r\n", None)],
        ids=["bad-line", "crlf-and-blank-line"],
    )
    def test_a_named_pipe_reads_as_a_file_when_the_kernel_declines(
        self, tmp_path, monkeypatch, body, message
    ):
        # the kernel declines after taking a first step; the text path reads the bytes kept
        monkeypatch.setattr(fileio, "_READ_BYTES", 5)
        fifo = tmp_path / "s.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(b"x1,x2\n" + body), daemon=True)
        writer.start()
        if message is None:
            assert fileio.read_csv(fifo).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        else:
            with pytest.raises(CsvFormatError, match=message):
                fileio.read_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()

    def test_a_refused_shared_mapping_reads_in_process(self, tmp_path, monkeypatch):
        data = np.random.default_rng(4).uniform(1.0, 9.0, (300, 3))
        path = tmp_path / "s.csv"
        fileio.write_csv(mg.SampleBatch(data, seed=0, spec_fingerprint=""), path, sidecar=False)
        _split_reads(monkeypatch, 2, 1024)

        def refuse(*args):
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(mmap, "mmap", refuse)
        assert fileio.read_csv(path).tobytes() == data.tobytes()
        assert multiprocessing.active_children() == []

    def test_small_bodies_and_one_cpu_stay_in_process(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + b"1,2\n" * 1000)  # 4000 body bytes
        _split_reads(monkeypatch, 2, 2001)
        assert fileio._body_ranges(path) is None
        _split_reads(monkeypatch, 1, 1000)
        assert fileio._body_ranges(path) is None
        _split_reads(monkeypatch, 2, 2000)
        assert len(fileio._body_ranges(path)[1]) == 2

    def test_a_worker_error_is_raised_and_every_worker_reaped(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + b"1,2\n" * 1000)
        _split_reads(monkeypatch, 2, 1000)
        parse = fileio._parse_range

        def failing(path, d, span):
            if span[0] > len(b"x1,x2\n"):
                raise OSError("read failed")
            return parse(path, d, span)

        monkeypatch.setattr(fileio, "_parse_range", failing)
        with pytest.raises(OSError, match="read failed"):
            fileio.read_csv(path)
        assert multiprocessing.active_children() == []

    def test_interrupt_while_parsing_reaps_every_worker(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + b"1,2\n" * 1000)
        _split_reads(monkeypatch, 2, 1000)
        with pytest.raises(KeyboardInterrupt):
            with fileio._parsing_csv(path):
                raise KeyboardInterrupt
        assert multiprocessing.active_children() == []


def _log_uniform() -> np.ndarray:
    rng = np.random.default_rng(11)
    return _in_fast_range(np.exp(rng.uniform(np.log(1e-4), np.log(1e16), 120_000)))


def _full_mantissas() -> np.ndarray:
    """Random 53-bit mantissas at every binary exponent of the fast range."""
    rng = np.random.default_rng(12)
    exponents = np.arange(-14, 54)  # 2**-14 < 1e-4 and 1e16 < 2**54
    mantissas = rng.integers(2**52, 2**53, size=(exponents.size, 300)).astype(np.float64)
    return _in_fast_range(np.ldexp(mantissas, exponents[:, None] - 52))


def _half_ties() -> np.ndarray:
    """Values whose 17th digit is an exact half, so ``%.17g`` rounds a tie to even."""
    # x = m / 2**(p + 1) with m odd makes x * 10**p = m * 5**p / 2 a tie, p = 16 - k
    rng = np.random.default_rng(13)
    ties = []
    for k in range(-4, 16):
        scale = 2.0 ** (17 - k)
        m = np.floor(rng.uniform(10.0**k, 10.0 ** (k + 1), 300) * scale / 2) * 2 + 1
        ties.append(m[m < 2**53] / scale)
    few_bits = np.ldexp(np.arange(1, 2**12, 2, dtype=np.float64)[:, None], np.arange(-26, 42))
    return _in_fast_range(np.concatenate(ties + [few_bits.ravel()]))


def _powers_of_ten() -> np.ndarray:
    """10**k for every k of the fast range, its neighbours, and values that carry into it."""
    values = []
    for k in range(-4, 16):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        values += [float(f"9.9999999999999999e{k}"), float(f"9.99999999999999995e{k}")]
    return _in_fast_range(np.array(values))


def _large_integers() -> np.ndarray:
    rng = np.random.default_rng(14)
    x = np.concatenate([2.0**53 + 2.0 * np.arange(1000), rng.integers(2**53, 10**16, 5000)])
    return x.astype(np.float64)


class TestRowFormatter:
    """``format_rows`` gives the bytes of ``%`` on the values where a digit kernel can slip."""

    @staticmethod
    def _assert_percent_bytes(values, d: int = 1) -> None:
        x = np.asarray(values, dtype=np.float64)
        block = x[: x.size // d * d].reshape(-1, d)
        assert format_rows(block) == _percent_rows(block)

    def test_log_uniform_values(self):
        for d in (1, 7, 20):
            self._assert_percent_bytes(_log_uniform(), d)

    def test_full_mantissas_at_every_binary_exponent(self):
        self._assert_percent_bytes(_full_mantissas())

    def test_exact_half_ties_round_to_even(self):
        self._assert_percent_bytes(_half_ties())

    def test_powers_of_ten_their_neighbours_and_the_carry(self):
        self._assert_percent_bytes(_powers_of_ten())

    def test_integers_from_two_to_the_53(self):
        self._assert_percent_bytes(_large_integers())

    @pytest.mark.parametrize("bad", [0.0, -0.0, 5e-324, 1e-5, 1e16, -1.0, np.nan, np.inf])
    def test_a_value_outside_the_range_sends_the_piece_to_percent(self, tmp_path, bad):
        block = np.full((4, 3), 2.5)
        block[2, 1] = bad
        assert format_rows(block) is None
        assert b"".join(fileio._csv_pieces(block, 3)) == _percent_rows(block)
        path = tmp_path / "s.csv"
        fileio.write_csv_blocks([block], 3, path, None)
        assert path.read_bytes() == b"x1,x2,x3\n" + _percent_rows(block)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.integers(1, 6).flatmap(
            lambda d: arrays(
                np.float64,
                st.tuples(st.integers(1, 30), st.just(d)),
                elements=st.floats(1e-4, 1e16, exclude_max=True),
            )
        )
    )
    def test_any_block_in_range_matches_percent(self, data):
        assert format_rows(data) == _percent_rows(data)


def _loadtxt_and_line_parser(body: bytes, d: int) -> tuple:
    """What ``np.loadtxt`` and the line parser make of a CSV body: an array, or the error text."""

    def text():  # as read_csv reads a file: universal newlines
        return io.TextIOWrapper(io.BytesIO(body), encoding="utf-8")

    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            loaded = np.loadtxt(text(), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        loaded = None
    try:
        lines = fileio._parse_lines(text(), "s.csv", d)
    except CsvFormatError as exc:
        lines = str(exc)
    return loaded, lines


class TestRowParser:
    """``parse_rows`` reads ``format_rows``'s fields bitwise as ``loadtxt`` and the line parser
    do, and declines every body outside its form, which then reads as before."""

    @staticmethod
    def _assert_read_exactly(values, d: int = 1) -> None:
        x = np.asarray(values, dtype=np.float64)
        block = x[: x.size // d * d].reshape(-1, d)
        body = format_rows(block)
        got = parse_rows(body, d)
        assert got is not None
        loaded, lines = _loadtxt_and_line_parser(body, d)
        assert got.shape == block.shape and got.flags.c_contiguous
        assert got.tobytes() == loaded.tobytes() == lines.tobytes() == block.tobytes()

    @staticmethod
    def _assert_declined(tmp_path, body: bytes, d: int) -> None:
        assert parse_rows(body, d) is None
        path = tmp_path / "s.csv"
        path.write_bytes((fileio.csv_header(d) + "\n").encode() + body)
        lines = _loadtxt_and_line_parser(body, d)[1]
        if isinstance(lines, str):
            with pytest.raises(CsvFormatError) as err:
                fileio.read_csv(path)
            assert str(err.value) == f"{path}: {lines.split(': ', 1)[1]}"
        else:
            assert fileio.read_csv(path).tobytes() == lines.tobytes()

    def test_log_uniform_values(self):
        for d in (1, 7, 20):
            self._assert_read_exactly(_log_uniform()[:60_000], d)

    def test_full_mantissas_at_every_binary_exponent(self):
        self._assert_read_exactly(_full_mantissas())

    def test_half_ties(self):
        self._assert_read_exactly(_half_ties())

    def test_powers_of_ten_and_their_neighbours(self):
        self._assert_read_exactly(_powers_of_ten())

    def test_integers_have_no_dot(self):
        rng = np.random.default_rng(15)
        small, large = rng.integers(1, 10**16, 5000), _large_integers()
        x = np.concatenate([np.arange(1.0, 1000.0), small, large])
        assert b"." not in format_rows(x.reshape(-1, 1))
        self._assert_read_exactly(x)

    def test_the_ends_of_the_range(self):
        ends = [1e-4, np.nextafter(1e-4, np.inf), np.nextafter(1e16, 0.0)]
        self._assert_read_exactly(ends * 2, 2)

    @pytest.mark.parametrize("piece", [1, 37, 64, 100])
    def test_rows_split_across_pieces(self, monkeypatch, piece):
        monkeypatch.setattr(_csvfmt, "_PIECE_BYTES", piece)
        self._assert_read_exactly(_log_uniform()[:3000], 3)
        self._assert_read_exactly(_log_uniform()[:200], 1)

    @pytest.mark.parametrize(
        "body",
        [
            b"1.5,2\n\n3,4\n",
            b"1.5,2\r\n3,4\r\n",
            b"1.5,2\r3,4\n",
            b"1e5,2\n",
            b"+1,2\n",
            b" 1,2\n",
            b"1,2 \n",
            b"1_0,2\n",
            b".,2\n",
            b",2\n",
            b"1.5,2\n3,4",
            b"1.2.3,4\n",
            b"1/2,3\n",
            b"1,2,3\n",
            b"1\n2,3\n",
            b"1.00000000000000001,2\n",
            b"123456789012345678,2\n",
            b"18446744073709551621,2\n",  # 2**64 + 5: the digits must not wrap to 5
            b"0.1844674407370955162100,2\n",
            b"0.1,2\n",
            b"9007199254740993,2\n",  # a tie between two doubles: no 17-digit match
            b"0,2\n",
            b"0.0,2\n",
            b"0.00001,2\n",
            b"10000000000000000,2\n",
            b"0.00000000000000000000001,2\n",
            b"1,x\n",
            b"1,-2\n",
            b"",
        ],
    )
    def test_bodies_outside_the_form_are_declined_and_read_as_before(self, tmp_path, body):
        self._assert_declined(tmp_path, body, 2)

    @staticmethod
    def _assert_as_loadtxt_or_declined(tmp_path_factory, raw: bytes, d: int) -> None:
        got = parse_rows(raw, d)
        if got is None:
            TestRowParser._assert_declined(tmp_path_factory.mktemp("csv"), raw, d)
        else:
            loaded, lines = _loadtxt_and_line_parser(raw, d)
            assert got.tobytes() == loaded.tobytes() == lines.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(body=st.text(alphabet="0123456789..,,\n\n", max_size=60), d=st.integers(1, 3))
    def test_any_body_of_its_bytes_reads_as_loadtxt_or_is_declined(self, tmp_path_factory, body, d):
        self._assert_as_loadtxt_or_declined(tmp_path_factory, body.encode(), d)

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 4),
        fields=st.lists(
            st.from_regex(r"0{0,4}[0-9]{0,17}(\.[0-9]{0,19})?", fullmatch=True), max_size=24
        ),
    )
    def test_any_digit_fields_read_as_loadtxt_or_are_declined(self, tmp_path_factory, d, fields):
        fields = fields[: len(fields) // d * d]
        rows = [",".join(fields[i : i + d]) + "\n" for i in range(0, len(fields), d)]
        self._assert_as_loadtxt_or_declined(tmp_path_factory, "".join(rows).encode(), d)

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 4),
        values=st.lists(st.floats(1e-4, 1e16, exclude_max=True), min_size=1, max_size=24),
        fmt=st.sampled_from(["%.17g", "%.17g", "%r", "%.16g", "%.6f"]),
    )
    def test_any_formatted_floats_read_as_loadtxt_or_are_declined(
        self, tmp_path_factory, d, values, fmt
    ):
        values = values[: len(values) // d * d] or values[:1] * d
        rows = [",".join(fmt % x for x in values[i : i + d]) for i in range(0, len(values), d)]
        rows = [row + "\n" for row in rows]
        self._assert_as_loadtxt_or_declined(tmp_path_factory, "".join(rows).encode(), d)


class TestCsvWriter:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.integers(1, 6).flatmap(
            lambda d: arrays(np.float64, st.tuples(st.integers(0, 30), st.just(d)), elements=_EDGE_FLOATS)
        ),
        cuts=st.lists(st.integers(0, 30), max_size=4),
    )
    def test_bytes_equal_savetxt_for_any_blocking(self, tmp_path_factory, data, cuts):
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        blocks = np.split(data, sorted(c for c in cuts if c <= data.shape[0]))
        rows = fileio.write_csv_blocks(iter(blocks), data.shape[1], path, None)
        assert rows == data.shape[0]
        assert path.read_bytes() == savetxt_bytes(data)
        fileio.write_csv(mg.SampleBatch(data, seed=0, spec_fingerprint=""), path, sidecar=False)
        assert path.read_bytes() == savetxt_bytes(data)

    @pytest.mark.parametrize("values_per_call", [1, 4, 7, 2**16])
    def test_large_blocks_are_formatted_in_pieces(self, tmp_path, monkeypatch, values_per_call):
        monkeypatch.setattr(fileio, "_FORMAT_VALUES", values_per_call)
        data = mg.sample_batch(mg.ModelSpec(alpha=EX3_ALPHA, C=1.0), 23, seed=5).data
        path = tmp_path / "s.csv"
        assert fileio.write_csv_blocks([data[:20], data[20:]], 3, path, None) == 23
        assert path.read_bytes() == savetxt_bytes(data)

    def test_interrupted_stream_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "s.csv"

        def blocks():
            yield np.ones((4, 2))
            raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError, match="generator failed"):
            fileio.write_csv_blocks(blocks(), 2, path, {"n": 8, "seed": 0, "spec_fingerprint": ""})
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_rerun_keeps_the_old_file_and_drops_its_sidecar(self, tmp_path, ex3_spec):
        path = tmp_path / "s.csv"
        fileio.write_csv(mg.sample_batch(ex3_spec, 5, seed=1), path)
        old = path.read_bytes()

        def blocks():
            yield np.ones((2, 3))
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            fileio.write_csv_blocks(blocks(), 3, path, {"n": 4, "seed": 2, "spec_fingerprint": ""})
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]

    def test_block_of_the_wrong_width_is_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(ShapeError, match="does not have 3 columns"):
            fileio.write_csv_blocks([np.ones((2, 3)), np.ones((3, 2))], 3, path, None)
        assert list(tmp_path.iterdir()) == []

    def test_symlinked_target_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        data = np.arange(6.0).reshape(3, 2)
        assert fileio.write_csv_blocks([data], 2, link, None) == 3
        assert link.is_symlink()
        assert target.read_bytes() == savetxt_bytes(data)
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to("target.csv")
        fileio.write_csv_blocks([np.ones((1, 2))], 2, link, None)
        assert link.is_symlink()
        assert (tmp_path / "target.csv").read_bytes() == savetxt_bytes(np.ones((1, 2)))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_is_written_to_not_replaced(self, tmp_path):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        data = np.arange(4.0).reshape(2, 2)
        # a read end opened first lets the writer's open return at once; the
        # few bytes fit in the pipe buffer
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            fileio.write_csv_blocks([data], 2, fifo, None)
            out = os.read(fd, 2**16)
        finally:
            os.close(fd)
        assert out == savetxt_bytes(data)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_rewrite_without_sidecar_removes_the_old_one(self, tmp_path, ex3_spec):
        path = tmp_path / "s.csv"
        fileio.write_csv(mg.sample_batch(ex3_spec, 5, seed=1), path)
        assert fileio.load_sidecar(path) is not None
        fileio.write_csv(mg.sample_batch(ex3_spec, 6, seed=2), path, sidecar=False)
        assert fileio.load_sidecar(path) is None
        assert fileio.read_csv(path).shape == (6, 3)
