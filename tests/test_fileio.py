"""Persistence: JSON schemas, CSV round trips, provenance sidecars."""

from __future__ import annotations

import io
import json
import math
import os
import pickle
import signal
import stat
import subprocess
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mevgen as mg
from mevgen import fileio
from mevgen import _csvfmt
from mevgen._csvfmt import format_rows, parse_rows, repr_rows
from mevgen.errors import CsvFormatError, ProvenanceError, ShapeError

from conftest import EX3_ALPHA, child_pids, digit_families, ref_digest, savetxt_bytes


def _dump_old_layout(obj, path) -> None:
    """The indented layout every JSON file was written in before the compact writer."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


_JSON_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, 1e16, 0.1, math.nan, math.inf, -math.inf]),
    st.floats(),
)
_FLOATS_OR_NONE = st.one_of(_JSON_FLOATS, st.none())
_JSON_LEAVES = st.one_of(
    _FLOATS_OR_NONE, st.integers(), st.booleans(), st.text(max_size=3), _JSON_FLOATS.map(np.float64)
)


def _float_matrices(width: int):
    """Lists of up to 4 rows of ``width`` floats or None: 1 x n, n x 1 and empty ones too."""
    return st.lists(st.lists(_FLOATS_OR_NONE, min_size=width, max_size=width), max_size=4)


_JSON_DOCUMENTS = st.recursive(
    st.one_of(
        _JSON_LEAVES,
        st.lists(_FLOATS_OR_NONE, max_size=6),
        st.integers(0, 4).flatmap(_float_matrices),
        st.lists(st.lists(_FLOATS_OR_NONE, max_size=3), max_size=4),  # ragged
        st.lists(st.one_of(_JSON_LEAVES, st.lists(_JSON_LEAVES, max_size=2)), max_size=4),
    ),
    lambda children: st.one_of(
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.lists(children, max_size=3),
    ),
    max_leaves=12,
)


def _family_document() -> dict:
    """The float lists of a spec file over :func:`conftest.digit_families`: a dense matrix,
    one row of it, and the entries of a sparse spec."""
    rng = np.random.default_rng(7)
    alpha = np.stack(digit_families(rng, 300))
    sparse = alpha * (rng.random(alpha.shape) < 0.1)
    spec = mg.ModelSpec(alpha=sparse, C=float(sparse.sum(axis=1).max()))
    return {"m": alpha.tolist(), "v": alpha[0].tolist(), "spec": spec.to_json_dict()}


def _percent_rows(block: np.ndarray) -> bytes:
    """The reference CSV rows of a block: one ``%`` over the row format repeated per row."""
    m, d = block.shape
    return ((",".join(["%.17g"] * d) + "\n") * m % tuple(block.ravel().tolist())).encode("ascii")


def _in_fast_range(x: np.ndarray) -> np.ndarray:
    return x[(x >= 1e-4) & (x < 1e16)]


def _read_reference(path):
    """What the line parser alone makes of a whole CSV file: its array, or the type and text
    of its error."""
    with open(path, "rb") as raw:
        try:
            return fileio._read_text(path, raw)
        except fileio._BadLine as bad:
            return CsvFormatError, "%s: line %d: %s" % (path, *bad.args)
        except (CsvFormatError, UnicodeDecodeError) as exc:
            return type(exc), str(exc)


def _assert_same_outcome(got, expected) -> None:
    """Two outcomes of ``_outcome`` or ``_read_reference`` are the same array or error."""
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestJsonFiles:
    def test_spec_round_trip(self, tmp_path, ex1_spec):
        path = tmp_path / "spec.json"
        fileio.dump_json(ex1_spec.to_json_dict(), path)
        again = fileio.load_spec(path)
        assert again.digest() == ref_digest(ex1_spec.alpha, ex1_spec.C)
        assert again.alpha.tobytes() == ex1_spec.alpha.tobytes()

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
        assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    # each example overwrites the one file in tmp_path
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(obj=_JSON_DOCUMENTS)
    @example(obj={"m": [[0.0, -0.0, math.nan], [None, -0.0, 0.0]], "v": [-0.0, math.nan, 0.0]})
    @example(obj=_family_document())
    def test_dump_json_bytes_equal_the_c_encoder(self, tmp_path, obj):
        # the writer groups floats by their bits: -0.0 and 0.0 keep their own
        # texts, a float NaN is written NaN, and only None becomes null
        path = tmp_path / "o.json"
        fileio.dump_json(obj, path)
        expected = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_old_indented_layout_still_reads(self, tmp_path, ex3_target, ex3_spec):
        spec_path = tmp_path / "spec.json"
        result_path = tmp_path / "result.json"
        csv_path = tmp_path / "s.csv"
        _dump_old_layout(ex3_spec.to_json_dict(), spec_path)
        _dump_old_layout(mg.synthesize(ex3_target).to_json_dict(), result_path)
        fileio.write_csv(mg.sample_batch(ex3_spec, 5, seed=77), csv_path, sidecar=False)
        sidecar = {"n": 5, "seed": 77, "spec_digest": ex3_spec.digest()}
        _dump_old_layout(sidecar, fileio.sidecar_path(csv_path))
        assert "\n  " in spec_path.read_text()
        assert fileio.load_sidecar(csv_path) == sidecar
        compact = tmp_path / "compact.json"
        fileio.dump_json(ex3_spec.to_json_dict(), compact)
        for path in (spec_path, result_path, compact):
            # the pinned EX3 digest, whichever layout the spec came from
            assert fileio.load_spec(path).digest() == (
                "e31fa6e3a297d14a028a824e1253b4206b5122c4ae24b2c5dd064bae32265c4d"
            )

    def test_old_dense_spec_files_keep_their_digest(self, tmp_path):
        # a synthesized d=9 spec is now written sparse; files from before hold it dense
        lam = np.full((9, 9), 0.1)
        np.fill_diagonal(lam, 1.0)
        result = mg.synthesize(mg.TailDepMatrix(lam))
        obj = result.to_json_dict()
        assert set(obj["spec"]["alpha"]) == {"i", "j", "v"}
        obj["spec"]["alpha"] = result.spec.alpha.tolist()
        expect = ref_digest(result.spec.alpha, 1.0)
        assert result.spec.digest() == expect
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        compact.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
        _dump_old_layout(obj, indented)
        for path in (compact, indented):
            spec = fileio.load_spec(path)
            assert spec.digest() == expect
            assert spec.alpha.tobytes() == result.spec.alpha.tobytes()

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
        assert meta == {"n": 5, "seed": 77, "spec_digest": ex3_spec.digest()}

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

    def test_sidecar_with_another_field_is_refused(self, tmp_path):
        # one layout: a field of no current writer marks an older one
        path = tmp_path / "s.csv"
        path.write_text("x1\n1.0\n")
        fileio.sidecar_path(path).write_text('{"n": 1, "seed": 2, "extra": null}')
        with pytest.raises(ProvenanceError, match=r"carries \['extra'\], .* --n 1 --seed 2$"):
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
        _split_reads(monkeypatch, 1, step)
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + _second_range_body(bad or b"7.5,8"))
        _assert_same_outcome(_outcome(path), _read_reference(path))

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
        fileio.write_csv(mg.SampleBatch(data, seed=0), path, sidecar=False)
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
        _assert_same_outcome(_outcome(path), _read_reference(path))


def _split_reads(monkeypatch, cpus: int, span_bytes: int) -> list[int]:
    """Make the CSV reader see ``cpus`` CPUs and cut bodies into spans of ``span_bytes`` bytes.

    Returns the list of the pids that this process forks from then on.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(fileio, "_READ_BYTES", span_bytes)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(pid := fork()) or pid)
    return forks


def _spans(path) -> tuple[int | None, list[tuple[int, int]]]:
    """The header's width and the body spans of the CSV at ``path``, as its reader cuts them."""
    with open(path, "rb") as raw:
        return fileio._plain_header_width(raw.readline()), fileio._line_spans(raw)


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


def _write_fifo(fifo, data: bytes) -> subprocess.Popen:
    """Start a child process that writes ``data`` to the named pipe ``fifo``.

    A process, not a thread: Python 3.12 and later warn when a process with
    a live thread forks, and the reader may fork.
    """
    code = "import sys; open(sys.argv[1], 'wb').write(sys.stdin.buffer.read())"
    writer = subprocess.Popen([sys.executable, "-c", code, str(fifo)], stdin=subprocess.PIPE)
    writer.stdin.write(data)
    writer.stdin.close()
    return writer


class TestParallelRead:
    """A body is parsed in line-aligned spans on every CPU, with the results of one."""

    def test_ranges_end_at_line_ends(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        body = _second_range_body(b"7,8", rows=200)
        path.write_bytes(b"x1,x2\n" + body)
        _split_reads(monkeypatch, 3, len(body) // 3 + 1)
        d, spans = _spans(path)
        raw = path.read_bytes()
        assert d == 2 and len(spans) == 3
        assert spans[0][0] == len(b"x1,x2\n") and spans[-1][1] == len(raw)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo and raw[hi - 1 : hi] == b"\n"
        assert all(hi - lo >= len(body) // 3 + 1 for lo, hi in spans[:-1])

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_arrays_equal_the_in_process_read_bitwise(self, tmp_path, monkeypatch, cpus):
        data = np.random.default_rng(3).standard_normal((500, 4)) * 1e5
        path = tmp_path / "s.csv"
        fileio.write_csv(mg.SampleBatch(data, seed=0), path, sidecar=False)
        forks = _split_reads(monkeypatch, cpus, 4096)
        assert len(_spans(path)[1]) >= cpus
        again = fileio.read_csv(path)
        assert len(forks) == cpus
        assert again.dtype == np.float64 and again.flags.c_contiguous
        assert again.tobytes() == data.tobytes()
        assert child_pids() == []

    @pytest.mark.parametrize(
        "body",
        [
            b"1,2\n\n" * 300 + b"\n \n3,4\n",
            b"1,2\r\n" * 300 + b"3,4\r\n",
            b"1,2\n" * 300 + b"3,4",
            b"1,2\n" + b"\n" * 600 + b"3,4\n",  # a span of blank lines only
            b"1,2\r" * 300 + b"3,4\n",
            b"1\n" + b"\n" * 600 + b"3\n",  # one column: the blank span adds no rows
        ],
        ids=["blank-lines", "crlf", "no-final-newline", "blank-range", "lone-cr", "one-column"],
    )
    def test_edge_layouts_read_as_in_process(self, tmp_path, monkeypatch, body):
        path = tmp_path / "s.csv"
        path.write_bytes((b"x1\n" if body.startswith(b"1\n") else b"x1,x2\n") + body)
        _split_reads(monkeypatch, 1, 128)
        expected = fileio.read_csv(path)
        forks = _split_reads(monkeypatch, 3, 128)
        spans = _spans(path)[1]
        assert len(spans) >= 3 or body.count(b"\n") == 1  # one line (lone-cr) is one span
        again = fileio.read_csv(path)
        assert len(forks) == (3 if len(spans) > 1 else 0)
        assert again.shape == expected.shape and again.tobytes() == expected.tobytes()
        assert child_pids() == []

    @pytest.mark.parametrize(
        "bad",
        [b"7,x", b"7,8,9", b"7", b"inf,8", b"7,nan", b"7,\xff"],
        ids=["bad-value", "extra-field", "missing-field", "inf", "nan", "non-utf8"],
    )
    def test_bad_line_in_the_second_range_gives_the_same_error(self, tmp_path, monkeypatch, bad):
        path = tmp_path / "s.csv"
        body = _second_range_body(bad, rows=400)
        path.write_bytes(b"x1,x2\n" + body)
        _split_reads(monkeypatch, 1, len(body) // 2 + 1)
        expected = _outcome(path)
        assert isinstance(expected, tuple)
        _split_reads(monkeypatch, 2, len(body) // 2 + 1)
        (lo, _), (mid, _) = _spans(path)[1]
        assert path.read_bytes().index(b"\n" + bad + b"\n") >= mid > lo
        assert _outcome(path) == expected
        assert child_pids() == []

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
        forks = _split_reads(monkeypatch, 2, 1024)
        assert _spans(path)[0] is None
        outcome = _outcome(path)
        assert forks == []
        if isinstance(expected, tuple):
            assert outcome == expected
        else:
            assert outcome.tobytes() == expected.tobytes()

    def test_a_named_pipe_is_read_once_and_parsed_in_spans(self, tmp_path, monkeypatch):
        fifo = tmp_path / "s.csv"
        os.mkfifo(fifo)
        text = b"x1,x2\n" + b"1.5,2\n" * 2000
        forks = _split_reads(monkeypatch, 2, 1000)
        writer = _write_fifo(fifo, text)
        data = fileio.read_csv(fifo)
        assert writer.wait(timeout=10) == 0
        assert len(forks) == 2 and child_pids() == []
        assert data.shape == (2000, 2) and np.all(data == [1.5, 2])
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        _split_reads(monkeypatch, 1, 1000)
        assert data.tobytes() == fileio.read_csv(path).tobytes()

    @pytest.mark.parametrize(
        "body, message",
        [(b"1,2\n3\n", "line 3: expected 2 fields, found 1"), (b"1,2\r\n\n3,4\r\n", None)],
        ids=["bad-line", "crlf-and-blank-line"],
    )
    def test_a_named_pipe_reads_as_a_file_when_the_kernel_declines(
        self, tmp_path, monkeypatch, body, message
    ):
        # the kernel declines a span after a first; the line parser reads the bytes kept
        monkeypatch.setattr(fileio, "_READ_BYTES", 5)
        fifo = tmp_path / "s.csv"
        os.mkfifo(fifo)
        writer = _write_fifo(fifo, b"x1,x2\n" + body)
        if message is None:
            assert fileio.read_csv(fifo).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        else:
            with pytest.raises(CsvFormatError, match=message):
                fileio.read_csv(fifo)
        assert writer.wait(timeout=10) == 0

    def test_small_bodies_and_one_cpu_stay_in_process(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + b"1,2\n" * 1000)  # 4000 body bytes
        expected = np.tile([1.0, 2.0], (1000, 1)).tobytes()
        forks = _split_reads(monkeypatch, 2, 4000)
        assert len(_spans(path)[1]) == 1
        assert fileio.read_csv(path).tobytes() == expected and forks == []
        forks = _split_reads(monkeypatch, 1, 1000)
        assert len(_spans(path)[1]) == 4
        assert fileio.read_csv(path).tobytes() == expected and forks == []
        forks = _split_reads(monkeypatch, 2, 2000)
        assert len(_spans(path)[1]) == 2
        assert fileio.read_csv(path).tobytes() == expected and len(forks) == 2

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "body", [b"1.5,2\n" * 600, b"1e-1,2\n" * 600, b"1,2\n" * 600 + b"3\n"],
        ids=["kernel", "fallback", "line-parser"],
    )
    def test_a_read_opens_the_path_once(self, tmp_path, monkeypatch, cpus, body):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + body)
        _split_reads(monkeypatch, cpus, 1000)
        opened = []
        counted = lambda file, *args, **kw: opened.append(file) or open(file, *args, **kw)  # noqa: E731
        monkeypatch.setattr(fileio, "open", counted, raising=False)
        _outcome(path)
        assert [file for file in opened if not isinstance(file, int)] == [path]  # ints: the pipes

    @pytest.mark.parametrize("fmt", [b"%d.25,%d", b"%de-1,%d"], ids=["kernel", "fallback"])
    def test_a_file_replaced_while_parsing_is_read_from_the_open_file(
        self, tmp_path, monkeypatch, fmt
    ):
        # sample replaces its output by os.replace: a read that opened the
        # path again would mix the rows of both files and exit 0
        lines = [fmt % (i, i + 1) for i in range(3000)]
        path, other = tmp_path / "s.csv", tmp_path / "t.csv"
        path.write_bytes(b"x1,x2\n" + b"\n".join(lines) + b"\n")
        other.write_bytes(b"x1,x2\n" + b"\n".join(lines[::-1]) + b"\n")
        assert path.stat().st_size == other.stat().st_size
        _split_reads(monkeypatch, 1, 10**6)
        expected = fileio.read_csv(path)
        forks = _split_reads(monkeypatch, 2, 1000)
        parse_span = fileio._parse_span

        def replacing(raw, name, d, span):
            if span[0] == len(b"x1,x2\n"):  # the first span: worker 0, before any is read
                os.replace(other, path)
            return parse_span(raw, name, d, span)

        monkeypatch.setattr(fileio, "_parse_span", replacing)
        data = fileio.read_csv(path)
        assert len(forks) == 2 and child_pids() == []
        assert not other.exists()  # the worker replaced the file
        assert data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_declined_piece_alone_is_read_by_the_line_parser(self, tmp_path, monkeypatch, cpus):
        data = np.random.default_rng(4).uniform(0, 100, (8000, 3))
        path, log = tmp_path / "s.csv", tmp_path / "parsed"
        np.savetxt(path, data, fmt="%.6f", delimiter=",", header="x1,x2,x3", comments="")
        with open(path, "ab") as fh:
            fh.write(b"1e-05,2,3\n")  # exponent notation: its piece falls back
        log.touch()
        monkeypatch.setattr(_csvfmt, "_PIECE_BYTES", 4096)
        forks = _split_reads(monkeypatch, cpus, 2**16)
        assert len(_spans(path)[1]) >= 4
        parse = fileio._parse_lines

        def logged(lines, d, first):
            rows = parse(lines, d, first)
            with open(log, "ab") as fh:  # O_APPEND: the workers' lines never mix
                fh.write(b"%d\n" % rows.shape[0])
            return rows

        monkeypatch.setattr(fileio, "_parse_lines", logged)
        again = fileio.read_csv(path)
        assert len(forks) == (cpus if cpus > 1 else 0) and child_pids() == []
        parsed = [int(n) for n in log.read_bytes().split()]
        assert len(parsed) == 1 and 1 <= parsed[0] <= 4096 // len(b"1.000000,2.000000,3.000000\n")
        loaded = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert again.shape == loaded.shape == (8001, 3) and again.tobytes() == loaded.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "declined",
        [b"1e0,2\n", b"1,2\r\n", b"1,2\r", b"\n"],
        ids=["exponent", "crlf", "cr", "blank"],
    )
    def test_a_bad_line_after_a_fallen_back_piece_names_its_file_line(
        self, tmp_path, monkeypatch, cpus, declined
    ):
        # pieces of about 100 bytes and spans of about 1000: line 2 falls back in the first
        # span, and the bad line is in the third
        lines = [b"%d.5,%d\n" % (i, i) for i in range(600)]
        lines[0] = declined
        lines[400] = b"7,x\n"
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + b"".join(lines))
        monkeypatch.setattr(_csvfmt, "_PIECE_BYTES", 100)
        forks = _split_reads(monkeypatch, cpus, 1000)
        spans = _spans(path)[1]
        assert path.read_bytes().index(b"7,x") > spans[2][0]
        outcome = _outcome(path)
        assert outcome == (CsvFormatError, f"{path}: line 402: non-numeric field")
        assert outcome == _read_reference(path)
        assert len(forks) == (cpus if cpus > 1 else 0) and child_pids() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_text_errors_next_to_8k_chunks_read_as_the_whole_file(
        self, tmp_path, monkeypatch, cpus
    ):
        # the whole file's text read decodes 8 KiB chunks from its start, each before the
        # lines that end in it; a piece of about 2500 bytes starts inside such a chunk, maybe
        # after a character that straddles its start, and may end in the next one
        monkeypatch.setattr(_csvfmt, "_PIECE_BYTES", 2500)
        _split_reads(monkeypatch, cpus, 6000)
        text = b"x1,x2\n" + b"".join(b"%d.5,%d\n" % (i, i) for i in range(3000))
        path = tmp_path / "s.csv"
        cases = 0
        for chunk in (8192, 16384):
            for at in (chunk - 2, chunk - 1, chunk, chunk + 1):
                # a no-break space is a valid character in a field
                for edit in (b"\xff", b"\xe2\x82", b"\xc3\xa9", b"\xc2\xa0", b"\r", b"x"):
                    edited = text[:at] + edit + text[at:]
                    # alone, or with a byte that does not decode or a bad line after it
                    for later, byte in [
                        (0, b""), (60, b"\xff"), (5000, b"x"), (8191, b"\xff"), (8250, b"\xff")
                    ]:
                        where = at + later if later < 100 else chunk + later
                        path.write_bytes(edited[:where] + byte + edited[where + len(byte) :])
                        _assert_same_outcome(_outcome(path), _read_reference(path))
                        cases += 1
        assert cases == 240 and child_pids() == []

    # each example patches inside monkeypatch.context(), undone before the next
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        body=st.lists(
            st.sampled_from(list(b"15.,\n\n\re \xff\xc3\xa9")).map(lambda byte: bytes([byte])),
            max_size=40,
        ).map(b"".join),
        header=st.sampled_from([b"x1,x2\n", b"x1,x2\r\n", b"x1,x2\r\r\n", b"x1\n"]),
    )
    def test_any_bytes_read_as_the_whole_file_on_two_cpus(
        self, tmp_path_factory, monkeypatch, body, header
    ):
        path = tmp_path_factory.mktemp("csv") / "s.csv"
        path.write_bytes(header + body)
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            patch.setattr(fileio, "_READ_BYTES", 8)
            patch.setattr(_csvfmt, "_PIECE_BYTES", 1)
            _assert_same_outcome(_outcome(path), _read_reference(path))
        assert child_pids() == []

    def test_a_worker_error_is_raised_and_every_worker_reaped(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + b"1,2\n" * 1000)
        _split_reads(monkeypatch, 2, 1000)
        parse = fileio._parse_span

        def failing(raw, path, d, span):
            if span[0] > len(b"x1,x2\n"):
                raise OSError("read failed")
            return parse(raw, path, d, span)

        monkeypatch.setattr(fileio, "_parse_span", failing)
        with pytest.raises(OSError, match="read failed"):
            fileio.read_csv(path)
        assert child_pids() == []

    def test_a_worker_killed_while_it_sends_its_rows_is_reported(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + b"1.5,2\n" * 350_000)  # two spans of 175k rows, 2.8 MB each
        forks = _split_reads(monkeypatch, 2, 2**20)
        parent, send = os.getpid(), fileio._send

        def dying(pipe, obj):
            if os.getpid() == parent:
                return send(pipe, obj)
            view = memoryview(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
            assert len(view) > 2**21
            view = view[: len(view) // 2]
            while view:
                view = view[pipe.write(view) :]
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(fileio, "_send", dying)
        with pytest.raises(ChildProcessError) as err:
            fileio.read_csv(path)
        assert str(err.value) == f"worker {forks[0]} exited with code -9"
        assert child_pids() == []

    def test_interrupt_while_parsing_reaps_every_worker(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_bytes(b"x1,x2\n" + b"1,2\n" * 1000)
        _split_reads(monkeypatch, 2, 1000)
        running = []

        def interrupted(readers, pids, count):  # the parent's first read of a result
            running.append(len(child_pids()))
            raise KeyboardInterrupt
            yield

        monkeypatch.setattr(fileio, "_in_order", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fileio.read_csv(path)
        assert running == [2] and child_pids() == []


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
        fileio._write_csv_text(fileio._csv_pieces(block, 3), 3, path, None)
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


def _repr_lines(block: np.ndarray) -> bytes:
    """The reference JSON text of a block's rows: ``json.dumps`` of each row, without brackets."""
    text = json.dumps(block.tolist(), separators=(",", ":"))[2:-2].replace("],[", "\n")
    return (text + "\n").encode() if block.size else b"\n" * block.shape[0]


def _powers_of_two() -> np.ndarray:
    """2**e across the fast range and a little beyond it, and their two nearest neighbours."""
    p = np.ldexp(1.0, np.arange(-16, 56))
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def _short_decimals() -> np.ndarray:
    """Decimals of 1 to 6 digits at every exponent of the range, and their neighbours."""
    rng = np.random.default_rng(15)
    digits, k = rng.integers(1, 10**6, 20_000), rng.integers(-9, 16, 20_000)
    short = np.array([float(f"{m}e{e}") for m, e in zip(digits.tolist(), k.tolist())])
    return np.concatenate([short, np.nextafter(short, 0.0), np.nextafter(short, np.inf)])


def _integer_fives() -> np.ndarray:
    """x = n + 1/4 and n + 3/4 for 2**49 <= n < 1e15, where X = 100 * x is an integer ending in
    5, halfway between two multiples of 10 that both lie within g = 6.25; and n + 1/8, n + 3/8."""
    rng = np.random.default_rng(16)
    n = rng.integers(2**49, 10**15, 20_000).astype(np.float64)
    return np.concatenate([n + 0.25, n + 0.75, n + 0.125, n + 0.375])


def _integral() -> np.ndarray:
    """Integers written with ".0": small ones, and the even ones from 2**53 to 1e16."""
    rng = np.random.default_rng(17)
    small = rng.integers(1, 10**15, 10_000).astype(np.float64)
    return np.concatenate([np.arange(1.0, 3000.0), small, _large_integers()])


def _range_ends() -> np.ndarray:
    """Doubles on both sides of 1e-4 and below 1e16, the ends of the kernel's range, and
    around 1e15, where the integer part takes 16 digits."""
    steps = np.arange(-2000, 2000)
    ends = [1e-4 * (1 + steps * 2.0**-52), 1e16 - 2.0 * (steps + 2001), 1e15 + steps / 8]
    return np.concatenate(ends)


def _bits_float(bits: int) -> float:
    """The double with these bits."""
    return float(np.array(bits, np.uint64).view(np.float64))


#: The bits of every finite positive double, and more often those of [1e-4, 1e16).
_POSITIVE_BITS = st.one_of(
    st.integers(1, 0x7FEFFFFFFFFFFFFF),
    st.integers(int(np.float64(1e-4).view(np.uint64)), int(np.float64(1e16).view(np.uint64)) - 1),
)


_REPR_FAMILIES = {
    "log-uniform": _log_uniform,
    "full mantissas": _full_mantissas,
    "powers of two": _powers_of_two,
    "short decimals": _short_decimals,
    "integer X ending in 5": _integer_fives,
    "halves at 17 digits": _half_ties,
    "integral": _integral,
    "range ends": _range_ends,
}


class TestReprRows:
    """``repr_rows`` writes ``float.__repr__``, and JSON's NaN and Infinity, for every float64."""

    def test_families_where_shortest_digits_can_slip(self):
        for name, family in _REPR_FAMILIES.items():
            x = family()
            block = x[: x.size // 7 * 7].reshape(-1, 7)
            assert repr_rows(block) == _repr_lines(block), name

    def test_few_values_are_left_to_repr(self):
        # those go through one json.dumps; the kernel decides the rest itself
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            x = np.exp(rng.uniform(np.log(1e-4), np.log(1e16), 200_000))
            c, k, decided = _csvfmt._shortest(x)
            assert np.count_nonzero(~decided) <= 0.01 * x.size
            texts = repr_rows(x[decided][:, None]).decode().split()
            assert texts == [repr(v) for v in x[decided].tolist()]

    @settings(max_examples=200, deadline=None)
    @given(bits=arrays(np.uint64, st.integers(1, 40), elements=_POSITIVE_BITS))
    def test_any_finite_positive_double(self, bits):
        x = bits.view(np.float64)[None, :]
        assert repr_rows(x) == _repr_lines(x)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.integers(1, 5).flatmap(
            lambda d: arrays(
                np.float64,
                st.tuples(st.integers(0, 12), st.just(d)),
                elements=st.one_of(_JSON_FLOATS, _POSITIVE_BITS.map(_bits_float)),
            )
        )
    )
    def test_any_block_with_zeros_signs_nan_and_inf(self, data):
        assert repr_rows(data) == _repr_lines(data)

    @pytest.mark.parametrize("piece", [1, 3, 5])
    def test_rows_split_across_pieces(self, monkeypatch, piece):
        monkeypatch.setattr(_csvfmt, "_REPR_VALUES", piece)
        block = np.array([[0.1, 2.0, -0.0, np.nan], [1e-5, 0.1 + 0.2, 1e300, 7.0]])
        # in [8, 10) the gap is nearly 9 units of the 17th digit: two 16-digit values are close
        block = np.vstack([block, np.random.default_rng(18).uniform(8.0, 10.0, (4, 4))])
        assert repr_rows(block) == _repr_lines(block)


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
        lines = fileio._parse_lines(text(), d, 2)
    except fileio._BadLine as bad:
        lines = "s.csv: line %d: %s" % bad.args
    return loaded, lines


def _kernel_rows(raw: bytes, d: int) -> np.ndarray | None:
    """The rows of ``raw`` if the kernel accepts each of its pieces, else None."""
    blocks = [rows for _, rows in parse_rows(raw, d)]
    if not blocks or any(rows is None for rows in blocks):
        return None
    return np.concatenate(blocks)


class TestRowParser:
    """``parse_rows`` reads ``format_rows``'s fields, and any other field of at most 17 digits
    in its range, bitwise as ``loadtxt`` and the line parser do, and declines every piece
    outside its form, which then reads as before."""

    @staticmethod
    def _assert_read_exactly(values, d: int = 1) -> None:
        x = np.asarray(values, dtype=np.float64)
        block = x[: x.size // d * d].reshape(-1, d)
        body = format_rows(block)
        got = _kernel_rows(body, d)
        assert got is not None
        loaded, lines = _loadtxt_and_line_parser(body, d)
        assert got.shape == block.shape and got.flags.c_contiguous
        assert got.tobytes() == loaded.tobytes() == lines.tobytes() == block.tobytes()

    @staticmethod
    def _assert_declined(tmp_path, body: bytes, d: int) -> None:
        assert _kernel_rows(body, d) is None
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
            b"9007199254740993,2\n",  # halfway between two doubles, on the edge of both
            b"4503599627370497.5,2\n",
            b"9007199254740991.5,2\n",  # halfway below a power of two
            b"1.5e-05,2\n",
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

    @pytest.mark.parametrize(
        "fmt, top",
        [("%.6f", 1e10), ("%.10g", 1e10), ("%r", 1e16), ("%.15g", 1e15), ("%.16g", 1e16)],
    )
    def test_short_decimals_read_as_loadtxt(self, fmt, top):
        x = _log_uniform()[:20_000]
        x = x[x < top]
        for d in (1, 5):
            rows = x[: x.size // d * d].reshape(-1, d).tolist()
            body = "".join(",".join(fmt % v for v in row) + "\n" for row in rows).encode()
            got = _kernel_rows(body, d)
            assert got is not None
            loaded, lines = _loadtxt_and_line_parser(body, d)
            assert got.tobytes() == loaded.tobytes() == lines.tobytes()

    def test_fields_that_are_not_their_doubles_17_digits(self):
        body = b"0.1,0.2,0.3\n1.1,2.675,123.456\n0.0001,9999999999999998,4503599627370497\n"
        got = _kernel_rows(body, 3)
        assert got is not None
        assert got.tobytes() == _loadtxt_and_line_parser(body, 3)[0].tobytes()
        fields = body.replace(b"\n", b",")[:-1].split(b",")
        assert got.ravel().tolist() == [float(f) for f in fields]

    def test_fields_next_to_powers_of_two(self, monkeypatch):
        # up to 3 ulps either side of each power of two, in steps of a sixteenth of the ulp
        # above it; below it the doubles lie half as far apart
        texts = []
        for e in range(-13, 54):
            power, ulp = Fraction(2) ** e, Fraction(2) ** (e - 52)
            for step in range(-48, 49):
                value = power + ulp * Fraction(step, 16)
                for digits in (16, 17):
                    with localcontext(prec=digits):
                        text = format(Decimal(value.numerator) / value.denominator, "f")
                    if 1e-4 <= float(text) < 1e16:
                        texts.append(text.encode())
        monkeypatch.setattr(_csvfmt, "_PIECE_BYTES", 1)  # a piece of a line or two
        body = b"\n".join(texts) + b"\n"
        start, declined = 0, 0
        for end, rows in parse_rows(body, 1):
            fields = body[start:end].split()
            if rows is None:
                declined += len(fields)
            else:
                assert rows.ravel().tolist() == [float(f) for f in fields]
            start = end
        assert declined < len(texts) // 20

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 4),
        values=st.lists(st.floats(1e-4, 1e9), min_size=1, max_size=24),
        fmt=st.sampled_from(["%r", "%.17g", "%.16g", "%.10g", "%.6f"]),
    )
    def test_any_short_decimals_are_accepted(self, d, values, fmt):
        values = values[: len(values) // d * d] or values[:1] * d
        rows = [",".join(fmt % x for x in values[i : i + d]) for i in range(0, len(values), d)]
        body = "".join(row + "\n" for row in rows).encode()
        got = _kernel_rows(body, d)
        assert got is not None
        loaded, lines = _loadtxt_and_line_parser(body, d)
        assert got.tobytes() == loaded.tobytes() == lines.tobytes()

    @staticmethod
    def _assert_as_loadtxt_or_declined(tmp_path_factory, raw: bytes, d: int) -> None:
        got = _kernel_rows(raw, d)
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
        # the fields 0{0,4}[0-9]{0,17}(\.[0-9]{0,19})?, composed: st.from_regex spent
        # most of the test's time generating them
        fields=st.lists(
            st.tuples(
                st.text("0", max_size=4),
                st.text("0123456789", max_size=17),
                st.none() | st.text("0123456789", max_size=19),
            ).map(lambda f: f[0] + f[1] + ("" if f[2] is None else "." + f[2])),
            max_size=24,
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
        fmt=st.sampled_from(["%.17g", "%.17g", "%r", "%.16g", "%.10g", "%.6f", "%.18e"]),
    )
    def test_any_formatted_floats_read_as_loadtxt_or_are_declined(
        self, tmp_path_factory, d, values, fmt
    ):
        values = values[: len(values) // d * d] or values[:1] * d
        rows = [",".join(fmt % x for x in values[i : i + d]) for i in range(0, len(values), d)]
        rows = [row + "\n" for row in rows]
        self._assert_as_loadtxt_or_declined(tmp_path_factory, "".join(rows).encode(), d)


def _texts(blocks, d: int):
    """The CSV texts of (m, d) blocks, formatted as each is reached, as ``sample`` writes them."""
    return (text for block in blocks for text in fileio._csv_pieces(block, d))


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
        fileio._write_csv_text(_texts(blocks, data.shape[1]), data.shape[1], path, None)
        assert path.read_bytes().count(b"\n") == 1 + data.shape[0]
        assert path.read_bytes() == savetxt_bytes(data)
        fileio.write_csv(mg.SampleBatch(data, seed=0), path, sidecar=False)
        assert path.read_bytes() == savetxt_bytes(data)

    @pytest.mark.parametrize("values_per_call", [1, 4, 7, 2**16])
    def test_large_blocks_are_formatted_in_pieces(self, tmp_path, monkeypatch, values_per_call):
        monkeypatch.setattr(fileio, "_FORMAT_VALUES", values_per_call)
        data = mg.sample_batch(mg.ModelSpec(alpha=EX3_ALPHA, C=1.0), 23, seed=5).data
        path = tmp_path / "s.csv"
        fileio._write_csv_text(_texts([data[:20], data[20:]], 3), 3, path, None)
        assert path.read_bytes().count(b"\n") == 1 + 23
        assert path.read_bytes() == savetxt_bytes(data)

    def test_interrupted_stream_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "s.csv"

        def blocks():
            yield np.ones((4, 2))
            raise RuntimeError("generator failed")

        with pytest.raises(RuntimeError, match="generator failed"):
            fileio._write_csv_text(_texts(blocks(), 2), 2, path, {"n": 8, "seed": 0})
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_rerun_keeps_the_old_file_and_drops_its_sidecar(self, tmp_path, ex3_spec):
        path = tmp_path / "s.csv"
        fileio.write_csv(mg.sample_batch(ex3_spec, 5, seed=1), path)
        old = path.read_bytes()

        def blocks():
            yield np.ones((2, 3))
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            fileio._write_csv_text(_texts(blocks(), 3), 3, path, {"n": 4, "seed": 2})
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]

    def test_block_of_the_wrong_width_is_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(ShapeError, match="does not have 3 columns"):
            fileio._write_csv_text(_texts([np.ones((2, 3)), np.ones((3, 2))], 3), 3, path, None)
        assert list(tmp_path.iterdir()) == []

    def test_symlinked_target_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        data = np.arange(6.0).reshape(3, 2)
        fileio.write_csv(mg.SampleBatch(data, 0, ""), link, sidecar=False)
        assert link.read_bytes().count(b"\n") == 1 + 3
        assert link.is_symlink()
        assert target.read_bytes() == savetxt_bytes(data)
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_dangling_symlink_creates_its_target(self, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to("target.csv")
        fileio.write_csv(mg.SampleBatch(np.ones((1, 2)), 0, ""), link, sidecar=False)
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
            fileio._write_csv_text(fileio._csv_pieces(data, 2), 2, fifo, None)
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
