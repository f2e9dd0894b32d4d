"""Persistence: JSON schemas, CSV round trips, provenance sidecars."""

from __future__ import annotations

import hashlib
import json
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mevgen as mg
from mevgen import fileio
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
