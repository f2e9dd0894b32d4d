"""End-to-end CLI behavior: subcommands, file artifacts, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mevgen as mg
from mevgen import fileio
from mevgen.cli import main
from mevgen.errors import DomainError

from conftest import EX2_ALPHA, EX2_LAMBDA, EX3_ALPHA, EX3_LAMBDA, child_pids, savetxt_bytes


@pytest.fixture
def target_file(tmp_path):
    path = tmp_path / "target.json"
    fileio.dump_json(mg.TailDepMatrix(EX3_LAMBDA).to_json_dict(), path)
    return path


@pytest.fixture
def result_file(tmp_path, target_file):
    path = tmp_path / "result.json"
    assert main(["synth", "--target", str(target_file), "--out", str(path)]) == 0
    return path


@pytest.fixture
def samples_file(tmp_path, result_file):
    path = tmp_path / "samples.csv"
    rc = main(
        ["sample", "--spec", str(result_file), "--n", "5000", "--seed", "7", "--out", str(path)]
    )
    assert rc == 0
    return path


class TestSynth:
    def test_reference_model_two_build(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        out = tmp_path / "r.json"
        fileio.dump_json(mg.TailDepMatrix(EX2_LAMBDA).to_json_dict(), target)
        rc = main(["synth", "--target", str(target), "--c", "2", "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["spec"]["alpha"] == EX2_ALPHA
        assert obj["c_min"] == 2.0
        assert obj["exact"] is False
        printed = capsys.readouterr().out
        assert "c_min = 2" in printed
        assert "achieved matrix equals target / 2" in printed

    def test_exact_build_statement(self, target_file, tmp_path, capsys):
        rc = main(["synth", "--target", str(target_file), "--out", str(tmp_path / "r.json")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "c_min = 1" in printed
        assert "achieved matrix equals the target" in printed
        assert "exact construction (scale 1): yes" in printed
        assert "exact feasible (c_min <= 1): yes" in printed
        assert "entrywise sufficient bound (all coefficients <= 1/(d-1)): no" in printed

    def test_entrywise_bound_target_is_met_exactly(self, tmp_path, capsys):
        # c_min rounds to 1 + ulp here; the build must still use scale 1
        lam = np.full((10, 10), 1.0 / 9.0)
        np.fill_diagonal(lam, 1.0)
        target = tmp_path / "t.json"
        out = tmp_path / "r.json"
        fileio.dump_json(mg.TailDepMatrix(lam).to_json_dict(), target)
        assert main(["synth", "--target", str(target), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "c_used = 1\n" in printed
        assert "entrywise sufficient bound (all coefficients <= 1/(d-1)): yes" in printed
        assert "achieved matrix equals the target" in printed
        assert json.loads(out.read_text())["achieved"]["lambda"] == lam.tolist()

    def test_identity_target_warns(self, tmp_path, capsys):
        target = tmp_path / "ident.json"
        fileio.dump_json(mg.TailDepMatrix(np.eye(3)).to_json_dict(), target)
        rc = main(["synth", "--target", str(target), "--out", str(tmp_path / "r.json")])
        assert rc == 0
        assert "no extremal dependence requested" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 2,\n "lambda": [[1,')
        rc = main(["synth", "--target", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_invalid_target_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        fileio.dump_json({"d": 2, "lambda": [[1.0, 1.5], [1.5, 1.0]]}, bad)
        rc = main(["synth", "--target", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 3
        assert "outside [0, 1]" in capsys.readouterr().err

    def test_infeasible_scale_reports_minimum(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        fileio.dump_json(mg.TailDepMatrix(EX2_LAMBDA).to_json_dict(), target)
        rc = main(
            ["synth", "--target", str(target), "--c", "1.5", "--out", str(tmp_path / "r.json")]
        )
        assert rc == 3
        assert "minimum is 2" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        rc = main(["synth", "--target", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")])
        assert rc == 2


class TestSample:
    def test_deterministic_file_bytes(self, tmp_path, result_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = main(
                ["sample", "--spec", str(result_file), "--n", "200", "--seed", "5", "--out", str(path)]
            )
            assert rc == 0
        assert a.read_text() == b.read_text()

    def test_zero_observations_writes_header_only(self, tmp_path, result_file):
        out = tmp_path / "empty.csv"
        rc = main(["sample", "--spec", str(result_file), "--n", "0", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == "x1,x2,x3\n"

    def test_sidecar_written_with_digest(self, samples_file, result_file):
        meta = fileio.load_sidecar(samples_file)
        spec = mg.ModelSpec.from_json_dict(json.loads(result_file.read_text())["spec"])
        assert meta == {"n": 5000, "seed": 7, "spec_digest": spec.digest()}

    def test_plain_spec_file_accepted(self, tmp_path, ex3_spec):
        spec_path = tmp_path / "spec.json"
        fileio.dump_json(ex3_spec.to_json_dict(), spec_path)
        rc = main(["sample", "--spec", str(spec_path), "--n", "10", "--out", str(tmp_path / "s.csv")])
        assert rc == 0

    def test_invalid_spec_rejected_with_violations(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        fileio.dump_json({"d": 2, "D": 1, "C": 1.0, "alpha": [[2.0], [0.1]]}, bad)
        rc = main(["sample", "--spec", str(bad), "--n", "10", "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert "exceeds scale constant" in capsys.readouterr().err

    def test_negative_n_is_usage_error(self, tmp_path, result_file):
        rc = main(["sample", "--spec", str(result_file), "--n", "-5", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [["--n", "100000000000000000000000000"], ["--n", "9223372036854775808", "--chunk-size", "1"]],
        ids=["n-1e26", "n-2**63-chunk-1"],
    )
    def test_n_of_2_to_the_63_or_more_is_usage_error(self, tmp_path, result_file, capsys, argv):
        # the fork map takes len() of the chunk starts, which a C ssize_t bounds
        out = tmp_path / "s.csv"
        assert main(["sample", "--spec", str(result_file), *argv, "--out", str(out)]) == 2
        assert "below 2**63" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("chunk", ["0", "-1"])
    def test_nonpositive_chunk_size_is_usage_error(self, tmp_path, result_file, chunk):
        out = tmp_path / "s.csv"
        argv = ["sample", "--spec", str(result_file), "--n", "5", "--chunk-size", chunk]
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_huge_chunk_size_exits_3_before_allocating(self, tmp_path, result_file, capsys):
        # a chunk of 10**12 observations would need 1.49 PiB of stream words
        out = tmp_path / "s.csv"
        argv = ["sample", "--spec", str(result_file), "--n", "1000000000000"]
        argv += ["--chunk-size", "1000000000000", "--out", str(out)]
        capsys.readouterr()
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 3
        assert "more than the limit of" in err and "Traceback" not in err
        assert peak < 2**20
        assert sorted(p.name for p in tmp_path.iterdir()) == ["result.json", "target.json"]


def _all_positive_spec(d: int, big_d: int, seed: int) -> mg.ModelSpec:
    """Every alpha > 0 and every row sum below C = 1, so slack is live in each row."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.2, 1.0, size=(d, big_d))
    alpha *= (rng.uniform(0.5, 0.9, size=d) / alpha.sum(axis=1))[:, None]
    return mg.ModelSpec(alpha=alpha, C=1.0)


STREAM_SPECS = pytest.mark.parametrize(
    "spec",
    [
        _all_positive_spec(4, 9, seed=1),
        mg.ModelSpec(alpha=EX2_ALPHA, C=2.0),
        mg.ModelSpec(
            alpha=[[0, 0, 0, 0], [0.3, 0, 0, 0], [0.2, 0.1, 0.4, 0.2], [0.5, 0.5, 0, 0]], C=1.0
        ),
    ],
    ids=["dense-rows", "sparse-rows", "zero-row-and-slack"],
)


def _cpus(monkeypatch, count: int) -> None:
    """Make ``sample`` see ``count`` CPUs in its affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestSampleStream:
    @STREAM_SPECS
    @pytest.mark.parametrize("chunk", ["1", "7", None])
    def test_csv_bytes_equal_savetxt_of_the_batch(self, spec, chunk, tmp_path, capsys):
        spec_path, out = tmp_path / "spec.json", tmp_path / "s.csv"
        fileio.dump_json(spec.to_json_dict(), spec_path)
        argv = ["sample", "--spec", str(spec_path), "--n", "40", "--seed", "11", "--out", str(out)]
        assert main([*argv, *(["--chunk-size", chunk] if chunk else [])]) == 0
        batch = mg.sample_batch(spec, 40, seed=11)
        assert out.read_bytes() == savetxt_bytes(batch.data)
        assert fileio.load_sidecar(out) == {"n": 40, "seed": 11, "spec_digest": spec.digest()}

    def test_memory_is_bounded_and_flat_in_n(self, tmp_path, monkeypatch, capsys):
        # at d=80, D=1600 the whole batch is 1.25 MB per 2k rows, but holding
        # it plus its CSV text and several chunk-sized temporaries of the
        # old 4M-word chunk took over 150 MiB.  On one CPU the chunks are
        # drawn and formatted here, where tracemalloc sees them.
        _cpus(monkeypatch, 1)
        spec_path = tmp_path / "spec.json"
        fileio.dump_json(_all_positive_spec(80, 1600, seed=2).to_json_dict(), spec_path)
        peaks = {}
        for n in (2000, 8000):
            argv = ["sample", "--spec", str(spec_path), "--n", str(n), "--out", str(tmp_path / "s.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) < 32 * 2**20, peaks
        assert abs(peaks[8000] - peaks[2000]) < 2 * 2**20, peaks

    def test_rerun_without_sidecar_removes_the_stale_one(self, tmp_path, capsys):
        a, b = _all_positive_spec(3, 4, seed=3), mg.ModelSpec(alpha=EX3_ALPHA, C=1.0)
        a_path, b_path, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "s.csv"
        fileio.dump_json(a.to_json_dict(), a_path)
        fileio.dump_json(b.to_json_dict(), b_path)
        assert main(["sample", "--spec", str(a_path), "--n", "300", "--seed", "1", "--out", str(out)]) == 0
        argv = ["sample", "--spec", str(b_path), "--n", "300", "--seed", "2", "--out", str(out)]
        assert main([*argv, "--no-sidecar"]) == 0
        assert not fileio.sidecar_path(out).exists()
        assert out.read_bytes() == savetxt_bytes(mg.sample_batch(b, 300, seed=2).data)
        # with the seed-1 sidecar of spec a left behind, estimate accepted a
        # and refused b, the spec the data was drawn from
        capsys.readouterr()
        assert main(["estimate", "--data", str(out), "--u", "0.9", "--spec", str(b_path)]) == 0
        assert "no provenance sidecar" in capsys.readouterr().err

    def test_symlinked_out_is_written_through(self, tmp_path, result_file, ex3_spec, capsys):
        target, link = tmp_path / "data" / "s.csv", tmp_path / "s.csv"
        target.parent.mkdir()
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(["sample", "--spec", str(result_file), "--n", "9", "--seed", "4", "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == savetxt_bytes(mg.sample_batch(ex3_spec, 9, seed=4).data)
        assert fileio.load_sidecar(link)["n"] == 9
        assert main(["estimate", "--data", str(link), "--u", "0.9", "--spec", str(result_file)]) == 0

    def test_interrupted_sample_leaves_no_output(self, tmp_path, result_file, monkeypatch, capsys):
        _failing_chunks(monkeypatch, OSError("disk full"))
        _cpus(monkeypatch, 2)
        out = tmp_path / "out" / "s.csv"
        out.parent.mkdir()
        argv = ["sample", "--spec", str(result_file), "--n", "9", "--chunk-size", "2"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []
        assert child_pids() == []


def _failing_chunks(monkeypatch, exc: BaseException) -> None:
    """Make every chunk after the first raise ``exc``, in whichever process draws it."""
    chunker = mg.sampling._chunker

    def failing_chunker(spec, seed):
        chunk = chunker(spec, seed)

        def failing(start, m):
            if start:
                raise exc
            return chunk(start, m)

        return failing

    monkeypatch.setattr(mg.sampling, "_chunker", failing_chunker)


class TestSampleWorkers:
    """``sample`` draws chunks in forked workers; the bytes never depend on how many."""

    @STREAM_SPECS
    @pytest.mark.parametrize("chunk", ["1", "7", None])
    def test_bytes_equal_serial_for_every_worker_count(
        self, spec, chunk, tmp_path, monkeypatch, capsys
    ):
        # a default chunk of 39 to 64 observations, so n=200 is at least 3 chunks
        monkeypatch.setattr(mg.sampling, "CHUNK_WORDS", 512)
        spec_path = tmp_path / "spec.json"
        fileio.dump_json(spec.to_json_dict(), spec_path)
        argv = ["sample", "--spec", str(spec_path), "--n", "200", "--seed", "5"]
        argv += ["--chunk-size", chunk] if chunk else []
        outputs = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            out = tmp_path / f"s{cpus}.csv"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), fileio.sidecar_path(out).read_bytes()))
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert child_pids() == []

    @pytest.mark.parametrize(
        "exc, code, message",
        [(DomainError("out of range"), 3, "out of range"), (SystemExit(9), 2, "exited with code 9")],
        ids=["domain-error", "worker-died"],
    )
    def test_worker_error_exits_with_its_code_and_leaves_nothing(
        self, exc, code, message, tmp_path, result_file, monkeypatch, capsys
    ):
        _failing_chunks(monkeypatch, exc)
        _cpus(monkeypatch, 2)
        out = tmp_path / "out" / "s.csv"
        out.parent.mkdir()
        out.write_text("old\n")
        argv = ["sample", "--spec", str(result_file), "--n", "50", "--chunk-size", "3"]
        assert main([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert sorted(p.name for p in out.parent.iterdir()) == ["s.csv"]
        assert out.read_text() == "old\n"
        assert child_pids() == []

    def test_interrupt_stops_every_worker(self, tmp_path, result_file, monkeypatch, capsys):
        # Ctrl-C reaches the parent while the workers draw: they are stopped,
        # the temporary file is removed, and the interrupt propagates
        def interrupted(self, fingerprint=""):
            raise KeyboardInterrupt

        monkeypatch.setattr(mg.ModelSpec, "digest", interrupted)
        _cpus(monkeypatch, 2)
        out = tmp_path / "out" / "s.csv"
        out.parent.mkdir()
        argv = ["sample", "--spec", str(result_file), "--n", "50", "--chunk-size", "3"]
        with pytest.raises(KeyboardInterrupt):
            main([*argv, "--out", str(out)])
        assert list(out.parent.iterdir()) == []
        assert child_pids() == []

    def test_a_worker_stopped_before_it_serves_dies_by_the_signal(self):
        # A worker inherits sample's SIGTERM handler, which raises; run in a
        # worker that has not reset it yet, it would unwind the fork itself,
        # and the parent could wait for that worker forever.
        code = (
            "import os, signal, time\n"
            "from mevgen import fileio\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "serve = fileio._serve\n"
            "fileio._serve = lambda *args: time.sleep(0.3) or serve(*args)\n"
            "waitpid, statuses = os.waitpid, []\n"
            "os.waitpid = lambda *args: statuses.append(waitpid(*args)[1]) or (args[0], statuses[-1])\n"
            "def stop(signum, frame):\n"
            "    raise SystemExit(143)\n"
            "signal.signal(signal.SIGTERM, stop)\n"
            "with fileio._forked_map(str, range(4)):\n"
            "    pass\n"
            "print(sorted(os.waitstatus_to_exitcode(status) for status in statuses))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"[{-signal.SIGTERM}, {-signal.SIGTERM}]"

    def test_at_most_two_chunks_per_worker_are_outstanding(self, tmp_path, monkeypatch):
        # each result is 1 MiB, more than a pipe holds, so a worker that is
        # ahead of the reader stalls in its write; smaller results run further
        _cpus(monkeypatch, 3)
        spec = mg.ModelSpec(alpha=EX3_ALPHA, C=1.0)
        chunk, starts = mg.sampling._chunk_plan(spec, 100, 8, 4)
        log = tmp_path / "started"
        log.touch()
        texts = []

        def job(start):
            with open(log, "ab") as fh:  # O_APPEND: the workers' lines never mix
                fh.write(b"%d\n" % start)
            return b"".join(fileio._csv_pieces(chunk(start), spec.d)), bytes(2**20)

        def started() -> int:
            return log.read_bytes().count(b"\n")

        with fileio._forked_map(job, starts) as it:
            time.sleep(0.2)  # a slow reader: each worker stalls in its first write
            assert started() <= 3
            for i, (text, pad) in enumerate(it):
                assert started() <= i + 1 + 2 * 3
                texts.append(text)
                assert pad == bytes(2**20)
        assert sorted(map(int, log.read_bytes().split())) == list(starts)
        assert b"".join(texts) == b"".join(fileio._csv_pieces(mg.sample_batch(spec, 100, 8).data, 3))
        assert child_pids() == []

    def test_each_worker_gets_one_pipe(self, monkeypatch):
        _cpus(monkeypatch, 3)
        pipe, pipes = os.pipe, []
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(1) or pipe())
        with fileio._forked_map(str, range(7)) as it:
            assert list(it) == [str(i) for i in range(7)]
        assert len(pipes) == 3 and child_pids() == []

    def test_a_failed_fork_leaks_no_descriptor(self, monkeypatch):
        _cpus(monkeypatch, 3)
        fork, forks = os.fork, []

        def failing():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        before = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", failing)
        with pytest.raises(OSError, match="temporarily unavailable"):
            with fileio._forked_map(str, range(6)):
                pass
        assert child_pids() == []
        assert len(os.listdir("/proc/self/fd")) == before

    def test_multiprocessing_is_never_imported(self, tmp_path, result_file):
        # importing it would cost every forking stage 15-20 ms: the fork map
        # is built on os.fork, so neither a forking sample nor an estimate
        # parsed in spans loads it
        csv = str(tmp_path / "s.csv")
        code = (
            "import os, sys; from mevgen import fileio; from mevgen.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "fileio._READ_BYTES = 1000\n"
            "imported = ['multiprocessing' in sys.modules]\n"
            f"assert main(['sample', '--spec', {str(result_file)!r}, '--n', '50',"
            f" '--chunk-size', '3', '--out', {csv!r}]) == 0\n"
            "imported.append('multiprocessing' in sys.modules)\n"
            f"with open({csv!r}, 'rb') as raw: raw.readline(); spans = fileio._line_spans(raw)\n"
            "assert len(spans) >= 2\n"
            f"assert main(['estimate', '--data', {csv!r}, '--u', '0.9']) == 0\n"
            "imported.append('multiprocessing' in sys.modules)\n"
            "print(len(forks), *imported)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-4:] == ["4", "False", "False", "False"]

    def test_json_writing_stages_never_import_numpy_ma(self, tmp_path, target_file, samples_file):
        # importing it would cost each of them about 15 ms: the JSON writer's
        # np.unique runs with return_inverse, the form that skips
        # np.ma.is_masked, and plot's clip takes no np.percentile
        model, coeffs, report = (str(tmp_path / name) for name in ("m.json", "c.json", "e.json"))
        svg = str(tmp_path / "p.svg")
        code = (
            "import contextlib, io, sys; from mevgen.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['synth', '--target', {str(target_file)!r}, '--out', {model!r}]) == 0\n"
            f"    assert main(['coeffs', '--spec', {model!r}, '--out', {coeffs!r}]) == 0\n"
            f"    assert main(['estimate', '--data', {str(samples_file)!r}, '--u', '0.9',"
            f" '--spec', {model!r}, '--out', {report!r}]) == 0\n"
            f"    assert main(['plot', '--data', {str(samples_file)!r}, '--out', {svg!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        assert "exact_finite_u" in json.loads(Path(report).read_text())


_SLOW_SAMPLE = """
import os, sys, time
import mevgen.sampling as sampling
from conftest import child_pids
from mevgen.cli import main

os.sched_getaffinity = lambda pid: {0, 1}
chunker = sampling._chunker


def slow_chunker(spec, seed):
    chunk = chunker(spec, seed)

    def slow(start, m):
        time.sleep(0.01)
        return chunk(start, m)

    return slow


sampling._chunker = slow_chunker
try:
    main(["sample", "--spec", sys.argv[1], "--n", "100000", "--chunk-size", "10",
          "--out", sys.argv[2]])
finally:
    print("children", child_pids(), flush=True)
"""


def _start_slow_sample(spec, out: Path) -> tuple[subprocess.Popen, Path]:
    """Start a ``sample`` that takes about a minute; return it once its temp file has data."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_SAMPLE, str(spec), str(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    temp = out.with_name(f".{out.name}.{proc.pid}.tmp")
    deadline = time.monotonic() + 60
    while not (temp.exists() and temp.stat().st_size > 100):
        assert proc.poll() is None and time.monotonic() < deadline, proc.stderr.read()
        time.sleep(0.02)
    return proc, temp


class TestKilledSample:
    """A ``sample`` ended by a signal leaves no temporary file behind for long."""

    def test_sigterm_removes_the_temp_file_and_stops_the_workers(self, tmp_path, result_file):
        out = tmp_path / "out" / "s.csv"
        out.parent.mkdir()
        proc, _ = _start_slow_sample(result_file, out)
        proc.terminate()
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 143, stderr
        assert "Traceback" not in stderr
        assert stdout.split("\n")[-2] == "children []"
        assert list(out.parent.iterdir()) == []

    def test_the_workers_of_a_killed_sample_exit_promptly(self, tmp_path, result_file):
        out = tmp_path / "out" / "s.csv"
        out.parent.mkdir()
        proc, _ = _start_slow_sample(result_file, out)
        workers = []
        for children in Path(f"/proc/{proc.pid}/task").glob("*/children"):
            workers += map(int, children.read_text().split())
        proc.kill()
        try:
            proc.wait(timeout=60)  # not communicate: the workers hold its stdout open
            assert len(workers) == 2

            def running(pid: int) -> bool:
                try:
                    stat = Path(f"/proc/{pid}/stat").read_text()
                except FileNotFoundError:
                    return False
                return stat[stat.rindex(")") + 2] != "Z"  # a zombie has exited

            deadline = time.monotonic() + 5
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert not any(map(running, workers))
        finally:
            proc.communicate(timeout=120)

    def test_the_next_write_removes_a_killed_writers_temp_file(self, tmp_path, result_file):
        out = tmp_path / "out" / "s.csv"
        out.parent.mkdir()
        proc, temp = _start_slow_sample(result_file, out)
        proc.kill()
        proc.communicate(timeout=60)
        assert temp.exists()
        # the file of a live pid (1, the init process) and names that are no
        # writer's temp file for this path stay
        kept = [".s.csv.1.tmp", ".s.csv.x.tmp", ".s.csv..tmp", ".t.csv.999999999.tmp"]
        for name in kept:
            (out.parent / name).write_text("")
        argv = ["sample", "--spec", str(result_file), "--n", "10", "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        names = sorted(p.name for p in out.parent.iterdir())
        assert names == sorted(kept + ["s.csv", "s.csv.meta.json"])


class TestStartup:
    def test_cli_import_leaves_out_numpy_random_and_multiprocessing(self):
        code = (
            "import sys, mevgen.cli\n"
            "print([m for m in ('numpy.random', 'multiprocessing', 'mevgen._csvfmt')"
            " if m in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @staticmethod
    def _fresh(code: str, **env: str) -> str:
        """The output of ``code`` in a new process without ``OPENBLAS_NUM_THREADS``, or with
        ``env``."""
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env = {**base, "PYTHONPATH": os.pathsep.join(sys.path), **env}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_import_starts_numpy_without_a_blas_thread_pool(self):
        code = "import os, mevgen.cli; print(len(os.listdir('/proc/self/task')))"
        assert self._fresh(code) == "1"

    def test_a_preset_blas_thread_count_is_kept(self):
        code = "import os, mevgen.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert self._fresh(code, OPENBLAS_NUM_THREADS="2") == "2"

    def test_the_package_import_alone_sets_nothing(self):
        code = "import os, mevgen; print('OPENBLAS_NUM_THREADS' in os.environ)"
        assert self._fresh(code) == "False"

    #: The mevgen modules that ``import mevgen.cli`` loads.
    CLI_MODULES = ["mevgen", "mevgen.cli", "mevgen.errors", "mevgen.fileio", "mevgen.model"]

    #: The modules each subcommand loads besides those; every file written as
    #: JSON formats its floats through _csvfmt.
    STAGE_MODULES = {
        "synth": ["mevgen._csvfmt", "mevgen.synthesis"],
        "coeffs": ["mevgen._csvfmt"],
        "cdf": [],
        "sample": ["mevgen._csvfmt", "mevgen.sampling"],
        "estimate": ["mevgen._csvfmt", "mevgen.estimation", "mevgen.sampling"],
        "plot": ["mevgen._csvfmt", "mevgen.plotting"],
        "check": [],
    }

    def test_each_subcommand_loads_only_its_own_modules(
        self, tmp_path, target_file, result_file, samples_file
    ):
        # each subcommand runs in a child forked right after import mevgen.cli;
        # then the parent resolves every public name
        spec, out = str(result_file), str(tmp_path / "out")
        argv = {
            "synth": ["synth", "--target", str(target_file), "--out", out],
            "coeffs": ["coeffs", "--spec", spec, "--out", out],
            "cdf": ["cdf", "--spec", spec, "--at", "1,2,3"],
            "sample": ["sample", "--spec", spec, "--n", "20", "--out", out],
            "estimate": ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", spec],
            "plot": ["plot", "--data", str(samples_file), "--out", out],
            "check": ["check", "--spec", spec],
        }
        code = (
            "import contextlib, io, json, os, sys\n"
            "import mevgen.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'mevgen')\n"
            "print(json.dumps(loaded()))\n"
            "for name, argv in json.loads(sys.argv[1]).items():\n"
            "    sys.stdout.flush()\n"
            "    pid = os.fork()\n"
            "    if pid == 0:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            code = mevgen.cli.main(argv)\n"
            "        print(json.dumps([name, code, loaded()]), flush=True)\n"
            "        os._exit(0)\n"
            "    assert os.waitpid(pid, 0)[1] == 0\n"
            "names = {}\n"  # then every public name resolves, and import * takes them all
            "exec('from mevgen import *', names)\n"
            "print(json.dumps(sorted(set(mevgen.__all__) - set(names)) + [len(mevgen.__all__)]))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(argv)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0]) == self.CLI_MODULES
        assert json.loads(lines[-1]) == [35]
        got = {name: (code, modules) for name, code, modules in map(json.loads, lines[1:-1])}
        assert got == {
            name: (0, sorted(self.CLI_MODULES + extra))
            for name, extra in self.STAGE_MODULES.items()
        }

    def test_check_does_not_import_numpy_random(self, result_file):
        code = (
            "import contextlib, io, sys; from mevgen.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['check', '--spec', {str(result_file)!r}]) == 0\n"
            "print('numpy.random' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _split_reads(monkeypatch, cpus: int, span_bytes: int = 2**16) -> None:
    """Make the CSV reader see ``cpus`` CPUs and cut bodies into spans of ``span_bytes`` bytes."""
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(fileio, "_READ_BYTES", span_bytes)


class TestParallelEstimate:
    """``estimate`` and ``plot`` parse on every CPU with the output and errors of one."""

    def _run(self, argv, capsys):
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_report_and_svg_do_not_depend_on_the_cpu_count(
        self, samples_file, result_file, tmp_path, monkeypatch, capsys
    ):
        # the same rows as %.6f text, which the kernel reads, and as np.savetxt's
        # default %.18e, whose every piece falls back to the line parser
        data = fileio.read_csv(samples_file)
        bodies = [samples_file, tmp_path / "short.csv", tmp_path / "long.csv"]
        for path, fmt in zip(bodies[1:], ("%.6f", "%.18e")):
            np.savetxt(path, data, fmt=fmt, delimiter=",", header="x1,x2,x3", comments="")
        for csv in bodies:
            outputs = []
            for cpus in (1, 2, 3):
                _split_reads(monkeypatch, cpus)
                est, svg = tmp_path / f"e{cpus}.json", tmp_path / f"p{cpus}.svg"
                argv = ["estimate", "--data", str(csv), "--u", "0.9"]
                assert main([*argv, "--spec", str(result_file), "--out", str(est)]) == 0
                assert main(["plot", "--data", str(csv), "--out", str(svg)]) == 0
                outputs.append((est.read_bytes(), svg.read_bytes()))
            with open(csv, "rb") as raw:
                raw.readline()
                assert len(fileio._line_spans(raw)) >= 3
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0], csv.name
        assert child_pids() == []

    def test_a_csv_replaced_while_plot_reads_it_plots_the_opened_file(
        self, samples_file, result_file, tmp_path, monkeypatch
    ):
        # sample replaces its output by os.replace: a read that opened the
        # path again would plot the rows of both files
        _split_reads(monkeypatch, 2)
        svgs = [tmp_path / f"p{i}.svg" for i in range(3)]
        assert main(["plot", "--data", str(samples_file), "--out", str(svgs[0])]) == 0
        other = tmp_path / "other.csv"
        argv = ["sample", "--spec", str(result_file), "--n", "5000", "--seed", "8"]
        assert main([*argv, "--out", str(other), "--no-sidecar"]) == 0
        line_spans = fileio._line_spans

        def replacing(raw):
            spans = line_spans(raw)
            os.replace(other, samples_file)
            return spans

        monkeypatch.setattr(fileio, "_line_spans", replacing)
        assert main(["plot", "--data", str(samples_file), "--out", str(svgs[1])]) == 0
        monkeypatch.setattr(fileio, "_line_spans", line_spans)
        assert main(["plot", "--data", str(samples_file), "--out", str(svgs[2])]) == 0
        assert svgs[1].read_bytes() == svgs[0].read_bytes() != svgs[2].read_bytes()
        assert child_pids() == []

    def test_the_spec_loads_while_the_workers_parse(
        self, samples_file, result_file, monkeypatch, capsys
    ):
        _split_reads(monkeypatch, 2)
        running = []
        load_spec = fileio.load_spec
        monkeypatch.setattr(
            fileio,
            "load_spec",
            lambda path: running.append(len(child_pids())) or load_spec(path),
        )
        argv = ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(result_file)]
        assert self._run(argv, capsys)[0] == 0
        assert running == [2]
        assert child_pids() == []

    @pytest.mark.parametrize(
        "bad",
        [b"7,x,1", b"7,8", b"inf,8,9", b"7,8,\xff"],
        ids=["bad-value", "field-count", "inf", "non-utf8"],
    )
    def test_bad_line_in_the_second_range_exits_as_in_process(
        self, bad, samples_file, result_file, monkeypatch, capsys
    ):
        lines = samples_file.read_bytes().split(b"\n")
        lines.insert(3 * len(lines) // 4, bad)
        samples_file.write_bytes(b"\n".join(lines))
        argv = ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(result_file)]
        results = []
        for cpus in (1, 2):
            _split_reads(monkeypatch, cpus)
            results.append(self._run(argv, capsys))
        assert results[0][0] == 2 and "Traceback" not in results[0][2]
        assert results[1] == results[0]
        assert child_pids() == []

    @pytest.mark.parametrize(
        "csv_fault, spec_fault, code, message",
        [
            ("row", "shape", 2, "line 3"),
            ("row", "json", 2, "line 3"),
            ("count", "shape", 4, "sidecar records n="),
            ("empty", "json", 2, "holds no observations"),
            (None, "shape", 3, "alpha"),
            (None, "json", 2, "JSON parse failure"),
        ],
    )
    def test_errors_keep_their_order_csv_then_sidecar_then_spec(
        self, csv_fault, spec_fault, code, message, samples_file, tmp_path, monkeypatch, capsys
    ):
        lines = samples_file.read_bytes().split(b"\n")
        if csv_fault == "row":
            lines[2] = b"1,2"
        elif csv_fault == "count":
            del lines[5]
        elif csv_fault == "empty":
            lines = [lines[0], b""]
            fileio.sidecar_path(samples_file).unlink()
        samples_file.write_bytes(b"\n".join(lines))
        spec = tmp_path / "bad_spec.json"
        spec.write_text('{"d": 3, "D": 1, "C": 1.0}' if spec_fault == "shape" else "{")
        argv = ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(spec)]
        results = []
        for cpus in (1, 2):
            _split_reads(monkeypatch, cpus)
            results.append(self._run(argv, capsys))
        assert results[0][0] == code and message in results[0][2], results[0]
        assert results[1] == results[0]
        assert child_pids() == []

    def test_interrupt_during_the_spec_load_stops_every_worker(
        self, samples_file, result_file, monkeypatch
    ):
        _split_reads(monkeypatch, 2)

        def interrupted(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(fileio, "load_spec", interrupted)
        argv = ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(result_file)]
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert child_pids() == []


class TestAffinityMask:
    """A real one-CPU affinity mask, set in a fresh process, gives the bytes of every CPU."""

    #: Sets the mask given in argv[1] (none: the inherited one), runs the stages in argv[2],
    #: and prints the CPU count the fork map sees.
    CODE = (
        "import json, os, sys\n"
        "cpus, stages = map(json.loads, sys.argv[1:])\n"
        "if cpus is not None:\n"
        "    os.sched_setaffinity(0, cpus)\n"
        "from mevgen import cli, fileio\n"
        "for argv in stages:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(fileio._cpu_count())\n"
    )

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks here")
    def test_one_cpu_gives_the_bytes_of_every_cpu(self, tmp_path, result_file):
        inherited = os.sched_getaffinity(0)
        if len(inherited) < 2:
            pytest.skip("this process may run on one CPU only, so no mask can narrow it")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        runs = {}
        for name, cpus in (("all", None), ("one", [min(inherited)])):
            out = tmp_path / name
            out.mkdir()
            csv, spec = str(out / "s.csv"), str(result_file)
            # 90k rows of three columns: a body over 4 MiB, read in at least two spans;
            # sample draws five chunks
            stages = [
                ["sample", "--spec", spec, "--n", "90000", "--seed", "4", "--out", csv],
                ["estimate", "--data", csv, "--u", "0.95", "--spec", spec],
                ["plot", "--data", csv, "--pairs", "1,2", "--out", str(out / "p.svg")],
            ]
            stages[0] += ["--chunk-size", "20000"]
            stages[1] += ["--out", str(out / "e.json")]
            argv = [sys.executable, "-c", self.CODE, json.dumps(cpus), json.dumps(stages)]
            runs[name] = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
            )
        seen = {}
        for name, proc in runs.items():
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
            seen[name] = int(stdout.splitlines()[-1])  # after the stages' own lines
        assert seen == {"all": len(inherited), "one": 1}
        with open(tmp_path / "all" / "s.csv", "rb") as raw:
            raw.readline()
            assert len(fileio._line_spans(raw)) >= 2
        for name in ("s.csv", "s.csv.meta.json", "e.json", "p.svg"):
            all_cpus, one_cpu = (tmp_path / run / name for run in runs)
            assert all_cpus.read_bytes() == one_cpu.read_bytes(), name


class TestCoeffs:
    def test_matches_library_to_full_precision(self, result_file, capsys, ex3_spec):
        rc = main(["coeffs", "--spec", str(result_file)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["lambda"] == mg.tail_dep_matrix(ex3_spec).values.tolist()
        assert obj["extremal"] == mg.extremal_matrix(ex3_spec).tolist()

    def test_independence_spec_prints_identity(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        fileio.dump_json(mg.ModelSpec(alpha=np.zeros((3, 1)), C=1.0).to_json_dict(), spec_path)
        rc = main(["coeffs", "--spec", str(spec_path)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["lambda"] == np.eye(3).tolist()
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.array(obj["extremal"])[off] == 2.0)


class TestCdf:
    def test_joint_cdf_hand_value(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = mg.ModelSpec(alpha=[[0.5, 2.0], [0.25, 2.0], [1.0, 0.5]], C=2.5)
        fileio.dump_json(spec.to_json_dict(), spec_path)
        rc = main(["cdf", "--spec", str(spec_path), "--at", "1,2,4"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["log_cdf"] == pytest.approx(-2.875, abs=1e-15)

    def test_a_point_where_one_over_x_overflows_has_cdf_zero(self, tmp_path, capsys):
        # 1/1e-320 is inf, and margin 1's slack is 0: 0 * inf printed NaN with two warnings
        spec_path = tmp_path / "spec.json"
        fileio.dump_json(mg.ModelSpec(alpha=[[0.5, 0.5], [0.5, 0.2]], C=1.0).to_json_dict(), spec_path)
        capsys.readouterr()
        assert main(["cdf", "--spec", str(spec_path), "--at", "1e-320,1"]) == 0
        out, err = capsys.readouterr()
        obj = json.loads(out)
        assert obj["cdf"] == 0.0 and obj["log_cdf"] == -np.inf and err == ""

    def test_copula_evaluation(self, result_file, capsys, ex3_spec):
        rc = main(["cdf", "--spec", str(result_file), "--at", "0.5,0.5,0.5", "--copula"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["log_copula"] == pytest.approx(
            mg.log_copula(ex3_spec, [0.5, 0.5, 0.5]), abs=1e-15
        )

    def test_wrong_arity_is_usage_error(self, result_file):
        assert main(["cdf", "--spec", str(result_file), "--at", "1,2"]) == 2

    def test_out_of_domain_point_is_validation_error(self, result_file):
        assert main(["cdf", "--spec", str(result_file), "--at", "0,1,1"]) == 3


class TestEstimate:
    def test_rank_only_report(self, samples_file, capsys):
        rc = main(["estimate", "--data", str(samples_file), "--u", "0.95"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["margins"] == "rank"
        assert obj["n"] == 5000
        assert obj["exact_finite_u"] is None
        assert obj["lambda_limit"] is None
        assert "known" not in obj

    def test_spec_enables_theoretical_comparison(self, samples_file, result_file, capsys):
        rc = main(
            ["estimate", "--data", str(samples_file), "--u", "0.95", "--spec", str(result_file)]
        )
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(obj["lambda_limit"], EX3_LAMBDA, atol=1e-12)
        assert obj["exact_finite_u"][0][1] == pytest.approx(
            mg.finite_u_tail_dep(0.95, 0.2)
        )
        assert obj["known"]["margins"] == "known"
        assert obj["known"]["flagged_pairs"] == []
        # the model matrices appear once, at the top level of the report
        assert "lambda_limit" not in obj["known"]
        assert "exact_finite_u" not in obj["known"]

    def test_report_keys_are_pinned(self, samples_file, result_file, capsys):
        rc = main(
            ["estimate", "--data", str(samples_file), "--u", "0.95", "--spec", str(result_file)]
        )
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        report = {"u", "n", "d", "margins", "lambda_hat", "counts", "half_width"}
        assert set(obj) == report | {"exact_finite_u", "lambda_limit", "known"}
        assert set(obj["known"]) == report | {"flagged_pairs"}

    def test_provenance_mismatch_exits_4(self, samples_file, tmp_path, capsys):
        # same dimension as the samples but a different model, so only the
        # fingerprint can tell them apart
        other = tmp_path / "other.json"
        lam = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
        fileio.dump_json(mg.TailDepMatrix(lam).to_json_dict(), tmp_path / "t2.json")
        assert main(["synth", "--target", str(tmp_path / "t2.json"), "--out", str(other)]) == 0
        capsys.readouterr()
        rc = main(
            ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(other)]
        )
        assert rc == 4

    def test_missing_sidecar_warns_but_proceeds(self, samples_file, result_file, capsys):
        fileio.sidecar_path(samples_file).unlink()
        rc = main(
            ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(result_file)]
        )
        assert rc == 0
        assert "no provenance sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize("keep_rows", [1000, 0])
    def test_truncated_data_exits_4(self, samples_file, result_file, keep_rows, capsys):
        # the sidecar still records n=5000 after the file loses rows
        lines = samples_file.read_text().splitlines(keepends=True)
        samples_file.write_text("".join(lines[: 1 + keep_rows]))
        rc = main(
            ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(result_file)]
        )
        assert rc == 4
        assert f"holds {keep_rows} observations but its sidecar records n=5000" in (
            capsys.readouterr().err
        )

    def test_old_indented_sidecar_and_spec_accepted(self, samples_file, result_file, capsys):
        # files written before JSON output became one compact line
        for path in (fileio.sidecar_path(samples_file), result_file):
            obj = json.loads(path.read_text())
            path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        rc = main(
            ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(result_file)]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["known"]["n"] == 5000

    def test_threshold_out_of_range_is_usage_error(self, samples_file):
        assert main(["estimate", "--data", str(samples_file), "--u", "1.0"]) == 2

    def test_malformed_row_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1.0,2.0\noops\n")
        rc = main(["estimate", "--data", str(bad), "--u", "0.9"])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows", [["-1.0,-2.0,-3.0"] * 200, ["1.0,2.0,3.0", "2.0,0,1.0"]], ids=["negative", "zero"]
    )
    def test_nonpositive_data_with_spec_exits_3(self, rows, result_file, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x1,x2,x3\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        argv = ["estimate", "--data", str(data), "--u", "0.9"]
        assert main([*argv, "--spec", str(result_file)]) == 3
        err = capsys.readouterr().err
        assert "requires positive observations" in err
        assert "Warning:" not in err and "Traceback" not in err
        assert main(argv) == 0  # rank margins take any finite values

    def test_invalid_spec_exits_3_before_width_and_provenance(self, samples_file, tmp_path, capsys):
        # a 2-margin spec against 3-column data whose sidecar names another spec
        bad = tmp_path / "spec.json"
        fileio.dump_json({"d": 2, "D": 1, "C": 1.0, "alpha": [[2.0], [0.1]]}, bad)
        capsys.readouterr()
        rc = main(["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(bad)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "error: validation failed:\n  - row 0 sum 2.0 exceeds scale constant C=1.0\n"

    def test_report_written_to_file(self, samples_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["estimate", "--data", str(samples_file), "--u", "0.9", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["u"] == 0.9

    def test_stdout_report_stays_indented(self, samples_file, capsys):
        assert main(["estimate", "--data", str(samples_file), "--u", "0.9"]) == 0
        assert '\n  "margins": "rank",\n' in capsys.readouterr().out


class TestPlot:
    def test_writes_panels_for_all_pairs(self, samples_file, tmp_path):
        out = tmp_path / "fig.svg"
        rc = main(["plot", "--data", str(samples_file), "--out", str(out)])
        assert rc == 0
        svg = out.read_text()
        for label in ("X_1 vs X_2", "X_1 vs X_3", "X_2 vs X_3"):
            assert label in svg

    def test_pair_selection_and_log_scale(self, samples_file, tmp_path):
        out = tmp_path / "fig.svg"
        rc = main(
            ["plot", "--data", str(samples_file), "--out", str(out), "--pairs", "1,2", "--log"]
        )
        assert rc == 0
        svg = out.read_text()
        assert "X_1 vs X_2" in svg
        assert "X_1 vs X_3" not in svg

    def test_unknown_pair_is_usage_error(self, samples_file, tmp_path):
        rc = main(
            ["plot", "--data", str(samples_file), "--out", str(tmp_path / "f.svg"), "--pairs", "1,4"]
        )
        assert rc == 2

    def test_empty_batch_plots_axes(self, tmp_path, result_file):
        csv = tmp_path / "empty.csv"
        assert main(["sample", "--spec", str(result_file), "--n", "0", "--out", str(csv)]) == 0
        out = tmp_path / "fig.svg"
        assert main(["plot", "--data", str(csv), "--out", str(out)]) == 0
        assert "X_1 vs X_2" in out.read_text()

    def test_identical_input_gives_identical_svg(self, samples_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert main(["plot", "--data", str(samples_file), "--out", str(out)]) == 0
        assert a.read_text() == b.read_text()


class TestCheck:
    def test_valid_spec_passes_smoke_suite(self, result_file, capsys):
        rc = main(["check", "--spec", str(result_file)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "all checks passed" in printed
        assert "max-stability" in printed

    def test_invalid_spec_lists_violations(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        fileio.dump_json({"d": 2, "D": 1, "C": -1.0, "alpha": [[0.1], [0.1]]}, bad)
        rc = main(["check", "--spec", str(bad)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: validation failed:\n  - scale constant C=-1.0 must be")

    def test_subnormal_scale_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        fileio.dump_json({"d": 2, "D": 1, "C": 5e-324, "alpha": [[5e-324], [5e-324]]}, bad)
        assert main(["check", "--spec", str(bad)]) == 3
        assert "smallest normal float64" in capsys.readouterr().err

    def test_a_scale_whose_draws_overflow_is_rejected(self, tmp_path, capsys):
        # weights up to 1e308 times unit Frechet draws up to 2**52 overflow: sample once wrote
        # inf on 808 of 2000 lines with exit 0, and check reported a false failure
        bad, out = tmp_path / "spec.json", tmp_path / "s.csv"
        bad.write_text('{"d":2,"D":1,"C":1e308,"alpha":[[1e308],[1e308]]}')
        assert main(["sample", "--spec", str(bad), "--n", "2000", "--out", str(out)]) == 3
        assert main(["check", "--spec", str(bad)]) == 3
        assert capsys.readouterr().err.count("exceeds 2**970, above which draws overflow") == 2
        assert list(tmp_path.iterdir()) == [bad]

    def test_the_largest_scale_samples_finite_values(self, tmp_path, capsys):
        spec, out = tmp_path / "spec.json", tmp_path / "s.csv"
        c = 2.0**970
        fileio.dump_json({"d": 2, "D": 1, "C": c, "alpha": [[c], [c]]}, spec)
        assert main(["sample", "--spec", str(spec), "--n", "2000", "--out", str(out)]) == 0
        assert np.isfinite(fileio.read_csv(out)).all()
        assert main(["check", "--spec", str(spec)]) == 0
        assert "all checks passed" in capsys.readouterr().out


#: ``samples_file``'s sidecar as ``sample`` wrote it while sidecars carried the spec
#: fingerprint (the pinned EX3 hex) and its digest; before that, the fingerprint alone.
OLD_SIDECAR = {
    "n": 5000,
    "seed": 7,
    "spec_digest": "b71eb4487e2d9f6bf3e98cf816d950ea3d1e2179e6552d45c76da8fad8daf481",
    "spec_fingerprint": "1d3eec8248091cb7dc17b69230b85b4df73196a95d47c5a4e76a1b9a5f2bfd9a",
}
OLD_LAYOUTS = {
    "fingerprint": ("n", "seed", "spec_fingerprint"),
    "fingerprint-and-digest": ("n", "seed", "spec_digest", "spec_fingerprint"),
}


class TestSpecDigest:
    """``sample`` writes the spec digest; ``estimate --spec`` takes a fingerprint only
    for an old sidecar whose digest is missing or differs."""

    @staticmethod
    def _estimate(samples_file, result_file, monkeypatch, capsys) -> tuple[int, int, str]:
        calls = []
        fingerprint = mg.ModelSpec.fingerprint
        monkeypatch.setattr(
            mg.ModelSpec, "fingerprint", lambda self: calls.append(1) or fingerprint(self)
        )
        capsys.readouterr()
        argv = ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(result_file)]
        rc = main(argv)
        monkeypatch.undo()
        return rc, len(calls), capsys.readouterr().out

    @staticmethod
    def _edit_sidecar(samples_file, edit) -> None:
        path = fileio.sidecar_path(samples_file)
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))

    @staticmethod
    def _write_old_sidecar(samples_file, layout: str) -> None:
        meta = {key: OLD_SIDECAR[key] for key in OLD_LAYOUTS[layout]}
        fileio.dump_json(meta, fileio.sidecar_path(samples_file))

    @staticmethod
    def _edit_spec(result_file) -> None:
        obj = json.loads(result_file.read_text())
        obj["spec"]["C"] = 1.5  # still valid, but not the sampled spec
        result_file.write_text(json.dumps(obj))

    def test_sample_takes_no_fingerprint(self, tmp_path, result_file, monkeypatch, capsys):
        monkeypatch.setattr(
            mg.ModelSpec, "fingerprint", lambda self: pytest.fail("fingerprint taken")
        )
        argv = ["sample", "--spec", str(result_file), "--n", "50", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        assert set(fileio.load_sidecar(tmp_path / "s.csv")) == {"n", "seed", "spec_digest"}

    @pytest.mark.parametrize(
        "sidecar, fingerprints",
        [("with-digest", 0), ("without-digest", 1), ("absent", 0), ("old-with-digest", 0)],
    )
    def test_fingerprint_calls(
        self, sidecar, fingerprints, samples_file, result_file, monkeypatch, capsys
    ):
        _, _, expected = self._estimate(samples_file, result_file, monkeypatch, capsys)
        if sidecar == "without-digest":  # as written before the digest existed
            self._write_old_sidecar(samples_file, "fingerprint")
        elif sidecar == "old-with-digest":  # as written before the digest alone
            self._write_old_sidecar(samples_file, "fingerprint-and-digest")
        elif sidecar == "absent":
            fileio.sidecar_path(samples_file).unlink()
        rc, calls, out = self._estimate(samples_file, result_file, monkeypatch, capsys)
        assert (rc, calls) == (0, fingerprints)
        assert out == expected

    def test_edited_spec_exits_4(self, samples_file, result_file, monkeypatch, capsys):
        self._edit_spec(result_file)
        rc, calls, _ = self._estimate(samples_file, result_file, monkeypatch, capsys)
        assert (rc, calls) == (4, 0)

    @pytest.mark.parametrize("layout", OLD_LAYOUTS)
    def test_old_sidecar_against_another_spec_exits_4(
        self, layout, samples_file, result_file, monkeypatch, capsys
    ):
        self._write_old_sidecar(samples_file, layout)
        self._edit_spec(result_file)
        rc, calls, _ = self._estimate(samples_file, result_file, monkeypatch, capsys)
        assert (rc, calls) == (4, 1)

    def test_edited_fingerprint_with_digest_intact_exits_4(
        self, samples_file, result_file, monkeypatch, capsys
    ):
        self._write_old_sidecar(samples_file, "fingerprint-and-digest")
        self._edit_sidecar(samples_file, lambda meta: meta.update(spec_fingerprint="0" * 64))
        rc, calls, _ = self._estimate(samples_file, result_file, monkeypatch, capsys)
        assert (rc, calls) == (4, 1)

    def test_a_batch_without_provenance_writes_a_sidecar_estimate_reads(
        self, tmp_path, capsys
    ):
        path, spec = tmp_path / "s.csv", tmp_path / "spec.json"
        fileio.write_csv(mg.SampleBatch(np.full((3, 2), 2.0), seed=0, spec_fingerprint=""), path)
        assert fileio.sidecar_path(path).read_text() == '{"n":3,"seed":0}\n'
        assert main(["estimate", "--data", str(path), "--u", "0.5"]) == 0
        # a sidecar with no hash matches no spec
        fileio.dump_json({"d": 2, "D": 1, "C": 1.0, "alpha": [[0.5], [0.5]]}, spec)
        assert main(["estimate", "--data", str(path), "--u", "0.5", "--spec", str(spec)]) == 4

    @pytest.mark.parametrize(
        "digest",
        ["A" * 64, "a" * 63, "a" * 65, "g" * 64, None, 7, ["a" * 64]],
        ids=["uppercase", "short", "long", "non-hex", "null", "int", "list"],
    )
    def test_malformed_digest_exits_3(self, digest, samples_file, result_file, capsys):
        self._edit_sidecar(samples_file, lambda meta: meta.update(spec_digest=digest))
        capsys.readouterr()
        argv = ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(result_file)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "'spec_digest'" in err and "64 hex digits" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("with_spec", [False, True], ids=["rank-only", "with-spec"])
    @pytest.mark.parametrize(
        "fingerprint",
        [None, 5, ["x"], "A" * 64, "a" * 63],
        ids=["null", "int", "list", "uppercase", "short"],
    )
    def test_malformed_fingerprint_exits_3(
        self, fingerprint, with_spec, samples_file, result_file, capsys
    ):
        self._edit_sidecar(samples_file, lambda meta: meta.update(spec_fingerprint=fingerprint))
        capsys.readouterr()
        argv = ["estimate", "--data", str(samples_file), "--u", "0.9"]
        assert main(argv + ["--spec", str(result_file)] * with_spec) == 3
        err = capsys.readouterr().err
        assert "'spec_fingerprint'" in err and "64 hex digits" in err
        assert "Traceback" not in err


class TestValidatedOnce:
    """Each input is validated once per subcommand, by the library entry point."""

    VALIDATORS = ("require_valid_spec", "require_valid_tail_dep_matrix")

    @pytest.mark.parametrize(
        "command, spec_checks, target_checks",
        [
            ("synth", 1, 1),  # the target, then the built spec
            ("coeffs", 1, 0),
            ("cdf", 1, 0),
            ("sample", 1, 0),
            ("estimate", 0, 0),
            ("estimate --spec", 1, 0),
            ("plot", 0, 0),
            ("check", 1, 0),
        ],
    )
    def test_validator_calls(
        self, command, spec_checks, target_checks, tmp_path, target_file, result_file,
        samples_file, monkeypatch, capsys,
    ):
        spec, data = ["--spec", str(result_file)], ["--data", str(samples_file)]
        argv = {
            "synth": ["synth", "--target", str(target_file), "--out", str(tmp_path / "r.json")],
            "coeffs": ["coeffs", *spec],
            "cdf": ["cdf", *spec, "--at", "0.5,0.5,0.5"],
            "sample": ["sample", *spec, "--n", "10", "--out", str(tmp_path / "s.csv")],
            "estimate": ["estimate", *data, "--u", "0.9"],
            "estimate --spec": ["estimate", *data, "--u", "0.9", *spec],
            "plot": ["plot", *data, "--out", str(tmp_path / "f.svg")],
            "check": ["check", *spec],
        }[command]
        calls = dict.fromkeys(self.VALIDATORS, 0)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mevgen"]
        for name in self.VALIDATORS:
            orig = getattr(mg.model, name)

            def counted(*args, _name=name, _orig=orig):
                calls[_name] += 1
                return _orig(*args)

            # every module that imported the validator holds its own binding
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, attr, counted)
        assert main(argv) == 0
        assert calls == dict(zip(self.VALIDATORS, (spec_checks, target_checks)))


class TestHeaderFields:
    @pytest.mark.parametrize(
        "kind, field", [("spec", "d"), ("spec", "D"), ("target", "d"), ("sidecar", "seed"), ("sidecar", "n")]
    )
    def test_non_integer_field_is_validation_error(
        self, kind, field, tmp_path, samples_file, ex3_spec, capsys
    ):
        spec_path = tmp_path / "spec.json"
        target_path = tmp_path / "target.json"
        fileio.dump_json(ex3_spec.to_json_dict(), spec_path)
        fileio.dump_json(mg.TailDepMatrix(EX3_LAMBDA).to_json_dict(), target_path)
        path, argv = {
            "spec": (spec_path, ["check", "--spec", str(spec_path)]),
            "target": (target_path, ["synth", "--target", str(target_path), "--out", str(tmp_path / "r.json")]),
            "sidecar": (fileio.sidecar_path(samples_file), ["estimate", "--data", str(samples_file), "--u", "0.9"]),
        }[kind]
        obj = json.loads(path.read_text())
        obj[field] = "abc"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "'abc'" in err and "integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "value",
        ["abc", None, [1], "1.5", True],
        ids=["string", "null", "list", "numeric-string", "bool"],
    )
    def test_non_numeric_scale_is_validation_error(self, value, tmp_path, ex3_spec, capsys):
        path = tmp_path / "spec.json"
        obj = ex3_spec.to_json_dict()
        obj["C"] = value
        path.write_text(json.dumps(obj))
        assert main(["check", "--spec", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"C={value!r} must be a number" in err
        assert "Traceback" not in err


def _ex3_doc(layout: str) -> dict:
    """EX3 as a spec file object, with alpha in the given layout."""
    alpha = np.array(EX3_ALPHA)
    if layout == "sparse":
        i, j = np.nonzero(alpha)
        doc_alpha = {"i": i.tolist(), "j": j.tolist(), "v": alpha[i, j].tolist()}
    else:
        doc_alpha = alpha.tolist()
    return {"d": 3, "D": 3, "C": 1.0, "alpha": doc_alpha}


_NOT_AN_INDEX = st.sampled_from([-1, 3, 7, 10**20, 1.0, 0.5, True, False, "0", None, [0]])
_NOT_A_NUMBER = st.sampled_from(["abc", "", None, [0.1], [], {}, {"v": 1}])
_NOT_A_LIST = st.sampled_from([3, 0.5, "abc", None, True, {"a": 1}])
_NOT_AN_ALPHA = st.one_of(_NOT_A_NUMBER, st.sampled_from(["0.5", True, False, 10**400]))


@st.composite
def malformed_spec_docs(draw) -> dict:
    """EX3 spec objects in either layout with one malformed field."""
    layout = draw(st.sampled_from(["dense", "sparse"]))
    doc = _ex3_doc(layout)
    alpha = doc["alpha"]
    kinds = ["C", "d", "dense_value", "dense_shape", "not_a_list"]
    if layout == "sparse":
        kinds = ["C", "d", "index", "lengths", "repeat", "sparse_value", "not_a_list"]
    kind = draw(st.sampled_from(kinds))
    pos = draw(st.integers(0, 5))
    if kind == "C":
        doc["C"] = draw(st.one_of(_NOT_A_NUMBER, st.sampled_from(["1.5", True, False])))
    elif kind == "d":
        key = draw(st.sampled_from(["d", "D"]))
        doc[key] = draw(st.sampled_from([3.0, "3", True, None, -3]))
    elif kind == "dense_value":
        alpha[pos % 3][pos // 2] = draw(_NOT_AN_ALPHA)
    elif kind == "dense_shape":
        del alpha[pos % 3][pos // 2]
    elif kind == "not_a_list":
        if layout == "dense":
            doc["alpha"] = draw(_NOT_A_LIST)
        else:
            alpha[draw(st.sampled_from("ijv"))] = draw(_NOT_A_LIST)
    elif kind == "index":
        alpha[draw(st.sampled_from("ij"))][pos] = draw(_NOT_AN_INDEX)
    elif kind == "lengths":
        key = draw(st.sampled_from("ijv"))
        if draw(st.booleans()):
            del alpha[key][pos]
        else:
            alpha[key].append(alpha[key][pos])
    elif kind == "repeat":
        other = (pos + draw(st.integers(1, 5))) % 6
        alpha["i"][pos], alpha["j"][pos] = alpha["i"][other], alpha["j"][other]
    else:
        alpha["v"][pos] = draw(_NOT_AN_ALPHA)
    return doc


class TestMalformedSpecFuzz:
    @given(doc=malformed_spec_docs())
    @settings(max_examples=150, deadline=None)
    def test_exit_code_and_message_without_traceback(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(doc))
            for argv in (
                ["check", "--spec", str(path)],
                ["coeffs", "--spec", str(path)],
                ["sample", "--spec", str(path), "--n", "3", "--out", str(Path(tmp) / "s.csv")],
            ):
                err, out = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                    rc = main(argv)
                assert rc in (2, 3), (argv[0], rc)
                assert "error" in err.getvalue() or "invalid" in err.getvalue()
                assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_unmodified_docs_are_accepted(self, layout, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_ex3_doc(layout)))
        assert main(["check", "--spec", str(path)]) == 0


class TestAlphaValues:
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    @pytest.mark.parametrize(
        "value", ["0.5", True, None, 10**400], ids=["numeric-string", "bool", "null", "huge-int"]
    )
    def test_non_number_is_validation_error(self, layout, value, tmp_path, capsys):
        # "0.5" and true were coerced to numbers; 10**400 raised OverflowError
        doc = _ex3_doc(layout)
        if layout == "sparse":
            doc["alpha"]["v"][1] = value
        else:
            doc["alpha"][0][1] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        for cmd in ("check", "coeffs"):
            assert main([cmd, "--spec", str(path)]) == 3
            err = capsys.readouterr().err
            assert "must be numbers" in err or "float64 range" in err
            assert "Traceback" not in err

    def test_reported_example_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"d": 2, "D": 1, "C": 1.0, "alpha": [["0.5"], [true]]}')
        assert main(["check", "--spec", str(path)]) == 3
        assert "alpha[0][0]='0.5'" in capsys.readouterr().err


class TestTargetValues:
    @pytest.mark.parametrize(
        "lam, named",
        [
            ([[1, "0.5"], ["0.5", 1]], "lambda[0][1]='0.5'"),
            ([[True, 0.5], [0.5, True]], "lambda[0][0]=True"),
        ],
        ids=["numeric-string", "bool"],
    )
    def test_non_number_is_validation_error(self, lam, named, tmp_path, capsys):
        # both were coerced to numbers, and synth exited 0
        target, out = tmp_path / "target.json", tmp_path / "model.json"
        target.write_text(json.dumps({"d": 2, "lambda": lam}))
        assert main(["synth", "--target", str(target), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        assert not out.exists()


class TestNonUtf8Input:
    @pytest.mark.parametrize("kind", ["csv", "spec", "target", "sidecar"])
    def test_exits_2_without_traceback(self, kind, samples_file, result_file, target_file, capsys):
        bad = {
            "csv": samples_file,
            "spec": result_file,
            "target": target_file,
            "sidecar": fileio.sidecar_path(samples_file),
        }[kind]
        bad.write_bytes(bad.read_bytes().rstrip(b"\n") + b"\xff\n")
        if kind == "target":
            argv = ["synth", "--target", str(target_file), "--out", str(result_file)]
        else:
            argv = ["estimate", "--data", str(samples_file), "--u", "0.9"]
            argv += ["--spec", str(result_file)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input is not UTF-8 text" in err
        assert f"in {bad}\n" in err  # names the offending file
        assert "Traceback" not in err


class TestCheckSlacks:
    def test_slacks_computed_once_not_per_pair(self, tmp_path, monkeypatch, capsys):
        spec = _all_positive_spec(12, 30, seed=4)  # 66 pairs
        path = tmp_path / "spec.json"
        fileio.dump_json(spec.to_json_dict(), path)
        calls = []
        slacks = mg.ModelSpec.slacks
        monkeypatch.setattr(mg.ModelSpec, "slacks", lambda self: calls.append(1) or slacks(self))
        assert main(["check", "--spec", str(path)]) == 0
        assert "all checks passed" in capsys.readouterr().out
        assert len(calls) <= 2  # check itself and log_joint_cdf


class TestSpecLayout:
    def test_sparse_and_dense_files_sample_the_same_bytes(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        lam = np.eye(10)
        iu = np.triu_indices(10, 1)
        lam[iu] = lam[iu[1], iu[0]] = rng.uniform(0.0, 1.0 / 9.0, iu[0].size)
        target, result = tmp_path / "t.json", tmp_path / "r.json"
        fileio.dump_json(mg.TailDepMatrix(lam).to_json_dict(), target)
        assert main(["synth", "--target", str(target), "--out", str(result)]) == 0
        obj = json.loads(result.read_text())
        assert set(obj["spec"]["alpha"]) == {"i", "j", "v"}
        dense = tmp_path / "dense.json"
        obj["spec"]["alpha"] = fileio.load_spec(result).alpha.tolist()
        dense.write_text(json.dumps(obj, indent=2))
        for name, spec_path in (("a", result), ("b", dense)):
            rc = main(
                ["sample", "--spec", str(spec_path), "--n", "50", "--seed", "3",
                 "--out", str(tmp_path / f"{name}.csv")]
            )
            assert rc == 0
        for suffix in (".csv", ".csv.meta.json"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


class TestStoredRowSpecs:
    def test_absurd_declared_shape_exits_3_without_allocating(self, tmp_path):
        # an 80-byte file declaring d = D = 10**5: dense alpha would take 80 GB;
        # each stage refuses it, in a child whose address space is capped at
        # 1 GiB (set in the child only)
        import resource

        spec = tmp_path / "absurd.json"
        spec.write_text('{"d": 100000, "D": 100000, "C": 1.0, "alpha": {"i": [0], "j": [0], "v": [0.5]}}')
        code = (
            "import sys, time\n"
            "from mevgen.cli import main\n"
            f"spec, out = {str(spec)!r}, {str(tmp_path / 's.csv')!r}\n"
            "for argv in (['coeffs', '--spec', spec], ['check', '--spec', spec],\n"
            "             ['sample', '--spec', spec, '--n', '10', '--out', out]):\n"
            "    t = time.perf_counter()\n"
            "    code = main(argv)\n"
            "    print(argv[0], code, time.perf_counter() - t < 5.0)\n"
        )

        def cap() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env,
            preexec_fn=cap, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:3] == ["coeffs 3 True", "check 3 True", "sample 3 True"]
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("is over the limit of 536870912 = 2**29 entries") == 3
        assert not (tmp_path / "s.csv").exists()

    def test_pipeline_never_holds_dense_alpha(self, tmp_path):
        # d = 160: dense alpha is 160 x 12,720 floats, 16.3 MB; synth, coeffs,
        # sample and estimate --spec each hold O(nnz + d**2) in this process
        rng = np.random.default_rng(160)
        d = 160
        lam = np.triu(rng.uniform(0.0, 1.0 / (d - 1), size=(d, d)), 1)
        target, result = tmp_path / "t.json", tmp_path / "r.json"
        fileio.dump_json(mg.TailDepMatrix(lam + lam.T + np.eye(d)).to_json_dict(), target)
        csv = str(tmp_path / "s.csv")
        stages = [
            ["synth", "--target", str(target), "--out", str(result)],
            ["coeffs", "--spec", str(result), "--out", str(tmp_path / "c.json")],
            ["sample", "--spec", str(result), "--n", "100", "--seed", "1", "--out", csv],
            ["estimate", "--data", csv, "--u", "0.9", "--spec", str(result),
             "--out", str(tmp_path / "e.json")],
        ]
        peaks = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in stages:
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert max(peaks) < d * (d * (d - 1) // 2) * 8, peaks


class TestRoundTrip:
    def test_synth_then_coeffs_reproduces_scaled_target(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        out = tmp_path / "r.json"
        fileio.dump_json(mg.TailDepMatrix(EX2_LAMBDA).to_json_dict(), target)
        assert main(["synth", "--target", str(target), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["coeffs", "--spec", str(out)]) == 0
        obj = json.loads(capsys.readouterr().out)
        c_used = json.loads(out.read_text())["c_used"]
        lam = np.array(obj["lambda"])
        expect = np.array(EX2_LAMBDA) / c_used
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(lam[off], expect[off], rtol=0.0, atol=1e-12)

    def test_json_files_re_encode_to_themselves(self, tmp_path, result_file, samples_file):
        # a float's repr reads back to the same float, so a file re-encodes to
        # itself only if its writer wrote the C encoder's bytes
        coeffs, report = tmp_path / "coeffs.json", tmp_path / "report.json"
        assert main(["coeffs", "--spec", str(result_file), "--out", str(coeffs)]) == 0
        argv = ["estimate", "--data", str(samples_file), "--u", "0.9", "--spec", str(result_file)]
        assert main([*argv, "--out", str(report)]) == 0
        for path in (result_file, coeffs, report):
            text = path.read_text(encoding="utf-8")
            again = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
            assert text == again, path.name

    def test_flag_warning_names_ten_pairs_and_counts_the_rest(self, tmp_path, capsys):
        # comonotone unit Frechet data against an independence spec: every
        # pair estimates 1 with zero width, where the exact value is small
        indep = mg.ModelSpec(alpha=np.zeros((6, 1)), C=1.0)
        x = mg.sample_batch(indep, 2000, seed=4).data[:, :1]
        data, spec_path = tmp_path / "s.csv", tmp_path / "indep.json"
        fileio.write_csv(mg.SampleBatch(np.repeat(x, 6, axis=1), 0, ""), data, sidecar=False)
        fileio.dump_json(indep.to_json_dict(), spec_path)
        rc = main(["estimate", "--data", str(data), "--u", "0.9", "--spec", str(spec_path)])
        assert rc == 0
        out = capsys.readouterr()
        flagged = json.loads(out.out)["known"]["flagged_pairs"]
        assert len(flagged) == 30
        line = next(s for s in out.err.splitlines() if "half-widths" in s)
        listed = ", ".join(f"({s},{k})" for s, k in flagged[:10])
        assert line.endswith(f"for 30 pairs: {listed} and 20 more")

    def test_sample_then_estimate_passes_flag_check(self, tmp_path, target_file, capsys):
        result = tmp_path / "r.json"
        csv = tmp_path / "s.csv"
        assert main(["synth", "--target", str(target_file), "--out", str(result)]) == 0
        rc = main(["sample", "--spec", str(result), "--n", "100000", "--seed", "33", "--out", str(csv)])
        assert rc == 0
        capsys.readouterr()
        rc = main(["estimate", "--data", str(csv), "--u", "0.95", "--spec", str(result)])
        assert rc == 0
        out = capsys.readouterr()
        assert "more than 3 half-widths" not in out.err
        assert json.loads(out.out)["known"]["flagged_pairs"] == []
