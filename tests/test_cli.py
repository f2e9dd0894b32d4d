"""End-to-end CLI behavior: subcommands, file artifacts, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

import mevgen as mg
from mevgen import fileio
from mevgen.cli import main

from conftest import EX2_ALPHA, EX2_LAMBDA, EX3_LAMBDA


@pytest.fixture
def target_file(tmp_path):
    path = tmp_path / "target.json"
    fileio.dump_tail_dep(mg.TailDepMatrix(EX3_LAMBDA), path)
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
        fileio.dump_tail_dep(mg.TailDepMatrix(EX2_LAMBDA), target)
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
        fileio.dump_tail_dep(mg.TailDepMatrix(lam), target)
        assert main(["synth", "--target", str(target), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "c_used = 1\n" in printed
        assert "entrywise sufficient bound (all coefficients <= 1/(d-1)): yes" in printed
        assert "achieved matrix equals the target" in printed
        assert json.loads(out.read_text())["achieved"]["lambda"] == lam.tolist()

    def test_identity_target_warns(self, tmp_path, capsys):
        target = tmp_path / "ident.json"
        fileio.dump_tail_dep(mg.TailDepMatrix(np.eye(3)), target)
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
        fileio.dump_tail_dep(mg.TailDepMatrix(EX2_LAMBDA), target)
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

    def test_sidecar_written_with_fingerprint(self, samples_file, result_file):
        meta = fileio.load_sidecar(samples_file)
        spec = mg.ModelSpec.from_json_dict(json.loads(result_file.read_text())["spec"])
        assert meta["seed"] == 7
        assert meta["spec_fingerprint"] == spec.fingerprint()

    def test_plain_spec_file_accepted(self, tmp_path, ex3_spec):
        spec_path = tmp_path / "spec.json"
        fileio.dump_spec(ex3_spec, spec_path)
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

    @pytest.mark.parametrize("chunk", ["0", "-1"])
    def test_nonpositive_chunk_size_is_usage_error(self, tmp_path, result_file, chunk):
        out = tmp_path / "s.csv"
        argv = ["sample", "--spec", str(result_file), "--n", "5", "--chunk-size", chunk]
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()


class TestCoeffs:
    def test_matches_library_to_full_precision(self, result_file, capsys, ex3_spec):
        rc = main(["coeffs", "--spec", str(result_file)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["lambda"] == mg.tail_dep_matrix(ex3_spec).values.tolist()
        assert obj["extremal"] == mg.extremal_matrix(ex3_spec).tolist()

    def test_independence_spec_prints_identity(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        fileio.dump_spec(mg.ModelSpec(alpha=np.zeros((3, 1)), C=1.0), spec_path)
        rc = main(["coeffs", "--spec", str(spec_path)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["lambda"] == np.eye(3).tolist()
        off = ~np.eye(3, dtype=bool)
        assert np.all(np.array(obj["extremal"])[off] == 2.0)


class TestCdf:
    def test_joint_cdf_hand_value(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        fileio.dump_spec(mg.ModelSpec(alpha=[[0.5, 2.0], [0.25, 2.0], [1.0, 0.5]], C=2.5), spec_path)
        rc = main(["cdf", "--spec", str(spec_path), "--at", "1,2,4"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["log_cdf"] == pytest.approx(-2.875, abs=1e-15)

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

    def test_provenance_mismatch_exits_4(self, samples_file, tmp_path, capsys):
        # same dimension as the samples but a different model, so only the
        # fingerprint can tell them apart
        other = tmp_path / "other.json"
        lam = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
        fileio.dump_tail_dep(mg.TailDepMatrix(lam), tmp_path / "t2.json")
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

    def test_threshold_out_of_range_is_usage_error(self, samples_file):
        assert main(["estimate", "--data", str(samples_file), "--u", "1.0"]) == 2

    def test_malformed_row_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2\n1.0,2.0\noops\n")
        rc = main(["estimate", "--data", str(bad), "--u", "0.9"])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_report_written_to_file(self, samples_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["estimate", "--data", str(samples_file), "--u", "0.9", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["u"] == 0.9


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
        assert "must be positive" in capsys.readouterr().err

    def test_subnormal_scale_is_rejected(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        fileio.dump_json({"d": 2, "D": 1, "C": 5e-324, "alpha": [[5e-324], [5e-324]]}, bad)
        assert main(["check", "--spec", str(bad)]) == 3
        assert "smallest normal float64" in capsys.readouterr().err


class TestHeaderFields:
    @pytest.mark.parametrize(
        "kind, field", [("spec", "d"), ("spec", "D"), ("target", "d"), ("sidecar", "seed"), ("sidecar", "n")]
    )
    def test_non_integer_field_is_validation_error(
        self, kind, field, tmp_path, samples_file, ex3_spec, capsys
    ):
        spec_path = tmp_path / "spec.json"
        target_path = tmp_path / "target.json"
        fileio.dump_spec(ex3_spec, spec_path)
        fileio.dump_tail_dep(mg.TailDepMatrix(EX3_LAMBDA), target_path)
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


class TestRoundTrip:
    def test_synth_then_coeffs_reproduces_scaled_target(self, tmp_path, capsys):
        target = tmp_path / "t.json"
        out = tmp_path / "r.json"
        fileio.dump_tail_dep(mg.TailDepMatrix(EX2_LAMBDA), target)
        assert main(["synth", "--target", str(target), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["coeffs", "--spec", str(out)]) == 0
        obj = json.loads(capsys.readouterr().out)
        c_used = json.loads(out.read_text())["c_used"]
        lam = np.array(obj["lambda"])
        expect = np.array(EX2_LAMBDA) / c_used
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(lam[off], expect[off], rtol=0.0, atol=1e-12)

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
