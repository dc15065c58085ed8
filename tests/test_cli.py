import json
import os

import numpy as np
import pytest
from scipy import sparse
from scipy.io import mmread, mmwrite

from sympeig import RankDeficientError, SpdOperator, poisson, store_matrix, symplectic_gram
from sympeig.cli import main
from sympeig.operators import canonical_frame


def ladder_path(tmp_path, n):
    d = np.arange(1.0, n + 1.0)
    op = SpdOperator.from_dense(np.diag(np.concatenate([d, d])))
    (path,) = store_matrix(op, str(tmp_path / f"ladder{n}.mtx"))
    return path


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "sympeig" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["solve", "--p", "2", "--bogus"]) == 2

    def test_unknown_verb_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_source_is_usage_error(self, capsys):
        assert main(["solve", "--family", "dense", "--p", "2"]) == 2

    def test_missing_file_is_io_error(self, capsys):
        assert main(["solve", "--matrix", "/no/such.mtx", "--p", "2"]) == 3

    @pytest.mark.parametrize("command", [
        ["gen", "--family", "dense", "--n", "6"],
        ["solve", "--family", "prescribed", "--n", "6", "--p", "2"],
    ], ids=["gen", "solve"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command):
        assert main([*command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err


class TestGen:
    @pytest.mark.parametrize("family,files", [
        ("dense", 1), ("sparse", 1), ("slr", 2), ("prescribed", 1),
    ])
    def test_writes_matrix_and_sidecar(self, tmp_path, capsys, family, files):
        out = str(tmp_path / "o")
        assert main(["gen", "--family", family, "--n", "12",
                     "--seed", "3", "--out", out]) == 0
        sidecar = json.load(open(os.path.join(out, f"{family}_n12_seed3.json")))
        assert sidecar["family"] == family
        assert sidecar["seed"] == 3
        assert len(sidecar["files"]) == files
        for path in sidecar["files"]:
            assert os.path.exists(path)

    def test_prescribed_sidecar_records_spectrum(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        main(["gen", "--family", "prescribed", "--n", "6", "--out", out])
        sidecar = json.load(open(os.path.join(out, "prescribed_n6_seed0.json")))
        assert sidecar["spectrum"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_out_env_var_used(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "from_env")
        monkeypatch.setenv("SYMPEIG_OUT", out)
        assert main(["gen", "--family", "dense", "--n", "4"]) == 0
        assert os.path.exists(os.path.join(out, "dense_n4_seed0.mtx"))


class TestSolve:
    def test_ladder_eigenvalues(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 6)
        out = str(tmp_path / "run")
        code = main(["solve", "--matrix", path, "--p", "3", "--out", out])
        assert code == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["status"] == "converged"
        assert result["message"] is None
        np.testing.assert_allclose(result["eigenvalues"], [1.0, 2.0, 3.0], rtol=1e-6)
        assert result["residue"] <= 1e-7

    def test_numerical_failure_message_is_written(self, tmp_path, capsys, monkeypatch):
        def failing_srr(*args):
            raise RankDeficientError("injected rank loss", deficient=1)

        monkeypatch.setattr("sympeig.solver.srr", failing_srr)
        path = ladder_path(tmp_path, 6)
        for variant in ("enhanced", "basic"):
            out = str(tmp_path / variant)
            code = main(["solve", "--matrix", path, "--p", "3", "--variant", variant,
                         "--out", out])
            assert code == 4
            result = json.load(open(os.path.join(out, "result.json")))
            assert result["status"] == "numerical_failure"
            assert result["message"] == "injected rank loss"

    def test_solves_generated_prescribed_file(self, tmp_path, capsys):
        gen_out = str(tmp_path / "gen")
        main(["gen", "--family", "prescribed", "--n", "10",
              "--seed", "1", "--out", gen_out])
        sidecar = json.load(open(os.path.join(gen_out, "prescribed_n10_seed1.json")))
        run_out = str(tmp_path / "run")
        code = main(["solve", "--matrix", sidecar["files"][0], "--p", "3",
                     "--out", run_out])
        assert code == 0
        result = json.load(open(os.path.join(run_out, "result.json")))
        expected = sorted(sidecar["spectrum"])[:3]
        np.testing.assert_allclose(result["eigenvalues"], expected, rtol=1e-6)

    def test_trace_audit_header(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 5)
        out = str(tmp_path / "run")
        main(["solve", "--matrix", path, "--p", "2", "--tol", "1e-7", "--out", out])
        lines = open(os.path.join(out, "trace.csv")).read().splitlines()
        meta = json.loads(lines[0][2:])
        assert lines[0].startswith("# {")
        assert meta["matrix"] == {"source": "file", "path": path}
        assert meta["params"]["tol"] == 1e-7
        assert lines[1] == "k,i,f,gnorm,gamma,t,beta,window_max,capped"
        result = json.load(open(os.path.join(out, "result.json")))
        assert len(lines) - 2 == result["inner_iterations"]
        row = dict(zip(lines[1].split(","), lines[-1].split(",")))
        assert float(row["window_max"]) >= float(row["f"])
        assert row["capped"] == "0"

    def test_generated_instance_seed_is_recorded_once(self, tmp_path, capsys):
        # the seed belongs to the instance; the solver has none
        out = str(tmp_path / "run")
        assert main(["solve", "--family", "dense", "--n", "10", "--p", "2",
                     "--seed", "4", "--out", out]) == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["matrix"]["seed"] == 4
        assert "seed" not in result
        assert "seed" not in result["params"]

    @pytest.mark.parametrize("verb", ["solve", "oracle"])
    def test_seed_with_matrix_is_usage_error(self, tmp_path, capsys, verb):
        path = ladder_path(tmp_path, 5)
        assert main([verb, "--matrix", path, "--p", "2", "--seed", "7",
                     "--out", str(tmp_path / "run")]) == 2
        assert "--seed selects a generated instance" in capsys.readouterr().err

    def test_trace_cells_are_plain_numbers(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["solve", "--family", "prescribed", "--n", "20", "--p", "3",
                     "--beta", "best", "--out", out]) == 0
        lines = open(os.path.join(out, "trace.csv")).read().splitlines()
        assert len(lines) > 2
        for line in lines[2:]:
            for cell in line.split(","):
                float(cell)

    def test_basic_variant(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 6)
        out = str(tmp_path / "run")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eps0": 1e-7}))
        code = main(["solve", "--matrix", path, "--p", "2", "--variant", "basic",
                     "--beta", "sug", "--config", str(config), "--out", out])
        assert code == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["outer_iterations"] == 1
        np.testing.assert_allclose(result["eigenvalues"], [1.0, 2.0], rtol=1e-5)

    @pytest.mark.parametrize("source", [
        pytest.param(["--family", "dense", "--n", "50", "--p", "5", "--beta", "sug"],
                     id="dense-sug"),
        pytest.param(["--family", "prescribed", "--n", "8", "--p", "2",
                      "--beta", "1.001dp"], id="prescribed-1.001dp"),
    ])
    def test_basic_variant_short_of_tol_is_not_converged(self, tmp_path, capsys,
                                                         source):
        # the default absolute gradient test (eps0 = 0.1) stops these runs
        # with a residue far above tol: not a convergence
        out = str(tmp_path / "run")
        code = main(["solve", *source, "--variant", "basic", "--out", out])
        assert code == 1
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["status"] == "max_iterations"
        assert result["gradient_test_met"] is True
        assert result["inner_iterations"] < result["params"]["k_max"]
        assert result["residue"] > result["params"]["tol"]
        assert "(gradient test met, residue above tol=1e-08)" in capsys.readouterr().out

    def test_basic_variant_honours_config_beta0(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"beta0": 30.0}))
        out = str(tmp_path / "run")
        main(["solve", "--family", "dense", "--n", "20", "--p", "2",
              "--variant", "basic", "--config", str(config), "--out", out])
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["beta_final"] == 30.0
        assert result["params"]["beta0"] == 30.0

    def test_save_basis_is_symplectic(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 5)
        out = str(tmp_path / "run")
        main(["solve", "--matrix", path, "--p", "2", "--save-basis", "--out", out])
        basis = np.asarray(mmread(os.path.join(out, "basis.mtx")))
        feas = np.linalg.norm(symplectic_gram(basis) - poisson(2))
        assert feas <= 1e-8

    def test_flag_overrides_config(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 5)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"tol": 1e-6, "k_max": 3000}))
        out = str(tmp_path / "run")
        main(["solve", "--matrix", path, "--p", "2", "--config", str(config),
              "--tol", "1e-4", "--out", out])
        meta = json.load(open(os.path.join(out, "result.json")))
        assert meta["params"]["tol"] == 1e-4
        assert meta["params"]["k_max"] == 3000

    @pytest.mark.parametrize("entry", [
        pytest.param({"nope": 1}, id="unknown-key"),
        pytest.param({"k_max": 100.5}, id="fractional-k_max"),
        pytest.param({"tol": "1e-8"}, id="string-tol"),
        pytest.param({"tol": float("nan")}, id="nan-tol"),
        pytest.param({"window": 10}, id="removed-key"),
        pytest.param({"seed": 3}, id="removed-seed-key"),
    ])
    def test_bad_config_key_is_usage_error(self, tmp_path, capsys, entry):
        path = ladder_path(tmp_path, 5)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(entry))
        assert main(["solve", "--matrix", path, "--p", "2",
                     "--config", str(config)]) == 2

    @pytest.mark.parametrize("text,code", [
        pytest.param("{not json", 3, id="invalid-json"),
        pytest.param("[1, 2]", 2, id="json-array"),
    ])
    def test_unusable_config_file(self, tmp_path, capsys, text, code):
        path = ladder_path(tmp_path, 5)
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert main(["solve", "--matrix", path, "--p", "2",
                     "--config", str(config)]) == code

    @pytest.mark.parametrize("variant", ["basic", "enhanced"])
    @pytest.mark.parametrize("label", ["nan", "inf"])
    def test_non_finite_beta_is_usage_error(self, tmp_path, capsys, label, variant):
        out = str(tmp_path / "run")
        assert main(["solve", "--family", "dense", "--n", "10", "--p", "2",
                     "--variant", variant, "--beta", label, "--out", out]) == 2

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        # a dense similarity-transformed instance cannot converge in
        # two inner steps from the canonical start frame
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"k_max": 2, "outer_max": 1}))
        out = str(tmp_path / "run")
        code = main(["solve", "--family", "prescribed", "--n", "10", "--p", "2",
                     "--config", str(config), "--out", out])
        assert code == 1
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["status"] == "max_iterations"

    def test_p_out_of_range_is_usage_error(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 4)
        assert main(["solve", "--matrix", path, "--p", "4"]) == 2

    @pytest.mark.parametrize("label,factor", [
        pytest.param("best", (3.0 + np.sqrt(5.0)) / 2.0, id="best"),
        pytest.param("1.001dp", 1.001, id="1.001dp"),
    ])
    def test_exact_spectrum_beta_labels(self, tmp_path, capsys, label, factor):
        # the prescribed family carries its exact spectrum, so d_p is known
        out = str(tmp_path / "run")
        code = main(["solve", "--family", "prescribed", "--n", "8", "--p", "2",
                     "--beta", label, "--out", out])
        assert code == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["params"]["beta0"] == pytest.approx(factor * 2.0, rel=1e-15)
        np.testing.assert_allclose(result["eigenvalues"], [1.0, 2.0], rtol=1e-6)

    def test_numeric_beta_accepted(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 6)
        out = str(tmp_path / "run")
        code = main(["solve", "--matrix", path, "--p", "2", "--beta", "25.0",
                     "--out", out])
        assert code == 0
        result = json.load(open(os.path.join(out, "result.json")))
        assert result["status"] == "converged"


class TestOracle:
    def test_writes_spectrum_and_frame(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 5)
        out = str(tmp_path / "run")
        assert main(["oracle", "--matrix", path, "--p", "2", "--out", out]) == 0
        payload = json.load(open(os.path.join(out, "oracle.json")))
        np.testing.assert_allclose(payload["d"], np.arange(1.0, 6.0), rtol=1e-10)
        np.testing.assert_allclose(payload["d_smallest"], [1.0, 2.0], rtol=1e-10)
        xref = np.asarray(mmread(os.path.join(out, "xref.mtx")))
        assert xref.shape == (10, 4)

    def test_p_out_of_range_is_usage_error(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 5)
        assert main(["oracle", "--matrix", path, "--p", "0",
                     "--out", str(tmp_path / "run")]) == 2


class TestCheck:
    def test_valid_matrix_passes(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 4)
        assert main(["check", "--matrix", path]) == 0
        findings = json.loads(capsys.readouterr().out)
        assert findings["symmetric"] and findings["spd"]

    def test_indefinite_matrix_fails(self, tmp_path, capsys):
        op = SpdOperator.from_dense(np.diag([1.0, -1.0, 1.0, 1.0]))
        (path,) = store_matrix(op, str(tmp_path / "bad.mtx"))
        assert main(["check", "--matrix", path]) == 4

    @pytest.mark.parametrize("kind", ["csr", "slr"])
    def test_indefinite_sparse_matrix_fails(self, tmp_path, capsys, kind):
        d = np.ones(100)
        d[-1] = -0.01
        b = sparse.diags_array(d).tocsr()
        op = (SpdOperator.from_csr(b) if kind == "csr"
              else SpdOperator.from_low_rank(b, np.zeros((100, 1))))
        paths = store_matrix(op, str(tmp_path / "bad.mtx"))
        assert main(["check", "--matrix", paths[0]]) == 4
        findings = json.loads(capsys.readouterr().out)
        assert findings["kind"] == kind and findings["spd"] is False

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 4)
        assert main(["check", "--matrix", path, "--seed", "0"]) == 2

    @pytest.mark.parametrize("feas_tol", ["nan", "-1", "inf"])
    def test_bad_feas_tol_is_usage_error(self, tmp_path, capsys, feas_tol):
        # rejected before the missing matrix file is opened (that would exit 3)
        code = main(["check", "--matrix", str(tmp_path / "missing.mtx"),
                     "--feas-tol", feas_tol])
        assert code == 2
        assert "--feas-tol" in capsys.readouterr().err

    def test_basis_symplecticity_checked(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 5)
        out = str(tmp_path / "run")
        main(["solve", "--matrix", path, "--p", "2", "--save-basis", "--out", out])
        capsys.readouterr()
        code = main(["check", "--matrix", path,
                     "--basis", os.path.join(out, "basis.mtx")])
        assert code == 0
        findings = json.loads(capsys.readouterr().out)
        assert findings["symplectic"]

    def test_unreadable_basis_is_io_error(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 5)
        basis = tmp_path / "basis.mtx"
        basis.write_text("not a matrix market file\n")
        assert main(["check", "--matrix", path, "--basis", str(basis)]) == 3

    def test_coordinate_basis_read_as_dense(self, tmp_path, capsys):
        path = ladder_path(tmp_path, 5)
        basis = str(tmp_path / "basis.mtx")
        mmwrite(basis, sparse.coo_array(canonical_frame(5, 2)))
        assert main(["check", "--matrix", path, "--basis", basis]) == 0
        findings = json.loads(capsys.readouterr().out)
        assert findings["symplectic"] and findings["basis_feasibility"] == 0.0

    @pytest.mark.parametrize("shape", [(2, 3), (4, 2)])
    def test_misshaped_basis_is_usage_error(self, tmp_path, capsys, shape):
        # (4, 2) is a symplectic frame, but for n = 2, not the operator's n = 10
        path = ladder_path(tmp_path, 10)
        basis = str(tmp_path / "basis.mtx")
        mmwrite(basis, canonical_frame(2, 1) if shape == (4, 2) else np.ones(shape))
        assert main(["check", "--matrix", path, "--basis", basis]) == 2
        assert "basis has shape" in capsys.readouterr().err


class TestBench:
    def test_grid_rows_and_determinism(self, tmp_path, capsys):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        args = ["bench", "--families", "prescribed,dense", "--n-list", "8",
                "--p-list", "2", "--seeds", "0,1", "--betas", "sug",
                "--variants", "enhanced", "--with-oracle"]
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0

        def rows(path):
            lines = open(os.path.join(path, "bench.csv")).read().splitlines()
            header = lines[1].split(",")
            skip = {header.index("time_s")}
            return [
                [v for i, v in enumerate(line.split(",")) if i not in skip]
                for line in lines[2:]
            ]

        rows_a = rows(out_a)
        assert len(rows_a) == 4  # 2 families x 1 n x 1 p x 2 seeds
        assert rows_a == rows(out_b)
        for row in rows_a:
            assert row[7] == "converged"

    def test_oracle_errors_present(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        main(["bench", "--families", "prescribed", "--n-list", "8", "--p-list", "2",
              "--seeds", "0", "--betas", "best", "--variants", "enhanced",
              "--out", out])
        lines = open(os.path.join(out, "bench.csv")).read().splitlines()
        header = lines[1].split(",")
        row = lines[2].split(",")
        gw = float(row[header.index("gw_err")])
        assert gw <= 1e-4

    def test_p_not_below_n_rejected(self, capsys):
        assert main(["bench", "--families", "dense", "--n-list", "4",
                     "--p-list", "4", "--seeds", "0"]) == 2

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_rejected_before_any_run(self, tmp_path, capsys, tol):
        out = tmp_path / "b"
        assert main(["bench", "--n-list", "8", "--p-list", "2", "--seeds", "0",
                     "--tol", tol, "--out", str(out)]) == 2
        assert not (out / "bench.csv").exists()

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_bad_p_rejected_before_any_run(self, tmp_path, capsys, p):
        out = tmp_path / "b"
        assert main(["bench", "--n-list", "8", "--p-list", p, "--seeds", "0",
                     "--out", str(out)]) == 2
        assert not (out / "bench.csv").exists()

    @pytest.mark.parametrize("label", ["foo", "-1", "0sug", "nan", "best"])
    def test_bad_beta_rejected_before_any_run(self, tmp_path, capsys, label):
        # 'best' needs the dense oracle, and this grid runs without it
        out = tmp_path / "b"
        assert main(["bench", "--n-list", "8", "--p-list", "2", "--seeds", "0",
                     "--betas", f"sug,{label}", "--out", str(out)]) == 2
        assert not (out / "bench.csv").exists()

    def test_list_flags_skip_empty_items(self, tmp_path, capsys):
        def rows(extra, out):
            assert main(["bench", "--p-list", "2", *extra, "--out", str(out)]) == 0
            lines = (out / "bench.csv").read_text().splitlines()
            header = lines[1].split(",")
            return lines[0], [
                [v for v, col in zip(line.split(","), header) if col != "time_s"]
                for line in lines[2:]
            ]

        plain = rows(["--n-list", "8", "--seeds", "0"], tmp_path / "a")
        assert rows(["--n-list", "8,", "--seeds", "0,"], tmp_path / "b") == plain
        assert len(plain[1]) == 1

    def test_malformed_list_item_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["bench", "--n-list", "8x", "--out", str(out)]) == 2
        assert not (out / "bench.csv").exists()

    def test_unknown_variant_rejected(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert main(["bench", "--n-list", "8", "--p-list", "2", "--seeds", "0",
                     "--variants", "fancy", "--out", str(out)]) == 2
        assert not (out / "bench.csv").exists()

    def test_unknown_family_rejected(self, capsys):
        assert main(["bench", "--families", "weird", "--n-list", "4",
                     "--p-list", "1", "--seeds", "0"]) == 2
