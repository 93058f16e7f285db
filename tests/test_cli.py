"""Tests for the command-line interface: subcommands, exit codes, reports,
configuration precedence, and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gplabelnoise
from gplabelnoise import NumericalError, cli, noiseopt, read_dataset

SRC = Path(__file__).resolve().parent.parent / "src"

# exit codes: 0 ok, 1 usage/config, 2 input file problems, 3 numerical
# failure, 4 fit did not converge


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def example_csv(tmp_path):
    path = tmp_path / "ex1.csv"
    assert run("gen", "--example1", "--seed", "3", "--out", str(path)) == 0
    return path


@pytest.fixture()
def truthless_csv(tmp_path):
    path = tmp_path / "plain.csv"
    assert (
        run("gen", "--grid", "--n", "16", "--rate", "0.2", "--level", "1.0",
            "--out", str(path)) == 0
    )
    data = read_dataset(path)
    stripped = tmp_path / "noTruth.csv"
    from gplabelnoise import make_dataset, write_dataset

    write_dataset(make_dataset(data.X, data.y), stripped)
    return stripped


# ---------------------------------------------------------------------------
# top-level parsing
# ---------------------------------------------------------------------------


class TestTopLevel:
    """Global flags and dispatch."""

    def test_version_exits_cleanly(self, capsys):
        assert run("--version") == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_help_exits_cleanly(self, capsys):
        assert run("--help") == 0

    def test_no_arguments_is_usage_error(self, capsys):
        assert run() == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 1

    def test_library_is_imported_from_src(self):
        assert Path(gplabelnoise.__file__).resolve().parent == SRC / "gplabelnoise"

    def test_module_entry_point(self):
        proc = _child_python("-m", "gplabelnoise", "--version")
        assert proc.returncode == 0
        assert "0.1.0" in proc.stdout

    def test_start_up_loads_only_what_runs(self):
        """A fresh interpreter importing the package and its CLI loads neither
        scipy.stats nor scipy.optimize; the first joint fit loads the latter."""
        code = (
            "import json, sys\n"
            "import gplabelnoise, gplabelnoise.cli\n"
            "loaded = lambda: [m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules]\n"
            "at_import = loaded()\n"
            "gplabelnoise.joint_optimize(gplabelnoise.gen_example1(0))\n"
            "print(json.dumps([at_import, loaded()]))\n"
        )
        proc = _child_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        at_import, after_joint = json.loads(proc.stdout)
        assert at_import == []
        assert after_joint == ["scipy.optimize"]


def _child_python(*argv):
    """Run a fresh interpreter that imports the same sources as this one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


class TestGen:
    """Modes, conflicts, and file output."""

    def test_example_mode_writes_grid_dataset(self, example_csv):
        data = read_dataset(example_csv)
        assert data.X.shape == (24, 1)
        assert int(data.truth.corrupted.sum()) == 10

    def test_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--example1") == 0
        assert (tmp_path / "dataset.csv").exists()

    def test_heteroscedastic_mode(self, tmp_path):
        path = tmp_path / "h.csv"
        assert (
            run("gen", "--hetero", "goldberg", "--n", "30", "--n-corrupt", "5",
                "--out", str(path)) == 0
        )
        data = read_dataset(path)
        assert data.X.shape == (30, 1)
        assert int(data.truth.corrupted.sum()) == 5

    def test_grid_mode_rounds_corruption_count(self, tmp_path):
        path = tmp_path / "g.csv"
        assert (
            run("gen", "--grid", "--n", "12", "--rate", "0.25", "--level", "1.0",
                "--out", str(path)) == 0
        )
        assert int(read_dataset(path).truth.corrupted.sum()) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen",),                                        # no mode picked
            ("gen", "--example1", "--n", "10"),              # size is fixed
            ("gen", "--hetero", "goldberg", "--rate", "0.1"),  # wrong knob
            ("gen", "--grid", "--n-corrupt", "2"),           # grid uses --rate
            # the generating kernel belongs to the grid's GP draw
            ("gen", "--hetero", "goldberg", "--gp-length-scale", "5"),
            ("gen", "--hetero", "le", "--gp-signal-variance", "9"),
            ("gen", "--example1", "--gp-signal-variance", "9"),
            ("gen", "--example1", "--gp-length-scale", "5"),
        ],
    )
    def test_conflicting_flags_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [("--grid", "--n", "0"), ("--hetero", "goldberg", "--n", "0", "--n-corrupt", "0")],
        ids=["grid", "hetero"],
    )
    def test_no_points_is_a_config_error(self, argv, tmp_path, capsys):
        assert run("gen", *argv, "--out", str(tmp_path / "x.csv")) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_seed_changes_output(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        run("gen", "--example1", "--seed", "1", "--out", str(a))
        run("gen", "--example1", "--seed", "1", "--out", str(b))
        run("gen", "--example1", "--seed", "2", "--out", str(c))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


class TestFit:
    """Report contents and failure modes."""

    def test_report_structure(self, example_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert run("fit", "--data", str(example_csv), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert set(report) == {
            "command", "config", "final_nll", "metric_errors", "metrics",
            "per_label", "sigma_shared", "theta", "threshold", "tool", "trace",
        }
        assert report["command"] == "fit"
        assert report["tool"] == {"name": "gplabelnoise", "version": "0.1.0"}
        assert report["sigma_shared"] is None
        assert set(report["theta"]) == {"signal_variance", "length_scale"}
        assert len(report["per_label"]) == 24
        row = report["per_label"][0]
        assert set(row) == {"corrupted", "epsilon", "flag", "index", "sigma"}
        assert report["trace"]["converged"] is True
        assert report["trace"]["stop_reason"] in ("sigma_tol", "nll_tol")
        assert np.isfinite(report["final_nll"])

    def test_shared_noise_mode(self, example_csv, tmp_path, capsys):
        out = tmp_path / "u.json"
        assert (
            run("fit", "--data", str(example_csv), "--mode", "basic",
                "--out", str(out)) == 0
        )
        report = json.loads(out.read_text())
        shared = report["sigma_shared"]
        assert shared is not None and shared > 0.0
        assert all(row["sigma"] == shared for row in report["per_label"])

    def test_joint_mode_moves_hyperparameters(self, example_csv, tmp_path, capsys):
        plain_out = tmp_path / "plain.json"
        joint_out = tmp_path / "joint.json"
        run("fit", "--data", str(example_csv), "--out", str(plain_out))
        assert (
            run("fit", "--data", str(example_csv), "--joint",
                "--out", str(joint_out)) == 0
        )
        plain = json.loads(plain_out.read_text())
        joint = json.loads(joint_out.read_text())
        assert joint["final_nll"] < plain["final_nll"]
        assert joint["theta"] != plain["theta"]

    def test_unconverged_fit_signals_exit_code(self, example_csv, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert (
            run("fit", "--data", str(example_csv), "--max-iters", "1",
                "--out", str(out)) == 4
        )
        trace = json.loads(out.read_text())["trace"]
        assert trace["converged"] is False
        assert trace["stop_reason"] == "max_iters"

    def test_numerical_failure_exits_3(self, example_csv, tmp_path, monkeypatch, capsys):
        def failing_fit(*args, **kwargs):
            raise NumericalError("factorization failed", smallest_pivot=-1.0)

        monkeypatch.setattr(noiseopt, "fit_matrix", failing_fit)
        assert run("fit", "--data", str(example_csv), "--out", str(tmp_path / "f.json")) == 3
        assert "factorization failed" in capsys.readouterr().err

    def test_penalized_fit_converges(self, example_csv, tmp_path, capsys):
        # a heavy penalty pulls the noise below the likelihood optimum, so the
        # NLL rises on the way; the loop watches the penalized objective,
        # which falls, and stops on a tolerance
        out = tmp_path / "f.json"
        assert (
            run("fit", "--data", str(example_csv), "--lambda", "5",
                "--out", str(out)) == 0
        )
        trace = json.loads(out.read_text())["trace"]
        assert trace["converged"] is True
        assert trace["stop_reason"] in ("sigma_tol", "nll_tol")
        assert f"stop_reason={trace['stop_reason']}" in capsys.readouterr().out

    def test_missing_data_flag(self, capsys):
        assert run("fit", "--out", "x.json") == 1

    def test_nonexistent_input_file(self, tmp_path, capsys):
        assert run("fit", "--data", str(tmp_path / "no.csv"), "--out", "x.json") == 2

    def test_malformed_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x0,y\n1.0\n")
        assert run("fit", "--data", str(bad), "--out", str(tmp_path / "x.json")) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [(("--restarts", "9"), "--restarts needs --joint"),
         (("--outer-rounds", "7"), "--outer-rounds needs --joint"),
         (("--restarts", "9", "--outer-rounds", "7"), "--restarts needs --joint"),
         (("--mode", "basic", "--restarts", "9"), "--restarts needs --joint")],
        ids=["restarts", "outer-rounds", "both", "basic"],
    )
    def test_joint_settings_need_joint(self, argv, message, example_csv, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run("fit", "--data", str(example_csv), *argv, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_joint_settings_from_config_file_need_joint(self, example_csv, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("restarts=9\n")
        assert (
            run("fit", "--data", str(example_csv), "--config", str(cfg),
                "--out", str(tmp_path / "x.json")) == 1
        )
        assert "--restarts needs --joint" in capsys.readouterr().err

    def test_bad_mode_rejected(self, example_csv, tmp_path, capsys):
        assert (
            run("fit", "--data", str(example_csv), "--mode", "bogus",
                "--out", str(tmp_path / "x.json")) == 1
        )


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


class TestDetect:
    """Score thresholding plus ground-truth metrics when available."""

    @staticmethod
    def _fit(data_csv, tmp_path, *fit_argv, code=0):
        """A ``fit`` report of ``data_csv``; ``fit`` must exit with ``code``."""
        path = tmp_path / "fit.json"
        assert run("fit", "--data", str(data_csv), *fit_argv, "--out", str(path)) == code
        return path

    def test_metrics_with_ground_truth(self, example_csv, tmp_path, capsys):
        out = tmp_path / "det.json"
        fit_out = self._fit(example_csv, tmp_path)
        assert run("detect", "--report", str(fit_out), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        metrics = report["metrics"]
        assert set(metrics) == {"auc", "precision_at_recall", "r2_noise"}
        assert 0.0 <= metrics["auc"] <= 1.0
        assert set(metrics["precision_at_recall"]) == {"0.7", "0.95"}
        assert report["metric_errors"] == {}
        assert report["threshold"] > 0.0
        flags = [row["flag"] for row in report["per_label"]]
        assert sum(flags) == sum(1 for row in report["per_label"]
                                 if row["sigma"] > report["threshold"])

    def test_reuses_existing_fit_report(self, example_csv, tmp_path, capsys):
        fit_out = self._fit(example_csv, tmp_path)
        out = tmp_path / "det.json"
        assert run("detect", "--report", str(fit_out), "--out", str(out)) == 0
        a = json.loads(out.read_text())
        b = json.loads(fit_out.read_text())
        assert [r["sigma"] for r in a["per_label"]] == [r["sigma"] for r in b["per_label"]]

    def test_config_holds_only_detect_settings(self, example_csv, tmp_path, capsys):
        fit_out = self._fit(example_csv, tmp_path, "--joint")
        out = tmp_path / "det.json"
        assert run("detect", "--report", str(fit_out), "--out", str(out)) == 0
        assert set(json.loads(out.read_text())["config"]) == {"out", "recall_levels", "report", "threshold"}

    def test_default_outputs_keep_the_fit_report(self, example_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("fit", "--data", str(example_csv)) == 0
        fit_bytes = (tmp_path / "report.json").read_bytes()
        assert run("detect", "--report", "report.json") == 0
        assert (tmp_path / "report.json").read_bytes() == fit_bytes
        assert json.loads((tmp_path / "detection.json").read_text())["command"] == "detect"

    def _edited_report(self, example_csv, tmp_path, edit):
        fit_out = self._fit(example_csv, tmp_path)
        doc = json.loads(fit_out.read_text())
        assert "corrupted" in doc["per_label"][0]
        edit(doc["per_label"])
        fit_out.write_text(json.dumps(doc))
        return fit_out

    def test_report_row_missing_corrupted_is_a_parse_error(self, example_csv, tmp_path, capsys):
        report = self._edited_report(example_csv, tmp_path, lambda rows: rows[5].pop("corrupted"))
        assert run("detect", "--report", str(report), "--out", str(tmp_path / "x.json")) == 2
        assert "corrupted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda rows: rows[2].pop("epsilon"), "epsilon"),
            (lambda rows: rows[2].update(corrupted="false"), "corrupted"),
            (lambda rows: rows[2].update(corrupted=None), "corrupted"),
            (lambda rows: rows[0].pop("corrupted"), "corrupted"),
        ],
        ids=["missing-epsilon", "string-corrupted", "null-corrupted", "first-row-without-corrupted"],
    )
    def test_report_truth_is_all_or_nothing(self, edit, message, example_csv, tmp_path, capsys):
        report = self._edited_report(example_csv, tmp_path, edit)
        out = tmp_path / "x.json"
        assert run("detect", "--report", str(report), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_report_non_numeric_sigma_is_a_parse_error(self, example_csv, tmp_path, capsys):
        report = self._edited_report(
            example_csv, tmp_path, lambda rows: rows[3].update(sigma="not-a-number")
        )
        assert run("detect", "--report", str(report), "--out", str(tmp_path / "x.json")) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"per_label": []}',
            '{"per_label": [{"sigma": -1.0}, {"sigma": 2.0}]}',
            '{"per_label": [{"sigma": NaN}, {"sigma": 2.0}]}',
        ],
        ids=["empty", "negative", "nan"],
    )
    def test_report_without_usable_sigma_is_a_parse_error(self, text, tmp_path, capsys):
        report = tmp_path / "fit.json"
        report.write_text(text)
        out = tmp_path / "x.json"
        assert run("detect", "--report", str(report), "--out", str(out)) == 2
        assert "finite, non-negative sigma" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_threshold_is_a_config_error(self, example_csv, tmp_path, capsys):
        path = self._fit(example_csv, tmp_path)
        out = tmp_path / "x.json"
        assert run("detect", "--report", str(path), "--threshold", "nan", "--out", str(out)) == 1
        assert "threshold must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_requires_a_report(self, example_csv, tmp_path, capsys):
        assert run("detect", "--out", str(tmp_path / "x.json")) == 1
        assert "--report is required" in capsys.readouterr().err
        assert run("detect", "--data", str(example_csv), "--out", str(tmp_path / "x.json")) == 1
        assert "unrecognized arguments: --data" in capsys.readouterr().err

    def test_truthless_data_skips_metrics(self, truthless_csv, tmp_path, capsys):
        out = tmp_path / "det.json"
        fit_out = self._fit(truthless_csv, tmp_path)
        assert run("detect", "--report", str(fit_out), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["metrics"] is None
        assert report["metric_errors"] == {}

    def test_degenerate_truth_reports_metric_errors(self, tmp_path, capsys):
        clean = tmp_path / "clean.csv"
        run("gen", "--grid", "--n", "16", "--rate", "0", "--level", "1.0",
            "--out", str(clean))
        out = tmp_path / "det.json"
        fit_out = self._fit(clean, tmp_path)
        assert run("detect", "--report", str(fit_out), "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["metrics"] == {}
        assert set(report["metric_errors"]) == {"auc", "precision_at_recall", "r2_noise"}

    def test_explicit_threshold_respected(self, example_csv, tmp_path, capsys):
        out = tmp_path / "det.json"
        fit_out = self._fit(example_csv, tmp_path)
        assert (
            run("detect", "--report", str(fit_out), "--threshold", "0.5",
                "--out", str(out)) == 0
        )
        assert json.loads(out.read_text())["threshold"] == 0.5

    def test_exit_zero_even_without_convergence(self, example_csv, tmp_path, capsys):
        fit_out = self._fit(example_csv, tmp_path, "--max-iters", "1", code=4)
        out = tmp_path / "det.json"
        assert run("detect", "--report", str(fit_out), "--out", str(out)) == 0


# ---------------------------------------------------------------------------
# benchmark and optimizer comparison
# ---------------------------------------------------------------------------


class TestBenchmark:
    """Grid sweeps over corruption rates and levels."""

    HEADER = ("rate,level,r2,auc,precision_at_0.7,precision_at_0.95,"
              "mae_plain,mae_basic,mae_full,error")

    @staticmethod
    def _base(tmp_path, *gen_argv, seed="5"):
        """A pristine base written by ``gen`` with nothing corrupted."""
        path = tmp_path / f"base-{seed}.csv"
        assert run("gen", *gen_argv, "--seed", seed, "--out", str(path)) == 0
        return path

    def _tiny(self, tmp_path, name, seed="5"):
        base = self._base(tmp_path, "--grid", "--n", "24", "--rate", "0", seed=seed)
        out = tmp_path / name
        code = run(
            "benchmark", "--data", str(base), "--rates", "0.1", "--levels", "0.5",
            "--folds", "3", "--max-iters", "500", "--seed", seed, "--out", str(out),
        )
        return code, out

    def test_csv_layout(self, tmp_path, capsys):
        code, out = self._tiny(tmp_path, "b.csv")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "0.1" and fields[1] == "0.5"
        assert fields[-1] == ""  # no error recorded
        for cell in fields[2:-1]:
            assert np.isfinite(float(cell))

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        _, a = self._tiny(tmp_path, "a.csv")
        _, b = self._tiny(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()
        _, c = self._tiny(tmp_path, "c.csv", seed="6")
        assert a.read_bytes() != c.read_bytes()

    def test_rejects_pregenerated_truth(self, example_csv, tmp_path, capsys):
        assert (
            run("benchmark", "--data", str(example_csv), "--rates", "0.1",
                "--levels", "0.5", "--out", str(tmp_path / "b.csv")) == 1
        )

    @pytest.mark.parametrize(
        "gen_argv",
        [("--grid", "--n", "24", "--rate", "0"),
         ("--hetero", "le", "--n", "24", "--n-corrupt", "0")],
        ids=["grid", "hetero"],
    )
    def test_accepts_gen_base_with_nothing_corrupted(self, gen_argv, tmp_path, capsys):
        base = self._base(tmp_path, *gen_argv)
        out = tmp_path / "b.csv"
        assert (
            run("benchmark", "--data", str(base), "--rates", "0.1", "--levels", "0.5",
                "--folds", "3", "--max-iters", "500", "--out", str(out)) == 0
        )
        assert out.read_text().splitlines()[1].split(",")[-1] == ""

    def test_requires_data(self, tmp_path, capsys):
        assert run("benchmark", "--out", str(tmp_path / "b.csv")) == 1
        assert "--data is required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--gp-n", "--gp-d", "--gp-signal-variance", "--gp-length-scale", "--base-noise"]
    )
    def test_generator_flags_are_gone(self, flag, tmp_path, capsys):
        assert run("benchmark", flag, "1", "--out", str(tmp_path / "b.csv")) == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, message",
        [(("--folds", "1"), "error: folds must be >= 2"),
         (("--folds", "100"), "error: need at least 100 samples for 100-fold CV"),
         (("--recall-levels", "0.5,2"), "error: recall levels must lie in (0, 1]"),
         (("--rates", "0.1,1.5"), "error: noise rate must be in [0, 1]")],
        ids=["folds", "folds-100", "recall-levels", "rates"],
    )
    def test_bad_setting_exits_1_without_output(self, setting, message, tmp_path, monkeypatch, capsys):
        """Every setting is checked before the first cell fits anything."""
        base = self._base(tmp_path, "--grid", "--n", "60", "--d", "2", "--rate", "0")
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return noiseopt.optimize_sigma(*args, **kwargs)

        monkeypatch.setattr(cli, "optimize_sigma", counting)
        out = tmp_path / "b.csv"
        assert (
            run("benchmark", "--data", str(base), "--rates", "0.1", "--levels", "0.5",
                "--max-iters", "50", *setting, "--out", str(out)) == 1
        )
        assert capsys.readouterr().err.startswith(message)
        assert calls == []
        assert not out.exists()


class TestCompareOptimizers:
    """Per-iteration traces of both optimizers in one CSV."""

    def test_csv_layout_and_parseability(self, example_csv, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert (
            run("compare-optimizers", "--data", str(example_csv),
                "--max-iters", "50", "--out", str(out)) == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "optimizer,iteration,nll,func_evals"
        assert len(lines) == 1 + 2 * 51
        names = {row.split(",")[0] for row in lines[1:]}
        assert names == {"multiplicative", "projected_gradient"}
        for row in lines[1:]:
            _, iteration, value, evals = row.split(",")
            int(iteration)
            int(evals)
            assert np.isfinite(float(value))


# ---------------------------------------------------------------------------
# configuration sources
# ---------------------------------------------------------------------------


class TestConfigPrecedence:
    """Flags beat the config file; the config file beats the environment."""

    def test_config_file_supplies_seed(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("seed=7\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("gen", "--example1", "--config", str(cfg), "--out", str(a)) == 0
        assert run("gen", "--example1", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("seed=7\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "--example1", "--config", str(cfg), "--seed", "3", "--out", str(a))
        run("gen", "--example1", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_environment_seed_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPLABELNOISE_SEED", "9")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("gen", "--example1", "--out", str(a)) == 0
        run("gen", "--example1", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPLABELNOISE_SEED", "9")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "--example1", "--seed", "2", "--out", str(a))
        monkeypatch.delenv("GPLABELNOISE_SEED")
        run("gen", "--example1", "--seed", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag_seed, env_seed", [("-1", None), (None, "-3"), (str(2**64), None)])
    def test_seed_outside_the_key_range_is_a_config_error(self, flag_seed, env_seed, tmp_path,
                                                          monkeypatch, capsys):
        if env_seed is not None:
            monkeypatch.setenv("GPLABELNOISE_SEED", env_seed)
        seed_argv = () if flag_seed is None else ("--seed", flag_seed)
        assert run("gen", "--example1", *seed_argv, "--out", str(tmp_path / "x.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("frobnicate=1\n")
        assert (
            run("gen", "--example1", "--config", str(cfg),
                "--out", str(tmp_path / "x.csv")) == 1
        )

    def test_malformed_config_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("this is not a key value pair\n")
        assert (
            run("gen", "--example1", "--config", str(cfg),
                "--out", str(tmp_path / "x.csv")) == 1
        )

    def test_missing_config_file(self, tmp_path, capsys):
        assert (
            run("gen", "--example1", "--config", str(tmp_path / "no.cfg"),
                "--out", str(tmp_path / "x.csv")) == 2
        )
