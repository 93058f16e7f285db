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
from gplabelnoise import NumericalError, cli, detect, noiseopt, read_dataset

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

    def test_only_benchmark_starts_processes(self, tmp_path):
        """With one BLAS thread, where a sweep would fan out, ``gen``,
        ``fit``, ``detect`` and ``compare-optimizers`` reap no child and
        never load ``multiprocessing``."""
        code = (
            "import contextlib, io, json, resource, sys\n"
            "from gplabelnoise import cli\n"
            "cpu = lambda: sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2])\n"
            "before = cpu()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv.split()) for argv in sys.argv[1:]]\n"
            "print(json.dumps([codes, cpu() > before, 'multiprocessing' in sys.modules]))\n"
        )
        data, report = tmp_path / "ex.csv", tmp_path / "fit.json"
        commands = [f"gen --example1 --out {data}", f"fit --data {data} --out {report}",
                    f"detect --report {report} --out {tmp_path / 'flags.json'}",
                    f"compare-optimizers --data {data} --max-iters 20 --out {tmp_path / 'cmp.csv'}"]
        proc = _child_python("-c", code, *commands, blas_threads="1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0, 0, 0], False, False]


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_python(*argv, blas_threads="inherit"):
    """Run a fresh interpreter that imports the same sources as this one,
    with the BLAS thread variables as this one has them, set to
    ``blas_threads``, or removed when it is None."""
    env = dict(os.environ)
    if blas_threads != "inherit":
        for var in _BLAS_THREAD_VARS:
            env.pop(var, None)
        if blas_threads is not None:
            env.update(dict.fromkeys(_BLAS_THREAD_VARS, blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300)


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

    @pytest.mark.parametrize(
        "argv",
        [("--d", "0"), ("--d", "-1"), ("--base-noise", "-1"), ("--base-noise", "nan"),
         ("--level", "nan"), ("--level", "inf")],
        ids=["d-zero", "d-negative", "base-noise-negative", "base-noise-nan", "level-nan", "level-inf"],
    )
    def test_impossible_grid_setting_is_a_config_error(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("gen", "--grid", *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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
        # what the fit produced only: flags and metrics come from `detect`
        assert set(report) == {"command", "config", "per_label", "theta", "tool", "trace"}
        assert report["command"] == "fit"
        assert report["tool"] == {"name": "gplabelnoise", "version": "0.1.0"}
        assert len({row["sigma"] for row in report["per_label"]}) > 1  # one sigma per label
        assert set(report["theta"]) == {"signal_variance", "length_scale"}
        assert len(report["per_label"]) == 24
        row = report["per_label"][0]
        assert set(row) == {"corrupted", "epsilon", "index", "sigma"}
        assert report["trace"]["converged"] is True
        assert report["trace"]["stop_reason"] in ("sigma_tol", "nll_tol")
        assert np.isfinite(report["trace"]["final_nll"])

    def test_shared_noise_mode(self, example_csv, tmp_path, capsys):
        out = tmp_path / "u.json"
        assert (
            run("fit", "--data", str(example_csv), "--mode", "basic",
                "--out", str(out)) == 0
        )
        report = json.loads(out.read_text())
        assert report["config"]["mode"] == "basic"
        shared = {row["sigma"] for row in report["per_label"]}
        assert len(shared) == 1 and shared.pop() > 0.0

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
        assert joint["trace"]["final_nll"] < plain["trace"]["final_nll"]
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

    @pytest.mark.parametrize("flag", ["--lambda", "--tol-sigma"])
    def test_nan_setting_is_a_config_error(self, flag, example_csv, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run("fit", "--data", str(example_csv), flag, "nan", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--lambda", "--tol-sigma", "--tol-nll", "--p", "--sigma-init"])
    def test_infinite_setting_is_a_config_error(self, flag, example_csv, tmp_path, capsys):
        # the report's config would hold Infinity, which is not JSON
        out = tmp_path / "f.json"
        assert run("fit", "--data", str(example_csv), flag, "inf", "--out", str(out)) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale, code", [(1e153, 0), (1e154, 1), (1e300, 1)],
                             ids=["1e153", "1e154", "1e300"])
    @pytest.mark.parametrize("argv", [("--mode", "full"), ("--mode", "basic"), ("--joint",)],
                             ids=["full", "basic", "joint"])
    def test_label_variance_overflow_exits_1(self, argv, scale, code, tmp_path, capsys):
        # var(y) overflows from a label magnitude of about 1e154: the error
        # names the labels, not a setting the user never gave
        data = gplabelnoise.gen_example1(0)
        path = tmp_path / "scaled.csv"
        rows = [f"{x!r},{y * scale!r}" for x, y in zip(data.X[:, 0].tolist(), data.y.tolist())]
        path.write_text("\n".join(["x0,y", *rows]) + "\n")
        out = tmp_path / "f.json"
        assert run("fit", "--data", str(path), *argv, "--out", str(out)) == code
        if code:
            message = "error: labels must be finite with a finite variance, largest |y| 3.52e+"
            assert message in capsys.readouterr().err
            assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv, message",
        [(("--length-scale", "0.5"), "--joint optimizes the kernel; drop the explicit kernel flags"),
         (("--mode", "basic"), "--joint requires --mode full")],
        ids=["length-scale", "basic"],
    )
    def test_joint_conflicts_are_config_errors(self, argv, message, example_csv, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run("fit", "--data", str(example_csv), "--joint", *argv, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

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
            # written as NaN and Infinity, which json reads back
            (lambda rows: rows[2].update(epsilon=float("nan")), "epsilon entries must be finite"),
            (lambda rows: rows[2].update(epsilon=float("inf")), "epsilon entries must be finite"),
        ],
        ids=["missing-epsilon", "string-corrupted", "null-corrupted", "first-row-without-corrupted",
             "nan-epsilon", "infinite-epsilon"],
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
        ['{"per_label": [{"sigma": "0.1"}, {"sigma": 2.0}]}',
         '{"per_label": [{"sigma": true}, {"sigma": 2.0}]}'],
        ids=["string", "bool"],
    )
    def test_report_sigma_must_be_a_json_number(self, text, tmp_path, capsys):
        report = tmp_path / "fit.json"
        report.write_text(text)
        out = tmp_path / "x.json"
        assert run("detect", "--report", str(report), "--out", str(out)) == 2
        assert "sigma entries must be numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            '{"per_label": []}',
            '{"per_label": [{"sigma": -1.0}, {"sigma": 2.0}]}',
            '{"per_label": [{"sigma": NaN}, {"sigma": 2.0}]}',
            '{"per_label": [{"sigma": 1%s}, {"sigma": 2.0}]}' % ("0" * 400),
        ],
        ids=["empty", "negative", "nan", "int-beyond-float"],
    )
    def test_report_without_usable_sigma_is_a_parse_error(self, text, tmp_path, capsys):
        report = tmp_path / "fit.json"
        report.write_text(text)
        out = tmp_path / "x.json"
        assert run("detect", "--report", str(report), "--out", str(out)) == 2
        assert "finite, non-negative sigma" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "not valid JSON"), ("{}", "missing per_label sigma entries")],
        ids=["invalid-json", "empty-object"],
    )
    def test_unreadable_report_is_a_parse_error(self, text, message, tmp_path, capsys):
        report = tmp_path / "r.json"
        report.write_text(text)
        out = tmp_path / "d.json"
        assert run("detect", "--report", str(report), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_nan_threshold_is_a_config_error(self, example_csv, tmp_path, capsys):
        path = self._fit(example_csv, tmp_path)
        out = tmp_path / "x.json"
        assert run("detect", "--report", str(path), "--threshold", "nan", "--out", str(out)) == 1
        assert "threshold must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_threshold_is_a_config_error(self, value, example_csv, tmp_path, capsys):
        # the library reads an infinite threshold as "flag nothing", but the
        # report would hold it as Infinity, which is not JSON
        path = self._fit(example_csv, tmp_path)
        out = tmp_path / "x.json"
        assert run("detect", "--report", str(path), f"--threshold={value}", "--out", str(out)) == 1
        assert "threshold must be non-negative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_recall_levels_checked_without_truth(self, truthless_csv, tmp_path, capsys):
        fit_out = self._fit(truthless_csv, tmp_path)
        out = tmp_path / "det.json"
        assert run("detect", "--report", str(fit_out), "--recall-levels", "2", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: recall levels must lie in (0, 1]")
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
# the documents fit and detect write
# ---------------------------------------------------------------------------


def _strict_json(path):
    """``path`` parsed as strict JSON: NaN and Infinity are errors."""
    def reject(name):
        raise ValueError(f"{path.name}: {name} is not strict JSON")

    return json.loads(path.read_text(), parse_constant=reject)


_FIT_MODES = {"full": (), "basic": ("--mode", "basic"), "joint": ("--joint", "--restarts", "2")}

# degenerate inputs, as (X, y): one point, constant labels, and duplicate
# inputs, the last pair of which also has equal labels
_DEGENERATE_INPUTS = {
    "n1": ([[0.5]], [1.5]),
    "constant-labels": (np.linspace(0.0, 1.0, 8)[:, None], np.full(8, 2.0)),
    "duplicate-inputs": (np.repeat(np.linspace(0.0, 1.0, 4), 2)[:, None],
                         [0.0, 0.1, 1.0, 0.9, -1.0, -1.2, 0.5, 0.5]),
}


class TestDocuments:
    """Fit and detection reports of each fit mode and kind of truth, and of
    degenerate inputs, are strict JSON, and detect reads only the fitted
    sigma and the truth columns of a fit report."""

    @pytest.mark.parametrize(
        "data, fit_argv",
        [("example", ()), ("example", ("--mode", "basic")), ("example", ("--joint", "--restarts", "2")),
         ("truthless", ()), ("degenerate", ())]
        + [(data, argv) for data in _DEGENERATE_INPUTS for argv in _FIT_MODES.values()],
        ids=["full", "basic", "joint", "without-truth", "degenerate-truth"]
        + [f"{data}-{mode}" for data in _DEGENERATE_INPUTS for mode in _FIT_MODES],
    )
    def test_fit_and_detect_write_strict_json(self, data, fit_argv, example_csv, truthless_csv,
                                              tmp_path, capsys):
        if data == "degenerate":  # nothing corrupted: every detection metric is undefined
            path = tmp_path / "clean.csv"
            assert run("gen", "--grid", "--n", "16", "--rate", "0", "--out", str(path)) == 0
        elif data in _DEGENERATE_INPUTS:
            path = tmp_path / f"{data}.csv"
            X, y = _DEGENERATE_INPUTS[data]
            gplabelnoise.write_dataset(gplabelnoise.make_dataset(np.asarray(X), np.asarray(y)), path)
        else:
            path = example_csv if data == "example" else truthless_csv
        fit_out, det_out = tmp_path / "fit.json", tmp_path / "det.json"
        # the per-label fit drives both variances of the equal-label duplicate
        # to zero, where the likelihood is unbounded; the jittered refit there
        # raises the NLL, so the fit stops on nll_increase (exit 4) and still
        # writes its report
        code = 4 if data == "duplicate-inputs" and not fit_argv else 0
        assert run("fit", "--data", str(path), *fit_argv, "--out", str(fit_out)) == code
        assert run("detect", "--report", str(fit_out), "--out", str(det_out)) == 0
        _strict_json(fit_out)
        detection = _strict_json(det_out)
        if data == "degenerate":
            assert set(detection["metric_errors"]) == {"auc", "precision_at_recall", "r2_noise"}

    def test_fit_report_with_the_dropped_fields_detects_the_same(self, example_csv, tmp_path, capsys):
        """A fit report that also carries threshold, row flags, metrics,
        metric_errors, final_nll and sigma_shared, as fit reports once did,
        gives the same detection report byte for byte."""
        fit_out, det_out = tmp_path / "fit.json", tmp_path / "det.json"
        assert run("fit", "--data", str(example_csv), "--out", str(fit_out)) == 0
        doc = json.loads(fit_out.read_text())
        assert run("detect", "--report", str(fit_out), "--out", str(det_out)) == 0
        expected = det_out.read_bytes()

        flags = gplabelnoise.flag_noisy([row["sigma"] for row in doc["per_label"]])
        doc.update(
            threshold=flags.threshold,
            per_label=[dict(row, flag=bool(f)) for row, f in zip(doc["per_label"], flags.flags)],
            metrics=None,
            metric_errors={},
            final_nll=doc["trace"]["final_nll"],
            sigma_shared=None,
        )
        fit_out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert run("detect", "--report", str(fit_out), "--out", str(det_out)) == 0
        assert det_out.read_bytes() == expected


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

    def test_byte_identical_across_runs_above_order_64(self, tmp_path, capsys):
        """Folds of 80 take diag(Kt^-1) by recursive blocked inversion,
        which the smaller sweeps never reach."""
        base = self._base(tmp_path, "--grid", "--n", "100", "--rate", "0")
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert run("benchmark", "--data", str(base), "--rates", "0.2", "--levels", "1.0",
                       "--folds", "5", "--seed", "5", "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].read_text().splitlines()[1].split(",")[-1] == ""

    def test_failing_cell_records_its_error_and_the_sweep_moves_on(self, tmp_path, monkeypatch, capsys):
        def fails(*args, **kwargs):
            raise NumericalError("factorization failed, smallest pivot -1", smallest_pivot=-1.0)

        def cv_mae(*args, seed, **kwargs):
            # the failure is keyed on the cell, by its seed (--seed + cell
            # index), not on a call count: cells may run in forked workers,
            # each with its own copy of any counter
            if seed != 7:
                return detect.cv_mae(*args, seed=seed, **kwargs)
            with monkeypatch.context() as patch:
                # the cross-validation's per-label fit fails on cell 0's first fold
                patch.setattr(detect, "optimize_sigma_matrix", fails)
                return detect.cv_mae(*args, seed=seed, **kwargs)

        monkeypatch.setattr(cli, "cv_mae", cv_mae)
        base = self._base(tmp_path, "--grid", "--n", "24", "--rate", "0")
        out = tmp_path / "b.csv"
        assert run("benchmark", "--data", str(base), "--rates", "0.1,0.3", "--levels", "0.5",
                   "--folds", "3", "--max-iters", "500", "--seed", "7", "--out", str(out)) == 0
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        failed, complete = (dict(zip(header, row)) for row in rows)
        assert failed["error"] == "fold 0: factorization failed; smallest pivot -1"
        assert [failed[f"mae_{mode}"] for mode in ("plain", "basic", "full")] == ["NA"] * 3
        for name in ("r2", "auc", "precision_at_0.7", "precision_at_0.95"):
            assert np.isfinite(float(failed[name]))
        assert complete["error"] == ""
        assert all(np.isfinite(float(complete[name])) for name in header[2:-1])

    def test_joint_sweep_is_byte_identical_across_runs(self, tmp_path, capsys):
        base = self._base(tmp_path, "--grid", "--n", "30", "--rate", "0", seed="2")
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert run("benchmark", "--data", str(base), "--joint", "--folds", "3", "--out", str(out)) == 0
        header, *rows = (line.split(",") for line in outs[0].read_text().splitlines())
        assert ",".join(header) == self.HEADER
        assert len(rows) == 4 and all(row[-1] == "" for row in rows)
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize(
        "rates, message",
        [(",", "expected at least one value in the list"),
         ("a", "expected a comma-separated list of numbers, got 'a'")],
        ids=["empty", "non-numeric"],
    )
    def test_unconvertible_rates_exit_1(self, rates, message, tmp_path, capsys):
        base = self._base(tmp_path, "--grid", "--n", "24", "--rate", "0")
        out = tmp_path / "b.csv"
        assert run("benchmark", "--data", str(base), "--rates", rates, "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

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
        [(("--folds", "1"), "error: folds must be an integer >= 2"),
         (("--folds", "100"), "error: need at least 100 samples for 100-fold CV"),
         (("--recall-levels", "0.5,2"), "error: recall levels must lie in (0, 1]"),
         (("--rates", "0.1,1.5"), "error: noise rate must be in [0, 1]"),
         (("--levels", "0.5,inf"), "error: noise level must be non-negative and finite"),
         # the first cell's seed is in range, the second's is 2**64
         (("--rates", "0.1,0.2", "--seed", str(2**64 - 1)), "error: seed must lie in [0, 2**64)")],
        ids=["folds", "folds-100", "recall-levels", "rates", "levels-inf", "cell-seed"],
    )
    def test_bad_setting_exits_1_without_output(self, setting, message, tmp_path, monkeypatch, capsys):
        """Every setting is checked before the first cell fits anything."""
        base = self._base(tmp_path, "--grid", "--n", "60", "--d", "2", "--rate", "0")
        # every cell runs under the sweep's fan_out, in this process or in
        # workers it forks, so a fan_out never called ran no cell in either
        calls, fan_out = [], cli.fan_out

        def counting(*args, **kwargs):
            calls.append(1)
            return fan_out(*args, **kwargs)

        monkeypatch.setattr(cli, "fan_out", counting)
        out = tmp_path / "b.csv"
        assert (
            run("benchmark", "--data", str(base), "--rates", "0.1", "--levels", "0.5",
                "--max-iters", "50", *setting, "--out", str(out)) == 1
        )
        assert capsys.readouterr().err.startswith(message)
        assert calls == []
        assert not out.exists()


# A fresh interpreter that runs one ``benchmark`` sweep on a ``gen --grid``
# base and prints what the tests below read: the exit code, the CSV, stderr,
# whether a child process was reaped during the sweep (children's CPU time
# grew), whether any child is left, and the OS threads before and after it.
# argv: work directory, CPU affinity ("one" or "all"), injection ("none",
# "fail" or "die" in cell 1), then extra ``benchmark`` arguments.
_SWEEP_CHILD = """
import contextlib, io, json, os, resource, signal, sys
from gplabelnoise import NumericalError, cli

work, affinity, inject, *extra = sys.argv[1:]
if affinity == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
parent = os.getpid()
inject_noise = cli.inject_noise

def injecting(base, spec):
    if spec.seed == 6:  # cell 1 of --seed 5
        if inject == "fail":
            raise NumericalError("injected failure")
        if inject == "die" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
    return inject_noise(base, spec)

cli.inject_noise = injecting
base, out = os.path.join(work, "base.csv"), os.path.join(work, "sweep.csv")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["gen", "--grid", "--n", "24", "--rate", "0", "--seed", "5", "--out", base]) == 0
threads = len(os.listdir("/proc/self/task"))
cpu = lambda: sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2])
before = cpu()
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = cli.main(["benchmark", "--data", base, "--rates", "0.1,0.3", "--levels", "0.5",
                     "--folds", "3", "--seed", "5", "--out", out, *extra])
threads_after = len(os.listdir("/proc/self/task"))
try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
csv = open(out).read() if os.path.exists(out) else None
print(json.dumps({"code": code, "csv": csv, "stderr": err.getvalue(), "reaped": cpu() > before,
                  "children_left": children_left, "threads": threads, "threads_after": threads_after}))
"""


def _script_child(script, tmp_path, affinity, inject="none", *extra, blas_threads="1"):
    """Run ``script`` in a fresh interpreter and directory and return what
    it prints."""
    work = tmp_path / f"{affinity}-{inject}-{blas_threads}{''.join(extra)}"
    work.mkdir()
    proc = _child_python("-c", script, str(work), affinity, inject, *extra, blas_threads=blas_threads)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _sweep_child(tmp_path, affinity, inject="none", *extra, blas_threads="1"):
    """Run ``_SWEEP_CHILD`` in a fresh directory and return what it prints."""
    return _script_child(_SWEEP_CHILD, tmp_path, affinity, inject, *extra, blas_threads=blas_threads)


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="cells fan out only with more than one usable CPU",
)


@needs_two_cpus
class TestBenchmarkWorkers:
    """With one BLAS thread and more than one usable CPU, sweep cells run in
    forked workers. Each test runs a fresh interpreter, since this one may
    run a multi-threaded BLAS, under which the sweep stays in-process."""

    @pytest.mark.parametrize("extra", [(), ("--joint",)], ids=["plain", "joint"])
    def test_workers_write_the_bytes_of_the_serial_sweep(self, extra, tmp_path):
        serial = _sweep_child(tmp_path, "one", "none", *extra)
        fanned = _sweep_child(tmp_path, "all", "none", *extra)
        assert serial["code"] == fanned["code"] == 0
        assert not serial["reaped"] and fanned["reaped"]
        assert fanned["csv"] == serial["csv"]
        assert len(serial["csv"].splitlines()) == 3
        # no worker outlives the command, and no pool thread does, so a
        # sweep started next fans out again
        assert not fanned["children_left"]
        assert fanned["threads"] == fanned["threads_after"] == 1

    def test_a_multithreaded_blas_keeps_the_sweep_in_process(self, tmp_path):
        result = _sweep_child(tmp_path, "all", blas_threads=None)
        if result["threads"] < 2:
            pytest.skip("this BLAS runs no threads of its own")
        assert result["code"] == 0
        assert not result["reaped"]

    def test_a_failing_cell_in_a_worker_writes_its_error_row(self, tmp_path):
        result = _sweep_child(tmp_path, "all", "fail")
        assert result["code"] == 0 and result["reaped"]
        header, *rows = (line.split(",") for line in result["csv"].splitlines())
        complete, failed = (dict(zip(header, row)) for row in rows)
        assert (complete["error"], failed["error"]) == ("", "injected failure")
        assert failed["rate"] == "0.3" and failed["mae_full"] == "NA"

    def test_a_dying_worker_ends_the_command_with_exit_2(self, tmp_path):
        result = _sweep_child(tmp_path, "all", "die")
        assert result["code"] == 2
        assert result["stderr"].startswith("error: a benchmark worker process died")
        assert result["csv"] is None
        assert not result["children_left"]


# A fresh interpreter that runs ``fit --joint`` on a ``gen --example1``
# dataset and prints what the tests below read, as ``_SWEEP_CHILD`` does for
# a sweep, plus which injected restart failures ran in a child. argv: work
# directory, CPU affinity ("one" or "all"), injection ("none"; "fail" in
# restarts 1 and 3, wherever they run; "die" in restart 1, which always
# starts in a child when there is one).
_JOINT_CHILD = """
import contextlib, io, json, os, resource, signal, sys
from gplabelnoise import NumericalError, cli, noiseopt

work, affinity, inject = sys.argv[1:]
if affinity == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
parent = os.getpid()
fan_out, single_start = noiseopt.fan_out, noiseopt._joint_single_start
restart = None  # the index of the restart this process runs

def indexing(fn, items, name):
    def run(indexed):
        global restart
        restart, item = indexed
        return fn(item)
    return fan_out(run, list(enumerate(items)), name)

def injecting(*args):
    if inject == "fail" and restart in (1, 3):
        where = "caller" if os.getpid() == parent else "child"
        open(f"failed-{restart}-{where}", "w").close()
        raise NumericalError("injected failure")
    if inject == "die" and restart == 1 and os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return single_start(*args)

noiseopt.fan_out, noiseopt._joint_single_start = indexing, injecting
os.chdir(work)  # the report names its data file; relative names compare across runs
data, out = "ex.csv", "fit.json"
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["gen", "--example1", "--seed", "3", "--out", data]) == 0
threads = len(os.listdir("/proc/self/task"))
cpu = lambda: sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2])
before = cpu()
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    code = cli.main(["fit", "--data", data, "--joint", "--out", out])
threads_after = len(os.listdir("/proc/self/task"))
try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
report = open(out).read() if os.path.exists(out) else None
print(json.dumps({"code": code, "report": report, "stderr": err.getvalue(), "reaped": cpu() > before,
                  "children_left": children_left, "threads": threads, "threads_after": threads_after,
                  "failed": sorted(name for name in os.listdir() if name.startswith("failed-"))}))
"""


@needs_two_cpus
class TestJointRestartWorkers:
    """With one BLAS thread and more than one usable CPU, the restarts of a
    joint fit run in this process and forked children; the caller keeps
    the winner choice and the warnings. Fresh interpreters, as in
    ``TestBenchmarkWorkers``."""

    def test_children_write_the_bytes_of_the_in_process_fit(self, tmp_path):
        serial = _script_child(_JOINT_CHILD, tmp_path, "one")
        fanned = _script_child(_JOINT_CHILD, tmp_path, "all")
        assert serial["code"] == fanned["code"] == 0
        assert not serial["reaped"] and fanned["reaped"]
        assert fanned["report"] == serial["report"]
        assert not fanned["children_left"]
        assert fanned["threads"] == fanned["threads_after"] == 1

    def test_failing_restarts_are_dropped_in_restart_order(self, tmp_path):
        serial = _script_child(_JOINT_CHILD, tmp_path, "one", "fail")
        fanned = _script_child(_JOINT_CHILD, tmp_path, "all", "fail")
        assert serial["code"] == fanned["code"] == 0
        assert serial["failed"] == ["failed-1-caller", "failed-3-caller"]
        assert "failed-1-child" in fanned["failed"] and len(fanned["failed"]) == 2
        warnings = ["joint restart 1 failed: injected failure", "joint restart 3 failed: injected failure"]
        assert fanned["stderr"].splitlines() == serial["stderr"].splitlines() == warnings
        assert fanned["report"] == serial["report"]

    def test_a_dying_restart_ends_the_fit_with_exit_2(self, tmp_path):
        result = _script_child(_JOINT_CHILD, tmp_path, "all", "die")
        assert result["code"] == 2
        assert result["stderr"].startswith("error: a joint restart worker process died (killed by signal 9)")
        assert result["report"] is None
        assert not result["children_left"]


# Calls ``fan_out`` directly and prints the caller's pid and: each outer
# item's pid with the pids of a fan-out inside it; what a fan-out whose
# items 1 and 3 raise raised; the results of 400 short items, each of which
# appends its index and pid to a file. argv as for the scripts above.
_FAN_OUT_CHILD = """
import json, os, sys, time
from gplabelnoise._fanout import fan_out

os.chdir(sys.argv[1])

def outer(item):
    return os.getpid(), fan_out(lambda inner: os.getpid(), [0, 1, 2], "inner")

def failing(item):
    if item in (1, 3):
        raise ValueError(f"item {item}")
    return item

try:
    fan_out(failing, list(range(5)), "failing")
    raised = None
except ValueError as e:
    raised = str(e)

log = os.open("ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

def record(item):
    os.write(log, f"{item} {os.getpid()}\\n".encode())
    time.sleep(0.0005)
    return item

results = fan_out(record, list(range(400)), "record")
ran = [line.split() for line in open("ran").read().splitlines()]
print(json.dumps({"caller": os.getpid(), "outer": fan_out(outer, [0, 1], "outer"), "raised": raised,
                  "results": results, "ran": sorted(int(item) for item, _ in ran),
                  "processes": len({pid for _, pid in ran})}))
"""


@needs_two_cpus
def test_fan_out_runs_each_item_once_and_never_nests(tmp_path):
    """Item 1 runs in a child, and a fan-out inside either item runs all its
    items in that item's process. The first failing item's exception is
    raised, as a plain loop would raise it. Over 400 short items that both
    processes take from the shared queue, every item runs exactly once and
    the results come back in item order."""
    result = _script_child(_FAN_OUT_CHILD, tmp_path, "all")
    (first, inner_first), (second, inner_second) = result["outer"]
    assert first == result["caller"] != second
    assert inner_first == [first] * 3 and inner_second == [second] * 3
    assert result["raised"] == "item 1"
    assert result["results"] == result["ran"] == list(range(400))
    assert result["processes"] == 2


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

    def test_requires_data(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert run("compare-optimizers", "--out", str(out)) == 1
        assert "--data is required" in capsys.readouterr().err
        assert not out.exists()


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

    def test_comments_and_blank_lines_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("# the seed of the draw\n\n  seed=7\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("gen", "--example1", "--config", str(cfg), "--out", str(a)) == 0
        assert run("gen", "--example1", "--seed", "7", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_boolean_sets_a_flag(self, example_csv, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("joint=true\n")
        out = tmp_path / "x.json"
        assert run("fit", "--data", str(example_csv), "--config", str(cfg), "--out", str(out)) == 0
        from_file = out.read_bytes()
        assert json.loads(from_file)["config"]["joint"] is True
        assert run("fit", "--data", str(example_csv), "--joint", "--out", str(out)) == 0
        assert out.read_bytes() == from_file

    @pytest.mark.parametrize("value", ["false", "0"])
    def test_config_file_false_boolean_leaves_the_flag_off(self, value, example_csv, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"joint={value}\n")
        out = tmp_path / "x.json"
        assert run("fit", "--data", str(example_csv), "--config", str(cfg), "--out", str(out)) == 0
        from_file = json.loads(out.read_text())
        assert from_file["config"]["joint"] is False
        assert run("fit", "--data", str(example_csv), "--out", str(out)) == 0
        assert from_file["per_label"] == json.loads(out.read_text())["per_label"]

    def test_config_file_boolean_must_be_a_boolean(self, example_csv, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("joint=maybe\n")
        out = tmp_path / "x.json"
        assert run("fit", "--data", str(example_csv), "--config", str(cfg), "--out", str(out)) == 1
        assert "expected true/false/1/0, got 'maybe'" in capsys.readouterr().err
        assert not out.exists()

    def test_unconvertible_flag_value_exits_1(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("gen", "--grid", "--n", "abc", "--out", str(out)) == 1
        assert "invalid value 'abc' for --n" in capsys.readouterr().err
        assert not out.exists()

    def test_unconvertible_environment_seed_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GPLABELNOISE_SEED", "abc")
        out = tmp_path / "x.csv"
        assert run("gen", "--example1", "--out", str(out)) == 1
        assert "$GPLABELNOISE_SEED must be an integer, got 'abc'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert (
            run("gen", "--example1", "--config", str(tmp_path / "no.cfg"),
                "--out", str(tmp_path / "x.csv")) == 2
        )
