"""End-to-end tests for the `missdiag` command-line interface."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import missdiag
from missdiag import GRAD_SAMPLE_DTYPE, GradTrace, PerfMetric, AblationTable, simtrainer
from missdiag.cli import main
from missdiag.config import SEED_ENV_VAR, resolve_config
from missdiag.equity import write_ablation_table
from missdiag.learning import write_agg_trace, write_grad_samples
from missdiag.report import file_sha256, read_report


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def mask_config(tmp_path, **overrides):
    raw = {
        "modalities": ["audio", "video", "text"],
        "protocol": {"rates": [0.1, 0.2, 0.6]},
        "seed": 7,
        "n_samples": 200,
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return write_config(tmp_path, raw)


def sim_config(tmp_path, *, paired=False, **sim_overrides):
    sim = {
        "dims": [6, 5],
        "informativeness": [1.0, 1.0],
        "n_train": 64,
        "n_valid": 16,
        "n_test": 16,
        "epochs": 2,
        "batch_size": 16,
        "n_classes": 3,
        "paired": paired,
    }
    sim.update(sim_overrides)
    raw = {
        "modalities": ["audio", "video"],
        "protocol": {"rates": [0.2, 0.5]},
        "seed": 11,
        "output_dir": str(tmp_path / "out"),
        "simulation": sim,
    }
    return write_config(tmp_path, raw)


def run_cli_process(argv, env_seed=None):
    """Run the CLI in a fresh interpreter; stderr is the real stream."""
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    if env_seed is not None:
        env[SEED_ENV_VAR] = env_seed
    package_root = str(Path(missdiag.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "missdiag.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


class TestMaskCommands:
    def test_generate_writes_file_and_summary(self, tmp_path, capsys):
        config = mask_config(tmp_path)
        out = tmp_path / "masks.csv"
        assert main(["mask", "generate", "--config", config, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert out.exists()
        assert "wrote maskmatrix-v1" in stdout
        assert "N=200, M=3, seed=7" in stdout
        assert "modality,rate,exact_marginal,empirical_rate" in stdout
        assert "pattern,count,frequency,probability" in stdout
        assert stdout.count("\naudio,0.1,") == 1

    def test_generate_defaults_to_output_dir(self, tmp_path):
        config = mask_config(tmp_path)
        assert main(["mask", "generate", "--config", config]) == 0
        assert (tmp_path / "out" / "masks.csv").exists()

    def test_generate_is_deterministic(self, tmp_path):
        config = mask_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["mask", "generate", "--config", config, "--out", str(a)])
        main(["mask", "generate", "--config", config, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_set_override_changes_sample_count(self, tmp_path, capsys):
        config = mask_config(tmp_path)
        out = tmp_path / "masks.csv"
        code = main(["mask", "generate", "--config", config,
                     "--set", "n_samples=64", "--out", str(out)])
        assert code == 0
        assert "N=64" in capsys.readouterr().out

    def test_zero_samples_is_config_error(self, tmp_path, capsys):
        config = mask_config(tmp_path)
        code = main(["mask", "generate", "--config", config, "--set", "n_samples=0"])
        assert code == 2
        assert "n_samples" in capsys.readouterr().err

    def test_unknown_config_field_is_config_error(self, tmp_path, capsys):
        config = mask_config(tmp_path, typo_field=1)
        code = main(["mask", "generate", "--config", config])
        assert code == 2
        assert "typo_field" in capsys.readouterr().err

    def test_missing_config_flag_is_config_error(self, tmp_path, capsys):
        assert main(["mask", "generate"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_stats_round_trip(self, tmp_path, capsys):
        config = mask_config(tmp_path)
        out = tmp_path / "masks.csv"
        main(["mask", "generate", "--config", config, "--out", str(out)])
        capsys.readouterr()
        assert main(["mask", "stats", "--file", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "N=200, M=3" in stdout
        assert "modality,empirical_rate" in stdout

    def test_stats_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["mask", "stats", "--file", str(tmp_path / "nope.csv")])
        assert code == 3

    def test_stats_malformed_file_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,a,b\n0,1,0\n1,2,0\n")
        assert main(["mask", "stats", "--file", str(path)]) == 3
        assert ":3:" in capsys.readouterr().err


class TestSeedPrecedence:
    def _generate(self, tmp_path, name, extra_args=()):
        config = mask_config(tmp_path)
        out = tmp_path / name
        code = main(["mask", "generate", "--config", config,
                     "--out", str(out), *extra_args])
        assert code == 0
        return out.read_bytes()

    def test_flag_beats_env_and_config(self, tmp_path, monkeypatch):
        reference = self._generate(tmp_path, "flag.csv", ("--seed", "99"))
        monkeypatch.setenv(SEED_ENV_VAR, "55")
        with_env = self._generate(tmp_path, "flag_env.csv", ("--seed", "99"))
        assert with_env == reference

    def test_env_beats_config(self, tmp_path, monkeypatch):
        from_config = self._generate(tmp_path, "config.csv")
        monkeypatch.setenv(SEED_ENV_VAR, "55")
        from_env = self._generate(tmp_path, "env.csv")
        assert from_env != from_config
        monkeypatch.delenv(SEED_ENV_VAR)
        from_flag = self._generate(tmp_path, "flag55.csv", ("--seed", "55"))
        assert from_env == from_flag

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        config = mask_config(tmp_path)
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert main(["mask", "generate", "--config", config]) == 2
        assert SEED_ENV_VAR in capsys.readouterr().err


class TestSeedRange:
    # Each row: extra argv, MISSDIAG_SEED value (None = unset), message fragment.
    CASES = [
        (["--seed", "-1"], None, "--seed"),
        (["--seed", str(2**64)], None, "--seed"),
        (["--set", "seed=-1"], None, "'seed'"),
        (["--set", f"seed={2**64}"], None, "'seed'"),
        (["--set", "seed=true"], None, "'seed'"),
        ([], "-3", SEED_ENV_VAR),
        (["--set", "simulation.data_seed=-1"], None, "'simulation.data_seed'"),
        (["--set", "simulation.data_seed=2.5"], None, "'simulation.data_seed'"),
        (["--set", f"simulation.data_seed={2**64}"], None, "'simulation.data_seed'"),
    ]

    @pytest.mark.parametrize("extra, env_seed, fragment", CASES,
                             ids=[" ".join(c[0]) or f"env={c[1]}" for c in CASES])
    def test_simulate_run_rejects_out_of_range_seed(self, tmp_path, extra, env_seed, fragment):
        proc = run_cli_process(
            ["simulate", "run", "--config", sim_config(tmp_path),
             "--out", str(tmp_path / "out"), *extra],
            env_seed,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and fragment in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


class TestSimulationFieldTypes:
    # Each row: simulation field, bad JSON value. Validated without coercion.
    CASES = [
        ("epochs", '"5"'),
        ("epochs", "1.5"),
        ("epochs", "true"),
        ("n_train", "2000.5"),
        ("n_valid", '"16"'),
        ("batch_size", "null"),
        ("hidden", "true"),
        ("n_classes", "3.0"),
        ("grad_log_stride", "[1]"),
        ("learning_rate", '"0.1"'),
        ("learning_rate", "false"),
        ("learning_rate", "Infinity"),
        ("label_noise", "null"),
        ("dims", '[16,"a"]'),
        ("dims", "[6,5.0]"),
        ("dims", "16"),
        ("informativeness", "[1.0,true]"),
        ("informativeness", "[NaN,1.0]"),
        ("informativeness", '"1,1"'),
        ("task", "1"),
        ("paired", '"no"'),
        ("paired", "1"),
        ("resample_masks_per_epoch", "0"),
    ]

    # A bad list element is named by its index; these rows pin the whole message.
    ELEMENT_ERRORS = {
        ("dims", '[16,"a"]'): "'simulation.dims[1]' must be a JSON integer, got \"a\"",
        ("dims", "[6,5.0]"): "'simulation.dims[1]' must be a JSON integer, got 5.0",
        ("informativeness", "[1.0,true]"):
            "'simulation.informativeness[1]' must be a JSON number, got true",
        ("informativeness", "[NaN,1.0]"):
            "'simulation.informativeness[0]' must be a JSON number, got NaN",
    }

    @pytest.mark.parametrize("field, value", CASES, ids=[f"{f}={v}" for f, v in CASES])
    def test_bad_type_is_config_error(self, tmp_path, capsys, field, value):
        argv = ["simulate", "run", "--config", sim_config(tmp_path),
                "--set", f"simulation.{field}={value}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        if (field, value) in self.ELEMENT_ERRORS:
            assert err == f"error: {self.ELEMENT_ERRORS[field, value]}\n"
        else:
            assert err.startswith(f"error: 'simulation.{field}' must be ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestTopLevelFieldTypes:
    # Each row: top-level numeric field, bad JSON value.
    CASES = [
        ("epsilon", "Infinity"),
        ("epsilon", "-Infinity"),
        ("epsilon", "NaN"),
        ("epsilon", '"1e-8"'),
        ("epsilon", "true"),
        ("epsilon", "null"),
        ("epsilon", "[1e-8]"),
        ("n_samples", "Infinity"),
        ("n_samples", "NaN"),
        ("n_samples", "100.0"),
        ("n_samples", '"100"'),
        ("n_samples", "false"),
        ("n_samples", "null"),
    ]

    @pytest.mark.parametrize("field, value", CASES, ids=[f"{f}={v}" for f, v in CASES])
    def test_bad_type_is_config_error(self, tmp_path, capsys, field, value):
        argv = ["simulate", "run", "--config", sim_config(tmp_path),
                "--set", f"{field}={value}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: '{field}' must be ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # protocol.shared_rate is a number like epsilon: booleans, strings and
    # non-finite values are type errors, never rates.
    SHARED_RATES = ["false", "true", "null", '"0.3"', "NaN", "Infinity", "[0.3]"]

    @pytest.mark.parametrize("command", ["mask", "simulate"])
    @pytest.mark.parametrize("value", SHARED_RATES)
    def test_bad_shared_rate_is_config_error(self, tmp_path, capsys, command, value):
        config = mask_config(tmp_path) if command == "mask" else sim_config(tmp_path)
        argv = [command, "generate" if command == "mask" else "run", "--config", config,
                "--set", 'protocol={"shared_rate": 0.3}',
                "--set", f"protocol.shared_rate={value}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: 'protocol.shared_rate' must be a JSON number, got {value}\n"
        assert not (tmp_path / "out").exists()

    # Each element of protocol.rates is a number in the same sense.
    RATE_ELEMENTS = [(0, "NaN"), (1, "Infinity"), (2, "-Infinity"), (0, "true"),
                     (1, "false"), (2, "null"), (0, '"0.1"'), (1, "[0.2]")]

    @pytest.mark.parametrize("command", ["mask", "simulate"])
    @pytest.mark.parametrize("index, value", RATE_ELEMENTS,
                             ids=[f"{i}={v}" for i, v in RATE_ELEMENTS])
    def test_bad_rate_element_is_config_error(self, tmp_path, capsys, command, index, value):
        M = 3 if command == "mask" else 2
        rates = ["0.1", "0.2", "0.3"][:M]
        rates[index % M] = value
        config = mask_config(tmp_path) if command == "mask" else sim_config(tmp_path)
        argv = [command, "generate" if command == "mask" else "run", "--config", config,
                "--set", f'protocol={{"rates": [{",".join(rates)}]}}']
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"error: 'protocol.rates[{index % M}]' must be a JSON number, "
                       f"got {value}\n")
        assert not (tmp_path / "out").exists()

    def test_rates_must_be_a_list(self, tmp_path, capsys):
        argv = ["mask", "generate", "--config", mask_config(tmp_path),
                "--set", 'protocol={"rates": null}']
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: 'protocol.rates' must be a JSON list of numbers, got null\n")

    def test_integer_shared_rate_accepted(self, tmp_path, capsys):
        config = mask_config(tmp_path, protocol={"shared_rate": 0})
        assert main(["mask", "generate", "--config", config]) == 0
        assert "\naudio,0.0,0.000000,0.000000\n" in capsys.readouterr().out


class TestOutUnderAFile:
    # An --out path whose parent is a file names the option, not only the OS error.
    @pytest.mark.parametrize("command", ["mask", "simulate"])
    @pytest.mark.parametrize("under", ["", "/x"])
    def test_names_the_option(self, tmp_path, capsys, command, under):
        afile = tmp_path / "afile"
        afile.write_text("taken\n")
        out = f"{afile}{under}"
        if command == "mask":
            argv = ["mask", "generate", "--config", mask_config(tmp_path), "--out", out + "/m.csv"]
        else:
            argv = ["simulate", "run", "--config", sim_config(tmp_path), "--out", out]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}") and err.count("\n") == 1
        assert "Errno" in err
        assert afile.read_text() == "taken\n"

    @pytest.mark.parametrize("command", ["mask", "simulate"])
    @pytest.mark.parametrize("under", ["", "/sub"])
    def test_names_the_config_output_dir(self, tmp_path, capsys, command, under):
        afile = tmp_path / "afile"
        afile.write_text("taken\n")
        out = f"{afile}{under}"
        config = mask_config(tmp_path) if command == "mask" else sim_config(tmp_path)
        argv = [command, "generate" if command == "mask" else "run", "--config", config,
                "--set", f"output_dir={json.dumps(out)}"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: config output_dir {out}: [Errno ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert afile.read_text() == "taken\n"


class TestTrainingDivergence:
    @staticmethod
    def _argv(tmp_path, stride):
        config = sim_config(tmp_path, dims=[16, 16], n_train=2000, n_classes=8,
                            batch_size=48)
        return ["simulate", "run", "--config", config,
                "--set", "simulation.learning_rate=10000",
                "--set", f"simulation.grad_log_stride={stride}"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("stride", [1, 1000])
    def test_divergence_names_step_and_epoch(self, tmp_path, capsys, stride):
        assert main(self._argv(tmp_path, stride)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged at step ")
        assert "(epoch 2)" in err and "last finite loss: " in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_paired_run_raises_the_imr_arms_divergence(self, tmp_path, capsys):
        # Both arms diverge; the IMR arm (arm 0) is the one reported, as
        # when the arms trained one after the other.
        assert main(self._argv(tmp_path, 1)) == 2
        single = capsys.readouterr().err
        assert main([*self._argv(tmp_path, 1), "--set", "simulation.paired=true"]) == 2
        assert capsys.readouterr().err == single
        assert not (tmp_path / "out").exists()

    def test_stderr_holds_only_the_error_line(self, tmp_path):
        proc = run_cli_process(self._argv(tmp_path, 1))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: training diverged at step ")
        assert proc.stderr.count("\n") == 1
        assert "RuntimeWarning" not in proc.stderr


class TestNonUtf8Input:
    """A file that is not UTF-8 is one `error:` line and its exit code, not a traceback."""

    @staticmethod
    def _config(tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seed": 1, "modalities": ["\xff"]}')
        return path

    @staticmethod
    def _report(tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b'{"payload": "\xff"}')
        return path

    def _assert_one_error(self, err, path):
        assert err == f"error: {path}: not UTF-8 text\n"

    def test_config_is_exit_2(self, tmp_path, capsys):
        path = self._config(tmp_path)
        assert main(["mask", "generate", "--config", str(path)]) == 2
        self._assert_one_error(capsys.readouterr().err, path)

    def test_report_is_exit_3(self, tmp_path, capsys):
        path = self._report(tmp_path)
        code = main(["report", "merge", str(path), str(path),
                     "--out", str(tmp_path / "merged.json")])
        assert code == 3
        self._assert_one_error(capsys.readouterr().err, path)
        assert not (tmp_path / "merged.json").exists()

    def test_config_in_fresh_interpreter(self, tmp_path):
        path = self._config(tmp_path)
        proc = run_cli_process(["simulate", "run", "--config", str(path)])
        assert proc.returncode == 2
        self._assert_one_error(proc.stderr, path)


class TestProtocolCommands:
    def test_mean_match_from_rates(self, capsys):
        assert main(["protocol", "mean-match", "--rates", "0.4,0.5,0.6"]) == 0
        stdout = capsys.readouterr().out
        assert "mean-matched shared rate: 0.5" in stdout
        assert "divergence (js)" in stdout

    def test_mean_match_from_config(self, tmp_path, capsys):
        config = mask_config(tmp_path)
        assert main(["protocol", "mean-match", "--config", config]) == 0
        assert "mean-matched shared rate: 0.3" in capsys.readouterr().out

    def test_mean_match_requires_rates_or_config(self, capsys):
        assert main(["protocol", "mean-match"]) == 2

    def test_mean_match_rejects_bad_rates(self, capsys):
        assert main(["protocol", "mean-match", "--rates", "0.4,high"]) == 2

    def test_divergence_js(self, capsys):
        code = main(["protocol", "divergence",
                     "--rates-a", "0.4,0.5,0.6", "--rates-b", "0.5,0.5,0.5"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("divergence (js): ")
        value = float(stdout.split(": ")[1])
        assert 0.0 < value < 0.1

    def test_divergence_kl_can_be_infinite(self, capsys):
        code = main(["protocol", "divergence", "--kind", "kl",
                     "--rates-a", "0.3,0.5", "--rates-b", "0.0,0.5"])
        assert code == 0
        assert "inf" in capsys.readouterr().out

    def test_divergence_mismatched_lengths(self, capsys):
        code = main(["protocol", "divergence",
                     "--rates-a", "0.3,0.5", "--rates-b", "0.3,0.5,0.1"])
        assert code == 2


def asym_table() -> AblationTable:
    # Scores of 01, 10 and 11, in canonical order.
    return AblationTable(M=2, metric=PerfMetric.named("UA"), scores=[0.5, 0.85, 0.9])


class TestMetricsMei:
    def test_reports_both_modes(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        write_ablation_table(asym_table(), path)
        assert main(["metrics", "mei", "--table", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert "metric UA (higher-better), M=2" in stdout
        assert "modality,mu,sigma,zeta,p" in stdout
        assert "mei[balanced-is-one]: " in stdout
        assert "mei[dominance-is-one]: " in stdout
        assert "(selected)" in stdout

    def test_mode_flag_moves_selection_marker(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        write_ablation_table(asym_table(), path)
        main(["metrics", "mei", "--table", str(path), "--mode", "dominance-is-one"])
        stdout = capsys.readouterr().out
        selected = [l for l in stdout.splitlines() if "(selected)" in l]
        assert len(selected) == 1 and "dominance-is-one" in selected[0]

    def test_constant_table_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text(
            "combination,metric,value\n01,UA,0.5\n10,UA,0.5\n11,UA,0.5\n"
        )
        assert main(["metrics", "mei", "--table", str(path)]) == 4
        assert "contribution" in capsys.readouterr().err

    def test_incomplete_table_names_bitstring(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("combination,metric,value\n01,UA,0.5\n11,UA,0.9\n")
        assert main(["metrics", "mei", "--table", str(path)]) == 2
        assert "10" in capsys.readouterr().err

    def test_malformed_value_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("combination,metric,value\n01,UA,zero\n10,UA,0.5\n11,UA,0.9\n")
        assert main(["metrics", "mei", "--table", str(path)]) == 3
        assert ":2:" in capsys.readouterr().err

    def test_lower_better_flag_changes_result(self, tmp_path, capsys):
        table = AblationTable(
            M=2,
            metric=PerfMetric.named("Loss", {"Loss": "lower-better"}),
            scores=[0.8, 0.2, 0.1],
        )
        path = tmp_path / "table.csv"
        write_ablation_table(table, path)
        main(["metrics", "mei", "--table", str(path)])
        default_out = capsys.readouterr().out
        assert "metric Loss (higher-better)" in default_out
        main(["metrics", "mei", "--table", str(path), "--lower-better", "Loss"])
        flipped_out = capsys.readouterr().out
        assert "metric Loss (lower-better)" in flipped_out
        assert default_out != flipped_out

    def test_missing_table_file_is_io_error(self, tmp_path):
        assert main(["metrics", "mei", "--table", str(tmp_path / "nope.csv")]) == 3


class TestMetricsMli:
    def _trace_file(self, tmp_path, grid, steps=None):
        path = tmp_path / "trace.csv"
        samples = [(steps[t] if steps else t + 1, m, 0, value)
                   for t, row in enumerate(grid) for m, value in enumerate(row)]
        write_grad_samples(np.array(samples, dtype=GRAD_SAMPLE_DTYPE), path)
        return str(path)

    def test_raw_trace_file(self, tmp_path, capsys):
        path = self._trace_file(tmp_path, [[1.0, 1.0], [2.0, 1.0], [4.0, 1.0]])
        assert main(["metrics", "mli", "--trace", path]) == 0
        stdout = capsys.readouterr().out
        assert "mli: 0.8660254037844386" in stdout
        assert "raw_inner: 0.75" in stdout
        assert "clamped: False" in stdout
        assert "T: 3" in stdout and "M: 2" in stdout

    def test_aggregated_trace_file(self, tmp_path, capsys):
        path = tmp_path / "agg.csv"
        write_agg_trace(
            GradTrace(values=np.array([[1.0, 1.0], [2.0, 1.0], [4.0, 1.0]])), path
        )
        assert main(["metrics", "mli", "--trace", str(path)]) == 0
        assert "mli: 0.8660254037844386" in capsys.readouterr().out

    def test_static_trace_scores_zero(self, tmp_path, capsys):
        path = self._trace_file(tmp_path, [[2.0, 2.0], [2.0, 2.0]])
        assert main(["metrics", "mli", "--trace", path]) == 0
        assert "mli: 0.0" in capsys.readouterr().out

    def test_gapped_steps_warn_on_stderr(self, tmp_path, capsys):
        path = self._trace_file(
            tmp_path, [[1.0, 1.0], [2.0, 1.0], [4.0, 1.0]], steps=[1, 2, 9]
        )
        assert main(["metrics", "mli", "--trace", path]) == 0
        captured = capsys.readouterr()
        assert "not contiguous" in captured.err
        assert "mli: 0.8660254037844386" in captured.out

    def test_stride_flag(self, tmp_path, capsys):
        path = self._trace_file(
            tmp_path, [[1.0, 1.0], [9.0, 9.0], [2.0, 1.0], [9.0, 9.0], [4.0, 1.0]]
        )
        assert main(["metrics", "mli", "--trace", path, "--stride", "2"]) == 0
        assert "mli: 0.8660254037844386" in capsys.readouterr().out

    @pytest.mark.parametrize("stride", ["0", "-3"])
    def test_bad_stride_checked_before_the_read(self, tmp_path, capsys, stride):
        gapped = self._trace_file(tmp_path, [[1.0, 1.0], [2.0, 1.0], [4.0, 1.0]], steps=[1, 2, 9])
        for path in (gapped, str(tmp_path / "absent.csv")):
            assert main(["metrics", "mli", "--trace", path, "--stride", stride]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: stride must be >= 1, got {stride}\n"
            assert captured.out == ""

    def test_single_step_trace_is_config_error(self, tmp_path, capsys):
        path = self._trace_file(tmp_path, [[1.0, 2.0]])
        assert main(["metrics", "mli", "--trace", path]) == 2

    def test_bad_header_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert main(["metrics", "mli", "--trace", str(path)]) == 3

    def test_conflicting_rows_are_duplicate_error(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        path.write_text(
            "step,modality,G\n1,0,1.0\n1,0,2.0\n1,1,1.0\n2,0,1.0\n2,1,3.0\n"
        )
        assert main(["metrics", "mli", "--trace", str(path)]) == 2
        assert "conflicting" in capsys.readouterr().err


class TestSimulateRun:
    def test_single_run_artifacts(self, tmp_path, capsys):
        config = sim_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "run", "--config", config]) == 0
        stdout = capsys.readouterr().out
        assert "run: mli=" in stdout
        assert "wrote report:" in stdout
        for name in ("masks.csv", "abltable_test.csv", "abltable_valid_ep002.csv",
                     "gradtrace.csv", "gradagg.csv", "report.json", "manifest.json"):
            assert (out / name).exists(), name

    def test_report_payload_structure(self, tmp_path):
        config = sim_config(tmp_path)
        main(["simulate", "run", "--config", config])
        report = read_report(tmp_path / "out" / "report.json")
        payload = report.payload
        assert payload["paired"] is False
        assert payload["seeds"] == {"data": 11, "train": 11}
        assert payload["protocol"]["rates"] == [0.2, 0.5]
        assert payload["protocol"]["mean_matched_shared_rate"] == 0.35
        assert set(payload["task_scores_full"]) == {"UA", "WA", "F1"}
        assert set(payload["mei"]["UA"]) == {"balanced-is-one", "dominance-is-one"}
        assert 0.0 <= payload["mli"]["value"] <= 1.0
        assert len(payload["exact_marginals"]) == 2

    def test_manifest_checksums_match_files(self, tmp_path):
        config = sim_config(tmp_path)
        main(["simulate", "run", "--config", config])
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["report"] == "report.json"
        assert manifest["config_hash"]
        for name, entry in manifest["artifacts"].items():
            target = out / entry["path"]
            assert target.exists(), name
            assert file_sha256(target) == entry["sha256"]

    def test_rerun_is_byte_identical_except_timestamp(self, tmp_path):
        config = sim_config(tmp_path)
        first = tmp_path / "first"
        second = tmp_path / "second"
        main(["simulate", "run", "--config", config, "--out", str(first)])
        main(["simulate", "run", "--config", config, "--out", str(second)])
        for name in ("masks.csv", "abltable_test.csv", "abltable_valid_ep002.csv",
                     "gradtrace.csv", "gradagg.csv", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        a = read_report(first / "report.json")
        b = read_report(second / "report.json")
        assert a.payload == b.payload
        assert a.payload_sha256 == b.payload_sha256

    def test_paired_run_emits_both_arms(self, tmp_path, capsys):
        config = sim_config(tmp_path, paired=True)
        assert main(["simulate", "run", "--config", config]) == 0
        stdout = capsys.readouterr().out
        assert "paired run: mli[imr]=" in stdout
        out = tmp_path / "out"
        for arm in ("imr", "smr"):
            for name in ("masks.csv", "abltable_test.csv", "gradtrace.csv",
                         "gradagg.csv"):
                assert (out / arm / name).exists(), f"{arm}/{name}"
        payload = read_report(out / "report.json").payload
        assert payload["paired"] is True
        assert payload["smr"]["protocol"]["rates"] == [0.35, 0.35]
        assert "mli" in payload["deltas"]
        delta = payload["imr"]["mli"]["value"] - payload["smr"]["mli"]["value"]
        assert payload["deltas"]["mli"] == pytest.approx(delta, abs=1e-15)

    def test_simulation_block_required(self, tmp_path, capsys):
        config = mask_config(tmp_path)
        assert main(["simulate", "run", "--config", config]) == 2
        assert capsys.readouterr() == (
            "", "error: this command requires a 'simulation' block in the config\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("paired", [False, True])
    def test_one_run_arms_call(self, tmp_path, monkeypatch, paired):
        calls = []
        run_arms = simtrainer.run_arms

        def recorded(spec, configs):
            calls.append((spec, list(configs)))
            return run_arms(spec, configs)

        monkeypatch.setattr(simtrainer, "run_arms", recorded)
        config_path = sim_config(tmp_path, paired=paired)
        assert main(["simulate", "run", "--config", config_path]) == 0
        config = resolve_config(json.loads(Path(config_path).read_text()), env={})
        [(spec, configs)] = calls
        assert spec == config.spec
        assert [c.protocol.rates for c in configs] == [(0.2, 0.5), (0.35, 0.35)][:1 + paired]
        assert configs[0] == config.train
        assert all(replace(c, protocol=config.rates) == config.train for c in configs)


class TestReportMerge:
    def test_merges_two_reports(self, tmp_path, capsys):
        config = sim_config(tmp_path)
        first = tmp_path / "first"
        second = tmp_path / "second"
        main(["simulate", "run", "--config", config, "--out", str(first)])
        main(["simulate", "run", "--config", config, "--out", str(second),
              "--seed", "12"])
        merged_path = tmp_path / "merged.json"
        code = main(["report", "merge", str(first / "report.json"),
                     str(second / "report.json"), "--out", str(merged_path)])
        assert code == 0
        merged = read_report(merged_path)
        entries = merged.payload["merged_reports"]
        assert len(entries) == 2
        assert entries[0]["source"] == "report.json"
        assert entries[0]["payload"]["seeds"] == {"data": 11, "train": 11}
        assert entries[1]["payload"]["seeds"] == {"data": 12, "train": 12}

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["report", "merge", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "merged.json")])
        assert code == 3


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


class TestConsoleScript:
    def test_entry_point_runs(self):
        # Checks the `missdiag` target declared in pyproject.toml without
        # needing the package installed: resolve it, then run it in a fresh
        # interpreter the way the generated console-script wrapper does.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["missdiag"]
        module_name, func_name = target.split(":")
        assert getattr(importlib.import_module(module_name), func_name) is main

        # The child must import the same package as this process.
        package_root = str(Path(missdiag.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")]))
        wrapper = (f"import sys; from {module_name} import {func_name}; "
                   f"sys.exit({func_name}())")

        def run(*args):
            return subprocess.run([sys.executable, "-c", wrapper, *args],
                                  capture_output=True, text=True, env=env)

        proc = run("protocol", "mean-match", "--rates", "0.4,0.5,0.6")
        assert proc.returncode == 0, proc.stderr
        assert "mean-matched shared rate: 0.5" in proc.stdout

        proc = run("protocol", "mean-match", "--rates", "0.4,1.5")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")

    @pytest.mark.skipif(shutil.which("missdiag") is None,
                        reason="missdiag console script not on PATH")
    def test_installed_script_runs(self):
        exe = shutil.which("missdiag")
        proc = subprocess.run(
            [exe, "protocol", "mean-match", "--rates", "0.4,0.5,0.6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "mean-matched shared rate: 0.5" in proc.stdout


class TestOneParser:
    """`main` parses with one parser per process; reuse changes no output."""

    def test_built_once(self):
        from missdiag import cli

        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("argv", [
        ["--help"], ["mask", "generate", "--help"], ["report", "merge", "--help"], [], ["mask"],
        ["bogus"], ["metrics", "mli"], ["metrics", "mli", "--trace", "t", "--stride", "x"],
        ["protocol", "divergence", "--rates-a", "0.1,0.2", "--rates-b", "0.1,0.2",
         "--kind", "xx"],
    ], ids=lambda argv: " ".join(argv) or "no-args")
    def test_exits_print_what_a_fresh_parser_prints(self, capsys, argv):
        from missdiag.cli import build_parser

        seen = []
        for parse in (lambda: main(argv), lambda: main(argv),
                      lambda: build_parser().parse_args(argv)):
            with pytest.raises(SystemExit) as info:
                parse()
            seen.append((info.value.code, capsys.readouterr()))
        assert seen[0] == seen[1] == seen[2]

    def test_no_value_carries_over_between_calls(self, capsys):
        rates = ["--rates-a", "0.1,0.2", "--rates-b", "0.3,0.2"]
        assert main(["protocol", "divergence", *rates, "--kind", "kl"]) == 0
        assert capsys.readouterr().out.startswith("divergence (kl): ")
        assert main(["protocol", "divergence", *rates]) == 0
        assert capsys.readouterr().out.startswith("divergence (js): ")
