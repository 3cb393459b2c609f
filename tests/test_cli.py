"""Command-line interface: flag handling, config files, exit codes."""

import argparse
import io
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from livefetch import prefetch, sweep
from livefetch.cli import _FIGURE_SPECS, _build_parser, main
from livefetch.model import QuadratureError
from livefetch.sweep import (
    FADINGS,
    FAST_POLICIES,
    SLOW_POLICIES,
    SWEEP_PARAMS,
    SweepConfig,
    emit_csv,
    gain_vs_shape,
    load_rows,
    run_sweep,
)

FIGURE_NAMES = ("fig4a", "fig4b", "fig4c", "fig4d",
                "fig5a", "fig5b", "fig5c", "fig5d", "fig6")

COMMANDS = next(action for action in _build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices
SWEEP_FLAGS = {action.dest: action for action in COMMANDS["sweep"]._actions
               if action.dest not in ("help", "config")}

# A value for every sweep flag that moves SweepConfig off its defaults (or,
# for ``out``, the CSV off the other runs' path).
FLAG_VALUES = {"param": "N", "values": "5,6", "policies": "slow-opt", "fading": "fast",
               "trials": "7", "scenarios": "3", "seed": "5", "out": "elsewhere.csv",
               "m": "3", "k": "4", "slow_g": "2.5", "gamma_total": "10", "L": "3",
               "N": "6", "Np": "2", "lam": "0.5", "uniform": "true"}


def record_sweeps(monkeypatch) -> list:
    """The SweepConfig of every ``livefetch sweep`` run from now on, none simulated."""
    configs = []
    monkeypatch.setattr("livefetch.cli.run_sweep", lambda cfg: configs.append(cfg) or [])
    return configs


def sweep_argv(settings: dict) -> list:
    argv = ["sweep"]
    for dest, value in settings.items():
        action = SWEEP_FLAGS[dest]
        argv += [action.option_strings[0]] + ([] if action.nargs == 0 else [value])
    return argv


class TestSweepCommand:
    def test_writes_the_requested_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--param", "gamma", "--values", "5,10",
                     "--policies", "slow-opt", "--scenarios", "2",
                     "--out", str(out)])
        assert code == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        expected = run_sweep(SweepConfig(param="gamma", values=(5.0, 10.0),
                                         policies=("slow-opt",), scenarios=2))
        assert load_rows(out) == expected

    def test_fading_inferred_from_a_k_sweep(self, tmp_path):
        out = tmp_path / "k.csv"
        code = main(["sweep", "--param", "k", "--values", "2", "--trials", "20",
                     "--scenarios", "1", "--out", str(out)])
        assert code == 0
        rows = load_rows(out)
        assert {row.policy for row in rows} == set(FAST_POLICIES)
        assert all(row.trials == 20 for row in rows)

    def test_fading_inferred_from_the_policy_list(self, tmp_path):
        out = tmp_path / "nc.csv"
        code = main(["sweep", "--param", "N", "--values", "5",
                     "--policies", "noncausal", "--trials", "20",
                     "--scenarios", "1", "--out", str(out)])
        assert code == 0
        (row,) = load_rows(out)
        assert row.policy == "noncausal" and row.trials == 20

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["sweep", "--param", "N", "--values", "5", "--policies",
                "noncausal,aggressive", "--trials", "30", "--scenarios", "2",
                "--seed", "5"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestConfigFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        return str(path)

    def test_config_file_supplies_settings(self, tmp_path):
        cfg_path = self._write(tmp_path, (
            "# slow-fading data sweep\n"
            "param=gamma\n"
            "values=5,10\n"
            "policies=slow-opt\n"
            "\n"
            "scenarios=3\n"
            "seed=4\n"
            "gamma-total=10\n"))
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        expected = run_sweep(SweepConfig(param="gamma", values=(5.0, 10.0),
                                         policies=("slow-opt",), scenarios=3,
                                         seed=4, gamma_total=10.0))
        assert load_rows(out) == expected

    def test_flags_override_the_config_file(self, tmp_path):
        cfg_path = self._write(tmp_path, "param=gamma\nvalues=5\n"
                                         "policies=slow-opt\nscenarios=3\nseed=4\n")
        out = tmp_path / "rows.csv"
        code = main(["sweep", "--config", cfg_path, "--scenarios", "2",
                     "--out", str(out)])
        assert code == 0
        expected = run_sweep(SweepConfig(param="gamma", values=(5.0,),
                                         policies=("slow-opt",), scenarios=2,
                                         seed=4))
        assert load_rows(out) == expected

    def test_boolean_coercion(self, tmp_path):
        cfg_path = self._write(tmp_path, "param=L\nvalues=2\npolicies=slow-opt\n"
                                         "scenarios=2\nuniform=true\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 0
        expected = run_sweep(SweepConfig(param="L", values=(2.0,),
                                         policies=("slow-opt",), scenarios=2,
                                         uniform=True))
        assert load_rows(out) == expected

    @pytest.mark.parametrize("text", ["false", "no", "OFF", "0"])
    def test_false_boolean_coercion(self, tmp_path, monkeypatch, text):
        configs = record_sweeps(monkeypatch)
        cfg_path = self._write(tmp_path, f"param=L\nvalues=2\nuniform={text}\n")
        out = str(tmp_path / "rows.csv")
        assert main(["sweep", "--config", cfg_path, "--out", out]) == 0
        assert main(["sweep", "--config", cfg_path, "--out", out, "--uniform"]) == 0
        assert [cfg.uniform for cfg in configs] == [False, True]

    def test_every_flag_is_a_config_key(self):
        assert set(SWEEP_FLAGS) == set(FLAG_VALUES)

    @pytest.mark.parametrize("dest", sorted(SWEEP_FLAGS))
    def test_a_config_key_sets_what_its_flag_sets(self, tmp_path, monkeypatch, dest):
        configs = record_sweeps(monkeypatch)
        value = FLAG_VALUES[dest]
        if dest == "out":
            value = str(tmp_path / value)
        base = {"param": "gamma", "values": "5", "out": str(tmp_path / "rows.csv")}
        rest = {key: given for key, given in base.items() if key != dest}
        cfg_path = self._write(tmp_path, f"# set by the file\n{dest}={value}\n")
        assert main(sweep_argv(base)) == 0
        assert main(sweep_argv({**base, dest: value})) == 0
        assert main(sweep_argv(rest) + ["--config", cfg_path]) == 0
        unset, by_flag, by_config = configs
        assert by_config == by_flag
        if dest == "out":
            assert os.path.exists(value)
        else:
            assert by_flag != unset

    @pytest.mark.parametrize("key", ["policy", "config", "bogus"])
    def test_a_key_that_is_no_sweep_flag_exits_two(self, tmp_path, capsys, key):
        cfg_path = self._write(tmp_path, f"param=gamma\nvalues=5\n{key}=aggressive\n")
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", cfg_path, "--out", str(out)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_is_read_as_utf8_in_any_locale(self, tmp_path):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text("# Fig. 4a \u2013 slow fading\nparam=gamma\nvalues=5\n"
                            "policies=slow-opt\nscenarios=1\n", encoding="utf-8")
        out = tmp_path / "rows.csv"
        src = os.path.dirname(os.path.dirname(sweep.__file__))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "livefetch.cli", "sweep",
                               "--config", str(cfg_path), "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert load_rows(out) == run_sweep(SweepConfig(param="gamma", values=(5.0,),
                                                       policies=("slow-opt",), scenarios=1))

    @pytest.mark.parametrize("text,fragment", [
        ("param=gamma\nvalues=5\nbogus=1\n", "unknown key"),
        ("param=gamma\nvalues=5\nuniform=maybe\n", "bad value"),
        ("param=gamma\noops\n", "expected key=value"),
    ])
    def test_malformed_config_exits_two(self, tmp_path, capsys, text, fragment):
        cfg_path = self._write(tmp_path, text)
        assert main(["sweep", "--config", cfg_path]) == 2
        assert fragment in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        assert main(["sweep", "--config", missing]) == 2
        assert "not found" in capsys.readouterr().err

    def test_config_directory_exits_two(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config file")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["sweep", "--param", "gamma", "--values", "5", "--policies", "slow-opt",
         "--scenarios", "1"],
        ["figures", "--trials", "5", "--scenarios", "1"],
    ], ids=["sweep", "figures"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(command + ["--out", str(blocker / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot ")
        assert "Traceback" not in err


class TestExitCodes:
    def test_missing_required_setting_exits_two(self, capsys):
        assert main(["sweep", "--param", "gamma"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_inconsistent_geometry_exits_two(self, capsys):
        code = main(["sweep", "--param", "Np", "--values", "9",
                     "--policies", "slow-opt", "--N", "5"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_values_list_exits_two(self, capsys):
        assert main(["sweep", "--param", "gamma", "--values", "5,abc"]) == 2
        assert "bad values list" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--bogus"])
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("exc", [
        QuadratureError("tolerance exceeded", residual=1.0),
        FloatingPointError("overflow"),
        ZeroDivisionError("float division by zero"),
        OverflowError(34, "Numerical result out of range"),
    ])
    def test_numerical_failures_exit_three(self, monkeypatch, capsys, exc):
        def boom(cfg):
            raise exc
        monkeypatch.setattr("livefetch.cli.run_sweep", boom)
        code = main(["sweep", "--param", "gamma", "--values", "5",
                     "--policies", "slow-opt"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_real_overflow_exits_three(self, tmp_path, capsys):
        # gamma**m overflows; the CLI raises on it where it happens instead
        # of warning and failing later on the non-finite result.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--param", "gamma", "--values", "1e70",
                         "--m", "5", "--fading", "fast", "--trials", "20",
                         "--scenarios", "1", "--out", str(tmp_path / "big.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "overflow" in err

    def test_real_underflow_exits_three(self, tmp_path, capsys):
        # gamma**m underflows to zero, so the computed energy ratio is 0.
        code = main(["sweep", "--param", "gamma", "--values", "1e-70", "--m", "5",
                     "--N", "4", "--Np", "4", "--policies", "slow-opt", "--scenarios", "2",
                     "--out", str(tmp_path / "tiny.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_fast_underflow_exits_three(self, tmp_path, capsys):
        # The unit energies are fine; their scale gamma**m underflows to 0.
        code = main(["sweep", "--param", "gamma", "--values", "1e-70", "--m", "5",
                     "--fading", "fast", "--trials", "20", "--scenarios", "1",
                     "--out", str(tmp_path / "tiny.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("fading", ["slow", "fast"])
    def test_single_size_underflow_exits_three(self, capsys, fading):
        # The scale passes the flag check, but the drawn sizes underflow to 0.
        code = main(["single", "--fading", fading, "--gamma-total", "5e-324", "--seed", "1"])
        assert code == 3
        assert "numerical failure (FloatingPointError)" in capsys.readouterr().err

    @pytest.mark.parametrize("fading", ["slow", "fast"])
    def test_single_energy_underflow_exits_three(self, capsys, fading):
        # The sizes are positive, but every energy underflows to 0.
        code = main(["single", "--fading", fading, "--gamma-total", "1e-200", "--m", "5",
                     "--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure (FloatingPointError)" in err
        assert "underflowed" in err

    @pytest.mark.parametrize("fading, target, broken", [
        # The residual rule holds its check, so it runs on a NaN water level
        # that holds every task: each task's bits come out NaN.
        ("fast", "livefetch.prefetch._residuals",
         lambda s, level, size, task, rule=prefetch._residuals:
             rule(s, np.full(np.shape(level), np.nan), s.L, task)),
        ("slow", "livefetch.slow.total_prefetched_bits", lambda s, members: -np.inf),
    ], ids=["fast-residuals", "slow-alpha"])
    def test_single_computed_value_failure_exits_three(self, monkeypatch, capsys,
                                                       fading, target, broken):
        # A failed computation used to reach a check on caller input (exit 2).
        monkeypatch.setattr(target, broken)
        assert main(["single", "--fading", fading, "--seed", "1"]) == 3
        assert "numerical failure (FloatingPointError)" in capsys.readouterr().err

    def test_python_float_overflow_exits_three(self, capsys):
        # The slow plan's alpha_sigma ** m overflows; the power is taken in
        # numpy float64, so it raises FloatingPointError, not OverflowError.
        code = main(["single", "--fading", "slow", "--gamma-total", "1e70", "--m", "5"])
        assert code == 3
        assert "numerical failure (FloatingPointError)" in capsys.readouterr().err


    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--lam", "--slow-g", "--gamma-total"])
    @pytest.mark.parametrize("command", [
        ["sweep", "--param", "gamma", "--values", "5", "--policies", "slow-opt",
         "--scenarios", "1"],
        ["single", "--seed", "1"],
    ], ids=["sweep", "single"])
    def test_non_finite_scales_exit_two(self, tmp_path, capsys, command, flag, value):
        code = main(command + [flag, value] + (
            ["--out", str(tmp_path / "rows.csv")] if command[0] == "sweep" else []))
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("param,values", [("L", "2,inf"), ("gamma", "nan")])
    def test_non_finite_values_exit_two(self, tmp_path, capsys, param, values):
        code = main(["sweep", "--param", param, "--values", values, "--policies", "slow-opt",
                     "--scenarios", "1", "--out", str(tmp_path / "rows.csv")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


def is_energy_line(line: str) -> bool:
    return "energy" in line or "reference" in line


def energy_lines(out: str) -> dict:
    """The printed energies of a ``single`` report, keyed by their label."""
    return {line.split("=")[0].strip(): float(line.split("=")[1])
            for line in out.splitlines() if is_energy_line(line)}


class TestSingleCommand:
    def test_slow_stage_report(self, capsys):
        assert main(["single", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "slow fading" in out
        assert "optimal alpha" in out
        assert "prefetching gain" in out

    @pytest.mark.parametrize("policy", FAST_POLICIES)
    def test_fast_episode_report(self, capsys, policy):
        assert main(["single", "--fading", "fast", "--policy", policy,
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert f"fast fading, k=2, policy={policy}" in out
        assert "slot 4:" in out             # N_P = 4 by default
        assert "total energy" in out
        assert "no-prefetch reference" in out

    @pytest.mark.parametrize("policy", FAST_POLICIES)
    def test_a_policy_implies_fast_fading(self, capsys, policy):
        assert main(["single", "--policy", policy, "--seed", "1"]) == 0
        implied = capsys.readouterr().out
        assert main(["single", "--fading", "fast", "--policy", policy, "--seed", "1"]) == 0
        assert implied == capsys.readouterr().out
        assert f"fast fading, k=2, policy={policy}" in implied

    def test_fast_fading_runs_the_noncausal_oracle_by_default(self, capsys):
        assert main(["single", "--fading", "fast", "--seed", "1"]) == 0
        default = capsys.readouterr().out
        assert main(["single", "--policy", "noncausal", "--seed", "1"]) == 0
        assert default == capsys.readouterr().out
        assert "policy=noncausal" in default

    @pytest.mark.parametrize("policy", FAST_POLICIES)
    def test_a_policy_under_slow_fading_exits_two(self, capsys, policy):
        assert main(["single", "--fading", "slow", "--policy", policy, "--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: ") and repr(policy) in err

    @pytest.mark.parametrize("fading,extra,factor", [
        ("slow", [], 2.5),
        ("slow", ["--slow-g", "4"], 2.5 / 4.0),
        ("fast", ["--slow-g", "4"], 2.5),
    ])
    def test_lam_scales_the_printed_energies(self, capsys, fading, extra, factor):
        base = ["single", "--fading", fading, "--seed", "3"]
        assert main(base) == 0
        unit = capsys.readouterr().out
        assert main(base + ["--lam", "2.5"] + extra) == 0
        scaled = capsys.readouterr().out
        energies = energy_lines(unit)
        assert len(energies) == (2 if fading == "slow" else 4)
        assert energy_lines(scaled) == pytest.approx(
            {label: factor * value for label, value in energies.items()}, rel=1e-5)
        others = [[line for line in out.splitlines()[1:] if not is_energy_line(line)
                   and not line.startswith("slow fading, g=")] for out in (unit, scaled)]
        assert others[0] == others[1]       # plans, gains, bits and thresholds

    @pytest.mark.parametrize("flags, message", [
        (["--fading", "fast", "--N", "4", "--Np", "4"], "N_P = N = 4 leaves no demand phase"),
        (["--Np", "6"], "N_P=6 and N=5 break 1 <= N_P <= N"),
        (["--L", "0"], "L=0 leaves no task"),
        (["--k", "1"], "k must be an integer >= 2"),
        (["--m", "6"], "m must be an integer in [2, 5]"),
        (["--gamma-total", "-1"], "gamma_total must be finite and strictly positive"),
    ])
    def test_bad_settings_exit_two_before_printing(self, capsys, flags, message):
        assert main(["single", "--seed", "1"] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: ") and message in err
        assert "sweep point" not in err

    def test_uniform_flag_reaches_the_scenario(self, capsys):
        assert main(["single", "--uniform", "--L", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "p        = [0.5 0.5]" in out
        assert "gamma    = [10. 10.]" in out


class TestFiguresCommand:
    def test_emits_every_figure_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        code = main(["figures", "--out", str(out_dir), "--trials", "40",
                     "--scenarios", "2", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out.count("wrote") == len(FIGURE_NAMES)
        for name in FIGURE_NAMES:
            rows = load_rows(out_dir / f"{name}.csv")
            assert rows
        shape_rows = load_rows(out_dir / "fig6.csv")
        assert {row.policy for row in shape_rows} == {"fast-optimal", "slow-opt"}

    def test_defaults_come_from_the_sweep_config(self, tmp_path, monkeypatch):
        configs = []

        def record(cfg, *args):
            configs.append(cfg)
            return []

        monkeypatch.setattr("livefetch.cli._run_sweep", record)
        monkeypatch.setattr("livefetch.cli.gain_vs_shape", record)
        monkeypatch.chdir(tmp_path)
        assert main(["figures"]) == 0
        assert sorted(path.name for path in (tmp_path / "figures").iterdir()) == \
            [f"{name}.csv" for name in FIGURE_NAMES]
        default = {field.name: field.default for field in fields(SweepConfig)}
        assert {(cfg.trials, cfg.scenarios, cfg.seed) for cfg in configs} == \
            {(default["trials"], default["scenarios"], default["seed"])}

    def test_panels_share_their_baseline_points(self, tmp_path, monkeypatch):
        # fig5a at gamma=20, fig5b at L=4 and fig5c at N=5 are one simulation,
        # and so are fig5c at N=10 and fig5d at N_P=4: 186 kernel runs become
        # 150, and every CSV is still the panel's own sweep, byte for byte.
        calls = []
        kernel = sweep.run_prefetch_batch

        def counted(*args, **kwargs):
            calls.append(args[2])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(sweep, "run_prefetch_batch", counted)
        out_dir = tmp_path / "figs"
        assert main(["figures", "--out", str(out_dir), "--trials", "20",
                     "--scenarios", "3", "--seed", "1"]) == 0
        assert len(calls) == 150
        for name, param, values, fading, overrides in _FIGURE_SPECS:
            cfg = SweepConfig(param=param, values=values, fading=fading, trials=20,
                              scenarios=3, seed=1, **overrides,
                              policies=SLOW_POLICIES if fading == "slow" else FAST_POLICIES)
            expected = io.StringIO()
            emit_csv(gain_vs_shape(cfg) if name == "fig6" else run_sweep(cfg), expected)
            assert (out_dir / f"{name}.csv").read_bytes() == expected.getvalue().encode(), name


class TestVocabularies:
    """Each list of names is written once, and every flag offers that list."""

    def test_fast_policies_are_the_prefetch_policies(self):
        assert set(FAST_POLICIES) == {policy.value for policy in prefetch.PrefetchPolicy}
        assert len(FAST_POLICIES) == len(prefetch.PrefetchPolicy)

    def test_flag_choices_are_the_library_lists(self):
        choices = {(command, action.dest): tuple(action.choices)
                   for command, parser in COMMANDS.items()
                   for action in parser._actions if action.choices is not None}
        assert choices == {("sweep", "param"): SWEEP_PARAMS, ("sweep", "fading"): FADINGS,
                           ("single", "fading"): FADINGS, ("single", "policy"): FAST_POLICIES}


class ClosedStdout(io.StringIO):
    """A standard output whose reader has gone: every write raises ``BrokenPipeError``."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    """A closed standard output stops no command before its files are written."""

    @pytest.mark.parametrize("command, written", [
        (["figures", "--trials", "5", "--scenarios", "1"],
         [f"{name}.csv" for name in FIGURE_NAMES]),
        (["sweep", "--param", "L", "--values", "2,4", "--fading", "fast",
          "--trials", "20", "--scenarios", "1"], ["out.csv"]),
        (["single", "--fading", "fast", "--seed", "3"], []),
        (["single", "--fading", "slow", "--seed", "3"], []),
    ], ids=["figures", "sweep", "single-fast", "single-slow"])
    def test_finishes_and_exits_zero(self, tmp_path, monkeypatch, capsys, command, written):
        closed = ClosedStdout()
        monkeypatch.setattr("sys.stdout", closed)
        out = ["--out", str(tmp_path / ("." if command[0] == "figures" else "out.csv"))]
        code = main(command + (out if written else []))
        replacement = sys.stdout
        monkeypatch.undo()
        replacement.close()
        assert code == 0
        assert capsys.readouterr().err == ""
        # The first line met the closed pipe and no later line tried it.
        assert closed.writes == 1 and replacement is not closed
        assert sorted(path.name for path in tmp_path.iterdir()) == written


@pytest.mark.parametrize("argv", [["sweep", "--values", "5"],
                                  ["sweep", "--values", "5", "--policies", "slow-opt"]])
def test_sweep_without_param_exits_two(argv, capsys):
    assert main(argv) == 2
    assert "--param is required" in capsys.readouterr().err
