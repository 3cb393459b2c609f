"""Command-line interface: flag handling, config files, exit codes."""

import warnings

import pytest

from livefetch.cli import main
from livefetch.model import QuadratureError
from livefetch.sweep import FAST_POLICIES, SweepConfig, load_rows, run_sweep

FIGURE_NAMES = ("fig4a", "fig4b", "fig4c", "fig4d",
                "fig5a", "fig5b", "fig5c", "fig5d", "fig6")


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
