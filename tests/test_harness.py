import math

import pytest

from diffcsi.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from diffcsi.harness import (
    ExperimentConfig,
    interval_from_budget,
    load_config_file,
    parse_config_value,
    render_csv,
    run_scenario,
)


class TestIntervalFromBudget:
    def test_examples(self):
        assert interval_from_budget(4, 2) == 2
        assert interval_from_budget(5, 2) == 3
        assert interval_from_budget(0, 3) == 0
        assert interval_from_budget(1, 0.5) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            interval_from_budget(4, 0)
        with pytest.raises(ValueError):
            interval_from_budget(-1, 2)


class TestRenderCsv:
    def test_layout(self):
        text = render_csv(["seed=1"], ["a", "b"], [[1, 2.5], [3, 0.1]])
        lines = text.splitlines()
        assert lines[0] == "# seed=1"
        assert lines[1] == "a,b"
        assert lines[2] == "1,2.5"

    def test_float_precision_stable(self):
        text = render_csv([], ["v"], [[1 / 3]])
        assert text.splitlines()[1] == "0.333333333333"


class TestScenarios:
    def test_fig2_schema_and_limit(self):
        cfg = ExperimentConfig(scenario="fig2", t_min=1, t_max=20)
        csv = run_scenario(cfg)
        lines = [l for l in csv.splitlines() if not l.startswith("#")]
        assert lines[0] == "T,d_theory"
        assert len(lines) == 21
        # far beyond the coherence time the distortion saturates at sigma_hhat2
        cfg_far = ExperimentConfig(scenario="fig2", t_min=40000, t_max=40000)
        far = float(run_scenario(cfg_far).splitlines()[-1].split(",")[1])
        assert far == pytest.approx(1.2, abs=1e-3)

    def test_fig3_alpha_zero_matches_classical_value(self):
        cfg = ExperimentConfig(scenario="fig3")
        csv = run_scenario(cfg)
        lines = [l for l in csv.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        row0 = lines[1].split(",")
        assert float(row0[0]) == 0.0
        col = header.index("R_min_se0_d0.1")
        assert float(row0[col]) == pytest.approx(4 * math.log2(10), abs=1e-5)
        # without temporal correlation the differential and memoryless
        # rates coincide
        col_nd = header.index("R_nondiff_se0_d0.1")
        assert row0[col] == row0[col_nd]

    def test_fig3_differential_never_worse(self):
        cfg = ExperimentConfig(scenario="fig3")
        csv = run_scenario(cfg)
        lines = [l for l in csv.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        i_min = header.index("R_min_se0_d0.1")
        i_nd = header.index("R_nondiff_se0_d0.1")
        for line in lines[1:]:
            vals = line.split(",")
            assert float(vals[i_min]) <= float(vals[i_nd]) + 1e-12

    def test_optimal_interval_schema(self):
        cfg = ExperimentConfig(scenario="optimal-interval")
        csv = run_scenario(cfg)
        lines = [l for l in csv.splitlines() if not l.startswith("#")]
        assert lines[0] == "c_fb,x_opt,t_opt_real,t_opt_int,d_min,k"
        assert len(lines) == 1 + 4

    def test_fig4_byte_identical_across_workers(self):
        base = dict(scenario="fig4", t_min=2, t_max=4, t_step=2,
                    c_fb=[2.0], trials=3000, seed=77)
        a = run_scenario(ExperimentConfig(**base, workers=1))
        b = run_scenario(ExperimentConfig(**base, workers=2))
        assert a == b

    def test_rerun_byte_identical(self):
        cfg = dict(scenario="fig4", t_min=3, t_max=3, c_fb=[1.0], trials=500, seed=5)
        assert run_scenario(ExperimentConfig(**cfg)) == run_scenario(ExperimentConfig(**cfg))

    def test_comments_record_config(self):
        cfg = ExperimentConfig(scenario="fig2", seed=321, t_max=3)
        csv = run_scenario(cfg)
        assert "# scenario=fig2" in csv
        assert "# seed=321" in csv
        assert "# t_max=3" in csv

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="fig99")


class TestConfigParsing:
    def test_typed_values(self):
        assert parse_config_value("trials", "500") == 500
        assert parse_config_value("snr_db", "3.5") == 3.5
        assert parse_config_value("c_fb", "0.5, 1, 2") == [0.5, 1.0, 2.0]
        with pytest.raises(KeyError):
            parse_config_value("bogus", "1")

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ntrials = 250\nc_fb = 1 2\n\nsnr_db=6\n")
        values = load_config_file(path)
        assert values == {"trials": 250, "c_fb": [1.0, 2.0], "snr_db": 6.0}

    def test_config_file_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("trials 250\n")
        with pytest.raises(ValueError):
            load_config_file(path)


class TestCli:
    def test_success_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        rc = main(["optimal-interval", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text().splitlines()[0].startswith("#")

    def test_stdout_default(self, capsys):
        rc = main(["distortion", "--set", "t_max=3"])
        assert rc == EXIT_OK
        assert "T,d_theory" in capsys.readouterr().out

    def test_reproduce_alias(self, capsys):
        rc = main(["reproduce", "fig2", "--set", "t_max=3"])
        assert rc == EXIT_OK
        assert "# scenario=fig2" in capsys.readouterr().out

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text("seed=1\nt_max=3\n")
        rc = main(["distortion", "--config", str(cfgfile), "--seed", "42"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "# seed=42" in out
        assert "# t_max=3" in out

    def test_usage_error_unknown_key(self, capsys):
        rc = main(["rate", "--set", "bogus=1"])
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_usage_error_missing_config(self, capsys):
        rc = main(["rate", "--config", "/nonexistent/file.cfg"])
        assert rc == EXIT_USAGE

    def test_numerical_error_exit_code(self, capsys):
        # with a perfect estimator the distortion curve has no interior
        # minimum, so the interval solver cannot bracket a root
        rc = main(["optimal-interval", "--set", "sigma_hhat2=1.0"])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["capacity", "--trials", "0"],
        ["capacity", "--set", "t_min=0"],
        ["capacity", "--set", "t_step=0"],
        ["capacity", "--set", "t_min=9", "--set", "t_max=3"],
        ["capacity", "--set", "c_fb="],
        ["capacity", "--set", "c_fb=1 inf"],
        ["capacity", "--set", "c_fb=0 1"],
        ["capacity", "--set", "sigma_h2=nan"],
        ["capacity", "--set", "snr_db=nan"],
        ["rate", "--set", "d_list=0.1 -1"],
    ])
    def test_invalid_config_exits_2(self, argv, capsys):
        rc = main(argv)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("figure,extra", [
        ("fig4", ["--set", "t_max=3", "--set", "c_fb=1 2"]),
        ("fig5", ["--set", "r_max=2", "--set", "lloyd_sessions=3",
                  "--set", "lloyd_training=400"]),
    ])
    def test_more_transmit_than_receive_antennas(self, figure, extra, capsys):
        rc = main(["reproduce", figure, "--set", "n_t=3", "--set", "n_r=2",
                   "--trials", "64", *extra])
        assert rc == EXIT_OK
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        values = [float(v) for row in rows[1:] for v in row.split(",")]
        assert len(rows) > 1 and all(math.isfinite(v) for v in values)
