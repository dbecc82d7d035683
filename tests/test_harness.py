import argparse
import dataclasses
import math
import multiprocessing
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from diffcsi import capacity, cli, harness, lloydfb
from diffcsi.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main
from diffcsi.harness import (
    SCENARIOS,
    ExperimentConfig,
    parse_config_value,
    render_csv,
    run_scenario,
)
from diffcsi.ratedist import FeedbackBudget

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _subparsers() -> argparse._SubParsersAction:
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub


class TestIntervalFromBudget:
    """fig5 takes each rate's feedback interval from FeedbackBudget.from_rate."""

    def test_examples(self):
        assert FeedbackBudget.from_rate(4, 2).t_blocks == 2
        assert FeedbackBudget.from_rate(5, 2).t_blocks == 3
        assert FeedbackBudget.from_rate(0, 3).t_blocks == 1
        assert FeedbackBudget.from_rate(1, 0.5).t_blocks == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            FeedbackBudget.from_rate(4, 0)
        with pytest.raises(ValueError):
            FeedbackBudget.from_rate(-1, 2)
        with pytest.raises(ValueError):
            FeedbackBudget(c_fb=1, r_bits=0, t_blocks=0)


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

    def test_fig4_columns_independent_of_other_c_fb(self):
        # each C_fb's columns are byte-equal to fig4 run with that C_fb alone
        def table(c_fb):
            csv = run_scenario(ExperimentConfig(scenario="fig4", t_min=1, t_max=13, t_step=4,
                                                c_fb=c_fb, trials=400, seed=31))
            return [line.split(",") for line in csv.splitlines() if not line.startswith("#")]

        c_fbs = [0.5, 1.0, 2.0, 4.0]
        joint = table(c_fbs)
        for j, c_fb in enumerate(c_fbs):
            alone = table([c_fb])
            assert [row[:1] + row[1 + 2 * j:3 + 2 * j] for row in joint] == alone

    @pytest.mark.parametrize("overrides", [
        dict(scenario="fig5", c_fb=[0.15], r_max=1, trials=2100, lloyd_training=200),
        dict(scenario="fig5", r_max=7, trials=2, lloyd_training=100),
        dict(scenario="fig4", t_min=1, t_max=4, c_fb=[1.0], trials=2),
    ], ids=["two-chunks", "default-c_fb", "fig4"])
    def test_fig5_theory_and_lloyd_substreams_disjoint(self, overrides, monkeypatch):
        # fig5's theory curve (capacity) and its Lloyd training and sessions
        # (lloydfb) draw from no common stream, and neither fig4 nor fig5 shares
        # one with the same run at master seed + 1.  A stream is its generator's
        # initial PCG64 state, since 5 and (5,) seed one stream.  The recording
        # sees this process only, so workers=1 keeps every draw here; test_12
        # shows the bytes do not depend on workers
        def opened(seed):
            states = {}
            for module in (capacity, lloydfb):
                found = states[module.__name__] = set()

                class Recording(module.RngStream):
                    def generator(self, _found=found):
                        gen = super().generator()
                        pcg = gen.bit_generator.state["state"]
                        _found.add((pcg["state"], pcg["inc"]))
                        return gen

                monkeypatch.setattr(module, "RngStream", Recording)
            run_scenario(ExperimentConfig(lloyd_sessions=2, workers=1, seed=seed, **overrides))
            monkeypatch.undo()
            return states["diffcsi.capacity"], states["diffcsi.lloydfb"]

        theory, lloyd = opened(12345)
        assert theory and not theory & lloyd, sorted(theory & lloyd)
        assert bool(lloyd) == (overrides["scenario"] == "fig5")
        adjacent = set().union(*opened(12346))
        assert adjacent and not (theory | lloyd) & adjacent, len((theory | lloyd) & adjacent)

    def test_rerun_byte_identical(self):
        cfg = dict(scenario="fig4", t_min=3, t_max=3, c_fb=[1.0], trials=500, seed=5)
        assert run_scenario(ExperimentConfig(**cfg)) == run_scenario(ExperimentConfig(**cfg))

    def test_comments_record_config(self):
        cfg = ExperimentConfig(scenario="fig2", seed=321, t_max=3)
        csv = run_scenario(cfg)
        assert "# scenario=fig2" in csv
        assert "# seed=321" in csv
        assert "# t_max=3" in csv

    def test_non_finite_value_names_column_and_row(self, monkeypatch):
        monkeypatch.setitem(harness._RUNNERS, "fig2",
                            lambda cfg: (["T", "d_theory"], [[1, 0.5], [2, math.inf]]))
        with pytest.raises(ArithmeticError, match="d_theory is inf in the row T=2"):
            run_scenario(ExperimentConfig(scenario="fig2"))

    def test_size_bounds_are_inclusive(self, monkeypatch):
        # 10^6 T points, also when t_step thins a longer range, and fig5's own
        # largest training set; a config allocates nothing, so these are cheap
        ExperimentConfig(scenario="fig2", t_max=10**6)
        ExperimentConfig(scenario="fig4", t_max=10**8, t_step=100)
        ExperimentConfig(scenario="fig5", lloyd_training=100 * 2 ** lloydfb.MAX_RATE_BITS)
        # 100 * 2^16 * 4 complex entries: a training set of 409,600 8x8 samples
        ExperimentConfig(scenario="fig5", n_t=8, n_r=8, lloyd_training=409600)
        ExperimentConfig(scenario="fig5", n_t=8, n_r=8, r_max=12)
        # the largest chunks at 64x64 (12,288 entries a row) and at 1x64 (4,161)
        ExperimentConfig(scenario="fig4", n_t=64, n_r=64, trials=533)
        ExperimentConfig(scenario="fig4", n_t=1, n_r=64, trials=1575)
        ExperimentConfig(scenario="fig5", n_t=64, n_r=64, r_max=1, lloyd_training=1,
                         lloyd_sessions=2133)
        # the largest pool, and one capacity per trial and C_fb value up to the cap
        ExperimentConfig(scenario="fig4", workers=harness._MAX_WORKERS)
        ExperimentConfig(scenario="fig4", trials=harness._MAX_ENTRIES // 4)
        ExperimentConfig(scenario="fig5", c_fb=[1.0], trials=harness._MAX_ENTRIES)
        # no antenna counts make a chunk fill the cap exactly, so move the cap:
        # 4 C_fb values x 100 trials of 2x2 rows (12 entries each)
        monkeypatch.setattr(harness, "_MAX_ENTRIES", 4 * 100 * 12)
        ExperimentConfig(scenario="fig4", trials=100)
        with pytest.raises(ValueError, match="chunk of 404 rows"):
            ExperimentConfig(scenario="fig4", trials=101)

    @pytest.mark.parametrize("overrides, match", [
        (dict(t_max=10**6 + 1), "T sweep"),
        (dict(t_max=10**8), "T sweep"),
        (dict(t_min=5, t_max=10**8, t_step=99), "T sweep"),
        (dict(lloyd_training=100 * 2 ** lloydfb.MAX_RATE_BITS + 1), "lloyd_training"),
        (dict(lloyd_training=10**8), "lloyd_training"),
        # one chunk's channel draw alone would take 16 GB
        (dict(scenario="fig4", n_t=1000, n_r=1000), "n_t=1000, n_r=1000: a Monte Carlo chunk"),
        (dict(scenario="fig4", n_t=64, n_r=64, trials=534), "chunk of 2136 rows"),
        (dict(scenario="fig4", n_t=1, n_r=64, trials=1576), "chunk of 6304 rows"),
        (dict(scenario="fig4", n_t=64, n_r=1, trials=1576), "chunk of 6304 rows"),
        (dict(n_t=64, n_r=64, r_max=1, lloyd_training=1, lloyd_sessions=2134),
         "chunk of 2134 rows"),
        # 16 times the largest 2x2 training set, about 29 GB
        (dict(n_t=8, n_r=8, lloyd_training=6553600), "n_t=8, n_r=8: fig5's training set"),
        (dict(n_t=8, n_r=8, lloyd_training=409601), "training set of .* = 409601 samples"),
        (dict(n_t=8, n_r=8, r_max=13), "training set of .* = 819200 samples"),
        (dict(n_t=4, n_r=4, r_max=16), "training set"),
        # 4 C_fb values x 10^12 trials of per-trial capacities, about 32 TB
        (dict(scenario="fig4", trials=10**12), r"trials must be in 2\.\.6553600 "),
        (dict(scenario="fig4", trials=100 * 2 ** 16 + 1), r"trials must be in 2\.\.6553600 "),
        (dict(c_fb=[1.0], trials=100 * 2 ** 18 + 1), r"trials must be in 2\.\.26214400 "),
        (dict(workers=65), r"workers in 1\.\.64"),
    ])
    def test_sizes_that_exhaust_memory_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**{"scenario": "fig5", **overrides})

    def test_interval_bounds_are_inclusive(self):
        # fig5's longest interval, T = ceil(r_max / c_fb[0]) = 10006, and fig4's
        # longest, 2^32 - 1, which must stay one 32-bit word of a substream key
        ExperimentConfig(scenario="fig5", r_max=2, c_fb=[2 / 10005.5])
        ExperimentConfig(scenario="fig4", t_min=2 ** 32 - 1, t_max=2 ** 32 - 1)
        with pytest.raises(ValueError, match="fig4 needs t_max < 2"):
            ExperimentConfig(scenario="fig4", t_min=2 ** 32, t_max=2 ** 32)
        # each bound binds its own scenario alone, and the entry cap bounds the sessions
        ExperimentConfig(scenario="fig4", c_fb=[1e-300])
        ExperimentConfig(scenario="fig5", t_min=2 ** 32, t_max=2 ** 32)
        ExperimentConfig(scenario="fig5", lloyd_sessions=10008)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="fig99")


class TestPool:
    # fig4 at 3 T points of 3 chunks each (2048 + 2048 + 4 trials)
    FIG4 = dict(scenario="fig4", t_min=1, t_max=3, c_fb=[1.0], trials=4100, seed=9)
    # fig5 at 3 rates, with a theory point of two chunks in each
    FIG5 = dict(scenario="fig5", r_max=3, c_fb=[1.0], trials=2100, lloyd_sessions=2,
                lloyd_training=200, seed=9)

    def test_fig4_builds_one_pool_per_point_of_at_most_workers(self, inline_pool):
        pooled = run_scenario(ExperimentConfig(**self.FIG4, workers=2))
        assert inline_pool == [2, 2, 2]
        assert pooled == run_scenario(ExperimentConfig(**self.FIG4, workers=1))

    def test_fig5_builds_one_pool_of_at_most_the_rates(self, inline_pool):
        # the rates' theory points map their chunks in the job, on no pool of their own
        pooled = run_scenario(ExperimentConfig(**self.FIG5, workers=8))
        assert inline_pool == [3]
        assert pooled == run_scenario(ExperimentConfig(**self.FIG5, workers=1))

    def test_one_worker_builds_no_pool(self, inline_pool):
        run_scenario(ExperimentConfig(**self.FIG4, workers=1))
        run_scenario(ExperimentConfig(**self.FIG5, workers=1))
        assert inline_pool == []

    def test_no_worker_outlives_the_run(self):
        cfg = ExperimentConfig(**{**self.FIG5, "r_max": 2, "trials": 4}, workers=2)
        run_scenario(cfg)
        assert multiprocessing.active_children() == []

    def test_fig5_rows_come_back_in_rate_order(self, monkeypatch):
        # the jobs go largest rate first, in the pool and on the builtin map
        sent = []
        fig5_rate = harness._fig5_rate
        monkeypatch.setattr(harness, "_fig5_rate",
                            lambda cfg, r_bits, d: sent.append(r_bits) or fig5_rate(cfg, r_bits, d))
        csv = run_scenario(ExperimentConfig(**{**self.FIG5, "trials": 4}, workers=1))
        assert sent == [3, 2, 1]
        rows = [line for line in csv.splitlines() if not line.startswith("#")][1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]

    def test_default_workers_are_the_usable_cpus_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(200)))
        cfg = ExperimentConfig(scenario="fig2", t_max=3)
        assert cfg.workers == harness._MAX_WORKERS == 64
        comments = [line for line in run_scenario(cfg).splitlines() if line.startswith("#")]
        assert comments and not any("workers" in line for line in comments)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert ExperimentConfig(scenario="fig2").workers == 1

    @pytest.mark.parametrize("cpus, expect", [(3, 3), (None, 1), (200, 64)])
    def test_default_workers_without_affinity(self, monkeypatch, cpus, expect):
        # macOS and Windows have no os.sched_getaffinity: all CPUs, or 1 if unknown
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert ExperimentConfig(scenario="fig2").workers == expect
        assert main(["fig2", "--set", "t_max=2"]) == EXIT_OK

    @pytest.mark.parametrize("failure", ["raise", "die"])
    def test_failed_rate_job_exits_3_on_one_line(self, failure, fork_pool, monkeypatch,
                                                 capsys):
        parent = os.getpid()
        bootstrap = lloydfb.bootstrap_codebook

        def failing(ccfg, budget, **kw):
            if budget.r_bits == 2:
                if failure == "raise":
                    raise ArithmeticError("rate job failed")
                if os.getpid() != parent:  # kill the pool worker, never this process
                    os._exit(1)
            return bootstrap(ccfg, budget, **kw)

        monkeypatch.setattr(lloydfb, "bootstrap_codebook", failing)
        rc = main(["fig5", "--set", "r_max=2", "--set", "trials=4", "--set", "lloyd_sessions=2",
                   "--set", "lloyd_training=200", "--set", "workers=2"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("numerical failure: rate job failed" if failure == "raise" else
                              "worker failure: A process in the process pool was terminated")
        assert multiprocessing.active_children() == []


class TestConfigParsing:
    def test_typed_values(self):
        assert parse_config_value("trials", "500") == 500
        assert parse_config_value("snr_db", "3.5") == 3.5
        assert parse_config_value("c_fb", "0.5, 1, 2") == [0.5, 1.0, 2.0]
        with pytest.raises(KeyError):
            parse_config_value("bogus", "1")

    @pytest.mark.parametrize("f", dataclasses.fields(ExperimentConfig), ids=lambda f: f.name)
    def test_every_field_parses_to_its_type(self, f):
        raw, expected = {int: ("3", 3), float: ("0.25", 0.25), list: ("1, 2", [1.0, 2.0]),
                         str: ("fig2", "fig2")}[f.type]
        value = parse_config_value(f.name, raw)
        assert type(value) is f.type and value == expected

    def test_config_file_bad_line(self, capsys):
        # an item without "=" is refused by the one key=value parser
        assert main(["fig4", "--set", "trials"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: expected key=value, got 'trials'\n"


class TestCli:
    def test_success_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        rc = main(["optimal-interval", "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_text().splitlines()[0].startswith("#")

    def test_stdout_default(self, capsys):
        rc = main(["fig2", "--set", "t_max=3"])
        assert rc == EXIT_OK
        assert "T,d_theory" in capsys.readouterr().out

    def test_subcommands_are_the_scenarios(self, capsys):
        assert tuple(_subparsers().choices) == SCENARIOS
        small = ["--set", "trials=64", "--set", "t_max=2", "--set", "c_fb=1", "--set", "r_max=1",
                 "--set", "lloyd_sessions=2", "--set", "lloyd_training=200"]
        for name in SCENARIOS:
            assert main([name, *small]) == EXIT_OK
            assert f"# scenario={name}\n" in capsys.readouterr().out

    def test_readme_cli_block_lists_the_scenarios(self):
        block = README.split("## CLI\n", 1)[1].split("```\n")[1]
        commands = [" ".join(line.split()[:2]) for line in block.splitlines()]
        assert commands == [f"diffcsi {name}" for name in SCENARIOS]

    def test_readme_names_the_options(self):
        # the first sentence of the paragraph that starts "Options:"
        sentence = re.search(r"^Options: (.*?)\.\s", README, re.M | re.S).group(1)
        options = {name: {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
                   for name, parser in _subparsers().choices.items()}
        assert options == {name: set(re.findall(r"`(--[a-z]+)", sentence)) for name in SCENARIOS}

    def test_readme_commands_parse(self):
        blocks = README.split("```\n")[1::2]
        commands = [shlex.split(line, comments=True)[1:] for block in blocks
                    for line in block.splitlines() if line.startswith("diffcsi ")]
        assert len(commands) > len(SCENARIOS)
        for argv in commands:
            cli._resolve_config(build_parser().parse_args(argv))

    def test_later_set_wins(self, capsys):
        assert main(["fig2", "--set", "t_max=5", "--set", "t_max=3"]) == EXIT_OK
        assert "# t_max=3\n" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--config", "--seed", "--trials", "--workers"])
    def test_removed_options_exit_2(self, flag, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: runs.append(cfg) or "")
        with pytest.raises(SystemExit) as exc:
            main(["fig4", flag, "2"])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert runs == []

    def test_usage_error_unknown_key(self, capsys):
        rc = main(["fig3", "--set", "bogus=1"])
        assert rc == EXIT_USAGE
        # the message bare, as every other rejection prints it, not a quoted repr
        assert capsys.readouterr().err == "error: unknown config key 'bogus'\n"

    def test_unwritable_out_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "missing" / "x.csv"
        runs = []
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: runs.append(cfg) or "")
        assert main(["fig2", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err
        assert runs == [] and not out.parent.exists()

    @pytest.mark.parametrize("argv", [
        ["fig2", "--set", "t_max=100000000"],
        ["fig5", "--set", "lloyd_training=100000000"],
        ["fig4", "--set", "n_t=1000", "--set", "n_r=1000"],
        ["fig5", "--set", "n_t=8", "--set", "n_r=8", "--set", "lloyd_training=6553600"],
        ["fig4", "--set", "trials=1000000000000"],
        # a pool forks all its workers at its first submit
        ["fig4", "--set", "workers=100000"],
        ["fig4", "--set", "workers=65"],
    ])
    def test_sizes_that_exhaust_memory_exit_2(self, argv, monkeypatch, capsys):
        # the scenario is stubbed, so a missing bound fails here without allocating
        runs = []
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: runs.append(cfg) or "")
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(item.partition("=")[0] in err for item in argv[2::2]), err
        assert runs == []

    def test_numerical_error_exit_code(self, capsys):
        # with a perfect estimator the distortion curve has no interior
        # minimum, so the interval solver cannot bracket a root.  At the
        # second argv the grid's first point is 0/0 (2^(-kx) and J0 round
        # to 1 at x = 1e-8), which must end in the one line, not a warning
        for argv, not_finite in [(["--set", "sigma_hhat2=1.0"], 0),
                                 (["--set", "sigma_hhat2=1.0", "--set", "f_d=1000", "--set",
                                   "c_fb=1e-6", "--set", "n_t=8", "--set", "n_r=8"], 1)]:
            rc = main(["optimal-interval", *argv])
            assert rc == EXIT_NUMERICAL
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: no sign change") and err.count("\n") == 1
            assert f"({not_finite} of 4097 grid points not finite)" in err

    def test_lloyd_divergence_exits_3(self, fork_pool, diverging_lloyd, capsys):
        rc = main(["fig5", "--set", "r_max=2", "--set", "trials=4", "--set", "lloyd_sessions=2",
                   "--set", "lloyd_training=400"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Lloyd distortion increased at iteration ")
        assert "Traceback" not in err

    def test_huge_feedback_rate_gives_zero_distortion(self, capsys):
        # 2^(C_fb T / 4) overflows a double: the distortion is then 0, not an error
        rc = main(["fig4", "--set", "c_fb=5000", "--set", "t_max=2", "--set", "trials=2"])
        assert rc == EXIT_OK
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert len(rows) == 3 and all(math.isfinite(float(v)) for v in rows[2].split(","))

    def test_all_zero_water_filling_exits_3(self, capsys):
        # at -320 dB the weakest mode's 1 / (A^2 gamma^2) swamps the power budget
        rc = main(["fig4", "--set", "snr_db=-320", "--set", "t_max=1", "--set", "trials=2"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "numerical failure: water-filling batch hit an all-zero channel\n"

    def test_huge_feedback_rate_solves_without_warnings(self, capsys):
        # 2^(k x) would overflow on most of the bracket grid at k = 21,484
        rc = main(["optimal-interval", "--set", "c_fb=5000"])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("sigma_hhat2,rc", [("1e150", EXIT_OK), ("1.01e150", EXIT_USAGE)])
    def test_channel_variance_bound(self, sigma_hhat2, rc, monkeypatch, capsys):
        runs = []
        ergodic = harness.ergodic_capacity
        monkeypatch.setattr(harness, "ergodic_capacity",
                            lambda *a, **kw: runs.append(1) or ergodic(*a, **kw))
        assert main(["fig4", "--set", f"sigma_hhat2={sigma_hhat2}", "--set", "t_max=2",
                     "--set", "trials=200"]) == rc
        err = capsys.readouterr().err
        if rc == EXIT_OK:
            assert err == "" and runs
        else:
            # rejected with the config, before any Monte Carlo
            assert err.startswith("error: sigma_hhat2=") and not runs

    @staticmethod
    def _table(scenario, s, capsys, *argv):
        """fig2 or fig4's rows at sigma_h2 = s, sigma_hhat2 = 1.2 s, as an array."""
        assert main([scenario, "--set", f"sigma_h2={s!r}", "--set", f"sigma_hhat2={1.2 * s!r}",
                     *argv]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        return np.array([[float(v) for v in l.split(",")] for l in lines if l[:1].isdigit()])

    @pytest.mark.parametrize("s", [1e-150, 1e100])
    def test_channel_variance_scales_out(self, s, capsys):
        # the capacity depends on the SNR alone and fig2's distortion scales
        # with the variances, down to the lower bound and up near the upper
        fig4 = ["--set", "trials=200", "--set", "t_max=3", "--set", "c_fb=1",
                "--set", "workers=1"]
        np.testing.assert_allclose(self._table("fig4", s, capsys, *fig4),
                                   self._table("fig4", 1.0, capsys, *fig4), rtol=1e-10)
        fig2 = self._table("fig2", s, capsys)
        fig2[:, 1] /= s
        np.testing.assert_allclose(fig2, self._table("fig2", 1.0, capsys), rtol=1e-10)

    def test_channel_variance_lower_bound(self, capsys):
        # 1e-160 moved fig4's T=2 row in the fifth digit, and 1e-200 ended in a NaN
        assert main(["fig4", "--set", "sigma_h2=1e-160", "--set", "sigma_hhat2=1.2e-160",
                     "--set", "t_max=3", "--set", "trials=200"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: sigma_h2=1e-160 ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,rc", [
        pytest.param(["fig2", "--set", "f_d=1e300", "--set", "t_max=2"], EXIT_OK,
                     id="bessel-far-squared"),
        pytest.param(["fig2", "--set", "c_fb=1e308"], EXIT_OK, id="curve-exponent"),
        pytest.param(["fig4", "--set", "c_fb=1e308", "--set", "t_max=2", "--set", "trials=2"],
                     EXIT_OK, id="fig4-rates"),
        # the bound is about 4,250 bits; its log-domain form does not overflow
        pytest.param(["fig3", "--set", "d_list=1e-320"], EXIT_OK, id="rate-bound"),
        pytest.param(["optimal-interval", "--set", "c_fb=1e308"], EXIT_NUMERICAL,
                     id="interval-exponent"),
    ])
    def test_overflow_warns_nothing(self, argv, rc, capsys):
        # Tier-1 raises every RuntimeWarning, so an overflow numpy warns of fails
        # here; where inf or 0 is the right value the run succeeds, and an inf k
        # leaves the interval solver no sign change
        assert main(argv) == rc
        err = capsys.readouterr().err
        assert err == "" if rc == EXIT_OK else (
            err.startswith("numerical failure: no sign change") and err.count("\n") == 1)

    @pytest.mark.parametrize("sigma_e2", ["1e150", "1.01e150", "1e308"])
    def test_estimation_error_variance_bound(self, sigma_e2, capsys):
        # fig3 runs each entry at sigma_hhat2 = sigma_h2 + sigma_e2, and its rate
        # bound stays finite up to the largest double
        assert main(["fig3", "--set", f"sigma_e2_list=0 {sigma_e2}"]) == EXIT_OK
        out, err = capsys.readouterr()
        rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
        assert err == "" and len(rows) == 100
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_non_finite_table_exits_3(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "old.csv"
        out.write_bytes(b"old\n")
        monkeypatch.setattr(harness, "ergodic_capacity",
                            lambda cfg, budget, ds, **kw: [(math.nan, 0.0)] * len(ds))
        rc = main(["fig4", "--set", "t_max=1", "--set", "trials=2", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "C_erg_cfb0.5 is nan in the row T=1" in capsys.readouterr().err
        assert out.read_bytes() == b"old\n"

    def test_numerical_failure_leaves_out_untouched(self, tmp_path):
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_bytes(b"old\n")
        for out in (old, new):
            rc = main(["optimal-interval", "--set", "sigma_hhat2=1.0", "--out", str(out)])
            assert rc == EXIT_NUMERICAL
        assert old.read_bytes() == b"old\n"
        assert not new.exists()

    @pytest.mark.parametrize("argv", [
        ["fig4", "--set", "trials=0"],
        ["fig4", "--set", "t_min=0"],
        ["fig4", "--set", "t_step=0"],
        ["fig4", "--set", "t_min=9", "--set", "t_max=3"],
        ["fig4", "--set", "c_fb="],
        ["fig4", "--set", "c_fb=1 inf"],
        ["fig4", "--set", "c_fb=0 1"],
        ["fig4", "--set", "sigma_h2=nan"],
        ["fig4", "--set", "snr_db=nan"],
        ["fig3", "--set", "d_list=0.1 -1"],
        ["fig3", "--set", "pilot_fraction=5"],
        ["fig4", "--set", "trials=1"],
        ["fig5", "--set", "lloyd_sessions=0"],
        ["fig5", "--set", "lloyd_sessions=1"],
        ["fig5", "--set", "r_max=0"],
        ["fig5", "--set", "lloyd_rounds=1"],
        ["fig5", "--set", "lloyd_training=0"],
        ["fig3", "--set", "d_list="],
        ["fig3", "--set", "sigma_e2_list="],
        ["fig4", "--set", "seed=-5"],
        ["fig4", "--set", "workers=0"],
        ["fig5", "--set", "r_max=17"],
        ["fig2", "--set", "scenario=fig3"],
        ["fig2", "--set", "n_t=1.5"],
        ["fig2", "--set", "c_fb=1 x"],
        ["fig4", "--set", "snr_db=4000"],
        ["fig4", "--set", "snr_db=-4000"],
        # fig5's interval T = ceil(r_max / c_fb) stays below 10007
        ["fig5", "--set", "r_max=1", "--set", "c_fb=1e-300"],
        ["fig5", "--set", "r_max=2", "--set", "c_fb=1.998e-4"],
        # values that render alike would repeat a CSV column name
        ["fig4", "--set", "c_fb=1 1"],
        ["fig4", "--set", "c_fb=1 1.0000000000001"],
        ["fig3", "--set", "d_list=0.1 0.1"],
    ])
    def test_invalid_config_exits_2(self, argv, capsys):
        rc = main(argv)
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        # the message names every key the command line sets
        keys = [item.partition("=")[0] for item in argv[2::2]]
        assert all(key in err for key in keys), (keys, err)

    @pytest.mark.parametrize("argv,expected", [
        (["fig2", "--set", "scenario=fig3"], ["scenario=fig3", "fig2"]),
        (["fig2", "--set", "n_t=1.5"], ["n_t", "integer", "'1.5'"]),
        (["fig2", "--set", "c_fb=1 x"], ["c_fb", "list of numbers", "'1 x'"]),
    ])
    def test_rejection_names_key_and_expectation(self, argv, expected, capsys):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert all(word in err for word in expected), err

    @pytest.mark.parametrize("figure,extra", [
        ("fig4", ["--set", "t_max=3", "--set", "c_fb=1 2"]),
        ("fig5", ["--set", "r_max=2", "--set", "lloyd_sessions=3",
                  "--set", "lloyd_training=400"]),
    ])
    def test_more_transmit_than_receive_antennas(self, figure, extra, capsys):
        rc = main([figure, "--set", "n_t=3", "--set", "n_r=2",
                   "--set", "trials=64", *extra])
        assert rc == EXIT_OK
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        values = [float(v) for row in rows[1:] for v in row.split(",")]
        assert len(rows) > 1 and all(math.isfinite(v) for v in values)
