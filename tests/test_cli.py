import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sunflower_circuits import cli
from sunflower_circuits.cli import (
    ExperimentConfig,
    _check,
    build_config,
    emit,
    main,
    report_to_csv,
    report_to_json,
    run,
)
from sunflower_circuits.cliques import clique_parameters
from sunflower_circuits.errors import ConfigError
from sunflower_circuits.probability import above_threshold
from sunflower_circuits.setfamily import SetFamily, family_to_text


def write_family(tmp_path, name, n, sets):
    path = tmp_path / name
    path.write_text(family_to_text(SetFamily.from_sets(n, sets)))
    return str(path)


class TestConfig:
    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig("frobnicate", {}))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            run(ExperimentConfig("hr-verify", {"n": 11, "c": 2, "k": 3, "zap": 1}))

    def test_mc_without_seed_rejected(self):
        cfg = ExperimentConfig("coverage", {"n": 4, "family": "star:3", "p": "1/2"}, engine="mc")
        with pytest.raises(ConfigError):
            run(cfg)

    def test_config_file_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("n=11\nc=2\nk=3\nseed=5\n# comment\n")
        config = build_config(["hr-verify", "--config", str(cfg_file), "--seed", "9"])
        assert config.params == {"n": "11", "c": "2", "k": "3"}
        assert config.seed == 9  # the flag wins

    def test_bad_config_line(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("just-a-word\n")
        with pytest.raises(ConfigError):
            build_config(["hr-verify", "--config", str(cfg_file)])

    def test_flags_beat_config_file(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("samples=2000\nengine=mc\nformat=csv\n")
        config = build_config([
            "coverage", "--config", str(cfg_file),
            "--samples", "1000", "--engine", "exact", "--format", "json",
        ])
        assert (config.samples, config.engine, config.fmt) == (1000, "exact", "json")

    def test_config_file_beats_defaults(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("samples=2000\nengine=mc\nformat=csv\n")
        config = build_config(["coverage", "--config", str(cfg_file)])
        assert (config.samples, config.engine, config.fmt) == (2000, "mc", "csv")
        config = build_config(["coverage"])
        assert (config.samples, config.engine, config.fmt) == (100_000, "exact", "json")

    def test_param_flag_parsing(self):
        config = build_config(["code-poly", "-P", "q=11", "-P", "n=9", "-P", "dim=3"])
        assert config.params == {"q": "11", "n": "9", "dim": "3"}


class TestRunners:
    def test_hr_verify_passes(self):
        report = run(ExperimentConfig("hr-verify", {"n": 11, "c": 2, "k": 3}))
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert "positive-accept-rate" in names
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["positive-accept-rate"]["value"] == "10/11"
        assert by_name["negative-reject-rate"]["status"] == "report-only"

    def test_coverage_exact(self, tmp_path):
        fam = write_family(tmp_path, "f.txt", 4, [(1, 2), (1, 3)])
        report = run(
            ExperimentConfig("coverage", {"n": 4, "family": fam, "Y": "1", "p": "1/2"})
        )
        assert report["checks"][0]["value"] == "3/4"

    def test_sunflower_extract_star(self):
        report = run(
            ExperimentConfig(
                "sunflower-extract",
                {"n": 12, "family": "star:11", "p": "1/2", "eps": "0.05", "B": 2},
            )
        )
        assert report["all_passed"]
        assert report["payload"]["kernel"] == [1]
        assert [t["case"] for t in report["payload"]["trace"]] == ["link", "base"]

    def test_closure_demo(self):
        report = run(
            ExperimentConfig(
                "closure-demo",
                {"n": 4, "minterms": "1;2;3;4", "eps": "0.9", "c": 2},
            )
        )
        assert report["all_passed"]
        assert report["payload"]["closure_minterms"] == [[]]  # constant 1

    def test_clique_verify(self):
        report = run(
            ExperimentConfig(
                "clique-verify", {"n": 16, "k": 4}, seed=3, samples=300
            )
        )
        assert report["all_passed"]

    def test_clique_extract(self):
        report = run(
            ExperimentConfig(
                "clique-extract",
                {"n": 12, "family": "star:11", "p": "1/2", "q": "1", "eps": "0.05"},
            )
        )
        assert report["all_passed"]
        assert report["payload"]["core"] == [1]

    def test_janson(self, tmp_path):
        fam = write_family(tmp_path, "cl.txt", 3, [(1, 2), (1, 3)])
        report = run(
            ExperimentConfig("janson", {"n": 3, "family": fam, "p": "1/2", "q": "1"})
        )
        assert report["all_passed"]
        assert report["checks"][0]["value"] == "1/4"

    def test_code_poly_with_audit(self):
        report = run(
            ExperimentConfig(
                "code-poly", {"q": 11, "n": 9, "dim": 3, "audit": "true"}
            )
        )
        assert report["all_passed"]
        names = [c["name"] for c in report["checks"]]
        assert "merged-candidate-rejected" in names

    def test_code_poly_report_is_pinned(self, capsys):
        # the whole checks list of the reference RS(11, 9, 3) run; the merged
        # candidate's overlap depends on which two monomials come first
        assert main(["code-poly", "-P", "q=11", "-P", "n=9", "-P", "dim=3",
                     "-P", "audit=true"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"] == [
            {"bound": 1331, "name": "monomial-count", "status": "pass", "value": 1331},
            {"bound": 2, "name": "max-agreement", "status": "pass", "value": 2},
            {"bound": True, "name": "canonical-decomposition-valid", "reason": None,
             "status": "pass", "value": True},
            {"bound": 1331, "name": "decomposition-size", "status": "pass", "value": 1331},
            {"bound": True, "name": "canonical-audit", "status": "pass", "value": True},
            {"bound": True, "name": "merged-candidate-rejected", "overlap": 7,
             "status": "pass", "value": True},
        ]

    @pytest.mark.parametrize("agreement,rejected", [(2, True), (6, True), (7, False), (8, False)])
    def test_code_poly_audit_reads_the_measured_agreement(self, capsys, monkeypatch,
                                                          agreement, rejected):
        # the merged candidate's witness overlaps in 7 variables; it contradicts
        # the code only when the measured agreement is below that
        monkeypatch.setattr(cli, "max_pairwise_agreement", lambda code: agreement)
        main(["code-poly", "-P", "q=11", "-P", "n=9", "-P", "dim=3", "-P", "audit=true"])
        row = json.loads(capsys.readouterr().out)["checks"][-1]
        assert row == {"bound": True, "name": "merged-candidate-rejected", "overlap": 7,
                       "status": "pass" if rejected else "fail", "value": rejected}

    def test_code_poly_verifies_at_n_5(self, capsys):
        # the structural lemma's window [5/3, 10/3] admits the split (2, 3)
        assert main(["code-poly", "-P", "q=5", "-P", "n=5", "-P", "dim=2", "-P", "audit=1"]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["canonical-decomposition-valid"]["status"] == "pass"
        assert checks["decomposition-size"]["value"] == 25
        assert checks["merged-candidate-rejected"]["status"] == "pass"

    def test_coverage_exact_collapses_at_bias_one(self, capsys):
        # 25 disjoint pairs on 50 points: past both exact caps, but certain at p = 1
        assert main(["coverage", "-P", "n=50", "-P", "family=disjoint:25:2", "-P", "p=1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["value"] == "1/1"

    def test_spread_experiment(self):
        report = run(
            ExperimentConfig(
                "spread-experiment",
                {"n": 14, "l": 2, "count": 5, "members": 10, "p": "1/2",
                 "eps": "0.4", "B": "0.5"},
                seed=1,
            )
        )
        assert {c["status"] for c in report["checks"]} <= {"pass", "report-only"}


class TestCheckRows:
    def test_extra_keys_do_not_replace_status(self):
        row = _check("x", False, True, False, status="ok")
        assert row["status"] == "fail"

    def test_unverified_clique_extraction_fails(self, monkeypatch):
        found = cli.find_clique_sunflower
        monkeypatch.setattr(
            cli, "find_clique_sunflower",
            lambda *a, **kw: dataclasses.replace(found(*a, **kw), verified=False),
        )
        report = run(
            ExperimentConfig(
                "clique-extract",
                {"n": 12, "family": "star:11", "p": "1/2", "q": "1", "eps": "0.05"},
            )
        )
        row = report["checks"][0]
        assert row["status"] == "fail" and row["extraction_status"] == "ok"
        assert not report["all_passed"]


class TestEmission:
    def test_json_round_trip(self, tmp_path):
        report = run(ExperimentConfig("hr-verify", {"n": 11, "c": 2, "k": 3}))
        text = report_to_json(report)
        assert json.loads(text) == json.loads(report_to_json(json.loads(text)))

    def test_csv_header_stable(self):
        report = run(ExperimentConfig("hr-verify", {"n": 11, "c": 2, "k": 3}))
        assert report_to_csv(report).splitlines()[0] == "name,value,bound,status"

    def test_unknown_format_in_config_file_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("format=xml\n")
        argv = ["coverage", "--config", str(cfg_file),
                "-P", "n=4", "-P", "family=star:2", "-P", "p=1/2"]
        assert main(argv) == 2
        err = "config error: unknown format 'xml', expected 'json' or 'csv'\n"
        assert capsys.readouterr() == ("", err)
        report = run(ExperimentConfig("hr-verify", {"n": 11, "c": 2, "k": 3}))
        with pytest.raises(KeyError):
            emit(report, "xml", None)

    def test_emit_creates_directories(self, tmp_path):
        report = run(ExperimentConfig("hr-verify", {"n": 11, "c": 2, "k": 3}))
        out = tmp_path / "deep" / "nested" / "report.json"
        emit(report, "json", str(out))
        assert out.exists()
        assert json.loads(out.read_text())["subcommand"] == "hr-verify"


class TestDeterminism:
    def strip_clock(self, text):
        d = json.loads(text)
        d.pop("wall_clock_s")
        return json.dumps(d, sort_keys=True)

    def test_identical_seeds_identical_reports(self):
        cfg = lambda: ExperimentConfig(
            "coverage",
            {"n": 10, "family": "random:6:3", "p": "1/2"},
            engine="mc",
            samples=2000,
            seed=123,
        )
        a = report_to_json(run(cfg()))
        b = report_to_json(run(cfg()))
        assert self.strip_clock(a) == self.strip_clock(b)

    def test_different_seeds_differ(self):
        def cfg(seed):
            return ExperimentConfig(
                "coverage",
                {"n": 10, "family": "random:6:3", "p": "1/2"},
                engine="mc",
                samples=2000,
                seed=seed,
            )

        a = report_to_json(run(cfg(1)))
        b = report_to_json(run(cfg(2)))
        assert self.strip_clock(a) != self.strip_clock(b)


class TestMain:
    def test_exit_zero_on_pass(self, capsys):
        rc = main(["hr-verify", "-P", "n=11", "-P", "c=2", "-P", "k=3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert json.loads(out)["all_passed"]

    def test_exit_two_on_config_error(self, capsys):
        assert main(["hr-verify", "-P", "bogus=1"]) == 2

    def test_value_error_in_runner_exits_two(self, capsys):
        assert main(["hr-verify", "-P", "n=12", "-P", "c=2", "-P", "k=3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1

    def test_impossible_random_family_exits_two(self, capsys):
        argv = ["coverage", "--seed", "1", "-P", "n=4", "-P", "family=random:20:1", "-P", "p=1/2"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_impossible_spread_trials_exit_two(self, capsys):
        argv = ["spread-experiment", "--seed", "1", "-P", "n=4", "-P", "l=2",
                "-P", "members=7", "-P", "p=1/2", "-P", "eps=1/10"]
        assert main(argv) == 2

    @pytest.mark.parametrize("argv", [
        ["coverage", "-P", "n=4", "-P", "family=star:2"],  # no p
        ["closure-demo", "-P", "n=4", "-P", "minterms=1,2", "-P", "eps=1/10"],  # no c
        ["code-poly", "-P", "q=5", "-P", "n=5"],  # no dim
        ["clique-verify", "--seed", "1", "-P", "n=8", "-P", "k=1"],  # p = n^(-2/(k-1))
        ["hr-verify", "--seed", "1", "--samples", "200",
         "-P", "n=11", "-P", "c=2", "-P", "k=3", "-P", "mode=foo"],
        ["coverage", "-P", "n=4", "-P", "family=star", "-P", "p=1/2"],  # star:<m> without m
        # p = 0 or eps = 0 divided by zero in the spread radius or the clique thresholds
        ["sunflower-extract", "-P", "n=6", "-P", "family=star:3", "-P", "p=0", "-P", "eps=1/2"],
        # on a 1-uniform family too, p = 0 is out of range rather than a failed base case
        ["sunflower-extract", "-P", "n=6", "-P", "family=disjoint:3:1", "-P", "p=0",
         "-P", "eps=1/2"],
        ["spread-experiment", "--seed", "1", "-P", "n=6", "-P", "l=2", "-P", "p=0",
         "-P", "eps=1/2"],
        ["spread-experiment", "--seed", "1", "-P", "n=6", "-P", "l=2", "-P", "p=1/2",
         "-P", "eps=0"],
        ["clique-extract", "-P", "n=6", "-P", "family=star:3", "-P", "eps=1/2", "-P", "p=0"],
        ["clique-extract", "-P", "n=6", "-P", "family=star:3", "-P", "eps=1/2", "-P", "p=1/2",
         "-P", "q=0"],
        ["clique-extract", "-P", "n=6", "-P", "family=star:3", "-P", "eps=0", "-P", "p=1/2"],
        # an OSError from a missing config, a directory as family file, --out under a file
        ["coverage", "--config", "{tmp}/missing.cfg", "-P", "n=4", "-P", "family=star:2",
         "-P", "p=1/2"],
        ["coverage", "-P", "n=4", "-P", "family={tmp}", "-P", "p=1/2"],
        ["coverage", "--out", "{tmp}/file/report.json", "-P", "n=4", "-P", "family=star:2",
         "-P", "p=1/2"],
        # no trial, or empty members: a vacuous report, or a math domain error in the radius
        ["spread-experiment", "--seed", "1", "-P", "n=6", "-P", "l=2", "-P", "count=0",
         "-P", "p=1/2", "-P", "eps=1/10"],
        ["spread-experiment", "--seed", "1", "-P", "n=6", "-P", "l=0", "-P", "p=1/2",
         "-P", "eps=1/10"],
    ])
    def test_bad_input_exits_two_without_traceback(self, argv, capsys, tmp_path):
        (tmp_path / "file").write_text("a regular file\n", encoding="utf-8")
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("sizes", [
        ["-P", "n=0", "-P", "k=2"],  # deriving p = n^(-2/(k-1)) divided by zero
        ["-P", "n=-3", "-P", "k=3", "-P", "p=1/2"],
        ["-P", "n=5", "-P", "k=-1", "-P", "p=1/2"],
    ])
    def test_clique_verify_bad_sizes_exit_two(self, sizes, capsys):
        assert main(["clique-verify", "--seed", "1", "--samples", "100", *sizes]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1

    def test_clique_verify_refuses_k_above_n_before_sampling(self, capsys, monkeypatch):
        def sampler(*args):
            raise AssertionError("sampled before refusing k > n")

        monkeypatch.setattr(cli, "verify_no_kclique_bound", sampler)
        argv = ["clique-verify", "--seed", "1", "-P", "n=40", "-P", "k=41", "-P", "p=1/2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "config error: clique-verify needs 0 <= k <= n, got k=41, n=40\n"

    def test_closure_demo_noise_outside_unit_interval_exits_two(self, capsys):
        argv = ["closure-demo", "-P", "n=3", "-P", "minterms=1", "-P", "eps=1/10",
                "-P", "c=2", "-P", "noise_p=7"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1

    def test_random_family_without_seed_names_the_family(self, capsys):
        argv = ["coverage", "-P", "n=8", "-P", "family=random:3:2", "-P", "p=1/2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: family 'random:3:2' needs a --seed to draw its members\n")
        assert main(argv + ["--seed", "1"]) == 0

    def test_closure_demo_keeps_eps_and_noise_exact(self, capsys):
        # coverage of {1}, {2} over Y = {} at noise 1/5 is 9/25 = 1 - 16/25: not above 1 - eps
        argv = ["closure-demo", "-P", "n=2", "-P", "minterms=1;2", "-P", "eps=16/25",
                "-P", "c=0", "-P", "noise_p=1/5"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0] == {"bound": None, "name": "input-closed",
                                       "status": "report-only", "value": True}
        assert report["payload"]["closure_minterms"] == [[1], [2]]

    def test_unknown_engine_in_config_file_exits_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("engine=foo\n")
        argv = ["coverage", "--config", str(cfg_file), "--seed", "1",
                "-P", "n=4", "-P", "family=star:2", "-P", "p=1/2"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: unknown engine")

    def test_closure_demo_runs_monte_carlo(self, capsys):
        argv = ["closure-demo", "--engine", "mc", "--samples", "20000",
                "-P", "n=4", "-P", "minterms=1;2", "-P", "eps=0.3", "-P", "c=2"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: a --seed is mandatory")
        assert main(argv + ["--seed", "1"]) == 0  # Pr[1 or 2 in N] = 3/4 > 0.7: the constant 1
        assert json.loads(capsys.readouterr().out)["payload"]["closure_minterms"] == [[]]

    def test_hr_verify_engine_flag_and_mode(self, capsys):
        argv = ["hr-verify", "--engine", "mc", "--seed", "1", "--samples", "300",
                "-P", "n=11", "-P", "c=2", "-P", "k=3"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["checks"][0]["value"]["samples"] == 300
        assert main(argv + ["-P", "mode=exact"]) == 0  # mode, when given, wins
        assert isinstance(json.loads(capsys.readouterr().out)["checks"][0]["value"], str)

    # what --engine mc does per subcommand: select its Monte-Carlo path (which
    # then needs a --seed), or be refused
    ENGINE_MC = {
        "coverage": (True, ["-P", "n=4", "-P", "family=star:2", "-P", "p=1/2"]),
        "sunflower-extract": (False, ["-P", "n=4", "-P", "family=star:3", "-P", "p=1/2",
                                      "-P", "eps=1/10"]),
        "closure-demo": (True, ["-P", "n=4", "-P", "minterms=1;2", "-P", "eps=0.3",
                                "-P", "c=2"]),
        "hr-verify": (True, ["-P", "n=11", "-P", "c=2", "-P", "k=3"]),
        "clique-verify": (True, ["-P", "n=8", "-P", "k=3"]),
        "clique-extract": (False, ["-P", "n=12", "-P", "family=star:11", "-P", "p=1/2",
                                   "-P", "eps=0.05"]),
        "janson": (False, ["-P", "n=6", "-P", "family=disjoint:2:3", "-P", "p=1/2"]),
        "code-poly": (False, ["-P", "q=5", "-P", "n=5", "-P", "dim=2"]),
        "spread-experiment": (False, ["-P", "n=8", "-P", "l=2", "-P", "p=1/2", "-P", "eps=1/10"]),
    }

    @pytest.mark.parametrize("subcommand", sorted(cli._SUBCOMMANDS))
    def test_engine_mc_is_honoured_or_refused(self, subcommand, capsys):
        honoured, params = self.ENGINE_MC[subcommand]
        argv = [subcommand, "--engine", "mc", "--samples", "500"] + params
        if honoured:
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("config error: a --seed is mandatory")
            assert main(argv + ["--seed", "1"]) in (0, 1)
            assert json.loads(capsys.readouterr().out)["config"]["engine"] == "mc"
        else:
            assert main(argv + ["--seed", "1"]) == 2
            assert capsys.readouterr() == (
                "", f"config error: {subcommand} has no Monte-Carlo path; drop --engine mc\n")

    def test_clique_verify_names_its_monte_carlo_path(self, capsys):
        # the k-clique probability is an estimate under either engine setting
        for engine in (["--engine", "exact"], []):
            argv = ["clique-verify", *engine, "--seed", "1", "--samples", "200",
                    "-P", "n=8", "-P", "k=3"]
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            row = report["checks"][0]
            assert row["name"] == "kclique-probability" and row["engine"] == "mc"
            assert row["value"]["samples"] == 200

    @staticmethod
    def _path_file(tmp_path):
        # the path {i, i+1}, i <= 25, on 26 points: one component past every exact cap
        return write_family(tmp_path, "path.txt", 26, [(i, i + 1) for i in range(1, 26)])

    def test_samples_reach_the_extraction_fallback(self, tmp_path, capsys):
        # the path's 25 pairs are past both exact strategies, so the check samples
        argv = ["sunflower-extract", "--samples", "1000", "-P", "n=26",
                "-P", f"family={self._path_file(tmp_path)}",
                "-P", "p=1/2", "-P", "eps=1/10", "-P", "B=0.1"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["samples"] == 1000
        assert report["checks"][0]["probability"]["samples"] == 1000

    def test_clique_extract_reports_its_probability(self, tmp_path, capsys):
        # 25 connected members: the vertex envelope 26 is past the exact limit, so the
        # check samples
        argv = ["clique-extract", "--samples", "1000", "-P", "n=26",
                "-P", f"family={self._path_file(tmp_path)}",
                "-P", "p=3/4", "-P", "q=3/4", "-P", "eps=1/10"]
        assert main(argv) == 0
        row = json.loads(capsys.readouterr().out)["checks"][0]
        assert row["value"] is True
        assert row["probability"]["samples"] == 1000

    @pytest.mark.parametrize("argv", [
        ["coverage", "-P", "n=60", "-P", "family=disjoint:25:2", "-P", "p=1/2"],
        ["sunflower-extract", "-P", "n=60", "-P", "family=disjoint:25:2", "-P", "p=1/2",
         "-P", "eps=1/10", "-P", "B=0.1"],
        ["clique-extract", "-P", "n=26", "-P", "family=star:25", "-P", "p=1/2", "-P", "q=1/2",
         "-P", "eps=1/10"],
    ], ids=["coverage", "sunflower-extract", "clique-extract"])
    def test_disjoint_petals_report_an_exact_probability(self, argv, capsys):
        # 25 petals disjoint over their core, each covered with probability 1/4
        assert main(argv) == 0
        row = json.loads(capsys.readouterr().out)["checks"][0]
        got = row["value"] if argv[0] == "coverage" else row["probability"]
        assert got == str(1 - Fraction(3, 4) ** 25)

    @staticmethod
    def _pairs_file(tmp_path):
        # 22 disjoint edges on 44 vertices: past every exact cap as one block, but 22
        # one-mask components
        return write_family(tmp_path, "pairs.txt", 44, [(2 * i + 1, 2 * i + 2) for i in range(22)])

    def test_janson_at_q_one_answers_exactly(self, tmp_path, capsys):
        fam = self._pairs_file(tmp_path)
        assert main(["janson", "-P", "n=44", "-P", f"family={fam}", "-P", "p=1/2"]) == 0
        row = json.loads(capsys.readouterr().out)["checks"][0]
        assert row["name"] == "janson-miss-bound" and row["value"] == "1/4194304"

    def test_clique_extract_at_q_one_verifies_exactly(self, tmp_path, capsys):
        fam = self._pairs_file(tmp_path)
        argv = ["clique-extract", "-P", "n=44", "-P", f"family={fam}", "-P", "p=1/2",
                "-P", "eps=1/10"]
        assert main(argv) == 0
        row = json.loads(capsys.readouterr().out)["checks"][0]
        assert row["value"] is True and row["probability"] == "4194303/4194304"

    @pytest.mark.parametrize("argv", [
        ["coverage", "-P", "n=26", "-P", "family=star:25", "-P", "p=1/2"],  # one component
        ["sunflower-extract", "-P", "n=4", "-P", "family=star:3", "-P", "p=1/2",
         "-P", "eps=1/100", "-P", "B=1"],
        ["hr-verify", "-P", "n=31", "-P", "c=2", "-P", "k=6"],
        ["code-poly", "-P", "q=13", "-P", "n=13", "-P", "dim=4"],  # pairwise-scan cap
    ])
    def test_refusal_exits_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("refused: ") and len(err.strip().splitlines()) == 1

    def test_code_poly_over_cap_returns_at_once(self):
        done = self._run_module("code-poly", "-P", "q=101", "-P", "n=50", "-P", "dim=5")
        assert done.returncode == 2
        assert done.stderr.startswith("refused: TooLargeError: ")
        assert len(done.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["sunflower-extract", "-P", "B=0.5"], ["clique-extract"],
    ], ids=["sunflower-extract", "clique-extract"])
    def test_extraction_over_submask_cap_returns_at_once(self, argv):
        # the one 30-set has 2^30 submasks, over setfamily.SUBMASK_CAP
        done = self._run_module(*argv, "-P", "n=30", "-P", "family=disjoint:1:30",
                                "-P", "p=1/2", "-P", "eps=1/10")
        assert done.returncode == 2
        assert done.stderr.startswith("refused: TooLargeError: ")
        assert len(done.stderr.strip().splitlines()) == 1

    @staticmethod
    def _run_module(*argv):
        """The CLI in a fresh process, killed after 5 s so a hang fails instead of stalling."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        return subprocess.run(
            [sys.executable, "-m", "sunflower_circuits", *argv],
            capture_output=True, text=True, timeout=5, env=env,
        )

    def test_writes_output_file(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(
            ["code-poly", "-P", "q=5", "-P", "n=5", "-P", "dim=2", "--out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["subcommand"] == "code-poly"


def _ratio(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class TestParameterTable:
    def test_each_subcommand_accepts_its_keys(self):
        assert {name: set(readers) for name, (_, readers) in cli._SUBCOMMANDS.items()} == {
            "coverage": {"n", "family", "Y", "p"},
            "sunflower-extract": {"n", "family", "p", "eps", "B"},
            "closure-demo": {"n", "minterms", "eps", "c", "noise_p"},
            "hr-verify": {"n", "c", "k", "mode"},
            "clique-verify": {"n", "k", "p", "delta"},
            "clique-extract": {"n", "family", "p", "q", "eps"},
            "janson": {"n", "family", "p", "q"},
            "code-poly": {"q", "n", "dim", "audit"},
            "spread-experiment": {"n", "l", "count", "members", "p", "eps", "B"},
        }

    def test_sunflower_extract_keeps_p_exact(self, capsys):
        argv = ["sunflower-extract", "-P", "n=6", "-P", "family=disjoint:3:2", "-P", "p=1/3",
                "-P", "eps=1/2", "-P", "B=0.25"]
        assert main(argv) == 1  # 217/729 is not above 1 - eps
        row = json.loads(capsys.readouterr().out)["checks"][0]
        assert row["probability"] == _ratio(1 - (1 - Fraction(1, 9)) ** 3) == "217/729"

    def test_clique_extract_keeps_q_exact(self, capsys):
        argv = ["clique-extract", "-P", "n=12", "-P", "family=star:8", "-P", "p=1/2",
                "-P", "q=1/3", "-P", "eps=1/2"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [t["case"] for t in report["payload"]["trace"]] == ["link", "base"]
        # over the core {1}, each of the 8 leaves joins with probability q p = 1/6
        assert report["checks"][0]["probability"] == _ratio(1 - (1 - Fraction(1, 6)) ** 8)

    def test_spread_experiment_reads_eps_exactly(self, monkeypatch, capsys):
        seen = []

        def recording(probability, eps):
            seen.append(eps)
            return above_threshold(probability, eps)

        monkeypatch.setattr(cli, "above_threshold", recording)
        argv = ["spread-experiment", "--seed", "1", "-P", "n=10", "-P", "l=2", "-P", "count=3",
                "-P", "p=1/4", "-P", "eps=1/3"]
        assert main(argv) in (0, 1)
        assert len(seen) == 3
        assert all(isinstance(eps, Fraction) and eps == Fraction(1, 3) for eps in seen)

    def test_clique_verify_derives_its_parameters_from_delta(self, capsys):
        argv = ["clique-verify", "--seed", "1", "--samples", "200", "-P", "n=20", "-P", "delta=0.1"]
        assert main(argv) == 0
        k, p, eps = clique_parameters(20, 0.1)
        assert json.loads(capsys.readouterr().out)["payload"] == {"k": k, "p": p, "eps": eps}

    @pytest.mark.parametrize("n,k", [(6, 1), (8, 3), (32, 4), (12, 6)])
    def test_clique_spread_row_checks_a_nonempty_set(self, n, k, capsys):
        argv = ["clique-verify", "--seed", "1", "--samples", "100",
                "-P", f"n={n}", "-P", f"k={k}", "-P", "p=1/2"]
        assert main(argv) in (0, 1)
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        row, size = checks["clique-spread"], min(k, 4)
        assert row["size"] == size >= 1
        assert row["value"] == _ratio(Fraction(math.comb(n - size, k - size), math.comb(n, k)))
        assert row["bound"] == _ratio(Fraction(k, n) ** size) and row["status"] == "pass"

    def test_malformed_value_is_refused_even_where_unused(self, capsys):
        # delta sets k, yet a k that is not an integer is still bad input
        argv = ["clique-verify", "--seed", "1", "-P", "n=20", "-P", "delta=0.1", "-P", "k=three"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "config error: invalid literal for int() with base 10: 'three'\n")

    def test_out_from_config_file(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"out={report}\nq=5\nn=5\ndim=2\n")
        assert main(["code-poly", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(report.read_text())["subcommand"] == "code-poly"
        # a flag given on the command line wins, an empty --out too: the report goes to stdout
        report.unlink()
        assert main(["code-poly", "--config", str(cfg), "--out", ""]) == 0
        assert json.loads(capsys.readouterr().out)["subcommand"] == "code-poly"
        assert not report.exists()

    @pytest.mark.parametrize("param,err", [
        ("n", "bad --param 'n', expected KEY=VALUE"),
        ("seed=1", "seed must be passed as a top-level flag"),
    ])
    def test_malformed_param_exits_two(self, param, err, capsys):
        assert main(["code-poly", "-P", param]) == 2
        assert capsys.readouterr() == ("", f"config error: {err}\n")

    @pytest.mark.parametrize("spec,err", [
        ("star:5", "star family needs n >= m+1"),
        ("disjoint:2:3", "disjoint family needs n >= m*size"),
    ])
    def test_family_larger_than_n_exits_two(self, spec, err, capsys):
        assert main(["coverage", "-P", "n=5", "-P", f"family={spec}", "-P", "p=1/2"]) == 2
        assert capsys.readouterr() == ("", f"config error: {err}\n")
