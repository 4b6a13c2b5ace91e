import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli
from expalign import cli, verify

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "worked_example_scene.json"
GOLDEN = DATA / "golden_loss_report.json"

REPORT_FLAGS = {"--config", "--seed", "--json", "--out"}
HYPERPARAMETER_FLAGS = {"--tau-t", "--tau", "--lambda-sem", "--lambda-geo", "--clip", "--eps", "--k-ratio",
                        "--normalize-sim", "--no-normalize-sim", "--std-mode"}
SUITE_FLAGS = REPORT_FLAGS | {"--inject-fault"}
COMMAND_FLAGS = {
    "loss": REPORT_FLAGS | HYPERPARAMETER_FLAGS | {"--scene", "--signal"},
    "verify": SUITE_FLAGS, "gibbs": SUITE_FLAGS, "mil": SUITE_FLAGS, "gradcheck": SUITE_FLAGS,
    "demo": REPORT_FLAGS - {"--seed"} | HYPERPARAMETER_FLAGS
            | {"--seeds", "--steps", "--lr", "--signal", "--heatmap", "--heatmap-dir"},
    "heatmap": REPORT_FLAGS | {"--tau-t", "--scene", "--signal", "--out-dir"},
}


def exit_code(argv):
    """cli.main in process: its return value, or the code argparse exits with."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


class TestSurface:
    def test_each_command_takes_exactly_the_flags_its_handler_reads(self):
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
        flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                 for name, p in commands.items()}
        assert flags == COMMAND_FLAGS
        assert sum(map(len, flags.values())) == 63
        assert not any(p.allow_abbrev for p in commands.values())

    @pytest.mark.parametrize("argv,unread", [
        (["mil", "--tau-t", "0.5"], "--tau-t"),
        (["demo", "--seed", "3"], "--seed"),      # not --seeds
        (["heatmap", "--tau", "0.3"], "--tau"),   # not --tau-t
    ])
    def test_flag_the_command_does_not_read_rejected(self, capsys, argv, unread):
        assert exit_code(argv) == 2
        assert f"unrecognized arguments: {unread} " in capsys.readouterr().err

    @pytest.mark.parametrize("argv,unread", [
        (["mil", "--tau-t", "0.5"], "--tau-t 0.5"),
        (["demo", "--seed", "3"], "--seed 3"),
        (["heatmap", "--tau", "0.3"], "--tau 0.3"),
    ])
    def test_unread_flag_reported_by_its_command(self, capsys, argv, unread):
        # the top-level parser's usage named neither the command nor its flags
        command = argv[0]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: expalign {command} [-h]")
        assert err.endswith(f"expalign {command}: error: unrecognized arguments: {unread}\n")
        usage = err[:err.index(f"expalign {command}: error")]
        assert all(flag in usage for flag in COMMAND_FLAGS[command])

    def test_bad_config_hyperparameter_rejected_by_a_suite(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"tau_t": -5}))
        assert exit_code(["verify", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err == "error: temperatures must be positive\n"

    @pytest.mark.parametrize("command", ["loss", "heatmap"])
    def test_scene_file_with_synthetic_flags_rejected(self, tmp_path, capsys, command):
        argv = [command, "--scene", str(FIXTURE), "--seed", "5", "--signal", "9", "--out", str(tmp_path / "r")]
        assert exit_code(argv) == 2
        assert capsys.readouterr().err.startswith("error: --seed and --signal would not be read")
        assert not (tmp_path / "r").exists()


class TestLossCommand:
    def test_golden_report_byte_for_byte(self, tmp_path):
        shutil.copy(FIXTURE, tmp_path / "scene.json")
        res = run_cli(["loss", "--scene", "scene.json"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout == GOLDEN.read_text()

    def test_single_prompt_scene_has_zero_semantic_loss(self, tmp_path):
        shutil.copy(FIXTURE, tmp_path / "scene.json")
        res = run_cli(["loss", "--scene", "scene.json"], cwd=tmp_path)
        report = json.loads(res.stdout)
        assert report["l_sem"] == 0.0

    def test_flags_override_config_file(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"lambda_sem": 0.1, "lambda_geo": 0.2}))
        shutil.copy(FIXTURE, tmp_path / "scene.json")
        res = run_cli(["loss", "--scene", "scene.json", "--config", "cfg.json",
                       "--lambda-geo", "0.9"], cwd=tmp_path)
        report = json.loads(res.stdout)
        assert report["config"]["lambda_sem"] == 0.1   # from the file
        assert report["config"]["lambda_geo"] == 0.9   # flag wins
        assert abs(report["total"] - (0.1 * report["l_sem"] + 0.9 * report["l_geo"])) <= 1e-12

    def test_unknown_config_key_rejected(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"nope": 1}))
        res = run_cli(["loss", "--config", "cfg.json"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "nope" in res.stderr

    def test_non_finite_hyperparameter_rejected(self, tmp_path):
        res = run_cli(["loss", "--tau", "nan"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "tau must be finite" in res.stderr

    def test_malformed_scene_gives_parse_error_and_nonzero_exit(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"schema_version": 1,,}')
        res = run_cli(["loss", "--scene", "bad.json"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "line" in res.stderr and "column" in res.stderr

    def test_non_numeric_scene_entry_named(self, tmp_path):
        doc = json.loads(FIXTURE.read_text())
        doc["masks"][0] = "a"
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        res = run_cli(["loss", "--scene", "scene.json"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "field 'masks' must be a flat list of numbers" in res.stderr and res.stdout == ""

    @pytest.mark.parametrize("field", ["features.p3", "tokens[0]"])
    def test_scene_integer_too_large_for_a_float_named(self, tmp_path, field):
        # converting the JSON integer 10**400 to a float raised OverflowError
        doc = json.loads(FIXTURE.read_text())
        (doc["features"]["p3"] if field == "features.p3" else doc["tokens"][0])[0] = 10**400
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        res = run_cli(["loss", "--scene", "scene.json"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"error: field '{field}' holds an integer too large for a float\n"
        assert res.stdout == ""

    def test_non_finite_loss_named_and_not_printed(self, tmp_path):
        # at a temperature of 1e-308 the logit ratios overflow to inf and the loss is NaN
        res = run_cli(["loss", "--seed", "3", "--tau", "1e-308", "--tau-t", "1e-308", "--json"],
                      cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr == "error: non-finite loss terms: l_sem, total\n" and res.stdout == ""

    def test_overflowed_posterior_named_without_numpy_warnings(self, tmp_path):
        # 1e-320 is a subnormal temperature: the posterior's logits overflow and every term is NaN
        res = run_cli(["loss", "--seed", "3", "--tau-t", "1e-320"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr == "error: non-finite loss terms: l_sem, l_geo, total\n" and res.stdout == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_signal_named(self, tmp_path, value):
        res = run_cli(["loss", "--signal", value], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: signal must be finite") and res.stdout == ""


class TestConfigAndSeeds:
    @pytest.mark.parametrize("command,config", [
        ("loss", {"tau": "abc"}),
        ("demo", {"steps": "5"}),
        ("loss", {"normalize_sim": "no"}),
        ("loss", {"lambda_geo": True}),
        ("demo", {"seeds": [1, "2"]}),
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, command, config):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        res = run_cli([command, "--config", "cfg.json"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert f"config key '{next(iter(config))}'" in res.stderr

    @pytest.mark.parametrize("command,key", [("loss", "tau"), ("loss", "signal"), ("demo", "lr")])
    def test_config_integer_too_large_for_a_float_named(self, tmp_path, command, key):
        # the JSON integer 10**400 reached np.isfinite and float arithmetic, which raised TypeError
        (tmp_path / "cfg.json").write_text(json.dumps({key: 10**400}))
        res = run_cli([command, "--config", "cfg.json"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"error: config key '{key}' holds an integer too large for a float\n"
        assert res.stdout == ""

    def test_config_integers_accepted_for_float_keys(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"lambda_sem": 1, "normalize_sim": True}))
        res = run_cli(["loss", "--config", "cfg.json"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["config"]["lambda_sem"] == 1 and report["config"]["normalize_sim"] is True

    @pytest.mark.parametrize("args,config", [
        (["loss", "--seed", "-1"], None),
        (["verify", "--seed", "-1"], None),
        (["loss"], {"seed": -1}),
        (["demo", "--seeds", ","], None),
        (["demo", "--seeds", "1,-2"], None),
        (["demo"], {"seeds": []}),
    ])
    def test_bad_seeds_rejected(self, tmp_path, args, config):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args = [*args, "--config", "cfg.json"]
        res = run_cli(args, cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: seed") and res.stdout == ""

    @pytest.mark.parametrize("argv,config,message", [
        (["demo", "--seeds", "1,x"], None,
         "expalign demo: error: argument --seeds: --seeds expects comma-separated integers, got '1,x'"),
        (["loss", "--config", "absent.json"], None, "error: cannot read config file: "),
        (["loss", "--config", "cfg.json"], "[1]", "error: config file must hold a JSON object"),
        (["loss", "--config", "cfg.json"], "{bad", "error: invalid config JSON at line 1 column 2: "),
        (["loss", "--out", "absent/report.json"], None, "i/o error: "),
    ], ids=["seeds-not-integers", "config-missing", "config-not-object", "config-not-json", "out-dir-missing"])
    def test_unusable_input_or_output_exits_2(self, tmp_path, monkeypatch, capsys, argv, config, message):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
        assert exit_code(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines()[-1].startswith(message)


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path):
        res = run_cli(["verify"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "all checks passed" in res.stdout

    def test_json_reports_are_byte_identical_across_runs(self, tmp_path):
        a = run_cli(["verify", "--json", "--seed", "5"], cwd=tmp_path)
        b = run_cli(["verify", "--json", "--seed", "5"], cwd=tmp_path)
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert a.stdout == b.stdout and a.stdout.startswith("{")

    def test_fault_injection_fails_gaco_checks(self, tmp_path):
        res = run_cli(["verify", "--inject-fault", "gaco-sign", "--json"], cwd=tmp_path)
        assert res.returncode == 1, res.stderr
        report = json.loads(res.stdout)
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert failed == {"gaco_worked_example", "gaco_gradient_sign"}

    def test_nan_and_raising_checks_reported(self, tmp_path):
        # the fault makes a posterior with a pad token NaN, so no gradcheck draw clears the
        # margins and grad_config_sweep raises once its search gives up; the JSON could not
        # hold the NaN residual, so nothing was reported
        def reject(constant):
            raise AssertionError(f"{constant} in the verify report")

        fault = ["verify", "--inject-fault", "eah-shift-by-min"]
        res = run_cli([*fault, "--json", "--out", "report.json"], cwd=tmp_path)
        assert res.returncode == 1, res.stderr
        assert (tmp_path / "report.json").read_text() == res.stdout
        checks = {c["name"]: c for c in json.loads(res.stdout, parse_constant=reject)["checks"]}
        assert len(checks) == len(verify._CHECKS)
        sweep = checks["grad_config_sweep"]
        assert not sweep["passed"] and sweep["residual"] is None
        assert sweep["detail"] == ("raised DomainError: no gradcheck case clears the margins"
                                   " in seeds 2022974226 to 2022975225")
        assert checks["eah_temperature_limits"]["residual"] is None
        table = run_cli(fault, cwd=tmp_path)
        assert table.returncode == 1, table.stderr
        assert "FAIL eah_temperature_limits             residual=nan tol=1.0e-05" in table.stdout
        passed = sum(c["passed"] for c in checks.values())
        assert table.stdout.endswith(f"FAILURES detected ({passed}/{len(checks)})\n")

    def test_fault_outside_the_subcommand_groups_rejected(self, tmp_path):
        res = run_cli(["mil", "--inject-fault", "gaco-sign"], cwd=tmp_path)
        assert res.returncode == 2, res.stdout
        assert res.stderr.startswith("error: fault 'gaco-sign'") and "'gaco'" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("command", ["verify", "gibbs", "mil", "gradcheck"])
    def test_every_fault_parses(self, command):
        for fault in verify.FAULTS:
            assert cli.build_parser().parse_args([command, "--inject-fault", fault]).fault == fault

    def test_fault_choices_are_the_fault_table(self):
        subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        option = next(a for a in subcommands.choices["verify"]._actions if a.dest == "fault")
        assert option.choices == sorted(verify.FAULTS)

    def test_subcommand_filters(self, tmp_path):
        for name, group in (("gibbs", "gibbs"), ("mil", "mil"), ("gradcheck", "grad")):
            res = run_cli([name, "--json"], cwd=tmp_path)
            assert res.returncode == 0, res.stderr
            report = json.loads(res.stdout)
            assert report["command"] == name
            assert {c["group"] for c in report["checks"]} == {group}


class TestDemoCommand:
    def test_short_demo_report(self, tmp_path):
        res = run_cli(["demo", "--seeds", "1", "--steps", "5"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["command"] == "demo"
        assert len(report["runs"]) == 1
        assert len(report["runs"][0]["losses_total"]) == 5
        assert report["runs"][0]["rng"] == "numpy-pcg64"

    def test_diverged_run_prints_valid_json(self, tmp_path):
        # at a temperature of 1e-308 the first step's l_sem and total are NaN
        res = run_cli(["demo", "--seeds", "1", "--steps", "3", "--tau", "1e-308",
                       "--tau-t", "1e-308", "--json"], cwd=tmp_path)
        assert res.returncode == 0 and res.stderr == "", res.stderr

        def reject(constant):
            raise AssertionError(f"{constant} in the demo report")

        run = json.loads(res.stdout, parse_constant=reject)["runs"][0]
        assert run["diverged"] is True and run["steps"] == 1
        assert run["losses_sem"] == [None] and run["losses_total"] == [None]
        assert isinstance(run["losses_geo"][0], float)

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_bad_learning_rate_named(self, tmp_path, value):
        res = run_cli(["demo", "--seeds", "1", "--steps", "2", "--lr", value], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: learning_rate must be finite and nonnegative") and res.stdout == ""

    def test_identical_seeds_give_byte_identical_reports(self, tmp_path):
        a = run_cli(["demo", "--seeds", "2,3", "--steps", "8"], cwd=tmp_path)
        b = run_cli(["demo", "--seeds", "2,3", "--steps", "8"], cwd=tmp_path)
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert a.stdout == b.stdout and a.stdout.startswith("{")

    def test_heatmap_export(self, tmp_path):
        res = run_cli(["demo", "--seeds", "1", "--steps", "2", "--heatmap",
                       "--heatmap-dir", "hm"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert (tmp_path / "hm" / "heatmaps.json").exists()
        assert len(report["heatmaps"]["maps"]) == 4


class TestHeatmapCommand:
    def test_constant_map_renders_uniform(self, tmp_path):
        from expalign.heatmap import read_pgm
        from expalign.eah import FeatureMap, TokenBatch
        from expalign.sceneio import write_scene
        from expalign.synth import Scene

        # zero features: fine maps are exactly constant
        masks = np.zeros((1, 8, 8), dtype=bool)
        masks[0, :4, :4] = True
        scene = Scene(features=tuple(FeatureMap(np.zeros((2, h, h))) for h in (8, 4, 2)),
                      tokens=(TokenBatch(np.ones((1, 2)), np.ones(1, dtype=bool)),), masks=masks, positives=(0,))
        write_scene(tmp_path / "scene.json", scene)
        res = run_cli(["heatmap", "--scene", "scene.json", "--out-dir", "hm"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        data = read_pgm(tmp_path / "hm" / "prompt_00.pgm")
        assert (data == data[0, 0]).all()

    def test_non_finite_map_named_before_any_file(self, tmp_path):
        # every value is finite, so the scene file is read, but the fine maps overflow; the
        # PGMs and a sidecar holding NaN were written, then the report raised ValueError
        from expalign import sceneio, synth

        doc = sceneio.scene_to_dict(synth.generate_scene(synth.benchmark_spec(1)))
        doc["features"] = {key: [v * 1e306 for v in values] for key, values in doc["features"].items()}
        doc["tokens"] = [[v * 100 for v in values] for values in doc["tokens"]]
        (tmp_path / "big.json").write_text(json.dumps(doc))
        res = run_cli(["heatmap", "--scene", "big.json", "--out-dir", "hm"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr == "error: heatmap of prompt 0 contains non-finite values\n" and res.stdout == ""
        assert not (tmp_path / "hm").exists()

    def test_sidecar_allows_value_reconstruction(self, tmp_path):
        from expalign.gradients import fused_maps
        from expalign.heatmap import read_pgm, reconstruct
        from expalign.synth import SceneSpec, generate_scene

        res = run_cli(["heatmap", "--seed", "11", "--out-dir", "hm"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        sidecar = json.loads((tmp_path / "hm" / "heatmaps.json").read_text())
        scene = generate_scene(SceneSpec(seed=11, signal=1.0))
        _, up = fused_maps([f.values for f in scene.features],
                           [t.embeddings for t in scene.tokens], 1.0,
                           [t.valid for t in scene.tokens])
        for p, entry in enumerate(sidecar["maps"]):
            rec = reconstruct(read_pgm(tmp_path / "hm" / entry["file"]), entry["min"], entry["max"])
            step = max((entry["max"] - entry["min"]) / 255.0, 1e-12)
            assert np.abs(rec - up[p]).max() <= step
