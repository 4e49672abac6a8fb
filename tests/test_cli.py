import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ambifilter import bsde, cli, minimax
from ambifilter.cli import ExperimentConfig, load_config, main, run_subcommand
from ambifilter.errors import ConfigError, DegenerateCloudError, InvalidArgumentError
from ambifilter.minimax import PicardConfig
from ambifilter.model import ModelSpec, build_time_grid
from ambifilter.oracles import LinearGaussianSpec, kalman_bucy
from ambifilter.presets import make_coef

TANH_CONF = """
# bounded test model, sized for fast runs
model.b = tanh(0.2)
model.sigma = constant(0.5)
model.h = tanh(1.0)
model.f = tanh(1.0)
model.x0 = 0.8
model.k = 0.25
grid.n_steps = 20
mc.n_paths = 120
mc.n_particles = 64
mc.seed = 777
worst_case.k_grid = 0.0,0.25
worst_case.rule_particles = 48
picard.max_iters = 6
"""

LINEAR_CONF = """
model.b = constant(0.0)
model.sigma = constant(1.0)
model.h = identity
model.f = identity
model.x0 = 0.0
model.k = 0.0
grid.n_steps = 100
mc.n_paths = 50
mc.n_particles = 1500
mc.seed = 321
"""


@pytest.fixture()
def tanh_conf(tmp_path):
    p = tmp_path / "tanh.conf"
    p.write_text(TANH_CONF, encoding="utf-8")
    return p


@pytest.fixture()
def linear_conf(tmp_path):
    p = tmp_path / "linear.conf"
    p.write_text(LINEAR_CONF, encoding="utf-8")
    return p


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        p = tmp_path / "min.conf"
        p.write_text("model.b = tanh(0.2)\nmodel.sigma = constant(0.5)\n"
                     "model.h = tanh(1.0)\nmodel.f = tanh(1.0)\n")
        cfg = load_config(p)
        assert cfg.model.T == 1.0 and cfg.n_steps == 50
        assert cfg.n_paths == 2000 and cfg.n_particles == 500
        assert cfg.bsde_degree == 3
        pc = PicardConfig()
        assert (cfg.picard_max_iters, cfg.picard_tol) == (pc.max_iters, pc.tol)

    def test_readme_sample_matches_settings(self, tmp_path):
        # the README's sample names every config key once, each at its
        # default except the example values the README says it changes
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        keys = [line.split("=")[0].strip() for line in block.splitlines()
                if line.split("#")[0].strip()]
        assert sorted(keys) == sorted(cli._SETTINGS)
        sample = tmp_path / "sample.conf"
        sample.write_text(block, encoding="utf-8")
        required = tmp_path / "required.conf"
        required.write_text("".join(line + "\n" for line in block.splitlines()
                                    if line.startswith(cli._REQUIRED)))
        cfg, dflt = load_config(sample), load_config(required)

        def value(c, key):
            name = cli._SETTINGS[key][0]
            return getattr(c.model if key.startswith("model.") else c, name)

        changed = {key for key in cli._SETTINGS if value(cfg, key) != value(dflt, key)}
        examples = {"model.x0", "model.k", "output.label"}
        assert changed - set(cli._REQUIRED) == examples
        note = readme[readme.index(block) + len(block):].split("\n\n")[1]
        assert all(f"`{key} = " in note for key in examples)

    def test_negative_k_names_key(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text(TANH_CONF.replace("model.k = 0.25", "model.k = -0.1"))
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert any("model.k" in msg for msg in err.value.problems)

    def test_unknown_key_suggestion(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text(TANH_CONF + "model.kk = 0.3\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert any("model.kk" in m and "model.k" in m for m in err.value.problems)
        # a removed key is an unknown key like any other, and no current key
        # is spelled close enough to it for a hint
        p.write_text(TANH_CONF + "picard.damping = 0.5\n")
        lineno = len(TANH_CONF.splitlines()) + 1
        r = run_cli("simulate", "--config", str(p), "--out-dir", str(tmp_path / "o"))
        assert r.returncode == 1 and "Traceback" not in r.stderr
        assert r.stderr.splitlines() == [
            f"config error: line {lineno}: unknown key 'picard.damping'"]

    @pytest.mark.parametrize("key, hint", [
        # removed keys, and a prefix whose closest spelling is the wrong key
        ("picard.damping", None), ("bsde.ridge_lambda", None), ("mc.ess", None),
        ("mc.ess_threshold", None),
        ("model.kk", "model.k"), ("pcard.max_iters", "picard.max_iters"),
        ("seed", "mc.seed"), ("n_paths", "mc.n_paths"), ("mc.seeed", "mc.seed"),
        ("picard.tolerance", "picard.tol"), ("output.directory", "output.dir"),
        ("grid.nsteps", "grid.n_steps"), ("model.x_0", "model.x0"),
        ("picard.iters", "picard.max_iters"),
        ("worst_case.particles", "worst_case.rule_particles"),
    ])
    def test_unknown_key_hint_table(self, tmp_path, capsys, key, hint):
        p = tmp_path / "bad.conf"
        p.write_text(TANH_CONF + f"{key} = 1\n")
        lineno = len(TANH_CONF.splitlines()) + 1
        assert main(["simulate", "--config", str(p),
                     "--out-dir", str(tmp_path / "o")]) == 1
        suffix = f" (did you mean {hint!r}?)" if hint else ""
        assert capsys.readouterr().err.splitlines() == [
            f"config error: line {lineno}: unknown key {key!r}{suffix}"]

    def test_all_errors_collected(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("model.b = tanh(0.2)\nmodel.sigma = constant(0.5)\n"
                     "model.h = tanh(1.0)\nmodel.f = tanh(1.0)\n"
                     "model.k = -1\nmc.n_paths = 0\nnot a line\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert len(err.value.problems) == 3

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("# comment\nmodel.b tanh(0.2)\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert any("line 2" in m for m in err.value.problems)

    @pytest.mark.parametrize("old,new", [
        ("model.k = 0.25", "model.k = inf"),
        ("model.k = 0.25", "model.k = nan"),
        ("model.x0 = 0.8", "model.T = inf"),
        ("worst_case.k_grid = 0.0,0.25", "worst_case.k_grid = -0.1"),
        ("worst_case.k_grid = 0.0,0.25", "worst_case.k_grid = 0.1,inf"),
        ("model.sigma = constant(0.5)", "model.sigma = constant(nan)"),
        ("model.sigma = constant(0.5)", "model.sigma = tanh(1.0, 0.01, 0.0, 0.5)"),
        ("mc.seed = 777", "mc.seed = -1"),
    ])
    def test_out_of_domain_value_names_line(self, tmp_path, old, new):
        text = TANH_CONF.replace(old, new)
        lineno = text.splitlines().index(new) + 1
        p = tmp_path / "bad.conf"
        p.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(p)
        (problem,) = err.value.problems
        assert problem.startswith(f"line {lineno}: {new.split(' = ')[0]}: ")
        assert main(["simulate", "--config", str(p), "--out-dir", str(tmp_path)]) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.conf")
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path)
        r = run_cli("simulate", "--config", str(tmp_path))
        assert r.returncode == 1 and "Traceback" not in r.stderr
        (line,) = r.stderr.splitlines()
        assert line.startswith("config error: cannot read config file")

    def test_overrides(self, tanh_conf):
        cfg2 = load_config(tanh_conf, {"--seed": 1, "--k": 0.5, "--n-paths": 10,
                                       "--n-particles": 8, "--out-dir": "elsewhere"})
        assert cfg2.seed == 1 and cfg2.model.k == 0.5
        assert cfg2.n_paths == 10 and cfg2.n_particles == 8
        assert cfg2.out_dir == "elsewhere"
        cfg3 = load_config(tanh_conf, {"--seed": "3", "--n-paths": np.int64(12)})
        assert cfg3.seed == 3 and cfg3.n_paths == 12

    @pytest.mark.parametrize("name,value", [("seed", 1.5), ("n_paths", 2.9),
                                            ("n_particles", float("inf"))])
    def test_non_integral_override_names_flag(self, tanh_conf, name, value):
        # a number is not truncated to an integer
        flag = f"--{name.replace('_', '-')}"
        with pytest.raises(ConfigError) as err:
            load_config(tanh_conf, {flag: value})
        (problem,) = err.value.problems
        assert problem.startswith(f"{flag}: ")

    def test_file_and_flag_problems_reported_together(self, tmp_path, capsys):
        text = TANH_CONF.replace("grid.n_steps = 20", "grid.n_steps = 0")
        lineno = text.splitlines().index("grid.n_steps = 0") + 1
        p = tmp_path / "bad.conf"
        p.write_text(text)
        assert main(["filter", "--config", str(p), "--seed", "-1",
                     "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith(f"config error: line {lineno}: grid.n_steps: ")
        assert err[1].startswith("config error: --seed: ") and "mc.seed" in err[1]
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_reported_with_file_problems(self, tmp_path):
        text = TANH_CONF.replace("grid.n_steps = 20", "grid.n_steps = 0")
        lineno = text.splitlines().index("grid.n_steps = 0") + 1
        p = tmp_path / "bad.conf"
        p.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(p, {"--bogus": 1, "--seed": 3})
        problems = err.value.problems
        assert len(problems) == 2 and "unknown flag '--bogus'" in problems
        assert any(m.startswith(f"line {lineno}: grid.n_steps: ") for m in problems)

    def test_digest_covers_merged_settings_except_output(self, tanh_conf, tmp_path):
        plain = load_config(tanh_conf).digest
        assert plain == "83c42c617a7a5e17"
        digests = {}
        for k in ("0.1", "0.4"):
            out = tmp_path / f"k{k}"
            assert main(["simulate", "--config", str(tanh_conf), "--k", k,
                         "--out-dir", str(out)]) == 0
            manifest = json.loads(next(out.glob("*/manifest.json")).read_text())
            digests[k] = manifest["config_digest"]
        assert digests["0.1"] != digests["0.4"]
        assert digests["0.1"] == load_config(tanh_conf, {"--k": "0.1"}).digest \
            == load_config(tanh_conf, {"--k": "0.10"}).digest
        # the same computation spelled another way, with a key written at its
        # default, or sent somewhere else is the same run
        spelled = tmp_path / "spelled.conf"
        for text in (TANH_CONF.replace("model.k = 0.25", "model.k = 0.250"),
                     TANH_CONF.replace("tanh(1.0)", "tanh(1)"),
                     TANH_CONF.replace("tanh(1.0)", "tanh(1.0, 1.0)"),
                     TANH_CONF + "model.T = 1.0\n",
                     TANH_CONF + "output.dir = elsewhere\noutput.label = demo\n"):
            spelled.write_text(text)
            assert load_config(spelled, {"--out-dir": str(tmp_path)}).digest == plain
        # a config built in the library is named by the same rule, whatever
        # number types spell its values
        coefs = dict(b=make_coef("tanh", 0.2), sigma=make_coef("constant", 0.5),
                     h=make_coef("tanh", 1.0), f=make_coef("tanh", 1.0))
        for model, n_paths, k_grid in (
                (ModelSpec(**coefs, x0=0.8, T=1.0, k=0.25), 120, (0.0, 0.25)),
                (ModelSpec(**coefs, x0=np.float64(0.8), T=1, k=0.25), np.int64(120),
                 [0, 0.25])):
            built = ExperimentConfig(model=model, n_steps=20, n_paths=n_paths,
                                     n_particles=64, seed=777, k_grid=k_grid,
                                     rule_particles=48, picard_max_iters=6,
                                     picard_tol=np.float64(0.02))
            assert built.digest == plain
        # an integer setting is not truncated, and a bool is not the count 1
        with pytest.raises(InvalidArgumentError, match="n_paths"):
            ExperimentConfig(model=model, n_paths=119.5)
        for name in ("n_steps", "n_paths", "n_particles", "seed", "bsde_degree",
                     "picard_max_iters", "rule_particles"):
            with pytest.raises(InvalidArgumentError, match="not an integer"):
                ExperimentConfig(model=model, **{name: True})

    @pytest.mark.parametrize("name, value", [
        ("n_paths", 1), ("n_particles", 1), ("rule_particles", 1), ("n_steps", 0),
        ("seed", -1), ("bsde_degree", 0), ("picard_max_iters", 0),
        ("picard_tol", 1.5), ("k_grid", (-0.1,)), ("k_grid", ()),
    ])
    def test_library_config_range_checked(self, tanh_conf, name, value):
        # a config built in the library goes through the converters of the
        # config keys, so it refuses what a config line would
        model = load_config(tanh_conf).model
        with pytest.raises(InvalidArgumentError, match="out of range"):
            ExperimentConfig(model=model, **{name: value})

    def test_byte_order_mark_is_not_part_of_a_key(self, tanh_conf, tmp_path):
        p = tmp_path / "bom.conf"
        p.write_text(TANH_CONF[TANH_CONF.index("model.b"):], encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbfmodel.b")
        assert load_config(p).digest == load_config(tanh_conf).digest


def run_cli(*args, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "ambifilter", *args],
                          capture_output=True, text=True, env=env)


def test_library_imports_load_no_scipy():
    # scipy is loaded only by the finite-state oracle's matrix exponential
    code = ("import sys\n"
            "import ambifilter.cli, ambifilter.bsde, ambifilter.minimax, ambifilter.oracles\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


class TestSubcommands:
    def test_simulate_and_filter_schemas(self, tanh_conf, tmp_path):
        cfg = load_config(tanh_conf)
        m1 = run_subcommand("simulate", cfg, run_dir=tmp_path / "sim")
        assert m1.status == "ok"
        header = (tmp_path / "sim" / "paths.csv").read_text().splitlines()[0]
        assert header == "t,path_id,X,Y,M,log_density"
        m2 = run_subcommand("filter", cfg, run_dir=tmp_path / "flt")
        header = (tmp_path / "flt" / "filter_path.csv").read_text().splitlines()[0]
        assert header == "t,X,Y,u,pi_h,nu,ess"
        manifest = json.loads((tmp_path / "flt" / "manifest.json").read_text())
        assert sorted(manifest) == ["artifacts", "command", "config_digest",
                                    "cpu_clock_s", "error", "extras",
                                    "fp_warnings", "minor_faults", "peak_rss_mb",
                                    "seed", "status", "version", "wall_clock_s"]
        assert manifest["status"] == "ok" and manifest["artifacts"]
        assert math.isfinite(manifest["cpu_clock_s"]) and manifest["cpu_clock_s"] >= 0
        assert math.isfinite(manifest["peak_rss_mb"]) and manifest["peak_rss_mb"] > 0
        assert type(manifest["minor_faults"]) is int and manifest["minor_faults"] >= 0

    def test_worst_case_schema(self, tanh_conf, tmp_path):
        cfg = load_config(tanh_conf)
        run_subcommand("worst-case", cfg, run_dir=tmp_path / "wc")
        lines = (tmp_path / "wc" / "worst_case.csv").read_text().splitlines()
        assert lines[0] == "k,J_bsde,J_grid,se_grid,rel_diff"
        assert len(lines) == 3  # two k values

    def test_picard_k0_manifest(self, tanh_conf, tmp_path):
        cfg = load_config(tanh_conf, {"--k": 0.0})
        run_subcommand("picard", cfg, run_dir=tmp_path / "pc")
        manifest = json.loads((tmp_path / "pc" / "manifest.json").read_text())
        assert manifest["extras"]["converged"] is True
        assert manifest["extras"]["iterations"] == 1
        lines = (tmp_path / "pc" / "picard.csv").read_text().splitlines()
        assert lines[0] == "iter,J,sign_agreement"
        saddle = (tmp_path / "pc" / "saddle.csv").read_text().splitlines()
        assert saddle[0] == "probe_kind,probe_id,J,se"
        # at k = 0 theta = 0 is the only policy: no worst-value row
        assert [r.split(",")[0] for r in saddle[1:]] == ["saddle"] + ["control_shift"] * 4

    def test_picard_filters_each_sample_once(self, tanh_conf, tmp_path, monkeypatch):
        # one bank per iteration and one on theta*'s paths for the saddle row,
        # every control shift and, at k > 0, u*'s worst value, which is solved
        # on those paths with no bank of its own; a k = 0 run iterates nothing
        # and has no worst-value row
        banks = []
        for mod in (bsde, minimax):
            def counting(*args, _bank=mod.run_filter_bank, **kwargs):
                banks.append(args[1])
                return _bank(*args, **kwargs)
            monkeypatch.setattr(mod, "run_filter_bank", counting)
        m = run_subcommand("picard", load_config(tanh_conf), run_dir=tmp_path / "pc")
        assert m.extras["iterations"] >= 2
        assert len(banks) == m.extras["iterations"] + 1
        saddle = (tmp_path / "pc" / "saddle.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in saddle[1:3]] == [["saddle", "ustar_thetastar"],
                                                           ["worst_value", "ustar"]]
        assert len(saddle) == 1 + 6
        banks.clear()
        run_subcommand("picard", load_config(tanh_conf, {"--k": 0.0}),
                       run_dir=tmp_path / "pc0")
        assert len(banks) == 1

    def test_minimax_gap_weak_duality(self, tanh_conf, tmp_path):
        cfg = load_config(tanh_conf)
        m = run_subcommand("minimax-gap", cfg, run_dir=tmp_path / "mm")
        assert m.extras["min_sup"] >= m.extras["sup_min"]
        lines = (tmp_path / "mm" / "saddle.csv").read_text().splitlines()
        assert lines[0] == "probe_kind,probe_id,J,se"
        assert len(lines) == 1 + 25

    def test_oracle_check_kalman(self, linear_conf, tmp_path):
        cfg = load_config(linear_conf)
        m = run_subcommand("oracle-check", cfg, run_dir=tmp_path / "oc")
        assert m.extras["oracle"] == "kalman_bucy"
        assert m.extras["rmse"] <= 0.05
        lines = (tmp_path / "oc" / "oracle_check.csv").read_text().splitlines()
        assert lines[0] == "t,u_particle,u_oracle,abs_err"

    def test_oracle_check_finite(self, tanh_conf, tmp_path):
        cfg = load_config(tanh_conf)
        m = run_subcommand("oracle-check", cfg, run_dir=tmp_path / "ocf")
        assert m.extras["oracle"] == "finite_signal"

    def test_oracle_check_constant_drift_and_target(self, tmp_path):
        # constant b and f reach the finite-state surrogate as numbers
        conf = tmp_path / "const.conf"
        conf.write_text(TANH_CONF.replace("model.b = tanh(0.2)", "model.b = constant(0.3)")
                        .replace("model.f = tanh(1.0)", "model.f = constant(1.4)"))
        m = run_subcommand("oracle-check", load_config(conf), run_dir=tmp_path / "occ")
        assert m.status == "ok" and m.extras["oracle"] == "finite_signal"
        rows = np.genfromtxt(tmp_path / "occ" / "oracle_check.csv", delimiter=",",
                             skip_header=1)
        assert rows.shape == (21, 4) and np.isfinite(rows).all()

    def test_oracle_check_kalman_reads_affine_forms(self, linear_conf, tmp_path):
        # a constant sigma spelled linear(1.0, 0.0) is the same Kalman-Bucy model
        conf = tmp_path / "affine.conf"
        conf.write_text(LINEAR_CONF.replace("model.sigma = constant(1.0)",
                                            "model.sigma = linear(1.0, 0.0)"))
        runs = {}
        for name, p in (("constant", linear_conf), ("affine", conf)):
            out = tmp_path / name
            assert main(["oracle-check", "--config", str(p), "--out-dir", str(out)]) == 0
            runs[name] = next(out.glob("*/oracle_check.csv")).read_bytes()
        assert runs["affine"] == runs["constant"]
        # b and h need zero intercepts
        conf.write_text(LINEAR_CONF.replace("model.b = constant(0.0)",
                                            "model.b = linear(0.5, 0.0)"))
        with pytest.raises(ConfigError, match="zero intercepts"):
            run_subcommand("oracle-check", load_config(conf), run_dir=tmp_path / "b")

    def test_filter_csv_matches_kalman_oracle(self, linear_conf, tmp_path):
        cfg = load_config(linear_conf)
        run_subcommand("filter", cfg, run_dir=tmp_path / "fk")
        rows = np.genfromtxt(tmp_path / "fk" / "filter_path.csv", delimiter=",",
                             names=True)
        grid = build_time_grid(1.0, 100)
        kb, _ = kalman_bucy(LinearGaussianSpec(0.0, 1.0, 1.0, 0.0, 1.0),
                            rows["Y"], grid)
        assert np.sqrt(np.mean((rows["u"] - kb) ** 2)) <= 0.05

    def test_failure_writes_manifest(self, tmp_path):
        conf = tmp_path / "tiny.conf"
        conf.write_text(TANH_CONF.replace("mc.n_paths = 120", "mc.n_paths = 30"))
        cfg = load_config(conf)
        with pytest.raises(Exception):
            run_subcommand("worst-case", cfg, run_dir=tmp_path / "fail")
        manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert "IllConditionedBasis" in manifest["error"]
        assert math.isfinite(manifest["cpu_clock_s"]) and manifest["cpu_clock_s"] >= 0
        assert math.isfinite(manifest["peak_rss_mb"]) and manifest["peak_rss_mb"] > 0
        assert type(manifest["minor_faults"]) is int and manifest["minor_faults"] >= 0

    def test_foreign_exception_recorded_in_manifest(self, tanh_conf, tmp_path,
                                                    monkeypatch):
        def crash(config):
            raise ValueError("boom")
        monkeypatch.setitem(cli._DISPATCH, "simulate", (crash, ("paths.csv",)))
        with pytest.raises(ValueError):
            run_subcommand("simulate", load_config(tanh_conf),
                           run_dir=tmp_path / "crash")
        manifest = json.loads((tmp_path / "crash" / "manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"] == "ValueError: boom"

    def test_failed_run_leaves_only_manifest(self, tanh_conf, tmp_path, monkeypatch):
        # picard's own table is done when its saddle check fails; no CSV is
        # written until the whole computation has succeeded, and a rerun
        # first removes an earlier run's manifest and CSVs, but no other file
        config = load_config(tanh_conf, {"--k": 0.0})
        run_dir = tmp_path / "pc"
        run_subcommand("picard", config, run_dir=run_dir)
        (run_dir / "notes.txt").write_text("the user's own file")
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "manifest.json", "notes.txt", "picard.csv", "saddle.csv"]

        def degenerate(*args, **kwargs):
            raise DegenerateCloudError("total particle mass underflowed")
        monkeypatch.setattr(cli, "saddle_probes", degenerate)
        with pytest.raises(DegenerateCloudError):
            run_subcommand("picard", config, run_dir=run_dir)
        assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "notes.txt"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "error" and manifest["artifacts"] == []


class TestExitCodes:
    def test_config_error_is_1(self, tmp_path):
        p = tmp_path / "bad.conf"
        p.write_text("model.b = tanh(0.2)\n")
        r = run_cli("filter", "--config", str(p))
        assert r.returncode == 1 and "config error" in r.stderr

    def test_negative_seed_flag_is_1(self, tanh_conf, tmp_path):
        r = run_cli("filter", "--config", str(tanh_conf), "--seed", "-1",
                    "--out-dir", str(tmp_path / "o1"))
        assert r.returncode == 1 and "Traceback" not in r.stderr
        (line,) = r.stderr.splitlines()
        assert line.startswith("config error: --seed: ") and "mc.seed" in line

    def test_uncreatable_out_dir_is_1(self, tanh_conf, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        r = run_cli("filter", "--config", str(tanh_conf), "--out-dir", str(blocker))
        assert r.returncode == 1 and "Traceback" not in r.stderr
        (line,) = r.stderr.splitlines()
        assert line.startswith("config error: output.dir: ")

    def test_numerical_failure_is_2(self, tanh_conf, tmp_path):
        r = run_cli("worst-case", "--config", str(tanh_conf), "--n-paths", "30",
                    "--out-dir", str(tmp_path / "o2"))
        assert r.returncode == 2

    def test_picard_below_path_floor_is_2(self, tanh_conf, tmp_path, capsys, monkeypatch):
        # at k > 0 the saddle check's worst-value solve needs 100 paths, and
        # the run says so before any filter bank
        for module in (bsde, minimax):
            monkeypatch.setattr(module, "run_filter_bank",
                                lambda *a, **kw: pytest.fail("a filter bank ran"))
        out = tmp_path / "floor"
        code = main(["picard", "--config", str(tanh_conf), "--n-paths", "99",
                     "--out-dir", str(out)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("numerical failure: solve_worst_value: basis has 10 "
                               "features for 99 paths")
        manifest = json.loads(next(out.glob("*/manifest.json")).read_text())
        assert manifest["status"] == "error" and manifest["artifacts"] == []

    def test_nonconvergence_is_3(self, tanh_conf, tmp_path):
        conf = tanh_conf.read_text().replace("picard.max_iters = 6",
                                             "picard.max_iters = 1")
        p = tanh_conf.parent / "short.conf"
        p.write_text(conf)
        r = run_cli("picard", "--config", str(p), "--out-dir",
                    str(tmp_path / "o3"))
        assert r.returncode == 3

    def test_non_finite_x0_is_config_error(self, tanh_conf, tmp_path):
        for x0 in ("nan", "inf"):
            text = TANH_CONF.replace("model.x0 = 0.8", f"model.x0 = {x0}")
            lineno = text.splitlines().index(f"model.x0 = {x0}") + 1
            p = tanh_conf.parent / f"{x0}.conf"
            p.write_text(text)
            for cmd in ("filter", "worst-case", "simulate", "oracle-check"):
                out = tmp_path / f"{cmd}-{x0}"
                r = run_cli(cmd, "--config", str(p), "--out-dir", str(out))
                assert r.returncode == 1 and "Traceback" not in r.stderr
                (line,) = r.stderr.splitlines()
                assert line.startswith(f"config error: line {lineno}: model.x0: ")
                assert not out.exists()

    def test_overflowing_features_is_2(self, tanh_conf, tmp_path):
        # x0 = 1e308 is finite, but the cubic regression features overflow
        p = tanh_conf.parent / "huge.conf"
        p.write_text(tanh_conf.read_text().replace("model.x0 = 0.8",
                                                   "model.x0 = 1e308"))
        out = tmp_path / "huge"
        r = run_cli("worst-case", "--config", str(p), "--out-dir", str(out))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr and "numerical failure" in r.stderr
        manifest = json.loads(next(out.glob("*/manifest.json")).read_text())
        assert manifest["status"] == "error"

    @pytest.mark.parametrize("args", [
        ["bogus", "--config", "{conf}"],
        ["filter"],
        ["filter", "--config", "{conf}", "--seed", "abc"],
        ["filter", "--config", "{conf}", "--seed", "1.5"],
        ["filter", "--config", "{conf}", "--n-paths", "x"],
        ["filter", "--config", "{conf}", "--k", "nan"],
    ], ids=["unknown-subcommand", "no-config", "seed-abc", "seed-float",
            "n-paths-x", "k-nan"])
    def test_usage_error_is_1(self, tanh_conf, tmp_path, args):
        r = run_cli(*(a.format(conf=tanh_conf) for a in args),
                    "--out-dir", str(tmp_path / "o"))
        assert r.returncode == 1 and "Traceback" not in r.stderr
        (line,) = r.stderr.splitlines()
        assert line.startswith("config error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [["worst-case"], ["picard", "--k", "0.1"]],
                             ids=["worst-case", "picard-k"])
    def test_unbounded_presets_are_config_error(self, linear_conf, tmp_path, args):
        # identity h and f are unbounded: refused before the run, not inside it
        out = tmp_path / "o"
        r = run_cli(args[0], "--config", str(linear_conf), *args[1:],
                    "--out-dir", str(out))
        assert r.returncode == 1 and "Traceback" not in r.stderr
        (line,) = r.stderr.splitlines()
        assert line.startswith("config error: ")
        manifest = json.loads(next(out.glob("*/manifest.json")).read_text())
        assert manifest["status"] == "error"
        assert manifest["error"].startswith("ConfigError: ")

    def test_help_is_0(self):
        r = run_cli("--help")
        assert r.returncode == 0, r.stderr
        for cmd in ("simulate", "filter", "worst-case", "picard", "minimax-gap",
                    "oracle-check"):
            assert cmd in r.stdout

    def test_success_is_0(self, tanh_conf, tmp_path):
        r = run_cli("filter", "--config", str(tanh_conf), "--out-dir",
                    str(tmp_path / "o0"))
        assert r.returncode == 0


class TestDeterminism:
    def test_rerun_byte_identical(self, tanh_conf, tmp_path):
        # worst-case and picard reuse one noise draw across calls; a fresh
        # interpreter (nothing drawn yet) must write what the in-process
        # reruns write
        cfg = load_config(tanh_conf)
        for cmd in ("simulate", "filter", "worst-case", "picard"):
            d1, d2 = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
            run_subcommand(cmd, cfg, run_dir=d1)
            run_subcommand(cmd, cfg, run_dir=d2)
            csvs = sorted(d1.glob("*.csv"))
            assert csvs
            for f1 in csvs:
                assert f1.read_bytes() == (d2 / f1.name).read_bytes()
            if cmd in ("worst-case", "picard"):
                cold = tmp_path / f"{cmd}-cold"
                r = run_cli(cmd, "--config", str(tanh_conf), "--out-dir", str(cold))
                assert r.returncode in (0, 3), r.stderr
                for f1 in csvs:
                    f3 = next(cold.glob(f"*/{f1.name}"))
                    assert f1.read_bytes() == f3.read_bytes()

    def test_worst_case_identical_across_blas_threads(self, tanh_conf, tmp_path):
        # The regression designs are past OpenBLAS's threading threshold
        # (rows x columns > 8192): 1000 paths x 10 poly_xu features in
        # worst-case, 2000 paths x 6 poly_xm features in the picard adjoint.
        # fit_ridge factors them in row blocks below that threshold, so the
        # QR no longer changes code path with the thread count; the products
        # on the full designs and the filter banks still run under both
        # settings, and the CSV bytes must not depend on them (few steps and
        # iterations keep it short; three iterations end in the
        # non-convergence exit)
        runs = {
            "worst-case": ((("grid.n_steps = 20", "grid.n_steps = 8"),
                            ("mc.n_paths = 120", "mc.n_paths = 1000"),
                            ("worst_case.k_grid = 0.0,0.25", "worst_case.k_grid = 0.25"),
                            ("worst_case.rule_particles = 48",
                             "worst_case.rule_particles = 8")),
                           ("worst_case.csv",), 0),
            "picard": ((("grid.n_steps = 20", "grid.n_steps = 6"),
                        ("mc.n_paths = 120", "mc.n_paths = 2000"),
                        ("mc.n_particles = 64", "mc.n_particles = 8"),
                        ("worst_case.rule_particles = 48",
                         "worst_case.rule_particles = 8"),
                        ("picard.max_iters = 6", "picard.max_iters = 3")),
                       ("picard.csv", "saddle.csv"), 3),
        }
        for cmd, (edits, names, code) in runs.items():
            conf = tanh_conf.read_text()
            for a, b in edits:
                conf = conf.replace(a, b)
            p = tmp_path / f"{cmd}.conf"
            p.write_text(conf)
            bodies = []
            for threads in ("1", "2"):
                out = tmp_path / f"{cmd}-threads-{threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
                r = run_cli(cmd, "--config", str(p), "--out-dir", str(out), env=env)
                assert r.returncode == code, r.stderr
                bodies.append([next(out.glob(f"*/{name}")).read_bytes()
                               for name in names])
            assert bodies[0] == bodies[1], cmd


# sha256 of every CSV body and of the manifest extras (sorted-key JSON) that
# each subcommand writes for TANH_CONF and LINEAR_CONF. A change that moves an
# output on purpose updates its entry and names the artifact in CHANGES.md.
# worst-case refuses the unbounded linear model, so that run writes no CSV
# and its extras are empty.
PINNED_OUTPUTS = {
    ("tanh", "simulate"): {
        "paths.csv":
            "b41895b2cc2966ec83ce7d9115b94bb46bd6e4cc9f1cc60b29f12e585635b9b7",
        "extras":
            "f012237e692969a6ffff370a6435ff2dd7b23c71e748b9d463e5a268c7fc10fe",
    },
    ("tanh", "filter"): {
        "filter_path.csv":
            "9e7ebf41e4f2247a47e2c73b25217ebc2bfd1821ecbcff7b9876f3acd3d09465",
        "extras":
            "c96ff6faaea65e1701011cab8ad59c66562ccc2549c0f3f48e7f60f2ac31dcde",
    },
    ("tanh", "worst-case"): {
        "worst_case.csv":
            "b8be4c77aff8e2ac6eb7597176e2fb12d8f9ad6e17f213a29584db80a9e75808",
        "extras":
            "255d20478330dde98fd4283017e198d68c8f3c0922e5e338d537d126b85d4839",
    },
    ("tanh", "picard"): {
        "picard.csv":
            "a912e421fd2832a87539c1334590031ac800e9e0a1afda28fb572b171efdf4b2",
        "saddle.csv":
            "8674b0005dfed619034d3a27e4b33aa0c7268955f270cd344ac10ad3a0f34b4e",
        "extras":
            "da4cd2f0d3cc77b9bdb4a9d3f5b592120162bd221a60270d5013228e51a52249",
    },
    ("tanh", "minimax-gap"): {
        "saddle.csv":
            "1a14101424e72d023a4174c4779d8fc798bad43fecd6932612a65ec78b737376",
        "extras":
            "4bb761a80566a730f80b5b32f677584fbb6bb6462adc7d03e3df1ee5b07d1469",
    },
    ("tanh", "oracle-check"): {
        "oracle_check.csv":
            "66a251f49d6a78f560c4b63b4c55c93b51b2ee6aae60f8a4245db7b76f95a01f",
        "extras":
            "c721d478ec9b82619fcf89698ef17c3c75e31c516a56f79fdba1de2258ca01a6",
    },
    ("linear", "simulate"): {
        "paths.csv":
            "96edfe79fc5bd7259ccf3e6a123d69bcf37f707a17bf6ff12416e74c540b393d",
        "extras":
            "b3d56da152ab874d4242fe578309212d091ffc76a6637ebd4bdedc94edd93a85",
    },
    ("linear", "filter"): {
        "filter_path.csv":
            "1e99b87517f455b2247cb3f8f4412d889e20c344507a6f753231eb267f248664",
        "extras":
            "3e1f619c52c072e180c55db2db8556ecfc1f8d2b7fe397abadf61a2f2dc57e3e",
    },
    ("linear", "worst-case"): {
        "extras":
            "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
    },
    ("linear", "picard"): {
        "picard.csv":
            "91af2e56b8d98023e84619c3635a0ae3406fc581da60a99cba0644774e5d436b",
        "saddle.csv":
            "a8055e897e8170ba16bfdeda92ab72acd45a12ff1dd6bc99419934ddd10cb6ac",
        "extras":
            "c83cb5640073b80db163c6b0092426046171c7a7053d83943370645a6258b103",
    },
    ("linear", "minimax-gap"): {
        "saddle.csv":
            "3a5552401abaf7e7c29d59bd6a5eb46c8405cefef3beb04512b0a5af88fe9f70",
        "extras":
            "6f067e4bd191d75871bbab592bd75cf39c9410b90f43ab91daa4477839325340",
    },
    ("linear", "oracle-check"): {
        "oracle_check.csv":
            "c0212d065092fbe8d086e55e0e7c01a7bcee5c1eb15a8345aac0bd61781aae03",
        "extras":
            "7abf0210d72310bc273bd58b5b7b73052b2a98fdc0eadb5519254c0d754897af",
    },
}


def readme_csv_columns() -> dict:
    """(subcommand, file) -> header line, from README's "CSV artifacts" table."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### CSV artifacts", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\|\s*([\w-]+)\s*\|\s*([\w.]+)\s*\|\s*`([^`]*)`", table,
                      flags=re.M)
    return {(cmd, name): columns for cmd, name, columns in rows}


def run_pinned(tmp_path: Path, name: str, cmd: str) -> tuple[dict, Path]:
    """One pinned run in a directory of its own under tmp_path: the sha256 of
    each CSV body and of the manifest extras, and the run directory."""
    conf = tmp_path / f"{name}.conf"
    conf.write_text({"tanh": TANH_CONF, "linear": LINEAR_CONF}[name], encoding="utf-8")
    run_dir = tmp_path / f"{name}-{cmd}"
    try:
        run_subcommand(cmd, load_config(conf), run_dir=run_dir)
    except ConfigError:
        assert (name, cmd) == ("linear", "worst-case")
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(run_dir.glob("*.csv"))}
    got["extras"] = hashlib.sha256(
        json.dumps(manifest["extras"], sort_keys=True).encode()).hexdigest()
    return got, run_dir


@pytest.mark.parametrize("name,cmd", list(PINNED_OUTPUTS))
def test_outputs_match_pinned_digests(tmp_path, name, cmd):
    got, run_dir = run_pinned(tmp_path, name, cmd)
    assert got == PINNED_OUTPUTS[name, cmd]
    # each CSV opens with the columns README documents for it
    headers = {p.name: p.read_text(encoding="utf-8").split("\n", 1)[0]
               for p in run_dir.glob("*.csv")}
    documented = {f: cols for (c, f), cols in readme_csv_columns().items() if c == cmd}
    assert headers == ({} if (name, cmd) == ("linear", "worst-case") else documented)


# every pinned run, in one fresh interpreter: argv is this directory and an
# empty directory for the runs; prints the digests as one JSON line
PINNED_RUNS_SCRIPT = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import test_cli
print(json.dumps([test_cli.run_pinned(Path(sys.argv[2]), name, cmd)[0]
                  for name, cmd in test_cli.PINNED_OUTPUTS]))
"""


def test_outputs_identical_across_blas_threads(tmp_path):
    # the same bytes, the pinned ones, under one and two OpenBLAS threads;
    # both interpreters run at once
    procs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", PINNED_RUNS_SCRIPT, str(Path(__file__).parent),
             str(out)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
    for threads, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, stderr
        got = json.loads(stdout.splitlines()[-1])
        assert got == list(PINNED_OUTPUTS.values()), f"OPENBLAS_NUM_THREADS={threads}"


EDGE_CONF = """
model.b = tanh(0.2)
model.sigma = constant(0.5)
model.h = tanh(1.0)
model.f = tanh(1.0)
model.x0 = 0.8
model.k = 0.25
model.T = 1.0
grid.n_steps = 4
mc.n_paths = 40
mc.n_particles = 8
mc.seed = 5
bsde.degree = 1
worst_case.k_grid = 0.25
worst_case.rule_particles = 4
"""


@pytest.mark.parametrize("cmd", ["simulate", "filter", "worst-case"])
@pytest.mark.parametrize("key", ["model.x0", "model.k", "model.T",
                                 "worst_case.k_grid"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e308", "-0.1"])
def test_edge_values_keep_exit_contract(tmp_path, capsys, cmd, key, value):
    """Bad values end in a documented exit code, never an escaping
    exception, and a manifest says ok exactly when the run succeeded."""
    check_edge_run(tmp_path / "out", cmd, {key: value})


def run_edge(out, cmd, values):
    """Run `cmd` in-process on EDGE_CONF with the `key = value` lines of
    `values` replaced; returns the exit code."""
    lines = EDGE_CONF.splitlines()
    for key, value in values.items():
        lines = [f"{key} = {value}" if ln.startswith(key + " =") else ln
                 for ln in lines]
    out.mkdir(parents=True, exist_ok=True)
    p = out / "edge.conf"
    p.write_text("\n".join(lines))
    return main([cmd, "--config", str(p), "--out-dir", str(out)])


def check_edge_run(out, cmd, values):
    """The exit contract: a documented code, a manifest that says ok exactly
    when the run succeeded, and finite numbers only in a successful run;
    returns the exit code."""
    code = run_edge(out, cmd, values)
    assert code in (0, 1, 2)
    for manifest in out.glob("*/manifest.json"):
        status = json.loads(manifest.read_text())["status"]
        assert (status == "ok") == (code == 0)
    if code == 0:
        for csv in out.glob("*/*.csv"):
            body = np.genfromtxt(csv, delimiter=",", skip_header=1)
            assert np.isfinite(body).all(), csv.name
    return code


@pytest.mark.parametrize("cmd,values", [
    ("minimax-gap", {"mc.n_paths": "1"}),
    ("picard", {"mc.n_paths": "1", "model.k": "0"}),
    ("simulate", {"mc.n_paths": "1"}),
])
def test_single_path_is_config_error(tmp_path, capsys, cmd, values):
    """One path gives a cost without a standard error, so mc.n_paths >= 2."""
    assert check_edge_run(tmp_path / "out", cmd, values) == 1
    assert "mc.n_paths" in capsys.readouterr().err


def test_fp_warnings_go_to_manifest(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        code = run_edge(tmp_path, "worst-case", {"worst_case.k_grid": "1e308"})
    assert code == 2
    assert not [w for w in leaked if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and len(err.splitlines()) == 1
    assert "RuntimeWarning" not in err
    manifest = json.loads(next(tmp_path.glob("*/manifest.json")).read_text())
    messages = [w["message"] for w in manifest["fp_warnings"]]
    assert any("overflow" in m for m in messages)
    assert any("invalid value" in m for m in messages)
    for w in manifest["fp_warnings"]:
        assert w["count"] >= 1 and ".py:" in w["location"]


@pytest.mark.parametrize("cmd", ["simulate", "filter", "picard"])
def test_clean_run_records_no_fp_warnings(tanh_conf, tmp_path, cmd):
    m = run_subcommand(cmd, load_config(tanh_conf), run_dir=tmp_path)
    assert m.status == "ok" and m.fp_warnings == ()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["fp_warnings"] == []


def test_fp_warnings_counted_and_others_reissued(tanh_conf, tmp_path, monkeypatch):
    def noisy(config):
        for _ in range(3):
            warnings.warn("overflow encountered in exp", RuntimeWarning)
        warnings.warn("old option", DeprecationWarning)
        return [], {}
    monkeypatch.setitem(cli._DISPATCH, "simulate", (noisy, ()))
    with pytest.warns(DeprecationWarning, match="old option") as seen:
        m = run_subcommand("simulate", load_config(tanh_conf), run_dir=tmp_path)
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    (entry,) = m.fp_warnings
    assert entry["message"] == "overflow encountered in exp"
    assert entry["count"] == 3 and entry["location"].startswith(__file__ + ":")


# the in-range branch lets runs get past config validation to the solvers
EDGE_FLOATS = st.one_of(st.floats(0.0, 2.0),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([float("nan"), float("inf"), float("-inf")]))


@given(x0=EDGE_FLOATS, k=EDGE_FLOATS, T=EDGE_FLOATS, k_entry=EDGE_FLOATS)
def test_random_edge_values_keep_exit_contract(tmp_path_factory, x0, k, T, k_entry):
    """Any float in the model and radius keys keeps the exit contract."""
    values = {"model.x0": repr(x0), "model.k": repr(k), "model.T": repr(T),
              "worst_case.k_grid": repr(k_entry)}
    for cmd in ("simulate", "filter", "worst-case"):
        check_edge_run(tmp_path_factory.mktemp("edge"), cmd, values)
