import json
import re
from pathlib import Path

import numpy as np
import pytest

from fk_thermo import __version__
from fk_thermo.cli import main, run_verify
from fk_thermo.config import ConfigError, parse_config
from fk_thermo.serialize import write_csv, write_json

MINIMAL = """
[grid]
n = 256

[potential]
harmonics = [[1, 1, 0]]
"""

# Every key set to a value other than its default.
NON_DEFAULT = """
[grid]
n = 16
[potential]
constant = 0.25
harmonics = [[1, 0.5, 0], [3, 0, 0.25]]
csv = pot.csv
[run]
t = 0.25
dt = 0.002
T = 0.5
paths = 300
seed = 7
K = 3
lr = 0.1
iters = 7
bins = 8
x = 0.4
method = mc
init = point:0.125
drift = g-spec
out = meta_out
save_paths = 1
[g]
constant = 0.5
harmonics = [[2, 0.1, 0.2]]
csv = g.csv
use = doob
"""


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config(MINIMAL)
        assert cfg.n == 256
        assert cfg.dt == 1e-3
        assert cfg.seed == 42
        assert cfg.bins == 64
        assert cfg.potential_harmonics == ((1, 1.0, 0.0),)
        assert cfg.method == "pde"

    def test_empty_config_is_all_defaults(self):
        cfg = parse_config("")
        assert cfg.n == 512
        assert cfg.potential_harmonics == ()
        assert cfg.potential_constant == 0.0

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\n[grid]\nn = 128  # trailing comment\n"
        assert parse_config(text).n == 128

    def test_odd_n_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            parse_config("[grid]\nn = 255\n")

    def test_duplicate_key_cites_second_line(self):
        text = "[grid]\nn = 128\nn = 256\n"
        with pytest.raises(ConfigError, match="line 3.*duplicate"):
            parse_config(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\nfoo = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[grid]\nm = 12\n")

    def test_entry_before_section_rejected(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config("n = 12\n")

    def test_malformed_line_cites_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[grid]\nnonsense\n")

    def test_alias_validation(self):
        with pytest.raises(ConfigError, match="alias"):
            parse_config("[grid]\nn = 8\n[potential]\nharmonics = [[4, 1, 0]]\n")

    def test_overrides_win(self):
        cfg = parse_config(MINIMAL, overrides=["--grid.n=512", "--run.seed=7"])
        assert cfg.n == 512
        assert cfg.seed == 7

    def test_bad_override(self):
        with pytest.raises(ConfigError, match="override"):
            parse_config(MINIMAL, overrides=["--grid.n"])
        with pytest.raises(ConfigError, match="override"):
            parse_config(MINIMAL, overrides=["--nope.n=3"])

    def test_bad_types(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config("[grid]\nn = 12.5\n")
        with pytest.raises(ConfigError, match="number"):
            parse_config("[run]\ndt = fast\n")

    def test_init_and_drift_grammar(self):
        with pytest.raises(ConfigError, match="init"):
            parse_config("[run]\ninit = everywhere\n")
        with pytest.raises(ConfigError, match="drift"):
            parse_config("[run]\ndrift = strange\n")
        cfg = parse_config("[run]\ninit = point:0.125\ndrift = g-spec\n")
        assert cfg.init == "point:0.125"

    @pytest.mark.parametrize("override, key", [
        ("--run.t=inf", "run.t"),
        ("--run.dt=nan", "run.dt"),
        ("--run.T=inf", "run.T"),
        ("--run.lr=inf", "run.lr"),
        ("--run.x=nan", "run.x"),
        ("--potential.constant=-inf", "potential.constant"),
        ("--g.constant=1e999", "g.constant"),
        ("--potential.harmonics=[[1,1e999,0]]", "potential.harmonics"),
        ("--g.harmonics=[[1,0,-1e999]]", "g.harmonics"),
        ("--run.init=point:nan", "run.init"),
        ("--run.init=point:inf", "run.init"),
    ])
    def test_non_finite_values_rejected(self, override, key):
        with pytest.raises(ConfigError, match=rf"{re.escape(key)}.*finite"):
            parse_config("", overrides=[override])

    def test_bins_must_divide_n(self):
        with pytest.raises(ConfigError, match="bins"):
            parse_config("[grid]\nn = 256\n[run]\nbins = 100\n")

    def test_readme_example_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        example = parse_config(block).resolved()
        defaults = parse_config("").resolved()
        keys = {(section, key) for section in defaults for key in defaults[section]}
        assert example["potential"].pop("harmonics") == [[1, 1.0, 0.0]]
        defaults["potential"].pop("harmonics")
        assert example == defaults
        # Keys without a printable default (the csv paths) appear commented.
        listed, section = set(), None
        for line in block.splitlines():
            header = re.match(r"\[(\w+)\]", line)
            entry = re.match(r"#?\s*(\w+)\s*=", line)
            if header:
                section = header.group(1)
            elif entry:
                listed.add((section, entry.group(1)))
        assert listed == keys


def write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestCliCommands:
    def test_eigen_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "out"
        code = main(["eigen", "--config", cfg, f"--run.out={out}"])
        assert code == 0
        report = json.loads((out / "eigen.json").read_text())
        assert list(report.keys()) == ["lambda", "gamma", "spectral_gap", "n",
                                       "critical_points_F"]
        assert report["n"] == 256
        assert report["gamma"] == pytest.approx(1.0, abs=1e-12)
        header = (out / "eigen.csv").read_text().splitlines()[0]
        assert header == "x,V,F,density_muV,drift"
        meta = json.loads((out / "meta.json").read_text())
        assert meta["command"] == "eigen"
        assert meta["config"]["grid"]["n"] == 256

    @pytest.mark.parametrize("argv", [
        ["eigen"],
        ["propagate", "--run.method=mc"],
        ["simulate", "--run.T=0.1", "--run.save_paths=1"],
        ["entropy", "--g.use=doob"],
        ["maximize", "--run.K=2", "--run.iters=50"],
        ["verify"],
    ], ids=lambda argv: argv[0])
    def test_outputs_byte_identical_across_runs(self, tmp_path, monkeypatch,
                                                capsys, argv):
        command = argv[0]
        cfg = write_cfg(tmp_path, MINIMAL.replace("n = 256", "n = 128")
                        + "\n[run]\npaths = 300\n")
        outs = []
        for name in ("a", "b"):
            # Same relative run.out in two working directories, so meta.json
            # and the stdout path must match too.
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main([*argv, "--config", cfg, "--run.out=out"]) == 0
            last = capsys.readouterr().out.splitlines()[-1]
            assert last.endswith(f" -> {Path('out') / command}.json")
            files = sorted(Path("out").iterdir())
            assert {"meta.json", f"{command}.json"} <= {f.name for f in files}
            outs.append((last, [(f.name, f.read_bytes()) for f in files]))
        assert outs[0] == outs[1]

    def test_eigen_outputs_byte_identical_across_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["eigen", "--config", cfg, f"--run.out={out}"]) == 0
            outs.append([(out / f).read_bytes() for f in ("eigen.json", "eigen.csv")])
        assert outs[0] == outs[1]

    def test_propagate_pde_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["propagate", "--config", cfg, f"--run.out={out}"]) == 0
        report = json.loads((out / "propagate.json").read_text())
        assert report["method"] == "pde"
        assert (out / "propagate.csv").exists()
        # default test function is the constant 1, so values hover around
        # exp(lambda t) which is > 1 for this potential
        assert report["value"] > 1.0

    def test_propagate_uses_g_section_as_initial_function(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[g]\nconstant = 2.0\n")
        out = tmp_path / "out"
        assert main(["propagate", "--config", cfg, f"--run.out={out}"]) == 0
        report = json.loads((out / "propagate.json").read_text())
        assert report["value"] > 2.0

    def test_simulate_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[run]\npaths = 2000\nT = 0.5\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, f"--run.out={out}"]) == 0
        report = json.loads((out / "simulate.json").read_text())
        assert set(report) == {"tv_distance", "n_paths", "T", "dt"}
        assert report["tv_distance"] < 0.2
        lines = (out / "histogram.csv").read_text().splitlines()
        assert lines[0] == "bin_left,count,empirical_density,target_density"
        assert len(lines) == 65

    def test_simulate_save_paths(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL +
                        "\n[run]\npaths = 5\nT = 0.01\nsave_paths = 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, f"--run.out={out}"]) == 0
        lines = (out / "paths.csv").read_text().splitlines()
        assert lines[0] == "path_id,step,x"
        assert len(lines) == 1 + 5 * 11  # 10 steps + initial position

    def test_entropy_command(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[g]\nuse = doob\n")
        out = tmp_path / "out"
        assert main(["entropy", "--config", cfg, f"--run.out={out}"]) == 0
        report = json.loads((out / "entropy.json").read_text())
        assert list(report) == ["entropy", "mean_potential", "pressure", "gap",
                                "lambda"]
        # at n=256 the two-discretization offset is ~1.3e-6
        assert report["pressure"] == pytest.approx(report["lambda"], abs=5e-6)
        assert report["gap"] == pytest.approx(report["lambda"] - report["pressure"],
                                              abs=1e-12)

    def test_maximize_command(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        "[grid]\nn = 64\n[run]\nK = 2\nlr = 0.1\niters = 5\n")
        out = tmp_path / "out"
        assert main(["maximize", "--config", cfg, f"--run.out={out}"]) == 0
        report = json.loads((out / "maximize.json").read_text())
        assert abs(report["pressure"]) < 1e-6
        assert report["stop"] == "gradient"
        assert report["grad_norm"] < 1e-8
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,value,grad_norm"
        # With a potential the ascent climbs; repeated runs keep every byte.
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["maximize", "--config", cfg, f"--run.out={out}",
                         "--potential.harmonics=[[1, 1, 0]]",
                         "--run.iters=50"]) == 0
            outs.append([(out / f).read_bytes()
                         for f in ("maximize.json", "trace.csv")])
        assert outs[0] == outs[1]
        report = json.loads(outs[0][0])
        assert list(report) == ["entropy", "mean_potential", "pressure", "gap",
                                "lambda", "iterations", "stop", "grad_norm"]
        assert report["stop"] in ("gradient", "flat")
        last = outs[0][1].decode().splitlines()[-1].split(",")
        assert int(last[0]) == report["iterations"]
        assert float(last[2]) == report["grad_norm"]

    def test_meta_json_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["eigen"]) == 0
        assert Path("meta.json").read_text() == (
            '{"command": "eigen", "version": "%s", "config": {'
            '"grid": {"n": 512}, '
            '"potential": {"constant": 0, "harmonics": [], "csv": null}, '
            '"run": {"t": 0.5, "dt": 0.001, "T": 1, "paths": 10000, '
            '"seed": 42, "K": 8, "lr": 0.2, "iters": 500, "bins": 64, '
            '"x": 0.25, "method": "pde", "init": "density:muV", '
            '"drift": "doob", "out": ".", "save_paths": 0}, '
            '"g": {"constant": 0, "harmonics": [], "csv": null, '
            '"use": "spec"}}}\n' % __version__)

        defaults = parse_config("").resolved()
        changed = parse_config(NON_DEFAULT).resolved()
        for section, keys in defaults.items():
            for key, value in keys.items():
                assert changed[section][key] != value, f"{section}.{key}"
        Path("pot.csv").write_text("x,value\n" + "".join(
            f"{i / 16!r},{float(np.cos(np.pi * i / 8))!r}\n" for i in range(16)))
        Path("run.cfg").write_text(NON_DEFAULT)
        assert main(["eigen", "--config", "run.cfg"]) == 0
        assert Path("meta_out/meta.json").read_text() == (
            '{"command": "eigen", "version": "%s", "config": {'
            '"grid": {"n": 16}, '
            '"potential": {"constant": 0.25, '
            '"harmonics": [[1, 0.5, 0], [3, 0, 0.25]], "csv": "pot.csv"}, '
            '"run": {"t": 0.25, "dt": 0.002, "T": 0.5, "paths": 300, '
            '"seed": 7, "K": 3, "lr": 0.1, "iters": 7, "bins": 8, '
            '"x": 0.4, "method": "mc", "init": "point:0.125", '
            '"drift": "g-spec", "out": "meta_out", "save_paths": 1}, '
            '"g": {"constant": 0.5, "harmonics": [[2, 0.1, 0.2]], '
            '"csv": "g.csv", "use": "doob"}}}\n' % __version__)

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "[grid]\nn = 255\n")
        assert main(["eigen", "--config", cfg]) == 2

    def test_missing_config_file_exit_code(self):
        assert main(["eigen", "--config", "/nonexistent/run.cfg"]) == 2

    @pytest.mark.parametrize("body, line", [
        ("0.0\n", 2),
        ("0.0,1.0\n0.015625,abc\n", 3),
        ("0.0,1.0,7\n", 2),
        ("0.0,1.0\n0.015625,1.0\nnan,1.0\n", 4),
    ], ids=["short_row", "non_numeric", "three_columns", "nan_x"])
    def test_malformed_csv_row_cites_path_and_line(self, tmp_path, capsys,
                                                   body, line):
        path = tmp_path / "short.csv"
        path.write_text("x,value\n" + body)
        assert main(["eigen", "--grid.n=64", f"--potential.csv={path}",
                     f"--run.out={tmp_path / 'out'}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"{path}: line {line}: " in err[0]
        # meta.json is written before the command runs, so it echoes the
        # config of the failed run.
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["config"]["potential"]["csv"] == str(path)

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL.replace("n = 256", "n = 128"))
        out = tmp_path / "out"
        assert main(["maximize", "--config", cfg, f"--run.out={out}",
                     "--run.iters=7"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fk-thermo: NonConvergence: ")


class TestSerialize:
    def test_unserializable_json_leaves_no_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="non-finite"):
            write_json(path, {"v": float("nan")})
        assert not path.exists()

    def test_unserializable_csv_leaves_no_file(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(path, ["x", "v"], [[0.0, 0.5], [1.0, float("nan")]])
        assert not path.exists()


class TestVerify:
    def test_battery_passes(self, tmp_path):
        cfg = parse_config(MINIMAL + "\n[run]\npaths = 2000\n")
        code, checks = run_verify(cfg)
        assert code == 0
        assert {c["name"] for c in checks} == {
            "eigen_shift_lambda", "eigen_shift_vector", "selfadjoint_residual",
            "stochastic_unit", "gibbs_stationarity", "entropy_sign",
            "pressure_decomposition", "martingale_mean",
        }
        assert all(c["pass"] for c in checks)

    def test_fault_injection_fails_decomposition(self, tmp_path):
        cfg = parse_config(MINIMAL + "\n[run]\npaths = 2000\n")
        code, checks = run_verify(cfg, perturb_eigenvalue=1e-3)
        assert code == 1
        by_name = {c["name"]: c for c in checks}
        assert not by_name["pressure_decomposition"]["pass"]

    def test_coarse_grid_battery_passes(self):
        # At 64 nodes verify's drifts shrink, so e^{2g} stays resolved and
        # the entropy cross-check keeps its 1e-9.
        cfg = parse_config(MINIMAL + "\n[run]\npaths = 2000\n",
                           overrides=["--grid.n=64"])
        assert cfg.build_grid().n == 64
        code, checks = run_verify(cfg)
        assert code == 0

    @pytest.mark.parametrize("n", [8, 16])
    def test_fine_harmonics_dropped_on_small_grids(self, n):
        # Below 32 nodes verify draws wavenumbers up to n/8 only: k = 4
        # aliases at n=8 and leaves the entropy forms 1e-4 apart at n=16.
        cfg = parse_config(MINIMAL + "\n[run]\npaths = 200\nbins = 2\nK = 1\n",
                           overrides=[f"--grid.n={n}"])
        code, checks = run_verify(cfg)
        assert code == 0
        assert all(c["pass"] for c in checks)

    @pytest.mark.parametrize("fault", ["1e-6", "=-1e-6"])
    def test_small_eigenvalue_faults_exit_1(self, tmp_path, fault):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[run]\npaths = 2000\n")
        out = tmp_path / "out"
        flag = (["--perturb-eigenvalue" + fault] if fault.startswith("=")
                else ["--perturb-eigenvalue", fault])
        assert main(["verify", "--config", cfg, f"--run.out={out}", *flag]) == 1
        by_name = {c["name"]: c for c in
                   json.loads((out / "verify.json").read_text())["checks"]}
        assert not by_name["pressure_decomposition"]["pass"]
        assert [c["name"] for c in by_name.values() if not c["pass"]] == [
            "pressure_decomposition"]

    def test_cli_exit_codes(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[run]\npaths = 1000\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, f"--run.out={out}"]) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["exit_code"] == 0
        assert all(set(c) == {"name", "value", "tolerance", "pass"}
                   for c in payload["checks"])
        out2 = tmp_path / "out2"
        assert main(["verify", "--config", cfg, f"--run.out={out2}",
                     "--perturb-eigenvalue", "1e-3"]) == 1
