import errno
import json
import os
import re
import warnings
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import fk_thermo.mc as mc
from fk_thermo import __version__, cli, serialize
from fk_thermo.cli import main, run_verify
from fk_thermo.config import _SCHEMA, ConfigError, parse_config
from fk_thermo.grid import HarmonicSpec, function_from_csv, make_grid
from fk_thermo.serialize import _BLOCK_ROWS, format_number, write_csv, write_json
from fk_thermo.spectral import NumericalFailure, _CyclicLU

from oracles import dense_semigroup, fd_operator

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

# At least one fault per _SCHEMA row that carries a rule, with the message
# each rule gave when it was written out by hand in the validator.
RULE_FAULTS = [
    ("--run.t=0", "run.t must be positive, got 0.0"),
    ("--run.dt=-1", "run.dt must be positive, got -1.0"),
    ("--run.T=-2.5", "run.T must be positive, got -2.5"),
    ("--run.paths=0", "run.paths must be a positive integer, got 0"),
    ("--run.seed=-1", "run.seed must fit in uint64, got -1"),
    ("--run.seed=18446744073709551616",
     "run.seed must fit in uint64, got 18446744073709551616"),
    ("--run.K=-3", "run.K must be a positive integer, got -3"),
    ("--run.lr=0", "run.lr must be positive, got 0.0"),
    ("--run.iters=0", "run.iters must be a positive integer, got 0"),
    ("--run.bins=1", "run.bins must be at least 2, got 1"),
    ("--run.method=xyz", "run.method must be pde or mc, got 'xyz'"),
    ("--run.drift=up", "run.drift must be doob or g-spec, got 'up'"),
    ("--run.save_paths=2", "run.save_paths must be 0 or 1, got 2"),
    ("--g.use=both", "g.use must be spec or doob, got 'both'"),
]


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

    def test_command_rules_left_to_the_commands(self):
        # bins | n is simulate's and K <= n/4 maximize's; the config only
        # keeps each key's own range.
        cfg = parse_config("[grid]\nn = 100\n[run]\nbins = 64\nK = 30\n")
        assert (cfg.n, cfg.bins, cfg.K) == (100, 64, 30)
        with pytest.raises(ConfigError, match="run.bins"):
            parse_config("[run]\nbins = 1\n")
        with pytest.raises(ConfigError, match="run.K"):
            parse_config("[run]\nK = 0\n")

    @pytest.mark.parametrize("override, message", RULE_FAULTS)
    def test_each_rule_row_names_its_fault(self, override, message):
        with pytest.raises(ConfigError) as info:
            parse_config("", overrides=[override])
        assert str(info.value) == message

    def test_every_rule_row_has_a_fault_case(self):
        faulted = {override[2:].split("=")[0] for override, _ in RULE_FAULTS}
        assert faulted == {f"{section}.{key}" for section, key, *_, rule in _SCHEMA
                           if rule is not None}

    def test_initial_state_reads_each_init_form(self, tmp_path):
        grid = make_grid(8)
        mu_V = HarmonicSpec(constant=1.0).sample(grid)

        def start(init):
            cfg = parse_config("[grid]\nn = 8\n", overrides=[f"--run.init={init}"])
            return cfg.initial_state(grid, mu_V)

        def density(name, values):
            path = tmp_path / f"{name}.csv"
            path.write_text("x,value\n" + "".join(
                f"{x!r},{v!r}\n" for x, v in zip(grid.nodes.tolist(), values)))
            return path

        cosine = np.cos(2 * np.pi * grid.nodes)
        assert start("point:0.125") == 0.125
        assert start("density:muV") is mu_V
        good = start(f"density:{density('good', (1 + 0.5 * cosine).tolist())}")
        np.testing.assert_allclose(good.values, 1 + 0.5 * cosine, rtol=1e-14)
        negative = density("negative", (1 + 1.5 * cosine).tolist())
        with pytest.raises(ConfigError) as info:
            start(f"density:{negative}")
        assert str(info.value) == f"initial density {negative} has negative entries"
        half = density("half", [0.5] * 8)
        with pytest.raises(ConfigError) as info:
            start(f"density:{half}")
        assert str(info.value) == f"initial density {half} integrates to 0.5, not 1"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Spreadsheets often start a UTF-8 CSV with U+FEFF.
        grid = make_grid(8)
        values = (1 + 0.5 * np.cos(2 * np.pi * grid.nodes)).tolist()
        text = "x,value\n" + "".join(f"{x!r},{v!r}\n"
                                     for x, v in zip(grid.nodes.tolist(), values))
        for bom in ("", "\ufeff"):
            (tmp_path / f"f{len(bom)}.csv").write_text(bom + text, encoding="utf-8")
        loaded = []
        for name in ("f0.csv", "f1.csv"):
            cfg = parse_config("[grid]\nn = 8\n", overrides=[
                f"--potential.csv={tmp_path / name}",
                f"--run.init=density:{tmp_path / name}"])
            loaded.append((cfg.build_function("potential", grid).values,
                           cfg.initial_state(grid, None).values))
        assert np.array_equal(loaded[0][0], loaded[1][0])
        assert np.array_equal(loaded[0][1], loaded[1][1])
        assert np.array_equal(loaded[0][0], loaded[0][1])

    @pytest.mark.parametrize("overrides, message", [
        (["--run.dt=0", "--run.t=-1"], "run.t must be positive, got -1.0"),
        (["--run.K=0", "--run.lr=0"], "run.K must be a positive integer, got 0"),
    ])
    def test_several_bad_keys_name_the_first_row(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            parse_config("", overrides=overrides)
        assert str(info.value) == message

    @pytest.mark.parametrize("value, entry", [
        ('[["a",1,0]]', ["a", 1, 0]),
        ("[1,2,3]", 1),
        ("[[1,1e999,0]]", [1, float("inf"), 0]),
        ("[[1,1,0,3]]", [1, 1, 0, 3]),
        ("[[1.5,1,0]]", [1.5, 1, 0]),
        ("[[1,1%s,0]]" % ("0" * 400), [1, 10**400, 0]),
    ])
    @pytest.mark.parametrize("section", ["potential", "g"])
    def test_malformed_harmonics_name_the_key(self, section, value, entry):
        with pytest.raises(ValueError):
            HarmonicSpec(harmonics=[entry])
        key = f"{section}.harmonics"
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            parse_config("", overrides=[f"--{key}={value}"])

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
                                       "critical_points_F", "residual",
                                       "residual_bound", "sweeps", "min_F"]
        assert report["n"] == 256
        assert 0 <= report["residual"] <= report["residual_bound"] == 1e-9
        assert 1 <= report["sweeps"] <= 50
        assert 0 < report["min_F"] <= 1
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

    @pytest.mark.parametrize("override", ["--g.use=spec", "--g.use=doob",
                                          "--g.constant=0"])
    def test_propagate_zero_g_section_starts_from_one(self, tmp_path, override):
        # Which [g] keys are typed does not matter, only the function they give.
        cfg = write_cfg(tmp_path, MINIMAL.replace("n = 256", "n = 128"))
        outs = []
        for name, extra in (("plain", []), ("given", [override])):
            out = tmp_path / name
            assert main(["propagate", "--config", cfg, f"--run.out={out}",
                         *extra]) == 0
            outs.append([(out / f).read_bytes()
                         for f in ("propagate.json", "propagate.csv")])
        assert outs[0] == outs[1]

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

    def test_simulate_bytes_independent_of_process_count(self, tmp_path, capfd):
        # 2000 paths x 200 steps split over three forked ranges, whatever
        # the machine's CPU count, write the serial run's bytes.  So do runs
        # whose children fail or whose forks raise EAGAIN: the parent walks
        # those ranges itself.
        parent, wrap = os.getpid(), mc.wrap

        def failing_child(x):
            if os.getpid() != parent:
                raise RuntimeError("injected fault")
            return wrap(x)

        def refused_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        outputs = []
        for run, cpus, faults in (("serial", 1, []), ("split", 3, []),
                                  ("child", 3, [(mc, "wrap", failing_child)]),
                                  ("fork", 3, [(os, "fork", refused_fork)])):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mc, "_usable_cpus", lambda: cpus)
                for fault in faults:
                    patch.setattr(*fault)
                out = tmp_path / run
                assert main(["simulate", "--grid.n=256", "--run.paths=2000",
                             "--run.T=0.2", "--run.save_paths=1",
                             f"--run.out={out}"]) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("simulate.json", "histogram.csv", "paths.csv")])
        assert all(output == outputs[0] for output in outputs[1:])
        assert capfd.readouterr().err == ""

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

    @pytest.mark.parametrize("n", [16, 100])
    @pytest.mark.parametrize("command", ["eigen", "propagate", "entropy", "verify"])
    def test_commands_run_on_any_even_grid(self, tmp_path, monkeypatch, command, n):
        monkeypatch.chdir(tmp_path)
        assert main([command, f"--grid.n={n}"]) == 0

    def test_simulate_checks_bins_before_drawing_paths(self, tmp_path, monkeypatch,
                                                       capsys):
        def no_paths(*args, **kwargs):
            raise AssertionError("paths drawn before bins was checked")

        monkeypatch.setattr(cli, "simulate_paths", no_paths)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--grid.n=100"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["fk-thermo: bins=64 must divide the grid size 100"]
        assert Path("meta.json").exists()

    def test_maximize_checks_K(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["maximize", "--grid.n=16"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["fk-thermo: need 1 <= K <= n/4 = 4, got 8"]
        assert Path("meta.json").exists()

    def test_malformed_harmonics_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["eigen", "--potential.harmonics=[1,2,3]",
                     f"--run.out={out}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fk-thermo: potential.harmonics: ")
        assert not out.exists()

    @pytest.mark.parametrize("potential", [
        ["--potential.constant=1e308", "--potential.harmonics=[[1,1e308,0]]"],
        ["--potential.harmonics=[[1,1e308,0],[2,1e308,0]]"],
    ], ids=["constant", "harmonics"])
    def test_overflowing_potential_named_at_parse_time(self, tmp_path, capsys,
                                                       potential):
        # The section's constant is summed with its harmonics when the config
        # is checked, and numpy's overflow warning is not printed.
        out = tmp_path / "out"
        assert main(["eigen", "--grid.n=16", *potential, f"--run.out={out}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["fk-thermo: potential.harmonics: grid function values "
                       "must be finite"]
        assert not out.exists()

    def test_unallocatable_grid_named_at_parse_time(self, tmp_path, capsys):
        # 10^17 nodes exceed any 64-bit address space, 57-bit included, so
        # numpy's MemoryError comes before anything is allocated.
        out = tmp_path / "out"
        assert main(["eigen", "--grid.n=100000000000000000", f"--run.out={out}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fk-thermo: grid.n: Unable to allocate ")
        assert not out.exists()

    def test_amplitude_past_the_supported_range_exits_3(self, tmp_path, capsys):
        # At 1e200 inverse iteration's solves underflow and return an
        # infinite vector; the run names it, with no numpy warning.
        assert main(["eigen", "--grid.n=64", "--potential.harmonics=[[1,1e200,0]]",
                     f"--run.out={tmp_path}"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "fk-thermo: PositivityViolation: principal eigenvector is not "
            "positive at every node"]

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("argv", [["entropy", "--g.use=doob"], ["verify"]],
                             ids=lambda argv: argv[0])
    def test_tiny_grids_fail_the_entropy_cross_check(self, tmp_path, capsys,
                                                     argv, n):
        # Four or six nodes do not resolve e^{2g} of the eigen drift, so its
        # two entropy forms part by more than 1e-9 (about 1e-4 and 5e-9).
        assert main([*argv, f"--grid.n={n}", "--potential.harmonics=[[1,1,0]]",
                     f"--run.out={tmp_path}"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fk-thermo: EntropyMismatch: ")

    @pytest.mark.parametrize("n, code", [(4096, 0), (2048, 3)])
    def test_wide_doob_drift_resolved_or_named(self, tmp_path, capsys, n, code):
        # V = 3e5 cos 2 pi x: the eigen drift spans about 348, so its density
        # is zero far from the well.  4096 nodes resolve e^{2g}; 2048 do not,
        # and the entropy cross-check names that.
        assert main(["entropy", "--g.use=doob", f"--grid.n={n}",
                     "--potential.harmonics=[[1,3e5,0]]",
                     f"--run.out={tmp_path}"]) == code
        err = capsys.readouterr().err.splitlines()
        if code == 0:
            assert err == []
            report = json.loads((tmp_path / "entropy.json").read_text())
            assert report["pressure"] == pytest.approx(298280.5134241, abs=1e-5)
        else:
            assert len(err) == 1
            assert err[0].startswith("fk-thermo: EntropyMismatch: ")

    def test_positive_entropy_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fk_thermo.thermo.relative_entropy", lambda ad: 1e-6)
        assert main(["entropy", "--grid.n=64", f"--run.out={tmp_path}"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["fk-thermo: EntropyMismatch: entropy rate must be <= 0, "
                       "got 1e-06"]

    def test_overflowing_mc_weights_exit_3(self, tmp_path, capsys):
        # exp(1000 t) overflows every Feynman-Kac weight; exp(700 t) does not
        argv = ["propagate", "--grid.n=64", "--run.method=mc", "--run.t=1",
                "--run.paths=100"]
        assert main([*argv, "--potential.constant=1000",
                     f"--run.out={tmp_path / 'over'}"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fk-thermo: WeightOverflow: estimate inf, ")
        assert not (tmp_path / "over" / "propagate.json").exists()
        assert main([*argv, "--potential.constant=700",
                     f"--run.out={tmp_path / 'finite'}"]) == 0
        assert capsys.readouterr().err == ""
        # Equal weights of 3.8e260 differ from their mean by ulps whose
        # squares overflow; scaled by the largest value they are all 1.
        assert main([*argv, "--potential.constant=600",
                     f"--run.out={tmp_path / 'equal'}"]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "equal" / "propagate.json").read_text())
        assert report["std_error"] == 0

    def test_overflowing_pde_state_exits_3(self, tmp_path, capsys):
        # exp(1000) overflows the largest double.
        assert main(["propagate", "--grid.n=64", "--run.method=pde",
                     "--potential.constant=1000", "--run.t=1",
                     f"--run.out={tmp_path}"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "fk-thermo: WeightOverflow: the propagated state at t=1.0 "
            "is not finite (exp overflows above 709.78)"]
        assert not (tmp_path / "propagate.json").exists()

    @pytest.mark.parametrize("c", [600, 700])
    def test_constant_potential_pde_gives_exp_ct(self, tmp_path, capsys, c):
        assert main(["propagate", "--grid.n=64", "--run.method=pde",
                     f"--potential.constant={c}", "--run.t=1",
                     f"--run.out={tmp_path}"]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "propagate.json").read_text())
        assert report["value"] == pytest.approx(np.exp(c), rel=1e-12)

    def test_large_cosine_pde_matches_dense_exponential(self, tmp_path):
        assert main(["propagate", "--grid.n=512", "--potential.harmonics=[[1,100,0]]",
                     f"--run.out={tmp_path}"]) == 0
        report = json.loads((tmp_path / "propagate.json").read_text())
        u = np.loadtxt(tmp_path / "propagate.csv", delimiter=",", skiprows=1)[:, 1]
        ref = dense_semigroup(fd_operator(512, "100cos1"), np.ones(512), report["t"])
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert report["value"] == pytest.approx(float(np.interp(
            report["x"], np.arange(513) / 512, np.append(ref, ref[0]))), rel=1e-9)

    def test_rough_csv_data_pde_matches_dense_exponential(self, tmp_path, capsys):
        # Node-by-node noise in both V and the initial function, at a short
        # horizon where the high modes have not died out: the hardest data
        # for the Krylov route's dimension count.
        rng = np.random.default_rng(26)
        x = np.arange(512) / 512
        for name, values in (("pot.csv", rng.uniform(-100.0, 100.0, 512)),
                             ("g.csv", rng.standard_normal(512))):
            (tmp_path / name).write_text("x,value\n" + "".join(
                f"{xi!r},{vi!r}\n" for xi, vi in zip(x.tolist(), values.tolist())))
        assert main(["propagate", "--grid.n=512", f"--potential.csv={tmp_path / 'pot.csv'}",
                     f"--g.csv={tmp_path / 'g.csv'}", "--run.t=0.001",
                     f"--run.out={tmp_path}"]) == 0
        assert capsys.readouterr().err == ""
        grid = make_grid(512)
        V, f = (function_from_csv(str(tmp_path / name), grid) for name in ("pot.csv", "g.csv"))
        u = np.loadtxt(tmp_path / "propagate.csv", delimiter=",", skiprows=1)[:, 1]
        ref = dense_semigroup(fd_operator(512, V.values), f.values, 0.001)
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_pde_horizon_need_not_be_whole_dt_steps(self, tmp_path, capsys):
        # The Krylov route is exact in time and reads no dt; the Monte-Carlo
        # route steps by dt, so its horizon must be a whole number of steps.
        args = ["propagate", "--grid.n=64", "--potential.harmonics=[[1,1,0]]",
                "--run.t=0.15005"]
        assert main([*args, f"--run.out={tmp_path / 'pde'}"]) == 0
        assert capsys.readouterr().err == ""
        u = np.loadtxt(tmp_path / "pde" / "propagate.csv", delimiter=",", skiprows=1)[:, 1]
        ref = dense_semigroup(fd_operator(64, "cos1"), np.ones(64), 0.15005)
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert main([*args, "--run.method=mc", f"--run.out={tmp_path / 'mc'}"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "fk-thermo: horizon 0.15005 is not an integer number of dt=0.001 steps"]

    def test_any_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        class Unresolved(NumericalFailure):
            pass

        def failing(cfg):
            raise Unresolved("grid too coarse")

        monkeypatch.setitem(cli._COMMANDS, "eigen", failing)
        assert main(["eigen", "--grid.n=64", f"--run.out={tmp_path}"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "fk-thermo: Unresolved: grid too coarse"]

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


def oracle_csv(header, columns) -> bytes:
    """The cell-by-cell writer that write_csv must reproduce byte for byte."""
    rows = (",".join(format_number(v) for v in row) for row in zip(*columns))
    return "\n".join([",".join(header), *rows, ""]).encode()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1e15,
                  1e16, 123456789012345678.0, 1 / 3, -1 / 3, 0.1]


def _table(length: int):
    rng = np.random.default_rng(length)
    return (["path_id", "step", "x", "flag"],
            [np.arange(length) // 7, np.arange(length) % 7 - 3,
             rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length),
             rng.random(length) < 0.5])


class TestSerialize:
    @pytest.mark.parametrize("header, columns", [
        (["v", "w"], [np.array(SPECIAL_FLOATS), -np.array(SPECIAL_FLOATS)]),
        (["v"], [np.array([0.1, 1 / 3, -2.5e-40, 3.4e38, 1.4e-45], dtype=np.float32)]),
        (["i"], [np.array([0, -1, 7, -2**62, 2**62, 2**63 - 1, -2**63], dtype=np.int64)]),
        (["u"], [np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)]),
        (["b", "x"], [np.array([True, False, True]), np.array([0.5, -0.0, 2.0])]),
        # Shaped like maximize's trace: iteration ints, value and gradient floats.
        (["iter", "value", "grad_norm"],
         [(0, 1, 2), (0.25, np.float64(1 / 3), 1e-300), [1.0, 2, np.float32(0.1)]]),
        (["iter", "value"], [[0, 1, True], [np.int64(5), 0.5, -0.0]]),
    ], ids=["float64", "float32", "int64", "uint64", "bool", "trace", "lists"])
    def test_csv_bytes_match_oracle(self, tmp_path, header, columns):
        path = tmp_path / "table.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == oracle_csv(header, columns)

    @pytest.mark.parametrize("length", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                        _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 5])
    def test_csv_blocks_match_oracle(self, tmp_path, length):
        header, columns = _table(length)
        path = tmp_path / "table.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == oracle_csv(header, columns)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, -1, _BLOCK_ROWS + 3])
    def test_non_finite_array_leaves_no_file(self, tmp_path, bad, row):
        header, columns = _table(2 * _BLOCK_ROWS)
        columns[2][row] = bad
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(path, header, columns)
        assert not path.exists()

    @hypothesis.settings(max_examples=300, deadline=None,
                         suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
    @hypothesis.given(v=st.floats(allow_nan=False, allow_infinity=False))
    def test_fast_cell_matches_format_number(self, tmp_path, v):
        path = tmp_path / "cell.csv"
        write_csv(path, ["v"], [np.array([v])])
        assert path.read_text() == f"v\n{format_number(v)}\n"

    def test_unserializable_json_leaves_no_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="non-finite"):
            write_json(path, {"v": float("nan")})
        assert not path.exists()

    def test_json_strings_with_control_characters_parse_back(self, tmp_path):
        path = tmp_path / "report.json"
        text = "a\tb\nc\x00\"\\\u00e9"
        write_json(path, {"s": text, text: [text]})
        assert json.loads(path.read_text()) == {"s": text, text: [text]}

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(text=st.text(st.characters(min_codepoint=0x20)))
    def test_json_strings_without_control_characters_keep_their_bytes(self, text):
        # the encoder before control characters were escaped
        legacy = '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
        assert serialize._encode(text) == legacy

    def test_control_character_in_run_out_gives_valid_meta_json(self, tmp_path,
                                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["eigen", "--grid.n=16", "--run.out=a\tb"]) == 0
        meta = json.loads(Path("a\tb/meta.json").read_text())
        assert meta["config"]["run"]["out"] == "a\tb"

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
            "eigen_identity", "stochastic_unit", "gibbs_stationarity", "entropy_sign",
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

    def test_one_factorization_per_horizon_and_sweep(self, monkeypatch):
        # One factorization serves every function of a sweep at one horizon:
        # the flat frame at t = 0.1, 0.5; the Doob frame at 0.1, 0.5, 1 for
        # constants and at 0.5 for the stationarity check.
        factored = []

        def counting_lu(op):
            factored.append(op.grid.n)
            return _CyclicLU(op)

        monkeypatch.setattr("fk_thermo.feynman_kac._CyclicLU", counting_lu)
        cfg = parse_config(MINIMAL + "\n[run]\npaths = 200\n",
                           overrides=["--grid.n=64"])
        code, _ = run_verify(cfg)
        assert code == 0
        assert factored == [64] * 6

    @pytest.mark.parametrize("a", [10, 30, 100, 1000])
    def test_doob_frame_checks_pass_at_large_amplitude(self, a):
        # The propagator's records only: at a = 100 martingale_mean (a
        # collapsed ESS) fails for reasons of its own.  selfadjoint_residual
        # is relative once the products pass 1 (about 4e14 at a = 100).
        cfg = parse_config(f"[grid]\nn = 512\n[potential]\nharmonics = [[1, {a}, 0]]\n"
                           "[run]\npaths = 200\n")
        _, checks = run_verify(cfg)
        by_name = {c["name"]: c for c in checks}
        assert by_name["selfadjoint_residual"]["pass"]
        assert by_name["stochastic_unit"]["pass"]
        assert by_name["gibbs_stationarity"]["pass"]
        assert by_name["eigen_identity"]["pass"]

    def test_single_path(self, tmp_path):
        # One path has no spread to estimate: its standard error is 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--grid.n=64", "--run.paths=1",
                         f"--run.out={tmp_path}"]) == 0
        checks = json.loads((tmp_path / "verify.json").read_text())["checks"]
        assert checks[-1]["name"] == "martingale_mean"
        assert checks[-1]["tolerance"] == 5e-3

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

    @pytest.mark.parametrize("fault", ["nan", "inf", "-inf"])
    def test_non_finite_fault_is_a_usage_error(self, tmp_path, capsys, fault):
        # Rejected before meta.json, not after the battery has run.
        out = tmp_path / "out"
        assert main(["verify", "--grid.n=128", "--run.paths=200",
                     f"--run.out={out}", f"--perturb-eigenvalue={fault}"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("fk-thermo: --perturb-eigenvalue must be finite")
        assert not out.exists()

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
