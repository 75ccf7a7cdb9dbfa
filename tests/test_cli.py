import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nearwave
from nearwave import chanfile, mle
from nearwave.cli import _median, main, parse_config


def test_synth_writes_preset_shape(tmp_path):
    assert main(["synth", "--preset", "ula32-single", "--out", str(tmp_path)]) == 0
    values = chanfile.read_channel(tmp_path / "channel.bin")
    assert values.shape == (1, 1, 32, 1, 1)
    meta = chanfile.read_metadata(tmp_path / "channel.bin.meta")
    assert meta["subcommand"] == "synth"
    assert meta["ntx"] == "32"


def test_synth_round_trip_bit_identical(tmp_path):
    main(["synth", "--preset", "ula8-ula8", "--out", str(tmp_path)])
    path = tmp_path / "channel.bin"
    values = chanfile.read_channel(path)
    second = tmp_path / "copy.bin"
    chanfile.write_channel(second, values)
    assert path.read_bytes()[40:] == second.read_bytes()[40:]
    assert np.array_equal(values, chanfile.read_channel(second))


def test_synth_missing_output_dir_exit_3(tmp_path, capsys):
    missing = tmp_path / "does" / "not" / "exist"
    assert main(["synth", "--out", str(missing)]) == 3
    assert "error" in capsys.readouterr().err


def test_unknown_preset_exit_2(tmp_path, capsys):
    assert main(["synth", "--preset", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown" in capsys.readouterr().err


def test_estimate_round_trip(tmp_path, capsys):
    config = tmp_path / "synth.cfg"
    config.write_text("amplitude = unit\npose = fixed\npose_r = 0 0 9\n")
    main(["synth", "--preset", "ula8-single", "--config", str(config),
          "--out", str(tmp_path)])
    code = main(["estimate", "--input", str(tmp_path / "channel.bin"),
                 "--degree", "2", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "coefficients.csv").read_text().strip().splitlines()
    assert rows[0] == "m_rx,m_ry,m_tx,m_ty,m_f,a_cycles"
    assert len(rows) == 4  # 3 coefficients for a line at degree 2, plus header
    meta = chanfile.read_metadata(tmp_path / "coefficients.csv.meta")
    assert float(meta["reconstruction_mse_db"]) < -100.0


def test_estimate_exact_fit_reports_the_db_floor(tmp_path):
    path = tmp_path / "ones.bin"
    chanfile.write_channel(path, np.ones((1, 1, 8, 1, 1), dtype=complex))
    assert main(["estimate", "--input", str(path), "--degree", "1", "--out", str(tmp_path)]) == 0
    meta = chanfile.read_metadata(tmp_path / "coefficients.csv.meta")
    assert meta["reconstruction_mse_db"] == "-300.000"


def test_estimate_requires_input(tmp_path, capsys):
    assert main(["estimate", "--out", str(tmp_path)]) == 2


def test_mse_row_count_and_determinism(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    for out in (out_a, out_b):
        code = main(["mse", "--preset", "fig5a", "--trials", "2",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
    assert "warning" in capsys.readouterr().err  # low trial count
    rows = (out_a / "mse.csv").read_text().strip().splitlines()
    assert rows[0] == "snr_db,mse_db_1,mse_db_2,mse_db_3"
    assert len(rows) == 22
    assert (out_a / "mse.csv").read_bytes() == (out_b / "mse.csv").read_bytes()
    crb = (out_a / "crb.csv").read_text().strip().splitlines()
    assert crb[0] == "snr_db,crb_db_1,crb_db_2,crb_db_3,ls_db"


def test_mse_config_overrides(tmp_path):
    config = tmp_path / "mse.cfg"
    config.write_text("snr_grid = 0 10\ndegree_list = 1 2\ntrials = 2\n")
    assert main(["mse", "--preset", "fig5a", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "mse.csv").read_text().strip().splitlines()
    assert rows[0] == "snr_db,mse_db_1,mse_db_2"
    assert len(rows) == 3


def test_mse_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("bogus = 1\n")
    assert main(["mse", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_mse_rejects_repeated_config_key(tmp_path, capsys):
    config = tmp_path / "twice.cfg"
    config.write_text("trials = 3\ntrials = 5\n")
    assert main(["mse", "--preset", "fig5a", "--config", str(config),
                 "--out", str(tmp_path)]) == 2
    assert f"{config}:2: repeated key 'trials'" in capsys.readouterr().err


def test_mle_trajectories(tmp_path):
    config = tmp_path / "mle.cfg"
    config.write_text("iterations = 8\nsnr_db = 10\n")
    code = main(["mle", "--preset", "fig3a", "--config", str(config),
                 "--starts", "3", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "trajectories.csv").read_text().strip().splitlines()
    assert rows[0] == "Iteration,Best_1_Cost_dB,Best_2_Cost_dB,Best_3_Cost_dB,Proxy_Cost_dB"
    assert len(rows) == 10  # iterations + initial cost + header
    meta = chanfile.read_metadata(tmp_path / "trajectories.csv.meta")
    assert meta["diverged_starts"] == "0"
    assert float(meta["median_final_grad_norm"]) >= 0.0


def test_mle_never_imports_numpy_ma(tmp_path):
    # a fresh interpreter, in which np.median would import numpy.ma on first use
    config = tmp_path / "mle.cfg"
    config.write_text("iterations = 1\n")
    code = ("import sys\n"
            "from nearwave.cli import main\n"
            f"assert main(['mle', '--preset', 'fig3f', '--starts', '4', '--config', "
            f"{str(config)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n")
    src = str(Path(nearwave.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 10, 129])
def test_median_equals_numpy(length):
    values = list(np.random.default_rng(length).lognormal(size=length))
    assert _median(values) == np.median(values)


# a rate that is not a finite positive number, and one so large that every
# start (the genie included) leaves the representable range at its first step
@pytest.mark.parametrize("rate, message", [("inf", "learning_rate"),
                                           ("nan", "learning_rate"),
                                           ("1e200", "every start diverged")])
def test_mle_bad_learning_rate_exit_2(tmp_path, capsys, rate, message):
    config = tmp_path / "mle.cfg"
    config.write_text(f"learning_rate = {rate}\niterations = 2\n")
    code = main(["mle", "--preset", "fig3a", "--config", str(config),
                 "--starts", "2", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "trajectories.csv.meta").exists()


def test_landscape_output(tmp_path):
    config = tmp_path / "scan.cfg"
    config.write_text("d_range = 4.99 5.01\nstep = 0.0005\n")
    code = main(["landscape", "--preset", "fig9", "--config", str(config),
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "landscape.csv").read_text().strip().splitlines()
    assert rows[0] == "z,point,plane"
    values = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert values.shape == (41, 3)
    nearest = np.argmin(np.abs(values[:, 0] - 5.0))
    assert values[nearest, 1] < 1e-8
    assert values[nearest, 2] < 1e-8


def test_estimate_missing_input_file_exit_3(tmp_path, capsys):
    assert main(["estimate", "--input", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path)]) == 3


def test_landscape_rejects_bad_range(tmp_path, capsys):
    config = tmp_path / "scan.cfg"
    config.write_text("d_range = 5.4 4.6\n")
    code = main(["landscape", "--preset", "fig9", "--config", str(config),
                 "--out", str(tmp_path)])
    assert code == 2


def test_parse_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    from nearwave.cli import ConfigError
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_estimate_oversized_header_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.bin"
    path.write_bytes(np.array([2**31, 2**31, 1, 1, 1], dtype="<i8").tobytes())
    assert main(["estimate", "--input", str(path), "--out", str(tmp_path)]) == 2
    assert "truncated" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--trials", "5", "--starts", "9"],
    ["estimate", "--trials", "5"],
    ["landscape", "--starts", "9"],
    ["mse", "--starts", "9"],
    ["mle", "--trials", "5"],
    ["estimate", "--preset", "x"],
    ["estimate", "--config", "x"],
    ["estimate", "--seed", "3"],
    ["landscape", "--seed", "3"],
])
def test_flag_of_another_subcommand_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert argv[1] in capsys.readouterr().err


# Per subcommand: a preset, every accepted config key with a value that keeps the
# run short, the metadata those values must show, keys that are rejected, and
# keys given a wrong count of values (none, for the any-length lists).
CONFIG_KEYS = {
    "synth": ("ula8-single", "channel.bin.meta",
              {"amplitude": "unit", "pose": "random", "pose_r": "0 0 9",
               "pose_euler": "0 0 0.1", "shell_min": "6", "shell_max": "7"},
              {"amplitude": "unit", "pose_kind": "random"},
              ("bogus", "trials", "seed"),
              {"pose_r": "0 10", "pose_euler": "0 0 0 0"}),
    "mse": ("fig5a", "mse.csv.meta",
            {"snr_grid": "20", "degree_list": "1 2", "trials": "1",
             "amplitude_mode": "exact", "shell": "6 7", "shell_measure": "radius",
             "seed": "3"},
            {"trials": "1", "amplitude_mode": "exact", "shell": "(6.0, 7.0)", "seed": "3"},
            ("bogus", "spec", "num_starts"),
            {"shell": "5", "snr_grid": "", "degree_list": ""}),
    "mle": ("fig3a", "trajectories.csv.meta",
            {"iterations": "2", "num_starts": "2", "learning_rate": "0.02",
             "cost_variant": "plain", "snr_db": "15"},
            {"iterations": "2", "num_starts": "2", "cost_variant": "plain",
             "snr_db": "15.0"},
            ("bogus", "init_shell", "unit_amplitude", "genie_init", "fd_step"),
            {}),
    "landscape": ("fig9", "landscape.csv.meta",
                  {"d_true": "5", "d_range": "4.99 5.01", "step": "0.001",
                   "num_antennas": "16", "fc": "28e9"},
                  {"d_true": "5.0", "d_range": "(4.99, 5.01)", "num_antennas": "16",
                   "fc": "28000000000.0"},
                  ("bogus", "trials"),
                  {"d_range": "4.6 5.0 5.4"}),
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_keys_per_subcommand(tmp_path, capsys, command):
    preset, meta_name, accepted, echoed, rejected, wrong_count = CONFIG_KEYS[command]
    config = tmp_path / "run.cfg"

    def run(lines):
        config.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
        return main([command, "--preset", preset, "--config", str(config),
                     "--out", str(tmp_path)])

    assert run(accepted) == 0
    meta = chanfile.read_metadata(tmp_path / meta_name)
    assert {key: meta[key] for key in echoed} == echoed
    for key, value in [*((key, "1") for key in rejected), *wrong_count.items()]:
        capsys.readouterr()
        assert run({key: value}) == 2
        assert key in capsys.readouterr().err


# Per case: subcommand arguments, config text or None, and the message the run gives.
BOUNDARY_CASES = [
    (["synth", "--preset", "ula8-single"], "amplitude = bogus\n", "amplitude must be"),
    (["synth", "--preset", "ula8-single"], "pose = bogus\n", "pose must be"),
    (["mse", "--preset", "fig5a", "--trials", "0"], None, "trials must be >= 1"),
    (["mse", "--preset", "fig5a"], "amplitude_mode = bogus\n", "amplitude_mode must be"),
    (["mse", "--preset", "fig5a"], "snr_grid = nan\n", "snr values must be finite"),
    (["mle", "--preset", "fig3a", "--starts", "0"], None, "num_starts must be >= 1"),
    (["synth", "--preset", "ula8-single"], "pose_r = nan 0 10\n", "translation must be"),
    (["synth", "--preset", "ula8-single"], "pose_euler = nan 0 0\n", "finite orthonormal"),
    (["synth", "--preset", "ula8-single"], "pose = random\nshell_max = inf\n", "rmax < inf"),
    (["landscape"], "fc = 0\n", "fc must be finite and > 0"),
    (["landscape"], "fc = nan\n", "fc must be finite and > 0"),
    (["landscape"], "d_true = nan\n", "translation must be"),
    (["mse", "--preset", "fig5a"], "shell = 1e200 1e201\n", "rmax**3 < inf"),
    (["synth", "--preset", "ula8-single"], "pose = random\nshell_max = 1e200\n",
     "rmax**3 < inf"),
    (["synth", "--preset", "ula8-single"], "pose_euler = inf 0 0\n", "non-finite Euler angle"),
    (["synth", "--preset", "ula8-single"], "pose_r = 1e200 0 0\n", "translation must be"),
    (["synth", "--preset", "ula8-single"], "pose_r = 1e-200 0 0\n", "and so its squared length"),
    (["landscape"], "d_true = 1e200\n", "translation must be"),
    (["mse", "--preset", "fig5a"], "degree_list = 2 2\n", "degree_list repeats a degree"),
    (["mse", "--preset", "fig5a"], "snr_grid = 4000\n", "snr_db = 4000 is out of range"),
    (["mse", "--preset", "fig5a"], "snr_grid = -4000\n", "snr_db = -4000 is out of range"),
    (["mle", "--preset", "fig3a"], "snr_db = -4000\n", "snr_db = -4000 is out of range"),
    (["mse", "--preset", "fig5a", "--seed", "-1"], None, "--seed must be >= 0"),
    (["mle", "--preset", "fig3a", "--seed", "-1"], None, "--seed must be >= 0"),
    (["synth", "--preset", "ula8-single", "--seed", "-1"], None, "--seed must be >= 0"),
]


# a stray numpy warning on the way to the error fails the case
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, config, message", BOUNDARY_CASES)
def test_bad_setting_exit_2(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "run.cfg")]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.glob("*.meta"))


def test_out_of_memory_exit_2(tmp_path, capsys, monkeypatch):
    # raised, not provoked: whether a huge allocation fails depends on the host
    def landscape_scan(**kwargs):
        raise MemoryError("Unable to allocate 5.82 TiB for an array")

    monkeypatch.setattr(mle, "landscape_scan", landscape_scan)
    assert main(["landscape", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert not list(tmp_path.glob("*.meta"))


def scaled_channel(tmp_path, scale):
    """A ``ula32-ula32`` channel file times ``scale``; returns its path."""
    assert main(["synth", "--preset", "ula32-ula32", "--out", str(tmp_path)]) == 0
    path = tmp_path / f"scaled-{scale:g}.bin"
    chanfile.write_channel(path, scale * chanfile.read_channel(tmp_path / "channel.bin"))
    return path


def estimated_cycles(path, out):
    out.mkdir()
    assert main(["estimate", "--degree", "3", "--input", str(path), "--out", str(out)]) == 0
    rows = (out / "coefficients.csv").read_text().strip().splitlines()[1:]
    return np.array([float(row.rsplit(",", 1)[1]) for row in rows])


def test_estimate_reads_the_same_coefficients_at_any_scale(tmp_path, capsys):
    unscaled = estimated_cycles(scaled_channel(tmp_path, 1.0), tmp_path / "one")
    assert np.all(np.isfinite(unscaled))
    for scale in (1e45, 1e-45):
        cycles = estimated_cycles(scaled_channel(tmp_path, scale), tmp_path / f"{scale:g}")
        assert np.max(np.abs((cycles - unscaled + 0.5) % 1.0 - 0.5)) <= 1e-12


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_estimate_bad_channel_entry_exit_2(tmp_path, capsys, bad):
    path = scaled_channel(tmp_path, 1.0)
    values = chanfile.read_channel(path)
    values[5, 0, 17, 0, 0] = bad
    chanfile.write_channel(path, values)
    assert main(["estimate", "--degree", "3", "--input", str(path), "--out", str(tmp_path)]) == 2
    assert "finite nonzero modulus" in capsys.readouterr().err


def test_mse_meta_records_each_warning(tmp_path, capsys):
    # one trial of degree 1 on the 32x32 link at 20 dB sits far above its CRB asymptote
    config = tmp_path / "mse.cfg"
    config.write_text("snr_grid = 20\ndegree_list = 1\n")
    assert main(["mse", "--preset", "fig5b", "--trials", "1", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    meta = chanfile.read_metadata(tmp_path / "mse.csv.meta")
    assert meta["warning_0"].startswith("degree 1 at 20 dB: MSE ")
    assert "exceeds 10x the CRB asymptote" in meta["warning_0"]
