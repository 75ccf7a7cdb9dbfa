"""Command-line front end: experiment dispatch and CSV emission.

Subcommands: synth, estimate, mse, mle, landscape. Configuration is flat
"key = value" text (see parse_config); presets provide defaults and any
config file or flag overrides them. Exit codes: 0 success, 2 configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__, chanfile, mle, ppe, presets, sim
from .geometry import GeometryPose, sample_pose, synth
from .sim import SCHEMA_VERSION
from .wavefront import degree_set_for_shape


class ConfigError(Exception):
    """Invalid configuration or preset."""


def parse_config(path) -> dict[str, str]:
    """Parse flat "key = value" lines; blank lines and # comments ignored."""
    try:
        return chanfile.read_metadata(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# tuple-valued keys of any length; every other tuple keeps its default's length
_VARIADIC = ("snr_grid", "degree_list")


def _cast(key: str, text: str, default):
    """``text`` as the type of ``default``; tuple elements take its first element's type."""
    try:
        if not isinstance(default, tuple):
            return type(default)(text)
        parts = text.replace(",", " ").split()
        if key not in _VARIADIC and len(parts) != len(default):
            raise ValueError(f"expected {len(default)} values, got {text!r}")
        return tuple(type(default[0])(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _config(args, defaults: dict) -> dict:
    """``defaults`` updated from the --config file, each value cast to its default's type.

    The keys of ``defaults`` are the subcommand's accepted config keys.
    """
    out = dict(defaults)
    for key, text in (parse_config(args.config) if args.config else {}).items():
        if key not in defaults:
            raise ConfigError(f"unknown {args.command} config key {key!r}")
        out[key] = _cast(key, text, defaults[key])
    return out


def _lookup(registry: dict, name: str, kind: str):
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise ConfigError(f"unknown {kind} preset {name!r} (known: {known})")
    return registry[name]


def _check_outdir(path) -> str:
    if not os.path.isdir(path):
        raise OSError(f"output directory does not exist: {path}")
    return path


def _base_metadata(args, **extra) -> dict:
    meta = {
        "tool": "nearwave",
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "subcommand": args.command,
        "preset": getattr(args, "preset", None),
        "config": getattr(args, "config", None),
    }
    meta.update(extra)
    return {k: v for k, v in meta.items() if v is not None}


_SYNTH_DEFAULTS = {"amplitude": "exact", "pose": "fixed", "pose_r": (0.0, 0.0, 10.0),
                   "pose_euler": (0.0, 0.0, 0.0), "shell_min": 5.0, "shell_max": 15.0}
# MleConfig fields the mle subcommand exposes (its other key is snr_db); the
# bool unit_amplitude stays out because a cast would read "False" as true
_MLE_KEYS = ("iterations", "num_starts", "learning_rate", "cost_variant", "fd_step")


def _cmd_synth(args) -> int:
    spec = _lookup(presets.SPEC_PRESETS, args.preset, "spec")
    cfg = _config(args, _SYNTH_DEFAULTS)
    amplitude = cfg["amplitude"]
    if amplitude not in ("unit", "exact"):
        raise ConfigError("amplitude must be 'unit' or 'exact'")
    pose_kind = cfg["pose"]
    seed = args.seed if args.seed is not None else 0
    if pose_kind == "fixed":
        pose = GeometryPose.from_euler(cfg["pose_r"], *cfg["pose_euler"])
    elif pose_kind == "random":
        pose = sample_pose(np.random.default_rng(seed), cfg["shell_min"], cfg["shell_max"])
    else:
        raise ConfigError("pose must be 'fixed' or 'random'")

    outdir = _check_outdir(args.out)
    values = synth(spec, pose, unit_amplitude=(amplitude == "unit"))
    meta = _base_metadata(args, amplitude=amplitude, pose_kind=pose_kind, seed=seed,
                          pose_r=tuple(pose.r), **asdict(spec))
    path = os.path.join(outdir, "channel.bin")
    chanfile.write_channel(path, values, metadata=meta)
    print(path)
    return 0


def _cmd_estimate(args) -> int:
    if args.input is None:
        raise ConfigError("estimate requires --input")
    outdir = _check_outdir(args.out)
    y = chanfile.read_channel(args.input)
    ds = degree_set_for_shape(args.degree, y.shape)
    model = ppe.estimate(y, ds)
    recon_mse = sim.per_entry_mse(ppe.reconstruct(model), y)

    header = ["m_rx", "m_ry", "m_tx", "m_ty", "m_f", "a_cycles"]
    rows = [[*map(int, m), f"{a:.12g}"] for m, a in zip(model.degrees, model.coeffs)]
    path = os.path.join(outdir, "coefficients.csv")
    sim.write_csv(path, header, rows)
    chanfile.write_metadata(chanfile.sidecar_path(path), _base_metadata(
        args, input=args.input, degree=args.degree,
        reconstruction_mse_db=f"{10 * np.log10(max(recon_mse, 1e-300)):.3f}"))
    print(path)
    return 0


def _cmd_mse(args) -> int:
    config = _lookup(presets.EXPERIMENT_PRESETS, args.preset, "experiment")
    cfg = _config(args, {f.name: getattr(config, f.name)
                         for f in fields(config) if f.name != "spec"})
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.seed is not None:
        cfg["seed"] = args.seed
    config = replace(config, **cfg)
    if config.trials < 10:
        print(f"warning: only {config.trials} trial(s); "
              "reported MSE will have high variance", file=sys.stderr)

    outdir = _check_outdir(args.out)
    report = sim.run_mse_sweep(config)
    mse_path = os.path.join(outdir, "mse.csv")
    sim.write_csv(mse_path, *report.mse_csv_rows())
    sim.write_csv(os.path.join(outdir, "crb.csv"), *report.crb_csv_rows())
    meta = _base_metadata(args, seed=config.seed, trials=config.trials,
                          amplitude_mode=config.amplitude_mode,
                          shell=config.shell, config_digest=config.digest(),
                          **asdict(config.spec))
    for i, warning in enumerate(report.warnings):
        meta[f"warning_{i}"] = warning
    chanfile.write_metadata(chanfile.sidecar_path(mse_path), meta)
    print(mse_path)
    return 0


def _cmd_mle(args) -> int:
    spec, config = _lookup(presets.TRAJECTORY_PRESETS, args.preset, "trajectory")
    cfg = _config(args, {**{key: getattr(config, key) for key in _MLE_KEYS},
                         "snr_db": 10.0})
    snr_db = cfg.pop("snr_db")
    if args.starts is not None:
        cfg["num_starts"] = args.starts
    config = replace(config, **cfg)
    seed = args.seed if args.seed is not None else 0

    outdir = _check_outdir(args.out)
    result = sim.run_trajectory_experiment(spec, config, snr_db=snr_db, seed=seed)
    path = os.path.join(outdir, "trajectories.csv")
    result.to_csv(path)
    chanfile.write_metadata(chanfile.sidecar_path(path), _base_metadata(
        args, seed=seed, snr_db=snr_db, num_starts=config.num_starts,
        iterations=config.iterations, cost_variant=config.cost_variant,
        converged_fraction=f"{result.converged_fraction():.4f}",
        **asdict(spec)))
    print(path)
    return 0


def _cmd_landscape(args) -> int:
    kwargs = _config(args, _lookup(presets.LANDSCAPE_PRESETS, args.preset, "landscape"))
    outdir = _check_outdir(args.out)
    grid, point, plane = mle.landscape_scan(**kwargs)
    path = os.path.join(outdir, "landscape.csv")
    sim.write_landscape_csv(path, grid, point, plane)
    chanfile.write_metadata(chanfile.sidecar_path(path),
                            _base_metadata(args, **kwargs))
    print(path)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "estimate": _cmd_estimate,
    "mse": _cmd_mse,
    "mle": _cmd_mle,
    "landscape": _cmd_landscape,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearwave",
        description="Near-field LOS channel synthesis, estimation, and benchmarks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {
        "synth": "ula32-single", "estimate": None, "mse": "fig5a",
        "mle": "fig3a", "landscape": "fig9",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--preset", default=defaults[name])
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=None)
        if name == "mse":
            p.add_argument("--trials", type=int, default=None)
        if name == "mle":
            p.add_argument("--starts", type=int, default=None)
        if name == "estimate":
            p.add_argument("--input", default=None)
            p.add_argument("--degree", type=int, default=2)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
