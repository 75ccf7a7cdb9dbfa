"""Command-line front end: experiment dispatch and CSV emission.

Subcommands: synth, estimate, mse, mle, landscape. Configuration is flat
"key = value" text (see parse_config); presets provide defaults and any
config file or flag overrides them. Exit codes: 0 success, 2 configuration
error or a setting too large for memory, 3 I/O error.
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


def _out_path(args, name: str) -> str:
    if not os.path.isdir(args.out):
        raise OSError(f"output directory does not exist: {args.out}")
    return os.path.join(args.out, name)


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


def _median(values) -> float:
    """Median of a non-empty sequence, as np.median gives it, without importing numpy.ma."""
    s = np.sort(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def _cmd_synth(args) -> tuple[str, dict]:
    spec = _lookup(presets.SPEC_PRESETS, args.preset, "spec")
    cfg = _config(args, _SYNTH_DEFAULTS)
    amplitude = cfg["amplitude"]
    if amplitude not in ("unit", "exact"):
        raise ConfigError("amplitude must be 'unit' or 'exact'")
    pose_kind = cfg["pose"]
    if pose_kind == "fixed":
        pose = GeometryPose.from_euler(cfg["pose_r"], *cfg["pose_euler"])
    elif pose_kind == "random":
        pose = sample_pose(np.random.default_rng(args.seed), cfg["shell_min"], cfg["shell_max"])
    else:
        raise ConfigError("pose must be 'fixed' or 'random'")

    path = _out_path(args, "channel.bin")
    values = synth(spec, pose, unit_amplitude=(amplitude == "unit"))
    chanfile.write_channel(path, values)
    return path, dict(amplitude=amplitude, pose_kind=pose_kind, seed=args.seed,
                      pose_r=tuple(pose.r), **asdict(spec))


def _cmd_estimate(args) -> tuple[str, dict]:
    if args.input is None:
        raise ConfigError("estimate requires --input")
    path = _out_path(args, "coefficients.csv")
    y = chanfile.read_channel(args.input)
    ds = degree_set_for_shape(args.degree, y.shape)
    model = ppe.estimate(y, ds)
    recon_mse = sim.per_entry_mse(ppe.reconstruct(model), y)

    header = ["m_rx", "m_ry", "m_tx", "m_ty", "m_f", "a_cycles"]
    rows = [[*map(int, m), f"{a:.12g}"] for m, a in zip(model.degrees, model.coeffs)]
    sim.write_csv(path, header, rows)
    return path, dict(input=args.input, degree=args.degree,
                      reconstruction_mse_db=f"{mle.to_db(recon_mse):.3f}")


def _cmd_mse(args) -> tuple[str, dict]:
    config = _lookup(presets.EXPERIMENT_PRESETS, args.preset, "experiment")
    cfg = _config(args, {f.name: getattr(config, f.name)
                         for f in fields(config) if f.name != "spec"})
    # the library allows an LS-only sweep; a CLI run without degrees has no result
    if not cfg["degree_list"]:
        raise ConfigError("degree_list: expected at least one degree")
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.seed is not None:
        cfg["seed"] = args.seed
    config = replace(config, **cfg)
    if config.trials < 10:
        print(f"warning: only {config.trials} trial(s); "
              "reported MSE will have high variance", file=sys.stderr)

    mse_path = _out_path(args, "mse.csv")
    report = sim.run_mse_sweep(config)
    sim.write_csv(mse_path, *report.mse_csv_rows())
    sim.write_csv(_out_path(args, "crb.csv"), *report.crb_csv_rows())
    meta = dict(seed=config.seed, trials=config.trials,
                amplitude_mode=config.amplitude_mode,
                shell=config.shell, config_digest=config.digest(),
                **asdict(config.spec))
    for i, warning in enumerate(report.warnings):
        meta[f"warning_{i}"] = warning
    return mse_path, meta


def _cmd_mle(args) -> tuple[str, dict]:
    spec, config = _lookup(presets.TRAJECTORY_PRESETS, args.preset, "trajectory")
    cfg = _config(args, {**asdict(config), "snr_db": 10.0})
    snr_db = cfg.pop("snr_db")
    if args.starts is not None:
        cfg["num_starts"] = args.starts
    config = replace(config, **cfg)

    path = _out_path(args, "trajectories.csv")
    result = sim.run_trajectory_experiment(spec, config, snr_db=snr_db, seed=args.seed)
    mle.write_trajectory_csv(path, result.starts, result.proxy)
    norms = [tr.final_grad_norm for tr in result.starts if not tr.diverged]
    median_norm = _median(norms) if norms else float("nan")
    return path, dict(seed=args.seed, snr_db=snr_db, num_starts=config.num_starts,
                      iterations=config.iterations, cost_variant=config.cost_variant,
                      converged_fraction=f"{result.converged_fraction():.4f}",
                      diverged_starts=sum(tr.diverged for tr in result.starts),
                      median_final_grad_norm=f"{median_norm:.6g}",
                      **asdict(spec))


def _cmd_landscape(args) -> tuple[str, dict]:
    kwargs = _config(args, _lookup(presets.LANDSCAPE_PRESETS, args.preset, "landscape"))
    path = _out_path(args, "landscape.csv")
    grid, point, plane = mle.landscape_scan(**kwargs)
    rows = [[f"{z:.6f}", f"{p:.9g}", f"{q:.9g}"] for z, p, q in zip(grid, point, plane)]
    sim.write_csv(path, ["z", "point", "plane"], rows)
    return path, kwargs


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
        "synth": "ula32-single", "mse": "fig5a",
        "mle": "fig3a", "landscape": "fig9",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--out", default=".")
        if name == "estimate":
            p.add_argument("--input", default=None)
            p.add_argument("--degree", type=int, default=2)
            continue
        p.add_argument("--preset", default=defaults[name])
        p.add_argument("--config", default=None)
        if name != "landscape":
            # mse keeps None so that its preset's seed applies
            p.add_argument("--seed", type=int, default=None if name == "mse" else 0)
        if name == "mse":
            p.add_argument("--trials", type=int, default=None)
        if name == "mle":
            p.add_argument("--starts", type=int, default=None)
    return parser


def main(argv=None) -> int:
    """Run one subcommand, write the sidecar of its data file and print the file's path."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        path, extra = _COMMANDS[args.command](args)
        chanfile.write_metadata(chanfile.sidecar_path(path), _base_metadata(args, **extra))
    except (ConfigError, ValueError, mle.DivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
