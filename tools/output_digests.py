"""Digest, keep and compare the files that a fixed set of nearwave CLI calls writes.

    PYTHONPATH=src python3 tools/output_digests.py > digests.txt
    PYTHONPATH=src python3 tools/output_digests.py --keep DIR > digests.txt
    python3 tools/output_digests.py --compare DIR_A DIR_B

The first two forms run the calls and print one line per written file,
``<seed> <call> <file> <sha256>``. Run them once per checkout, each time
with that checkout's ``src`` on PYTHONPATH, and ``diff`` the two outputs:
equal lines mean byte-identical data files and ``.meta`` sidecars. The calls
are the ``synth``, ``estimate``, ``mse``, ``mle`` and ``landscape`` runs
below, at seeds 0 and 4; the ``estimate`` runs reach degree 2 on a planar
link and degree 3 on 32 frequencies, one ``mse`` run lists its degrees
and SNRs out of order, and the ``mle`` runs cover every cost variant.
Sidecar lines that echo the ``config`` or ``input`` path are left out of
the digest, because those paths name this run's own files. ``--keep DIR``
writes the outputs into DIR, a new directory, instead of a temporary one.

``tools/output_digests.txt`` pins the lines of this tree, below a header
of ``#`` lines that names the versions they were made with (``versions``);
``tests/test_output_digests.py`` runs the calls and compares. Refresh the
pinned lines only with a change that states why its bytes moved.

``--compare`` reads two kept directories and prints, for every column of
every CSV file, ``identical`` or the largest absolute difference between
the two files' numbers, for every channel ``.bin`` file ``identical`` or
the largest modulus of its entries' differences, and for every other file
whether its digest is identical; a ``.meta`` pair that differs names the
keys that moved. It exits 0 when every line reads ``identical`` and 1
otherwise, so it can gate a change that must keep every output byte. Uses
the standard library and, to run the calls, nearwave and its numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import math
import os
import platform
import struct
import sys
import tempfile

SEEDS = (0, 4)
ECHOED_KEYS = ("config", "input")


def calls(root: str, seed: int):
    """(name, argv without --out, config text or None) of every call at ``seed``."""
    s = ["--seed", str(seed)]
    random_channel = os.path.join(root, f"{seed}-synth-random", "channel.bin")
    wideband_channel = os.path.join(root, f"{seed}-synth-random-nf32", "channel.bin")
    out = [
        ("synth-default", ["synth", "--preset", "ula32-ula32", *s], None),
        ("synth-euler", ["synth", "--preset", "ula32-ula32", *s], "pose_euler = 0.3 -0.2 0.1\n"),
        ("synth-random", ["synth", "--preset", "upa4x4-upa4x4", *s], "pose = random\n"),
        ("estimate", ["estimate", "--degree", "2", "--input", random_channel], None),
        ("synth-random-nf32", ["synth", "--preset", "ula32-single-nf32", *s], "pose = random\n"),
        ("estimate-nf32", ["estimate", "--degree", "3", "--input", wideband_channel], None),
    ]
    for preset, trials in (("fig5a", 20), ("fig6a", 20), ("fig5b", 3), ("fig5d", 3),
                           ("upa-desk", 2)):
        out.append((f"mse-{preset}",
                    ["mse", "--preset", preset, "--trials", str(trials), *s], None))
    # degrees and SNRs out of their default order, so a column mix-up shows
    out.append(("mse-fig5a-order", ["mse", "--preset", "fig5a", "--trials", "20", *s],
                "degree_list = 3 1\nsnr_grid = 20 0 10\n"))
    for preset in ("fig3f", "fig3c", "fig3a"):
        out.append((f"mle-{preset}", ["mle", "--preset", preset, *s], "iterations = 3\n"))
    # the presets fit a complex attenuation; the other two cost variants on fig3c's link
    for variant in ("plain", "unit_beta"):
        out.append((f"mle-fig3c-{variant}", ["mle", "--preset", "fig3c", *s],
                    f"iterations = 3\ncost_variant = {variant}\n"))
    out.append(("landscape-fig9", ["landscape", "--preset", "fig9"], None))
    return out


def versions() -> str:
    """The numpy, Python and BLAS versions that the digests depend on, as one line."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, Python {platform.python_version()}, "
            f"BLAS {blas['name']} {blas['version']}")


def sidecar_lines(path: str) -> list[tuple[str, str]]:
    """(key, line) of every line of a ``.meta`` sidecar, whose key is the text before ``=``."""
    with open(path, "rb") as fh:
        lines = fh.read().decode().splitlines(keepends=True)
    return [(line.split("=", 1)[0].strip(), line) for line in lines]


def digest(path: str) -> str:
    if path.endswith(".meta"):
        data = "".join(line for key, line in sidecar_lines(path)
                       if key not in ECHOED_KEYS).encode()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()


def moved_keys(path_a: str, path_b: str) -> list[str]:
    """Sorted keys, not echoed, whose lines differ between two sidecars or that one lacks."""
    a, b = (dict(sidecar_lines(p)) for p in (path_a, path_b))
    return sorted(k for k in a.keys() | b.keys()
                  if k not in ECHOED_KEYS and a.get(k) != b.get(k))


def run(root: str, seed: int, name: str, argv: list[str], config: str | None) -> None:
    from nearwave import cli

    out_dir = os.path.join(root, f"{seed}-{name}")
    os.mkdir(out_dir)
    if config is not None:
        config_path = os.path.join(root, f"{seed}-{name}.cfg")
        with open(config_path, "w") as fh:
            fh.write(config)
        argv = [*argv, "--config", config_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", out_dir])
    if code != 0:
        sys.exit(f"{name} at seed {seed} exited {code}: {stderr.getvalue().strip()}")
    for file in sorted(os.listdir(out_dir)):
        print(seed, name, file, digest(os.path.join(out_dir, file)))


def column_differences(path_a: str, path_b: str) -> list[tuple[str, str]]:
    """(column, ``identical`` or the largest absolute difference) of two CSV files.

    A column whose differing cells do not all parse as numbers reads
    ``differs``, and NaN against a number counts as an infinite difference;
    a differing header or row count is reported for the whole file.
    """
    with open(path_a, newline="") as fa, open(path_b, newline="") as fb:
        a, b = list(csv.reader(fa)), list(csv.reader(fb))
    if not a or not b or a[0] != b[0]:
        return [("(header)", "differs")]
    if len(a) != len(b):
        return [("(rows)", f"differs: {len(a) - 1} against {len(b) - 1}")]
    out = []
    for col, name in enumerate(a[0]):
        pairs = [(ra[col], rb[col]) for ra, rb in zip(a[1:], b[1:]) if ra[col] != rb[col]]
        if not pairs:
            out.append((name, "identical"))
            continue
        try:
            gaps = [abs(float(x) - float(y)) for x, y in pairs]
        except ValueError:
            out.append((name, "differs"))
            continue
        gap = max(math.inf if math.isnan(g) else g for g in gaps)  # NaN against a number
        out.append((name, f"max |diff| {gap:.3g}"))
    return out


def channel_difference(path_a: str, path_b: str) -> str:
    """``max |diff| <gap>`` of two channel files (``nearwave.chanfile``'s layout): the
    largest modulus of the difference of two entries whose bytes differ, with NaN against
    a number an infinite difference. Headers that differ, or a file that is not in that
    layout, read ``differs``."""
    heads, entries = [], []
    for path in (path_a, path_b):
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < 40 or (len(data) - 40) % 16:
            return "differs"
        heads.append(struct.unpack_from("<5q", data))
        entries.append(struct.iter_unpack("16s", data[40:]))
    if heads[0] != heads[1]:
        return f"differs: extents {heads[0]} against {heads[1]}"
    gaps = [abs(complex(*struct.unpack("<dd", x)) - complex(*struct.unpack("<dd", y)))
            for (x,), (y,) in zip(*entries) if x != y]
    return f"max |diff| {max((math.inf if math.isnan(g) else g for g in gaps), default=0):.3g}"


def files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root)
            for f in names}


def compare(dir_a: str, dir_b: str) -> list[str]:
    """One line per CSV column and per other file of two kept output directories."""
    in_a, in_b = files(dir_a), files(dir_b)
    lines = []
    for rel in sorted(in_a | in_b):
        a, b = os.path.join(dir_a, rel), os.path.join(dir_b, rel)
        if rel not in in_a or rel not in in_b:
            lines.append(f"{rel} only in {dir_a if rel in in_a else dir_b}")
        elif rel.endswith(".csv"):
            lines += [f"{rel} {col} {result}" for col, result in column_differences(a, b)]
        elif digest(a) == digest(b):
            lines.append(f"{rel} identical")
        elif rel.endswith(".meta"):
            lines.append(f"{rel} differs: {', '.join(moved_keys(a, b)) or 'line order'}")
        elif rel.endswith(".bin"):
            lines.append(f"{rel} {channel_difference(a, b)}")
        else:
            lines.append(f"{rel} differs")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--keep", metavar="DIR", help="write the outputs into DIR, a new directory")
    mode.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                      help="compare two directories written with --keep")
    args = parser.parse_args(argv)
    if args.compare:
        missing = [d for d in args.compare if not os.path.isdir(d)]
        if missing:
            parser.error(f"not a directory: {', '.join(missing)}")
        lines = compare(*args.compare)
        print("\n".join(lines))
        sys.exit(0 if all(line.endswith(" identical") for line in lines) else 1)
    import nearwave

    print(f"nearwave from {os.path.dirname(nearwave.__file__)}; {versions()}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as root:
        if args.keep:
            os.mkdir(args.keep)
            root = args.keep
        for seed in SEEDS:
            for name, argv, config in calls(root, seed):
                run(root, seed, name, argv, config)


if __name__ == "__main__":
    main()
