"""Print the sha256 of every file that a fixed set of nearwave CLI calls writes.

    PYTHONPATH=src python3 tools/output_digests.py > digests.txt

Run it once per checkout, each time with that checkout's ``src`` on
PYTHONPATH, and ``diff`` the two outputs: equal lines mean byte-identical
data files and ``.meta`` sidecars. Each line reads ``<seed> <call> <file>
<sha256>``. The calls are the ``synth``, ``estimate``, ``mse``, ``mle`` and
``landscape`` runs below, at seeds 0 and 4. Sidecar lines that echo the
``config`` or ``input`` path are left out of the digest, because those paths
name this run's temporary files. Uses the standard library and nearwave only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import nearwave
from nearwave import cli

SEEDS = (0, 4)
ECHOED_KEYS = ("config", "input")


def calls(root: str, seed: int):
    """(name, argv without --out, config text or None) of every call at ``seed``."""
    s = ["--seed", str(seed)]
    random_channel = os.path.join(root, f"{seed}-synth-random", "channel.bin")
    out = [
        ("synth-default", ["synth", "--preset", "ula32-ula32", *s], None),
        ("synth-euler", ["synth", "--preset", "ula32-ula32", *s], "pose_euler = 0.3 -0.2 0.1\n"),
        ("synth-random", ["synth", "--preset", "upa4x4-upa4x4", *s], "pose = random\n"),
        ("estimate", ["estimate", "--degree", "2", "--input", random_channel], None),
    ]
    for preset, trials in (("fig5a", 20), ("fig6a", 20), ("fig5b", 3), ("fig5d", 3),
                           ("upa-desk", 2)):
        out.append((f"mse-{preset}",
                    ["mse", "--preset", preset, "--trials", str(trials), *s], None))
    for preset in ("fig3f", "fig3c", "fig3a"):
        out.append((f"mle-{preset}", ["mle", "--preset", preset, *s], "iterations = 3\n"))
    out.append(("landscape-fig9", ["landscape", "--preset", "fig9"], None))
    return out


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".meta"):
        lines = data.decode().splitlines(keepends=True)
        data = "".join(line for line in lines
                       if line.split("=", 1)[0].strip() not in ECHOED_KEYS).encode()
    return hashlib.sha256(data).hexdigest()


def run(root: str, seed: int, name: str, argv: list[str], config: str | None) -> None:
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


def main() -> None:
    print(f"nearwave from {os.path.dirname(nearwave.__file__)}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as root:
        for seed in SEEDS:
            for name, argv, config in calls(root, seed):
                run(root, seed, name, argv, config)


if __name__ == "__main__":
    main()
