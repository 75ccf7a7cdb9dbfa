"""One benchmark call: a fresh interpreter that calls ``nearwave.cli.main`` once.

Usage: child.py SRC_DIR SPAWN_TIME RESULT_JSON SPANS_JSON|- -- CLI_ARGS...

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start and ``import
nearwave``. With a SPANS_JSON path the layers are wrapped by ``layers.trace``
and the spans are written there when the call returns; with ``-`` nothing
is wrapped. The result file gets the exit code, set-up and call times, the
peak resident set size of this process, and the time of a fixed reference
kernel run just before and just after the call (their mean), which tells how
fast the host ran around the call.
"""

import json
import os
import resource
import sys
import time


def reference_kernel() -> float:
    """Fixed work that does not depend on nearwave: small numpy calls driven
    from Python, like the sweeps, and a pass over 4096 complex entries every
    10th step, like the larger tensors. It uses no numpy module that nearwave
    does not load and allocates under 200 KB, so it leaves the peak resident
    set size of the call alone. Returns its duration in seconds."""
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 32)
    big = np.linspace(0.0, 1.0, 4096)
    acc = 0.0
    for i in range(3000):
        acc += float(np.abs(np.exp(1j * i * x).sum()))
        if i % 10 == 0:
            acc += float(np.abs(np.exp(1j * i * big)).sum())
    return time.perf_counter() - start


def main(argv) -> int:
    src, spawn_time, result_path, spans_path = argv[:4]
    if argv[4] != "--":
        raise SystemExit("usage: child.py SRC SPAWN_TIME RESULT SPANS|- -- CLI_ARGS...")
    cli_args = argv[5:]
    sys.path.insert(0, src)
    import nearwave.cli

    if not os.path.abspath(nearwave.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported nearwave from {nearwave.cli.__file__}, not {src}")
    recorder = None
    if spans_path != "-":
        import layers

        recorder = layers.trace()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    ref_before = reference_kernel()
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    code = nearwave.cli.main(cli_args)
    done = time.clock_gettime(time.CLOCK_MONOTONIC)
    ref_after = reference_kernel()
    if recorder is not None:
        recorder.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump({
            "code": code,
            "setup_s": ready - float(spawn_time),
            "run_s": done - start,
            "ref_s": (ref_before + ref_after) / 2.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
