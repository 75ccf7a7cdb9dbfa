"""Correctness checks on the CSV files the nearwave CLI writes.

Each check raises CheckError with the reason, or returns the accuracy gap it
measured in dB, which the benchmark reports alongside its timings.
"""

from __future__ import annotations

import csv
import math
import os


class CheckError(ValueError):
    """A CLI output file failed its correctness check."""


def _read(path):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc
    if len(rows) < 2:
        raise CheckError(f"{path}: no data rows")
    header, body = rows[0], rows[1:]
    if any(len(row) != len(header) for row in body):
        raise CheckError(f"{path}: ragged rows")
    try:
        values = [[float(v) for v in row] for row in body]
    except ValueError as exc:
        raise CheckError(f"{path}: {exc}") from exc
    return header, values


def _column(header, values, name, path):
    if name not in header:
        raise CheckError(f"{path}: missing column {name!r}")
    j = header.index(name)
    return [row[j] for row in values]


def check_sweep(out_dir, gap_range_db: tuple[float, float], ls_tol_db: float) -> float:
    """Check mse.csv and crb.csv; return degree-2 MSE minus its CRB at the top SNR.

    Every value must be finite, both files must share the SNR grid, the LS
    column must sit within ``ls_tol_db`` of -SNR, and the degree-2 gap at
    the top SNR must fall inside ``gap_range_db``.
    """
    mse_path = os.path.join(out_dir, "mse.csv")
    crb_path = os.path.join(out_dir, "crb.csv")
    mse_header, mse = _read(mse_path)
    crb_header, crb = _read(crb_path)
    for path, values in ((mse_path, mse), (crb_path, crb)):
        if not all(math.isfinite(v) for row in values for v in row):
            raise CheckError(f"{path}: non-finite value")
    snr = _column(mse_header, mse, "snr_db", mse_path)
    if snr != _column(crb_header, crb, "snr_db", crb_path):
        raise CheckError("mse.csv and crb.csv have different SNR grids")
    ls = _column(crb_header, crb, "ls_db", crb_path)
    worst = max(abs(l + s) for l, s in zip(ls, snr))
    if not worst <= ls_tol_db:
        raise CheckError(f"LS deviates {worst:.3f} dB from -SNR (> {ls_tol_db})")
    top = snr.index(max(snr))
    gap = (_column(mse_header, mse, "mse_db_2", mse_path)[top]
           - _column(crb_header, crb, "crb_db_2", crb_path)[top])
    lo, hi = gap_range_db
    if not lo <= gap <= hi:
        raise CheckError(f"degree-2 MSE is {gap:.3f} dB from its CRB at {snr[top]:g} dB "
                         f"(allowed {lo} to {hi})")
    return gap


def check_trajectories(out_dir, iterations: int, starts: int, snr_db: float,
                       tol_db: float) -> float:
    """Check trajectories.csv; return the genie cost at iteration 0 plus the SNR.

    The file must hold ``iterations + 1`` rows numbered from 0, ``starts``
    ranked columns in order of final cost, and the proxy column, whose first
    value is the noise power and so must lie within ``tol_db`` of -SNR.
    """
    path = os.path.join(out_dir, "trajectories.csv")
    header, values = _read(path)
    expected = (["Iteration"] + [f"Best_{k}_Cost_dB" for k in range(1, starts + 1)]
                + ["Proxy_Cost_dB"])
    if header != expected:
        raise CheckError(f"{path}: expected {len(expected)} columns "
                         f"Iteration, Best_1..Best_{starts}, Proxy; got {len(header)}")
    if [row[0] for row in values] != list(range(iterations + 1)):
        raise CheckError(f"{path}: expected iterations 0..{iterations}")
    final = [v for v in values[-1][1:-1] if not math.isnan(v)]
    if final != sorted(final):
        raise CheckError(f"{path}: ranked columns are not in order of final cost")
    gap = values[0][-1] + snr_db
    if not abs(gap) <= tol_db:
        raise CheckError(f"genie cost at iteration 0 is {gap:.3f} dB from -SNR "
                         f"(allowed {tol_db})")
    return gap
