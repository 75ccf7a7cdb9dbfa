import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from nearwave.chanfile import write_channel

spec = importlib.util.spec_from_file_location(
    "output_digests", Path(__file__).resolve().parents[1] / "tools" / "output_digests.py")
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_compare_reports_each_csv_column_and_other_file(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "0-mse/mse.csv", "snr,mse,label\n0,-10.0,x\n5,-15.25,y\n10,nan,z\n")
    write(b, "0-mse/mse.csv", "snr,mse,label\n0,-10.0,x\n5,-15.5,w\n10,-20.0,z\n")
    write(a, "0-mse/crb.csv", "snr,crb\n0,1e-3\n")
    write(b, "0-mse/crb.csv", "snr,crb\n0,1e-3\n")
    write(a, "0-mse/mse.csv.meta", "seed = 0\nconfig = /a/x.cfg\n")
    write(b, "0-mse/mse.csv.meta", "seed = 0\nconfig = /b/x.cfg\n")
    write(a, "0-mle/trajectories.csv.meta", "seed = 0\nsnr_db = 10\ntrials = 3\nconfig = /a\n")
    write(b, "0-mle/trajectories.csv.meta", "seed = 0\nsnr_db = 20\nstarts = 4\nconfig = /b\n")
    write(a, "0-synth/channel.bin", "ab")
    write(b, "0-synth/channel.bin", "ac")
    write(a, "0-only/table.csv", "x\n1\n")
    assert output_digests.compare(str(a), str(b)) == [
        "0-mle/trajectories.csv.meta differs: snr_db, starts, trials",  # not the echoed config
        "0-mse/crb.csv snr identical",
        "0-mse/crb.csv crb identical",
        "0-mse/mse.csv snr identical",
        "0-mse/mse.csv mse max |diff| inf",  # NaN against a number
        "0-mse/mse.csv label differs",
        "0-mse/mse.csv.meta identical",  # echoed paths are left out of the digest
        f"0-only/table.csv only in {a}",
        "0-synth/channel.bin differs",
    ]


def test_column_differences_reports_largest_gap_and_shape_changes(tmp_path):
    write(tmp_path, "a.csv", "t,v\n0,1.0\n1,2.0\n2,3.0\n")
    write(tmp_path, "b.csv", "t,v\n0,1.0\n1,2.5\n2,2.75\n")
    write(tmp_path, "c.csv", "t,v\n0,1.0\n")
    write(tmp_path, "d.csv", "t,w\n0,1.0\n1,2.0\n2,3.0\n")
    gaps = output_digests.column_differences
    assert gaps(tmp_path / "a.csv", tmp_path / "b.csv") == [("t", "identical"),
                                                           ("v", "max |diff| 0.5")]
    assert gaps(tmp_path / "a.csv", tmp_path / "c.csv") == [("(rows)", "differs: 3 against 1")]
    assert gaps(tmp_path / "a.csv", tmp_path / "d.csv") == [("(header)", "differs")]


def test_compare_exits_1_unless_every_line_is_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "0-mse/mse.csv", "snr,mse\n0,-10.0\n")
    write(b, "0-mse/mse.csv", "snr,mse\n0,-10.0\n")
    write(a, "0-synth/channel.bin", "ab")
    write(b, "0-synth/channel.bin", "ab")

    def exit_code(*argv):
        with pytest.raises(SystemExit) as stop:
            output_digests.main(["--compare", *map(str, argv)])
        return stop.value.code

    assert exit_code(a, b) == 0
    write(b, "0-synth/channel.bin", "ac")
    assert exit_code(a, b) == 1
    write(b, "0-synth/channel.bin", "ab")
    write(b, "0-mse/mse.csv", "snr,mse\n0,-10.5\n")
    assert exit_code(a, b) == 1
    write(b, "0-mse/mse.csv", "snr,mse\n0,-10.0\n")
    write(b, "0-only/table.csv", "x\n1\n")
    assert exit_code(a, b) == 1
    assert exit_code(a, tmp_path / "missing") == 2  # a mistyped directory is no pass


def test_compare_reports_the_largest_channel_entry_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    h = np.exp(1j * np.arange(6.0)).reshape(1, 1, 3, 1, 2)
    moved = h.copy()
    moved[0, 0, 1, 0, 1] += 3e-12j
    moved[0, 0, 2, 0, 0] -= 1e-12
    for root, name, values in [(a, "same", h), (b, "same", h), (a, "moved", h),
                               (b, "moved", moved), (a, "nan", h), (b, "nan", h * np.nan),
                               (a, "shape", h), (b, "shape", h.reshape(1, 1, 2, 1, 3))]:
        (root / name).mkdir(parents=True)
        write_channel(root / name / "channel.bin", values)
    assert output_digests.compare(str(a), str(b)) == [
        "moved/channel.bin max |diff| 3e-12",
        "nan/channel.bin max |diff| inf",
        "same/channel.bin identical",
        "shape/channel.bin differs: extents (1, 1, 3, 1, 2) against (1, 1, 2, 1, 3)",
    ]
    with pytest.raises(SystemExit) as stop:
        output_digests.main(["--compare", str(a), str(b)])
    assert stop.value.code == 1


PINNED = Path(__file__).resolve().parents[1] / "tools" / "output_digests.txt"


def test_output_bytes_match_the_pinned_digests(capsys):
    output_digests.main([])
    lines = capsys.readouterr().out.splitlines()
    text = PINNED.read_text().splitlines()
    made_with = [line for line in text if line.startswith("# made with")]
    pinned = [line for line in text if not line.startswith("#")]
    moved = sorted({" ".join(line.split()[:2]) for line in set(lines) ^ set(pinned)})
    assert lines == pinned, (f"the files of these (seed, call) pairs moved: {moved}\n"
                             f"pinned {made_with}\nrunning {output_digests.versions()}")


def test_each_sidecar_identifies_its_data():
    # any two calls at one seed that write the same files: data that differs has sidecars
    # that differ, so a sidecar echoes every setting that shaped its data
    files = {}
    for line in PINNED.read_text().splitlines():
        if not line.startswith("#"):
            seed, call, name, digest = line.split()
            files.setdefault((seed, call), {})[name] = digest
    same = []
    for (a, written_a), (b, written_b) in itertools.combinations(files.items(), 2):
        if a[0] == b[0] and written_a.keys() == written_b.keys():
            differs = {name for name in written_a if written_a[name] != written_b[name]}
            if any(not name.endswith(".meta") for name in differs):
                same += [(a, b, name) for name in written_a
                         if name.endswith(".meta") and name not in differs]
    assert same == []
