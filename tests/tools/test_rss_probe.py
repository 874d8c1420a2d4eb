"""``tools/rss_probe.py`` end to end at smoke scale."""

import os

import pytest

from tools.rss_probe import MEASURED_STAGE, main

STAGES = ["start", "imports", "make_inputs", "build", "prepare_baseline",
          MEASURED_STAGE, "verify"]


def test_probe_prints_one_row_per_stage_and_cleans_up(tmp_path, capsys):
    assert main(["--workload", "restore_large", "--smoke", "--seconds",
                 "0.2", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    rows = [line.split(" | ") for line in out.splitlines()
            if line.startswith("| ") and not line.startswith("| stage")]
    assert [row[0][2:] for row in rows] == STAGES
    peaks = [float(row[1]) for row in rows]
    assert peaks == sorted(peaks) and peaks[0] > 0
    assert f"peak_rss_mib as the benchmark reads it: {peaks[5]:.1f} MiB" in out
    assert "largest rise of the peak: " in out
    assert os.listdir(tmp_path) == []


def test_unknown_workload_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--workload", "nope", "--dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unknown workload 'nope'" in capsys.readouterr().err
