"""``tools/odirect_probe.py`` end to end at KiB sizes."""

import os

from tools.odirect_probe import format_size, main, open_direct, parse_size


def test_sizes_parse_and_print_in_binary_units():
    assert parse_size("256K") == 256 << 10
    assert parse_size("54MiB") == 54 << 20
    assert parse_size("4096") == 4096
    assert format_size(256 << 10) == "256 KiB"
    assert format_size(54 << 20) == "54 MiB"
    assert format_size(123) == "123 B"


def test_probe_prints_one_row_per_size_and_cleans_up(tmp_path, capsys):
    assert main(["--dir", str(tmp_path), "--sizes", "16K,64K",
                 "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    fd, why = open_direct(str(tmp_path / "check"))
    if fd is not None:
        os.close(fd)
        os.remove(tmp_path / "check")
    assert f"O_DIRECT opened: {'yes' if fd is not None else 'no'}" in out
    assert "staging buffer on huge pages: " in out
    # Two tables, wall time then CPU time, one row per size each.
    rows = [line for line in out.splitlines()
            if line.startswith("| ") and not line.startswith("| payload")]
    assert [row.split(" | ")[0] for row in rows] == ["| 16 KiB", "| 64 KiB"] * 2
    for row in rows:
        # buffered, then O_DIRECT from 4 KiB pages and from huge pages
        assert row.count(" ms") == (3 if fd is not None else 1)
    assert os.listdir(tmp_path) == []
