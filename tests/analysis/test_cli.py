"""Tests for the ``pccheck-repro`` command line."""

import os

import pytest

from repro.analysis.figures import FIGURES
from repro.cli import build_parser, main


class TestParser:
    def test_every_figure_has_a_subcommand(self):
        parser = build_parser()
        for name in FIGURES:
            args = parser.parse_args([name])
            assert args.command == name

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figZZ"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list_prints_all_figures(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.split()
        assert set(printed) == set(FIGURES)

    def test_table_command_prints_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "pccheck" in out
        assert "checkfreq" in out

    def test_out_writes_csv(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["table3", "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "table3.csv"))
        assert "wrote" in capsys.readouterr().out

    def test_fig12_runs_end_to_end(self, capsys):
        assert main(["fig12"]) == 0
        out = capsys.readouterr().out
        assert "num_concurrent" in out

    def test_tune_command(self, capsys):
        assert main(["tune", "--model", "vgg16", "--slowdown", "1.1"]) == 0
        out = capsys.readouterr().out
        assert "optimal N*" in out
        assert "min interval f*" in out


class TestRecoverConsistentCommand:
    def _write_ranks(self, tmp_path, payloads_by_step):
        """File-backed ranks checkpointing ``{step: [payload per rank]}``
        in lockstep; returns the region paths."""
        import threading

        from repro.core.distributed import (
            DistributedCoordinator,
            DistributedRank,
        )
        from repro.service.pool import EngineSpec, build_stack

        world = len(next(iter(payloads_by_step.values())))
        paths = [str(tmp_path / f"rank{rank}.img") for rank in range(world)]
        with DistributedCoordinator(world_size=world, timeout=10.0) as coord:
            workers = [
                DistributedRank(
                    rank,
                    build_stack(
                        EngineSpec(capacity_bytes=1024, path=path),
                        rank=coord.binding(rank),
                    ),
                    coord,
                )
                for rank, path in enumerate(paths)
            ]
            for step, payloads in payloads_by_step.items():
                threads = [
                    threading.Thread(
                        target=w.checkpoint, args=(payloads[w.rank], step)
                    )
                    for w in workers
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            for w in workers:
                w.close()
        return paths

    def _write_group(self, tmp_path, steps):
        return self._write_ranks(tmp_path, {
            step: [f"r{rank}s{step}".encode() * 8 for rank in range(2)]
            for step in range(1, steps + 1)
        })

    def test_reports_consistent_step(self, tmp_path, capsys):
        paths = self._write_group(tmp_path, steps=2)
        assert main(["recover-consistent", *paths]) == 0
        out = capsys.readouterr().out
        assert "globally consistent step: 2" in out
        assert "rank 0" in out and "rank 1" in out

    def test_json_format_and_payload_output(self, tmp_path, capsys):
        import json

        paths = self._write_group(tmp_path, steps=1)
        out_dir = str(tmp_path / "restored")
        assert main(
            ["recover-consistent", *paths, "--out", out_dir,
             "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["step"] == 1
        assert [r["rank"] for r in report["writers"]] == [0, 1]
        assert report["world_size"] == 2
        assert report["writer_world"] == 2
        assert report["resharded"] is False
        for rank, path in enumerate(report["written"]):
            with open(path, "rb") as fh:
                assert fh.read() == f"r{rank}s1".encode() * 8

    def test_wiped_rank_fails_with_clear_error(self, tmp_path, capsys):
        paths = self._write_group(tmp_path, steps=1)
        # Wipe rank 1's region: no step is globally consistent any more.
        with open(paths[1], "r+b") as fh:
            fh.write(b"\x00" * os.path.getsize(paths[1]))
        assert main(["recover-consistent", *paths]) == 1
        err = capsys.readouterr().err
        assert "recover-consistent" in err

    def test_missing_region_fails_legibly_not_with_a_traceback(
        self, tmp_path, capsys
    ):
        paths = self._write_group(tmp_path, steps=1)
        missing = str(tmp_path / "absent.pc")
        assert main(["recover-consistent", paths[0], missing]) == 1
        err = capsys.readouterr().err
        assert "no checkpoint region" in err and missing in err

    def _write_sharded_group(self, tmp_path, state, world):
        from repro.core.sharding import shard_payload

        return self._write_ranks(tmp_path, {1: shard_payload(state, world)})

    def test_world_size_reshards_recovery(self, tmp_path, capsys):
        import json

        from repro.core.sharding import reassemble

        state = bytes(range(256)) * 6
        paths = self._write_sharded_group(tmp_path, state, world=4)
        out_dir = str(tmp_path / "restored")
        assert main(
            ["recover-consistent", *paths, "--world-size", "2",
             "--out", out_dir, "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["resharded"] is True
        assert report["world_size"] == 2
        assert report["writer_world"] == 4
        assert len(report["written"]) == 2
        recovered = []
        for path in report["written"]:
            with open(path, "rb") as fh:
                recovered.append(fh.read())
        assert reassemble(recovered) == state

    def test_world_size_text_report(self, tmp_path, capsys):
        state = b"elastic" * 100
        paths = self._write_sharded_group(tmp_path, state, world=2)
        assert main(["recover-consistent", *paths, "--world-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "re-partitioned 2-writer checkpoint onto 3 ranks" in out
        assert "reader rank 2" in out

    def test_world_size_on_plain_payloads_fails(self, tmp_path, capsys):
        paths = self._write_group(tmp_path, steps=1)
        assert main(
            ["recover-consistent", *paths, "--world-size", "3"]
        ) == 1
        err = capsys.readouterr().err
        assert "not self-describing shards" in err
