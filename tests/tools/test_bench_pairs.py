"""The summary arithmetic of ``tools/bench_pairs.py``."""

import pytest

from tools.bench_pairs import (
    compare, end_to_end_metrics, quartiles, run_bench, summarize,
)

LOWER = [("slowdown", "lower")]


def runs(values, name="slowdown"):
    return [{name: value} for value in values]


class TestQuartiles:
    def test_odd_count_takes_the_middle_value(self):
        assert quartiles([3.0, 1.0, 2.0, 5.0, 4.0]) == (2.0, 3.0, 4.0)

    def test_even_count_interpolates(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)

    def test_one_run_is_its_own_spread(self):
        assert quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestSummarize:
    def test_lower_is_better_counts_strict_wins_per_pair(self):
        row = summarize(runs([6.0, 6.2, 5.9, 6.1]),
                        runs([4.4, 6.2, 4.1, 4.8]), LOWER)["slowdown"]
        # The tie at 6.2 is not a win.
        assert row["won"] == 3
        assert row["pairs"] == 4
        assert row["base"][1] == pytest.approx(6.05)
        assert row["change"][1] == pytest.approx(4.6)

    def test_higher_is_better_flips_the_direction(self):
        row = summarize(runs([1.0, 2.0], "gbps"), runs([1.5, 1.0], "gbps"),
                        [("gbps", "higher")])["gbps"]
        assert row["won"] == 1

    def test_pairs_are_matched_by_position(self):
        row = summarize(runs([1.0, 10.0]), runs([2.0, 9.0]), LOWER)
        assert row["slowdown"]["won"] == 1

    def test_uneven_sides_are_refused(self):
        with pytest.raises(ValueError):
            summarize(runs([1.0, 2.0]), runs([1.0]), LOWER)
        with pytest.raises(ValueError):
            summarize([], [], LOWER)


def test_metrics_come_from_the_benchmark_contract():
    metrics = dict(end_to_end_metrics())
    assert metrics["slowdown"] == "lower"
    assert set(metrics) == {"setup_s", "peak_rss_mib", "op_latency_x",
                            "slowdown"}


class TestRunBench:
    """``run_bench`` against a stand-in ``bench`` package in a temp tree."""

    def fake_tree(self, tmp_path, body):
        package = tmp_path / "bench"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text(body)
        return tmp_path

    def test_a_run_with_failed_operations_is_still_reported(self, tmp_path):
        tree = self.fake_tree(tmp_path, (
            "import json, sys\n"
            "assert '--dir' in sys.argv and '--out' in sys.argv\n"
            "print('workload save_small')\n"
            "print(json.dumps({'failed': 2, 'metrics': "
            "{'slowdown': {'value': 4.5}}}))\n"
            "sys.exit(1)\n"
        ))
        assert run_bench(tree, "save_small", 1) == {"slowdown": 4.5,
                                                    "failed": 2}

    def test_a_run_without_a_result_raises_with_its_stderr(self, tmp_path):
        tree = self.fake_tree(tmp_path, (
            "import sys\n"
            "print('boom', file=sys.stderr)\n"
            "sys.exit(3)\n"
        ))
        with pytest.raises(RuntimeError, match="(?s)exit 3.*boom"):
            run_bench(tree, "save_small", 1)


def test_several_workloads_alternate_per_workload(tmp_path, capsys):
    """Each workload runs every seed on both trees, the first side
    alternating per seed, and gets a summary of its own."""
    names = [name for name, _ in end_to_end_metrics()]
    body = (
        "import json, sys\n"
        "workload = sys.argv[sys.argv.index('--workload') + 1]\n"
        "value = {'a': 1.0, 'b': 2.0}[workload] * SCALE\n"
        "failed = int(workload == 'b' and SCALE == 1)\n"
        f"names = {names!r}\n"
        "print(json.dumps({'failed': failed, 'metrics': "
        "{name: {'value': value} for name in names}}))\n"
    )
    trees = []
    for side, scale in (("base", 1), ("change", 0.5)):
        package = tmp_path / side / "bench"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "__main__.py").write_text(f"SCALE = {scale}\n" + body)
        trees.append(tmp_path / side)
    failed = compare(trees[0], trees[1], ["a", "b"], [1, 2])
    out = capsys.readouterr().out.splitlines()
    runs = [line.split()[:4] for line in out if " seed " in line]
    assert runs == [
        ["a", "seed", "1", "base"], ["a", "seed", "1", "change"],
        ["a", "seed", "2", "change"], ["a", "seed", "2", "base"],
        ["b", "seed", "1", "base"], ["b", "seed", "1", "change"],
        ["b", "seed", "2", "change"], ["b", "seed", "2", "base"],
    ]
    assert [line for line in out if line.startswith("==")] == ["== a", "== b"]
    slowdown = [line for line in out if line.startswith("slowdown")]
    assert len(slowdown) == 2
    assert "1 (1-1)" in slowdown[0] and "2/2" in slowdown[0]
    assert "2 (2-2)" in slowdown[1]
    assert "failed operations: base 2, change 0" in out
    assert failed == 2
