"""Tests of the benchmark's own code: workloads, correctness gate, span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import layers
import run
import workloads
import xxring
from xxring import cli

README_PLOTS = [
    "spectrum --sites 8 --single-particle",
    "spectrum --sites 8 --modes",
    "spectrum --sites 8",
    "critical-points --sites 8",
    "envelope --sites 9",
    "envelope --sites 45",
    "envelope --sites 50 --detail",
    "entanglement --sites 4,5,6,7,8,9,10 --g-min -1.5 --g-max 1.5 --steps 121",
    "entanglement --sites 4,6,8,10 --g-min -1.5 --g-max 1.5 --steps 121",
    "entanglement --sites 5,7,9 --g-min -1.5 --g-max 1.5 --steps 121",
]


def test_seed_zero_plots_are_the_readme_commands():
    assert [" ".join(argv) for argv in workloads.invocations("plots", 0)] == README_PLOTS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_invocations_depend_only_on_the_seed(workload):
    assert workloads.invocations(workload, 4) == workloads.invocations(workload, 4)


def test_other_seeds_shift_the_plot_grids_only():
    shifted = workloads.invocations("plots", 9)
    assert shifted != workloads.invocations("plots", 0)
    assert [argv[:3] for argv in shifted] == [argv[:3] for argv in workloads.invocations("plots", 0)]
    for argv in shifted:
        if checks._option(argv, "--g-min") is not None:
            assert abs(float(checks._option(argv, "--g-min")) + 1.5) <= workloads.GRID_SHIFT
            assert abs(float(checks._option(argv, "--g-max")) - 1.5) <= workloads.GRID_SHIFT


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_verify_runs_each_size_once(seed):
    argvs = workloads.invocations("verify", seed)
    assert sorted(argv[-1] for argv in argvs) == ["6", "8", "9"]


@pytest.mark.parametrize("seed", [0, 3])
def test_states_visit_every_sector_once_from_its_central_half(seed):
    argvs = workloads.invocations("states", seed)
    assert len(argvs) == 23
    sectors = []
    for argv in argvs:
        n_sites, g = int(checks._option(argv, "--sites")), float(checks._option(argv, "--g"))
        n = xxring.ground_sector(n_sites, g)
        low, high = workloads.crossing_field(n_sites, n - 1), workloads.crossing_field(n_sites, n)
        assert low + (high - low) / 4 - 1e-6 <= g <= high - (high - low) / 4 + 1e-6
        sectors.append((n_sites, n))
    assert len(set(sectors)) == len(sectors)
    assert sectors[-2:] == [(13, 6), (14, 7)]


def test_gate_ground_sector_matches_the_package():
    for n_sites in (3, 4, 9, 12):
        for g in [x / 37 - 1.4 for x in range(104)]:
            assert checks.ground_sector(n_sites, g) == xxring.ground_sector(n_sites, g)


def test_gate_cut_count_matches_the_package():
    for n_sites in range(3, 13):
        assert checks.balanced_cut_count(n_sites) == len(xxring.balanced_bipartitions(n_sites))


def _cli_output(tmp_path, argv) -> bytes:
    path = tmp_path / "out.txt"
    assert cli.main([*argv, "--output", str(path)]) == 0
    return path.read_bytes()


def test_gate_accepts_the_recorded_seed_zero_bytes(tmp_path):
    gate = checks.Gate(0)
    argv = workloads.invocations("plots", 0)[3]
    assert gate.check(argv, 0, _cli_output(tmp_path, argv)) is None


def test_gate_rejects_changed_bytes_and_bad_exits(tmp_path):
    gate = checks.Gate(0)
    argv = workloads.invocations("plots", 0)[3]
    good = _cli_output(tmp_path, argv)
    assert "differs from the recorded" in checks.Gate(0).check(argv, 0, good + b"\n")
    assert gate.check(argv, 3, good) == "exit code 3"
    assert gate.check(argv, 0, good) is None
    assert "differ from an earlier run" in gate.check(argv, 0, good.replace(b"-1", b"-2", 1))


DETAIL = ["entanglement", "--sites", "7", "--g=0.2", "--detail", "--format", "json"]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda p: p["rows"][0].update(pi=1.5), "outside [2^-|A|, 1]"),
        (lambda p: p["rows"][3].update(pi=2.0 ** -4), "outside [2^-|A|, 1]"),
        (lambda p: [row.update(mu=row["mu"] * (1 + 1e-9)) for row in p["rows"]], "average"),
        (lambda p: [row.update(sigma=row["sigma"] * 1.01) for row in p["rows"]], "spread"),
        (lambda p: [row.update(n=row["n"] + 1) for row in p["rows"]], "ground sector"),
        (lambda p: p["rows"].pop(), "cuts, expected"),
        (lambda p: p.update(extra=1), "schema"),
    ],
)
def test_gate_catches_broken_invariants(tmp_path, mutate, message):
    payload = json.loads(_cli_output(tmp_path, DETAIL))
    assert checks.Gate(5).check(DETAIL, 0, json.dumps(payload).encode()) is None
    mutate(payload)
    problem = checks.Gate(5).check(DETAIL, 0, json.dumps(payload).encode())
    assert problem is not None and message in problem


def test_gate_checks_the_verify_report(tmp_path):
    argv = ["verify", "--sites", "6"]
    payload = json.loads(_cli_output(tmp_path, argv))
    assert checks.Gate(2).check(argv, 0, json.dumps(payload).encode()) is None
    payload["checks"][0]["tolerance"] *= 10
    assert "differ from the recorded" in checks.Gate(2).check(argv, 0, json.dumps(payload).encode())


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", 0, 100, -1, None],
        ["entanglement.purity_stats", 10, 60, 0, None],
        ["entanglement.purity", 20, 30, 1, None],
        ["entanglement.purity", 30, 45, 1, None],
        ["analytic.ground_sector", 70, 75, 0, None],
    ]
    assert layers.self_times_ns(spans) == [45, 25, 10, 15, 5]


def test_pass_metrics_ratios_count_distinct_keys_per_process():
    state = {"key": [6, 3], "amplitudes": 64}
    process = [
        ["import", 0, 5, -1, None],
        ["statevector.ground_state", 10, 20, -1, state],
        ["statevector.ground_state", 20, 30, -1, state],
    ]
    metrics = layers.pass_metrics([process, process], stdout_bytes=7, checks_failed=0)
    assert metrics["statevector.ground_state.calls"] == 4
    assert metrics["statevector.distinct_sector_ratio"] == 0.5
    assert metrics["statevector.amplitudes_built"] == 256
    assert metrics["import.xxring_s"] == 10e-9
    assert set(metrics) == set(layers.UNITS) - {"trace.overhead_s"}


def test_summary_reports_median_and_quartiles():
    summary = run._summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (summary["median"], summary["n"]) == (3.0, 5)
    assert summary["q1"] < 3.0 < summary["q3"]
    assert run._summary([7, 7])["median"] == 7


def test_children_are_scaled_by_the_reference_runs_around_them(monkeypatch):
    # The reference program takes twice REFERENCE_S (half speed), then once.
    reference_walls = iter([0.4, 0.4, 0.4, 0.2])

    def fake_launch(args, env, scratch):
        if args[1:] == ["-c", runner.reference_program]:
            wall = next(reference_walls)
            return run.Outcome(wall, wall, 1.0, 0, b"", "")
        wall = float(args[1])
        return run.Outcome(wall, 0.8 * wall, 1.0, 0, b"", "")

    monkeypatch.setattr(run, "launch", fake_launch)
    monkeypatch.setattr(run, "REFERENCE_S", 0.2)
    monkeypatch.setattr(run, "REFERENCE_SPACING_S", 1.5)
    runner = run.Runner("verify", 0, scratch=_scratch())
    runner.reference()
    long = runner.timed(["child", "3.0"])
    runner.reference()  # 3 s of children since the last run: two runs now
    assert (long.wall_scale, long.cpu_scale) == pytest.approx((0.5, 0.5))
    assert runner.speeds == [pytest.approx(0.5)]
    short = runner.timed(["child", "1.0"])
    runner.reference()
    # The median of the two runs before it and the one after it.
    assert short.wall_scale == pytest.approx(0.5)
    assert next(reference_walls, None) is None


def test_benchmark_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree("perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plots", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]


def _traced_counts(workload, seed, keep):
    runner = run.Runner(workload, seed, scratch=_scratch())
    runner.invocations = [argv for argv in runner.invocations if keep(argv)]
    totals = runner.run_pass(traced=True)
    runner.check_outputs()
    assert runner.failures == []
    return {name: totals["layers"][name] for name in layers.COUNTS}


def _scratch():
    path = os.path.join(os.getcwd(), ".perfbench-test")
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture(autouse=True, scope="module")
def _clean_scratch():
    yield
    shutil.rmtree(os.path.join(os.getcwd(), ".perfbench-test"), ignore_errors=True)


def _is_sweep(argv):
    return argv[0] == "entanglement"


def test_traced_plot_counts_repeat_and_match_the_closed_forms():
    sizes = [[4, 5, 6, 7, 8, 9, 10], [4, 6, 8, 10], [5, 7, 9]]
    cuts = sum(checks.balanced_cut_count(n) for group in sizes for n in group)
    first = _traced_counts("plots", 0, _is_sweep)
    assert first["entanglement.purity.calls"] == 121 * cuts == 83_490
    assert first["statevector.ground_state.calls"] == 121 * 14 == 1_694
    assert first["entanglement.purity_stats.calls"] == 1_694
    assert first["cli.main.calls"] == 3
    assert _traced_counts("plots", 0, _is_sweep) == first
    other = _traced_counts("plots", 6, _is_sweep)
    assert other["entanglement.purity.calls"] == 83_490
    assert other["statevector.ground_state.calls"] == 1_694


def test_traced_state_counts_match_the_closed_forms():
    counts = _traced_counts("states", 0, lambda argv: True)
    assert counts["entanglement.purity.calls"] == 21 * math.comb(11, 5) == 9_702
    assert counts["statevector.ground_state.calls"] == 23
    assert counts["cli.main.calls"] == 23
