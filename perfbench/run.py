"""xxring benchmark: CLI workloads timed as fresh processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {plots,verify,states} --seed N \
        --seconds S --trace {0,1}

The program under test is the checkout's own ``src/xxring``, run as
``python -m xxring ...`` with ``PYTHONPATH=src``; the benchmark exits with
code 2, printing no result, when that source tree is missing.  Each
invocation runs to completion before the next starts (one client, closed
loop, no concurrency).  BLAS and OpenMP thread pools are pinned to one
thread in every child, so the numbers and the output bytes do not depend
on how a pool happened to be scheduled.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: wall time of one pass over the workload's invocations,
* ``setup_s``: wall time of a fresh ``python -c "import xxring"`` process,
* ``cpu_s``: user plus system CPU of one pass's child processes,
* ``peak_rss_mb``: the largest max-RSS of any invocation in a pass,

each the median over the run (``setup_s`` over ``SETUP_SAMPLES_PER_PASS`` import
processes per pass, the others over at least ``MIN_PASSES`` passes, as many as fit
in ``--seconds``).

The three times are given at a fixed speed of the machine.  On a shared host
the speed of a core drifts by up to 1.7x over tens of seconds, and every
time of a pass drifts with it.  So the benchmark also runs a fixed reference
program (``workloads.REFERENCE_PROGRAMS``: one that does the kind of work the
workload's children do) as a child of its own: before a child of the
workload once ``REFERENCE_SPACING_S`` of workload time has passed since it
last ran, and at the end of every pass.  Each timed child's wall (CPU) time
is multiplied by ``REFERENCE_S`` over the median wall (CPU) time of the
reference runs just before and just after it.  The reference program is the
same for every commit, so a faster program still reads faster; the raw
medians and the speed factor are printed beside the result.  ``--trace 1`` alternates untraced and traced passes
(the traced one launches each invocation through ``tracer.py``) and
reports the per-layer metrics of ``layers.py``, medians over the traced
passes, plus ``trace.overhead_s``: the median over pass pairs of traced
minus untraced pass wall time.

Every output goes through ``checks.Gate``; a failed check counts as a
failed operation.  The error rate (failed over attempted) is printed and
carried by ``attempted``/``failed`` in the result, the last line of
stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import layers
import workloads
from checks import Gate

SETUP_SAMPLES_PER_PASS = 4
MIN_PASSES = 2
MIN_TRACED_PASSES = 2

#: Wall and CPU time the reference program is scaled to.  Each of
#: ``workloads.REFERENCE_PROGRAMS`` takes about this long on the 2-core
#: x86-64 host (Python 3.11) the bounds were set on.
REFERENCE_S = 0.2

#: Workload time after which the next child waits for a fresh reference run.
REFERENCE_SPACING_S = 1.5

#: A child still running after this many seconds is killed and counts as failed.
CHILD_TIMEOUT_S = 120

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

_TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")


@dataclass
class Outcome:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    max_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: str
    #: Factors that bring wall_s and cpu_s to the reference speed.
    wall_scale: float = 1.0
    cpu_scale: float = 1.0


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), **PINNED_THREADS)
    env.pop("PYTHONSTARTUP", None)
    return env


def launch(args: list[str], env: dict, scratch: str) -> Outcome:
    """Run one child to completion; wall time covers spawn to reap."""
    err_path = os.path.join(scratch, "stderr.txt")
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
        proc = subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        reaped = False
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


def _git_commit() -> str | None:
    """HEAD of a git checkout in the working directory, read without git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the package sources, naming the program under test."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join("src", "xxring")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


_PROBE = """
import json, numpy, xxring
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"xxring": xxring.__file__, "numpy": numpy.__version__,
                  "blas": {"name": blas.get("name"), "version": blas.get("version")}}))
"""


def environment(seed: int, env: dict, scratch: str) -> dict:
    """Machine and build facts, from a child that also warms the import caches."""
    probe = launch([sys.executable, "-c", _PROBE], env, scratch)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import xxring from src/: {probe.stderr.strip()}")
    facts = json.loads(probe.stdout)
    expected = os.path.abspath(os.path.join("src", "xxring"))
    if os.path.dirname(os.path.abspath(facts["xxring"])) != expected:
        raise RuntimeError(f"xxring imported from {facts['xxring']}, not from {expected}")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": facts["blas"],
        "numpy": facts["numpy"],
        "blas_threads": {key: env[key] for key in PINNED_THREADS},
        "python": platform.python_version(),
        "executable": os.path.basename(sys.executable),
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


class Runner:
    """Runs invocations of one workload and tallies the failed ones."""

    def __init__(self, workload: str, seed: int, scratch: str):
        self.invocations = workloads.invocations(workload, seed)
        self.reference_program = workloads.REFERENCE_PROGRAMS[workload]
        self.gate = Gate(seed)
        self.env = child_env()
        self.scratch = scratch
        self.attempted = 0
        self.failures: list[str] = []
        #: (argv, outcome, problem) of invocations whose output is not yet checked.
        self.pending: list[tuple[list[str], Outcome, str | None]] = []
        #: Problems that are not one operation's, such as counts that do not repeat.
        self.inconsistencies: list[str] = []
        #: Timed children since the last reference runs, and those runs.
        self.unscaled: list[Outcome] = []
        self.references: list[Outcome] = []
        self.speeds: list[float] = []

    def reference(self) -> None:
        """Run the reference program; scale the children timed since it last ran.

        It runs once per REFERENCE_SPACING_S of those children's wall time,
        and at least once, so a long child is scaled by as many samples of
        the speed as several short ones are.
        """
        elapsed = sum(t.wall_s for t in self.unscaled)
        runs = []
        for _ in range(max(1, round(elapsed / REFERENCE_SPACING_S))):
            outcome = launch([sys.executable, "-c", self.reference_program], self.env, self.scratch)
            if outcome.returncode:
                raise RuntimeError(f"reference program failed: {outcome.stderr.strip()}")
            runs.append(outcome)
        if self.references:
            around = self.references + runs
            wall = statistics.median(r.wall_s for r in around)
            cpu = statistics.median(r.cpu_s for r in around)
            for timed in self.unscaled:
                timed.wall_scale = REFERENCE_S / wall
                timed.cpu_scale = REFERENCE_S / cpu
            self.speeds.append(REFERENCE_S / wall)
        self.unscaled.clear()
        self.references = runs

    def timed(self, command: list[str]) -> Outcome:
        """Run one child, after the reference program if it is due."""
        if sum(t.wall_s for t in self.unscaled) >= REFERENCE_SPACING_S:
            self.reference()
        outcome = launch(command, self.env, self.scratch)
        self.unscaled.append(outcome)
        return outcome

    def _record(self, label: str, outcome: Outcome, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            detail = outcome.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{label}: {problem} {detail[0]}".rstrip())

    def setup_sample(self) -> Outcome:
        outcome = self.timed([sys.executable, "-c", "import xxring"])
        problem = f"exit code {outcome.returncode}" if outcome.returncode else None
        self._record("import xxring", outcome, problem)
        return outcome

    def run_pass(self, traced: bool = False) -> dict:
        """One pass over the invocations; returns its totals (and spans if traced).

        ``wall_s`` and ``cpu_s`` are at the reference speed, ``raw_wall_s``
        and ``raw_cpu_s`` as measured.
        """
        outcomes: list[Outcome] = []
        totals = {"peak_rss_mb": 0.0, "stdout_bytes": 0}
        processes, checks_failed = [], 0
        spans_path = os.path.join(self.scratch, "spans.json")
        for argv in self.invocations:
            if traced:
                command = [sys.executable, _TRACER, spans_path, *argv]
            else:
                command = [sys.executable, "-m", "xxring", *argv]
            outcome = self.timed(command)
            outcomes.append(outcome)
            totals["peak_rss_mb"] = max(totals["peak_rss_mb"], outcome.max_rss_mb)
            totals["stdout_bytes"] += len(outcome.stdout)
            problem = None
            if argv[0] == "verify" and outcome.stdout:
                try:
                    report = json.loads(outcome.stdout)
                    checks_failed += sum(not check["passed"] for check in report["checks"])
                except (ValueError, KeyError, TypeError):
                    checks_failed += 1
            if traced:
                try:
                    with open(spans_path, encoding="utf-8") as handle:
                        processes.append(json.load(handle))
                    os.remove(spans_path)
                except (OSError, ValueError) as exc:
                    problem = f"no spans ({exc})"
            self.pending.append((argv, outcome, problem))
        self.reference()
        totals["wall_s"] = sum(o.wall_s * o.wall_scale for o in outcomes)
        totals["cpu_s"] = sum(o.cpu_s * o.cpu_scale for o in outcomes)
        totals["raw_wall_s"] = sum(o.wall_s for o in outcomes)
        totals["raw_cpu_s"] = sum(o.cpu_s for o in outcomes)
        if traced:
            totals["layers"] = layers.pass_metrics(
                processes, totals["stdout_bytes"], checks_failed
            )
        return totals

    def check_outputs(self) -> None:
        """Gate every collected output.

        Runs after the timed passes: the checker's memory would otherwise
        show in later children's max-RSS, which starts from the memory of
        the process that spawned them.
        """
        for argv, outcome, problem in self.pending:
            problem = problem or self.gate.check(argv, outcome.returncode, outcome.stdout)
            self._record(" ".join(argv), outcome, problem)
        self.pending.clear()


def _summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of one metric."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    counted = all(isinstance(value, int) for value in values)
    return {
        "median": (statistics.median_low if counted else statistics.median)(values),
        "q1": quartiles[0],
        "q3": quartiles[2],
        "n": len(values),
    }


def _keep_going(started: float, seconds: float, last: float, done: int, minimum: int) -> bool:
    """Another pass if the minimum is not met, or if one more fits in the budget."""
    return done < minimum or time.perf_counter() - started + last <= seconds


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict[str, dict], dict[str, dict]]:
    """The end-to-end summaries, and the raw (unscaled) time summaries."""
    # Set-up samples are spread over the run, so that they see the same
    # phases of machine load as the passes do.
    setup: list[Outcome] = []
    passes: list[dict] = []
    started, last = time.perf_counter(), 0.0
    while _keep_going(started, seconds, last, len(passes), MIN_PASSES):
        before = time.perf_counter()
        setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
        passes.append(runner.run_pass())
        last = time.perf_counter() - before
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if own_peak >= min(p["peak_rss_mb"] for p in passes):
        runner.inconsistencies.append(
            f"peak_rss_mb may be this process's own {own_peak:.1f} MB, inherited by its children"
        )
    summaries = {"setup_s": _summary([o.wall_s * o.wall_scale for o in setup])}
    for metric in ("wall_s", "cpu_s", "peak_rss_mb"):
        summaries[metric] = _summary([p[metric] for p in passes])
    raw = {
        "raw setup_s": _summary([o.wall_s for o in setup]),
        "raw wall_s": _summary([p["raw_wall_s"] for p in passes]),
        "raw cpu_s": _summary([p["raw_cpu_s"] for p in passes]),
    }
    return {name: summaries[name] for name in END_TO_END}, raw


def measure_layers(runner: Runner, seconds: float) -> tuple[dict[str, dict], dict[str, dict]]:
    """The per-layer summaries; per-layer times are not rescaled, so no raw ones."""
    traced: list[dict] = []
    overheads: list[float] = []
    started, last = time.perf_counter(), 0.0
    while _keep_going(started, seconds, last, len(traced), MIN_TRACED_PASSES):
        before = time.perf_counter()
        plain = runner.run_pass()
        traced.append(runner.run_pass(traced=True))
        overheads.append(traced[-1]["raw_wall_s"] - plain["raw_wall_s"])
        last = time.perf_counter() - before
    for name in layers.COUNTS:
        seen = {p["layers"][name] for p in traced}
        if len(seen) > 1:
            runner.inconsistencies.append(f"{name} differs between traced passes: {sorted(seen)}")
    summaries = {
        name: _summary([p["layers"][name] for p in traced])
        for name in layers.UNITS
        if name != "trace.overhead_s"
    }
    summaries["trace.overhead_s"] = _summary(overheads)
    return {name: summaries[name] for name in layers.UNITS}, {}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into an exception, so that the running
    # child is killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "xxring", "__init__.py")):
        print("error: no src/xxring here; run from the repository root", file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=".")
    try:
        runner = Runner(args.workload, args.seed, scratch)
        try:
            env_record = environment(args.seed, runner.env, scratch)
            # The first timed children are scaled by these reference runs.
            runner.reference()
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            summaries, raw = measure_layers(runner, args.seconds)
            units = layers.UNITS
        else:
            summaries, raw = measure_end_to_end(runner, args.seconds)
            units = END_TO_END
        runner.check_outputs()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(runner.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    for name, summary in summaries.items():
        print(
            f"{name:44s} {summary['median']:.6g} {units[name]}"
            f"  (q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}, n {summary['n']})"
        )
    for name, summary in raw.items():
        print(
            f"{name:44s} {summary['median']:.6g} s"
            f"  (q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}, n {summary['n']})"
        )
    speed = _summary(runner.speeds)
    print(
        f"{'speed factor (reference runs)':44s} {speed['median']:.6g}"
        f"  (q1 {speed['q1']:.6g}, q3 {speed['q3']:.6g}, n {speed['n']})"
    )
    print(f"error_rate {failed}/{runner.attempted} = {failed / runner.attempted:.6g}")
    for failure in runner.failures + runner.inconsistencies:
        print(f"FAILED {failure}")
    result = {
        "correct": not runner.failures and not runner.inconsistencies,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": summary["median"], "unit": units[name]}
            for name, summary in summaries.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
