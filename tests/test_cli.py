import argparse
import gc
import hashlib
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import PINNED_BYTES

import xxring
from xxring import cli, oracle


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = cli.main(args + ["--output", str(path)])
    return code, path.read_bytes() if path.exists() else b""


def package_env():
    """This environment, with the tested package first on PYTHONPATH."""
    env = dict(os.environ)
    package_root = str(Path(xxring.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([package_root, *filter(None, [env.get("PYTHONPATH")])])
    return env


def run_process(args):
    """``python -m xxring ARGS`` as a fresh process, through ``cli.entry``."""
    return subprocess.run(
        [sys.executable, "-m", "xxring", *args], env=package_env(), capture_output=True
    )


def load_schema():
    text = (
        resources.files("xxring") / "schemas" / "cli_output.schema.json"
    ).read_text()
    return json.loads(text)


def validate_json(payload):
    jsonschema.validate(payload, load_schema())


def parse_csv(data: bytes):
    lines = [l for l in data.decode().split("\n") if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        args = ["spectrum", "--sites", "7", "--g-min", "-2", "--g-max", "2", "--steps", "41"]
        code_a, first = run_cli(args, tmp_path, "a.csv")
        code_b, second = run_cli(args, tmp_path, "b.csv")
        assert code_a == code_b == 0
        assert first == second

    def test_entanglement_json_echoes_one_worker_and_writes_no_stderr(self, capsys):
        args = ["entanglement", "--sites", "5", "--steps", "7", "--format", "json"]
        assert cli.main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["params"]["workers"] == 1

    def test_lf_line_endings_and_header(self, tmp_path):
        _, data = run_cli(["critical-points", "--sites", "6"], tmp_path, "c.csv")
        assert b"\r" not in data
        assert data.startswith(b"n,g_c\n")

    def test_full_float_precision(self, tmp_path):
        _, data = run_cli(["critical-points", "--sites", "8"], tmp_path, "p.csv")
        _, rows = parse_csv(data)
        printed = float(rows[3]["g_c"])
        exact = (math.sin(3 * math.pi / 8) - 1.0) / math.sin(math.pi / 8)
        assert printed == exact  # 17 significant digits round-trip


#: One small invocation of each table command and its variants.
TABLE_COMMANDS = [
    ["spectrum", "--sites", "6", "--steps", "5"],
    ["spectrum", "--sites", "6", "--steps", "5", "--single-particle"],
    ["spectrum", "--sites", "6", "--modes"],
    ["critical-points", "--sites", "6"],
    ["envelope", "--sites", "9", "--steps", "7"],
    ["envelope", "--sites", "9", "--detail"],
    ["ground-state", "--sites", "5", "--g", "-0.5"],
    ["ground-state", "--sites", "4", "--g", "1.5"],
    ["entanglement", "--sites", "4,5", "--g", "0.4"],
    ["entanglement", "--sites", "5", "--g", "0.4", "--detail"],
    ["entanglement", "--sites", "5,6", "--steps", "9", "--detail"],
]


class TestJsonSchema:
    @pytest.mark.parametrize("args", TABLE_COMMANDS + [["verify", "--sites", "3"]])
    def test_outputs_validate(self, args, tmp_path):
        if args[0] == "verify":
            code, data = run_cli(args, tmp_path, "o.json")
        else:
            code, data = run_cli(args + ["--format", "json"], tmp_path, "o.json")
        assert code == 0
        validate_json(json.loads(data))



def dumped_table(head, key, rows, columns=None):
    """What ``json.dumps`` writes for the table: the reference of ``cli._json_table``."""
    body = [list(row) if columns is None else dict(zip(columns, row)) for row in rows]
    return json.dumps({**head, key: body}, indent=2) + "\n"


#: Column names with quotes, backslashes, template percent signs, control
#: characters and non-ASCII text, which json escapes.
_COLUMN_NAMES = st.text(
    st.one_of(st.sampled_from('"\\%s\x00\x1f\n\t\x7f\u00e9\u20ac\U0001f600'), st.characters()),
    min_size=0,
    max_size=6,
)

_CELLS = st.one_of(
    st.sampled_from(
        [-0.0, 0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 2**53 + 1, -(2**64) - 1]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)


@st.composite
def tables(draw):
    """Unique columns and rows of scalars; a cell may be the very object of the row above."""
    columns = draw(st.lists(_COLUMN_NAMES, min_size=1, max_size=5, unique=True))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = []
        for i in range(len(columns)):
            shared = rows and draw(st.booleans())
            row.append(rows[-1][i] if shared else draw(_CELLS))
        rows.append(tuple(row))
    head = {"command": draw(st.text(max_size=4)), "params": {"sites": 4}, "metadata": {}}
    return head, columns, rows


class TestJsonTable:
    """``cli._json_table`` writes the bytes of ``json.dumps(..., indent=2)``."""

    @settings(max_examples=300, deadline=None)
    @given(table=tables())
    @example(table=({"command": "c"}, ["%", "%s"], [(None, 1), (None, True), (1.0, -0.0)]))
    @example(table=({"command": "c"}, ["a"], [(0.0,), (-0.0,), (1,), (True,), (False,), (0,)]))
    @example(table=({"command": "c"}, ["a"], []))
    @example(table=({"command": "c"}, ["a"], [(math.nan,), (math.inf,), (-math.inf,), (5e-324,)]))
    def test_object_rows_are_the_json_dumps_bytes(self, table):
        head, columns, rows = table
        assert cli._json_table(head, "rows", rows, columns) == dumped_table(
            head, "rows", rows, columns
        )

    @settings(max_examples=100, deadline=None)
    @given(table=tables())
    def test_list_rows_are_the_json_dumps_bytes(self, table):
        head, _, rows = table
        assert cli._json_table(head, "amplitudes", rows) == dumped_table(head, "amplitudes", rows)

    @pytest.mark.parametrize("argv", TABLE_COMMANDS)
    def test_every_command_writes_the_bytes_of_json_dumps(self, argv, monkeypatch, capsys):
        tables_written = []
        writer = cli._json_table

        def spy(head, key, rows, columns=None):
            tables_written.append(dumped_table(head, key, rows, columns))
            return writer(head, key, rows, columns)

        monkeypatch.setattr(cli, "_json_table", spy)
        assert cli.main(argv + ["--format", "json"]) == cli.EXIT_OK
        assert [capsys.readouterr().out] == tables_written

    def test_traced_peak_stays_within_three_texts(self):
        # json.dumps(indent=2) peaked at about six times this text.
        state = xxring.ground_state(14, -0.003267)
        indices = xxring.statevector._sector_indices(14, state.n)
        sector = state.amplitudes[indices]
        rows = list(zip(indices.tolist(), sector.real.tolist(), sector.imag.tolist()))
        head = {"command": "ground-state", "params": {"sites": 14}, "metadata": {"fermions": 7}}
        cli._json_table(head, "amplitudes", rows[:2])  # load json before tracing
        tracemalloc.start()
        try:
            text = cli._json_table(head, "amplitudes", rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 3432
        assert peak <= 3 * len(text)


class TestSpectrumCommand:
    def test_vacuum_row_tracks_field(self, tmp_path):
        _, data = run_cli(
            ["spectrum", "--sites", "8", "--g-min", "-2", "--g-max", "2", "--steps", "5"],
            tmp_path,
        )
        _, rows = parse_csv(data)
        vacuum = [r for r in rows if r["n"] == "0"]
        assert [float(r["energy"]) for r in vacuum] == [
            float(r["g"]) for r in vacuum
        ]

    def test_first_crossing_at_minus_one(self, tmp_path):
        _, data = run_cli(
            ["spectrum", "--sites", "8", "--g", "-1"], tmp_path
        )
        _, rows = parse_csv(data)
        by_n = {r["n"]: float(r["energy"]) for r in rows}
        assert by_n["0"] == pytest.approx(by_n["1"], abs=1e-14)

    def test_single_particle_lines(self, tmp_path):
        _, data = run_cli(
            ["spectrum", "--sites", "9", "--steps", "3", "--single-particle"], tmp_path
        )
        _, rows = parse_csv(data)
        assert {r["k"] for r in rows} == {str(k) for k in range(9)}

    def test_mode_cosines_table(self, tmp_path):
        _, data = run_cli(["spectrum", "--sites", "8", "--modes"], tmp_path)
        _, rows = parse_csv(data)
        assert len(rows) == 16
        shifted = {r["k"]: float(r["cosine"]) for r in rows if r["alpha"] == "0.5"}
        assert shifted["4"] == pytest.approx(math.cos(2 * math.pi * 4.5 / 8), abs=1e-15)


class TestEnvelopeCommand:
    def test_large_ring_approaches_thermodynamic_value(self, tmp_path):
        _, data = run_cli(["envelope", "--sites", "45", "--g", "0"], tmp_path)
        _, rows = parse_csv(data)
        assert float(rows[0]["envelope"]) == pytest.approx(-2 / math.pi, abs=1e-3)

    def test_metadata_header(self, tmp_path):
        _, data = run_cli(["envelope", "--sites", "9", "--g", "0"], tmp_path)
        lines = data.decode().split("\n")
        assert lines[0].startswith("# chi = 0.97981553605101")
        assert lines[1].startswith("# relative_error = ")

    def test_smaller_rings_sit_farther_from_limit(self, tmp_path):
        gaps = {}
        for sites in (5, 9):
            _, data = run_cli(["envelope", "--sites", str(sites), "--g", "0"], tmp_path)
            _, rows = parse_csv(data)
            gaps[sites] = abs(
                float(rows[0]["envelope"]) - float(rows[0]["thermodynamic"])
            )
        assert gaps[5] > gaps[9]

    def test_linear_branch(self, tmp_path):
        _, data = run_cli(["envelope", "--sites", "7", "--g", "2"], tmp_path)
        _, rows = parse_csv(data)
        assert float(rows[0]["envelope"]) == -2.0

    def test_detail_table(self, tmp_path):
        _, data = run_cli(["envelope", "--sites", "50", "--detail"], tmp_path)
        _, rows = parse_csv(data)
        assert len(rows) == 50
        assert rows[0]["relative_error"] == ""  # undefined for a single site
        assert float(rows[49]["chi"]) == pytest.approx(
            math.sin(math.pi / 50) / (math.pi / 50), abs=1e-15
        )

    def test_detail_builds_no_grid(self, tmp_path):
        # The detail table reads no field grid, so grid flags do not count;
        # the bytes are those of the README plot command.
        code, data = run_cli(["envelope", "--sites", "50", "--detail"], tmp_path, "d.csv")
        assert code == cli.EXIT_OK
        assert hashlib.sha256(data).hexdigest() == (
            "2b1e2b3933f54caa1cefce426c662571229881af13bcfa0a967e678611fbdf90"
        )
        for flags in (["--steps", "1"], ["--g-min", "1", "--g-max=-1"]):
            args = ["envelope", "--sites", "50", "--detail", *flags]
            assert run_cli(args, tmp_path, "f.csv") == (cli.EXIT_OK, data)


class TestGroundStateCommand:
    def test_json_triples_cover_sector(self, tmp_path):
        code, data = run_cli(
            ["ground-state", "--sites", "5", "--g", "-0.95", "--format", "json"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(data)
        assert payload["metadata"]["fermions"] == 1
        indices = [triple[0] for triple in payload["amplitudes"]]
        assert indices == [1, 2, 4, 8, 16]
        norm = sum(re * re + im * im for _, re, im in payload["amplitudes"])
        assert norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_sites, g", [(3, -1.2), (6, 0.1), (9, -0.37), (10, 1.5)])
    def test_rows_are_the_sector_amplitudes(self, tmp_path, n_sites, g):
        code, data = run_cli(["ground-state", "--sites", str(n_sites), f"--g={g}"], tmp_path)
        assert code == cli.EXIT_OK
        state = xxring.ground_state(n_sites, g)
        expected = [
            [str(index), format(float(amp.real), ".17g"), format(float(amp.imag), ".17g")]
            for index, amp in enumerate(state.amplitudes)
            if index.bit_count() == state.n
        ]
        lines = data.decode().splitlines()
        assert lines[:2] == [f"# fermions = {state.n}", "index,re,im"]
        assert [line.split(",") for line in lines[2:]] == expected

    def test_requires_single_field_value(self, tmp_path):
        code = cli.main(["ground-state", "--sites", "5", "--steps", "4"])
        assert code == cli.EXIT_USAGE


class TestEntanglementCommand:
    def test_factorized_row(self, tmp_path):
        _, data = run_cli(["entanglement", "--sites", "8", "--g", "1.5"], tmp_path)
        _, rows = parse_csv(data)
        assert rows[0]["n"] == "8"
        assert float(rows[0]["mu"]) == 1.0
        assert float(rows[0]["sigma"]) == 0.0

    def test_single_fermion_plateau_row(self, tmp_path):
        _, data = run_cli(["entanglement", "--sites", "8", "--g", "-0.95"], tmp_path)
        _, rows = parse_csv(data)
        assert float(rows[0]["mu"]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[0]["sigma"]) == pytest.approx(0.0, abs=1e-12)

    def test_multi_size_sweep(self, tmp_path):
        _, data = run_cli(
            ["entanglement", "--sites", "4,5,6", "--g", "0.2"], tmp_path
        )
        _, rows = parse_csv(data)
        assert [r["n_sites"] for r in rows] == ["4", "5", "6"]

    def test_detail_rows_carry_masks(self, tmp_path):
        _, data = run_cli(
            ["entanglement", "--sites", "4", "--g", "0.2", "--detail"], tmp_path
        )
        _, rows = parse_csv(data)
        assert [r["mask"] for r in rows] == ["3", "5", "9"]
        for row in rows:
            assert 0.0 < float(row["pi"]) <= 1.0

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                ["--sites", "8", "--g=0.3", "--detail", "--format", "json"],
                "3b3069977cde0a7c491515ba2a358cf6b44aae80c80d723974ec9990a4573057",
            ),
            (
                ["--sites", "4,5,6", "--steps", "121"],
                "e9b0f91eee012c337cb14bee2469c964093d452b11e706aeeb557a9843c7a429",
            ),
        ],
    )
    def test_bytes_are_pinned(self, tmp_path, args, digest):
        # Recorded before the bipartitions carried their own axis order; the
        # purities and their formatting must keep every byte.
        code, data = run_cli(["entanglement", *args], tmp_path)
        assert code == cli.EXIT_OK
        assert hashlib.sha256(data).hexdigest() == digest


class TestExitCodes:
    def test_usage_error_on_bad_flags(self):
        assert cli.main(["spectrum", "--sites", "8", "--steps", "1"]) == cli.EXIT_USAGE
        assert (
            cli.main(["spectrum", "--sites", "8", "--g-min", "2", "--g-max", "-2"])
            == cli.EXIT_USAGE
        )
        assert cli.main(["unknown-command"]) == cli.EXIT_USAGE
        assert cli.main(["spectrum"]) == cli.EXIT_USAGE

    def test_usage_error_on_degenerate_field(self, capsys):
        assert cli.main(["ground-state", "--sites", "6", "--g", "-1"]) == cli.EXIT_USAGE
        assert "crossing" in capsys.readouterr().err

    def test_size_limit_exit(self, capsys):
        assert (
            cli.main(["entanglement", "--sites", "13", "--g", "0.5"])
            == cli.EXIT_SIZE_LIMIT
        )
        assert "limited" in capsys.readouterr().err

    def test_negative_scientific_field_needs_equals_sign(self, tmp_path, capsys):
        # argparse reads a detached "-1e-3" as an option, not as a number.
        spaced = ["spectrum", "--sites", "8", "--g-min", "-1e-3", "--g-max", "1"]
        assert cli.main(spaced) == cli.EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err
        joined = ["spectrum", "--sites", "8", "--g-min=-1e-3", "--g-max", "1", "--steps", "3"]
        code, data = run_cli(joined, tmp_path, "joined.csv")
        assert code == cli.EXIT_OK
        header, rows = parse_csv(data)
        assert rows[0]["g"] == "-0.001"

    @pytest.mark.parametrize(
        "args",
        [
            # Field flags are checked even where the command ignores the grid.
            ["spectrum", "--sites", "8", "--modes", "--g=nan"],
            ["envelope", "--sites", "9", "--detail", "--g=nan"],
            ["critical-points", "--sites", "6", "--g", "0.1"],
            ["entanglement", "--sites", "5", "--g", "0.1", "--workers", "0"],
            ["spectrum", "--sites", "8", "--g", "0.1", "--steps", "3"],
            ["spectrum", "--sites", "7", "--single-particle", "--modes"],
            # Finite ends whose span overflows.
            ["spectrum", "--sites", "5", "--g-min=-1e308", "--g-max=1e308", "--steps", "3"],
            # There is no --workers option: any value is a usage error.
            ["entanglement", "--sites", "5", "--g", "0.1", "--workers", "2"],
        ],
    )
    def test_usage_errors_before_any_work(self, args, capsys):
        assert cli.main(args) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_ground_state_without_field_is_a_usage_error(self, capsys):
        assert cli.main(["ground-state", "--sites", "5"]) == cli.EXIT_USAGE
        assert "needs a single field value" in capsys.readouterr().err

    def test_tiny_ring_rejected(self, capsys):
        assert cli.main(["spectrum", "--sites", "2", "--g", "0.5"]) == cli.EXIT_USAGE

    def test_verify_size_cap(self, capsys):
        assert cli.main(["verify", "--sites", "11"]) == cli.EXIT_SIZE_LIMIT
        capsys.readouterr()

    def test_verify_passes(self, tmp_path):
        code, data = run_cli(["verify", "--sites", "3"], tmp_path, "v.json")
        assert code == 0
        payload = json.loads(data)
        assert payload["passed"] is True
        validate_json(payload)

    def test_verify_writes_json_only(self, tmp_path, capsys):
        # The report is JSON; asking for CSV is a usage error, not a silent JSON.
        assert cli.main(["verify", "--sites", "4", "--format", "csv"]) == cli.EXIT_USAGE
        assert "invalid choice" in capsys.readouterr().err
        default = run_cli(["verify", "--sites", "4"], tmp_path, "default.json")
        explicit = run_cli(["verify", "--sites", "4", "--format", "json"], tmp_path, "json.json")
        assert default[0] == cli.EXIT_OK
        assert explicit == default
        assert json.loads(default[1])["passed"] is True

    def test_verify_fails_on_corrupted_hamiltonian(self, tmp_path, monkeypatch, capsys):
        true_terms = oracle.hamiltonian_terms

        def corrupted(n_sites, g):
            terms = true_terms(n_sites, g)
            terms[1].coeff[[1, 2]] = +1.0  # flipped hopping sign between states 1 and 2
            return terms

        monkeypatch.setattr(oracle, "hamiltonian_terms", corrupted)
        code, data = run_cli(["verify", "--sites", "4"], tmp_path, "bad.json")
        assert code == cli.EXIT_VERIFY_FAILED
        payload = json.loads(data)
        assert payload["passed"] is False
        failed = [check for check in payload["checks"] if not check["passed"]]
        assert failed
        validate_json(payload)
        # stderr names each failed check with its witness; stdout stays empty.
        out, err = capsys.readouterr()
        witnesses = "; ".join(f"{c['name']} {json.dumps(c['detail'])}" for c in failed)
        assert (out, err) == ("", f"verification failed: {witnesses}\n")
        assert 'jw_equals_pauli {"sites": 4, "g": 0.7, "entry": [1, 2]}' in err


#: One closed-form README plot command and one numpy-backed N = 11 table.
PROCESS_PINS = [PINNED_BYTES[2], next(pin for pin in PINNED_BYTES if "--g=-0.672040" in pin[0])]


class TestProcess:
    """``python -m xxring`` in a fresh process, the path of ``cli.entry``."""

    @pytest.mark.parametrize(
        "argv, digest", PROCESS_PINS, ids=["_".join(argv) for argv, _ in PROCESS_PINS]
    )
    def test_stdout_bytes_match_the_in_process_pins(self, argv, digest):
        run = run_process(argv)
        assert (run.returncode, run.stderr) == (cli.EXIT_OK, b"")
        assert hashlib.sha256(run.stdout).hexdigest() == digest

    def test_verify_passes(self):
        run = run_process(["verify", "--sites", "4"])
        assert run.returncode == cli.EXIT_OK
        assert json.loads(run.stdout)["passed"] is True

    def test_usage_error_writes_no_stdout(self):
        run = run_process(["spectrum", "--sites", "8", "--steps", "1"])
        assert (run.returncode, run.stdout) == (cli.EXIT_USAGE, b"")

    def test_size_limit(self):
        run = run_process(["entanglement", "--sites", "13", "--g", "0.5"])
        assert (run.returncode, run.stdout) == (cli.EXIT_SIZE_LIMIT, b"")

    def test_output_file_holds_the_stdout_bytes(self, tmp_path):
        argv = ["ground-state", "--sites", "8", "--g", "-0.95", "--format", "json"]
        path = tmp_path / "state.json"
        to_stdout, to_file = run_process(argv), run_process(argv + ["--output", str(path)])
        assert to_stdout.returncode == to_file.returncode == cli.EXIT_OK
        assert to_file.stdout == b""
        assert path.read_bytes() == to_stdout.stdout

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output_is_one_error_line(self, tmp_path, target):
        # Exit 2, not 1: a verification that passed but could not be written did not fail.
        path = str(tmp_path / target)
        run = run_process(["verify", "--sites", "4", "--output", path])
        assert (run.returncode, run.stdout) == (cli.EXIT_USAGE, b"")
        (line,) = run.stderr.decode().splitlines()
        assert line.startswith(f"error: cannot write {path}: ")

    def test_bytes_do_not_follow_the_blas_threads(self):
        # Both commands print other last digits on 2 BLAS threads unless the
        # entry point pins one; the ground state's golden digest is the
        # 1-thread one.
        def run_on(threads, argv):
            env = package_env()
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            run = subprocess.run(
                [sys.executable, "-m", "xxring", *argv], env=env, capture_output=True
            )
            assert (run.returncode, run.stderr) == (cli.EXIT_OK, b"")
            return run.stdout

        ground = run_on("2", ["ground-state", "--sites", "14", "--g=-0.003267", "--format", "json"])
        assert hashlib.sha256(ground).hexdigest() == (
            "064c7022367b072fae5ad5b3afe81b7b5af3cadb425a9775a57232a6f7c92e6f"
        )
        verify_argv = ["verify", "--sites", "10"]
        assert run_on("1", verify_argv) == run_on("2", verify_argv)

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output_is_refused_before_the_work(
        self, tmp_path, target, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli.verify, "run_verification", lambda n: calls.append(n))
        path = str(tmp_path / target)
        assert cli.main(["verify", "--sites", "10", "--output", path]) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert (out, calls) == ("", [])
        (line,) = err.splitlines()
        assert line.startswith(f"error: cannot write {path}: ")
        assert not (tmp_path / "missing").exists()

    def test_failed_run_leaves_no_output_file(self, tmp_path):
        path = tmp_path / "out.csv"
        code = cli.main(["entanglement", "--sites", "5", "--g", "0", "--output", str(path)])
        assert code == cli.EXIT_USAGE  # g = 0 is a level crossing of N = 5
        assert not path.exists()


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestEntry:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--sites", "4"],
            ["critical-points", "--sites", "8"],
            ["entanglement", "--sites", "13", "--g", "0.5"],
            ["spectrum"],
        ],
    )
    def test_main_leaves_the_collector_as_it_was(self, argv, capsys):
        before = (gc.isenabled(), gc.get_freeze_count())
        cli.main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize(
        "argv", [["verify", "--sites", "4"], ["critical-points", "--sites", "8"]]
    )
    def test_main_leaves_the_environment_alone(self, argv, capsys):
        before = dict(os.environ)
        cli.main(argv)
        assert dict(os.environ) == before

    def test_entry_freezes_after_main_and_exits_with_its_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or cli.EXIT_SIZE_LIMIT)
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.setenv(name, "2")  # restored when the test ends
        with pytest.raises(SystemExit) as exited:
            cli.entry()
        assert exited.value.code == cli.EXIT_SIZE_LIMIT
        assert calls == ["main", "freeze"]
        assert [os.environ[name] for name in BLAS_THREAD_VARIABLES] == ["1", "1", "1"]

    def test_script_and_module_launchers_share_entry(self, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["xxring"] == "xxring.cli:entry"
        calls = []
        monkeypatch.setattr(cli, "entry", lambda: calls.append("entry"))
        runpy.run_module("xxring", run_name="__main__")
        assert calls == ["entry"]


#: Every option of every subcommand, in declaration order.
SUBCOMMAND_OPTIONS = {
    "spectrum": [
        "-h", "--help", "--sites", "--g", "--g-min", "--g-max", "--steps",
        "--format", "--output", "--single-particle", "--modes",
    ],
    "critical-points": ["-h", "--help", "--sites", "--format", "--output"],
    "envelope": [
        "-h", "--help", "--sites", "--g", "--g-min", "--g-max", "--steps",
        "--format", "--output", "--detail",
    ],
    "ground-state": ["-h", "--help", "--sites", "--g", "--format", "--output"],
    "entanglement": [
        "-h", "--help", "--sites", "--g", "--g-min", "--g-max", "--steps",
        "--format", "--output", "--detail",
    ],
    "verify": ["-h", "--help", "--sites", "--format", "--output"],
}


class TestParser:
    def test_subcommand_options_are_pinned(self):
        parser = cli.build_parser()
        (commands,) = [
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        options = {
            name: [flag for action in sub._actions for flag in action.option_strings]
            for name, sub in commands.choices.items()
        }
        assert options == SUBCOMMAND_OPTIONS


#: The closed-form invocations of the README "Reproducing the standard plots"
#: table; none of them may load numpy.
CLOSED_FORM_COMMANDS = [
    ["spectrum", "--sites", "8", "--single-particle"],
    ["spectrum", "--sites", "8", "--modes"],
    ["spectrum", "--sites", "8"],
    ["critical-points", "--sites", "8"],
    ["envelope", "--sites", "9"],
    ["envelope", "--sites", "45"],
    ["envelope", "--sites", "50", "--detail"],
]

#: Runs in a fresh interpreter: the test process itself has numpy and scipy
#: loaded.  Records the numpy and scipy modules loaded after each step, and
#: which of ``_HEAVY_STDLIB`` were not loaded before ``import xxring``.  The
#: probe takes that snapshot first and imports json itself only at the end,
#: so the commands arrive one per line, not as JSON.
_SCIPY_PROBE = """
import os, sys

baseline = set(sys.modules)
heavy = sys.argv[3].split(",")

def loaded(top):
    return sorted(m for m in sys.modules if m == top or m.startswith(top + "."))

seen = {}
def record(step):
    seen[step] = {
        "numpy": loaded("numpy"),
        "scipy": loaded("scipy"),
        "added": [m for m in heavy if m in sys.modules and m not in baseline],
    }

out_dir, commands = sys.argv[1], [line.split(" ") for line in sys.argv[2].splitlines()]
import xxring
record("import xxring")
import xxring.cli
record("import xxring.cli")
layers = sorted(m for m in sys.modules if m.startswith("xxring."))
codes = []
for argv in commands:
    codes.append(xxring.cli.main(argv + ["--output", os.path.join(out_dir, "closed.out")]))
    record(" ".join(argv))
json_argv = ["spectrum", "--sites", "8", "--format", "json"]
codes.append(xxring.cli.main(json_argv + ["--output", os.path.join(out_dir, "spectrum.json")]))
record(" ".join(json_argv))
codes.append(xxring.cli.main(["verify", "--sites", "4", "--output", os.path.join(out_dir, "verify.json")]))
record("verify --sites 4")
foreign = [
    name for name in xxring.__all__
    if getattr(xxring, name) is not getattr(sys.modules[getattr(xxring, name).__module__], name)
]
star = {}
exec("from xxring import *", star)
import json
print(json.dumps({
    "codes": codes, "seen": seen, "layers": layers, "foreign": foreign,
    "star": sorted(name for name in star if name != "__builtins__"),
}))
"""

#: Standard-library modules the closed-form CSV commands must not load:
#: ``dataclasses`` brings ``inspect`` (with ``ast``, ``dis`` and
#: ``tokenize``), about 11 ms of every process, and ``json`` about 4 ms.
_HEAVY_STDLIB = ("dataclasses", "inspect", "json")

_CLOSED_FORM_STEPS = ["import xxring", "import xxring.cli"] + [
    " ".join(argv) for argv in CLOSED_FORM_COMMANDS
]


class TestRuntimeDependencies:
    @pytest.fixture(scope="class")
    def probe(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("probe")
        commands = "\n".join(" ".join(argv) for argv in CLOSED_FORM_COMMANDS)
        run = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, str(out_dir), commands, ",".join(_HEAVY_STDLIB)],
            env=package_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        return out_dir, json.loads(run.stdout)

    def test_package_and_verify_load_no_scipy(self, probe):
        out_dir, probe = probe
        assert probe["codes"] == [cli.EXIT_OK] * (len(CLOSED_FORM_COMMANDS) + 2)
        assert json.loads((out_dir / "verify.json").read_text())["passed"] is True
        seen = probe["seen"]
        # numpy loads on first use of a numpy-backed module, never before.
        closed_form = _CLOSED_FORM_STEPS + ["spectrum --sites 8 --format json"]
        assert list(seen) == closed_form + ["verify --sites 4"]
        assert {step: seen[step]["numpy"] for step in closed_form} == dict.fromkeys(
            closed_form, []
        )
        assert "numpy" in seen["verify --sites 4"]["numpy"]
        assert {step: loaded["scipy"] for step, loaded in seen.items()} == dict.fromkeys(
            seen, []
        )
        # perfbench/tracer.py wraps these modules right after `import xxring.cli`.
        layers = ("cli", "analytic", "statevector", "entanglement", "oracle", "verify")
        assert {f"xxring.{layer}" for layer in layers} <= set(probe["layers"])
        assert probe["foreign"] == []
        assert set(xxring.__all__) <= set(probe["star"])

    def test_closed_form_csv_loads_no_dataclasses_inspect_or_json(self, probe):
        out_dir, probe = probe
        seen = probe["seen"]
        assert {step: seen[step]["added"] for step in _CLOSED_FORM_STEPS} == dict.fromkeys(
            _CLOSED_FORM_STEPS, []
        )
        # JSON output, which now imports json on demand, is still valid JSON.
        payload = json.loads((out_dir / "spectrum.json").read_text())
        validate_json(payload)
        assert payload["command"] == "spectrum"
        assert len(payload["rows"]) == 9 * 61

    def test_json_tables_and_verify_load_no_csv(self, tmp_path):
        script = (
            "import sys\n"
            "from xxring import cli\n"
            "codes = [cli.main(argv + ['--output', sys.argv[1]]) for argv in (\n"
            "    ['entanglement', '--sites', '6', '--g', '0.3', '--detail', '--format', 'json'],\n"
            "    ['ground-state', '--sites', '6', '--g', '0.3', '--format', 'json'],\n"
            "    ['verify', '--sites', '4'],\n"
            ")]\n"
            "print(codes, 'csv' in sys.modules)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "out.json")],
            env=package_env(),
            capture_output=True,
            text=True,
            check=True,
        )
        assert run.stdout == "[0, 0, 0] False\n"


class TestPackageExports:
    def test_all_lists_each_public_name_once(self):
        assert sorted(xxring.__all__) == [
            "Bipartition",
            "CriticalPoint",
            "DegenerateAtCrossing",
            "DimensionMismatch",
            "ModeSet",
            "NoConvergence",
            "PurityStats",
            "SingularPoint",
            "SizeLimit",
            "StateVector",
            "XXRingError",
            "alpha_for_sector",
            "balanced_bipartitions",
            "build_jw_hamiltonian",
            "build_parity_operator",
            "build_spin_hamiltonian",
            "critical_points",
            "entanglement_sweep",
            "envelope_energy",
            "envelope_second_derivative",
            "finite_size_parameter",
            "ground_eigenpair",
            "ground_energy_density",
            "ground_sector",
            "ground_state",
            "min_energy_density",
            "occupied_modes",
            "purity",
            "purity_stats",
            "relative_error",
            "thermodynamic_energy",
        ]
