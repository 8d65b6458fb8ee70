import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import xxring
from xxring import cli, oracle


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = cli.main(args + ["--output", str(path)])
    return code, path.read_bytes() if path.exists() else b""


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

    def test_identical_bytes_across_worker_counts(self, tmp_path):
        base = [
            "entanglement", "--sites", "6", "--g-min", "-1.4", "--g-max", "1.4",
            "--steps", "15", "--detail",
        ]
        code_a, serial = run_cli(base + ["--workers", "1"], tmp_path, "w1.csv")
        code_b, threaded = run_cli(base + ["--workers", "3"], tmp_path, "w3.csv")
        assert code_a == code_b == 0
        assert serial == threaded
        # workers is echoed in JSON params, so compare CSV bodies only

    def test_workers_above_one_notes_serial_run_on_stderr(self, capsys):
        base = ["entanglement", "--sites", "5", "--steps", "7", "--format", "json"]
        assert cli.main(base) == 0
        serial = capsys.readouterr()
        assert serial.err == ""
        assert cli.main(base + ["--workers", "2"]) == 0
        noted = capsys.readouterr()
        assert noted.err.count("\n") == 1 and "serially" in noted.err
        payload = json.loads(noted.out)
        assert payload["params"]["workers"] == 2
        assert payload["rows"] == json.loads(serial.out)["rows"]

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


class TestJsonSchema:
    @pytest.mark.parametrize(
        "args",
        [
            ["spectrum", "--sites", "6", "--steps", "5"],
            ["spectrum", "--sites", "6", "--steps", "5", "--single-particle"],
            ["spectrum", "--sites", "6", "--modes"],
            ["critical-points", "--sites", "6"],
            ["envelope", "--sites", "9", "--steps", "7"],
            ["envelope", "--sites", "9", "--detail"],
            ["ground-state", "--sites", "5", "--g", "-0.5"],
            ["entanglement", "--sites", "4,5", "--g", "0.4"],
            ["entanglement", "--sites", "5", "--g", "0.4", "--detail"],
            ["verify", "--sites", "3"],
        ],
    )
    def test_outputs_validate(self, args, tmp_path):
        if args[0] == "verify":
            code, data = run_cli(args, tmp_path, "o.json")
        else:
            code, data = run_cli(args + ["--format", "json"], tmp_path, "o.json")
        assert code == 0
        validate_json(json.loads(data))


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
        true_build = oracle.build_spin_hamiltonian

        def corrupted(n_sites, g):
            ham = true_build(n_sites, g)
            ham[1, 2] = ham[2, 1] = +1.0
            return ham

        monkeypatch.setattr(oracle, "build_spin_hamiltonian", corrupted)
        code, data = run_cli(["verify", "--sites", "4"], tmp_path, "bad.json")
        assert code == cli.EXIT_VERIFY_FAILED
        payload = json.loads(data)
        assert payload["passed"] is False
        assert any(not check["passed"] for check in payload["checks"])
        validate_json(payload)


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
        "--format", "--output", "--workers", "--detail",
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
        package_root = str(Path(xxring.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root, *filter(None, [env.get("PYTHONPATH")])]
        )
        commands = "\n".join(" ".join(argv) for argv in CLOSED_FORM_COMMANDS)
        run = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, str(out_dir), commands, ",".join(_HEAVY_STDLIB)],
            env=env,
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
            "slater_amplitude",
            "thermodynamic_energy",
        ]
