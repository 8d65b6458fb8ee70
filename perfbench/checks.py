"""Correctness gate: every invocation's output is checked before it counts.

An invocation fails on a nonzero exit, on a seed-0 stdout whose sha256
differs from the digest recorded in ``golden.json``, on a broken
seed-independent invariant, or on a ``verify`` report that did not pass or
whose check names and tolerances differ from the recorded ones.

``verify`` bytes are not checksummed: the ``max_deviation`` digits depend
on the BLAS build and thread count.  The invariants use only closed forms
written out here, not the package under test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

from workloads import crossing_field

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
SCHEMA_PATH = os.path.join("src", "xxring", "schemas", "cli_output.schema.json")

#: Slack on closed-form comparisons, far below any deviation worth reporting.
TOLERANCE = 1e-12


class InvariantError(Exception):
    """An output broke a property every correct output has."""


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ground_sector(n_sites: int, g: float) -> int:
    """Fermion number minimizing the closed-form sector energy at field g."""
    def energy(n):
        return g * (1 - 2 * n / n_sites) - (2 / n_sites) * math.sin(
            n * math.pi / n_sites
        ) / math.sin(math.pi / n_sites)

    return min(range(n_sites + 1), key=energy)


def balanced_cut_count(n_sites: int) -> int:
    if n_sites % 2 == 0:
        return math.comb(n_sites, n_sites // 2) // 2
    return math.comb(n_sites, n_sites // 2)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def _option(argv: list[str], name: str, default=None):
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return default


def _grid(argv: list[str], default_steps: int) -> tuple[float, float, int]:
    return (
        float(_option(argv, "--g-min", -1.5)),
        float(_option(argv, "--g-max", 1.5)),
        int(_option(argv, "--steps", default_steps)),
    )


def _csv_rows(text: str) -> list[dict]:
    """Table rows of a CSV output, past its ``# key = value`` header lines."""
    lines = [line for line in text.splitlines() if not line.startswith("# ")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _check_entanglement_groups(rows: list[dict], sizes: list[int], steps: int, detail: bool):
    """Sector, purity range, cut count and mu/sigma of every (N, g) group."""
    groups: dict[tuple[int, float], list[dict]] = {}
    for row in rows:
        groups.setdefault((int(row["n_sites"]), float(row["g"])), []).append(row)
    _require(
        sorted({n for n, _ in groups}) == sorted(sizes)
        and len(groups) == steps * len(sizes),
        f"expected {steps} field values for each of {sizes}, got {len(groups)} groups",
    )
    for (n_sites, g), group in groups.items():
        first = group[0]
        n, mu, sigma = int(first["n"]), float(first["mu"]), float(first["sigma"])
        _require(n == ground_sector(n_sites, g), f"N={n_sites} g={g}: n={n} is not the ground sector")
        floor = 2.0 ** -(n_sites // 2)
        _require(floor * (1 - TOLERANCE) <= mu <= 1 + TOLERANCE, f"N={n_sites} g={g}: mu={mu} out of range")
        _require(sigma >= 0, f"N={n_sites} g={g}: negative sigma")
        if not detail:
            _require(len(group) == 1, f"N={n_sites} g={g}: repeated row")
            continue
        _require(
            len(group) == balanced_cut_count(n_sites),
            f"N={n_sites} g={g}: {len(group)} cuts, expected {balanced_cut_count(n_sites)}",
        )
        values = []
        for row in group:
            _require(
                (int(row["n"]), float(row["mu"]), float(row["sigma"])) == (n, mu, sigma),
                f"N={n_sites} g={g}: statistics differ between detail rows",
            )
            size_a = int(row["mask"]).bit_count()
            pi = float(row["pi"])
            _require(
                2.0 ** -size_a * (1 - TOLERANCE) <= pi <= 1 + TOLERANCE,
                f"N={n_sites} g={g} mask={row['mask']}: pi={pi} outside [2^-|A|, 1]",
            )
            values.append(pi)
        mean = math.fsum(values) / len(values)
        spread = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
        _require(_close(mu, mean), f"N={n_sites} g={g}: mu={mu} but the cuts average {mean}")
        _require(
            abs(sigma - spread) <= 1e-9 * max(mu, 1e-300),
            f"N={n_sites} g={g}: sigma={sigma} but the cuts spread {spread}",
        )


def _check_spectrum(argv, rows):
    n_sites = int(_option(argv, "--sites"))
    if "--modes" in argv:
        _require(len(rows) == 2 * n_sites, "mode table has the wrong length")
        for row in rows:
            _require(-1 - TOLERANCE <= float(row["cosine"]) <= 1 + TOLERANCE, "cosine outside [-1, 1]")
        return
    _, _, steps = _grid(argv, 61)
    lines = n_sites if "--single-particle" in argv else n_sites + 1
    _require(len(rows) == lines * steps, f"expected {lines * steps} rows, got {len(rows)}")
    _require(all(math.isfinite(float(row["energy"])) for row in rows), "non-finite energy")


def _check_critical_points(argv, rows):
    n_sites = int(_option(argv, "--sites"))
    fields = [float(row["g_c"]) for row in rows]
    _require(len(fields) == n_sites + 1, "wrong number of crossings")
    _require(_close(fields[0], -1.0) and _close(fields[-1], 1.0), "endpoint crossings are not -1 and +1")
    _require(
        all(b >= a - TOLERANCE for a, b in zip(fields, fields[1:])), "crossings are not non-decreasing"
    )
    _require(
        all(_close(gc, crossing_field(n_sites, n)) for n, gc in enumerate(fields[:-1])),
        "crossing differs from the closed form",
    )


def _check_envelope(argv, rows):
    n_sites = int(_option(argv, "--sites"))
    if "--detail" in argv:
        _require(len(rows) == n_sites, "detail table has the wrong length")
        chis = [float(row["chi"]) for row in rows]
        _require(all(0 <= c <= 1 for c in chis), "chi outside [0, 1]")
        _require(all(a < b for a, b in zip(chis, chis[1:])), "chi is not increasing")
        return
    _, _, steps = _grid(argv, 61)
    _require(len(rows) == steps, f"expected {steps} rows, got {len(rows)}")
    for row in rows:
        _require(
            float(row["envelope"]) <= float(row["ground"]) + TOLERANCE,
            f"g={row['g']}: envelope above the ground energy",
        )


def _check_ground_state(argv, payload):
    n_sites = int(_option(argv, "--sites"))
    n = ground_sector(n_sites, float(_option(argv, "--g")))
    _require(payload["metadata"]["fermions"] == n, "fermion number is not the ground sector")
    amplitudes = payload["amplitudes"]
    _require(len(amplitudes) == math.comb(n_sites, n), "wrong number of amplitudes")
    _require(all(index.bit_count() == n for index, _, _ in amplitudes), "amplitude outside the sector")
    norm = math.fsum(re * re + im * im for _, re, im in amplitudes)
    _require(abs(norm - 1) <= 1e-10, f"state norm {norm} is not 1")


class Gate:
    """Checks invocation outputs for one workload and seed.

    Each distinct stdout is checked once; later repeats only need the same
    bytes, so a pass costs a hash per invocation.
    """

    def __init__(self, seed: int):
        import jsonschema

        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            self.golden = json.load(handle)
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            self.validator = jsonschema.Draft202012Validator(json.load(handle))
        self.seed = seed
        self.accepted: dict[str, str] = {}

    def check(self, argv: list[str], returncode: int, stdout: bytes) -> str | None:
        """None when the output is correct, otherwise why it is not."""
        if returncode != 0:
            return f"exit code {returncode}"
        key, digest = argv_key(argv), sha256(stdout)
        if self.accepted.get(key) == digest:
            return None
        if key in self.accepted:
            return "output bytes differ from an earlier run of the same invocation"
        if self.seed == 0 and argv[0] != "verify":
            expected = self.golden["stdout_sha256"].get(key)
            if expected is None:
                return "no recorded digest for this invocation"
            if digest != expected:
                return f"stdout sha256 {digest} differs from the recorded {expected}"
        try:
            self._invariants(argv, stdout.decode("utf-8"))
        except (InvariantError, ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        self.accepted[key] = digest
        return None

    def _invariants(self, argv: list[str], text: str) -> None:
        command = argv[0]
        if "--format" in argv or command == "verify":
            payload = json.loads(text)
            error = next(self.validator.iter_errors(payload), None)
            _require(error is None, f"schema: {error and error.message}")
            if command == "verify":
                self._verify_report(argv, payload)
            elif command == "ground-state":
                _check_ground_state(argv, payload)
            else:
                sizes = [int(s) for s in _option(argv, "--sites").split(",")]
                rows = [{k: str(v) for k, v in row.items()} for row in payload["rows"]]
                steps = 1 if _option(argv, "--g") is not None else _grid(argv, 61)[2]
                _check_entanglement_groups(rows, sizes, steps, "--detail" in argv)
            return
        rows = _csv_rows(text)
        if command == "entanglement":
            sizes = [int(s) for s in _option(argv, "--sites").split(",")]
            _check_entanglement_groups(rows, sizes, _grid(argv, 61)[2], "--detail" in argv)
        else:
            {
                "spectrum": _check_spectrum,
                "critical-points": _check_critical_points,
                "envelope": _check_envelope,
            }[command](argv, rows)

    def _verify_report(self, argv, payload) -> None:
        expected = self.golden["verify_checks"][_option(argv, "--sites")]
        found = [[check["name"], check["tolerance"]] for check in payload["checks"]]
        _require(found == expected, f"checks {found} differ from the recorded {expected}")
        failed = [check["name"] for check in payload["checks"] if not check["passed"]]
        _require(payload["passed"] is True and not failed, f"failed checks: {failed}")
