"""Output bytes and the verify check list, pinned as literals.

The digests are the sha256 of the stdout of the README plot commands and of
three single-field N = 11 ``entanglement`` tables; the check lists are the
``[name, tolerance]`` rows of ``verify`` at N = 6, 8 and 9.  Both equal the
benchmark's recorded golden values, so a change that moves an output byte
or renames, adds, drops or reorders a check fails here first.
``ground-state --sites 14`` is not pinned: its norm runs a BLAS dot whose
last bits follow the BLAS thread count.
"""

import hashlib

import pytest

from xxring import cli, verify

GRID = ["--g-min", "-1.5", "--g-max", "1.5", "--steps", "121"]

PINNED_BYTES = [
    (
        ["spectrum", "--sites", "8", "--single-particle"],
        "cbb7507ad1d6ac26df1b9647a1fa972944b9880e37d558d676c71ad6ba783f43",
    ),
    (
        ["spectrum", "--sites", "8", "--modes"],
        "4673c683fb1667000588fb4791c9647b2736ea2ebb07788bec0a25445a13af59",
    ),
    (
        ["spectrum", "--sites", "8"],
        "f3361c7a275aff32f41cb6edba78925672426a46da9cdc72981a660b9bb90c72",
    ),
    (
        ["critical-points", "--sites", "8"],
        "d3d9b9df65869ca0a585e22c005119b4c310d2e9a9ee4be276b91493e3c1dbdd",
    ),
    (
        ["envelope", "--sites", "9"],
        "6a409f402d6f7647063668fc402d95628c334bd50d34a041c9206231a7083633",
    ),
    (
        ["envelope", "--sites", "45"],
        "37b565a27343e3713761ba0a78d9c636f79ff31ab421691fad7adb57a54d7fa4",
    ),
    (
        ["envelope", "--sites", "50", "--detail"],
        "2b1e2b3933f54caa1cefce426c662571229881af13bcfa0a967e678611fbdf90",
    ),
    (
        ["entanglement", "--sites", "4,5,6,7,8,9,10", *GRID],
        "159030de8a42da5e4fb6b009876c0b9b7f2e60e66d5f108d1aa67f9739b51e24",
    ),
    (
        ["entanglement", "--sites", "4,6,8,10", *GRID],
        "2397fffc8240a14325c94ce89eea0edfefa72f506e88241e478bd749e6e445d1",
    ),
    (
        ["entanglement", "--sites", "5,7,9", *GRID],
        "2f021c5490004f6c6728a9dba14d3edc381ba382a045d83da66d6c33f31c170d",
    ),
    (
        ["entanglement", "--sites", "11", "--g=-0.958302", "--detail", "--format", "json"],
        "4eaabf51feff17de0bdfd6b43a7240d78ab937dce20455d886edd73588263ad9",
    ),
    (
        ["entanglement", "--sites", "11", "--g=-0.864460", "--detail", "--format", "json"],
        "1e7af54c1f195f68b5209fe1210c503e1b7eeee157c830b2bb96584709febe26",
    ),
    (
        ["entanglement", "--sites", "11", "--g=-0.672040", "--detail", "--format", "json"],
        "3845dc0336a0b7d9b170405c5ad8ad12a6ae8f4a4ffcc78681127a3311731c80",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", PINNED_BYTES, ids=["_".join(argv) for argv, _ in PINNED_BYTES]
)
def test_stdout_bytes_are_pinned(argv, digest, capsysbinary):
    assert cli.main(argv) == cli.EXIT_OK
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


OPERATOR_CHECKS = [
    ["pauli_site_algebra", 1e-13],
    ["jw_anticommutation", 1e-13],
    ["boundary_operator", 1e-13],
]
GROUND_CHECKS = [["energy_agreement", 1e-8], ["state_overlap", 1e-8]]
SPOT_CHECKS_WITH_AUDIT = [
    ["parity_commutes", 1e-13],
    ["jw_equals_pauli", 1e-12],
    ["sector_reassembly", 1e-11],
    ["spectrum_reflection", 1e-10],
]
SPOT_CHECKS_WITHOUT_AUDIT = [
    ["parity_commutes", 1e-13],
    ["jw_equals_pauli", 1e-12],
    ["spectrum_reflection", 1e-10],
]


#: run_verification's [name, tolerance] rows; the audit stops at N = 8.
EXPECTED_CHECKS = {
    6: OPERATOR_CHECKS + SPOT_CHECKS_WITH_AUDIT * 2 + GROUND_CHECKS,
    8: OPERATOR_CHECKS + SPOT_CHECKS_WITH_AUDIT * 2 + GROUND_CHECKS,
    9: OPERATOR_CHECKS + SPOT_CHECKS_WITHOUT_AUDIT * 2 + GROUND_CHECKS,
}


@pytest.mark.parametrize("n_sites", sorted(EXPECTED_CHECKS))
def test_verify_check_list_is_pinned(n_sites):
    report = verify.run_verification(n_sites)
    assert [[check.name, check.tolerance] for check in report.checks] == EXPECTED_CHECKS[n_sites]
    assert report.passed
