"""Output bytes and the verify check list, pinned as literals.

The digests are the sha256 of the stdout of the README plot commands and of
every seed-0 invocation of the benchmark's ``states`` workload but one: the
21 single-field ``entanglement`` tables of N = 11 and 12 and
``ground-state --sites 13``.  The check lists are the ``[name, tolerance]``
rows of ``verify`` at N = 6, 8 and 9.  All equal the benchmark's recorded
golden values, so a change that moves an output byte or renames, adds,
drops or reorders a check fails here first.  ``ground-state --sites 14``
is pinned by a subprocess test in ``test_cli.py`` instead: in process, its
norm runs a BLAS dot whose last bits follow the caller's BLAS thread count.
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
        ["ground-state", "--sites", "13", "--g=-0.070552", "--format", "json"],
        "fadaf830ca78e294390102557248f44048bd1112106de0bcd30391f2eb4dff06",
    ),
]

#: sha256 of ``entanglement --sites N --g=G --detail --format json``, keyed by (N, G):
#: one field in each sector 1..N-1 of N = 11 and 12.
TABLE_DIGESTS = {
    ("11", "-0.958302"): "4eaabf51feff17de0bdfd6b43a7240d78ab937dce20455d886edd73588263ad9",
    ("11", "-0.864460"): "1e7af54c1f195f68b5209fe1210c503e1b7eeee157c830b2bb96584709febe26",
    ("11", "-0.672040"): "3845dc0336a0b7d9b170405c5ad8ad12a6ae8f4a4ffcc78681127a3311731c80",
    ("11", "-0.386524"): "bc70ce0e95af6fd00c9641a60f788c75d62b4484248e43e6a738e4e7c3372b25",
    ("11", "-0.139641"): "f38ab72ab8e93a52510af99feb753ed1927e3696e0c3e2e6289381a800a7e65b",
    ("11", "0.187567"): "1cf652a3afd487d7621988b7c2d136e7f698ea7016b00d911ceef0e54eef3a6c",
    ("11", "0.376720"): "31f14ab879f11b18be8b45fed3dccfe54a33291de885da3e1435c13d03ee8c00",
    ("11", "0.616026"): "ab791e382b2c21ec0fce261f6f62eda1f80b0f522085acb352b403014ede323f",
    ("11", "0.847598"): "10b0998651e8d05099681668545d50585ad022b81d8b5379eca1d8ed743cbb04",
    ("11", "0.957020"): "fd9f2939503d0e51cf14a7fed825bfbca20acc5a1d324504f4b2030185b3de67",
    ("12", "-0.962013"): "0bd5ea688e4ae03488018dd4d995908a67577a5e02c63ed4de82e1ead9755ca8",
    ("12", "-0.865508"): "e6ab8454e67ceaf0886bd04a2d8de1b6b7b294e26a32e258d8d3d0db4da7966d",
    ("12", "-0.667429"): "70076b26c7cf255360f61379f80e2ba7baec77bc1f17807935d15f30af0af6ca",
    ("12", "-0.513845"): "db81a132ae852a58ca877e3233587bff366dbe798c81111274c4681bf4e96d06",
    ("12", "-0.305553"): "191e5e27fc5621546f5c253504b515f0dd999fcdf8619be9eb4193830fa152e1",
    ("12", "-0.057419"): "f9434cacbb891163751dc94fa9b1d07f46cf7f38465b49e13a61b8366a63c6a4",
    ("12", "0.257836"): "ca03a58e5b502c60a25b4a3475bede5b446e4bc40d8fc661dec0c05454d74a16",
    ("12", "0.459891"): "2779e907164e05df4fac2bbde4cbe5ab448ef1cae8505e7e766c658510d99f43",
    ("12", "0.668679"): "7ecf617c90350d438dc559670180658d2c019e9f4fced207a49ae2efbe7a43b3",
    ("12", "0.875810"): "30d68fed0fa5d18c01d2e518d15c99fc6d6a4517daea1a54e81ae3b7149409f5",
    ("12", "0.962951"): "42989efacf7bedc8d6e4c19abc878dc7c38ed2662018ad6164ec3ca33a14c497",
}
PINNED_BYTES += [
    (["entanglement", "--sites", n_sites, f"--g={g}", "--detail", "--format", "json"], digest)
    for (n_sites, g), digest in TABLE_DIGESTS.items()
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
