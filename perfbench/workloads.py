"""Workload generators: the argv lists each benchmark workload runs.

Every workload is a fixed sequence of ``python -m xxring ...`` invocations,
run one after another from a single generator process (a closed loop with
one client).  The seed only shapes the generated arguments; the program
sees nothing but the argv.

* ``plots``: the ten invocations of the README "Reproducing the standard
  plots" table.  Seed 0 is the README byte for byte; other seeds shift the
  field grids by a small seeded offset, which keeps the work (and the share
  of sweep points that repeat an (N, n) sector) the same.
* ``verify``: the dense-oracle suite at N = 6, 8 and 9, in a seeded order.
  N = 8 is the only size that runs ``sector_reassembly``; N = 9 runs every
  check N = 10 runs.  N = 10 (about 33 s) is left out so repeats stay
  affordable.
* ``states``: single-field inspection with no sector reuse: one
  ``entanglement --detail --format json`` per sector n = 1..N-1 of N = 11
  and N = 12, each at a field drawn from the central half of its sector's
  interval, plus ``ground-state --format json`` dumps at N = 13 and N = 14
  (half filling).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("plots", "verify", "states")

_README_GRID = ("--g-min", "-1.5", "--g-max", "1.5", "--steps", "121")

#: Largest seeded shift of a grid end, in units of the field.
GRID_SHIFT = 0.05


_INTERPRETER_REFERENCE = """
import numpy as np
a = np.random.default_rng(0).standard_normal((160, 160))
a = a + a.T
for _ in range(4):
    np.linalg.eigh(a)
s = 0
for i in range(150000):
    s += i * i % 7
"""

_DENSE_REFERENCE = """
import numpy as np
rng = np.random.default_rng(0)
b = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
for _ in range(2):
    b @ b
a = b[:256, :256] + b[:256, :256].conj().T
np.linalg.eigh(a)
"""

#: The fixed program whose run time measures the machine's current speed for
#: each workload (see ``run.py``).  plots and states spend their time starting
#: Python, importing, and in small eigensolves and interpreted loops; verify
#: spends it in dense complex matrix products and eigensolves of a few hundred
#: rows, whose speed on a shared host does not follow the interpreter's.  On a
#: 2-core x86-64 host each tracked its own workload better than the other one
#: did (run-to-run spread of wall_s over 5 seeds: plots 2% against 8%, verify
#: 2% against 10%).
REFERENCE_PROGRAMS = {
    "plots": _INTERPRETER_REFERENCE,
    "verify": _DENSE_REFERENCE,
    "states": _INTERPRETER_REFERENCE,
}


def crossing_field(n_sites: int, n: int) -> float:
    """g_c(n): the field where the n- and (n+1)-fermion sector minima cross."""
    s = math.sin(math.pi / n_sites)
    return (math.sin(n * math.pi / n_sites) - math.sin((n + 1) * math.pi / n_sites)) / s


def _field_in_sector(rng: random.Random, n_sites: int, n: int) -> str:
    """A field from the central half of the n-fermion sector's interval."""
    low, high = crossing_field(n_sites, n - 1), crossing_field(n_sites, n)
    quarter = (high - low) / 4
    return f"--g={rng.uniform(low + quarter, high - quarter):.6f}"


def _plots(seed: int) -> list[list[str]]:
    grid: tuple[str, ...] = ()
    sweep = _README_GRID
    if seed:
        rng = random.Random(f"plots:{seed}")
        g_min = round(-1.5 + rng.uniform(-GRID_SHIFT, GRID_SHIFT), 4)
        g_max = round(1.5 + rng.uniform(-GRID_SHIFT, GRID_SHIFT), 4)
        # "=" keeps argparse from reading a negative value as an option.
        grid = (f"--g-min={g_min}", f"--g-max={g_max}")
        sweep = grid + ("--steps", "121")
    return [
        ["spectrum", "--sites", "8", "--single-particle", *grid],
        ["spectrum", "--sites", "8", "--modes"],
        ["spectrum", "--sites", "8", *grid],
        ["critical-points", "--sites", "8"],
        ["envelope", "--sites", "9", *grid],
        ["envelope", "--sites", "45", *grid],
        ["envelope", "--sites", "50", "--detail"],
        ["entanglement", "--sites", "4,5,6,7,8,9,10", *sweep],
        ["entanglement", "--sites", "4,6,8,10", *sweep],
        ["entanglement", "--sites", "5,7,9", *sweep],
    ]


def _verify(seed: int) -> list[list[str]]:
    sizes = ["6", "8", "9"]
    random.Random(f"verify:{seed}").shuffle(sizes)
    return [["verify", "--sites", size] for size in sizes]


def _states(seed: int) -> list[list[str]]:
    rng = random.Random(f"states:{seed}")
    argvs = [
        ["entanglement", "--sites", str(n_sites), _field_in_sector(rng, n_sites, n),
         "--detail", "--format", "json"]
        for n_sites in (11, 12)
        for n in range(1, n_sites)
    ]
    argvs += [
        ["ground-state", "--sites", str(n_sites), _field_in_sector(rng, n_sites, n_sites // 2),
         "--format", "json"]
        for n_sites in (13, 14)
    ]
    return argvs


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The CLI argv (without ``python -m xxring``) of every invocation, in order."""
    generators = {"plots": _plots, "verify": _verify, "states": _states}
    return generators[workload](seed)
