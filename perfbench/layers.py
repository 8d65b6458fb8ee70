"""Per-layer metrics from the spans of one traced pass.

A pass is a list of processes; each process is the span list the tracer
wrote (``[name, start_ns, end_ns, parent, attrs]`` rows).  A span's self
time is its duration minus the durations of its direct children, which run
one after another inside it.  Counts are summed over the pass; the two
ratios count distinct keys per process, since only work inside one process
could ever be shared.
"""

from __future__ import annotations

VERIFY_CHECKS = (
    "pauli_site_algebra",
    "jw_anticommutation",
    "boundary_operator",
    "parity_commutes",
    "jw_equals_pauli",
    "sector_reassembly",
    "spectrum_reflection",
    "energy_agreement",
    "state_overlap",
)

#: (metric, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("import.xxring_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("analytic.calls", "count", "lower"),
    ("analytic.self_s", "s", "lower"),
    ("statevector.ground_state.calls", "count", "lower"),
    ("statevector.ground_state.self_s", "s", "lower"),
    ("statevector.amplitudes_built", "count", "lower"),
    ("statevector.distinct_sector_ratio", "ratio", "higher"),
    ("entanglement.entanglement_sweep.self_s", "s", "lower"),
    ("entanglement.purity_stats.calls", "count", "lower"),
    ("entanglement.purity_stats.self_s", "s", "lower"),
    ("entanglement.purity.calls", "count", "lower"),
    ("entanglement.purity.self_s", "s", "lower"),
    ("oracle.build_spin_hamiltonian.calls", "count", "lower"),
    ("oracle.build_spin_hamiltonian.self_s", "s", "lower"),
    ("oracle.build_jw_hamiltonian.calls", "count", "lower"),
    ("oracle.build_jw_hamiltonian.self_s", "s", "lower"),
    ("oracle.operator_embed.calls", "count", "lower"),
    ("oracle.operator_embed.self_s", "s", "lower"),
    ("oracle.ground_eigenpair.calls", "count", "lower"),
    ("oracle.ground_eigenpair.self_s", "s", "lower"),
    ("oracle.ground_eigenpair.dim_sum", "count", "lower"),
    ("oracle.ground_eigenpair.distinct_ratio", "ratio", "higher"),
    ("oracle.verify_sector_hamiltonians.self_s", "s", "lower"),
    ("oracle.eigvalsh.calls", "count", "lower"),
    ("oracle.eigvalsh.self_s", "s", "lower"),
    *((f"verify.{check}.self_s", "s", "lower") for check in VERIFY_CHECKS),
    ("verify.checks_failed", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in METRICS}

#: Metrics that are counts of work: they must repeat exactly between passes.
COUNTS = tuple(name for name, unit, _ in METRICS if unit == "count")

#: Span names whose calls and self time are reported together.
_GROUPS = {
    "statevector.ground_state": ("statevector.ground_state",),
    "entanglement.entanglement_sweep": ("entanglement.entanglement_sweep",),
    "entanglement.purity_stats": ("entanglement.purity_stats",),
    "entanglement.purity": ("entanglement.purity",),
    "oracle.build_spin_hamiltonian": ("oracle.build_spin_hamiltonian",),
    "oracle.build_jw_hamiltonian": ("oracle.build_jw_hamiltonian",),
    "oracle.operator_embed": ("oracle.site_operator", "oracle.jw_annihilation"),
    "oracle.ground_eigenpair": ("oracle.ground_eigenpair",),
    "oracle.verify_sector_hamiltonians": ("oracle.verify_sector_hamiltonians",),
    "oracle.eigvalsh": ("oracle.eigvalsh",),
    **{f"verify.{check}": (f"verify.check_{check}",) for check in VERIFY_CHECKS},
}


def self_times_ns(spans: list) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    selves = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selves[parent] -= end - start
    return selves


def _ratio(distinct: int, calls: int) -> float:
    return distinct / calls if calls else 0.0


def pass_metrics(processes: list[list], stdout_bytes: int, checks_failed: int) -> dict:
    """Every per-layer metric except ``trace.overhead_s`` for one traced pass."""
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    sector_keys = eigen_keys = 0
    amplitudes = dims = 0
    import_ns = 0
    for spans in processes:
        sectors, matrices = set(), set()
        for (name, start, end, _, attrs), own in zip(spans, self_times_ns(spans)):
            if name == "import":
                import_ns += end - start
                continue
            layer = name.split(".", 1)[0]
            for key in (name, layer):
                calls[key] = calls.get(key, 0) + 1
                self_ns[key] = self_ns.get(key, 0) + own
            if name == "statevector.ground_state":
                sectors.add(tuple(attrs["key"]))
                amplitudes += attrs["amplitudes"]
            elif name == "oracle.ground_eigenpair":
                matrices.add(attrs["key"])
                dims += attrs["dim"]
        sector_keys += len(sectors)
        eigen_keys += len(matrices)

    metrics = {
        "import.xxring_s": import_ns / 1e9,
        "cli.main.calls": calls.get("cli.main", 0),
        "cli.self_s": self_ns.get("cli", 0) / 1e9,
        "cli.stdout_bytes": stdout_bytes,
        "analytic.calls": calls.get("analytic", 0),
        "analytic.self_s": self_ns.get("analytic", 0) / 1e9,
        "statevector.amplitudes_built": amplitudes,
        "oracle.ground_eigenpair.dim_sum": dims,
        "verify.checks_failed": checks_failed,
    }
    for group, names in _GROUPS.items():
        metrics[f"{group}.calls"] = sum(calls.get(name, 0) for name in names)
        metrics[f"{group}.self_s"] = sum(self_ns.get(name, 0) for name in names) / 1e9
    metrics["statevector.distinct_sector_ratio"] = _ratio(
        sector_keys, metrics["statevector.ground_state.calls"]
    )
    metrics["oracle.ground_eigenpair.distinct_ratio"] = _ratio(
        eigen_keys, metrics["oracle.ground_eigenpair.calls"]
    )
    return {name: metrics[name] for name, _, _ in METRICS if name in metrics}
