"""Command-line front end.

Emits CSV or JSON tables for the spectrum, critical points, envelope,
ground-state vectors, and entanglement statistics, plus a ``verify``
command that runs the dense-oracle cross-checks.  Output is byte-for-byte
reproducible: fixed row order, 17 significant digits, LF line endings, no
environment lookups; the process entry point writes one BLAS thread into
the environment and reads nothing from it.

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
``--output`` path that cannot be written), 3 size or resource limit.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import sys

# Modules, not their names: a from-import of a name would run the
# numpy-backed modules here, and the closed-form commands never need them.
from . import analytic, entanglement, statevector, verify
from .errors import DegenerateAtCrossing, SizeLimit, XXRingError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_SIZE_LIMIT = 3

_DEFAULT_G_MIN = -1.5
_DEFAULT_G_MAX = 1.5
_DEFAULT_STEPS = 61


def _site_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("at least one site count is required")
    return values


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _csv_text(columns, rows, metadata=None) -> str:
    import csv  # here, as json is for JSON: the JSON commands never load it

    buffer = io.StringIO()
    for key, value in (metadata or {}).items():
        buffer.write(f"# {key} = {_fmt_cell(value)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buffer.getvalue()


def _json_table(head: dict, key: str, rows, columns=None) -> str:
    """The text of ``json.dumps({**head, key: rows}, indent=2) + "\\n"``.

    Each row becomes an object keyed by ``columns``, or a list where
    ``columns`` is None, through one ``%`` template per table.  Rows hold
    at least one cell, and cells are scalars written by json's own rules:
    ``repr`` for ints and finite floats, ``json.dumps`` for the rest (bool,
    None, NaN, infinities, str).  A cell that is the very object of the row
    above reuses that cell's text, as the per-sector columns of ``--detail``
    rows do.  Only the head goes through json's indenting encoder, which
    would build one chunk string per token and one dict per row.
    """
    import json  # here, not at the top: the CSV commands never load it

    text = json.dumps({**head, key: []}, indent=2)  # ends in '"<key>": []\n}'
    if not rows:
        return text + "\n"
    width = len(rows[0])
    if columns is None:
        keys, (opening, closing) = [""] * width, "[]"
    else:
        keys, (opening, closing) = [json.dumps(c).replace("%", "%%") + ": " for c in columns], "{}"
    # Each row ends in a comma; the last row's is cut below.
    fields = ",\n      ".join(key_text + "%s" for key_text in keys)
    template = f"\n    {opening}\n      {fields}\n    {closing},"
    inf = float("inf")
    unset = object()
    previous, texts = [unset] * width, [""] * width
    parts = [text[:-3]]  # the head, through the '[' of the empty rows
    for row in rows:
        for i, cell in enumerate(row):
            if cell is not previous[i]:
                previous[i] = cell
                kind = type(cell)
                if kind is int or kind is float and -inf < cell < inf:
                    texts[i] = repr(cell)
                else:
                    texts[i] = json.dumps(cell)
        parts.append(template % tuple(texts))
    parts[-1] = parts[-1][:-1]
    parts.append("\n  ]\n}\n")
    return "".join(parts)


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _check_writable(path: str) -> None:
    """Raise, before any work and creating nothing, the OSError that opening ``path`` meets."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), directory)
    if not os.access(path if os.path.exists(path) else directory, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _emit_table(args: argparse.Namespace, params, columns, rows, metadata=None) -> None:
    if args.format == "csv":
        _write(_csv_text(columns, rows, metadata), args.output)
        return
    head = {"command": args.command, "params": params, "metadata": metadata or {}}
    _write(_json_table(head, "rows", rows, columns), args.output)


def _grid_params(args: argparse.Namespace) -> dict:
    if len(args.grid) == 1:
        return {"g": args.grid[0]}
    return {
        "g_min": args.grid[0],
        "g_max": args.grid[-1],
        "steps": len(args.grid),
    }


def _cmd_spectrum(args: argparse.Namespace) -> int:
    n_sites = args.sites
    if args.modes:
        rows = [
            (alpha, k, analytic.mode_cosine(n_sites, alpha, k))
            for alpha in (0.0, 0.5)
            for k in range(n_sites)
        ]
        _emit_table(args, {"sites": n_sites, "modes": True}, ("alpha", "k", "cosine"), rows)
        return EXIT_OK
    params = {"sites": n_sites, **_grid_params(args)}
    if args.single_particle:
        rows = [
            (k, float(g), analytic.single_particle_energy_density(n_sites, k, g))
            for k in range(n_sites)
            for g in args.grid
        ]
        params["single_particle"] = True
        _emit_table(args, params, ("k", "g", "energy"), rows)
        return EXIT_OK
    rows = [
        (n, float(g), analytic.min_energy_density(n_sites, n, g))
        for n in range(n_sites + 1)
        for g in args.grid
    ]
    _emit_table(args, params, ("n", "g", "energy"), rows)
    return EXIT_OK


def _cmd_critical_points(args: argparse.Namespace) -> int:
    n_sites = args.sites
    rows = [(cp.n, cp.g_c) for cp in analytic.critical_points(n_sites)]
    _emit_table(args, {"sites": n_sites}, ("n", "g_c"), rows)
    return EXIT_OK


def _cmd_envelope(args: argparse.Namespace) -> int:
    n_sites = args.sites
    if args.detail:
        rows = []
        for size in range(1, n_sites + 1):
            chi = analytic.finite_size_parameter(size)
            err = analytic.relative_error(size) if size >= 2 else None
            rows.append((size, chi, err))
        _emit_table(
            args,
            {"sites": n_sites, "detail": True},
            ("n_sites", "chi", "relative_error"),
            rows,
        )
        return EXIT_OK
    metadata = {
        "chi": analytic.finite_size_parameter(n_sites),
        "relative_error": analytic.relative_error(n_sites),
    }
    rows = [
        (
            float(g),
            analytic.ground_energy_density(n_sites, g),
            analytic.envelope_energy(n_sites, g),
            analytic.thermodynamic_energy(g),
        )
        for g in args.grid
    ]
    params = {"sites": n_sites, **_grid_params(args)}
    _emit_table(args, params, ("g", "ground", "envelope", "thermodynamic"), rows, metadata)
    return EXIT_OK


def _cmd_ground_state(args: argparse.Namespace) -> int:
    n_sites = args.sites
    g = args.g
    state = statevector.ground_state(n_sites, g)
    n = state.n
    indices = statevector._sector_indices(n_sites, n)
    sector = state.amplitudes[indices]
    triples = list(zip(indices.tolist(), sector.real.tolist(), sector.imag.tolist()))
    params = {"sites": n_sites, "g": float(g)}
    if args.format == "csv":
        _write(_csv_text(("index", "re", "im"), triples, {"fermions": n}), args.output)
    else:
        head = {"command": "ground-state", "params": params, "metadata": {"fermions": n}}
        _write(_json_table(head, "amplitudes", triples), args.output)
    return EXIT_OK


def _cmd_entanglement(args: argparse.Namespace) -> int:
    params = {
        "sites": list(args.sites),
        **_grid_params(args),
        "workers": 1,  # held by perfbench/golden.json "states" and test_golden.py's N = 11 pins
        "detail": args.detail,
    }
    columns = ("n_sites", "g", "n", "mu", "sigma")
    if args.detail:
        columns = columns + ("mask", "pi")
    rows = []
    for n_sites in args.sites:
        if len(args.grid) == 1:
            stats_list = [entanglement.purity_stats(n_sites, args.grid[0])]
        else:
            stats_list = entanglement.entanglement_sweep(
                n_sites,
                args.grid[0],
                args.grid[-1],
                len(args.grid),
            )
        for stats in stats_list:
            if args.detail:
                rows.extend(
                    (n_sites, stats.g, stats.n, stats.mu, stats.sigma, mask, value)
                    for mask, value in stats.purities
                )
            else:
                rows.append((n_sites, stats.g, stats.n, stats.mu, stats.sigma))
    _emit_table(args, params, columns, rows)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from dataclasses import asdict  # here, as json is: the closed-form commands never load it

    n_sites = args.sites
    report = verify.run_verification(n_sites)
    import json  # after the checks, so that its modules add nothing to their peak

    payload = {
        "command": "verify",
        "params": {"sites": n_sites},
        "checks": [asdict(check) for check in report.checks],
        "passed": report.passed,
    }
    _write(json.dumps(payload, indent=2) + "\n", args.output)
    if not report.passed:
        failed = [f"{c.name} {json.dumps(c.detail)}" for c in report.checks if not c.passed]
        print(f"verification failed: {'; '.join(failed)}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxring",
        description="Exact spectra, ground states, and entanglement statistics "
        "of the periodic XX chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler, grid, sites_list=False, detail=False, formats=("csv", "json")):
        """Declare the handler, the grid kind (None, "single" or "sweep") and options."""
        p.set_defaults(handler=handler, grid_kind=grid)
        if sites_list:
            p.add_argument(
                "--sites",
                type=_site_list,
                required=True,
                help="ring size, or a comma-separated list of sizes",
            )
        else:
            p.add_argument("--sites", type=int, required=True, help="ring size")
        if grid is not None:
            p.add_argument("--g", type=float, help="single field value")
        if grid == "sweep":
            p.add_argument("--g-min", type=float, help=f"grid start (default {_DEFAULT_G_MIN})")
            p.add_argument("--g-max", type=float, help=f"grid end (default {_DEFAULT_G_MAX})")
            p.add_argument("--steps", type=int, help=f"grid points (default {_DEFAULT_STEPS})")
        p.add_argument("--format", choices=formats, default=formats[0], help="output format")
        p.add_argument("--output", help="output path (default: stdout)")
        if detail:
            p.add_argument("--detail", action="store_true", help="emit per-item detail rows")

    p = sub.add_parser("spectrum", help="lowest sector energies over a field grid")
    add_common(p, _cmd_spectrum, "sweep")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--single-particle",
        action="store_true",
        help="emit one-fermion mode energies instead of sector minima",
    )
    group.add_argument(
        "--modes",
        action="store_true",
        help="emit the mode cosines for both momentum offsets (no field grid)",
    )

    p = sub.add_parser("critical-points", help="level-crossing fields g_c(n)")
    add_common(p, _cmd_critical_points, None)

    p = sub.add_parser("envelope", help="ground energy, envelope, and infinite-size limit")
    add_common(p, _cmd_envelope, "sweep", detail=True)

    p = sub.add_parser("ground-state", help="ground-state amplitudes at one field value")
    add_common(p, _cmd_ground_state, "single")

    p = sub.add_parser("entanglement", help="balanced-bipartition purity statistics")
    add_common(p, _cmd_entanglement, "sweep", sites_list=True, detail=True)

    p = sub.add_parser("verify", help="run the dense-oracle cross-check suite (JSON report)")
    add_common(p, _cmd_verify, None, formats=("json",))

    return parser


def _resolve_grid(parser: argparse.ArgumentParser, args: argparse.Namespace) -> tuple:
    """The field grid of the command, from --g or --g-min/--g-max/--steps.

    Field flags are checked first, also where the command then ignores the
    grid (``spectrum --modes``, ``envelope --detail``).
    """
    for flag in ("g", "g_min", "g_max"):
        value = getattr(args, flag, None)
        if value is not None:
            try:
                analytic._validate_field(value)
            except ValueError as exc:
                parser.error(f"--{flag.replace('_', '-')}: {exc}")
    ignores_grid = getattr(args, "modes", False) or (args.command == "envelope" and args.detail)
    if args.grid_kind is None or ignores_grid:
        return ()
    if args.grid_kind == "single":
        if args.g is None:
            parser.error(f"{args.command} needs a single field value via --g")
        return (args.g,)
    if args.g is not None:
        if args.g_min is not None or args.g_max is not None or args.steps is not None:
            parser.error("--g cannot be combined with --g-min/--g-max/--steps")
        return (args.g,)
    g_min = args.g_min if args.g_min is not None else _DEFAULT_G_MIN
    g_max = args.g_max if args.g_max is not None else _DEFAULT_G_MAX
    steps = args.steps if args.steps is not None else _DEFAULT_STEPS
    if not g_min < g_max:
        parser.error(f"--g-min must be below --g-max, got [{g_min}, {g_max}]")
    try:
        return tuple(analytic.field_grid(g_min, g_max, steps))
    except ValueError as exc:
        parser.error(f"--g-min/--g-max/--steps: {exc}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.grid = _resolve_grid(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        # Field flags were checked before the grid was built; sizes and the
        # output target are checked here, before any heavy work.
        for n_sites in args.sites if isinstance(args.sites, tuple) else (args.sites,):
            analytic._validate_sites(n_sites, minimum=3)
        if args.output is not None:
            _check_writable(args.output)
        return args.handler(args)
    except SizeLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except DegenerateAtCrossing as exc:
        print(f"error: {exc} (pick a field value off the crossing)", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, XXRingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if args.output is None:  # stdout itself failed, e.g. a closed pipe
            raise
        print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    """Run the CLI as a process: ``main()``, then exit with its code.

    BLAS runs on one thread, set before numpy loads: LAPACK's blocked solves
    and the BLAS norm split their sums by thread count, so ``verify --sites
    10`` and ``ground-state --sites 14`` would otherwise print other last
    digits on other thread counts.  ``main()`` leaves the environment alone,
    so in-process callers keep their own threads.

    ``gc.freeze()`` before the exit moves every live object into the
    permanent generation, so the cyclic collections of interpreter shutdown
    scan nothing; with numpy loaded they cost about 30 ms of each process.
    Stdout is still flushed at shutdown, and ``--output`` files are closed
    by then.  ``main()`` does not freeze: tests and library callers run it
    in-process, where a freeze would pin every object of their session.
    """
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = main()
    gc.freeze()
    sys.exit(code)
