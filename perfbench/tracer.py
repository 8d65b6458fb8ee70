"""Traced launcher: one xxring CLI invocation with every layer call in a span.

Usage::

    PERFBENCH_SPAWN_NS=<monotonic ns at launch> python tracer.py SPANS.json ARG...

It imports ``xxring.cli``, wraps every public function of the ``cli``,
``analytic``, ``statevector``, ``entanglement``, ``oracle`` and ``verify``
modules (plus ``scipy.linalg.eigvalsh``) at every module binding that
refers to it, so calls through ``from .x import f`` copies are traced too,
then runs ``xxring.cli.main(ARG...)`` and exits with its code.  Spans stay
in memory and are written at exit as ``[name, start_ns, end_ns, parent,
attrs]`` rows; ``parent`` is the index of the enclosing span, or -1.  The
first span, ``import``, runs from the launcher's spawn (interpreter start)
to the end of the package import.

Nothing is imported before ``xxring`` except ``os``, ``sys`` and ``time``,
so the import span holds no benchmark cost beyond the interpreter start.
"""

import os
import sys
import time

_SPAWN_NS = int(os.environ["PERFBENCH_SPAWN_NS"])
import xxring.cli  # noqa: E402

_IMPORTED_NS = time.monotonic_ns()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402

LAYERS = ("cli", "analytic", "statevector", "entanglement", "oracle", "verify")

_spans: list = [["import", _SPAWN_NS, _IMPORTED_NS, -1, None]]
_stack: list[int] = []


def _sector_attrs(args, result):
    """(N, n) of a built ground state, and how many amplitudes it holds."""
    amplitudes = result.amplitudes
    n = int(np.argmax(np.abs(amplitudes))).bit_count()
    return {"key": [result.sites, n], "amplitudes": int(amplitudes.size)}


def _eigenpair_attrs(args, result):
    """Dimension of the solved matrix and a fingerprint of its contents.

    The fingerprint covers the diagonal and the first row, which already
    separate every Hamiltonian the package builds (the field sits on the
    diagonal) at a cost far below hashing the dense matrix.
    """
    matrix = np.asarray(args[0])
    key = hash((matrix.shape, matrix.diagonal().tobytes(), matrix[0].tobytes()))
    return {"key": key, "dim": int(matrix.shape[0])}


_ATTRS = {
    "statevector.ground_state": _sector_attrs,
    "oracle.ground_eigenpair": _eigenpair_attrs,
}


def _traced(name, function):
    attrs_of = _ATTRS.get(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = len(_spans)
        span = [name, 0, 0, _stack[-1] if _stack else -1, None]
        _spans.append(span)
        _stack.append(index)
        span[1] = time.monotonic_ns()
        try:
            result = function(*args, **kwargs)
        finally:
            span[2] = time.monotonic_ns()
            _stack.pop()
        if attrs_of is not None:
            span[4] = attrs_of(args, result)
        return result

    return wrapper


def install() -> None:
    """Wrap every public layer function wherever a package module binds it."""
    wrappers = {}
    for layer in LAYERS:
        module = sys.modules[f"xxring.{layer}"]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                wrappers[id(value)] = _traced(f"{layer}.{attr}", value)
    for module_name, module in list(sys.modules.items()):
        if module_name != "xxring" and not module_name.startswith("xxring."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    scipy.linalg.eigvalsh = _traced("oracle.eigvalsh", scipy.linalg.eigvalsh)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    install()
    try:
        return xxring.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(_spans, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
