"""Numeric kernel backends (DESIGN.md §13).

The hot loops -- the dense delta loop in
:func:`repro.datalog.seminaive._columnar_fixpoint` and
:meth:`repro.circuits.runtime.CompiledCircuit.evaluate_batch` -- ship
two interchangeable implementations:

* ``python`` (the default): the exec-generated pure-Python kernels.
  No dependencies; always available; exact reference semantics.
* ``vectorized``: whole-column NumPy ufunc expressions over zero-copy
  ``np.frombuffer`` views of the same ``array('q')`` buffers
  (:mod:`repro.backends.vectorized`).  Requires NumPy (the ``perf``
  extra).
* ``auto``: ``vectorized`` when NumPy is importable, else ``python``.

Selection is a field on :class:`repro.config.ExecutionConfig`
(``backend=``), validated against :data:`repro.config.BACKENDS` at
construction time and resolved against NumPy availability *lazily* at
evaluation time by :func:`resolve_backend` -- building a config never
imports NumPy, so the no-dependency install path stays import-clean.

The vectorized kernels are conservative: whenever an input could make
NumPy semantics diverge from the Python reference (NaN ordering,
``int64`` overflow vs. Python bigints, unbindable values), they return
``None`` and the caller re-runs the pure-Python kernel from scratch --
both are deterministic, so the fallback is exact, just slower.
"""

from __future__ import annotations

from ..config import BACKENDS, DEFAULT_BACKEND

__all__ = ["numpy_available", "resolve_backend"]

_NUMPY_PROBED = False
_NUMPY = None


def _numpy():
    """The :mod:`numpy` module, or ``None`` -- probed once, cached."""
    global _NUMPY_PROBED, _NUMPY
    if not _NUMPY_PROBED:
        try:
            import numpy  # noqa: F401 -- availability probe
        except ImportError:
            # ModuleNotFoundError for clean absence; plain ImportError
            # for broken installs -- either way the backend is absent.
            _NUMPY = None
        else:
            _NUMPY = numpy
        _NUMPY_PROBED = True
    return _NUMPY


def numpy_available() -> bool:
    """Whether the optional NumPy dependency (the ``perf`` extra) imports."""
    return _numpy() is not None


def resolve_backend(backend: str | None) -> str:
    """Resolve a configured backend name to ``"python"`` | ``"vectorized"``.

    ``None`` means the repo default (:data:`repro.config.DEFAULT_BACKEND`).
    ``"auto"`` picks ``"vectorized"`` when NumPy imports and ``"python"``
    otherwise; an explicit ``"vectorized"`` without NumPy raises
    :class:`ModuleNotFoundError` -- an explicit request must not degrade
    silently.
    """
    name = backend or DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS} (or None for the default)")
    if name == "auto":
        return "vectorized" if numpy_available() else "python"
    if name == "vectorized" and not numpy_available():
        raise ModuleNotFoundError(
            "backend='vectorized' requires NumPy (install the 'perf' extra, e.g. pip install "
            "'repro-datalog-circuits[perf]'); use backend='auto' to fall back to the pure-Python "
            "kernels automatically when NumPy is absent"
        )
    return name
