"""Simulation backend selection: interp | stepjit.

Both backends are cycle-exact (the differential fuzz suite and the
golden gate enforce this), so the choice is purely a speed knob:

* ``interp``  — the tree-walking interpreter (:class:`Simulation` on a
  raw module).  The oracle every differential test compares against;
  useful for debugging generated code.
* ``stepjit`` — the whole-module step compiler
  (:class:`StepSimulation`): one generated function per cycle.  The
  default.

Resolution priority: explicit argument > :func:`set_default_backend` >
``stepjit``.

Because outputs are cycle-exact, cache fingerprints (the recorded
``FeatureMatrix`` key, bundle keys) deliberately do NOT include the
backend — a matrix recorded under one backend is a valid warm hit for
any other.  Tests assert this invariance.
"""

from __future__ import annotations

from typing import Optional

from .module import Module
from .simulator import Simulation
from .stepjit import StepSimulation

BACKENDS = ("interp", "stepjit")
DEFAULT_BACKEND = "stepjit"

_default_override: Optional[str] = None


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"expected one of {', '.join(BACKENDS)}")
    return name


def set_default_backend(name: Optional[str]) -> None:
    """Set (or with ``None``, clear) the process-wide backend override.

    The CLI's ``--backend`` flag lands here.
    """
    global _default_override
    _default_override = _validate(name) if name is not None else None


def resolve_backend(explicit: Optional[str] = None) -> str:
    """The backend to use: explicit > override > default."""
    if explicit is not None:
        return _validate(explicit)
    if _default_override is not None:
        return _default_override
    return DEFAULT_BACKEND


def make_simulation(module: Module, *, backend: Optional[str] = None,
                    **kwargs) -> Simulation:
    """Build a one-job-at-a-time simulation of ``module``.

    ``kwargs`` are forwarded to the :class:`Simulation` constructor
    (``listener``, ``fast_forward``, ``track_state_cycles``).
    ``interp`` gets the interpreter; ``stepjit`` gets the step
    compiler.
    """
    if resolve_backend(backend) == "interp":
        return Simulation(module, **kwargs)
    return StepSimulation(module, **kwargs)
