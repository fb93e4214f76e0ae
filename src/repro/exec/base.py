"""The table of execution backends.

A backend owns the *launch execution engine* of one
:class:`~repro.ndp.device.M2NDPDevice`: the NDP controller hands it
:class:`~repro.ndp.generator.KernelExecution` objects and the backend is
responsible for spawning/running µthreads against the device's timing
models and for signalling completion through the execution's callbacks.

:class:`~repro.exec.interpreter.InterpreterBackend` is the base class and
the reference; :class:`~repro.exec.batched.BatchedBackend` extends it and
falls back to it per launch.  The device constructs its backend with
:func:`make_backend` from its ``backend=`` argument, whose default is
:data:`DEFAULT_BACKEND`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.exec.interpreter import InterpreterBackend

#: The ``backend=`` default of every device and platform factory.
DEFAULT_BACKEND = "batched"


def _backends() -> dict[str, type["InterpreterBackend"]]:
    # imported here: the backends import repro.ndp, which imports this module
    from repro.exec.batched import BatchedBackend
    from repro.exec.interpreter import InterpreterBackend
    return {"interpreter": InterpreterBackend, "batched": BatchedBackend}


def make_backend(name: str, device) -> "InterpreterBackend":
    """Instantiate the backend ``name`` for ``device``."""
    backends = _backends()
    backend = backends.get(name)
    if backend is None:
        raise ConfigError(
            f"unknown execution backend {name!r} (from backend); "
            f"choose from {sorted(backends)}"
        )
    return backend(device)
