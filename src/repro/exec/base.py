"""The execution-backend interface and registry.

A backend owns the *launch execution engine* of one
:class:`~repro.ndp.device.M2NDPDevice`: the NDP controller hands it
:class:`~repro.ndp.generator.KernelExecution` objects and the backend is
responsible for spawning/running µthreads against the device's timing
models and for signalling completion through the execution's callbacks.

The device constructs its backend from ``NDPConfig.backend`` (see
:func:`make_backend`); everything else in the system talks to the backend
only through :class:`ExecutionBackend`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ndp.generator import KernelExecution


class ExecutionBackend:
    """Abstract launch execution engine for one M2NDP device."""

    name = "abstract"

    def __init__(self, device) -> None:
        self.device = device

    # ------------------------------------------------------------------
    # lifecycle hooks called by the device / controller
    # ------------------------------------------------------------------

    def register_execution(self, execution: "KernelExecution",
                           now_ns: float) -> None:
        """A kernel instance started; begin executing its µthreads."""
        raise NotImplementedError

    def unregister_execution(self, execution: "KernelExecution") -> None:
        """A kernel instance completed; drop any engine state for it."""
        raise NotImplementedError

    @property
    def active_executions(self) -> list:
        """Kernel executions currently being driven by this backend."""
        raise NotImplementedError


#: Backend registry: name -> factory(device) -> ExecutionBackend.
_BACKENDS: dict[str, Callable[[object], ExecutionBackend]] = {}


def register_backend(name: str,
                     factory: Callable[[object], ExecutionBackend]) -> None:
    _BACKENDS[name] = factory


def _ensure_builtins_registered() -> None:
    # Import for the side effect of registering the built-in backends
    # (kept lazy to avoid a cycle with repro.ndp.device / repro.config).
    from repro.exec import interpreter, batched  # noqa: F401


def backend_names() -> list[str]:
    _ensure_builtins_registered()
    return sorted(_BACKENDS)


def make_backend(name: str, device) -> ExecutionBackend:
    """Instantiate the backend ``name`` for ``device``."""
    _ensure_builtins_registered()
    factory = _BACKENDS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown execution backend {name!r}; choose from {backend_names()}"
        )
    return factory(device)
