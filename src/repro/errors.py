"""Exception types shared across the repro package.

Keeping all error classes in one module lets callers catch a single
:class:`ReproError` for any library-level failure while still allowing
precise handling of specific conditions (bad assembly, invalid launch
arguments, protocol violations, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class MemoryError_(ReproError):
    """Physical/virtual memory subsystem failure (bad address, overlap)."""


class TranslationFault(MemoryError_):
    """Virtual address has no mapping for the requesting ASID."""

    def __init__(self, asid: int, vaddr: int):
        super().__init__(f"no translation for ASID {asid:#x} vaddr {vaddr:#x}")
        self.asid = asid
        self.vaddr = vaddr


class AssemblerError(ReproError):
    """Malformed assembly source (unknown mnemonic, bad operand, ...)."""

    def __init__(self, message: str, line_no: int | None = None, line: str | None = None):
        location = f" (line {line_no}: {line!r})" if line_no is not None else ""
        super().__init__(message + location)
        self.line_no = line_no
        self.line = line


class ExecutionError(ReproError):
    """A µthread performed an illegal operation at runtime."""


class ProtocolError(ReproError):
    """CXL protocol misuse (malformed packet, illegal M2func call)."""


class LaunchError(ReproError):
    """NDP kernel registration/launch failed (mirrors Table II ERR codes)."""

    def __init__(self, message: str, code: int = -1):
        super().__init__(message)
        self.code = code


class LaunchFailed(LaunchError):
    """A launch was lost to a fault (device failure, timeout, poison).

    Unlike a plain :class:`LaunchError` — the device *rejected* the call
    with a Table II ERR code — a ``LaunchFailed`` means the launch was
    accepted but never completed: the device died, the watchdog fired,
    or a poisoned line faulted the µthreads.  ``device`` is the expander
    the launch was lost on (-1 when no single device is to blame) and
    ``reason`` a short machine-readable tag (``device_failure`` /
    ``timeout`` / ``poison``).
    """

    def __init__(self, message: str, device: int = -1,
                 reason: str = "device_failure"):
        super().__init__(message)
        self.device = device
        self.reason = reason


class DeviceUnavailable(LaunchError):
    """No routable device can take the launch (all DOWN)."""

    def __init__(self, message: str, devices: tuple[int, ...] = ()):
        super().__init__(message)
        self.devices = devices


class PoisonError(MemoryError_):
    """A load touched a poisoned address range (CXL data-poison semantics)."""

    def __init__(self, base: int, size: int, addr: int | None = None):
        at = f" at {addr:#x}" if addr is not None else ""
        super().__init__(
            f"poisoned range [{base:#x}, {base + size:#x}) accessed{at}"
        )
        self.base = base
        self.size = size
        self.addr = addr


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly."""
