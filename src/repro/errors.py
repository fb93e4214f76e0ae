"""Exception types shared across the repro package.

Keeping all error classes in one module lets callers catch a single
:class:`ReproError` for any library-level failure while still allowing
precise handling of specific conditions (bad assembly, invalid launch
arguments, protocol violations, ...).  The one check of a numeric or
flag setting (:func:`check`) sits next to :class:`ConfigError`, which
it raises.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from numbers import Integral, Real
from typing import Callable


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


@dataclass(frozen=True)
class Domain:
    """The values one numeric or flag setting admits.

    ``kind`` is ``int`` (an ``Integral``), ``float`` (a ``Real``, never
    NaN, infinite only when ``infinite``) or ``bool``; a ``bool`` is
    never a number.  ``bounds`` holds a number to its range and
    ``phrase`` names the domain in the error.
    """

    phrase: str
    kind: type
    bounds: Callable[[float], bool] = lambda value: True
    infinite: bool = False

    def admits(self, value) -> bool:
        if self.kind is bool or isinstance(value, bool):
            return self.kind is bool and isinstance(value, bool)
        if self.kind is int:
            return isinstance(value, Integral) and self.bounds(value)
        return (isinstance(value, Real) and value == value   # not NaN
                and (self.infinite or abs(value) != math.inf)
                and self.bounds(value))


#: The domains most settings share.
COUNT = Domain("an integer >= 0", int, lambda n: n >= 0)
AT_LEAST_ONE = Domain("an integer >= 1", int, lambda n: n >= 1)
NONNEGATIVE = Domain("a finite number >= 0", float, lambda x: x >= 0)
POSITIVE = Domain("a positive finite number", float, lambda x: x > 0)
POSITIVE_OR_INF = Domain("a positive number or inf", float, lambda x: x > 0,
                         infinite=True)
FRACTION = Domain("a number in [0, 1]", float, lambda x: 0 <= x <= 1)
FLAG = Domain("True or False", bool)


def setting(domain: Domain, default=MISSING):
    """A dataclass field whose values :func:`check_fields` holds to
    ``domain``."""
    return field(default=default, metadata={"domain": domain})


def check(owner: str, name: str, value, domain: Domain) -> None:
    """Raise :class:`ConfigError` unless ``domain`` admits ``value``.

    The one check of a single numeric or flag setting; the value is
    stored as passed, never converted.
    """
    if not domain.admits(value):
        raise ConfigError(f"{name} argument of {owner} must be "
                          f"{domain.phrase}, got {value!r}")


def check_fields(instance, owner: str | None = None) -> None:
    """:func:`check` every field of a dataclass declared with
    :func:`setting`; ``owner`` defaults to the class name."""
    owner = owner or type(instance).__name__
    for spec in fields(instance):
        domain = spec.metadata.get("domain")
        if domain is not None:
            check(owner, spec.name, getattr(instance, spec.name), domain)


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
