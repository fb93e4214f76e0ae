"""Clock-domain helpers.

Every component in Table IV of the paper runs in its own frequency domain
(NDP units at 2 GHz, host GPU SMs at 1695 MHz, CPU cores at 3.2 GHz, DRAM at
its own tCK).  The global simulation time is nanoseconds; a :class:`Clock`
gives a domain's cycle time in it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import POSITIVE, check_fields, setting


@dataclass(frozen=True)
class Clock:
    """A fixed-frequency clock domain.

    >>> Clock.from_ghz(2.0).period_ns
    0.5
    """

    freq_ghz: float = setting(POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)

    @classmethod
    def from_ghz(cls, freq_ghz: float) -> "Clock":
        return cls(freq_ghz=freq_ghz)

    @property
    def period_ns(self) -> float:
        """Duration of one cycle in nanoseconds."""
        return 1.0 / self.freq_ghz
