"""Run configuration shared by the inverse pipeline and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .geometry import DEFAULT_DENOMINATOR, _is_prime
from .moments import _check_mode, _check_noise
from .numeric import EXACT


@dataclass(frozen=True)
class RunConfig:
    """Sampling parameters and the noise level. The float rank threshold is
    the constant ``prony.DEFAULT_RANK_TOL``, the matching budget N^3 + 1
    coefficients per matching."""

    mode: str = EXACT
    denominator: int = DEFAULT_DENOMINATOR
    seed: int | None = None
    noise: float = 0.0

    def validate(self, nmax: int | None = None):
        _check_mode(self.mode)
        _check_noise(self.noise)
        if self.noise and self.mode == EXACT:
            raise InputError("noise requires float mode")
        # a bool is an int: nmax=True must not read as 1
        if nmax is not None and (
            isinstance(nmax, bool) or not isinstance(nmax, int) or nmax < 1
        ):
            raise InputError(f"nmax must be an integer of at least 1, got {nmax!r}")
        if self.mode == EXACT and not _is_prime(self.denominator):
            raise InputError(
                f"direction denominator {self.denominator} must be prime in exact mode"
            )
        return self
