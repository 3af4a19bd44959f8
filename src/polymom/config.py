"""Run configuration shared by the inverse pipeline and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .errors import InputError
from .geometry import DEFAULT_DENOMINATOR, _is_prime
from .moments import _check_noise
from .numeric import EXACT, FLOAT


@dataclass(frozen=True)
class RunConfig:
    """Tolerances, sampling parameters, and retry budgets.

    ``beta_trials`` of None means the per-pair default N^3 + 1 from the
    de-randomized matching search.
    """

    mode: str = EXACT
    denominator: int = DEFAULT_DENOMINATOR
    seed: int | None = None
    rank_tol: float = 1e-8
    real_tol: float = 1e-7
    cluster_tol: float = 1e-6
    match_tol: float = 1e-6
    separation_tol: float = 5e-2
    direction_retries: int = 30
    beta_trials: int | None = None
    noise: float = 0.0
    # extra Hankel rows in float mode; noise averages out over the larger
    # system while exact mode stays at the frugal minimum m = N + 1
    float_oversample: int = 10

    def validate(self, nmax: int | None = None):
        if self.mode not in (EXACT, FLOAT):
            raise InputError(f"unknown mode {self.mode!r}")
        for name in ("rank_tol", "real_tol", "cluster_tol", "match_tol",
                     "separation_tol"):
            if not 0 < getattr(self, name) < inf:
                raise InputError(f"{name} must be finite and positive")
        if not self.rank_tol < 1:
            raise InputError("rank_tol must be below 1")
        if self.float_oversample < 0:
            raise InputError("float_oversample must be nonnegative")
        if self.direction_retries < 1:
            raise InputError("direction_retries must be at least 1")
        if self.beta_trials is not None and self.beta_trials < 1:
            raise InputError("beta_trials must be at least 1")
        _check_noise(self.noise)
        if self.noise and self.mode == EXACT:
            raise InputError("noise requires float mode")
        if nmax is not None and nmax < 1:
            raise InputError("nmax must be at least 1")
        if self.mode == EXACT and not _is_prime(self.denominator):
            raise InputError(
                f"direction denominator {self.denominator} must be prime in exact mode"
            )
        return self
