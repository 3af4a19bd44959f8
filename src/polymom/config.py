"""Run configuration shared by the inverse pipeline and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .errors import InputError
from .geometry import DEFAULT_DENOMINATOR, _is_prime
from .moments import _check_noise
from .numeric import EXACT, FLOAT
from .prony import DEFAULT_CLUSTER_TOL, DEFAULT_RANK_TOL, DEFAULT_REAL_TOL


@dataclass(frozen=True)
class RunConfig:
    """Tolerances, sampling parameters, and retry budgets.

    ``beta_trials`` of None means the per-pair default N^3 + 1 from the
    de-randomized matching search.
    """

    mode: str = EXACT
    denominator: int = DEFAULT_DENOMINATOR
    seed: int | None = None
    rank_tol: float = DEFAULT_RANK_TOL
    real_tol: float = DEFAULT_REAL_TOL
    cluster_tol: float = DEFAULT_CLUSTER_TOL
    match_tol: float = 1e-6
    beta_trials: int | None = None
    noise: float = 0.0

    def validate(self, nmax: int | None = None):
        if self.mode not in (EXACT, FLOAT):
            raise InputError(f"unknown mode {self.mode!r}")
        for name in ("rank_tol", "real_tol", "cluster_tol", "match_tol"):
            if not 0 < getattr(self, name) < inf:
                raise InputError(f"{name} must be finite and positive")
        if not self.rank_tol < 1:
            raise InputError("rank_tol must be below 1")
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
