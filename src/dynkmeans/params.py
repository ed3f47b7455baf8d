"""Global parameters and the exponent schedule shared by every subsystem."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import UsageError

GAMMA_FLOOR = 2.0 * math.sqrt(2.0 * math.pi)  # hash construction precondition


def default_gamma(epsilon: float) -> float:
    return float(max(math.ceil(epsilon ** -1.5), math.ceil(GAMMA_FLOOR)))


def default_colors(d: int, delta: int) -> int:
    # c0 = 0.25 keeps the color family small at desk scale; the cap per color
    # stays generous because lambda_cap scales with the color count.
    return max(2, math.ceil(0.25 * d * math.log2(max(delta, 2))))


@dataclass(frozen=True)
class Params:
    """Knobs shared by all structures.

    Set by callers (0 for lambda_cap or colors picks the default):

    epsilon     accuracy knob, in (0, 1)
    d           ambient dimension after preprocessing
    delta       grid side length; coordinates live in [1, delta]
    lambda_cap  bucket-count cap per consistency query
    colors      number of weak hashes backing one consistent hash
    seed        root RNG seed

    Derived from epsilon, and stored because the hash and index hot paths
    read them:

    gamma       hash consistency parameter, max(ceil(eps^-1.5), 6)
    theta       configured upper bound on subroutine approximation factors
    lam         robustness base, 3*gamma: robustness balls at scale j spill
                into ball(x, 3*gamma*r), and nesting them inside scale j+1
                needs lam >= 3*gamma
    """

    epsilon: float = 0.5
    d: int = 2
    delta: int = 256
    lambda_cap: int = 0
    colors: int = 0
    seed: int = 0
    gamma: float = field(init=False)
    theta: float = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise UsageError("epsilon must be in (0, 1)")
        if self.d < 1:
            raise UsageError("d must be >= 1")
        if self.delta < 2:
            raise UsageError("delta must be >= 2")
        gamma = default_gamma(self.epsilon)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "theta", 2.0)
        object.__setattr__(self, "lam", 3.0 * gamma)  # >= 18 > theta**2
        if self.colors == 0:
            object.__setattr__(self, "colors", default_colors(self.d, self.delta))
        if self.colors < 1:
            raise UsageError("colors must be >= 1")
        if self.lambda_cap == 0:
            # per-color budget tracks the measured cell-count growth,
            # exponential in d / gamma^(2/3) with a poly(d) prefactor
            budget = math.ceil(6 * gamma * self.d
                               * 2.0 ** (self.d / gamma ** (2.0 / 3.0)))
            object.__setattr__(self, "lambda_cap", self.colors * budget)
        if self.lambda_cap < 1:
            raise UsageError("lambda_cap must be >= 1")

    @property
    def aspect(self) -> float:
        """Max pairwise distance on the grid: sqrt(d) * delta."""
        return math.sqrt(self.d) * self.delta

    @property
    def per_color_cap(self) -> int:
        return max(1, self.lambda_cap // self.colors)

    @property
    def dyadic_levels(self) -> int:
        """ceil(log2(aspect)): number of dyadic scales above 1."""
        return max(1, math.ceil(math.log2(self.aspect)))


@dataclass(frozen=True)
class ExponentSchedule:
    """One table read by every controller call site.

    It keeps the structure of every comparison in the paper's epoch
    machinery, with desk-scale values in place of its literal exponents
    (README, "Parameters and schedule", lists both and why).
    """

    lam: float
    theta: float
    ell_stop_factor: float       # epoch-length loop stop threshold multiplier
    ell_shrink: float            # ell <- floor(ell_hat / ell_shrink)
    augment_per_update: float    # a = ceil(augment_per_update * (ell + 1))
    makerobust_div: float        # target level: lam^{3t} >= dhat / makerobust_div
    robust_div: float            # check level:  lam^{3t} >= dhat / robust_div
    contamination_offset: float  # radius lam^{3t + offset}
    d2_samples: int              # draws per augmentation round
    t_cap: int                   # robustness levels live in [0, t_cap]
    indicator_gammas: tuple = field(default_factory=tuple)

    def radius(self, j: int) -> float:
        return self.lam ** (3 * j)

    def contamination_radius(self, t: int) -> float:
        return self.lam ** (3 * t + self.contamination_offset)

    def keep_threshold(self, j: int) -> float:
        # Average-cost threshold deciding whether x_j is already a fine
        # center at scale j; lives on the squared-distance scale.
        return self.lam ** (6 * j - 2) / self.theta


def schedule_for(params: Params) -> ExponentSchedule:
    try:
        return _schedule(params)
    except OverflowError:
        raise UsageError(
            f"epsilon={params.epsilon} is too small: the exponent schedule "
            "overflows a float") from None


def _schedule(params: Params) -> ExponentSchedule:
    lam = params.lam
    aspect = params.aspect
    t_cap = max(1, math.ceil(math.log(aspect) / math.log(lam ** 3)))
    n_gammas = max(1, math.ceil(math.log(aspect) / math.log(lam)))
    gammas = tuple(lam ** i for i in range(n_gammas + 1))
    return ExponentSchedule(
        lam=lam,
        theta=params.theta,
        ell_stop_factor=10.0,
        ell_shrink=4.0,
        augment_per_update=1.0,
        makerobust_div=lam ** 7,
        robust_div=lam ** 10,
        contamination_offset=1.5,
        d2_samples=max(1, min(32, math.ceil(
            0.001 * params.epsilon ** -6 * params.d * math.log2(params.delta)))),
        t_cap=t_cap,
        indicator_gammas=gammas,
    )
