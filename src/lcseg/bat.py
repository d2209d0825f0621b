"""Bat-algorithm metaheuristic and the intensity-threshold objective.

The optimizer is the canonical echolocation scheme (Yang 2010) on the one
search interval lcseg uses, the 8-bit intensity range [0, 255].  Each bat
carries a position, velocity, loudness A and pulse rate r.  Per
iteration and bat

    f = f_min + (f_max - f_min) * U(0,1)
    v <- v + (x - x_best) * f
    candidate = clamp(x + v)
    with probability (1 - r): candidate = clamp(x_best + eps * A_mean),
                              eps ~ U(-1,1)
    accept candidate iff U(0,1) < A and its fitness beats the bat's own;
    on acceptance  A <- alpha * A,  r <- r0 * (1 - exp(-gamma * t))

Maximization convention throughout.  The global best tracks every
evaluated candidate, accepted or not, so the best-so-far history is
non-decreasing by construction.

Determinism contract: the master seed is split into one PCG64 stream per
bat via ``numpy.random.SeedSequence.spawn``.  Bat i draws its stream as
one block, ``random(1 + 4 * iterations)``, up front and reads it through
its own cursor: draw 0 sets the initial position (255 * d), then each
iteration takes, in order, beta, the local-walk coin, the walk offset
(only when the walk is taken) and the acceptance coin, so the cursor
advances by 4 with the walk and by 3 without; the block's tail is never
read.  A draw d stands for ``uniform()`` and -1 + 2d for
``uniform(-1, 1)``, which numpy computes the same way, so the block
yields bit for bit the values scalar draws in that order would.  x_best
and the mean loudness are snapshotted at the start of each iteration
(the mean is recomputed only after some loudness changed) and the bats
are updated in bat order, so a bat's move never depends on another bat's
move in the same iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .histeq import histogram
from .image import as_gray

__all__ = [
    "BatParams",
    "BatState",
    "bat_optimize",
    "between_class_variance",
    "otsu_threshold",
    "otsu_fitness",
    "optimize_threshold",
    "write_convergence_csv",
]

FitnessFn = Callable[[float], float]

# The search interval: every threshold of an 8-bit image.
_LOW, _HIGH = 0.0, 255.0


@dataclass(frozen=True)
class BatParams:
    """Knobs of the bat algorithm plus its master seed."""

    population: int = 20
    iterations: int = 500
    f_min: float = 0.0
    f_max: float = 2.0
    alpha: float = 0.9
    gamma: float = 0.9
    a0: float = 1.0
    r0: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.seed >= 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        # Written so that NaN fails each check.
        if not self.f_min <= self.f_max:
            raise ValueError("f_min must not exceed f_max")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not self.a0 > 0.0:
            raise ValueError("initial loudness must be positive")
        if not 0.0 <= self.r0 <= 1.0:
            raise ValueError("initial pulse rate must lie in [0, 1]")


@dataclass
class BatState:
    """Final population state and the per-iteration best-fitness history."""

    positions: np.ndarray
    velocities: np.ndarray
    loudness: np.ndarray
    pulse_rate: np.ndarray
    best_position: float
    best_fitness: float
    history: list[float] = field(default_factory=list)


def bat_optimize(params: BatParams, fitness: FitnessFn) -> BatState:
    """Run the bat algorithm for exactly ``params.iterations`` iterations.

    ``fitness`` must be a pure function of a position in [0, 255];
    higher values are better.  Positions are clamped to [0, 255] after
    every move.
    """
    n = params.population
    # One block of draws per bat, read through its own cursor in the
    # order the module docstring fixes.
    blocks = [
        np.random.Generator(np.random.PCG64(s)).random(1 + 4 * params.iterations).tolist()
        for s in np.random.SeedSequence(params.seed).spawn(n)
    ]
    cursors = [1] * n

    positions = [_LOW + (_HIGH - _LOW) * block[0] for block in blocks]
    velocities = [0.0] * n
    loudness = [params.a0] * n
    pulse_rate = [params.r0] * n
    fitnesses = [float(fitness(x)) for x in positions]
    best_idx = fitnesses.index(max(fitnesses))  # the first of equals
    best_position = positions[best_idx]
    best_fitness = fitnesses[best_idx]

    f_min, f_span = params.f_min, params.f_max - params.f_min
    alpha, r0, gamma = params.alpha, params.r0, params.gamma
    history: list[float] = []
    loudness_changed = True
    for t in range(1, params.iterations + 1):
        ref_best = best_position
        if loudness_changed:
            # numpy's pairwise sum, not sum()/n: the pinned artifacts use it.
            mean_loudness = float(np.mean(loudness))
            loudness_changed = False
        for i in range(n):
            block = blocks[i]
            c = cursors[i]
            velocities[i] += (positions[i] - ref_best) * (f_min + f_span * block[c])
            if block[c + 1] > pulse_rate[i]:
                cand = ref_best + (-1.0 + 2.0 * block[c + 2]) * mean_loudness
                c += 4
            else:
                cand = positions[i] + velocities[i]
                c += 3
            accept_coin = block[c - 1]  # the iteration's last draw
            cursors[i] = c
            if cand < _LOW:  # the clamp min(max(cand, _LOW), _HIGH)
                cand = _LOW
            elif cand > _HIGH:
                cand = _HIGH
            cand_fitness = float(fitness(cand))
            if accept_coin < loudness[i] and cand_fitness > fitnesses[i]:
                positions[i] = cand
                fitnesses[i] = cand_fitness
                loudness[i] *= alpha
                pulse_rate[i] = r0 * (1.0 - math.exp(-gamma * t))
                loudness_changed = True
            if cand_fitness > best_fitness:
                best_fitness = cand_fitness
                best_position = cand
        history.append(best_fitness)

    return BatState(
        positions=np.array(positions),
        velocities=np.array(velocities),
        loudness=np.array(loudness),
        pulse_rate=np.array(pulse_rate),
        best_position=best_position,
        best_fitness=best_fitness,
        history=history,
    )


# ---------------------------------------------------------------------------
# Threshold objective
# ---------------------------------------------------------------------------

def between_class_variance(hist: np.ndarray) -> np.ndarray:
    """Between-class variance of every integer threshold t in 0..255.

    Thresholding splits intensities into the classes {v <= t} and
    {v > t}; the score is w0 * w1 * (mu0 - mu1)^2, defined as 0 whenever
    either class is empty.
    """
    counts = np.asarray(hist, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("histogram is empty")
    p = counts / total
    w0 = np.cumsum(p)
    m0 = np.cumsum(p * np.arange(256))
    mu_total = m0[-1]
    w1 = 1.0 - w0
    valid = (w0 > 0) & (w1 > 0)
    sigma = np.zeros(256)
    num = (mu_total * w0 - m0) ** 2
    sigma[valid] = num[valid] / (w0[valid] * w1[valid])
    return sigma


def otsu_threshold(hist: np.ndarray) -> int:
    """Lowest threshold maximizing the between-class variance."""
    return int(np.argmax(between_class_variance(hist)))


def otsu_fitness(image: np.ndarray) -> FitnessFn:
    """Fitness mapping a position x to sigma_B^2(floor(x)) of ``image``.

    Positions outside [0, 255] score as the nearest end of the table.
    """
    table = between_class_variance(histogram(image)).tolist()

    def fitness(x: float) -> float:
        return table[min(max(math.floor(x), 0), 255)]

    return fitness


def optimize_threshold(image: np.ndarray, params: BatParams) -> tuple[int, BatState]:
    """Search the best global intensity threshold of ``image``.

    Runs the bat algorithm over [0, 255] with the between-class-variance
    objective and returns floor(best position), an integer in [0, 255],
    together with the final state (whose history is the convergence
    curve).
    """
    img = as_gray(image)
    state = bat_optimize(params, otsu_fitness(img))
    return math.floor(state.best_position), state


def write_convergence_csv(state: BatState, path) -> None:
    """Write the best-so-far history as CSV, one row per iteration."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,best_fitness\n")
        for t, value in enumerate(state.history, start=1):
            fh.write(f"{t},{value:.6g}\n")
