"""Bat-algorithm metaheuristic and the intensity-threshold objective.

The optimizer is the canonical echolocation scheme (Yang 2010) on the one
search interval lcseg uses, the 8-bit intensity range [0, 255], over a
table of the 256 scores of the integer thresholds: a position x scores
``table[floor(x)]``.  Each bat carries a position, velocity, loudness A
and pulse rate r.  Per iteration and bat

    f = f_min + (f_max - f_min) * U(0,1)
    v <- v + (x - x_best) * f
    candidate = clamp(x + v)
    with probability (1 - r): candidate = clamp(x_best + eps * A_mean),
                              eps ~ U(-1,1)
    accept candidate iff U(0,1) < A and its score beats the bat's own;
    on acceptance  A <- alpha * A,  r <- r0 * (1 - exp(-gamma * t))

Maximization convention throughout.  The global best tracks every
scored candidate, accepted or not, so the best-so-far history is
non-decreasing by construction.

Determinism contract: the master seed is split into one PCG64 stream per
bat via ``numpy.random.SeedSequence.spawn``.  Bat i draws its stream up
front, ``random(1 + 4 * iterations)`` into row i of one array, and reads
it through its own cursor: draw 0 sets the initial position (255 * d),
then each iteration takes, in order, beta, the local-walk coin, the walk
offset (only when the walk is taken) and the acceptance coin, so the
cursor advances by 4 with the walk and by 3 without; the row's tail is
never read.  A draw d stands for ``uniform()`` and -1 + 2d for
``uniform(-1, 1)``, which numpy computes the same way, so the row
gives bit for bit the values scalar draws in that order would.  x_best
and the mean loudness are snapshotted at the start of each iteration
(the mean is recomputed only after some loudness changed) and the bats
are updated in bat order, so a bat's move never depends on another bat's
move in the same iteration.

Evaluation in stretches: an *event* is an acceptance or a new global
best.  Between events x_best, the mean loudness and each bat's position,
score, loudness and pulse rate stay constant, so a stretch of
iterations is computed at once as if it held none: the cursor paths
follow from the pulse rates alone, the velocities are one ``np.cumsum``
along the iterations, and every candidate of the stretch is looked up
in the table at once.  The first iteration that holds an event is then
resolved bat by bat, in bat order; the rest of the stretch is discarded.
``np.cumsum`` adds in sequence, and every other value is the same
IEEE-754 operation on the same operands as in a loop over one candidate
at a time, so the final state is that loop's bit for bit
(tests/test_bat.py keeps it as the oracle).

Settled run: once the best scores the table's maximum, no candidate
can beat it, so ``best_position`` and ``best_fitness`` are final and the
history repeats the best score to the last iteration; once every bat
scores the maximum, no event can follow at all: an acceptance needs a
candidate above the bat's own score and a new best one above the best
score.  The run ends at the first stretch that starts so settled, and
the final state is what the loop would end with, since only the cursors
and velocities, which the state does not hold, would still move.
``bat_optimize`` stops earlier, at the first stretch that starts with
the answer final, and returns a state holding the answer, the
parameters and the score table.  The first read of ``positions``,
``loudness``, ``pulse_rate`` or ``evaluations`` runs the same loop
again from them to the settled end, so each field is the loop's value
bit for bit; for rows over 8 MiB that run builds the rows again.

Ties: ``best_position`` is the first position scored at the best score,
in scoring order: the initial positions in bat order, then each
iteration's candidates in bat order; a later one replaces it only by
scoring higher.  On a table whose maximum is shared the threshold so
depends on the seed: every threshold of a constant image scores 0, and
a constant 64x64 image gives 240, 178 and 238 at seeds 0, 1 and 2,
where ``otsu_threshold`` gives the lowest maximizer, 0.  The mask is
single-class either way, and ``lcseg run`` exits with code 3.

Draw table: the draw rows depend only on (seed, population, iterations),
and every image of a run uses the same ``BatParams``, so they are built
once, kept read-only in a one-entry cache (about 0.32 MB at the
defaults) and reused by later calls; rows over 8 MiB are built for one
call only.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .histeq import histogram
from .image import check_int

__all__ = [
    "BatParams",
    "BatState",
    "bat_optimize",
    "between_class_variance",
    "otsu_threshold",
    "optimize_threshold",
    "convergence_csv",
]

# The search interval: every threshold of an 8-bit image.
_LOW, _HIGH = 0.0, 255.0

# Iterations evaluated at once after an event; doubled while none occurs.
_FIRST_STRETCH = 8


@dataclass(frozen=True)
class BatParams:
    """Knobs of the bat algorithm plus its master seed.

    An iteration changes a velocity by at most 255 * max(|f_min|, |f_max|),
    so 2 * 255 * max(|f_min|, |f_max|) * iterations (twice that sum, to
    cover rounding) must be finite; then every velocity and candidate is.
    """

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
        for name, least in dict(seed=0, population=2, iterations=1).items():
            check_int(name, getattr(self, name), least)
        for name in ("f_min", "f_max", "gamma", "a0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        # Written so that NaN fails each check.
        if not self.f_min <= self.f_max:
            raise ValueError("f_min must not exceed f_max")
        if not math.isfinite(self.f_max - self.f_min):
            raise ValueError(f"f_max - f_min must be finite, got {self.f_max - self.f_min!r}")
        # Compared as iterations <= max / step, so that no count overflows a float.
        step = 2 * 255 * max(abs(self.f_min), abs(self.f_max))
        if step > 0.0 and not self.iterations <= sys.float_info.max / step:
            raise ValueError(
                "the velocity bound 2 * 255 * max(|f_min|, |f_max|) * iterations must be finite,"
                f" got f_min={self.f_min!r}, f_max={self.f_max!r}, iterations={self.iterations!r}"
            )
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
    """A run's answer and the inputs that reproduce its final population.

    ``best_position``, ``best_fitness`` and the per-iteration best-fitness
    ``history`` are final when ``bat_optimize`` returns.  The first read
    of ``positions``, ``loudness``, ``pulse_rate`` or ``evaluations``
    runs the same loop again, from ``params`` and the read-only
    ``table``, to its settled end (see the module docstring) and keeps
    that population.  ``evaluations`` counts the positions looked up in
    the table: the initial population and every candidate built, those
    discarded past an event included.  perfbench's traced run reads
    ``loudness``, ``history`` and ``best_fitness``, so those fields must
    stay.
    """

    params: BatParams
    table: np.ndarray = field(repr=False)
    best_position: float
    best_fitness: float
    history: list[float]

    @functools.cached_property
    def _population(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        positions, loudness, pulse_rate, *_, evaluations = _run(
            self.params, self.table, settle=True
        )
        return positions, loudness, pulse_rate, evaluations

    @property
    def positions(self) -> np.ndarray:
        return self._population[0]

    @property
    def loudness(self) -> np.ndarray:
        return self._population[1]

    @property
    def pulse_rate(self) -> np.ndarray:
        return self._population[2]

    @property
    def evaluations(self) -> int:
        return self._population[3]


def bat_optimize(params: BatParams, table: np.ndarray) -> BatState:
    """Run the bat algorithm for exactly ``params.iterations`` iterations.

    ``table`` holds the 256 finite scores of the integer thresholds 0..255,
    higher being better; a position x in [0, 255] scores ``table[floor(x)]``.
    Positions are clamped to [0, 255] after every move.  The run stops
    once its answer is final; the first population read of the returned
    state runs the bat again to its settled end (see ``BatState``).  See
    the module docstring.
    """
    table = np.array(table, dtype=np.float64)  # a copy: a population read runs on it later
    if table.shape != (256,) or not np.isfinite(table).all():
        raise ValueError("the score table must hold 256 finite values")
    table.flags.writeable = False
    _, _, _, best_position, best_fitness, history, _ = _run(params, table, settle=False)
    return BatState(params, table, best_position, best_fitness, history)


def _run(params: BatParams, table: np.ndarray, settle: bool):
    """The loop of ``bat_optimize``.

    Runs until every bat scores the table's maximum or the iterations
    run out; without ``settle``, also stops once the best does, where
    the answer is final and the history whole.  Returns positions,
    loudness, pulse_rate, best_position, best_fitness, history and
    evaluations.
    """
    n, iterations = params.population, params.iterations
    # Rows over 8 MiB (8 B per draw) serve this call only.
    cached = n * (1 + 4 * iterations) * 8 <= 8 << 20
    draws = (_draw_tables if cached else _draw_tables.__wrapped__)(params.seed, n, iterations)
    top = table.max()
    flat = draws.ravel()
    coins = flat[1:]  # coins[c]: the walk coin of an iteration that starts at c
    cursors = np.arange(1, flat.size, draws.shape[1])  # flat indices, at draw 1 of each row

    positions = _LOW + (_HIGH - _LOW) * draws[:, 0]
    velocities = np.zeros(n)
    loudness = np.full(n, params.a0)
    pulse_rate = np.full(n, params.r0)
    fitnesses = table.take(positions.astype(np.intp))  # floor, as positions >= 0
    evaluations = n
    initial = fitnesses.tolist()
    best_fitness = max(initial)
    best_position = float(positions[initial.index(best_fitness)])  # the first of equals

    f_min, f_span = params.f_min, params.f_max - params.f_min
    # history[t - 1] is the best score after iteration t, written out up
    # to the iteration before each event and in full at the end.
    history: list[float] = []
    # numpy's pairwise sum over n, as np.mean adds: the pinned artifacts use it.
    mean_loudness = float(np.add.reduce(loudness) / n)
    t, stretch = 1, _FIRST_STRETCH
    # Once settled, no event can follow; once the best scores the top,
    # the answer is final.
    while t <= iterations and fitnesses.min() < top and (settle or best_fitness < top):
        # Iterations t, t + 1, ... evaluated as if none held an event.
        length = min(stretch, iterations + 1 - t)
        path = np.empty((length + 1, n), dtype=np.intp)
        path[0] = cursors
        for here, there in itertools.pairwise(path):
            np.add(here + 3, coins.take(here) > pulse_rate, out=there)  # + 1 with the walk
        at, after = path[:-1], path[1:]
        vel = (positions - best_position) * (f_min + f_span * flat[at])
        vel[0] += velocities
        np.cumsum(vel, axis=0, out=vel)  # in sequence, as the loop adds
        walk = best_position + (-1.0 + 2.0 * flat[at + 2]) * mean_loudness
        cand = np.where(after - at == 4, walk, positions + vel)
        cand[cand < _LOW] = _LOW  # the clamp min(max(cand, _LOW), _HIGH)
        cand[cand > _HIGH] = _HIGH
        fit = table.take(cand.astype(np.intp))
        evaluations += cand.size
        accept = (flat[after - 1] < loudness) & (fit > fitnesses)
        event = accept | (fit > best_fitness)
        first = int(event.argmax())  # row-major, so iteration t + first // n
        if not event.flat[first]:
            t, stretch = t + length, 2 * stretch
            velocities, cursors = vel[-1], path[-1]
            continue
        # Iteration t + k holds the first event.  No state changed before
        # it, so its values are the loop's; resolve it in bat order and
        # drop the rest of the stretch.
        k = first // n
        t, stretch = t + k, _FIRST_STRETCH
        history += [best_fitness] * (t - 1 - len(history))
        velocities, cursors = vel[k], path[k + 1]
        won = np.flatnonzero(accept[k]).tolist()
        if won:
            rate = params.r0 * (1.0 - math.exp(-params.gamma * t))
            for i in won:
                positions[i], fitnesses[i] = cand[k, i], fit[k, i]
                loudness[i] *= params.alpha
                pulse_rate[i] = rate
            mean_loudness = float(np.add.reduce(loudness) / n)
        row_cand = cand[k].tolist()
        for i, value in enumerate(fit[k].tolist()):
            if value > best_fitness:
                best_fitness, best_position = value, row_cand[i]
        t += 1

    history += [best_fitness] * (iterations - len(history))
    return positions, loudness, pulse_rate, best_position, best_fitness, history, evaluations


@functools.lru_cache(maxsize=1)
def _draw_tables(seed: int, population: int, iterations: int) -> np.ndarray:
    """The draw rows of a run, read-only.

    Row i is bat i's stream, read through its cursor in the order the
    module docstring fixes; cursors are flat indices into the rows.
    """
    draws = np.empty((population, 1 + 4 * iterations))
    for row, seq in zip(draws, np.random.SeedSequence(seed).spawn(population)):
        np.random.Generator(np.random.PCG64(seq)).random(out=row)
    draws.flags.writeable = False
    return draws


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


def optimize_threshold(image: np.ndarray, params: BatParams) -> tuple[int, BatState]:
    """Search the best global intensity threshold of ``image``.

    Runs the bat algorithm over the between-class-variance table of
    ``image`` and returns floor(best position), an integer in [0, 255],
    together with the final state (whose history is the convergence
    curve).
    """
    state = bat_optimize(params, between_class_variance(histogram(image)))
    return math.floor(state.best_position), state


def convergence_csv(state: BatState) -> str:
    """The best-so-far history as CSV, one row per iteration.

    Each distinct score is formatted once: the history mostly repeats one.
    """
    formatted: dict = {}
    lines = ["iteration,best_fitness\n"]
    for t, value in enumerate(state.history, start=1):
        key = value or str(value)  # 0.0 == -0.0, yet they print as "0" and "-0"
        if key not in formatted:
            formatted[key] = f"{value:.6g}"
        lines.append(f"{t},{formatted[key]}\n")
    return "".join(lines)
