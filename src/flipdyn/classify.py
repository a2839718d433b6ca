"""Per-color state classification of a neighboring pair, and the stage
machine that tracks one color through a coupled trajectory.

Each color c is classified relative to the disagreement vertex by its
block signature: Sing when exactly one neighbor carries c, Bad when two
do and the block matches the unique worst two-neighbor shape, Good
otherwise.  The two disagreement colors are always Good, whether or not
they appear in the neighborhood; a color absent from the neighborhood and
not a disagreement color is Absent.

The stage machine follows one Bad color c from a Bad starting pair.  The
walk leaves the Bad stage on its very first step: to the Good stage when
that step is non-terminating and lands in state Good(c), and to BadEnd
otherwise.  From the Good stage a terminating move ends the walk in
GoodEnd; a non-terminating move that leaves state Good(c) (including c
disappearing from the neighborhood) ends it in BadEnd; otherwise the Good
stage continues.  BadEnd is absorbing.  Every draw of the dynamics counts
as a step, including draws that flip nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .coupling import (
    CoupledMove,
    CoupledWalk,
    NeighboringPair,
    greedy_coupling_distribution,
    signature,
)
from .dynamics import FlipProbabilities
from .errors import CapacityError, InputError

# The two-neighbor block shapes whose one-step cost is extremal; a color
# is Bad exactly when its signature matches one of them.
BAD_SIGNATURES = (
    (7, 3, (3, 3), (1, 1)),
    (3, 7, (1, 1), (3, 3)),
)


class StateLabel(enum.Enum):
    SING = "sing"
    BAD = "bad"
    GOOD = "good"
    ABSENT = "absent"


def classify_color(pair: NeighboringPair, c: int) -> StateLabel:
    """State of color c for the given neighboring pair."""
    if not (0 <= c < pair.k):
        raise InputError(f"color {c} out of range")
    if c == pair.s or c == pair.t:
        return StateLabel.GOOD
    delta = pair.delta(c)
    if delta == 0:
        return StateLabel.ABSENT
    if delta == 1:
        return StateLabel.SING
    if delta == 2:
        sig = signature(pair, c)
        if (sig.A, sig.B, sig.a, sig.b) in BAD_SIGNATURES:
            return StateLabel.BAD
    return StateLabel.GOOD


@dataclass(frozen=True)
class StateCounts:
    n_sing: int
    n_bad: int
    n_good: int
    n_absent: int


def state_counts(pair: NeighboringPair) -> StateCounts:
    """Count colors in each state; the two disagreement colors are Good."""
    labels = [classify_color(pair, c) for c in range(pair.k)]
    return StateCounts(
        n_sing=labels.count(StateLabel.SING),
        n_bad=labels.count(StateLabel.BAD),
        n_good=labels.count(StateLabel.GOOD),
        n_absent=labels.count(StateLabel.ABSENT),
    )


class Stage(enum.Enum):
    BAD_STAGE = "bad"
    GOOD_STAGE = "good"
    GOOD_END = "good_end"
    BAD_END = "bad_end"


def stage_update(
    prev: Stage,
    new_pair: Optional[NeighboringPair],
    move: Optional[CoupledMove],
    c: int,
) -> Stage:
    """Advance the stage of color c by one step of the coupled walk.

    The walk starts in the Bad stage and leaves it on its first step, so
    prev is the Bad stage exactly on the first step.  move is None for a
    no-op draw.  new_pair is the pair after the step; a terminating move
    decides the stage without reading it, so there it may be None or
    stale (only such a move can leave Hamming distance 1).
    """
    if prev == Stage.BAD_END:
        return Stage.BAD_END
    if prev == Stage.GOOD_END:
        raise InputError("stage walk already ended in GoodEnd")
    if move is not None and move.terminating:
        return Stage.BAD_END if prev == Stage.BAD_STAGE else Stage.GOOD_END
    if new_pair is not None and classify_color(new_pair, c) == StateLabel.GOOD:
        return Stage.GOOD_STAGE
    return Stage.BAD_END


@dataclass(frozen=True)
class StageWalkResult:
    outcome: Stage
    steps: int


def stage_walk(
    pair: NeighboringPair,
    c: int,
    probs: FlipProbabilities,
    rng,
    step_cap: Optional[int] = None,
) -> StageWalkResult:
    """Track color c from a Bad pair until GoodEnd or BadEnd: one coupled
    walk from the shared start table (CoupledWalk.from_start), its stage
    advanced by stage_update after every step."""
    if classify_color(pair, c) != StateLabel.BAD:
        raise InputError(f"color {c} is not Bad in the starting pair")
    if step_cap is None:
        step_cap = 100 * pair.graph.n * pair.k
    walk = CoupledWalk.from_start(pair, probs, rng)
    stage = Stage.BAD_STAGE
    while stage in (Stage.BAD_STAGE, Stage.GOOD_STAGE):
        if walk.steps >= step_cap:
            raise CapacityError(f"stage walk exceeded {step_cap} steps")
        move = walk.step()
        stage = stage_update(stage, walk.pair, move, c)
    return StageWalkResult(outcome=stage, steps=walk.steps)


@dataclass(frozen=True)
class StageStepMasses:
    """Exact one-step transition masses for the stage machine at a pair."""

    to_good: Fraction          # non-terminating moves landing Good(c)
    terminating: Fraction      # all terminating moves
    leave_good: Fraction       # non-terminating moves landing non-Good(c)


def stage_step_masses(
    pair: NeighboringPair, c: int, probs: FlipProbabilities
) -> StageStepMasses:
    """Enumerate one coupled step exactly and bucket its mass by the stage
    stage_update gives it from the Good stage: GoodStage is to_good,
    GoodEnd is terminating and BadEnd is leave_good.

    The no-op mass thus counts toward to_good or leave_good according to
    the unchanged pair's state of c, never toward terminating.
    """
    dist = greedy_coupling_distribution(pair, probs)
    num = dict.fromkeys((Stage.GOOD_STAGE, Stage.GOOD_END, Stage.BAD_END), 0)
    num[stage_update(Stage.GOOD_STAGE, pair, None, c)] += dist.noop_num
    for m in dist.moves:
        new_pair = None if m.terminating else NeighboringPair(pair.graph, *m.apply(pair))
        num[stage_update(Stage.GOOD_STAGE, new_pair, m, c)] += m.num
    den = dist.den
    return StageStepMasses(to_good=Fraction(num[Stage.GOOD_STAGE], den),
                           terminating=Fraction(num[Stage.GOOD_END], den),
                           leave_good=Fraction(num[Stage.BAD_END], den))


def gamma_bound(k: int, d: int, p2: Fraction) -> tuple[Fraction, Fraction]:
    """The (gamma, C) pair controlling the Bad-to-Good occupation ratio.

    gamma = (6k - d - 2)(k + 2 p2 d) / (4 (k - d - 2)(k - d - 1)) and
    C = (k + 2 p2 d)/(k - d - 2); requires k > d + 2.
    """
    if d < 1:
        raise InputError("d must be positive")
    if k <= d + 2:
        raise InputError(f"need k > d + 2, got k={k}, d={d}")
    p2 = Fraction(p2)
    if not (0 <= p2 <= 1):
        raise InputError("p2 must lie in [0, 1]")
    top = Fraction(6 * k - d - 2) * (k + 2 * p2 * d)
    gamma = top / (4 * (k - d - 2) * (k - d - 1))
    c_const = (k + 2 * p2 * d) / Fraction(k - d - 2)
    return gamma, c_const
