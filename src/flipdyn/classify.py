"""Per-color state classification of a neighboring pair, and the stage
machine that tracks one color through a coupled trajectory.

Each color c is classified relative to the disagreement vertex by its
block signature: Sing when exactly one neighbor carries c, Bad when two
do and the block matches the unique worst two-neighbor shape, Good
otherwise.  The two disagreement colors are always Good, whether or not
they appear in the neighborhood; a color absent from the neighborhood and
not a disagreement color is Absent.  A color's block is read only when
two neighbors carry it, so state_counts makes one pass over the pair's
neighbor counts and reads (or searches) a block only there; given a
walk's table, the block comes from it where the table holds one.

The stage machine follows one Bad color c from a Bad starting pair.  The
walk leaves the Bad stage on its very first step: to the Good stage when
that step is non-terminating and lands in state Good(c), and to BadEnd
otherwise.  From the Good stage a terminating move ends the walk in
GoodEnd; a non-terminating move that leaves state Good(c) (including c
disappearing from the neighborhood) ends it in BadEnd; otherwise the Good
stage continues.  BadEnd is absorbing.  Every draw of the dynamics counts
as a step, including draws that flip nothing.  walk_stages runs the
machine on a given walk, whose start the caller has checked is Bad at c
(experiments.run_stage_experiment refuses any other start).  It
classifies the tracked color from the block its walk still keeps for
it, and searches only where the walk dropped that block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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


def classify_color(pair: NeighboringPair, c: int,
                   blocks: Optional[Sequence] = None) -> StateLabel:
    """State of color c for the given neighboring pair; blocks, when
    given, is a walk's table at pair, read as signature reads it."""
    if not (0 <= c < pair.k):
        raise InputError(f"color {c} out of range")
    if c == pair.s or c == pair.t:
        return StateLabel.GOOD
    delta = pair._delta[c]
    if delta == 0:
        return StateLabel.ABSENT
    if delta == 1:
        return StateLabel.SING
    if delta == 2 and _bad_block(pair, c, blocks):
        return StateLabel.BAD
    return StateLabel.GOOD


def _bad_block(pair: NeighboringPair, c: int, blocks: Optional[Sequence]) -> bool:
    """Whether the block of a color c with delta_c = 2 has a Bad shape."""
    sig = signature(pair, c, blocks)
    return (sig.A, sig.B, sig.a, sig.b) in BAD_SIGNATURES


@dataclass(frozen=True)
class StateCounts:
    n_sing: int
    n_bad: int
    n_good: int
    n_absent: int


def state_counts(pair: NeighboringPair, blocks: Optional[Sequence] = None) -> StateCounts:
    """Count colors in each state, with classify_color's labels: one pass
    over the neighbor counts, which reads a block (from blocks when given)
    only for a color two neighbors carry.  The two disagreement colors
    are Good."""
    s, t = pair.s, pair.t
    n_sing = n_bad = n_absent = 0
    for c, delta in enumerate(pair._delta):
        if c == s or c == t:
            continue
        if delta == 0:
            n_absent += 1
        elif delta == 1:
            n_sing += 1
        elif delta == 2 and _bad_block(pair, c, blocks):
            n_bad += 1
    return StateCounts(n_sing=n_sing, n_bad=n_bad,
                       n_good=len(pair._delta) - n_sing - n_bad - n_absent, n_absent=n_absent)


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
    blocks: Optional[Sequence] = None,
) -> Stage:
    """Advance the stage of color c by one step of the coupled walk.

    The walk starts in the Bad stage and leaves it on its first step, so
    prev is the Bad stage exactly on the first step.  move is None for a
    no-op draw.  new_pair is the pair after the step; a terminating move
    decides the stage without reading it, so there it may be None or
    stale (only such a move can leave Hamming distance 1).  blocks, when
    given, is the walk's table at new_pair, read as classify_color reads
    it.
    """
    if prev == Stage.BAD_END:
        return Stage.BAD_END
    if prev == Stage.GOOD_END:
        raise InputError("stage walk already ended in GoodEnd")
    if move is not None and move.terminating:
        return Stage.BAD_END if prev == Stage.BAD_STAGE else Stage.GOOD_END
    if new_pair is not None and classify_color(new_pair, c, blocks) == StateLabel.GOOD:
        return Stage.GOOD_STAGE
    return Stage.BAD_END


@dataclass(frozen=True)
class StageWalkResult:
    outcome: Stage
    steps: int


def walk_stages(walk: CoupledWalk, c: int, step_cap: int) -> StageWalkResult:
    """Step walk, which starts at a pair Bad at color c, until its stage
    ends in GoodEnd or BadEnd, advancing the stage by stage_update after
    every step.  The caller has checked that c is Bad there.  Each update
    classifies c from the block the walk still keeps for it, if any: after
    a step that is not a move of D the kept blocks are the ones of the
    walk's pair."""
    stage = Stage.BAD_STAGE
    while stage in (Stage.BAD_STAGE, Stage.GOOD_STAGE):
        if walk.steps >= step_cap:
            raise CapacityError(f"stage walk exceeded {step_cap} steps")
        move = walk.step()
        stage = stage_update(stage, walk.pair, move, c, walk._cache)
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
