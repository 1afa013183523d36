"""Stable marriage: the algorithm ladder from proposal rounds to a
three-valued fixed point.

Six algorithms compute the same man-optimal (and, from the second on,
woman-optimal) stable marriage:

1. classic proposal rounds (man side only);
2. the symmetric variant running both sides at once;
3. per-person intervals of still-possible partners;
4. the same with a delayed rejection rule (membership test instead of a
   best-suitor comparison);
5. matrices over {0, STAR, 1} whose rows encode the intervals, updated
   with full prefix conjunctions/disjunctions;
6. the same matrices updated with only the adjacent term, which is the
   form a comparator circuit can implement.

Each pair of rungs shares one engine with a private switch: proposal
rounds (1-2), interval rounds (3-4) and the matrix fixed point (5-6).
Rounds are counted as executed loop passes including the final pass that
detects no change, which keeps the n = 1 case at one round and stays
within the n^2 / 2n^2 bounds.

Ranks are 0-based throughout this module: rank r means position r in a
preference row, r = 0 being the favourite.
"""

from __future__ import annotations

import itertools

from .circuit import STAR, TRI_CODE, TRI_VALUE, tri_and, tri_or
from .errors import (
    BadShapeError,
    InternalBoundViolationError,
    PreconditionViolatedError,
    TooLargeError,
)
from .value import Value


class SMInstance(Value):
    """Preference rows plus their inverse: ``man_rank[m][w]`` is the rank of
    woman w in man m's row, and ``woman_rank`` the same for women.  The
    rank tables are kept beside the fields, neither compared nor shown."""

    _fields = ("n", "man_pref", "woman_pref")

    def __init__(self, n, man_pref, woman_pref, *, _checked=False):
        """Check every field.  ``_checked`` is for ``parse_sm`` alone: n >= 1 and
        two tuples of n permutation tuples are then taken as already checked."""
        if not _checked:
            man_pref = tuple(tuple(r) for r in man_pref)
            woman_pref = tuple(tuple(r) for r in woman_pref)
            if n < 1:
                raise BadShapeError("need at least one man and one woman")
            for side in (man_pref, woman_pref):
                if len(side) != n:
                    raise BadShapeError("preference table has wrong height")
                for row in side:
                    if sorted(row) != list(range(n)):
                        raise BadShapeError(f"row {row} is not a permutation")

        def ranks(rows):
            out = []
            for row in rows:
                rank = [0] * n
                for r, p in enumerate(row):
                    rank[p] = r
                out.append(tuple(rank))
            return tuple(out)

        vars(self).update(n=n, man_pref=man_pref, woman_pref=woman_pref,
                          man_rank=ranks(man_pref), woman_rank=ranks(woman_pref))


class Marriage(Value):
    _fields = ("match",)

    def __init__(self, match):
        match = tuple(match)
        if sorted(match) != list(range(len(match))):
            raise BadShapeError("marriage is not a bijection")
        vars(self)["match"] = match

    @property
    def pairs(self) -> frozenset:
        return frozenset(enumerate(self.match))


class IntervalState(Value):
    """Per-person contiguous rank ranges (lo, hi), inclusive, 0-based."""

    _fields = ("man", "woman")

    def __init__(self, man, woman):
        vars(self).update(man=man, woman=woman)


class MatrixPair(Value):
    """MM indexed [man][woman identity], WW indexed [woman][man identity]."""

    _fields = ("MM", "WW")

    def __init__(self, MM, WW):
        vars(self).update(MM=MM, WW=WW)


def _inverse(perm) -> tuple:
    """The inverse of a permutation of range(len(perm)): inv[perm[i]] == i.

    Raises BadShapeError on anything else, so a repeated or missing entry
    cannot come back as a valid-looking inverse: with every entry in
    range, a repeat leaves some slot unfilled.
    """
    inv = [None] * len(perm)
    if perm and 0 <= min(perm) and max(perm) < len(perm):
        for i, p in enumerate(perm):
            inv[p] = i
    if None in inv:
        raise BadShapeError(f"{tuple(perm)} is not a permutation")
    return tuple(inv)


def _best_suitors(favourites, rank, n) -> list:
    """best[q]: the p with favourites[p] == q whom q ranks first, or None
    where nobody names q; rank[q][p] is the rank of p in q's list."""
    best = [None] * n
    for p, q in enumerate(favourites):
        b = best[q]
        if b is None or rank[q][p] < rank[q][b]:
            best[q] = p
    return best


def swap_sexes(inst: SMInstance) -> SMInstance:
    return SMInstance(inst.n, inst.woman_pref, inst.man_pref)


def _proposal_rounds(inst: SMInstance, both: bool):
    """Shared engine for the two proposal algorithms.

    Every round each man names his favourite woman not yet removed from
    his list, each woman keeps the best man who named her, and every
    other named pair is removed.  With ``both`` the women name their
    favourites in the same round too, and all of a round's removals read
    the lists the round started from.  Returns (men's favourites, women's
    favourites or None, rounds).

    Removed pairs are never revived, so each person's favourite is kept
    as a position in their list that only moves forward, past removed
    pairs, when that favourite is removed.
    """
    n = inst.n
    alive = [[True] * n for _ in range(n)]  # alive[m][w]: pair not yet removed
    man_pref, woman_pref = inst.man_pref, inst.woman_pref
    mpos = [0] * n
    topm = [row[0] for row in man_pref]
    if both:
        wpos = [0] * n
        topw = [row[0] for row in woman_pref]
    else:
        topw = None
    rounds = 0
    while True:
        rounds += 1
        if rounds > n * n:
            raise InternalBoundViolationError("proposal rounds exceeded n^2")
        best = _best_suitors(topm, inst.woman_rank, n)
        removals = [(m, w) for m, w in enumerate(topm) if best[w] != m]
        if both:
            best = _best_suitors(topw, inst.man_rank, n)
            removals += [(m, w) for w, m in enumerate(topw) if best[m] != w]
        if not removals:
            return topm, topw, rounds
        for m, w in removals:
            alive[m][w] = False
        for m, w in removals:
            if topm[m] == w:
                row, i, live = man_pref[m], mpos[m] + 1, alive[m]
                while not live[row[i]]:
                    i += 1
                mpos[m], topm[m] = i, row[i]
            if both and topw[w] == m:
                row, i = woman_pref[w], wpos[w] + 1
                while not alive[row[i]][w]:
                    i += 1
                wpos[w], topw[w] = i, row[i]


def gale_shapley(inst: SMInstance):
    """Man-proposing rounds; returns (man-optimal marriage, rounds)."""
    topm, _, rounds = _proposal_rounds(inst, both=False)
    return Marriage(topm), rounds


def symmetric_gs(inst: SMInstance):
    """Both sexes propose; returns (man_opt, woman_opt, rounds)."""
    topm, topw, rounds = _proposal_rounds(inst, both=True)
    return Marriage(topm), Marriage(_inverse(topw)), rounds


def _interval_rounds(inst: SMInstance, delayed: bool, on_step=None):
    """Shared engine for the two interval algorithms.

    Returns (final IntervalState, passes executed), the last pass being
    the one that changes nothing.  ``on_step`` is called with the
    IntervalState at t = 0 and after every pass.  All removals in one
    pass read the state the pass started from.
    """
    n = inst.n
    # keyed 0..n-1 men then n..2n-1 women; rank[p][q] is the rank of
    # person q in p's list, q given as identity
    pref = inst.man_pref + inst.woman_pref
    rank = inst.man_rank + inst.woman_rank

    lo = [0] * (2 * n)
    hi = [n - 1] * (2 * n)

    def snapshot():
        return IntervalState(
            tuple((lo[m], hi[m]) for m in range(n)),
            tuple((lo[n + w], hi[n + w]) for w in range(n)),
        )

    if on_step is not None:
        on_step(snapshot())
    bound = 2 * n * n
    rounds = 0
    while True:
        rounds += 1
        if rounds > bound:
            raise InternalBoundViolationError("interval rounds exceeded 2n^2")
        top = [pref[p][lo[p]] for p in range(2 * n)]  # identity of p's favourite remaining
        # best suitor per person: identity of opposite-sex p with top(p) = q
        best = (_best_suitors(top[n:], inst.man_rank, n)
                + _best_suitors(top[:n], inst.woman_rank, n))
        new_lo = list(lo)
        new_hi = list(hi)
        for q in range(2 * n):
            if best[q] is not None:
                new_hi[q] = min(hi[q], rank[q][best[q]])
        for p in range(2 * n):
            q = (n + top[p]) if p < n else top[p]
            if delayed:
                reject = not (lo[q] <= rank[q][p % n] <= hi[q])
            else:
                reject = best[q] != p % n
            if reject:
                new_lo[p] = lo[p] + 1
        changed = (new_lo != lo) or (new_hi != hi)
        for p in range(2 * n):
            if new_lo[p] > new_hi[p]:
                raise InternalBoundViolationError("interval emptied")
        lo, hi = new_lo, new_hi
        if on_step is not None:
            on_step(snapshot())
        if not changed:
            return snapshot(), rounds


def _interval_result(inst: SMInstance, final: IntervalState, rounds: int):
    wives = [inst.man_pref[m][lo] for m, (lo, _) in enumerate(final.man)]
    husbands = [inst.woman_pref[w][lo] for w, (lo, _) in enumerate(final.woman)]
    return Marriage(wives), Marriage(_inverse(husbands)), final, rounds


def interval_run(inst: SMInstance):
    """Interval shrinking with the eager rejection rule."""
    return _interval_result(inst, *_interval_rounds(inst, delayed=False))


def delayed_interval_run(inst: SMInstance):
    """Interval shrinking with the delayed (membership) rejection rule."""
    return _interval_result(inst, *_interval_rounds(inst, delayed=True))


def delayed_interval_states(inst: SMInstance) -> list:
    """All IntervalStates of the delayed run, one per time step from 0."""
    states = []
    _interval_rounds(inst, delayed=True, on_step=states.append)
    return states


def _matrix_fixed_point(inst: SMInstance, adjacent_only: bool, on_step=None):
    """Shared engine for the two matrix algorithms.

    Returns (final MatrixPair, passes executed), the last pass being the
    one that changes nothing.  ``on_step`` is called with the MatrixPair at
    t = 0 and after every pass.  With ``adjacent_only`` the update keeps
    just the neighbouring term, which is the circuit-implementable rule;
    otherwise full prefix AND/OR.

    Cells hold the three-valued codes of ``circuit.TRI_CODE``, on which
    AND is ``&`` and OR is ``|``.  Every pass reads the matrices the
    previous pass left and applies its changes after both sweeps.  Man
    row m is a function of row m of MM and column m of WW only, so a pass
    recomputes it only if one of those changed in the previous pass;
    woman rows likewise.
    """
    n = inst.n
    mpref, wpref = inst.man_pref, inst.woman_pref
    zero, star, one = TRI_CODE[0], TRI_CODE[STAR], TRI_CODE[1]
    MM = [[star] * n for _ in range(n)]
    WW = [[star] * n for _ in range(n)]
    for m in range(n):
        MM[m][mpref[m][0]] = one
    for w in range(n):
        WW[w][wpref[w][0]] = zero
    if on_step is not None:
        on_step(_decoded(MM, WW))
    men = women = range(n)
    bound = 2 * n * n
    rounds = 0
    while True:
        rounds += 1
        if rounds > bound:
            raise InternalBoundViolationError("matrix passes exceeded 2n^2")
        mm_changes = []
        for m in men:
            row, pref = MM[m], mpref[m]
            prev, acc = pref[0], one
            for i in range(1, n):
                w = pref[i]
                t = WW[prev][m]
                if not adjacent_only:
                    acc = t = acc & t
                v = row[prev] & t
                if v != row[w]:
                    mm_changes.append((m, w, v))
                prev = w
        ww_changes = []
        for w in women:
            row, pref = WW[w], wpref[w]
            prev, acc = pref[0], zero
            for i in range(1, n):
                m = pref[i]
                t = MM[prev][w]
                if not adjacent_only:
                    acc = t = acc | t
                v = row[prev] | t
                if v != row[m]:
                    ww_changes.append((w, m, v))
                prev = m
        men, women = set(), set()
        for m, w, v in mm_changes:
            MM[m][w] = v
            men.add(m)
            women.add(w)
        for w, m, v in ww_changes:
            WW[w][m] = v
            men.add(m)
            women.add(w)
        if on_step is not None:
            on_step(_decoded(MM, WW))
        if not men:
            return _decoded(MM, WW), rounds


def _decoded(MM, WW) -> MatrixPair:
    """The coded matrices as a MatrixPair over {0, STAR, 1}."""
    value = TRI_VALUE.__getitem__
    return MatrixPair(
        tuple(tuple(map(value, row)) for row in MM),
        tuple(tuple(map(value, row)) for row in WW),
    )


def _matrix_result(inst: SMInstance, mp: MatrixPair, passes: int):
    """(S_M, S_W, mp, passes) read off the final MatrixPair ``mp``."""
    n = inst.n
    man_match = [None] * n
    for m in range(n):
        picks = [
            w for w in range(n) if mp.MM[m][w] == 1 and mp.WW[w][m] in (0, STAR)
        ]
        if len(picks) != 1:
            raise InternalBoundViolationError("man-optimal extraction not unique")
        man_match[m] = picks[0]
    woman_match = [None] * n
    for w in range(n):
        picks = [
            m for m in range(n) if mp.WW[w][m] == 0 and mp.MM[m][w] in (1, STAR)
        ]
        if len(picks) != 1:
            raise InternalBoundViolationError("woman-optimal extraction not unique")
        woman_match[picks[0]] = w
    return Marriage(tuple(man_match)), Marriage(tuple(woman_match)), mp, passes


def interval_logic_run(inst: SMInstance):
    """Matrix fixed point with full prefix terms.

    Returns (S_M, S_W, final MatrixPair, iterations).
    """
    return _matrix_result(inst, *_matrix_fixed_point(inst, adjacent_only=False))


def interval_logic_steps(inst: SMInstance) -> list:
    """All MatrixPairs of interval_logic_run, one per time step from 0."""
    steps = []
    _matrix_fixed_point(inst, adjacent_only=False, on_step=steps.append)
    return steps


def subramanian_run(inst: SMInstance):
    """Matrix fixed point with adjacent terms only.

    Returns (S_M, S_W, final MatrixPair, iterations).
    """
    return _matrix_result(inst, *_matrix_fixed_point(inst, adjacent_only=True))


def is_stable(inst: SMInstance, mar: Marriage) -> int:
    mrank, wrank = inst.man_rank, inst.woman_rank
    husband = _inverse(mar.match)
    for m, wife in enumerate(mar.match):
        for w in range(inst.n):
            if mrank[m][w] < mrank[m][wife] and wrank[w][m] < wrank[w][husband[w]]:
                return 0
    return 1


def all_stable_marriages(inst: SMInstance) -> set:
    """Brute force over all bijections. Guarded to n <= 8."""
    if inst.n > 8:
        raise TooLargeError(f"n = {inst.n} exceeds the brute-force guard")
    out = set()
    for perm in itertools.permutations(range(inst.n)):
        mar = Marriage(perm)
        if is_stable(inst, mar):
            out.add(mar)
    return out


def matrix_of_intervals(inst: SMInstance, s: IntervalState) -> MatrixPair:
    """Encode intervals as monotone rows over {0, STAR, 1}.

    A man's row reads 1 up to his interval's favourite end, STAR across
    the rest of the interval, 0 past it; a woman's row swaps 0 and 1.
    """
    MM = tuple(tuple([1 if r <= lo else (STAR if r <= hi else 0) for r in row])
               for row, (lo, hi) in zip(inst.man_rank, s.man))
    WW = tuple(tuple([0 if r <= lo else (STAR if r <= hi else 1) for r in row])
               for row, (lo, hi) in zip(inst.woman_rank, s.woman))
    return MatrixPair(MM, WW)


def marriage_to_feasible(inst: SMInstance, mar: Marriage) -> MatrixPair:
    """matrix_of_intervals on the state whose every interval is the single
    rank of that person's partner."""
    return matrix_of_intervals(inst, IntervalState(
        tuple((inst.man_rank[m][w],) * 2 for m, w in enumerate(mar.match)),
        tuple((inst.woman_rank[w][m],) * 2 for w, m in enumerate(_inverse(mar.match))),
    ))


def is_feasible_pair(inst: SMInstance, mp: MatrixPair) -> int:
    """Check the fixed-point equations plus pinned first-rank entries."""
    n = inst.n
    for m in range(n):
        if mp.MM[m][inst.man_pref[m][0]] != 1:
            return 0
        for i in range(1, n):
            prev_w = inst.man_pref[m][i - 1]
            want = tri_and(mp.MM[m][prev_w], mp.WW[prev_w][m])
            if mp.MM[m][inst.man_pref[m][i]] != want:
                return 0
    for w in range(n):
        if mp.WW[w][inst.woman_pref[w][0]] != 0:
            return 0
        for i in range(1, n):
            prev_m = inst.woman_pref[w][i - 1]
            want = tri_or(mp.WW[w][prev_m], mp.MM[prev_m][w])
            if mp.WW[w][inst.woman_pref[w][i]] != want:
                return 0
    return 1


def feasible_to_marriage(inst: SMInstance, mp: MatrixPair) -> Marriage:
    """Read the stable marriage off a 0/1-valued feasible pair.

    Each man marries the least preferred woman his row still marks 1.
    """
    n = inst.n
    for row in mp.MM + mp.WW:
        if STAR in row:
            raise PreconditionViolatedError("matrices must be 0/1 valued")
    if not is_feasible_pair(inst, mp):
        raise PreconditionViolatedError("fixed-point equations do not hold")
    match = []
    for m in range(n):
        ones = [r for r in range(n) if mp.MM[m][inst.man_pref[m][r]] == 1]
        match.append(inst.man_pref[m][max(ones)])
    return Marriage(tuple(match))
