"""Bounded exhaustive search over canonical rationals.

The grid is every canonical fraction n/d with |n| <= num_bound and
1 <= d <= den_bound, enumerated in ascending value order. Scans walk the
grid cubed and compare three views of each case: the identity checker, the
membership predicate, and the union of listed families. Work is
partitioned by the first component; partitions share no mutable state and
are merged in first-component order, so the output is identical whether it
was produced by one worker or many.

A pool gives each worker the case, the grid and the partition function once,
through its initializer. A task is then a first-component position, mapped in
chunks of about a quarter of each worker's share, and a worker sends each
listed triple back as the grid positions of its r2 and r3, from which the
parent rebuilds it with its own grid values. The process-pool machinery and
`array` are imported only when a pool starts, so one-shot commands and
`--jobs 1` runs never load them.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd
from typing import NamedTuple

from .catalog import family_union_member, member
from .identity import CaseId, DomainError, Triple, Verdict, check

# Per-triple shortcuts: an Enum class lookup costs more than the comparison
# it feeds, and tuple.__new__ skips the NamedTuple's Python-level __new__.
_HOLDS = Verdict.HOLDS
_new = tuple.__new__

__all__ = [
    "SearchBounds",
    "VerificationReport",
    "enumerate_rationals",
    "search_solutions",
    "verify_characterization",
]

DEFAULT_LIST_LIMIT = 100


class SearchBounds(NamedTuple):
    num_bound: int
    den_bound: int


def _validate(bounds: SearchBounds) -> SearchBounds:
    if bounds.num_bound < 1 or bounds.den_bound < 1:
        raise DomainError("bounds must be >= 1")
    return bounds


def enumerate_rationals(bounds: SearchBounds) -> list[Fraction]:
    """All canonical n/d with |n| <= num_bound, d <= den_bound, ascending."""
    _validate(bounds)
    values = [
        Fraction(n, d)
        for d in range(1, bounds.den_bound + 1)
        for n in range(-bounds.num_bound, bounds.num_bound + 1)
        if gcd(abs(n), d) == 1
    ]
    values.sort()
    return values


def _search_partition(task: tuple[CaseId, Fraction, list[Fraction]]) -> list[Triple]:
    case, r1, values = task
    found = []
    for r2 in values:
        for r3 in values:
            t = _new(Triple, (r1, r2, r3))
            if check(case, t).verdict is _HOLDS:
                found.append(t)
    return found


class _Listing:
    """Counts every triple added and keeps the first `limit` of them."""

    __slots__ = ("count", "limit", "triples")

    def __init__(self, limit: int | None) -> None:
        self.count = 0
        self.limit = limit
        self.triples: list[Triple] = []

    def add(self, t: Triple) -> None:
        self.count += 1
        if self.limit is None or len(self.triples) < self.limit:
            self.triples.append(t)


class _VerifyPartial(NamedTuple):
    holds: int
    missing: _Listing
    spurious: _Listing
    coverage_gap: _Listing


def _verify_partition(
    task: tuple[CaseId, Fraction, list[Fraction]], list_limit: int | None = None
) -> _VerifyPartial:
    case, r1, values = task
    holds = 0
    missing = _Listing(list_limit)
    spurious = _Listing(list_limit)
    gap = _Listing(list_limit)
    for r2 in values:
        for r3 in values:
            t = _new(Triple, (r1, r2, r3))
            holds_here = check(case, t).verdict is _HOLDS
            is_member = member(case, t)
            if holds_here:
                holds += 1
                if not is_member:
                    missing.add(t)
                if not family_union_member(case, t):
                    gap.add(t)
            elif is_member:
                spurious.add(t)
    return _VerifyPartial(holds, missing, spurious, gap)


# (worker, case, values, position of each value by id) in a pool worker,
# set once by _start_worker.
_pool_state: tuple | None = None


def _start_worker(worker, case: CaseId, values: list[Fraction]) -> None:
    global _pool_state
    _pool_state = (worker, case, values, {id(q): i for i, q in enumerate(values)})


def _positions(triples: list[Triple], index: dict[int, int]):
    """The grid positions of each triple's r2 and r3, in one flat array.

    Every component is an element of the worker's grid, so its id finds it.
    """
    from array import array

    return array("I", [index[id(q)] for t in triples for q in t[1:]])


def _triples(r1: Fraction, values: list[Fraction], positions) -> list[Triple]:
    """The inverse of _positions, with the given grid's own values."""
    q = map(values.__getitem__, positions)
    return list(map(_new, repeat(Triple), zip(repeat(r1), q, q)))


def _convert_listed(result, convert):
    """A partition's result with `convert` applied to each list of triples:
    a search partition's whole result, or a verify partition's listings."""
    if not isinstance(result, _VerifyPartial):
        return convert(result)
    for listing in result[1:]:
        listing.triples = convert(listing.triples)
    return result


def _pool_partition(i: int):
    """Partition i in a pool worker, its listed triples sent as positions."""
    worker, case, values, index = _pool_state
    return _convert_listed(worker((case, values[i], values)), partial(_positions, index=index))


def _run_partitions(worker, case: CaseId, values: list[Fraction], jobs: int) -> list:
    # The CPUs this process may run on; taskset or a container can pin fewer.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, cpus or 1, len(values))
    if workers <= 1:
        return [worker((case, r1, values)) for r1 in values]
    from concurrent.futures import ProcessPoolExecutor

    # About four chunks per worker: few round trips, yet an even finish.
    chunksize = -(-len(values) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                             initargs=(worker, case, values)) as pool:
        results = pool.map(_pool_partition, range(len(values)), chunksize=chunksize)
        return [_convert_listed(result, partial(_triples, r1, values))
                for r1, result in zip(values, results)]


def search_solutions(case: CaseId, bounds: SearchBounds, jobs: int = 1) -> list[Triple]:
    """All triples on the grid whose identity check HOLDS, in grid order."""
    values = enumerate_rationals(bounds)
    partials = _run_partitions(_search_partition, case, values, jobs)
    return [t for partial in partials for t in partial]


class VerificationReport(NamedTuple):
    """Grid-wide comparison of checker, membership predicate, and families.

    `missing` are triples that hold but the predicate rejects; `spurious`
    the reverse; the characterization is exact on the grid iff both are
    empty. `coverage_gap` are holding triples outside every listed family.
    The three lists are truncated to `list_limit` entries (counts are
    never truncated).
    """

    case: CaseId
    bounds: SearchBounds
    total_triples: int
    holds: int
    missing_count: int
    spurious_count: int
    coverage_gap_count: int
    missing: tuple[Triple, ...]
    spurious: tuple[Triple, ...]
    coverage_gap: tuple[Triple, ...]
    list_limit: int | None

    @property
    def exact(self) -> bool:
        return self.missing_count == 0 and self.spurious_count == 0


def verify_characterization(
    case: CaseId,
    bounds: SearchBounds,
    jobs: int = 1,
    list_limit: int | None = DEFAULT_LIST_LIMIT,
) -> VerificationReport:
    """Exhaustively compare check, member, and family_union_member on the grid."""
    values = enumerate_rationals(bounds)
    partials: list[_VerifyPartial] = _run_partitions(
        partial(_verify_partition, list_limit=list_limit), case, values, jobs
    )

    def merge(listings: list[_Listing]) -> tuple[int, tuple[Triple, ...]]:
        # Each partition kept its first list_limit triples in grid order, so
        # the first list_limit of their concatenation are the grid's first.
        triples = [t for listing in listings for t in listing.triples]
        if list_limit is not None:
            del triples[list_limit:]
        return sum(listing.count for listing in listings), tuple(triples)

    missing_count, missing = merge([p.missing for p in partials])
    spurious_count, spurious = merge([p.spurious for p in partials])
    gap_count, gap = merge([p.coverage_gap for p in partials])
    return VerificationReport(
        case=case,
        bounds=bounds,
        total_triples=len(values) ** 3,
        holds=sum(p.holds for p in partials),
        missing_count=missing_count,
        spurious_count=spurious_count,
        coverage_gap_count=gap_count,
        missing=missing,
        spurious=spurious,
        coverage_gap=gap,
        list_limit=list_limit,
    )
