"""Enumeration of pure circuit covers and the labeled 16-cover fixture.

A pure cover partitions a point configuration into simplices of 2 or 3 points
that each contain the designated interior point in their relative interior.
For the hexagonal face there are exactly 16 such covers; their labels follow
the published enumeration and are stored as a reviewed fixture file.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from importlib import resources

from .circuits import PureCover
from .geometry import (
    HEXAGON_POSITIVE,
    M,
    POINT_INDEX,
    DegenerateSimplexError,
    LatticePoint,
    Simplex,
    contains_in_relative_interior,
)

FIXTURE_RESOURCE = "cover_fixture.txt"


def _valid_simplex(points: tuple[LatticePoint, ...], m: LatticePoint) -> Simplex | None:
    try:
        s = Simplex(points)
    except DegenerateSimplexError:
        return None
    return s if contains_in_relative_interior(s, m) else None


def point_configuration(points, m) -> tuple[list[LatticePoint], LatticePoint]:
    """``points`` and ``m`` as lattice points; ValueError unless nonempty, distinct and without m."""
    points, m = [LatticePoint(*p) for p in points], LatticePoint(*m)
    if not points:
        raise ValueError("need at least one point besides the interior point")
    if len(set(points)) != len(points):
        raise ValueError("points must be pairwise distinct")
    if m in points:
        raise ValueError("interior point must not be among the positive points")
    return points, m


def is_hexagon(points, m) -> bool:
    """True iff the configuration is the hexagonal face: its ten positive points, in any order, around m."""
    return set(points) == set(HEXAGON_POSITIVE) and m == M


def enumerate_pure_covers(points, m) -> list[PureCover]:
    """All partitions of ``points`` into m-containing simplices of size 2 or 3.

    Brute force with early pruning: the lexicographically smallest uncovered
    point anchors each block, and a block is rejected the moment it cannot
    contain ``m``.  Output is sorted by canonical key; the hexagon instance
    additionally receives the fixture ids.
    """
    points, m = point_configuration(points, m)

    covers: list[tuple[Simplex, ...]] = []

    def recurse(remaining: tuple[LatticePoint, ...], blocks: tuple[Simplex, ...]):
        if not remaining:
            covers.append(blocks)
            return
        anchor, rest = remaining[0], remaining[1:]
        for k in (1, 2):
            for combo in itertools.combinations(rest, k):
                s = _valid_simplex((anchor, *combo), m)
                if s is None:
                    continue
                left = tuple(p for p in rest if p not in combo)
                recurse(left, blocks + (s,))

    recurse(tuple(sorted(points)), ())

    hexagon = is_hexagon(points, m)
    index = POINT_INDEX if hexagon else {p: i for i, p in enumerate(sorted(points))}
    id_map = {key: i for i, key in fixture_keys().items()} if hexagon else {}
    keyed = sorted(((_key_of_blocks(blocks, index), blocks) for blocks in covers), key=lambda kv: kv[0])
    return [PureCover(id_map.get(key, rank), blocks) for rank, (key, blocks) in enumerate(keyed, start=1)]


def _key_of_blocks(blocks, index) -> str:
    parts = sorted(
        "-".join(str(i) for i in sorted(index[v] for v in s)) for s in blocks
    )
    return "|".join(parts)


def canonical_key(cover: PureCover) -> str:
    """Deterministic serialization: sorted index blocks joined with '|'.

    Indices refer to the canonical hexagon point order; invariant under any
    permutation of blocks or of vertices within a block.
    """
    return _key_of_blocks(cover.simplices, POINT_INDEX)


def parse_cover(key: str, id: int = 0) -> PureCover:
    """Inverse of :func:`canonical_key` for hexagon covers."""
    simplices = []
    for part in key.split("|"):
        simplices.append(Simplex(HEXAGON_POSITIVE[int(t)] for t in part.split("-")))
    return PureCover(id, tuple(simplices))


@functools.cache
def _fixture() -> dict[int, tuple[str, PureCover]]:
    """id -> (canonical key, cover), parsed once per process; callers must not mutate it."""
    text = resources.files("hexcover.data").joinpath(FIXTURE_RESOURCE).read_text()
    fixture = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        sid, key = (part.strip() for part in line.split(":"))
        fixture[int(sid)] = (key, parse_cover(key, int(sid)))
    return fixture


def fixture_keys() -> dict[int, str]:
    """id -> canonical key mapping read from the reviewed fixture file, as a fresh dict."""
    return {i: key for i, (key, _) in _fixture().items()}


def cover_fixture(id: int) -> PureCover:
    """The labeled pure cover CC(id), id an integer (Python's or numpy's) in 1..16.

    A float id raises ValueError even when integral: 9.0 == 9, but it cannot index.
    So does a bool, although Python counts True as the integer 1.
    """
    if not isinstance(id, numbers.Integral) or isinstance(id, bool) or id not in _fixture():
        raise ValueError(f"cover id must be an integer in 1..16, got {id!r}")
    return _fixture()[id][1]


def all_covers() -> list[PureCover]:
    """The 16 labeled hexagon covers, ordered by id, as a fresh list."""
    return [cover for _, (_, cover) in sorted(_fixture().items())]


_SPECIAL_TRIANGLES = (
    frozenset({LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(3, 2)}),
    frozenset({LatticePoint(2, 2), LatticePoint(4, 2), LatticePoint(1, 0)}),
)


def census(covers) -> dict[str, int]:
    """Structure counts: five-segment, special-triangle, and row-spanning covers."""
    counts = {"five-segment": 0, "special-triangle": 0, "row-spanning": 0}
    for c in covers:
        if all(len(s) == 2 for s in c.simplices):
            counts["five-segment"] += 1
        elif any(frozenset(s) in _SPECIAL_TRIANGLES for s in c.simplices):
            counts["special-triangle"] += 1
        else:
            counts["row-spanning"] += 1
    return counts
