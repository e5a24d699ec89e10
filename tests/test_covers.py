"""Pure-cover enumeration, the labeled fixture, and canonical keys."""

import random
from collections import Counter

import numpy as np
import pytest

from hexcover.covers import (
    all_covers,
    canonical_key,
    census,
    cover_fixture,
    enumerate_pure_covers,
    fixture_keys,
    parse_cover,
)
from hexcover.circuits import PureCover
from hexcover.geometry import (
    HEXAGON_POSITIVE,
    M,
    LatticePoint,
    Simplex,
    contains_in_relative_interior,
)


def test_hexagon_has_sixteen_covers():
    covers = enumerate_pure_covers(HEXAGON_POSITIVE, M)
    assert len(covers) == 16
    assert sorted(c.id for c in covers) == list(range(1, 17))


def test_single_segment_instance():
    covers = enumerate_pure_covers([LatticePoint(0, 1), LatticePoint(4, 1)], M)
    assert len(covers) == 1
    assert covers[0].simplices[0] == (LatticePoint(0, 1), LatticePoint(4, 1))


def test_exactly_two_five_segment_covers():
    covers = enumerate_pure_covers(HEXAGON_POSITIVE, M)
    five_seg = [c for c in covers if all(len(s) == 2 for s in c.simplices)]
    assert len(five_seg) == 2
    assert sorted(c.id for c in five_seg) == [15, 16]


def test_census_counts():
    counts = census(enumerate_pure_covers(HEXAGON_POSITIVE, M))
    assert counts == {"five-segment": 2, "special-triangle": 2, "row-spanning": 12}


def test_toy_polytope_has_no_pure_cover():
    points = [LatticePoint(4, 2), LatticePoint(2, 0), LatticePoint(0, 1), LatticePoint(0, 0)]
    assert enumerate_pure_covers(points, M) == []


def test_enumerator_is_input_sensitive():
    points = [p for p in HEXAGON_POSITIVE if p != LatticePoint(1, 1)]
    covers = enumerate_pure_covers(points, M)
    assert len(covers) != 16


def test_fixture_cover_9_structure():
    blocks = {frozenset(s) for s in cover_fixture(9).simplices}
    assert blocks == {
        frozenset({LatticePoint(4, 2), LatticePoint(2, 0), LatticePoint(0, 1)}),
        frozenset({LatticePoint(0, 0), LatticePoint(4, 1), LatticePoint(2, 2)}),
        frozenset({LatticePoint(1, 0), LatticePoint(3, 2)}),
        frozenset({LatticePoint(1, 1), LatticePoint(3, 1)}),
    }


def test_fixture_five_segment_pairings():
    # cover 15 pairs a6=(0,1) with i2=(3,1); cover 16 pairs a6 with a3=(4,1)
    def partner(cid, point):
        for s in cover_fixture(cid).simplices:
            if point in s:
                return next(v for v in s if v != point)

    assert partner(15, LatticePoint(0, 1)) == LatticePoint(3, 1)
    assert partner(16, LatticePoint(0, 1)) == LatticePoint(4, 1)


def test_special_triangle_covers_are_3_and_4():
    special = (
        frozenset({LatticePoint(0, 0), LatticePoint(2, 0), LatticePoint(3, 2)}),
        frozenset({LatticePoint(2, 2), LatticePoint(4, 2), LatticePoint(1, 0)}),
    )
    for cid in (3, 4):
        blocks = {frozenset(s) for s in cover_fixture(cid).simplices}
        assert special[0] in blocks and special[1] in blocks
    for cid in set(range(1, 17)) - {3, 4}:
        blocks = {frozenset(s) for s in cover_fixture(cid).simplices}
        assert special[0] not in blocks


def test_fixture_covers_appear_in_enumeration():
    keys = {canonical_key(c) for c in enumerate_pure_covers(HEXAGON_POSITIVE, M)}
    for cid in range(1, 17):
        assert canonical_key(cover_fixture(cid)) in keys


def test_mirror_pair_10_12():
    def mirror(cover):
        return {
            frozenset(LatticePoint(4 - v.x, 2 - v.z) for v in s)
            for s in cover.simplices
        }

    blocks12 = {frozenset(s) for s in cover_fixture(12).simplices}
    assert mirror(cover_fixture(10)) == blocks12


def test_partition_and_interiority():
    for cover in enumerate_pure_covers(HEXAGON_POSITIVE, M):
        used = Counter(v for s in cover.simplices for v in s)
        assert used == Counter(HEXAGON_POSITIVE)
        for s in cover.simplices:
            assert contains_in_relative_interior(s, M)
        assert len(cover.simplices) in (4, 5)


def test_canonical_key_permutation_invariant():
    cover = cover_fixture(9)
    key = canonical_key(cover)
    rng = random.Random(0)
    for _ in range(10):
        blocks = list(cover.simplices)
        rng.shuffle(blocks)
        shuffled = tuple(
            Simplex(rng.sample(s, len(s))) for s in blocks
        )
        assert canonical_key(PureCover(9, shuffled)) == key


def test_keys_unique_and_round_trip():
    covers = enumerate_pure_covers(HEXAGON_POSITIVE, M)
    keys = [canonical_key(c) for c in covers]
    assert len(set(keys)) == 16
    for c, key in zip(covers, keys):
        assert canonical_key(parse_cover(key, c.id)) == key


def test_fixture_file_matches_enumeration():
    found = {c.id: canonical_key(c) for c in enumerate_pure_covers(HEXAGON_POSITIVE, M)}
    assert found == fixture_keys()


def test_cover_fixture_rejects_bad_id():
    for bad in (0, 17, 9.0, "9"):
        with pytest.raises(ValueError):
            cover_fixture(bad)
    assert cover_fixture(np.int64(9)) is cover_fixture(9)


def test_all_covers_ordered():
    covers = all_covers()
    assert [c.id for c in covers] == list(range(1, 17))


def test_all_covers_parsed_once_as_fresh_lists():
    first = all_covers()
    first.pop()
    second = all_covers()
    assert len(second) == 16 and second is not first
    assert all(a is b for a, b in zip(second, all_covers()))


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_pure_covers([LatticePoint(0, 1), LatticePoint(0, 1)], M)
    with pytest.raises(ValueError):
        enumerate_pure_covers([LatticePoint(0, 1), M], M)
