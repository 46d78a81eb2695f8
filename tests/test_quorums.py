"""Tests for the canonical quorum arithmetic (``repro.quorums``)."""

import pytest

from repro import quorums


@pytest.mark.parametrize("f", [0, 1, 2, 5])
def test_group_size_and_max_faulty_are_inverse(f):
    assert quorums.group_size(f) == 3 * f + 1
    assert quorums.max_faulty(quorums.group_size(f)) == f


@pytest.mark.parametrize("f", [1, 2, 3])
def test_intra_zone_and_weak_quorums(f):
    assert quorums.intra_zone_quorum(f) == 2 * f + 1
    assert quorums.weak_quorum(f) == f + 1
    assert quorums.proxy_count(f) == f + 1
    # 2f+1 of 3f+1 nodes: any two quorums intersect in >= f+1 nodes,
    # hence in at least one correct node.
    n = quorums.group_size(f)
    overlap = 2 * quorums.intra_zone_quorum(f) - n
    assert overlap >= quorums.weak_quorum(f)


@pytest.mark.parametrize("zones,majority", [(1, 1), (2, 2), (3, 2), (5, 3)])
def test_zone_majority(zones, majority):
    assert quorums.zone_majority(zones) == majority


@pytest.mark.parametrize("zones,big_f", [(1, 0), (3, 1), (5, 2)])
def test_two_level_big_f(zones, big_f):
    assert quorums.two_level_big_f(zones) == big_f

