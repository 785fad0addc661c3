import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hibiring import (
    Lattice,
    enumerate_distributive,
    from_covers,
    from_json_dict,
    from_points,
    grid,
)
from hibiring import lattice as lattice_module
from hibiring.errors import (
    CapExceeded,
    EmptyInput,
    NotALattice,
    NotComparable,
    NotDistributive,
)

CENSUS = list(enumerate_distributive(8))


def lattices(max_elements=8):
    return st.sampled_from(CENSUS)


# -- construction and validation ------------------------------------------

def test_empty_input():
    with pytest.raises(EmptyInput):
        from_covers([], [])


def test_diamond():
    d = from_covers(["o", "a", "b", "i"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert d.join[1][2] == 3 and d.meet[1][2] == 0
    assert d.incomparable_pairs() == [(1, 2)]
    assert d.height == (0, 1, 1, 2)


def test_n5_rejected():
    # the first failing triple (x, y, z), x < y, in index order
    with pytest.raises(NotDistributive) as e:
        from_covers(list("abcde"), [(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
    assert e.value.witness == ("b", "c", "d")


def test_m3_rejected():
    with pytest.raises(NotDistributive) as e:
        from_covers(list("abcde"), [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
    assert e.value.witness == ("b", "c", "d")


def test_no_top_rejected():
    with pytest.raises(NotALattice, match="^elements b,c have no upper bound$"):
        from_covers(["a", "b", "c"], [(0, 1), (0, 2)])


# two minimal elements, a and b, both below the two maximal ones, c and d
BOWTIE = (list("abcd"), [(0, 2), (0, 3), (1, 2), (1, 3)])


@pytest.mark.parametrize("names, covers, message", [
    (["a", "b", "c"], [(1, 0), (2, 0)], "elements b,c have no lower bound"),
    (*BOWTIE, "elements a,b have no least upper bound"),
    # top t above u and v, both above p and q, both above bottom o: u and v
    # have the join t, but their lower bounds p, q and o have no greatest
    (list("tuvpqo"),
     [(1, 0), (2, 0), (3, 1), (3, 2), (4, 1), (4, 2), (5, 3), (5, 4)],
     "elements u,v have no greatest lower bound"),
], ids=["no-lower-bound", "bowtie", "no-greatest-lower-bound"])
def test_missing_bound_rejected(names, covers, message):
    with pytest.raises(NotALattice, match=f"^{message}$"):
        from_covers(names, covers)


@pytest.mark.parametrize("up, message", [
    ([0b011, 0b010, 0b000], "order is not reflexive at c"),
    ([0b011, 0b110, 0b100], "order is not transitive: a <= b <= c but not a <= c"),
    ([0b011, 0b011, 0b111], "order is not antisymmetric on 0,1"),
], ids=["irreflexive", "intransitive", "antisymmetry"])
def test_order_axioms_checked(up, message):
    """Lattice(labels, up) takes up-sets as bit masks and checks that they
    form a partial order before it looks for joins and meets."""
    with pytest.raises(NotALattice, match=f"^{message}$"):
        Lattice(list("abc"), up)


def test_cycle_rejected():
    with pytest.raises(NotALattice, match="^cover relation has a cycle$"):
        from_covers(["a", "b"], [(0, 1), (1, 0)])


def test_long_cycle_rejected():
    """A cycle longer than the interpreter's recursion limit is reported as
    a cycle: the relation is closed without recursion."""
    n = 1100
    with pytest.raises(NotALattice, match="^cover relation has a cycle$"):
        from_covers([str(i) for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def test_self_cover_rejected():
    with pytest.raises(NotALattice):
        from_covers(["a"], [(0, 0)])


def test_graded_everywhere():
    # height counts the join-irreducibles below an element (Birkhoff), which
    # in a distributive lattice rises by exactly one along each cover
    for L in CENSUS:
        for (a, b) in L.covers:
            assert L.height[b] == L.height[a] + 1


# -- grid examples ---------------------------------------------------------

def test_grid_1_2_layout():
    g = grid(1, 2)
    assert g.labels == ("1", "2", "3", "4", "5", "6")
    assert g.covers == ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5))
    assert g.incomparable_pairs() == [(1, 2), (1, 4), (3, 4)]
    assert g.diamonds() == {(0, 3): ((1, 2),), (0, 5): ((1, 4),),
                            (2, 5): ((3, 4),)}
    assert g.comparable_pairs() == ()


def test_comparable_pairs_match_scan(census_to_twelve):
    """comparable_pairs equals the scan of every pair of incomparable pairs
    for join(lo) <= meet(hi), on census <= 12 and grid 6x6 (4,900 pairs)."""
    for L in census_to_twelve + [grid(6, 6)]:
        pairs = L.incomparable_pairs()
        scan = [(lo, hi) for lo in pairs for hi in pairs
                if L.le(L.join[lo[0]][lo[1]], L.meet[hi[0]][hi[1]])]
        assert L.comparable_pairs() == tuple(sorted(scan))
    assert len(grid(6, 6).comparable_pairs()) == 4900


def test_grid_1_1_is_diamond():
    g = grid(1, 1)
    assert g.n == 4
    assert g.incomparable_pairs() == [(1, 2)]


def test_grid_2_3():
    g = grid(2, 3)
    assert g.n == 12
    assert len(g.incomparable_pairs()) == 18
    assert g.covers == ((0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6),
                        (4, 6), (4, 7), (5, 7), (5, 8), (6, 9), (7, 9), (7, 10),
                        (8, 10), (9, 11), (10, 11))
    assert sorted(g.jm_set()) == [3, 8]
    assert [g.height[x] for x in (3, 8)] == [2, 3]


def test_grid_bad_dims():
    with pytest.raises(EmptyInput):
        grid(0, 2)


def test_from_points_l_shape():
    # union of [0,2]x[0,1] and [1,2]x[0,2]: closed under min/max, planar
    pts = [(i, j) for i in range(3) for j in range(2)]
    pts += [(i, 2) for i in (1, 2)]
    L = from_points(pts)
    assert L.n == 8
    assert L.is_planar()


# -- derived queries --------------------------------------------------------

def test_irreducibles_grid():
    g = grid(2, 3)
    # join-irreducibles of a grid are the two chain edges' unions
    assert len(g.join_irreducibles()) == 5
    assert len(g.meet_irreducibles()) == 5
    assert g.jm_set() == {3, 8}


def test_jm_set_built_once(count_calls):
    g = grid(2, 3)
    calls = count_calls(Lattice, "join_irreducibles")
    jm = g.jm_set()
    assert isinstance(jm, frozenset) and jm == {3, 8}
    assert g.jm_set() is jm
    assert len(calls) == 1


def test_interval():
    g = grid(2, 3)
    sub = g.interval(0, 6)
    assert sub.n == 6
    assert sub.parent_map == (0, 1, 2, 3, 4, 6)
    assert sub.labels == ("1", "2", "3", "4", "5", "7")
    with pytest.raises(NotComparable):
        g.interval(3, 8)


def test_linear_extension_refines_order():
    g = grid(2, 3)
    pos = {a: i for i, a in enumerate(g.linear_extension())}
    for a in range(g.n):
        for b in range(g.n):
            if a != b and g.le(a, b):
                assert pos[a] < pos[b]


def test_is_planar():
    assert grid(3, 3).is_planar()
    # Boolean lattice on 3 atoms: JI poset is a 3-antichain
    cube = from_covers(
        list("abcdefgh"),
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6),
         (4, 7), (5, 7), (6, 7)])
    assert not cube.is_planar()


def test_is_planar_decided_once(count_calls):
    """Planarity is decided on the first is_planar call of a lattice and read
    back after: the census asks twice per planar lattice (cmd_census, then
    n_diamond_planar), and each join-irreducible scan is one decision."""
    cube = from_covers(
        list("abcdefgh"),
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 6), (3, 5), (3, 6),
         (4, 7), (5, 7), (6, 7)])
    lattices = [grid(3, 3), cube]
    scans = count_calls(Lattice, "join_irreducibles")
    answers = [[L.is_planar() for _ in range(3)] for L in lattices]
    assert answers == [[True] * 3, [False] * 3]
    assert len(scans) == 2


def test_json_round_trip():
    g = grid(2, 2)
    d = json.loads(json.dumps(g.to_json_dict()))
    h = from_json_dict(d)
    assert h.labels == g.labels
    assert h.covers == g.covers
    assert (h.join, h.meet) == (g.join, g.meet)


# -- census ------------------------------------------------------------------

def test_census_counts():
    by_size = {}
    for L in CENSUS:
        by_size[L.n] = by_size.get(L.n, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15}
    assert len(CENSUS) == 36


def test_census_small():
    assert [L.n for L in enumerate_distributive(4)] == [1, 2, 3, 4, 4]


def test_census_sizes_to_twelve(census_to_twelve):
    # OEIS A006982: distributive lattices with n unlabeled elements
    by_size = {}
    for L in census_to_twelve:
        by_size[L.n] = by_size.get(L.n, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15,
                       9: 26, 10: 47, 11: 82, 12: 151}


def test_census_sizes_to_fourteen(monkeypatch):
    """OEIS A006982 at 13 and 14 elements, past the public cap, which this
    test alone raises."""
    monkeypatch.setattr(lattice_module, "ENUMERATION_CAP", 14)
    by_size = Counter(L.n for L in enumerate_distributive(14))
    assert (by_size[13], by_size[14]) == (269, 494)


def test_census_tables_pinned(census_to_twelve):
    """The labels, join and meet tables, covers and heights of census <= 12,
    grid 4x5 and grid 8x8, as one digest."""
    h = hashlib.sha256()
    for L in census_to_twelve + [grid(4, 5), grid(8, 8)]:
        h.update(repr((L.labels, L.join, L.meet, L.covers, L.height)).encode())
    assert h.hexdigest() == (
        "77e19f8a25a9014ba0001f3384a44778c2423517cecb8c5d277ac039dae238f0")


def test_census_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_distributive(13))


# -- property tests -----------------------------------------------------------

@given(lattices(), st.data())
@settings(max_examples=60, deadline=None)
def test_lattice_identities(L, data):
    ix = st.integers(0, L.n - 1)
    x, y, z = data.draw(ix), data.draw(ix), data.draw(ix)
    j, m = L.join, L.meet
    assert j[x][y] == j[y][x] and m[x][y] == m[y][x]
    assert j[x][j[y][z]] == j[j[x][y]][z]
    assert m[x][m[y][z]] == m[m[x][y]][z]
    assert j[x][m[x][y]] == x and m[x][j[x][y]] == x
    assert m[j[x][y]][z] == j[m[x][z]][m[y][z]]
    assert j[m[x][y]][z] == m[j[x][z]][j[y][z]]


@given(lattices(), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_modularity(L, data):
    ix = st.integers(0, L.n - 1)
    x, y = data.draw(ix), data.draw(ix)
    h = L.height
    assert h[x] + h[y] == h[L.join[x][y]] + h[L.meet[x][y]]


@given(lattices(), st.data())
@settings(max_examples=60, deadline=None)
def test_order_from_join(L, data):
    ix = st.integers(0, L.n - 1)
    x, y = data.draw(ix), data.draw(ix)
    assert L.le(x, y) == (L.join[x][y] == y) == (L.meet[x][y] == x)


@given(lattices())
@settings(max_examples=36, deadline=None)
def test_covers_consistent(L):
    for (a, b) in L.covers:
        assert L.le(a, b) and a != b
        assert not any(L.le(a, c) and L.le(c, b) and c not in (a, b)
                       for c in range(L.n))
    order = L.linear_extension()
    bottom, top = order[0], order[-1]
    assert L.height[bottom] == 0
    assert all(L.le(bottom, x) and L.le(x, top) for x in range(L.n))
