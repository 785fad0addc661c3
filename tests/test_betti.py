from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bridge_reducible, chain, overlapping_grids
from hibiring import betti, enumerate_distributive, grid, oracle
from hibiring.betti import (
    box_grid,
    k_of,
    l_2n,
    l_grid,
    n_diamond_planar,
    planar_betti,
    planar_formula,
    planar_linearity,
    strip_1d,
    strip_grid,
    typed_minimal_histogram,
)
from hibiring.errors import NotPlanar, OracleMismatch
from hibiring.ideal import hibi_ideal
from hibiring.oracle import (
    RowSpan,
    fiber_codes,
    first_betti_oracle,
    graded_betti_oracle,
    is_linear_first_syzygy,
    kernel_dim,
    reduced_h1,
)
from hibiring.syzygy import FINE_KINDS, diamond_reducible, iter_typed_generators

PLANAR_CENSUS = [L for L in enumerate_distributive(8) if L.is_planar()]


# -- grid formulas -------------------------------------------------------------


def test_strip_1d_values():
    assert [strip_1d(n) for n in range(1, 6)] == [0, 2, 8, 20, 40]


def test_strip_1d_recurrence():
    for n in range(3, 21):
        assert strip_1d(n) == 2 * strip_1d(n - 1) - strip_1d(n - 2) + 2 * (n - 1)


def test_strip_1d_matches_side_sharing_enumeration():
    # a diamond's lower sides run from its meet up to the pair, its upper
    # sides from the pair up to its join; two diamonds sharing a side in the
    # same role (lower with lower, upper with upper) are exactly the strip
    # configurations
    def lower(L, a, b):
        m = L.meet[a][b]
        return {(m, a), (m, b)}

    def upper(L, a, b):
        j = L.join[a][b]
        return {(a, j), (b, j)}

    for n in range(1, 9):
        L = grid(1, n)
        prs = L.incomparable_pairs()
        count = sum(
            1 for i in range(len(prs)) for k in range(i + 1, len(prs))
            if (lower(L, *prs[i]) & lower(L, *prs[k]))
            or (upper(L, *prs[i]) & upper(L, *prs[k])))
        assert count == strip_1d(n)


def test_l_2n_values():
    assert [l_2n(n) for n in range(1, 5)] == [0, 2, 8, 20]


def _grid_breakdown(m, n):
    return strip_grid(m, n), l_grid(m, n), box_grid(m, n)


def test_worked_example_breakdown():
    b = _grid_breakdown(2, 3)
    assert b == (36, 8, 8)
    assert sum(b) == 52
    assert strip_grid(2, 3) == 36
    assert l_grid(2, 3) == box_grid(2, 3) == 8


def test_grid_formula_matches_oracle():
    for (m, n) in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3),
                   (1, 4), (1, 5)]:
        total = sum(_grid_breakdown(m, n))
        assert total == first_betti_oracle(hibi_ideal(grid(m, n)))


def test_grid_betti_symmetric():
    for m in range(1, 5):
        for n in range(1, 5):
            assert _grid_breakdown(m, n) == _grid_breakdown(n, m)


# -- planar formulas -----------------------------------------------------------


def test_planar_census_matches_oracle():
    for L in PLANAR_CENSUS:
        I = hibi_ideal(L)
        assert planar_betti(I).total == first_betti_oracle(I)


def test_planar_pieces_on_grid():
    f = planar_formula(grid(2, 3))
    assert (f.nS, f.nL, f.nB, f.nD) == (36, 8, 8, 0)
    assert f.oracle is None


def test_stacked_diamonds_betti(stacked_diamonds):
    b = planar_betti(hibi_ideal(stacked_diamonds))
    assert (b.nS, b.nL, b.nB, b.nD) == (0, 0, 0, 1)


def test_planar_betti_runs_the_oracle_once(stacked_diamonds, count_calls):
    calls = count_calls(oracle, "graded_betti_oracle")
    b = planar_betti(hibi_ideal(stacked_diamonds))
    assert len(calls) == 1
    assert [(r.degree, r.minimal_generators) for r in b.oracle] == [
        (3, 0), (4, 1)]
    assert b.oracle.total == b.total == 1
    assert not b.oracle.linear


def test_diamond_count_against_oracle_to_twelve(census_to_twelve,
                                                l_overcount):
    """On every planar lattice of 2-12 elements, and on the 14-element
    l_overcount, the diamond count equals the oracle's degree-4 count, so it
    is 0 exactly when degree 4 is, which is planar_linearity's rule.  The
    bridge criterion fell short on ten of those lattices and on
    l_overcount."""
    checked = 0
    for L in census_to_twelve + [l_overcount]:
        if L.n < 2 or not L.is_planar():
            continue
        degree4 = graded_betti_oracle(hibi_ideal(L))[-1].minimal_generators
        assert n_diamond_planar(L) == degree4
        checked += 1
    assert checked == 300
    assert n_diamond_planar(l_overcount) == 9


def _spine_reducible(L, lo, hi):
    """The diamond criterion by a scan of every incomparable pair: the
    comparable pair (lo, hi) reduces iff some bridge, an incomparable pair
    (a, b) with its meet in lo and its join in hi, has a or b on the spine,
    the elements comparable to both join(lo) and meet(hi)."""
    j, m = L.join[lo[0]][lo[1]], L.meet[hi[0]][hi[1]]

    def on_spine(x):
        return not L.incomparable(x, j) and not L.incomparable(x, m)
    return any(L.meet[a][b] in lo and L.join[a][b] in hi
               and (on_spine(a) or on_spine(b))
               for a, b in L.incomparable_pairs())


def test_diamond_criteria_pair_by_pair(census_to_twelve):
    """Each comparable pair of a planar lattice of 2-12 elements against
    H~_1 of its own degree-4 fiber, read off S_4 directly.  H~_1 is 0 or 1,
    and diamond_reducible and the spine scan are both exactly H~_1 = 0.  The
    bridge criterion it replaced calls 13 pairs with H~_1 = 1 reducible, in
    ten lattices."""
    pairs = positive = 0
    missed = {}  # lattice size -> pairs the bridge criterion gets wrong
    lattices = set()
    for L in census_to_twelve:
        if L.n < 2 or not L.is_planar():
            continue
        codes = fiber_codes(L)
        fibers = {}
        for mono in combinations_with_replacement(range(L.n), 4):
            fibers.setdefault(sum(map(codes.__getitem__, mono)), []).append(
                mono)
        for lo, hi in L.comparable_pairs():
            fiber = fibers[sum(map(codes.__getitem__, lo + hi))]
            h1 = reduced_h1([set(mono) for mono in fiber])
            assert h1 in (0, 1)
            assert (diamond_reducible(L, lo, hi)
                    == _spine_reducible(L, lo, hi) == (h1 == 0))
            if bridge_reducible(L, lo, hi) != (h1 == 0):
                assert h1 == 1
                missed[L.n] = missed.get(L.n, 0) + 1
                lattices.add(L)
            pairs += 1
            positive += h1
    assert (pairs, positive) == (587, 432)
    assert missed == {10: 1, 11: 2, 12: 10}
    assert len(lattices) == 10


def test_overlapping_grids_betti():
    for dims in [(2, 1, 1, 2), (3, 1, 1, 3), (3, 1, 2, 3)]:
        L = overlapping_grids(*dims)
        I = hibi_ideal(L)
        assert planar_betti(I).total == first_betti_oracle(I)


def test_not_planar_rejected(boolean_cube):
    with pytest.raises(NotPlanar):
        planar_betti(hibi_ideal(boolean_cube))
    with pytest.raises(NotPlanar):
        planar_formula(boolean_cube)


def test_cross_grid_l_type_reported_not_patched(bridged_diamonds):
    """On the three-grid chain there is one L-type spanning all three grids;
    the closed-form count misses it, and the disagreement with the oracle is
    surfaced rather than silently reconciled."""
    with pytest.raises(OracleMismatch) as exc:
        planar_betti(hibi_ideal(bridged_diamonds))
    assert exc.value.breakdown["oracle"] == 35
    assert exc.value.breakdown["formula"].total == 34
    # the typed classification itself is complete: its greedy minimal set
    # reaches the oracle count, with the extra element of L type
    I = hibi_ideal(bridged_diamonds)
    hist = typed_minimal_histogram(I, iter_typed_generators(I))
    assert hist == {"strip": 24, "L": 9, "box": 2, "G": 0, "diamond": 0}


def test_diamond_count_counterexample_reported(diamond_counterexample,
                                               monkeypatch):
    """On the 10-element lattice the diamond count is the oracle's 3 and the
    breakdown reaches the oracle's 11.  With the bridge criterion put back,
    which drops diamond pairs that still add rank, the count is 2 and
    planar_betti reports the disagreement.  The typed generating set is
    complete either way: its greedy minimal set reaches the oracle's 11."""
    I = hibi_ideal(diamond_counterexample)
    b = planar_betti(I)
    assert (b.nD, b.total) == (3, 11)
    monkeypatch.setattr(betti, "diamond_reducible", bridge_reducible)
    with pytest.raises(OracleMismatch) as exc:
        planar_betti(I)
    assert exc.value.breakdown == {"diamond": 2, "oracle": 3}
    hist = typed_minimal_histogram(I, iter_typed_generators(I))
    assert hist == {"strip": 6, "L": 2, "box": 0, "G": 0, "diamond": 3}
    assert sum(hist.values()) == first_betti_oracle(I) == 11


def test_l_overcount_reported(l_overcount):
    """On the 14-element lattice the closed-form L count is 16 where the
    typed minimal histogram keeps 14, and the total disagrees with the
    oracle; planar_betti reports it rather than reconciling it."""
    I = hibi_ideal(l_overcount)
    with pytest.raises(OracleMismatch,
                       match="^formula total 61 disagrees with oracle 59$"):
        planar_betti(I)
    assert planar_formula(l_overcount)[:4] == (32, 16, 4, 9)
    hist = typed_minimal_histogram(I, iter_typed_generators(I))
    assert hist == {"strip": 32, "L": 14, "box": 4, "G": 0, "diamond": 9}
    assert sum(hist.values()) == first_betti_oracle(I) == 59


# -- minimal histograms --------------------------------------------------------


def test_minimal_histogram_worked_example():
    I = hibi_ideal(grid(2, 3))
    assert typed_minimal_histogram(I, iter_typed_generators(I)) == {
        "strip": 36, "L": 8, "box": 8, "G": 0, "diamond": 0}


def test_minimal_histogram_short_of_the_kernel_raises():
    """Without the L generators the kept degree-3 rows span 44 of the 52
    dimensions of grid 2x3's degree-3 kernel; the histogram says so rather
    than returning a short count."""
    I = hibi_ideal(grid(2, 3))
    gens = [t for t in iter_typed_generators(I) if t.kind != "L"]
    with pytest.raises(OracleMismatch) as exc:
        typed_minimal_histogram(I, gens)
    assert exc.value.breakdown == {"typed": 44, "oracle": 52}
    # the first fiber short of its kernel, by its standard monomial x1 x5 x10
    assert str(exc.value).endswith(
        "first short fiber: that of (1, 5, 10), typed rank 2 of kernel 4")


def test_minimal_histogram_eliminates_no_degree_4_row(monkeypatch):
    """The degree-4 count is read from the oracle: of grid 3x3's 454 D rows
    none reaches a RowSpan, and neither does any variable shift."""
    degrees = []

    class RecordingSpan(RowSpan):
        def add(self, row):
            degrees.append(len(next(iter(row))[0]) + 2)
            return super().add(row)

    monkeypatch.setattr(betti, "RowSpan", RecordingSpan)
    I = hibi_ideal(grid(3, 3))
    gens = list(iter_typed_generators(I))
    assert sum(t.kind == "D" for t in gens) == 454
    hist = typed_minimal_histogram(I, gens)
    assert hist["diamond"] == 0
    assert degrees == [3] * 160


_COARSE = {"S1": "strip", "S2": "strip", "L": "L", "B1": "box", "B2": "box",
           "D": "diamond"}


def _uncapped_histogram(I, gens):
    """The greedy histogram with one span per degree and no fibers: every
    variable shift of the kept degree-3 rows is eliminated before the
    degree-4 rows, and no span is stopped early."""
    gens = sorted(gens, key=lambda t: (FINE_KINDS.index(t.kind), t.witness))
    hist = {"strip": 0, "L": 0, "box": 0, "G": 0, "diamond": 0}
    deg3, kept, deg4 = RowSpan(), [], []
    for t in gens:
        if len(next(iter(t.row))[0]) == 2:
            deg4.append(t)
        elif deg3.add(t.row):
            kept.append(t.row)
            hist[_COARSE.get(t.kind, "G")] += 1
    assert deg3.rank == kernel_dim(I, 3)
    span = RowSpan({(tuple(sorted(mu + (v,))), i): c
                    for (mu, i), c in row.items()}
                   for row in kept for v in range(I.lattice.n))
    for t in deg4:
        if span.add(t.row):
            hist[_COARSE[t.kind]] += 1
    return hist


def test_minimal_histogram_matches_uncapped_reference(
        diamond_counterexample, stacked_diamonds, census_to_twelve):
    """The histogram equals a plain greedy elimination over all typed rows on
    every lattice of 2-12 elements and the fixtures.  The reference ranks the
    D rows beyond the variable shifts of the kept degree-3 rows, where the
    histogram reads the oracle's degree-4 count, so this checks that the
    typed diamonds reach that count (typed completeness in degree 4), and
    that stopping each degree-3 span at its fiber's kernel changes no count.
    """
    lattices = [diamond_counterexample, stacked_diamonds,
                overlapping_grids(3, 1, 2, 4)]
    lattices += [L for L in census_to_twelve if L.n > 1]
    nonlinear = 0
    for L in lattices:
        I = hibi_ideal(L)
        gens = list(iter_typed_generators(I))
        hist = typed_minimal_histogram(I, gens)
        assert hist == _uncapped_histogram(I, gens)
        nonlinear += hist["diamond"] > 0
    assert nonlinear == 160  # lattices with a degree-4 count to check


def test_minimal_histogram_totals_match_oracle():
    for L in PLANAR_CENSUS:
        I = hibi_ideal(L)
        hist = typed_minimal_histogram(I, iter_typed_generators(I))
        assert sum(hist.values()) == first_betti_oracle(I)


# -- linearity -----------------------------------------------------------------


def test_k_values():
    assert k_of(chain(4)) == 0
    assert k_of(grid(2, 3)) == 1
    assert k_of(grid(3, 3)) == 1


def test_linearity_k_zero_and_one():
    assert planar_linearity(chain(5)).verdict == "linear"
    for (m, n) in [(1, 1), (1, 4), (2, 2), (3, 3)]:
        v = planar_linearity(grid(m, n))
        assert v.k == 1 and v.verdict == "linear"


def test_linearity_stacked(stacked_diamonds):
    v = planar_linearity(stacked_diamonds)
    assert v.k == 2 and v.verdict == "nonlinear"
    assert v.reason == "1 comparable diamond pair with no bridge on the spine"


def test_linearity_overlapping_grids():
    linear = overlapping_grids(2, 1, 1, 2)
    v = planar_linearity(linear)
    assert v.k == 2 and v.verdict == "linear"
    assert is_linear_first_syzygy(hibi_ideal(linear))

    also_linear = overlapping_grids(3, 1, 1, 3)
    assert planar_linearity(also_linear).verdict == "linear"
    assert is_linear_first_syzygy(hibi_ideal(also_linear))

    nonlinear = overlapping_grids(3, 1, 2, 3)
    v = planar_linearity(nonlinear)
    assert v.k == 2 and v.verdict == "nonlinear"
    assert not is_linear_first_syzygy(hibi_ideal(nonlinear))


def test_linearity_requires_planar(boolean_cube):
    with pytest.raises(NotPlanar):
        planar_linearity(boolean_cube)


# -- property tests ------------------------------------------------------------


@given(st.integers(1, 30), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_strip_grid_symmetric_and_nonnegative(m, n):
    assert strip_grid(m, n) == strip_grid(n, m) >= 0
    assert l_grid(m, n) == l_grid(n, m) >= 0
    assert box_grid(m, n) == l_grid(m, n)


@given(st.integers(2, 40))
@settings(max_examples=40, deadline=None)
def test_l_2n_is_even(n):
    # L(m,n) = L(2,m)L(2,n)/2 needs every L(2,k) even
    assert l_2n(n) % 2 == 0
