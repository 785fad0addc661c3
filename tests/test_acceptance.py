"""End-to-end acceptance checks: each test pins one headline result of the
package against exact reference values or the independent oracle."""

import time

import pytest

from conftest import (
    BRIDGED_GROUPS,
    BRIDGED_MULTIPLIERS,
    bridged_combination,
    divide_row,
    overlapping_grids,
    position_key,
    row,
    s_vector,
    signs,
)
from hibiring import enumerate_distributive, grid
from hibiring.betti import (
    box_grid,
    l_grid,
    planar_linearity,
    strip_1d,
    strip_grid,
)
from hibiring.ideal import buchberger_check, hibi_ideal
from hibiring.oracle import (
    RowSpan,
    first_betti_oracle,
    graded_betti_oracle,
    is_linear_first_syzygy,
    kernel_dim,
)
from hibiring.syzygy import apply_phi, iter_typed_generators, typed_generator


def test_1_worked_example_reproduction():
    """grid(2,3): formula breakdown 36+8+8 = 52, oracle 52 in degree 3 and
    nothing in degree 4, all inside 60 seconds."""
    start = time.monotonic()
    b = strip_grid(2, 3), l_grid(2, 3), box_grid(2, 3)
    assert b == (36, 8, 8) and sum(b) == 52
    rows = graded_betti_oracle(hibi_ideal(grid(2, 3)))
    assert [(r.degree, r.minimal_generators) for r in rows] == [(3, 52), (4, 0)]
    assert time.monotonic() - start < 60


def test_2_strip_lemma_instance():
    """grid(1,2): exactly the two strip generators, matching the reference
    elements up to sign, and oracle first Betti number 2, all in degree 3."""
    I = hibi_ideal(grid(1, 2))
    strips = [t for t in iter_typed_generators(I) if t.kind in ("S1", "S2")]
    # both strip-configured diamond pairs normalize to the same witness, on
    # which the two elements are built once
    assert len(strips) == 2
    assert {t.witness for t in strips} == {(1, 2, 4)}
    assert {t.kind for t in strips} == {"S1", "S2"}
    s1 = next(t.row for t in strips if t.kind == "S1")
    s2 = next(t.row for t in strips if t.kind == "S2")
    # x5*g(2,3) - x3*g(2,5) + x1*g(4,5) and -x6*g(2,3) + x4*g(2,5) - x2*g(4,5)
    assert s1 in signs(row(I, (2, 3, 5, 1), (2, 5, 3, -1), (4, 5, 1, 1)))
    assert s2 in signs(row(I, (2, 3, 6, -1), (2, 5, 4, 1), (4, 5, 2, -1)))
    rows = graded_betti_oracle(hibi_ideal(grid(1, 2)))
    assert [(r.degree, r.minimal_generators) for r in rows] == [(3, 2), (4, 0)]


def test_3_groebner_certification():
    """Every S-polynomial reduces to zero on the full census of distributive
    lattices with at most 9 elements and on grids up to 3x3."""
    for L in enumerate_distributive(9):
        assert buchberger_check(hibi_ideal(L)).passed
    for (m, n) in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
        assert buchberger_check(hibi_ideal(grid(m, n))).passed


def test_4_typed_completeness():
    """Typed generators are syzygies, and their graded span equals the oracle
    kernel in degrees 3 and 4, on grids up to 3x3 and census lattices with at
    most 9 elements."""
    lattices = [grid(m, n) for (m, n) in
                [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]]
    lattices += list(enumerate_distributive(9))
    for L in lattices:
        I = hibi_ideal(L)
        by_degree = {3: [], 4: []}
        for t in iter_typed_generators(I):
            assert apply_phi(t.row, I) == {}
            d = len(next(iter(t.row))[0]) + 2
            by_degree[d].append(t.row)
        assert RowSpan(by_degree[3]).rank == kernel_dim(I, 3)
        # in degree 4 the typed elements together with the variable shifts of
        # the degree-3 ones span the full kernel
        shifted = []
        for r in by_degree[3]:
            for v in range(L.n):
                shifted.append({(tuple(sorted(mu + (v,))), i): c
                                for (mu, i), c in r.items()})
        assert RowSpan(shifted + by_degree[4]).rank == kernel_dim(I, 4)


def test_5_formula_oracle_agreement():
    """Grid formula totals equal the oracle first Betti number for all grids
    with 1 <= m <= n <= 3 plus (1,4) and (1,5)."""
    dims = [(m, n) for m in range(1, 4) for n in range(m, 4)]
    dims += [(1, 4), (1, 5)]
    for (m, n) in dims:
        total = strip_grid(m, n) + l_grid(m, n) + box_grid(m, n)
        assert total == first_betti_oracle(hibi_ideal(grid(m, n)))


def test_6_linearity_theorem(stacked_diamonds, bridged_diamonds):
    """Grids are linear; the stacked-diamond lattice needs a degree-4
    generator; the overlapping-grids family is linear exactly when one height
    gap is 1; the bridged diamonds have k = 3 and are linear all the same."""
    for (m, n) in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3)]:
        assert planar_linearity(grid(m, n)).verdict == "linear"
        assert is_linear_first_syzygy(hibi_ideal(grid(m, n)))

    assert planar_linearity(stacked_diamonds).verdict == "nonlinear"
    rows = graded_betti_oracle(hibi_ideal(stacked_diamonds))
    assert rows[-1].degree == 4 and rows[-1].minimal_generators >= 1

    for dims, expect in [((2, 1, 1, 2), True), ((3, 1, 1, 3), True),
                         ((3, 1, 2, 3), False), ((3, 1, 2, 4), False)]:
        L = overlapping_grids(*dims)
        assert (planar_linearity(L).verdict == "linear") is expect
        assert is_linear_first_syzygy(hibi_ideal(L)) is expect

    v = planar_linearity(bridged_diamonds)
    assert v.k == 3 and v.verdict == "linear"
    assert is_linear_first_syzygy(hibi_ideal(bridged_diamonds))


def test_7_strip_count_enumeration():
    """strip_1d(n) equals the direct count of diamond pairs sharing a side in
    the same role in 1xn grids for n <= 8, and satisfies the recurrence
    T(n) = 2T(n-1) - T(n-2) + 2(n-1) for n <= 20."""
    for n in range(1, 9):
        L = grid(1, n)
        prs = L.incomparable_pairs()

        def lower(p):
            m = L.meet[p[0]][p[1]]
            return {(m, p[0]), (m, p[1])}

        def upper(p):
            j = L.join[p[0]][p[1]]
            return {(p[0], j), (p[1], j)}

        count = sum(1 for i in range(len(prs)) for k in range(i + 1, len(prs))
                    if (lower(prs[i]) & lower(prs[k]))
                    or (upper(prs[i]) & upper(prs[k])))
        assert count == strip_1d(n)
    assert strip_1d(1) == 0 and strip_1d(2) == 2
    for n in range(3, 21):
        assert strip_1d(n) == 2 * strip_1d(n - 1) - strip_1d(n - 2) + 2 * (n - 1)


def test_8_strip_pair_is_not_groebner():
    """The two strip generators of grid(1,2) are not a Groebner basis of the
    module they generate: their S-vector fails to reduce to zero against
    them."""
    I = hibi_ideal(grid(1, 2))
    s1 = typed_generator(I, "S1", (1, 2, 4)).row
    s2 = typed_generator(I, "S2", (1, 2, 4)).row
    key = position_key(I)
    s = s_vector(s1, s2, key)
    _, remainder = divide_row(s, [s1, s2], key)
    assert remainder


def test_9_bridged_diamond_reduction(bridged_diamonds):
    """On the 13-element bridged lattice, the diamond syzygy of the pairs
    (2,3) and (11,12) equals an explicit combination of five degree-3
    syzygies, each individually satisfying phi = 0."""
    I = hibi_ideal(bridged_diamonds)
    groups = [row(I, *terms) for terms in BRIDGED_GROUPS]
    assert len(groups) == 5  # five bracketed terms, not four
    for g in groups:
        assert apply_phi(g, I) == {}
    d = typed_generator(I, "D", (1, 2, 10, 11))
    assert bridged_combination(groups, BRIDGED_MULTIPLIERS) == d.row
