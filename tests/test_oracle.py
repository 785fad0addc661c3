from collections import defaultdict
from fractions import Fraction
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain, overlapping_grids
from hibiring import enumerate_distributive, grid
from hibiring.ideal import hibi_ideal
from hibiring.oracle import (
    _edges,
    _graded_rows,
    first_betti_oracle,
    graded_betti_oracle,
    is_linear_first_syzygy,
    kernel_basis,
    kernel_dim,
    module_vec_row,
    row_rank,
)

CENSUS = list(enumerate_distributive(8))


def test_chain_has_no_syzygies():
    rows = graded_betti_oracle(hibi_ideal(chain(5)))
    assert all(r.kernel_dim == 0 for r in rows)
    assert first_betti_oracle(hibi_ideal(chain(5))) == 0


def test_single_diamond():
    rows = graded_betti_oracle(hibi_ideal(grid(1, 1)))
    # one binomial generator: the presentation has no relations at all
    assert all(r.minimal_generators == 0 for r in rows)


def test_small_grid_values():
    rows = graded_betti_oracle(hibi_ideal(grid(1, 2)))
    assert [(r.degree, r.minimal_generators) for r in rows] == [(3, 2), (4, 0)]
    assert rows[1].kernel_dim == 12 and rows[1].trivial_dim == 12


def test_worked_example_grid_2_3():
    rows = graded_betti_oracle(hibi_ideal(grid(2, 3)))
    assert [(r.degree, r.minimal_generators) for r in rows] == [(3, 52), (4, 0)]


def test_stacked_diamonds_degree_four(stacked_diamonds):
    rows = graded_betti_oracle(hibi_ideal(stacked_diamonds))
    assert [(r.degree, r.minimal_generators) for r in rows] == [(3, 0), (4, 1)]
    assert not is_linear_first_syzygy(hibi_ideal(stacked_diamonds))


def test_nothing_minimal_beyond_degree_four(stacked_diamonds):
    """Witness of the degree bound stated in hibiring.oracle: walking the
    per-degree step past it finds no minimal generator in degrees 5 and 6."""
    lattices = [grid(2, 3), stacked_diamonds, overlapping_grids(3, 1, 2, 4)]
    lattices += enumerate_distributive(9)
    for L in lattices:
        rows = list(islice(_graded_rows(hibi_ideal(L)), 4))
        assert [(r.degree, r.minimal_generators) for r in rows[2:]] == [
            (5, 0), (6, 0)]


def test_grids_are_linear():
    for (m, n) in [(1, 1), (1, 3), (2, 2), (2, 3)]:
        assert is_linear_first_syzygy(hibi_ideal(grid(m, n)))


def test_kernel_basis_rows_are_kernel_vectors():
    """Every fundamental-cycle row really multiplies the presentation matrix
    to zero (regression: tree-path edge signs)."""
    for L in [grid(1, 2), grid(2, 2)] + CENSUS[:12]:
        I = hibi_ideal(L)
        for d in (3, 4):
            cols = {key: (h, t) for key, h, t in _edges(I, d)}
            basis = kernel_basis(I, d)
            assert len(basis) == kernel_dim(I, d)
            for row in basis:
                image = defaultdict(int)
                for k, c in row.items():
                    assert c in (-1, 1, 2, -2)
                    h, t = cols[k]
                    image[h] += c
                    image[t] -= c
                assert not any(image.values())


def test_kernel_basis_is_independent():
    I = hibi_ideal(grid(2, 2))
    basis = kernel_basis(I, 4)
    assert row_rank(basis) == len(basis) == kernel_dim(I, 4)


def test_kernel_dim_euler_formula():
    # kernel dimension equals #edges - #vertices + #components
    I = hibi_ideal(grid(1, 3))
    for d in (3, 4):
        edges = list(_edges(I, d))
        vertices = {m for _, h, t in edges for m in (h, t)}
        assert kernel_dim(I, d) >= len(edges) - len(vertices)


def test_module_vec_row_clears_denominators():
    from hibiring.polynomials import QQ, Polynomial
    half = Polynomial(QQ, 2, {(1, 0): Fraction(1, 2)})
    third = Polynomial(QQ, 2, {(0, 1): Fraction(-1, 3)})
    row = module_vec_row({0: half, 1: third})
    assert row == {((1, 0), 0): 3, ((0, 1), 1): -2}


def test_row_rank_simple():
    assert row_rank([]) == 0
    assert row_rank([{0: 2, 1: 4}, {0: 1, 1: 2}, {1: 1}]) == 2
    assert row_rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2
    assert row_rank([{0: 1}, {1: 1}], target=1) == 1


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_row_rank_matches_dense_elimination(matrix):
    rows = [{j: v for j, v in enumerate(r) if v} for r in matrix]
    dense = [[Fraction(v) for v in r] for r in matrix]
    rank = 0
    for c in range(4):
        piv = next((i for i in range(rank, len(dense)) if dense[i][c]), None)
        if piv is None:
            continue
        dense[rank], dense[piv] = dense[piv], dense[rank]
        for i in range(len(dense)):
            if i != rank and dense[i][c]:
                f = dense[i][c] / dense[rank][c]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[rank])]
        rank += 1
    assert row_rank(rows) == rank


def test_census_trivial_dim_never_exceeds_kernel():
    for L in CENSUS:
        for r in graded_betti_oracle(hibi_ideal(L)):
            assert 0 <= r.trivial_dim <= r.kernel_dim
            assert r.minimal_generators == r.kernel_dim - r.trivial_dim
