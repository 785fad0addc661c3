"""Independent graded Betti-number oracle for the first syzygy.

In each total degree d the presentation map sends a column (mu, i) — a
monomial mu of degree d-2 times the i-th binomial generator — to
mu*lead_i - mu*tail_i.  Every column has exactly two nonzero entries, +1 and
-1, so the degree-d matrix is the signed incidence matrix of a graph whose
vertices are degree-d monomials.  Its kernel is the cycle space:

  kernel_dim = #edges - #vertices + #components,

with an explicit basis of fundamental cycles (coefficients +-1) read off a
spanning forest.  The minimal number of generators in degree d is the kernel
dimension minus the dimension of the span of the degree-(d-1) kernel shifted
by each variable; ranks are computed by fraction-free sparse elimination over
the integers, so every number is exact and characteristic-free.

Minimal first syzygies live in degrees 3 and 4 only.  The diamond relations
are a quadratic Groebner basis (Hibi 1987; buchberger_check certifies it), so
beta_{1,j}(I) <= beta_{1,j}(in(I)) because graded Betti numbers can only grow
on passing to the initial ideal, and the Taylor resolution of a quadratic
monomial ideal has first-syzygy shifts lcm(m, m') of degree at most 4
(Herzog-Hibi, Monomial Ideals, GTM 260: Betti numbers of initial ideals, and
the Taylor complex).  Hence beta_{1,j}(I) = 0 for j > 4, and the public
functions report degrees 3..TOP_DEGREE only.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, count, islice
from math import gcd

from .polynomials import mono_mul

# The degree bound proved in the module docstring.
TOP_DEGREE = 4

# A row is a sparse vector over column keys (mu, i) with integer entries.


@dataclass(frozen=True)
class GradedBettiRow:
    degree: int
    kernel_dim: int
    trivial_dim: int
    minimal_generators: int


class GradedBetti(tuple):
    """GradedBettiRows of degrees 3..TOP_DEGREE; total counts the minimal
    first-syzygy generators, linear holds iff none lies beyond degree 3."""

    @property
    def total(self):
        return sum(r.minimal_generators for r in self)

    @property
    def linear(self):
        return all(r.minimal_generators == 0 for r in self if r.degree > 3)


def _edges(ideal, d):
    """All degree-d columns as (column_key, head_monomial, tail_monomial)."""
    n = ideal.lattice.n
    order = ideal.order
    pieces = []
    for r in ideal.relations:
        lead = r.poly.leading_monomial(order)
        (tail,) = [m for m in r.poly.coeffs if m != lead]
        pieces.append((r.index, lead, tail))
    for combo in combinations_with_replacement(range(n), d - 2):
        mu = [0] * n
        for v in combo:
            mu[v] += 1
        mu = tuple(mu)
        for i, lead, tail in pieces:
            yield (mu, i), mono_mul(mu, lead), mono_mul(mu, tail)


class _DegreeGraph:
    """Spanning-forest decomposition of one degree's incidence graph."""

    def __init__(self, ideal, d):
        adj = {}
        self.edges = []
        for key, head, tail in _edges(ideal, d):
            self.edges.append((key, head, tail))
            adj.setdefault(head, []).append((key, tail, -1))
            adj.setdefault(tail, []).append((key, head, 1))
        # BFS forest: parent[v] = (edge_key, parent_vertex, sign), where sign
        # is +1 when the edge is oriented parent -> v (v is the head).
        self.parent = {}
        self.depth = {}
        self.component = {}
        self.tree_edges = set()
        self.n_components = 0
        for root in adj:
            if root in self.component:
                continue
            cid = self.n_components
            self.n_components += 1
            self.component[root] = cid
            self.depth[root] = 0
            queue = [root]
            while queue:
                nxt = []
                for v in queue:
                    for key, w, sign in adj[v]:
                        if w in self.component:
                            continue
                        self.component[w] = cid
                        self.depth[w] = self.depth[v] + 1
                        self.parent[w] = (key, v, sign)
                        self.tree_edges.add(key)
                        nxt.append(w)
                queue = nxt
        self.kernel_dim = (len(self.edges) - len(self.component)
                           + self.n_components)

    def _walk_up(self, v, stop_depth, row, step_sign):
        while self.depth[v] > stop_depth:
            key, u, sign = self.parent[v]
            row[key] = row.get(key, 0) + step_sign * sign
            v = u
        return v

    def kernel_basis(self):
        """Fundamental-cycle rows, one per non-tree edge; entries +-1."""
        rows = []
        for key, head, tail in self.edges:
            if key in self.tree_edges:
                continue
            row = {key: 1}
            h, t = head, tail
            d = min(self.depth[h], self.depth[t])
            # circulate: +1 along tail->head on the extra edge, then close the
            # loop through the tree from head up to the LCA and down to tail.
            # Walking up against a parent->child edge contributes -sign; the
            # tail side is traversed downward in the cycle, so +sign.
            h = self._walk_up(h, d, row, -1)
            t = self._walk_up(t, d, row, 1)
            while h != t:
                kh, uh, sh = self.parent[h]
                row[kh] = row.get(kh, 0) - sh
                h = uh
                kt, ut, st = self.parent[t]
                row[kt] = row.get(kt, 0) + st
                t = ut
            rows.append({k: v for k, v in row.items() if v})
        return rows

    def shifted_rank(self, rows):
        """Rank of rows supported on this degree's columns, eliminated one
        component at a time and stopped once a component's cycle space is
        full."""
        col_component = {key: self.component[head]
                         for key, head, _ in self.edges}
        # a component's cycle space has dimension #edges - #vertices + 1
        excess = Counter(col_component.values())
        excess.subtract(self.component.values())
        by_comp = {}
        for row in rows:
            by_comp.setdefault(col_component[next(iter(row))], []).append(row)
        return sum(row_rank(comp_rows, target=excess[cid] + 1)
                   for cid, comp_rows in by_comp.items())


class RowSpan:
    """Integer span of sparse rows, grown one row at a time by fraction-free
    elimination; add reports whether the row enlarged the span."""

    def __init__(self, rows=()):
        self.pivots = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, row):
        row = {k: v for k, v in row.items() if v}
        while row:
            c = min(row)
            p = self.pivots.get(c)
            if p is None:
                g = gcd(*row.values())
                self.pivots[c] = ({k: v // g for k, v in row.items()}
                                  if g > 1 else row)
                return True
            a, b = row[c], p[c]
            new = {k: v * b for k, v in row.items()}
            for k, v in p.items():
                new[k] = new.get(k, 0) - v * a
            row = {k: v for k, v in new.items() if v}
        return False


def row_rank(rows, target=None):
    """Rank of integer sparse rows; stops early once target is reached."""
    span = RowSpan()
    for row in rows:
        span.add(row)
        if target is not None and span.rank >= target:
            break
    return span.rank


def variable_shifts(basis):
    """Every row of a degree-(d-1) kernel basis times every variable; these
    span the degree-d syzygies that are not minimal."""
    for row in basis:
        n = len(next(iter(row))[0])
        for v in range(n):
            yield {(mu[:v] + (mu[v] + 1,) + mu[v + 1:], i): c
                   for (mu, i), c in row.items()}


def module_vec_row(vec):
    """Flatten a syzygy vector {i: Polynomial} to an integer sparse row over
    column keys (monomial, i).  Denominators are cleared."""
    row = {}
    denom = 1
    for i, p in vec.items():
        for m, c in p.coeffs.items():
            d = getattr(c, "denominator", 1)
            denom = denom * d // gcd(denom, d)
    for i, p in vec.items():
        for m, c in p.coeffs.items():
            v = c * denom
            row[(m, i)] = int(v)
    return row


def _graded_rows(ideal):
    """One GradedBettiRow per degree d = 3, 4, 5, ... without end.  The
    degree-d kernel basis is built only when row d+1 is asked for."""
    basis = []  # kernel basis one degree down; kernel in degree 2 is 0
    for d in count(3):
        graph = _DegreeGraph(ideal, d)
        trivial_dim = graph.shifted_rank(variable_shifts(basis))
        yield GradedBettiRow(d, graph.kernel_dim, trivial_dim,
                             graph.kernel_dim - trivial_dim)
        basis = graph.kernel_basis()


def graded_betti_oracle(ideal):
    """Exact minimal-generator counts of the first syzygy, one GradedBettiRow
    for each degree 3..TOP_DEGREE."""
    return GradedBetti(islice(_graded_rows(ideal), TOP_DEGREE - 2))


def kernel_dim(ideal, d):
    return _DegreeGraph(ideal, d).kernel_dim


def kernel_basis(ideal, d):
    return _DegreeGraph(ideal, d).kernel_basis()


def first_betti_oracle(ideal):
    """Total number of minimal first-syzygy generators."""
    return graded_betti_oracle(ideal).total


def is_linear_first_syzygy(ideal):
    """True iff the first syzygy needs no minimal generator beyond degree 3."""
    return graded_betti_oracle(ideal).linear
