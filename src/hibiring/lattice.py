"""Finite distributive lattices and the order-theoretic queries built on them.

Elements are integers 0..n-1; labels are display-only.  A Lattice is immutable
after construction and every query is pure, so values are safe to share across
threads.
"""

from itertools import permutations, product

from .errors import (
    CapExceeded,
    EmptyInput,
    HibiError,
    NotALattice,
    NotComparable,
    NotDistributive,
)


class Lattice:
    """A finite distributive lattice.

    Fields: n (element count), labels, join/meet (n x n element tables),
    covers (list of (lower, upper)), height (rank of each element, bottom
    at 0).
    """

    __slots__ = ("n", "labels", "join", "meet", "covers", "height",
                 "parent_map", "_up", "_down", "_diamonds",
                 "_comparable_pairs", "_jm_set")

    def __init__(self, labels, up):
        # up[a] = frozenset of b with a <= b (reflexive); validated by callers
        # via _build, which fills joins, meets, covers, heights and checks the
        # lattice and distributivity axioms.
        self.n = len(labels)
        self.labels = tuple(labels)
        self._up = tuple(up)
        self.parent_map = None
        self._diamonds = None
        self._comparable_pairs = None
        self._jm_set = None
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        n = self.n
        up = self._up
        down = tuple(frozenset(a for a in range(n) if b in up[a]) for b in range(n))
        self._down = down

        for a in range(n):
            for b in up[a]:
                if a != b and a in up[b]:
                    raise NotALattice(f"order is not antisymmetric on {a},{b}")

        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                common = up[a] & up[b]
                if not common:
                    raise NotALattice(
                        f"elements {self.labels[a]},{self.labels[b]} have no upper bound")
                j = next((c for c in common if common <= up[c]), None)
                if j is None:
                    raise NotALattice(
                        f"elements {self.labels[a]},{self.labels[b]} have no least upper bound")
                commond = down[a] & down[b]
                if not commond:
                    raise NotALattice(
                        f"elements {self.labels[a]},{self.labels[b]} have no lower bound")
                m = next((c for c in commond if commond <= down[c]), None)
                if m is None:
                    raise NotALattice(
                        f"elements {self.labels[a]},{self.labels[b]} have no greatest lower bound")
                join[a][b] = join[b][a] = j
                meet[a][b] = meet[b][a] = m
        self.join = tuple(tuple(r) for r in join)
        self.meet = tuple(tuple(r) for r in meet)

        for x in range(n):
            for y in range(x + 1, n):
                for z in range(n):
                    if self.meet[self.join[x][y]][z] != self.join[self.meet[x][z]][self.meet[y][z]]:
                        raise NotDistributive((self.labels[x], self.labels[y], self.labels[z]))

        covers = []
        for a in range(n):
            for b in up[a]:
                if b == a:
                    continue
                between = up[a] & down[b]
                if len(between) == 2:
                    covers.append((a, b))
        self.covers = tuple(sorted(covers))

        # Birkhoff: the rank of a is the number of join-irreducibles below it
        ji = self.join_irreducibles()
        self.height = tuple(len(down[a] & ji) for a in range(n))

    # -- queries ----------------------------------------------------------

    def le(self, a, b):
        return b in self._up[a]

    def incomparable(self, a, b):
        return a != b and b not in self._up[a] and a not in self._up[b]

    @property
    def bottom(self):
        return self.height.index(0)

    @property
    def top(self):
        return max(range(self.n), key=lambda a: len(self._down[a]))

    def incomparable_pairs(self):
        """All unordered incomparable pairs (a, b) with a < b, lexicographic."""
        return [(a, b) for a in range(self.n) for b in range(a + 1, self.n)
                if self.incomparable(a, b)]

    def diamonds(self):
        """The set of (meet, join) over the incomparable pairs: each diamond
        by its bottom and top, built on the first call."""
        if self._diamonds is None:
            self._diamonds = frozenset((self.meet[a][b], self.join[a][b])
                                       for a, b in self.incomparable_pairs())
        return self._diamonds

    def comparable_pairs(self):
        """The pairs (lo, hi) of incomparable pairs with join(lo) <= meet(hi),
        sorted, built on the first call.

        Each incomparable pair is filed under its meet, and the pairs hi of a
        lo are those filed under an element of the up-set of join(lo).  The
        two pairs are element-disjoint: each element of lo lies strictly below
        join(lo), and each element of hi strictly above meet(hi).
        """
        if self._comparable_pairs is None:
            pairs = self.incomparable_pairs()
            by_meet = {}
            for a, b in pairs:
                by_meet.setdefault(self.meet[a][b], []).append((a, b))
            self._comparable_pairs = tuple(sorted(
                (lo, hi) for lo in pairs
                for x in self._up[self.join[lo[0]][lo[1]]]
                for hi in by_meet.get(x, ())))
        return self._comparable_pairs

    def join_irreducibles(self):
        """Elements with exactly one lower cover."""
        lower = [0] * self.n
        for (_, b) in self.covers:
            lower[b] += 1
        return {a for a in range(self.n) if lower[a] == 1}

    def meet_irreducibles(self):
        """Elements with exactly one upper cover."""
        upper = [0] * self.n
        for (a, _) in self.covers:
            upper[a] += 1
        return {a for a in range(self.n) if upper[a] == 1}

    def jm_set(self):
        """The elements both join- and meet-irreducible, as a frozenset built
        on the first call."""
        if self._jm_set is None:
            self._jm_set = frozenset(self.join_irreducibles()
                                     & self.meet_irreducibles())
        return self._jm_set

    def interval(self, a, b):
        """The induced sublattice on {x : a <= x <= b}; parent_map maps back."""
        if not self.le(a, b):
            raise NotComparable(f"{self.labels[a]} is not below {self.labels[b]}")
        members = sorted(self._up[a] & self._down[b],
                         key=lambda x: (self.height[x], x))
        pos = {x: i for i, x in enumerate(members)}
        up = [frozenset(pos[y] for y in self._up[x] if y in pos) for x in members]
        sub = Lattice([self.labels[x] for x in members], up)
        sub.parent_map = tuple(members)
        return sub

    def linear_extension(self):
        """Element ids sorted by (height, id), a total order extending <=."""
        return sorted(range(self.n), key=lambda a: (self.height[a], a))

    def is_planar(self):
        """True iff the poset of join-irreducibles has no 3-element antichain."""
        ji = sorted(self.join_irreducibles())
        for i, a in enumerate(ji):
            for b in ji[i + 1:]:
                if not self.incomparable(a, b):
                    continue
                for c in ji:
                    if c > b and self.incomparable(a, c) and self.incomparable(b, c):
                        return False
        return True

    def to_json_dict(self):
        return {"elements": list(self.labels), "covers": [list(c) for c in self.covers]}


def from_covers(names, covers):
    """Build a Lattice from element names and a cover (or any acyclic) relation."""
    names = list(names)
    if not names:
        raise EmptyInput("no elements")
    n = len(names)
    adj = [set() for _ in range(n)]
    for (a, b) in covers:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise NotALattice(f"bad cover pair ({a},{b})")
        adj[a].add(b)
    up = [None] * n
    state = [0] * n  # 0 new, 1 on stack, 2 done

    def reach(a):
        if state[a] == 1:
            raise NotALattice("cover relation has a cycle")
        if state[a] == 2:
            return up[a]
        state[a] = 1
        s = {a}
        for b in adj[a]:
            s |= reach(b)
        state[a] = 2
        up[a] = frozenset(s)
        return up[a]

    for a in range(n):
        reach(a)
    return Lattice(names, up)


def from_json_dict(d):
    """Build a Lattice from {"elements": [name, ...], "covers": [[lower,
    upper], ...]}, the form Lattice.to_json_dict writes; a document of any
    other shape raises HibiError naming its first fault."""
    if not isinstance(d, dict):
        raise HibiError("malformed lattice JSON: the top level must be an "
                        "object with 'elements' and 'covers' keys")
    for key in ("elements", "covers"):
        if key not in d:
            raise HibiError(f"malformed lattice JSON: no {key!r} key")
    names, covers = d["elements"], d["covers"]
    if not isinstance(names, list):
        raise HibiError("'elements' must be a list of names")
    if not (isinstance(covers, list)
            and all(isinstance(c, list) and len(c) == 2
                    and all(type(i) is int for i in c) for c in covers)):
        raise HibiError("'covers' must be a list of [lower, upper] index pairs")
    for k, name in enumerate(names):
        if not isinstance(name, str):
            raise HibiError(f"element {k} has name {name!r}; element names "
                            "must be strings")
    return from_covers(names, [tuple(c) for c in covers])


def grid(m, n):
    """The product of chains with m+1 and n+1 elements.

    Element (i,j) <= (i',j') iff i<=i' and j<=j'.  Elements are indexed by
    (i+j, j) lexicographic and labelled "1".."N", which lists each rank from
    the long-chain side first.
    """
    if m < 1 or n < 1:
        raise EmptyInput("grid dimensions must be >= 1")
    pts = sorted(((i, j) for i in range(m + 1) for j in range(n + 1)),
                 key=lambda p: (p[0] + p[1], p[1]))
    return from_points(pts)


def from_points(pts):
    """Lattice on a set of integer pairs under the componentwise order.

    The point set must be closed under componentwise min/max.  Elements are
    indexed by (coordinate sum, second coordinate) and labelled "1".."N".
    """
    pts = sorted(set(pts), key=lambda p: (p[0] + p[1], p[1]))
    pos = {p: k for k, p in enumerate(pts)}
    up = [frozenset(pos[q] for q in pts if q[0] >= p[0] and q[1] >= p[1]) for p in pts]
    return Lattice([str(k + 1) for k in range(len(pts))], up)


# -- census of small distributive lattices --------------------------------

ENUMERATION_CAP = 12


def _ideals(down):
    """All order ideals (as bitmasks) of the poset given by strict-down masks."""
    n = len(down)
    out = []
    for s in range(1 << n):
        ok = True
        for i in range(n):
            if s >> i & 1 and down[i] & ~s:
                ok = False
                break
        if ok:
            out.append(s)
    return out


def _poset_canon(down):
    """Canonical encoding of a poset up to isomorphism (brute force over
    permutations compatible with a cheap per-element invariant)."""
    n = len(down)
    up = [0] * n
    for i in range(n):
        for j in range(n):
            if down[j] >> i & 1:
                up[i] |= 1 << j
    inv = [(bin(down[i]).count("1"), bin(up[i]).count("1")) for i in range(n)]
    groups = {}
    for i in range(n):
        groups.setdefault(inv[i], []).append(i)
    order = sorted(groups)
    best = None
    blocks = [groups[k] for k in order]
    for perm_parts in product(*map(permutations, blocks)):
        perm = [i for part in perm_parts for i in part]
        place = [0] * n
        for new, old in enumerate(perm):
            place[old] = new
        enc = []
        for old in perm:
            mask = 0
            for j in range(n):
                if down[old] >> j & 1:
                    mask |= 1 << place[j]
            enc.append(mask)
        enc = tuple(enc)
        if best is None or enc < best:
            best = enc
    return (n, tuple(sorted(inv)), best)


def _birkhoff(down):
    """Lattice of order ideals of the given poset."""
    ideals = sorted(_ideals(down), key=lambda s: (bin(s).count("1"), s))
    pos = {s: k for k, s in enumerate(ideals)}
    up = [frozenset(pos[t] for t in ideals if t & s == s) for s in ideals]
    labels = ["{" + ",".join(str(i) for i in range(len(down)) if s >> i & 1) + "}"
              for s in ideals]
    return Lattice(labels, up)


def enumerate_distributive(max_elements):
    """Every distributive lattice with at most max_elements elements, one per
    isomorphism class, smallest first."""
    if max_elements > ENUMERATION_CAP:
        raise CapExceeded(f"max_elements {max_elements} exceeds cap {ENUMERATION_CAP}")
    if max_elements < 1:
        return
    posets = []           # (ideal_count, canon, down)
    seen = set()
    frontier = [[]]       # posets as strict-down mask lists, grown one element at a time
    key = _poset_canon([])
    seen.add(key)
    posets.append((1, key, []))
    while frontier:
        nxt = []
        for down in frontier:
            n = len(down)
            ideals = _ideals(down)
            for d in ideals:
                closure = d
                for i in range(n):
                    if d >> i & 1:
                        closure |= down[i]
                new_down = down + [closure]
                count = sum(1 for s in ideals if s & d == d) + len(ideals)
                if count > max_elements:
                    continue
                key = _poset_canon(new_down)
                if key in seen:
                    continue
                seen.add(key)
                posets.append((count, key, new_down))
                nxt.append(new_down)
        frontier = nxt
    for _, _, down in sorted(posets, key=lambda t: (t[0], t[1])):
        yield _birkhoff(down)
