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
    at 0).  The order is held as bit masks: bit b of _up[a] is set when
    a <= b, and bit a of _down[b] likewise.
    """

    __slots__ = ("n", "labels", "join", "meet", "covers", "height",
                 "parent_map", "_up", "_down", "_diamonds",
                 "_comparable_pairs", "_jm_set", "_planar")

    def __init__(self, labels, up):
        """up[a] is the bit mask of the b with a <= b.  The relation must be
        reflexive and transitive; _build rejects it otherwise, then checks
        the lattice and distributivity axioms and fills joins, meets, covers
        and heights."""
        self.n = len(labels)
        self.labels = tuple(labels)
        self._up = tuple(up)
        self.parent_map = None
        self._diamonds = None
        self._comparable_pairs = None
        self._jm_set = None
        self._planar = None
        self._build()

    # -- construction -----------------------------------------------------

    def _build(self):
        """Check the order and lattice axioms and fill the tables, on bit
        masks.

        In a partial order, join(a, b) is the element whose up-set is
        up(a) & up(b) when one has it, and otherwise there is none: c is the
        least upper bound exactly when the upper bounds of a and b are the
        elements above c.  Up-sets are distinct by antisymmetry, so each join
        is one dict lookup; meets likewise on down-sets.  This needs up to be
        transitive, which is checked first.
        """
        n = self.n
        up = self._up
        labels = self.labels
        down = [0] * n
        for a in range(n):
            ua = up[a]
            if not ua >> a & 1:
                raise NotALattice(f"order is not reflexive at {labels[a]}")
            for b in _bits(ua):
                down[b] |= 1 << a
                if up[b] & ~ua:
                    c = _bits(up[b] & ~ua)[0]
                    raise NotALattice(
                        f"order is not transitive: {labels[a]} <= {labels[b]}"
                        f" <= {labels[c]} but not {labels[a]} <= {labels[c]}")
        self._down = down = tuple(down)

        by_up = {u: a for a, u in enumerate(up)}
        if len(by_up) < n:
            a, b = next((a, b) for a in range(n) for b in _bits(up[a])
                        if a != b and up[b] >> a & 1)
            raise NotALattice(f"order is not antisymmetric on {a},{b}")
        by_down = {d: a for a, d in enumerate(down)}

        join, meet = [], []
        for a in range(n):
            ua, da = up[a], down[a]
            jrow = [by_up.get(ua & u) for u in up]
            mrow = [by_down.get(da & d) for d in down]
            if None in jrow or None in mrow:
                self._no_bound(a, jrow, mrow)
            join.append(jrow)
            meet.append(mrow)

        # the law holds trivially when x <= y or y <= x, so only rows of
        # incomparable pairs are compared
        for x in range(n):
            jx, mx = join[x], meet[x]
            for y in range(x + 1, n):
                j = jx[y]
                if j == x or j == y:
                    continue
                row = [join[p][q] for p, q in zip(mx, meet[y])]
                if meet[j] != row:
                    z = next(z for z in range(n) if meet[j][z] != row[z])
                    raise NotDistributive((labels[x], labels[y], labels[z]))
        self.join = tuple(map(tuple, join))
        self.meet = tuple(map(tuple, meet))

        self.covers = tuple((a, b) for a in range(n) for b in _bits(up[a])
                            if (up[a] & down[b]).bit_count() == 2)

        # Birkhoff: the rank of a is the number of join-irreducibles below it
        ji = sum(1 << a for a in self.join_irreducibles())
        self.height = tuple((d & ji).bit_count() for d in down)

    def _no_bound(self, a, jrow, mrow):
        """Raise NotALattice for the first b >= a whose join or meet with a
        is missing; each pair (b, a) with b < a was found in an earlier row."""
        up, down = self._up, self._down
        for b in range(a, self.n):
            pair = f"elements {self.labels[a]},{self.labels[b]} have"
            if jrow[b] is None:
                least = "least " if up[a] & up[b] else ""
                raise NotALattice(f"{pair} no {least}upper bound")
            if mrow[b] is None:
                greatest = "greatest " if down[a] & down[b] else ""
                raise NotALattice(f"{pair} no {greatest}lower bound")

    # -- queries ----------------------------------------------------------

    def le(self, a, b):
        return self.join[a][b] == b

    def incomparable(self, a, b):
        j = self.join[a][b]
        return j != a and j != b

    def incomparable_pairs(self):
        """All unordered incomparable pairs (a, b) with a < b, lexicographic."""
        return [(a, b) for a in range(self.n) for b in range(a + 1, self.n)
                if self.incomparable(a, b)]

    def diamonds(self):
        """The incomparable pairs indexed by their (meet, join), each
        diamond's bottom and top: a dict to tuples of pairs in
        incomparable_pairs order, built on the first call."""
        if self._diamonds is None:
            index = {}
            for a, b in self.incomparable_pairs():
                index.setdefault((self.meet[a][b], self.join[a][b]),
                                 []).append((a, b))
            self._diamonds = {k: tuple(v) for k, v in index.items()}
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
                for x in _bits(self._up[self.join[lo[0]][lo[1]]])
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
        span = self._up[a] & self._down[b]
        members = sorted(_bits(span), key=lambda x: (self.height[x], x))
        pos = {x: i for i, x in enumerate(members)}
        up = [sum(1 << pos[y] for y in _bits(self._up[x] & span))
              for x in members]
        sub = Lattice([self.labels[x] for x in members], up)
        sub.parent_map = tuple(members)
        return sub

    def linear_extension(self):
        """Element ids sorted by (height, id), a total order extending <=."""
        return sorted(range(self.n), key=lambda a: (self.height[a], a))

    def is_planar(self):
        """True iff the poset of join-irreducibles has no 3-element antichain,
        decided on the first call."""
        if self._planar is None:
            ji = sorted(self.join_irreducibles())
            self._planar = not any(
                self.incomparable(a, c) and self.incomparable(b, c)
                for i, a in enumerate(ji) for b in ji[i + 1:]
                if self.incomparable(a, b) for c in ji if c > b)
        return self._planar

    def to_json_dict(self):
        return {"elements": list(self.labels), "covers": [list(c) for c in self.covers]}


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def from_covers(names, covers):
    """Build a Lattice from element names and a cover (or any acyclic) relation.

    The relation is closed without recursion: an element's up-set is itself
    and the up-sets of its upper covers, so the up-sets are filled from the
    elements with no upper cover down, each once all its upper covers are
    filled (Kahn's topological order).  Elements never filled lie on or
    below a cycle.
    """
    names = list(names)
    if not names:
        raise EmptyInput("no elements")
    n = len(names)
    adj = [set() for _ in range(n)]
    lower = [[] for _ in range(n)]
    for (a, b) in covers:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise NotALattice(f"bad cover pair ({a},{b})")
        if b not in adj[a]:
            adj[a].add(b)
            lower[b].append(a)
    up = [0] * n
    waiting = [len(adj[a]) for a in range(n)]
    ready = [a for a in range(n) if not waiting[a]]
    for b in ready:  # ready grows while it is walked
        mask = 1 << b
        for c in adj[b]:
            mask |= up[c]
        up[b] = mask
        for a in lower[b]:
            waiting[a] -= 1
            if not waiting[a]:
                ready.append(a)
    if len(ready) < n:
        raise NotALattice("cover relation has a cycle")
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
    up = [sum(1 << k for k, q in enumerate(pts) if q[0] >= p[0] and q[1] >= p[1])
          for p in pts]
    return Lattice([str(k + 1) for k in range(len(pts))], up)


# -- census of small distributive lattices --------------------------------

ENUMERATION_CAP = 12


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


def _birkhoff(ideals):
    """Lattice of the given order ideals of a poset, ordered by inclusion."""
    ideals = sorted(ideals, key=lambda s: (s.bit_count(), s))
    up = [sum(1 << k for k, t in enumerate(ideals) if t & s == s) for s in ideals]
    labels = ["{" + ",".join(map(str, _bits(s))) + "}" for s in ideals]
    return Lattice(labels, up)


def enumerate_distributive(max_elements):
    """Every distributive lattice with at most max_elements elements, one per
    isomorphism class, smallest first.

    Each poset is grown one element at a time, a new element e placed on top
    of an order ideal d of the poset P so far, and each poset carries its
    order ideals as bit masks in ascending order.  The ideals of P + e are
    those of P and the s | e for the ideals s of P containing d: an ideal
    holding e holds e's down-set d, and removing e from it leaves an ideal of
    P; conversely, e is maximal in P + e, so adding it to an ideal holding d
    gives an ideal.
    """
    if max_elements > ENUMERATION_CAP:
        raise CapExceeded(f"max_elements {max_elements} exceeds cap {ENUMERATION_CAP}")
    if max_elements < 1:
        return
    key = _poset_canon([])
    seen = {key}
    posets = [(1, key, [0])]  # (ideal count, canon, ideals)
    frontier = [([], [0])]    # (strict-down masks, ideals), grown one element at a time
    while frontier:
        nxt = []
        for down, ideals in frontier:
            e = 1 << len(down)
            for d in ideals:
                above = [s | e for s in ideals if s & d == d]
                count = len(ideals) + len(above)
                if count > max_elements:
                    continue
                new_down = down + [d]
                key = _poset_canon(new_down)
                if key in seen:
                    continue
                seen.add(key)
                new_ideals = ideals + above
                posets.append((count, key, new_ideals))
                nxt.append((new_down, new_ideals))
        frontier = nxt
    for _, _, ideals in sorted(posets, key=lambda t: t[:2]):
        yield _birkhoff(ideals)
