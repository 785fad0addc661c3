"""Workloads, jobs and the pinned answers every pass is checked against.

A job is one fresh Python process running one `hibi` command or one library
call.  Each job carries a check that turns its exit code and standard output
into (operations attempted, operations failed, wrong answers).  The pinned
values come from the closed-form grid counts below and from OEIS A006982,
never from the package under test, so a regression in the formulas or in the
oracle shows up as a failed operation.

Nothing pinned here is a value that ROADMAP items 2 or 5 may legitimately
change (S-pairs checked, oracle degrees reported, typed generators built);
those are per-layer counts of the traced run instead.
"""

import json
from dataclasses import dataclass
from math import comb

# -- independent pins ---------------------------------------------------------

# Distributive lattices with n elements, one per isomorphism class (OEIS
# A006982, n = 1..10).  The one-element lattice has no relations and the
# census skips it.
A006982 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15, 9: 26, 10: 47}


def grid_breakdown(m, n):
    """First Betti number of grid(m, n) by type, from the paper's closed forms:
    strip S(m,n) = C(m+1,2)T(n) + C(n+1,2)T(m) with T(k) = 2C(k+1,3), and
    L(m,n) = box(m,n) = l(m)l(n)/2 with l(k) = k(k^2-1)/3."""
    def t(k):
        return 2 * comb(k + 1, 3)

    def l(k):
        return k * (k * k - 1) // 3

    strip = comb(m + 1, 2) * t(n) + comb(n + 1, 2) * t(m)
    return {"strip": strip, "L": l(m) * l(n) // 2, "box": l(m) * l(n) // 2,
            "G": 0, "diamond": 0}


def grid_total(m, n):
    return sum(grid_breakdown(m, n).values())


def census_sizes(max_elements):
    return {n: c for n, c in A006982.items() if 2 <= n <= max_elements}


# -- checks -------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int
    wrong: int  # operations whose answer is missing or contradicts a pin
    note: str = ""


def _load(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_betti(pin):
    def check(code, stdout):
        doc = _load(stdout)
        if doc is None:
            return Outcome(1, 1, 1, f"exit {code}, no JSON report")
        got = (doc.get("formula", {}).get("total"),
               doc.get("oracle", {}).get("total"), doc.get("agreement"))
        if got != (pin, pin, True):
            return Outcome(1, 1, 1, f"formula/oracle/agreement {got}, "
                                    f"pinned ({pin}, {pin}, True)")
        if code != 0:
            return Outcome(1, 1, 0, f"exit {code}")
        return Outcome(1, 0, 0)
    return check


def check_answer(key, pin):
    """A library job prints one JSON object; `key` must equal `pin`."""
    def check(code, stdout):
        doc = _load(stdout.strip().splitlines()[-1] if stdout.strip() else "")
        if code != 0 or doc is None:
            return Outcome(1, 1, 1, f"exit {code}, {stdout.strip()[-200:]!r}")
        if doc.get(key) != pin:
            return Outcome(1, 1, 1, f"{key} {doc.get(key)!r}, pinned {pin!r}")
        return Outcome(1, 0, 0)
    return check


def check_syzygy(pin_hist):
    def check(code, stdout):
        doc = _load(stdout)
        if doc is None:
            return Outcome(1, 1, 1, f"exit {code}, no JSON report")
        got = (doc.get("minimal_histogram"), doc.get("total"),
               doc.get("verified"))
        want = (pin_hist, sum(pin_hist.values()), True)
        if got != want:
            return Outcome(1, 1, 1, f"histogram/total/verified {got}, "
                                    f"pinned {want}")
        if code != 0:
            return Outcome(1, 1, 0, f"exit {code}")
        return Outcome(1, 0, 0)
    return check


def check_census(sizes):
    """One operation per expected lattice row.  A row fails when it carries
    `error` or a `FAIL`; rows missing from a size class fail too.  The CLI
    exits 2 whenever a row fails, so exit 2 is read like exit 0."""
    expected = sum(sizes.values())

    def check(code, stdout):
        doc = _load(stdout)
        if code not in (0, 2) or doc is None:
            return Outcome(expected, expected, expected,
                           f"exit {code}, no report")
        rows = doc.get("rows", [])
        seen = {}
        failed = 0
        notes = []
        for row in rows:
            seen[row.get("elements")] = seen.get(row.get("elements"), 0) + 1
            if "error" in row or "FAIL" in row.values():
                failed += 1
                notes.append(f"{row.get('elements')} elements: "
                             f"{row.get('error', 'FAIL')}")
        wrong = sum(abs(seen.get(n, 0) - c) for n, c in sizes.items())
        wrong += sum(c for n, c in seen.items() if n not in sizes)
        wrong = min(wrong, expected)
        if doc.get("examined") != expected:
            notes.append(f"examined {doc.get('examined')}, pinned {expected}")
            wrong = max(wrong, 1)
        if (code == 0) != (failed == 0) or doc.get("failures") != failed:
            notes.append(f"exit {code} with {failed} failing rows, "
                         f"report says {doc.get('failures')}")
            wrong = max(wrong, 1)
        return Outcome(expected, min(expected, failed + wrong), wrong,
                       "; ".join(notes))
    return check


# -- jobs and workloads -------------------------------------------------------


@dataclass(frozen=True)
class Job:
    name: str
    spec: dict      # what worker.py runs: {"cli": argv} or {"call": ..., "grid": ...}
    check: object   # (exit_code, stdout) -> Outcome


def betti_job(m, n, pin=None):
    return Job(f"betti-grid-{m}x{n}",
               {"cli": ["betti", "--grid", str(m), str(n), "--format", "json"]},
               check_betti(grid_total(m, n) if pin is None else pin))


def first_betti_job(m, n):
    return Job(f"first_betti_oracle-grid-{m}x{n}",
               {"call": "first_betti_oracle", "grid": [m, n]},
               check_answer("first_betti", grid_total(m, n)))


def census_job(max_elements):
    return Job(f"census-{max_elements}",
               {"cli": ["census", "--max-elements", str(max_elements),
                        "--format", "json"]},
               check_census(census_sizes(max_elements)))


def syzygy_job(m, n):
    return Job(f"syzygy-verify-grid-{m}x{n}",
               {"cli": ["syzygy", "--grid", str(m), str(n), "--verify",
                        "--format", "json"]},
               check_syzygy(grid_breakdown(m, n)))


def buchberger_job(m, n):
    return Job(f"buchberger_check-grid-{m}x{n}",
               {"call": "buchberger_check", "grid": [m, n]},
               check_answer("passed", True))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple
    setup: dict  # what set-up builds: {"grids": [[M, N], ...], "census": N}


WORKLOADS = {
    "oracle": Workload(
        "oracle",
        "The graded oracle is over 95% of both jobs. betti --grid 3 3 is deep "
        "(degrees 3-6, 53,608 vertices and 139,536 edges at degree 6, few "
        "variables); first_betti_oracle on grid 4x5 is wide (30 variables, "
        "degree <= 4). A degree cap (ROADMAP item 2) moves only the first; a "
        "faster rank routine or a fiber oracle (item 4) moves both.",
        (betti_job(3, 3), first_betti_job(4, 5)),
        {"grids": [[3, 3], [4, 5]]}),
    "census": Workload(
        "census",
        "108 tiny lattices (every distributive lattice of 2-10 elements) in "
        "298 small oracle calls, so per-call overhead and repeated work "
        "dominate: a per-ideal context (item 5) or the diamond fix (item 3) "
        "shows here, kernels tuned for large graphs barely do. Carries the "
        "known 10-element planar diamond mismatch as 1 failed row of 108.",
        (census_job(10),),
        {"census": 10}),
    "certify": Workload(
        "certify",
        "Polynomial arithmetic in ideal, polynomials and syzygy plus the "
        "betti rank: Buchberger on grid 4x4 (4950 S-pairs) and syzygy "
        "--verify on grid 4x4 (5550 typed generators). Buchberger's first "
        "criterion and syzygy de-duplication (item 5) show here; oracle "
        "changes should leave it unmoved (it touches the oracle at degree 3 "
        "only). Grid 5x5 Buchberger (97 s) is left out for run length.",
        (buchberger_job(4, 4), syzygy_job(4, 4)),
        {"grids": [[4, 4]]}),
}

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "oracle": "oracle.* should move wall_s, cpu_s and peak_rss_mb on oracle "
              "and wall_s on census; certify predicted unchanged",
    "ideal+polynomials": "ideal.*, polynomials.* should move wall_s and cpu_s "
                         "on certify, a little on census; oracle predicted "
                         "unchanged",
    "syzygy": "syzygy.* should move wall_s on certify",
    "betti": "betti.planar_betti_s, betti.n_diamond_planar_s move wall_s on "
             "census; betti.typed_minimal_histogram_s, betti.histogram_yield "
             "move wall_s on certify",
    "lattice+cli": "lattice.*, cli.* should move setup_s on every workload "
                   "and wall_s on census",
}
