"""Spans around the package's public functions, recorded from outside it.

`install` wraps each target function and rebinds the wrapper under every name
the `hibiring.*` modules bind the original to (`cli.graded_betti_oracle`,
`betti.row_rank`, `ideal.divide`, ...), so the package's own calls pass through
it; methods are rebound on their class.  No file of the package changes.

A span is [name, parent, start, end, attrs]: `parent` is the index of the
enclosing span in the same job (-1 at top level) and `attrs` holds counts read
from the return value, or the exception type that escaped.  Spans stay in
memory and are written out when the job ends.  `layer_metrics` turns the
spans of one pass into the per-layer metrics.
"""

import functools
import importlib
import inspect
import json
import statistics
import sys
from time import perf_counter

# -- recording ----------------------------------------------------------------


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._lattices = {}  # id -> (key, lattice); holding it keeps ids unique

    def lattice_key(self, L):
        entry = self._lattices.setdefault(id(L), (len(self._lattices), L))
        return entry[0]

    def wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):  # time the work, not the call
                    result = iter(list(result))
            except BaseException as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(self, args, result)
            return result
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _oracle_rows(tracer, args, rows):
    out = {"lattice": tracer.lattice_key(args[0].lattice)}
    for r in rows:
        out[f"kernel_dim.d{r.degree}"] = r.kernel_dim
        out[f"trivial_dim.d{r.degree}"] = r.trivial_dim
        out[f"minimal.d{r.degree}"] = r.minimal_generators
    return out


def _rank_rows(tracer, args, rank):
    rows = args[0]
    out = {"rows": len(rows), "rank": rank}
    key = next((next(iter(r)) for r in rows if r), None)
    if key is not None:  # a row key is (mu, i); its degree is deg(mu) + 2
        out["d"] = sum(key[0]) + 2
    return out


# (module, qualified name, attrs extractor); a target the package no longer
# has is skipped and its metrics read 0.
TARGETS = [
    ("lattice", "enumerate_distributive", None),
    ("lattice", "Lattice._build", None),
    ("lattice", "Lattice.is_planar", None),
    ("polynomials", "divide", None),
    ("polynomials", "s_polynomial", None),
    ("ideal", "hibi_ideal", None),
    ("ideal", "buchberger_check", lambda t, a, r: {
        "pairs": r.pairs_checked, "max_terms": r.max_intermediate_terms}),
    ("syzygy", "all_typed_generators", lambda t, a, r: {"n": len(r)}),
    ("syzygy", "typed_generator", None),
    ("syzygy", "apply_phi", None),
    ("syzygy", "diamond_reducible", None),
    ("oracle", "graded_betti_oracle", _oracle_rows),
    ("oracle", "row_rank", _rank_rows),
    ("oracle", "is_linear_first_syzygy", None),
    ("oracle", "first_betti_oracle", None),
    ("betti", "planar_betti", None),
    ("betti", "n_diamond_planar", None),
    ("betti", "typed_minimal_histogram",
     lambda t, a, r: {"kept": sum(r.values())}),
    ("betti", "linearity_by_k", None),
    ("cli", "main", lambda t, a, r: {"exit": r}),
]


def install(tracer):
    modules = [m for name, m in list(sys.modules.items())
               if name == "hibiring" or name.startswith("hibiring.")]
    for modname, qualname, attrs in TARGETS:
        owner = importlib.import_module(f"hibiring.{modname}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            print(f"tracing: hibiring.{modname}.{qualname} not found",
                  file=sys.stderr)
            continue
        wrapper = tracer.wrap(f"{modname}.{qualname}", fn, attrs)
        if path:
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is fn]:
                setattr(mod, key, wrapper)


# -- per-layer metrics ----------------------------------------------------------

DEGREES = (3, 4, 5, 6)


def layer_metrics(jobs):
    """Per-layer metrics of one pass from {job name: spans}.  Times sum the
    outermost span of each name, so a recursive call is not counted twice."""
    total, self_s, calls = {}, {}, {}
    attrs_of = {}
    lattices = set()  # (job, lattice) pairs the oracle was called on
    for spans in jobs.values():
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, parent, start, end, attrs) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[k]
            attrs_of.setdefault(name, []).append((k, spans, attrs or {}))
            if name == "oracle.graded_betti_oracle" and attrs:
                lattices.add((id(spans), attrs["lattice"]))
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                total[name] = total.get(name, 0.0) + end - start

    def attrs(name):
        return [a for _, _, a in attrs_of.get(name, [])]

    def summed(name, key):
        return sum(a.get(key, 0) for a in attrs(name))

    m = {}
    gbo = "oracle.graded_betti_oracle"
    m["oracle.graded_betti_oracle_s"] = total.get(gbo, 0.0)
    m["oracle.graded_betti_oracle_self_s"] = self_s.get(gbo, 0.0)
    m["oracle.graded_betti_oracle_calls"] = calls.get(gbo, 0)
    ranks = attrs("oracle.row_rank")
    rank_time = {}
    for k, spans, a in attrs_of.get("oracle.row_rank", []):
        d = a.get("d")
        rank_time[d] = rank_time.get(d, 0.0) + spans[k][3] - spans[k][2]
    for d in DEGREES:
        at_d = [a for a in ranks if a.get("d") == d]
        rows = sum(a["rows"] for a in at_d)
        m[f"oracle.row_rank_s.d{d}"] = rank_time.get(d, 0.0)
        m[f"oracle.row_rank_rows.d{d}"] = rows
        if d >= 4:
            m[f"oracle.rank_yield.d{d}"] = (
                sum(a["rank"] for a in at_d) / rows if rows else 0.0)
    for key in ("kernel_dim", "trivial_dim", "minimal"):
        for d in DEGREES:
            m[f"oracle.{key}.d{d}"] = summed(gbo, f"{key}.d{d}")
    m["oracle.calls_per_ideal"] = (
        calls.get(gbo, 0) / len(lattices) if lattices else 0.0)
    m["oracle.is_linear_first_syzygy_s"] = total.get(
        "oracle.is_linear_first_syzygy", 0.0)
    m["oracle.first_betti_oracle_s"] = total.get("oracle.first_betti_oracle", 0.0)

    m["ideal.buchberger_check_s"] = total.get("ideal.buchberger_check", 0.0)
    m["ideal.spairs_checked"] = summed("ideal.buchberger_check", "pairs")
    m["ideal.max_intermediate_terms"] = max(
        [a.get("max_terms", 0) for a in attrs("ideal.buchberger_check")],
        default=0)
    m["ideal.hibi_ideal_s"] = total.get("ideal.hibi_ideal", 0.0)
    m["polynomials.divide_s"] = total.get("polynomials.divide", 0.0)
    m["polynomials.divide_calls"] = calls.get("polynomials.divide", 0)
    m["polynomials.s_polynomial_calls"] = calls.get("polynomials.s_polynomial", 0)

    atg = "syzygy.all_typed_generators"
    m["syzygy.all_typed_generators_s"] = total.get(atg, 0.0)
    m["syzygy.all_typed_generators_calls"] = calls.get(atg, 0)
    m["syzygy.typed_generators"] = summed(atg, "n")
    m["syzygy.typed_generator_calls"] = calls.get("syzygy.typed_generator", 0)
    m["syzygy.apply_phi_s"] = total.get("syzygy.apply_phi", 0.0)
    m["syzygy.apply_phi_calls"] = calls.get("syzygy.apply_phi", 0)
    m["syzygy.diamond_reducible_calls"] = calls.get("syzygy.diamond_reducible", 0)

    tmh = "betti.typed_minimal_histogram"
    m["betti.planar_betti_s"] = total.get("betti.planar_betti", 0.0)
    m["betti.n_diamond_planar_s"] = total.get("betti.n_diamond_planar", 0.0)
    m["betti.typed_minimal_histogram_s"] = total.get(tmh, 0.0)
    examined = sum(a.get("n", 0) for k, spans, a in attrs_of.get(atg, [])
                   if spans[k][1] >= 0 and spans[spans[k][1]][0] == tmh)
    m["betti.histogram_yield"] = summed(tmh, "kept") / examined if examined else 0.0
    m["betti.linearity_by_k_s"] = total.get("betti.linearity_by_k", 0.0)
    m["betti.oracle_mismatches"] = _raised_at_source(jobs, "OracleMismatch")

    m["lattice.enumerate_distributive_s"] = total.get(
        "lattice.enumerate_distributive", 0.0)
    m["lattice.build_s"] = total.get("lattice.Lattice._build", 0.0)
    m["lattice.is_planar_s"] = total.get("lattice.Lattice.is_planar", 0.0)
    m["lattice.is_planar_calls"] = calls.get("lattice.Lattice.is_planar", 0)
    m["cli.main_s"] = total.get("cli.main", 0.0)
    m["cli.exit2_count"] = sum(1 for a in attrs("cli.main") if a.get("exit") == 2)
    return m


def _raised_at_source(jobs, exc_name):
    """Exceptions of one type counted where they were raised: spans it escaped
    from, less those whose child span it already escaped from."""
    count = 0
    for spans in jobs.values():
        escaped = [bool(s[4]) and s[4].get("raised") == exc_name for s in spans]
        passed_up = {s[1] for k, s in enumerate(spans) if escaped[k]}
        count += sum(1 for k in range(len(spans))
                     if escaped[k] and k not in passed_up)
    return count


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
