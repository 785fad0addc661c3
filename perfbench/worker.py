"""Run one benchmark job in this process: a `hibi` command, a library call, or
the set-up of a workload.

    python3 perfbench/worker.py ROOT SPEC_JSON [TRACE_OUT]

SPEC_JSON is {"cli": argv}, {"call": NAME, "grid": [M, N]} or
{"setup": {"grids": [[M, N], ...], "census": N}}.  The package is imported
from ROOT/src.  With TRACE_OUT, the package's public functions are wrapped in
spans before the job runs and the spans are written there when it ends.
The exit code is the job's: 0 success, 2 a mathematical mismatch, 1 anything
else.
"""

import json
import os
import sys


def _import_package(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import hibiring
    import hibiring.cli  # not imported by the package itself
    if not os.path.abspath(hibiring.__file__).startswith(src + os.sep):
        raise ImportError(f"hibiring imported from {hibiring.__file__}, "
                          f"not from {src}")


def _setup(spec):
    # Attribute lookups go through the modules so that tracing sees them.
    from hibiring import ideal, lattice
    lattices = [lattice.grid(m, n) for m, n in spec.get("grids", [])]
    if spec.get("census"):
        lattices += [L for L in lattice.enumerate_distributive(spec["census"])
                     if L.n > 1]
    for L in lattices:
        ideal.hibi_ideal(L)
    return 0


def _call(name, grid):
    from hibiring import errors, ideal, lattice, oracle
    I = ideal.hibi_ideal(lattice.grid(*grid))
    try:
        if name == "first_betti_oracle":
            answer = {"first_betti": oracle.first_betti_oracle(I)}
        elif name == "buchberger_check":
            answer = {"passed": ideal.buchberger_check(I).passed}
        else:
            raise ValueError(f"unknown library call {name!r}")
    except (errors.NotGroebner, errors.OracleMismatch) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    print(json.dumps(answer))
    return 0


def run(spec):
    if "setup" in spec:
        return _setup(spec["setup"])
    if "cli" in spec:
        from hibiring import cli
        return cli.main(spec["cli"])
    return _call(spec["call"], spec["grid"])


def main(argv):
    root, spec = argv[1], json.loads(argv[2])
    _import_package(root)
    if len(argv) < 4:
        return run(spec)
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return run(spec)
    finally:
        sys.stdout.flush()
        tracer.dump(argv[3])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
