"""Smoke check of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

Runs `hibi betti --grid 2 3`, the census of lattices with at most 6 elements
and `buchberger_check` on grid 2x3 through the benchmark's own harness, once
untraced and once traced.  It asserts that every metric named in
BENCHMARK.json is printed with its unit, that every answer checks against its
pin, and that a deliberately wrong pin (53 for the 52 generators of grid 2x3)
raises fail_ratio.  Exits 0 when all of that holds, 1 otherwise.
"""

import io
import json
import re
import sys

import run
from workloads import Workload, betti_job, buchberger_job, census_job


def tiny(name, betti_pin=None):
    return Workload(name, "smoke check on tiny inputs",
                    (betti_job(2, 3, betti_pin), census_job(6),
                     buchberger_job(2, 3)),
                    {"grids": [[2, 3]], "census": 6})


def report(workload, trace, units):
    out = io.StringIO()
    result = run.run_benchmark(run.HERE.parent, workload, 0, 0.1, trace,
                               units, out)
    return out.getvalue(), result


def printed(text, name, unit):
    match = re.search(rf"^{re.escape(name)} (\S+) {re.escape(unit)}\b",
                      text, re.M)
    return float(match.group(1)) if match else None


def main():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        text, result = report(tiny("smoke"), trace, units)
        for m in metrics + [{"name": "fail_ratio", "unit": "ratio"}]:
            if printed(text, m["name"], m["unit"]) is None:
                problems.append(f"trace {trace}: {m['name']} not printed "
                                f"with unit {m['unit']}")
        if set(result["metrics"]) != {m["name"] for m in metrics}:
            problems.append(f"trace {trace}: result metrics "
                            f"{sorted(result['metrics'])}")
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: answers failed\n{text}")
    text, result = report(tiny("smoke-wrong-pin", betti_pin=53), 0, units)
    if result["correct"] or not result["failed"] or not printed(
            text, "fail_ratio", "ratio"):
        problems.append(f"a wrong pin did not raise fail_ratio\n{text}")
    for p in problems:
        print(p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
