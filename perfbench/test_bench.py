#!/usr/bin/env python3
"""The benchmark's own test.  Run from the root of a checkout:

    python3 perfbench/test_bench.py

1. BENCHMARK.json: metric names match [A-Za-z0-9_.-]+ and are unique,
   at most 16 end-to-end and 128 per-layer metrics, setup_s present.
2. Every workload, at reduced size on the held-out seed, untraced and
   traced: all output checks pass, the run emits exactly the metrics
   BENCHMARK.json lists for its mode, and the simulated-output digest of
   the traced run equals the untraced one.
3. A reduced-size soak gives the same digest with a pool of 1 domain and
   with a pool of nproc domains.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as runner  # noqa: E402

HELD_OUT_SEED = 7
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
failures = []


def expect(what, ok):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e, layers = bench["end_to_end"], bench["per_layer"]
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in bench["workloads"]]
    expect("metric and workload names match [A-Za-z0-9_.-]+",
           all(NAME.match(n) for n in names))
    expect("names are unique", len(names) == len(set(names)))
    expect("1..16 end-to-end metrics (%d)" % len(e2e), 1 <= len(e2e) <= 16)
    expect("1..128 per-layer metrics (%d)" % len(layers), 1 <= len(layers) <= 128)
    expect("setup_s is an end-to-end metric in s, lower is better",
           {"name": "setup_s", "unit": "s", "better": "lower"}.items()
           <= next((m for m in e2e if m["name"] == "setup_s"), {}).items())
    expect("every bound is in (0, 0.25]", all(0 < m["bound"] <= 0.25 for m in e2e))
    return bench


def run_once(exe, workload, trace, extra=()):
    args = ["--workload", workload, "--seed", str(HELD_OUT_SEED), "--seconds", "0",
            "--size", "small", "--trace", str(trace)] + list(extra)
    code, out = runner.run(exe, args, capture=True)
    lines = out.strip().splitlines()
    provenance = json.loads(lines[-2])
    result = json.loads(lines[-1])
    return code, provenance, result


def main():
    bench = bench_json()
    exe = runner.build()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        digests = []
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, prov, result = run_once(exe, name, trace)
            what = "%s --trace %d" % (name, trace)
            expect(what + ": all checks pass and exit 0",
                   code == 0 and result["correct"] and result["failed"] == 0)
            expect(what + ": emits exactly the metrics of BENCHMARK.json",
                   list(result["metrics"]) == [m["name"] for m in wanted])
            expect(what + ": units match BENCHMARK.json",
                   all(units.get(k) == m["unit"] for k, m in result["metrics"].items()))
            expect(what + ": provenance names the seed", prov["provenance"]["seed"] == HELD_OUT_SEED)
            digests.append(prov["digest"])
        expect(name + ": traced and untraced simulated digests are equal",
               digests[0] == digests[1] and digests[0] != "")
    one = run_once(exe, "soak-1core", 0, ["--domains", "1"])[1]["digest"]
    many = run_once(exe, "soak-1core", 0, ["--domains", str(os.cpu_count() or 1)])[1]["digest"]
    expect("soak-1core: pool of 1 and of nproc domains give the same digest", one == many)
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
