#!/usr/bin/env python3
"""Self-tests of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that a tiny size of every
workload prints every named metric (untraced and traced) and passes the
correctness gate, that counts repeat exactly between two tiny runs, and
that the command fails cleanly when the simulator sources are missing.
Exits 0 when every check passes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    expect(1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128,
           f"{len(e2e)} end-to-end and {len(layers)} per-layer metrics")
    names = [m["name"] for m in e2e + layers + spec["workloads"]]
    expect(len(names) == len(set(names)), "names are unique")
    expect(all(NAME.fullmatch(n) for n in names), "names match [A-Za-z0-9_.-]+")
    expect(all(UNIT.fullmatch(m["unit"]) for m in e2e + layers), "units are valid")
    expect(all(m["better"] in ("higher", "lower") for m in e2e + layers),
           "every metric says which way is better")
    bounds = {m["name"]: m["bound"] for m in e2e}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "bounds within (0, 0.25]")
    expect(bounds.get("setup_s") == max(bounds.values()),
           "setup_s has the largest bound")
    expect(2 <= len(spec["workloads"]) <= 8 and
           all(len(w["why"]) <= 200 for w in spec["workloads"]),
           "2-8 workloads, each with a short why")


def check_workload(spec, workload):
    counts = []
    for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"]),
                          (1, spec["per_layer"])):
        proc = run(workload, trace)
        res = result(proc)
        label = f"{workload} --trace {trace}"
        expect(proc.returncode == 0 and res is not None and res["correct"],
               f"{label}: exits 0 and passes the correctness gate")
        if res is None:
            continue
        names = [m["name"] for m in wanted]
        expect(list(res["metrics"]) == names, f"{label}: prints every named metric")
        expect(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
               f"{label}: every value is a number")
        expect(isinstance(res["attempted"], int) and res["attempted"] >= 1
               and isinstance(res["failed"], int), f"{label}: attempted/failed")
        if trace:
            counts.append({k: m["value"] for k, m in res["metrics"].items()
                           if m["unit"] == "count"})
    if len(counts) == 2:
        expect(counts[0] == counts[1], f"{workload}: counts repeat exactly")


def check_bare_directory(spec):
    """Only BENCHMARK.json and the benchmark's own files: must fail."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and result(proc) is None,
           "without the simulator sources the command fails and prints no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for w in spec["workloads"]:
        check_workload(spec, w["name"])
    check_bare_directory(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
