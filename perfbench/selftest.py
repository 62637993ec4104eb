#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks, in about ten seconds:

- a tiny pass of every workload (Δ <= 6, n = 10^4, one second of ops)
  with and without tracing emits exactly the metrics BENCHMARK.json
  names, each with its unit, and no op fails;
- a byte flipped in one store record after the thm1-warm set-up makes
  the following ops fail instead of pass;
- no `ld serve` child outlives its run;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(env, workload, trace, *extra):
    argv = [run.EXE, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--ld", run.LD, "--tiny", *extra]
    p = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=170)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return p, result


def serve_children():
    """Live processes running `ld.exe serve`."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        if len(argv) > 1 and argv[0].endswith(b"ld.exe") and argv[1] == b"serve":
            found.append(int(pid))
    return found


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    env = run.build()
    if env is None:
        return 2
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            p, r = bench(env, w, trace)
            tag = f"{w} --trace {trace}"
            expect(p.returncode == 0 and r is not None, f"{tag}: exits 0 with a JSON result")
            if r is None:
                print(p.stdout[-2000:], p.stderr[-2000:])
                continue
            expect(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == wanted[trace], f"{tag}: every metric, each with its unit")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{tag}: correct, {r['failed']} of {r['attempted']} ops failed")
            expect("failed_ratio 0.000000 ratio" in p.stdout, f"{tag}: failed_ratio 0 reported")
            if trace == 0:
                expect("op_p99_ms" in p.stdout, f"{tag}: op_p99_ms reported")
                expect("op_p50_ms" in p.stdout, f"{tag}: op_p50_ms reported")
            if w == "serve-warm":
                expect(serve_children() == [], f"{tag}: no ld serve outlives the run")

    p, r = bench(env, "thm1-warm", 0, "--corrupt-after-setup")
    expect(r is not None and "fault injected" in p.stdout, "fault injection ran")
    if r is not None:
        timed = r["attempted"] - 3
        expect(not r["correct"] and r["failed"] == timed and timed >= 1,
               f"corrupt record: all {timed} timed ops failed ({r['failed']} counted)")
        expect("store corrupt" in p.stdout, "corrupt record: reported as Store_corrupt")

    bare = os.path.join(".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "thm1-cold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        expect(p.returncode != 0 and "{" not in p.stdout,
               "bare directory: non-zero exit, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(".perfbench")
        except OSError:
            pass

    print(f"{len(failures)} check(s) failed" if failures else "all self-test checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
