#!/usr/bin/env python3
"""Build the benchmark and `ld` from source, then run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload thm1-cold --seed 1 --seconds 20 --trace 0

The build log goes to stderr. The workload's report goes to stdout, and
its last line is the JSON result. Every workload runs at one domain
(LD_DOMAINS=1) and on one CPU, the `ld serve` child included.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
LD = os.path.join("_build", "default", "bin", "ld.exe")


def build():
    """Build both executables; return the environment to run them in,
    or None when this is not a source checkout or the build fails."""
    root = os.getcwd()
    needed = ("dune-project", "lib", "bin", os.path.join("perfbench", "dune"))
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(
            "perfbench: run from the root of a source checkout; missing: "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return None
    env = dict(os.environ)
    # Keep every write inside the checkout (no shared dune cache), and
    # stop git's provenance probe at the checkout root.
    env["DUNE_CACHE"] = "disabled"
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(root)
    env["LD_DOMAINS"] = "1"
    built = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/ld.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return env


def main():
    env = build()
    if env is None:
        return 2
    # The workload, its host-speed probe and any `ld serve` child run one
    # at a time; on one CPU the probe measures the CPU the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    os.execve(EXE, [EXE] + sys.argv[1:] + ["--ld", LD], env)


if __name__ == "__main__":
    sys.exit(main())
