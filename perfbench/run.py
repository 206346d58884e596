#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload corpus|sweep|campaign \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The build goes to _build/ (dune's
default, no shared cache); everything else the run writes lives under
perfbench/_work/ and is removed when it ends.  Build output goes to
stderr, so the last line of stdout is the benchmark's result object.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run_group(argv, timeout, **kw):
    """Run argv in its own process group; when it ends, times out or this
    script is told to stop, kill the group, so no daemon or campaign
    worker outlives the run."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {argv[0]} timed out after {timeout}s", file=sys.stderr)
        return 124
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main():
    needed = ["dune-project", "lib", os.path.join("corpus", "MANIFEST")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: not a checkout of the repository (missing "
              + ", ".join(missing) + ")", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run_group(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                     BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    return run_group([exe] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
