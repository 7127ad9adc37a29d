"""One whole run of `default_scenario` at a given transaction count, in a
fresh interpreter, measured from outside it:

    python3 tools/scale_run.py --count 10000 [--seed 7] [--src DIR]

The run uses `scenario.completing_horizon`, so it confirms every
transaction, and writes its artifacts to a temporary directory, which is
removed afterwards. The tool starts the run as its only child process and
prints one JSON object: the child's CPU time (user + system) and
`ru_maxrss`, both read with `getrusage(RUSAGE_CHILDREN)` once the child has
exited, and what the child reports: its run's CPU time from scenario to
written artifacts, the confirmed count, the rounds and the sha256 of each
artifact. `--src` runs another checkout's `src/` (for example a parent
commit's) with the horizon this checkout computes, so two versions are
measured by one method.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The child: argv is src, count, seed, horizon. Artifacts are hashed in
# chunks, so reading them adds nothing to the child's peak memory.
CHILD = """
import hashlib, json, shutil, sys, tempfile, time
from dataclasses import replace
from pathlib import Path

src, count, seed, horizon = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
sys.path.insert(0, src)
from relaysim import harness
from relaysim.scenario import default_scenario

start = time.process_time()
out = Path(tempfile.mkdtemp(prefix="relaysim-scale-run-"))
try:
    result = harness.run(replace(default_scenario(seed=seed, count=count), horizon_rounds=horizon), out)
    run_cpu_s = time.process_time() - start
    digests = {}
    for path in sorted(out.iterdir()):
        with open(path, "rb") as fh:
            digests[path.name] = hashlib.file_digest(fh, "sha256").hexdigest()
finally:
    shutil.rmtree(out)
print(json.dumps({"run_cpu_s": run_cpu_s, "confirmed": result.confirmed, "ok": result.ok,
                  "rounds": result.env.round, "digests": digests}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, required=True, help="transactions submitted up front")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--src", type=Path, default=SRC, help="the src/ directory whose relaysim runs")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be positive")

    sys.path.insert(0, str(SRC))
    from relaysim.scenario import completing_horizon, default_scenario

    horizon = completing_horizon(default_scenario(seed=args.seed, count=args.count), args.count)
    cmd = [sys.executable, "-c", CHILD, str(args.src.resolve()), str(args.count), str(args.seed), str(horizon)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "count": args.count,
        "seed": args.seed,
        "horizon_rounds": horizon,
        "src": str(args.src.resolve()),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "ru_maxrss_mb": usage.ru_maxrss / 1024,
        **json.loads(proc.stdout.strip().splitlines()[-1]),
    }
    print(json.dumps(report, sort_keys=True))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
