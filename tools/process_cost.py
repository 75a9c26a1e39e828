"""Wall time and peak RSS of cold ``selmix`` command-line children, split into
interpreter start, command and exit.

    python tools/process_cost.py [--src DIR ...] [--runs 12]

Each run starts one fresh interpreter per command: ``--version``,
``simulate`` (n = 300), ``fit`` on the planted data (n = 300, d = 2) and on
the tall data (n = 3000, d = 5) with the flags of the bench workloads of the
same names (``bench/workloads.py``), ``analyze`` of each of the two traces,
and ``elicit-zeta --k 5`` (default grid and ``--reps``) on each of the two
datasets.  Every child writes into a directory of its own, deleted after the
run, so no child overwrites a file.  ``--src`` names a ``src`` directory
whose ``selmix`` the children import (default: this checkout's); with
several, each run goes through them in turn, starting from the next one each
run.

Trees are compared on equal bytecode: the children of each ``--src`` read
and write their ``.pyc`` files in a cache of its own under this tool's temp
directory (``PYTHONPYCACHEPREFIX``, with ``PYTHONDONTWRITEBYTECODE``
removed), so a ``__pycache__`` left in one tree and not in another moves
nothing.  Before any timing, each tree runs every command once, untimed,
which fills its cache.

A child runs ``selmix.cli.main()`` and reads ``time.perf_counter`` (the
monotonic clock, which this launcher reads too) at its first line and when
``main()`` raises SystemExit.  That splits its wall time into:

- start: from the spawn to the child's first line (the interpreter's own
  start-up and ``site``);
- command: from there to the SystemExit, the imports and the work;
- exit: from there until the child is reaped (interpreter finalisation).

Peak RSS is the child's ``ru_maxrss`` from ``os.wait4``.  This launcher
imports no numpy and spawns with ``posix_spawn``, so that figure is the
child's own and not a copy of a large parent.  The inputs are made once, by
an untimed child.  The table gives medians over the runs, in ms and MB;
``*_NUM_THREADS`` variables are printed first and passed on unchanged,
because BLAS threads move the timings.  Exits 1 if any child failed.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# writes the tall data and prints the planted and tall fit flags, in a child
# so that this process never loads numpy
SETUP = """
import json, sys
sys.path.insert(0, {bench!r})
from workloads import WORKLOADS, make_tall
from selmix.io import write_dataset
write_dataset({tall!r}, make_tall(1))
print(json.dumps({{name: WORKLOADS[name].fit_flags for name in ("planted", "tall")}}))
"""

# reports (first line, SystemExit) readings of the monotonic clock on fd {fd}
CHILD = """import time
start = time.perf_counter()
import os
from selmix.cli import main
try:
    main()
except SystemExit:
    os.write({fd}, repr((start, time.perf_counter())).encode())
    raise
"""

PARTS = ("total", "start", "command", "exit")


def commands(work, flags):
    """(name, argv) of one run's children, writing under ``work``."""
    planted, tall = work.parent / "planted.csv", work.parent / "tall.csv"
    fits = {"planted": planted, "tall": tall}
    out = [("--version", ["--version"]),
           ("simulate", ["simulate", "--seed", "1", "--out", str(work / "sim.csv")])]
    for name, data in fits.items():
        fit_dir, analyze_dir = work / f"fit-{name}", work / f"analyze-{name}"
        out.append((f"fit {name}", ["fit", "--data", str(data), "--out-dir", str(fit_dir),
                                    "--seed", "1", *flags[name]]))
        out.append((f"analyze {name}", ["analyze", "--trace",
                                        str(fit_dir / "trace_chain0.ndjson"),
                                        "--out-dir", str(analyze_dir)]))
    out += [(f"elicit-zeta {name}", ["elicit-zeta", "--data", str(data), "--k", "5"])
            for name, data in fits.items()]
    return out


def child_env(src, cache):
    """The environment of ``src``'s children: ``src`` leads PYTHONPATH, and
    bytecode is read from and written to ``cache`` alone."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""),
               PYTHONPYCACHEPREFIX=str(cache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, env, err_path):
    """Run ``selmix.cli.main()`` on ``argv`` in a fresh interpreter, its stderr
    into ``err_path``; returns ({part: ms}, peak RSS in MB, None) or (None,
    None, the child's stderr)."""
    read_fd, write_fd = os.pipe()
    os.set_inheritable(write_fd, True)
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644)]
    code = CHILD.format(fd=write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        spawned = time.perf_counter()
        try:
            pid = os.posix_spawn(sys.executable, [sys.executable, "-c", code, *argv], env,
                                 file_actions=actions)
        finally:
            os.close(write_fd)
        _, status, usage = os.wait4(pid, 0)
        reaped = time.perf_counter()
        report = pipe.read()
    if os.waitstatus_to_exitcode(status) != 0 or not report:
        return None, None, err_path.read_text()
    start, end = ast.literal_eval(report.decode())
    ms = {"total": reaped - spawned, "start": start - spawned, "command": end - start,
          "exit": reaped - end}
    return {k: 1e3 * v for k, v in ms.items()}, usage.ru_maxrss / 1024.0, None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="a src directory holding selmix (repeatable)")
    parser.add_argument("--runs", type=int, default=12)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    srcs = [p.resolve() for p in (args.src or [ROOT / "src"])]
    threads = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    print(f"env *_NUM_THREADS: {threads or 'none set'}")

    root = Path(tempfile.mkdtemp(prefix="process_cost-"))
    envs = {src: child_env(src, root / "pycache" / str(i)) for i, src in enumerate(srcs)}
    failed = 0
    try:
        setup = SETUP.format(bench=str(ROOT / "bench"), tall=str(root / "tall.csv"))
        flags = json.loads(subprocess.run([sys.executable, "-c", setup], capture_output=True,
                                          text=True, env=envs[srcs[0]], check=True).stdout)
        subprocess.run([sys.executable, "-m", "selmix.cli", "simulate", "--seed", "1",
                        "--out", str(root / "planted.csv")], env=envs[srcs[0]], check=True)

        samples = {}
        names = [name for name, _ in commands(root, flags)]
        # run 0 is the untimed warm-up that fills each tree's bytecode cache
        for run in range(args.runs + 1):
            for k in range(len(srcs)):
                src = srcs[(run + k) % len(srcs)]
                work = root / "run"
                work.mkdir()
                for name, cmd in commands(work, flags):
                    ms, rss, err = spawn(cmd, envs[src], work / "stderr.txt")
                    if ms is None:
                        failed += 1
                        print(f"FAILED {name} ({src}, run {run}):\n{err[-1000:]}")
                    elif run > 0:
                        samples.setdefault((name, src), []).append((ms, rss))
                shutil.rmtree(work)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    print(f"medians over {args.runs} runs per command and src (ms; peak RSS in MB), "
          "after one untimed run per src; bytecode caches warm, one per src")
    print(f"{'command':<19} {'src':<40} " + " ".join(f"{p:>8}" for p in PARTS) + f" {'rss':>7}")
    for name, src in sorted(samples, key=lambda key: (names.index(key[0]), srcs.index(key[1]))):
        rows = samples[name, src]
        parts = [statistics.median(ms[p] for ms, _ in rows) for p in PARTS]
        rss = statistics.median(r for _, r in rows)
        print(f"{name:<19} {str(src)[-40:]:<40} " + " ".join(f"{v:8.1f}" for v in parts)
              + f" {rss:7.1f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
