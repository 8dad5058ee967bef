"""Time one CLI workload of two thermoduct source trees, interleaved.

Usage::

    python tests/compare_timing.py PARENT_SRC CHILD_SRC [--workload NAME]
        [--rounds N] [--divisions NX NY NZ]

PARENT_SRC and CHILD_SRC are ``src`` directories, as for
``compare_artifacts.py``.  NAME is a workload of ``perfbench/workloads.py``
(default ``channel_solve``); its CLI subcommand runs on its file under
``perfbench/configs``, which is only read: ``--divisions`` writes a copy
with the ``[geometry]`` divisions set into a temporary directory.  Each
round runs both trees, each in a fresh process with one BLAS thread, and
the tree that runs first alternates from round to round.  A run's time is
the wall time of its whole process, interpreter and imports included.

It prints every pair, the median of the per-round ratios child / parent
and how many rounds each side won.  It gates nothing: the exit status is
0 whatever the times, and 1 only when the runs do not all exit with the
same code.  This file is a tool, not a test: pytest does not collect
it.
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

from compare_artifacts import ROOT, start, with_keys

sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def timed(src, command, config, out):
    """(wall seconds, exit code) of one fresh-process run."""
    t0 = time.perf_counter()
    proc = start(src, command, config, out)
    _, err = proc.communicate()
    elapsed = time.perf_counter() - t0
    if proc.returncode not in (0, 3, 4):
        print(err.strip(), file=sys.stderr)
    return elapsed, proc.returncode


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("child_src", type=Path)
    parser.add_argument("--workload", default="channel_solve", choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--divisions", type=int, nargs=3, metavar=("NX", "NY", "NZ"),
                        help="the [geometry] divisions of the run")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.child_src):
        if not (src / "thermoduct" / "cli.py").is_file():
            parser.error(f"no thermoduct package under {src}")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    workload = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = ROOT / "perfbench" / "configs" / workload.config
        if args.divisions:
            mesh = dict(zip(("nx", "ny", "nz"), map(str, args.divisions)))
            text = with_keys(config.read_text(encoding="utf-8"), {"geometry": mesh})
            config = tmp / workload.config
            config.write_text(text, encoding="utf-8")
        mesh = "x".join(map(str, args.divisions)) if args.divisions else "its own mesh"
        print(f"{args.workload} ({workload.command} {config.name}, {mesh}), "
              f"{args.rounds} rounds")
        print("round  first   parent_s  child_s  child/parent")
        ratios, codes, child_won = [], set(), 0
        for k in range(args.rounds):
            sides = [("parent", args.parent_src), ("child", args.child_src)]
            if k % 2:
                sides.reverse()
            times = {}
            for side, src in sides:
                times[side], code = timed(src, workload.command, config, tmp / f"{side}{k}")
                codes.add(code)
            ratios.append(times["child"] / times["parent"])
            child_won += times["child"] < times["parent"]
            print(f"{k + 1:5d}  {sides[0][0]:6s}  {times['parent']:8.3f}  {times['child']:7.3f}"
                  f"  {ratios[-1]:.3f}")
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"median child/parent {statistics.median(ratios):.3f} "
          f"(quartiles {q1:.3f} to {q3:.3f}); rounds won: child {child_won}, "
          f"parent {args.rounds - child_won}")
    if len(codes) > 1:
        print(f"exit codes differ between runs: {sorted(codes)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
