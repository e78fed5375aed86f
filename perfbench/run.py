"""hermsig benchmark: one workload per run, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload split-q --seed 1 --seconds 15 --trace 0

The program under test is the source tree in `src/` next to this directory;
nothing is installed. One process runs one caller in a closed loop: the next
operation starts when the previous one has returned. Only the operations
are timed. Inputs are drawn from the seed, and every result is checked
outside the timed region.

`--trace 0` sets up the workload several times (the median is `setup_s`),
then runs whole cycles until `--seconds` of operation time and at least
MIN_OPS operations are done, and reports the end-to-end metrics.

`--trace 1` runs set-up and one cycle four times, plain and with every
layer wrapped (see tracer.py), checks that all four give identical results,
and reports the per-layer metrics of a traced run and the traced wall time
divided by the plain wall time. The traced work is fixed, so its
counts repeat exactly; `--seconds` does not apply.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Earlier lines are a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_MIN_TOTAL_S = 2.0


def _load_design() -> dict:
    with open(HERE / "design.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_program() -> float:
    """Import hermsig from this checkout's source tree; return the time."""
    if not (SRC / "hermsig" / "__init__.py").is_file():
        raise SystemExit(f"no hermsig source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import hermsig  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(hermsig.__file__).resolve().parent != (SRC / "hermsig").resolve():
        raise SystemExit(f"imported hermsig from {hermsig.__file__}, not {SRC}")
    return elapsed


class Runner:
    """Runs cycles of operations and keeps times, results and failures.

    `untimed` wraps the checks, so that a traced run can leave them out.
    """

    def __init__(self, keep_results: bool, untimed=contextlib.nullcontext):
        self.untimed = untimed
        self.times: list[float] = []
        self.failed = 0
        self.results: list = [] if keep_results else None
        self.errors: list[str] = []

    def run_cycle(self, groups) -> None:
        for group in groups:
            results, bad = [], set()
            for i, (label, thunk) in enumerate(group.ops):
                start = time.perf_counter()
                try:
                    result = thunk()
                except Exception as exc:  # a raising operation is a failed one
                    result = exc
                    bad.add(i)
                    self._note(f"{label} raised {exc!r}")
                self.times.append(time.perf_counter() - start)
                results.append(result)
            if not bad:
                try:
                    with self.untimed():
                        wrong = group.verify(results)
                except Exception as exc:  # a check that cannot run fails its group
                    wrong = range(len(results))
                    self._note(f"check of {group.ops[0][0]} raised {exc!r}")
                for i in wrong:
                    self._note(f"{group.ops[i][0]} gave a wrong result")
                bad.update(wrong)
            self.failed += len(bad)
            if self.results is not None:
                self.results.extend(repr(r) if isinstance(r, Exception) else r for r in results)

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def _set_up(workload, seed: int):
    state = workload.setup(seed)
    return state, workload.cycle(state, 0)


def measure(workload, seed: int, seconds: float, import_s: float) -> tuple[dict, Runner]:
    setups = []
    while True:
        start = time.perf_counter()
        state, first = _set_up(workload, seed)
        setups.append(time.perf_counter() - start)
        enough = len(setups) >= SETUP_MIN_REPEATS and sum(setups) >= SETUP_MIN_TOTAL_S
        if enough or len(setups) >= SETUP_MAX_REPEATS:
            break
    runner = Runner(keep_results=False)
    groups, c = first, 0
    while True:
        runner.run_cycle(groups)
        if sum(runner.times) >= seconds and len(runner.times) >= MIN_OPS:
            break
        c += 1
        groups = workload.cycle(state, c)
    times = runner.times
    q = statistics.quantiles(times, n=10, method="inclusive")
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (q[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"set-up repeats: {len(setups)}; cycles: {c + 1}; operation time {sum(times):.3f} s")
    return metrics, runner


def _fixed_run(workload, seed: int, untimed=contextlib.nullcontext) -> tuple[Runner, float]:
    """Set-up and its first cycle; `untimed` wraps the checks, as in measure()."""
    start = time.perf_counter()
    _, groups = _set_up(workload, seed)
    runner = Runner(keep_results=True, untimed=untimed)
    runner.run_cycle(groups)
    return runner, time.perf_counter() - start


def _traced_run(workload, seed: int, extra_namespaces):
    import tracer

    t = tracer.Tracer()
    t.install(extra_namespaces)
    try:
        runner, seconds = _fixed_run(workload, seed, untimed=t.paused)
    finally:
        t.uninstall()
    return t, runner, seconds


def trace(workload, seed: int, layers) -> tuple[dict, Runner, bool]:
    """Plain, traced, traced, plain: the order cancels a steady drift of
    the machine's speed out of the overhead ratio. The per-layer metrics
    are those of the first traced run."""
    import workloads

    plain, plain_s = _fixed_run(workload, seed)
    t, traced, traced_s = _traced_run(workload, seed, [workloads])
    _, traced2, traced2_s = _traced_run(workload, seed, [workloads])
    plain2, plain2_s = _fixed_run(workload, seed)
    runs = (plain, traced, traced2, plain2)
    same = all(r.results == plain.results for r in runs)
    if not same:
        traced._note("traced results differ from the plain run's")
    metrics = {k: (v["value"], v["unit"]) for k, v in t.metrics(layers).items()}
    ratio = (traced_s + traced2_s) / (plain_s + plain2_s)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    print(f"plain runs {plain_s:.3f} s, {plain2_s:.3f} s; traced runs {traced_s:.3f} s, "
          f"{traced2_s:.3f} s; same results: {same}")
    return metrics, traced, same and all(r.failed == 0 for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    design = _load_design()
    if args.workload not in design["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(design['workloads'])}")
    import_s = _import_program()
    import workloads

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, workdir)
    try:
        if args.trace:
            metrics, runner, ok = trace(workload, args.seed, design["layers"])
        else:
            metrics, runner = measure(workload, args.seed, args.seconds, import_s)
            ok = True
    finally:
        if workdir.exists():
            shutil.rmtree(workdir)
            with contextlib.suppress(OSError):
                workdir.parent.rmdir()

    attempted, failed = len(runner.times), runner.failed
    for message in runner.errors:
        print(f"error: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    print(f"{'ops_failed':48s} {failed:>14d} count")
    print(f"{'ops_attempted':48s} {attempted:>14d} count")
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
