"""Self-test of the benchmark's traced run.

    python3 perfbench/check_trace.py [--seed N] [--workload NAME ...]

Checks, from the root of a checkout:

1. Installing the tracer replaces every binding of every traced function:
   in the defining module, in each module that imported it by name, in the
   package re-exports and on classes. No hermsig namespace keeps an
   unwrapped original, and uninstalling restores every binding.
2. The per-layer metric names of design.json are the `per_layer` list of
   BENCHMARK.json, and the workloads and end-to-end metrics of
   BENCHMARK.json are the ones design.json describes.
3. For each workload, `run.py --trace 1` reports correct results (its
   traced outputs equal its plain outputs), prints exactly the per-layer
   metrics of BENCHMARK.json with their units, and records at least one
   call of every layer that design.json says the workload exercises. The
   tracing overhead is printed.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_wrapping(failures: list[str]) -> None:
    sys.path.insert(0, str(HERE))
    import run

    run._import_program()
    import tracer
    import workloads

    t = tracer.Tracer()
    modules = tracer._hermsig_modules()
    namespaces = {}
    for name, mod in list(modules.items()) + [("workloads", workloads)]:
        namespaces[name] = vars(mod)
        for k, v in vars(mod).items():
            if isinstance(v, type) and v.__module__ == name:
                namespaces[f"{name}.{k}"] = vars(v)
    before = {where: dict(ns) for where, ns in namespaces.items()}
    t.install(extra_namespaces=[workloads])
    try:
        for prefix, originals in t.originals.items():
            if not originals:
                failures.append(f"{prefix}: no traced function found")
        untraced = {id(fn): prefix for prefix, fns in t.originals.items() for fn in fns}
        for where, ns in namespaces.items():
            for attr, value in ns.items():
                fn = getattr(value, "__func__", value)
                if id(fn) in untraced:
                    failures.append(f"{where}.{attr} still binds the untraced {untraced[id(fn)]}")
        for where in ("hermitian.mat_mul", "quadform.symmetric_diagonalize", "azumaya.total_signature"):
            mod, attr = where.split(".")
            if not hasattr(getattr(modules[f"hermsig.{mod}"], attr), "__wrapped__"):
                failures.append(f"hermsig.{where} is not wrapped")
    finally:
        t.uninstall()
    for where, ns in namespaces.items():
        if dict(ns) != before[where]:
            failures.append(f"{where}: uninstall did not restore every binding")


def check_names(design: dict, bench: dict, failures: list[str]) -> None:
    names = [f"{row['prefix']}.{k}" for row in design["layers"] for k in row["stats"]]
    names.append("trace.overhead_ratio")
    if [m["name"] for m in bench["per_layer"]] != names:
        failures.append("BENCHMARK.json per_layer differs from the layers of design.json")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(design["workloads"]):
        failures.append("BENCHMARK.json workloads differ from design.json")
    for m in bench["end_to_end"]:
        if m["name"] not in design["end_to_end"]:
            failures.append(f"design.json does not describe {m['name']}")


def check_workload(name: str, seed: int, design: dict, bench: dict, failures: list[str]) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        failures.append(f"{name}: run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if not result["correct"]:
        failures.append(f"{name}: traced run not correct: {proc.stderr.strip()[-500:]}")
    for m in bench["per_layer"]:
        if metrics.get(m["name"], {}).get("unit") != m["unit"]:
            failures.append(f"{name}: {m['name']} missing or not in {m['unit']}")
    if len(metrics) != len(bench["per_layer"]):
        failures.append(f"{name}: the traced run reports metrics that BENCHMARK.json does not list")
    for row in design["layers"]:
        if name not in row["exercised_on"]:
            continue
        stat = "calls" if "calls" in row["stats"] else row["stats"][0]
        if not metrics.get(f"{row['prefix']}.{stat}", {}).get("value"):
            failures.append(f"{name}: {row['prefix']}.{stat} is 0 on a workload that exercises it")
    ratio = metrics["trace.overhead_ratio"]["value"]
    print(f"{name}: {result['attempted']} traced operations, overhead {ratio:.3f} (traced / plain wall time)")


def main() -> int:
    design = json.loads((HERE / "design.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=sorted(design["workloads"]))
    args = parser.parse_args()
    failures: list[str] = []
    check_wrapping(failures)
    check_names(design, bench, failures)
    for name in args.workload or sorted(design["workloads"]):
        check_workload(name, args.seed, design, bench, failures)
    for f in failures:
        print(f"FAIL {f}")
    print("all checks passed" if not failures else f"{len(failures)} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
