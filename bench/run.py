"""paybid's benchmark: one command, four workloads, a traced run for layers.

    python3 bench/run.py --workload analysis --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45
    python3 bench/run.py --self-check

The run prints a table of its metrics and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones. Details, seeds and
how to read the output are in bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import platform
import resource
import shutil
import subprocess
import sys
import time

import common
from tracer import LAYERS

SELF_LAYERS = ("startup",) + LAYERS


def _declared(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _peak_rss_mb(workload: str) -> float:
    # cli-session's work happens in its children; ru_maxrss is in KiB on Linux
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _rss_now_mb() -> float:
    """This process's resident memory now, from /proc/self/status."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def _context() -> dict:
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(common.SRC.rglob("*.py")))
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {"src_lines": lines, "python": platform.python_version(), **versions}


def _round(wl, ops) -> list:
    """One round; the (part, seconds) of each call."""
    gc.collect()  # each round starts from the same heap
    ops.times = []
    wl.round()
    return ops.times


def run_untraced(wl, ops, seconds: float) -> dict:
    """Whole rounds until `seconds` are nearly spent.

    Every round makes the same calls in the same order. Each call is scored by
    its median time over the rounds: the host's speed moves by up to 1.7x in
    phases of seconds to minutes, and the median repeats better between runs
    than the fastest time, which rests on how many fast phases a run happened
    to meet (README.md, "Noise").
    """
    rounds = []
    start = time.perf_counter()
    last = 0.0
    # another round while it would end, on the last round's pace, less than
    # half a round past `seconds`
    while not rounds or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        rounds.append(_round(wl, ops))
        last = time.perf_counter() - began
    parts = [p for p, _ in rounds[0]]
    typical = [common.median(r[i][1] for r in rounds) for i in range(len(parts))]
    out = {
        "round_s": sum(typical),
        "part1_s": sum(t for p, t in zip(parts, typical) if p == 1),
        "part2_s": sum(t for p, t in zip(parts, typical) if p == 2),
        "rounds": [sum(t for _, t in r) for r in rounds],
    }
    # the share of part 2 that the tagged inputs take (trace-dataset's long
    # traces and long duels)
    for tag in sorted(set(ops.tags.values())):
        tagged = sum(typical[i] for i, t in ops.tags.items() if t == tag)
        out[f"part2_{tag}_share"] = tagged / out["part2_s"]
    return out


def run_traced(wl, ops, workdir, name: str, seed: int, import_span: tuple) -> dict:
    """A warm-up round, an untraced round and a traced round, then the probes.

    Self times come from the traced round's spans alone, plus the span of
    this process's own `import paybid`: a layer the workload never calls
    reads 0. The probes run untraced and give their own figures.
    """
    import probes
    from tracer import Tracer

    _round(wl, ops)  # warm-up: first calls fill caches and lazy imports
    untraced = sum(t for _, t in _round(wl, ops))
    tracer = Tracer()
    tracer.add_span("startup", "import paybid", *import_span)
    tracer.install()
    try:
        if name == "cli-session":
            wl.tracer = tracer
        traced = sum(t for _, t in _round(wl, ops))
    finally:
        tracer.uninstall()
        wl.tracer = None
    tracer.dump(common.WORK / "spans" / f"{name}-seed{seed}.json")

    m = {}
    self_s = tracer.self_seconds()
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["markov_engine.rows_built"] = tracer.call_count("markov_engine", "build_transitions")
    m["markov_engine.recurrence_steps"] = tracer.recurrence_steps
    m["tracing.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    m.update(probes.layer_probes(workdir))
    m.update(probes.startup_probes())
    m.update(probes.cli_probes(workdir))
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter_ns()
    import paybid
    import_span = (start, time.perf_counter_ns())
    import workloads
    if not paybid.__file__.startswith(str(common.SRC)):
        raise SystemExit(f"paybid imported from {paybid.__file__}, not from {common.SRC}")
    workdir = common.WORK / f"{name}-seed{seed}-{int(time.time() * 1e6)}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = common.setup_seconds()
        ops, check = common.Ops(), common.Checker()
        wl = workloads.WORKLOADS[name](seed, "full", check, ops, workdir)
        wl.prepare()
        # The inputs and the ground truth live for the whole run; keep the
        # collector from rescanning them inside every timed call.
        gc.collect()
        gc.freeze()
        rss_before = _rss_now_mb()
        if trace:
            measured = run_traced(wl, ops, workdir, name, seed, import_span)
        else:
            measured = run_untraced(wl, ops, seconds)
            measured.update(setup_s=setup, peak_rss_mb=_peak_rss_mb(name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in check.failures[:50]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    declared = _declared("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": measured[k], "unit": u} for k, u in declared.items()}
    result = {"correct": check.ok, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    parts = {k: v for k, v in measured.items() if k.startswith("part")}
    parts["rss_before_rounds_mb"] = rss_before
    common.write_json(common.WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json", {
        "result": result, "context": _context(), "checks": check.count, "parts": parts,
        "rounds": measured.get("rounds"), "seconds": seconds})
    print(f"{name}: {ops.attempted} operations attempted, {ops.failed} failed, "
          f"{check.count} checks, {len(check.failures)} failed")
    for key, metric in metrics.items():
        print(f"  {key:48s} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in parts.items():  # context, not in BENCHMARK.json (README.md)
        print(f"  ({key}){'':{46 - len(key)}s} {value:>16.6g}")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is its own."""
    results = {}
    for name in ("analysis", "monte-carlo", "trace-dataset", "cli-session"):
        proc = subprocess.run(
            [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=common.ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        *table, last = proc.stdout.strip().splitlines()
        print("\n".join(table))
        results[name] = json.loads(last)
    print(json.dumps(results, sort_keys=True))
    return 0


def self_check() -> int:
    """Every check on small inputs: all pass, and each fails once its
    expected value is moved (a revenue by 1e-6 relative, a bid dropped from
    the ground truth, a bound put just past the observed value)."""
    import workloads
    status = 0
    for name, cls in workloads.WORKLOADS.items():
        workdir = common.WORK / f"self-check-{name}-{int(time.time() * 1e6)}"
        ops, check = common.Ops(), common.Checker(record=True)
        try:
            wl = cls(7, "small", check, ops, workdir)
            wl.prepare()
            wl.round()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        caught, missed = check.perturbed_failures()
        print(f"{name}: {ops.attempted} operations, {ops.failed} failed; {check.count} checks, "
              f"{len(check.failures)} failed on true values, {caught} of {len(check.records)} "
              f"failed once perturbed")
        for failure in check.failures:
            print(f"  FAILED: {failure}")
        for miss in missed:
            print(f"  NOT CAUGHT: {miss}")
        if ops.failed or check.failures or missed or not check.records:
            status = 1
    print("self-check", "passed" if status == 0 else "FAILED")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("analysis", "monte-carlo", "trace-dataset",
                                               "cli-session", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every check on small inputs and perturb each one")
    args = parser.parse_args(argv)
    if not (common.SRC / "paybid" / "__init__.py").is_file():
        print(f"no paybid sources under {common.SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    common.prepare_process()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
