"""kdlab benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload distill_cold --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one
outside-in traced repeat and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The process runs single
threaded: BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Set-ups per untraced run; setup_s reports their median.
SETUPS = 3

# Fresh interpreters timed importing kdlab; setup_s adds their median.
IMPORTS = 5

# Printed with the end-to-end metrics but left out of the JSON result:
# mimicry_kl is exact per seed, but its spread across seeds (about 0.2 of
# its median) is too close to the largest bound a metric may have.
PRINTED_ONLY = ("mimicry_kl",)

# Time metrics, reported at the reference host speed (see hostspeed.py)
# and printed unscaled as well.
SCALED = ("wall_s", "setup_s", "stage1_s", "stage2_s", "stage2_steps_per_s")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_program():
    """Import kdlab from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "kdlab", "__init__.py")):
        raise SystemExit(f"benchmark: no kdlab sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import kdlab
    if os.path.dirname(os.path.dirname(os.path.abspath(kdlab.__file__))) != SRC:
        raise SystemExit(f"benchmark: imported kdlab from {kdlab.__file__}, not {SRC}")


def import_seconds():
    """Median wall time of a fresh interpreter importing kdlab.

    Timed in child processes, one at a time, after this process has
    imported kdlab: one in-process import is a single sample that swings
    with the file cache.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(IMPORTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kdlab"], env=env, cwd=ROOT,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None):
    args = _parse_args(argv)
    _import_program()
    import envrecord
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    env = envrecord.record(ROOT, THREAD_VARS)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        result = measure(workload, args, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def measure(workload, args, run_dir, env):
    import hostspeed
    import workloads
    from workloads import median

    reference = workloads.Reference(os.path.join(WORK, "reference"), env["code_key"],
                                    workload.name, args.seed)
    # The host-speed loop runs after each stage call and each timed block,
    # outside every reported time.
    host = hostspeed.HostSpeed()
    clock = workloads.StageClock(between=host.sample)

    def set_up(i):
        paused = clock.paused
        cache, seconds = workloads.set_up(workload, args.seed,
                                          os.path.join(run_dir, f"setup{i}"))
        return cache, seconds - (clock.paused - paused)

    with clock:
        # The first set-up primes the cache the repeats use. The others run
        # after the repeats, so the set-up samples span the whole run rather
        # than one stretch of the host's speed swings.
        cache_dir, seconds = set_up(0)
        setup_times = [seconds]
        setup_stages = clock.take()
        host.sample()

        # The first repeat in a process runs slower than later ones (the
        # heap is still growing), so warm-up repeats come first: checked,
        # not timed.
        walls, stages, all_trials, first = [], [], [], {}
        for i in range(workload.warmups):
            rep_dir = os.path.join(run_dir, f"warmup{i}")
            _, trials = workloads.run_repeat(workload, args.seed, rep_dir, cache_dir)
            workloads.gate(trials, reference, first)
            _print_trials(trials, f"warmup{i}")
            all_trials += trials
            clock.take()
            host.sample()

        # Start a repeat only if it should end within --seconds. Each
        # time metric is a median over the repeats of one run.
        t0 = time.perf_counter()
        while not walls or time.perf_counter() - t0 + walls[-1] <= args.seconds:
            rep_dir = os.path.join(run_dir, f"repeat{len(walls)}")
            paused = clock.paused
            wall, trials = workloads.run_repeat(workload, args.seed, rep_dir, cache_dir)
            wall -= clock.paused - paused
            stages.append(clock.take())
            host.sample()
            workloads.gate(trials, reference, first)
            _print_trials(trials, len(walls))
            print(f"repeat={len(walls)} wall_s={wall:.6g}", flush=True)
            walls.append(wall)
            all_trials += trials

        for i in range(1, 1 if args.trace else SETUPS):
            _, seconds = set_up(i)
            setup_times.append(seconds)
            host.sample()
        setup_stages += clock.take()

    if args.trace:
        metrics, traced_trials, problems = trace_repeat(
            workload, args, run_dir, cache_dir, reference, first)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - median(walls), "s")
        all_trials += traced_trials
    else:
        problems = []
        import_s = import_seconds()
        host.sample()
        factor = host.factor()
        print(f"host_factor {factor:.6g} x (median of {len(host.samples)} reference "
              f"loops over {hostspeed.NOMINAL_S} s)")
        unscaled = end_to_end(walls, stages, setup_stages, setup_times,
                              all_trials, import_s, 1.0)
        for name in SCALED:
            value, unit = unscaled[name]
            print(f"unscaled {name} {value:.6g} {unit}")
        metrics = end_to_end(walls, stages, setup_stages, setup_times,
                             all_trials, import_s, factor)

    failed = sum(t.error is not None for t in all_trials)
    for t in all_trials:
        if t.error is not None:
            print(f"FAILED {t.key}: {t.error.strip()}", file=sys.stderr)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"fail_frac {failed / len(all_trials):.6g} fraction")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(all_trials),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name not in PRINTED_ONLY},
    }


def end_to_end(walls, stages, setup_stages, setup_times, trials, import_s, factor):
    """End-to-end metrics of one run; times are divided by the host ``factor``.

    ``stages`` holds one stage log per timed repeat, and each time metric
    is a median over the repeats.
    """
    import resource

    from workloads import mean, median
    ok = [t for t in trials if t.error is None]
    # Per-trial stage times are means within a repeat, not medians: a
    # median picks one trial's few seconds, a mean spans all of the
    # repeat's stage time.
    stage1 = [[s for name, s, _ in rep if name == "stage1"] for rep in stages]
    if not any(stage1):
        # Cached workloads pretrain during set-up only.
        stage1 = [[s for name, s, _ in setup_stages if name == "stage1"]]
    stage2 = [[(s, n) for name, s, n in rep if name == "stage2"] for rep in stages]
    stage2 = [rep for rep in stage2 if rep]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (median(walls) / factor, "s"),
        "setup_s": ((import_s + median(setup_times)) / factor, "s"),
        "stage1_s": (median([mean(rep) for rep in stage1 if rep]) / factor, "s"),
        "stage2_s": (median([mean([s for s, _ in rep]) for rep in stage2]) / factor, "s"),
        "stage2_steps_per_s": (median([sum(n for _, n in rep) / sum(s for s, _ in rep)
                                       for rep in stage2]) * factor, "steps/s"),
        "top1": (sum(t.top1 for t in ok) / len(ok) if ok else 0.0, "fraction"),
        "mimicry_kl": (sum(t.mimicry for t in ok) / len(ok) if ok else 0.0, "nats"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def trace_repeat(workload, args, run_dir, cache_dir, reference, first):
    """One repeat under the outside-in tracer.

    Returns its per-layer metrics, its trials and a list of problems: a
    count that differs from the first traced run of this code, or self
    times that do not add up to the traced wall time.
    """
    import tracer
    import workloads

    tr = tracer.Tracer()
    rep_dir = os.path.join(run_dir, "traced")
    with tr:
        root = tr.open(tracer.ROOT_SPAN)
        try:
            _, trials = workloads.run_repeat(workload, args.seed, rep_dir, cache_dir)
        finally:
            tr.close(root)
    workloads.gate(trials, reference, first)
    _print_trials(trials, "traced")
    os.makedirs(WORK, exist_ok=True)
    tr.save(os.path.join(WORK, f"trace-{workload.name}.npz"))
    metrics = tr.report()
    layers = sum(metrics[f"layer.{name}.self_s"][0] for name in tracer.LAYERS)
    wall = metrics["trace.wall_s"][0]
    residual = layers + metrics["trace.unattributed_s"][0] - wall
    counts = {k: v for k, (v, _) in metrics.items() if tracer.is_count(k)}
    problems = [f"count {name} did not repeat" for name in reference.check("counts", counts)]
    if abs(residual) > 1e-9 * max(1.0, wall):
        problems.append(f"layer self times miss the traced wall time by {residual} s")
    return metrics, trials, problems


def _print_trials(trials, repeat):
    for t in trials:
        if t.digests:
            digests = " ".join(f"{k}={v}" for k, v in sorted(t.digests.items()))
            print(f"digest repeat={repeat} trial={t.key} {digests}")


if __name__ == "__main__":
    sys.exit(main())
