"""rslab benchmark: one command, three workloads, checked answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {census,hosts,enumerate} --seed N \
        --seconds S --trace {0,1}

The program runs from ``src/`` of the checkout, with one worker and no
threads.  Each timed unit of a workload runs in a child forked from the
set-up process, so no state one unit leaves in the process, whatever caches
a later version adds, reaches the next; the child also empties rslab's
functools caches that set-up filled.  Units run one at a time.  The census
cache is a fresh empty directory under ``.bench_build/`` for every unit, and
``RSLAB_CACHE`` is removed from the environment.

With ``--trace 0`` units repeat while another one still fits in
``--seconds``, and the last line holds the end-to-end metrics.  Times there
are scaled to a reference machine speed by a probe that runs interleaved
with each unit (``SpeedProbe``) and around each set-up sample; the raw times
are printed above it.  With
``--trace 1`` one untraced and one traced unit run; the last line holds the
per-layer metrics, and the spans go to ``.bench_build/perfbench/``.

Every answer is checked against ``perfbench/reference.json``; a wrong answer
makes the run exit 1 with ``"correct": false`` and no metrics.  Without the
program's sources the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_SAMPLES = 7
PROBE_PERIOD_S = 0.05
# Typical time of one probe() on the machine the baseline was taken on.
PROBE_REF_S = 500e-6

sys.pycache_prefix = str(WORK / "pycache")
os.environ.pop("RSLAB_CACHE", None)


def fail(message: str):
    """Set-up cannot proceed: exit 2 without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import rslab from the checkout's src/, and nothing else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import rslab
    except ImportError as exc:
        fail(f"cannot import rslab from {src}: {exc}")
    if Path(rslab.__file__).resolve().parent.parent != src:
        fail(f"imported rslab from {rslab.__file__}, not from {src}")
    import workloads
    return workloads


def setup(workload: str, seed: int):
    """Everything a run does before its first timed unit."""
    build, run, check = load_program().WORKLOADS[workload]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    inputs = build(seed, reference)
    WORK.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(tempfile.mkdtemp(dir=WORK))
    return run, check, inputs, reference


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time from process start, in fresh interpreters: raw, and
    scaled to the reference speed by probes run just before and after."""
    raw, ref = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        probes = [time_probe() for _ in range(10)]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        dt = time.perf_counter() - t0
        probes += [time_probe() for _ in range(10)]
        raw.append(dt)
        ref.append(dt * PROBE_REF_S / trimmed_mean(probes))
    return raw, ref


def in_child(fn) -> dict:
    """Run fn in a forked child and return the dict it returns."""
    r, w = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload = fn()
                code = 0
            except Exception:
                payload = {"failures": [traceback.format_exc()]}
            with os.fdopen(w, "w") as f:
                json.dump(payload, f)
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"failures": [f"unit process ended with status {status} and no result"]}
    return json.loads(data)


def _descend(depth: int, acc: int, row: list[int]) -> int:
    if depth == 0:
        return acc
    for x in row:
        if x & depth:
            return _descend(depth - 1, acc + x, row)
    return _descend(depth - 1, acc, row)


PROBE_ROW = list(range(1, 9))


def probe() -> int:
    """A fixed mix of dict updates and recursive calls, independent of rslab.

    The two halves track the two kinds of work rslab does: hashing (canon,
    census) and deep recursion (the matcher).  The probe allocates one
    object the garbage collector tracks, so running it inside the program
    shifts no collection onto the program.
    """
    table: dict[int, int] = {}
    for i in range(1500):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i
    acc = len(table)
    for i in range(60):
        acc += _descend(12, i, PROBE_ROW)
    return acc


def time_probe() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean without the lowest and highest `cut` share of the values."""
    xs = sorted(values)
    k = int(len(xs) * cut)
    return statistics.fmean(xs[k:len(xs) - k])


class SpeedProbe:
    """Times probe() at the start and then on SIGALRM every PROBE_PERIOD_S.

    The speed of a shared machine drifts by tens of percent within minutes;
    probes interleaved with the unit see the same drift, so wall time scaled
    by PROBE_REF_S / (trimmed mean probe time) is steady where wall time is
    not.  The trim drops probes that the scheduler happened to interrupt.
    """

    def __enter__(self):
        self.samples: list[float] = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _sample(self, *_):
        self.samples.append(time_probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def clear_caches() -> None:
    """Empty rslab's functools caches, which set-up may have filled."""
    for name, module in list(sys.modules.items()):
        if name == "rslab" or name.startswith("rslab."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def unit(run, check, inputs, reference, begin_trace=None) -> dict:
    """One timed unit, then its checks; runs inside the forked child.

    `begin_trace`, when given, installs a tracer and returns the function
    that removes it and computes the per-layer metrics.
    """
    clear_caches()
    work = tempfile.mkdtemp(dir=WORK)
    try:
        if begin_trace is None:
            with SpeedProbe() as speed:
                outcome = run(inputs, work)
            # The first sample ran before the timed phase.
            wall = outcome.wall_s - sum(speed.samples[1:])
            probe_s = trimmed_mean(speed.samples)
            wall_ref = wall * PROBE_REF_S / probe_s
        else:
            # Probes inside the traced unit would land in its spans, so the
            # traced unit is priced by probes just before and after it.
            end_trace = begin_trace()
            probes = [time_probe() for _ in range(20)]
            outcome = run(inputs, work)
            probes += [time_probe() for _ in range(20)]
            wall = outcome.wall_s
            probe_s = trimmed_mean(probes)
            wall_ref = wall * PROBE_REF_S / probe_s
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {
            "wall_s": wall,
            "wall_ref_s": wall_ref,
            "probe_us": probe_s * 1e6,
            "phases": outcome.phases,
            "ops": outcome.ops,
            "undecided": outcome.undecided,
            "classes": outcome.classes,
            "peak_rss_mib": rss_kib / 1024,
            "detail": describe(outcome),
        }
        if begin_trace is not None:
            result["layer"] = end_trace()
        result["failures"] = check(inputs, outcome, reference)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def describe(outcome) -> list[str]:
    """Short per-operation lines for the human-readable report."""
    r = outcome.results
    if "levels" in r:
        return [f"{outcome.classes} classes over {len(r['levels'])} levels"]
    if "cold" in r:
        return [f"{rec.quantity}({rec.n},{rec.pattern}) = {rec.value} "
                f"exact={rec.exact} witnesses={len(rec.witnesses)}" for rec in r["cold"]]
    lines = [f"caterpillar base: {r['base'].status.value}, {r['base'].nodes_explored} nodes",
             f"caterpillar non-edge orbit representatives: {r['reps']}"]
    lines += [f"step {i}: {v.status.value}, {v.nodes_explored} nodes"
              for i, v in enumerate(r["steps"])]
    lines += [f"verdict {i}: {v.status.value}, {v.nodes_explored} nodes"
              for i, v in enumerate(r["verdicts"])]
    return lines


def begin_trace(workload: str, seed: int, setup_tracer):
    """Install a tracer; the function returned removes it and computes the
    per-layer metrics, except trace.overhead_s."""
    import tracing
    from rslab import canon

    tr = tracing.Tracer()
    tr.install()

    def end() -> dict:
        cache = getattr(canon, "_search_cached", None)
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        metrics = tracing.layer_metrics(tr, setup_tracer, info)
        tr.uninstall()
        metrics["engine.prsat_step.distinct"] = len(
            {(canon.canonical_form(g), spec.token()) for g, spec in tr.step_args})
        header = {"workload": workload, "seed": seed, "metrics": metrics}
        tracing.write_trace(WORK / f"trace-{workload}-seed{seed}.json", header,
                            setup_tracer, tr)
        return metrics

    return end


def summary(values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit}"
    for pct in (99.9, 99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            v = statistics.quantiles(values, n=1000)[round(pct * 10) - 1]
            text += f", p{pct:g} {v:.6g} {unit}"
            break
    else:
        text += ", no percentile has ten samples beyond it"
    return f"{text} (n={n})"


def end_to_end(args, units, setup_raw, setup_ref) -> dict:
    walls = [u["wall_s"] for u in units]
    walls_ref = [u["wall_ref_s"] for u in units]
    attempted = sum(u["ops"] for u in units)
    undecided = sum(u["undecided"] for u in units)
    rss = max(u["peak_rss_mib"] for u in units)
    print(f"  wall_ref_s: {summary(walls_ref, 's')}")
    print(f"  wall_s: {summary(walls, 's')}")
    print(f"  probe_us: {summary([u['probe_us'] for u in units], 'us')} "
          f"(speed probe, reference {PROBE_REF_S * 1e6:g} us)")
    for phase in units[0]["phases"]:
        print(f"    {phase}: {summary([u['phases'][phase] for u in units], 's')}")
    print(f"  setup_s: {summary(setup_ref, 's')}")
    print(f"  setup_raw_s: {summary(setup_raw, 's')}")
    print(f"  peak_rss_mib: {rss:.6g} MiB")
    print(f"  undecided_share: {undecided}/{attempted} = {undecided / attempted:.4f} ratio")
    if args.workload == "enumerate":
        rate = [u["classes"] / u["wall_s"] for u in units]
        print(f"  classes_per_s: {summary(rate, 'classes/s')}")
    return {
        "wall_ref_s": {"value": statistics.median(walls_ref), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
        "decided_share": {"value": 1 - undecided / attempted, "unit": "ratio"},
    }


def per_layer(units) -> dict:
    import tracing

    untraced, traced = units
    metrics = dict(traced["layer"])
    metrics["trace.overhead_s"] = traced["wall_ref_s"] - untraced["wall_ref_s"]
    for name in ("wall_s", "wall_ref_s"):
        print(f"  untraced {name} {untraced[name]:.6g} s, traced {name} {traced[name]:.6g} s")
    return {k: {"value": metrics[k], "unit": unit}
            for k, (unit, _) in tracing.METRICS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("census", "hosts", "enumerate"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    load_program()
    setup_raw, setup_ref = ([], []) if args.trace else time_setup(args.workload, args.seed)
    setup_tracer = None
    if args.trace:
        import tracing
        setup_tracer = tracing.Tracer()
        setup_tracer.install()
    run, check, inputs, reference = setup(args.workload, args.seed)
    if setup_tracer is not None:
        setup_tracer.uninstall()

    units = []
    start = time.perf_counter()
    while True:
        units.append(in_child(lambda: unit(run, check, inputs, reference)))
        elapsed = time.perf_counter() - start
        if args.trace or units[-1]["failures"] or \
                elapsed + elapsed / len(units) > args.seconds:
            break
    if args.trace and not units[-1]["failures"]:
        units.append(in_child(lambda: unit(
            run, check, inputs, reference,
            lambda: begin_trace(args.workload, args.seed, setup_tracer))))

    failures = [f for u in units for f in u["failures"]]
    attempted = max(1, sum(u.get("ops", 0) for u in units))
    if failures:
        for f in failures:
            print(f"WRONG: {f}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": len(failures), "metrics": {}}))
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(units)} unit(s), {units[0]['ops']} operations each")
    for line in units[0]["detail"]:
        print(f"  {line}")
    metrics = (per_layer(units) if args.trace
               else end_to_end(args, units, setup_raw, setup_ref))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
