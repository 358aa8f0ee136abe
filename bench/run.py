"""radrelax benchmark: one workload, one seed, one time budget.

Usage, from the root of a checkout::

    python3 bench/run.py --workload solve|check --seed N --seconds T --trace 0|1

The package is imported from ``src/`` of the checkout and nowhere else.
Set-up turns the seed into a fixed list of items (see ``workloads.py``);
the timed phase runs the list as one pass, in a closed loop with a single
client, a fixed number of times per workload (``workloads.PASSES``).
The set-up probes run first, and the timed phase gets what is left of
the T seconds since the start: a pass after the first starts only while
the time left holds one as long as the last.  Every item is gated on
correctness, and a repeated pass must reproduce the first pass's results
exactly.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: importing radrelax (with numpy and scipy), then generating
  and parsing the inputs; the median of five set-ups, four of them in
  fresh processes.
- ``wall_s``: seconds the program spends on one pass, as the sum over
  items of each item's fastest time across the run's passes.  The same
  input repeats in every pass, so the fastest time is the item's cost
  with the least interference from other load on the machine; the pass
  count is fixed, so the estimator is the same for a slower or faster
  program.  Gates are not timed.
- ``item_s_p50``: median over the items of a pass of those fastest times.
- ``peak_rss_mb``: peak resident memory (MiB) of the benchmark process
  or of the largest command-line child, whichever is larger.

With ``--trace 1`` every public function of the seven layers is wrapped
(see ``tracer.py``), the run makes a single pass and reports its
per-layer metrics instead: seconds inside a function, call counts,
descent iterations, tracemalloc peaks (measured by an untimed replay
after the pass), ``trace.wall_s`` (the traced pass) and
``trace.overhead_s``, the span count times the measured cost of one
tracing wrapper.  Spans go to ``.bench_work/traces/<workload>-seed<N>/``.

Lines before the last describe the run for a reader (metrics with
units, fail ratio, the solve gates ``energy_gap_dp`` and ``corner_err``,
each item's fastest time, and the environment).  The last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every item passed its gate, 1 when
one failed, and 2 when the package cannot be imported from the checkout.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 3
COMMANDS = ("envelope", "solve", "oracle", "verify", "symmetry")
VERIFY_CHECKS = (
    ("detachment_avoidance", "detachment_avoidance_report"),
    ("slope_and_sign", "slope_and_sign_check"),
    ("corner_condition", "corner_condition_check"),
    ("euler_lagrange_affine", "euler_lagrange_affine_check"),
    ("concavity_exclusion", "concavity_exclusion_check"),
    ("energy_consistency", "energy_consistency"),
    ("consistency_tolerance", "consistency_tolerance"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("solve", "check"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up in a fresh process, printing its duration
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_threads():
    """Cap BLAS and OpenMP threads at nproc, for this process and its children.

    Unset variables become 1: the arrays here (128 to 4096 entries) are too
    small for a second BLAS thread to pay, and an idle one spins.  On the
    prototype at 1024 cells, on a 2-core Xeon, one thread took 5.9 s wall
    and 5.8 s CPU, two threads 6.5 s wall and 12.1 s CPU.
    """
    n = nproc()
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, 1))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, n)))


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import radrelax
    except ImportError as exc:
        print(f"bench: cannot import radrelax from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(radrelax.__file__).resolve().parent.parent != SRC.resolve():
        print(f"bench: radrelax resolved to {radrelax.__file__}, not under {SRC}",
              file=sys.stderr)
        sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(), "cpu": cpu,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def probe_setup(args) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, check=True)
    return float(out.stdout.split()[-1])


def probe_startup() -> float:
    """Wall seconds of ``python -m radrelax.cli --help``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "radrelax.cli", "--help"], cwd=ROOT,
                   env=child_env(), stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


class ItemResult:
    def __init__(self, label, seconds, failures, facts):
        self.label, self.seconds = label, seconds
        self.failures, self.facts = failures, facts


def run_item(item) -> ItemResult:
    t0 = time.perf_counter()
    try:
        raw = item.run()
    except Exception as exc:  # an item that raises fails; the run goes on
        seconds = time.perf_counter() - t0
        traceback.print_exc()
        return ItemResult(item.label, seconds, [f"raised {exc!r}"], {})
    seconds = time.perf_counter() - t0
    try:
        failures, facts = item.gate(raw)
    except Exception as exc:
        traceback.print_exc()
        failures, facts = [f"gate raised {exc!r}"], {}
    return ItemResult(item.label, seconds, failures, facts)


def timed_phase(items, wanted, deadline):
    """Up to ``wanted`` passes over the items, and at least one.

    A pass after the first starts only if one as long as the last still
    ends before ``deadline``, a ``time.perf_counter`` reading.
    """
    passes = []
    while True:
        results = [run_item(item) for item in items]
        if passes:
            for first, again in zip(passes[0], results):
                if again.facts != first.facts and not again.failures:
                    again.failures.append("a repeated pass gave other results")
        passes.append(results)
        busy = sum(r.seconds for r in results)
        if len(passes) >= wanted or time.perf_counter() + busy > deadline:
            return passes


def fastest(passes) -> list:
    """Each item's fastest time over the passes, in pass order."""
    return [min(r.seconds for r in runs) for runs in zip(*passes)]


def layer_metrics(s, trace_wall_s, startup_s) -> dict:
    """Per-layer metrics of the traced pass from a merged tracer summary."""
    import tracer as tracing

    def t(span):
        return s["time_s"].get(span, 0.0)

    def mb(span):
        return s["peak_bytes"].get(span, 0) / 2 ** 20

    m = s["minimize"]
    out = {
        "radial_solver.minimize_s": (t("radial_solver.minimize_relaxed"), "s"),
        "radial_solver.minimize_calls": (m["calls"], "count"),
        "radial_solver.iterations": (m["iterations"], "count"),
        "radial_solver.objective_evals": (
            s["calls_in_minimize"].get(tracing.OBJECTIVE, 0), "count"),
        "radial_solver.converged_ratio": (
            m["converged"] / m["calls"] if m["calls"] else 0.0, "ratio"),
        "radial_solver.rearrange_s": (t("radial_solver.monotone_rearrange"), "s"),
        "radial_solver.rearrange_peak_mb": (mb("radial_solver.monotone_rearrange"), "MB"),
        "radial_solver.dp_oracle_s": (t("radial_solver.dp_oracle"), "s"),
        "radial_solver.pipeline_self_s": (
            s["self_s"].get("radial_solver.solve_pipeline", 0.0), "s"),
        "verify.full_report_s": (t("verify.full_report"), "s"),
        "verify.full_report_peak_mb": (mb("verify.full_report"), "MB"),
    }
    for metric, function in VERIFY_CHECKS:
        out[f"verify.{metric}_s"] = (t(f"verify.{function}"), "s")
    out.update({
        "envelope.convexify_s": (t("envelope.convexify"), "s"),
        "envelope.eval_calls": (
            s["calls"].get("envelope.EnvelopeResult.eval", 0), "count"),
        "envelope.deriv_calls": (s["calls"].get(tracing.OBJECTIVE, 0), "count"),
        "potentials.eval_calls": (
            s["calls"].get("potentials.Potential1D.eval", 0), "count"),
        "potentials.derivative_calls": (
            s["calls"].get("potentials.Potential1D.derivative", 0), "count"),
        "disc2d.ray_check_s": (t("disc2d.averaged_ray_energy_check"), "s"),
        "disc2d.energy_2d_s": (t("disc2d.energy_2d"), "s"),
        "disc2d.colinearity_s": (t("disc2d.colinearity_defect"), "s"),
        "specfile.parse_s": (t("specfile.parse_spec"), "s"),
        "cli.startup_s": (startup_s, "s"),
    })
    for command in COMMANDS:
        out[f"cli.{command}_s"] = (s["cli_s"].get(command, 0.0), "s")
    out.update({
        "trace.overhead_s": (s["spans"] * tracing.wrapper_cost(), "s"),
        "trace.wall_s": (trace_wall_s, "s"),
        "trace.spans": (s["spans"], "count"),
    })
    return out


def gate_facts(first_pass) -> dict:
    """The solve gates, worst case over the problems, and the pass's iterations."""
    solved = [r.facts for r in first_pass if "energy_gap_dp" in r.facts]
    if not solved:
        return {}
    return {"energy_gap_dp": (max(f["energy_gap_dp"] for f in solved),
                              "relative", "gate <= 1e-3"),
            "corner_err": (max(f["corner_err"] for f in solved),
                           "slope", "gate <= 0.05"),
            "iterations": (sum(f["iterations"] for f in solved),
                           "count", "descent iterations in one pass")}


class Run:
    """Outcome of one benchmark run: item results per pass and metrics."""

    def __init__(self, passes, metrics, trace_dir=None):
        self.passes, self.metrics, self.trace_dir = passes, metrics, trace_dir
        self.results = [r for p in passes for r in p]
        self.failed = sum(1 for r in self.results if r.failures)


def execute(args, started=None) -> Run:
    """Set up the workload, run the timed phase and compute the metrics.

    Set-up is timed from ``started``, a ``time.perf_counter`` reading
    (the start of the process for the command line), or else from the
    start of input generation.
    """
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        ctx = workloads.Context(root=ROOT, work=work, child_env=child_env())
        started = time.perf_counter() if started is None else started
        items = workloads.WORKLOADS[args.workload](args.seed, ctx)
        setup_s = time.perf_counter() - started
        if args.setup_probe:
            return Run([], {"setup_s": (setup_s, "s")})
        return measure(args, ctx, items, setup_s, started + args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, ctx, items, setup_s, deadline) -> Run:
    """Probe set-up or start-up time, then run the timed phase."""
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        startup_s = statistics.median(probe_startup() for _ in range(STARTUP_SAMPLES))
        ctx.trace_dir = WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}"
        shutil.rmtree(ctx.trace_dir, ignore_errors=True)
        ctx.trace_dir.mkdir(parents=True)
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    try:
        wanted = 1 if args.trace else workloads.PASSES[args.workload]
        passes = timed_phase(items, wanted, deadline)
    finally:
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        tracer.measure_peaks()
        summary = tracer.summary()
        tracer.write(ctx.trace_dir / "main.json.gz", summary)
        children = sorted(ctx.trace_dir.glob("child-*.json.gz"))
        merged = tracing.merge([summary] + [tracing.read_summary(c) for c in children])
        trace_wall_s = sum(r.seconds for r in passes[0])
        metrics = layer_metrics(merged, trace_wall_s, startup_s)
        return Run(passes, metrics, ctx.trace_dir)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  ctx.child_peak_kb)
    best = fastest(passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(best), "s"),
        "item_s_p50": (statistics.median(best), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return Run(passes, metrics)


def report(args, run: Run) -> None:
    attempted = len(run.results)
    lines = [f"radrelax benchmark: workload {args.workload}, seed {args.seed}, "
             f"trace {args.trace}",
             f"closed loop, 1 client: {len(run.passes[0])} items per pass, "
             f"{len(run.passes)} passes, {attempted} items"]
    if run.trace_dir is not None:
        lines.append(f"spans written to {run.trace_dir.relative_to(ROOT)}")
    for name, (value, unit) in run.metrics.items():
        lines.append(f"  {name:34s} {value:>14.6g} {unit}")
    lines.append(f"  {'fail_ratio':34s} {run.failed / attempted:>14.6g} ratio "
                 f"({run.failed} of {attempted} items failed)")
    for name, (value, unit, note) in gate_facts(run.passes[0]).items():
        lines.append(f"  {name:34s} {value:>14.6g} {unit} ({note})")
    for k, (r, best) in enumerate(zip(run.passes[0], fastest(run.passes))):
        lines.append(f"  item {k} {r.label:27s} {best:>14.6g} s "
                     f"(fastest of {len(run.passes)})")
    for r in run.results:
        for failure in r.failures:
            lines.append(f"FAILED {r.label}: {failure}")
    print("\n".join(lines))
    print(json.dumps({"environment": environment()}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0, "attempted": attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()}}))


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_threads()
    import_package()
    run = execute(args, started=T_START)
    if args.setup_probe:
        print(repr(run.metrics["setup_s"][0]))
        return 0
    report(args, run)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
