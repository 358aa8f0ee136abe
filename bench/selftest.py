"""Self-test of the benchmark: the same seed gives the same results.

Usage, from the root of a checkout::

    python3 bench/selftest.py

For each workload, makes two traced one-pass runs in this process with
seed 1 and requires both to pass every gate and agree exactly on the
facts each item reports (energies, ``energy_gap_dp``,
``corner_err``, descent iterations) and on every count metric
(``radial_solver.iterations``, ``radial_solver.objective_evals``,
``envelope.deriv_calls``, ``potentials.eval_calls``, ...).  It also
checks that the metric names of both modes match ``BENCHMARK.json``.
Prints one line per check and exits 1 if any fails.
"""

import json
import sys

import run

SEED = 1


def _names(section):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def _args(workload, trace):
    return run.parse_args(["--workload", workload, "--seed", str(SEED),
                           "--seconds", "0", "--trace", str(trace)])


def check_workload(workload) -> list:
    first, second = (run.execute(_args(workload, 1)) for _ in range(2))
    problems = [f"{r.label}: {f}" for r in first.results + second.results
                for f in r.failures]
    if [r.facts for r in first.results] != [r.facts for r in second.results]:
        problems.append("item facts differ between same-seed runs")
    for name, (value, unit) in first.metrics.items():
        if unit == "count" and second.metrics[name][0] != value:
            problems.append(f"{name}: {value} then {second.metrics[name][0]}")
    if set(first.metrics) != _names("per_layer"):
        problems.append("traced metric names differ from BENCHMARK.json per_layer")
    return problems


def main() -> int:
    run.limit_threads()
    run.import_package()
    import workloads

    failed = False
    for workload in workloads.WORKLOADS:
        problems = check_workload(workload)
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {workload}: same-seed traced "
              f"runs agree" + "".join(f"\n     {p}" for p in problems))
    untraced = run.execute(_args("check", 0))
    names_ok = set(untraced.metrics) == _names("end_to_end")
    failed |= not names_ok
    print(f"{'ok  ' if names_ok else 'FAIL'} end-to-end metric names match "
          "BENCHMARK.json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
