"""statwintgen benchmark: closed-loop CLI workloads with a separate traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-n3-csv --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout the script sits in.
One client issues ``statwintgen.cli.main`` commands in this process, each
after the previous one returned, and checks every output (see
``workloads.py``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` first measures half the time untraced, then wraps every
public function of the six modules (``tracing.py``) for the other half and
reports per-layer metrics.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Spans and a full result
file go to ``.perfbench_out/``; scratch inputs live in ``.perfbench_work/``
and are removed on exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
PACKAGE = tracing.PACKAGE
SETUP_REPEATS = 9
DIMS = (2, 3, 5, 8)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ENVIRONMENT_NOTE = (
    "only this process is measured: no machine-wide tracing, no cache dropping "
    "and no CPU-frequency control are used"
)


# The speed of a shared host drifts by up to +-25 % within a minute, as
# neighbours load the physical cores, and this moves process CPU time as much
# as wall time.  A fixed calibration kernel runs before and after every timed
# stretch, and timings are rescaled to the speed at which the kernel takes
# CALIBRATION_REFERENCE_S, a fixed value near the kernel's fastest time seen on a
# 2-core host:
#     scaled = raw * CALIBRATION_REFERENCE_S / kernel time.
# Raw figures are kept in the result file.
CALIBRATION_ROUNDS = 300
CALIBRATION_REFERENCE_S = 0.00175


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work and 3x3 numpy calls."""
    a = np.arange(9.0).reshape(3, 3) / 9.0
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        b = a @ a.T - a
        acc += float(np.sum(b * b)) + (i % 7) * 0.5
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


def speed_scale(before: float, after: float) -> float:
    """Reference-speed factor for a stretch run between two kernel runs."""
    return CALIBRATION_REFERENCE_S / (0.5 * (before + after))


def import_package() -> SimpleNamespace:
    """Fresh import of the package from SRC, so set-up pays its import cost."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in tracing.LAYERS}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def set_up(workload, work: Path, seed: int) -> tuple[SimpleNamespace, float, float]:
    """Import, generate the workload's inputs, warm up.

    Returns the package, the set-up time at reference speed and the raw time.
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    before = calibrate()
    start = time.perf_counter()
    pkg = import_package()
    workload.setup(pkg, work, seed)
    for cmd in workload.warmup():
        workloads.invoke(pkg.cli.main, cmd.argv)
    raw = time.perf_counter() - start
    return pkg, raw * speed_scale(before, calibrate()), raw


@dataclass
class Measurement:
    cycle_rates: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    raw_cycle_rates: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    items: int = 0
    rows: int = 0
    bytes_written: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    first_cycle: list = field(default_factory=list)
    kernel_times: list[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return statistics.median(self.cycle_rates)

    @property
    def speed(self) -> float:
        """Reference-speed factor of the whole measurement."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.kernel_times)


def measure(workload, pkg, seconds: float, tracer=None) -> Measurement:
    """Run whole command cycles until ``seconds`` of wall time have passed.

    The calibration kernel runs before the first command and after every
    command, so each command is rescaled by the kernel times around it.
    """
    m = Measurement()
    deadline = time.perf_counter() + seconds
    m.kernel_times.append(calibrate())
    k = 0
    while True:
        cycle = workload.cycle(k)
        busy = raw_busy = 0.0
        for cmd in cycle:
            if tracer is not None:
                tracer.item = m.attempted
            result = workloads.invoke(pkg.cli.main, cmd.argv)
            m.kernel_times.append(calibrate())
            m.attempted += 1
            latency = result.elapsed * speed_scale(*m.kernel_times[-2:])
            m.raw_latencies.append(result.elapsed)
            m.latencies.append(latency)
            raw_busy += result.elapsed
            busy += latency
            problems = [result.error] if result.error else []
            if not problems:
                with tracer.paused() if tracer is not None else nullcontext():
                    try:
                        problems = workload.check(cmd, result)
                        m.bytes_written += cmd.out.stat().st_size
                    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                m.failed += 1
                m.failures.append(f"{' '.join(cmd.argv)}: {'; '.join(problems)}")
        items = sum(cmd.items for cmd in cycle)
        m.cycle_rates.append(items / busy)
        m.raw_cycle_rates.append(items / raw_busy)
        m.items += items
        m.rows += sum(cmd.rows for cmd in cycle)
        if k == 0:
            m.first_cycle = cycle
        k += 1
        if time.perf_counter() >= deadline:
            return m


def end_to_end_metrics(m: Measurement, setup_times: list[float]) -> dict:
    latencies_ms = [1e3 * t for t in m.latencies]
    return {
        "throughput_per_s": (m.throughput, "items/s"),
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (p90(latencies_ms), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def per_layer_metrics(profile, traced: Measurement, untraced: Measurement) -> dict:
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    # Span times are rescaled to reference speed like the end-to-end timings.
    speed = traced.speed
    evals = profile.calls("legendrian.curvature_scalars")
    out = {f"{layer}.self_s": (ratio(speed * profile.layer_self_s[layer], traced.items), "s/item")
           for layer in tracing.LAYERS}

    def us(name: str, n: int | None = None) -> float:
        return speed * profile.us_per_call(name, n)

    out["cli.build_parser.us_per_call"] = (us("cli.build_parser"), "us")
    out["cli.sweep_csv_lines.us_per_row"] = (
        ratio(speed * 1e6 * profile.total_s("cli.sweep_csv_lines"), traced.rows), "us")
    out["cli.dump_json.us_per_report"] = (us("cli.dump_json"), "us")
    out["cli.bytes_written"] = (ratio(traced.bytes_written, traced.attempted), "B/cmd")
    out["tensor_core.instance_rng.us_per_call"] = (us("tensor_core.instance_rng"), "us")
    for n in DIMS:
        calls = ratio(profile.calls("tensor_core.commutator", n), profile.calls("wintgen.main_inequality", n))
        out[f"tensor_core.commutator.calls_per_eval.n{n}"] = (calls, "count")
    out["legendrian.validate.us_per_call"] = (us("legendrian.validate"), "us")
    out["legendrian.validate.calls_per_eval"] = (ratio(profile.calls("legendrian.validate"), evals), "count")
    out["legendrian.means_and_traceless.us_per_call"] = (us("legendrian.means_and_traceless"), "us")
    for n in DIMS:
        out[f"legendrian.rho_statistical.us_per_call.n{n}"] = (us("legendrian.rho_statistical", n), "us")
    for n in DIMS:
        out[f"legendrian.rho_perp_statistical.us_per_call.n{n}"] = (us("legendrian.rho_perp_statistical", n), "us")
    out["legendrian.normal_curvature_entry.calls_per_eval"] = (
        ratio(profile.calls("legendrian.normal_curvature_entry"), evals), "count")
    out["wintgen.random_instance.us_per_call"] = (us("wintgen.random_instance"), "us")
    for n in DIMS:
        out[f"wintgen.main_inequality.us_per_call.n{n}"] = (us("wintgen.main_inequality", n), "us")
    for n in DIMS:
        out[f"wintgen.inequality_chain.us_per_call.n{n}"] = (us("wintgen.inequality_chain", n), "us")
    facts = [cmd.facts for cmd in traced.first_cycle if "restarts" in cmd.facts]
    out["wintgen.sharpness_search.restarts"] = (sum(f["restarts"] for f in facts), "count")
    out["wintgen.sharpness_search.improvements_per_eval"] = (
        ratio(sum(f["improvements"] for f in facts), sum(f["evaluations"] for f in facts)), "ratio")
    for name in ("statistical_geometry.curvature", "statistical_geometry.axiom_residuals",
                 "statistical_geometry.sectional_curvature", "warped_contact.build_warped_chart",
                 "warped_contact.warped_curvature_closed_form", "warped_contact.contact_classification",
                 "warped_contact.kenmotsu_theorem_check"):
        out[f"{name}.us_per_call"] = (us(name), "us")
    out["trace.overhead_ratio"] = (traced.throughput / untraced.throughput, "ratio")
    return out


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "platform": platform.platform(),
        "note": ENVIRONMENT_NOTE,
    }


def latency_note(m: Measurement) -> str:
    limit = p90(m.latencies)
    return f"{len(m.latencies)} commands timed, {sum(t > limit for t in m.latencies)} above p90"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace == 0:
            setup_times, raw_setup_times = [], []
            for _ in range(SETUP_REPEATS):
                pkg, seconds, raw_seconds = set_up(workload, work, args.seed)
                setup_times.append(seconds)
                raw_setup_times.append(raw_seconds)
            run = measure(workload, pkg, args.seconds)
            metrics = end_to_end_metrics(run, setup_times)
            attempted, failed, failures = run.attempted, run.failed, run.failures
            raw_ms = [1e3 * t for t in run.raw_latencies]
            extra = {
                "raw_metrics": {
                    "throughput_per_s": statistics.median(run.raw_cycle_rates),
                    "latency_p50_ms": statistics.median(raw_ms),
                    "latency_p90_ms": p90(raw_ms),
                    "setup_s": statistics.median(raw_setup_times),
                },
                "setup_runs_s": setup_times,
                "latency_samples": latency_note(run),
            }
        else:
            pkg, _, _ = set_up(workload, work, args.seed)
            untraced = measure(workload, pkg, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, pkg, args.seconds / 2, tracer)
            finally:
                tracer.restore()
            metrics = per_layer_metrics(tracing.Profile(tracer.spans), traced, untraced)
            tracer.write(OUT_DIR / f"{args.workload}.spans.tsv.gz")
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            failures = untraced.failures + traced.failures
            extra = {"spans": len(tracer.spans)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    host = host_facts()
    record = {
        "workload": args.workload, "item": workload.item, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"host: python {host['python']}, numpy {host['numpy']}, nproc {host['nproc']}, "
          f"BLAS thread vars {host['blas_thread_vars'] or 'unset'}; {ENVIRONMENT_NOTE}")
    print(f"workload {args.workload}: item = {workload.item}; closed loop, 1 client, seed {args.seed}")
    for line in failures[:5]:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:.6g} {unit}")
    print(f"  {'failed_ratio':<52} {failed / attempted:.6g} failed/attempted (attempted {attempted})")
    if "latency_samples" in extra:
        print(f"  latency samples: {extra['latency_samples']}")
        print("  timings above are at reference speed; raw wall-clock figures: "
              + ", ".join(f"{k} {v:.6g}" for k, v in extra["raw_metrics"].items()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
