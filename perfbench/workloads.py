"""The four benchmark workloads: inputs, command cycles and output checks.

Every workload is a closed loop with one client: the next ``cli.main``
command starts only after the previous one returned.  All command seeds and
instance files derive from the workload seed, so the same seed replays the
same commands.  ``check`` validates one command's output without a stored
reference and returns the problems found (empty when correct).
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import oracle

SCHEMA = "statwintgen-report/1"
CSV_HEADER = "seed,n,c,f,f_prime,lhs,rhs,slack,holds"
CHAIN_STEPS = (
    "cauchy_schwarz",
    "s_operator_bound",
    "lu_bound",
    "substitution_bound",
    "final_bound",
    "final_bound_rederived",
)
SLACK_TOL = 1e-9


def derive(seed: int, index: int) -> int:
    """Command seed number ``index`` under the workload seed."""
    return (int(seed) * 1_000_003 + index) % (2**31 - 1)


@dataclass
class Command:
    argv: list[str]
    items: int
    out: Path
    meta: dict = field(default_factory=dict)
    rows: int = 0  # CSV rows the command renders
    facts: dict = field(default_factory=dict)  # filled in by the check


@dataclass
class Result:
    rc: int | None
    error: str | None
    elapsed: float


def invoke(main, argv: list[str]) -> Result:
    """Run one CLI command in-process, timing only the call itself.

    The command's printed lines are discarded; checks read its output files.
    """
    err = io.StringIO()
    error = None
    rc = None
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a raising command is counted as failed
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if rc == 2 and error is None:
        error = f"exit 2: {err.getvalue().strip()[:200]}"
    return Result(rc=rc, error=error, elapsed=elapsed)


def _read_report(path: Path, command: str) -> dict:
    report = json.loads(path.read_text())
    if report.get("schema") != SCHEMA:
        raise ValueError(f"schema {report.get('schema')!r}")
    if report.get("command") != command:
        raise ValueError(f"command {report.get('command')!r}")
    return report


def _compare(problems: list[str], label: str, got: dict, want: oracle.OracleValues, holds) -> None:
    for key in ("lhs", "rhs", "slack"):
        if not oracle.close(float(got[key]), getattr(want, key)):
            problems.append(f"{label}: {key} {got[key]} vs oracle {getattr(want, key)!r}")
    if abs(want.slack) > SLACK_TOL and holds != (want.slack > 0.0):
        problems.append(f"{label}: holds={holds} but oracle slack {want.slack!r}")


class Workload:
    name = ""
    item = ""
    why = ""

    def setup(self, pkg, work: Path, seed: int) -> None:
        self.pkg, self.work, self.seed = pkg, work, seed

    def warmup(self) -> list[Command]:
        raise NotImplementedError

    def cycle(self, k: int) -> list[Command]:
        raise NotImplementedError

    def check(self, cmd: Command, result: Result) -> list[str]:
        raise NotImplementedError


class SweepN3Csv(Workload):
    name = "sweep-n3-csv"
    item = "instance"
    why = "canonical n=3 CSV sweep: per-instance engine (generate, validate, rho, rho_perp); no chain, no geometry"
    COUNT = 50
    SAMPLE_ROWS = 5
    RERUN_EVERY = 10

    def _command(self, k: int, count: int, out: str = "sweep.csv") -> Command:
        s = derive(self.seed, k)
        path = self.work / out
        argv = ["wintgen", "sweep", "--n", "3", "--count", str(count), "--seed", str(s),
                "--format", "csv", "--out", str(path)]
        return Command(argv, count, path, {"k": k, "seed": s, "count": count}, rows=count)

    def warmup(self) -> list[Command]:
        return [self._command(-1, 5)]

    def cycle(self, k: int) -> list[Command]:
        return [self._command(k, self.COUNT)]

    def check(self, cmd: Command, result: Result) -> list[str]:
        problems: list[str] = []
        seed, count = cmd.meta["seed"], cmd.meta["count"]
        data = cmd.out.read_bytes()
        lines = data.decode().split("\n")
        if lines[0] != CSV_HEADER:
            problems.append(f"header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:] if line]
        if len(rows) != count or lines[-1] != "":
            return problems + [f"{len(rows)} rows for count {count}"]
        any_false = False
        for i, row in enumerate(rows):
            if row[0] != f"{seed}-{i}" or row[1] != "3" or row[8] not in ("true", "false"):
                problems.append(f"row {i}: {row[:2]} {row[8]}")
                continue
            if row[8] == "false":
                any_false = True
                c, fp = float(row[2]), float(row[4])
                if not c > 4.0 * fp * fp:
                    problems.append(f"row {i}: holds=false with c <= 4f'^2")
        if result.rc != (1 if any_false else 0):
            problems.append(f"exit {result.rc} with violations={any_false}")
        wg = self.pkg.wintgen
        for i in random.Random(f"{self.seed}-{cmd.meta['k']}").sample(range(count), min(self.SAMPLE_ROWS, count)):
            row = rows[i]
            inst = wg.random_instance(3, seed=seed, index=i)
            if (float(row[2]), float(row[3]), float(row[4])) != (inst.c, inst.f_val, inst.f_prime):
                problems.append(f"row {i}: parameters differ from instance {seed}-{i}")
            want = oracle.wintgen_bound(3, inst.c, inst.f_val, inst.f_prime, inst.h, inst.h_star)
            got = {"lhs": row[5], "rhs": row[6], "slack": row[7]}
            _compare(problems, f"row {i}", got, want, row[8] == "true")
        if cmd.meta["k"] % self.RERUN_EVERY == 0:
            again = Command([*cmd.argv[:-1], str(self.work / "rerun.csv")], count, self.work / "rerun.csv")
            rerun = invoke(self.pkg.cli.main, again.argv)
            if rerun.error or again.out.read_bytes() != data:
                problems.append("rerun of the same seed is not byte-identical")
        return problems


class ChainFilesMixed(Workload):
    name = "chain-files-mixed"
    item = "report"
    why = "only workload that parses instance JSON, runs the six-step chain and writes full reports; n mixes 2,3,5,8"
    # Three small (n=2), two n=3, one n=5 and two n=8 files per cycle, so the
    # median command is a small file (CLI cost) and p90 an n=8 file (engine).
    PATTERN = (2, 3, 2, 5, 2, 8, 3, 8)
    FILES = 64

    def setup(self, pkg, work: Path, seed: int) -> None:
        super().setup(pkg, work, seed)
        (work / "instances").mkdir()
        (work / "reports").mkdir()
        self.files = []
        for idx in range(self.FILES):
            n = self.PATTERN[idx % len(self.PATTERN)]
            inst = pkg.wintgen.random_instance(n, seed=derive(seed, idx), index=idx)
            path = work / "instances" / f"{idx:03d}-n{n}.json"
            path.write_text(inst.to_json())
            self.files.append((path, n))
        self._oracle: dict[int, tuple] = {}

    def _command(self, idx: int) -> Command:
        path, n = self.files[idx]
        out = self.work / "reports" / f"{idx:03d}.json"
        return Command(["wintgen", "chain", str(path), "--out", str(out)], 1, out, {"idx": idx, "n": n})

    def warmup(self) -> list[Command]:
        first = {}
        for idx, (_, n) in enumerate(self.files):
            first.setdefault(n, idx)
        return [self._command(idx) for idx in first.values()]

    def cycle(self, k: int) -> list[Command]:
        size = len(self.PATTERN)
        return [self._command((k * size + j) % self.FILES) for j in range(size)]

    def _expected(self, idx: int) -> tuple:
        if idx not in self._oracle:
            data = json.loads(self.files[idx][0].read_text())
            values = oracle.wintgen_bound(data["n"], data["c"], data["f"], data["f_prime"], data["h"], data["h_star"])
            self._oracle[idx] = (data, values)
        return self._oracle[idx]

    def check(self, cmd: Command, result: Result) -> list[str]:
        problems: list[str] = []
        report = _read_report(cmd.out, "wintgen-chain")
        data, want = self._expected(cmd.meta["idx"])
        for key in ("n", "c", "f", "f_prime"):
            if report[key] != data[key]:
                problems.append(f"{key} {report[key]!r} vs file {data[key]!r}")
        steps = report["chain"]
        if [s["step"] for s in steps] != list(CHAIN_STEPS):
            return problems + [f"steps {[s['step'] for s in steps]}"]
        for s in steps[:4]:
            if s["holds"] is not True:
                problems.append(f"step {s['step']} fails")
        regime = data["c"] > 4.0 * data["f_prime"] ** 2
        if steps[4]["holds"] is not True and not regime:
            problems.append("final_bound fails with c <= 4f'^2")
        passed = all(s["holds"] for s in steps[:5])
        if report["passed"] is not passed or result.rc != (0 if passed else 1):
            problems.append(f"passed={report['passed']} exit {result.rc} for steps 1-5 holding={passed}")
        _compare(problems, "report", report, want, report["holds"])
        return problems


class SharpnessFamilies(Workload):
    name = "sharpness-families"
    item = "evaluation"
    why = "serial hill climb of single n=2 evaluations: per-call cost, cannot batch; positive-c exercises the hard-violation recheck"
    FAMILIES = (("zero", 0.0, 1.0, 0.0), ("umbilic", 0.0, 1.0, 1.0), ("positive-c", 4.0, 1.0, 0.0))
    ITERATIONS = 150

    def _command(self, index: int, family: tuple, iterations: int) -> Command:
        label, c, f, fp = family
        out = self.work / f"sharpness-{label}.json"
        argv = ["wintgen", "sharpness", "--n", "2", "--c", repr(c), "--f", repr(f), "--fprime", repr(fp),
                "--iterations", str(iterations), "--seed", str(derive(self.seed, index)), "--out", str(out)]
        return Command(argv, iterations, out, {"family": label, "iterations": iterations})

    def warmup(self) -> list[Command]:
        return [self._command(-1 - j, fam, 10) for j, fam in enumerate(self.FAMILIES)]

    def cycle(self, k: int) -> list[Command]:
        size = len(self.FAMILIES)
        return [self._command(k * size + j, fam, self.ITERATIONS) for j, fam in enumerate(self.FAMILIES)]

    def check(self, cmd: Command, result: Result) -> list[str]:
        problems: list[str] = []
        report = _read_report(cmd.out, "wintgen-sharpness")
        trace, min_slack = report["trace"], report["min_slack"]
        if report["evaluations"] != cmd.meta["iterations"]:
            problems.append(f"evaluations {report['evaluations']} != iterations {cmd.meta['iterations']}")
        if not trace or any(b > a for a, b in zip(trace, trace[1:])) or trace[-1] != min_slack:
            problems.append("trace is empty, increasing, or does not end at min_slack")
        family, hard = cmd.meta["family"], report["hard_violation"]
        if family == "zero" and not min_slack >= -SLACK_TOL:
            problems.append(f"zero family min slack {min_slack!r} < 0")
        if family == "umbilic" and not min_slack >= 7.0 - SLACK_TOL:
            problems.append(f"umbilic family min slack {min_slack!r} < 7")
        if hard is not (family == "positive-c"):
            problems.append(f"{family}: hard_violation={hard}")
        if report["passed"] is hard or result.rc != (1 if hard else 0):
            problems.append(f"passed={report['passed']} exit {result.rc} with hard_violation={hard}")
        cmd.facts.update(restarts=report["restarts"], improvements=len(trace), evaluations=report["evaluations"])
        return problems


class GeometryBattery(Workload):
    name = "geometry-battery"
    item = "command"
    why = "only workload touching finite differences, statistical_geometry and warped_contact; Wintgen code stays idle"
    CYCLE = (
        ["reproduce", "example-r2"],
        ["reproduce", "example-h3"],
        ["axioms", "--chart", "r2"],
        ["axioms", "--chart", "h3"],
        ["curvature", "--chart", "r2"],
        ["curvature", "--chart", "h3"],
        *(["classify", "--warp", w, "--fiber", fb] for w in ("exp", "const", "cosh") for fb in ("flat", "r2", "twisted")),
        ["axioms", "--chart", "r2", "--perturb-gamma", "0.01"],  # negative control, must exit 1
    )

    def _command(self, index: int, words: list[str]) -> Command:
        out = self.work / "geometry.json"
        expect = 1 if "--perturb-gamma" in words else 0
        argv = [*words, "--seed", str(derive(self.seed, index)), "--out", str(out)]
        return Command(argv, 1, out, {"expect": expect, "command": words[0]})

    def warmup(self) -> list[Command]:
        words = (["reproduce", "example-r2"], ["axioms", "--chart", "h3", "--samples", "2"],
                 ["curvature", "--chart", "h3", "--samples", "2"],
                 ["classify", "--warp", "cosh", "--fiber", "twisted", "--samples", "1"])
        return [self._command(-1 - j, w) for j, w in enumerate(words)]

    def cycle(self, k: int) -> list[Command]:
        return [self._command(k * len(self.CYCLE) + j, w) for j, w in enumerate(self.CYCLE)]

    def check(self, cmd: Command, result: Result) -> list[str]:
        report = _read_report(cmd.out, cmd.meta["command"])
        expect = cmd.meta["expect"]
        if result.rc != expect or report["passed"] is not (expect == 0):
            return [f"{' '.join(cmd.argv[:3])}: exit {result.rc}, passed={report['passed']}, expected exit {expect}"]
        return []


WORKLOADS = {w.name: w for w in (SweepN3Csv, ChainFilesMixed, SharpnessFamilies, GeometryBattery)}
