"""End-to-end and per-layer benchmark of projdiff, run from the repository root.

    python3 bench/run.py --workload flagship --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 42

The package is measured from outside, every step in a fresh process.
With ``--trace 0`` (end-to-end metrics, untraced) set-up is timed first,
then each repetition runs ``projdiff simulate`` on the workload config and
``projdiff analyze`` on its output; metrics are medians over repetitions.
With ``--trace 1`` (per-layer metrics) the command line runs once, then a
traced replay of the same work through the public library functions, and
the measurement-side constants, also traced.  Every
output is checked; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and a failed check makes
the exit code 1.  ``--workload all`` runs every workload in both modes and
prints every metric with its unit.  The workload seed reaches the program
only as ``--seed-override`` and as the seed of the constants' probes.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 before measuring anything.
"""

import argparse
import configparser
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import durations, percentile, read_spans, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("flagship", "sparse", "box")
CONSTANTS_INI = BENCH / "workloads" / "constants.ini"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 3
ANALYZE_REPEATS = 2
IMPORT_REPEATS = 3
RUN_TIMEOUT_S = 170      # every child is killed past this much time into a run
REL_TOL = 1e-12          # delta and beta against their recorded values

# Spans the replay opens once per run of `simulate`; what the command line
# spends outside them is its own orchestration and worker pool.
PER_RUN_SPANS = {"lrgmm_prior.sample", "convex_prior.sample_box",
                 "model_sets.squared_projection_norms", "recovery_engine.run_recovery",
                 "recovery_engine.write_csv"}


class CheckFailed(Exception):
    pass


class Child:
    """One finished child process: wall time, peak RSS, exit code, output."""

    def __init__(self, argv, log_dir: Path, tag: str, timeout_s: float):
        out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            killer = threading.Timer(timeout_s, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        self.returncode = proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()
        self.tag = tag

    def check(self):
        if self.returncode != 0:
            raise CheckFailed(f"{self.tag} exited {self.returncode}: {self.stderr.strip()[-500:]}")
        return self

    def json(self):
        return json.loads(self.check().stdout.strip().splitlines()[-1])


def python(*args):
    return [sys.executable, *map(str, args)]


def projdiff_cli(*args):
    return python("-m", "projdiff", *args)


def config_path(workload: str) -> Path:
    return BENCH / "workloads" / f"{workload}.cfg"


def expected_runs(workload: str) -> int:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(config_path(workload))
    schedules = [s for s in parser.sections() if s.startswith("schedule.")]
    return int(parser["run"]["trials"]) * len(schedules)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def last_row_mse(path: Path) -> str:
    # Columns are n,sigma,mse,...; the last line is the final iterate.
    with open(path) as fh:
        last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
    return last.split(",")[2]


class Session:
    """Everything one benchmark invocation runs and checks."""

    def __init__(self, workload: str, seed: int, work: Path, start: float):
        self.workload, self.seed, self.work = workload, seed, work
        self.start, self.deadline = start, start + RUN_TIMEOUT_S
        self.runs = expected_runs(workload)
        self.reference = json.loads(REFERENCE.read_text())
        self.tolerance = self.reference["tolerance"][workload]
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.hashes = None
        self.recovered = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.failures.append(message)

    def child(self, argv, tag):
        return Child(argv, self.work, tag, max(1.0, self.deadline - time.perf_counter()))

    def check_import(self, probe):
        payload = probe.json()
        if Path(payload["file"]).resolve() != SRC.resolve() / "projdiff" / "__init__.py":
            raise CheckFailed(f"projdiff imported from {payload['file']}, not {SRC}")
        return payload

    def simulate(self, tag: str, analyze_repeats: int = 1):
        """`projdiff simulate`, then `projdiff analyze` on its output; checks every output.

        Returns [simulate child, analyze children...], or None when a
        check stopped the repetition.
        """
        out = self.work / tag
        sim = self.child(projdiff_cli("simulate", config_path(self.workload), "--out", out,
                                      "--seed-override", self.seed), f"{tag}-simulate")
        self.attempted += self.runs
        try:
            sim.check()
            manifest = json.loads((out / "manifest.json").read_text())
            traces = sorted(p.name for p in out.glob("trace_*.csv"))
            listed = sorted(f for f in manifest["files"] if f.startswith("trace_"))
            if traces != listed or len(traces) != self.runs:
                raise CheckFailed(f"{len(traces)} traces, manifest lists {len(listed)}, "
                                  f"expected {self.runs}")
            hashes = {name: sha256(out / name) for name in traces}
            if self.hashes is None:
                self.hashes = hashes
            elif hashes != self.hashes:
                bad = sum(hashes.get(k) != v for k, v in self.hashes.items())
                self.fail(bad, f"{tag}: {bad} traces differ from the first repetition")
            analyses, rates = [], set()
            for i in range(analyze_repeats):
                analyses.append(self.child(projdiff_cli("analyze", out), f"{tag}-analyze{i}").check())
                rates.add((out / "rates.csv").read_text())
            if len(rates) != 1:
                raise CheckFailed("rates.csv differs between runs of analyze on one directory")
            rows = {row["file"]: row for row in csv.DictReader(rates.pop().splitlines())}
            if sorted(rows) != traces:
                raise CheckFailed(f"rates.csv covers {len(rows)} of {len(traces)} traces")
            wrong = [n for n in traces if rows[n]["final_mse"] != last_row_mse(out / n)]
            if wrong:
                self.fail(len(wrong), f"{tag}: final_mse in rates.csv disagrees with {wrong[:3]}")
            recovered = sum(float(rows[n]["final_mse"]) <= self.tolerance for n in traces) / self.runs
            self.check_recovered(recovered, tag)
            self.recovered.append(recovered)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            self.fail(self.runs, f"{tag}: {exc}")
            return None
        return [sim] + analyses

    def check_recovered(self, value: float, tag: str) -> None:
        expected = self.reference["recovered_frac"][self.workload].get(str(self.seed))
        if expected is not None and abs(value - expected) > 1e-12:
            self.fail(self.runs, f"{tag}: recovered_frac {value} != recorded {expected}")

    def constants(self, tag: str, trace_path=None):
        argv = python(BENCH / "probe.py", "constants", CONSTANTS_INI, self.seed)
        if trace_path is not None:
            argv += ["--trace", str(trace_path)]
        probe = self.child(argv, f"{tag}-constants")
        unions = self.reference["delta"]
        self.attempted += len(unions)
        try:
            payload = probe.json()
        except (CheckFailed, ValueError) as exc:
            self.fail(len(unions), f"{tag}: {exc}")
            return None
        recorded_beta = self.reference["beta"].get(str(self.seed), {})
        for name, delta in unions.items():
            got_delta = payload["delta"].get(name, float("nan"))
            beta = payload["beta"].get(name, float("nan"))
            ok = abs(got_delta - delta) <= REL_TOL * delta
            if name in recorded_beta:
                ok = ok and abs(beta - recorded_beta[name]) <= REL_TOL * recorded_beta[name]
            else:
                # No value recorded for this seed.  A sampled lower bound on
                # the restricted Lipschitz constant of a nearest-point
                # projection lies in [1, 2].
                ok = ok and 1.0 <= beta <= 2.0
            if not ok:
                self.fail(1, f"{tag}: union {name}: delta {got_delta}, beta {beta} "
                             "disagree with the recorded values")
        return probe, payload


def measure_end_to_end(session: Session, seconds: float) -> dict:
    """Medians over fresh-process repetitions that fit in ``seconds``.

    Set-up is repeated a fixed number of times first; the rest of the window
    goes to `simulate` repetitions, each followed by ANALYZE_REPEATS runs of
    `analyze` over its output.
    """
    children = [session.child(python(BENCH / "probe.py", "import"), "warmup")]
    print_facts(session.check_import(children[0]))
    reps = {"setup_s": [], "simulate_s": [], "analyze_s": []}
    for i in range(SETUP_REPEATS):
        children.append(session.child(
            python(BENCH / "probe.py", "setup", config_path(session.workload)), f"setup{i}").check())
        reps["setup_s"].append(children[-1].wall_s)
    last = 0.0
    while not reps["simulate_s"] or time.perf_counter() + last <= session.start + seconds:
        round_start = time.perf_counter()
        tag = f"rep{len(reps['simulate_s'])}"
        ran = session.simulate(tag, ANALYZE_REPEATS)
        if ran is None:
            break
        children += ran
        reps["simulate_s"].append(ran[0].wall_s)
        reps["analyze_s"] += [child.wall_s for child in ran[1:]]
        shutil.rmtree(session.work / tag)
        last = time.perf_counter() - round_start
    for name, values in reps.items():
        print(f"# {name} repetitions: " + " ".join(f"{v:.4f}" for v in values))
    metrics = {name: statistics.median(values) for name, values in reps.items() if values}
    metrics["peak_rss_mb"] = max(child.peak_rss_mb for child in children)
    return metrics


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def print_facts(import_probe: dict) -> None:
    """Machine and library facts, printed with the results."""
    facts = dict(import_probe["facts"], git_commit=git_commit())
    print("# facts " + json.dumps(facts, sort_keys=True))


def _stats(spans, name):
    values = durations(spans, name)
    return len(values), sum(values), values


def measure_per_layer(session: Session) -> dict:
    imports = [session.check_import(session.child(python(BENCH / "probe.py", "import"),
                                                  f"import{i}")) for i in range(IMPORT_REPEATS)]
    print_facts(imports[0])
    ran = session.simulate("cli")
    spans_path = session.work / "replay.spans.jsonl"
    replay = session.child(python(BENCH / "probe.py", "replay", config_path(session.workload),
                                  session.seed, session.work / "replay", spans_path), "replay")
    traced = replay.json()
    print(replay.stderr, end="")
    session.attempted += traced["runs"]
    if traced["failed"]:
        session.fail(traced["failed"], f"replay: {traced['failed']} runs diverged")
    if session.hashes is not None and traced["sha256"] != session.hashes:
        bad = sum(traced["sha256"].get(k) != v for k, v in session.hashes.items())
        session.fail(bad, f"replay: {bad} traces differ from the command line's")
    const_spans_path = session.work / "constants.spans.jsonl"
    consts = session.constants("traced", const_spans_path)
    if consts is not None:
        print(consts[0].stderr, end="")

    spans = read_spans(spans_path)
    const_spans = read_spans(const_spans_path) if consts is not None else []
    m = {}
    m["cli.import_s"] = statistics.median(p["import_s"] for p in imports)
    per_run = sum(s["end"] - s["start"] for s in spans
                  if s["name"] in PER_RUN_SPANS and s["parent"] is None)
    m["cli.orchestration_s"] = (ran[0].wall_s - per_run) if ran else 0.0

    builds = durations(spans, "lrgmm_prior.random_lrgmm") + durations(spans, "lrgmm_prior.sparse_gmm")
    m["lrgmm_prior.build_s"] = sum(builds)
    calls, busy, values = _stats(spans, "lrgmm_prior.denoiser")
    m["lrgmm_prior.denoiser.calls"] = calls
    m["lrgmm_prior.denoiser.busy_s"] = busy
    m["lrgmm_prior.denoiser.p50_us"] = percentile(values, 50) * 1e6
    m["lrgmm_prior.denoiser.p90_us"] = percentile(values, 90) * 1e6
    # Computed, not counted: 4*K*d*r flops per call (two matvecs per component).
    m["lrgmm_prior.denoiser.gflops"] = traced["denoiser_flops"] * calls / busy / 1e9 if busy else 0.0
    calls, busy, values = _stats(spans, "convex_prior.box_denoiser")
    m["convex_prior.box_denoiser.calls"] = calls
    m["convex_prior.box_denoiser.busy_s"] = busy
    m["convex_prior.box_denoiser.p50_us"] = percentile(values, 50) * 1e6

    runs = durations(spans, "recovery_engine.run_recovery")
    m["recovery_engine.run_recovery.p50_ms"] = percentile(runs, 50) * 1e3
    m["recovery_engine.run_recovery.p90_ms"] = percentile(runs, 90) * 1e3
    m["recovery_engine.run_recovery.failed"] = traced["failed"]
    own = self_times(spans)
    m["recovery_engine.run_recovery.self_s"] = sum(
        t for s, t in zip(spans, own) if s["name"] == "recovery_engine.run_recovery")
    timed = {kind: statistics.median(values) if values else 0.0
             for kind, values in traced["run_s"].items()}
    m["recovery_engine.bookkeeping_ratio"] = timed["full"] / timed["bare"] if timed["bare"] else 0.0
    m["recovery_engine.write_csv.busy_s"] = sum(durations(spans, "recovery_engine.write_csv"))
    m["recovery_engine.write_csv.bytes"] = traced["written_bytes"]
    m["recovery_engine.read_csv.busy_s"] = sum(durations(spans, "recovery_engine.read_csv"))
    m["recovery_engine.read_csv.bytes"] = traced["read_bytes"]

    m["model_sets.components"] = traced["components"]
    m["model_sets.squared_projection_norms.p50_us"] = percentile(
        durations(spans, "model_sets.squared_projection_norms"), 50) * 1e6

    m["sensing_analysis.gaussian_operator_s"] = sum(durations(spans, "sensing_analysis.gaussian_operator"))
    m["sensing_analysis.spectral_norm_s"] = sum(durations(spans, "sensing_analysis.spectral_norm"))
    m["sensing_analysis.ric_union_s"] = sum(durations(const_spans, "sensing_analysis.ric_union"))
    m["sensing_analysis.ric_union.pairs"] = consts[1]["pairs"] if consts else 0
    m["sensing_analysis.restricted_lipschitz_s"] = sum(
        durations(const_spans, "sensing_analysis.restricted_lipschitz_estimate"))
    m["sensing_analysis.restricted_lipschitz.samples"] = consts[1]["samples"] if consts else 0

    m["diagnostics.detect_burn_in.busy_s"] = sum(durations(spans, "diagnostics.detect_burn_in"))
    m["diagnostics.fit_linear_rate.busy_s"] = sum(durations(spans, "diagnostics.fit_linear_rate"))
    m["trace_overhead_frac"] = timed["traced"] / timed["full"] - 1.0 if timed["full"] else 0.0
    m["constants_s"] = consts[1]["constants_s"] if consts else 0.0
    m["recovered_frac"] = session.recovered[0] if session.recovered else 0.0
    m["failed_frac"] = session.failed / session.attempted
    for name in ("cli", "replay"):
        shutil.rmtree(session.work / name, ignore_errors=True)
    return m


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    start = time.perf_counter()
    work = WORK / f"{workload}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(workload, seed, work, start)
    try:
        values = measure_per_layer(session) if trace else measure_end_to_end(session, seconds)
    except CheckFailed as exc:
        session.fail(max(session.runs, 1), str(exc))
        values = {}
    for message in session.failures:
        print(f"# check failed: {message}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
            print(f"{workload:<9} {entry['name']:<46} {values[entry['name']]:>14.6g} {entry['unit']}")
    return {"correct": not session.failures and len(metrics) == len(declared),
            "attempted": max(session.attempted, 1), "failed": session.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "projdiff" / "__init__.py").is_file():
        print(f"no projdiff source at {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result = run_one(workload, args.seed, args.seconds, trace, spec)
                ok = ok and result["correct"]
        return 0 if ok else 1
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
