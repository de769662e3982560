"""Command line front end.

Subcommands:
    simulate <config>     run the configured recovery trials, write traces
    check [--full]        run the invariant suite, write a CSV report
    analyze <dir>         fit rates/burn-in over a directory of traces
    gen-model <spec>      generate a model file from a one-line spec

Exit codes: 0 ok, 2 config error, 3 numeric divergence, 4 check failures.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import traceback
from functools import partial

import numpy as np

from .checks import report_csv, report_table, run_checks
from .config import _INTS, _PRIOR_KEYS, MU_AUTO, PRIOR_KINDS, ConfigError, ExperimentConfig, \
    PriorSpec, _check_keys, _fail, _get, _get_seed, _parse_prior, load_config, serialize_config
from .convex_prior import BoxSet
from .diagnostics import detect_burn_in, fit_linear_rate
from .errors import DivergenceError, InsufficientDataError, NumericFailureError, \
    ResourceLimitError
from .lrgmm_prior import LrGmmPrior, random_lrgmm, sparse_gmm
from .model_sets import UnionOfSubspaces, random_union
from .modelio import load_model, save_model
from .recovery_engine import RecoveryTrace, batch_width, run_recoveries
from .sensing_analysis import SensingProblem, _matvec, gaussian_operator, spectral_norm

MANIFEST_NAME = "manifest.json"
RESOLVED_NAME = "resolved.cfg"
REPORT_NAME = "check_report.csv"
ANALYZE_OUTPUTS = ("rates.csv", "summary.csv")
RATES_COLUMNS = ("file", "schedule", "seed", "burn_in", "rate", "r2", "final_mse")
# summary.csv's n_converged counts the traces whose final mse is below this.
CONVERGED_MSE = 1e-6


def _build_prior(spec: PriorSpec):
    """The model a ``[prior]`` spec describes: an LrGmmPrior or a BoxSet."""
    if spec.kind == "lrgmm":
        return random_lrgmm(spec.d, spec.r, spec.k, np.random.default_rng(spec.seed), pi=spec.pi)
    if spec.kind == "sparse":
        return sparse_gmm(spec.d, spec.s, pi=spec.pi)
    if spec.kind == "box":
        return BoxSet(lower=spec.lower, upper=spec.upper)
    try:
        model = load_model(spec.path)
    except OSError as exc:
        raise _fail("prior", "path", f"{spec.path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise _fail("prior", "path", f"{spec.path}: {exc}") from None
    return LrGmmPrior(model) if isinstance(model, UnionOfSubspaces) else model


def _allocated(section: str, key: str, build, *args):
    """``build(*args)``, with running out of memory reported as an error in ``[section] key``."""
    try:
        return build(*args)
    except MemoryError:
        raise _fail(section, key, "too large: not enough memory to build it") from None


def _prior_descriptor(spec: PriorSpec) -> dict:
    """The prior as trace metadata names it: kind, d and its scalar keys, not its lists."""
    keys = ("kind",) + (() if spec.kind == "file" else ("d",)) + _PRIOR_KEYS[spec.kind]
    return {key: getattr(spec, key) for key in keys if isinstance(getattr(spec, key), (int, str))}


def _resolve_mu(mu, operator) -> float:
    if mu == MU_AUTO:
        try:
            return 1.9 / spectral_norm(operator) ** 2
        except NumericFailureError as exc:
            raise _fail("sensing", "mu", f"{MU_AUTO} needs the operator norm: {exc}") from None
    return float(mu)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    changes = {}
    if args.out is not None:
        changes["out_dir"] = args.out
    if args.seed_override is not None:
        if args.seed_override < 0:
            raise ConfigError(f"--seed-override: seeds must be >= 0, got {args.seed_override}")
        changes["trial_seeds"] = tuple(
            args.seed_override + i for i in range(len(cfg.trial_seeds))
        )
    if not changes:
        return cfg
    from dataclasses import replace

    return replace(cfg, **changes)


def _make_out_dir(path: str, source: str) -> None:
    """Create the output directory ``path``, or raise ConfigError naming ``source``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{source}: cannot create output directory {path!r}: "
                          f"{exc.strerror or exc}") from None


def _trace_name(schedule_name: str, seed: int) -> str:
    return f"trace_{schedule_name}_{seed:05d}.csv"


def _simulate_share(cfg, model, runs, width) -> dict:
    """Run ``runs`` (name, problem, schedule, metadata tuples) in batches of ``width``.

    A batch's traces are written before the next batch starts.  Returns the
    written trace names and the diverged [name, iteration, message] entries.
    """
    files, diverged = [], []
    for start in range(0, len(runs), width):
        names, problems, schedules, metadata = zip(*runs[start:start + width])
        # overflow inside a diverging run is reported via DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            results = run_recoveries(problems, schedules, cfg.n_iters, prior=model,
                                     metadata=metadata)
        for name, result in zip(names, results):
            path = os.path.join(cfg.out_dir, name)
            if isinstance(result, DivergenceError):
                diverged.append([name, result.iteration, str(result)])
                # An earlier run's file under this name is not this run's result.
                if os.path.exists(path):
                    os.remove(path)
                continue
            result.write_csv(path)
            files.append(name)
    return {"files": files, "diverged": diverged}


def _worker_count(n_runs: int) -> int:
    """How many processes simulate splits ``n_runs`` runs over.

    One per CPU in this process's affinity mask (so ``taskset`` restricts
    it), never more than the runs, and 1 where the platform cannot fork or
    report its affinity.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_runs))


def _child(task, write_fd):
    """In a forked child: run ``task``, send its JSON reply on ``write_fd``, and leave.

    os._exit skips the parent's atexit handlers and unflushed buffers, which
    the child holds copies of.
    """
    code = 1
    try:
        try:
            reply, code = {"result": task()}, 0
        except BaseException:
            reply = {"error": traceback.format_exc()}
        with os.fdopen(write_fd, "w") as fh:
            json.dump(reply, fh)
    finally:
        os._exit(code)


def _run_forked(tasks) -> list:
    """The results of ``tasks`` (callables returning JSON values), in order.

    tasks[1:] run in forked children and tasks[0] in this process.  A child
    that fails raises RuntimeError here with the child's traceback.  On any
    exit, a child not yet reaped is killed and reaped: none outlives the call.
    Forked, not spawned: a child shares the parent's operator and problems
    without pickling or a second numpy import, and the command's only other
    threads are OpenBLAS's, which it winds down around fork itself.
    """
    pending, readers = [], []
    try:
        for task in tasks[1:]:
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "r"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(task, write_fd)
            finally:
                os.close(write_fd)
            pending.append(pid)
        results = [tasks[0]()]
        for pid, reader in zip(list(pending), readers):
            payload = reader.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pending.remove(pid)
            try:
                reply = json.loads(payload)
            except ValueError:
                reply = {}
            if status != 0 or "result" not in reply:
                raise RuntimeError(f"simulate worker {pid} failed (exit status {status})"
                                   + (f":\n{reply['error']}" if "error" in reply else ""))
            results.append(reply["result"])
        return results
    finally:
        for reader in readers:
            reader.close()
        for pid in pending:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def cmd_simulate(args) -> int:
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        model = _allocated("prior", "path" if cfg.prior.kind == "file" else "d",
                           _build_prior, cfg.prior)
        operator = _allocated("sensing", "m", gaussian_operator, cfg.sensing.m,
                              model.ambient_dim, np.random.default_rng(cfg.sensing.seed))
        mu = _resolve_mu(cfg.sensing.mu, operator)
        _make_out_dir(cfg.out_dir, "--out" if args.out is not None else "[run] out_dir")
    except (ConfigError, ResourceLimitError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    descriptor = _prior_descriptor(cfg.prior)
    runs = []
    for seed in cfg.trial_seeds:
        x_true = model.sample(np.random.default_rng(seed))
        problem = SensingProblem(operator, mu, _matvec(operator, x_true), x_true=x_true,
                                 seed=seed)
        component = model.true_component(x_true)
        for schedule_name, schedule in cfg.schedules:
            meta = {"schedule_name": schedule_name, "trial_seed": seed, "prior": descriptor}
            if component is not None:
                meta["true_component"] = component
            runs.append((_trace_name(schedule_name, seed), problem, schedule, meta))
    # The runs, in seed-major order, are cut into one contiguous share per
    # worker (_worker_count: one per CPU this process may run on, so taskset
    # restricts it).  This process runs share 0 and forked children the rest.
    # A worker runs its share in batches that fit BATCH_BYTES and writes a
    # batch's traces before the next starts, so memory is one batch per
    # worker.  Trace bytes depend on neither the batching nor the workers.
    width = batch_width(model, model.ambient_dim, cfg.n_iters)
    workers = _worker_count(len(runs))
    bounds = [len(runs) * i // workers for i in range(workers + 1)]
    shares = [runs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    files, diverged = [], []
    for result in _run_forked([partial(_simulate_share, cfg, model, share, width)
                               for share in shares]):
        files += result["files"]
        diverged += result["diverged"]

    # The manifest is written on divergence too: it replaces any earlier
    # run's manifest, so analyze never summarises that run's traces instead.
    with open(os.path.join(cfg.out_dir, RESOLVED_NAME), "w", newline="\n") as fh:
        fh.write(serialize_config(cfg))
    diverged.sort(key=lambda item: item[0])
    manifest = {
        "files": sorted(files + [RESOLVED_NAME, MANIFEST_NAME]),
        "diverged": [{"file": name, "iteration": iteration} for name, iteration, _ in diverged],
        "prior": descriptor,
        "sensing_seed": cfg.sensing.seed,
        "trial_seeds": list(cfg.trial_seeds),
        "mu": mu,
    }
    with open(os.path.join(cfg.out_dir, MANIFEST_NAME), "w", newline="\n") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    for name, _, message in diverged:
        print(f"divergence in run {name}: {message}", file=sys.stderr)
    print(f"wrote {len(files)} traces to {cfg.out_dir}")
    return 3 if diverged else 0


def cmd_check(args) -> int:
    out_dir = args.out if args.out is not None else "."
    try:
        _make_out_dir(out_dir, "--out")
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2
    results = run_checks("full" if args.full else "fast")
    report_path = os.path.join(out_dir, REPORT_NAME)
    with open(report_path, "w", newline="\n") as fh:
        fh.write(report_csv(results))
    print(report_table(results), end="")
    print(f"report: {report_path}")
    return 0 if all(res.passed for res in results) else 4


def _field(meta: dict, key: str, kind, default=None):
    """meta[key] when it has the type a trace writer gives it, else ``default``."""
    value = meta.get(key)
    return value if isinstance(value, kind) and not isinstance(value, bool) else default


def _cell(value) -> str:
    """One field of analyze's CSV reports: None is empty, a float has 17 digits."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _fit_row(trace: RecoveryTrace, fname: str) -> dict:
    """The rates.csv fields of one trace, keyed by RATES_COLUMNS, None where absent."""
    # Metadata is whatever JSON the file holds: a field of the wrong type
    # counts as absent.
    meta = trace.metadata
    schedule_dict = _field(meta, "schedule", dict, {})
    schedule = _field(meta, "schedule_name", str) or _field(schedule_dict, "kind", str, "")
    seed = _field(meta, "trial_seed", int, _field(meta, "seed", int))
    component = _field(meta, "true_component", int)
    burn_in = None
    dists = trace.subspace_distances
    if dists is not None and component is not None and 0 <= component < dists.shape[1]:
        burn_in = detect_burn_in(trace, component)
    try:
        fit = fit_linear_rate(trace, from_n=burn_in or 0)
        rate, r2 = fit.rate, fit.r2
    except InsufficientDataError:
        rate, r2 = None, None
    return {"file": fname, "schedule": schedule, "seed": seed, "burn_in": burn_in,
            "rate": rate, "r2": r2, "final_mse": trace.final_mse}


def cmd_analyze(args) -> int:
    directory = args.dir
    if not os.path.isdir(directory):
        print(f"not a directory: {directory}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else directory
    try:
        _make_out_dir(out_dir, "--out")
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 2

    # A manifest names the traces of the last simulate into this directory;
    # older traces left beside them are not part of that run.
    listed = None
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r") as fh:
                listed = set(json.load(fh)["files"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"unreadable {MANIFEST_NAME}: {exc!r}", file=sys.stderr)
            return 2

    rows = []
    candidates = sorted(
        fname
        for fname in os.listdir(directory)
        if fname.endswith(".csv") and fname not in ANALYZE_OUTPUTS
    )
    for fname in candidates:
        if listed is not None and fname not in listed:
            print(f"skipping {fname}: not listed in {MANIFEST_NAME}", file=sys.stderr)
            continue
        try:
            trace = RecoveryTrace.read_csv(os.path.join(directory, fname))
        except (OSError, ValueError) as exc:
            print(f"skipping {fname}: {exc}", file=sys.stderr)
            continue
        rows.append(_fit_row(trace, fname))
    if not rows:
        print(f"no readable traces in {directory}", file=sys.stderr)
        return 2

    rates_path = os.path.join(out_dir, "rates.csv")
    with open(rates_path, "w", newline="\n") as fh:
        fh.write(",".join(RATES_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[key]) for key in RATES_COLUMNS) + "\n")

    by_schedule = {}
    for row in rows:
        by_schedule.setdefault(row["schedule"], []).append(row)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="\n") as fh:
        fh.write("schedule,n_traces,mean_final_mse,median_final_mse,mean_burn_in,n_converged\n")
        for schedule in sorted(by_schedule):
            group = by_schedule[schedule]
            mses = [row["final_mse"] for row in group]
            burns = [row["burn_in"] for row in group if row["burn_in"] is not None]
            fields = (schedule, len(group), statistics.mean(mses), statistics.median(mses),
                      float(statistics.mean(burns)) if burns else None,
                      sum(1 for mse in mses if mse < CONVERGED_MSE))
            fh.write(",".join(_cell(value) for value in fields) + "\n")
    print(f"analyzed {len(rows)} traces; wrote {rates_path} and {summary_path}")
    return 0


def _parse_model_spec(spec: str) -> dict:
    """``kind:key=v|v,...`` as a config section: lists become space-separated."""
    if ":" not in spec:
        raise ConfigError(f"model spec needs kind:key=value,..., got {spec!r}")
    kind, _, rest = spec.partition(":")
    fields = {}
    for item in rest.split(","):
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"model spec item {item!r} is not key=value")
        fields[key.strip()] = value.strip().replace("|", " ")
    fields["kind"] = kind.strip()
    return fields


def cmd_gen_model(args) -> int:
    try:
        fields = _parse_model_spec(args.spec)
        kind = fields["kind"]
        seeded = kind == "union" or "seed" in _PRIOR_KEYS.get(kind, ())
        if args.seed_override is not None and seeded:
            fields["seed"] = str(args.seed_override)
        if kind == "union":
            _check_keys(kind, fields, ("kind", "d", "ranks", "seed"))
            d, ranks = _get(kind, fields, "d"), _get(kind, fields, "ranks", _INTS)
            if not ranks or not all(1 <= r <= d for r in ranks):
                raise _fail(kind, "ranks", f"need ranks between 1 and d = {d}, "
                                           f"got {fields['ranks']!r}")
            model = _allocated(kind, "d", random_union, d, ranks,
                               np.random.default_rng(_get_seed(kind, fields, "seed")))
        elif kind in PRIOR_KINDS and kind != "file":
            model = _allocated(kind, "d", _build_prior, _parse_prior(fields))
        else:
            raise ConfigError(f"unknown model kind {kind!r}")
        save_model(args.output, model)
    except (ConfigError, ResourceLimitError, ValueError, OSError) as exc:
        print(f"gen-model error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it reads.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="output directory override")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed-override", type=int, default=None,
                      help="replace the trial seeds (simulate) or the generation seed (gen-model)")

    parser = argparse.ArgumentParser(
        prog="projdiff",
        description="Subspace recovery experiments with noise-scheduled denoisers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = """\
config format (flat INI; omitted seeds and counts resolve to defaults and
are written back into <out>/resolved.cfg):

  [prior]               kind = lrgmm | sparse | box | file
    lrgmm: d, r, k, seed, pi (uniform or space-separated floats)
    sparse: d, s, pi      box: lower, upper      file: path
  [sensing]             m, seed, mu (auto_1.9 or a positive float)
  [schedule.<name>]     kind (defaults to <name>), sigma_max,
                        sigma_min + horizon, or a (infinite_geometric)
  [run]                 n_iters, trials + base_seed or trial_seeds, out_dir
"""
    p_sim = sub.add_parser(
        "simulate",
        parents=[out, seed],
        help="run configured trials",
        epilog=config_help,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_sim.add_argument("config", help="experiment config path (INI dialect)")
    p_sim.set_defaults(func=cmd_simulate)

    p_check = sub.add_parser("check", parents=[out], help="run the invariant suite")
    p_check.add_argument("--full", action="store_true", help="complete grids (slower)")
    p_check.set_defaults(func=cmd_check)

    p_an = sub.add_parser("analyze", parents=[out], help="summarise trace files")
    p_an.add_argument("dir", help="directory containing trace CSV files")
    p_an.set_defaults(func=cmd_analyze)

    # Without abbreviations, so that --out is refused rather than read as --output.
    p_gen = sub.add_parser(
        "gen-model",
        parents=[seed],
        allow_abbrev=False,
        help="write a model file from kind:key=value,... (lists use |)",
        epilog="kinds: lrgmm, sparse and box take their [prior] keys (see simulate --help);\n"
               "union: d, ranks, seed",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_gen.add_argument("spec", help="e.g. lrgmm:d=16,r=2,k=4,seed=11 or box:lower=-1|-1,upper=1|1")
    p_gen.add_argument("-o", "--output", required=True, help="output model file")
    p_gen.set_defaults(func=cmd_gen_model)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
