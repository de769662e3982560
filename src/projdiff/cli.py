"""Command line front end.

Subcommands:
    simulate <config>     run the configured recovery trials, write traces
    check [--full]        run the invariant suite, write a CSV report
    analyze <dir>         fit rates/burn-in over a directory of traces
    gen-model <spec>      generate a model file from a one-line spec

Exit codes: 0 ok, 2 config error or unwritable output, 3 divergence, 4 check failures.

Each command imports the layers it runs inside itself, numpy included:
``analyze`` reads what ``simulate`` wrote through ``traces``, the format's
one writer and reader, fits it in ``diagnostics``, and loads no numpy, no
model, sensing or check module; only ``check`` loads ``checks``.
``config.build`` turns a config into its model, operator and mu, and
``config.generate_model`` a gen-model spec into its model.
"""

import argparse
import json
import os
import signal
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING

from .errors import ConfigError, DivergenceError, InsufficientDataError

if TYPE_CHECKING:
    from .config import ExperimentConfig
    from .traces import RecoveryTrace

MANIFEST_NAME = "manifest.json"
RESOLVED_NAME = "resolved.cfg"
REPORT_NAME = "check_report.csv"
ANALYZE_OUTPUTS = ("rates.csv", "summary.csv")
RATES_COLUMNS = ("file", "schedule", "seed", "burn_in", "rate", "r2", "final_mse")
SUMMARY_COLUMNS = ("schedule", "n_traces", "mean_final_mse", "median_final_mse", "mean_burn_in",
                   "n_converged")
# summary.csv's n_converged counts the traces whose final mse is below this.
CONVERGED_MSE = 1e-6


def _apply_overrides(cfg: "ExperimentConfig", args) -> "ExperimentConfig":
    changes = {}
    if args.out is not None:
        changes["out_dir"] = args.out
    seed = args.seed_override
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed-override: seeds must be >= 0, got {seed}")
        changes["trial_seeds"] = tuple(range(seed, seed + len(cfg.trial_seeds)))
    return replace(cfg, **changes)


class _Unwritable(Exception):
    """An output that cannot be created or written: ``main`` prints the message and exits 2."""


def _make_out_dir(path: str, source: str) -> None:
    """Create the output directory ``path``, or raise _Unwritable naming ``source``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _Unwritable(f"{source}: cannot create output directory {path!r}: "
                          f"{exc.strerror or exc}") from None


@contextmanager
def _writing(path):
    """Raise an OSError met while writing ``path`` as _Unwritable, naming the path."""
    try:
        yield
    except OSError as exc:
        raise _Unwritable(f"cannot write {path}: {exc.strerror or exc}") from None


def _trace_name(schedule_name: str, seed: int) -> str:
    return f"trace_{schedule_name}_{seed:05d}.csv"


def _simulate_share(cfg, model, operator, mu, runs, width) -> dict:
    """Run ``runs`` (name, seed, schedule, metadata tuples) in batches of ``width``.

    A batch draws its runs' truths, y = A x* and true components, once per
    seed, and its traces are written before the next batch starts.  Returns
    the written trace names, the diverged [name, iteration, message] entries
    and the message of a trace that could not be written, where the share
    stops.
    """
    import numpy as np

    from .recovery_engine import _matvec, run_recoveries

    files, diverged = [], []
    for start in range(0, len(runs), width):
        names, seeds, schedules, metadata = zip(*runs[start:start + width])
        drawn = dict.fromkeys(seeds)
        for seed in drawn:
            x = model.sample(np.random.default_rng(seed))
            drawn[seed] = x, _matvec(operator, x), model.true_component(x)
        x_true, y, components = zip(*map(drawn.get, seeds))
        metadata = [meta if component is None else {**meta, "true_component": component}
                    for meta, component in zip(metadata, components)]
        # overflow inside a diverging run is reported via DivergenceError
        with np.errstate(over="ignore", invalid="ignore"):
            results = run_recoveries(operator, mu, y, schedules, cfg.n_iters, model,
                                     x_true=x_true, seeds=seeds, metadata=metadata)
        for name, result in zip(names, results):
            path = os.path.join(cfg.out_dir, name)
            try:
                with _writing(path):
                    if isinstance(result, DivergenceError):
                        diverged.append([name, result.iteration, str(result)])
                        # An earlier run's file under this name is not this run's result.
                        if os.path.exists(path):
                            os.remove(path)
                        continue
                    result.write_csv(path)
            except _Unwritable as exc:
                return {"files": files, "diverged": diverged, "unwritable": str(exc)}
            files.append(name)
    return {"files": files, "diverged": diverged, "unwritable": None}


def blas_core():
    """The kernel set numpy's OpenBLAS runs, as OpenBLAS names it (``'SkylakeX'``).

    OpenBLAS picks its kernels when it loads, and ``OPENBLAS_CORETYPE``
    forces a choice.  Kernel sets round differently, so an exact digest of
    BLAS or LAPACK output holds on one of them.  Some report another name
    than the one forced: in numpy 2.4's OpenBLAS 0.3.31, ``Zen`` reports
    (and runs) ``Haswell``, and ``Prescott`` reports ``Katmai``.  None if
    numpy's BLAS is not its bundled OpenBLAS.
    """
    from .recovery_engine import _openblas_string

    return _openblas_string("corename")


def _versions() -> dict:
    """The library versions that, with the BLAS core, fix a simulate's bytes."""
    import platform

    import numpy as np

    from . import __version__
    from .recovery_engine import _openblas_string

    return {"projdiff": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "openblas_config": _openblas_string("config"),
            "openblas_core": blas_core()}


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
            import traceback

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
    Forked, not spawned: a child shares the parent's operator and runs
    without pickling or a second numpy import, and the command's only other
    threads are OpenBLAS's, which it winds down around fork itself.  Every
    task runs with OpenBLAS at one thread, and this process gets its thread
    count back on any exit: workers that each ran OpenBLAS's own threads
    would oversubscribe the CPUs they split.
    """
    from .recovery_engine import _one_blas_thread

    pending, readers = [], []
    with _one_blas_thread():
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


def _write_manifest(path, manifest: dict) -> None:
    with _writing(path), open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def cmd_simulate(args) -> int:
    from .config import build, load_config, prior_descriptor, serialize_config
    from .recovery_engine import batch_width

    try:
        cfg = _apply_overrides(load_config(args.config), args)
        model, operator, mu = build(cfg)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _make_out_dir(cfg.out_dir, "--out" if args.out is not None else "[run] out_dir")
    # Until the run ends, the manifest says that it has not: one that stops
    # early leaves it, and analyze refuses the directory rather than take an
    # earlier run's traces for this run's.
    manifest_path = os.path.join(cfg.out_dir, MANIFEST_NAME)
    _write_manifest(manifest_path, {"incomplete": "simulate did not finish"})
    resolved_path = os.path.join(cfg.out_dir, RESOLVED_NAME)
    with _writing(resolved_path), open(resolved_path, "w", newline="\n") as fh:
        fh.write(serialize_config(cfg))

    descriptor = prior_descriptor(cfg.prior)
    runs = [(_trace_name(schedule_name, seed), seed, schedule,
             {"schedule_name": schedule_name, "trial_seed": seed, "prior": descriptor})
            for seed in cfg.trial_seeds for schedule_name, schedule in cfg.schedules]
    # The runs, in seed-major order, are cut into one contiguous share per
    # worker (_worker_count: one per CPU this process may run on, so taskset
    # restricts it).  This process runs share 0 and forked children the rest.
    # A worker runs its share in batches that fit BATCH_BYTES: a batch draws
    # its truths and measurements, and writes its traces before the next
    # starts, so memory is one batch per worker besides each run's name,
    # seed and schedule.  Trace bytes depend on neither the batching nor the
    # workers.
    width = batch_width(model, model.ambient_dim, cfg.n_iters)
    workers = _worker_count(len(runs))
    bounds = [len(runs) * i // workers for i in range(workers + 1)]
    shares = [runs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    files, diverged = [], []
    for result in _run_forked([partial(_simulate_share, cfg, model, operator, mu, share, width)
                               for share in shares]):
        if result["unwritable"]:
            raise _Unwritable(result["unwritable"])
        files += result["files"]
        diverged += result["diverged"]

    # The manifest is written on divergence too, and lists only the traces
    # written: an earlier run's file under a diverged run's name is gone.
    diverged.sort(key=lambda item: item[0])
    manifest = {
        "files": sorted(files + [RESOLVED_NAME, MANIFEST_NAME]),
        "diverged": [{"file": name, "iteration": iteration} for name, iteration, _ in diverged],
        "prior": descriptor,
        "sensing_seed": cfg.sensing.seed,
        "trial_seeds": list(cfg.trial_seeds),
        "mu": mu,
        "versions": _versions(),
    }
    _write_manifest(manifest_path, manifest)
    for name, _, message in diverged:
        print(f"divergence in run {name}: {message}", file=sys.stderr)
    print(f"wrote {len(files)} traces to {cfg.out_dir}")
    return 3 if diverged else 0


def cmd_check(args) -> int:
    from .checks import report_csv, report_table, run_checks

    out_dir = args.out if args.out is not None else "."
    _make_out_dir(out_dir, "--out")
    results = run_checks("full" if args.full else "fast")
    report_path = os.path.join(out_dir, REPORT_NAME)
    with _writing(report_path), open(report_path, "w", newline="\n") as fh:
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


def _fit_row(trace: "RecoveryTrace", fname: str) -> dict:
    """The rates.csv fields of one trace, keyed by RATES_COLUMNS, None where absent."""
    from .diagnostics import detect_burn_in, fit_linear_rate

    # Metadata is whatever JSON the file holds: a field of the wrong type
    # counts as absent.
    meta = trace.metadata
    schedule_dict = _field(meta, "schedule", dict, {})
    schedule = _field(meta, "schedule_name", str) or _field(schedule_dict, "kind", str, "")
    seed = _field(meta, "trial_seed", int, _field(meta, "seed", int))
    component = _field(meta, "true_component", int)
    burn_in = (detect_burn_in(trace, component)
               if trace.nearest is not None and component is not None else None)
    try:
        fit = fit_linear_rate(trace, from_n=burn_in or 0)
        rate, r2 = fit.rate, fit.r2
    except InsufficientDataError:
        rate, r2 = None, None
    return {"file": fname, "schedule": schedule, "seed": seed, "burn_in": burn_in,
            "rate": rate, "r2": r2, "final_mse": trace.final_mse}


def cmd_analyze(args) -> int:
    import csv
    import statistics

    from .traces import parse_trace

    directory = args.dir
    if not os.path.isdir(directory):
        print(f"not a directory: {directory}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else directory
    _make_out_dir(out_dir, "--out")

    # A manifest names the traces of the last simulate into this directory;
    # older traces left beside them are not part of that run.
    listed = None
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        try:
            with open(manifest_path, "r") as fh:
                manifest = json.load(fh)
            if "incomplete" in manifest:
                print(f"{manifest_path}: the last simulate into {directory} did not finish; "
                      f"rerun it", file=sys.stderr)
                return 2
            files = manifest["files"]
            if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
                raise TypeError(f"files is not a list of names: {files!r}")
            listed = set(files)
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            print(f"unreadable {MANIFEST_NAME}: {exc!r}", file=sys.stderr)
            return 2

    def is_trace_name(fname):
        return fname.endswith(".csv") and fname not in ANALYZE_OUTPUTS

    present = os.listdir(directory)
    for fname in sorted(set(filter(is_trace_name, listed or ())) - set(present)):
        print(f"missing {fname}: listed in {MANIFEST_NAME}", file=sys.stderr)

    rows = []
    candidates = sorted(filter(is_trace_name, present))
    for fname in candidates:
        if listed is not None and fname not in listed:
            print(f"skipping {fname}: not listed in {MANIFEST_NAME}", file=sys.stderr)
            continue
        try:
            trace = parse_trace(os.path.join(directory, fname))
        except (OSError, ValueError) as exc:
            print(f"skipping {fname}: {exc}", file=sys.stderr)
            continue
        rows.append(_fit_row(trace, fname))
    if not rows:
        print(f"no readable traces in {directory}", file=sys.stderr)
        return 2

    # Names and schedules come from untrusted files: the writer quotes a
    # field that holds a comma, a quote or a line break, and no other.
    rates_path = os.path.join(out_dir, "rates.csv")
    with _writing(rates_path), open(rates_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RATES_COLUMNS)
        writer.writerows([_cell(row[key]) for key in RATES_COLUMNS] for row in rows)

    by_schedule = {}
    for row in rows:
        by_schedule.setdefault(row["schedule"], []).append(row)
    summary_path = os.path.join(out_dir, "summary.csv")
    with _writing(summary_path), open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for schedule in sorted(by_schedule):
            group = by_schedule[schedule]
            mses = [row["final_mse"] for row in group]
            burns = [row["burn_in"] for row in group if row["burn_in"] is not None]
            fields = (schedule, len(group), statistics.mean(mses), statistics.median(mses),
                      float(statistics.mean(burns)) if burns else None,
                      sum(1 for mse in mses if mse < CONVERGED_MSE))
            writer.writerow(map(_cell, fields))
    print(f"analyzed {len(rows)} traces; wrote {rates_path} and {summary_path}")
    return 0


def _parse_model_spec(spec: str) -> dict:
    """``kind:key=v|v,...``, each key once, as a config section: lists become space-separated."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ConfigError(f"model spec needs kind:key=value,..., got {spec!r}")
    fields = {"kind": kind.strip()}
    for item in filter(None, rest.split(",")):
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"model spec item {item!r} is not key=value")
        key = key.strip()
        if key in fields:
            raise ConfigError(f"model spec gives {key!r} twice")
        fields[key] = value.strip().replace("|", " ")
    return fields


def cmd_gen_model(args) -> int:
    from .config import generate_model
    from .modelio import save_model

    try:
        save_model(args.output, generate_model(_parse_model_spec(args.spec), args.seed_override))
    except (ValueError, OSError) as exc:
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

In a list of numbers, value*count is count copies of value: lower = -1*128 0*896.

<out>/manifest.json lists the written files, mu and, under versions, the
projdiff, Python and numpy versions and numpy's OpenBLAS (openblas_config,
openblas_core; null for another BLAS): a rerun with the same config and
versions writes the same bytes.  A run that stops early leaves a manifest
holding only "incomplete", and analyze refuses that directory.
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
    try:
        return args.func(args)
    except _Unwritable as exc:
        print(exc, file=sys.stderr)
        return 2
