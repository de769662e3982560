"""``projdiff simulate``: its runs cut into shares over forked workers, and its manifest.

``cli`` imports this module only when the command is ``simulate``, so no
other command compiles or loads it.  ``run`` builds the model, operator
and mu through ``config``, splits the runs over one worker per CPU
(``_worker_count``, ``_run_forked``), and each worker runs its share
through ``recovery_engine.run_recoveries`` in batches (``_simulate_share``).
The manifest names what the trace bytes depend on besides the config
(``_versions``, ``blas_core``); a run cut short leaves the one that says it
did not finish, as every file goes through ``traces.write_atomically``.
"""

import json
import os
import signal
import sys
from dataclasses import replace
from functools import partial

from .cli import MANIFEST_NAME, _make_out_dir
from .errors import ConfigError, DivergenceError, UnwritableError
from .traces import write_atomically

RESOLVED_NAME = "resolved.cfg"


def _apply_overrides(cfg, args):
    """``cfg``, an ExperimentConfig, with the --out and --seed-override of ``args`` applied."""
    changes = {}
    if args.out is not None:
        changes["out_dir"] = args.out
    seed = args.seed_override
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"--seed-override: seeds must be >= 0, got {seed}")
        changes["trial_seeds"] = tuple(range(seed, seed + len(cfg.trial_seeds)))
    return replace(cfg, **changes)


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
                if isinstance(result, DivergenceError):
                    diverged.append([name, result.iteration, str(result)])
                    # An earlier run's file under this name is not this run's result.
                    if os.path.exists(path):
                        os.remove(path)
                    continue
                result.write_csv(path)
            except UnwritableError as exc:
                return {"files": files, "diverged": diverged, "unwritable": str(exc)}
            except OSError as exc:  # the earlier run's file could not be removed
                return {"files": files, "diverged": diverged,
                        "unwritable": f"cannot write {path}: {exc.strerror or exc}"}
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
    write_atomically(path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def run(args) -> int:
    """``projdiff simulate``: run the configured trials and write their traces and manifest."""
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
    write_atomically(os.path.join(cfg.out_dir, RESOLVED_NAME), serialize_config(cfg))

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
            raise UnwritableError(result["unwritable"])
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
