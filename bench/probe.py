"""Child-process side of the benchmark: each subcommand runs in a fresh
interpreter that imports projdiff from the checkout's ``src/``.

    probe.py import                         time `import projdiff`; machine facts
    probe.py setup CFG                      build what `simulate` builds before its first run
    probe.py constants INI SEED [--trace F] time ric_union + restricted_lipschitz_estimate
    probe.py replay CFG SEED OUT SPANS      replay `simulate` then `analyze` through the
                                            public library functions, traced

Every subcommand prints one JSON object on stdout.  Only public names of
the package are used; nothing under ``src/`` is patched.  Traced
subcommands write their spans to a file when they end and print a
per-layer table of self time and counts to stderr.
"""

import argparse
import configparser
import hashlib
import json
import os
import platform
import sys
import time

from tracing import Tracer, layer_table

RATIO_PROBLEMS = 24  # runs timed again for the bookkeeping and tracing ratios

FACT_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return {"blas": "unknown"}
    deps = config.get("Build Dependencies", {})
    blas = deps.get("blas", {})
    lapack = deps.get("lapack", {})
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "lapack": lapack.get("name"), "lapack_version": lapack.get("version")}


def cmd_import(args) -> None:
    start = time.perf_counter()
    import projdiff
    import_s = time.perf_counter() - start
    import numpy
    import scipy

    _emit({
        "import_s": import_s,
        "file": projdiff.__file__,
        "facts": {
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
            "thread_env": {k: os.environ.get(k) for k in FACT_ENV_VARS},
            "projdiff_version": projdiff.__version__,
        },
    })


def _build(cfg, tracer):
    """What `projdiff simulate` builds before its first run.

    Returns (prior or None, box or None, descriptor, operator, mu), built
    through public functions in the order the command line uses.
    """
    import numpy as np
    import projdiff as pd

    spec = cfg.prior
    prior = box = None
    descriptor = {"kind": spec.kind}
    pi = list(spec.pi) if spec.pi is not None else None
    if spec.kind == "lrgmm":
        prior = tracer.call("lrgmm_prior.random_lrgmm", pd.random_lrgmm, spec.d, spec.r,
                            spec.k, np.random.default_rng(spec.seed), pi=pi)
        descriptor.update(d=spec.d, r=spec.r, k=spec.k, seed=spec.seed)
        d = spec.d
    elif spec.kind == "sparse":
        prior = tracer.call("lrgmm_prior.sparse_gmm", pd.sparse_gmm, spec.d, spec.s, pi=pi)
        descriptor.update(d=spec.d, s=spec.s)
        d = spec.d
    elif spec.kind == "box":
        box = tracer.call("model_sets.BoxSet", pd.BoxSet, lower=spec.lower, upper=spec.upper)
        d = box.ambient_dim
        descriptor.update(d=d)
    else:
        raise SystemExit(f"prior kind {spec.kind!r} is not used by any workload")
    operator = tracer.call("sensing_analysis.gaussian_operator", pd.gaussian_operator,
                           cfg.sensing.m, d, np.random.default_rng(cfg.sensing.seed))
    if cfg.sensing.mu == "auto_1.9":
        mu = 1.9 / tracer.call("sensing_analysis.spectral_norm", pd.spectral_norm, operator) ** 2
    else:
        mu = float(cfg.sensing.mu)
    return prior, box, descriptor, operator, mu


def cmd_setup(args) -> None:
    import projdiff as pd

    _build(pd.load_config(args.config), Tracer(enabled=False))
    _emit({"file": pd.__file__})


def _load_constants(path):
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        parser.read_file(fh)
    unions = [(section.split(".", 1)[1], {k: int(v) for k, v in parser[section].items()})
              for section in parser.sections() if section.startswith("union.")]
    return parser["operator"], unions, int(parser["estimate"]["samples"])


def cmd_constants(args) -> None:
    import numpy as np
    import projdiff as pd

    tracer = Tracer(enabled=args.trace is not None)
    op_spec, union_specs, samples = _load_constants(args.ini)
    built = []
    for name, spec in union_specs:
        prior = tracer.call("lrgmm_prior.random_lrgmm", pd.random_lrgmm, spec["d"], spec["r"],
                            spec["k"], np.random.default_rng(spec["seed"]))
        built.append((name, prior.union))
    d = built[0][1].ambient_dim
    operator = tracer.call("sensing_analysis.gaussian_operator", pd.gaussian_operator,
                           int(op_spec["m"]), d, np.random.default_rng(int(op_spec["seed"])))
    mu = 1.9 / tracer.call("sensing_analysis.spectral_norm", pd.spectral_norm, operator) ** 2

    delta, beta, pairs = {}, {}, 0
    constants_s = 0.0
    for name, union in built:
        start = time.perf_counter()
        delta[name] = tracer.call("sensing_analysis.ric_union", pd.ric_union,
                                  operator, mu, union, run_id=name)
        beta[name] = tracer.call("sensing_analysis.restricted_lipschitz_estimate",
                                 pd.restricted_lipschitz_estimate, union, samples,
                                 np.random.default_rng(args.seed), run_id=name)
        constants_s += time.perf_counter() - start
        k = union.n_components
        pairs += k * (k + 1) // 2
    if args.trace:
        tracer.write(args.trace)
        _print_layers(tracer)
    _emit({"constants_s": constants_s, "delta": delta, "beta": beta,
           "pairs": pairs, "samples": samples * len(built)})


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cmd_replay(args) -> None:
    """`simulate` then `analyze`, one run at a time, with spans around each call.

    The traces written here must be byte-identical to the command line's.
    """
    import numpy as np
    import projdiff as pd

    tracer = Tracer()
    cfg = pd.load_config(args.config)
    seeds = [args.seed + i for i in range(len(cfg.trial_seeds))]  # as --seed-override does
    os.makedirs(args.out, exist_ok=True)

    prior, box, descriptor, operator, mu = _build(cfg, tracer)
    if prior is not None:
        base_denoise = lambda z, sg: pd.denoiser(prior, z, sg).value  # noqa: E731
        denoiser_span = "lrgmm_prior.denoiser"
    else:
        base_denoise = lambda z, sg: pd.box_denoiser(box, z, sg)  # noqa: E731
        denoiser_span = "convex_prior.box_denoiser"

    problems, files, failed = [], {}, 0
    for seed in seeds:
        for schedule_name, schedule in cfg.schedules:
            run_id = f"{schedule_name}_{seed:05d}"
            rng = np.random.default_rng(seed)
            if prior is not None:
                x_true = tracer.call("lrgmm_prior.sample", pd.sample, prior, rng, run_id=run_id)
            else:
                x_true = tracer.call("convex_prior.sample_box", pd.sample_box, box, rng,
                                     run_id=run_id)[0]
            problem = pd.SensingProblem(operator, mu, operator @ x_true, x_true=x_true, seed=seed)
            metadata = {"schedule_name": schedule_name, "trial_seed": seed, "prior": descriptor}
            if prior is not None:
                norms = tracer.call("model_sets.squared_projection_norms",
                                    pd.squared_projection_norms, prior.union, x_true,
                                    run_id=run_id)
                metadata["true_component"] = int(np.argmax(norms))
            denoise = tracer.wrap(denoiser_span, base_denoise, run_id=run_id)
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    trace = tracer.call("recovery_engine.run_recovery", pd.run_recovery,
                                        problem, denoise, schedule, n_iters=cfg.n_iters,
                                        prior=prior, record_iterates=False, metadata=metadata,
                                        run_id=run_id)
            except pd.DivergenceError:
                failed += 1
                continue
            name = f"trace_{run_id}.csv"
            path = os.path.join(args.out, name)
            tracer.call("recovery_engine.write_csv", trace.write_csv, path, run_id=run_id)
            files[name] = path
            problems.append((problem, schedule))

    read_bytes = 0
    for name in sorted(files):
        trace = tracer.call("recovery_engine.read_csv", pd.RecoveryTrace.read_csv, files[name],
                            run_id=name)
        read_bytes += os.path.getsize(files[name])
        burn_in = None
        if trace.subspace_distances is not None and "true_component" in trace.metadata:
            burn_in = tracer.call("diagnostics.detect_burn_in", pd.detect_burn_in, trace,
                                  int(trace.metadata["true_component"]), run_id=name)
        try:
            tracer.call("diagnostics.fit_linear_rate", pd.fit_linear_rate, trace,
                        from_n=burn_in or 0, run_id=name)
        except pd.InsufficientDataError:
            pass

    # The first RATIO_PROBLEMS problems again, three ways, in rotating order
    # so that drift in machine speed favours none: "full" as the command
    # line runs it, untraced; "bare" with no prior and no union, so only the
    # iteration, mse and residual columns remain; "traced" like full but
    # with spans around the call and every denoiser call, as in the replay.
    timed = {"full": [], "bare": [], "traced": []}
    tracers = {"full": Tracer(enabled=False), "bare": Tracer(enabled=False), "traced": Tracer()}
    for i, (problem, schedule) in enumerate(problems[:RATIO_PROBLEMS]):
        kinds = list(timed)
        for kind in kinds[i % 3:] + kinds[:i % 3]:
            run_tracer = tracers[kind]
            start = time.perf_counter()
            with np.errstate(over="ignore", invalid="ignore"):
                run_tracer.call("recovery_engine.run_recovery", pd.run_recovery, problem,
                                run_tracer.wrap(denoiser_span, base_denoise), schedule,
                                n_iters=cfg.n_iters, prior=None if kind == "bare" else prior,
                                record_iterates=False)
            timed[kind].append(time.perf_counter() - start)
    tracer.write(args.spans)
    _print_layers(tracer)

    if prior is not None:
        union = prior.union
        components = union.n_components
        flops = sum(4 * s.ambient_dim * s.rank for s in union.subspaces)
    else:
        components, flops = 0, 0
    _emit({
        "runs": len(seeds) * len(cfg.schedules),
        "failed": failed,
        "sha256": {name: _sha256(path) for name, path in files.items()},
        "written_bytes": sum(os.path.getsize(p) for p in files.values()),
        "read_bytes": read_bytes,
        "run_s": timed,
        "components": components,
        "denoiser_flops": flops,
    })


def _print_layers(tracer) -> None:
    table = layer_table(tracer.spans)
    print(f"{'layer':<20} {'spans':>8} {'busy_s':>10} {'self_s':>10}", file=sys.stderr)
    for layer in sorted(table):
        row = table[layer]
        print(f"{layer:<20} {row['calls']:>8} {row['busy_s']:>10.4f} {row['self_s']:>10.4f}",
              file=sys.stderr)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("import").set_defaults(func=cmd_import)
    p = sub.add_parser("setup")
    p.add_argument("config")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("constants")
    p.add_argument("ini")
    p.add_argument("seed", type=int)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_constants)
    p = sub.add_parser("replay")
    p.add_argument("config")
    p.add_argument("seed", type=int)
    p.add_argument("out")
    p.add_argument("spans")
    p.set_defaults(func=cmd_replay)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
