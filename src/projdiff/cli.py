"""Command line front end.

Subcommands:
    simulate <config>     run the configured recovery trials, write traces
    check [--full]        run the invariant suite, write a CSV report
    analyze <dir>         fit rates/burn-in over a directory of traces
    gen-model <spec>      generate a model file from a one-line spec

Exit codes: 0 ok, 2 config error or unwritable output, 3 divergence, 4 check failures.

Each command imports the layers it runs inside itself, numpy included.
This module holds the parser, what several commands share, and
``analyze``; ``simulate``'s orchestration is the ``simulate`` module, and
only ``check`` loads ``checks``.  ``config.build`` turns a config into
its model, operator and mu, and ``config.generate_model`` a gen-model
spec into its model.

``analyze`` reads what ``simulate`` wrote through ``traces``, the format's
one writer and reader, and fits it in ``diagnostics``.  A sweep analyses
many small directories, each in a fresh process, so its start-up is most
of its time, and it loads only the code it runs: this module, ``errors``,
``traces`` and ``diagnostics``, with no numpy, no model, sensing or check
module, and no ``dataclasses``, ``statistics``, ``signal`` or
``simulate``.  Its reports are UTF-8, each written whole or not at all.
"""

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .errors import ConfigError, InsufficientDataError

MANIFEST_NAME = "manifest.json"
REPORT_NAME = "check_report.csv"
ANALYZE_OUTPUTS = ("rates.csv", "summary.csv")
RATES_COLUMNS = ("file", "schedule", "seed", "burn_in", "rate", "r2", "final_mse")
SUMMARY_COLUMNS = ("schedule", "n_traces", "mean_final_mse", "median_final_mse", "mean_burn_in",
                   "n_converged")
# summary.csv's n_converged counts the traces whose final mse is below this.
CONVERGED_MSE = 1e-6


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


def cmd_simulate(args) -> int:
    from .simulate import run

    return run(args)


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


def _fit_row(trace, fname: str) -> dict:
    """The rates.csv fields of one RecoveryTrace, keyed by RATES_COLUMNS, None where absent."""
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


def _csv_text(header, rows) -> str:
    """CSV lines of ``header`` and then ``rows``, each ended by a newline.

    Names and schedules come from untrusted files: the writer quotes a field
    that holds a comma, a quote or a line break, and no other.
    """
    import csv
    import io

    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def cmd_analyze(args) -> int:
    from .diagnostics import mean, median
    from .traces import parse_trace, write_atomically

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
            # rates.csv is UTF-8: a name that is not (undecodable bytes come
            # back as lone surrogates) could not be written there.
            fname.encode("utf-8")
            trace = parse_trace(os.path.join(directory, fname))
        except (OSError, ValueError) as exc:
            print(f"skipping {fname}: {exc}", file=sys.stderr)
            continue
        rows.append(_fit_row(trace, fname))
    if not rows:
        print(f"no readable traces in {directory}", file=sys.stderr)
        return 2

    by_schedule = {}
    for row in rows:
        by_schedule.setdefault(row["schedule"], []).append(row)
    summary = []
    for schedule in sorted(by_schedule):
        group = by_schedule[schedule]
        mses = [row["final_mse"] for row in group]
        burns = [row["burn_in"] for row in group if row["burn_in"] is not None]
        summary.append((schedule, len(group), mean(mses), median(mses),
                        mean(burns) if burns else None,
                        sum(1 for mse in mses if mse < CONVERGED_MSE)))
    # Both reports are made before either is written, and each replaces its
    # file whole: a failure leaves no report half written.
    reports = {
        os.path.join(out_dir, "rates.csv"): _csv_text(
            RATES_COLUMNS, ([_cell(row[key]) for key in RATES_COLUMNS] for row in rows)),
        os.path.join(out_dir, "summary.csv"): _csv_text(
            SUMMARY_COLUMNS, (map(_cell, fields) for fields in summary)),
    }
    for path, text in reports.items():
        with _writing(path):
            write_atomically(path, text)
    rates_path, summary_path = reports
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
