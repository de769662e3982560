"""Experiment configuration: a flat INI dialect with explicit seeds.

A config names a prior, a sensing setup, one or more noise schedules, and
the trial plan.  Parsing resolves every implicit choice (seed defaults,
trial counts) so that the serialized form is a fixed point:
parse(serialize(cfg)) == cfg, and two runs of the same resolved config are
byte-identical.

    [prior]
    # or sparse / box / file; _PRIOR_KEYS lists the keys of each kind
    kind = lrgmm
    d = 64
    r = 5
    k = 8
    seed = 101
    # uniform, or explicit weights: 0.2 0.5 0.3 ...; in any list of
    # numbers, value*count stands for count copies: 0.125*8
    pi = uniform

    [sensing]
    m = 20
    seed = 202
    # or an explicit positive float
    mu = auto_1.9

    # the name may use only letters, digits, '_' and '-'
    [schedule.geometric]
    kind = geometric
    sigma_max = 0.5
    sigma_min = 1e-4
    horizon = 150

    [run]
    n_iters = 150
    # or: trial_seeds = 7000 7001 ...
    trials = 20
    base_seed = 7000
    out_dir = out

A ``#`` starts a comment only at the start of a line.
"""

import configparser
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericFailureError, ResourceLimitError
from .lrgmm_prior import SPARSE_COMPONENT_CAP, log_mixture_weights, sparse_component_count
from .convex_prior import BoxSet
from .recovery_engine import SCHEDULE_FIELDS, SCHEDULE_KINDS, NoiseSchedule, _one_blas_thread, \
    schedule_sigma

MU_AUTO = "auto_1.9"

DEFAULT_PRIOR_SEED = 1
DEFAULT_SENSING_SEED = 2
DEFAULT_BASE_SEED = 1000

# The largest [run] trials and n_iters: a trace row is at least about 100
# bytes of CSV, so one run of MAX_N_ITERS rows already writes about 100 MB.
# Both are checked before anything is allocated in proportion to them.
MAX_TRIALS = 10**6
MAX_N_ITERS = 10**6

# The most entries K * d * r_max that a prior's stacked bases may hold
# (800 MB per float64 copy), checked before anything is built; also the
# longest that a list written with ``value*count`` may expand to, and the
# most entries m * m of the Gram matrix G = A A^T that every simulate
# worker holds (so [sensing] m is at most 10,000), checked when the config
# is parsed.
MAX_BASIS_ENTRIES = 10**8

# The keys each prior kind takes besides ``kind``, in resolved.cfg order.
_PRIOR_KEYS = {
    "lrgmm": ("d", "r", "k", "seed", "pi"),
    "sparse": ("d", "s", "pi"),
    "box": ("lower", "upper"),
    "file": ("path",),
}

PRIOR_KINDS = tuple(_PRIOR_KEYS)

# A schedule name becomes a trace file name and a field of analyze's CSV reports.
_SCHEDULE_NAME = re.compile(r"[A-Za-z0-9_-]+")

_RUN_KEYS = {"n_iters", "trials", "base_seed", "trial_seeds", "out_dir"}


@dataclass(frozen=True)
class PriorSpec:
    kind: str
    d: int = 0
    r: int = 0
    k: int = 0
    s: int = 0
    seed: int = 0
    pi: tuple = None
    lower: tuple = None
    upper: tuple = None
    path: str = None


@dataclass(frozen=True)
class SensingSpec:
    m: int
    seed: int
    mu: object = MU_AUTO  # the literal "auto_1.9" or an explicit float


@dataclass(frozen=True)
class ExperimentConfig:
    prior: PriorSpec
    sensing: SensingSpec
    schedules: tuple  # ((name, NoiseSchedule), ...)
    n_iters: int
    trial_seeds: tuple
    out_dir: str


def _fail(section, key, problem) -> ConfigError:
    where = f"[{section}] {key}" if key else f"[{section}]"
    return ConfigError(f"{where}: {problem}")


class _ListError(ValueError):
    """A list whose repeat form is malformed; the message says how."""


def _list_of(convert):
    """A space-separated list's converter, where ``value*count`` is ``count`` copies of value.

    Every count must be a positive integer, and the expanded length at most
    MAX_BASIS_ENTRIES; both are checked before the list is expanded.
    """
    def parse(text):
        entries = []
        for word in text.split():
            value, star, count = word.partition("*")
            try:
                repeat = int(count) if star else 1
            except ValueError:
                repeat = 0
            if repeat < 1:
                raise _ListError(f"the repeat count in {word!r} must be a positive integer")
            entries.append((convert(value), repeat))
        length = sum(repeat for _, repeat in entries)
        if length > MAX_BASIS_ENTRIES:
            raise _ListError(f"the list expands to {length} entries, "
                             f"over the cap of {MAX_BASIS_ENTRIES}")
        return tuple(value for value, repeat in entries for _ in range(repeat))
    return parse


# The types a key's value may have: how its text converts, and what an
# error message says was expected.
_INT = (int, "an integer")
_FLOAT = (float, "a number")
_INTS = (_list_of(int), "integers")
_FLOATS = (_list_of(float), "numbers")


def _get(section, values, key, as_type=_INT, default=None):
    """values[key] converted as ``as_type`` says, or ``default`` if absent and not None."""
    if key not in values:
        if default is None:
            raise _fail(section, key, "required key is missing")
        return default
    convert, noun = as_type
    try:
        return convert(values[key])
    except _ListError as exc:
        raise _fail(section, key, str(exc)) from None
    except ValueError:
        raise _fail(section, key, f"expected {noun}, got {values[key]!r}") from None


def _get_seed(section, values, key, default=None):
    seed = _get(section, values, key, _INT, default)
    if seed < 0:
        raise _fail(section, key, f"seeds must be >= 0, got {seed}")
    return seed


def _get_positive(section, values, key):
    value = _get(section, values, key)
    if value < 1:
        raise _fail(section, key, f"must be >= 1, got {value}")
    return value


def _get_floats(section, values, key):
    floats = _get(section, values, key, _FLOATS)
    if not all(math.isfinite(v) for v in floats):
        raise _fail(section, key, f"expected finite numbers, got {values[key]!r}")
    return floats


def _check_keys(section, values, allowed):
    unknown = set(values) - set(allowed)
    if unknown:
        raise _fail(section, sorted(unknown)[0], "unknown key")


def _get_pi(values, n_components):
    """None for uniform weights, else the explicit weights, checked as the prior checks them."""
    if values.get("pi", "uniform") == "uniform":
        return None
    pi = _get_floats("prior", values, "pi")
    try:
        log_mixture_weights(pi, n_components)
    except ValueError as exc:
        raise _fail("prior", "pi", str(exc)) from None
    return pi


def _check_size(section, count_key, k, d, r_max):
    """Reject more than the capped K (naming count_key) or K*d*r_max basis entries (naming d)."""
    if k > SPARSE_COMPONENT_CAP:
        raise _fail(section, count_key, f"{k} components exceed the cap of {SPARSE_COMPONENT_CAP}")
    if k * d * r_max > MAX_BASIS_ENTRIES:
        raise _fail(section, "d", f"K*d*r = {k}*{d}*{r_max} = {k * d * r_max} basis entries "
                                  f"exceed the cap of {MAX_BASIS_ENTRIES}")


def _parse_prior(values) -> PriorSpec:
    kind = values.get("kind")
    if kind not in PRIOR_KINDS:
        raise _fail("prior", "kind", f"must be one of {PRIOR_KINDS}, got {kind!r}")
    _check_keys("prior", values, ("kind",) + _PRIOR_KEYS[kind])
    if kind == "lrgmm":
        d, r = _get_positive("prior", values, "d"), _get("prior", values, "r")
        if not 1 <= r <= d:
            raise _fail("prior", "r", f"must be between 1 and d = {d}, got {r}")
        k = _get_positive("prior", values, "k")
        _check_size("prior", "k", k, d, r)
        return PriorSpec(
            kind=kind,
            d=d,
            r=r,
            k=k,
            seed=_get_seed("prior", values, "seed", DEFAULT_PRIOR_SEED),
            pi=_get_pi(values, k),
        )
    if kind == "sparse":
        d, s = _get_positive("prior", values, "d"), _get("prior", values, "s")
        if not 1 <= s <= d:
            raise _fail("prior", "s", f"must be between 1 and d = {d}, got {s}")
        try:
            n_components = sparse_component_count(d, s)
        except ResourceLimitError as exc:
            raise _fail("prior", "s", str(exc)) from None
        _check_size("prior", "s", n_components, d, s)
        return PriorSpec(kind=kind, d=d, s=s, pi=_get_pi(values, n_components))
    if kind == "box":
        lower = _get_floats("prior", values, "lower")
        upper = _get_floats("prior", values, "upper")
        if not lower:
            raise _fail("prior", "lower", "at least one coordinate is required")
        if len(lower) != len(upper):
            raise _fail("prior", "upper", "lower and upper must have equal length")
        try:
            BoxSet(lower=lower, upper=upper)
        except ValueError as exc:
            # BoxSet's rules on finite bounds: lower <= 0 <= upper, which
            # lower breaks if any entry is positive, and a finite width.
            key = "lower" if max(lower) > 0.0 else "upper"
            raise _fail("prior", key, str(exc)) from None
        return PriorSpec(kind=kind, d=len(lower), lower=lower, upper=upper)
    path = values.get("path")
    if not path:
        raise _fail("prior", "path", "required key is missing")
    return PriorSpec(kind=kind, path=path)


def _parse_sensing(values) -> SensingSpec:
    _check_keys("sensing", values, {"m", "seed", "mu"})
    mu = values.get("mu", MU_AUTO)
    if mu != MU_AUTO:
        mu = _get("sensing", values, "mu", (float, f"{MU_AUTO!r} or a number"))
        if not 0.0 < mu < math.inf:
            raise _fail("sensing", "mu", f"must be positive and finite, got {mu}")
    m = _get_positive("sensing", values, "m")
    if m * m > MAX_BASIS_ENTRIES:
        raise _fail("sensing", "m", f"m*m = {m}*{m} = {m * m} entries of G = A A^T "
                                    f"exceed the cap of {MAX_BASIS_ENTRIES}")
    return SensingSpec(
        m=m,
        seed=_get_seed("sensing", values, "seed", DEFAULT_SENSING_SEED),
        mu=mu,
    )


def _parse_schedule(section, values) -> NoiseSchedule:
    name = section.split(".", 1)[1]
    if not _SCHEDULE_NAME.fullmatch(name):
        raise _fail(section, None, "a schedule name may use only letters, digits, '_' and '-'")
    kind = values.get("kind", name if name in SCHEDULE_KINDS else None)
    if kind is None:
        raise _fail(section, "kind", "required key is missing")
    if kind not in SCHEDULE_KINDS:
        raise _fail(section, "kind", f"must be one of {SCHEDULE_KINDS}, got {kind!r}")
    _check_keys(section, values, ("kind",) + SCHEDULE_FIELDS[kind])
    fields = {key: _get(section, values, key, _INT if key == "horizon" else _FLOAT)
              for key in SCHEDULE_FIELDS[kind]}
    try:
        return NoiseSchedule(kind=kind, **fields)
    except ValueError as exc:
        raise _fail(section, None, str(exc)) from None


def _parse_run(values):
    _check_keys("run", values, _RUN_KEYS)
    if "trial_seeds" in values:
        for key in ("trials", "base_seed"):
            if key in values:
                raise _fail("run", key, f"give either {key} or trial_seeds, not both")
        seeds = _get("run", values, "trial_seeds", _INTS)
        if len(seeds) > MAX_TRIALS:
            raise _fail("run", "trial_seeds", f"{len(seeds)} seeds exceed the cap of {MAX_TRIALS}")
        if any(seed < 0 for seed in seeds):
            raise _fail("run", "trial_seeds", f"seeds must be >= 0, got {min(seeds)}")
    elif "trials" in values:
        count = _get_positive("run", values, "trials")
        if count > MAX_TRIALS:
            raise _fail("run", "trials", f"{count} trials exceed the cap of {MAX_TRIALS}")
        base = _get_seed("run", values, "base_seed", DEFAULT_BASE_SEED)
        seeds = tuple(base + i for i in range(count))
    else:
        raise _fail("run", "trials", "required key is missing (or give trial_seeds)")
    if not seeds:
        raise _fail("run", "trial_seeds", "at least one trial seed is required")
    if len(set(seeds)) != len(seeds):
        raise _fail("run", "trial_seeds", "trial seeds must be distinct")
    n_iters = _get("run", values, "n_iters") if "n_iters" in values else None
    return n_iters, seeds, values.get("out_dir", "out")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and resolve a config; all defaults become explicit fields."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    sections = set(cp.sections())
    schedule_sections = [s for s in cp.sections() if s.startswith("schedule.")]
    unknown = sections - {"prior", "sensing", "run"} - set(schedule_sections)
    if unknown:
        raise _fail(sorted(unknown)[0], None, "unknown section")
    for required in ("prior", "sensing", "run"):
        if required not in sections:
            raise _fail(required, None, "required section is missing")
    if not schedule_sections:
        raise ConfigError("at least one [schedule.<name>] section is required")

    prior = _parse_prior(dict(cp["prior"]))
    sensing = _parse_sensing(dict(cp["sensing"]))
    schedules = tuple(
        (section.split(".", 1)[1], _parse_schedule(section, dict(cp[section])))
        for section in schedule_sections
    )

    n_iters, seeds, out_dir = _parse_run(dict(cp["run"]))
    source = ("run", "n_iters")
    if n_iters is None:
        finite = [(s.horizon, name) for name, s in schedules if s.kind != "infinite_geometric"]
        if not finite:
            raise _fail("run", "n_iters", "required when all schedules are infinite")
        n_iters, name = min(finite, key=lambda item: item[0])
        source = (f"schedule.{name}", "horizon")
    if n_iters < 1:
        raise _fail("run", "n_iters", f"must be >= 1, got {n_iters}")
    if n_iters > MAX_N_ITERS:
        raise _fail(*source, f"{n_iters} iterations exceed the cap of {MAX_N_ITERS}")
    for name, sched in schedules:
        try:
            # Every kind decreases in n: the last sigma^2 is the run's smallest.
            sigma2 = schedule_sigma(sched, n_iters) ** 2
        except ValueError:  # n_iters lies past a finite horizon
            raise _fail(f"schedule.{name}", "horizon",
                        f"n_iters={n_iters} exceeds the horizon {sched.horizon}") from None
        if sigma2 < np.finfo(float).tiny:
            key = "a" if sched.kind == "infinite_geometric" else "sigma_min"
            raise _fail(f"schedule.{name}", key,
                        f"sigma^2 at n_iters={n_iters} underflows to {sigma2!r}")

    return ExperimentConfig(
        prior=prior,
        sensing=sensing,
        schedules=schedules,
        n_iters=n_iters,
        trial_seeds=seeds,
        out_dir=out_dir,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


# Building.  A build function is imported where it is called: a command loads
# only what its config needs (modelio only for a file prior).


def _allocated(section, key, build, *args):
    """``build(*args)``, with running out of memory reported as an error in ``[section] key``."""
    try:
        return build(*args)
    except MemoryError:
        raise _fail(section, key, "too large: not enough memory to build it") from None


def _build_prior(spec: PriorSpec):
    """The model a ``[prior]`` spec describes: an LrGmmPrior or a BoxSet."""
    from .lrgmm_prior import LrGmmPrior, random_lrgmm, sparse_gmm

    if spec.kind == "lrgmm":
        return random_lrgmm(spec.d, spec.r, spec.k, np.random.default_rng(spec.seed), pi=spec.pi)
    if spec.kind == "sparse":
        return sparse_gmm(spec.d, spec.s, pi=spec.pi)
    if spec.kind == "box":
        return BoxSet(lower=spec.lower, upper=spec.upper)
    from .model_sets import UnionOfSubspaces
    from .modelio import load_model

    try:
        model = load_model(spec.path)
    except (OSError, ValueError) as exc:
        problem = getattr(exc, "strerror", None) or exc
        raise _fail("prior", "path", f"{spec.path}: {problem}") from None
    return LrGmmPrior(model) if isinstance(model, UnionOfSubspaces) else model


def build(cfg: ExperimentConfig) -> tuple:
    """The (model, operator, mu) that ``cfg`` describes, built as ``simulate`` runs them.

    They are built at one OpenBLAS thread, which fixes their bytes.  Running
    out of memory, an unreadable model file and an auto_1.9 mu whose
    operator norm cannot be computed raise ConfigError naming the key.
    """
    from .sensing_analysis import gaussian_operator, spectral_norm

    with _one_blas_thread():
        model = _allocated("prior", "path" if cfg.prior.kind == "file" else "d",
                           _build_prior, cfg.prior)
        operator = _allocated("sensing", "m", gaussian_operator, cfg.sensing.m,
                              model.ambient_dim, np.random.default_rng(cfg.sensing.seed))
        if cfg.sensing.mu != MU_AUTO:
            return model, operator, float(cfg.sensing.mu)
        try:
            return model, operator, 1.9 / spectral_norm(operator) ** 2
        except NumericFailureError as exc:
            raise _fail("sensing", "mu", f"{MU_AUTO} needs the operator norm: {exc}") from None


def prior_descriptor(spec: PriorSpec) -> dict:
    """The prior as trace metadata names it: kind, d and its scalar keys, not its lists."""
    keys = ("kind",) + (() if spec.kind == "file" else ("d",)) + _PRIOR_KEYS[spec.kind]
    return {key: getattr(spec, key) for key in keys if isinstance(getattr(spec, key), (int, str))}


def _build_union(fields):
    """gen-model's bare ``union`` of random subspaces, from its keys d, ranks and seed."""
    from .model_sets import random_union

    _check_keys("union", fields, ("kind", "d", "ranks", "seed"))
    d, ranks = _get_positive("union", fields, "d"), _get("union", fields, "ranks", _INTS)
    if not ranks or not all(1 <= r <= d for r in ranks):
        raise _fail("union", "ranks", f"need ranks between 1 and d = {d}, got {fields['ranks']!r}")
    _check_size("union", "ranks", len(ranks), d, max(ranks))
    return _allocated("union", "d", random_union, d, ranks,
                      np.random.default_rng(_get_seed("union", fields, "seed")))


def generate_model(fields: dict, seed):
    """The model that gen-model's spec ``fields`` (its keys and ``kind``) describe.

    The kinds are ``union`` and every prior kind but ``file``, which read and
    check their keys as ``[union]`` and ``[prior]``.  A ``seed`` that is not
    None replaces the spec's seed for the kinds that have one.  Built at one
    OpenBLAS thread, as ``build`` builds.
    """
    kind = fields.get("kind")
    if seed is not None and (kind == "union" or "seed" in _PRIOR_KEYS.get(kind, ())):
        fields = dict(fields, seed=str(seed))
    with _one_blas_thread():
        if kind == "union":
            return _build_union(fields)
        if kind not in PRIOR_KINDS or kind == "file":
            raise ConfigError(f"unknown model kind {kind!r}")
        return _allocated("prior", "d", _build_prior, _parse_prior(fields))


def _fmt(value) -> str:
    if value is None:  # only an omitted pi, whose canonical text is "uniform"
        return "uniform"
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical resolved text; parse_config inverts it exactly."""
    lines = ["[prior]", f"kind = {cfg.prior.kind}"]
    lines += [f"{key} = {_fmt(getattr(cfg.prior, key))}" for key in _PRIOR_KEYS[cfg.prior.kind]]
    lines += [
        "",
        "[sensing]",
        f"m = {cfg.sensing.m}",
        f"seed = {cfg.sensing.seed}",
        f"mu = {_fmt(cfg.sensing.mu)}",
    ]
    for name, sched in cfg.schedules:
        lines += ["", f"[schedule.{name}]"]
        lines += [f"{key} = {_fmt(value)}" for key, value in sched.to_dict().items()]
    lines += [
        "",
        "[run]",
        f"n_iters = {cfg.n_iters}",
        f"trial_seeds = {_fmt(cfg.trial_seeds)}",
        f"out_dir = {cfg.out_dir}",
    ]
    return "\n".join(lines) + "\n"
