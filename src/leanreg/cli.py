"""Command line front end: fit, test, bootstrap, simulate, check.

Input data is CSV with a header row, comma separators and '.' decimals; the
response column is named, every remaining numeric column becomes a covariate
in header order, and an explicit flag prepends an intercept column (the
library never adds one silently). Reports are JSON with the full config
echoed, so any stochastic command can be replayed bit-exactly from its own
output; coverage tables are additionally written as CSV for plotting.
``bootstrap`` runs the multiplier bootstrap unless ``--m`` is given, which
alone switches to the m-of-n resampling bootstrap. ``test``, ``simulate`` and
``check`` import ``inference``, the simulation lab and the diagnostics when
they run, so ``fit`` and ``bootstrap`` never load them.

Exit codes: 0 success, 2 usage or config error, 3 data error (including a
missing, unreadable or non-UTF-8 data file), 4 numerical error (singular
design and friends, and a result that does not fit in a double).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .bootstrap import (
    WEIGHT_DISTS,
    _quantile_rank,
    clamped_quantile_warnings,
    region_ellipsoid,
    region_rectangle,
    run_bootstrap,
)
from .exceptions import (
    BadCoordinate,
    EmptyData,
    LeanRegError,
    MissingColumn,
    NonFiniteValue,
    NonNumericCell,
)
from .ols import Dataset, fit_ols
from .variance import classical_avar, hc1_avar, residual_variance, sandwich_avar

SEED_ENV_VAR = "LEANREG_SEED"

# A file gets at most one data span per this many bytes (and one per usable
# core): a smaller span parses too quickly to repay the fork and the pipe.
_SPAN_MIN_BYTES = 4 << 20

_DATA_ERRORS = (MissingColumn, NonNumericCell, EmptyData, OSError, UnicodeDecodeError)

_REFERENCE_FLAG = {"normal": "std_normal", "t": "student_t", "bootstrap": "bootstrap"}

_FINITE_SAMPLE_WARNING = (
    "asymptotically conservative tests can exceed nominal size in finite "
    "samples; the guarantee is an asymptotic one"
)


def read_csv(path: str, response_column: str, add_intercept: bool = False) -> Dataset:
    """Load a header-prefixed CSV into a Dataset.

    The response column becomes y; all other columns become x in header
    order, optionally behind a prepended ones column. The response must name
    exactly one header column, and another column must exist unless
    ``add_intercept`` is set (MissingColumn otherwise). Cells must parse as
    finite numbers; otherwise the column and the physical line the row ends
    on are named, and a file that is not UTF-8 raises UnicodeDecodeError
    naming its first undecodable line. A cell the csv module refuses (one
    over its field size limit) raises NonNumericCell naming the line.

    The csv reader of the header (quoted, or over several lines) is the one
    reader of rows, and the stream position after the header, taken once, is
    where the data start. They are parsed by ``np.loadtxt``, which gives the
    same doubles as ``float()``. On two or more usable cores, a file of at
    least two ``_SPAN_MIN_BYTES`` is cut from there into line-aligned spans
    (``_span_bounds``) that are parsed at once (``_table_by_spans``); every
    cell still goes through the same ``loadtxt``, so the table does not
    depend on the span count. A file that some span cannot take whole, or
    that parses to no rows, the wrong width or a non-finite value, is read
    again from the data start by that reader in ``_table_by_rows``, which
    alone owns the per-cell messages and the cells only ``float()`` accepts
    (quoted numbers, ``1_000``). A stream that cannot seek, such as a pipe or
    a FIFO, is copied into memory once, as bytes, and takes no spans; the
    reader reads the copy again, and ``_undecodable_line`` names a bad line.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        piped = not handle.seekable()
        if piped:  # the fallback below reads the rows again, so keep one copy of the bytes
            handle = io.TextIOWrapper(io.BytesIO(handle.buffer.read()), "utf-8-sig", newline="")
        try:
            # readline, unlike iterating the handle, leaves handle.tell() usable
            reader = csv.reader(iter(handle.readline, ""))
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyData(f"{path} is empty") from None
            start = handle.tell()
            header = [h.strip() for h in header]
            if header.count(response_column) != 1:
                raise MissingColumn(
                    f"response column {response_column!r} must appear exactly once "
                    f"in header {header}"
                )
            if len(header) == 1 and not add_intercept:
                raise MissingColumn(
                    f"{path} has no covariate column besides {response_column!r}; "
                    "an intercept-only fit needs --add-intercept"
                )
            y_idx = header.index(response_column)
            try:
                bounds = None if piped else _span_bounds(handle.fileno(), start)
                table = _loadtxt(handle) if bounds is None else _table_by_spans(handle.fileno(), bounds)
            except ValueError:
                table = np.empty((0, 0))
            if table.shape[0] == 0 or table.shape[1] != len(header) or not np.isfinite(table).all():
                handle.seek(start)
                table = _table_by_rows(path, reader, header)
        except UnicodeDecodeError as exc:
            raise _undecodable_line(path, handle.buffer, exc) from None
        except csv.Error as exc:
            # e.g. a cell over the csv module's field size limit
            raise NonNumericCell(f"{path}: line {reader.line_num}: {exc}") from None
    lead = int(add_intercept)
    x = np.empty((table.shape[0], lead + table.shape[1] - 1))
    x[:, :lead] = 1.0
    x[:, lead : lead + y_idx] = table[:, :y_idx]
    x[:, lead + y_idx :] = table[:, y_idx + 1 :]
    return Dataset(x=x, y=table[:, y_idx])


def _loadtxt(source) -> np.ndarray:
    """The rows of ``source`` (a text stream) as one vectorized pass parses them."""
    with warnings.catch_warnings():
        # a header-only file is the fallback's EmptyData, not a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # comments=None: the default '#' would truncate a cell like 1,2#3
        return np.loadtxt(source, delimiter=",", comments=None, ndmin=2)


def _usable_cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _span_bounds(fd: int, start: int) -> list[int] | None:
    """Byte offsets that cut the data of file ``fd`` into spans, or None for one span.

    The data start at ``start``, read_csv's ``tell()`` after the header. There
    are at most one span per usable core and one per ``_SPAN_MIN_BYTES`` of
    data. Each cut follows the first newline byte within 64 KiB of an even
    share of the data (a newline byte only ever ends a line in UTF-8), so a
    longer line there leaves the file one span fewer. A file keeps one span
    without ``os.fork``, or when the decoder holds state after the header
    (one ended by a lone carriage return): ``tell()`` then packs that state
    above bit 64, so the data seem to end before they start.
    """
    size, cores = os.fstat(fd).st_size, _usable_cores()
    if not hasattr(os, "fork") or min(cores, size // _SPAN_MIN_BYTES) < 2:
        return None
    count = min(cores, (size - start) // _SPAN_MIN_BYTES)
    bounds = [start]
    for i in range(1, count):
        pos = start + i * (size - start) // count
        end = os.pread(fd, 1 << 16, pos).find(b"\n")
        if end >= 0 and bounds[-1] < pos + end + 1 < size:
            bounds.append(pos + end + 1)
    return bounds + [size] if len(bounds) > 1 else None


def _table_by_spans(fd: int, bounds: list[int]) -> np.ndarray:
    """The rows of the byte spans between ``bounds``, in file order.

    Each span after the first goes to a forked child, which writes the
    span's shape as two int64 values and then its doubles to a pipe, and
    leaves by ``os._exit``, so it never returns into the caller or flushes
    the parent's buffers; it writes nothing if the span does not parse. A
    child runs only the parser, which takes no lock that another thread of
    the parent (a BLAS worker) could hold at the fork. The first span, and
    any span whose pipe or fork fails, is parsed here while the children
    run. Raises ValueError when a span does not parse, a child sends no
    complete table, or the spans differ in width. Every child is killed if
    still running and reaped before this returns or raises.
    """
    import signal

    children = {}  # span index -> (pid, read end of its pipe)
    try:
        for i, (lo, hi) in enumerate(zip(bounds[1:-1], bounds[2:]), start=1):
            try:
                read_end, write_end = os.pipe()
            except OSError:
                continue
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                continue
            if pid == 0:
                code = 1
                try:
                    os.close(read_end)
                    table = _parse_span(fd, lo, hi)
                    with open(write_end, "wb") as pipe:
                        pipe.write(np.array(table.shape, np.int64).tobytes())
                        pipe.write(np.ascontiguousarray(table).data)
                    code = 0
                finally:
                    os._exit(code)
            children[i] = (pid, read_end)
            os.close(write_end)
        parts = []
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if i not in children:
                parts.append(_parse_span(fd, lo, hi))
                continue
            with open(children[i][1], "rb", closefd=False) as pipe:
                data = pipe.read()
            # a child that failed or died sent too few bytes for the shape it names
            parts.append(np.frombuffer(data, offset=16).reshape(np.frombuffer(data, np.int64, 2)))
        # a span of blank lines adds no rows; no rows at all is a ValueError here
        return np.concatenate([part for part in parts if part.shape[0]])
    finally:
        for pid, pipe in children.values():
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)  # a child that has sent its rows loses nothing
            os.waitpid(pid, 0)


def _parse_span(fd: int, lo: int, hi: int) -> np.ndarray:
    """``_loadtxt`` of the bytes [lo, hi) of ``fd`` decoded as UTF-8."""
    data = io.BytesIO(os.pread(fd, hi - lo, lo))
    return _loadtxt(io.TextIOWrapper(data, encoding="utf-8", newline=""))


def _table_by_rows(path: str, reader, header: list[str]) -> np.ndarray:
    """The rows after the header cell by cell, named by the line each ends on; blank rows are skipped."""
    rows = []
    for row in reader:
        r = reader.line_num
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise NonNumericCell(
                f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
            )
        parsed = []
        for c, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"{path}: cell {cell!r} at row {r}, column {header[c]!r} is not numeric"
                ) from None
            if not math.isfinite(value):
                raise NonNumericCell(
                    f"{path}: non-finite value at row {r}, column {header[c]!r}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise EmptyData(f"{path} has a header but no data rows")
    return np.asarray(rows, dtype=float)


def _undecodable_line(path: str, data, exc: UnicodeDecodeError) -> UnicodeDecodeError:
    """``exc`` restated for the first physical line of ``data`` that is not UTF-8.

    ``data`` holds the input's bytes; it is rewound, never opened again by
    name. A decoder error counts bytes from the start of a buffered chunk;
    this one holds that line, so its position is the byte offset within it.
    """
    data.seek(0)
    for lineno, line in enumerate(data, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as err:
            reason = f"{err.reason} in {path}, line {lineno} (position is within the line)"
            return UnicodeDecodeError(err.encoding, line, err.start, err.end, reason)
    return exc


def write_csv(dataset: Dataset, path: str) -> None:
    """Write a Dataset back to CSV as columns x0, x1, ..., y with shortest round-trip float formatting."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"x{j}" for j in range(dataset.p)] + ["y"])
        for xi, yi in zip(dataset.x, dataset.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


@dataclass
class RunConfig:
    """One resolved CLI invocation; the echo of this is what replay uses."""

    command: str
    data: str | None = None
    response: str | None = None
    add_intercept: bool = False
    variance: str = "hc0"
    weights: str = "gaussian"
    b: int = 1000
    m: int | None = None
    alpha: float = 0.05
    reference: str = "normal"
    coef: int | None = None
    null: str | None = None
    dgp: str | None = None
    noise_scale: float | None = None
    n: int | None = None
    reps: int | None = None
    methods: str | None = None
    seed: int | None = None
    out: str | None = None
    threads: int = 1

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        stochastic = self.command in ("bootstrap", "simulate", "check") or (
            self.command == "test" and self.reference == "bootstrap"
        )
        if stochastic and self.seed is None:
            raise ValueError(
                f"command {self.command!r} is stochastic; pass --seed or set {SEED_ENV_VAR}"
            )
        if self.out:
            # checked before the run, which a report that cannot be written would lose
            folder = os.path.dirname(self.out) or "."
            if os.path.isdir(self.out) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
                raise ValueError(f"--out {self.out!r} is a directory or not in a writable directory")
            if self.command == "simulate" and os.path.isdir(_coverage_csv_path(self.out)):
                raise ValueError(f"the coverage table {_coverage_csv_path(self.out)!r} is a directory")


def _coverage_csv_path(out: str) -> str:
    """The coverage table that ``simulate --out`` writes beside its JSON report."""
    return (out[:-5] if out.endswith(".json") else out) + ".csv"


@dataclass
class Report:
    command: str
    config: dict
    results: dict
    warnings: list


def _json_default(obj):
    """numpy arrays and scalars as lists and Python numbers; json handles the rest."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def report_json(report: Report) -> str:
    """The report as JSON; an infinity or NaN in it raises NonFiniteValue."""
    try:
        return json.dumps(vars(report), sort_keys=True, indent=2, default=_json_default, allow_nan=False)
    except ValueError:
        raise NonFiniteValue(f"the {report.command} result holds an infinity or NaN") from None


def _variance_for(fit, kind: str):
    if kind == "classical":
        return classical_avar(fit)
    hc0 = sandwich_avar(fit)
    return hc1_avar(fit, hc0) if kind == "hc1" else hc0


def _parse_null(config: RunConfig, p: int) -> np.ndarray:
    if config.null is None:
        return np.zeros(p)
    parts = [float(v) for v in str(config.null).split(",")]
    if not all(math.isfinite(v) for v in parts):
        raise ValueError(f"--null must be finite, got {config.null!r}")
    if len(parts) == 1:
        return np.full(p, parts[0])
    if len(parts) != p:
        raise ValueError(f"--null has {len(parts)} entries, expected 1 or {p}")
    return np.asarray(parts)


def _cmd_fit(config: RunConfig) -> tuple[dict, list]:
    fit = fit_ols(read_csv(config.data, config.response, config.add_intercept))
    sand = sandwich_avar(fit)
    results = {
        "n": fit.n,
        "p": fit.p,
        "beta_hat": fit.beta_hat,
        "se_sandwich_hc0": sand.se,
        "avar_sandwich_hc0": sand.avar,
        "k_check": sand.meat,
        "sigma_hat": fit.sigma_hat,
    }
    warnings = []
    if fit.n > fit.p:
        classical = classical_avar(fit)
        results["se_classical"] = classical.se
        results["sigma2_classical"] = residual_variance(fit)
        results["se_sandwich_hc1"] = hc1_avar(fit, sand).se
    else:
        results["se_classical"] = None
        warnings.append("n == p: classical and HC1 standard errors are undefined")
    return results, warnings


def _cmd_test(config: RunConfig) -> tuple[dict, list]:
    from .inference import max_t_test, t_test

    fit = fit_ols(read_csv(config.data, config.response, config.add_intercept))
    var = _variance_for(fit, config.variance)
    reference = _REFERENCE_FLAG[config.reference]
    draws = None
    if reference == "bootstrap":
        draws = run_bootstrap(fit, b=config.b, dist=config.weights, seed=config.seed)
    null = _parse_null(config, fit.p)
    warnings = [_FINITE_SAMPLE_WARNING]
    if config.coef is not None:
        if not 0 <= config.coef < fit.p:
            raise BadCoordinate(f"coordinate {config.coef} out of range for p={fit.p}")
        res = t_test(fit, var, config.coef, float(null[config.coef]), reference, draws=draws)
    else:
        res = max_t_test(fit, var, null, reference, draws=draws)
        if reference != "bootstrap":
            warnings.append(
                "max-|t| with a normal/t reference uses a Bonferroni bound; "
                "the bootstrap reference is recommended"
            )
    return dataclasses.asdict(res) | {"variance_method": var.method}, warnings


def _cmd_bootstrap(config: RunConfig) -> tuple[dict, list]:
    fit = fit_ols(read_csv(config.data, config.response, config.add_intercept))
    var = _variance_for(fit, config.variance)
    draws = run_bootstrap(fit, b=config.b, m=config.m, dist=config.weights, seed=config.seed)
    rect = region_rectangle(fit, draws, var, config.alpha)
    ellip = region_ellipsoid(fit, draws, var, config.alpha)
    results = {
        "beta_hat": fit.beta_hat,
        "method": draws.method,
        "b": draws.b,
        "m": draws.m,
        "weight_dist": draws.dist,
        "level": 1.0 - config.alpha,
        "rectangle_half_widths": rect.half_widths,
        "ellipsoid_quad_form": ellip.quad_form,
        "ellipsoid_radius": ellip.radius,
        "draws_mean": draws.draws_t.mean(axis=0),
        "draws_cov": np.atleast_2d(np.cov(draws.draws_t.T, bias=True)),
        "k_check": var.meat,
        "se_used": var.se,
    }
    return results, clamped_quantile_warnings(config.b, config.alpha)


def _cmd_simulate(config: RunConfig) -> tuple[dict, list]:
    from .simlab import METHOD_KINDS, Dgp, run_coverage

    methods = (
        tuple(m.strip() for m in config.methods.split(","))
        if config.methods is not None
        else tuple(m for m, kind in METHOD_KINDS.items() if kind != "test")
    )
    report = run_coverage(
        Dgp(kind=config.dgp, noise_scale=config.noise_scale),
        n=config.n,
        replications=config.reps,
        methods=methods,
        alpha=config.alpha,
        seed=config.seed,
        b=config.b,
        weight_dist=config.weights,
    )
    results = {
        "scenario": report.scenario,
        "n": report.n,
        "replications": report.replications,
        "alpha": report.alpha,
        "methods": report.methods,
        "coverage": report.coverage,
        "coverage_se": report.coverage_se,
        "mean_width": report.mean_width,
        "rejection_rate": report.rejection_rate,
        "rejection_se": report.rejection_se,
        "excluded": report.excluded,
    }
    warnings = []
    if report.excluded:
        warnings.append(f"{report.excluded} replication(s) excluded for singular designs")
    kinds = {METHOD_KINDS[m] for m in methods}
    if {"rectangle", "ellipsoid"} & kinds:
        warnings += clamped_quantile_warnings(config.b, config.alpha)
    if "test" in kinds and _quantile_rank(config.b, config.alpha) > config.b:
        floor = f"1/(B+1) = {1 / (config.b + 1):.4g}"
        warnings.append(f"max_t_bootstrap cannot reject: its p-value is at least {floor} > alpha")
    return results, warnings


def _coverage_csv_rows(results: dict):
    rows = [("method", "metric", "coordinate", "value")]
    for method, values in sorted(results["coverage"].items()):
        for j, v in enumerate(values):
            rows.append((method, "coverage", j, repr(float(v))))
        for j, v in enumerate(results["coverage_se"][method]):
            rows.append((method, "coverage_se", j, repr(float(v))))
    for method, values in sorted(results["mean_width"].items()):
        for j, v in enumerate(values):
            rows.append((method, "mean_width", j, repr(float(v))))
    for method, v in sorted(results["rejection_rate"].items()):
        rows.append((method, "rejection_rate", "", repr(float(v))))
        rows.append((method, "rejection_se", "", repr(float(results["rejection_se"][method]))))
    return rows


def _cmd_check(config: RunConfig) -> tuple[dict, list]:
    from .diagnostics import det_inequality_check, influence_remainder
    from .simlab import Dgp, population_targets, sample

    dgp = Dgp(kind=config.dgp, noise_scale=config.noise_scale)
    pop = population_targets(dgp, config.n)
    data = sample(dgp, config.n, config.seed)
    fit = fit_ols(data)
    det = det_inequality_check(fit.sigma_hat, fit.gamma_hat, pop.sigma_n, pop.gamma_n)
    remainder = influence_remainder(fit, pop.sigma_n_inv, pop.beta_n, pop.score_means)
    results = {
        "beta_hat": fit.beta_hat,
        "beta_n": pop.beta_n,
        "deterministic_inequality": dataclasses.asdict(det),
        "influence_remainder": remainder,
        "estimation_error_norm": float(np.linalg.norm(fit.beta_hat - pop.beta_n)),
    }
    warnings = []
    if det.precondition_holds and not (det.sandwich_ok and det.remainder_ok):
        warnings.append("deterministic inequality violated beyond slack; this indicates a bug")
    return results, warnings


_DATA_FLAGS = ("data", "response", "add_intercept")
_COMMON_FLAGS = ("seed", "out", "threads")

# every flag once, by its RunConfig field: its spelling and its argparse keywords; test and
# bootstrap take different --variance choices, so that flag has two entries
_FLAGS = {
    "data": ("--data", dict(required=True, help="input CSV path (header row required)")),
    "response": ("--response", dict(required=True, help="name of the response column")),
    "add_intercept": ("--add-intercept", dict(action="store_true", help="prepend a ones column")),
    "coef": ("--coef", dict(type=int, help="coordinate to test; omit for max-|t|")),
    "null": ("--null", dict(help="null value(s), comma separated or scalar")),
    "variance": ("--variance", dict(choices=("classical", "hc0", "hc1"))),
    "studentizer": ("--variance", dict(
        dest="variance", choices=("hc0", "hc1"),
        help="studentizer; hc1 scales hc0 by n/(n-p), which moves se_used but neither region",
    )),
    "reference": ("--reference", dict(choices=tuple(_REFERENCE_FLAG))),
    "weights": ("--weights", dict(choices=WEIGHT_DISTS)),
    "b": ("--B", dict(dest="b", type=int, help="bootstrap replicates")),
    "m": ("--m", dict(type=int, help="resample size; passing it selects the m-of-n resampling bootstrap")),
    "alpha": ("--alpha", dict(type=float)),
    "dgp": ("--dgp", dict(required=True, help="scenario kind")),
    "noise_scale": ("--noise-scale", dict(type=float)),
    "n": ("--n", dict(type=int, required=True)),
    "reps": ("--reps", dict(type=int, required=True)),
    "methods": ("--methods", dict(help="comma list; default all interval/region methods")),
    "seed": ("--seed", dict(type=int, help=f"RNG seed (or {SEED_ENV_VAR})")),
    "out": ("--out", dict(help="write the JSON report here instead of stdout")),
    "threads": ("--threads", dict(type=int, help="kept for replay; results depend only on the seed")),
}

# each subcommand: its runner, its help and its flags, in the order --help lists them
_COMMANDS = {
    "fit": (_cmd_fit, "fit OLS and report classical vs sandwich SEs", _DATA_FLAGS + _COMMON_FLAGS),
    "test": (_cmd_test, "conservative t or max-|t| test",
             _DATA_FLAGS + ("coef", "null", "variance", "reference", "weights", "b") + _COMMON_FLAGS),
    "bootstrap": (_cmd_bootstrap, "score bootstrap and confidence regions",
                  _DATA_FLAGS + ("studentizer", "weights", "b", "m", "alpha") + _COMMON_FLAGS),
    "simulate": (_cmd_simulate, "Monte Carlo coverage / type-I error study",
                 ("dgp", "noise_scale", "n", "reps", "alpha", "b", "weights", "methods") + _COMMON_FLAGS),
    "check": (_cmd_check, "deterministic inequality and linear-representation check",
              ("dgp", "noise_scale", "n") + _COMMON_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leanreg",
        description="Assumption-lean least squares: estimation, conservative inference, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, flags) in _COMMANDS.items():
        # an absent flag stays out of the namespace, so RunConfig holds every default
        command = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag in flags:
            spelling, keywords = _FLAGS[flag]
            command.add_argument(spelling, **keywords)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(**vars(args))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if config.seed is None and env_seed:
        try:
            config.seed = int(env_seed)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
    return config


def run_command(config: RunConfig) -> Report:
    """Validate the config, run its command and build its Report."""
    config.validate()
    results, warnings = _COMMANDS[config.command][0](config)
    return Report(config.command, dataclasses.asdict(config), results, warnings)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        # an overflow, and a NaN made of one, reaches a gate or report_json, which name it
        with np.errstate(over="ignore", invalid="ignore"):
            report = run_command(config)
            text = report_json(report)
    except _DATA_ERRORS + (LeanRegError,) as exc:
        payload = {
            "command": config.command,
            "config": dataclasses.asdict(config),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2), config.out)
        return 3 if isinstance(exc, _DATA_ERRORS) else 4
    except ValueError as exc:
        parser.exit(2, f"leanreg: config error: {exc}\n")
    _emit(text, config.out)
    if config.command == "simulate" and config.out:
        with open(_coverage_csv_path(config.out), "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(_coverage_csv_rows(report.results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
