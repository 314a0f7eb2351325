"""cli_session workload: cold-start ``python -m leanreg`` commands, one at a time.

A pass runs a fixed list of commands in a fixed order on two CSVs written
from the workload seed. On the small one (n=2000, two covariates)
interpreter start-up and imports dominate; its commands also cover the
m-of-n and threaded bootstrap paths that mc_boot does not use. On the tall
one (2e5 rows, ten covariates, about 45 MB) CSV parsing and tall-matrix
work dominate; its bootstrap uses Rademacher weights.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback

import numpy as np

import gates
from common import derive_seed, median, run_child
from spans import Recorder

SMALL_N = 2000
TALL_N, TALL_P = 200_000, 10
SMALL_B, TALL_B, SMALL_M = 1000, 200, 2000
DATA_KEY, CLI_KEY = 3, 4
COMMAND_TIMEOUT_S = 60.0
# Replays that must reproduce the first pass byte for byte.
REPLAYED = ("fit", "check", "tall_fit", "tall_bootstrap")

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import leanreg\n"
    "import leanreg.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


class Table:
    """One CSV's design (intercept prepended, as --add-intercept does) and oracle."""

    def __init__(self, path: str, covariates: np.ndarray, y: np.ndarray):
        self.path = path
        self.x = np.column_stack([np.ones(len(y)), covariates])
        self.y = y
        self.n = len(y)
        self.beta, self.meat, self.avar = gates.sandwich_oracle(self.x, self.y)
        names = [f"x{j + 1}" for j in range(covariates.shape[1])] + ["y"]
        # %.17g round-trips every double, so the CLI parses exactly these values.
        np.savetxt(path, np.column_stack([covariates, y]), fmt="%.17g", delimiter=",",
                   header=",".join(names), comments="")


def make_tables(workdir: str, seed: int) -> dict[str, Table]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, DATA_KEY]))
    x1 = rng.standard_normal(SMALL_N)
    x2 = rng.uniform(-1.0, 1.0, SMALL_N)
    y = 1.0 + 0.5 * x1 + x2**2 + (0.5 + np.abs(x2)) * rng.standard_normal(SMALL_N)
    small = Table(os.path.join(workdir, "small.csv"), np.column_stack([x1, x2]), y)
    x = rng.standard_normal((TALL_N, TALL_P))
    y = (0.5 + x @ np.linspace(-1.0, 1.0, TALL_P) + 0.3 * x[:, 0] ** 2
         + (1.0 + np.abs(x[:, 1])) * rng.standard_normal(TALL_N))
    tall = Table(os.path.join(workdir, "tall.csv"), x, y)
    return {"small": small, "tall": tall}


def commands(tables: dict[str, Table], seed: int):
    """One pass: (name, table key, argv) in the order they run.

    The tall bootstrap, whose fastest run is the workload's timed metric,
    runs three times, spread through the pass so that its samples do not
    all fall into one slow or fast stretch of a shared machine.
    """
    s = ["--data", tables["small"].path, "--response", "y", "--add-intercept"]
    t = ["--data", tables["tall"].path, "--response", "y", "--add-intercept"]
    sd = ["--seed", str(derive_seed(seed, CLI_KEY))]
    check = ["check", "--dgp", "fixed_x_nonidentical_mean", "--n", "500", *sd]
    tall_boot = ["bootstrap", *t, "--B", str(TALL_B), "--weights", "rademacher", *sd]
    return [
        ("tall_bootstrap", "tall", tall_boot),
        ("fit", "small", ["fit", *s]),
        ("fit_repeat", "small", ["fit", *s]),
        ("test_normal", "small", ["test", *s, "--coef", "1", "--null", "0", "--reference", "normal"]),
        ("tall_fit", "tall", ["fit", *t]),
        ("test_bootstrap", "small", ["test", *s, "--reference", "bootstrap", "--B", str(SMALL_B), *sd]),
        ("bootstrap", "small", ["bootstrap", *s, "--B", str(SMALL_B), *sd]),
        ("tall_bootstrap_repeat", "tall", tall_boot),
        ("bootstrap_threads2", "small", ["bootstrap", *s, "--B", str(SMALL_B), *sd, "--threads", "2"]),
        ("bootstrap_m", "small", ["bootstrap", *s, "--B", str(SMALL_B), "--m", str(SMALL_M), *sd]),
        ("tall_fit_repeat", "tall", ["fit", *t]),
        ("check", "small", check),
        ("check_repeat", "small", check),
        ("tall_bootstrap_repeat", "tall", tall_boot),
    ]


def _fit_gates(name: str, r: dict, table: Table) -> list[str]:
    return (gates.fit_matches_lstsq(name, r["beta_hat"], table.x, table.y)
            + gates.close(f"{name} k_check", r["k_check"], table.meat))


def _bootstrap_gates(name: str, r: dict, table: Table, b: int) -> list[str]:
    problems = _fit_gates(name, r, table)
    problems += gates.draws_cov_near(name, r["draws_cov"], table.meat, b)
    mean_se = np.sqrt(np.diag(table.meat) / b)
    if not np.all(np.abs(np.asarray(r["draws_mean"])) <= 6.0 * mean_se):
        problems.append(f"{name}: draws_mean is more than 6 SE from zero")
    if not (np.all(np.asarray(r["rectangle_half_widths"]) > 0) and r["ellipsoid_radius"] > 0):
        problems.append(f"{name}: degenerate region")
    if r["b"] != b:
        problems.append(f"{name}: b={r['b']}, expected {b}")
    return problems


def check_output(name: str, text: str, seen: dict, table: Table) -> list[str]:
    """Gate one command's stdout; ``seen`` maps names to earlier stdout."""
    try:
        r = json.loads(text)["results"]
    except (ValueError, KeyError) as exc:
        return [f"{name}: unreadable report ({exc})"]
    if name.endswith("_repeat"):
        return gates.identical(f"{name} replay", seen[name.removesuffix("_repeat")], text)
    if name in ("fit", "tall_fit"):
        return _fit_gates(name, r, table)
    if name == "test_normal":
        stat = math.sqrt(table.n) * table.beta[1] / math.sqrt(table.avar[1, 1])
        return (gates.close(f"{name} statistic", r["statistic"], stat, 1e-6)
                + gates.relatively_close(f"{name} p_value", r["p_value"], gates.normal_p_value(stat)))
    if name == "test_bootstrap":
        stat = float(np.max(np.abs(math.sqrt(table.n) * table.beta / np.sqrt(np.diag(table.avar)))))
        problems = gates.close(f"{name} statistic", r["statistic"], stat, 1e-6)
        if not (1.0 / (SMALL_B + 1) <= r["p_value"] <= 1.0 and r["b"] == SMALL_B):
            problems.append(f"{name}: p_value {r['p_value']} or b {r['b']} out of range")
        return problems
    if name == "bootstrap":
        return _bootstrap_gates(name, r, table, SMALL_B)
    if name == "bootstrap_threads2":
        return gates.same_except_threads(name, seen["bootstrap"], text)
    if name == "bootstrap_m":
        problems = _bootstrap_gates(name, r, table, SMALL_B)
        if r["method"] != "resample_m_of_n" or r["m"] != SMALL_M:
            problems.append(f"{name}: method {r['method']} m {r['m']}")
        return problems
    if name == "check":
        err = float(np.linalg.norm(np.asarray(r["beta_hat"]) - np.asarray(r["beta_n"])))
        problems = gates.close(f"{name} error norm", r["estimation_error_norm"], err, 1e-9)
        if json.loads(text)["warnings"]:
            problems.append(f"{name}: warnings {json.loads(text)['warnings']}")
        return problems
    if name == "tall_bootstrap":
        return _bootstrap_gates(name, r, table, TALL_B)
    raise KeyError(name)


def subprocess_runner(workdir: str):
    out_path = os.path.join(workdir, "stdout.txt")

    def run(argv):
        code, seconds, rss = run_child([sys.executable, "-m", "leanreg", *argv], out_path, COMMAND_TIMEOUT_S)
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            return code, seconds, rss, handle.read()

    return run


def in_process_runner(leanreg_cli_module):
    """Calls ``main`` through the module attribute, so a wrapper is seen."""

    def run(argv):
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = leanreg_cli_module.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # counted as a failed command, with its traceback
            code = -1
            buf.write(traceback.format_exc())
        return code, time.perf_counter() - start, 0.0, buf.getvalue()

    return run


class Session:
    """Runs passes of the command list; records times, memory and gates."""

    def __init__(self, tables: dict[str, Table], seed: int):
        self.tables = tables
        self.cmds = commands(tables, seed)
        self.records: list[tuple[str, str, float, bool]] = []  # (name, table key, seconds, ok)
        self.first_pass: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.peak_rss_mb = 0.0
        self.problems: list[str] = []

    def run_pass(self, runner) -> float:
        seen: dict[str, str] = {}
        elapsed = 0.0
        for name, key, argv in self.cmds:
            code, seconds, rss, text = runner(argv)
            elapsed += seconds
            self.attempted += 1
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if code != 0:
                problems = [f"{name}: exit code {code}: {text.strip()[-300:]}"]
            else:
                problems = check_output(name, text, seen, self.tables[key])
                if name in self.first_pass and name in REPLAYED:
                    problems += gates.identical(f"{name} across passes", self.first_pass[name], text)
            seen[name] = text
            self.records.append((name, key, seconds, not problems))
            if problems:
                self.failed += 1
                self.problems += problems
        for name, text in seen.items():
            self.first_pass.setdefault(name, text)
        return elapsed

    def times(self, prefix: str = "", key: str | None = None) -> list[float]:
        """Wall times of the commands that succeeded and passed their gates.

        With none, the total time of all commands run stands in, so a
        failing command never reads as a fast one.
        """
        ok = [s for name, k, s, good in self.records if good and name.startswith(prefix) and key in (None, k)]
        return ok or [sum(s for _, _, s, _ in self.records)]


def run_timed(workdir: str, seed: int, seconds: float):
    """End-to-end run: whole passes until ``seconds`` have passed (at least one)."""
    session = Session(make_tables(workdir, seed), seed)
    runner = subprocess_runner(workdir)
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        session.run_pass(runner)
        passes += 1
    small = session.times(key="small")
    fit_t, boot_t = session.times("tall_fit"), session.times("tall_bootstrap")
    everything = session.times()
    attempted, failed = session.attempted, session.failed
    metrics = {"op_s_min": min(boot_t), "peak_rss_mb": session.peak_rss_mb}
    lines = [
        f"cli_tall_boot_s_min = {min(boot_t):.6g} s (fastest of n={len(boot_t)} tall bootstraps, {passes} passes)",
        f"cli_tall_fit_s = {median(fit_t):.6g} s (median, n={len(fit_t)})",
        f"cli_tall_boot_s = {median(boot_t):.6g} s (median, n={len(boot_t)})",
        f"cli_small_s_p50 = {median(small):.6g} s (median, n={len(small)} small-CSV commands)",
        f"commands_per_s = {len(everything) / sum(everything):.6g} 1/s (n={len(everything)} commands)",
        f"peak_rss_mb = {session.peak_rss_mb:.6g} MB (max over n={len(everything)} child processes)",
        f"fail_ratio = {failed / attempted:.6g} (n={attempted} commands, {failed} failed)",
    ]
    lines += [f"{name}: {s:.4f} s{'' if ok else ' (failed)'}" for name, _, s, ok in session.records]
    return metrics, attempted, failed, session.problems, lines


def run_traced(workdir: str, seed: int, cli_module, labels, hooks):
    """Traced run: one untraced in-process pass, then one traced pass."""
    session = Session(make_tables(workdir, seed), seed)
    runner = in_process_runner(cli_module)
    untraced_s = session.run_pass(runner)
    recorder = Recorder()
    recorder.install(labels, hooks)
    try:
        traced_s = session.run_pass(runner)
    finally:
        recorder.uninstall()
    return {
        "recorder": recorder,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
    }
