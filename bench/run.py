"""leanreg benchmark: Monte Carlo throughput with and without the score
bootstrap, and a session of cold-start CLI commands.

    python3 bench/run.py --workload mc_boot --seed 1 --seconds 15 --trace 0

Workloads (all single-process and closed-loop, BLAS single-threaded):

- mc_boot: ``simlab.run_coverage`` on fixed_x_nonidentical_mean, n=500,
  B=1000 gaussian draws, rectangle + ellipsoid regions + max-|t| bootstrap
  test, one replication per chunk. The bootstrap does most of the work.
- mc_plain: ``run_coverage`` on heteroscedastic_iid, n=500, classical and
  sandwich normal intervals, chunks of 100. No bootstrap at all.
- cli_session: cold ``python -m leanreg`` subprocesses in a fixed order on
  a small and a tall CSV written from the seed (see cli_session.py).

With ``--trace 0`` the last line carries the end-to-end metrics, shared by
all workloads:

- setup_s: median over fresh interpreters of importing leanreg plus the
  DGP's ``population_targets`` (mc_*) or plus ``leanreg.cli``
  (cli_session), which is also the start-up every CLI command pays.
- op_s_min: wall time of the fastest operation of the run: a chunk
  (mc_*), or a tall-CSV bootstrap, which reads, fits and draws
  (cli_session).
- peak_rss_mb: peak RSS of the workload process (mc_*) or of its largest
  child (cli_session).

The timed metric is a minimum because the machine this was built on (2
shared vCPUs) changes speed by 25-40% from one stretch of seconds to the
next; timing noise only ever adds time, so the fastest operation tracks the
code while a median tracks the machine. The lines above the last one print
the medians, throughput and tail percentile as well (reps_per_s,
chunk_s_p50, chunk_s_tail, cli_small_s_p50, cli_tall_fit_s,
cli_tall_boot_s) with sample counts, and fail_ratio; the JSON line carries
the failures as ``failed`` out of ``attempted``.

With ``--trace 1`` the run times calls into leanreg's public functions from
outside (spans.py) over a fixed amount of work, and the last line carries
the per-layer metrics: ``<module>.<function>.calls`` and ``.self_s`` summed
over that work, plus the derived ratios listed in PER_LAYER.

The exit code is 0 when a result was printed (gate failures show in
``correct`` and ``failed``), 2 when the checkout has no leanreg sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile

from common import OUT_DIR, ROOT, SRC, fresh_import_seconds, median, pin_blas_threads
from spans import subtree_shares, summarize

WORKLOADS = ("mc_boot", "mc_plain", "cli_session")

END_TO_END = {"setup_s": "s", "op_s_min": "s", "peak_rss_mb": "MB"}

# Functions wrapped in the traced run, as "<module>.<function>".
TRACED = (
    "linalg.solve_spd", "linalg.eig_sym_extremes", "linalg.op_norm", "linalg.psd_leq",
    "ols.fit_ols", "ols.scores_at", "ols.target_from_moments",
    "variance.k_check", "variance.sandwich_avar", "variance.classical_avar",
    "bootstrap.subseed", "bootstrap.gen_weights", "bootstrap.multiplier_draw",
    "bootstrap.resample_draw", "bootstrap.run_bootstrap",
    "bootstrap.region_rectangle", "bootstrap.region_ellipsoid",
    "inference.t_test", "inference.max_t_test",
    "diagnostics.det_inequality_check", "diagnostics.influence_remainder",
    "simlab.population_targets", "simlab.population_score_means", "simlab.sample",
    "simlab.run_coverage", "simlab.run_consistency",
    "cli.read_csv", "cli.report_json", "cli.run_command", "cli.main",
)

PER_LAYER = {
    "bootstrap.run_bootstrap.calls": "count",
    "bootstrap.run_bootstrap.self_s": "s",
    "bootstrap.draws_per_s": "1/s",
    "bootstrap.subseed.self_s": "s",
    "bootstrap.gen_weights.self_s": "s",
    "bootstrap.multiplier_draw.calls": "count",
    "bootstrap.resample_draw.calls": "count",
    "bootstrap.region_rectangle.self_s": "s",
    "bootstrap.region_ellipsoid.self_s": "s",
    "inference.max_t_test.self_s": "s",
    "inference.t_test.self_s": "s",
    "linalg.solve_spd.calls": "count",
    "linalg.solve_spd.self_s": "s",
    "linalg.solves_per_rep": "count",
    "ols.fit_ols.calls": "count",
    "ols.fit_ols.self_s": "s",
    "variance.k_check.calls": "count",
    "variance.k_check.self_s": "s",
    "variance.sandwich_avar.self_s": "s",
    "variance.classical_avar.self_s": "s",
    "simlab.sample.self_s": "s",
    "simlab.population_targets.calls": "count",
    "simlab.population_targets.self_s": "s",
    "simlab.run_coverage.self_s": "s",
    "simlab.excluded_ratio": "ratio",
    "diagnostics.det_inequality_check.self_s": "s",
    "diagnostics.influence_remainder.self_s": "s",
    "cli.import_s": "s",
    "cli.read_csv.self_s": "s",
    "cli.read_csv.mb_per_s": "MB/s",
    "cli.report_json.self_s": "s",
    "cli.run_command.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _count_draws(counters, args, kwargs, result):
    counters["draws"] += int(getattr(result, "b", 0))


def _count_replications(counters, args, kwargs, result):
    counters["replications"] += int(result.replications)
    counters["excluded"] += int(result.excluded)


def _count_csv_bytes(counters, args, kwargs, result):
    counters["csv_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


HOOKS = {
    "bootstrap.run_bootstrap": _count_draws,
    "simlab.run_coverage": _count_replications,
    "cli.read_csv": _count_csv_bytes,
}


def layer_metrics(traced: dict, import_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics and report lines from a traced run."""
    rec = traced["recorder"]
    summary = summarize(rec.spans, rec.labels)
    counts = rec.counters

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name in PER_LAYER:
        label, _, stat = name.rpartition(".")
        if stat in ("calls", "self_s"):
            values[name] = summary[label][stat]
    reps = counts["replications"]
    values["bootstrap.draws_per_s"] = ratio(counts["draws"], summary["bootstrap.run_bootstrap"]["total_s"])
    values["linalg.solves_per_rep"] = ratio(summary["linalg.solve_spd"]["calls"], reps)
    values["simlab.excluded_ratio"] = ratio(counts["excluded"], reps)
    values["cli.import_s"] = import_s
    values["cli.read_csv.mb_per_s"] = ratio(counts["csv_bytes"] / 1e6, summary["cli.read_csv"]["total_s"])
    values["trace.overhead_ratio"] = ratio(traced["untraced_s"], traced["traced_s"])

    lines = [
        f"traced: {len(rec.spans)} spans, {reps} replications, untraced {traced['untraced_s']:.4f} s, "
        f"traced {traced['traced_s']:.4f} s",
        "absent functions: " + (", ".join(rec.absent) or "none"),
        "self time by function (calls, inclusive s, self s):",
    ]
    ranked = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
    lines += [
        f"  {label:<34} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        for label, row in ranked if row["calls"]
    ]
    if summary["simlab.run_coverage"]["calls"]:
        root_s, self_sum, direct = subtree_shares(rec.spans, rec.labels, "simlab.run_coverage")
        lines.append(
            f"simlab.run_coverage: {root_s:.4f} s span time, {self_sum:.4f} s summed self time "
            f"under it (ratio {ratio(self_sum, root_s):.6f})"
        )
        lines += [
            f"  share of run_coverage, inclusive: {label} {ratio(s, root_s):.4f}"
            for label, s in sorted(direct.items(), key=lambda kv: -kv[1])
        ]
    return values, lines


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "leanreg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _blas() -> tuple[str, str]:
    """BLAS name/version from numpy's build config, and its live thread count."""
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "?") + " (env)"
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return name, threads


def env_line() -> str:
    import numpy as np
    import scipy

    blas, blas_threads = _blas()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"# env commit={_commit()} src_sha256={_src_digest()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} blas={blas} blas_threads={blas_threads} "
        f"nproc={nproc}"
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="leanreg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args, workdir: str) -> dict:
    """Run one workload; return the result object and the report lines."""
    import cli_session
    import mc

    import leanreg

    lines = [env_line(), f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"]
    cli = args.workload == "cli_session"
    if args.trace:
        if cli:
            import leanreg.cli

            import_s = median(fresh_import_seconds(cli_session.SETUP_CODE))
            traced = cli_session.run_traced(workdir, args.seed, leanreg.cli, TRACED, HOOKS)
        else:
            import_s = 0.0  # cli is not exercised by the Monte Carlo workloads
            traced = mc.run_traced(leanreg, args.workload, args.seed, TRACED, HOOKS)
        values, more = layer_metrics(traced, import_s)
        lines += more
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv.gz")
        traced["recorder"].write(spans_path)
        lines.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        attempted, failed, problems = traced["attempted"], traced["failed"], traced["problems"]
    else:
        if cli:
            setup = fresh_import_seconds(cli_session.SETUP_CODE)
            values, attempted, failed, problems, more = cli_session.run_timed(workdir, args.seed, args.seconds)
        else:
            setup = fresh_import_seconds(mc.setup_code(mc.SPECS[args.workload]))
            values, attempted, failed, problems, more = mc.run_timed(leanreg, args.workload, args.seed, args.seconds)
        values["setup_s"] = median(setup)
        lines.append(f"setup_s = {values['setup_s']:.6g} s (median of n={len(setup)} fresh interpreters)")
        lines += more
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    lines += [f"GATE FAILED: {p}" for p in problems[:50]]
    result = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "leanreg", "__init__.py")):
        print(f"bench: no leanreg sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, SRC)
    import leanreg

    if not os.path.abspath(leanreg.__file__).startswith(SRC + os.sep):
        print(f"bench: imported leanreg from {leanreg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        result, lines = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
