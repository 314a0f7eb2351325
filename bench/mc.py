"""Monte Carlo workloads: ``simlab.run_coverage`` called in chunks.

mc_boot runs the acceptance fixture's per-replication config (fixed design,
nonidentical means, n=500, B=1000 gaussian multiplier draws, the two
bootstrap regions and the max-|t| bootstrap test), where the bootstrap does
almost all the work. mc_plain runs a bootstrap-free config (random design,
heteroscedastic noise, classical and sandwich normal intervals), where
sampling, fitting, variance estimation and per-replication overhead do.

Each chunk is one ``run_coverage`` call with its own seed derived from the
workload seed and the chunk index, so a chunk's inputs do not depend on
timing. Chunk 0 is an untimed warm-up.
"""

from __future__ import annotations

import resource
import time

import numpy as np

import gates
from common import derive_seed, median, tail_order_stat
from spans import Recorder

ALPHA = 0.05
CHUNK_KEY, SPOT_KEY = 1, 2

SPECS = {
    "mc_boot": {
        "dgp": "fixed_x_nonidentical_mean",
        "n": 500,
        "b": 1000,
        "methods": ("bootstrap_rectangle", "bootstrap_ellipsoid", "max_t_bootstrap"),
        "reps_per_chunk": 1,
        "trace_chunks": 60,
        "gated_coverage": ("bootstrap_rectangle", "bootstrap_ellipsoid"),
    },
    "mc_plain": {
        "dgp": "heteroscedastic_iid",
        "n": 500,
        "b": 1000,
        "methods": ("classical_normal", "sandwich_normal"),
        "reps_per_chunk": 100,
        # classical_normal is the wrong-on-purpose comparator: not gated.
        "trace_chunks": 80,
        "gated_coverage": ("sandwich_normal",),
    },
}


def setup_code(spec) -> str:
    return (
        "import time\n"
        "t = time.perf_counter()\n"
        "import leanreg\n"
        f"leanreg.population_targets(leanreg.Dgp({spec['dgp']!r}), {spec['n']})\n"
        "print(repr(time.perf_counter() - t))\n"
    )


class Chunks:
    """Runs chunks of one workload and pools what the gates need."""

    def __init__(self, leanreg, spec, seed: int, spot_checks: bool = True):
        self.lr = leanreg
        self.spot_checks = spot_checks
        self.spec = spec
        self.seed = seed
        self.dgp = leanreg.Dgp(spec["dgp"])
        self.seconds: list[float] = []
        self.reports: dict[int, object] = {}
        self.failures: dict[int, list[str]] = {}

    def run(self, k: int, timed: bool = True):
        """Run chunk k; only a chunk that completes and passes its checks is timed."""
        s = self.spec
        start = time.perf_counter()
        try:
            report = self.lr.run_coverage(
                self.dgp, n=s["n"], replications=s["reps_per_chunk"], methods=s["methods"],
                alpha=ALPHA, seed=derive_seed(self.seed, CHUNK_KEY, k), b=s["b"],
                weight_dist="gaussian",
            )
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures[k] = [f"chunk {k}: {type(exc).__name__}: {exc}"]
            return None
        seconds = time.perf_counter() - start
        problems = self.spot_check(k) if self.spot_checks else []
        if report.replications - report.excluded < 1:
            problems.append(f"chunk {k}: every replication excluded")
        if problems:
            self.failures[k] = problems
        elif timed:
            self.seconds.append(seconds)
            self.reports[k] = report
        return report

    def spot_check(self, k: int) -> list[str]:
        """fit_ols on one freshly sampled replication must agree with lstsq."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, SPOT_KEY, k]))
        data = self.lr.sample(self.dgp, self.spec["n"], rng)
        return gates.fit_matches_lstsq(f"chunk {k} spot fit", self.lr.fit_ols(data).beta_hat, data.x, data.y)

    def pooled(self):
        """Coverage and rejection rates pooled over the timed chunks."""
        kept = {k: r.replications - r.excluded for k, r in self.reports.items()}
        total = sum(kept.values())
        coverage, rejection = {}, {}
        for m in self.spec["methods"]:
            if m == "max_t_bootstrap":
                rejection[m] = sum(r.rejection_rate[m] * kept[k] for k, r in self.reports.items()) / total
            else:
                coverage[m] = sum(np.asarray(r.coverage[m]) * kept[k] for k, r in self.reports.items()) / total
        return total, coverage, rejection

    def pooled_gates(self) -> list[str]:
        if not self.reports:
            return ["no chunk completed"]
        total, coverage, rejection = self.pooled()
        problems = []
        for m in self.spec["gated_coverage"]:
            problems += gates.coverage_at_least(m, coverage[m], total, 1.0 - ALPHA)
        for m, rate in rejection.items():
            problems += gates.rejection_at_most(m, rate, total, ALPHA)
        return problems


def run_timed(leanreg, name: str, seed: int, seconds: float):
    """End-to-end run: chunks back to back until ``seconds`` have passed."""
    spec = SPECS[name]
    chunks = Chunks(leanreg, spec, seed)
    chunks.run(0, timed=False)
    warmup_failed = chunks.failures.pop(0, None)
    k = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        chunks.run(k)
        k += 1
    attempted = k - 1
    problems = (warmup_failed or []) + [p for ps in chunks.failures.values() for p in ps]
    pooled_problems = chunks.pooled_gates()
    problems += pooled_problems
    # A failed pooled gate discredits every chunk that fed it.
    failed = attempted if pooled_problems or warmup_failed else len(chunks.failures)

    # With no successful chunk, the whole timed phase stands in for the fastest.
    times = chunks.seconds or [seconds]
    reps = sum(r.replications for r in chunks.reports.values())
    tail, pct = tail_order_stat(times)
    total, coverage, rejection = chunks.pooled() if chunks.reports else (0, {}, {})
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"op_s_min": min(times), "peak_rss_mb": rss}
    lines = [
        f"chunk_s_min = {min(times):.6g} s (fastest of n={len(times)} chunks of {spec['reps_per_chunk']})",
        f"reps_per_s = {reps / sum(times):.6g} 1/s (n={reps} replications in {len(times)} chunks)",
        f"chunk_s_p50 = {median(times):.6g} s (n={len(times)} chunks)",
        f"chunk_s_tail = {tail:.6g} s (p{pct}, n={len(times)} chunks)",
        f"peak_rss_mb = {rss:.6g} MB (n=1 process)",
        f"fail_ratio = {failed / attempted:.6g} (n={attempted} chunks, {failed} failed)",
        "pooled: R=%d %s %s" % (
            total,
            " ".join(f"{m}={np.round(c, 4).tolist()}" for m, c in coverage.items()),
            " ".join(f"{m}_rejection={r:.4f}" for m, r in rejection.items()),
        ),
    ]
    return metrics, attempted, failed, problems, lines


def run_traced(leanreg, name: str, seed: int, labels, hooks):
    """Traced run: a fixed set of chunks untraced, then the same chunks traced.

    Returns the recorder, the untraced and traced seconds, the operation
    counts and the gate problems. Traced reports must equal untraced ones.
    """
    spec = SPECS[name]
    plain = Chunks(leanreg, spec, seed)
    plain.run(0, timed=False)
    for k in range(1, spec["trace_chunks"] + 1):
        plain.run(k)
    recorder = Recorder()
    recorder.install(labels, hooks)
    # Spot checks ran on the same chunks untraced; traced they would add spans.
    traced = Chunks(leanreg, spec, seed, spot_checks=False)
    try:
        for k in range(1, spec["trace_chunks"] + 1):
            traced.run(k)
    finally:
        recorder.uninstall()
    run_wide = plain.pooled_gates()
    for k, report in plain.reports.items():
        other = traced.reports.get(k)
        if other is None or other.coverage != report.coverage or other.rejection_rate != report.rejection_rate:
            run_wide.append(f"chunk {k}: traced result differs from untraced")
    problems = [p for c in (plain, traced) for ps in c.failures.values() for p in ps] + run_wide
    attempted = 2 * spec["trace_chunks"]
    failed = attempted if run_wide else len(plain.failures) + len(traced.failures)
    return {
        "recorder": recorder,
        "untraced_s": sum(plain.seconds),
        "traced_s": sum(traced.seconds),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
