"""Tests for the benchmark's own arithmetic and gates.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import cli_session  # noqa: E402
import gates  # noqa: E402
import mc  # noqa: E402
import run  # noqa: E402
from common import tail_order_stat  # noqa: E402
from spans import Recorder, covered_length, self_times, subtree_shares, summarize  # noqa: E402


# --- self-time arithmetic on a synthetic span tree --------------------------

# root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
# b has two overlapping children d [6, 8] and e [7, 9.5] (as from threads,
# e running past its parent's end).
TREE = [
    (1, 0, 0, 0.0, 10.0),
    (2, 1, 1, 1.0, 4.0),
    (3, 2, 2, 2.0, 3.0),
    (4, 1, 1, 5.0, 9.0),
    (5, 4, 2, 6.0, 8.0),
    (6, 4, 2, 7.0, 9.5),
]
LABELS = ["root", "mid", "leaf"]


def test_covered_length_merges_and_clips():
    assert covered_length([(6.0, 8.0), (7.0, 9.5)], 5.0, 9.0) == pytest.approx(3.0)
    assert covered_length([(1.0, 2.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0
    assert covered_length([], 0.0, 1.0) == 0.0


def test_self_times_of_synthetic_tree():
    selfs = self_times(TREE)
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 2.0, 6: 2.5})


def test_summarize_and_subtree_shares():
    summary = summarize(TREE, LABELS)
    assert summary["root"] == pytest.approx({"calls": 1, "total_s": 10.0, "self_s": 3.0})
    assert summary["mid"] == pytest.approx({"calls": 2, "total_s": 7.0, "self_s": 3.0})
    assert summary["leaf"] == pytest.approx({"calls": 3, "total_s": 5.5, "self_s": 5.5})
    root_s, self_sum, direct = subtree_shares(TREE, LABELS, "root")
    assert root_s == 10.0
    # d and e overlap for 1 s and e runs 0.5 s past b's end: thread time
    # beyond the root's wall time shows as summed self time above it
    assert self_sum == pytest.approx(11.5)
    assert direct == pytest.approx({"mid": 7.0})


def test_sequential_self_times_add_up_to_root():
    spans = [(1, 0, 0, 0.0, 4.0), (2, 1, 1, 0.5, 1.5), (3, 1, 1, 2.0, 3.5), (4, 3, 2, 2.5, 3.0)]
    root_s, self_sum, _ = subtree_shares(spans, LABELS, "root")
    assert self_sum == pytest.approx(root_s)


# --- the recorder on the real package ----------------------------------------

def test_recorder_wraps_every_alias_and_reports_absent():
    import leanreg
    import leanreg.ols
    import leanreg.simlab

    original = leanreg.ols.fit_ols
    rec = Recorder()
    rec.install(["ols.fit_ols", "linalg.solve_spd", "ols.no_such_function"], {})
    try:
        assert leanreg.simlab.fit_ols is not original
        assert leanreg.fit_ols is leanreg.simlab.fit_ols
        rng = np.random.default_rng(0)
        leanreg.simlab.fit_ols(leanreg.Dataset(x=np.column_stack([np.ones(20), rng.random(20)]), y=rng.random(20)))
    finally:
        rec.uninstall()
    assert leanreg.simlab.fit_ols is original and leanreg.ols.fit_ols is original
    assert rec.absent == ["ols.no_such_function"]
    summary = summarize(rec.spans, rec.labels)
    assert summary["ols.fit_ols"]["calls"] == 1
    assert summary["linalg.solve_spd"]["calls"] >= 1
    fit_id = next(s[0] for s in rec.spans if rec.labels[s[2]] == "ols.fit_ols")
    assert all(s[1] == fit_id for s in rec.spans if rec.labels[s[2]] == "linalg.solve_spd")


# --- gates fire on corrupted inputs -------------------------------------------

def _design(n=200, seed=1):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = x @ np.array([1.0, 2.0]) + (0.5 + np.abs(x[:, 1])) * rng.standard_normal(n)
    return x, y


def test_fit_gate():
    x, y = _design()
    beta = np.linalg.solve(x.T @ x, x.T @ y)
    assert gates.fit_matches_lstsq("fit", beta, x, y) == []
    assert gates.fit_matches_lstsq("fit", beta + np.array([0.0, 1e-5]), x, y)


def test_coverage_and_rejection_gates():
    assert gates.coverage_at_least("m", [0.95, 0.947], 5000, 0.95) == []
    assert len(gates.coverage_at_least("m", [0.95, 0.80], 5000, 0.95)) == 1
    assert gates.coverage_at_least("m", [0.80], 60, 0.95)
    assert gates.rejection_at_most("t", 0.05, 200, 0.05) == []
    assert gates.rejection_at_most("t", 0.20, 200, 0.05)


def _report(r, coverage=None, rejection=None):
    return SimpleNamespace(replications=r, excluded=0, coverage=coverage or {}, rejection_rate=rejection or {})


def test_mc_pooled_gates_fire():
    import leanreg

    plain = mc.Chunks(leanreg, mc.SPECS["mc_plain"], seed=0)
    ok = {"classical_normal": [0.90, 0.88], "sandwich_normal": [0.95, 0.946]}
    plain.reports = {1: _report(1000, ok), 2: _report(1000, ok)}
    assert plain.pooled_gates() == []
    plain.reports[3] = _report(2000, {"classical_normal": [0.9, 0.9], "sandwich_normal": [0.80, 0.95]})
    assert len(plain.pooled_gates()) == 1

    boot = mc.Chunks(leanreg, mc.SPECS["mc_boot"], seed=0)
    regions = {"bootstrap_rectangle": [0.96], "bootstrap_ellipsoid": [0.96]}
    boot.reports = {1: _report(200, regions, {"max_t_bootstrap": 0.04})}
    assert boot.pooled_gates() == []
    boot.reports = {1: _report(200, regions, {"max_t_bootstrap": 0.20})}
    assert boot.pooled_gates()
    boot.reports = {1: _report(200, {**regions, "bootstrap_ellipsoid": [0.80]}, {"max_t_bootstrap": 0.04})}
    assert boot.pooled_gates()


def test_draws_cov_gate():
    x, y = _design(n=500)
    _, meat, _ = gates.sandwich_oracle(x, y)
    rng = np.random.default_rng(2)
    draws = rng.multivariate_normal(np.zeros(2), meat, size=1000)
    cov = np.cov(draws.T, bias=True)
    assert gates.draws_cov_near("b", cov, meat, 1000) == []
    assert gates.draws_cov_near("b", 1.5 * cov, meat, 1000)


def test_replay_gates():
    a = json.dumps({"config": {"threads": 1, "b": 5}, "results": {"x": [1.0, 2.0]}})
    b = json.dumps({"config": {"threads": 2, "b": 5}, "results": {"x": [1.0, 2.0]}})
    c = json.dumps({"config": {"threads": 2, "b": 5}, "results": {"x": [1.0, 2.0000001]}})
    assert gates.same_except_threads("boot", a, b) == []
    assert gates.same_except_threads("boot", a, c)
    assert gates.identical("fit", a, a) == [] and gates.identical("fit", a, b)


def test_cli_output_gates_pass_and_fire(tmp_path):
    import leanreg.cli

    rng = np.random.default_rng(3)
    cov = rng.standard_normal((300, 2))
    table = cli_session.Table(str(tmp_path / "d.csv"), cov, 1.0 + cov @ [0.5, -1.0] + rng.standard_normal(300))
    seen = {}
    for name, argv in [
        ("fit", ["fit", "--data", table.path, "--response", "y", "--add-intercept"]),
        ("test_normal", ["test", "--data", table.path, "--response", "y", "--add-intercept",
                         "--coef", "1", "--null", "0", "--reference", "normal"]),
        ("bootstrap", ["bootstrap", "--data", table.path, "--response", "y", "--add-intercept",
                       "--B", "1000", "--seed", "5"]),
    ]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert leanreg.cli.main(argv) == 0
        text = buf.getvalue()
        assert cli_session.check_output(name, text, seen, table) == []
        seen[name] = text

    payload = json.loads(seen["fit"])
    payload["results"]["beta_hat"][1] += 1e-4
    assert cli_session.check_output("fit", json.dumps(payload), seen, table)

    payload = json.loads(seen["test_normal"])
    payload["results"]["p_value"] *= 1.01
    assert cli_session.check_output("test_normal", json.dumps(payload), seen, table)

    payload = json.loads(seen["bootstrap"])
    payload["results"]["draws_cov"] = (2.0 * np.asarray(payload["results"]["draws_cov"])).tolist()
    assert cli_session.check_output("bootstrap", json.dumps(payload), seen, table)
    assert cli_session.check_output("bootstrap_threads2", json.dumps(payload), seen, table)
    assert cli_session.check_output("fit_repeat", seen["fit"] + " ", seen, table)


# --- statistics and the declared metric set -----------------------------------

def test_tail_order_stat():
    values = list(range(1, 101))
    assert tail_order_stat(values) == (90, 90)
    assert tail_order_stat([3.0, 1.0, 2.0]) == (3.0, 100)


def test_benchmark_json_matches_run():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
