"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure). The two n=500, R=2000 bootstrap criteria share one Monte Carlo
pass; everything else runs inline. That shared run dominates this module's
wall time; the whole tier-1 suite takes about 45 s on 2 vCPUs.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

from leanreg import (
    Dgp,
    det_inequality_check,
    fit_ols,
    influence_remainder,
    k_check,
    population_score_means,
    population_targets,
    run_bootstrap,
    run_consistency,
    run_coverage,
    sample,
)
from leanreg.cli import main
from leanreg.simlab import DGP_KINDS

SEED = 20260810


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def fixed_x_mc():
    """Shared n=500, R=2000 gaussian-multiplier run for criteria 3 and 7."""
    return run_coverage(
        Dgp("fixed_x_nonidentical_mean"),
        n=500,
        replications=2000,
        methods=("bootstrap_rectangle", "bootstrap_ellipsoid", "max_t_bootstrap"),
        alpha=0.05,
        seed=SEED,
        b=1000,
    )


def test_criterion_1_deterministic_inequality_fuzz():
    rng = np.random.default_rng(SEED)
    total = 10_000
    dims = (2, 5, 10)
    failures = 0
    start = time.perf_counter()
    draws = {p: [] for p in dims}
    for i in range(total):
        p = dims[i % 3]
        # instance i's draws in order: g, gamma, e, the fraction of lambda/2, the noise on gamma
        g, gamma, e = rng.standard_normal((p, p)), rng.standard_normal(p), rng.standard_normal((p, p))
        draws[p].append((g, gamma, e, rng.random(), rng.standard_normal(p)))
    # the arithmetic on a stack gives each instance the bits it gets alone, and so does the check:
    # sigma = g'g + 0.1 I, and e symmetrized and scaled to ||e||_op = frac * lambda_min(sigma) / 2
    for p, parts in draws.items():
        g, gamma, e, frac, noise = (np.stack(arrays) for arrays in zip(*parts))
        sigma = g.swapaxes(-1, -2) @ g + 0.1 * np.eye(p)
        lam = np.linalg.eigvalsh(sigma)[:, 0]
        e = (e + e.swapaxes(-1, -2)) / 2.0
        e *= (frac * (lam / 2.0) / np.linalg.norm(e, 2, axis=(-2, -1)))[:, None, None]
        rep = det_inequality_check(sigma + e, gamma + 0.3 * noise, sigma, gamma)
        assert rep.precondition_holds.all()
        failures += int(np.count_nonzero(~(rep.sandwich_ok & rep.remainder_ok)))
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report(1, "deterministic inequality", ok, f"{failures} failures / {total}, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_2_gaussian_multiplier_exactness():
    fit = fit_ols(sample(Dgp("linear_homoscedastic", p=3), 200, np.random.default_rng(SEED)))
    assert (fit.n, fit.p) == (200, 3)
    draws = run_bootstrap(fit, b=10_000, dist="gaussian", seed=SEED)
    kmat = k_check(fit)
    q = np.einsum("bi,ib->b", draws.draws_t, np.linalg.solve(kmat, draws.draws_t.T))
    ks = stats.kstest(q, "chi2", args=(3,)).statistic
    ok = ks < 0.02
    report(2, "gaussian-multiplier chi-square exactness", ok, f"KS={ks:.4f} < 0.02")
    assert ks < 0.02


def test_criterion_3_conservative_coverage_fixed_x(fixed_x_mc):
    rect = fixed_x_mc.coverage["bootstrap_rectangle"][0]
    ellip = fixed_x_mc.coverage["bootstrap_ellipsoid"][0]
    ok = rect >= 0.94 and ellip >= 0.94
    report(3, "conservative region coverage", ok, f"rectangle={rect:.4f}, ellipsoid={ellip:.4f} >= 0.94")
    assert rect >= 0.94
    assert ellip >= 0.94


def test_criterion_4_sandwich_consistency_rate():
    dgp = Dgp("quadratic_mean_iid")

    def median_meat_error(n: int) -> float:
        k_star = population_targets(dgp, n).k_n_star
        errs = [
            np.linalg.norm(k_check(fit_ols(sample(dgp, n, np.random.default_rng((SEED, n, r))))) - k_star, 2)
            for r in range(200)
        ]
        return float(np.median(errs))

    m1000, m4000 = median_meat_error(1000), median_meat_error(4000)
    ratio = m4000 / m1000
    ok = ratio <= 0.6
    report(4, "sandwich meat consistency", ok, f"median ratio {ratio:.3f} <= 0.6")
    assert ratio <= 0.6


def test_criterion_5_classical_vs_sandwich_separation():
    rep = run_coverage(
        Dgp("heteroscedastic_iid"),
        n=500,
        replications=2000,
        methods=("classical_normal", "sandwich_normal"),
        alpha=0.05,
        seed=SEED,
    )
    slope = 1  # the non-intercept coordinate
    c_cov = rep.coverage["classical_normal"][slope]
    s_cov = rep.coverage["sandwich_normal"][slope]
    gap_se = float(
        np.hypot(rep.coverage_se["classical_normal"][slope], rep.coverage_se["sandwich_normal"][slope])
    )
    separated = s_cov - c_cov >= 3.0 * gap_se
    in_band = 0.93 <= s_cov <= 0.97
    ok = separated and in_band
    report(
        5,
        "classical vs sandwich coverage",
        ok,
        f"classical={c_cov:.4f}, sandwich={s_cov:.4f}, gap {s_cov - c_cov:.4f} >= {3 * gap_se:.4f}",
    )
    assert separated
    assert in_band


def test_criterion_6_target_consistency_rate():
    rep = run_consistency(Dgp("quadratic_mean_iid"), [500, 1000, 2000, 4000], 200, seed=SEED)
    slope = rep["loglog_slope"]
    ok = -0.65 <= slope <= -0.35
    report(6, "target consistency rate", ok, f"log-log slope {slope:.3f} in [-0.65, -0.35]")
    assert -0.65 <= slope <= -0.35


def test_criterion_7_conservative_type_i_error(fixed_x_mc):
    rate = fixed_x_mc.rejection_rate["max_t_bootstrap"]
    ok = rate <= 0.06
    report(7, "max-|t| bootstrap type-I error", ok, f"rejection rate {rate:.4f} <= 0.06")
    assert rate <= 0.06


def test_criterion_8_influence_representation():
    dgp = Dgp("quadratic_mean_iid")

    def median_remainder(n: int, beta, score_means) -> float:
        sigma_inv = population_targets(dgp, n).sigma_n_inv
        vals = [
            influence_remainder(
                fit_ols(sample(dgp, n, np.random.default_rng((SEED, 8, n, r)))),
                sigma_inv,
                beta,
                score_means,
            )
            for r in range(200)
        ]
        return float(np.median(vals))

    beta_true = population_targets(dgp, 1000).beta_n
    shrink = median_remainder(4000, beta_true, None) / median_remainder(1000, beta_true, None)

    beta_wrong = beta_true + 0.5
    w1000 = median_remainder(1000, beta_wrong, population_score_means(dgp, 1000, beta_wrong))
    w4000 = median_remainder(4000, beta_wrong, population_score_means(dgp, 4000, beta_wrong))
    grow = w4000 / w1000
    ok = shrink <= 0.6 and grow >= 1.5
    report(8, "influence representation", ok, f"shrink {shrink:.3f} <= 0.6, negative control {grow:.3f} >= 1.5")
    assert shrink <= 0.6
    assert grow >= 1.5


def test_criterion_9_population_structure():
    details = []
    strict_min = None
    for kind in DGP_KINDS:
        pop = population_targets(Dgp(kind), 400)
        assert np.linalg.eigvalsh(pop.k_n_star - pop.k_n)[0] >= -1e-9, kind
        if not kind.startswith("fixed_x"):
            assert np.abs(pop.k_n - pop.k_n_star).max() <= 1e-12, kind
            details.append(f"{kind}: equal")
        elif kind == "fixed_x_nonidentical_mean":
            strict_min = np.linalg.eigvalsh(pop.k_n_star - pop.k_n)[0]
            assert strict_min > 0.0
            details.append(f"{kind}: strict gap {strict_min:.2e}")
        else:
            details.append(f"{kind}: ordered")
    report(9, "population k ordering", True, "; ".join(details))


def test_criterion_10_cli_determinism(tmp_path, capsys):
    example = tmp_path / "d.csv"
    example.write_text("x0,x1,y\n1,0,0.1\n1,1,1\n1,2,3.9\n1,3,9.2\n")
    commands = {
        "bootstrap": [
            "bootstrap", "--data", str(example), "--response", "y",
            "--B", "300", "--seed", "41",
        ],
        "test": [
            "test", "--data", str(example), "--response", "y",
            "--coef", "1", "--reference", "bootstrap", "--B", "300", "--seed", "41",
        ],
        "check": ["check", "--dgp", "quadratic_mean_iid", "--n", "200", "--seed", "41"],
        "simulate": [
            "simulate", "--dgp", "fixed_x_nonidentical_mean", "--n", "60", "--reps", "8",
            "--methods", "sandwich_normal,bootstrap_rectangle,bootstrap_ellipsoid",
            "--B", "120", "--seed", "41",
        ],
    }
    ok = True
    for name, args in commands.items():
        outputs = []
        for _ in range(2):
            assert main(list(args)) == 0
            outputs.append(capsys.readouterr().out)
        replay_identical = outputs[0] == outputs[1]

        results = []
        for threads in ("1", "4"):
            assert main(list(args) + ["--threads", threads]) == 0
            payload = json.loads(capsys.readouterr().out)
            results.append(json.dumps(payload["results"], sort_keys=True))
        threads_identical = results[0] == results[1]
        ok = ok and replay_identical and threads_identical
        assert replay_identical, f"{name}: replay not byte-identical"
        assert threads_identical, f"{name}: results changed with thread count"
    report(10, "CLI replay determinism", ok, "4 commands, replay + thread invariance")
