"""Acceptance suite: one test per exit criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The matrix-sensing ablation
(criteria 2-3) shares one set of runs via a module fixture; everything is
seeded and deterministic.
"""

import time

import numpy as np
import pytest

from mirrorlab import (DeepHadamard, DiffPowers, DiffPowersFlow, Entropy,
                       Hadamard, HyperbolicEntropy, IntegratorConfig, LogCosh,
                       QuadraticCommuting, QuadraticFamily, QuadraticLoss,
                       RegressionConfig, Schedule, SensingConfig, SymFactor,
                       SparseCodingConfig, constrained_argmin, contracting_check,
                       diagonal_network_run, kkt_residual,
                       lie_bracket, LinearRegressionLoss, make_dictionary,
                       make_rng, matrix_sensing_run, run_param_flow,
                       sparse_coding_run, verify_equivalence)
from mirrorlab.experiments import SensingLoss

SEEDS = range(5)


def report(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return passed


# ---------------------------------------------------------------------------
# criterion 1: parameter flow / mirror flow equivalence
# ---------------------------------------------------------------------------

def _equivalence_case(kind):
    rng = make_rng(0)
    n = 5
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
    if kind == "hadamard":
        p = Hadamard(rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n))
        return p, QuadraticLoss(M, rng.standard_normal(n))
    if kind == "entropy":
        m0 = rng.uniform(0.8, 1.2, n)
        return Hadamard(m0, m0), QuadraticLoss(M, rng.uniform(0.5, 2.0, n))
    d, D = 4, 5
    A_list = [np.diag((np.arange(D) == i).astype(float)) for i in range(d)]
    p = QuadraticCommuting(A_list, np.eye(D), rng.uniform(0.7, 1.5, D))
    return p, QuadraticLoss(np.diag(rng.uniform(0.5, 2.0, d)), rng.uniform(0.3, 1.0, d))


def test_c1_equivalence():
    sched = Schedule("turnoff", alpha0=0.5, turnoff_time=1.0, t_end=4.0)
    cfg = IntegratorConfig("dop853", 1e-3, 4.0, record_every=10)
    results = {}
    for kind in ("hadamard", "quadratic", "entropy"):
        p, loss = _equivalence_case(kind)
        t0 = time.time()
        rep = verify_equivalence(p, loss, sched, cfg, tol=1e-4)
        elapsed = time.time() - t0
        results[kind] = (rep.max_deviation, elapsed)
        assert elapsed < 10.0, f"{kind} took {elapsed:.1f}s"
    passed = all(dev <= 1e-4 for dev, _ in results.values())
    detail = ", ".join(f"{k}: dev={d:.2e} ({t:.1f}s)" for k, (d, t) in results.items())
    assert report(1, "equivalence", passed, detail)


# ---------------------------------------------------------------------------
# criteria 2-3: matrix-sensing schedule ablation (shared runs)
# ---------------------------------------------------------------------------

T_END = 1250.0
TOTAL_STRENGTH = 12.5  # alpha0 * horizon for the never-off 0.01 run

ABLATION = {
    "const0.01": Schedule("constant", 0.01, t_end=T_END),
    "linear": Schedule("linear-decay", 0.04, turnoff_time=625.0, t_end=T_END),
    "cosine": Schedule("cosine-decay", 0.04, turnoff_time=625.0, t_end=T_END),
    "const0.02to": Schedule("turnoff", 0.02, turnoff_time=625.0, t_end=T_END),
    "const0.2to": Schedule("turnoff", 0.2, turnoff_time=62.5, t_end=T_END),
    "zero": Schedule("constant", 0.0, t_end=T_END),
}


@pytest.fixture(scope="module")
def sensing_runs():
    t0 = time.time()
    out = {}
    for name, sched in ABLATION.items():
        for seed in SEEDS:
            cfg = SensingConfig(n=20, r=5, m=120, beta=0.1, eta=0.25, steps=5000,
                                schedule=sched, seed=seed, record_every=50)
            out[(name, seed)] = matrix_sensing_run(cfg).summary
    out["wall_time"] = time.time() - t0
    return out


def test_c2_schedule_ablation(sensing_runs):
    # every decay/turn-off schedule carries the same total strength 12.5
    for name in ("linear", "cosine", "const0.02to", "const0.2to", "const0.01"):
        assert ABLATION[name].total_strength() == pytest.approx(TOTAL_STRENGTH)

    violations = []
    for seed in SEEDS:
        s = sensing_runs[("const0.01", seed)]
        if not 0.88 <= s["final_nuclear_norm"] <= 0.97:
            violations.append(f"const0.01 seed{seed}: nuc={s['final_nuclear_norm']:.4f} not in [0.88, 0.97]")
        if not 1e-4 <= s["final_train_loss"] <= 1e-2:
            violations.append(f"const0.01 seed{seed}: loss={s['final_train_loss']:.2e} not in [1e-4, 1e-2]")
    for name in ("linear", "cosine", "const0.02to", "const0.2to"):
        for seed in SEEDS:
            s = sensing_runs[(name, seed)]
            if abs(s["final_nuclear_norm"] - 1.0) > 0.01:
                violations.append(f"{name} seed{seed}: nuc={s['final_nuclear_norm']:.4f} not within 0.01 of 1.00")
            if s["final_train_loss"] > 1e-7:
                violations.append(f"{name} seed{seed}: loss={s['final_train_loss']:.2e} > 1e-7 at 5000 steps")
    wall_ok = sensing_runs["wall_time"] < 120.0
    detail = (f"{len(violations)} threshold violations, ablation wall time "
              f"{sensing_runs['wall_time']:.0f}s")
    passed = not violations and wall_ok
    report(2, "schedule ablation", passed, detail)
    assert wall_ok
    assert not violations, "; ".join(violations)


def test_c3_turnoff_recovery(sensing_runs):
    good = 0
    details = []
    for seed in SEEDS:
        rec_to = sensing_runs[("const0.02to", seed)]["final_recon_error"]
        rec_zero = sensing_runs[("zero", seed)]["final_recon_error"]
        ok = rec_to <= 1e-2 and rec_zero >= 5e-2
        good += ok
        details.append(f"seed{seed}: to={rec_to:.1e} zero={rec_zero:.1e}{'' if ok else ' X'}")
    passed = good >= 4
    assert report(3, "turn-off recovery", passed, f"{good}/5 seeds; " + " ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: optimality against the constrained-minimization oracle
# ---------------------------------------------------------------------------

def test_c4_optimality():
    t0 = time.time()
    rng = make_rng(42)

    n, m, beta = 8, 4, 0.1
    lam_star = np.zeros(n)
    lam_star[rng.choice(n, 2, replace=False)] = [0.6, 0.4]
    diags = 3.0 * rng.standard_normal((m, n))
    A = np.zeros((m, n, n))
    A[:, np.arange(n), np.arange(n)] = diags
    y = diags @ lam_star
    p = SymFactor(np.sqrt(beta) * np.eye(n))
    sched = Schedule("turnoff", 2.0, turnoff_time=0.5, t_end=150.0)
    rec = run_param_flow(p, SensingLoss(A, y), sched,
                         IntegratorConfig("dop853", 5e-3, 150.0, record_every=5000))
    lam_inf = np.diag(rec.final_x.reshape(n, n))
    fam = Entropy(beta * np.ones(n))
    a_T = float(sched.a(150.0))
    kkt_sensing = kkt_residual(diags, lam_inf, fam, a_T)
    diff_sensing = float(np.max(np.abs(constrained_argmin(fam, a_T, diags, y) - lam_inf)))

    n2, d2 = 6, 3
    Z = rng.standard_normal((d2, n2))
    x_star = np.zeros(n2)
    x_star[rng.choice(n2, 2, replace=False)] = [1.0, -1.0]
    y2 = Z @ x_star
    p2 = DeepHadamard([np.zeros(n2), np.ones(n2)])
    sched2 = Schedule("turnoff", 2.0, turnoff_time=1.0, t_end=120.0)
    rec2 = run_param_flow(p2, LinearRegressionLoss(Z, y2), sched2,
                          IntegratorConfig("dop853", 5e-3, 120.0, record_every=5000))
    x_inf = rec2.final_x
    fam2 = HyperbolicEntropy.from_hadamard(np.zeros(n2), np.ones(n2))
    a_T2 = float(sched2.a(120.0))
    kkt_diag = kkt_residual(Z, x_inf, fam2, a_T2)
    diff_diag = float(np.max(np.abs(constrained_argmin(fam2, a_T2, Z, y2) - x_inf)))

    elapsed = time.time() - t0
    passed = (kkt_sensing <= 1e-4 and kkt_diag <= 1e-4
              and diff_sensing <= 1e-3 and diff_diag <= 1e-3 and elapsed < 30.0)
    assert report(4, "optimality", passed,
                  f"sensing: kkt={kkt_sensing:.1e} oracle={diff_sensing:.1e}; "
                  f"diagonal: kkt={kkt_diag:.1e} oracle={diff_diag:.1e}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: contracting property
# ---------------------------------------------------------------------------

def test_c5_contracting():
    t0 = time.time()
    rng = make_rng(1)
    a_grid = np.linspace(-2.0, 0.0, 50)
    hyp = HyperbolicEntropy.from_hadamard(rng.uniform(1.0, 2.0, 3), rng.uniform(-0.5, 0.5, 3))
    ent = Entropy(rng.uniform(0.5, 1.5, 3))
    rep_h = contracting_check(hyp, a_grid, [rng.uniform(-3.0, 3.0, 3) for _ in range(50)])
    rep_e = contracting_check(ent, a_grid, [rng.uniform(0.05, 3.0, 3) for _ in range(50)])

    D, d = 3, 2
    A_list = [np.diag((np.arange(D) == i).astype(float)) for i in range(d)]
    bad = QuadraticFamily(A_list, -np.eye(D), rng.uniform(0.7, 1.5, D))
    rep_bad = contracting_check(bad, a_grid, [rng.uniform(0.1, 2.0, d) for _ in range(50)])
    elapsed = time.time() - t0
    passed = (rep_h.passed and rep_h.max_positive_slope <= 1e-8
              and rep_e.passed and rep_e.max_positive_slope <= 1e-8
              and not rep_bad.passed and elapsed < 5.0)
    assert report(5, "contracting", passed,
                  f"hyperbolic max+ {rep_h.max_positive_slope:.1e}, entropy max+ "
                  f"{rep_e.max_positive_slope:.1e}, B=-I max+ {rep_bad.max_positive_slope:.2e}; "
                  f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: positional bias closed forms
# ---------------------------------------------------------------------------

def test_c6_positional_bias():
    rng = make_rng(2)
    x0 = rng.uniform(0.5, 1.5, 4)
    ent = Entropy(x0)
    worst_e = 0.0
    for a in np.linspace(-3.0, 0.0, 61):
        worst_e = max(worst_e, float(np.max(np.abs(ent.argmin_position(a) - x0 * np.exp(2 * a)))))
    u0, v0 = rng.uniform(0.8, 1.6, 4), rng.uniform(0.8, 1.6, 4)
    lc = LogCosh(u0, v0)
    worst_l = 0.0
    for a in np.linspace(-3.0, 0.0, 61):
        expected = np.log(np.sqrt(u0**2 - 2 * a)) - np.log(np.sqrt(v0**2 - 2 * a))
        worst_l = max(worst_l, float(np.max(np.abs(lc.argmin_position(a) - expected))))
    passed = worst_e <= 1e-10 and worst_l <= 1e-10
    assert report(6, "positional bias", passed,
                  f"entropy dev {worst_e:.1e}, log-cosh dev {worst_l:.1e}")


# ---------------------------------------------------------------------------
# criterion 7: range shrinking
# ---------------------------------------------------------------------------

def test_c7_range_shrinking():
    rng = make_rng(3)
    # small factor inits keep the dual interval nonempty down to a = -0.5
    dp = DiffPowersFlow(2, rng.uniform(0.25, 0.4, 3), rng.uniform(0.25, 0.4, 3))
    shrink = dp.domain(0.0).lengths - dp.domain(-0.5).lengths
    exact = float(np.max(np.abs(shrink - 1.0)))

    D = make_dictionary(200, 50, seed=3)
    prng = make_rng(7)
    code_star = np.zeros(50)
    code_star[prng.choice(50, 8, replace=False)] = prng.standard_normal(8)
    target = D @ code_star + 0.05 * prng.standard_normal(200)
    x_init = prng.standard_normal(50)
    sched = Schedule("constant", 1e-3, t_end=1e9)
    stat = {}
    for k in (1, 2, 3):
        u0 = (0.5 * (np.sqrt(x_init**2 + 1.0) + x_init)) ** (1.0 / (2 * k))
        v0 = (0.5 * (np.sqrt(x_init**2 + 1.0) - x_init)) ** (1.0 / (2 * k))
        rep = sparse_coding_run(D, target, DiffPowers(k, u0, v0), sched,
                                SparseCodingConfig(steps=300))
        stat[k] = rep.summary["stationarity_step"]
    ordered = stat[1] > stat[2] > stat[3]
    passed = exact <= 1e-12 and ordered
    assert report(7, "range shrinking", passed,
                  f"interval shrink dev {exact:.1e}; stationarity steps "
                  f"k=1:{stat[1]} k=2:{stat[2]} k=3:{stat[3]}")


# ---------------------------------------------------------------------------
# criterion 8: non-commuting detection
# ---------------------------------------------------------------------------

def test_c8_non_commuting():
    rng = make_rng(4)
    worst3 = 0.0
    worst2 = 0.0
    for _ in range(20):
        factors = [rng.uniform(0.5, 2.0, 2) for _ in range(3)]
        p3 = DeepHadamard(factors, h_scale=1.0)  # bracket constant is defined for sum-of-squares decay
        w = np.concatenate(factors)
        for coord in range(2):
            br = lie_bracket(p3, coord, "h", w)
            expected = np.zeros(6)
            trip = np.stack(factors)[:, coord]
            for slot in range(3):
                expected[slot * 2 + coord] = (4 - 2 * 3) * np.prod(np.delete(trip, slot))
            rel = np.max(np.abs(br - expected)) / max(1.0, np.max(np.abs(expected)))
            worst3 = max(worst3, float(rel))
        f2 = [rng.uniform(0.5, 2.0, 2) for _ in range(2)]
        p2 = DeepHadamard(f2, h_scale=1.0)
        worst2 = max(worst2, float(np.max(np.abs(lie_bracket(p2, 0, "h", np.concatenate(f2))))))
    passed = worst3 <= 1e-3 and worst2 <= 1e-6
    assert report(8, "non-commuting detection", passed,
                  f"depth-3 rel dev {worst3:.1e}, depth-2 bracket {worst2:.1e}")


# ---------------------------------------------------------------------------
# criterion 9: diagonal-network lasting effect
# ---------------------------------------------------------------------------

def test_c9_diagonal_lasting_effect():
    t0 = time.time()
    alphas = (0.01, 0.1, 1.0)  # the sweep; the largest drives the criterion
    alpha = max(alphas)
    steps = 20000
    T1 = steps * 1e-3
    sched = Schedule("turnoff", alpha, turnoff_time=T1, t_end=2 * T1)
    good = 0
    details = []
    for seed in SEEDS:
        mw = diagonal_network_run(RegressionConfig(
            schedule=sched, seed=seed, variant="mw", steps=steps, record_every=1000)).summary
        lin = diagonal_network_run(RegressionConfig(
            schedule=sched, seed=seed, variant="m", steps=steps, record_every=1000)).summary
        gt = mw["ground_truth_ratio"]
        ok = abs(mw["final_ratio"] - gt) / gt <= 0.10 and lin["final_ratio"] > gt
        good += ok
        details.append(f"seed{seed}: mw={mw['final_ratio']:.3f} m={lin['final_ratio']:.2f}"
                       f"{'' if ok else ' X'}")
    elapsed = time.time() - t0
    passed = good >= 4 and elapsed < 60.0
    assert report(9, "diagonal lasting effect", passed,
                  f"{good}/5 seeds (gt 2.236); " + " ".join(details) + f"; {elapsed:.0f}s")
