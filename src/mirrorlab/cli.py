"""Command-line front end: config parsing, experiment dispatch, CSV/SVG emission.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numeric divergence.  Config files are flat ``key = value`` text with
``[section]`` headers; command-line flags override config values.  The
environment variable MIRRORLAB_SEED overrides any configured seed.  Each
option is then cast once to the type of its default; a value that cannot be
read as that type is a usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import legendre, reparam
from .commute import check_commuting
from .core import (DivergedError, DomainExitError, InputError, IntegratorConfig,
                   MirrorlabError, Schedule, make_rng)
from .experiments import (RegressionConfig, SensingConfig, SparseCodingConfig,
                          constrained_argmin, diagonal_network_run,
                          kkt_residual, make_dictionary, matrix_sensing_run,
                          sparse_coding_run)
from .flow import (LinearRegressionLoss, QuadraticLoss, run_mirror_flow,
                   run_param_flow, verify_equivalence)
from .legendre import contracting_check
from .svgplot import line_plot

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_DIVERGED = 0, 1, 2, 3

CSV_COLUMNS = ("step", "t", "a", "train_loss", "recon_error", "nuclear_norm",
               "ratio", "l1", "l1_l2_ratio")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# config and matrix I/O
# ---------------------------------------------------------------------------

def parse_config(path):
    """Flat key = value sections -> {"section.key": parsed value}."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise UsageError(f"bad config {path}: {exc}")
    out = {}
    for section in cp.sections():
        for key, raw in cp.items(section):
            out[f"{section}.{key}"] = _parse_value(raw)
    return out


def _parse_value(raw):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def load_matrix(path):
    """Headerless CSV of floats; rejects ragged or non-numeric rows."""
    if not os.path.exists(path):
        raise UsageError(f"matrix file not found: {path}")
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if rows and len(cells) != len(rows[0]):
                raise UsageError(f"{path}:{lineno}: ragged row ({len(cells)} cells, expected {len(rows[0])})")
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}")
    if not rows:
        raise UsageError(f"{path}: empty matrix file")
    return np.asarray(rows)


def save_matrix(path, X):
    X = np.asarray(X, dtype=float)
    with open(path, "w") as fh:
        for row in np.atleast_2d(X):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return path


def config_hash(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, float) and not np.isfinite(v):
        return repr(v)
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def write_trajectory_csv(path, report):
    """Fixed-schema trajectory CSV; metrics the run lacks stay empty."""
    m = report.metrics
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(len(report.steps)):
            row = {
                "step": int(report.steps[i]),
                "t": float(report.times[i]),
                "a": float(report.a[i]),
            }
            for col in ("train_loss", "recon_error", "nuclear_norm", "ratio", "l1", "l1_l2_ratio"):
                row[col] = float(m[col][i]) if col in m else None
            fh.write(",".join(_fmt_cell(row[c]) for c in CSV_COLUMNS) + "\n")
    return path


def write_summary(path, report, seed, wall_time_s, extra=None):
    payload = {
        "config_hash": config_hash(report.config),
        "seed": seed,
        "converged": bool(report.summary.get("converged", False)),
        "wall_time_s": wall_time_s,
        "diverged": report.diverged,
    }
    for key, val in report.summary.items():
        if key == "converged":
            continue
        payload[key] = (None if val is None
                        else float(val) if isinstance(val, (int, float, np.floating)) else val)
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# shared option plumbing
# ---------------------------------------------------------------------------

def _merged(args, defaults, section):
    """defaults < config file < explicit flags < MIRRORLAB_SEED, each value cast
    once to the type of its default."""
    merged = dict(defaults)
    if args.config:
        cfg = parse_config(args.config)
        for key, val in cfg.items():
            sect, _, name = key.partition(".")
            if sect in (section, "schedule") and name in merged:
                merged[name] = val
    for name in defaults:
        val = getattr(args, name.replace("-", "_"), None)
        if val is not None:
            merged[name] = val
    env_seed = os.environ.get("MIRRORLAB_SEED")
    if env_seed is not None and "seed" in merged:
        merged["seed"] = env_seed
    for name, default in defaults.items():
        merged[name] = _typed(name, merged[name], type(default))
    return merged


def _typed(name, val, kind):
    """val cast to kind; UsageError naming the option if val cannot be read as a
    kind, or is a float with a fractional part and kind is int."""
    try:
        out = kind(val)
    except (TypeError, ValueError):
        raise UsageError(f"{name}: cannot read {val!r} as {kind.__name__}")
    if kind is int and isinstance(val, float) and out != val:
        raise UsageError(f"{name}: cannot read {val!r} as int")
    return out


def _schedule_from(merged):
    return Schedule(merged["kind"], merged["alpha0"], turnoff_time=merged["turnoff_time"],
                    t_end=merged["t_end"])


def _write_report(out, name, report):
    """Write a verify report dataclass as one JSON line to OUT/NAME_report.json."""
    if out:
        with open(os.path.join(_ensure_outdir(out), f"{name}_report.json"), "w") as fh:
            fh.write(json.dumps(dataclasses.asdict(report)) + "\n")


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------

def _build_variant(name, n, depth, seed):
    if n < 1:
        raise UsageError("n must be positive")
    rng = make_rng(seed)
    if name == "hadamard":
        return reparam.Hadamard(rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n))
    if name == "deep-hadamard":
        return reparam.DeepHadamard([rng.uniform(0.5, 1.5, n) for _ in range(depth)])
    if name == "diff-squares":
        return reparam.DiffSquares(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n))
    if name == "diff-powers":
        return reparam.DiffPowers(2, rng.uniform(0.8, 1.5, n), rng.uniform(0.8, 1.5, n))
    if name == "log-ratio":
        return reparam.LogRatio(rng.uniform(1.1, 2.0, n), rng.uniform(1.1, 2.0, n))
    if name == "quadratic":
        A_list = [np.diag((np.arange(n + 1) == i).astype(float)) for i in range(n)]
        return reparam.QuadraticCommuting(A_list, np.eye(n + 1), rng.uniform(0.7, 1.5, n + 1))
    raise UsageError(f"unknown variant {name!r}")


def cmd_verify_commuting(args):
    merged = _merged(args, {"variant": "hadamard", "n": 3, "depth": 3, "samples": 50,
                            "tol": 1e-4, "seed": 0}, "commuting")
    p = _build_variant(merged["variant"], merged["n"], merged["depth"], merged["seed"])
    report = check_commuting(p, n_samples=merged["samples"], tol=merged["tol"], seed=merged["seed"])
    print(f"{'variant':<16} {'samples':>8} {'tol':>10} {'max bracket':>14} {'pass':>6}")
    print(f"{report.variant:<16} {report.n_samples:>8} {report.tol:>10.1e} "
          f"{report.max_bracket_norm:>14.3e} {str(report.passed):>6}")
    _write_report(args.out, "commuting", report)
    ok = report.passed != bool(args.expect_fail)
    return EXIT_OK if ok else EXIT_FAIL


def _equivalence_case(family_name, seed):
    rng = make_rng(seed)
    n = 5
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
    if family_name == "hadamard":
        p = reparam.Hadamard(rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n))
        return p, legendre.family_for(p), QuadraticLoss(M, rng.standard_normal(n))
    if family_name == "entropy":
        m0 = rng.uniform(0.8, 1.2, n)
        p = reparam.Hadamard(m0, m0)
        return p, legendre.family_for(p), QuadraticLoss(M, rng.uniform(0.5, 2.0, n))
    if family_name == "quadratic":
        d, D = 4, 5
        A_list = [np.diag((np.arange(D) == i).astype(float)) for i in range(d)]
        p = reparam.QuadraticCommuting(A_list, np.eye(D), rng.uniform(0.7, 1.5, D))
        return p, legendre.family_for(p), QuadraticLoss(np.diag(rng.uniform(0.5, 2.0, d)),
                                                        rng.uniform(0.3, 1.0, d))
    if family_name == "diff-powers":
        p = reparam.DiffPowers(2, rng.uniform(0.9, 1.4, 3), rng.uniform(0.9, 1.4, 3))
        return p, legendre.family_for(p), QuadraticLoss(0.5 * np.eye(3), rng.uniform(-0.5, 0.5, 3))
    raise UsageError(f"unknown equivalence family {family_name!r}")


def cmd_verify_equivalence(args):
    merged = _merged(args, {"family": "hadamard", "seed": 0, "tol": 1e-4, "step": 1e-3,
                            "kind": "turnoff", "alpha0": 0.5, "turnoff_time": 1.0, "t_end": 4.0},
                     "equivalence")
    if merged["family"] == "diff-powers":
        # the dual map matches the raw factor flow exactly only without
        # accumulated strength; check the classical case
        merged["alpha0"] = 0.0
        merged["kind"] = "constant"
    p, family, loss = _equivalence_case(merged["family"], merged["seed"])
    sched = _schedule_from(merged)
    cfg = IntegratorConfig("rk4", merged["step"], merged["t_end"], record_every=10)
    report = verify_equivalence(p, family, loss, sched, cfg, tol=merged["tol"])
    print(f"pair {report.pair}: max deviation {report.max_deviation:.3e} "
          f"(tol {report.tol:.1e}) over {report.n_points} points -> "
          f"{'PASS' if report.passed else 'FAIL'}")
    _write_report(args.out, "equivalence", report)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_verify_contracting(args):
    merged = _merged(args, {"family": "hyperbolic", "a_min": -2.0, "grid": 50,
                            "tol": 1e-8, "seed": 0}, "contracting")
    rng = make_rng(merged["seed"])
    name, grid = merged["family"], merged["grid"]
    n = 3
    if name == "hyperbolic":
        fam = legendre.HyperbolicEntropy.from_hadamard(rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n))
        xs = [rng.uniform(-3.0, 3.0, n) for _ in range(grid)]
    elif name == "entropy":
        fam = legendre.Entropy(rng.uniform(0.5, 1.5, n))
        xs = [rng.uniform(0.05, 3.0, n) for _ in range(grid)]
    elif name == "log-cosh":
        fam = legendre.LogCosh(rng.uniform(0.8, 1.5, n), rng.uniform(0.8, 1.5, n))
        xs = [rng.uniform(-2.0, 2.0, n) for _ in range(grid)]
    elif name in ("quadratic", "quadratic-neg"):
        sign = -1.0 if name == "quadratic-neg" else 1.0
        d, D = 2, 3
        A_list = [np.diag((np.arange(D) == i).astype(float)) for i in range(d)]
        fam = legendre.QuadraticFamily(A_list, sign * np.eye(D), rng.uniform(0.7, 1.5, D))
        xs = [rng.uniform(0.1, 2.0, d) for _ in range(grid)]
    else:
        raise UsageError(f"unknown contracting family {name!r}")
    a_grid = np.linspace(merged["a_min"], 0.0, grid)
    report = contracting_check(fam, a_grid, xs, tol=merged["tol"])
    print(f"family {fam.tag}: max slope {report.max_slope:.3e}, "
          f"max positive slope {report.max_positive_slope:.3e} (tol {report.tol:.1e}), "
          f"{report.n_skipped} skipped -> {'PASS' if report.passed else 'FAIL'}")
    _write_report(args.out, "contracting", report)
    expected_fail = bool(args.expect_fail)
    return EXIT_OK if report.passed != expected_fail else EXIT_FAIL


def cmd_verify_optimality(args):
    from .experiments import SensingLoss

    merged = _merged(args, {"case": "diagonal", "seed": 0, "kkt_tol": 1e-4,
                            "oracle_tol": 1e-3}, "optimality")
    rng = make_rng(merged["seed"])
    if merged["case"] == "diagonal":
        n, d = 6, 3
        Z = rng.standard_normal((d, n))
        x_star = np.zeros(n)
        x_star[rng.choice(n, 2, replace=False)] = rng.choice([-1.0, 1.0], 2)
        y = Z @ x_star
        loss = LinearRegressionLoss(Z, y)
        p = reparam.DeepHadamard([np.zeros(n), np.ones(n)])
        fam = legendre.HyperbolicEntropy.from_hadamard(np.zeros(n), np.ones(n))
        sched = Schedule("turnoff", 2.0, turnoff_time=1.0, t_end=120.0)
        traj = run_param_flow(p, loss, sched, IntegratorConfig("rk4", 5e-3, 120.0, record_every=4000))
        x_inf = traj.x[-1]
    elif merged["case"] == "sensing":
        n, m, beta = 8, 4, 0.1
        lam_star = np.zeros(n)
        lam_star[rng.choice(n, 2, replace=False)] = [0.6, 0.4]
        diags = 3.0 * rng.standard_normal((m, n))
        A = np.zeros((m, n, n))
        A[:, np.arange(n), np.arange(n)] = diags
        y = diags @ lam_star
        Z = diags
        loss = SensingLoss(A, y)
        p = reparam.SymFactor(np.sqrt(beta) * np.eye(n))
        fam = legendre.Entropy(beta * np.ones(n))
        sched = Schedule("turnoff", 2.0, turnoff_time=0.5, t_end=150.0)
        traj = run_param_flow(p, loss, sched, IntegratorConfig("rk4", 5e-3, 150.0, record_every=4000))
        x_inf = np.diag(traj.x[-1].reshape(n, n))
    else:
        raise UsageError(f"unknown optimality case {merged['case']!r}")
    a_T = float(sched.a(sched.t_end))
    res = kkt_residual(Z, x_inf, fam, a_T)
    oracle = constrained_argmin(fam, a_T, Z, y)
    diff = float(np.max(np.abs(oracle - x_inf)))
    ok = res <= merged["kkt_tol"] and diff <= merged["oracle_tol"]
    print(f"case {merged['case']}: kkt residual {res:.3e} (tol {merged['kkt_tol']:.1e}), "
          f"oracle deviation {diff:.3e} (tol {merged['oracle_tol']:.1e}) -> "
          f"{'PASS' if ok else 'FAIL'}")
    if args.out:
        _ensure_outdir(args.out)
        with open(os.path.join(args.out, "optimality_report.json"), "w") as fh:
            json.dump({"case": merged["case"], "kkt_residual": res, "oracle_deviation": diff,
                       "passed": ok}, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# run subcommands
# ---------------------------------------------------------------------------

def _sensing_job(cfg):
    """One sensing run and its own wall time in seconds."""
    t0 = time.perf_counter()
    return matrix_sensing_run(cfg), time.perf_counter() - t0


def _sensing_kkt(rep, cfg):
    """KKT residual of the final eigenvalues; only commuting-diagonal runs
    attach an eigenvalue potential."""
    if cfg.sensing_kind != "commuting-diagonal" or rep.diverged:
        return None
    from .experiments import make_sensing_problem

    _, A, _, _ = make_sensing_problem(cfg)
    Z = A[:, np.arange(cfg.n), np.arange(cfg.n)]
    lam = np.diag(rep.final_x.reshape(cfg.n, cfg.n))
    fam = legendre.Entropy(cfg.beta * np.ones(cfg.n))
    try:
        return float(kkt_residual(Z, np.maximum(lam, 1e-300), fam, float(rep.a[-1])))
    except (InputError, MirrorlabError):
        return None


def _diagonal_kkt(rep, cfg):
    if cfg.variant != "mw" or rep.diverged:
        return None
    from .experiments import make_regression_problem

    Z, _, _ = make_regression_problem(cfg)
    fam = legendre.HyperbolicEntropy.from_hadamard(np.zeros(cfg.n), np.ones(cfg.n))
    try:
        return float(kkt_residual(Z, rep.final_x, fam, float(rep.a[-1])))
    except (InputError, MirrorlabError):
        return None


def cmd_run_sensing(args):
    merged = _merged(args, {"n": 20, "r": 5, "m": 120, "beta": 0.1, "eta": 0.25,
                            "steps": 5000, "record_every": 10, "seed": 0,
                            "sensing_kind": "random-symmetric",
                            "kind": "turnoff", "alpha0": 0.02, "turnoff_time": 625.0,
                            "t_end": 1250.0, "seeds": ""}, "sensing")
    out = _ensure_outdir(args.out)
    seeds = ([_typed("seeds", s, int) for s in merged["seeds"].split(",") if s != ""]
             or [merged["seed"]])
    sched = _schedule_from(merged)
    jobs = [SensingConfig(n=merged["n"], r=merged["r"], m=merged["m"], beta=merged["beta"],
                          eta=merged["eta"], steps=merged["steps"],
                          record_every=merged["record_every"], sensing_kind=merged["sensing_kind"],
                          seed=seed, schedule=sched) for seed in seeds]
    if args.jobs > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sensing_job, jobs))
    else:
        results = [_sensing_job(j) for j in jobs]
    code = EXIT_OK
    for (rep, wall), cfg in zip(results, jobs):
        stem = os.path.join(out, f"sensing_seed{cfg.seed}")
        write_trajectory_csv(stem + ".csv", rep)
        write_summary(stem + "_summary.json", rep, cfg.seed, wall,
                      extra={"kkt_residual": _sensing_kkt(rep, cfg)})
        if rep.diverged:
            code = EXIT_DIVERGED
        if args.plot:
            line_plot(stem + "_loss.svg",
                      [("train loss", rep.times, rep.metrics["train_loss"]),
                       ("recon error", rep.times, rep.metrics["recon_error"])],
                      title="matrix sensing", xlabel="t", ylabel="error", logy=True)
            line_plot(stem + "_norms.svg",
                      [("nuclear norm", rep.times, rep.metrics["nuclear_norm"]),
                       ("nuc/fro ratio", rep.times, rep.metrics["ratio"])],
                      title="matrix sensing", xlabel="t", ylabel="norm")
        s = rep.summary
        print(f"seed {cfg.seed}: loss {s['final_train_loss']:.3e} recon {s['final_recon_error']:.3e} "
              f"nuclear {s['final_nuclear_norm']:.4f}"
              + (" [DIVERGED]" if rep.diverged else ""))
    return code


def cmd_run_diagonal(args):
    merged = _merged(args, {"d": 40, "n": 100, "sparsity": 5, "eta": 1e-3, "steps": 20000,
                            "record_every": 100, "seed": 0, "variant": "mw",
                            "kind": "turnoff", "alpha0": 1.0, "turnoff_time": 20.0,
                            "t_end": 40.0}, "diagonal")
    out = _ensure_outdir(args.out)
    sched = _schedule_from(merged)
    cfg = RegressionConfig(d=merged["d"], n=merged["n"], sparsity=merged["sparsity"],
                           eta=merged["eta"], steps=merged["steps"], schedule=sched,
                           variant=merged["variant"], seed=merged["seed"],
                           record_every=merged["record_every"])
    t0 = time.perf_counter()
    rep = diagonal_network_run(cfg)
    wall = time.perf_counter() - t0
    stem = os.path.join(out, f"diagonal_{cfg.variant}_seed{cfg.seed}")
    write_trajectory_csv(stem + ".csv", rep)
    write_summary(stem + "_summary.json", rep, cfg.seed, wall,
                  extra={"kkt_residual": _diagonal_kkt(rep, cfg)})
    if args.plot:
        line_plot(stem + "_ratio.svg",
                  [("l1/l2 ratio", rep.times, rep.metrics["l1_l2_ratio"])],
                  title=f"diagonal network ({cfg.variant})", xlabel="t", ylabel="ratio")
        line_plot(stem + "_loss.svg",
                  [("train loss", rep.times, rep.metrics["train_loss"]),
                   ("recon error", rep.times, rep.metrics["recon_error"])],
                  title=f"diagonal network ({cfg.variant})", xlabel="t", ylabel="error", logy=True)
    s = rep.summary
    print(f"variant {cfg.variant} seed {cfg.seed}: final ratio {s['final_ratio']:.3f} "
          f"(ground truth {s['ground_truth_ratio']:.3f}) recon {s['final_recon_error']:.3e}"
          + (" [DIVERGED]" if rep.diverged else ""))
    return EXIT_DIVERGED if rep.diverged else EXIT_OK


def cmd_run_sparse_coding(args):
    merged = _merged(args, {"n_obs": 200, "n_features": 50, "k": 2, "variant": "diff-powers",
                            "steps": 300, "record_every": 1, "lr_scale": 1e-3, "seed": 0,
                            "kind": "constant", "alpha0": 1e-3, "turnoff_time": 0.0,
                            "t_end": 1e9, "dictionary": ""}, "sparse_coding")
    out = _ensure_outdir(args.out)
    seed = merged["seed"]
    rng = make_rng(seed)
    if merged["dictionary"]:
        D = load_matrix(merged["dictionary"])
    else:
        D = make_dictionary(merged["n_obs"], merged["n_features"], seed=seed)
    n = D.shape[1]
    print(f"dictionary: {D.shape[0]} observations x {n} features")
    code_star = np.zeros(n)
    idx = rng.choice(n, max(1, n // 6), replace=False)
    code_star[idx] = rng.standard_normal(len(idx))
    target = D @ code_star + 0.05 * rng.standard_normal(D.shape[0])
    x_init = rng.standard_normal(n)
    k = merged["k"]
    if merged["variant"] == "diff-powers":
        if k < 1:
            raise UsageError("k must be a positive integer")
        u0 = (0.5 * (np.sqrt(x_init**2 + 1.0) + x_init)) ** (1.0 / (2 * k))
        v0 = (0.5 * (np.sqrt(x_init**2 + 1.0) - x_init)) ** (1.0 / (2 * k))
        p = reparam.DiffPowers(k, u0, v0)
    elif merged["variant"] == "log-ratio":
        xs = 0.1
        u0 = 1.0 / (1.0 + np.exp(-xs)) * np.ones(n)
        v0 = 1.0 / (1.0 + np.exp(xs)) * np.ones(n)
        p = reparam.LogRatio(u0, v0)
    else:
        raise UsageError(f"unknown sparse-coding variant {merged['variant']!r}")
    if merged["kind"] != "constant" and merged["turnoff_time"] <= 0:
        merged["turnoff_time"] = 1.0
    sched = _schedule_from(merged)
    cfg = SparseCodingConfig(steps=merged["steps"], record_every=merged["record_every"],
                             lr_scale=merged["lr_scale"])
    t0 = time.perf_counter()
    rep = sparse_coding_run(D, target, p, sched, cfg)
    wall = time.perf_counter() - t0
    stem = os.path.join(out, f"sparse_{merged['variant']}_seed{seed}")
    write_trajectory_csv(stem + ".csv", rep)
    write_summary(stem + "_summary.json", rep, seed, wall,
                  extra={"flags": rep.flags, "kkt_residual": None})
    if args.plot and len(rep.times) > 1:
        line_plot(stem + "_l1.svg", [("code l1 norm", rep.steps, rep.metrics["l1"])],
                  title="sparse coding", xlabel="step", ylabel="l1")
    print(f"variant {merged['variant']} k={k}: final l1 {rep.summary['final_l1']:.4f}, "
          f"stationary at step {rep.summary['stationarity_step']}, flags {rep.flags}")
    return EXIT_DIVERGED if rep.diverged else EXIT_OK


def cmd_run_flow(args):
    merged = _merged(args, {"family": "entropy", "n": 4, "seed": 0, "method": "rk4",
                            "step": 1e-3, "record_every": 10,
                            "kind": "constant", "alpha0": 0.1, "turnoff_time": 1.0,
                            "t_end": 4.0}, "flow")
    out = _ensure_outdir(args.out)
    seed, n = merged["seed"], merged["n"]
    if n < 1:
        raise UsageError("n must be positive")
    rng = make_rng(seed)
    if merged["family"] == "entropy":
        fam = legendre.Entropy(rng.uniform(0.5, 1.5, n))
        target = rng.uniform(0.5, 2.0, n)
    elif merged["family"] == "hyperbolic":
        fam = legendre.HyperbolicEntropy.from_hadamard(rng.uniform(1.0, 2.0, n),
                                                       rng.uniform(-0.5, 0.5, n))
        target = rng.standard_normal(n)
    else:
        raise UsageError(f"unknown flow family {merged['family']!r}")
    loss = QuadraticLoss(np.eye(n), target)
    sched = _schedule_from(merged)
    cfg = IntegratorConfig(merged["method"], merged["step"], merged["t_end"],
                           record_every=merged["record_every"])
    t0 = time.perf_counter()
    try:
        traj = run_mirror_flow(fam, loss, sched, cfg)
    except (DivergedError, DomainExitError) as exc:
        traj = exc.trajectory
        print(f"flow stopped early: {exc}", file=sys.stderr)
        if traj is not None:
            _write_flow_outputs(out, merged, traj, seed, time.perf_counter() - t0, args.plot)
        return EXIT_DIVERGED
    wall = time.perf_counter() - t0
    _write_flow_outputs(out, merged, traj, seed, wall, args.plot)
    print(f"family {fam.tag}: {len(traj)} records, final loss "
          f"{traj.metrics['train_loss'][-1]:.3e}")
    return EXIT_OK


def _write_flow_outputs(out, merged, traj, seed, wall, plot):
    from .experiments import ExperimentReport

    stem = os.path.join(out, f"flow_{merged['family']}_seed{seed}")
    rep = ExperimentReport(
        kind="flow",
        config=dict(merged),
        steps=traj.steps,
        times=traj.times,
        a=traj.a,
        metrics={"train_loss": traj.metrics["train_loss"],
                 "l1": np.sum(np.abs(traj.x), axis=1)},
        summary={"final_train_loss": float(traj.metrics["train_loss"][-1]), "converged": False},
    )
    write_trajectory_csv(stem + ".csv", rep)
    write_summary(stem + "_summary.json", rep, seed, wall, extra={"kkt_residual": None})
    if plot:
        line_plot(stem + "_loss.svg", [("loss", traj.times, traj.metrics["train_loss"])],
                  title="mirror flow", xlabel="t", ylabel="loss", logy=True)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(prog="mirrorlab",
                                  description="time-dependent mirror flow laboratory")
    sub = top.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a verification suite")
    vsub = ver.add_subparsers(dest="check", required=True)
    for name in ("commuting", "equivalence", "contracting", "optimality"):
        sp = vsub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--expect-fail", action="store_true")
        if name == "commuting":
            sp.add_argument("--variant", default=None)
            sp.add_argument("--depth", type=int, default=None)
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--samples", type=int, default=None)
        if name == "equivalence":
            sp.add_argument("--family", default=None)
            sp.add_argument("--step", type=float, default=None)
            sp.add_argument("--t-end", dest="t_end", type=float, default=None)
        if name == "contracting":
            sp.add_argument("--family", default=None)
            sp.add_argument("--a-min", dest="a_min", type=float, default=None)
            sp.add_argument("--grid", type=int, default=None)
        if name == "optimality":
            sp.add_argument("--case", default=None)
            sp.add_argument("--kkt-tol", dest="kkt_tol", type=float, default=None)
            sp.add_argument("--oracle-tol", dest="oracle_tol", type=float, default=None)

    run = sub.add_parser("run", help="run an experiment and write CSV/JSON outputs")
    rsub = run.add_subparsers(dest="experiment", required=True)
    for name in ("sensing", "diagonal", "sparse-coding", "flow"):
        sp = rsub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", required=True)
        sp.add_argument("--plot", action="store_true")
        sp.add_argument("--jobs", type=int, default=1)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--steps", type=int, default=None)
        sp.add_argument("--eta", type=float, default=None)
        sp.add_argument("--record-every", dest="record_every", type=int, default=None)
        sp.add_argument("--schedule", dest="kind", default=None,
                        help="schedule kind: constant|turnoff|linear-decay|cosine-decay")
        sp.add_argument("--alpha0", type=float, default=None)
        sp.add_argument("--turnoff-time", dest="turnoff_time", type=float, default=None)
        sp.add_argument("--t-end", dest="t_end", type=float, default=None)
        if name == "sensing":
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--r", type=int, default=None)
            sp.add_argument("--m", type=int, default=None)
            sp.add_argument("--beta", type=float, default=None)
            sp.add_argument("--sensing-kind", dest="sensing_kind", default=None)
            sp.add_argument("--seeds", default=None, help="comma-separated seed sweep")
        if name == "diagonal":
            sp.add_argument("--variant", default=None, help="m | mw | mwz")
            sp.add_argument("--d", type=int, default=None)
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--sparsity", type=int, default=None)
        if name == "sparse-coding":
            sp.add_argument("--variant", default=None, help="diff-powers | log-ratio")
            sp.add_argument("--k", type=int, default=None)
            sp.add_argument("--dictionary", default=None, help="headerless CSV matrix")
            sp.add_argument("--n-obs", dest="n_obs", type=int, default=None)
            sp.add_argument("--n-features", dest="n_features", type=int, default=None)
            sp.add_argument("--lr-scale", dest="lr_scale", type=float, default=None)
        if name == "flow":
            sp.add_argument("--family", default=None, help="entropy | hyperbolic")
            sp.add_argument("--n", type=int, default=None)
            sp.add_argument("--method", default=None)
            sp.add_argument("--step", type=float, default=None)
    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        ("verify", "commuting"): cmd_verify_commuting,
        ("verify", "equivalence"): cmd_verify_equivalence,
        ("verify", "contracting"): cmd_verify_contracting,
        ("verify", "optimality"): cmd_verify_optimality,
        ("run", "sensing"): cmd_run_sensing,
        ("run", "diagonal"): cmd_run_diagonal,
        ("run", "sparse-coding"): cmd_run_sparse_coding,
        ("run", "flow"): cmd_run_flow,
    }
    key = (args.command, getattr(args, "check", None) or getattr(args, "experiment", None))
    try:
        return handlers[key](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergedError, DomainExitError) as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except MirrorlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
