"""Command-line front end: config parsing, experiment dispatch, CSV/SVG emission.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numeric divergence.  Each command declares its options once, in
``COMMANDS``, with their defaults; a run takes the options of its config
from the fields of the config class, and the parser derives one flag per
option from there.  Config files are flat ``key = value`` text with
``[section]`` headers; command-line flags override config values.  The
environment variable MIRRORLAB_SEED overrides any configured seed, a
``--seeds`` sweep included.  Flags, config values and MIRRORLAB_SEED all
arrive as text, and ``_typed`` reads each option's text once as the type of
its default; a value that cannot be read as that type, or a float option
that is not finite, is a usage error, with the same ``error:`` line from
every source.  Every ``run`` command writes the ``RunRecord`` of its run,
also of one that stopped early, as a trajectory CSV and a summary JSON.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import legendre, reparam
from .commute import check_commuting
from .core import (DivergedError, DomainExitError, InputError, IntegratorConfig,
                   MirrorlabError, Schedule, make_rng)
from .experiments import (RegressionConfig, SensingConfig,
                          SensingLoss, SparseCodingConfig, constrained_argmin,
                          diagonal_network_run, kkt_residual, make_dictionary,
                          make_regression_problem, make_sensing_problem,
                          matrix_sensing_run, sparse_coding_run)
from .flow import (LinearRegressionLoss, QuadraticLoss, run_mirror_flow,
                   run_param_flow, verify_equivalence)
from .legendre import contracting_check
from .svgplot import line_plot

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_DIVERGED = 0, 1, 2, 3

CSV_COLUMNS = ("step", "t", "a", "train_loss", "recon_error", "nuclear_norm",
               "ratio", "l1", "l1_l2_ratio")
CSV_CHUNK_ROWS = 512


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Prints a flag error as an ``error:`` line, like every other usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


# ---------------------------------------------------------------------------
# config and matrix I/O
# ---------------------------------------------------------------------------

def parse_config(path):
    """Flat key = value sections -> {"section.key": the value's stripped text}."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path)
        # items() interpolates, so a stray "%" raises here, not at read()
        return {f"{section}.{key}": raw.strip()
                for section in cp.sections() for key, raw in cp.items(section)}
    except configparser.Error as exc:
        raise UsageError(f"bad config {path}: {exc}")


def load_matrix(path):
    """Headerless CSV of floats; rejects ragged, non-numeric or non-finite rows."""
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
            if not all(map(math.isfinite, rows[-1])):
                raise UsageError(f"{path}:{lineno}: non-finite cell")
    if not rows:
        raise UsageError(f"{path}: empty matrix file")
    return np.asarray(rows)


def config_hash(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def write_trajectory_csv(path, record):
    """A run record's fixed-schema trajectory CSV; metrics the run lacks stay empty.

    Steps are written as ints and every other cell as the repr of a float
    (nan, inf and -inf included).  Rows go out in chunks of CSV_CHUNK_ROWS,
    each column of a chunk formatted in one pass, so the memory held stays
    bounded whatever the run's length.
    """
    m = record.metrics
    columns = [(np.asarray(record.steps).astype(int), str)]
    for series in (record.times, record.a) + tuple(m.get(c) for c in CSV_COLUMNS[3:]):
        columns.append((None if series is None else np.asarray(series, dtype=float), repr))
    n_rows = len(record.steps)
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for lo in range(0, n_rows, CSV_CHUNK_ROWS):
            hi = min(lo + CSV_CHUNK_ROWS, n_rows)
            cells = [[""] * (hi - lo) if col is None else list(map(fmt, col[lo:hi].tolist()))
                     for col, fmt in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    return path


def write_summary(path, record, seed, wall_time_s, extra=None):
    """A run record's summary JSON: its config hash, seed, wall time, status
    and summary, then ``extra``.  The JSON is strict: a value that is not
    finite, such as a diverged run's loss, is written as null, and
    "diverged" and the exit code report the failure."""
    payload = {
        "config_hash": config_hash(record.config),
        "seed": seed,
        "converged": bool(record.summary.get("converged", False)),
        "wall_time_s": wall_time_s,
        "diverged": record.diverged,
    }
    payload.update((key, val) for key, val in record.summary.items() if key != "converged")
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, default=str,
                  allow_nan=False)
        fh.write("\n")
    return path


def _finite_or_null(value):
    """``value`` with every float that is not finite, at any depth of its
    dicts and lists, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(val) for val in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


# ---------------------------------------------------------------------------
# shared option plumbing
# ---------------------------------------------------------------------------

def _merged(args, defaults, section):
    """defaults < config file < explicit flags < MIRRORLAB_SEED, each value
    read from its text once, by _typed, as the type of its default.  A
    command reads its own [section] and the shared [schedule]; a config key
    must be an option of a command that reads its section (any command, for
    [schedule]), so a typo or a section no command reads is a usage error."""
    merged = dict(defaults)
    if args.config:
        for key, val in parse_config(args.config).items():
            sect, _, name = key.partition(".")
            readers = [opts for _, own, opts in COMMANDS.values() if sect in (own, "schedule")]
            if not readers:
                raise UsageError(f"[{sect}] {name}: no command reads [{sect}]")
            if not any(name in opts for opts in readers):
                whose = "this command" if sect == section else "any command reading it"
                raise UsageError(f"[{sect}] {name}: not an option of {whose}")
            if sect in (section, "schedule") and name in merged:
                merged[name] = val
    for name in defaults:
        val = getattr(args, name)
        if val is not None:
            merged[name] = val
    env_seed = os.environ.get("MIRRORLAB_SEED")
    if env_seed is not None and "seed" in merged:
        merged["seed"] = env_seed
        if "seeds" in merged:  # it overrides a seed sweep too
            merged["seeds"] = ""
    for name, default in defaults.items():
        merged[name] = _typed(name, merged[name], type(default))
    return merged


def _typed(name, val, kind):
    """val, the text of an option or its default, read as kind; UsageError
    naming the option if it cannot be, or if it reads as a float that is not
    finite."""
    try:
        out = kind(val)
    except ValueError:
        raise UsageError(f"{name}: cannot read {val!r} as {kind.__name__}")
    if kind is float and not math.isfinite(out):
        raise UsageError(f"{name} must be finite, got {out}")
    return out


def _schedule_from(opts, t_end):
    return Schedule(opts["kind"], opts["alpha0"], turnoff_time=opts["turnoff_time"], t_end=t_end)


def _fields(cls):
    """The options a run takes from its config class: every field but the
    schedule, with its default."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name != "schedule"}


def _config(cls, opts, **given):
    """cls built from the options named by its fields, ``given`` overriding them."""
    return cls(**{name: opts[name] for name in _fields(cls)} | given)


def _write_report(out, name, report):
    """Write a verify report dataclass as one strict JSON line (null for a
    value that is not finite) to OUT/NAME_report.json."""
    if out:
        with open(os.path.join(_ensure_outdir(out), f"{name}_report.json"), "w") as fh:
            row = _finite_or_null(dataclasses.asdict(report))
            fh.write(json.dumps(row, allow_nan=False) + "\n")


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_run(out, name, record, seed, wall, extra):
    """Write a run's CSV and summary as OUT/NAME.csv and OUT/NAME_summary.json;
    returns OUT/NAME, the stem of its plots."""
    stem = os.path.join(_ensure_outdir(out), name)
    write_trajectory_csv(stem + ".csv", record)
    write_summary(stem + "_summary.json", record, seed, wall, extra=extra)
    return stem


# ---------------------------------------------------------------------------
# verify subcommands
# ---------------------------------------------------------------------------

def _unit_diagonals(d, D):
    """The commuting D x D matrices A_i = e_i e_i^T, i < d."""
    return [np.diag((np.arange(D) == i).astype(float)) for i in range(d)]


def _hadamard_init(rng, n):
    """The CLI's Hadamard factor pair: uniform on [1, 2), then on [-0.5, 0.5)."""
    return rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n)


def _build_variant(name, n, depth, seed):
    if n < 1:
        raise UsageError("n must be positive")
    rng = make_rng(seed)
    if name == "hadamard":
        return reparam.Hadamard(*_hadamard_init(rng, n))
    if name == "deep-hadamard":
        return reparam.DeepHadamard([rng.uniform(0.5, 1.5, n) for _ in range(depth)])
    if name == "diff-squares":
        return reparam.DiffSquares(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n))
    if name == "diff-powers":
        return reparam.DiffPowers(2, rng.uniform(0.8, 1.5, n), rng.uniform(0.8, 1.5, n))
    if name == "log-ratio":
        return reparam.LogRatio(rng.uniform(1.1, 2.0, n), rng.uniform(1.1, 2.0, n))
    if name == "quadratic":
        return reparam.QuadraticCommuting(_unit_diagonals(n, n + 1), np.eye(n + 1),
                                          rng.uniform(0.7, 1.5, n + 1))
    raise UsageError(f"unknown variant {name!r}")


def cmd_verify_commuting(args, opts):
    p = _build_variant(opts["variant"], opts["n"], opts["depth"], opts["seed"])
    report = check_commuting(p, n_samples=opts["samples"], tol=opts["tol"], seed=opts["seed"])
    print(f"{'variant':<16} {'samples':>8} {'tol':>10} {'max bracket':>14} {'pass':>6}")
    print(f"{report.variant:<16} {report.n_samples:>8} {report.tol:>10.1e} "
          f"{report.max_bracket_norm:>14.3e} {str(report.passed):>6}")
    _write_report(args.out, "commuting", report)
    return EXIT_OK if report.passed != args.expect_fail else EXIT_FAIL


def _equivalence_case(family_name, seed):
    rng = make_rng(seed)
    n = 5
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
    if family_name == "hadamard":
        p = reparam.Hadamard(*_hadamard_init(rng, n))
        return p, QuadraticLoss(M, rng.standard_normal(n))
    if family_name == "entropy":
        m0 = rng.uniform(0.8, 1.2, n)
        p = reparam.Hadamard(m0, m0)
        return p, QuadraticLoss(M, rng.uniform(0.5, 2.0, n))
    if family_name == "quadratic":
        d, D = 4, 5
        p = reparam.QuadraticCommuting(_unit_diagonals(d, D), np.eye(D), rng.uniform(0.7, 1.5, D))
        return p, QuadraticLoss(np.diag(rng.uniform(0.5, 2.0, d)), rng.uniform(0.3, 1.0, d))
    if family_name == "diff-powers":
        p = reparam.DiffPowers(2, rng.uniform(0.9, 1.4, 3), rng.uniform(0.9, 1.4, 3))
        return p, QuadraticLoss(0.5 * np.eye(3), rng.uniform(-0.5, 0.5, 3))
    raise UsageError(f"unknown equivalence family {family_name!r}")


def cmd_verify_equivalence(args, opts):
    p, loss = _equivalence_case(opts["family"], opts["seed"])
    # a fixed schedule per family: the diff-powers dual map matches the raw
    # factor flow exactly only without accumulated strength, so that family
    # checks the classical, undecayed case
    kind, alpha0 = ("constant", 0.0) if opts["family"] == "diff-powers" else ("turnoff", 0.5)
    sched = Schedule(kind, alpha0, turnoff_time=1.0, t_end=opts["t_end"])
    cfg = IntegratorConfig("dop853", opts["step"], opts["t_end"], record_every=10)
    report = verify_equivalence(p, loss, sched, cfg, tol=opts["tol"])
    print(f"pair {report.pair}: max deviation {report.max_deviation:.3e} "
          f"(tol {report.tol:.1e}) over {report.n_points} points -> "
          f"{'PASS' if report.passed else 'FAIL'}")
    _write_report(args.out, "equivalence", report)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_verify_contracting(args, opts):
    rng = make_rng(opts["seed"])
    name, grid = opts["family"], opts["grid"]
    if grid < 2:
        raise UsageError(f"grid must be at least 2, got {grid}")
    n = 3
    if name == "hyperbolic":
        fam = legendre.HyperbolicEntropy.from_hadamard(*_hadamard_init(rng, n))
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
        fam = legendre.QuadraticFamily(_unit_diagonals(d, D), sign * np.eye(D),
                                       rng.uniform(0.7, 1.5, D))
        xs = [rng.uniform(0.1, 2.0, d) for _ in range(grid)]
    else:
        raise UsageError(f"unknown contracting family {name!r}")
    a_grid = np.linspace(opts["a_min"], 0.0, grid)
    report = contracting_check(fam, a_grid, xs, tol=opts["tol"])
    print(f"family {fam.tag}: max slope {report.max_slope:.3e}, "
          f"max positive slope {report.max_positive_slope:.3e} (tol {report.tol:.1e}), "
          f"{report.n_skipped} skipped -> {'PASS' if report.passed else 'FAIL'}")
    _write_report(args.out, "contracting", report)
    return EXIT_OK if report.passed != args.expect_fail else EXIT_FAIL


def cmd_verify_optimality(args, opts):
    rng = make_rng(opts["seed"])
    if opts["case"] == "diagonal":
        n, d = 6, 3
        Z = rng.standard_normal((d, n))
        x_star = np.zeros(n)
        # not make_regression_problem: the right side runs first, drawing the signs before the support
        x_star[rng.choice(n, 2, replace=False)] = rng.choice([-1.0, 1.0], 2)
        y = Z @ x_star
        loss = LinearRegressionLoss(Z, y)
        p = reparam.DeepHadamard([np.zeros(n), np.ones(n)])
        fam = legendre.HyperbolicEntropy.from_hadamard(np.zeros(n), np.ones(n))
        sched = Schedule("turnoff", 2.0, turnoff_time=1.0, t_end=120.0)
        # dop853, not bdf: this 12-parameter flow is barely stiff, and bdf took
        # 0.17 s against 0.09 s at seed 0, and longer at 4 of seeds 0-4
        x_inf = run_param_flow(p, loss, sched,
                               IntegratorConfig("dop853", 5e-3, 120.0, record_every=4000)).final_x
    elif opts["case"] == "sensing":
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
        # the flow is stiff after the turn-off: bdf takes 2481-3056 field
        # evaluations where dop853 takes 12532-19111 (seeds 0-4)
        rec = run_param_flow(p, loss, sched,
                             IntegratorConfig("bdf", 5e-3, 150.0, record_every=4000))
        x_inf = np.diag(rec.final_x.reshape(n, n))
    else:
        raise UsageError(f"unknown optimality case {opts['case']!r}")
    a_T = float(sched.a(sched.t_end))
    res = kkt_residual(Z, x_inf, fam, a_T)
    oracle = constrained_argmin(fam, a_T, Z, y)
    diff = float(np.max(np.abs(oracle - x_inf)))
    ok = res <= opts["kkt_tol"] and diff <= opts["oracle_tol"]
    print(f"case {opts['case']}: kkt residual {res:.3e} (tol {opts['kkt_tol']:.1e}), "
          f"oracle deviation {diff:.3e} (tol {opts['oracle_tol']:.1e}) -> "
          f"{'PASS' if ok else 'FAIL'}")
    if args.out:
        with open(os.path.join(_ensure_outdir(args.out), "optimality_report.json"), "w") as fh:
            json.dump(_finite_or_null({"case": opts["case"], "kkt_residual": res,
                                       "oracle_deviation": diff, "passed": ok}),
                      fh, indent=2, allow_nan=False)
            fh.write("\n")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# run subcommands
# ---------------------------------------------------------------------------

def _sensing_job(cfg):
    """One sensing run and its own wall time in seconds."""
    t0 = time.perf_counter()
    return matrix_sensing_run(cfg), time.perf_counter() - t0


def _kkt_or_none(Z, x, family, a):
    """KKT residual of x, or None where kkt_residual rejects the point."""
    try:
        return float(kkt_residual(Z, x, family, a))
    except MirrorlabError:
        return None


def cmd_run_sensing(args, opts):
    seeds = ([_typed("seeds", s, int) for s in opts["seeds"].split(",") if s != ""]
             or [opts["seed"]])
    # the schedule ends with the run, as SensingConfig's default one does
    sched = _schedule_from(opts, max(opts["steps"] * opts["eta"], 1e-12))
    jobs = [_config(SensingConfig, opts, seed=seed, schedule=sched) for seed in seeds]
    if args.jobs > 1 and len(jobs) > 1:
        # imported here: the process pool's import chain adds about 1 MB of
        # peak memory to every command that does not use it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            return _write_sensing_runs(args.out, pool.map(_sensing_job, jobs), jobs, args.plot)
    return _write_sensing_runs(args.out, map(_sensing_job, jobs), jobs, args.plot)


def _write_sensing_runs(out, results, jobs, plot):
    """Write each seed's outputs as its run arrives from ``results``, in seed
    order.  No name here holds a report while the next run is taken, so a
    sweep keeps one report at a time."""
    code = EXIT_OK
    for cfg in jobs:
        if _write_sensing_seed(out, *next(results), cfg, plot):
            code = EXIT_DIVERGED
    return code


def _write_sensing_seed(out, rep, wall, cfg, plot):
    """One seed's CSV, summary, plots and console line; whether it diverged."""
    extra = {"kkt_residual": None}
    if cfg.sensing_kind == "commuting-diagonal":
        # only commuting-diagonal runs attach an eigenvalue potential
        _, A, _, _ = make_sensing_problem(cfg)
        diag = np.arange(cfg.n)
        Z = A[:, diag, diag]
        # a design of full column rank has one interpolant, where the KKT
        # condition holds trivially; kkt_residual needs full row rank, so it
        # is null for such a design with more rows than columns
        extra["unique_interpolant"] = bool(np.linalg.matrix_rank(Z) == cfg.n)
        if not rep.diverged:
            lam = np.maximum(np.diag(rep.final_x.reshape(cfg.n, cfg.n)), 1e-300)
            fam = legendre.Entropy(cfg.beta * np.ones(cfg.n))
            extra["kkt_residual"] = _kkt_or_none(Z, lam, fam, float(rep.a[-1]))
    stem = _write_run(out, f"sensing_seed{cfg.seed}", rep, cfg.seed, wall, extra)
    if plot:
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
    return rep.diverged


def cmd_run_diagonal(args, opts):
    # the schedule ends with phase 2, as RegressionConfig's default one does
    sched = _schedule_from(opts, max(2 * opts["steps"] * opts["eta"], 1e-12))
    cfg = _config(RegressionConfig, opts, schedule=sched)
    t0 = time.perf_counter()
    rep = diagonal_network_run(cfg)
    wall = time.perf_counter() - t0
    kkt = None
    if cfg.variant == "mw" and not rep.diverged:
        Z, _, _ = make_regression_problem(cfg)
        fam = legendre.HyperbolicEntropy.from_hadamard(np.zeros(cfg.n), np.ones(cfg.n))
        kkt = _kkt_or_none(Z, rep.final_x, fam, float(rep.a[-1]))
    stem = _write_run(args.out, f"diagonal_{cfg.variant}_seed{cfg.seed}", rep, cfg.seed, wall,
                      {"kkt_residual": kkt})
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


def cmd_run_sparse_coding(args, opts):
    seed, k, variant = opts["seed"], opts["k"], opts["variant"]
    if variant not in ("diff-powers", "log-ratio"):
        raise UsageError(f"unknown sparse-coding variant {variant!r}")
    if variant == "diff-powers" and k < 1:
        raise UsageError("k must be a positive integer")
    # t_end sets only a constant schedule's total_strength
    sched = _schedule_from(opts, 1e9)
    cfg = _config(SparseCodingConfig, opts)
    rng = make_rng(seed)
    if opts["dictionary"]:
        D = load_matrix(opts["dictionary"])
        if not np.any(D):
            raise InputError("dictionary must be a finite nonzero matrix")
    else:
        D = make_dictionary(opts["n_obs"], opts["n_features"], seed=seed)
    n = D.shape[1]
    print(f"dictionary: {D.shape[0]} observations x {n} features")
    code_star = np.zeros(n)
    idx = rng.choice(n, max(1, n // 6), replace=False)
    code_star[idx] = rng.standard_normal(len(idx))
    target = D @ code_star + 0.05 * rng.standard_normal(D.shape[0])
    x_init = rng.standard_normal(n)
    if variant == "diff-powers":
        u0 = (0.5 * (np.sqrt(x_init**2 + 1.0) + x_init)) ** (1.0 / (2 * k))
        v0 = (0.5 * (np.sqrt(x_init**2 + 1.0) - x_init)) ** (1.0 / (2 * k))
        p = reparam.DiffPowers(k, u0, v0)
    else:
        # g(w0) = log u0 - log v0 = 0.1 per coordinate, from factors inside
        # the unit region (u, v > 1) that the run reports on
        u0 = np.full(n, 2.0 * np.exp(0.05))
        v0 = np.full(n, 2.0 * np.exp(-0.05))
        p = reparam.LogRatio(u0, v0)
    t0 = time.perf_counter()
    rep = sparse_coding_run(D, target, p, sched, cfg)
    wall = time.perf_counter() - t0
    stem = _write_run(args.out, f"sparse_{variant}_seed{seed}", rep, seed, wall,
                      {"flags": rep.flags, "kkt_residual": None})
    if args.plot:
        line_plot(stem + "_l1.svg", [("code l1 norm", rep.steps, rep.metrics["l1"])],
                  title="sparse coding", xlabel="step", ylabel="l1")
    print(f"variant {variant} k={k}: final l1 {rep.summary['final_l1']:.4f}, "
          f"stationary at step {rep.summary['stationarity_step']}, flags {rep.flags}")
    return EXIT_DIVERGED if rep.diverged else EXIT_OK


def cmd_run_flow(args, opts):
    seed, n = opts["seed"], opts["n"]
    if n < 1:
        raise UsageError("n must be positive")
    rng = make_rng(seed)
    if opts["family"] == "entropy":
        fam = legendre.Entropy(rng.uniform(0.5, 1.5, n))
        target = rng.uniform(0.5, 2.0, n)
    elif opts["family"] == "hyperbolic":
        fam = legendre.HyperbolicEntropy.from_hadamard(*_hadamard_init(rng, n))
        target = rng.standard_normal(n)
    else:
        raise UsageError(f"unknown flow family {opts['family']!r}")
    loss = QuadraticLoss(np.eye(n), target)
    sched = _schedule_from(opts, opts["t_end"])
    cfg = IntegratorConfig(opts["method"], opts["step"], opts["t_end"],
                           record_every=opts["record_every"])
    t0 = time.perf_counter()
    try:
        rec, code = run_mirror_flow(fam, loss, sched, cfg), EXIT_OK
    except (DivergedError, DomainExitError) as exc:
        print(f"flow stopped early: {exc}", file=sys.stderr)
        rec, code = exc.record, EXIT_DIVERGED
    wall = time.perf_counter() - t0
    # the CLI's options are the run's config; "l1" is the CSV's norm of x
    rec.config = dict(opts)
    rec.metrics["l1"] = np.sum(np.abs(rec.metrics["x"]), axis=1)
    stem = _write_run(args.out, f"flow_{opts['family']}_seed{seed}", rec, seed, wall,
                      {"kkt_residual": None})
    if args.plot:
        line_plot(stem + "_loss.svg", [("loss", rec.times, rec.metrics["train_loss"])],
                  title="mirror flow", xlabel="t", ylabel="loss", logy=True)
    if code == EXIT_OK:
        print(f"family {fam.tag}: {len(rec.times)} records, final loss "
              f"{rec.summary['final_train_loss']:.3e}")
    return code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

# (group, name) -> (handler, config section, {option: default}): the one
# declaration of each command's options, a run's config options being the
# fields of its config class.  build_parser derives a flag per
# option, which argparse hands over as text (``kind`` is spelled --schedule);
# _merged reads the command's [section] plus the shared [schedule] and types
# every option; main calls handler(args, options).
COMMANDS = {
    ("verify", "commuting"): (cmd_verify_commuting, "commuting", {
        "variant": "hadamard", "n": 3, "depth": 3, "samples": 50, "tol": 1e-4, "seed": 0}),
    ("verify", "equivalence"): (cmd_verify_equivalence, "equivalence", {
        "family": "hadamard", "seed": 0, "tol": 1e-4, "step": 1e-3, "t_end": 4.0}),
    ("verify", "contracting"): (cmd_verify_contracting, "contracting", {
        "family": "hyperbolic", "a_min": -2.0, "grid": 50, "tol": 1e-8, "seed": 0}),
    ("verify", "optimality"): (cmd_verify_optimality, "optimality", {
        "case": "diagonal", "seed": 0, "kkt_tol": 1e-4, "oracle_tol": 1e-3}),
    ("run", "sensing"): (cmd_run_sensing, "sensing", {
        **_fields(SensingConfig), "kind": "turnoff", "alpha0": 0.02, "turnoff_time": 625.0,
        "seeds": ""}),
    ("run", "diagonal"): (cmd_run_diagonal, "diagonal", {
        **_fields(RegressionConfig), "kind": "turnoff", "alpha0": 1.0, "turnoff_time": 20.0}),
    ("run", "sparse-coding"): (cmd_run_sparse_coding, "sparse_coding", {
        "n_obs": 200, "n_features": 50, "k": 2, "variant": "diff-powers",
        **_fields(SparseCodingConfig), "seed": 0, "kind": "constant", "alpha0": 1e-3,
        "turnoff_time": 1.0, "dictionary": ""}),
    ("run", "flow"): (cmd_run_flow, "flow", {
        "family": "entropy", "n": 4, "seed": 0, "method": "dop853", "step": 1e-3,
        "record_every": 10, "kind": "constant", "alpha0": 0.1, "turnoff_time": 1.0,
        "t_end": 4.0}),
}

_HELP = {"kind": "schedule kind: constant|turnoff|linear-decay|cosine-decay",
         "seeds": "comma-separated seed sweep", "dictionary": "headerless CSV matrix",
         "step": "euler's fixed step; dop853's and bdf's record grid and first trial step"}


def build_parser():
    """One flag per COMMANDS option, plus the fixed switches: --config and
    --out everywhere, --expect-fail where a verify reads it, and --plot and
    --jobs on every run."""
    top = _Parser(prog="mirrorlab", description="time-dependent mirror flow laboratory")
    groups = top.add_subparsers(dest="command", required=True)
    subs = {group: groups.add_parser(group, help=text).add_subparsers(dest="name", required=True)
            for group, text in (("verify", "run a verification suite"),
                                ("run", "run an experiment and write CSV/JSON outputs"))}
    for (group, name), (_, _, options) in COMMANDS.items():
        sp = subs[group].add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=None, required=group == "run")
        if group == "run":
            sp.add_argument("--plot", action="store_true")
            sp.add_argument("--jobs", type=int, default=1,
                            help="worker processes of a --seeds sweep")
        elif name in ("commuting", "contracting"):
            sp.add_argument("--expect-fail", action="store_true")
        for opt, default in options.items():
            flag = "--schedule" if opt == "kind" else "--" + opt.replace("_", "-")
            sp.add_argument(flag, dest=opt, default=None,
                            help=f"{_HELP.get(opt, '')} (default {default!r})")
    return top


@functools.lru_cache(maxsize=None)
def _parser():
    """The one parser of the process, built at the first ``main`` call, not at
    import; parse_args leaves it unchanged, so every call can share it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handler, section, options = COMMANDS[args.command, args.name]
    try:
        if getattr(args, "jobs", 1) < 1:
            raise UsageError(f"jobs must be at least 1, got {args.jobs}")
        return handler(args, _merged(args, options, section))
    except (UsageError, InputError) as exc:
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
