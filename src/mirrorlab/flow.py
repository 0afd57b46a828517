"""Time integration of regularized parameter flows and their dual mirror flows.

Two flows are implemented over one engine, ``_integrate``, which the
experiment runners share.  It is one loop over what a method's generator
yields: fixed-step Euler; "dop853", Dormand & Prince's error-controlled
8(5,3) pair (tolerances ``RTOL`` and ``ATOL``), whose steps land only on the
schedule's turn-off time and on the end of the run, and which reads every
record time of the fixed grid from its seventh-order dense output; or
"bdf", for stiff flows, the variable-order NDF of Shampine & Reichelt under
the same tolerances and landings, started and, where its steps would be
short, relieved by dop853 steps, which reads the record times from its
interpolating polynomial.  The runners take Euler steps of their learning
rate; ``run flow`` and ``verify equivalence`` run dop853, and so does
``verify optimality`` except on its stiff sensing case, which runs bdf.  The
engine also keeps every run's record: a hook sees every state the run takes,
which is where a run's events are read, and returns named values at each
snapshot, which the engine holds by reference in a block of up to
``RECORD_BLOCK`` snapshots.  A full block, and the last one, is stacked name
by name, passed through the run's optional finisher, a function of the block
that computes its statistics in one call, and written with the step index
and time into one table per column, so a hook must not modify a value after
returning it.  Each flow derives the strength ``a`` from its "t" column.


* parameter space:  dw = -(Jg(w)^T grad_f(g(w)) + alpha_t grad_h(w)) dt
* dual space:       dmu = -grad_f(Q_{a_t}(mu)) dt,  x_t = Q_{a_t}(mu_t), mu_0 = 0

One loop, ``_param_flow``, builds the parameter flow for ``run_param_flow``,
which keeps the hook's values as its columns, and for the runners of
``experiments``, each of which passes its own finisher.
Both flows, like those runners, return the ``core.RunRecord`` of the
engine's tables and status, which ``_flow_result`` builds; a flow that stops
early raises DivergedError or DomainExitError carrying it instead.

``verify_equivalence`` drives the parameter flow of a parameterization and
the mirror flow of the family ``legendre.family_for`` matches to it with one
integrator config, so with any method they are compared at the same record
times, and reports the sup deviation of the model-space iterates; it is the
executable form of the equivalence between the two descriptions.

Both flows check shapes once, at the run boundary: one public, checked
evaluation of the field at the initial state raises ``InputError`` for a
parameterization, family and loss that do not fit together.  Every stage
and record then calls the unchecked kernels: the parameterization's ``_g``,
``_h`` and ``_flow_rhs``, the loss's ``_grad`` and ``_value_and_grad`` and
the family's ``_dual_map``, which still make their value checks (domain,
positivity).  The least-squares kernels run their two gemvs on the distinct
columns of Z when its rows times its repeated columns reach
``MERGE_CROSSOVER`` (the sensing runner's designs, whose symmetric or zero
columns repeat), and on Z itself, with the bits of ``Z @ x`` and
``Z.T @ r``, below it (every other design the package builds).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (DivergedError, DomainError, DomainExitError, InputError,
                   IntegratorConfig, RunRecord, Schedule, flat_vector)
from .legendre import family_for

DIVERGENCE_LIMIT = 1e12
# a state whose squared norm is at most this has every entry inside the limit
# (with a factor-of-two margin for the dot's roundoff), so one dot clears it
_FAST_SQUARED_BOUND = 0.5 * DIVERGENCE_LIMIT ** 2
# snapshots per record block: the engine holds at most this many hook rows
# before it stacks them and writes its tables.  At 32 the per-call cost of
# the stacked statistics is already amortized, and a sensing run (n = 20,
# record_every=50) peaks at the traced memory of one write per snapshot;
# 64 is no faster and adds 0.2 MB to that peak
RECORD_BLOCK = 32
# a least-squares design keeps each distinct column once when its rows times
# its removed columns reach this.  The bincount and the scatter of the merged
# kernels cost about 1.9 us a call at 400 columns, so they pay only on large
# designs.  Per _value_and_grad call (median of 15 repeats of 2000 calls,
# 2-vCPU Xeon, OpenBLAS on one thread) over symmetric and diagonal sensing
# designs, m in 4-120 and n in 4-20, the merged kernels lost up to 2.4 us at
# 32 of the 34 products up to 3520 (the 4 x 64 design of verify optimality:
# 220), read -1.6 to +3.5 us from 5400 to 12160, and gained 1.8-11.3 us at
# every product from 21720 on (the sensing runner's two kinds: 22800 and
# 45480 gained 5.9 and 11.3 us)
MERGE_CROSSOVER = 16384

# error control of the "dop853" and "bdf" methods: tolerances per entry, and the
# smallest step as a fraction of the nominal step h.  No step is shorter than
# the floor, so a run takes at most 1000 times the steps of its fixed grid;
# the smallest step of the optimality flows, seeds 0-19, is 0.0032 h.
# RTOL also sets the accuracy of the record rows, which are read from the
# dense output and not error-controlled: at 1e-12 they drift to 2.0e-9 on
# the diff-powers equivalence check (seeds 0-4), at 1e-13 to 2.8e-10
RTOL = 1e-13
ATOL = 1e-14
STEP_FLOOR = 1e-3
# Dormand & Prince's 8(5,3) pair with Hairer's seventh-order dense output
# (Prince & Dormand, J. Comput. Appl. Math. 7, 1981; Hairer, Norsett & Wanner,
# Solving ODEs I, II.5-6), transcribed from Hairer's DOP853; scipy ships the
# same values in integrate/_ivp/dop853_coefficients.py.  _A is the 16 x 16
# stage matrix, row i the combination of the stages before i: rows 1-11 are
# the stages, row 12 the eighth-order weights, so that the thirteenth stage is
# the field at the new state (first same as last), and rows 13-15 the three
# stages of the dense output.  _C are the stage times, _E the fifth- and
# third-order error weights of the first twelve stages, and _D the four
# stage combinations of the interpolant's higher coefficients
_A = np.array([row + (0,) * (16 - len(row)) for row in (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)], dtype=float)
_C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
               0.2816496580927726, 1 / 3, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
               0.8571428571428571, 1, 1, 0.1, 0.2, 0.7777777777777778])
_E = np.array([
    [0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
     -0.022355307863886294],
    _A[12, :12],
])
_E[1, [0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])
# the dense output is y + sum_j F_j x^(j//2 + 1) (1 - x)^((j + 1)//2) at
# x = (t - t_step) / dt, j = 0..6: the exponents of x and of 1 - x
_X_POW = np.arange(7) // 2 + 1
_ONE_MINUS_X_POW = np.arange(1, 8) // 2

# the numerical differentiation formulas of orders 1-5 (Shampine & Reichelt,
# "The MATLAB ODE suite", SIAM J. Sci. Comput. 18, 1997), in the backward-
# difference form of scipy's integrate/_ivp/bdf.py: _NDF_GAMMA[k] is
# sum_{j <= k} 1/j, _NDF_ALPHA[k] = (1 - kappa_k) gamma_k the weight of the
# corrector, and _NDF_ERROR[k] the constant of the order-k error estimate
_NDF_ORDER = 5
_NDF_KAPPA = np.array([0, -0.1850, -1 / 9, -0.0823, -0.0415, 0])
_NDF_GAMMA = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, _NDF_ORDER + 1))))
_NDF_ALPHA = ((1.0 - _NDF_KAPPA) * _NDF_GAMMA).tolist()
_NDF_ERROR = (_NDF_KAPPA * _NDF_GAMMA + 1.0 / np.arange(1, _NDF_ORDER + 2)).tolist()
# Newton iterations per try, and the tolerance of their converged increment
# relative to the error scale: max(10 eps / RTOL, min(0.03, RTOL^0.5))
_NEWTON_ITERS = 4
_NEWTON_TOL = max(10 * np.finfo(float).eps / RTOL, min(0.03, RTOL ** 0.5))
# the forward-difference Jacobian steps by sqrt(eps) relative to max(|y_j|, 1)
_JAC_STEP = np.finfo(float).eps ** 0.5
# a step that would grow by less than this factor keeps its size, and the
# inverse of its iteration matrix: at 2 the sensing optimality flow (seeds
# 0-4) inverts the 64 x 64 matrix 29-37 times instead of 138-255, for 26-37 %
# more NDF steps, and one inversion costs about eight field evaluations
_NDF_KEEP = 2.0
# an NDF run hands its segment back to dop853 when its step falls below this
# fraction of the one it was seeded at, a fifth of dop853's: there dop853's
# steps cost less per unit of time despite their 12 evaluations.  On the
# sensing optimality flow (seeds 0 and 1) an NDF run seeded at t = 0 took
# 414 and 685 steps over the 0.5-long head, which dop853 covers in 25 and 37
_NDF_HANDBACK = 0.5
# _NDF_PREDICT[k] @ D[:k + 1] is the order-k step's predicted state and psi,
# the past's part of its corrector.  With the corrector's distance d from
# the prediction in D[k + 2], _NDF_UPDATE[k] @ D[:k + 3] is the differences
# of the new step: D[i] + ... + D[k] + d for i <= k, then d, then d - D[k + 1]
# (index 0, no order, holds None)
_NDF_PREDICT = [None] + [np.array([np.ones(k + 1), np.r_[0.0, _NDF_GAMMA[1:k + 1]] / _NDF_ALPHA[k]])
                         for k in range(1, _NDF_ORDER + 1)]
_NDF_UPDATE = [None] + [np.triu(np.ones((k + 3, k + 3))) for k in range(1, _NDF_ORDER + 1)]
for _k in range(1, _NDF_ORDER + 1):
    _NDF_UPDATE[_k][:, _k + 1] = 0.0
    _NDF_UPDATE[_k][_k + 2, _k + 1] = -1.0


class QuadraticLoss:
    """f(x) = (x - target)^T M (x - target) / 2 with M positive semidefinite."""

    def __init__(self, M, target):
        self.M = np.asarray(M, dtype=float)
        self.target = np.asarray(target, dtype=float).ravel()
        if self.M.shape != (self.target.size,) * 2:
            raise InputError(f"M has shape {self.M.shape}, expected a square matrix of the "
                             f"target's length {self.target.size}")

    def value(self, x):
        return self._value_and_grad(flat_vector(x, self.target.size, "model vector x"))[0]

    def grad(self, x):
        return self._grad(flat_vector(x, self.target.size, "model vector x"))

    # the kernels take a flat float64 x of the target's length as given.  The
    # field steps on _grad; value and the records read _value_and_grad
    def _grad(self, x):
        return self.M @ (x - self.target)

    def _value_and_grad(self, x):
        r = x - self.target
        Mr = self.M @ r
        return float(0.5 * r @ Mr), Mr


class LinearRegressionLoss:
    """Least squares f(x) = ||Z x - y||^2 / (2 d), d the number of rows of Z.

    The package's one least-squares loss: the sensing and dictionary losses
    in ``experiments`` only choose Z and the divisor d.  Columns of Z that
    are equal byte for byte are kept once, in ``Zc`` (in order of first
    occurrence), when the rows of Z times the columns this removes reach
    ``MERGE_CROSSOVER``; ``group`` then maps each column of Z to its column
    of Zc, and the kernels use ``Z x = Zc S x`` and ``Z^T r = S^T Zc^T r``,
    S the 0/1 matrix of ``group``.  A symmetric sensing design keeps
    n (n + 1) / 2 of its n^2 columns, a diagonal one n + 1.  Below the
    crossover ``group`` is None and the kernels run the gemvs on Z itself.
    """

    def __init__(self, Z, y):
        self.Z = np.asarray(Z, dtype=float)
        self.y = np.asarray(y, dtype=float).ravel()
        if self.Z.ndim != 2:
            raise InputError(f"Z has {self.Z.ndim} dimensions, expected a 2-D matrix")
        if self.y.size != self.Z.shape[0]:
            raise InputError(f"y has length {self.y.size}, expected one entry per row of Z "
                             f"({self.Z.shape[0]})")
        self.d = max(1, self.Z.shape[0])
        self.Zc, self.group = self.Z, None
        rows, cols = self.Z.shape
        if rows * (cols - 1) >= MERGE_CROSSOVER:
            # a dict over the column bytes: np.unique(axis=1) takes 7-12 times as long
            first = {}
            owner = [first.setdefault(col.tobytes(), j) for j, col in enumerate(self.Z.T)]
            if rows * (cols - len(first)) >= MERGE_CROSSOVER:
                kept, self.group = np.unique(owner, return_inverse=True)
                self.Zc = self.Z[:, kept]

    def value(self, x):
        return self._value_and_grad(flat_vector(x, self.Z.shape[1], "model vector x"))[0]

    def grad(self, x):
        return self._grad(flat_vector(x, self.Z.shape[1], "model vector x"))

    # the kernels take a flat float64 x with one entry per column of Z as
    # given.  Without a group, Z.dot(x) and r.dot(Z) run the same gemv as
    # Z @ x and Z.T @ r with fewer calls around it, so they return the same
    # bits; with one, x is summed per group and the gradient entries of a
    # group are one value, so the products agree with Z's to roundoff
    def _grad(self, x):
        if self.group is None:
            return (self.Z.dot(x) - self.y).dot(self.Z) / self.d
        r = self.Zc.dot(np.bincount(self.group, x)) - self.y
        return (r.dot(self.Zc) / self.d)[self.group]

    def _value_and_grad(self, x):
        if self.group is None:
            r = self.Z.dot(x) - self.y
            return float(0.5 * r @ r / self.d), r.dot(self.Z) / self.d
        r = self.Zc.dot(np.bincount(self.group, x)) - self.y
        return float(0.5 * r @ r / self.d), (r.dot(self.Zc) / self.d)[self.group]


def _integrate(rhs, state0, n_steps, h, record_every, record, method="euler", finish=None,
               breaks=()):
    """Euler, Dormand-Prince 8(5,3) or the NDF over the grid t_k = k h with a divergence guard.

    ``rhs(t, state)`` is the vector field alone: a method also evaluates it
    on stages, rejected steps and Jacobian probes.  ``record(k, t, state)``
    sees every state the run takes, in order, so events are read there: the
    initial state, each accepted step and each record row, k None between
    record times.  At the initial state, every ``record_every``-th step and
    the last it returns a dict of named values for that snapshot, with the
    names of the first, or ValueError is raised.  States are never modified
    in place.  Integration stops early when a state leaves the finite range
    or exceeds DIVERGENCE_LIMIT, or when ``rhs`` or ``record`` raises
    DomainError; the last healthy state is then recorded only if it fell on
    the record grid.  The guard first tries one dot product,
    ``new . new <= DIVERGENCE_LIMIT**2 / 2``, and only a state that fails it
    pays for the exact ``max |new_i| <= DIVERGENCE_LIMIT``.  The loop ignores
    floating-point overflow, invalid and divide errors (a trial step may
    overflow or divide by an underflowed value): the guard and the step
    rejection handle every non-finite value.

    A method is a generator of (t, state, k) in increasing t, which one loop
    consumes; the loop owns the guard, the snapshots and the status of an
    early exit.  It yields each accepted step, with k the step index of the
    record time it ends on or None, and each record time k h that falls
    inside an accepted step, as a row carrying its k, before that step.  A
    method must yield every record time of the grid, in order, and end on
    ``n_steps h``.  "euler" (``_euler``) takes the ``n_steps`` steps of size
    ``h``, each ending on a node of the grid, and ignores ``breaks``.
    "dop853" (``_dop853``) takes error-controlled steps that land only on the
    times in ``breaks``, where the field may jump or kink, and on the end,
    and reads the record times between from its dense output, so its "step"
    and "t" columns are Euler's.  "bdf" (``_bdf``) lands and records the same
    way, with implicit steps that a stiff field does not hold to the
    stability limit of explicit ones; both share ``_landings`` and the
    record-time bookkeeping of ``_RecordTimes``.

    The record is written a block of up to ``RECORD_BLOCK`` snapshots at a
    time.  The block holds each hook row by reference, so a hook must not
    modify a value after returning it (states never are, and the kernels
    return fresh arrays).  A full block is flushed, and so is the last one
    when the run ends or stops early: each name is stacked over the block,
    and a value whose shape differs from the name's first raises ValueError
    naming its step rather than broadcasting.  ``finish(block)``, if given,
    turns the stacked block (a dict of arrays with one row per snapshot)
    into the columns to keep, one row per snapshot each, so statistics of
    the states cost one vectorized call per block; without it the stacked
    hook values are the columns.

    The columns are kept in one table per name, sized to the
    ``1 + ceil(n_steps / record_every)`` snapshots of a finished run:
    "step" (int64) and "t" (float64) exist from the start, and each column
    gets a float64 table of shape ``(rows,) + column.shape[1:]`` at the
    first flush and is written with one slice assignment per block.

    Returns (state, status, records): the last state yielded (the offending
    one after a divergence); None on success or ("diverged"|"domain", t, exc)
    on early exit, t being the time of the last state accepted; and a dict
    mapping "step", "t" and every column name to its table.  A finished run
    returns the full tables; an early exit returns a compact copy of the
    filled rows, which owns its data.
    """
    state = np.array(state0, dtype=float)
    t = 0.0
    rows = 1 + n_steps // record_every + (n_steps % record_every != 0)
    tables = {"step": np.empty(rows, dtype=np.int64), "t": np.empty(rows)}
    shapes = None  # the shape of each hook name's value at the first snapshot
    block_steps, block_times, block_rows = [], [], []
    filled = 0

    def snapshot(k, t, state):
        nonlocal shapes
        row = record(k, t, state)
        if shapes is None:
            shapes = {name: np.shape(value) for name, value in row.items()}
        elif row.keys() != shapes.keys():
            raise ValueError(f"record at step {k} returned {sorted(row)}, "
                             f"expected the first snapshot's {sorted(shapes)}")
        block_rows.append(row)
        block_steps.append(k)
        block_times.append(t)
        if len(block_rows) == RECORD_BLOCK:
            flush()

    def flush():
        nonlocal filled
        if not block_rows:
            return
        end = filled + len(block_rows)
        block = {name: _stack(name, [row[name] for row in block_rows], block_steps, shape)
                 for name, shape in shapes.items()}
        tables["step"][filled:end] = block_steps
        tables["t"][filled:end] = block_times
        block_steps.clear()
        block_times.clear()
        block_rows.clear()
        columns = block if finish is None else finish(block)
        for name, col in columns.items():
            if len(col) != end - filled:
                raise ValueError(f"record column {name!r} has {len(col)} rows for a block "
                                 f"of {end - filled} snapshots")
            if name not in tables:
                tables[name] = np.empty((rows,) + col.shape[1:])
            tables[name][filled:end] = col
        filled = end

    steps = (_euler(rhs, state, n_steps, h, record_every) if method == "euler"
             else _ADAPTIVE[method](rhs, state, n_steps, h, record_every, breaks))
    status = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            snapshot(0, t, state)
            for t_new, new, k in steps:
                if _runaway(new):
                    state, status = new, ("diverged", t, None)
                    break
                state, t = new, t_new
                if k is None:  # a state between record times: its row is dropped
                    record(None, t, state)
                else:
                    snapshot(k, t, state)
        except DomainError as exc:
            status = ("domain", t, exc)
        flush()
    if filled < rows:
        tables = {name: col[:filled].copy() for name, col in tables.items()}
    return state, status, tables


def _runaway(new):
    """Whether a step's state left the finite range or exceeds DIVERGENCE_LIMIT.

    The dot clears almost every state; NaN, inf and large entries fall
    through to the exact test, which NaN fails too."""
    return not new.dot(new) <= _FAST_SQUARED_BOUND and not np.abs(new).max() <= DIVERGENCE_LIMIT


def _euler(rhs, y, n_steps, h, record_every):
    """The ``n_steps`` Euler steps of size h, as (t, state, k), k the step
    index of a record time and None between them."""
    for k in range(1, n_steps + 1):
        y = y + h * rhs((k - 1) * h, y)
        yield k * h, y, k if k % record_every == 0 or k == n_steps else None


def _landings(t_end, breaks):
    """The times an adaptive run must land on, in order, as (t, is_break):
    every break in (0, t_end], then t_end unless it is a break."""
    cuts = sorted({float(b) for b in breaks if 0.0 < b <= t_end})
    yield from ((b, True) for b in cuts)
    if not cuts or cuts[-1] != t_end:
        yield t_end, False


def _landing_time(t_next, is_break):
    """The time at which a step landing on ``t_next`` evaluates the field at
    its right end: on a break, where the field may jump, the float just
    below it, so that the step integrates the piece on its left at full
    order (a right-continuous field returns that piece there); else
    ``t_next``."""
    return float(np.nextafter(t_next, -np.inf)) if is_break else t_next


class _RecordTimes:
    """The record times k h of the grid that an adaptive method has still to
    yield: every ``record_every``-th node and the last, ``n_steps``."""

    def __init__(self, n_steps, h, record_every):
        self.h = h
        self.nodes = list(range(record_every, n_steps, record_every)) + [n_steps]
        self.i = 0  # nodes[i] is the next record time

    def within(self, t_new):
        """The record steps a step ending at ``t_new`` passes: (inside, k_end),
        the steps whose times lie before ``t_new`` and the one on it, or None."""
        nodes, i, j = self.nodes, self.i, self.i
        while j < len(nodes) and nodes[j] * self.h <= t_new:
            j += 1
        if j > i and nodes[j - 1] * self.h == t_new:
            return nodes[i:j - 1], nodes[j - 1]
        return nodes[i:j], None

    def emit(self, t_new, new, inside, k_end, rows):
        """Yield an accepted step's record ``rows`` at the steps ``inside`` and
        then the step itself, and pass those record times."""
        yield from zip((k * self.h for k in inside), rows, inside)
        yield t_new, new, k_end
        self.i += len(inside) + (k_end is not None)


def _dop853(rhs, y, n_steps, h, record_every, breaks):
    """The accepted steps of Dormand-Prince 8(5,3), with the record rows of
    the fixed grid read from its dense output, as (t, state, k).

    A step is accepted when Hairer's combined fifth- and third-order error
    norm, relative to ``ATOL + RTOL * max(|y|, |y_new|)`` per entry, is at
    most 1; the next step is ``0.9 err^(-1/8)`` times this one, within
    [0.2, 10].  A stage that raises DomainError, or is not finite, rejects
    the step, which is retried at 0.2 of its size.  Steps never shrink below
    ``STEP_FLOOR * h``, and a step of the floor's size is taken whatever its
    error: there the caller's guard stops a runaway state, and a DomainError
    propagates, as on a fixed step.

    Steps land only on the end of the run and on every time in ``breaks``,
    where the field may jump or kink.  A step that ends on a break evaluates
    its two stages at the right end at ``_landing_time``, just below the
    break, and the next step evaluates the field afresh on the break; every
    other step reuses its last stage as the next one's first (first same as
    last).

    Each record time k h of the grid inside an accepted step is yielded
    before the step, as (k h, row, k), its row read from the seventh-order
    continuous extension; a record time on the step's right end takes the
    step's state, and a step without one is yielded with k None.
    """
    grid = _RecordTimes(n_steps, h, record_every)
    K = np.empty((16, y.size))
    t, dt = 0.0, h
    for t_next, is_break in _landings(n_steps * h, breaks):
        K[0] = rhs(t, y)
        t_land = _landing_time(t_next, is_break)
        while t < t_next:
            t, y, dt, _ = yield from _dop853_accept(rhs, t, y, K, dt, t_next, t_land, grid)
            if t < t_next:
                K[0] = K[12]


def _dop853_accept(rhs, t, y, K, dt, t_next, t_land, grid, extra=()):
    """Dormand-Prince 8(5,3) steps from (t, y), K[0] holding the field there,
    first tried at dt and cut short to land on ``t_next``, whose right end
    evaluates the field at ``t_land`` (``_landing_time``), until one is
    accepted; yields its record rows and itself through ``grid``.  Returns
    (t_new, new, dt_next, states): its end, the next step's trial size, and
    its dense output at the fractions ``extra`` of it."""
    floor = STEP_FLOOR * grid.h
    while True:
        lands = t + dt >= t_next
        step = t_next - t if lands else dt
        t_new = t_next if lands else t + dt
        t_right = t_land if lands else t_new
        inside, k_end = grid.within(t_new)
        try:
            new, err = _dop853_step(rhs, t, y, K, step, t_right)
            if err <= 1.0 or step <= floor:
                K[12] = rhs(t_right, new)
                rows = _dense_rows(rhs, t, y, new, K, step,
                                   [(k * grid.h - t) / step for k in inside] + list(extra))
        except DomainError:
            if step <= floor:
                raise
            err = np.inf
        if not err <= 1.0 and step > floor:
            dt = max(floor, step * _step_factor(err))
            continue
        yield from grid.emit(t_new, new, inside, k_end, rows[:len(inside)])
        # a step cut short to land keeps the size it was proposed at
        return (t_new, new, max(floor, step * _step_factor(err), dt if lands else 0.0),
                rows[len(inside):])


def _dop853_step(rhs, t, y, K, dt, t_right):
    """One Dormand-Prince 8(5,3) step of size dt from (t, y), K[0] holding
    the field at (t, y), whose last stage evaluates the field at ``t_right``:
    fills K[1:12] and returns the new state and Hairer's error norm."""
    dtA = dt * _A[:13, :12]
    for i in range(1, 12):
        stage = y + dtA[i, :i] @ K[:i]
        # the last stage sits at the right end, t_right exactly
        K[i] = rhs(t_right if i == 11 else t + _C[i] * dt, stage)
    new = y + dtA[12] @ K[:12]
    e5, e3 = (_E @ K[:12]) / (ATOL + RTOL * np.maximum(np.abs(y), np.abs(new)))
    n5, n3 = float(e5.dot(e5)), float(e3.dot(e3))
    if n5 == 0.0 and n3 == 0.0:
        return new, 0.0
    return new, dt * n5 / np.sqrt((n5 + 0.01 * n3) * y.size)


def _dense_rows(rhs, t, y, new, K, dt, xs):
    """The states at the fractions ``xs`` of an accepted step of size dt from
    (t, y) to ``new``, K[:13] holding its stages: the three extra stages fill
    K[13:], and the rows come from one product of the interpolant's basis at
    ``xs`` with its seven coefficients."""
    if not xs:
        return ()
    for i in range(13, 16):
        K[i] = rhs(t + _C[i] * dt, y + (dt * _A[i, :i]) @ K[:i])
    delta = new - y
    F = np.empty((7, y.size))
    F[0] = delta
    F[1] = dt * K[0] - delta
    F[2] = 2.0 * delta - dt * (K[12] + K[0])
    F[3:] = dt * (_D @ K)
    x = np.array(xs)[:, None]
    return y + (x ** _X_POW * (1.0 - x) ** _ONE_MINUS_X_POW) @ F


def _bdf(rhs, y, n_steps, h, record_every, breaks):
    """The accepted steps of the variable-order (1-5) NDF, the BDF of Shampine
    & Reichelt with quasi-constant steps, and of the dop853 steps that start
    it, with the record rows of the fixed grid, as (t, state, k).

    Each segment of the run, from t = 0 or from a break to the next landing,
    starts with dop853 steps (``_dop853_accept``, first tried at h).  The
    dense output of such a step at the fifths of it seeds the order-5
    backward differences of an NDF run (``_ndf_segment``), which goes on
    from the step's end at a fifth of its size: an order-1 start under RTOL
    would need steps far below the floor.  The run hands the segment back to
    dop853 when its step falls below ``_NDF_HANDBACK`` times the seeded one,
    and dop853 then takes 2, 4, 8, ... steps before it seeds the next run.
    The Jacobian is taken once, at the first seed, and kept across runs and
    segments until Newton fails with it.  Steps land on the end of the run
    and on every time in ``breaks``, and each record time k h inside an
    accepted step is yielded before the step.
    """
    grid = _RecordTimes(n_steps, h, record_every)
    K = np.empty((16, y.size))
    t, J = 0.0, None
    for t_next, is_break in _landings(n_steps * h, breaks):
        K[0] = rhs(t, y)
        t_land = _landing_time(t_next, is_break)
        dt, wait, waited = h, 1, 0
        while t < t_next:
            t0, y0 = t, y
            waited += 1
            fifths = (0.8, 0.6, 0.4, 0.2) if waited >= wait else ()
            t, y, dt, seed = yield from _dop853_accept(rhs, t, y, K, dt, t_next, t_land, grid,
                                                       fifths)
            if t < t_next and fifths:
                if J is None:
                    J = _jacobian(rhs, t, y, K[12])
                t, y, J, done = yield from _ndf_segment(rhs, t, y, np.array([y, *seed, y0]),
                                                        (t - t0) / _NDF_ORDER, t_next, t_land,
                                                        grid, J)
                if not done:
                    wait, waited = 2 * wait, 0
                    K[12] = rhs(t, y)
            K[0] = K[12]


def _ndf_segment(rhs, t, y, values, H, t_next, t_land, grid, J):
    """NDF steps from (t, y) to ``t_next``, on the Jacobian J; ``values``
    holds y and the states at t - H, t - 2H, ... before it, as many as the
    starting order.  Yields each accepted step and its record rows through
    ``grid``, and returns (t, state, J, finished) after the last, finished
    False when the step fell below ``_NDF_HANDBACK`` H before ``t_next``.

    Each step solves its corrector by Newton's method on J, which is taken
    afresh by forward differences of ``rhs`` only when Newton fails to
    converge with it; the inverse of the iteration matrix is kept while the
    step and the order do not change, and so is the last measured rate of
    the iteration, which lets a step converge on one evaluation.  A step is
    accepted when its error estimate, relative to ``ATOL + RTOL * |y_pred|``
    per entry (root mean square), is at most 1.  After order + 1 steps of one
    size the order moves by at most one and the step by ``0.9 err^(-1/(order
    + 1))`` within [0.2, 10], as in scipy's BDF, except that a step that
    would grow by less than ``_NDF_KEEP`` keeps its size and its inverse.  A
    Newton failure after the refresh halves the step; a stage that raises
    DomainError, or is not finite, rejects it as dop853's do, and so does the
    floor: a step of ``STEP_FLOOR * h`` is taken whatever its error, and a
    DomainError there propagates.  The corrector of the step that lands on
    ``t_next`` evaluates ``rhs`` at ``t_land`` (``_landing_time``), just
    below a break.  A record row is read from the polynomial through the
    step's end and the order's equally spaced points before it.
    """
    floor = STEP_FLOOR * grid.h
    order = len(values) - 1
    D = np.zeros((_NDF_ORDER + 3, y.size))
    D[:order + 1] = values
    for j in range(1, order + 1):  # values to backward differences
        D[j:order + 1] = D[j - 1:order] - D[j:order + 1]
    handback = _NDF_HANDBACK * H
    inverse_c, rate, n_equal = None, None, 0
    while t < t_next:
        refreshed = False
        while True:
            lands = t + H >= t_next
            if lands and t_next - t != H:
                H = _rescale(D, order, H, t_next - t)
            t_new = t_next if lands else t + H
            t_right = t_land if lands else t_new
            c = H / _NDF_ALPHA[order]
            if c != inverse_c:
                inverse, inverse_c, rate = np.linalg.inv(np.eye(y.size) - c * J), c, None
            pred, psi = _NDF_PREDICT[order] @ D[:order + 1]
            scale = ATOL + RTOL * np.abs(pred)
            try:
                converged, iters, new, d, norm, rate = _ndf_newton(
                    rhs, t_right, pred, c, psi, inverse, scale, rate)
                if not converged and not refreshed:
                    J = _jacobian(rhs, t_right, pred, rhs(t_right, pred))
                    inverse_c, refreshed = None, True
                    continue
            except DomainError:
                if H <= floor:
                    raise
                factor = 0.2
            else:
                err = _NDF_ERROR[order] * norm
                safety = 0.9 * (2 * _NEWTON_ITERS + 1) / (2 * _NEWTON_ITERS + iters)
                if (converged and err <= 1.0) or H <= floor:
                    break
                factor = max(0.2, safety * err ** (-1.0 / (order + 1))) if converged else 0.5
            n_equal = 0
            H = _rescale(D, order, H, max(floor, H * factor))
            if H < handback:
                return t, y, J, False
        n_equal += 1
        D[order + 2] = d
        D[:order + 3] = _NDF_UPDATE[order] @ D[:order + 3]
        inside, k_end = grid.within(t_new)
        yield from grid.emit(t_new, new, inside, k_end,
                             _ndf_rows(D, order, t_new, H, [k * grid.h for k in inside])
                             if inside else ())
        t, y = t_new, new
        if lands or n_equal < order + 1:
            continue
        # the error estimates at one order less and one more, from the differences
        factors = np.array([
            _NDF_ERROR[order - 1] * _rms(D[order] / scale) if order > 1 else np.inf, err,
            _NDF_ERROR[order + 1] * _rms(D[order + 2] / scale)
            if order < _NDF_ORDER else np.inf]) ** (-1.0 / np.arange(order, order + 3))
        change = int(np.argmax(factors)) - 1
        factor = min(10.0, safety * factors.max())
        n_equal = 0
        if change == 0 and 1.0 <= factor < _NDF_KEEP:
            continue
        order += change
        H = _rescale(D, order, H, max(floor, H * factor))
        if H < handback:
            return t, y, J, False
    return t, y, J, True


def _ndf_newton(rhs, t_right, pred, c, psi, inverse, scale, rate):
    """Newton's method on the NDF corrector of a step whose right end
    evaluates the field at ``t_right``, from the predicted state: at most
    ``_NEWTON_ITERS`` iterations, stopped once the iteration's rate shows it
    will not converge in time.  ``rate``, the last rate measured with this
    inverse or None, lets the first iteration count as converged.  Returns
    (converged, iterations, state, d, |d|, rate): d the state's distance
    from the prediction and |d| its root mean square relative to ``scale``,
    inf after a failure, as rate is None."""
    y, d, norm_old = pred, None, None
    for it in range(1, _NEWTON_ITERS + 1):
        dy = inverse @ (c * rhs(t_right, y) - (psi if d is None else psi + d))
        norm = _rms(dy / scale)
        if not norm < np.inf:  # a field that is not finite: so is the state
            return False, it, y + dy, dy, np.inf, None
        if norm_old is not None:
            rate = norm / norm_old
            if rate >= 1.0 or rate ** (_NEWTON_ITERS - it + 1) / (1.0 - rate) * norm > _NEWTON_TOL:
                return False, it, y, d, np.inf, None
        y, d = y + dy, dy if d is None else d + dy
        if norm == 0.0 or rate is not None and rate / (1.0 - rate) * norm < _NEWTON_TOL:
            return True, it, y, d, norm if it == 1 else _rms(d / scale), rate
        norm_old = norm
    return False, _NEWTON_ITERS, y, d, np.inf, None


def _jacobian(rhs, t, y, f):
    """The Jacobian of ``rhs`` at (t, y), f its value there, by forward
    differences of steps ``_JAC_STEP * max(|y_j|, 1)``."""
    J = np.empty((y.size, y.size))
    for j, step in enumerate(_JAC_STEP * np.maximum(np.abs(y), 1.0)):
        shifted = y.copy()
        shifted[j] += step
        J[:, j] = (rhs(t, shifted) - f) / (shifted[j] - y[j])
    return J


def _rescale(D, order, H, H_new):
    """Re-express the backward differences D[:order + 1] of the interpolating
    polynomial at the step ``H_new`` instead of H (scipy's ``change_D``), and
    return ``H_new``."""
    D[:order + 1] = (_ndf_change(order, H_new / H) @ _ndf_change(order, 1.0)).T @ D[:order + 1]
    return H_new


def _ndf_change(order, factor):
    """The matrix R of Shampine & Reichelt that takes differences at one step
    to differences at ``factor`` times it."""
    i = np.arange(1, order + 1)[:, None]
    M = np.zeros((order + 1, order + 1))
    M[1:, 1:] = (i - 1 - factor * np.arange(1, order + 1)) / i
    M[0] = 1.0
    return np.cumprod(M, axis=0)


def _ndf_rows(D, order, t_new, H, times):
    """The states at ``times`` on the polynomial through the step's end and
    the ``order`` equally spaced points before it, D[:order + 1] its
    backward differences."""
    x = (np.array(times)[:, None] - (t_new - H * np.arange(order))) / (H * np.arange(1, order + 1))
    return D[0] + np.cumprod(x, axis=1) @ D[1:order + 1]


def _rms(v):
    """The root mean square of the entries of v."""
    return float(np.sqrt(v.dot(v) / v.size))


def _step_factor(err):
    """The next step over this one, ``0.9 err^(-1/8)`` within [0.2, 10], for
    the error norm ``err``; 0.2 when ``err`` is not finite."""
    if err == 0.0:
        return 10.0
    if not err < np.inf:
        return 0.2
    return min(10.0, max(0.2, 0.9 * err ** -0.125))


_ADAPTIVE = {"dop853": _dop853, "bdf": _bdf}


def _stack(name, values, steps, shape):
    """The values of one hook name over a block, as a float64 array with one
    row per snapshot; ValueError naming the first step whose value does not
    have ``shape``, the name's shape at the first snapshot."""
    try:
        stacked = np.array(values, dtype=float)
        if stacked.shape[1:] == shape:
            return stacked
    except ValueError:  # values of different shapes do not stack
        pass
    for k, value in zip(steps, values):
        if np.shape(value) != shape:
            raise ValueError(f"record at step {k} returned {name!r} of shape "
                             f"{np.shape(value)}, expected {shape}")
    return np.array(values, dtype=float)  # every shape fits: raise the conversion's error


def _breaks(schedule):
    """Where a schedule's strength jumps or kinks: its turn-off time, for
    every kind but constant."""
    return () if schedule.kind == "constant" else (schedule.turnoff_time,)


def _param_flow(p, loss, schedule: Schedule, n_steps, h, record_every, method, finish=None,
                off_after=np.inf, threshold=None):
    """The parameter flow of ``p`` on ``loss``: the one place its field is built.

    The strength is the schedule's before ``off_after`` and zero from it on.
    The field computes only the field; the hook reads the events on every
    state the run takes.  Each snapshot records "params", "x" = g(w),
    "train_loss" and, for a parameterization with a unit region,
    "unit_region" (1.0 inside).  The hook checks the unit region first, so a
    state on which g raises DomainError is still seen to leave it; when a
    ``threshold`` is given it watches the loss; and it keeps the loss
    gradient of each state it evaluates for the next step's first stage,
    when the engine hands that stage the same state (every Euler step does).
    ``finish(block)``, if given, turns a stacked block into the columns to
    keep; "a" = a(min(t, off_after)) is derived after the run from the "t"
    column.  Returns ``_integrate``'s (w, status, records) and the events
    {"threshold_time": the first t whose loss is at most ``threshold``, or
    None; "left_unit_region": whether any state the run takes left it}.
    """
    inside = getattr(p, "_inside_unit_region", None)
    events = {"threshold_time": None, "left_unit_region": False}
    cached = [None, None]  # [the last evaluated state, the loss gradient at g(state)]

    def rhs(t, w):
        grad = cached[1] if w is cached[0] else loss._grad(p._g(w))
        return p._flow_rhs(w, grad, schedule.alpha(t) if t < off_after else 0.0)

    def record(k, t, w):
        if k is None and threshold is None and inside is None:
            return None
        unit = inside is None or inside(w)
        events["left_unit_region"] |= not unit
        x = p._g(w)
        f_val, grad = loss._value_and_grad(x)
        if threshold is not None and f_val <= threshold and events["threshold_time"] is None:
            events["threshold_time"] = t
        cached[:] = w, grad
        if k is None:
            return None
        row = {"params": w, "x": x}
        if inside is not None:
            row["unit_region"] = 1.0 if unit else 0.0
        row["train_loss"] = f_val
        return row

    w, status, rec = _integrate(rhs, p.w_init, n_steps, h, record_every, record, method,
                                finish, breaks=_breaks(schedule) + (off_after,))
    rec["a"] = schedule.a(np.minimum(rec["t"], off_after))
    return w, status, rec, events


def run_param_flow(p, loss, schedule: Schedule, cfg: IntegratorConfig) -> RunRecord:
    """Integrate the regularized gradient flow in parameter space.

    Records w ("params"), x = g(w), the accumulated strength a and the
    loss, and for a parameterization with a unit region whether w lies
    inside it.  Raises DivergedError (with the partial record attached) if
    the state leaves the finite range, DomainExitError if a variant's domain
    is left.
    """
    # the one shape check: a loss that does not fit p raises InputError here
    p.flow_rhs(p.w_init, loss.grad(p.g(p.w_init)), 0.0)
    _, status, rec, _ = _param_flow(p, loss, schedule, *cfg.grid(), cfg.record_every, cfg.method)
    return _flow_result(schedule, cfg, rec, status, "parameter flow",
                        "parameter flow left its domain", final_params=rec["params"][-1])


def run_mirror_flow(family, loss, schedule: Schedule, cfg: IntegratorConfig) -> RunRecord:
    """Integrate the dual flow dmu = -grad_f(Q_{a_t}(mu)) dt from mu_0 = 0.

    Records mu, x = Q_{a_t}(mu), the accumulated strength a and the loss;
    raises as ``run_param_flow`` does.
    """
    mu0 = np.zeros(family.n)
    # the one shape check: a loss that does not fit the family raises
    # InputError here, and its gradient must have one entry per dual coordinate
    flat_vector(loss.grad(family.dual_map(schedule.a(0.0), mu0)), family.n, "loss gradient")

    def rhs(t, mu):
        return -loss._grad(family._dual_map(schedule.a(t), mu))

    def record(k, t, mu):
        if k is None:
            return None
        x = family._dual_map(schedule.a(t), mu)
        return {"mu": mu, "x": x, "train_loss": loss._value_and_grad(x)[0]}

    _, status, rec = _integrate(rhs, mu0, *cfg.grid(), cfg.record_every, record, cfg.method,
                                breaks=_breaks(schedule))
    rec["a"] = schedule.a(rec["t"])
    return _flow_result(schedule, cfg, rec, status, "mirror flow", "dual iterate left the domain")


def _flow_result(schedule, cfg, tables, status, what, domain_exit, **fields):
    """A flow's record, of its schedule and integrator config, with its final
    loss as the summary and its last snapshot's x, when the run finished.  An
    early exit raises the error that carries the record instead:
    DivergedError "WHAT diverged near t=...", or DomainExitError "DOMAIN_EXIT
    near t=...: cause", t the time of the last state accepted."""
    record = RunRecord.from_tables({"schedule": asdict(schedule), "integrator": asdict(cfg)},
                                   tables, {"final_train_loss": float(tables["train_loss"][-1])},
                                   status, final_x=tables["x"][-1], **fields)
    if status is None:
        return record
    kind, t_bad, exc = status
    if kind == "diverged":
        raise DivergedError(f"{what} diverged near t={t_bad:.6g}", t_bad, record)
    raise DomainExitError(f"{domain_exit} near t={t_bad:.6g}: {exc}", t_bad, record)


@dataclass
class EquivalenceReport:
    pair: str
    max_deviation: float
    tol: float
    passed: bool
    n_points: int


def verify_equivalence(p, loss, schedule: Schedule, cfg: IntegratorConfig,
                       tol=1e-4) -> EquivalenceReport:
    """Run the parameter flow of ``p`` and the mirror flow of its matched family,
    ``legendre.family_for(p)``, and compare the model iterates.

    A parameterization without a family, a product of depth three or more
    among them, raises ``family_for``'s InputError.  The diff-powers and
    log-cosh families match their flows only while no strength accumulates.
    """
    family = family_for(p)
    x_p = run_param_flow(p, loss, schedule, cfg).metrics["x"]
    x_m = run_mirror_flow(family, loss, schedule, cfg).metrics["x"]
    dev = float(np.max(np.abs(x_p - x_m)))
    return EquivalenceReport(
        pair=f"{p.tag}/{family.tag}",
        max_deviation=dev,
        tol=tol,
        passed=dev <= tol,
        n_points=len(x_p),
    )

