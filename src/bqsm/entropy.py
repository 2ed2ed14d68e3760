"""Classical probability and entropy machinery.

Covers the Renyi family with conditional and average-conditional variants,
smooth min/max entropy with explicit smoothing events, min-entropy splitting,
and the concentration utilities (Hamming balls, Azuma tails, Fano).

All logarithms are base 2. ``-log 0`` is represented by ``math.inf``.
Sub-normalized distributions are first-class citizens: every entropy here is
well defined for total mass below one, which is exactly what smoothing
produces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PromiseViolation, check_cap

MASS_TOL = 1e-12


def _log2(x) -> float:
    if x <= 0:
        return -math.inf
    return math.log2(x)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def _alphabet(outcomes):
    """An alphabet as stored: a `range` (packed ints) as is, else a tuple."""
    return outcomes if isinstance(outcomes, range) else tuple(outcomes)


class Distribution:
    """Finite, possibly sub-normalized probability vector over an explicit
    alphabet of hashable outcome labels; bit-string outcomes are packed
    ints, usually the alphabet `range(1 << n)`."""

    def __init__(self, outcomes, mass, normalized: bool = True):
        self.outcomes = _alphabet(outcomes)
        m = np.array(mass, dtype=float)
        if m.ndim != 1 or len(m) != len(self.outcomes):
            raise InputError("mass vector does not match alphabet")
        if not isinstance(self.outcomes, range) \
                and len(self.outcomes) != len(set(self.outcomes)):
            raise InputError("duplicate outcome labels")
        if (m < 0).any():
            raise InputError("negative probability mass")
        total = m.sum()
        if normalized and abs(total - 1) > MASS_TOL:
            raise InputError(f"normalized distribution with total mass {total}")
        if not normalized and total > 1 + MASS_TOL:
            raise InputError(f"total mass {total} exceeds 1")
        self.mass = m
        self.normalized = bool(normalized)
        self._index = None

    def p(self, outcome):
        if self._index is None:
            self._index = {o: i for i, o in enumerate(self.outcomes)}
        return self.mass[self._index[outcome]]

    def support_size(self) -> int:
        return int((self.mass > 0).sum())

    @staticmethod
    def uniform(outcomes) -> "Distribution":
        k = len(outcomes)
        return Distribution(outcomes, np.full(k, 1.0 / k))

    @staticmethod
    def point(outcomes, where) -> "Distribution":
        m = np.zeros(len(outcomes))
        m[list(outcomes).index(where)] = 1.0
        return Distribution(outcomes, m)


class JointDistribution:
    """Dense joint distribution over a product alphabet.

    Axis 0 is the primary variable (X) in all conditional-entropy
    operations; the last axis is the conditioning variable (Y) unless noted.
    """

    def __init__(self, axes, mass, normalized: bool = True):
        self.axes = tuple(_alphabet(a) for a in axes)
        m = np.array(mass, dtype=float)
        if m.shape != tuple(len(a) for a in self.axes):
            raise InputError("mass tensor does not match axis alphabets")
        check_cap("joint-entries", "entries", m.size)
        if (m < 0).any():
            raise InputError("negative probability mass")
        total = m.sum()
        if normalized and abs(total - 1) > MASS_TOL:
            raise InputError(f"normalized joint with total mass {total}")
        self.mass = m
        self.normalized = bool(normalized)

    @property
    def k(self) -> int:
        return len(self.axes)

    def marginal(self, axis: int) -> Distribution:
        keep = axis % self.k
        summed = self.mass
        for ax in reversed(range(self.k)):
            if ax != keep:
                summed = summed.sum(axis=ax)
        return Distribution(self.axes[keep], summed, normalized=self.normalized)

    def conditional(self, axis: int, value) -> "JointDistribution":
        """Condition on axis=value; zero marginal is an error, never a
        silent division."""
        ax = axis % self.k
        idx = list(self.axes[ax]).index(value)
        sl = [slice(None)] * self.k
        sl[ax] = idx
        block = self.mass[tuple(sl)]
        w = block.sum()
        if w == 0:
            raise InputError(f"conditioning on zero-probability value {value!r}")
        rest = [self.axes[a] for a in range(self.k) if a != ax]
        return JointDistribution(rest, block / w, normalized=True)

    @staticmethod
    def independent(px: Distribution, py: Distribution) -> "JointDistribution":
        return JointDistribution(
            [px.outcomes, py.outcomes],
            np.outer(np.asarray(px.mass), np.asarray(py.mass)))


@dataclass
class SmoothingEvent:
    """Witness of a smoothing optimization: per-outcome retained mass."""

    outcomes_x: tuple
    outcomes_y: tuple
    retained: np.ndarray  # shape (|X|, |Y|), pointwise <= original
    epsilon: float        # total removed mass


# ---------------------------------------------------------------------------
# Renyi entropy
# ---------------------------------------------------------------------------

def alpha_order_sum(p: Distribution, alpha: float) -> float:
    """Sum of p(x)^alpha, with the max/support conventions at the limits."""
    m = p.mass
    if alpha < 0:
        raise InputError("alpha must be non-negative")
    if math.isinf(alpha):
        return float(m.max())
    if alpha == 0:
        return float((m > 0).sum())
    nz = m[m > 0]
    return float((nz ** alpha).sum())


def renyi_entropy(p: Distribution, alpha: float) -> float:
    """Renyi entropy of order alpha in bits; alpha in [0, inf]."""
    if alpha < 0:
        raise InputError("alpha must be non-negative")
    s = alpha_order_sum(p, alpha)
    if math.isinf(alpha):
        return -_log2(s)
    if alpha == 1:
        nz = p.mass[p.mass > 0]
        return float(-(nz * np.log2(nz)).sum())
    return _log2(s) / (1.0 - alpha)


def shannon_entropy(p) -> float:
    if isinstance(p, Distribution):
        return renyi_entropy(p, 1.0)
    m = np.asarray(p, dtype=float)
    nz = m[m > 0]
    return float(-(nz * np.log2(nz)).sum())


def _cond_slices(p: JointDistribution):
    """Yield (weight P_Y(y), conditional vector P_{X|Y=y}) for y with
    positive marginal. Works on X x Y joints (axis 0 = X)."""
    if p.k != 2:
        raise InputError("expected a two-axis joint over X and Y")
    m = p.mass
    for j in range(m.shape[1]):
        w = m[:, j].sum()
        if w > 0:
            yield w, m[:, j] / w


def conditional_shannon(p: JointDistribution) -> float:
    """H(X|Y) = sum_y P(y) H(X|Y=y)."""
    return float(sum(w * shannon_entropy(cond) for w, cond in _cond_slices(p)))


def conditional_renyi(p: JointDistribution, alpha: float,
                      mode: str = "worst-case") -> float:
    """Conditional Renyi entropy of X given Y.

    mode='worst-case': min over y for alpha > 1 (max over y for the
    max-entropy H_0 and any alpha < 1); alpha=1 gives the standard
    conditional Shannon entropy.

    mode='average': -log of the y-expectation of the per-slice alpha-order
    sum raised to 1/(alpha-1); only defined for 1 < alpha <= inf.
    """
    if mode == "average":
        if not (alpha > 1):
            raise InputError("average conditional entropy needs alpha > 1")
        acc = 0.0
        for w, cond in _cond_slices(p):
            if math.isinf(alpha):
                acc += w * cond.max()
            else:
                nz = cond[cond > 0]
                acc += w * (nz ** alpha).sum() ** (1.0 / (alpha - 1.0))
        return -_log2(acc)
    if mode != "worst-case":
        raise InputError(f"unknown mode {mode!r}")
    if alpha == 1:
        return conditional_shannon(p)
    values = []
    for _, cond in _cond_slices(p):
        d = Distribution(range(len(cond)), cond)
        values.append(renyi_entropy(d, alpha))
    if alpha > 1:
        return min(values)
    return max(values)


# ---------------------------------------------------------------------------
# Smooth min/max entropy
# ---------------------------------------------------------------------------

def smooth_min_entropy(p: JointDistribution, epsilon: float
                       ) -> tuple[float, SmoothingEvent]:
    """Smooth conditional min-entropy of X given Y with an explicit witness.

    The optimum over events retaining mass >= 1-epsilon is achieved by
    water-filling: cut mass off the outcomes with the largest conditional
    values P_{X|Y=y}(x) down to a common ceiling t * P_Y(y), spending exactly
    epsilon. The returned value is -log t. epsilon=0 reduces to the plain
    conditional min-entropy, bit-exactly.
    """
    if epsilon < 0 or epsilon >= 1:
        raise InputError("epsilon must lie in [0, 1)")
    m = p.mass
    if p.k != 2:
        raise InputError("expected a two-axis joint over X and Y")
    py = m.sum(axis=0)
    weights = np.broadcast_to(py, m.shape)
    pos = m > 0
    ratios = np.zeros_like(m)
    ratios[pos] = m[pos] / weights[pos]

    if not pos.any():
        return math.inf, SmoothingEvent(p.axes[0], p.axes[1],
                                        np.zeros_like(m), 0.0)
    if epsilon == 0:
        t = float(ratios.max())
        return -_log2(t), SmoothingEvent(p.axes[0], p.axes[1], m.copy(), 0.0)

    # Water-filling: removed(t) = sum over entries with ratio > t of
    # (mass - t * weight); find the smallest t with removed(t) <= epsilon.
    order = np.argsort(ratios, axis=None)[::-1]
    r_sorted = ratios.flat[order]
    m_sorted = m.flat[order]
    w_sorted = weights.flat[order]
    cum_m = np.cumsum(m_sorted)
    cum_w = np.cumsum(w_sorted)
    t = 0.0
    found = False
    for i in range(len(order)):
        # candidate ceiling inside the segment [r_{i+1}, r_i)
        t_cand = (cum_m[i] - epsilon) / cum_w[i]
        lower = r_sorted[i + 1] if i + 1 < len(order) else 0.0
        if t_cand >= lower - 1e-18 and t_cand <= r_sorted[i]:
            t = max(t_cand, 0.0)
            found = True
            break
    if not found:
        t = 0.0
    retained = np.minimum(m, t * weights)
    removed = float(m.sum() - retained.sum())
    ev = SmoothingEvent(p.axes[0], p.axes[1], retained, removed)
    return -_log2(t), ev


def smooth_max_entropy(p: JointDistribution, epsilon: float
                       ) -> tuple[float, SmoothingEvent]:
    """Smooth conditional max-entropy of X given Y.

    Minimizes the log of the largest per-y support over events retaining
    mass >= 1-epsilon. For a support target s, the cheapest event removes
    the smallest atoms of each y-slice down to s survivors, so scanning s
    upward gives the exact optimum.
    """
    if epsilon < 0 or epsilon >= 1:
        raise InputError("epsilon must lie in [0, 1)")
    m = p.mass
    if p.k != 2:
        raise InputError("expected a two-axis joint over X and Y")
    nx, ny = m.shape
    # per column, atoms sorted ascending; cost_y(s) = mass of all but the
    # s largest atoms
    col_sorted = [np.sort(m[:, j][m[:, j] > 0]) for j in range(ny)]
    supports = [len(c) for c in col_sorted]
    smax = max(supports) if supports else 0
    best_s = smax
    for s in range(smax + 1):
        cost = 0.0
        for c in col_sorted:
            if len(c) > s:
                cost += c[: len(c) - s].sum()
        if cost <= epsilon + 1e-15:
            best_s = s
            break
    retained = m.copy()
    for j in range(ny):
        col = m[:, j]
        extra = int((col > 0).sum()) - best_s
        if extra > 0:
            order = np.argsort(col)
            removed = 0
            for i in order:
                if removed == extra:
                    break
                if col[i] > 0:
                    retained[i, j] = 0.0
                    removed += 1
    ev = SmoothingEvent(p.axes[0], p.axes[1], retained,
                        float(m.sum() - retained.sum()))
    return _log2(best_s) if best_s else -math.inf, ev


def smooth_to_ordinary_event(p: JointDistribution, epsilon: float):
    """Constructive translation of a smoothing event back to an ordinary
    conditional min-entropy statement.

    Returns (r, retained') where the modified event zeroes every y-slice
    retaining less than half its conditional mass; the result satisfies
    Pr(E') >= 1 - 2 epsilon and per-y min-entropy >= r - 1.
    """
    r, ev = smooth_min_entropy(p, epsilon)
    py = p.mass.sum(axis=0)
    retained = ev.retained.copy()
    for j in range(retained.shape[1]):
        if py[j] > 0 and retained[:, j].sum() / py[j] < 0.5:
            retained[:, j] = 0.0
    return r, retained


def chain_rule_slack(p: JointDistribution, eps: float, eps_prime: float
                     ) -> float:
    """Slack of the smooth-entropy chain rule
    H^{e+e'}(X|Y) - (H^e(XY) - H_0(Y) - log(1/e')); strictly positive."""
    if eps < 0 or eps_prime <= 0:
        raise InputError("need eps >= 0 and eps' > 0")
    h_cond, _ = smooth_min_entropy(p, eps + eps_prime)
    joint_flat = flatten_joint(p)
    h_joint, _ = smooth_min_entropy(joint_flat, eps)
    h0_y = _log2(p.marginal(1).support_size())
    return h_cond - (h_joint - h0_y - _log2(1.0 / eps_prime))


def flatten_joint(p: JointDistribution) -> JointDistribution:
    """View a k-axis joint as unconditional: all axes merged into X, with a
    trivial Y. Useful for H^eps(XY)-style quantities."""
    labels = list(itertools.product(*p.axes))
    return JointDistribution([labels, ("*",)],
                             np.asarray(p.mass).reshape(-1, 1),
                             normalized=p.normalized)


# ---------------------------------------------------------------------------
# Min-entropy splitting
# ---------------------------------------------------------------------------

@dataclass
class SplitResult:
    pointer_by_x1: dict        # x1 label -> C in {0,1}
    achieved: float            # H_inf(X_{1-C} C), exact
    bound: float               # alpha / 2


def split_min_entropy(p: JointDistribution, alpha: float) -> SplitResult:
    """Min-entropy splitting: from H_inf(X0 X1) >= alpha construct a binary
    pointer C with H_inf(X_{1-C} C) >= alpha/2.

    C depends on X1 alone: C=1 iff P_{X1}(x1) >= 2^(-alpha/2). Works on
    sub-normalized inputs; the bound holds exactly for the construction.
    """
    if p.k != 2:
        raise InputError("expected a joint over X0 and X1")
    m = p.mass
    h_joint = -_log2(m.max())
    if h_joint < alpha - 1e-9:
        raise PromiseViolation(
            f"joint min-entropy {h_joint:.6f} below alpha={alpha}")
    c_vec, peak = split_pointer(m, alpha)
    return SplitResult(dict(zip(p.axes[1], c_vec.tolist())), -_log2(peak),
                       alpha / 2.0)


def split_pointer(m: np.ndarray, alpha: float) -> tuple:
    """The splitting pointer of a stack of mass arrays m[..., x0, x1]:
    C = 1 iff P_{X1}(x1) >= 2^(-alpha/2), as 0/1 ints of shape (..., x1),
    and the largest mass of the pair (X_{1-C}, C), of shape (...)."""
    p_x1 = m.sum(axis=-2)
    c = p_x1 >= 2.0 ** (-alpha / 2.0)
    # masses of the pair (X_{1-C}, C): when C=0 report X1, when C=1 report X0
    mass_c0 = np.where(c, 0.0, p_x1)                   # indexed by x1
    mass_c1 = (m * c[..., None, :]).sum(axis=-1)       # indexed by x0
    return c.astype(int), np.concatenate([mass_c0, mass_c1], axis=-1
                                         ).max(axis=-1)


# ---------------------------------------------------------------------------
# Scalar tools
# ---------------------------------------------------------------------------

def binary_entropy(p: float) -> float:
    """h(p) = -(p log p + (1-p) log(1-p))."""
    if p < 0 or p > 1:
        raise InputError(f"p={p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return float(-(p * math.log2(p) + (1 - p) * math.log2(1 - p)))


def inverse_binary_entropy(h: float) -> float:
    """Lower branch of h^{-1}: the unique p <= 1/2 with h(p) = h,
    by bisection to 1e-9 (29 halvings of [0, 1/2])."""
    if h < 0 or h > 1:
        raise InputError(f"h={h} outside [0, 1]")
    return bisect(binary_entropy, h, 0.0, 0.5, 29)


def bisect(f, target: float, lo: float, hi: float, steps: int) -> float:
    """Midpoint of [lo, hi] after `steps` halvings toward f(p) = target,
    for f increasing on [lo, hi]."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hamming_ball_size(n: int, radius: int) -> tuple[int, float]:
    """Exact size of a Hamming ball of the given radius in {0,1}^n, plus the
    log2 of the entropy upper bound 2^{n h(radius/n)}.

    The entropy bound only holds for radius/n <= 1/2; beyond that the
    trivial bound 2^n is returned so that exact <= bound always.
    """
    if radius < 0 or radius > n:
        raise InputError("radius outside [0, n]")
    exact = sum(math.comb(n, k) for k in range(radius + 1))
    delta = radius / n if n else 0.0
    log_bound = n * binary_entropy(delta) if delta <= 0.5 else float(n)
    return exact, log_bound


def azuma_tail(c: float, n: int, lam: float) -> float:
    """Tail bound exp(-lam^2 n / (2 c^2)) for a martingale difference
    sequence with per-step bound c."""
    if c <= 0 or lam <= 0:
        raise InputError("need c > 0 and lam > 0")
    return math.exp(-(lam ** 2) * n / (2.0 * c ** 2))


def tail_estimate(hits: int, trials: int, bound: float
                  ) -> tuple[float, float, bool]:
    """Monte-Carlo estimate hits/trials of a tail probability, its
    standard error (floored at one hit in `trials`), and whether the
    estimate lies within three standard errors above `bound`."""
    est = hits / trials
    stderr = math.sqrt(max(est * (1 - est), 1.0 / trials) / trials)
    return est, stderr, est <= bound + 3 * stderr


def azuma_empirical(step, c: float, n: int, lam: float, trials: int,
                    seed: int) -> dict:
    """Estimate Pr[sum R_i >= lam n] for a seeded martingale-difference
    sampler `step(rng, i, history) -> R_i` and compare to the Azuma bound."""
    bound = azuma_tail(c, n, lam)
    hits = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        total = 0.0
        hist = []
        for i in range(n):
            r = step(rng, i, hist)
            if abs(r) > c + 1e-12:
                raise PromiseViolation(f"|R_{i}|={r} exceeds c={c}")
            hist.append(r)
            total += r
        if total >= lam * n:
            hits += 1
    est, stderr, _ = tail_estimate(hits, trials, bound)
    return {"estimate": est, "bound": bound, "stderr": stderr,
            "trials": trials}


def fano_bound(p_joint: JointDistribution, guess) -> tuple[float, float]:
    """Both sides of Fano's inequality H(X|Y) <= h(p_e) + p_e log(|X|-1)
    for a guessing map Y -> X (dict or callable)."""
    if p_joint.k != 2:
        raise InputError("expected a joint over X and Y")
    g = guess if callable(guess) else guess.__getitem__
    m = p_joint.mass
    xs, ys = p_joint.axes
    p_err = 0.0
    for j, y in enumerate(ys):
        xhat = g(y)
        for i, x in enumerate(xs):
            if x != xhat:
                p_err += m[i, j]
    h_cond = conditional_shannon(p_joint)
    size = len(xs)
    bound = binary_entropy(min(p_err, 1.0))
    if size > 1:
        bound += p_err * math.log2(size - 1)
    return h_cond, bound
