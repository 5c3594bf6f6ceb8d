"""Monte Carlo verification oracle for exit and ruin probabilities.

Paths of the parent process are simulated as drift + Gaussian part +
compensated small jumps (folded into the Gaussian by moment matching)
minus a compound Poisson process of jumps above the cutoff.  Barrier
crossings of the continuous part between grid points get the
Brownian-bridge correction; purely jump-driven (zero-variance) models are
simulated event-by-event, which is exact.

The grid engine advances all live paths a block of b grid steps per pass,
with b = min(steps left, 64, max(1, 2^15 // live paths)), so a block holds at
most about 2^15 path-steps and narrows to one step while many paths are live.
A block draws one (b, live) array of Gaussian increments, puts the jumps in
and sums its rows one after another into the positions after each step.
Each path carries a jump clock, the time of its next jump above the cutoff.
A path whose clock falls in a block jumps at its clock and Poisson(rate
(block end - clock)) times more at uniform times after it, which is the
Poisson process on that span, and its clock moves on to the block end plus
an Exp(rate) wait; a jump lands at the end of the step it falls in, so the
number of jumps per step is Poisson(rate dt) and independent across steps.
Jump sizes are drawn in bulk into a pool and taken in order.  Every step of
the block gets the edge and bridge test of its continuous part, and a step
with jumps the ruin test on its end; a path's first exit counts, at the end
time of its step, and what it drew after that is discarded (an upward exit
beats ruin by a jump in the same step).  The bridge probability is only
evaluated for steps within reach of a barrier; for the others it is below
e^-40 (see ``_BRIDGE_CUT``).  With ``q > 0`` an upward exit at time t has
weight e^{-q t}; the grid engine takes t as the end of the exit step.

One jump model at the cutoff eps per call reads the jump law from
``LevyTriple.jump_components``, which a triple with jumps must carry.  The
engines drive with -a + int_{eps<u<=1} u Pi(du), finite for every Levy measure;
``simulate_ruin`` also needs E X_1 = -a - int_{u>1} u Pi(du), -inf without a first moment:

* ("tempered_power", c, a, gamma)  -- density c u^{-a-1} e^{-gamma u};
  sampled by inverse-power proposals with exponential-tempering thinning.
* ("exponential", rate, mu)        -- rate * mu e^{-mu u}.
* ("fixed", rate, size)            -- point mass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

from .errors import NotApplicableError, NumericalError, ParameterError
from .levy import LevyTriple
from .special import upper_gamma

__all__ = ["SimConfig", "ExitEstimate", "simulate_exit", "simulate_ruin"]


# jump sizes per bulk draw of the grid engine's pool (128 kB of float64)
_POOL_SIZE = 1 << 14
# The bridge crossing probability of a step from distance d1 to d2 off a
# barrier is p = exp(-2 d1 d2 / var_dt).  Beyond 2 d1 d2 / var_dt = 40,
# p < e^-40 < 2^-53, and a uniform draw from rng.random() (a multiple of
# 2^-53) falls below p only when it is exactly 0; skipping those paths
# changes a decision with probability at most 2^-53 per path-step.
_BRIDGE_CUT = 40.0
# grid steps per block: min(steps left, _BLOCK_STEPS, max(1, _BLOCK_CELLS // live
# paths)), so a block holds at most about _BLOCK_CELLS path-steps (256 kB of float64)
_BLOCK_CELLS = 1 << 15
_BLOCK_STEPS = 64


@dataclass(frozen=True)
class SimConfig:
    n_paths: int = 100_000
    dt: float = 1e-3
    small_jump_cutoff: float = 0.01
    horizon: float = 500.0
    seed: int = 20_240_901

    def __post_init__(self):
        if not (self.n_paths > 0 and all(0.0 < v < math.inf for v in
                                         (self.dt, self.small_jump_cutoff, self.horizon))):
            raise ParameterError("simulation parameters must be positive and finite")


@dataclass(frozen=True)
class ExitEstimate:
    p_hat: float
    stderr: float
    n_censored: int


# ---------------------------------------------------------------------------
# jump component statistics and samplers
# ---------------------------------------------------------------------------

class _ComponentSampler:
    """Sampler for one jump component restricted to sizes > eps, with its first moments
    ``moment_to_1`` = int_{eps<u<=1} u Pi(du) (-int_{1<u<=eps} when eps > 1) and
    ``moment_past_1`` = int_{u>1} u Pi(du) (inf without a first moment).

    ``pieces`` lists the component's law as (mass, draw) pieces: the power part
    on (eps, u0] and the exponential tail beyond u0 of a tempered component, or
    the whole law.  draw(rng, n) gives n iid sizes of the piece; for a point
    mass, draw is its size.
    """

    def __init__(self, comp: tuple, eps: float):
        kind = comp[0]
        self.eps = eps
        if kind == "tempered_power":
            _, c, a, gamma = comp
            self.a, self.gamma = a, gamma
            if gamma > 0:
                self.rate = c * gamma ** a * upper_gamma(-a, gamma * eps)
                # int_{u>t} u Pi(du) = c gamma^{a-1} Gamma(1-a, gamma t)
                tail_eps, tail_1 = (c * gamma ** (a - 1.0) * upper_gamma(1.0 - a, gamma * t)
                                    for t in (eps, 1.0))
                self.moment_to_1, self.moment_past_1 = tail_eps - tail_1, tail_1
                # sigma_eps^2 = c gamma^{a-2} * lower_gamma(2-a, gamma*eps)
                self.small_var = c * gamma ** (a - 2.0) \
                    * sps.gammainc(2.0 - a, gamma * eps) * math.gamma(2.0 - a)
                u0 = self.u0 = max(2.0 * eps, 1.0 / gamma)
                self.mass_tail = c * gamma ** a * upper_gamma(-a, gamma * u0)
                mass_mid = self.rate - self.mass_tail
                # acceptance rates: each piece's mass over its proposal's mass
                span = (eps ** (-a) - u0 ** (-a)) / a if abs(a) > 1e-12 else math.log(u0 / eps)
                self.accept_mid = mass_mid / (c * math.exp(-gamma * eps) * span)
                self.accept_tail = self.mass_tail * gamma / (c * u0 ** (-a - 1.0)
                                                             * math.exp(-gamma * u0))
                self.pieces = [(mass_mid, self._sample_mid), (self.mass_tail, self._sample_tail)]
            else:
                if a <= 0:
                    raise ParameterError("untempered component needs a > 0")
                self.rate = c * eps ** (-a) / a
                # int_eps^1 c u^{-a} du = c (1 - eps^{1-a}) / (1-a), and -c log(eps) at a = 1
                self.moment_to_1 = -c * (math.expm1((1.0 - a) * math.log(eps)) / (1.0 - a)
                                         if a != 1.0 else math.log(eps))
                self.moment_past_1 = c / (a - 1.0) if a > 1.0 else math.inf
                self.small_var = c * eps ** (2.0 - a) / (2.0 - a)
                self.u0 = math.inf
                self.accept_mid = 1.0
                self.pieces = [(self.rate, self._sample_mid)]
        elif kind == "exponential":
            _, rate, mu = comp
            self.rate = rate * math.exp(-mu * eps)
            self.pieces = [(self.rate, lambda rng, n: eps + rng.exponential(1.0 / mu, size=n))]
            # int_{u>t} u Pi(du) = rate e^{-mu t} (t + 1/mu)
            tail_eps, tail_1 = (rate * math.exp(-mu * t) * (t + 1.0 / mu) for t in (eps, 1.0))
            self.moment_to_1, self.moment_past_1 = tail_eps - tail_1, tail_1
            # small part: rate * int_0^eps u^2 mu e^{-mu u} du
            self.small_var = rate * sps.gammainc(3.0, mu * eps) * 2.0 / mu ** 2
        elif kind == "fixed":
            _, rate, size = comp
            self.rate, self.small_var = (rate, 0.0) if size > eps else (0.0, rate * size ** 2)
            self.pieces = [(self.rate, size)]
            # a point mass in (eps, 1] adds to moment_to_1, one in (1, eps] subtracts
            sign = (eps < size <= 1.0) - (1.0 < size <= eps)
            self.moment_to_1 = sign * rate * size
            self.moment_past_1 = rate * size if size > 1.0 else 0.0
        else:
            raise ParameterError(f"unknown jump component kind '{kind}'")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _mixture(self.pieces, rng, n)

    def _sample_mid(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Power proposal on (eps, u0], thinned by the tempering factor."""
        a, gamma, eps, u0 = self.a, self.gamma, self.eps, self.u0
        if abs(a) > 1e-12:      # u0 = inf only when gamma = 0 < a, and inf^(-a) = 0
            lo, span = eps ** (-a), u0 ** (-a) - eps ** (-a)
        else:
            log_span = math.log(u0 / eps)

        def draw(batch: int) -> np.ndarray:
            v = rng.random(batch)
            if abs(a) > 1e-12:
                v *= span
                v += lo
                u = v ** (-1.0 / a)
            else:
                v *= log_span
                u = eps * np.exp(v)
            return u[rng.random(batch) <= np.exp(-gamma * (u - eps))] if gamma > 0 else u

        return _accept_reject(draw, n, self.accept_mid)

    def _sample_tail(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Shifted-exponential proposal beyond u0, thinned by the power factor."""
        a, gamma, u0 = self.a, self.gamma, self.u0

        def draw(batch: int) -> np.ndarray:
            u = u0 + rng.exponential(1.0 / gamma, size=batch)
            return u[rng.random(batch) <= (u / u0) ** (-a - 1.0)]

        return _accept_reject(draw, n, self.accept_tail)


def _mixture(pieces: list, rng: np.random.Generator, n: int) -> np.ndarray:
    """n iid sizes of a mixture of (mass, draw) pieces: one uniform per size picks
    its piece by mass, and each piece then draws its own sizes (retrying *within*
    the piece: pieces have different acceptance rates, so a shared retry pool
    would distort the mixture weights)."""
    if len(pieces) == 1:
        draw = pieces[0][1]
        return draw(rng, n) if callable(draw) else np.full(n, draw)
    cum = np.cumsum([mass for mass, _ in pieces])
    which = np.searchsorted(cum[:-1], rng.random(n) * cum[-1], side="right")
    out = np.empty(n)
    for i, (_, draw) in enumerate(pieces):
        chosen = which == i
        out[chosen] = draw(rng, int(np.count_nonzero(chosen))) if callable(draw) else draw
    return out


def _accept_reject(draw, n: int, accept: float) -> np.ndarray:
    """n accepted sizes; draw(batch) makes batch proposals and returns those it
    accepts, a share ``accept`` of them on average."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        u = draw(max(64, int(1.05 * (n - filled) / accept)))
        take = min(n - filled, u.size)
        out[filled:filled + take] = u[:take]
        filled += take
    return out


class _JumpModel:
    def __init__(self, triple: LevyTriple, eps: float):
        if not triple.jump_components and triple.pi_tail(eps) > 0:
            raise ParameterError("the triple has jumps above the cutoff but no jump_components")
        self.samplers = [_ComponentSampler(c, eps) for c in triple.jump_components]
        self.rate = sum(s.rate for s in self.samplers)
        self.moment_to_1 = sum(s.moment_to_1 for s in self.samplers)
        self.moment_past_1 = sum(s.moment_past_1 for s in self.samplers)
        self.small_var = sum(s.small_var for s in self.samplers)
        self.pieces = [piece for s in self.samplers for piece in s.pieces]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0 or not self.pieces:
            return np.empty(0)
        return _mixture(self.pieces, rng, n)


class _SizePool:
    """Jump sizes drawn _POOL_SIZE at a time and handed out in draw order.

    The sizes are iid, so taking them in order from a bulk draw has the law
    of drawing them one step at a time.
    """

    def __init__(self, jumps: _JumpModel, rng: np.random.Generator):
        self.jumps, self.rng = jumps, rng
        self.buf, self.at = np.empty(0), 0

    def take(self, n: int) -> np.ndarray:
        if self.at + n > self.buf.size:
            fresh = self.jumps.sample(self.rng, max(_POOL_SIZE, n))
            self.buf, self.at = np.concatenate([self.buf[self.at:], fresh]), 0
        self.at += n
        return self.buf[self.at - n:self.at]


class _Exits:
    """Exit counts, and at q > 0 the sums of e^{-q t} and e^{-2 q t} over
    the exit times t of the paths that leave upward."""

    def __init__(self, q: float):
        self.q = q
        self.up = self.down = 0
        self.w1 = self.w2 = 0.0

    def add(self, n_up: int, n_down: int, t_up=0.0) -> None:
        """``t_up``: the common exit time of the n_up upward exits, or one per exit."""
        self.up += n_up
        self.down += n_down
        if self.q > 0 and n_up:
            w = np.broadcast_to(np.exp(-self.q * np.asarray(t_up)), (n_up,))
            self.w1 += float(w.sum())
            self.w2 += float(np.square(w).sum())

    def estimate(self, censored: int, cfg: SimConfig) -> ExitEstimate:
        n = self.up + self.down
        if n == 0:
            raise NumericalError(f"all {cfg.n_paths} paths censored at the horizon "
                                 f"{cfg.horizon}; no exit to estimate from")
        if censored > 0.01 * cfg.n_paths:
            warnings.warn(f"{censored} of {cfg.n_paths} paths censored at the horizon; "
                          "estimates may be unreliable", stacklevel=4)
        if self.q == 0.0:
            p = self.up / n
            se = math.sqrt(p * (1.0 - p) / n)
        else:
            # sample standard error of the weights (0 for a downward exit)
            p = self.w1 / n
            se = math.sqrt(max(self.w2 / n - p * p, 0.0) / max(n - 1, 1))
        return ExitEstimate(p_hat=p, stderr=se, n_censored=censored)


# ---------------------------------------------------------------------------
# the path engines
# ---------------------------------------------------------------------------

def _run_exit(triple: LevyTriple, jumps: _JumpModel, x: float, a: float, q: float,
              cfg: SimConfig) -> ExitEstimate:
    if not 0.0 <= x <= a:
        raise ParameterError("need 0 <= x <= a")
    if not q >= 0.0 or not math.isfinite(q):
        raise ParameterError("need a finite q >= 0")
    rng = np.random.default_rng(cfg.seed)
    drift = -triple.a + jumps.moment_to_1     # with the jumps up to eps compensated
    small_var = jumps.small_var
    if small_var < 1e-5 * (1.0 + triple.sigma ** 2 + abs(drift)):
        small_var = 0.0   # negligible folded variance: allow the exact engine
    sigma_tot = math.sqrt(triple.sigma ** 2 + small_var)

    if sigma_tot == 0.0 and jumps.rate > 0:
        return _run_exit_event_driven(jumps, drift, x, a, q, cfg, rng)

    dt = cfg.dt
    n_steps = int(math.ceil(cfg.horizon / dt))
    shift = drift * dt
    sq = sigma_tot * math.sqrt(dt)
    var_dt = sigma_tot ** 2 * dt
    # a bridge candidate has d1 d2 < cut, so min(d1, d2) < reach
    cut = 0.5 * _BRIDGE_CUT * var_dt
    reach = math.sqrt(cut)
    pos = np.full(cfg.n_paths, float(x))
    jumpy = jumps.rate > 0
    if jumpy:
        pool = _SizePool(jumps, rng)
        jumps_per_step = jumps.rate * dt
        # the time of each path's next jump, in steps
        clock = rng.standard_exponential(cfg.n_paths) / jumps_per_step
    exits = _Exits(q)
    done = 0        # grid steps taken
    while pos.size and done < n_steps:
        k = pos.size
        b = min(n_steps - done, _BLOCK_STEPS, max(1, _BLOCK_CELLS // k))
        # path[r] is the position after r steps of the block, and path[r + 1] - path[r]
        # the Gaussian increment of step r minus the jumps at its end
        path = np.empty((b + 1, k))
        path[0] = pos
        steps = path[1:]
        rng.standard_normal(out=steps)
        steps *= sq
        steps += shift
        if jumpy:
            gauss = steps.copy()
            # a due path jumps at its clock and Poisson(rate (block end - clock))
            # times more, uniformly after it; its next jump comes an Exp(rate)
            # wait after the block end
            due = (clock <= done + b).nonzero()[0]
            first = clock[due] - done
            more = np.repeat(np.arange(due.size), rng.poisson(jumps_per_step * (b - first)))
            at = np.concatenate([first, first[more] + rng.random(more.size) * (b - first[more])])
            # a jump at time t (in steps) lands at the end of step ceil(t) - 1
            row = np.clip(np.ceil(at).astype(np.intp) - 1, 0, b - 1)
            jump_cells = row * k + np.concatenate([due, due[more]])
            np.subtract.at(steps.reshape(-1), jump_cells, pool.take(at.size))
            clock[due] = done + b + rng.standard_exponential(due.size) / jumps_per_step
        for r in range(b):
            steps[r] += path[r]
        # only steps that start or end outside (reach, a - reach) can leave by
        # their continuous part (beyond, the bridge probability is below e^-40)
        inside = path > reach
        inside &= path < a - reach
        test = inside[:-1] & inside[1:]
        np.logical_not(test, out=test)
        flat = test.reshape(-1)
        if jumpy:
            # a step with jumps is tested on its end before them too: if it starts
            # and ends inside, that end can only be outside at the top
            flat[jump_cells[path.reshape(-1)[jump_cells] + gauss.reshape(-1)[jump_cells]
                            >= a - reach]] = True
        cells = flat.nonzero()[0]
        start = path.reshape(-1)[cells]
        # a step that starts outside [0, a] comes after its path's exit
        live = (start >= 0.0) & (start <= a)
        cells, start = cells[live], start[live]
        end = path.reshape(-1)[cells + k]
        cont = start + gauss.reshape(-1)[cells] if jumpy else end
        up = cont >= a
        down = cont <= 0.0
        if var_dt > 0:
            d_lo, d_hi = start * cont, (a - start) * (a - cont)
            near = (~(up | down) & (np.minimum(d_lo, d_hi) < cut)).nonzero()[0]
            if near.size:
                bridge_lo = rng.random(near.size) < np.exp(-2.0 * d_lo[near] / var_dt)
                bridge_hi = ~bridge_lo & (rng.random(near.size)
                                          < np.exp(-2.0 * d_hi[near] / var_dt))
                down[near[bridge_lo]] = True
                up[near[bridge_hi]] = True
        if jumpy:
            # ruin by a jump; a path that left upward in the same step counts as up
            down |= ~up & (end <= 0.0)
        left = (up | down).nonzero()[0]
        if left.size:
            # cells run row by row, so a path's first cell here is its exit step
            gone, first = np.unique(cells[left] % k, return_index=True)
            up_first = up[left[first]]
            n_up = int(np.count_nonzero(up_first))
            exits.add(n_up, gone.size - n_up,
                      (done + 1 + cells[left[first[up_first]]] // k) * dt)
            keep = np.ones(k, dtype=bool)
            keep[gone] = False
            pos = path[b][keep]
            if jumpy:
                clock = clock[keep]
        else:
            pos = path[b].copy()
        done += b
    return exits.estimate(pos.size, cfg)


def _run_exit_event_driven(jumps: _JumpModel, drift: float, x: float, a: float,
                           q: float, cfg: SimConfig,
                           rng: np.random.Generator) -> ExitEstimate:
    """Exact simulation for drift + compound Poisson (no Gaussian part)."""
    if drift <= 0:
        raise NotApplicableError("event-driven engine expects positive drift")
    pos = np.full(cfg.n_paths, float(x))
    t = np.zeros(cfg.n_paths)
    exits = _Exits(q)
    censored = 0
    # a path that stays for another pass has its t moved on by an Exp(rate)
    # wait, and one whose next event comes after the horizon is censored,
    # so the loop ends
    while pos.size:
        waits = rng.exponential(1.0 / jumps.rate, size=pos.size)
        t_up = np.subtract(a, pos)
        t_up /= drift
        reach_up = t_up <= waits
        t += np.minimum(t_up, waits, out=t_up)      # the time of the next event
        late = t > cfg.horizon
        up = reach_up & ~late
        exits.add(int(up.sum()), 0, t[up] if q else 0.0)
        censored += int(late.sum())
        on = ~(reach_up | late)
        waits = waits[on]
        waits *= drift
        waits += pos[on]
        pos, t = waits, t[on]
        pos -= jumps.sample(rng, pos.size)
        ruin = pos <= 0.0
        exits.add(0, int(ruin.sum()))
        pos, t = pos[~ruin], t[~ruin]
    return exits.estimate(censored, cfg)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def simulate_exit(triple: LevyTriple, x: float, a: float, cfg: SimConfig,
                  q: float = 0.0) -> ExitEstimate:
    """Estimate E_x[e^{-q tau_a^+}; tau_a^+ < tau_0^-] over the paths that exit.

    At q = 0 this is P_x(reach a before 0) with the binomial standard error;
    at q > 0 the stderr is the sample standard error of the path weights.
    Raises ``NumericalError`` when every path is censored at the horizon.
    """
    return _run_exit(triple, _JumpModel(triple, cfg.small_jump_cutoff), x, a, q, cfg)


def simulate_ruin(triple: LevyTriple, x: float, cfg: SimConfig,
                  a_upper: float) -> ExitEstimate:
    """Estimate the ruin probability through the large-barrier exit proxy.

    ``a_upper`` should be chosen so that the residual mass W(x)/W(a_upper) is
    below 1e-3 of the target.  Raises ``NotApplicableError`` unless
    psi'(0+) = E X_1 = -a - int_{u>1} u Pi(du) > 0 (it is -inf without a first moment).
    """
    jumps = _JumpModel(triple, cfg.small_jump_cutoff)
    mean_x1 = -triple.a - jumps.moment_past_1
    if mean_x1 <= 0:
        raise NotApplicableError(f"ruin estimation requires psi'(0+) > 0, got {mean_x1:.6g}")
    est = _run_exit(triple, jumps, x, a_upper, 0.0, cfg)
    return ExitEstimate(p_hat=1.0 - est.p_hat, stderr=est.stderr,
                        n_censored=est.n_censored)
