"""Monte Carlo and quadrature checks of the probabilistic ingredients.

Each checker returns a ``LemmaReport`` holding the estimate, its standard
error, the bound it is compared against, and a conservative pass flag: a
report only passes when the estimate clears the bound by three standard
errors on the favorable side.  Scans over sampled directions certify the
sampled set only; their ``samples`` field records the coverage.

The scalar expectations F and G reduce, for any unit pair (x, h) with real
overlap sigma = h^* x, to two complex Gaussian coordinates:

    h = e1,   x = sigma e1 + sqrt(1 - sigma^2) e^{i phi} e2,

with phi arbitrary (randomized per sample here).  The tests cross-validate
that reduction against a full n-dimensional estimate.

    F(lam, sigma) = E[ Re^2(h^* xi xi^* x) / |xi^* x|^2 ; lam |xi^* x| >= |xi^* h| ]
    G(lam, sigma) = E[ |xi^* h|^2 ; |xi^* x| <= lam |xi^* h| ]

F admits the series form

    F = 2 sum_k ((2k+1)! (2k+1) / (k!)^2) sigma^{2k} (1-sigma^2)^2
              int_0^lam (t / (1+t^2))^{2k+3} dt,

which sums in closed form to one integral (see ``series_F``), evaluated by
Gauss-Legendre panels that halve toward the integrand's peak at t = 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .geometry import _adjoint_products, _row_blocks, _usable_cores
from .initializers import _scan_directions
from .rng import _SLICE, RngStream, _draw_normals, _positioned
from .sampling import Model, _unit_draw, make_ensemble

# A batch is cut into rng._SLICE-sample slices, each drawn and evaluated in
# one pass, so that the draws and the temporaries after them stay in cache.
_BATCH = 1 << 17
# Most workers one batch runs on.  Each holds about 0.5 MiB of slice
# buffers, so at 8 a 2^17-sample batch stays below the 6.48 MiB that the
# whole-batch draws it replaced held, whatever the core count.
_MAX_WORKERS = 8


class Direction(Enum):
    AT_LEAST = "at_least"
    AT_MOST = "at_most"


@dataclass(frozen=True)
class LemmaReport:
    name: str
    estimate: float
    std_error: float
    bound: float
    direction: Direction
    samples: int
    passed: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "direction": self.direction.value}


def _report(name, estimate, std_error, bound, direction, samples) -> LemmaReport:
    if direction is Direction.AT_LEAST:
        passed = estimate - 3.0 * std_error >= bound
    else:
        passed = estimate + 3.0 * std_error <= bound
    return LemmaReport(
        name=name,
        estimate=float(estimate),
        std_error=float(std_error),
        bound=float(bound),
        direction=direction,
        samples=int(samples),
        passed=bool(passed),
    )


@dataclass(frozen=True)
class LemmaParams:
    """Shared parameter bundle for the scalar-expectation checks.

    ``tau`` is the derived quantity sqrt(1 - sigma^2), the off-overlap mass
    of x in the two-coordinate reduction (unrelated to any stopping time).
    """

    lam: float
    sigma: float = 0.0
    delta: float = 0.001

    def __post_init__(self):
        if not self.lam >= 0:
            raise ValueError("lam must be nonnegative")
        if not -1.0 <= self.sigma <= 1.0:
            raise ValueError("sigma must lie in [-1, 1]")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")

    @property
    def tau(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.sigma**2))


def lower_bound_f(lam: float) -> float:
    """3/8 - 1/(lam+1)^2, the floor for F at any admissible sigma."""
    # past 1e150 the square would overflow, and 1/(lam+1)^2 < 1e-300 anyway
    return 0.375 - 1.0 / (min(lam, 1e150) + 1.0) ** 2


def closed_form_g(lam: float) -> float:
    """lam^2 (lam^2 + 2) / (lam^2 + 1)^2, the exact ceiling for G."""
    l2 = lam * lam
    return l2 * (l2 + 2.0) / (l2 + 1.0) ** 2


def loose_bound_g(lam: float) -> float:
    """2 lam^2 / (lam^2 + 1), the weaker ceiling for G."""
    l2 = lam * lam
    return 2.0 * l2 / (l2 + 1.0)


def _in_threads(work, jobs: list) -> None:
    """work(*job) for every job: the first in the calling thread, each other in a thread.

    Returns after every thread has ended, raising again the first exception
    a thread raised.
    """
    errors = []

    def guarded(*job):
        try:
            work(*job)
        except BaseException as exc:  # raised again in the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=job) for job in jobs[1:]]
    for thread in threads:
        thread.start()
    try:
        work(*jobs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _integrand(kind: str, lam: float, xs_x: np.ndarray, xs_h: np.ndarray) -> np.ndarray:
    """The F or the G integrand at the products xi^* x and xi^* h, which broadcast."""
    if kind == "F":
        mags = np.abs(xs_x)
        with np.errstate(over="ignore"):  # lam * mags = inf still compares right
            keep = lam * mags >= np.abs(xs_h)
        safe = np.where(mags > 0.0, mags, 1.0)
        return np.where(keep & (mags > 0.0), (xs_h.conj() * xs_x).real ** 2 / safe**2, 0.0)
    abs_h = np.abs(xs_h)
    return abs_h**2 * (np.abs(xs_x) <= lam * abs_h)


def _mc_scalar(params: LemmaParams, samples: int, rng: RngStream, kind: str):
    """Streaming mean/variance of the F or G integrand.

    Each batch of up to _BATCH samples is cut into _SLICE-sample slices,
    and its contiguous runs of slices go to min(usable cores, slices,
    _MAX_WORKERS) workers.  A worker draws each slice's normals at their own
    Philox positions through ``rng._draw_normals``, into its own slice
    buffers, so no whole-batch draw exists, and the batch's values and
    their in-order sums keep the bits of drawing the batch serially.  A
    batch's stream holds five consecutive draws of chunk words each: xi1's
    u1 and u2, xi2's u1 and u2, and the phase uniforms.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    gen = rng.generator()
    lam, sigma, tau = params.lam, params.sigma, params.tau

    def run_slices(state: dict, chunk: int, vals: np.ndarray, blocks: list) -> None:
        gens = [_positioned(state, k * chunk + blocks[0][0]) for k in range(5)]
        size = max(hi - lo for lo, hi in blocks)
        radius, phase = np.empty(size), np.empty(size)
        xi1, xi2 = np.empty(size, dtype=np.complex128), np.empty(size, dtype=np.complex128)
        for lo, hi in blocks:
            width = hi - lo
            a, b = xi1[:width], xi2[:width]
            _draw_normals(gens[0], gens[1], a, radius[:width], phase[:width])
            _draw_normals(gens[2], gens[3], b, radius[:width], phase[:width])
            phi = 2.0 * np.pi * gens[4].random(out=phase[:width])
            xs_x = sigma * a.conj() + tau * np.exp(1j * phi) * b.conj()  # xi^* x
            xs_h = np.conjugate(a, out=b)  # xi^* h = a^*, in the buffer b is done with
            vals[lo:hi] = _integrand(kind, lam, xs_x, xs_h)

    cores = min(_usable_cores(), _MAX_WORKERS)
    state = gen.bit_generator.state
    buffer = np.empty(min(samples, _BATCH))
    total = 0.0
    total_sq = 0.0
    left = samples
    while left > 0:
        chunk = min(left, _BATCH)
        vals = buffer[:chunk]
        blocks = _row_blocks(chunk, _SLICE)
        workers = min(cores, len(blocks))
        runs = [blocks[len(blocks) * i // workers : len(blocks) * (i + 1) // workers]
                for i in range(workers)]
        _in_threads(run_slices, [(state, chunk, vals, run) for run in runs])
        total += float(vals.sum())
        np.multiply(vals, vals, out=vals)
        total_sq += float(vals.sum())
        state = _positioned(state, 5 * chunk).bit_generator.state
        left -= chunk
    mean = total / samples
    var = max(0.0, total_sq / samples - mean**2)
    se = math.sqrt(var / samples)
    return mean, se


def mc_F(params: LemmaParams, samples: int, rng: RngStream) -> LemmaReport:
    """Monte Carlo estimate of F against its lower bound 3/8 - 1/(lam+1)^2."""
    if not params.lam >= 2.95:
        raise ValueError("F bound requires lam >= 2.95")
    est, se = _mc_scalar(params, samples, rng, "F")
    return _report("F", est, se, lower_bound_f(params.lam), Direction.AT_LEAST, samples)


def mc_G_reports(params: LemmaParams, samples: int, rng: RngStream) -> list[LemmaReport]:
    """One Monte Carlo estimate of G, scored against the closed and the loose ceiling.

    The two reports equal ``mc_G(params, samples, rng, bound)`` for
    ``bound='closed'`` and ``'loose'``, at the cost of a single estimate.
    """
    if not 0.0 <= params.lam <= 0.4:
        raise ValueError("G regime requires 0 <= lam <= 0.4")
    est, se = _mc_scalar(params, samples, rng, "G")
    return [
        _report("G", est, se, ceiling(params.lam), Direction.AT_MOST, samples)
        for ceiling in (closed_form_g, loose_bound_g)
    ]


def mc_G(params: LemmaParams, samples: int, rng: RngStream, bound: str = "closed") -> LemmaReport:
    """Monte Carlo estimate of G against its ceiling.

    ``bound='closed'`` compares with lam^2(lam^2+2)/(lam^2+1)^2 (valid for
    lam <= sqrt((5-sqrt(21))/2)), ``bound='loose'`` with 2 lam^2/(lam^2+1).
    """
    if bound not in ("closed", "loose"):
        raise ValueError("bound must be 'closed' or 'loose'")
    closed, loose = mc_G_reports(params, samples, rng)
    return loose if bound == "loose" else closed


# built on first use: importing numpy.polynomial with this module would add
# about 2 MB to the peak RSS of every CLI run, and the rule takes about 1 ms
@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(40)


def _panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a 40-node Gauss-Legendre rule on each panel between edges."""
    nodes, weights = _gauss_legendre()
    lo, hi = edges[1:, None], edges[:-1, None]
    half = 0.5 * (hi - lo)
    return (lo + half * (nodes + 1.0)).ravel(), (half * weights).ravel()


def series_F(params: LemmaParams) -> float:
    """F from its series summed in closed form, by one Gauss-Legendre integral.

    Since sum_k (2k+1)^2 C(2k,k) y^k = (1+8y) / (1-4y)^(5/2), with
    r = t / (1+t^2) the series is

        F = 2 (1-sigma^2)^2 int_0^lam r^3 (1 + 8 sigma^2 r^2) / (1 - 4 sigma^2 r^2)^(5/2) dt,

    where 1 - 4 sigma^2 r^2 = ((1-t^2)^2 + 4 t^2 (1-sigma^2)) / (1+t^2)^2, a
    sum of nonnegative terms free of cancellation.  [0, min(lam, 1)] is
    integrated directly and the tail past 1 as [1/lam, 1] under u = 1/t.
    Both integrands peak at 1 with a width of about sqrt(1 - sigma^2), so
    each is integrated in d = 1 - t (or 1 - u), which also gives
    1 - t^2 = d (2 - d) to full relative precision, on 40-node panels
    [1/2, 1], [1/4, 1/2], ... that halve until one is no wider than the
    peak, plus a last one down to d = 0.
    """
    sigma = params.sigma
    if abs(sigma) >= 1.0:
        raise ValueError("series diverges pointwise at |sigma| = 1")
    lam = params.lam
    tau2 = (1.0 - sigma) * (1.0 + sigma)
    peak_width = math.sqrt(tau2)
    edges = [1.0]
    while edges[-1] > peak_width:
        edges.append(0.5 * edges[-1])
    edges = np.array(edges + [0.0])
    d_head, w_head = _panels(np.clip(edges, 1.0 - min(lam, 1.0), 1.0))  # t = 1 - d
    d_tail, w_tail = _panels(np.clip(edges, 0.0, 1.0 - 1.0 / max(lam, 1.0)))  # u = 1 - d
    d = np.concatenate([d_head, d_tail])
    t = 1.0 - d
    t2 = t * t
    q = 1.0 + t2
    denom = (d * (2.0 - d)) ** 2 + 4.0 * t2 * tau2  # (1-t^2)^2 + 4 t^2 (1-sigma^2)
    # with the powers of 1 + t^2 cancelled, the head's integrand is t^2 * common,
    # and the tail's, which gains dt = du / u^2, is common
    common = t * (q * q + 8.0 * sigma * sigma * t2) / denom**2.5
    weights = np.concatenate([w_head * (1.0 - d_head) ** 2, w_tail])
    return 2.0 * tau2 * tau2 * float(weights @ common)


def covariance_deviation(rows: np.ndarray) -> float:
    """|| (1/m) sum_j a_j a_j^* - I/n ||_2 for unit-sphere rows.

    The deviation is Hermitian, so its spectral norm is its largest
    eigenvalue in magnitude.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    m, n = rows.shape
    second_moment = rows.T @ rows.conj() / m
    return float(np.max(np.abs(np.linalg.eigvalsh(second_moment - np.eye(n) / n))))


def check_covariance(
    n: int,
    m: int,
    delta: float,
    trials: int,
    rng: RngStream,
) -> LemmaReport:
    """Fraction of sphere ensembles whose covariance deviates by <= delta/n.

    Passes when that fraction clears 0.98 by three standard errors.
    """
    if m < n:
        raise ValueError("need m >= n")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if trials < 1:
        raise ValueError("trials must be positive")
    hits = 0
    for t in range(trials):
        ensemble = make_ensemble(m, n, Model.UNIT_SPHERE, rng.substream(t))
        if covariance_deviation(ensemble.rows) <= delta / n:
            hits += 1
    frac = hits / trials
    se = math.sqrt(frac * (1.0 - frac) / trials)
    return _report("covariance", frac, se, 0.98, Direction.AT_LEAST, trials)


def _scan_products(n: int, m: int, h_samples: int, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Q = A^* x and H = A^* [h_1 .. h_s] for one sphere ensemble, unit x and sampled h."""
    if h_samples < 1:
        raise ValueError("h_samples must be positive")
    ensemble = make_ensemble(m, n, Model.UNIT_SPHERE, rng.substream(0))
    gen = rng.substream(1).generator()
    x = _unit_draw(n, gen)
    dirs = np.array(list(itertools.islice(_scan_directions(x, gen), h_samples)))
    # m and m x h_samples
    return _adjoint_products(ensemble.rows, x), _adjoint_products(ensemble.rows, dirs.T)


def check_restricted_ratio(
    n: int,
    m: int,
    params: LemmaParams,
    h_samples: int,
    rng: RngStream,
) -> LemmaReport:
    """Worst sampled value of the signal-weighted curvature sum vs its floor.

    For one sphere ensemble and unit x, evaluates over sampled unit h with
    real overlap

        (1/m) sum_j Re^2(h^* a_j a_j^* x) / |a_j^* x|^2
                    * 1{ lam |a_j^* x| >= |a_j^* h| }

    and reports the minimum against (3/8 - 1/(1+0.99 lam)^2 - delta)/n.
    """
    if not params.lam >= 3.0:
        raise ValueError("restricted ratio regime requires lam >= 3")
    Q, H = _scan_products(n, m, h_samples, rng)
    sums = _integrand("F", params.lam, Q[:, None], H).mean(axis=0)
    bound = (lower_bound_f(0.99 * params.lam) - params.delta) / n
    return _report("restricted_ratio", float(sums.min()), 0.0, bound, Direction.AT_LEAST, h_samples)


def check_truncated_moment(
    n: int,
    m: int,
    params: LemmaParams,
    h_samples: int,
    rng: RngStream,
) -> LemmaReport:
    """Worst sampled value of the weak-signal mass vs its ceiling.

    Mirror of check_restricted_ratio for

        (1/m) sum_j |a_j^* h|^2 * 1{ |a_j^* x| <= lam |a_j^* h| }

    reporting the maximum against (2 lam^2/(lam^2 + 0.99) + delta)/n.
    """
    if not 0.0 < params.lam <= 0.4:
        raise ValueError("truncated moment regime requires 0 < lam <= 0.4")
    Q, H = _scan_products(n, m, h_samples, rng)
    sums = _integrand("G", params.lam, Q[:, None], H).mean(axis=0)
    l2 = params.lam**2
    bound = (2.0 * l2 / (l2 + 0.99) + params.delta) / n
    return _report("truncated_moment", float(sums.max()), 0.0, bound, Direction.AT_MOST, h_samples)
