"""Monte Carlo and quadrature checks of the probabilistic ingredients.

Each checker returns a ``LemmaReport`` holding the estimate, its standard
error, the bound it is compared against, and a conservative pass flag: a
report only passes when the estimate clears the bound by three standard
errors on the favorable side.  Scans over sampled directions certify the
sampled set only; their ``samples`` field records the coverage.

The scalar expectations F and G reduce, for any unit pair (x, h) with real
overlap sigma = h^* x, to two complex Gaussian coordinates:

    h = e1,   x = sigma e1 + sqrt(1 - sigma^2) e^{i phi} e2,

with phi arbitrary (randomized per sample here).  A full n-dimensional mode
cross-validates that reduction.

    F(lam, sigma) = E[ Re^2(h^* xi xi^* x) / |xi^* x|^2 ; lam |xi^* x| >= |xi^* h| ]
    G(lam, sigma) = E[ |xi^* h|^2 ; |xi^* x| <= lam |xi^* h| ]

F admits the series form (per-term integrals evaluated by Gauss-Legendre
quadrature)

    F = 2 sum_k ((2k+1)! (2k+1) / (k!)^2) sigma^{2k} (1-sigma^2)^2
              int_0^lam (t / (1+t^2))^{2k+3} dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .initializers import real_overlap_direction
from .rng import RngStream, complex_standard_normal
from .sampling import Model, make_ensemble

CLOSED_FORM_LAMBDA_MAX = math.sqrt((5.0 - math.sqrt(21.0)) / 2.0)

_BATCH = 1 << 17


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
        return {
            "name": self.name,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "bound": self.bound,
            "direction": self.direction.value,
            "samples": self.samples,
            "passed": self.passed,
        }


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
    alpha: float = 12.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not -1.0 <= self.sigma <= 1.0:
            raise ValueError("sigma must lie in [-1, 1]")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    @property
    def tau(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.sigma**2))


def lower_bound_f(lam: float) -> float:
    """3/8 - 1/(lam+1)^2, the floor for F at any admissible sigma."""
    return 0.375 - 1.0 / (lam + 1.0) ** 2


def closed_form_g(lam: float) -> float:
    """lam^2 (lam^2 + 2) / (lam^2 + 1)^2, the exact ceiling for G."""
    l2 = lam * lam
    return l2 * (l2 + 2.0) / (l2 + 1.0) ** 2


def loose_bound_g(lam: float) -> float:
    """2 lam^2 / (lam^2 + 1), the weaker ceiling for G."""
    l2 = lam * lam
    return 2.0 * l2 / (l2 + 1.0)


def _mc_scalar(params: LemmaParams, samples: int, rng: RngStream, kind: str, mode: str, dim: int):
    """Streaming mean/variance of the F or G integrand."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if mode not in ("reduced", "full"):
        raise ValueError("mode must be 'reduced' or 'full'")
    gen = rng.generator()
    lam, sigma, tau = params.lam, params.sigma, params.tau
    if mode == "full":
        if dim < 2:
            raise ValueError("full mode needs dimension at least 2")
        x = complex_standard_normal(dim, gen)
        x /= np.linalg.norm(x)
        h = real_overlap_direction(x, gen)
        # steer the overlap to the requested sigma within the real slice
        overlap = float(np.vdot(x, h).real)
        perp = h - overlap * x
        pnorm = np.linalg.norm(perp)
        if pnorm == 0.0:
            raise ValueError("degenerate direction draw; try another stream")
        h = sigma * x + tau * perp / pnorm

    def batch(chunk: int) -> np.ndarray:
        # one function call per batch, so a batch's temporaries are freed
        # before the next batch draws
        if mode == "reduced":
            xi1 = complex_standard_normal(chunk, gen)
            xi2 = complex_standard_normal(chunk, gen)
            phi = 2.0 * np.pi * gen.random(chunk)
            xs_x = sigma * xi1.conj() + tau * np.exp(1j * phi) * xi2.conj()  # xi^* x
            hs_xi = xi1                                                       # h^* xi
            xs_h = xi1.conj()                                                 # xi^* h
        else:
            xi = complex_standard_normal(chunk * dim, gen).reshape(chunk, dim)
            xs_x = xi.conj() @ x
            xs_h = xi.conj() @ h
            hs_xi = xs_h.conj()
        if kind == "F":
            mags = np.abs(xs_x)
            keep = lam * mags >= np.abs(xs_h)
            safe = np.where(mags > 0.0, mags, 1.0)
            return np.where(keep & (mags > 0.0), (hs_xi * xs_x).real ** 2 / safe**2, 0.0)
        return np.abs(xs_h) ** 2 * (np.abs(xs_x) <= lam * np.abs(xs_h))

    total = 0.0
    total_sq = 0.0
    left = samples
    while left > 0:
        chunk = min(left, _BATCH)
        vals = batch(chunk)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        left -= chunk
    mean = total / samples
    var = max(0.0, total_sq / samples - mean**2)
    se = math.sqrt(var / samples)
    return mean, se


def mc_F(
    params: LemmaParams,
    samples: int,
    rng: RngStream,
    mode: str = "reduced",
    dim: int = 8,
) -> LemmaReport:
    """Monte Carlo estimate of F against its lower bound 3/8 - 1/(lam+1)^2."""
    if params.lam < 2.95:
        raise ValueError("F bound requires lam >= 2.95")
    est, se = _mc_scalar(params, samples, rng, "F", mode, dim)
    return _report("F", est, se, lower_bound_f(params.lam), Direction.AT_LEAST, samples)


_G_CEILINGS = {"closed": closed_form_g, "loose": loose_bound_g}


def mc_G_reports(
    params: LemmaParams,
    samples: int,
    rng: RngStream,
    mode: str = "reduced",
    dim: int = 8,
    bounds: tuple = ("closed", "loose"),
) -> list[LemmaReport]:
    """One Monte Carlo estimate of G, scored against each ceiling in ``bounds``.

    Each report equals ``mc_G(params, samples, rng, mode, dim, bound)`` for
    its bound, at the cost of a single estimate.
    """
    if not 0.0 <= params.lam <= 0.4:
        raise ValueError("G regime requires 0 <= lam <= 0.4")
    for bound in bounds:
        if bound not in ("closed", "loose"):
            raise ValueError("bound must be 'closed' or 'loose'")
    est, se = _mc_scalar(params, samples, rng, "G", mode, dim)
    return [
        _report("G", est, se, _G_CEILINGS[bound](params.lam), Direction.AT_MOST, samples)
        for bound in bounds
    ]


def mc_G(
    params: LemmaParams,
    samples: int,
    rng: RngStream,
    mode: str = "reduced",
    dim: int = 8,
    bound: str = "closed",
) -> LemmaReport:
    """Monte Carlo estimate of G against its ceiling.

    ``bound='closed'`` compares with lam^2(lam^2+2)/(lam^2+1)^2 (valid for
    lam <= sqrt((5-sqrt(21))/2)), ``bound='loose'`` with 2 lam^2/(lam^2+1).
    """
    return mc_G_reports(params, samples, rng, mode, dim, bounds=(bound,))[0]


def series_F(params: LemmaParams, k_max: int = 250, quad_points: int = 400) -> float:
    """Series evaluation of F with Gauss-Legendre quadrature per term.

    Terms are accumulated until they drop below 1e-12 or k_max is reached.
    Coefficients are built in log space; the factorials overflow doubles
    far before the series converges at large |sigma|.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if abs(params.sigma) >= 1.0:
        raise ValueError("series diverges pointwise at |sigma| = 1")
    lam, sigma = params.lam, params.sigma
    if lam == 0.0:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    t = 0.5 * lam * (nodes + 1.0)
    w = 0.5 * lam * weights
    base = t / (1.0 + t * t)
    log_tau4 = 2.0 * math.log1p(-sigma**2)  # log (1 - sigma^2)^2
    total = 0.0
    prev = math.inf
    for k in range(k_max):
        integral = float(np.sum(w * base ** (2 * k + 3)))
        if integral <= 0.0:
            break
        log_coeff = (
            math.log(2.0)
            + math.lgamma(2 * k + 2)
            + math.log(2 * k + 1)
            - 2.0 * math.lgamma(k + 1)
            + log_tau4
        )
        if sigma != 0.0:
            log_coeff += 2.0 * k * math.log(abs(sigma))
        elif k > 0:
            break
        term = math.exp(log_coeff + math.log(integral))
        total += term
        # terms can grow before they decay; only stop on the decaying side
        if term < 1e-12 and term <= prev:
            break
        prev = term
    return total


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
    target: float = 0.98,
) -> LemmaReport:
    """Fraction of sphere ensembles whose covariance deviates by <= delta/n."""
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
    return _report("covariance", frac, se, target, Direction.AT_LEAST, trials)


def _direction_batch(x: np.ndarray, count: int, gen) -> np.ndarray:
    """Unit directions with real overlap against x: structured ones first.

    Row 0 is x itself, row 1 its negation, row 2 a random direction
    orthogonal to x; the rest are random within the real-overlap slice.
    """
    n = x.shape[0]
    out = np.empty((count, n), dtype=np.complex128)
    for i in range(count):
        if i == 0:
            out[i] = x
        elif i == 1:
            out[i] = -x
        elif i == 2:
            u = real_overlap_direction(x, gen)
            u = u - np.vdot(x, u) * x
            norm = np.linalg.norm(u)
            while norm == 0.0:
                u = real_overlap_direction(x, gen)
                u = u - np.vdot(x, u) * x
                norm = np.linalg.norm(u)
            out[i] = u / norm
        else:
            out[i] = real_overlap_direction(x, gen)
    return out


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
    if params.lam < 3.0:
        raise ValueError("restricted ratio regime requires lam >= 3")
    if h_samples < 1:
        raise ValueError("h_samples must be positive")
    ensemble = make_ensemble(m, n, Model.UNIT_SPHERE, rng.substream(0))
    gen = rng.substream(1).generator()
    x = complex_standard_normal(n, gen)
    x /= np.linalg.norm(x)
    dirs = _direction_batch(x, h_samples, gen)
    conj = ensemble.rows.conj()
    Q = conj @ x
    q = np.abs(Q)
    safe_q = np.where(q > 0.0, q, 1.0)
    H = conj @ dirs.T  # m x h_samples
    keep = params.lam * q[:, None] >= np.abs(H)
    cross = (H.conj() * Q[:, None]).real
    vals = np.where(keep & (q[:, None] > 0.0), cross**2 / safe_q[:, None] ** 2, 0.0)
    sums = vals.mean(axis=0)
    bound = (0.375 - 1.0 / (1.0 + 0.99 * params.lam) ** 2 - params.delta) / n
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
    if h_samples < 1:
        raise ValueError("h_samples must be positive")
    ensemble = make_ensemble(m, n, Model.UNIT_SPHERE, rng.substream(0))
    gen = rng.substream(1).generator()
    x = complex_standard_normal(n, gen)
    x /= np.linalg.norm(x)
    dirs = _direction_batch(x, h_samples, gen)
    conj = ensemble.rows.conj()
    Q = conj @ x
    q = np.abs(Q)
    H = conj @ dirs.T
    absH = np.abs(H)
    vals = np.where(q[:, None] <= params.lam * absH, absH**2, 0.0)
    sums = vals.mean(axis=0)
    l2 = params.lam**2
    bound = (2.0 * l2 / (l2 + 0.99) + params.delta) / n
    return _report("truncated_moment", float(sums.max()), 0.0, bound, Direction.AT_MOST, h_samples)
