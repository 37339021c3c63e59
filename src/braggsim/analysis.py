"""Fringe and time-series analysis: harmonic fits, contrast, gravity
conversion, Allan deviation, gradiometer correlation and the closed-form
interferometer-class oracle.

The fringe model is offset + sum_m c_m cos(m*Phi + theta_m), linear in the
cos/sin basis, so the fit is a deterministic least-squares solve. Contrast
is defined on the fitted curve (not raw extrema) to suppress detection-noise
bias. The Allan estimator is the overlapping variant for data efficiency.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bounds import NonNegative, Positive, Range, check
from .physics import AtomSpecies, path_phase

logger = logging.getLogger(__name__)


class FitRejectedError(ValueError):
    """The fringe fit design matrix is rank deficient or the grid too short."""


@dataclass(frozen=True)
class FringeScan:
    """Scanned fringe: phase grid (rad), per-port populations and the
    normalised population."""

    phase_grid: np.ndarray
    port_populations: dict[int, np.ndarray]
    normalized: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.phase_grid, dtype=float)
        norm = np.asarray(self.normalized, dtype=float)
        object.__setattr__(self, "phase_grid", grid)
        object.__setattr__(self, "normalized", norm)
        if grid.ndim != 1 or len(grid) == 0:
            raise ValueError("phase_grid must be a non-empty 1-d array")
        if len(grid) > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("phase_grid must be strictly increasing")
        if len(norm) != len(grid):
            raise ValueError("normalized and phase_grid lengths differ")
        check("normalized", norm, Range(-1e-9, 1 + 1e-9))
        for port, pops in self.port_populations.items():
            if len(pops) != len(grid):
                raise ValueError(f"port {port} population length differs from grid")


@dataclass(frozen=True)
class HarmonicFit:
    """offset + sum_m c_m cos(m*Phi + theta_m), amplitudes >= 0,
    phases in (-pi, pi]."""

    offset: float
    amplitudes: tuple[float, ...]
    phases: tuple[float, ...]
    residual_rms: float

    def __post_init__(self):
        if len(self.amplitudes) != len(self.phases) or len(self.amplitudes) < 1:
            raise ValueError("need matching non-empty amplitude and phase lists")

    @property
    def dominant_harmonic(self) -> int:
        """1-based index of the largest fitted amplitude."""
        return 1 + int(np.argmax(self.amplitudes))

    def evaluate(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        out = np.full(phi.shape, self.offset)
        for m, (c, th) in enumerate(zip(self.amplitudes, self.phases), start=1):
            out = out + c * np.cos(m * phi + th)
        return out

    def extrema(self) -> tuple[float, float]:
        """(max, min) of the curve sampled at 2048 points over one 2 pi period."""
        curve = self.evaluate(np.linspace(0.0, 2 * math.pi, 2048, endpoint=False))
        return float(curve.max()), float(curve.min())

    def derivative(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        out = np.zeros(phi.shape)
        for m, (c, th) in enumerate(zip(self.amplitudes, self.phases), start=1):
            out = out - m * c * np.sin(m * phi + th)
        return out


@dataclass(frozen=True)
class AllanCurve:
    """Overlapping Allan deviation vs averaging time."""

    taus: np.ndarray
    values: np.ndarray
    notices: tuple[str, ...] = ()

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "values", vals)
        if len(taus) != len(vals):
            raise ValueError("taus and values lengths differ")
        if len(taus) > 1 and not np.all(np.diff(taus) > 0):
            raise ValueError("taus must be increasing")
        check("values", vals, NonNegative)


def _harmonic_design(x, frequencies) -> np.ndarray:
    """The columns [1, cos(w x), sin(w x), ...], one cos/sin pair per
    frequency w."""
    cols = [np.ones_like(x)]
    for w in frequencies:
        cols += [np.cos(w * x), np.sin(w * x)]
    return np.column_stack(cols)


def _harmonic_lstsq(x, y, frequencies, sigma=None):
    """Least squares of ``y`` on ``_harmonic_design(x, frequencies)``; rows
    are divided by ``sigma`` if given. Returns the (weighted) design matrix,
    coefficients, rank and residual."""
    design = _harmonic_design(x, frequencies)
    if sigma is not None:
        design, y = design / sigma[:, None], y / sigma
    coeffs, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    return design, coeffs, rank, y - design @ coeffs


def _amplitude_phase(a, b) -> tuple[float, float]:
    """a cos(x) + b sin(x) as c cos(x + theta), c >= 0, theta in (-pi, pi]."""
    c = math.hypot(a, b)
    th = math.atan2(-b, a) if c > 0 else 0.0
    return c, (th + 2 * math.pi if th <= -math.pi else th)


def check_fringe_grid(phase_grid, n_harmonics: int = 3) -> None:
    """FitRejectedError unless ``fit_harmonics`` can fit ``n_harmonics`` on
    ``phase_grid``: at least 2n + 1 points spanning 1.5 fundamental (2 pi)
    periods, with a design of full rank. The rule reads the grid alone, so
    the CLI checks a configured scan before any solve."""
    check("n_harmonics", n_harmonics, Range(1, 5))
    phi = np.asarray(phase_grid, dtype=float)
    params = 2 * n_harmonics + 1
    if len(phi) < params:
        raise FitRejectedError(
            f"{len(phi)} points cannot constrain {params} parameters")
    span = phi[-1] - phi[0]
    if span < 1.5 * 2 * math.pi:
        raise FitRejectedError(f"grid spans {span:.3f} rad, below 1.5 fringe "
                               f"periods ({3 * math.pi:.3f})")
    rank = np.linalg.matrix_rank(_harmonic_design(phi, range(1, n_harmonics + 1)))
    if rank < params:
        raise FitRejectedError(f"design matrix rank {rank} < {params}")


def fit_harmonics(scan: FringeScan, n_harmonics: int = 3) -> HarmonicFit:
    """Linear least-squares decomposition of the normalized fringe, on a grid
    that ``check_fringe_grid`` accepts."""
    check_fringe_grid(scan.phase_grid, n_harmonics)
    _, coeffs, _, residual = _harmonic_lstsq(
        scan.phase_grid, scan.normalized, range(1, n_harmonics + 1))
    amplitudes, phases = zip(*(_amplitude_phase(coeffs[2 * m - 1], coeffs[2 * m])
                               for m in range(1, n_harmonics + 1)))
    return HarmonicFit(offset=float(coeffs[0]), amplitudes=amplitudes,
                       phases=phases,
                       residual_rms=float(np.sqrt(np.mean(residual**2))))


def fringe_contrast(fit: HarmonicFit) -> float:
    """(max - min)/(max + min) of the fitted curve's ``extrema``.

    A curve dipping below zero (offset smaller than the harmonic sum) is
    clamped at zero and reported, since populations cannot be negative.
    """
    hi, lo = fit.extrema()
    if lo < 0.0:
        logger.warning("fitted fringe dips to %.3g; clamping to 0 for contrast", lo)
        lo = 0.0
    if hi <= 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def phase_to_gravity(delta_phi: float, harmonic: int, k_eff: float,
                     interrogation_time: float) -> float:
    """Convert a fringe phase change to gravity: dg = dphi/(m k_eff T^2)."""
    check("delta_phi", delta_phi)
    check("harmonic", harmonic, Range(1))
    check("k_eff", k_eff, Positive)
    check("interrogation_time", interrogation_time, Positive)
    return delta_phi / (harmonic * k_eff * interrogation_time**2)


ALLAN_MIN_SAMPLES = 4    # the shortest series with an Allan deviation
REVIVAL_MIN_TIMES = 8    # the fewest interrogation times a period is fitted to
CORRELATION_MIN_SHOTS = 10    # the fewest shots two phase series are correlated on


def check_count(n: int, minimum: int, what: str) -> None:
    """ValueError unless there are at least ``minimum`` ``what``. The CLI
    checks a fit's rule on the configured count before any solve."""
    if n < minimum:
        raise ValueError(f"need at least {minimum} {what}, got {n}")


def allan_deviation(series, shot_period: float, taus=None) -> AllanCurve:
    """Overlapping Allan deviation of a per-shot series.

    ``taus`` defaults to an octave grid from one shot period up to a third
    of the record. Given taus must be positive; each is rounded to a whole
    number of shots, and to at least one. Averaging times without at least
    two independent blocks are omitted with a notice.
    """
    y = np.asarray(series, dtype=float)
    n = len(y)
    check_count(n, ALLAN_MIN_SAMPLES, "samples")
    check("shot_period", shot_period, Positive)
    if taus is None:
        max_m = n // 3
        ms = []
        m = 1
        while m <= max_m:
            ms.append(m)
            m *= 2
    else:
        taus = np.atleast_1d(np.asarray(taus, dtype=float))
        check("taus", taus, Positive)
        with np.errstate(over="ignore"):   # a count past the largest float
            shots = taus / shot_period
        check("taus in shot periods", shots)
        ms = sorted({max(1, int(round(m))) for m in shots})

    csum = np.concatenate([[0.0], np.cumsum(y)])
    out_t, out_v, notices = [], [], []
    for m in ms:
        if n < 2 * m:
            notices.append(
                f"tau={m * shot_period:.6g}s omitted: needs {2 * m} samples, have {n}"
            )
            continue
        block = (csum[m:] - csum[:-m]) / m          # overlapping block means
        d = block[m:] - block[:-m]
        out_t.append(m * shot_period)
        out_v.append(math.sqrt(0.5 * float(np.mean(d * d))))
    if not out_t:
        raise ValueError("no averaging time has sufficient data")
    return AllanCurve(taus=np.array(out_t), values=np.array(out_v),
                      notices=tuple(notices))


def gradiometer_correlation(phases_low, phases_up):
    """Z-normalize both phase series and return (z_low, z_up, Pearson r)."""
    a = np.asarray(phases_low, dtype=float)
    b = np.asarray(phases_up, dtype=float)
    if len(a) != len(b):
        raise ValueError("phase series lengths differ")
    check_count(len(a), CORRELATION_MIN_SHOTS, "shots")
    sa, sb = np.std(a), np.std(b)
    if sa == 0.0 or sb == 0.0:
        raise ValueError("zero-variance phase series cannot be correlated")
    za = (a - np.mean(a)) / sa
    zb = (b - np.mean(b)) / sb
    r = float(np.mean(za * zb))
    return za, zb, r


def class_contrast_proxy(
    class_index: int,
    a_range,
    interrogation_time: float,
    species: AtomSpecies,
    weights=None,
) -> float:
    """Contrast proxy |sum_a w_a e^{i phi_a}| / sum_a w_a of the trajectories
    a + b = j of class j, a in ``a_range``, with phases phi_a from
    :func:`path_phase`.

    It predicts where the class interferes constructively; weights default
    to uniform (the revival POSITIONS do not depend on them, only the depths
    do).
    """
    a_vals = [int(a) for a in a_range]
    if len(a_vals) == 0:
        raise ValueError("a_range must be non-empty")
    if weights is None:
        w = np.ones(len(a_vals))
    else:
        w = np.asarray(weights, dtype=float)
        if len(w) != len(a_vals):
            raise ValueError("weights length must match a_range")
        check("weights", w, NonNegative)
        if w.sum() == 0:
            raise ValueError("weights must not all be zero")
    phases = [path_phase(class_index, a, interrogation_time, species) for a in a_vals]
    return float(np.abs(np.sum(w * np.exp(1j * np.array(phases)))) / np.sum(w))


def bin_timeseries(series, bin_size: int):
    """Contiguous non-overlapping bin means with standard errors.

    The incomplete tail is dropped. A bin holds at least two samples, so
    that it has a standard error.
    """
    check("bin_size", bin_size, Range(2))
    y = np.asarray(series, dtype=float)
    check_count(len(y), bin_size, "samples for one bin")
    nbins = len(y) // bin_size
    trimmed = y[: nbins * bin_size].reshape(nbins, bin_size)
    return trimmed.mean(axis=1), trimmed.std(axis=1, ddof=1) / math.sqrt(bin_size)


def fit_revival_period(times, contrasts, period_lo: float, period_hi: float):
    """Dominant periodicity of a contrast-vs-T curve by least squares.

    For each of 2001 candidate periods spanning [period_lo, period_hi] the
    curve is fit linearly with a fundamental plus second harmonic; the
    period minimizing the residual wins. Returns
    (period, first_maximum_time) where the maximum refers to the fitted
    fundamental component.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(contrasts, dtype=float)
    check_count(len(t), REVIVAL_MIN_TIMES, "interrogation times")
    best = None
    for period in np.linspace(period_lo, period_hi, 2001):
        w = 2.0 * math.pi / period
        _, coeffs, _, resid = _harmonic_lstsq(t, y, (w, 2 * w))
        res = float(np.sum(resid ** 2))
        if best is None or res < best[0]:
            best = (res, period, coeffs)
    _, period, coeffs = best
    a, b = coeffs[1], coeffs[2]
    # fundamental a*cos(wt) + b*sin(wt) peaks at wt = atan2(b, a)
    t_peak = math.atan2(b, a) / (2.0 * math.pi / period)
    t_peak %= period
    return float(period), float(t_peak)


def fit_harmonic_components(times, values, angular_frequencies,
                            weights=None):
    """Recover amplitudes of known-frequency harmonics from a time series.

    Linear least squares on offset + sum_i (a_i cos w_i t + b_i sin w_i t);
    optional ``weights`` are per-point standard deviations. Returns
    (offset, [(amplitude, phase, amplitude_stderr), ...]).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    ws = np.asarray(angular_frequencies, dtype=float)
    sig = None if weights is None else np.asarray(weights, dtype=float)
    if sig is not None:
        check("weights", sig, Positive)
    design, coeffs, rank, resid = _harmonic_lstsq(t, y, ws, sig)
    if rank < design.shape[1]:
        raise FitRejectedError("harmonic recovery design is rank deficient")
    dof = max(len(t) - design.shape[1], 1)
    scale = float(np.sum(resid**2)) / dof if weights is None else 1.0
    cov = scale * np.linalg.inv(design.T @ design)
    out = []
    for i in range(len(ws)):
        a, b = coeffs[1 + 2 * i], coeffs[2 + 2 * i]
        amp, phase = _amplitude_phase(a, b)
        va = cov[1 + 2 * i, 1 + 2 * i]
        vb = cov[2 + 2 * i, 2 + 2 * i]
        if amp > 0:
            se = math.sqrt(max((a * a * va + b * b * vb) / (amp * amp), 0.0))
        else:
            se = math.sqrt(max(0.5 * (va + vb), 0.0))
        out.append((float(amp), float(phase), float(se)))
    return float(coeffs[0]), out


def extract_shot_phases(scan: FringeScan, fit: HarmonicFit,
                        min_slope_fraction: float = 0.3):
    """Per-shot phase residuals from a scanned fringe.

    Each measured point is inverted around its commanded phase through the
    local slope of the fitted curve: delta_i = (p_i - fit(Phi_i))/fit'(Phi_i).
    Points where the slope is below ``min_slope_fraction`` of the maximum
    (fringe extrema, where inversion is ill-conditioned) are masked out.
    Returns (deltas, mask).
    """
    slopes = fit.derivative(scan.phase_grid)
    dense = np.linspace(0, 2 * math.pi, 1024, endpoint=False)
    max_slope = float(np.max(np.abs(fit.derivative(dense))))
    if max_slope == 0.0:
        raise ValueError("flat fitted fringe has no phase sensitivity")
    mask = np.abs(slopes) >= min_slope_fraction * max_slope
    deltas = np.zeros(len(scan.phase_grid))
    residuals = scan.normalized - fit.evaluate(scan.phase_grid)
    deltas[mask] = residuals[mask] / slopes[mask]
    return deltas, mask
