"""Radiometry and detection-budget arithmetic for the two-telescope schemes.

Everything here is scalar bookkeeping: stellar magnitudes to photon rates,
the per-slot figure of merit to accepted-coincidence rates, detector timing
to usable optical bandwidth, and the limiting-magnitude solver that ties the
pieces together.

The default photometric zero point is the I-band value derived from the
standard 2550 Jy flux at magnitude 0, converted to a photon rate per nm at
800 nm: 2550e-26 W m^-2 Hz^-1 * (c/lambda^2) / (hc/lambda) = 4.81e7
photons s^-1 m^-2 nm^-1.

A budget may split its bandwidth into spectral channels.  Each channel gets
its own pair of detectors and its own coincidence logic, so accidental
coincidences are summed per channel while the signal scales with the total
bandwidth.  The single-channel default reproduces the plain two-detector
budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, InfeasibleBudgetError

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# I-band zero point at 800 nm, photons s^-1 m^-2 nm^-1 (derivation above).
DEFAULT_ZERO_POINT = 4.81e7

# Bisection resolution for the limiting magnitude, in magnitudes.
MAGNITUDE_RESOLUTION = 0.01

_SCAN_BRIGHT = -10.0
_SCAN_FAINT = 30.0
_SCAN_STEP = 0.25


def bandwidth_from_timing(wavelength: float, timing: float) -> float:
    """Optical bandwidth (nm) whose coherence time matches a detector timing.

    Delta-lambda = lambda^2 / (2 pi c tau), returned in nm.  Detectors faster
    than the light's coherence time resolve the interference directly, so
    this is the widest filter a given timing jitter can tolerate per channel.
    """
    if wavelength <= 0.0 or timing <= 0.0:
        raise ValueError("wavelength and timing must be positive")
    return wavelength ** 2 / (2.0 * math.pi * SPEED_OF_LIGHT * timing) * 1e9


def coherence_time_from_bandwidth(wavelength: float, bandwidth_nm: float) -> float:
    """Inverse of bandwidth_from_timing: tau = lambda^2 / (2 pi c dl)."""
    if wavelength <= 0.0 or bandwidth_nm <= 0.0:
        raise ValueError("wavelength and bandwidth must be positive")
    return wavelength ** 2 / (2.0 * math.pi * SPEED_OF_LIGHT * bandwidth_nm * 1e-9)


def mode_rate(bandwidth_nm: float, wavelength: float) -> float:
    """Temporal modes per second per polarization in a filtered beam.

    c * dl / lambda^2; the number of photons per mode the interferometer can
    consume sets the pair-source rate needed to saturate it.
    """
    if bandwidth_nm < 0.0:
        raise ValueError("bandwidth must be non-negative")
    if wavelength <= 0.0:
        raise ValueError("wavelength must be positive")
    return SPEED_OF_LIGHT * (bandwidth_nm * 1e-9) / wavelength ** 2


@dataclass(frozen=True)
class SensitivityBudget:
    """Inputs to the detection budget.

    rate and efficiency are the per-slot entangled-state rate r and the
    end-to-end transmission/detection efficiency p of the figure of merit
    s = r * p * bandwidth_nm.  dark_counts_per_s is per detector;
    min_events is the number of accepted coincidences required within one
    atmospheric coherence time for fringe tracking to work.
    """

    wavelength: float = 800e-9
    bandwidth_nm: float = 0.1
    aperture_diameter: float = 1.0
    rate: float = 0.5
    efficiency: float = 0.5
    dark_counts_per_s: float = 100.0
    timing_fwhm: float = 35e-12
    atmospheric_coherence_time: float = 0.010
    min_events: int = 5
    zero_point: float = DEFAULT_ZERO_POINT
    n_channels: int = 1

    def __post_init__(self) -> None:
        positive = ("wavelength", "bandwidth_nm", "aperture_diameter",
                    "timing_fwhm", "atmospheric_coherence_time", "zero_point")
        for name in positive:
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("rate", "efficiency"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.dark_counts_per_s < 0.0:
            raise ConfigError("dark_counts_per_s must be non-negative")
        if self.min_events < 1:
            raise ConfigError("min_events must be at least 1")
        if self.n_channels < 1:
            raise ConfigError("n_channels must be at least 1")
        try:
            finite_area = math.isfinite(self.aperture_area)
        except OverflowError:  # in aperture_diameter ** 2
            finite_area = False
        if not finite_area:
            raise ConfigError(f"aperture_diameter: the area pi * d ** 2 / 4 is not finite, "
                              f"got {self.aperture_diameter!r}")

    @property
    def aperture_area(self) -> float:
        return math.pi * self.aperture_diameter ** 2 / 4.0

    @property
    def merit_nm(self) -> float:
        """Figure of merit s = r * p * total bandwidth, in nm."""
        return self.rate * self.efficiency * self.bandwidth_nm

    @classmethod
    def improved(cls, **overrides: object) -> "SensitivityBudget":
        """Budget with faster, quieter detectors and channelized bandwidth.

        5 ps timing and 10 dark counts/s, with 100 spectral channels each as
        wide as the 5 ps timing allows, so the total bandwidth grows to
        about 6.8 nm.
        """
        timing = 5e-12
        base = cls()
        per_channel = bandwidth_from_timing(base.wavelength, timing)
        budget = replace(base, timing_fwhm=timing, dark_counts_per_s=10.0,
                         n_channels=100, bandwidth_nm=100 * per_channel)
        return replace(budget, **overrides) if overrides else budget


def photon_rate_from_magnitude(magnitude: float,
                               budget: SensitivityBudget) -> float:
    """Astronomical photons per second per nm collected by the aperture."""
    return budget.zero_point * 10.0 ** (-magnitude / 2.5) * budget.aperture_area


def signal_event_rate(merit_nm: float, astro_rate_per_nm: float) -> float:
    """Accepted coincidences per second: half the merit times the photon rate.

    Half of the accepted events land in the correlated class regardless of
    the fringe phase, and the merit s already carries the bandwidth, the
    per-slot pair rate, and the efficiency.
    """
    if merit_nm < 0.0:
        raise ValueError("merit must be non-negative")
    return 0.5 * merit_nm * astro_rate_per_nm


def coincidence_window(budget: SensitivityBudget) -> float:
    """Effective coincidence window in seconds, per spectral channel.

    The wider of the detector timing and the per-channel coherence time of
    the filtered light; a window narrower than either would cut signal.
    """
    per_channel_nm = budget.bandwidth_nm / budget.n_channels
    return max(budget.timing_fwhm,
               coherence_time_from_bandwidth(budget.wavelength, per_channel_nm))


def accidental_rate(budget: SensitivityBudget, astro_rate_total: float,
                    reference_rate_total: float | None = None) -> float:
    """Accidental coincidences per second across all spectral channels.

    Each detector sees dark counts plus its share of the astronomical and
    reference (source-side) photons; uncorrelated counts at the two
    telescopes that fall within one coincidence window fake a coincidence.
    The reference beam runs at roughly the astronomical rate when omitted.
    """
    if reference_rate_total is None:
        reference_rate_total = astro_rate_total
    window = coincidence_window(budget)
    per_channel = (2.0 * budget.dark_counts_per_s
                   + (astro_rate_total + reference_rate_total) / budget.n_channels)
    return budget.n_channels * window * per_channel ** 2


def _feasible(budget: SensitivityBudget, magnitude: float) -> bool:
    """Both constraints at one magnitude.  Where the photon or accidental
    rate leaves the float range, the accidentals exceed any finite signal,
    so the magnitude is infeasible."""
    astro_per_nm = photon_rate_from_magnitude(magnitude, budget)
    signal = signal_event_rate(budget.merit_nm, astro_per_nm)
    astro_total = astro_per_nm * budget.bandwidth_nm
    try:
        noise = accidental_rate(budget, astro_total)
    except OverflowError:  # in per_channel ** 2
        return False
    if not (math.isfinite(astro_total) and math.isfinite(noise)) or signal < noise:
        return False
    per_coherence = signal * budget.atmospheric_coherence_time
    return per_coherence >= budget.min_events


def limiting_magnitude(budget: SensitivityBudget) -> float:
    """Faintest magnitude satisfying both detection constraints.

    Constraint (a): accepted coincidences outpace accidental coincidences.
    Constraint (b): at least min_events accepted events arrive within one
    atmospheric coherence time.  (a) can also fail for very bright sources
    (accidentals grow quadratically with the photon rate), so the feasible
    magnitudes form an interval; the returned value is its faint edge,
    located by bisection to 0.01 mag.
    """
    grid = [_SCAN_BRIGHT + i * _SCAN_STEP
            for i in range(int((_SCAN_FAINT - _SCAN_BRIGHT) / _SCAN_STEP) + 1)]
    flags = [_feasible(budget, m) for m in grid]
    if not any(flags):
        raise InfeasibleBudgetError(
            "no magnitude satisfies the signal-above-accidentals and "
            "events-per-coherence-time constraints; lower dark_counts_per_s "
            "or raise rate/efficiency/bandwidth_nm")
    last = max(i for i, ok in enumerate(flags) if ok)
    lo = grid[last]
    if last == len(grid) - 1:
        return lo
    hi = grid[last + 1]
    while hi - lo > MAGNITUDE_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if _feasible(budget, mid):
            lo = mid
        else:
            hi = mid
    return lo
