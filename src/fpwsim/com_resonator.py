"""Two-port acoustic resonator response from cascaded transfer matrices.

The device is a pair of interdigital transducers (IDTs) between two
reflection gratings. Each element is a transfer matrix acting on the
right- and left-travelling wave amplitudes (W+, W-) at its reference
planes, with the convention

    W_left = [element] @ W_right

so the full device is the left-to-right product

    M = G @ D_gap @ T @ D_mid @ T @ D_gap @ G

of grating (G), spacing (D) and IDT (T, acoustic part) matrices. The
driven IDT additionally injects a source column tau; solving with no
acoustic input from outside the gratings and the output IDT electrically
idle yields the electrical transmission coefficient S21.

Every element between the gratings is diagonal: a spacing of length l is
diag(p, 1/p) with p = exp(gamma l), and an IDT is diag(t, 1/t). The middle
of the chain therefore collapses to diag(a, 1/a), M = G diag(a, 1/a) G,
and the boundary solve and back-substitution reduce to a closed form in
the grating's cosh(sigma l) and sinh(sigma l) / sigma, the launch
amplitude mu and two propagation factors: U over a grating gap and half an
IDT, V over one IDT and the separation. ``s21_sweep`` evaluates that
closed form elementwise over the frequency axis, in blocks of
SWEEP_BLOCK_POINTS points so that the temporaries stay small. Its grid is
uniform, so the phase of exp(gamma l) is linear in the point index k: each
factor is one scalar exp per block times exp(i k dbeta l), read from a
table built once per sweep with one exp per entry. cosh and sinh come from
one exp, E = exp(sigma l) / 2 as E + 1/(4E) and E - 1/(4E), except at the
few band-edge points with |sigma l| < 0.5, where that difference cancels
and np.cosh and np.sinh are used. Each point thus costs one complex exp
and one complex sqrt. A point whose solve is singular (zero or non-finite
denominator, or a non-finite result, as when extreme attenuation
overflows) becomes a NaN gap.

CSV export: ``format_csv_rows`` states the byte contract, every field
exactly ``"%.9e" % value``, and ``write_csv`` how an existing file is
rewritten in place.

Conventions: time factor exp(+i omega t), forward propagation phase
exp(-i beta x). A grating strip sits every half wavelength, so a grating
with N strips spans N * wavelength / 2 and has distributed reflectivity
kappa = 2 |r_s| / wavelength. At the Bragg frequency the grating reflects
with phase +90 deg (for zero strip reflection phase), which places the
standing-wave antinodes on the IDT fingers when the grating-to-IDT gap is
(1/8 + n/2) wavelengths; that gap maximizes the resonant peak.

IDT internal mechanical reflections are neglected (transversal model):
transduction launches waves from the IDT center with a sin(x)/x array
factor over the finger pairs. Each of the two launched waves carries half
the power the electrical port accepts: with port admittance Y = G + i B
and reference Y0, |mu| = sqrt(2 Y0 G) / |Y0 + Y|, so 2 |mu|^2 = 1 -
|reflection|^2 exactly. The acoustic through-path is propagation scaled
by sqrt(1 - |mu|^2), the energy the electrical tap removes per pass. A
no-regeneration IDT is not passive: a little more cavity or transduction
than the reference device's (peak |S21| 0.745) lifts the peak above 1
(1.03 at transduction 0.6, 1.73 at strip reflectivity 0.05), and ``fpwsim
s21`` then warns.
"""

from __future__ import annotations

import cmath
import math
import os
import stat
from dataclasses import dataclass, field, replace
from fractions import Fraction
import numpy as np

from .fpw_dispersion import LoadingState, loaded_velocity
from .plate_materials import CompositePlate

# Electrical reference admittance of the measurement ports (1/50 ohm).
PORT_ADMITTANCE = 0.02

DEFAULT_STRIP_REFLECTIVITY = 0.02
DEFAULT_TRANSDUCTION = 0.4
DEFAULT_CAPACITANCE_PER_PAIR = 1.0e-12
DEFAULT_SWEEP_POINTS = 2001
DEFAULT_SWEEP_SPAN = 0.1  # sweep f0 * [1 - span, 1 + span]

# Aperture (in wavelengths) at which the transduction normalization is 1.
REFERENCE_OVERLAP = 50.0

# Sweep points evaluated together; bounds the size of the temporaries.
SWEEP_BLOCK_POINTS = 2048


class NoResonanceError(ValueError):
    """The frequency response has no usable interior peak."""


@dataclass(frozen=True)
class DeviceGeometry:
    """Layout of the two-port resonator.

    wavelength and grating_gap in m; overlap and idt_separation in
    multiples of the wavelength. ``grating_strips = 0`` removes the
    gratings entirely (delay-line configuration). ``grating_gap`` is the
    spacing between each grating and its adjacent IDT, applied on both
    sides. ``idt_pairs`` and ``grating_strips`` are whole numbers.
    """

    wavelength: float
    idt_pairs: int = 20
    grating_strips: int = 40
    overlap: float = 50.0
    idt_separation: float = 10.0
    grating_gap: float = 5.0e-6

    def __post_init__(self):
        if not 0 < self.wavelength < math.inf:
            raise ValueError("wavelength must be > 0")
        if not 1 <= self.idt_pairs < math.inf:
            raise ValueError("idt_pairs must be >= 1")
        if int(self.idt_pairs) != self.idt_pairs:
            raise ValueError("idt_pairs must be a whole number")
        if not 0 <= self.grating_strips < math.inf:
            raise ValueError("grating_strips must be >= 0")
        if int(self.grating_strips) != self.grating_strips:
            raise ValueError("grating_strips must be a whole number")
        if not 0 < self.overlap < math.inf:
            raise ValueError("overlap must be > 0")
        if not 0 <= self.idt_separation < math.inf:
            raise ValueError("idt_separation must be >= 0")
        if not 0 <= self.grating_gap < math.inf:
            raise ValueError("grating_gap must be >= 0")

    @property
    def idt_length(self) -> float:
        """Acoustic length of one IDT (m), one wavelength per finger pair."""
        return self.idt_pairs * self.wavelength

    @property
    def separation_length(self) -> float:
        """Distance between the two IDTs (m)."""
        return self.idt_separation * self.wavelength

    @property
    def grating_length(self) -> float:
        """Length of one grating (m), one strip every half wavelength."""
        return self.grating_strips * self.wavelength / 2.0


@dataclass(frozen=True)
class ComParameters:
    """Coupling-of-modes and electrical parameters of the device.

    free_velocity in m/s; strip_reflectivity is the per-strip reflection
    magnitude |r_s| (reflection_phase carries its phase, radians);
    transduction_strength is the launched acoustic amplitude per unit
    incident voltage wave at the reference aperture; attenuation in Np/m.
    """

    free_velocity: float
    strip_reflectivity: float = DEFAULT_STRIP_REFLECTIVITY
    reflection_phase: float = 0.0
    transduction_strength: complex = DEFAULT_TRANSDUCTION
    static_capacitance_per_pair: float = DEFAULT_CAPACITANCE_PER_PAIR
    attenuation: float = 0.0

    def __post_init__(self):
        if not 0 < self.free_velocity < math.inf:
            raise ValueError("free_velocity must be > 0")
        if not 0 <= self.strip_reflectivity < 0.2:
            raise ValueError("strip_reflectivity magnitude must lie in [0, 0.2)")
        if not math.isfinite(self.reflection_phase):
            raise ValueError("reflection_phase must be finite")
        if not abs(self.transduction_strength) < 1.0:
            raise ValueError(
                "normalized transduction_strength magnitude must be < 1"
            )
        if not 0 <= self.static_capacitance_per_pair < math.inf:
            raise ValueError("static_capacitance_per_pair must be >= 0")
        if not 0 <= self.attenuation < math.inf:
            raise ValueError("attenuation must be >= 0")


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex S21 over a strictly increasing frequency grid.

    ``gap_indices`` marks sweep points where the boundary solve was
    singular; their s21 entries are NaN.
    """

    frequencies: np.ndarray
    s21: np.ndarray
    gap_indices: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.frequencies) != len(self.s21):
            raise ValueError("frequency and s21 arrays differ in length")
        if len(self.frequencies) == 0:
            raise ValueError("frequency response is empty")
        if not np.all(np.isfinite(self.frequencies)):
            raise ValueError("frequencies must be finite")
        if np.any(np.diff(self.frequencies) <= 0):
            raise ValueError("frequencies must be strictly increasing")

    def magnitude_db(self) -> np.ndarray:
        """20 log10 |S21| per point (dB)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return 20.0 * np.log10(np.abs(self.s21))


@dataclass(frozen=True)
class ResonanceSummary:
    """Peak location and shape extracted from a frequency response."""

    peak_frequency: float
    peak_magnitude: float
    bandwidth_3db: float

    @property
    def insertion_loss_db(self) -> float:
        """20 log10 of the peak |S21| (dB)."""
        return 20.0 * math.log10(self.peak_magnitude)

    @property
    def quality_factor(self) -> float:
        """Loaded Q: peak frequency over the -3 dB bandwidth."""
        return self.peak_frequency / self.bandwidth_3db


def design_spacing(index: int, wavelength: float) -> float:
    """Grating-to-IDT gap (1/8 + index/2) * wavelength for a sharp peak (m)."""
    if not 0 <= index < math.inf or int(index) != index:
        raise ValueError("spacing index must be a non-negative integer")
    if not 0 < wavelength < math.inf:
        raise ValueError("wavelength must be > 0")
    try:
        gap = (0.125 + 0.5 * index) * wavelength
    except OverflowError:  # an int index beyond the float range
        gap = math.inf
    if gap == math.inf:
        raise ValueError(
            "designed grating gap (1/8 + spacing index/2) * wavelength "
            "must be finite"
        )
    return gap


def _exact_center(geometry: DeviceGeometry, params: ComParameters):
    """(f0, f0_low): f0 = v / wavelength and the rest of the exact quotient."""
    f0 = params.free_velocity / geometry.wavelength
    exact = Fraction(params.free_velocity) / Fraction(geometry.wavelength)
    return f0, float(exact - Fraction(f0)) if f0 < math.inf else 0.0


def _grating_terms(frequencies, geometry, params, center):
    """(g00 / c, sinh(z) / sigma, kappa, c) of one grating, z = sigma * length:
    g00 / c = cosh z + q sinh(z) / sigma per frequency, the distributed
    reflectivity kappa = 2 r_s / wavelength * exp(i reflection_phase) and the
    carrier c = exp(i beta_0 length).

    q = i * detuning = attenuation + i (beta - beta_0) and sigma =
    sqrt(|kappa|^2 + q^2). beta - beta_0 is formed as 2 pi (f - f0) / v,
    with f0 = v / wavelength carried to twice double precision in
    ``center``, the sweep's ``_exact_center``, so that it keeps the digits f
    and f0 share; beta and beta_0 rounded apart and then subtracted lose
    them near the stopband, where the response is sensitive to the
    detuning. Both hyperbolics come from one exp: with E =
    exp(z) / 2, cosh z = E + 1/(4E) and sinh z = E - 1/(4E). Re z >= 0, so
    |E| >= 1/2 and 1/(4E) never overflows. Where |z| < 0.5 the difference
    cancels; those points (a few at the band edges, or all of them when
    there are no strips) take np.cosh and np.sinh.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    length = geometry.grating_length
    bragg = 2.0 * math.pi / geometry.wavelength
    magnitude = 2.0 * params.strip_reflectivity / geometry.wavelength
    f0, f0_low = center
    q = np.empty(frequencies.shape, dtype=complex)
    q.real = params.attenuation
    q.imag = frequencies - f0
    q.imag -= f0_low
    q.imag *= 2.0 * math.pi / params.free_velocity
    sigma = np.sqrt(q * q + magnitude * magnitude)
    z = sigma * length
    grow = np.exp(z)
    grow *= 0.5
    decay = 0.25 / grow
    spread = grow + decay
    grow -= decay
    stretch = np.divide(grow, sigma, out=grow)
    near = np.flatnonzero(np.abs(z) < 0.5)
    if near.size:
        z = z[near]
        spread[near] = np.cosh(z)
        # sinh(z)/sigma -> length as z -> 0; below |z| = 1e-9 the series
        # correction is under half an ulp.
        small = np.abs(z) < 1e-9
        stretch[near] = np.where(
            small, length, np.sinh(z) / np.where(small, 1.0, sigma[near])
        )
    spread += q * stretch
    kappa = magnitude * cmath.exp(1j * params.reflection_phase)
    return spread, stretch, kappa, cmath.exp(1j * bragg * length)


def grating_scattering(
    frequency: float, geometry: DeviceGeometry, params: ComParameters
) -> tuple[complex, complex]:
    """(reflection, transmission) of one grating for waves incident on it.

    Referenced at the grating face, from the transfer-matrix entries g00
    and g10: reflection g10 / g00, transmission 1 / g00. Hyperbolic
    (strongly reflective) inside the stopband |beta - beta_0| < kappa,
    oscillatory outside; zero strips give total transmission. At the Bragg
    frequency the lossless reflection magnitude is tanh(N |r_s|) with phase
    +90 deg for zero reflection phase.
    """
    if not 0 < frequency < math.inf:
        raise ValueError("frequency must be finite and > 0")
    shape, stretch, kappa, carrier = _grating_terms(
        [frequency], geometry, params, _exact_center(geometry, params)
    )
    g00 = shape * carrier
    g10 = stretch * (1j * kappa.conjugate() * carrier)
    return g10[0] / g00[0], 1.0 / g00[0]


def _launch_amplitude(frequencies, f0, geometry, params):
    """Launch amplitude mu of one IDT port at each of ``frequencies``, an
    array, with the synchronous frequency f0 = v / wavelength of the sweep's
    ``_exact_center``.

    The finger pairs launch with the array factor sin(x)/x, x = pairs pi (f
    - f0) / f0: unity at f0, first nulls at f0 (1 +- 1/pairs). The port sees
    a radiation conductance G = |transduction|^2 Y0 scaled by the squared
    array factor and the aperture, in parallel with the static finger
    capacitance: Y = G + i B against the reference Y0 = PORT_ADMITTANCE. It
    accepts the power 1 - |reflection|^2 = 4 Y0 G / |Y0 + Y|^2 and radiates
    it in equal halves, so |mu| = sqrt(2 Y0 G) / |Y0 + Y| <= 1 / sqrt(2),
    passive for any parameter values. As sqrt(2 Y0 G) = Y0 |transduction|
    |array factor| sqrt(2 aperture), mu is computed as sqrt(2 aperture) Y0
    transduction (array factor) / |Y0 + Y|: the transduction carries the
    phase and the array factor the sign, and zero transduction or an
    array-factor null launches nothing.
    """
    x = geometry.idt_pairs * math.pi * (frequencies - f0) / f0
    lobe = np.sinc(x / math.pi)
    aperture = geometry.overlap / REFERENCE_OVERLAP
    capacitance = (
        params.static_capacitance_per_pair * geometry.idt_pairs * aperture
    )
    susceptance = frequencies * (2.0 * math.pi * capacitance)
    strength = params.transduction_strength
    # |Y0 + Y| = hypot(Y0 + G, B), formed in one block-sized array.
    load = lobe * lobe
    load *= abs(strength) ** 2 * PORT_ADMITTANCE * aperture
    load += PORT_ADMITTANCE
    np.hypot(load, susceptance, out=load)
    scale = math.sqrt(2.0 * aperture) * PORT_ADMITTANCE * strength
    return scale * lobe / load


def _phase_steps(beta, step, attenuation, length, points):
    """exp(gamma l) and exp(-gamma l), gamma = attenuation + i beta_k, over
    the grid beta_k = beta + k step, one block of SWEEP_BLOCK_POINTS at a
    time.

    Each block is the scalar exp(+-gamma l) at its first point times the
    table exp(+-i k step l), k < SWEEP_BLOCK_POINTS, whose every entry is its
    own exp: no running product, so the phase error stays at a few ulp of
    k step l. The scalars are numpy exps, so overflow gives inf, not an
    OverflowError.
    """
    k = np.arange(min(points, SWEEP_BLOCK_POINTS))
    ahead = np.exp(1j * (k * step * length))
    back = ahead.conj()
    for start in range(0, points, SWEEP_BLOCK_POINTS):
        count = min(points - start, SWEEP_BLOCK_POINTS)
        first = np.complex128(complex(attenuation, beta + start * step) * length)
        yield np.exp(first) * ahead[:count], np.exp(-first) * back[:count]


def _s21_block(frequencies, geometry, params, center, drive_port, u, v):
    """Closed-form S21 at each frequency; NaN where the solve is singular.

    ``center`` is the sweep's ``_exact_center``. ``u`` is (U, 1/U) with U
    = exp(gamma l) over a grating gap and half an IDT; ``v`` is (V, 1/V)
    over one IDT and the separation. The middle of the chain collapses to
    diag(a, 1/a) with a = (U / tap)^2 V, where tap = sqrt(1 - |mu|^2) is the
    IDT's tap transmission, so M[0, 0] = g00^2 a + g01 g10 / a. The grating
    carrier c = exp(i beta_0 length) enters only as kappa / c^2. With e =
    g00 U / (c tap) and p = sinh(sigma l) / (sigma U),

        M[0, 0] / c^2 = e^2 V + (kappa / c^2) kappa* p^2 tap^2 / V,

    and S21 = mu^2 N / (M[0, 0] / c^2). N is formed as a numerator over
    M[0, 0] and divided once, so that no intermediate amplitude underflows
    under strong loss.
    """
    shape, stretch, kappa, carrier = _grating_terms(
        frequencies, geometry, params, center
    )
    mu = _launch_amplitude(frequencies, center[0], geometry, params)
    turned = kappa / (carrier * carrier)
    size = np.abs(mu)
    tap2 = 1.0 - size**2
    tap = np.sqrt(tap2)
    e = shape * u[0] / tap
    p = stretch * u[1]
    e2 = e * e
    cross = p * p * (turned * kappa.conjugate())  # g01 g10 / (c U)^2
    denom = e2 * v[0] + cross * tap2 * v[1]
    if drive_port == 1:
        # The wave leaving the output grating times what the idle IDT
        # picks up from it.
        pickup = (e + 1j * turned * p) * (e + 1j * kappa.conjugate() * p)
    else:
        # The same product expanded: the back-substitution from the driven
        # port-2 IDT, with the separation's exp(+-gamma l) cancelled.
        pickup = e2 - cross + shape * stretch / tap * (
            1j * (kappa.conjugate() + turned)
        )
    s21 = mu * mu * pickup / denom
    # Where 0 < |mu| < 2^-511, mu * mu falls below the normal range and
    # loses digits of an S21 that pickup / denom lifts back up; there mu
    # multiplies last.
    tiny = np.flatnonzero((size > 0.0) & (size < 2.0**-511))
    if tiny.size:
        faint = mu[tiny]
        s21[tiny] = faint * (faint * pickup[tiny] / denom[tiny])
    solved = np.isfinite(denom) & np.isfinite(s21)
    s21[~solved] = complex(np.nan, np.nan)
    return s21


def s21_sweep(
    geometry: DeviceGeometry,
    params: ComParameters,
    f_start: float | None = None,
    f_stop: float | None = None,
    points: int = DEFAULT_SWEEP_POINTS,
    drive_port: int = 1,
) -> FrequencyResponse:
    """Electrical S21 over a uniform frequency grid.

    Defaults to the +-10% window around the synchronous frequency.
    ``drive_port`` selects which IDT is driven (1 = nearer the low-index
    grating). Frequencies where the boundary solve is singular are
    recorded as NaN gaps and the sweep continues.
    """
    if points < 2:
        raise ValueError("points must be >= 2")
    f0, f0_low = _exact_center(geometry, params)
    if f_start is None:
        f_start = f0 * (1.0 - DEFAULT_SWEEP_SPAN)
    if f_stop is None:
        f_stop = f0 * (1.0 + DEFAULT_SWEEP_SPAN)
    if not 0 < f_start < f_stop:
        raise ValueError("need 0 < f_start < f_stop")
    if f_stop == math.inf:
        raise ValueError("f_stop must be finite")

    if drive_port not in (1, 2):
        raise ValueError("drive_port must be 1 or 2")

    frequencies = np.linspace(f_start, f_stop, points)
    s21 = np.empty(points, dtype=complex)
    # beta at the first point and per point of the uniform grid.
    wavenumber = 2.0 * math.pi / params.free_velocity
    beta = wavenumber * f_start
    step = wavenumber * (f_stop - f_start) / (points - 1)
    idt = geometry.idt_length
    # Overflow at extreme attenuation lands in the gaps, not in warnings.
    with np.errstate(all="ignore"):
        blocks = zip(
            range(0, points, SWEEP_BLOCK_POINTS),
            _phase_steps(beta, step, params.attenuation,
                         geometry.grating_gap + idt / 2.0, points),
            _phase_steps(beta, step, params.attenuation,
                         idt + geometry.separation_length, points),
        )
        for start, u, v in blocks:
            block = slice(start, start + SWEEP_BLOCK_POINTS)
            s21[block] = _s21_block(
                frequencies[block], geometry, params, (f0, f0_low), drive_port, u, v
            )
    return FrequencyResponse(
        frequencies=frequencies,
        s21=s21,
        gap_indices=tuple(np.flatnonzero(np.isnan(s21)).tolist()),
    )


def _crossing(freqs, mags, i_from, i_to, target):
    """Linear interpolation of the frequency where |S21| crosses target;
    mags[i_from] <= target < mags[i_to], so the two never tie."""
    f1, f2 = freqs[i_from], freqs[i_to]
    m1, m2 = mags[i_from], mags[i_to]
    return f1 + (target - m1) * (f2 - f1) / (m2 - m1)


def find_resonance(response: FrequencyResponse) -> ResonanceSummary:
    """Locate the global |S21| peak and its -3 dB bandwidth.

    Gap points are dropped first, so each -3 dB crossing is interpolated
    between neighbouring finite points. Raises NoResonanceError for flat
    responses, for peaks sitting on the sweep boundary (monotone
    responses), when a -3 dB crossing is not bracketed inside the sweep,
    and unless the bandwidth is positive and finite with a finite Q.
    """
    freqs, mags = response.frequencies, np.abs(response.s21)
    valid = np.isfinite(mags)
    if not valid.all():
        freqs, mags = freqs[valid], mags[valid]
    if len(mags) == 0:
        raise NoResonanceError("response contains no finite points")
    peak = int(np.argmax(mags))
    peak_mag = float(mags[peak])
    if float(np.min(mags)) == peak_mag:
        raise NoResonanceError("response is flat; no resonance to extract")
    # An end finite point is the sweep boundary only if the sweep ends
    # there; past a gap, its crossing is left unbracketed instead.
    if (peak == 0 and valid[0]) or (peak == len(mags) - 1 and valid[-1]):
        raise NoResonanceError("|S21| maximum sits on the sweep boundary")

    target = peak_mag / math.sqrt(2.0)
    below = mags <= target
    outward_left, outward_right = below[:peak][::-1], below[peak + 1:]
    if not (np.any(outward_left) and np.any(outward_right)):
        raise NoResonanceError("-3 dB bandwidth is not bracketed by the sweep")
    # The points below -3 dB nearest the peak; each crossing lies between
    # one of them and its neighbour toward the peak.
    i_left = peak - 1 - int(np.argmax(outward_left))
    i_right = peak + 1 + int(np.argmax(outward_right))
    left = _crossing(freqs, mags, i_left, i_left + 1, target)
    right = _crossing(freqs, mags, i_right, i_right - 1, target)

    summary = ResonanceSummary(float(freqs[peak]), peak_mag, float(right - left))
    if not (0 < summary.bandwidth_3db < math.inf
            and math.isfinite(summary.quality_factor)):
        raise NoResonanceError(
            f"-3 dB bandwidth {summary.bandwidth_3db} is not a positive "
            "finite width with a finite Q"
        )
    return summary


# Tables of format_csv_rows: words of ASCII bytes, little-endian.
_DIGITS = np.arange(48, 58)  # "0" to "9"
_QUAD = (  # "%04d" % n
    _DIGITS[:, None, None, None] | _DIGITS[:, None, None] << 8
    | _DIGITS[:, None] << 16 | _DIGITS << 24
).ravel()
_HIGH_QUAD = _QUAD << 32  # the same at bytes 4-7
# "d.d" of n at bytes 1-3; n = 100 comes only from fallback values.
_LEAD = np.append((_DIGITS[:, None] << 8 | 46 << 16 | _DIGITS << 24).ravel(), 0)
_e = np.arange(-100, 101)  # the tables below are indexed by e + 100
# 10^(9 - e), each correctly rounded (10.0**k is not, for some k).
_POW10 = np.array([float("1e%d" % (9 - e)) for e in _e.tolist()])
_EXP = (  # "e", sign, tens and units digit of the exponent at bytes 12-15
    101 | np.where(_e < 0, 45, 43) << 8
    | (48 + abs(_e) // 10 % 10) << 16 | (48 + abs(_e) % 10) << 24
) << 32
del _e


def format_csv_rows(values) -> bytes:
    """CSV bytes of a 2-D float array: one line per row, fields joined by
    commas, each field exactly the bytes of ``"%.9e" % value``, so identical
    inputs give identical files.

    Each value fills a 17-byte field of a structured array: two little-endian
    words looked up in tables built at import, then the separator. Bytes 0-7
    hold the sign or a NUL, the first digit, ``.`` and five digits, bytes 8-15
    four digits, ``e``, the exponent sign and its two digits. NULs are dropped
    at the end. The words hold |x| in [1e-99, 9.9999999995e99), the values
    with a two-digit exponent. Their ten digits are whole = rint(m), m = |x|
    10^(9 - e), e = floor(log10 |x|), split by integer division; m's error is
    below 3e-6, so whole is exact unless m is near a half-way point. log10
    misses the decade only within a few ulp of a power of ten 10^k, where the
    text is 1.000000000e±k: below 10^k, e = k gives whole = 1e9 and that
    text; at or above it, e = k - 1 gives whole >= 1e10 - 1. Other values
    (non-finite, zero, out of range, m within 1e-4 of a half-way point, or
    whole outside [1e9, 1e10 - 1)) take ``"%.9e" % value``, NUL padded. Only
    a negative value with a three-digit exponent has 17 characters; it widens
    every field of its block to 18 bytes, the extra byte 0.
    """
    values = np.asarray(values, dtype=float)
    rows, columns = values.shape
    flat = values.reshape(-1)
    size = np.abs(flat)
    fast = (size >= 1e-99) & (size < 9.9999999995e99)
    size = np.where(fast, size, 1.0)
    exponent = np.floor(np.log10(size)).astype(np.intp)
    mantissa = size * _POW10[exponent + 100]  # 10^(9 - e)
    whole = np.rint(mantissa)
    fast &= (np.abs(mantissa - whole) <= 0.4999) & (whole >= 1e9) & (whole < 1e10 - 1)
    slow = np.flatnonzero(~fast)
    texts = [b"%.9e" % x for x in flat[slow].tolist()]
    width = max([17] + [len(text) + 1 for text in texts])
    low = whole.astype(np.int64)
    top = low // 100000000
    low -= top * 100000000
    middle = low // 10000
    low -= middle * 10000
    field = {"names": ["a", "b", "c"], "formats": ["<i8", "<i8", "u1"],
             "offsets": [0, 8, width - 1], "itemsize": width}
    packed = (np.empty if width == 17 else np.zeros)(flat.size, dtype=field)
    packed["a"] = _LEAD[top] | _HIGH_QUAD[middle] | (flat < 0) * ord("-")
    packed["b"] = _QUAD[low] | _EXP[exponent + 100]
    packed["c"] = ord(",")
    grid = packed.view(np.uint8).reshape(flat.size, width)
    grid.reshape(rows, columns, width)[:, -1, -1] = ord("\n")
    texts = b"".join([text.ljust(width - 1, b"\0") for text in texts])
    grid[slow, :-1] = np.frombuffer(texts, dtype=np.uint8).reshape(-1, width - 1)
    return grid.tobytes().replace(b"\0", b"")


def _keep_contents(path, flags):
    """``os.open`` opener that leaves an existing file's bytes in place."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and one ``format_csv_rows`` line per entry of the
    equal-length 1-D ``columns``, SWEEP_BLOCK_POINTS rows at a time.

    An existing file is written over in place and then cut to the length
    written, not truncated when opened: on ext4, closing a file that was
    truncated to zero and written again starts writeback of the whole file
    inside close(). When this returns the file holds exactly the new bytes.
    After any exception, KeyboardInterrupt included, it holds exactly the
    new bytes written so far, as a truncating open would leave it. Only a
    hard kill mid-write differs: the file then holds the new head followed
    by the old file's tail. Neither form is atomic or synced to disk. Paths
    that are not regular files, such as /dev/null, are written and never
    cut.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    if len({len(column) for column in columns}) != 1:
        raise ValueError("CSV columns differ in length")
    rows = len(columns[0])
    block = np.empty((min(rows, SWEEP_BLOCK_POINTS), len(columns)))
    with open(path, "wb", opener=_keep_contents) as handle:
        try:
            handle.write(header.encode() + b"\n")
            for start in range(0, rows, SWEEP_BLOCK_POINTS):
                count = min(rows - start, SWEEP_BLOCK_POINTS)
                for j, column in enumerate(columns):
                    block[:count, j] = column[start:start + count]
                handle.write(format_csv_rows(block[:count]))
        finally:
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                # Cut at what reached the file, also when this flush fails.
                try:
                    handle.flush()
                finally:
                    os.ftruncate(handle.fileno(), handle.raw.tell())


def write_sweep_csv(response: FrequencyResponse, path) -> None:
    """Export a sweep as CSV: ``f_hz,s21_re,s21_im,s21_db``, one row per
    point.

    Fields are written by ``format_csv_rows``: ``nan`` in gap rows, and
    ``-inf`` dB where S21 is exactly 0.
    """
    s21 = response.s21
    write_csv(
        path,
        "f_hz,s21_re,s21_im,s21_db",
        (response.frequencies, s21.real, s21.imag, response.magnitude_db()),
    )


def fpw_device_response(
    plate: CompositePlate,
    loading: LoadingState,
    geometry: DeviceGeometry,
    params: ComParameters,
    f_start: float | None = None,
    f_stop: float | None = None,
    points: int = DEFAULT_SWEEP_POINTS,
    include_viscous_loss: bool = False,
) -> FrequencyResponse:
    """Resonator sweep using the flexural-plate-wave velocity of the membrane.

    The plate-and-loading phase velocity replaces the free velocity (the
    response is evaluated at the design wavelength, dispersion across the
    sweep neglected). With ``include_viscous_loss`` the viscous entrained
    mass also adds a propagation loss term.
    """
    solution = loaded_velocity(plate, loading, geometry.wavelength)
    attenuation = params.attenuation
    if include_viscous_loss and solution.viscous_mass > 0.0:
        liquid = loading.liquid
        total_mass = (
            plate.mass_per_area
            + liquid.density * solution.evanescent_length
            + solution.viscous_mass
        )
        wavenumber = 2.0 * math.pi / geometry.wavelength
        attenuation = attenuation + wavenumber * solution.viscous_mass / (
            2.0 * total_mass
        )
    updated = replace(
        params, free_velocity=solution.phase_velocity, attenuation=attenuation
    )
    return s21_sweep(geometry, updated, f_start, f_stop, points)
