"""Independent reference implementations used to check the package.

Everything here deliberately avoids the code paths under test: the loaded
velocity and the liquid density are found by bisection on the residual of
the loading balance (instead of the quartic and quadratic closed-form
roots), closed forms are written from scratch where one exists, and the
resonator S21 is solved one frequency at a time through the literal 2x2
transfer-matrix chain (instead of the closed form evaluated over the
frequency axis), from element matrices written here in scalar ``cmath``,
and by the closed form as the sweep evaluated it before its step tables.
The CSV writers format one value at a time with Python's own ``%.9e``
(instead of the array kernel). The values the loading records derive on
read are given by the formulas that computed them when the records stored
them. Nothing here imports ``fpwsim``.
"""

import cmath
import math

import numpy as np


def bisect_loaded_velocity(bending, areal_mass, tension, density, viscosity,
                           wavelength, steps=200):
    """Loaded phase velocity by bisection on the loading balance residual.

    The viscous areal mass is folded in via the closed form
    sqrt(eta * rho * wavelength / (4 pi v)), equivalent to
    rho * sqrt(2 eta / (omega rho)) / 2 at omega = 2 pi v / wavelength.
    """
    entrain = wavelength / (2.0 * math.pi)

    def residual(v):
        m_eta = 0.0
        if viscosity > 0 and density > 0:
            m_eta = math.sqrt(
                viscosity * density * wavelength / (4.0 * math.pi * v)
            )
        return v * v * (areal_mass + density * entrain + m_eta) - (
            tension + bending
        )

    lo = 1e-6
    hi = 2.0 * math.sqrt((tension + bending) / areal_mass)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def closed_form_density(frequency, bending, areal_mass, tension, wavelength):
    """Inviscid density inversion written out directly."""
    v = frequency * wavelength
    entrain = wavelength / (2.0 * math.pi)
    return ((tension + bending) / v**2 - areal_mass) / entrain


def bisect_density(frequency, bending, areal_mass, tension, viscosity,
                   wavelength, steps=200):
    """Liquid density by bisection on the loading residual at fixed frequency.

    The residual v^2 (M + rho delta_E + M_eta) - (T + B), with v the
    frequency times the wavelength and M_eta = sqrt(eta rho / (4 pi f)),
    rises with rho. Zero density brackets it from below and twice the
    inviscid density (M_eta >= 0) from above.
    """
    v = frequency * wavelength
    entrain = wavelength / (2.0 * math.pi)

    def residual(rho):
        m_eta = math.sqrt(viscosity * rho / (4.0 * math.pi * frequency))
        return v * v * (areal_mass + rho * entrain + m_eta) - (
            tension + bending
        )

    lo = 0.0
    hi = 2.0 * closed_form_density(frequency, bending, areal_mass, tension,
                                   wavelength)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if residual(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def former_solution_values(phase_velocity, viscous_mass, wavelength, liquid):
    """The five derived values of a loaded-velocity solution, by the formulas
    that computed them when the solution stored them. ``liquid`` is None or
    (density, viscosity, covers_decay_length); 1482 m/s is the water sound
    speed of the validity ratio."""
    rho, eta = (0.0, 0.0) if liquid is None else liquid[:2]
    warnings = []
    if liquid is not None and not liquid[2]:
        warnings.append(
            "liquid level below the evanescent decay length; entrained mass "
            "is overestimated and the density reading is unreliable"
        )
    ratio = phase_velocity / 1482.0
    if liquid is not None and ratio > 0.3:
        warnings.append(
            f"phase velocity is {ratio:.2f} of the liquid sound speed; the "
            "evanescent decay-length approximation degrades"
        )
    return {
        "resonant_frequency": phase_velocity / wavelength,
        "evanescent_length": wavelength / (2.0 * math.pi),
        "viscous_length": 2.0 * viscous_mass / rho if eta else 0.0,
        "sound_speed_ratio": ratio,
        "warnings": tuple(warnings),
    }


def former_report_values(viscous_mass, density, wavelength):
    """The coupling report's masses and its three derived values, by the
    formulas that computed them when the report stored them (the viscous
    share limit of density sensing is 0.05)."""
    entrained = density * (wavelength / (2.0 * math.pi))
    ratio = viscous_mass / (viscous_mass + entrained)
    valid = ratio <= 0.05
    return {
        "viscous_mass": viscous_mass,
        "entrained_mass": entrained,
        "ratio": ratio,
        "density_sensing_valid": valid,
        "verdict": "density sensing valid" if valid
        else "coupled; density not invertible from frequency alone",
    }


def bragg_reflection_magnitude(strips, strip_reflectivity):
    """Lossless grating reflection magnitude at the Bragg frequency."""
    return math.tanh(strips * strip_reflectivity)


def lorentzian_magnitude(freqs, center, half_width):
    """|S21| of a single resonance with the given half-power half-width."""
    return [1.0 / math.sqrt(1.0 + ((f - center) / half_width) ** 2)
            for f in freqs]


def launch_amplitude(frequency, lobe, geometry, params):
    """Launch amplitude mu of one IDT port whose array factor is ``lobe``.

    Written out from the transversal model: radiation conductance G =
    |transduction|^2 * Y0 * lobe^2 * aperture in parallel with the static
    capacitance, Y = G + i B, and |mu| = sqrt(2 Y0 G) / |Y0 + Y|, half the
    accepted power 1 - |reflection|^2 = 4 Y0 G / |Y0 + Y|^2 in each
    direction, carrying the sign of the array factor and the phase of the
    transduction strength.
    """
    strength = params.transduction_strength
    if strength == 0 or lobe == 0:
        return 0.0
    port_admittance = 0.02
    aperture = geometry.overlap / 50.0
    capacitance = params.static_capacitance_per_pair * geometry.idt_pairs * aperture
    conductance = abs(strength) ** 2 * port_admittance * lobe**2 * aperture
    admittance = complex(conductance, 2.0 * math.pi * frequency * capacitance)
    magnitude = math.sqrt(2.0 * port_admittance * conductance) / abs(
        port_admittance + admittance
    )
    return magnitude * math.copysign(1.0, lobe) * strength / abs(strength)


def capped_launch_magnitude(frequency, lobe, geometry, params):
    """(|mu|, accepted power 1 - |reflection|^2) by the form the package used
    before the exact one: the reflection (Y0 - Y) / (Y0 + Y) first, then
    |mu|^2 = max(0, 1 - |reflection|^2) / 2, which cancels as |reflection|
    approaches 1."""
    port_admittance = 0.02
    aperture = geometry.overlap / 50.0
    capacitance = params.static_capacitance_per_pair * geometry.idt_pairs * aperture
    conductance = (abs(params.transduction_strength) ** 2 * port_admittance
                   * lobe**2 * aperture)
    admittance = complex(conductance, 2.0 * math.pi * frequency * capacitance)
    reflection = (port_admittance - admittance) / (port_admittance + admittance)
    accepted = 1.0 - abs(reflection) ** 2
    return math.sqrt(max(0.0, accepted) / 2.0), accepted


def idt_port(frequency, geometry, params):
    """Launch amplitude mu of one IDT port, with the array factor sin(x) / x
    over the finger pairs (see ``launch_amplitude``)."""
    center = params.free_velocity / geometry.wavelength
    x = geometry.idt_pairs * math.pi * (frequency - center) / center
    lobe = 1.0 if x == 0 else math.sin(x) / x
    return launch_amplitude(frequency, lobe, geometry, params)


def spacing_matrix(frequency, length, params):
    """Transfer matrix diag(p, 1/p), p = exp(gamma length), of a bare path,
    with gamma = attenuation + i 2 pi f / v."""
    if length < 0:
        raise ValueError("length must be >= 0")
    gamma = params.attenuation + 2j * math.pi * frequency / params.free_velocity
    phase = cmath.exp(gamma * length)
    return np.array([[phase, 0.0], [0.0, 1.0 / phase]], dtype=complex)


def grating_matrix(frequency, geometry, params):
    """Transfer matrix of one uniform grating, from the COM solution.

    In the Bragg frame the amplitudes see the traceless coupling matrix
    A = [[i delta, -i kappa], [i kappa*, -i delta]], with distributed
    reflectivity kappa = 2 r_s exp(i phi) / wavelength and detuning
    delta = beta - 2 pi / wavelength - i alpha. A^2 = sigma^2 I with
    sigma = sqrt(|kappa|^2 - delta^2), so over the grating length L the
    solution is exp(A L) = cosh(sigma L) I + sinh(sigma L) / sigma A (the
    ratio is L at sigma = 0), and the carrier exp(+-i 2 pi L / wavelength)
    returns each column to the wave amplitudes.
    """
    length = geometry.grating_strips * geometry.wavelength / 2.0
    bragg = 2.0 * math.pi / geometry.wavelength
    kappa = (2.0 * params.strip_reflectivity / geometry.wavelength
             * cmath.exp(1j * params.reflection_phase))
    delta = (2.0 * math.pi * frequency / params.free_velocity - bragg
             - 1j * params.attenuation)
    sigma = cmath.sqrt(abs(kappa) ** 2 - delta * delta)
    ch = cmath.cosh(sigma * length)
    sh = length if sigma == 0 else cmath.sinh(sigma * length) / sigma
    solution = np.array([[ch + 1j * delta * sh, -1j * kappa * sh],
                         [1j * kappa.conjugate() * sh, ch - 1j * delta * sh]])
    carrier = cmath.exp(1j * bragg * length)
    return solution @ np.diag([carrier, 1.0 / carrier])


def chain_elements(frequency, geometry, params):
    """Element matrices of the device, left to right, plus the IDT coupling.

    Returns (elements, tau, pickup): the seven 2x2 matrices grating, gap,
    IDT, separation, IDT, gap, grating under W_left = M @ W_right; the
    source column tau the driven IDT injects at its left face; and the
    factor mu / half that turns the amplitudes at an idle IDT into S21.
    The IDT's acoustic block diag(t, 1/t) and tau are written out here.
    """
    gamma = params.attenuation + 2j * math.pi * frequency / params.free_velocity
    mu = idt_port(frequency, geometry, params)
    tap = math.sqrt(1.0 - abs(mu) ** 2)
    full = cmath.exp(gamma * geometry.idt_length)
    half = cmath.exp(gamma * geometry.idt_length / 2.0)
    idt = np.array([[full / tap, 0.0], [0.0, tap / full]], dtype=complex)
    tau = np.array([-mu * half / tap, mu / half], dtype=complex)
    grating = grating_matrix(frequency, geometry, params)
    gap = spacing_matrix(frequency, geometry.grating_gap, params)
    mid = spacing_matrix(frequency, geometry.separation_length, params)
    return (grating, gap, idt, mid, idt, gap, grating), tau, mu / half


def chain_s21(frequency, geometry, params, drive_port=1):
    """S21 at one frequency by solving the 2x2 chain plane by plane.

    Boundary conditions: nothing incident from outside either grating,
    the undriven IDT electrically idle. Returns None when M[0, 0] is zero.
    """
    elements, tau, pickup = chain_elements(frequency, geometry, params)
    g_in, d_in, t_in, d_mid, t_out, d_out, g_out = elements
    overall = g_in @ d_in @ t_in @ d_mid @ t_out @ d_out @ g_out
    source = tau if drive_port == 1 else t_in @ d_mid @ tau
    drive = g_in @ d_in @ source
    if overall[0, 0] == 0:
        return None
    w_right = np.array([-drive[0] / overall[0, 0], 0.0], dtype=complex)
    w5 = d_out @ g_out @ w_right
    w4 = t_out @ w5 + (tau if drive_port == 2 else 0.0)
    w3 = d_mid @ w4
    w2 = t_in @ w3 + (tau if drive_port == 1 else 0.0)
    if drive_port == 1:
        return complex(pickup * (w4[0] + w5[1]))
    return complex(pickup * (w2[0] + w3[1]))


def former_s21(frequencies, geometry, params, drive_port=1):
    """S21 over ``frequencies`` by the closed form the sweep evaluated before
    it read its propagation phases from per-sweep step tables: seven
    transcendentals per point (np.sqrt, np.sinh and np.cosh of the grating,
    three np.exp of the spacings and the half IDT, np.sinc of the array
    factor), each evaluated at every frequency, with the launch amplitude
    in its exact form sqrt(2 Y0 G) / |Y0 + Y|. NaN where the solve is
    singular (zero or non-finite M[0, 0], or a non-finite result)."""
    f = np.asarray(frequencies, dtype=float)
    with np.errstate(all="ignore"):
        # Grating entries g00, g01, g10.
        length = geometry.grating_strips * geometry.wavelength / 2.0
        kappa = (2.0 * params.strip_reflectivity / geometry.wavelength
                 * cmath.exp(1j * params.reflection_phase))
        beta = 2.0 * math.pi * f / params.free_velocity
        bragg = 2.0 * math.pi / geometry.wavelength
        detuning = (beta - bragg) - 1j * params.attenuation
        sigma = np.sqrt(kappa * kappa.conjugate() - detuning * detuning)
        z = sigma * length
        small = np.abs(z) < 1e-9
        stretch = np.where(small, length, np.sinh(z) / np.where(small, 1.0, sigma))
        spread = np.cosh(z)
        carrier = cmath.exp(1j * bragg * length)
        g00 = (spread + 1j * detuning * stretch) * carrier
        g01 = -1j * kappa * stretch / carrier
        g10 = 1j * kappa.conjugate() * stretch * carrier
        # Launch amplitude mu of one IDT port.
        center = params.free_velocity / geometry.wavelength
        x = geometry.idt_pairs * math.pi * (f - center) / center
        lobe = np.sinc(x / math.pi)
        aperture = geometry.overlap / 50.0
        capacitance = (
            params.static_capacitance_per_pair * geometry.idt_pairs * aperture
        )
        susceptance = 2.0 * math.pi * f * capacitance
        strength = params.transduction_strength
        conductance = abs(strength) ** 2 * 0.02 * lobe**2 * aperture
        admittance = conductance + 1j * susceptance
        magnitude = np.sqrt(2.0 * 0.02 * conductance) / np.abs(0.02 + admittance)
        phase = strength / abs(strength) if strength != 0 else 0.0
        mu = magnitude * np.sign(lobe) * phase
        # The chain between the gratings, solved in closed form.
        gamma = params.attenuation + 1j * 2.0 * math.pi * f / params.free_velocity
        pg = np.exp(gamma * geometry.grating_gap)
        pm = np.exp(gamma * (geometry.idt_separation * geometry.wavelength))
        half = np.exp(gamma * (geometry.idt_pairs * geometry.wavelength) / 2.0)
        tap = np.sqrt(1.0 - np.abs(mu) ** 2)
        t = half * half / tap
        tau0 = -mu * half / tap
        tau1 = mu / half
        w = pg * t
        a = w * w * pm
        denom = g00 * g00 * a + g01 * g10 / a
        if drive_port == 1:
            pickup = -(g00 * pg * tau0 + g01 * tau1 / pg) * (w * g00 + g10 / pg)
        else:
            pickup = (
                g01 * (tau0 * g10 / (pg * w) - w * g00 * tau1 / pg)
                + g00 * (tau1 * g00 * w * w - g10 * tau0)
            )
        s21 = mu / half * pickup / denom
        solved = np.isfinite(denom) & (denom != 0) & np.isfinite(s21)
    return np.where(solved, s21, complex(np.nan, np.nan))


def reference_sweep_csv(response, path):
    """Sweep CSV written one row at a time with ``"%.9e" %`` formatting."""
    db = response.magnitude_db()
    with open(path, "w", newline="") as handle:
        handle.write("f_hz,s21_re,s21_im,s21_db\n")
        for f, s, mag_db in zip(response.frequencies, response.s21, db):
            handle.write(
                "%.9e,%.9e,%.9e,%.9e\n" % (f, s.real, s.imag, mag_db)
            )


def reference_csv(path, header, rows):
    """CSV of arbitrary rows, each value in ``"%.9e" %`` formatting."""
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join("%.9e" % value for value in row) + "\n")
