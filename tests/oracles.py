"""Test-only references: for the Bessel power series the loop that masks out
each element once its own sum has converged, and for the recurrence above
the series cut the Miller loop of one order and one argument; for the tube
closed forms a fixed-step RK4 integrator, the right-hand side of the seeded
balance equation and the unseeded closed form written exactly as quoted;
for the tube runner the chain taken one sampled section profile at a time;
for the zero-amplitude limit of the cross section the Klein-Nishina formula
(rest-frame formula plus exact boost) and the photon content of the laser
wave; for the flux factor the prefactor of the transition rate; for the
blocked harmonic sum the same sum of squares taken one harmonic at a time
and the coefficient-table form of each term, summed the same way; for the
angular sweep the sweep that evaluates harmonic 1 a second time beside the
sum; for the polarization basis and the spin-keep vector the forms that
stack their columns and join real and imaginary parts from temporaries;
for the tube report's rows a '%.11e' writer that takes one row at a time."""

import math

import numpy as np

from qfel import physcore
from qfel.amplitudes import (PolarizationBasis, _flip_components,
                             _keep_components, outgoing_polarization)
from qfel.beamfield import ElectronBeam, LaserField
from qfel.emission import (_TRUNCATION_RTOL, DEFAULT_HARMONIC_MAX,
                           AngularSpectrum, averaged_cross_section)
from qfel.errors import DomainError, NumericError
from qfel.kinematics import solve_final_state
from qfel.tube import (_UNIT_TENSION_NOTE, SOFT_GAMMA_MAX_NM,
                       SOFT_GAMMA_MIN_NM, MultiSectionResult, TubeConfig,
                       TubeProfile, density_compton_to_si,
                       density_si_to_compton, evolve_seeded,
                       gain_coefficient, output_intensity)


def integrate_ode(rhs, y0, span, steps):
    """Classic fixed-step RK4; returns (l_samples, y_samples) arrays.

    Global error is O(h^4).  NaN from the right-hand side aborts.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    l0, l1 = span
    h = (l1 - l0) / steps
    ls = np.empty(steps + 1)
    ys = np.empty(steps + 1)
    ls[0], ys[0] = l0, y0
    y = float(y0)
    for i in range(steps):
        l = l0 + i * h
        k1 = rhs(l, y)
        k2 = rhs(l + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(l + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(l + h, y + h * k3)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y):
            raise NumericError(f"ODE state became non-finite at l={l + h}")
        ls[i + 1] = l0 + (i + 1) * h
        ys[i + 1] = y
    return ls, ys


def evolve_analytic(config: TubeConfig, samples=200):
    """Unseeded closed form, written exactly as the quoted solution with the
    sqrt(n0^2 + 6 n0 + 1) combination; cross-checks the seeded reduction."""
    if config.seed != 0.0:
        raise DomainError("the unseeded solution requires a zero photon seed")
    n0 = config.n0
    ls = np.linspace(0.0, config.length_m, max(int(samples), 2))
    if n0 == 0.0:
        flat = np.zeros_like(ls)
        return TubeProfile(l_m=ls, n=flat.copy(), n_prime=flat.copy(),
                           photon=flat.copy(), asymptote=0.0)
    q = math.sqrt(n0 * n0 + 6.0 * n0 + 1.0)
    with np.errstate(over="ignore", under="ignore"):
        ex = np.exp(-q * config.gain * ls / physcore.COMPTON_WAVELENGTH_M)
    den = (q - n0 + 1.0) + (q + n0 - 1.0) * ex
    n = n0 * ((q - n0 - 1.0) + (q + n0 + 1.0) * ex) / den
    photon = 2.0 * n0 * (1.0 - ex) / den
    return TubeProfile(l_m=ls, n=n, n_prime=n0 - n, photon=photon,
                       asymptote=2.0 * n0 / (q - n0 + 1.0))


def run_multi_section_per_section(beam: ElectronBeam, laser: LaserField,
                                  section_length_m, sections, seed_m3=0.0,
                                  cycles=1, efficiency=1.0):
    """``run_multi_section`` with one ``evolve_seeded`` call per section and
    cycle: every section's sampled profile is built, and the photon
    density at its last sample seeds the next section.  The last cycle's
    profiles are stacked into one block."""
    if sections < 1 or cycles < 1 or not 0.0 <= efficiency <= 1.0:
        raise DomainError("invalid section count, cycle count or efficiency")
    if not beam.density_m3 > 0.0:
        raise DomainError("multi-section run requires a positive beam density")
    a, gain_length = gain_coefficient(beam, laser)
    kp_mev = physcore.from_natural_energy(
        solve_final_state(math.pi, 1, beam, laser).k_prime)
    n0_si = beam.density_m3
    n0 = density_si_to_compton(n0_si)
    for _ in range(cycles):
        seed = first_seed = density_si_to_compton(seed_m3)
        profiles = []
        for _ in range(sections):
            cfg = TubeConfig(length_m=section_length_m, gain=a, n0=n0,
                             seed=seed)
            prof = evolve_seeded(cfg)
            profiles.append(prof)
            seed = float(prof.photon[-1])
        exact_si = density_compton_to_si(seed)
        seed_m3 = exact_si * efficiency
    headline_si = density_compton_to_si(first_seed) + 0.5 * n0_si * sections
    converted = float(profiles[0].photon[-1] - first_seed)
    notes = [_UNIT_TENSION_NOTE.format(frac=converted / n0 if n0 > 0 else 0.0)]
    if cycles > 1:
        lam_nm = physcore.wavelength_from_photon_energy(kp_mev * 1e6)
        if not SOFT_GAMMA_MIN_NM <= lam_nm <= SOFT_GAMMA_MAX_NM:
            notes.append(
                f"emitted wavelength {lam_nm:.4g} nm is outside the "
                "Bragg-reflectable soft-gamma band (0.05-1 nm); the cyclic "
                "geometry is not realizable at this energy")
    block = TubeProfile(
        l_m=profiles[0].l_m,
        **{field: np.array([getattr(p, field) for p in profiles])
           for field in ("n", "n_prime", "photon", "asymptote")})
    return MultiSectionResult(
        profile=block, photon_density_m3=exact_si,
        headline_photon_density_m3=headline_si,
        intensity_w_m2=output_intensity(exact_si, kp_mev),
        headline_intensity_w_m2=output_intensity(headline_si, kp_mev),
        photon_energy_mev=kp_mev, gain=a, gain_length_m=gain_length,
        warnings=tuple(notes))


def balance_rhs(n, n0, seed, gain):
    """dn/dl [1/m] of the seeded balance equation; numeric-integration oracle
    hook for the closed forms."""
    b = 2.0 * seed + 3.0 * n0 + 1.0
    c = n0 * (n0 + seed)
    return gain * (2.0 * n * n - b * n + c) / physcore.COMPTON_WAVELENGTH_M


def klein_nishina_rest(k_in, cos_theta):
    """Rest-frame Klein-Nishina dsigma/dOmega [Compton wavelength^2 / sr],
    unpolarized, for incident photon energy k_in [m_e]."""
    kp = k_in / (1.0 + k_in * (1.0 - cos_theta))
    ratio = kp / k_in
    sin2 = 1.0 - cos_theta * cos_theta
    return 0.5 * physcore.FINE_STRUCTURE**2 * ratio**2 * (
        ratio + 1.0 / ratio - sin2)


def photon_density_compton(laser: LaserField):
    """Photon number per Compton volume of the coherent wave, k (eA)^2 /
    (4 pi alpha): the bridge from the per-volume cross section to the
    per-photon Klein-Nishina one."""
    return laser.k * laser.ea * laser.ea / (4.0 * math.pi
                                            * physcore.FINE_STRUCTURE)


def klein_nishina_reference(theta, beam: ElectronBeam, k):
    """Lab-frame Klein-Nishina dsigma/dOmega for a photon of energy k moving
    along +z scattering off the beam electrons, observed at lab angle theta.

    Composes the rest-frame formula with the exact longitudinal boost of
    angles and the solid-angle Jacobian.
    """
    ct = math.cos(theta)
    k_rest = k * beam.e_minus_pz
    # (cos - beta)/(1 - beta cos) and (1-beta^2)/(1 - beta cos)^2 written
    # with E and p_z to avoid 1 +- beta cancellation for fast beams
    denom = beam.energy - beam.pz * ct
    cos_rest = (beam.energy * ct - beam.pz) / denom
    jac = 1.0 / (denom * denom)
    return klein_nishina_rest(k_rest, cos_rest) * jac


def transition_rate_prefactor(kin, beam: ElectronBeam, laser: LaserField):
    """The factor that turns the squared amplitude of one channel into the
    transition probability per unit time, volume and solid angle, written
    independently of the cross section's ``channel_prefactor``."""
    alpha = physcore.FINE_STRUCTURE
    e, ep = beam.energy, kin.e_prime
    return (alpha * kin.k_prime / (2.0 * math.pi) ** 3
            / (4.0 * e * ep * (e + 1.0) * (ep + 1.0))
            * ep * kin.k_prime / (kin.harmonic * laser.k * beam.e_minus_pz))


def bessel_series_masked(n, x):
    """J_n(x) by the ascending series (DLMF 10.2.2) over an (orders, 1)
    column n >= 0 and arguments 0 <= x <= 9 of the same row count, each
    element summing until its own term falls below 1e-17 of its sum or
    1e-308: the loop that ``physcore._bessel_series`` runs without the
    mask and without the absolute floor."""
    half = 0.5 * x
    term = total = np.empty(x.shape)
    for row, h, nj in zip(term, half, n[:, 0].tolist()):
        lead = min(nj, 170)             # 171! is beyond the float range
        row[:] = h**lead / float(math.factorial(lead))
        for j in range(lead + 1, nj + 1):
            row *= h / j
    minus_half2 = -(half * half)
    summing = np.ones(term.shape, dtype=bool)
    m = 0
    while True:
        m += 1
        term = term * (minus_half2 / (m * (n + m)))
        np.add(total, term, out=total, where=summing)
        summing &= ~(np.abs(term) <= 1e-17 * np.abs(total) + 1e-308)
        if m > 200 or not summing.any():
            return total


def bessel_miller_scalar(n, x):
    """J_n(x) for one order n >= 0 and one argument x > 9 by the downward
    Miller recurrence normalized by J_0 + 2 sum J_2m = 1, one step at a
    time: the loop whose float operations ``physcore._bessel_miller``
    runs over every element at once."""
    start = int(max(n, x) + 1.5 * math.sqrt(max(n, x)) + 30)
    if start % 2:
        start += 1
    jp, j = 0.0, 1e-300
    norm = 0.0
    result = 0.0
    for m in range(start, 0, -1):
        jm = (2.0 * m / x) * j - jp
        jp, j = j, jm
        if m - 1 == n:
            result = j
        if (m - 1) % 2 == 0:
            norm += j if m - 1 == 0 else 2.0 * j
        if abs(j) > 1e250:
            jp *= 1e-250
            j *= 1e-250
            norm *= 1e-250
            result *= 1e-250
    if n == 0:
        result = j
    return result / norm


def bessel_factors(kin):
    """J_{N-nu}(p'_perp R') for nu = 0, +1, -1 of one harmonic, the rows
    the keep and flip halves of ``qfel.amplitudes`` take."""
    n = kin.harmonic
    return physcore.bessel_jn((n, n - 1, n + 1),
                              kin.p_perp_prime * kin.radius_prime)


def channel_prefactor(kin, beam: ElectronBeam, laser: LaserField):
    """The factor that turns the squared amplitude of one channel into its
    cross section, as the coefficient-table form of the harmonic sum
    takes it."""
    if beam.pz == 0.0:
        raise DomainError("the cross section per unit flux is undefined for a "
                          "beam at rest")
    alpha = physcore.FINE_STRUCTURE
    return (alpha * kin.k_prime * kin.k_prime
            / (8.0 * math.pi * kin.harmonic * laser.k * abs(beam.pz)
               * beam.e_minus_pz * (beam.energy + 1.0) * (kin.e_prime + 1.0)))


def _one_harmonic_at_a_time(thetas, harmonic_max, term_of):
    """(value, harmonic, terms) of a harmonic sum over a 1-D theta array
    with the stop of ``averaged_cross_section``: term_of(n, live) gives
    the term of both spins of harmonic n at the angles still summing, and
    nothing past an angle's stop is evaluated.  terms holds every term
    evaluated, one row per harmonic, and 0 elsewhere."""
    total = np.zeros_like(thetas)
    used = np.zeros(thetas.shape, dtype=int)
    terms = np.zeros((harmonic_max, thetas.size))
    live = np.arange(thetas.size)
    with np.errstate(all="ignore"):
        for n in range(1, harmonic_max + 1):
            term = terms[n - 1, live] = term_of(n, live)
            summed = total[live] + 0.5 * term
            total[live] = summed
            used[live] = n
            live = live[~(term <= _TRUNCATION_RTOL * summed)]
            if live.size == 0:
                break
    if not np.isfinite(total).all():
        raise NumericError("the cross section is not finite")
    return total, used, terms


def averaged_cross_section_per_harmonic(thetas, beam: ElectronBeam,
                                        laser: LaserField, harmonic_max=8):
    """``averaged_cross_section`` over a 1-D theta array in the
    coefficient-table form, one harmonic at a time: each harmonic is
    solved and given its Bessel factors, and its term is the sum over
    both spins of ``channel_prefactor`` times F1^2 + F2^2 + G1^2 + G2^2,
    one call of each half per spin.  Returns (value, harmonic, terms) as
    ``_one_harmonic_at_a_time``."""
    thetas = np.asarray(thetas, dtype=float)

    def term_of(n, live):
        kin = solve_final_state(thetas[live], n, beam, laser)
        pref = channel_prefactor(kin, beam, laser)
        bessel = bessel_factors(kin)
        term = 0.0
        for sigma in (1, -1):
            f1, f2, g1, g2 = (
                _keep_components(kin, beam, laser, sigma, bessel)
                + _flip_components(kin, beam, laser, sigma, bessel))
            term = term + pref * (f1 * f1 + f2 * f2 + g1 * g1 + g2 * g2)
        return term

    return _one_harmonic_at_a_time(thetas, harmonic_max, term_of)


def sum_of_squares_factors(thetas, beam: ElectronBeam, laser: LaserField):
    """Per-angle factors of the sum-of-squares form, as the blocked sum
    takes them: the prefactor of both spins, u/N, the Bessel argument
    per harmonic w = z/N, (s-bar - s)^2 and 1 - w^2."""
    with np.errstate(all="ignore"):
        big_s = np.sin(0.5 * thetas) ** 2
        big_c = np.cos(0.5 * thetas) ** 2
        xi2, d0, k = laser.ea * laser.ea, beam.e_minus_pz, laser.k
        den = (1.0 + xi2) * big_s + d0 * d0 * big_c
        s, s_bar = (1.0 + xi2) * big_s / den, d0 * d0 * big_c / den
        big_d = (1.0 + xi2) * big_s / d0 + d0 * big_c
        pref = (physcore.FINE_STRUCTURE * xi2 * k * d0
                / (4.0 * math.pi * abs(beam.pz) * big_d * big_d))
        diff2 = (s_bar - s) ** 2
        return (pref, 2.0 * k * big_s / big_d,
                2.0 * laser.ea * np.sqrt(s * s_bar) / math.sqrt(1.0 + xi2),
                diff2, (1.0 + xi2 * diff2) / (1.0 + xi2))


def averaged_cross_section_squares(thetas, beam: ElectronBeam,
                                   laser: LaserField, harmonic_max=8):
    """``averaged_cross_section`` over a 1-D theta array in the
    sum-of-squares form, one harmonic at a time: J_{N-1} and J_{N+1} at
    z = N w, P = J_{N-1} + J_{N+1}, M = J_{N-1} - J_{N+1} and
    u = N u/N give the term of both spins
    pref N/(1 + u)^2 [M^2 + (s-bar - s)^2 P^2
                      + u^2/(2(1 + u)) (M^2 + (1 - w^2) P^2)].
    Returns (value, harmonic, terms) as ``_one_harmonic_at_a_time``."""
    thetas = np.asarray(thetas, dtype=float)
    pref, u1, w, diff2, mix = sum_of_squares_factors(thetas, beam, laser)

    def term_of(n, live):
        z = n * w[live]
        jm, jp = physcore.bessel_jn(n - 1, z), physcore.bessel_jn(n + 1, z)
        m2, p2 = (jm - jp) * (jm - jp), (jm + jp) * (jm + jp)
        u = n * u1[live]
        return (pref[live] * n / ((1.0 + u) * (1.0 + u))
                * (m2 + diff2[live] * p2
                   + u * u / (2.0 * (1.0 + u)) * (m2 + mix[live] * p2)))

    return _one_harmonic_at_a_time(thetas, harmonic_max, term_of)


def angular_spectrum_two_pass(beam: ElectronBeam, laser: LaserField,
                              theta_grid, harmonic_max=DEFAULT_HARMONIC_MAX):
    """``angular_spectrum`` with harmonic 1 evaluated a second time: one
    ``averaged_cross_section`` call for the grid, then its own harmonic-1
    solve and the keep-channel ``outgoing_polarization``."""
    thetas = np.asarray(theta_grid, dtype=float)
    if thetas.ndim != 1 or thetas.size < 1:
        raise DomainError("theta grid must be a non-empty 1-D array")
    avg = averaged_cross_section(thetas, beam, laser,
                                 harmonic_max=harmonic_max).value
    first = solve_final_state(thetas, 1, beam, laser)
    sigma = beam.spin
    pol = outgoing_polarization(first, beam, laser, sigma, sigma)
    return AngularSpectrum(thetas=thetas, k_prime=first.k_prime, averaged=avg,
                           polarization_x=pol[:, 0], polarization_y=pol[:, 1])


def polarization_basis_stacked(theta, phi_k=0.0):
    """``amplitudes.polarization_basis`` with each vector stacked from its
    three columns."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = math.cos(phi_k), math.sin(phi_k)
    e1 = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e2 = np.stack([np.full_like(ct, -sp), np.full_like(ct, cp),
                   np.zeros_like(ct)], axis=-1)
    k_hat = np.stack([st * cp, st * sp, ct], axis=-1)
    return PolarizationBasis(e1=e1, e2=e2, k_hat=k_hat)


def keep_vector_stacked(f1, f2, basis: PolarizationBasis):
    """``amplitudes._keep_vector`` joining real and imaginary parts made as
    temporaries."""
    re = f1[..., None] * basis.e1 + 0.0
    im = f2[..., None] * basis.e2 + 0.0
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out, np.sqrt(f1 * f1 + f2 * f2)


def tube_rows_single_pass(profile: TubeProfile):
    """The CSV rows of a tube profile written one row at a time with
    '%.11e': the section label, l, n, n', N and the SI densities."""
    columns = [np.broadcast_to(profile.l_m, profile.n.shape), profile.n,
               profile.n_prime, profile.photon,
               density_compton_to_si(profile.n),
               density_compton_to_si(profile.photon)]
    cells = np.stack(columns, axis=-1).tolist()
    return "\n".join(f"{s}," + ",".join("%.11e" % v for v in row)
                     for s, section in enumerate(cells, start=1)
                     for row in section).encode("ascii")
