"""Checks of qfel's outputs against calculations made apart from it.

Nothing here imports ``qfel``.  The physics is written again from the
selection rules and textbook formulas, in 50-digit ``mpmath`` or with
``scipy`` integration, using the CODATA-2018 constants.  Each check
returns a list of failures, each tagged with the check that raised it
(the self-test asserts on the tags).

Light-cone variables: d = E - p_z and s = E + p_z of an electron, with
the laser along +z.  For a beam on the mass shell d s = 1 (units of m_e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.integrate import odeint

mp.mp.dps = 50
_F = mp.mpf

# CODATA 2018
M_E_MEV = _F("0.51099895000")
ALPHA = _F("7.2973525693e-3")
HBAR_C_MEV_NM = _F("197.3269804e-6")
C_M_S = _F(299792458)
E_CHARGE_C = _F("1.602176634e-19")

MEV_J = E_CHARGE_C * 10**6
HBAR_C_J_M = HBAR_C_MEV_NM * 1e-9 * MEV_J
EPS0 = E_CHARGE_C**2 / (4 * mp.pi * ALPHA * HBAR_C_J_M)     # e^2 = 4 pi eps0 alpha hbar c
LAMBDA_C_M = HBAR_C_MEV_NM / M_E_MEV * 1e-9                 # hbar / (m c)
COMPTON_VOLUME_M3 = LAMBDA_C_M**3


@dataclass(frozen=True)
class Laser:
    """Circularly polarized plane wave: photon energy k and a = eE/(m c w),
    both in units of m_e, with |E| = sqrt(I / (eps0 c))."""

    k: object
    a: object
    field_v_m: object

    @classmethod
    def of(cls, wavelength_nm, intensity_w_m2):
        lam = _F(wavelength_nm)
        field = mp.sqrt(_F(intensity_w_m2) / (EPS0 * C_M_S))
        a = E_CHARGE_C * field * lam * 1e-9 / (2 * mp.pi * M_E_MEV * MEV_J)
        return cls(k=2 * mp.pi * HBAR_C_MEV_NM / lam / M_E_MEV, a=a,
                   field_v_m=field)


@dataclass(frozen=True)
class Beam:
    e: object
    pz: object
    d: object       # E - p_z
    s: object       # E + p_z

    @classmethod
    def of(cls, energy_mev, direction):
        e = _F(energy_mev) / M_E_MEV
        p = mp.sqrt((e - 1) * (e + 1))
        if direction == "head_on":
            return cls(e=e, pz=-p, d=e + p, s=1 / (e + p))
        return cls(e=e, pz=p, d=1 / (e + p), s=e + p)


def k_prime_root(theta, harmonic, beam, laser):
    """Photon energy [m_e] solving the selection rules of harmonic N.

    Quasi-momentum q = p + a^2/(2 k.p) k is conserved with N laser
    photons absorbed and one photon k' emitted at angle theta:
      minus component: d' = d - k'(1 - cos theta)
      plus component:  s' = s + 2 N k + a^2/d - a^2/d' - k'(1 + cos theta)
      transverse:      p'_perp = -k' sin theta
    and the root of the final mass shell d' s' - p'_perp^2 - 1 = 0.
    """
    c, sn = mp.cos(_F(theta)), mp.sin(_F(theta))
    a2, nk = laser.a**2, harmonic * laser.k

    def mass_shell(kp):
        d1 = beam.d - kp * (1 - c)
        s1 = beam.s + 2 * nk + a2 / beam.d - a2 / d1 - kp * (1 + c)
        return d1 * s1 - (kp * sn)**2 - 1

    return mp.findroot(mass_shell, (_F(0), beam.d / 4), solver="secant")


def closed_form_forward(beam, laser):
    """First-harmonic photon energy [m_e] emitted along the beam (theta = pi)
    of a head-on beam: k d / (s + 2 k + a^2 / d)."""
    return laser.k * beam.d / (beam.s + 2 * laser.k + laser.a**2 / beam.d)


def klein_nishina_lab(theta, beam, k):
    """Unpolarized Klein-Nishina dsigma/dOmega [lambda_c^2/sr] in the lab for
    a photon of energy k along +z off the beam, observed at angle theta.

    Rest-frame formula, boosted: the rest-frame photon energy is k d,
    cos theta_r = (E cos theta - p_z)/(E - p_z cos theta), and
    dOmega_r/dOmega = (E - p_z cos theta)^-2.
    """
    c = mp.cos(_F(theta))
    e_minus = (beam.s * (1 - c) + beam.d * (1 + c)) / 2     # E - p_z cos
    cos_r = (beam.s * (c - 1) + beam.d * (c + 1)) / 2 / e_minus
    ratio = 1 / (1 + k * beam.d * (1 - cos_r))
    rest = ALPHA**2 / 2 * ratio**2 * (ratio + 1 / ratio - (1 - cos_r**2))
    return rest / e_minus**2


# ---------------------------------------------------------------------------
# Reading the CSV.


def parse(text):
    """(headlines {label: value}, data rows as float lists)."""
    heads, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# headline: "):
            label, _, value = line[len("# headline: "):].rpartition(" = ")
            heads[label] = float(value)
        elif line and not line.startswith("#"):
            rows.append([float(x) for x in line.split(",")])
    return heads, rows


class Failures(list):
    def rel(self, tag, got, want, tol, where=""):
        want = float(want)
        if not (math.isfinite(got) and abs(got - want) <= tol * abs(want)):
            self.append(f"{tag}: {where} got {got!r}, want {want!r} (rel {tol})")

    def abs(self, tag, got, want, tol, where=""):
        want = float(want)
        if not (math.isfinite(got) and abs(got - want) <= tol):
            self.append(f"{tag}: {where} got {got!r}, want {want!r} (abs {tol})")

    def that(self, tag, ok, message):
        if not ok:
            self.append(f"{tag}: {message}")


# ---------------------------------------------------------------------------
# Angular sweeps.

K_PRIME_REL = 1e-10
POLARIZATION_TOL = 1e-6
KN_FLATNESS = 0.01


def check_angular(cfg, text, weak):
    """Every row of an ``angular`` sweep; ``weak`` adds the Klein-Nishina
    flatness of the cross section."""
    fails = Failures()
    laser = Laser.of(cfg["laser.wavelength_nm"], cfg["laser.intensity_w_m2"])
    beam = Beam.of(cfg["beam.energy_mev"], cfg["beam.direction"])
    points = int(cfg["sweep.theta_points"])
    thetas = np.linspace(0.0, math.pi, points)
    _, rows = parse(text)
    fails.that("rows", len(rows) == points, f"{len(rows)} rows for {points} angles")
    if fails:
        return fails
    ratios = []
    photons = _photon_density_compton(cfg)
    for i, (row, theta) in enumerate(zip(rows, thetas)):
        where = f"theta={theta!r}"
        fails.abs("theta", row[0], theta / math.pi, 1e-11, where)
        k_mev = k_prime_root(theta, 1, beam, laser) * M_E_MEV
        fails.rel("k_prime", row[1], k_mev, K_PRIME_REL, where)
        xsec = row[2] * 1e-6
        fails.that("cross_section", math.isfinite(xsec) and xsec > 0.0,
                   f"{where} cross section {xsec!r} is not finite and > 0")
        if weak and xsec > 0.0:
            ratios.append(xsec / float(photons * klein_nishina_lab(theta, beam, laser.k)))
    fails.rel("forward_k", rows[0][1], laser.k * M_E_MEV, K_PRIME_REL, "theta=0")
    for row in (rows[0], rows[-1]):
        pol = np.array([complex(row[3], row[4]), complex(row[5], row[6])])
        want = np.array([1.0, -1.0j]) / math.sqrt(2.0)
        off = np.linalg.norm(pol - np.vdot(want, pol) * want)
        fails.that("polarization", off <= POLARIZATION_TOL
                   and abs(np.linalg.norm(pol) - 1.0) <= POLARIZATION_TOL,
                   f"theta/pi={row[0]} polarization {pol} is not (x - iy)/sqrt 2")
    if weak and ratios:
        spread = max(ratios) / min(ratios) - 1.0
        fails.that("klein_nishina", spread <= KN_FLATNESS,
                   f"cross section / (n_gamma KN) varies by {spread:.3g} over theta")
    return fails


def _photon_density_compton(cfg):
    """Laser photons per Compton volume: I / (c h nu) lambda_c^3."""
    lam_m = _F(cfg["laser.wavelength_nm"]) * 1e-9
    photon_j = 2 * mp.pi * HBAR_C_J_M / lam_m
    return _F(cfg["laser.intensity_w_m2"]) / (C_M_S * photon_j) * COMPTON_VOLUME_M3


# ---------------------------------------------------------------------------
# Reports: kinematics, tube, coherence, limits on one scenario.

KINEMATICS_REL = 1e-8
HEADLINE_REL = 1e-9
PROFILE_TOL = 1e-9


def check_kinematics(cfg, text, fails):
    laser = Laser.of(cfg["laser.wavelength_nm"], cfg["laser.intensity_w_m2"])
    energies = np.linspace(float(cfg["sweep.energy_min_mev"]),
                           float(cfg["sweep.energy_max_mev"]),
                           int(cfg["sweep.energy_points"]))
    _, rows = parse(text)
    fails.that("rows", len(rows) == energies.size,
               f"kinematics: {len(rows)} rows for {energies.size} energies")
    for row, energy in zip(rows, energies):
        fails.rel("kinematics", row[0], energy, 1e-11, "energy")
        beam = Beam.of(energy, cfg["beam.direction"])
        fails.rel("kinematics", row[1], closed_form_forward(beam, laser) * M_E_MEV,
                  KINEMATICS_REL, f"E={energy!r} MeV")


def _forward_photon_j(cfg):
    laser = Laser.of(cfg["laser.wavelength_nm"], cfg["laser.intensity_w_m2"])
    beam = Beam.of(cfg["beam.energy_mev"], cfg["beam.direction"])
    return k_prime_root(mp.pi, 1, beam, laser) * M_E_MEV * MEV_J


def _section(n0, seed, gain, l_m):
    """Converted fraction y = n'/n0 of one section at the lengths l_m, from
    the balance equation lambda_c dn/dl = a [2n^2 - (2 N0 + 3 n0 + 1) n
    + n0 (n0 + N0)], n(0) = n0, integrated in tau = a l / lambda_c."""
    b = 2.0 * seed + 3.0 * n0 + 1.0

    def rhs(y, _):
        n = 1.0 - y[0]
        return [-(2.0 * n0 * n * n - b * n + n0 + seed)]

    def jac(y, _):
        return [[4.0 * n0 * (1.0 - y[0]) - b]]

    tau = np.asarray(l_m) * gain / float(LAMBDA_C_M)
    y, info = odeint(rhs, [0.0], tau, Dfun=jac, rtol=1e-12, atol=1e-15,
                     full_output=True)
    if info["message"] != "Integration successful.":
        raise ArithmeticError(f"balance-equation integration: {info['message']}")
    return y[:, 0]


def check_tube(cfg, text, fails):
    heads, rows = parse(text)
    photon_j = _forward_photon_j(cfg)
    fails.rel("tube_energy", heads["forward photon energy [MeV]"],
              photon_j / MEV_J, K_PRIME_REL)
    gain = heads["gain coefficient a"]
    fails.rel("tube_gain_length", heads["gain length lambda_c/a [m]"],
              LAMBDA_C_M / _F(gain), HEADLINE_REL)
    vol = float(COMPTON_VOLUME_M3)
    n0_si = float(cfg["beam.density_m3"])
    n0 = n0_si * vol
    sections = int(cfg["tube.sections"])
    cycles = int(cfg["tube.cycles"])
    efficiency = float(cfg.get("tube.reflection_efficiency", "1.0"))
    seed = float(cfg["tube.seed_density_m3"]) * vol
    by_section = {}
    for row in rows:
        by_section.setdefault(int(row[0]), []).append(row)
    if sorted(by_section) != list(range(1, sections + 1)):
        fails.append(f"profile: sections {sorted(by_section)[:3]}... for {sections}")
        return
    length = float(cfg["tube.section_length_m"])
    l_m = np.array([r[1] for r in by_section[1]])
    fails.that("profile", l_m[0] == 0.0 and abs(l_m[-1] - length) <= 1e-11 * length
               and bool(np.all(np.diff(l_m) > 0.0)),
               "sample lengths do not run from 0 to the section length")
    for cycle in range(cycles):
        if cycle:
            seed *= efficiency
        last = cycle == cycles - 1
        cycle_seed = seed
        for s in range(1, sections + 1):
            y = _section(n0, seed, gain, l_m)
            if last:
                _compare_profile(by_section[s], l_m, n0, seed, y, vol, fails, s)
            seed = seed + n0 * y[-1]
    exact_si = seed / vol
    seed_si = cycle_seed / vol
    fails.rel("exact_chain", heads["photon density, exact chain [1/m^3]"],
              exact_si, HEADLINE_REL)
    got = heads["photon density, exact chain [1/m^3]"]
    # CSV cells carry 12 significant digits: allow their rounding
    fails.that("exact_chain", seed_si * (1 - 1e-11) <= got
               <= (seed_si + sections * n0_si) * (1 + 1e-11),
               f"exact chain {got!r} outside [seed, seed + sections n0]")
    half_si = _F(seed_si) + _F(n0_si) * sections / 2
    fails.rel("half_rule", heads["photon density, one-half rule [1/m^3]"],
              half_si, HEADLINE_REL)
    fails.rel("headline_intensity", heads["output intensity, one-half rule [W/m^2]"],
              half_si * photon_j * C_M_S, HEADLINE_REL)
    fails.rel("exact_intensity", heads["output intensity, exact chain [W/m^2]"],
              _F(exact_si) * photon_j * C_M_S, HEADLINE_REL)
    b = 2 * _F(cycle_seed) + 3 * _F(n0) + 1
    fixed = (b - mp.sqrt(b * b - 8 * _F(n0) * (_F(n0) + _F(cycle_seed)))) / 4
    fails.abs("asymptote", heads["asymptotic photon density [per Compton volume]"],
              _F(cycle_seed) + _F(n0) - fixed, PROFILE_TOL * (cycle_seed + n0))


def _compare_profile(rows, l_m, n0, seed, y, vol, fails, section):
    tol_n, tol_photon = PROFILE_TOL * n0, PROFILE_TOL * (seed + n0)
    for row, l, frac in zip(rows, l_m, y):
        where = f"section {section} l={l!r}"
        fails.abs("profile", row[2], n0 * (1.0 - frac), tol_n, where)
        fails.abs("profile", row[3], n0 * frac, tol_n, where)
        fails.abs("profile", row[4], seed + n0 * frac, tol_photon, where)
        fails.abs("profile", row[5], n0 * (1.0 - frac) / vol, tol_n / vol, where)
        fails.abs("profile", row[6], (seed + n0 * frac) / vol, tol_photon / vol, where)


def check_coherence(cfg, text, fails):
    heads, _ = parse(text)
    theta = float(cfg["coherence.theta_over_pi"]) * math.pi
    c = mp.cos(_F(theta))
    beam = Beam.of(cfg["coherence.probe_energy_mev"], cfg["coherence.probe_direction"])
    intensity = _F(cfg["coherence.radiation_intensity_w_m2"])
    rad = Laser.of(cfg["coherence.radiation_wavelength_nm"], intensity)
    # E + k - (p_z + k) cos theta, in light-cone form
    den = (beam.s * (1 - c) + beam.d * (1 + c)) / 2 + rad.k * (1 - c)
    shift = (rad.a * mp.sin(_F(theta) / 2))**2 / (beam.d * den)
    lambda0 = 2 * mp.pi * HBAR_C_MEV_NM / (rad.k * beam.d / den * M_E_MEV)
    fails.rel("shift", heads["fractional wavelength shift"], shift, HEADLINE_REL)
    fails.rel("shift", heads["emission wavelength, zero amplitude [nm]"],
              lambda0, HEADLINE_REL)
    fails.rel("shift", heads["emission wavelength, shifted [nm]"],
              lambda0 * (1 + shift), HEADLINE_REL)
    measured = _F(cfg["coherence.measured_shift"])
    inferred = heads["inferred coherent intensity [W/m^2]"]
    fails.rel("inferred", float(shift / intensity * _F(inferred)), measured, HEADLINE_REL)
    fails.rel("inferred", heads["inferred coherent fraction"],
              _F(inferred) / intensity, HEADLINE_REL)


def check_limits(cfg, text, fails):
    heads, _ = parse(text)
    laser = Laser.of(cfg["laser.wavelength_nm"], cfg["laser.intensity_w_m2"])
    beam = Beam.of(cfg["beam.energy_mev"], cfg["beam.direction"])
    # neighbour Coulomb force e^2/(4 pi eps0 r^2) equal to the laser force e E
    r_c2 = E_CHARGE_C / (4 * mp.pi * EPS0 * laser.field_v_m)
    fails.rel("ea", heads["coherence amplitude eA"], laser.a, HEADLINE_REL)
    fails.rel("laser_k", heads["laser photon energy [m_e]"], laser.k, HEADLINE_REL)
    fails.rel("critical_density", heads["critical density [1/m^3]"],
              r_c2**_F(-1.5), HEADLINE_REL)
    fails.rel("radius", heads["wiggling radius R"], laser.a / (laser.k * beam.d),
              HEADLINE_REL)
    fails.rel("gain_length", heads["gain length lambda_c/a [m]"],
              LAMBDA_C_M / _F(heads["gain coefficient a"]), HEADLINE_REL)


def check_reports(cfgs, texts):
    """One reports job: kinematics, tube, coherence and limits outputs."""
    fails = Failures()
    check_kinematics(cfgs[0], texts[0], fails)
    check_tube(cfgs[1], texts[1], fails)
    check_coherence(cfgs[2], texts[2], fails)
    check_limits(cfgs[3], texts[3], fails)
    tube_gain = parse(texts[1])[0]["gain coefficient a"]
    limits_gain = parse(texts[3])[0]["gain coefficient a"]
    fails.that("gain", tube_gain == limits_gain,
               f"tube gain {tube_gain!r} differs from limits gain {limits_gain!r}")
    return fails
