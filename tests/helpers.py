"""Shared test utilities: random physical two-site states in X form, and
reference routines that more than one test module checks against."""

import numpy as np

from xychain import isotropic
from xychain.measures import CorrelatorBundle
from xychain.model import LIGHT_CONE_PAD


def random_x_bundle(rng, edge=False):
    """Random physical X-structured two-site state as a correlator bundle.

    Populations come from a Dirichlet draw; the two coherences are placed
    inside their positivity disks |c| <= sqrt(uu*dd), |z| <= sqrt(ud*du).
    With edge=True they sit exactly on the boundary (rank-deficient state).
    """
    uu, ud, du, dd = rng.dirichlet(np.ones(4))
    r_c = 1.0 if edge else rng.uniform(0.0, 1.0)
    r_z = 1.0 if edge else rng.uniform(0.0, 1.0)
    c = r_c * np.sqrt(uu * dd) * np.exp(2j * np.pi * rng.uniform())
    z = r_z * np.sqrt(ud * du) * np.exp(2j * np.pi * rng.uniform())
    gzz = (uu + dd - ud - du) / 4.0
    mz_mean = (uu - dd) / 2.0
    mz_diff = (ud - du) / 2.0
    gxx = (c + z).real / 2.0
    gyx = -(c + z).imag / 2.0
    gyy = (z - c).real / 2.0
    gxy = (z - c).imag / 2.0
    return CorrelatorBundle(gxx=gxx, gyy=gyy, gzz=gzz, gxy=gxy, gyx=gyx,
                            mz_l=mz_mean + mz_diff, mz_m=mz_mean - mz_diff)


def bell_fidelity(rho, family, phi):
    """Overlap with (first + e^{i phi} second)/sqrt(2) of the given family."""
    rho = np.asarray(rho, dtype=complex)
    if family == "psi":
        diag = 0.5 * (rho[1, 1].real + rho[2, 2].real)
        coh = rho[1, 2]
    elif family == "phi":
        diag = 0.5 * (rho[0, 0].real + rho[3, 3].real)
        coh = rho[0, 3]
    else:
        raise ValueError(f"unknown Bell family {family!r}")
    return diag + (np.exp(1j * phi) * np.conj(coh)).real


def single_source_packet(i, t, lam, pad=LIGHT_CONE_PAD):
    """Evolved single insertion c_i^dag |vac>, on a widening window."""
    def build(radius):
        g = isotropic._ladder(radius, abs(lam) * t)
        state = isotropic.SingleParticleState(
            start=int(i - radius), amps=g, time=float(t), lam=float(lam),
            sources=(int(i),), phi=0.0)
        return state, state.norm_defect

    return isotropic._widening(abs(lam) * t, 0, pad, build)


def orbital_states(phi_state):
    """The two one-particle orbitals a pair seed is built from, seeded at
    its sites i and j."""
    return (single_source_packet(phi_state.i, phi_state.time, phi_state.lam),
            single_source_packet(phi_state.j, phi_state.time, phi_state.lam))
