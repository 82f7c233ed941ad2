"""Applied transmembrane voltage → electrophoretic driving force.

Nanopore experiments (and the paper's system) drive DNA through the pore
with an applied bias, typically ~120 mV across the bilayer.  For a charge
``q`` (in elementary charges) crossing a membrane of thickness ``L`` the
field exerts ``F = q V / L``; per unit length of the landscape this is the
*tilt* the reduced model's potential carries.

Effective-charge caveat: counterion screening reduces the bare phosphate
charge by a factor ~0.25-0.5 inside a pore; the conversion accepts an
``effective_charge_fraction`` for that.  The defaults give ~0.1 pN/mV —
the experimental nanopore order of magnitude.

Scale note: the electrophoretic tilt at 120 mV (~0.2 kcal/mol/A) is much
smaller than the reduced model's default tilt (-10 kcal/mol/A).  The
latter matches the *paper's own Fig. 4 PMFs*, which drop 120-160 kcal/mol
over the 10 A window (slope -12..-16): the measured translocation free
energy includes chain-level binding/entropic contributions far beyond the
bare driving force.  This module quantifies that decomposition rather than
hiding it.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import AVOGADRO, E_CHARGE, KCAL_PER_JOULE_MOL

__all__ = ["tilt_from_voltage", "voltage_from_tilt"]


def tilt_from_voltage(
    voltage_mv: float,
    membrane_thickness: float = 40.0,
    charge_per_length: float = 1.0 / 6.5,
    effective_charge_fraction: float = 0.4,
) -> float:
    """Landscape tilt (kcal/mol/A) from an applied bias.

    Parameters
    ----------
    voltage_mv:
        Transmembrane bias in millivolts; positive bias drives the
        (negative) DNA *down* the field, returned as a negative tilt.
    membrane_thickness:
        Region over which the potential drops (A); in a nanopore
        essentially the membrane/barrel span.
    charge_per_length:
        Bare charges per angstrom of translocating polymer
        (ssDNA: one phosphate per ~6.5 A rise).
    effective_charge_fraction:
        Screening reduction of the bare charge.
    """
    if membrane_thickness <= 0:
        raise ConfigurationError("membrane_thickness must be positive")
    if charge_per_length <= 0:
        raise ConfigurationError("charge_per_length must be positive")
    if not (0.0 < effective_charge_fraction <= 1.0):
        raise ConfigurationError("effective_charge_fraction must be in (0, 1]")
    # Energy per charge crossing the full drop: e * V (J) -> kcal/mol.
    ev_kcal = (E_CHARGE * voltage_mv * 1e-3) * AVOGADRO * KCAL_PER_JOULE_MOL
    force_per_charge = ev_kcal / membrane_thickness     # kcal/mol/A per charge
    charges_engaged = charge_per_length * membrane_thickness \
        * effective_charge_fraction
    return -force_per_charge * charges_engaged


def voltage_from_tilt(tilt: float) -> float:
    """Inverse of :func:`tilt_from_voltage` at its default membrane and
    screening (returns millivolts)."""
    if tilt == 0.0:
        return 0.0
    return tilt / tilt_from_voltage(1.0)
