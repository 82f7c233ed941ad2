"""Unit system and physical constants for the SPICE reproduction.

Internal unit system (chosen to match the paper's reported quantities):

================  =======================  =====================================
quantity          internal unit            notes
================  =======================  =====================================
length            angstrom (A)             pore axis coordinates, displacements
time              nanosecond (ns)          pulling velocities are A/ns
energy            kcal/mol                 PMFs (paper's Fig. 4 ordinate)
mass              atomic mass unit (amu)   kinetic energy needs ``MASS_TO_KCAL``
temperature       kelvin (K)
force             kcal/mol/A               paper quotes spring constants in pN/A
================  =======================  =====================================

The paper specifies spring constants ``kappa`` in pN/A and pulling velocities
``v`` in A/ns; :func:`pn_per_angstrom` and friends convert to internal units.

All conversion factors derive from CODATA values; they are module-level
constants so hot loops can use them without attribute lookups.
"""

from __future__ import annotations

__all__ = [
    "KB",
    "AVOGADRO",
    "E_CHARGE",
    "COULOMB_CONSTANT",
    "KCAL_PER_JOULE_MOL",
    "PN_ANGSTROM_TO_KCAL",
    "MASS_TO_KCAL",
    "FS_TO_NS",
    "PS_TO_NS",
    "kT",
    "beta",
    "pn_per_angstrom",
    "timestep_fs",
]

#: Boltzmann constant in kcal/(mol K).
KB: float = 0.001987204259

#: Avogadro's number, 1/mol.
AVOGADRO: float = 6.02214076e23

#: Elementary charge in coulomb (exact since the 2019 SI redefinition).
E_CHARGE: float = 1.602176634e-19

#: Coulomb constant in kcal mol^-1 A e^-2 (vacuum): the prefactor of
#: ``q_i q_j / r`` with charges in elementary units and r in angstrom.
COULOMB_CONSTANT: float = 332.0637

#: kcal/mol per J/mol.
KCAL_PER_JOULE_MOL: float = 1.0 / 4184.0

#: Conversion: 1 pN * 1 A of work, expressed in kcal/mol.
#: 1 pN*A = 1e-22 J; multiplied by Avogadro and divided by 4184 J/kcal.
PN_ANGSTROM_TO_KCAL: float = 1.0e-22 * AVOGADRO * KCAL_PER_JOULE_MOL

#: Conversion applied to ``m * v**2`` with m in amu and v in A/ns so the
#: result is in kcal/mol.  1 amu (A/ns)^2 = 1.66053906660e-27 kg * 1e-2 m^2/s^2.
MASS_TO_KCAL: float = 1.66053906660e-27 * 1.0e-2 * AVOGADRO * KCAL_PER_JOULE_MOL

#: Femtoseconds / picoseconds expressed in ns.
FS_TO_NS: float = 1.0e-6
PS_TO_NS: float = 1.0e-3

#: Default simulation temperature used throughout the package (K).
ROOM_TEMPERATURE: float = 300.0


def kT() -> float:
    """Thermal energy ``k_B T`` at room temperature, in kcal/mol."""
    return KB * ROOM_TEMPERATURE


def beta() -> float:
    """Inverse thermal energy ``1/(k_B T)`` at room temperature, in
    mol/kcal."""
    return 1.0 / kT()


def pn_per_angstrom(kappa_pn: float) -> float:
    """Convert a spring constant from pN/A (paper units) to kcal/mol/A^2.

    The paper's Fig. 4 uses kappa in {10, 100, 1000} pN/A; internally all
    force evaluations are in kcal/mol/A, so spring constants must be in
    kcal/mol/A^2.

    >>> round(pn_per_angstrom(100.0), 4)
    1.4393
    """
    if kappa_pn < 0.0:
        raise ValueError(f"spring constant must be non-negative, got {kappa_pn}")
    return kappa_pn * PN_ANGSTROM_TO_KCAL


def timestep_fs(dt_fs: float) -> float:
    """Convert a timestep from femtoseconds to internal ns units."""
    if dt_fs <= 0.0:
        raise ValueError(f"timestep must be positive, got {dt_fs}")
    return dt_fs * FS_TO_NS
