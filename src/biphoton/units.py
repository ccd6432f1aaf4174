"""Unit conventions and conversions.

Library-wide units: angular frequency in rad/fs, time in fs, chirp in fs^2,
crystal length in um, wavelength in nm.  CLI output may convert chirp to ps^2
(and each phase-fit coefficient of degree k from fs^k to ps^k).
"""

import numpy as np

# speed of light
C_NM_FS = 299.792458  # nm / fs
C_UM_FS = 0.299792458  # um / fs

FS_PER_PS = 1.0e3


def wavelength_to_omega(lambda_nm):
    """Vacuum wavelength (nm) to angular frequency (rad/fs)."""
    return 2.0 * np.pi * C_NM_FS / lambda_nm


def omega_to_wavelength(omega):
    """Angular frequency (rad/fs) to vacuum wavelength (nm)."""
    return 2.0 * np.pi * C_NM_FS / omega
