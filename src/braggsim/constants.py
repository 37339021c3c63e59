"""Physical constants (CODATA 2018, SI units).

k_B is exact by the 2019 SI redefinition; hbar (h/2pi of the exact h), the
atomic mass constant and the 87Rb mass are quoted to 10 significant figures.
"""

# Planck and Boltzmann constants
HBAR = 1.054571817e-34           # reduced Planck constant (J s)
BOLTZMANN = 1.380649e-23         # Boltzmann constant (J/K)

# Atomic mass constant (CODATA 2018)
ATOMIC_MASS = 1.660539066e-27    # kg

# 87Rb: 86.90918053 u (AME2020)
RB87_MASS = 86.90918053 * ATOMIC_MASS   # kg

# Rb D2 line; the Bragg light runs a few GHz blue of it, which shifts
# the wavevector at the 10 ppb level and is ignored in defaults.
RB87_D2_WAVELENGTH = 780.24e-9   # m

STANDARD_GRAVITY = 9.81          # m/s^2, generic local value for defaults
