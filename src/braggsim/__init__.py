"""braggsim: numerical simulator for a Bragg-diffraction atom gravimeter.

Propagates single atoms on the 2*hbar*k momentum ladder through Bloch
velocity selection and pi/2 - pi - pi/2 Mach-Zehnder pulse sequences,
synthesizes lab noise and tides, and extracts gravity, fringe harmonics,
contrast revivals, Allan deviations and gradiometer correlations. Import
from the modules: the package binds only ``__version__``.
"""

__version__ = "0.1.0"
