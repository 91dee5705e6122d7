"""Physical constants shared across the package (SI units, CODATA 2022)."""

import math

SPEED_OF_LIGHT = 299792458.0
VACUUM_PERMITTIVITY = 8.8541878188e-12

TWO_PI = 2.0 * math.pi

__all__ = ["SPEED_OF_LIGHT", "VACUUM_PERMITTIVITY", "TWO_PI"]
