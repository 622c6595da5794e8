"""Random Gaussian binary integer programs at desk scale.

Generate seeded instances, solve their LP relaxations and exact IPs,
certify small integrality gaps through the constructive rounding pipeline,
and verify the probabilistic behavior of all the moving parts by Monte
Carlo.  The command line entry point lives in :mod:`giplab.cli`, and
instance files are written and read by :mod:`giplab.fileformat`.
"""

from .instance import BSpec, Instance, generate, validate_b
from .rng import RngHandle

__all__ = [
    "BSpec",
    "Instance",
    "RngHandle",
    "generate",
    "validate_b",
]

__version__ = "0.1.0"
