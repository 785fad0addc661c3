"""First syzygies and Betti numbers of Hibi rings of finite distributive lattices."""

from . import errors
from .betti import (
    LinearityVerdict,
    PlanarBettiBreakdown,
    k_of,
    planar_betti,
    planar_linearity,
    typed_minimal_histogram,
)
from .ideal import HibiIdeal, buchberger_check, hibi_ideal
from .lattice import (
    Lattice,
    enumerate_distributive,
    from_covers,
    from_json_dict,
    from_points,
    grid,
)
from .oracle import (
    first_betti_oracle,
    graded_betti_oracle,
    is_linear_first_syzygy,
)
from .syzygy import (
    TypedSyzygy,
    apply_phi,
    iter_typed_generators,
    typed_generator,
)

__all__ = [
    "HibiIdeal",
    "Lattice",
    "LinearityVerdict",
    "PlanarBettiBreakdown",
    "TypedSyzygy",
    "apply_phi",
    "buchberger_check",
    "enumerate_distributive",
    "errors",
    "first_betti_oracle",
    "from_covers",
    "from_json_dict",
    "from_points",
    "graded_betti_oracle",
    "grid",
    "hibi_ideal",
    "is_linear_first_syzygy",
    "iter_typed_generators",
    "k_of",
    "planar_betti",
    "planar_linearity",
    "typed_generator",
    "typed_minimal_histogram",
]
