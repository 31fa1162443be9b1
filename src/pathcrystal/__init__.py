"""Exact-arithmetic construction and verification of lattice-path crystals.

The package builds the birational crystal structure on two weighted
lattices, its piecewise-linear shadow on integer points, the combinatorial
crystal on zero-sum integer arrays, and the bijection tying the two
together, then machine-verifies every defining identity at seeded random
points with exact rational arithmetic.
"""

from .birational import sigma_map, xi_map
from .bkinf import (
    CTuple,
    all_ctuples,
    b_infinity,
    bk_e,
    bk_e_closed,
    crystal_graph_dot,
    delta,
    eps_phi,
    eps_phi_0,
    extremal_c,
    kashiwara,
    sample_belement,
    weyl_s_tilde,
    wt,
    zero_ops,
)
from .errors import CrystalFault, ValidationError
from .fundrep import (
    FundVector,
    apply_gen,
    basis_keys,
    chart_vector,
    proportionality_probe,
)
from .geom import (
    CartanA1n,
    act_e,
    act_e0_via_sigma,
    dval,
    epsilon,
    gamma,
    weyl_s,
    weyl_s_def,
)
from .iso import omega, omega_inv, pi_correspondence
from .lattice import (
    BElement,
    LatticeShape,
    TropPoint,
    XPoint,
    YPoint,
    make_shape,
    point_from_json,
    point_to_json,
    sample_point,
)
from .paths import (
    Path,
    brute_epsilon,
    brute_partial_sum,
    brute_region_sums,
    enumerate_paths,
    epsilon_total,
    partial_sum,
    path_weight,
    region_sums,
)
from .semiring import MAXPLUS, RATIONAL, SemiringSpec
from .suites import SUITES, run_suite
from .tropical import trop_dbar, trop_e, trop_eps, trop_weyl, trop_wt, ud_degree_probe

__version__ = "0.1.0"
