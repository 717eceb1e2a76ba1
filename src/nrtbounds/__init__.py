"""Exact combinatorics, Delsarte linear-programming bounds, and asymptotic
rate-distance curves for codes and orthogonal arrays in the ordered Hamming
(NRT) space."""

__version__ = "0.1.0"

from .space import (
    ArrayTable,
    BudgetExceeded,
    CheckFailure,
    LinearCode,
    SpaceParams,
    ball_size,
    delta_crit,
    dual_code,
    enumerate_code,
    enumerate_shapes,
    net_to_ooa,
    ooa_strength,
    ooa_to_net,
    ordered_distance,
    ordered_weight,
    shape_bar_of,
    shape_count,
    shape_of,
    sphere_size,
)
from .krawtchouk import K_multi, gamma, k_uni
from .scheme import build_blocks, build_operator, spectral_radius
from .delsarte import (
    DualCertificate,
    check_certificate,
    solve_code_lp,
    solve_ooa_lp,
)
from .bounds import (
    BoundResult,
    bassalygo_elias,
    best_bounds,
    dual_plotkin_ooa,
    gilbert,
    hamming,
    johnson,
    plotkin,
    r2_bound,
    rao,
    singleton,
    spectral_bound,
    varshamov,
)
from .asymptotics import (
    H,
    be_curve,
    gv_curve,
    h_q,
    hamming_curve,
    lambda_asym,
    lp_curve,
    nets_rao,
    phi_r2,
    plotkin_curve,
    psi_nets,
    z0_solve,
)
from .macwilliams import WeightEnumerator, enumerator_of, transform
