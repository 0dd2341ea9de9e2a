"""Monte Carlo laboratory for mean outer radii of random polytopes.

Exact isotropic body models, Haar subspace sampling, moment functionals,
a chi-max quadrature oracle, and a reproducible sweep harness.
"""

from .bodies import (
    Body,
    KINDS,
    contains,
    isotropic_constant,
    make_body,
    outer_radius_exact,
    sample,
    support,
)
from .estimates import Estimate, mean_and_stderr
from .gaussian import (
    chi_cdf,
    expected_max_chi,
    gaussian_cloud,
    projected_max_mc,
    tail_integral,
    tail_sandwich_check,
)
from .grassmann import (
    Subspace,
    haar_subspace,
    project,
    sphere_marginal_moment,
    sphere_points,
    sphere_sample,
)
from .moments import (
    ball_moment_exact,
    centroid_width_check,
    grassmann_moment_avg,
    moment,
    moment_subspace,
    negative_moment_ratios,
    p_mean_width,
    positive_moment_ratios,
    zq_support,
)
from .radii import (
    PointCloud,
    RadiusProfile,
    mean_width,
    outer_radius_points,
    projected_radius,
    projected_sq_norms,
    radius_profile,
    symmetrize,
)
from .streams import StreamKey, derive_stream, standard_normal, uniform
from .sweep import (
    SweepConfig,
    band_probability_report,
    consistency_checks,
    gaussian_oracle_report,
    run_sweep,
)

__version__ = "0.1.0"
