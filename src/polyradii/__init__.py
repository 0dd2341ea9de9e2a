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
    sample_points,
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
    haar_frames,
    haar_subspace,
    sphere_marginal_moment,
    sphere_points,
)
from .moments import (
    ball_moment_exact,
    centroid_width_check,
    grassmann_moment_avg,
    moment,
    negative_moment_ratios,
    positive_moment_ratios,
)
from .radii import (
    PointCloud,
    RadiusProfile,
    mean_width,
    outer_radius_points,
    projected_sq_norms,
    radius_profile,
)
from .streams import StreamKey, standard_normal, uniform
from .sweep import (
    SweepConfig,
    consistency_checks,
    gaussian_oracle_report,
    run_sweep,
)

__version__ = "0.1.0"
