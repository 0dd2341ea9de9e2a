"""Monte Carlo laboratory for mean outer radii of random polytopes.

Exact isotropic body models, Haar subspace sampling, moment functionals,
a chi-max quadrature oracle, and a reproducible sweep harness.  The top level
exports nothing: import each name from its module.
"""
