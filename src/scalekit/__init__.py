"""Scale functions of spectrally negative Levy processes.

Construct processes from prescribed descending ladder height processes and
evaluate W^(q) through exact closed forms, the rational-stability
Mittag-Leffler formula, and numerical Laplace inversion, cross-validated
against the defining transform identity and Monte Carlo path simulation.
"""

from .bromwich import (IdentityReport, invert, invert_line, laplace_transform_numeric,
                       verify_laplace_identity)
from .catalog import (CORRECTIONS, CatalogEntry, build_catalog_entry,
                      catalog_families, family_parameters, w_abate_whitt, w_brownian,
                      w_cramer_lundberg, w_fixed_jumps, w_pssmp, w_stable,
                      w_stable_drift)
from .errors import (CapabilityError, ConditioningError, InversionError,
                     NotApplicableError, NumericalError, ParameterError,
                     SaturationError, ScalekitError)
from .fluctuation import (dividend_barrier, dividend_value, mpi1_workload,
                          ruin_probability, two_sided_exit, z_q)
from .gtsc import (GtscParams, InfinityAsymptote, ZeroAsymptote,
                   asymptote_infinity, asymptote_zero, ig_params,
                   ig_q0_threshold, scale_function, w0_closed, w_gamma_case, w_ig,
                   w_rational)
from .levy import (LadderParams, LaplaceExponent, LevyTriple, big_phi, build_parent,
                   parent_exponent)
from .montecarlo import ExitEstimate, SimConfig, simulate_exit, simulate_ruin
from .polyfrac import (PartialFraction, RationalAlpha, build_fq,
                       partial_fractions, roots_with_multiplicity)
from .scale import ScaleFunction
from .special import (erfc_c, erfcx_scaled, fransen_transform, mittag_leffler,
                      mittag_leffler_deriv, reg_lower_gamma, upper_gamma)

__version__ = "0.1.0"
