"""Information-geometric chaos laboratory.

Builds Fisher-Rao geometries of level-spacing probability families,
integrates geodesic and deviation dynamics on them, computes the
statistical-weight entropy and its growth law, and reproduces the
spin-chain level-spacing statistics that motivate the two named
manifolds.
"""

from .errors import (AccuracyError, DomainError, FitError, IgacError,
                     InapplicableError, InsufficientDataError, InversionError,
                     ResourceError, ShapeError, SingularityError,
                     UnsupportedFamilyError, ValidationError)
from .families import (FamilySpec, cdf, composite_chaotic,
                       composite_integrable, density, exponential_family,
                       family, gaussian_family, log_density, moments,
                       product_family, sample, wigner_dyson_family)
from .manifold import (ManifoldModel, QuadratureMetric, QuadratureSettings,
                       chaotic_model, euclidean_model,
                       fisher_metric_closed_form, fisher_metric_quadrature,
                       gaussian_model, integrable_model, model,
                       model_from_family)
from .geometry import (CurvatureReport, SignReport, christoffel, curvature,
                       riemann, scalar_sign_classification)
from .dynamics import (GeodesicTrajectory, LambdaEstimate, SolverStats,
                       estimate_lambda_j, integrate_geodesic, integrate_jacobi,
                       reverse_initial_conditions)
from .ige import (FitReport, GrowthFit, IGESeries, RateComparison,
                  compare_rates, fit_growth, volume_series)
from .spinchain import (ChainSpec, HistogramData, LsdResult, SpacingRatio,
                        SpectrumRecord, Unfolding, analyze_chain,
                        build_hamiltonian, diagonalize, ks_distance,
                        lsd_verdict, max_spins, mean_spacing_ratio,
                        poisson_spacing_cdf, poisson_spacing_pdf,
                        spacing_histogram, unfold, wigner_spacing_cdf,
                        wigner_spacing_pdf)

__version__ = "0.1.0"
