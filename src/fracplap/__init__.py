"""Solver and verification harness for a memory-driven reaction-diffusion
model: Caputo time derivative, p-Laplacian diffusion, and logistic growth
saturated by nonlocal competition."""

from .analysis import (AlleeVerdict, Verdict, admissible_window_radius,
                       allee_classify, boundedness_check, decay_envelope_check,
                       lyapunov_density, lyapunov_monitor, lyapunov_potential)
from .config import (InitialSpec, KernelSpec, RunManifest, build_initial,
                     parse_config, serialize_config)
from .errors import (ConfigError, EvaluationRangeError, FracplapError,
                     GridMismatchError, HypothesisError,
                     KernelAdmissibilityError, SolverConvergenceError)
from .fractional import (caputo_series, memory_term, mittag_leffler,
                         power_inequality_check)
from .integrator import (RunReport, RunStatus, SolverConfig,
                         linear_spectral_reference, run)
from .io import (format_series, read_snapshot, summarize_run,
                 write_report_json, write_series, write_snapshot)
from .model import (AnalysisConstants, DomainSpec, EquilibriumRoots, Field,
                    ModelParameters, SupBound, competition_threshold,
                    decay_margin, equilibrium_roots, reaction,
                    sup_norm_bound, validate_params)
from .operators import (KernelGrid, box_window_integral, convolve_kernel,
                        diffusion_apply, discretize_kernel, face_diffusivity,
                        global_mass)
from .verify import SUITES, Check, run_suite

__version__ = "0.1.0"
