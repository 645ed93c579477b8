"""Step-2 rough-path lifts whose areas need diverging counter-terms.

Two constructions are implemented end to end with exact samplers and
Monte Carlo convergence experiments:

* the momentum pair of a physical Brownian motion whose magnetic part
  blows up in the small-mass limit, renormalised with the anti-symmetric
  part of M C (``magnetic``), and
* the lead-lag lift of discretised fractional Brownian motion, whose
  cross area captures the quadratic variation and is renormalised by
  n^{1-2H}/2 per unit time (``leadlag``).

Supporting layers: the step-2 tensor algebra (``tensor2``), stable-drift
matrix machinery (``linstable``), exact Gaussian samplers (``gauss``),
identity suites (``identities``), the trial runner and reporting
(``report``, ``cli``).
"""

__version__ = "0.1.0"

from .tensor2 import (StepTwoLift, LiftedPath, exp_step2, chen_mul, chen_inv, levy_area,
                      lift_piecewise_linear, zero_lift, area_entries, translate, holder_distance)
from .linstable import StableDrift, OUTransition, lyapunov_C, renorm_v, ou_joint_transition
from .gauss import (GridPath, sample_bm, sample_fbm, sample_physical, derive_Z, derive_seed,
                    fgn_autocov, required_steps)
from .magnetic import MagneticConfig, drift_at, fine_grid_n, run_magnetic_trial, \
    magnetic_experiment
from .magnetic import TrialResult as MagneticTrialResult
from .leadlag import (LeadLagConfig, hoff_path, counter_terms, leadlag_lift,
                      psi_closed, psi_profile, run_leadlag_trial, leadlag_experiment)
from .leadlag import TrialResult as LeadLagTrialResult
from .report import fit_loglog, emit, build_manifest

__all__ = [
    "__version__",
    "StepTwoLift", "LiftedPath", "exp_step2", "chen_mul", "chen_inv", "levy_area",
    "lift_piecewise_linear", "zero_lift", "area_entries", "translate", "holder_distance",
    "StableDrift", "OUTransition", "lyapunov_C", "renorm_v", "ou_joint_transition",
    "GridPath", "sample_bm", "sample_fbm", "sample_physical",
    "derive_Z", "derive_seed", "fgn_autocov", "required_steps",
    "MagneticConfig", "MagneticTrialResult", "drift_at", "fine_grid_n",
    "run_magnetic_trial", "magnetic_experiment",
    "LeadLagConfig", "LeadLagTrialResult", "hoff_path", "counter_terms",
    "leadlag_lift", "psi_closed", "psi_profile", "run_leadlag_trial",
    "leadlag_experiment",
    "fit_loglog", "emit", "build_manifest",
]
