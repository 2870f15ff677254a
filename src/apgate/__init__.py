"""Simulator of a cavity-mediated atom-photon conditional-phase gate.

Subpackages cover the small-system linear algebra (qlin), the reflection
model and gate (cavity), pulse statistics and imperfections (pulse), the
tomography pipeline (tomography), the experiment drivers (protocols) and the
configuration/CLI layer (config, cli).
"""
from .cavity import (CavityParams, MirrorBudget, loss_from_first_principles,
                     reflection_coefficient)
from .config import (ConfigError, RunConfig, ideal_profile, load_config,
                     paper_profile)
from .protocols import (ProtocolResult, StarvationError, bell_target,
                        ghz_target, loss_budget, phi_minus_photons,
                        phi_plus_photons, run_bell, run_eraser, run_ghz,
                        run_ramsey, run_state_detection, run_truth_table,
                        tomo_roundtrip)
from .pulse import (CoherentPulse, DetectionModel, ImperfectionConfig,
                    hyperfine_fidelity, multiphoton_fraction)
from .qlin import (DensityMatrix, PureState, fidelity_pure, optimal_phase_fidelity,
                   rotation)
from .tomography import (CountsTable, FitError, MeasurementSetting,
                         ReconstructionReport, all_settings,
                         born_probabilities, linear_inversion, mle_batch,
                         mle_reconstruct, monte_carlo_errors, simulate_counts)

__version__ = "0.1.0"
