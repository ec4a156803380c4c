"""Monte Carlo toolkit for N-player stochastic differential games.

Simulates controlled diffusions, computes first- and second-order
directional derivatives of player costs by resimulation, forward
sensitivities, and adjoint backward systems solved with regression
Monte Carlo, and certifies how far a game is from admitting an exact
potential function (the game's alpha), both empirically and through
closed-form constant ledgers.
"""

from .model import (Coefficient, ConstantLedger, Control, ControlProfile,
                    CostGapNorms, GameSpec, Hessian, InitialSampler,
                    NoiseBundle, RunningCost, SampleBox, Slice, TerminalCost,
                    TimeGrid, direction_dictionary, fd_coefficient,
                    validate_game)
from .sim import (PathEnsemble, VariationalCoefficients,
                  assemble_variational, empirical_moment,
                  propagate_sensitivities, simulate_cost_batch,
                  simulate_paths)
from .bsde import (BsdeSolution, LinearBsdeSpec, RegressionBasis,
                   apriori_bound_check, apriori_constant, solve_linear_bsde,
                   trace_duality)
from .derivatives import (DerivativeEstimate, bsde_derivatives,
                          cost_pathwise, cost_value,
                          first_derivative_fd_sweep,
                          second_derivative_fd_sweep, sens_derivatives)
from .alpha import (AlphaReport, BoundLedger, asymmetry, build_bound_ledger,
                    cor_decay_bound, empirical_alpha, exploitability,
                    moment_bound_constants, potential_deviation_gaps,
                    potential_value, sensitivity_moment_bound,
                    theoretical_alpha_bound)
from .presets import (PRESET_IDS, build_common_noise_game, build_lq_game,
                      build_mean_field_game, build_preset, build_tanh_game,
                      lq_scaling_params)

__version__ = "0.1.0"
