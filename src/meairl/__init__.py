"""Reward learning from demonstrations with a learned transition model
inside the shaping term, plus brute-force verification of the invariance
and error-bound claims that justify the construction.

The package root exports the names that one library module calls from
another; the rest are imported from their modules.
"""

from .adversarial import (Discriminator, ExpertBuffer,
                          discriminator_loss_and_grads, extract_reward,
                          gradient_alignment_gap)
from .bounds import run_bound_sweep
from .buffers import RatioSchedule, ReplayBuffer
from .config import ConfigError, ExperimentConfig, build_env, load_config, save_config
from .dynamics import (GaussianDynamicsModel, TabularDynamicsEstimate,
                       rollout_synthetic, tv_distance)
from .mdp import (ContinuousEnv, ConvergenceError, DemoFormatError, TabularEnv,
                  TabularMDP, TabularPolicy, load_demos, make_gridworld,
                  make_noisy_pointmass, sample_episodes, save_continuous_demos,
                  save_tabular_demos)
from .neural import AdamState, Mlp, adam_step
from .policy_opt import SacAgent
from .shaping import check_policy_invariance, q_shift_identity_gap, shape_reward
from .soft_dp import (SoftValues, discounted_occupancy, finite_horizon_policy_value,
                      greedy_policy, hard_value_iteration, policy_value,
                      soft_optimal_policy, soft_value_iteration)
from .suites import run_alignment_suite, run_invariance_suite
from .training import TrainingConfig, generate_expert, run_meairl

__version__ = "0.1.0"
