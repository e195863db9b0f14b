"""Reward learning from demonstrations with a learned transition model
inside the shaping term, plus brute-force verification of the invariance
and error-bound claims that justify the construction."""

from .adversarial import (Discriminator, ExpertBuffer,
                          discriminator_loss_and_grads, extract_reward,
                          gradient_alignment_gap, mce_irl_gradient)
from .bounds import (BoundCheckRow, FeasibleRewardWitness, IrlProblem,
                     feasible_reward, performance_difference_bound,
                     perturb_kernel, random_problem, reward_error_bound,
                     run_bound_sweep, verify_performance_difference_bound,
                     verify_reward_error_bound)
from .buffers import RatioSchedule, ReplayBuffer
from .config import (ConfigError, EnvSpec, ExperimentConfig, RunSpec,
                     build_env, load_config, parse_config_text, save_config,
                     serialize_config)
from .dynamics import (GaussianDynamicsModel, TabularDynamicsEstimate,
                       rollout_synthetic, tv_distance)
from .mdp import (ContinuousEnv, ConvergenceError, DemoFormatError, DemoSet,
                  TabularEnv, TabularMDP, TabularPolicy, Trajectory,
                  load_demos, make_gridworld, make_noisy_pointmass,
                  sample_trajectory, save_continuous_demos,
                  save_tabular_demos)
from .neural import AdamState, Mlp, adam_step, clip_by_global_norm
from .policy_opt import SacAgent
from .shaping import (InvarianceReport, check_policy_invariance,
                      q_shift_identity_gap, shape_reward)
from .soft_dp import (HardValues, SoftValues, discounted_occupancy,
                      finite_horizon_policy_value, greedy_policy,
                      hard_value_iteration, policy_value,
                      soft_optimal_policy, soft_policy_value,
                      soft_value_iteration)
from .suites import run_alignment_suite, run_invariance_suite
from .training import (ALGORITHMS, EvalRow, ExpertTrainingError, TrainingConfig,
                       TrainingDivergedError, TrainingRecord,
                       evaluate_continuous_policy, evaluate_tabular_policy,
                       generate_expert, mix_action, run_meairl)

__version__ = "0.1.0"
