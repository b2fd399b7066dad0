"""Randomized online service caching: policies, projections, workloads, and
a dynamic-regret benchmark harness."""

from .model import (ArrivalTrace, CostModel, DimensionError, RunRecord,
                    slot_cost, top_m_indicator, path_length,
                    load_trace, save_trace)
from .projection import project_bounded_simplex, project_bounded_simplex_oracle
from .gradient_pgd import aux_cost_total, g_vec, offline_pgd
from .sampler import (SamplePathEnsemble, quantize_probs, rng_stream,
                      update_ensemble)
from .rosc import RoscConfig, fractional_trace, run_rosc
from .baselines import (InstanceTooLargeError, chc_policy, exact_opt_dp,
                        pseudo_opt, rhc_policy, sopt_policy)
from .workloads import (PoissonParams, PredictionOracle, ReplacementParams,
                        SqrtChurnParams, gen_poisson, gen_replacement,
                        gen_sqrt_churn)
from .bench import ExperimentSpec, regret_bound, run_experiment, theorem_cost

__version__ = "0.1.0"
