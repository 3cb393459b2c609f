"""Energy-optimal live prefetching for computation offloading.

Closed-form slow-fading policies, threshold policies for i.i.d. fast
fading, brute-force verification oracles and a Monte-Carlo sweep harness.
"""

from .model import (
    Channel,
    FastGamma,
    QuadratureError,
    Scenario,
    SlowFading,
    coefficient_chain,
    expect_over_gain,
    mean_gain,
    mean_inverse_gain,
    sample_gain,
    to_db,
    transmit_energy,
)
from .slow import (
    PrefetchPlan,
    expected_fetch_energy_slow,
    gain_lower_bound,
    no_prefetch_energy_slow,
    optimal_prefetch_slow,
    prefetch_gain_slow,
    priorities,
    priority_order,
    slot_allocation_slow,
    total_prefetched_bits,
)
from .demand import (
    XiTable,
    build_xi_table,
    demand_energy_bounds,
    expected_demand_energy,
)
from .prefetch import (
    BatchResult,
    PrefetchPolicy,
    ZetaTable,
    build_prefix_tables,
    build_zeta_table,
    expected_total_energy_fast,
    no_prefetch_energy_fast,
    run_prefetch_batch,
)
from .oracles import (
    InductionResult,
    OracleResult,
    alpha_from_final_threshold,
    best_prefix_set,
    decision_vector,
    noncausal_final_threshold,
    p5_backward_induction,
    slow_oracle,
    threshold_eta,
)
from .sweep import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    SweepRow,
    emit_csv,
    gain_vs_shape,
    generate_scenario,
    load_rows,
    run_sweep,
)

__version__ = "0.1.0"
