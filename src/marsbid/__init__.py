"""marsbid: two-settlement electricity market bidding with hierarchical
risk-aware reinforcement learning agents."""

from .bidding_env import (
    EpisodeLedger,
    GeneratorSpec,
    Settlement,
    StrategicBiddingEnv,
    Tape,
    map_action,
    settle,
)
from .market_data import (
    DateRange,
    MarketSeries,
    SplitSpec,
    SyntheticConfig,
    generate_synthetic,
    ingest_csv,
    repair_gaps,
    split,
    write_csv,
)
from .mars_hierarchy import (
    AgentEnsemble,
    Blend,
    BlendPolicy,
    blend,
    train_meta,
    train_university,
)
from .policy_net import PolicyNetwork, sample_action
from .ppo_trainer import PpoConfig, compute_gae, train
from .reward_shaping import (
    CvarRewardShaper,
    ShapingParams,
    reward_meta,
    reward_neutral,
    reward_safe,
    reward_spec,
)
from .evaluation import (
    MetricReport,
    allocation_entropy,
    compute_report,
    max_drawdown,
    regime_alignment,
    rolling_metrics,
    run_policy_episode,
    sharpe,
    sortino,
)

__version__ = "0.1.0"
