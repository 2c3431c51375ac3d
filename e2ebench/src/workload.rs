//! The two workloads: fixed shapes, sizes, rates and limits. Every
//! number here is also in the README; none is derived at run time, so
//! a faster program shows as lower latency at the same offered rate.

use ntt_core::NttConfig;
use ntt_sim::scenarios::{Scenario, ScenarioConfig};
use ntt_sim::SimTime;

/// The fine-tuning task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Delay prediction in a new environment (decoder-only).
    Delay,
    /// Message completion time, a new task (decoder-only).
    Mct,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Tcp,
    Unix,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub model: NttConfig,
    /// Pre-training traffic: `pre_shards` runs of `pre_scenario`.
    pub pre_scenario: Scenario,
    pub pre_cfg: ScenarioConfig,
    pub pre_shards: usize,
    /// Fine-tuning traffic.
    pub ft_scenario: Scenario,
    pub ft_cfg: ScenarioConfig,
    pub ft_shards: usize,
    pub task: Task,
    /// Window stride in packets, for pre-training and for fine-tuning.
    pub stride: usize,
    pub ft_stride: usize,
    pub batch: usize,
    /// Pre-training rounds, each `pretrain_steps` optimizer steps.
    pub pretrain_rounds: usize,
    pub pretrain_steps: usize,
    /// Optimizer steps of one decoder-only fine-tune.
    pub finetune_steps: usize,
    /// Cap on the fine-tuning test split (a seeded subsample when larger).
    pub ft_test_windows: usize,
    /// Windows scored per evaluation round (a prefix of the test split).
    pub eval_windows: usize,
    pub transport: Transport,
    /// The two fixed offered rates (requests/s over all connections).
    pub low_rps: f64,
    pub high_rps: f64,
    /// p99 limit of the max-rate search, milliseconds from due time.
    pub p99_limit_ms: f64,
    /// First offered rate of the max-rate search.
    pub search_start_rps: f64,
    /// Registry reload of the fine-tuned checkpoint every this many
    /// completed wire requests (`None`: no reloads).
    pub reload_every: Option<usize>,
    /// Checks this workload is known not to meet (see the README's
    /// known gaps). They still run and print every time; a failure of
    /// one of these does not mark the run incorrect.
    pub known_gaps: &'static [&'static str],
}

/// Rounds of each repeated phase; medians are reported.
pub const SETUP_ROUNDS: usize = 3;
pub const FINETUNE_ROUNDS: usize = 3;
pub const EVAL_ROUNDS: usize = 3;
/// Trainer and evaluation workers. Fixed here, not read from the
/// caller's `NTT_THREADS`.
pub const TRAIN_WORKERS: usize = 2;
/// Fleet sweep workers (shards are independent).
pub const FLEET_WORKERS: usize = 2;
/// Batcher workers per pool, and the batch limit.
pub const POOL_WORKERS: usize = 2;
pub const POOL_MAX_BATCH: usize = 8;
/// Distinct request windows per workload, drawn from the test split.
pub const POOL_WINDOWS: usize = 64;
/// Lockstep warm-up requests per connection during set-up.
pub const WARMUP_PER_CONN: usize = 32;
/// Max-rate search: growth per probe, bisection steps, probe budget.
pub const SEARCH_GROWTH: f64 = 1.5;
pub const SEARCH_REFINE: usize = 3;
pub const SEARCH_MAX_PROBES: usize = 8;
/// Tries per probed rate: a rate fails only if every try fails.
pub const SEARCH_TRIES: usize = 2;
/// The search's share of `--seconds` is split into this many probe
/// lengths (a typical search makes 8–10 tries).
pub const SEARCH_PROBE_SLOTS: usize = 10;
fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Default-config (60-sender, 30 Mbps) traffic, shortened in time.
fn paper_traffic(duration_s: u64) -> ScenarioConfig {
    ScenarioConfig {
        duration: secs(duration_s),
        ..ScenarioConfig::default()
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "paper" => Some(Workload {
            name: "paper",
            model: NttConfig::default(),
            pre_scenario: Scenario::Pretrain,
            pre_cfg: paper_traffic(30),
            pre_shards: 4,
            ft_scenario: Scenario::Case1,
            ft_cfg: paper_traffic(60),
            ft_shards: 2,
            task: Task::Delay,
            stride: 32,
            ft_stride: 128,
            batch: 32,
            pretrain_rounds: 4,
            pretrain_steps: 6,
            finetune_steps: 6,
            // 4.5 evaluation batches of 64: below every seed's split
            // (365–384 windows seen), so every seed ends on the same
            // ragged half batch.
            ft_test_windows: 288,
            eval_windows: 640,
            transport: Transport::Tcp,
            low_rps: 70.0,
            high_rps: 120.0,
            p99_limit_ms: 25.0,
            search_start_rps: 250.0,
            reload_every: None,
            known_gaps: &["core.finetune_beats_mean"],
        }),
        "mct_swap" => Some(Workload {
            name: "mct_swap",
            model: NttConfig::reduced(0),
            pre_scenario: Scenario::Pretrain,
            pre_cfg: paper_traffic(30),
            pre_shards: 4,
            ft_scenario: Scenario::Pretrain,
            ft_cfg: paper_traffic(60),
            ft_shards: 2,
            task: Task::Mct,
            stride: 16,
            ft_stride: 16,
            batch: 32,
            pretrain_rounds: 5,
            pretrain_steps: 12,
            finetune_steps: 12,
            ft_test_windows: 768,
            eval_windows: 1536,
            transport: Transport::Unix,
            low_rps: 200.0,
            high_rps: 350.0,
            p99_limit_ms: 20.0,
            search_start_rps: 700.0,
            reload_every: Some(500),
            known_gaps: &["core.finetune_beats_mean"],
        }),
        _ => None,
    }
}

pub const NAMES: [&str; 2] = ["paper", "mct_swap"];
