//! One workload, from seed to `NTTWIRE1` response, in one process.
//!
//! Phases, in order (set-up steps are timed into `setup_s`):
//!
//! 1. set-up A: fleet sweep of the pre-training and fine-tuning
//!    traffic, window datasets, model init;
//! 2. pre-training rounds (`pretrain_windows_per_s`);
//! 3. evaluation rounds on the pre-training test split
//!    (`eval_windows_per_s`);
//! 4. set-up B: checkpoint save and load;
//! 5. decoder-only fine-tune rounds from the loaded checkpoint
//!    (`finetune_s`, `finetune_mse`);
//! 6. set-up C: registry, server bind, connect, warm-up;
//! 7. wire phases at the low and the high fixed rate, then (when the
//!    pass reports it) the max-rate search, all with the process
//!    confined to one core.
//!
//! Set-up A, B and C each run [`SETUP_ROUNDS`] times; `setup_s` is the
//! median of the per-round sums.

use crate::loadgen::{self, Pace, PhaseStats, RealClock, Step};
use crate::spans::Tracer;
use crate::stats;
use crate::workload::*;
use ntt_core::{
    evaluate, train, DelayHead, EvalReport, Experiment, HeadTask, MctHead, Ntt, ParStrategy,
    Pretrained, TrainConfig, TrainMode, TrainReport,
};
use ntt_data::{DatasetConfig, DelayDataset, MctDataset, TraceData, NUM_FEATURES};
use ntt_fleet::{run_fleet, FleetConfig, FleetReport, Shard, ShardSink, StreamToData, SweepSpec};
use ntt_net::frame::{self, Frame, Request};
use ntt_net::{NetClient, NetConfig, NetServer};
use ntt_nn::Head;
use ntt_obs::HistogramSnapshot;
use ntt_serve::{BatchConfig, InferenceEngine, ModelRegistry};
use ntt_sim::scenarios::{RunTrace, Scenario, ScenarioConfig};
use ntt_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Operations of one phase: attempted and failed.
#[derive(Debug, Clone)]
pub struct PhaseCount {
    pub name: String,
    pub attempted: usize,
    pub failed: usize,
}

/// A correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    /// Listed in the workload's known gaps: reported, not fatal.
    pub known_gap: bool,
    pub detail: String,
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one pass over the path produced.
pub struct Outcome {
    pub phases: Vec<PhaseCount>,
    pub checks: Vec<Check>,
    pub e2e: Vec<Metric>,
    /// Wire tails and the max sustainable rate. Measured in every pass
    /// but reported only by the traced run (see the README: on a noisy
    /// host they follow the host's scheduling stalls, not the program).
    pub tails: Vec<Metric>,
    /// Wall time of the pass, less the max-rate search (whose number of
    /// probes varies from run to run).
    pub total_s: f64,
    /// Inputs the traced probes reuse.
    pub ctx: Option<ProbeCtx>,
}

/// What the per-layer probes of a traced run need from the pass.
pub struct ProbeCtx {
    pub mem_pre: InferenceEngine,
    pub pre_train: DelayDataset,
    pub ft_sets: FtSets,
    pub registry: Arc<ModelRegistry>,
    pub pool: RequestPool,
    pub wire: WireSummary,
    pub fleet: FleetReport,
    pub data_windows: usize,
    pub ckpt_bytes: u64,
    pub ckpt_path: PathBuf,
    pub train_step_ns: HistogramSnapshot,
    pub work_dir: PathBuf,
    pub clients: Vec<NetClient>,
    /// Kept alive for the probes; shut down when the context drops.
    pub _server: NetServer,
}

/// The fine-tuning train and (capped) test splits, per task.
pub enum FtSets {
    Delay(DelayDataset, DelayDataset),
    Mct(MctDataset, MctDataset),
}

/// One fine-tuned model.
pub struct Tuned {
    pub model: Ntt,
    pub head: Box<dyn Head>,
    pub report: TrainReport,
    pub eval: EvalReport,
}

/// One decoder-only fine-tune of the loaded trunk: a fresh copy of the
/// pre-trained delay head (read back from the checkpoint, since the
/// fine-tune trains the head in place) or a new MCT head, trained on
/// the train split and evaluated on the test split.
fn finetune_once(loaded: &Pretrained, ckpt: &Path, sets: &FtSets) -> std::io::Result<Tuned> {
    let d = loaded.model.cfg.d_model;
    let (head, (model, report, eval)) = match sets {
        FtSets::Delay(tr, te) => {
            let mut fresh = Pretrained::load(ckpt)?;
            let i = fresh
                .heads
                .iter()
                .position(|h| h.kind() == "delay")
                .expect("the pre-trained checkpoint carries a delay head");
            let head = fresh.heads.swap_remove(i);
            let r = loaded.finetune_custom(head.as_ref(), tr, te, TrainMode::DecoderOnly);
            (head, r)
        }
        FtSets::Mct(tr, te) => {
            let head: Box<dyn Head> = Box::new(MctHead::new(d, loaded.model.cfg.seed));
            let r = loaded.finetune_custom(head.as_ref(), tr, te, TrainMode::DecoderOnly);
            (head, r)
        }
    };
    Ok(Tuned {
        model,
        head,
        report,
        eval,
    })
}

/// Request windows, their routes and the predictions they must get.
pub struct RequestPool {
    /// Featurized windows, `seq_len * NUM_FEATURES` floats each.
    pub windows: Vec<Vec<f32>>,
    /// MCT aux input (normalized log message size) per window.
    pub aux: Vec<f32>,
    /// Routes: (model, head, needs aux). Requests alternate over them.
    pub routes: Vec<(&'static str, &'static str, bool)>,
    /// Expected response per (route, window), from direct predict.
    pub expected: Vec<Vec<f32>>,
}

impl RequestPool {
    pub fn request(&self, id: u64, g: usize) -> (Request, usize, usize) {
        let route = g % self.routes.len();
        let w = (g / self.routes.len()) % self.windows.len();
        let (model, head, aux) = self.routes[route];
        (
            Request {
                id,
                model: model.to_string(),
                head: head.to_string(),
                deadline_micros: 0,
                aux: aux.then(|| self.aux[w]),
                window: self.windows[w].clone(),
            },
            route,
            w,
        )
    }
}

/// The wire phases' raw figures.
pub struct WireSummary {
    pub low: PhaseStats,
    pub high: PhaseStats,
    /// Client round trips (send to reply) in the high phase, ms.
    pub high_rtt_ms: Vec<f64>,
    pub high_obs: Vec<(String, HistogramSnapshot)>,
    pub high_counters: Vec<(String, u64)>,
    /// NaN when the pass made no search.
    pub max_rate: f64,
    /// Wall time of the max-rate search.
    pub search_s: f64,
}

/// Input seeds, all derived from the workload seed.
struct Seeds {
    pre_sim: u64,
    ft_sim: u64,
    model: u64,
    train: u64,
    pool: u64,
}

impl Seeds {
    fn new(seed: u64) -> Seeds {
        let mix = |k: u64| ntt_fleet::splitmix64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(k));
        Seeds {
            pre_sim: mix(1),
            ft_sim: mix(2),
            model: mix(3),
            train: mix(4),
            pool: mix(5),
        }
    }
}

/// Lower bound on a packet's one-way delay on the dumbbell path
/// sender -access-> left switch -bottleneck-> right switch -access->
/// receiver: propagation plus store-and-forward serialization on each
/// link, computed from the link parameters alone.
pub fn dumbbell_floor_ns(cfg: &ScenarioConfig, size_bytes: u64) -> u64 {
    let bits = size_bytes * 8;
    let ser = |rate_bps: u64| bits * 1_000_000_000 / rate_bps;
    2 * (cfg.access_delay.as_nanos() + ser(cfg.access_bps))
        + cfg.bottleneck_delay.as_nanos()
        + ser(cfg.bottleneck_bps)
}

/// Fleet sink that checks every recorded packet against the delay
/// floor, then streams the trace into the dataset.
struct FloorCheck {
    inner: StreamToData,
    packets: usize,
    below_floor: usize,
    unsupported: usize,
}

impl ShardSink for FloorCheck {
    fn on_shard(&mut self, shard: &Shard, trace: RunTrace) {
        match shard.scenario {
            Scenario::Pretrain | Scenario::Case1 => {
                for p in &trace.packets {
                    self.packets += 1;
                    if p.delay_ns < dumbbell_floor_ns(&shard.cfg, p.size_bytes as u64) {
                        self.below_floor += 1;
                    }
                }
            }
            _ => self.unsupported += 1,
        }
        self.inner.on_shard(shard, trace);
    }
}

pub struct Runner<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    pub tracer: &'a Tracer,
    pub work_dir: PathBuf,
    /// Run the max-rate search after the fixed-rate phases. Only the
    /// traced run reports its result, from its untraced pass.
    pub search: bool,
    phases: Vec<PhaseCount>,
    checks: Vec<Check>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<'a> Runner<'a> {
    pub fn new(
        w: &'a Workload,
        seed: u64,
        seconds: f64,
        tracer: &'a Tracer,
        work_dir: PathBuf,
    ) -> Self {
        Runner {
            w,
            seed,
            seconds,
            tracer,
            work_dir,
            search: false,
            phases: Vec::new(),
            checks: Vec::new(),
        }
    }

    fn count(&mut self, name: impl Into<String>, attempted: usize, failed: usize) {
        let name = name.into();
        if let Some(p) = self.phases.iter_mut().find(|p| p.name == name) {
            p.attempted += attempted;
            p.failed += failed;
        } else {
            self.phases.push(PhaseCount {
                name,
                attempted,
                failed,
            });
        }
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        let known_gap = self.w.known_gaps.contains(&name);
        if !ok {
            let label = if known_gap {
                "KNOWN GAP"
            } else {
                "CHECK FAILED"
            };
            eprintln!("  {label} {name}: {detail}");
        }
        self.checks.push(Check {
            name,
            ok,
            known_gap,
            detail,
        });
    }

    fn sweep(
        &mut self,
        scenario: Scenario,
        cfg: ScenarioConfig,
        shards: usize,
        seed: u64,
        parent: u64,
    ) -> (Arc<TraceData>, FleetReport) {
        let spec = SweepSpec::single(scenario, ScenarioConfig { seed, ..cfg }, shards);
        let mut sink = FloorCheck {
            inner: StreamToData::new(),
            packets: 0,
            below_floor: 0,
            unsupported: 0,
        };
        let report = self.tracer.span("fleet.sweep", Some(parent), None, |_| {
            run_fleet(&spec, &FleetConfig::with_threads(FLEET_WORKERS), &mut sink)
        });
        self.count("sim.shards", spec.len(), 0);
        self.check(
            "sim.delay_floor",
            sink.below_floor == 0 && sink.unsupported == 0 && sink.packets > 0,
            format!(
                "{} of {} packets below the propagation+serialization floor ({} shards of an unchecked topology)",
                sink.below_floor, sink.packets, sink.unsupported
            ),
        );
        (sink.inner.into_data(), report)
    }

    fn experiment(&self, seeds: &Seeds) -> Experiment {
        let mut model = self.w.model;
        model.seed = seeds.model;
        Experiment::new(model)
            .stride(self.w.stride)
            .threads(TRAIN_WORKERS)
            .with_train(TrainConfig {
                epochs: 1,
                batch_size: self.w.batch,
                max_steps_per_epoch: Some(self.w.pretrain_steps),
                seed: seeds.train,
                par: ParStrategy::with_threads(TRAIN_WORKERS),
                ..TrainConfig::default()
            })
    }

    /// Run the path up to and including the fine-tune, once per phase,
    /// and report `finetune_mse` alone: the quality pass.
    pub fn quality(self) -> Outcome {
        self.pass(true, false)
    }

    /// Run the whole path. With `keep_probe_ctx`, hand back what the
    /// per-layer probes need.
    pub fn run(self, keep_probe_ctx: bool) -> Outcome {
        self.pass(false, keep_probe_ctx)
    }

    fn pass(mut self, quality_only: bool, keep_probe_ctx: bool) -> Outcome {
        let t_all = Instant::now();
        let w = self.w;
        let seeds = Seeds::new(self.seed);
        let exp = self.experiment(&seeds);
        let rounds = |n: usize| if quality_only { 1 } else { n };
        let mut setup = vec![0.0f64; rounds(SETUP_ROUNDS)];

        // ---- set-up A: sweep, datasets, model init -------------------
        let mut last_a = None;
        for round in setup.iter_mut() {
            drop(last_a.take()); // free the previous round's data first
            let t = Instant::now();
            let a = self.tracer.span("setup.a", None, None, |sid| {
                let (pre_data, fleet) =
                    self.sweep(w.pre_scenario, w.pre_cfg, w.pre_shards, seeds.pre_sim, sid);
                let (ft_data, _) =
                    self.sweep(w.ft_scenario, w.ft_cfg, w.ft_shards, seeds.ft_sim, sid);
                let (pre_train, pre_test) = self.tracer.span("data.build", Some(sid), None, |_| {
                    exp.delay_datasets(pre_data, None)
                });
                let (model, head) = self.tracer.span("core.init", Some(sid), None, |_| {
                    (
                        Ntt::new(exp.model),
                        DelayHead::new(exp.model.d_model, exp.model.seed),
                    )
                });
                (pre_train, pre_test, ft_data, model, head, fleet)
            });
            *round += t.elapsed().as_secs_f64();
            last_a = Some(a);
        }
        let (pre_train, pre_test, ft_data, model, head, fleet) = last_a.expect("set-up ran");
        eprintln!(
            "  data: {} pre-train windows, {} test windows, {} packets in {} shards",
            pre_train.len(),
            pre_test.len(),
            fleet.total_packets(),
            fleet.shards.len()
        );

        // ---- pre-training ----------------------------------------------
        let step_before = hist("train.step_ns");
        let mut rates = Vec::new();
        let mut pre_reports: Vec<TrainReport> = Vec::new();
        self.tracer.span("core.pretrain", None, None, |_| {
            for r in 0..w.pretrain_rounds {
                let cfg = TrainConfig {
                    seed: exp.train.seed.wrapping_add(r as u64),
                    ..exp.train
                };
                let rep = train(
                    &model,
                    &HeadTask::new(&head, &pre_train),
                    &cfg,
                    TrainMode::Full,
                );
                rates.push((rep.steps * w.batch) as f64 / rep.wall.as_secs_f64());
                pre_reports.push(rep);
            }
        });
        let train_step_ns = ntt_net::adaptive::delta(&hist("train.step_ns"), &step_before);
        let steps: usize = pre_reports.iter().map(|r| r.steps).sum();
        self.count("core.train_steps", steps, 0);
        let finite = pre_reports.iter().all(|r| r.final_loss().is_finite());
        self.check(
            "core.pretrain_loss_finite",
            finite,
            "pre-training loss went non-finite".into(),
        );

        // ---- evaluation ------------------------------------------------
        let eval_ds = cap(&pre_test, w.eval_windows, seeds.pool);
        let mut eval_rates = Vec::new();
        let mut evals: Vec<EvalReport> = Vec::new();
        self.tracer.span("core.eval", None, None, |_| {
            for _ in 0..rounds(EVAL_ROUNDS) {
                let t = Instant::now();
                let e = evaluate(
                    &model,
                    &HeadTask::new(&head, &eval_ds),
                    exp.eval_batch,
                    &ParStrategy::with_threads(TRAIN_WORKERS),
                );
                eval_rates.push(e.n as f64 / t.elapsed().as_secs_f64());
                evals.push(e);
            }
        });
        self.count("core.evals", rounds(EVAL_ROUNDS), 0);
        let base = mean_baseline(
            &(0..pre_train.len())
                .map(|i| pre_train.target_raw(i) as f64)
                .collect::<Vec<_>>(),
            &(0..eval_ds.len())
                .map(|i| eval_ds.target_raw(i) as f64)
                .collect::<Vec<_>>(),
        );
        self.check(
            "core.pretrain_beats_mean",
            evals[0].mse_raw < base,
            format!(
                "pre-training test MSE {:.4e} vs train-mean predictor {:.4e}",
                evals[0].mse_raw, base
            ),
        );
        self.check(
            "core.eval_deterministic",
            evals
                .iter()
                .all(|e| e.mse_norm.to_bits() == evals[0].mse_norm.to_bits()),
            "evaluation rounds disagree".into(),
        );

        // ---- set-up B: checkpoint save + load --------------------------
        let pre = Pretrained {
            exp,
            model,
            heads: vec![Box::new(head)],
            norm: pre_train.norm.clone(),
            report: pre_reports.pop(),
            eval: Some(evals[0]),
            fleet: None,
            test_target_variance: None,
            provenance: vec![(
                "origin".into(),
                format!("e2ebench {} seed {}", w.name, self.seed),
            )],
        };
        let ckpt_path = self.work_dir.join("pretrained.ckpt");
        let mut loaded = None;
        for round in setup.iter_mut() {
            let t = Instant::now();
            let l = self.tracer.span("setup.b", None, None, |sid| {
                let saved = self
                    .tracer
                    .span("core.ckpt_save", Some(sid), None, |_| pre.save(&ckpt_path));
                let l = self.tracer.span("core.ckpt_load", Some(sid), None, |_| {
                    Pretrained::load(&ckpt_path)
                });
                (saved, l)
            });
            *round += t.elapsed().as_secs_f64();
            let (saved, l) = l;
            self.count("core.ckpt_save", 1, saved.is_err() as usize);
            self.count("core.ckpt_load", 1, l.is_err() as usize);
            loaded = l.ok();
        }
        let ckpt_bytes = std::fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0);
        let mut loaded = loaded.expect("checkpoint round trip failed");
        loaded.exp.train = TrainConfig {
            max_steps_per_epoch: Some(w.finetune_steps),
            ..exp.train
        };
        loaded.exp.threads = TRAIN_WORKERS;
        loaded.exp.data.stride = w.ft_stride;
        loaded.exp.eval_batch = exp.eval_batch;

        // ---- fine-tune -------------------------------------------------
        // A fixed-size problem: the test split is capped at
        // `ft_test_windows`, so every seed does the same work (training
        // work is steps x batch whatever the split's size).
        let ds_cfg = DatasetConfig {
            seq_len: exp.model.seq_len(),
            ..loaded.exp.data
        };
        let ft_sets = match w.task {
            Task::Delay => {
                let (tr, te) = loaded
                    .exp
                    .delay_datasets(Arc::clone(&ft_data), Some(loaded.norm.clone()));
                FtSets::Delay(tr, cap(&te, w.ft_test_windows, seeds.pool))
            }
            Task::Mct => {
                let (tr, te) = MctDataset::build(Arc::clone(&ft_data), ds_cfg, loaded.norm.clone());
                let te = if te.len() > w.ft_test_windows {
                    te.subsample(w.ft_test_windows as f64 / te.len() as f64, seeds.pool)
                } else {
                    te
                };
                FtSets::Mct(tr, te)
            }
        };
        let mut ft_times = Vec::new();
        let mut fts = Vec::new();
        self.tracer.span("core.finetune", None, None, |_| {
            for _ in 0..rounds(FINETUNE_ROUNDS) {
                let t = Instant::now();
                let ft = finetune_once(&loaded, &ckpt_path, &ft_sets);
                ft_times.push(t.elapsed().as_secs_f64());
                fts.push(ft);
            }
        });
        let failed = fts.iter().filter(|f| f.is_err()).count();
        self.count("core.finetunes", rounds(FINETUNE_ROUNDS), failed);
        let mut fts: Vec<Tuned> = fts
            .into_iter()
            .collect::<std::io::Result<_>>()
            .expect("fine-tune could not reload its checkpoint");
        let ft_mse = fts[0].eval.mse_norm;
        self.check(
            "core.finetune_mse_deterministic",
            fts.iter()
                .all(|f| f.eval.mse_norm.to_bits() == ft_mse.to_bits()),
            format!(
                "fine-tune MSE differs between identical rounds: {:?}",
                fts.iter().map(|f| f.eval.mse_norm).collect::<Vec<_>>()
            ),
        );
        let (ft_base, ft_test_len) = match &ft_sets {
            FtSets::Delay(tr, te) => (
                mean_baseline(
                    &(0..tr.len())
                        .map(|i| tr.target_raw(i) as f64)
                        .collect::<Vec<_>>(),
                    &(0..te.len())
                        .map(|i| te.target_raw(i) as f64)
                        .collect::<Vec<_>>(),
                ),
                te.len(),
            ),
            FtSets::Mct(tr, te) => (
                mean_baseline(
                    &(0..tr.len())
                        .map(|i| tr.target_log_raw(i) as f64)
                        .collect::<Vec<_>>(),
                    &(0..te.len())
                        .map(|i| te.target_log_raw(i) as f64)
                        .collect::<Vec<_>>(),
                ),
                te.len(),
            ),
        };
        self.check(
            "core.finetune_beats_mean",
            fts[0].eval.mse_raw < ft_base,
            format!(
                "fine-tune test MSE {:.4e} vs train-mean predictor {:.4e} ({} test windows)",
                fts[0].eval.mse_raw, ft_base, ft_test_len
            ),
        );
        eprintln!(
            "  fine-tune: {} test windows, test MSE {:.5} (normalized); train-mean predictor {:.4e} raw vs {:.4e}",
            ft_test_len, ft_mse, ft_base, fts[0].eval.mse_raw
        );
        if ft_test_len != w.ft_test_windows {
            eprintln!(
                "  note: the fine-tune test split has {ft_test_len} windows, not the workload's {}: this seed does different work",
                w.ft_test_windows
            );
        }
        if quality_only {
            return Outcome {
                phases: self.phases,
                checks: self.checks,
                e2e: vec![metric("finetune_mse", ft_mse, "1")],
                tails: Vec::new(),
                total_s: t_all.elapsed().as_secs_f64(),
                ctx: None,
            };
        }

        // ---- request pool ----------------------------------------------
        let pool_idx = |n: usize| -> Vec<usize> {
            let mut s = seeds.pool;
            (0..POOL_WINDOWS.min(n))
                .map(|_| (ntt_tensor::splitmix64(&mut s) % n as u64) as usize)
                .collect()
        };
        let (windows, aux): (Vec<Vec<f32>>, Vec<f32>) = match &ft_sets {
            FtSets::Delay(_, te) => {
                let idx = pool_idx(te.len());
                let (x, _) = te.batch(&idx);
                (split_rows(&x), vec![0.0; idx.len()])
            }
            FtSets::Mct(_, te) => {
                let idx = pool_idx(te.len());
                let (x, a, _) = te.batch(&idx);
                (split_rows(&x), a.data().to_vec())
            }
        };
        let mut routes = vec![("pretrain", "delay", false)];
        if w.task == Task::Mct {
            routes.push(("mct", "mct", true));
        }

        // ---- set-up C: registry, server, connections, warm-up --------
        let ft_ckpt = self.work_dir.join("finetuned.ckpt");
        let ft_best = fts.swap_remove(0);
        let ft_pre = Pretrained {
            exp: loaded.exp,
            model: ft_best.model,
            heads: vec![ft_best.head],
            norm: loaded.norm.clone(),
            report: Some(ft_best.report),
            eval: Some(ft_best.eval),
            fleet: None,
            test_target_variance: None,
            provenance: vec![("origin".into(), "e2ebench fine-tune".into())],
        };
        let conns = nproc();
        let mut live: Option<(Arc<ModelRegistry>, NetServer, Vec<NetClient>)> = None;
        for round in setup.iter_mut() {
            live = None; // the previous round's server and clients shut down first
            let t = Instant::now();
            let built = self
                .tracer
                .span("setup.c", None, None, |sid| -> Result<_, String> {
                    let registry = Arc::new(ModelRegistry::new());
                    self.tracer
                        .span("serve.registry_load", Some(sid), None, |_| {
                            registry
                                .load("pretrain", &ckpt_path)
                                .map_err(|e| e.to_string())?;
                            if w.task == Task::Mct {
                                ft_pre.save(&ft_ckpt).map_err(|e| e.to_string())?;
                                registry.load("mct", &ft_ckpt).map_err(|e| e.to_string())?;
                            }
                            Ok::<(), String>(())
                        })?;
                    let server = self
                        .tracer
                        .span("net.bind", Some(sid), None, |_| {
                            self.bind(Arc::clone(&registry))
                        })
                        .map_err(|e| e.to_string())?;
                    let mut clients = self
                        .tracer
                        .span("net.connect", Some(sid), None, |_| {
                            (0..conns)
                                .map(|_| connect(&server, w.transport, &self.work_dir))
                                .collect::<Result<Vec<_>, _>>()
                        })
                        .map_err(|e| e.to_string())?;
                    self.tracer.span("net.warmup", Some(sid), None, |_| {
                        for (c, client) in clients.iter_mut().enumerate() {
                            for k in 0..WARMUP_PER_CONN {
                                let window = &windows[k % windows.len()];
                                for &(model, head, needs_aux) in &routes {
                                    let a = needs_aux.then(|| aux[k % aux.len()]);
                                    client
                                        .predict(model, head, window, a, None)
                                        .map_err(|e| format!("warm-up on connection {c}: {e}"))?;
                                }
                            }
                        }
                        Ok::<(), String>(())
                    })?;
                    Ok((registry, server, clients))
                });
            *round += t.elapsed().as_secs_f64();
            let failed = built.is_err() as usize;
            self.count("serve.registry_loads", routes.len(), failed);
            self.count(
                "net.warmup_requests",
                conns * WARMUP_PER_CONN * routes.len(),
                failed * conns * WARMUP_PER_CONN * routes.len(),
            );
            match built {
                Ok(l) => live = Some(l),
                Err(e) => {
                    self.check("net.setup", false, e);
                }
            }
        }
        let (registry, server, clients) = live.expect("server set-up failed");

        // ---- reload and wire-identity checks ---------------------------
        let mem_pre = InferenceEngine::from_pretrained(pre);
        let mem_ft = InferenceEngine::from_pretrained(ft_pre);
        let mut expected = Vec::new();
        for &(model, head, needs_aux) in &routes {
            let served = registry.get(model).expect("registered model");
            let in_memory = if model == "pretrain" {
                &mem_pre
            } else {
                &mem_ft
            };
            let mut col = Vec::new();
            let mut mismatches = 0;
            for (i, win) in windows.iter().enumerate() {
                let x = Tensor::from_vec(win.clone(), &[1, exp.model.seq_len(), NUM_FEATURES]);
                let a = needs_aux.then(|| Tensor::from_vec(vec![aux[i]], &[1, 1]));
                let got = served.predict(head, &x, a.as_ref()).data()[0];
                let want = in_memory.predict(head, &x, a.as_ref()).data()[0];
                mismatches += (got.to_bits() != want.to_bits()) as usize;
                col.push(got);
            }
            self.check(
                "core.reload_bit_identical",
                mismatches == 0,
                format!(
                    "{mismatches} of {} windows differ after checkpoint reload ({model})",
                    windows.len()
                ),
            );
            expected.push(col);
        }
        let pool = RequestPool {
            windows,
            aux,
            routes,
            expected,
        };

        // ---- wire phases ------------------------------------------------
        let (wire, clients) = self.wire(&registry, clients, &pool, &ft_ckpt);
        let total_s = t_all.elapsed().as_secs_f64() - wire.search_s;

        let rss = peak_rss_mb();
        let t_setup = stats::median(&setup);
        let e2e = vec![
            metric("setup_s", t_setup, "s"),
            metric("pretrain_windows_per_s", stats::median(&rates), "1/s"),
            metric("finetune_s", stats::median(&ft_times), "s"),
            metric("finetune_mse", ft_mse, "1"),
            metric("eval_windows_per_s", stats::median(&eval_rates), "1/s"),
            metric("p50_ms.low", wire.low.median(), "ms"),
            metric("p50_ms.high", wire.high.median(), "ms"),
            metric("peak_rss_mb", rss, "MB"),
        ];
        let tails = vec![
            metric("p99_ms.low", wire.low.tail().value, "ms"),
            metric("p99_ms.high", wire.high.tail().value, "ms"),
            metric("max_rate_rps", wire.max_rate, "1/s"),
        ];
        eprintln!(
            "  setup rounds {:?} s; pretrain {:?} windows/s; finetune {:?} s; eval {:?} windows/s",
            setup
                .iter()
                .map(|v| (v * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            rates.iter().map(|v| v.round()).collect::<Vec<_>>(),
            ft_times
                .iter()
                .map(|v| (v * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            eval_rates.iter().map(|v| v.round()).collect::<Vec<_>>()
        );
        let data_windows = pre_train.len() + pre_test.len();
        let ctx = keep_probe_ctx.then(|| ProbeCtx {
            mem_pre,
            pre_train,
            ft_sets,
            registry: Arc::clone(&registry),
            pool,
            wire,
            fleet,
            data_windows,
            ckpt_bytes,
            ckpt_path: ckpt_path.clone(),
            train_step_ns,
            work_dir: self.work_dir.clone(),
            clients,
            _server: server,
        });
        Outcome {
            phases: self.phases,
            checks: self.checks,
            e2e,
            tails,
            total_s,
            ctx,
        }
    }

    fn bind(&self, registry: Arc<ModelRegistry>) -> std::io::Result<NetServer> {
        let cfg = NetConfig {
            max_connections: 64,
            pool: BatchConfig {
                max_batch: POOL_MAX_BATCH,
                workers: POOL_WORKERS,
                queue_cap: 1024,
                ..BatchConfig::default()
            },
            slo: None,
        };
        match self.w.transport {
            Transport::Tcp => NetServer::bind_tcp("127.0.0.1:0", registry, cfg),
            Transport::Unix => NetServer::bind_unix(self.work_dir.join("ntt.sock"), registry, cfg),
        }
    }

    /// The wire phases: low rate, high rate and, if asked for, the
    /// max-rate search, with every thread of the process confined to
    /// one core (see [`crate::affinity`]). On a workload with reloads, a
    /// reloader thread swaps the fine-tuned checkpoint back into the
    /// registry every `reload_every` completed requests throughout.
    fn wire(
        &mut self,
        registry: &Arc<ModelRegistry>,
        clients: Vec<NetClient>,
        pool: &RequestPool,
        ft_ckpt: &Path,
    ) -> (WireSummary, Vec<NetClient>) {
        let w = self.w;
        let conns = clients.len();
        let confined = crate::affinity::confine();
        match &confined {
            Some(c) => eprintln!("  wire phases confined to core {}", c.cpu),
            None => eprintln!("  wire phases NOT confined: cannot set thread affinity"),
        }
        let clock = RealClock::new();
        let clients: Vec<Mutex<NetClient>> = clients.into_iter().map(Mutex::new).collect();
        let completed = AtomicUsize::new(0);
        let next_id = std::sync::atomic::AtomicU64::new(1);
        let sent: Mutex<Vec<(u64, usize)>> = Mutex::new(Vec::new());
        let mismatched = AtomicUsize::new(0);
        let phase_s = self.seconds * 0.5;
        let probe_s = self.seconds * 0.5 / SEARCH_PROBE_SLOTS as f64;
        let tracer = self.tracer;
        // Per phase: name, client attempted, client ok, server tally.
        let tallies: Mutex<Vec<(&str, usize, usize, ServerTally)>> = Mutex::new(Vec::new());
        let search = self.search;
        let (summary, reload_stats) = std::thread::scope(|s| {
            // The request that completes every `reload_every`-th reply
            // wakes the reloader; the channel closes after the phases.
            let (reload_tx, reload_rx) = std::sync::mpsc::channel::<()>();
            let reloader = w.reload_every.map(|_| {
                s.spawn(move || {
                    let (mut done, mut failed) = (0usize, 0usize);
                    for () in reload_rx {
                        let ok = tracer.span("serve.reload", None, None, |_| {
                            registry.load("mct", ft_ckpt).is_ok()
                        });
                        done += 1;
                        failed += (!ok) as usize;
                    }
                    (done, failed)
                })
            });
            let run_phase = |name: &'static str,
                             rate: f64,
                             dur_s: f64,
                             rtt: Option<&Mutex<Vec<f64>>>|
             -> PhaseStats {
                let per_conn = ((rate * dur_s / conns as f64).round() as usize).max(1);
                let pace = Pace {
                    rate_rps: rate,
                    conns,
                    per_conn,
                    max_wall: Duration::from_secs_f64(dur_s * 2.0 + 0.5),
                };
                let before = ServerTally::now();
                let st = tracer.span(name, None, None, |pid| {
                    loadgen::run_paced(&clock, &pace, |c| {
                        let client = &clients[c];
                        let (completed, next_id, sent, mismatched, reload_tx) =
                            (&completed, &next_id, &sent, &mismatched, &reload_tx);
                        move |g: usize| -> Result<(), String> {
                            let id = next_id.fetch_add(1, Ordering::Relaxed);
                            let (req, route, widx) = pool.request(id, g);
                            let mut client = client.lock().expect("client lock");
                            let t0 = Instant::now();
                            let resp = tracer
                                .span("net.client_request", Some(pid), Some(id), |_| {
                                    client.send(&req)
                                })
                                .map_err(|e| format!("request {id}: {e}"))?;
                            let rtt_ms = ms(t0.elapsed());
                            drop(client);
                            sent.lock().expect("sent log").push((id, g));
                            if resp.id != id {
                                return Err(format!(
                                    "response id {} answers request {id}",
                                    resp.id
                                ));
                            }
                            let v = resp.result.map_err(|e| format!("request {id}: {e}"))?;
                            if v.to_bits() != pool.expected[route][widx].to_bits() {
                                mismatched.fetch_add(1, Ordering::Relaxed);
                                return Err(format!(
                                    "request {id}: wire {v} != predict {}",
                                    pool.expected[route][widx]
                                ));
                            }
                            if let Some(r) = rtt {
                                r.lock().expect("rtt log").push(rtt_ms);
                            }
                            let done = completed.fetch_add(1, Ordering::SeqCst) + 1;
                            if w.reload_every.is_some_and(|every| done % every == 0) {
                                // The reloader outlives every phase.
                                let _ = reload_tx.send(());
                            }
                            Ok(())
                        }
                    })
                });
                tallies.lock().expect("tally log").push((
                    name,
                    st.attempted,
                    st.ok,
                    ServerTally::now().since(&before),
                ));
                st
            };
            let low = run_phase("wire.low", w.low_rps, phase_s, None);
            let rtt = Mutex::new(Vec::new());
            let before = ntt_obs::snapshot();
            let high = run_phase("wire.high", w.high_rps, phase_s, Some(&rtt));
            let after = ntt_obs::snapshot();
            let high_obs = [
                "net.request_ns",
                "serve.queue_wait_ns",
                "serve.service_ns",
                "serve.batch_size",
            ]
            .map(|name| {
                let cur = after.histogram(name).cloned().unwrap_or_default();
                let prev = before.histogram(name).cloned().unwrap_or_default();
                (name.to_string(), ntt_net::adaptive::delta(&cur, &prev))
            });
            let high_counters = ["net.bytes_in", "net.bytes_out", "net.requests"].map(|name| {
                let d = after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
                (name.to_string(), d)
            });
            let mut probes: Vec<PhaseStats> = Vec::new();
            let t_search = Instant::now();
            let (best, _) = if !search {
                (None, vec![])
            } else {
                loadgen::search_max_rate(
                    w.search_start_rps,
                    SEARCH_GROWTH,
                    SEARCH_REFINE,
                    SEARCH_MAX_PROBES,
                    |r| {
                        // A rate fails only when two probes in a row fail it:
                        // a host stall is transient, a capacity limit is not.
                        let mut step = None;
                        for _ in 0..SEARCH_TRIES {
                            let st = run_phase("wire.search", r, probe_s, None);
                            let s = Step {
                                offered_rps: r,
                                pass: st.sustained(w.p99_limit_ms),
                                achieved_rps: st.achieved_rps(),
                            };
                            let tail = st.tail();
                            eprintln!(
                            "    probe {r:>8.1} rps: achieved {:>8.1}, tail {:>7.3} ms (q{:.3}, n {}), late growth {:>7.3} ms -> {}",
                            s.achieved_rps,
                            tail.value,
                            tail.quantile,
                            st.latency_ms.len(),
                            st.late_growth_ms(),
                            if s.pass { "pass" } else { "fail" }
                        );
                            probes.push(st);
                            step = Some(s);
                            if s.pass {
                                break;
                            }
                        }
                        step.expect("at least one try")
                    },
                )
            };
            let summary = WireSummary {
                low,
                high,
                high_rtt_ms: rtt.into_inner().expect("rtt log"),
                high_obs: high_obs.to_vec(),
                high_counters: high_counters.to_vec(),
                max_rate: if search {
                    best.map_or(0.0, |b| b.achieved_rps)
                } else {
                    f64::NAN
                },
                search_s: t_search.elapsed().as_secs_f64(),
            };
            drop(reload_tx);
            let reload_stats = reloader.map(|h| h.join().expect("reloader thread panicked"));
            // Every probe, passing or not, is attempted work.
            let (mut att, mut fail) = (0, 0);
            for p in &probes {
                att += p.attempted;
                fail += p.failed;
            }
            (summary, (reload_stats, att, fail))
        });
        let (reload_stats, search_att, search_fail) = reload_stats;
        for (name, st) in [
            ("net.requests.low", &summary.low),
            ("net.requests.high", &summary.high),
        ] {
            let tail = st.tail();
            eprintln!(
                "  {name}: {} ok in {:.2} s; from due: p50 {:.3} ms, tail {:.3} ms (q{:.3}, n {}); late p50 {:.3} ms, max {:.3} ms",
                st.ok,
                st.wall_s,
                st.median(),
                tail.value,
                tail.quantile,
                tail.n,
                stats::median(&st.late_ms),
                st.late_max_ms()
            );
            self.count(name, st.attempted, st.failed);
            if let Some(e) = &st.first_error {
                eprintln!("  {name}: first error: {e}");
            }
        }
        if search {
            self.count("net.requests.search", search_att, search_fail);
        }
        if let Some((done, failed)) = reload_stats {
            self.count("serve.reloads", done, failed);
        }
        // Accounting, against the program's own counters: the server
        // handled every request the client sent in the phase, and the
        // engines forwarded one window for every reply the client took
        // as correct (a failed reply forwarded none or answered wrong).
        let tallies = tallies.into_inner().expect("tally log");
        let bad: Vec<String> = tallies
            .iter()
            .filter(|(_, attempted, ok, server)| {
                server.requests != *attempted as u64 || server.windows != *ok as u64
            })
            .map(|(name, attempted, ok, server)| {
                format!(
                    "{name}: client sent {attempted}, server handled {}; client took {ok} replies, engines forwarded {} windows",
                    server.requests, server.windows
                )
            })
            .collect();
        self.check("net.accounting", bad.is_empty(), bad.join("; "));
        self.check(
            "net.wire_matches_predict",
            mismatched.load(Ordering::SeqCst) == 0,
            format!(
                "{} wire responses differ from direct predict",
                mismatched.load(Ordering::SeqCst)
            ),
        );
        // Codec round trip of every request sent.
        let sent = sent.into_inner().expect("sent log");
        let mut bad = 0usize;
        for &(id, g) in &sent {
            let (req, _, _) = pool.request(id, g);
            let ok = frame::encode_request(&req)
                .ok()
                .and_then(|bytes| frame::decode_body(&bytes[4..]).ok())
                .is_some_and(|f| f == Frame::Request(req));
            bad += (!ok) as usize;
        }
        self.check(
            "net.codec_roundtrip",
            bad == 0 && !sent.is_empty(),
            format!(
                "{bad} of {} requests do not survive decode(encode(r))",
                sent.len()
            ),
        );
        if search {
            self.check(
                "net.max_rate_found",
                summary.max_rate > 0.0,
                format!(
                    "no probe from {} rps down sustained the {} ms limit",
                    w.search_start_rps, w.p99_limit_ms
                ),
            );
        }
        drop(confined);
        let clients = clients
            .into_iter()
            .map(|c| c.into_inner().expect("client lock"))
            .collect();
        (summary, clients)
    }
}

/// The server's own request and forward counters.
#[derive(Debug, Clone, Copy)]
struct ServerTally {
    /// `net.requests`: requests the server decoded and handled.
    requests: u64,
    /// `serve.windows_served`: windows the engines forwarded.
    windows: u64,
}

impl ServerTally {
    fn now() -> ServerTally {
        let snap = ntt_obs::snapshot();
        ServerTally {
            requests: snap.counter("net.requests").unwrap_or(0),
            windows: snap.counter("serve.windows_served").unwrap_or(0),
        }
    }

    fn since(&self, before: &ServerTally) -> ServerTally {
        ServerTally {
            requests: self.requests - before.requests,
            windows: self.windows - before.windows,
        }
    }
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

pub fn hist(name: &str) -> HistogramSnapshot {
    ntt_obs::snapshot()
        .histogram(name)
        .cloned()
        .unwrap_or_default()
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn connect(
    server: &NetServer,
    transport: Transport,
    work_dir: &Path,
) -> std::io::Result<NetClient> {
    match transport {
        Transport::Tcp => NetClient::connect_tcp(server.tcp_addr().expect("tcp server")),
        Transport::Unix => NetClient::connect_unix(work_dir.join("ntt.sock")),
    }
}

/// MSE of predicting the training targets' mean on the test targets.
pub fn mean_baseline(train: &[f64], test: &[f64]) -> f64 {
    let m = train.iter().sum::<f64>() / train.len().max(1) as f64;
    test.iter().map(|y| (y - m) * (y - m)).sum::<f64>() / test.len().max(1) as f64
}

/// At most `n` windows of `ds` (a seeded subsample when larger).
fn cap(ds: &DelayDataset, n: usize, seed: u64) -> DelayDataset {
    if ds.len() <= n {
        ds.clone()
    } else {
        ds.subsample(n as f64 / ds.len() as f64, seed)
    }
}

fn split_rows(x: &Tensor) -> Vec<Vec<f32>> {
    let b = x.shape()[0];
    let row = x.data().len() / b;
    x.data().chunks(row).map(|r| r.to_vec()).collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_sim::SimTime;

    #[test]
    fn floor_adds_propagation_and_per_link_serialization() {
        let cfg = ScenarioConfig {
            access_bps: 100_000_000,
            access_delay: SimTime::from_micros(50),
            bottleneck_bps: 30_000_000,
            bottleneck_delay: SimTime::from_millis(10),
            ..ScenarioConfig::default()
        };
        // 1500 B: 120 µs per access hop, 400 µs on the bottleneck.
        assert_eq!(
            dumbbell_floor_ns(&cfg, 1500),
            2 * (50_000 + 120_000) + 10_000_000 + 400_000
        );
    }

    #[test]
    fn mean_baseline_uses_the_training_mean() {
        assert_eq!(mean_baseline(&[1.0, 3.0], &[2.0, 4.0]), (0.0 + 4.0) / 2.0);
    }
}
