//! Per-layer probes of the traced run.
//!
//! Span-based metrics (sweep, dataset build, checkpoint, evaluation)
//! are self times of the spans the pass recorded. The `nn` stage
//! probes rebuild each stage of the NTT from the public `ntt-nn`
//! layers at the workload's shapes and time it alone; the `tensor`
//! probes call the GEMM kernel at the model's own GEMM shapes. Serving
//! and wire figures come from the program's `ntt-obs` histograms over
//! the high-rate phase, which carry up to ±12.5% bucket error.

use crate::run::{metric, FtSets, Metric, ProbeCtx};
use crate::spans::{self_seconds, self_times, Span};
use crate::stats;
use crate::workload::*;
use ntt_core::{build_head, Aggregation, DelayHead, HeadTask, NttConfig, OUT_SLOTS, ZONE_SLOTS};
use ntt_data::NUM_FEATURES;
use ntt_net::frame;
use ntt_nn::{
    clip_param_grads, Activation, Adam, Head, LayerNorm, Linear, LrSchedule, Module,
    MultiHeadAttention, PositionalEncoding,
};
use ntt_tensor::{kernels, TapePool, Tensor, Var};
use std::time::Instant;

/// Median seconds per call of `f`, after one warm-up call, over at
/// least `min_reps` calls and until 20 ms have been spent.
fn time_median(min_reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut v = Vec::new();
    let t_all = Instant::now();
    while v.len() < min_reps || (t_all.elapsed().as_secs_f64() < 0.02 && v.len() < 200) {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64());
    }
    stats::median(&v)
}

/// The NTT's stages, rebuilt from public layers at one config.
struct Stages {
    cfg: NttConfig,
    embed: Linear,
    agg1: Option<Linear>,
    agg2: Option<Linear>,
    pos: PositionalEncoding,
    attn: Vec<MultiHeadAttention>,
    ff: Vec<(Linear, Linear)>,
    norms: Vec<LayerNorm>,
    head: DelayHead,
}

#[derive(Clone, Copy)]
enum Mode {
    Infer,
    Train,
}

impl Stages {
    fn new(cfg: NttConfig) -> Stages {
        let d = cfg.d_model;
        let (agg1, agg2) = match cfg.aggregation {
            Aggregation::MultiScale { block } => (
                Some(Linear::new("p.agg1", block * d, d, 1)),
                Some(Linear::new("p.agg2", 2 * d, d, 2)),
            ),
            Aggregation::Fixed { block } => (Some(Linear::new("p.agg1", block * d, d, 1)), None),
            Aggregation::None => (None, None),
        };
        let l = cfg.n_layers;
        Stages {
            cfg,
            embed: Linear::new("p.embed", NUM_FEATURES, d, 3),
            agg1,
            agg2,
            pos: PositionalEncoding::new(OUT_SLOTS, d),
            attn: (0..l)
                .map(|i| MultiHeadAttention::new("p.attn", d, cfg.n_heads, 10 + i as u64))
                .collect(),
            ff: (0..l)
                .map(|i| {
                    (
                        Linear::new("p.ff1", d, cfg.d_ff, 20 + i as u64),
                        Linear::new("p.ff2", cfg.d_ff, d, 30 + i as u64),
                    )
                })
                .collect(),
            norms: (0..2 * l + 1).map(|_| LayerNorm::new("p.ln", d)).collect(),
            head: DelayHead::new(d, 4),
        }
    }

    /// Aggregation plus positional encoding: `[B, T, D] -> [B, 48, D]`,
    /// the same sequence of ops as `Ntt::forward`.
    fn agg<'t>(&self, tape: &'t ntt_tensor::Tape, e: Var<'t>) -> Var<'t> {
        let (b, d) = (e.shape()[0], self.cfg.d_model);
        let slots = match self.cfg.aggregation {
            Aggregation::None => e,
            Aggregation::Fixed { block } => {
                let a1 = self.agg1.as_ref().expect("agg1");
                a1.forward(tape, e.reshape(&[b, OUT_SLOTS, block * d]))
            }
            Aggregation::MultiScale { block } => {
                let (a1, a2) = (
                    self.agg1.as_ref().expect("agg1"),
                    self.agg2.as_ref().expect("agg2"),
                );
                let (old_len, mid_len) = (2 * ZONE_SLOTS * block, ZONE_SLOTS * block);
                let old = e.slice_axis1(0, old_len);
                let mid = e.slice_axis1(old_len, mid_len);
                let raw = e.slice_axis1(old_len + mid_len, ZONE_SLOTS);
                let old1 = a1.forward(tape, old.reshape(&[b, 2 * ZONE_SLOTS, block * d]));
                let old2 = a2.forward(tape, old1.reshape(&[b, ZONE_SLOTS, 2 * d]));
                let mid1 = a1.forward(tape, mid.reshape(&[b, ZONE_SLOTS, block * d]));
                Var::concat_axis1(&[old2, mid1, raw])
            }
        };
        self.pos.forward(tape, slots)
    }

    /// Each stage: name, input shape, FLOPs per forward, and the call.
    fn stage_flops(&self, stage: &str, b: usize) -> f64 {
        let (b, t, d, f) = (
            b as f64,
            self.cfg.seq_len() as f64,
            self.cfg.d_model as f64,
            self.cfg.d_ff as f64,
        );
        let (s, l, h) = (
            OUT_SLOTS as f64,
            self.cfg.n_layers as f64,
            self.cfg.n_heads as f64,
        );
        match stage {
            "embed" => 2.0 * b * t * NUM_FEATURES as f64 * d,
            "agg" => match self.cfg.aggregation {
                Aggregation::MultiScale { block } => {
                    2.0 * b * s * block as f64 * d * d
                        + 2.0 * b * ZONE_SLOTS as f64 * 2.0 * d * d
                        + b * s * d
                }
                Aggregation::Fixed { block } => 2.0 * b * s * block as f64 * d * d + b * s * d,
                Aggregation::None => b * s * d,
            },
            "attn" => l * (8.0 * b * s * d * d + 4.0 * b * h * s * s * (d / h)),
            "ff" => l * 4.0 * b * s * d * f,
            "norm" => (2.0 * l + 1.0) * 8.0 * b * s * d,
            "head" => 2.0 * b * (d * d + d),
            _ => unreachable!("unknown stage {stage}"),
        }
    }

    fn run_stage<'t>(&self, stage: &str, tape: &'t ntt_tensor::Tape, x: Var<'t>) -> Var<'t> {
        match stage {
            "embed" => self.embed.forward(tape, x),
            "agg" => self.agg(tape, x),
            "attn" => self.attn.iter().fold(x, |x, a| a.forward(tape, x)),
            "ff" => self.ff.iter().fold(x, |x, (f1, f2)| {
                f2.forward(tape, Activation::Gelu.forward(f1.forward(tape, x)))
            }),
            "norm" => self.norms.iter().fold(x, |x, n| n.forward(tape, x)),
            "head" => self.head.forward(tape, x),
            _ => unreachable!("unknown stage {stage}"),
        }
    }

    fn input_shape(&self, stage: &str, b: usize) -> Vec<usize> {
        match stage {
            "embed" => vec![b, self.cfg.seq_len(), NUM_FEATURES],
            "agg" => vec![b, self.cfg.seq_len(), self.cfg.d_model],
            _ => vec![b, OUT_SLOTS, self.cfg.d_model],
        }
    }

    /// Median seconds of one stage call (forward; forward + backward
    /// in training mode) at batch `b`.
    fn time(&self, stage: &str, b: usize, mode: Mode) -> f64 {
        let x = Tensor::randn(&self.input_shape(stage, b), 7);
        let pool = match mode {
            Mode::Infer => TapePool::inference(),
            Mode::Train => TapePool::training(),
        };
        time_median(5, || {
            pool.with(0, |tape| {
                let y = self.run_stage(stage, tape, tape.input_copy(&x));
                match mode {
                    Mode::Infer => {
                        std::hint::black_box(y.value());
                    }
                    Mode::Train => {
                        std::hint::black_box(tape.backward_params(y.mean_all()));
                    }
                }
            })
        })
    }
}

/// Everything the traced run reports, from the recorded spans and the
/// probes below.
pub fn probe(ctx: &mut ProbeCtx, w: &Workload, spans: &[Span]) -> Vec<Metric> {
    let mut out = Vec::new();
    let selfs = self_times(spans);
    let per_round = |name: &str, rounds: usize| self_seconds(spans, &selfs, name) / rounds as f64;

    // ---- sim, fleet, data -------------------------------------------
    out.push(metric(
        "fleet.sweep_s",
        per_round("fleet.sweep", SETUP_ROUNDS),
        "s",
    ));
    out.push(metric(
        "fleet.packets_per_s",
        ctx.fleet.packets_per_sec(),
        "1/s",
    ));
    let shard_max = ctx
        .fleet
        .shards
        .iter()
        .map(|s| s.wall.as_secs_f64())
        .fold(0.0, f64::max);
    out.push(metric("fleet.shard_s.max", shard_max, "s"));
    out.push(metric(
        "sim.packets",
        ctx.fleet.total_packets() as f64,
        "count",
    ));
    out.push(metric(
        "data.build_s",
        per_round("data.build", SETUP_ROUNDS),
        "s",
    ));
    out.push(metric("data.windows", ctx.data_windows as f64, "count"));

    // ---- core: checkpoint -------------------------------------------
    out.push(metric(
        "core.ckpt_save_s",
        per_round("core.ckpt_save", SETUP_ROUNDS),
        "s",
    ));
    out.push(metric(
        "core.ckpt_load_s",
        per_round("core.ckpt_load", SETUP_ROUNDS),
        "s",
    ));
    out.push(metric("core.ckpt_bytes", ctx.ckpt_bytes as f64, "B"));

    // ---- core: one training step composed from public calls ---------
    let batch: Vec<usize> = (0..w.batch.min(ctx.pre_train.len())).collect();
    let model = ctx.mem_pre.model().clone_weights();
    let head = DelayHead::new(model.cfg.d_model, 5);
    let task = HeadTask::new(&head, &ctx.pre_train);
    let (fwd, bwd, opt) = step_parts(&model, &task, &head, &batch, true);
    out.push(metric("core.train_forward_s", fwd, "s"));
    out.push(metric("core.train_backward_s", bwd, "s"));
    out.push(metric("core.train_optim_s", opt, "s"));
    out.push(metric(
        "core.train_step_ms.p50",
        ctx.train_step_ns.p50() / 1e6,
        "ms",
    ));

    // ---- core: frozen-trunk fine-tune step, evaluation ---------------
    let ft_head = build_head(
        if matches!(ctx.ft_sets, FtSets::Mct(..)) {
            "mct"
        } else {
            "delay"
        },
        model.cfg.d_model,
    )
    .expect("known head kind");
    let (ffwd, fbwd) = match &ctx.ft_sets {
        FtSets::Delay(ds, _) => {
            let b: Vec<usize> = (0..w.batch.min(ds.len())).collect();
            let t = HeadTask::new(ft_head.as_ref(), ds);
            let (f, bw, _) = step_parts(&model, &t, ft_head.as_ref(), &b, false);
            (f, bw)
        }
        FtSets::Mct(ds, _) => {
            let b: Vec<usize> = (0..w.batch.min(ds.len())).collect();
            let t = HeadTask::new(ft_head.as_ref(), ds);
            let (f, bw, _) = step_parts(&model, &t, ft_head.as_ref(), &b, false);
            (f, bw)
        }
    };
    out.push(metric("core.finetune_forward_s", ffwd, "s"));
    out.push(metric("core.finetune_backward_s", fbwd, "s"));
    out.push(metric(
        "core.eval_s",
        per_round("core.eval", EVAL_ROUNDS),
        "s",
    ));

    // ---- nn stages ----------------------------------------------------
    let stages = Stages::new(model.cfg);
    for stage in ["embed", "agg", "attn", "ff", "norm", "head"] {
        for (tag, b, mode) in [
            ("b1", 1, Mode::Infer),
            ("b32", 32, Mode::Infer),
            ("train", 8, Mode::Train),
        ] {
            let s = stages.time(stage, b, mode);
            let mult = if matches!(mode, Mode::Train) {
                3.0
            } else {
                1.0
            };
            out.push(metric(&format!("nn.{stage}_s.{tag}"), s, "s"));
            out.push(metric(
                &format!("nn.{stage}_gflops.{tag}"),
                mult * stages.stage_flops(stage, b) / s / 1e9,
                "GFLOP/s",
            ));
        }
    }
    let pool = TapePool::inference();
    for (tag, b) in [("b1", 1usize), ("b32", 32)] {
        let x = Tensor::randn(&[b, model.cfg.seq_len(), NUM_FEATURES], 9);
        let s = time_median(5, || {
            pool.with(0, |tape| {
                std::hint::black_box(model.forward(tape, tape.input_copy(&x)).value());
            })
        });
        out.push(metric(&format!("nn.forward_s.{tag}"), s, "s"));
    }

    // ---- tensor kernels -------------------------------------------------
    let (d, f, t) = (model.cfg.d_model, model.cfg.d_ff, model.cfg.seq_len());
    for (tag, b) in [("b1", 1usize), ("b32", 32)] {
        for (role, m, k, n) in [
            ("embed", b * t, NUM_FEATURES, d),
            ("proj", b * OUT_SLOTS, d, d),
            ("ff1", b * OUT_SLOTS, d, f),
            ("ff2", b * OUT_SLOTS, f, d),
        ] {
            let a = Tensor::randn(&[m, k], 1);
            let bm = Tensor::randn(&[k, n], 2);
            let mut c = vec![0.0f32; m * n];
            let s = time_median(5, || {
                kernels::gemm_nn(a.data(), bm.data(), &mut c, m, k, n);
                std::hint::black_box(&c);
            });
            eprintln!("    gemm {role}.{tag}: {m}x{k}x{n}");
            out.push(metric(
                &format!("tensor.gemm_gflops.{role}.{tag}"),
                2.0 * (m * k * n) as f64 / s / 1e9,
                "GFLOP/s",
            ));
        }
    }
    let mha = MultiHeadAttention::new("p.mha", d, model.cfg.n_heads, 11);
    let xa = Tensor::randn(&[32, OUT_SLOTS, d], 3);
    for (name, pool) in [
        ("tensor.attn_fused_s.b32", TapePool::inference()),
        ("tensor.attn_classic_s.b32", TapePool::training()),
    ] {
        let s = time_median(5, || {
            pool.with(0, |tape| {
                std::hint::black_box(mha.forward(tape, tape.input_copy(&xa)).value());
            })
        });
        out.push(metric(name, s, "s"));
    }
    let engine = ctx.registry.get("pretrain").expect("registered");
    let x1 = Tensor::from_vec(ctx.pool.windows[0].clone(), &[1, t, NUM_FEATURES]);
    let before = ntt_obs::snapshot()
        .counter("tensor.gemm_calls")
        .unwrap_or(0);
    std::hint::black_box(engine.predict("delay", &x1, None));
    let calls = ntt_obs::snapshot()
        .counter("tensor.gemm_calls")
        .unwrap_or(0)
        - before;
    out.push(metric(
        "tensor.gemm_calls_per_forward",
        calls as f64,
        "count",
    ));
    let snap = ntt_obs::snapshot();
    let acquires = snap
        .counter("tensor.tape_pool.acquires")
        .unwrap_or(0)
        .max(1);
    let misses = snap.counter("tensor.tape_pool.misses").unwrap_or(0);
    out.push(metric(
        "tensor.tape_pool_miss_ratio",
        misses as f64 / acquires as f64,
        "1",
    ));

    // ---- serve ----------------------------------------------------------
    let mut x2 = ctx.pool.windows[0].clone();
    x2.extend_from_slice(&ctx.pool.windows[1 % ctx.pool.windows.len()]);
    let x2 = Tensor::from_vec(x2, &[2, t, NUM_FEATURES]);
    for (tag, x) in [("b1", &x1), ("b2", &x2)] {
        let s = time_median(20, || {
            std::hint::black_box(engine.predict("delay", x, None));
        });
        out.push(metric(&format!("serve.predict_ms.{tag}"), s * 1e3, "ms"));
    }
    let high = |name: &str| {
        ctx.wire
            .high_obs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    };
    let (qw, sv, bs, rq) = (
        high("serve.queue_wait_ns"),
        high("serve.service_ns"),
        high("serve.batch_size"),
        high("net.request_ns"),
    );
    out.push(metric("serve.queue_wait_ms.p50", qw.p50() / 1e6, "ms"));
    out.push(metric("serve.queue_wait_ms.p99", qw.p99() / 1e6, "ms"));
    out.push(metric("serve.service_ms.p50", sv.p50() / 1e6, "ms"));
    out.push(metric("serve.service_ms.p99", sv.p99() / 1e6, "ms"));
    out.push(metric("serve.batch_size.mean", bs.mean(), "count"));
    // Reload to the first response on the new engine.
    let (model_name, head_kind, needs_aux) = *ctx.pool.routes.last().expect("a route");
    let ckpt = if model_name == "mct" {
        ctx.work_dir.join("finetuned.ckpt")
    } else {
        ctx.ckpt_path.clone()
    };
    let mut swaps = Vec::new();
    for k in 0..5 {
        let t0 = Instant::now();
        let loaded = ctx.registry.load(model_name, &ckpt);
        let aux = needs_aux.then(|| ctx.pool.aux[k]);
        let resp = ctx.clients[0].predict(model_name, head_kind, &ctx.pool.windows[k], aux, None);
        if loaded.is_ok() && resp.is_ok() {
            swaps.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    out.push(metric(
        "serve.swap_ms",
        if swaps.is_empty() {
            0.0
        } else {
            stats::median(&swaps)
        },
        "ms",
    ));

    // ---- net ------------------------------------------------------------
    let (req, _, _) = ctx.pool.request(1, 0);
    let bytes = frame::encode_request(&req).expect("encodable request");
    let enc = time_median(50, || {
        std::hint::black_box(frame::encode_request(&req).ok());
    });
    let dec = time_median(50, || {
        std::hint::black_box(frame::decode_body(&bytes[4..]).ok());
    });
    out.push(metric("net.encode_us", enc * 1e6, "us"));
    out.push(metric("net.decode_us", dec * 1e6, "us"));
    out.push(metric("net.request_ms.p50", rq.p50() / 1e6, "ms"));
    // Means, not medians, split the round trip: a mean of a sum is the
    // sum of the means, and the histogram sums are exact.
    let rtt_mean =
        ctx.wire.high_rtt_ms.iter().sum::<f64>() / ctx.wire.high_rtt_ms.len().max(1) as f64;
    out.push(metric("net.wire_ms.mean", rtt_mean - rq.mean() / 1e6, "ms"));
    out.push(metric(
        "net.dispatch_ms.mean",
        (rq.mean() - qw.mean() - sv.mean()) / 1e6,
        "ms",
    ));
    out.push(metric(
        "net.generator_late_ms.max",
        ctx.wire.low.late_max_ms().max(ctx.wire.high.late_max_ms()),
        "ms",
    ));
    let counter = |name: &str| {
        ctx.wire
            .high_counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    out.push(metric(
        "net.bytes_per_request",
        (counter("net.bytes_in") + counter("net.bytes_out")) as f64
            / counter("net.requests").max(1) as f64,
        "B",
    ));
    out
}

/// Median forward, backward and optimizer seconds of one training step
/// at `batch`, composed from public calls: the task's loss on a
/// recording tape, `backward_params`, clipping and an Adam step. With
/// `full == false` the trunk is frozen (decoder-only fine-tuning) and
/// the optimizer time is not measured.
fn step_parts(
    model: &ntt_core::Ntt,
    task: &dyn ntt_core::Task,
    head: &dyn Head,
    batch: &[usize],
    full: bool,
) -> (f64, f64, f64) {
    model.set_trainable(full);
    let mut params = model.params();
    params.extend(head.params());
    let mut opt = Adam::new(params, LrSchedule::Constant(1e-4));
    let pool = TapePool::training();
    let (mut f, mut b, mut o) = (Vec::new(), Vec::new(), Vec::new());
    for step in 0..6 {
        pool.with(step, |tape| {
            let t0 = Instant::now();
            let loss = task.batch_loss(tape, model, batch);
            let t1 = Instant::now();
            let mut grads = tape.backward_params(loss);
            let t2 = Instant::now();
            if full {
                clip_param_grads(&mut grads, 1.0);
                opt.step_with(&grads);
            }
            let t3 = Instant::now();
            if step > 0 {
                f.push((t1 - t0).as_secs_f64());
                b.push((t2 - t1).as_secs_f64());
                o.push((t3 - t2).as_secs_f64());
            }
        });
    }
    model.set_trainable(true);
    (stats::median(&f), stats::median(&b), stats::median(&o))
}
