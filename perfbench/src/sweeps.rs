//! The two sweep workloads, `cold_sweep` and `method_grid`, and the traced
//! run that drives the same grids through each layer's public calls.

use crate::{checks, derive_seed, median, peak_rss_mb, serve, Args, Outcome, ProcessClock};
use bitmod::llm::config::LlmModel;
use bitmod::llm::eval::HarnessPool;
use bitmod::quant::{CompositionMethod, Granularity, QuantConfig};
use bitmod::sweep::{AlgoKey, SweepConfig, SweepDtype, SweepPoint, SweepRecord, SweepReport};
use bitmod::tensor::alloc_probe::alloc_count;
use bitmod::tensor::SeededRng;
use bitmod::{AlgorithmSide, Pipeline};
use std::collections::HashMap;
use std::time::Instant;

/// The grid of one sweep of `workload` at input seed `seed`.
///
/// * `cold_sweep`: all six models × {BitMoD, INT-Asym} × {3, 4} bits, g128,
///   standard proxy — 24 points, four per harness.
/// * `method_grid`: Llama-2-7B × {BitMoD, INT-Asym, ANT, OliVe, MX} ×
///   {3, 4} × {g128, g64} × every composition method — 100 grid points of
///   which the program accepts 76; the 24 it rejects (GPTQ/OmniQuant over
///   ANT, OliVe and MX) are skipped by the sweep and counted nowhere.
pub fn grid(workload: &str, seed: u64) -> SweepConfig {
    match workload {
        "cold_sweep" => SweepConfig::new(LlmModel::ALL.to_vec(), vec![3, 4]).with_seed(seed),
        "method_grid" => SweepConfig::new(vec![LlmModel::Llama2_7B], vec![3, 4])
            .with_dtypes(vec![
                SweepDtype::BitMod,
                SweepDtype::IntAsym,
                SweepDtype::Ant,
                SweepDtype::Olive,
                SweepDtype::Mx,
            ])
            .with_granularities(vec![Granularity::PerGroup(128), Granularity::PerGroup(64)])
            .with_methods(CompositionMethod::ALL.to_vec())
            .with_seed(seed),
        other => unreachable!("not a sweep workload: {other}"),
    }
}

/// Threads the sweeps run on.  On a shared 2-core host, runs on two threads
/// spread by 0.16 of their median (quartile distance) as neighbours took one
/// of the cores, and by 0.06 on one thread.  The sweeps therefore measure
/// one core's work, and parallel scaling is left out of them.
const SWEEP_THREADS: &str = "1";

/// How many sweeps one run makes: `--seconds` worth at the nominal cost
/// of one sweep on one thread, and never fewer than the minimum.  The
/// count is fixed before the run, so every run of a workload does the same
/// work whatever the machine's speed.  `cold_sweep` checks the paper's 3-bit
/// ordering over the pooled (model, seed) pairs of a run; on single seeds
/// it fails about one time in ten (see README), so the pool must be large
/// enough for the mean to carry the claim.
fn sweep_count(workload: &str, seconds: f64) -> usize {
    let (nominal_s, min) = match workload {
        "cold_sweep" => (3.4, 8),
        _ => (9.0, 2),
    };
    min.max((seconds / nominal_s).ceil() as usize)
}

/// One timed sweep.
struct TimedSweep {
    report: SweepReport,
    wall_s: f64,
}

pub fn run(args: &Args, clock: &ProcessClock) -> Result<Outcome, String> {
    // Read by the program's rayon layer at every parallel call; set before
    // the first one, while this process has one thread.
    std::env::set_var("BITMOD_THREADS", SWEEP_THREADS);
    let configs: Vec<SweepConfig> = (0..sweep_count(&args.workload, args.seconds))
        .map(|k| grid(&args.workload, derive_seed(args.seed, k as u64)))
        .collect();
    let setup_s = clock.elapsed_s();

    // Timed work: each sweep a fresh `SweepConfig::run` (a fresh harness
    // pool), exactly as `bitmod-cli sweep` runs it.
    let sweeps: Vec<TimedSweep> = configs
        .iter()
        .map(|cfg| {
            let started = Instant::now();
            let report = cfg.run();
            TimedSweep {
                report,
                wall_s: started.elapsed().as_secs_f64(),
            }
        })
        .collect();
    let threads = rayon::current_num_threads();
    let peak_rss = peak_rss_mb("self")?;

    for s in &sweeps {
        checks::sweep_properties(&s.report)
            .map_err(|e| format!("seed {}: {e}", s.report.config.seed))?;
    }
    if args.workload == "cold_sweep" {
        let reports: Vec<&SweepReport> = sweeps.iter().map(|s| &s.report).collect();
        checks::bitmod_beats_int_asym(&reports)?;
    }

    let points: usize = sweeps.iter().map(|s| s.report.records.len()).sum();
    let mut out = Outcome {
        attempted: points as u64,
        failed: 0,
        metrics: Vec::new(),
    };
    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    if !args.trace {
        let rates: Vec<f64> = sweeps
            .iter()
            .map(|s| s.report.records.len() as f64 / s.wall_s)
            .collect();
        out.push("setup_s", setup_s, "s");
        out.push("points_per_s", median(&rates), "points/s");
        out.push("peak_rss_mb", peak_rss, "MB");
        out.push("job_p50_ms", median(&walls) * 1e3, "ms");
        eprintln!(
            "[perfbench] {} sweep(s), {points} point(s) on {threads} thread(s); walls {:.3?} s",
            sweeps.len(),
            walls
        );
        return Ok(out);
    }

    // Traced run: the same grids again, one layer call at a time, each
    // record assembled here and checked equal to the timed run's.
    let mut trace = LayerTrace::default();
    let traced = Instant::now();
    for s in &sweeps {
        let records = trace.sweep(&s.report.config, &HarnessPool::new())?;
        checks::records_equal(&records, &s.report.records, "traced layer calls")?;
    }
    let traced_wall = traced.elapsed().as_secs_f64() - trace.generate_s;
    let n = sweeps.len() as f64;
    trace.report(&mut out, n, traced_wall);
    out.push("trace.untraced_wall_s", walls.iter().sum::<f64>() / n, "s");
    out.push("trace.traced_wall_s", traced_wall / n, "s");
    out.push("trace.untraced_threads", threads as f64, "count");
    out.push("trace.traced_threads", threads as f64, "count");

    // The daemon's layers, from a short `serve_mixed`-style session, so
    // that every traced run reports every layer.  Its own sweep-layer trace
    // is checked and then dropped: the figures above are this workload's.
    let probe = serve::session(
        &args.workload,
        args.seed,
        serve::PROBE_ROUNDS,
        clock,
        Some(&mut LayerTrace::default()),
    )?;
    probe.push_server_metrics(&mut out);
    Ok(out)
}

/// The seed salt `EvalHarness` mixes into its evaluation-stream generator.
/// Mirrored here so the traced run can re-run the two reference-stream
/// `generate` calls on each harness's inputs; the regenerated streams are
/// checked equal to the harness's, so a drift in the salt shows as a
/// failed check, never as a silently wrong timing.
const EVAL_SEED_SALT: u64 = 0x5EED_CAFE;

/// Time, call count and allocation delta per layer, accumulated over every
/// traced call.  Calls run one at a time so each allocation delta belongs
/// to one layer (rayon may still parallelize inside a call).
#[derive(Debug, Default)]
pub struct LayerTrace {
    harness_s: f64,
    harness_builds: u64,
    harness_allocs: u64,
    /// Time in the re-run `generate` calls, which are not part of the
    /// program's own work: callers subtract it from the traced wall.
    pub generate_s: f64,
    compose_s: f64,
    compose_calls: u64,
    compose_allocs: u64,
    perplexity_s: f64,
    accuracy_s: f64,
    eval_allocs: u64,
    simulate_s: f64,
    simulate_calls: u64,
}

/// One algorithm group: its key, the shared quantization configuration, and
/// its (grid index, point) members.
type AlgoGroup = (AlgoKey, QuantConfig, Vec<(usize, SweepPoint)>);

/// Runs `f`, returning its value, seconds taken and allocations made.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let allocs = alloc_count();
    let started = Instant::now();
    let value = f();
    let secs = started.elapsed().as_secs_f64();
    (value, secs, alloc_count() - allocs)
}

impl LayerTrace {
    /// Drives `cfg` through the layers' public calls in the order the sweep
    /// runner uses — harnesses, then per algorithm group compose, perplexity
    /// and accuracy, then per point the hardware simulation — and assembles
    /// the records in grid order.
    pub fn sweep(
        &mut self,
        cfg: &SweepConfig,
        pool: &HarnessPool,
    ) -> Result<Vec<SweepRecord>, String> {
        let mut harnesses = HashMap::new();
        for &model in &cfg.models {
            let before = pool.len();
            let (harness, secs, allocs) = timed(|| pool.get_or_build(model, cfg.proxy, cfg.seed));
            if pool.len() > before {
                self.harness_s += secs;
                self.harness_allocs += allocs;
                self.harness_builds += 1;
                self.regenerate_streams(&harness, cfg.seed)?;
            }
            harnesses.insert(model, harness);
        }

        // Group the valid points by algorithm key, in first-appearance order.
        let mut groups: Vec<AlgoGroup> = Vec::new();
        for (i, p) in cfg.grid().into_iter().enumerate() {
            let Ok(quant) = p.quant_config() else {
                continue;
            };
            let key = AlgoKey::of(&p, &quant);
            match groups.iter_mut().find(|g| g.0 == key) {
                Some(g) => g.2.push((i, p)),
                None => groups.push((key, quant, vec![(i, p)])),
            }
        }

        let mut records = Vec::new();
        for (_, quant, points) in groups {
            let first = points[0].1;
            let harness = &harnesses[&first.model];
            let calib = first.realized_calib_size();
            let ((mut model, stats), secs, allocs) =
                timed(|| harness.compose_with_stats_sized(&quant, first.method, calib));
            self.compose_s += secs;
            self.compose_calls += 1;
            self.compose_allocs += allocs;
            if let Some(bits) = first.method.activation_bits() {
                model.activation_bits = Some(bits);
            }
            let (proxy_perplexity, secs, allocs) = timed(|| harness.evaluate_model(&model));
            self.perplexity_s += secs;
            self.eval_allocs += allocs;
            let (proxy_accuracy_percent, secs, allocs) = timed(|| harness.accuracy_percent(&model));
            self.accuracy_s += secs;
            self.eval_allocs += allocs;

            let llm = first.model.config();
            let method = match first.method {
                CompositionMethod::None => quant.method.label(),
                m => format!("{}+{}", quant.method.label(), m.label()),
            };
            let algorithm = AlgorithmSide {
                method,
                effective_bits_per_weight: quant.effective_bits_per_weight(llm.hidden, llm.hidden),
                weight_sqnr_db: stats.iter().map(|(_, s)| s.sqnr_db).sum::<f64>()
                    / stats.len().max(1) as f64,
                fp16_perplexity: harness.fp16_perplexity(),
                proxy_perplexity,
                proxy_accuracy_percent,
            };
            let base = Pipeline::new(first.model)
                .with_quant_config(quant)
                .with_method(first.method)
                .with_calib_size(calib)
                .with_proxy_config(cfg.proxy);
            for (i, point) in points {
                let pipeline = base
                    .clone()
                    .with_task(point.task)
                    .with_accelerator(point.accelerator);
                let (report, secs, _) = timed(|| pipeline.run_hardware(&algorithm));
                self.simulate_s += secs;
                self.simulate_calls += 1;
                records.push((i, SweepRecord { point, report }));
            }
        }
        records.sort_by_key(|&(i, _)| i);
        Ok(records.into_iter().map(|(_, r)| r).collect())
    }

    /// Re-runs a harness's two reference-stream `generate` calls on its own
    /// inputs, timing them and checking the output equals its streams.
    fn regenerate_streams(
        &mut self,
        harness: &bitmod::llm::eval::EvalHarness,
        seed: u64,
    ) -> Result<(), String> {
        let started = Instant::now();
        let mut rng = SeededRng::new(seed ^ EVAL_SEED_SALT);
        let reference = &harness.reference;
        // `generate` returns the prompt followed by the sampled tokens.
        let (wiki_prompt, c4_prompt) = ([1, 2, 3], [5, 7, 11]);
        let wiki_len = harness.wiki_stream.len().saturating_sub(wiki_prompt.len());
        let c4_len = harness.c4_stream.len().saturating_sub(c4_prompt.len());
        let wiki = reference.generate(&wiki_prompt, wiki_len, 0.8, &mut rng);
        let c4 = reference.generate(&c4_prompt, c4_len, 1.0, &mut rng);
        self.generate_s += started.elapsed().as_secs_f64();
        if wiki != harness.wiki_stream || c4 != harness.c4_stream {
            return Err(format!(
                "{}: regenerated reference streams differ from the harness's",
                harness.model.name()
            ));
        }
        Ok(())
    }

    /// Pushes the per-layer metrics, each per sweep (`sweeps` of them), with
    /// `core.self_s` the traced wall not covered by any layer call.
    pub fn report(&self, out: &mut Outcome, sweeps: f64, traced_wall_s: f64) {
        let covered =
            self.harness_s + self.compose_s + self.perplexity_s + self.accuracy_s + self.simulate_s;
        out.push("llm.harness_s", self.harness_s / sweeps, "s");
        out.push(
            "llm.harness_builds",
            self.harness_builds as f64 / sweeps,
            "count",
        );
        out.push("llm.generate_s", self.generate_s / sweeps, "s");
        out.push("quant.compose_s", self.compose_s / sweeps, "s");
        out.push(
            "quant.compose_calls",
            self.compose_calls as f64 / sweeps,
            "count",
        );
        out.push("llm.perplexity_s", self.perplexity_s / sweeps, "s");
        out.push("llm.accuracy_s", self.accuracy_s / sweeps, "s");
        out.push("accel.simulate_s", self.simulate_s / sweeps, "s");
        out.push(
            "accel.simulate_calls",
            self.simulate_calls as f64 / sweeps,
            "count",
        );
        out.push(
            "core.self_s",
            (traced_wall_s - covered).max(0.0) / sweeps,
            "s",
        );
        out.push(
            "llm.harness_allocs",
            self.harness_allocs as f64 / sweeps,
            "count",
        );
        out.push(
            "quant.compose_allocs",
            self.compose_allocs as f64 / sweeps,
            "count",
        );
        out.push("llm.eval_allocs", self.eval_allocs as f64 / sweeps, "count");
    }
}
