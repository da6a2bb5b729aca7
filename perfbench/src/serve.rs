//! The `serve_mixed` workload: an open-loop job schedule against a
//! `bitmod-cli serve` child process, sent through the program's own client
//! library, then a restart over the same state directory.  Traced sweep
//! runs reuse the same session, shortened, for the daemon's layer figures.

use crate::sweeps::LayerTrace;
use crate::{checks, derive_seed, median, peak_rss_mb, percentile, Args, Outcome, ProcessClock};
use bitmod::accel::AcceleratorKind;
use bitmod::llm::config::LlmModel;
use bitmod::llm::eval::HarnessPool;
use bitmod::llm::memory::TaskShape;
use bitmod::llm::proxy::ProxyConfig;
use bitmod::sweep::{run_sweep_with_pool, SweepConfig, SweepDtype, SweepRecord};
use bitmod_cli::client::{self, Client};
use bitmod_server::proto;
use serde::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Offered load, jobs per second, over both connections together.  At this
/// rate the daemon and the two client connections keep up: lateness stays
/// bounded instead of growing through the run (`generator.lag_max_ms`).
const RATE_JOBS_PER_S: f64 = 5.0;
/// Fewest rounds (four jobs each) a run sends, so every run has at least
/// 100 job latencies and ten of them beyond the p90.
const MIN_ROUNDS: usize = 25;
/// Completed grids resubmitted after the restart.
const RESUBMITS: usize = 4;
/// Work units the daemon splits each job into.
const SHARDS: usize = 2;

/// The four kinds of job in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A grid on a seed no other job uses: computed from scratch.
    Cold,
    /// The cold grid again, spelled in another axis order: absorbed by
    /// whole-job dedup.
    Repeat,
    /// Half of the cold grid: served by the point cache at submit.
    Subset,
    /// The cold grid's algorithm groups under other accelerators and task
    /// shapes: new points, every algorithm side from the algorithm cache.
    Variant,
}

#[derive(Debug)]
struct PlannedJob {
    round: usize,
    kind: Kind,
    config: SweepConfig,
    due_s: f64,
}

/// The whole schedule plus the daemon counters it implies.
#[derive(Debug)]
struct Plan {
    jobs: Vec<PlannedJob>,
    predicted: Counts,
}

/// Daemon counters, as predicted from the schedule or read from `ping`.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    jobs: u64,
    deduped: u64,
    point_hits: u64,
    point_misses: u64,
    algo_hits: u64,
    algo_misses: u64,
}

fn pick<T: Copy>(items: &[T], r: u64) -> T {
    items[(r % items.len() as u64) as usize]
}

/// Plans `rounds` rounds from the workload seed.  Round `r` is a cold job
/// followed, two rounds later in the schedule, by its repeat, subset and
/// variant; all four travel on connection `r % 2`, so each dependent job is
/// sent only after its cold job's `done` event has arrived, which makes the
/// daemon's cache counters a function of the schedule alone.
fn plan(seed: u64, rounds: usize) -> Plan {
    let tiny = ProxyConfig::tiny();
    let mut seeds = Vec::new();
    let mut cold = Vec::new();
    let mut predicted = Counts::default();
    for r in 0..rounds {
        let draw = |k: u64| derive_seed(seed, 1_000_000 + (r as u64) * 16 + k);
        // Unique per round, so no two cold jobs share a harness or a point.
        let mut job_seed = draw(0);
        while seeds.contains(&job_seed) {
            job_seed += 1;
        }
        seeds.push(job_seed);
        let model = pick(&LlmModel::ALL, draw(1));
        let base = SweepConfig::new(vec![model], vec![3, 4])
            .with_proxy(tiny)
            .with_seed(job_seed);
        let subset = match draw(2) % 4 {
            0 => base.clone().with_dtypes(vec![SweepDtype::BitMod]),
            1 => base.clone().with_dtypes(vec![SweepDtype::IntAsym]),
            2 => SweepConfig {
                bits: vec![3],
                ..base.clone()
            },
            _ => SweepConfig {
                bits: vec![4],
                ..base.clone()
            },
        };
        // Two accelerators and one task shape, never the cold job's own
        // (lossy, generative) pair: eight new points whatever the draw, so
        // every run does the same amount of work.
        let accel_sets: [&[AcceleratorKind]; 3] = [
            &[AcceleratorKind::Ant, AcceleratorKind::Olive],
            &[AcceleratorKind::Olive, AcceleratorKind::BitModLossless],
            &[AcceleratorKind::Ant, AcceleratorKind::BitModLossless],
        ];
        let tasks = [TaskShape::GENERATIVE, TaskShape::DISCRIMINATIVE];
        let variant = base
            .clone()
            .with_accelerators(pick(&accel_sets, draw(3)).to_vec())
            .with_tasks(vec![pick(&tasks, draw(4))]);
        let repeat = SweepConfig {
            bits: vec![4, 3],
            dtypes: vec![SweepDtype::IntAsym, SweepDtype::BitMod],
            ..base.clone()
        };
        let groups = base.grid().len() as u64;
        predicted.jobs += 3;
        predicted.deduped += 1;
        predicted.point_misses += groups + variant.grid().len() as u64;
        predicted.point_hits += subset.grid().len() as u64;
        predicted.algo_misses += groups;
        predicted.algo_hits += groups;
        cold.push([
            (Kind::Cold, base),
            (Kind::Repeat, repeat),
            (Kind::Subset, subset),
            (Kind::Variant, variant),
        ]);
    }

    // Interleave: step t sends round t's cold job, then round t-2's
    // dependents.  Gaps are jittered ±50% around the mean.
    let mut order = Vec::new();
    for t in 0..rounds + 2 {
        if t < rounds {
            order.push((t, 0));
        }
        if t >= 2 {
            order.extend([(t - 2, 1), (t - 2, 2), (t - 2, 3)]);
        }
    }
    let mut due_s = 0.0;
    let jobs = order
        .into_iter()
        .enumerate()
        .map(|(i, (round, slot))| {
            let jitter = (derive_seed(seed, 2_000_000 + i as u64) % 1000) as f64 / 1000.0;
            due_s += (0.5 + jitter) / RATE_JOBS_PER_S;
            let (kind, config) = cold[round][slot].clone();
            PlannedJob {
                round,
                kind,
                config,
                due_s,
            }
        })
        .collect();
    Plan { jobs, predicted }
}

/// What one job's client saw.
#[derive(Debug)]
struct JobResult {
    index: usize,
    deduped: bool,
    latency_ms: f64,
    lag_ms: f64,
    submit_ms: f64,
    queue_wait_ms: Option<f64>,
    run_ms: Option<f64>,
    records: Vec<SweepRecord>,
}

/// A `bitmod-cli serve` child process on a free loopback port.  Dropping it
/// kills the process if it is still running and waits for it to end.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts the daemon over `state_dir` and waits until it answers `ping`.
    fn start(bin: &Path, state_dir: &Path, log: &Path) -> Result<Daemon, String> {
        let log_file =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        // The daemon runs on its default thread count, whatever the sweeps
        // of this process were pinned to.
        let child = Command::new(bin)
            .env_remove("BITMOD_THREADS")
            .arg("serve")
            .args(["--listen", "127.0.0.1:0", "--workers", "2"])
            .args(["--shards", &SHARDS.to_string()])
            .arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("could not start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        // Port 0 lets the kernel pick a free port; the daemon logs it.
        let deadline = Instant::now() + Duration::from_secs(30);
        while daemon.addr.is_empty() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not report its port within 30 s".into());
            }
            let text = std::fs::read_to_string(log).unwrap_or_default();
            match text.split("listening on ").nth(1) {
                Some(rest) => {
                    daemon.addr = rest.split_whitespace().next().unwrap_or("").to_string()
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        daemon.ping()?;
        Ok(daemon)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr)
    }

    /// The daemon's `ping` stats on a fresh connection.
    fn ping(&self) -> Result<Vec<(String, Value)>, String> {
        let resp = self.connect()?.request(r#"{"cmd":"ping"}"#)?;
        client::field(&resp, "stats")
            .and_then(Value::as_map)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "ping carried no stats".to_string())
    }

    fn counts(&self) -> Result<Counts, String> {
        let stats = self.ping()?;
        let get = |k: &str| {
            client::field(&stats, k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("ping stats lack `{k}`"))
        };
        Ok(Counts {
            jobs: get("jobs")?,
            deduped: get("deduped_submissions")?,
            point_hits: get("point_hits")?,
            point_misses: get("point_misses")?,
            algo_hits: get("algo_hits")?,
            algo_misses: get("algo_misses")?,
        })
    }

    /// Stops the daemon with the `shutdown` verb and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.connect()?.request(r#"{"cmd":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit within 30 s of shutdown".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Submits one job and watches it to its `done` event.
fn run_job(
    client: &mut Client,
    job: &PlannedJob,
    index: usize,
    due: Instant,
) -> Result<JobResult, String> {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    let sent = Instant::now();
    let lag_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
    let resp = client.request(&proto::submit_line(&job.config)?)?;
    let replied = Instant::now();
    let id = client::field(&resp, "job")
        .and_then(Value::as_str)
        .ok_or("submit reply carried no job id")?
        .to_string();
    let deduped = client::field(&resp, "deduped")
        .and_then(Value::as_bool)
        .ok_or("submit reply carried no dedup flag")?;
    let mut running = None;
    let report = client::watch(client, &id, |p| {
        if p.status == "running" && running.is_none() {
            running = Some(Instant::now());
        }
    })?;
    let done = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Ok(JobResult {
        index,
        deduped,
        latency_ms: ms(done.saturating_duration_since(due)),
        lag_ms,
        submit_ms: ms(replied - sent),
        queue_wait_ms: running.map(|r| ms(r - replied)),
        run_ms: running.map(|r| ms(done - r)),
        records: report.records,
    })
}

/// Samples `ping` on its own connection until `stop`: round-trip times and
/// the peak dispatch-queue depth.
fn sample_pings(addr: &str, stop: &AtomicBool) -> Result<(Vec<f64>, u64), String> {
    let mut conn = Client::connect(addr)?;
    let (mut rtts, mut peak) = (Vec::new(), 0);
    while !stop.load(Ordering::SeqCst) {
        let started = Instant::now();
        let resp = conn.request(r#"{"cmd":"ping"}"#)?;
        rtts.push(started.elapsed().as_secs_f64() * 1e3);
        let depth = client::field(&resp, "stats")
            .and_then(Value::as_map)
            .and_then(|s| client::field(s, "queue_depth"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        peak = peak.max(depth);
        std::thread::sleep(Duration::from_millis(50));
    }
    Ok((rtts, peak))
}

/// A per-run scratch directory inside the checkout (`perfbench/.scratch`),
/// removed when dropped — on success and on every error path.
struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    fn create(label: &str) -> Result<ScratchDir, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch");
        let path = root.join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("could not create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    /// Total size in bytes of the regular files under `dir`.
    fn bytes_under(dir: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => Self::bytes_under(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The `bitmod-cli` binary built beside this one.
fn daemon_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("bitmod-cli");
    bin.exists()
        .then_some(bin)
        .ok_or_else(|| format!("no bitmod-cli binary beside {}", exe.display()))
}

/// Rounds in the short daemon probe a traced sweep run appends, so that
/// every traced run reports the daemon's layers: 40 jobs, the fewest whose
/// p90 still has four samples beyond it, in about 8 s.
pub const PROBE_ROUNDS: usize = 10;

/// One daemon life and restart over an open-loop schedule, checked.
pub struct Session {
    /// Process start until the daemon first answered `ping`.
    setup_s: f64,
    schedule_s: f64,
    plan: Plan,
    results: Vec<JobResult>,
    observed: Counts,
    daemon_rss_mb: f64,
    state_bytes: u64,
    journal: String,
    recovery_s: f64,
    /// `ping` round trips and the peak queue depth, when sampled.
    pings: Option<(Vec<f64>, u64)>,
    /// Wall of the direct reference sweeps, without and with tracing.
    reference_s: (f64, f64),
}

/// Runs `rounds` rounds of the schedule planned from `seed` against a fresh
/// daemon, restarts it over the same state, resubmits a sample, and checks
/// everything the daemon returned.  With `trace`, a third connection samples
/// `ping` and the reference records are also assembled from layer calls.
pub fn session(
    label: &str,
    seed: u64,
    rounds: usize,
    clock: &ProcessClock,
    trace: Option<&mut LayerTrace>,
) -> Result<Session, String> {
    let scratch = ScratchDir::create(label)?;
    let state_dir = scratch.path.join("state");
    let bin = daemon_binary()?;
    let plan = plan(seed, rounds);
    let daemon = Daemon::start(&bin, &state_dir, &scratch.path.join("daemon-1.log"))?;
    let setup_s = clock.elapsed_s();
    let sample_pings_too = trace.is_some();

    // The open-loop schedule, one lane (connection) per round parity.
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (lanes, pings) = std::thread::scope(|s| {
        let lanes: Vec<_> = (0..2)
            .map(|lane| {
                let (jobs, addr) = (&plan.jobs, &daemon.addr);
                s.spawn(move || -> Result<Vec<JobResult>, String> {
                    let mut conn = Client::connect(addr)?;
                    jobs.iter()
                        .enumerate()
                        .filter(|(_, j)| j.round % 2 == lane)
                        .map(|(i, j)| {
                            let due = start + Duration::from_secs_f64(j.due_s);
                            run_job(&mut conn, j, i, due)
                        })
                        .collect()
                })
            })
            .collect();
        let sampler = sample_pings_too.then(|| s.spawn(|| sample_pings(&daemon.addr, &stop)));
        let lanes: Vec<_> = lanes
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        let pings = sampler.map(|h| h.join().expect("ping sampler panicked"));
        (lanes, pings)
    });
    let schedule_s = start.elapsed().as_secs_f64();
    let mut results = Vec::new();
    for lane in lanes {
        results.extend(lane?);
    }
    results.sort_by_key(|r| r.index);
    let pings = pings.transpose()?;

    let observed = daemon.counts()?;
    let daemon_rss_mb = peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.shutdown()?;
    let state_bytes = ScratchDir::bytes_under(&state_dir);
    let journal = std::fs::read_to_string(state_dir.join("journal.jsonl"))
        .map_err(|e| format!("read journal: {e}"))?;

    // Second life over the same state: time until a resubmitted grid is
    // served again, then resubmit the rest of the sample.
    let sample: Vec<usize> = (0..RESUBMITS)
        .map(|k| {
            let cold_or_variant = if k % 2 == 0 {
                Kind::Cold
            } else {
                Kind::Variant
            };
            let round = (derive_seed(seed, 3_000_000 + k as u64) as usize) % rounds;
            plan.jobs
                .iter()
                .position(|j| j.round == round && j.kind == cold_or_variant)
                .expect("every round has a cold and a variant job")
        })
        .collect();
    let restarted = Instant::now();
    let daemon = Daemon::start(&bin, &state_dir, &scratch.path.join("daemon-2.log"))?;
    let mut conn = daemon.connect()?;
    let mut second_life = Vec::new();
    let mut recovery_s = None;
    for &i in &sample {
        second_life.push(run_job(&mut conn, &plan.jobs[i], i, Instant::now())?);
        recovery_s.get_or_insert_with(|| restarted.elapsed().as_secs_f64());
    }
    let recovery_s = recovery_s.expect("at least one grid is resubmitted");
    let observed_2 = daemon.counts()?;
    drop(conn);
    daemon.shutdown()?;

    // Checks, outside every timed window.
    check_counts(&plan.predicted, &observed)?;
    check_counts(
        &Counts {
            jobs: plan.predicted.jobs,
            deduped: RESUBMITS as u64,
            ..Counts::default()
        },
        &observed_2,
    )?;
    for r in &results {
        let expect_dedup = plan.jobs[r.index].kind == Kind::Repeat;
        if r.deduped != expect_dedup {
            return Err(format!(
                "job {}: deduped = {}, expected {expect_dedup}",
                r.index, r.deduped
            ));
        }
    }
    for r in &second_life {
        if !r.deduped {
            return Err(format!(
                "resubmitted grid {} was not deduplicated after the restart",
                r.index
            ));
        }
        checks::records_equal(
            &r.records,
            &results[r.index].records,
            "resubmitted grid after restart",
        )?;
    }
    let reference_s = check_against_direct_sweeps(&plan, &results, trace)?;
    Ok(Session {
        setup_s,
        schedule_s,
        plan,
        results,
        observed,
        daemon_rss_mb,
        state_bytes,
        journal,
        recovery_s,
        pings,
        reference_s,
    })
}

impl Session {
    fn latencies(&self, f: fn(&JobResult) -> Option<f64>) -> Vec<f64> {
        self.results.iter().filter_map(f).collect()
    }

    /// Pushes the daemon's per-layer metrics.  Needs a session run with
    /// tracing, which samples `ping`.
    pub fn push_server_metrics(&self, out: &mut Outcome) {
        let latencies = self.latencies(|r| Some(r.latency_ms));
        let cached: Vec<f64> = self
            .results
            .iter()
            .filter(|r| matches!(self.plan.jobs[r.index].kind, Kind::Repeat | Kind::Subset))
            .map(|r| r.latency_ms)
            .collect();
        out.push("job_p90_ms", percentile(&latencies, 90.0), "ms");
        out.push("cached_job_p50_ms", median(&cached), "ms");
        out.push("state_bytes", self.state_bytes as f64, "bytes");
        out.push("recovery_s", self.recovery_s, "s");
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        let (ping_ms, peak_depth) = self.pings.as_ref().expect("a traced session samples pings");
        let observed = &self.observed;
        out.push("server.ping_ms", median(ping_ms), "ms");
        out.push(
            "server.submit_ms",
            median(&self.latencies(|r| Some(r.submit_ms))),
            "ms",
        );
        out.push(
            "server.queue_wait_ms",
            median(&self.latencies(|r| r.queue_wait_ms)),
            "ms",
        );
        out.push("server.run_ms", median(&self.latencies(|r| r.run_ms)), "ms");
        out.push(
            "server.dedup_ratio",
            ratio(observed.deduped, observed.jobs),
            "ratio",
        );
        out.push(
            "server.point_hit_ratio",
            ratio(observed.point_hits, observed.point_misses),
            "ratio",
        );
        out.push(
            "core.algo_hit_ratio",
            ratio(observed.algo_hits, observed.algo_misses),
            "ratio",
        );
        out.push("server.journal_bytes", self.journal.len() as f64, "bytes");
        out.push(
            "server.journal_events",
            self.journal.lines().count() as f64,
            "count",
        );
        out.push("server.peak_queue_depth", *peak_depth as f64, "count");
        let lags = self.latencies(|r| Some(r.lag_ms));
        out.push("generator.lag_p50_ms", median(&lags), "ms");
        out.push("generator.lag_max_ms", percentile(&lags, 100.0), "ms");
    }
}

pub fn run(args: &Args, clock: &ProcessClock) -> Result<Outcome, String> {
    let rounds = MIN_ROUNDS.max((args.seconds * RATE_JOBS_PER_S / 4.0).ceil() as usize);
    let mut trace = args.trace.then(LayerTrace::default);
    let s = session("serve_mixed", args.seed, rounds, clock, trace.as_mut())?;
    let mut out = Outcome {
        attempted: s.results.len() as u64,
        failed: 0,
        metrics: Vec::new(),
    };
    let records: usize = s.results.iter().map(|r| r.records.len()).sum();
    let Some(trace) = trace else {
        out.push("setup_s", s.setup_s, "s");
        out.push("points_per_s", records as f64 / s.schedule_s, "points/s");
        out.push("peak_rss_mb", s.daemon_rss_mb, "MB");
        out.push(
            "job_p50_ms",
            median(&s.latencies(|r| Some(r.latency_ms))),
            "ms",
        );
        eprintln!(
            "[perfbench] {} job(s) over {:.2} s, {records} record(s)",
            s.results.len(),
            s.schedule_s
        );
        return Ok(out);
    };

    // Sweep-layer figures come from the reference sweeps, per distinct grid.
    let (untraced_s, traced_s) = s.reference_s;
    let grids = distinct_grids(&s.plan).len() as f64;
    trace.report(&mut out, grids, traced_s);
    out.push("trace.untraced_wall_s", untraced_s / grids, "s");
    out.push("trace.traced_wall_s", traced_s / grids, "s");
    out.push(
        "trace.untraced_threads",
        rayon::current_num_threads() as f64,
        "count",
    );
    out.push(
        "trace.traced_threads",
        rayon::current_num_threads() as f64,
        "count",
    );
    s.push_server_metrics(&mut out);
    Ok(out)
}

fn check_counts(predicted: &Counts, observed: &Counts) -> Result<(), String> {
    checks::count_matches("jobs", observed.jobs, predicted.jobs)?;
    checks::count_matches("deduped submissions", observed.deduped, predicted.deduped)?;
    checks::count_matches("point hits", observed.point_hits, predicted.point_hits)?;
    checks::count_matches(
        "point misses",
        observed.point_misses,
        predicted.point_misses,
    )?;
    checks::count_matches("algorithm hits", observed.algo_hits, predicted.algo_hits)?;
    checks::count_matches(
        "algorithm misses",
        observed.algo_misses,
        predicted.algo_misses,
    )
}

/// The distinct canonical grids of the schedule, with one job index each.
fn distinct_grids(plan: &Plan) -> Vec<(String, SweepConfig)> {
    let mut seen = HashMap::new();
    let mut out = Vec::new();
    for j in &plan.jobs {
        let canonical = j.config.canonicalized();
        let key = canonical.cache_key();
        if seen.insert(key.clone(), ()).is_none() {
            out.push((key, canonical));
        }
    }
    out
}

/// Checks every job's records against a direct in-process sweep of the
/// same canonical grid (the daemon runs grids canonicalized).  In the
/// traced run the reference records are computed twice — by the sweep
/// runner and by the layer calls — and both must agree with the daemon.
/// Returns the untraced and traced reference walls.
fn check_against_direct_sweeps(
    plan: &Plan,
    results: &[JobResult],
    trace: Option<&mut LayerTrace>,
) -> Result<(f64, f64), String> {
    let grids = distinct_grids(plan);
    let pool = HarnessPool::new();
    let started = Instant::now();
    let direct: HashMap<String, Vec<SweepRecord>> = grids
        .iter()
        .map(|(key, cfg)| (key.clone(), run_sweep_with_pool(cfg, &pool).records))
        .collect();
    let untraced_s = started.elapsed().as_secs_f64();
    let mut traced_s = 0.0;
    if let Some(trace) = trace {
        let pool = HarnessPool::new();
        let started = Instant::now();
        for (key, cfg) in &grids {
            let records = trace.sweep(cfg, &pool)?;
            checks::records_equal(&records, &direct[key], "traced layer calls")?;
        }
        traced_s = started.elapsed().as_secs_f64() - trace.generate_s;
    }
    for r in results {
        let key = plan.jobs[r.index].config.cache_key();
        checks::records_equal(&r.records, &direct[&key], &format!("job {}", r.index))?;
    }
    Ok((untraced_s, traced_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_dependent_job_follows_its_cold_job_on_the_same_connection() {
        let plan = plan(7, MIN_ROUNDS);
        assert_eq!(plan.jobs.len(), 4 * MIN_ROUNDS);
        for (i, job) in plan.jobs.iter().enumerate() {
            let cold = plan
                .jobs
                .iter()
                .position(|j| j.round == job.round && j.kind == Kind::Cold)
                .unwrap();
            assert!(cold <= i, "job {i} is due before its cold job");
            assert!(plan.jobs[cold].due_s <= job.due_s);
        }
    }

    #[test]
    fn rejects_a_wrong_hit_count() {
        let predicted = plan(7, MIN_ROUNDS).predicted;
        check_counts(&predicted, &predicted).unwrap();
        for corrupt in [
            Counts {
                point_hits: predicted.point_hits + 1,
                ..predicted
            },
            Counts {
                algo_hits: predicted.algo_hits - 1,
                ..predicted
            },
            Counts {
                deduped: predicted.deduped + 1,
                ..predicted
            },
        ] {
            assert!(check_counts(&predicted, &corrupt).is_err());
        }
    }
}
