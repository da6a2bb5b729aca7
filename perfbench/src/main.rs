//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <cold_sweep|method_grid|serve_mixed> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each run plans its inputs from `--seed`, runs the workload for about
//! `--seconds` seconds in whole operations (sweeps or daemon jobs), checks
//! every output, prints each metric by name with its unit on stderr, and
//! prints one JSON result object as the last line of stdout.  `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports the per-layer
//! metrics, timed from this program around each layer's public calls.
//! See `README.md` beside this file.

mod checks;
mod serve;
mod sweeps;

use std::process::ExitCode;
use std::time::Instant;

/// The benchmark registers the counting allocator exactly as `bitmod-cli`
/// does, so traced runs can attribute allocation deltas to layer calls.
#[global_allocator]
static ALLOC: bitmod::tensor::alloc_probe::CountingAlloc =
    bitmod::tensor::alloc_probe::CountingAlloc;

/// The parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("invalid --seed `{value}`"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("invalid --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid --trace `{value}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main` for printing.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The instant the process started: the launcher script exports the wall
/// clock (microseconds) just before it execs this binary, so set-up time
/// includes process start; run directly, the clock starts at `main`.
pub struct ProcessClock {
    main_started: Instant,
    launch_offset_s: f64,
}

impl ProcessClock {
    fn start() -> ProcessClock {
        let main_started = Instant::now();
        let now_us = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as f64)
            .unwrap_or(0.0);
        let launch_offset_s = std::env::var("PERFBENCH_LAUNCH_US")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .map(|launch_us| ((now_us - launch_us) / 1e6).clamp(0.0, 10.0))
            .unwrap_or(0.0);
        ProcessClock {
            main_started,
            launch_offset_s,
        }
    }

    /// Seconds since the process started.
    pub fn elapsed_s(&self) -> f64 {
        self.launch_offset_s + self.main_started.elapsed().as_secs_f64()
    }
}

fn main() -> ExitCode {
    let clock = ProcessClock::start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "cold_sweep" | "method_grid" => sweeps::run(&args, &clock),
        "serve_mixed" => serve::run(&args, &clock),
        other => Err(format!(
            "unknown workload `{other}` (cold_sweep, method_grid, serve_mixed)"
        )),
    };
    match result {
        Ok(outcome) => {
            print_result(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_result(outcome: &Outcome) {
    for m in &outcome.metrics {
        eprintln!("[perfbench] {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (never `NaN`/`inf`, which JSON cannot carry).
fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric values are finite");
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the middle sample, or the mean of the two middle samples.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("could not read /proc/{pid}/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc status")?;
    Ok(kb / 1024.0)
}

/// The `k`-th input seed of a run: a splitmix64 scramble of the workload
/// seed, so different `--seed`s never share inputs.  Kept to 32 bits so the
/// seeds read well in logs.
pub fn derive_seed(workload_seed: u64, k: u64) -> u64 {
    let mut z = workload_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank_and_medians_interpolate() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn derived_seeds_differ_across_runs_and_positions() {
        assert_eq!(derive_seed(1, 0), derive_seed(1, 0));
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn args_parse_and_reject() {
        let argv: Vec<String> = "--workload cold_sweep --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "1".into()]).is_err());
    }
}
