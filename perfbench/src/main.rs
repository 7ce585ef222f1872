//! `perfbench` — the itqc benchmark runner.
//!
//! ```text
//! perfbench --workload diagnose|detect|fleet-day --seed N --seconds S --trace 0|1
//!           [--short] [--workers N]
//! ```
//!
//! Generates the workload's inputs from `--seed`, runs it through the
//! workspace's public API, checks the outputs, prints a human-readable
//! report and, as the last line of stdout, one JSON result object. With
//! `--trace 0` the result carries the end-to-end metrics (tracing off);
//! with `--trace 1` it carries the per-layer split, measured by timing
//! the public calls from outside with the `itqc_obs` counters on. Exits
//! 1 when an output check fails, 2 on a usage error. See `README.md`.
//!
//! Every timing is CPU time, not wall time (`report::Cpu`), and the
//! end-to-end timings are scaled to the reference host by a host-speed
//! probe read through the run (`report::HostSpeed`): on a host of shared
//! cores both the wall time and the speed of a CPU second move with what
//! the other tenants run.

mod detect;
mod diagnose;
mod fleet_day;
mod report;

use report::RunResult;

/// Parsed command line.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Small inputs for the benchmark's own tests.
    pub short: bool,
    /// Trial-engine threads: every available core.
    pub threads: usize,
    /// Fleet shard workers (default: every available core).
    pub workers: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload diagnose|detect|fleet-day --seed N --seconds S --trace 0|1 \
         [--short] [--workers N]"
    );
    std::process::exit(2);
}

/// Parses a flag's value, which must satisfy `ok`.
fn value<T: std::str::FromStr>(flag: &str, value: &str, ok: impl Fn(&T) -> bool) -> T {
    match value.parse() {
        Ok(v) if ok(&v) => v,
        _ => usage(&format!("bad value '{value}' for {flag}")),
    }
}

fn parse() -> (String, Opts) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        traced: false,
        short: false,
        threads: cores,
        workers: cores,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--short" {
            opts.short = true;
            continue;
        }
        let v = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => opts.seed = value(&flag, &v, |_| true),
            "--seconds" => opts.seconds = value(&flag, &v, |&s: &f64| s > 0.0 && s.is_finite()),
            "--trace" => opts.traced = value::<u8>(&flag, &v, |&t| t <= 1) == 1,
            "--workers" => opts.workers = value(&flag, &v, |&t| t > 0),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    (workload.unwrap_or_else(|| usage("--workload is required")), opts)
}

fn main() {
    let (workload, opts) = parse();
    let result: RunResult = match workload.as_str() {
        "diagnose" => diagnose::run(&opts),
        "detect" => detect::run(&opts),
        "fleet-day" => fleet_day::run(&opts),
        other => usage(&format!("unknown workload '{other}'")),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {cores} cores, {} trial threads, {} fleet workers",
        opts.threads, opts.workers
    );
    if !result.print(&workload, opts.traced) {
        std::process::exit(1);
    }
}
