//! `fleetd` — the fleet service daemon.
//!
//! Runs a fleet of virtual traps under the tick scheduler and speaks a
//! line-oriented command protocol on stdin/stdout (one command per
//! line, one reply block per command), so it can be driven
//! interactively, from scripts, or from CI:
//!
//! ```text
//! $ printf 'run 60\nstats\nsummary\nquit\n' | fleetd --traps=16 --workers=2
//! ```
//!
//! Flags (all optional): `--traps=N --workers=N|auto --seed=N --qubits=N`
//! `--cadence-min=N --epoch-min=N --rate=F --service-mean=F`
//! `--cache-budget-mb=N --minutes=N`. With `--minutes=N` the daemon
//! first advances N simulated minutes, prints the summary, and then
//! still serves stdin (EOF exits). `--workers=0` means one per core —
//! results never depend on it.
//!
//! Commands: `run <minutes>`, `submit <trap> <service_s> [count]`,
//! `status <trap>`, `stats`, `metrics`, `summary`, `help`, `quit`.
//! A malformed or out-of-range flag prints the usage line and exits 2
//! (`--traps` ≥ 1, `--qubits` in 2..=20, finite non-negative `--rate`
//! and `--service-mean`, a `--cache-budget-mb` whose byte count fits a
//! `usize`); a malformed command gets a one-line `error:` reply and the
//! daemon keeps serving. One `submit` queues at most
//! [`MAX_SUBMIT_COUNT`] jobs.
//!
//! `metrics` prints the deterministic counter snapshot — the fleet
//! registry's cache/scheduler counters merged with the ambient backend
//! event counters — as one line of JSON. Only the deterministic class
//! is printed, so the reply is bit-identical at any `--workers` value
//! and stdout stays diffable. The daemon enables the `itqc_obs` event
//! layer at startup (it is a service, not a gated benchmark).

use itqc_fleet::{Fleet, FleetConfig};
use std::io::{BufRead, Write};

fn usage() -> ! {
    eprintln!(
        "usage: fleetd [--traps=N] [--workers=N|auto] [--seed=N] [--qubits=N] \
         [--cadence-min=N] [--epoch-min=N] [--rate=F] [--service-mean=F] \
         [--cache-budget-mb=N] [--minutes=N]"
    );
    std::process::exit(2);
}

fn parse_flags() -> (FleetConfig, u64) {
    let mut config = FleetConfig::default();
    let mut minutes = 0u64;
    for arg in std::env::args().skip(1) {
        let Some((flag, value)) = arg.split_once('=') else { usage() };
        let ok = match flag {
            "--traps" => value.parse().map(|v| config.traps = v).is_ok(),
            "--workers" if value == "auto" => {
                config.workers = 0;
                true
            }
            "--workers" => value.parse().map(|v| config.workers = v).is_ok(),
            "--seed" => value.parse().map(|v| config.seed = v).is_ok(),
            "--qubits" => value.parse().map(|v| config.n_qubits = v).is_ok(),
            "--cadence-min" => value.parse().map(|v| config.canary_cadence_min = v).is_ok(),
            "--epoch-min" => value.parse().map(|v| config.drift_epoch_min = v).is_ok(),
            "--rate" => value.parse().map(|v| config.arrival_rate_per_min = v).is_ok(),
            "--service-mean" => value.parse().map(|v| config.service_secs_mean = v).is_ok(),
            "--cache-budget-mb" => {
                let bytes = value.parse::<usize>().ok().and_then(|v| v.checked_mul(1 << 20));
                bytes.map(|b| config.cache_budget_bytes = b).is_some()
            }
            "--minutes" => value.parse().map(|v| minutes = v).is_ok(),
            _ => usage(),
        };
        if !ok {
            usage();
        }
    }
    // Values `Fleet::new` or a shard would otherwise panic on.
    let non_negative = |x: f64| x.is_finite() && x >= 0.0;
    if config.traps == 0
        || !(2..=itqc_backend::MAX_COMPONENT).contains(&config.n_qubits)
        || !non_negative(config.arrival_rate_per_min)
        || !non_negative(config.service_secs_mean)
    {
        usage();
    }
    (config, minutes)
}

/// Most jobs one `submit` command may queue. One trap's nominal day is
/// about 5,760 jobs; without a cap a single line could ask the daemon
/// to allocate without bound.
const MAX_SUBMIT_COUNT: usize = 100_000;

/// Parses the arguments of `submit <trap> <service_s> [count]`. The
/// service time must be finite and positive: the duty ledger refuses
/// anything else when the job runs, which would take a shard down.
fn parse_submit<'a>(
    mut words: impl Iterator<Item = &'a str>,
    traps: usize,
) -> Result<(usize, f64, usize), String> {
    const USAGE: &str = "submit <trap> <service_s> [count]";
    let trap = words.next().and_then(|w| w.parse::<usize>().ok()).ok_or(USAGE)?;
    let service = words.next().and_then(|w| w.parse::<f64>().ok()).ok_or(USAGE)?;
    let count = match words.next() {
        Some(w) => w.parse::<usize>().map_err(|_| USAGE)?,
        None => 1,
    };
    if trap >= traps {
        return Err(format!("trap {trap} out of range"));
    }
    if !(service.is_finite() && service > 0.0) {
        return Err(format!("service time {service} must be a positive number of seconds"));
    }
    if count > MAX_SUBMIT_COUNT {
        return Err(format!("count {count} exceeds the per-command limit of {MAX_SUBMIT_COUNT}"));
    }
    Ok((trap, service, count))
}

fn main() {
    let (config, minutes) = parse_flags();
    itqc_obs::set_enabled(true);
    let mut fleet = Fleet::new(config);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if minutes > 0 {
        fleet.run_minutes(minutes);
        write!(out, "{}", fleet.summary()).expect("stdout");
        out.flush().expect("stdout");
    }
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.expect("stdin");
        let mut words = line.split_whitespace();
        let reply = match words.next() {
            None => continue,
            Some("quit") | Some("exit") => break,
            Some("help") => "commands: run <minutes> | submit <trap> <service_s> [count] | \
                             status <trap> | stats | metrics | summary | quit"
                .to_string(),
            Some("run") => match words.next().and_then(|w| w.parse::<u64>().ok()) {
                Some(m) => {
                    fleet.run_minutes(m);
                    format!("ok ran {m} minutes (now at {})", fleet.ticks())
                }
                None => "error: run <minutes>".to_string(),
            },
            Some("submit") => match parse_submit(words, fleet.config().traps) {
                Ok((trap, service, count)) => {
                    for _ in 0..count {
                        fleet.submit(trap, service);
                    }
                    format!("ok queued {count} job(s) on trap {trap}")
                }
                Err(e) => format!("error: {e}"),
            },
            Some("status") => match words.next().and_then(|w| w.parse::<usize>().ok()) {
                Some(trap) if trap < fleet.config().traps => {
                    let s = fleet.status(trap);
                    let faults: Vec<String> =
                        s.recent_faults.iter().map(|(tick, c)| format!("{c}@min{tick}")).collect();
                    format!(
                        "trap {} clock_s {:.1} queue {} last_canary {:.3} jobs_done {} \
                         faults_fixed {} recent [{}]",
                        s.id,
                        s.clock_seconds,
                        s.queue_depth,
                        s.last_canary,
                        s.jobs_completed,
                        s.faults_fixed,
                        faults.join(" ")
                    )
                }
                Some(trap) => format!("error: trap {trap} out of range"),
                None => "error: status <trap>".to_string(),
            },
            Some("stats") => {
                let c = fleet.cache_counters();
                let (entries, bytes) = fleet.cache_resident();
                format!(
                    "minute {} shared_cache hits {} misses {} evictions {} hit_rate {:.4} \
                     entries {} bytes {}",
                    fleet.ticks(),
                    c.hits,
                    c.misses,
                    c.evictions,
                    c.hit_rate(),
                    entries,
                    bytes
                )
            }
            Some("metrics") => {
                // Worker shards flushed at the last tick barrier; fold
                // the scheduler thread's own shard, then merge the
                // fleet registry with the ambient (global) one.
                itqc_obs::event::flush();
                let merged = itqc_obs::Registry::new();
                merged.absorb(itqc_obs::global());
                merged.absorb(fleet.obs());
                merged.deterministic_snapshot().to_json()
            }
            Some("summary") => fleet.summary().to_string(),
            Some(other) => format!("error: unknown command '{other}' (try help)"),
        };
        writeln!(out, "{}", reply.trim_end()).expect("stdout");
        out.flush().expect("stdout");
    }
}
