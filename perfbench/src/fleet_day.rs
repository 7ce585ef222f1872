//! `fleet-day` — simulated machine-days of the fleet service at its
//! default operating point (256 traps, 1440 one-minute ticks, one shard
//! worker per core). A single client thread runs a closed loop: per tick
//! it submits that minute's API jobs, calls `run_minutes(1)`, polls one
//! trap's `status`, and calls `summary()` every simulated hour. A run
//! drives `--seconds` worth of days, each a fresh fleet with a seed of
//! its own.
//!
//! Times are process CPU time (every thread of the fleet), scaled to the
//! reference host by the run's probe readings (`report::HostSpeed`).
//! Throughput is the median over the run's simulated hours of
//! trap-minutes per second of the loop. Latency is the median over canary
//! cycles (consecutive `run_minutes(1)` calls that cover one canary of
//! every trap) and p99 over single ticks. Set-up is
//! `Fleet::new` plus generating the first day's API job stream and poll
//! schedule from the seed. The transcript of every poll and hourly
//! summary is the run's output: it must not depend on the worker count or
//! on whether the run is traced.

use crate::report::{
    self, digest, median, percentile, ratio, Counters, Cpu, EndToEnd, HostSpeed, RunResult,
    PINNED_SEED,
};
use crate::Opts;
use itqc_bench::par_trials::split_seed;
use itqc_fleet::trap_state::{exponential, poisson};
use itqc_fleet::{Fleet, FleetConfig, FleetSummary, MINUTES_PER_DAY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 101;

/// Host seconds of one simulated day on the reference host (2 cores);
/// a run drives `--seconds` worth of days.
const NOMINAL_DAY_S: f64 = 10.0;

/// Minutes between operator `summary()` calls.
const SUMMARY_EVERY: u64 = 60;

/// The client's inputs: per tick, the API jobs to submit and the trap to
/// poll.
struct Stream {
    jobs: Vec<Vec<(usize, f64)>>,
    polls: Vec<usize>,
}

/// The fleet of day `day` of the run, and the ticks it runs.
fn config(opts: &Opts, day: usize) -> (FleetConfig, u64) {
    let traps = if opts.short { 8 } else { 256 };
    let ticks = if opts.short { 120 } else { MINUTES_PER_DAY };
    let seed = split_seed(opts.seed, day);
    (FleetConfig { traps, workers: opts.workers, seed, ..FleetConfig::default() }, ticks)
}

/// The API traffic is one trap's worth of the fleet's own load: per tick,
/// a Poisson number of jobs at the configured per-trap arrival rate, each
/// with exponential service of the configured mean, drawn with the
/// fleet's own samplers and sent to a uniformly drawn trap.
fn stream(config: &FleetConfig, ticks: u64) -> Stream {
    let mut rng = SmallRng::seed_from_u64(split_seed(config.seed, 1));
    let jobs = (0..ticks)
        .map(|_| {
            (0..poisson(&mut rng, config.arrival_rate_per_min))
                .map(|_| {
                    let trap = rng.gen_range(0..config.traps);
                    (trap, exponential(&mut rng, config.service_secs_mean))
                })
                .collect()
        })
        .collect();
    let polls = (0..ticks).map(|_| rng.gen_range(0..config.traps)).collect();
    Stream { jobs, polls }
}

/// One driven day: CPU times of every call and the output transcript.
struct Day {
    tick_s: Vec<f64>,
    /// Canary tables the fleet built on each tick (its
    /// `fleet.prep.batch_builds` counter).
    tick_builds: Vec<u64>,
    submit_s: f64,
    status_s: f64,
    summary_s: f64,
    /// CPU time of the whole loop.
    loop_s: f64,
    /// CPU time of each simulated hour of the loop.
    hour_s: Vec<f64>,
    api_jobs: u64,
    transcript: String,
    summary: FleetSummary,
}

/// Drives `fleet` through the day of `stream`, taking one `host` probe
/// reading per simulated hour, outside every timer.
fn drive(fleet: &mut Fleet, stream: &Stream, host: &mut HostSpeed) -> Day {
    let (mut submit_s, mut status_s, mut summary_s) = (0.0, 0.0, 0.0);
    let mut tick_s = Vec::with_capacity(stream.polls.len());
    let mut tick_builds = Vec::with_capacity(stream.polls.len());
    let builds = fleet.obs().counter("fleet.prep.batch_builds");
    let mut transcript = String::new();
    let mut api_jobs = 0;
    let (mut hour_s, mut probed) = (Vec::new(), 0.0);
    let start = Cpu::Process.now();
    let mut hour_start = start;
    for (tick, (jobs, &poll)) in stream.jobs.iter().zip(&stream.polls).enumerate() {
        let t = Cpu::Process.now();
        for &(trap, service) in jobs {
            fleet.submit(trap, service);
        }
        submit_s += Cpu::Process.since(t);
        api_jobs += jobs.len() as u64;
        let before = builds.get();
        let t = Cpu::Process.now();
        fleet.run_minutes(1);
        tick_s.push(Cpu::Process.since(t));
        tick_builds.push(builds.get() - before);
        let t = Cpu::Process.now();
        let status = fleet.status(poll);
        status_s += Cpu::Process.since(t);
        let _ = writeln!(transcript, "{tick} {status:?}");
        if (tick as u64 + 1).is_multiple_of(SUMMARY_EVERY) {
            let t = Cpu::Process.now();
            let summary = fleet.summary();
            summary_s += Cpu::Process.since(t);
            transcript.push_str(&summary.to_string());
            hour_s.push(Cpu::Process.since(hour_start));
            let t = Cpu::Process.now();
            host.probe();
            probed += Cpu::Process.since(t);
            hour_start = Cpu::Process.now();
        }
    }
    let loop_s = Cpu::Process.since(start) - probed;
    let summary = fleet.summary();
    transcript.push_str(&summary.to_string());
    Day {
        tick_s,
        tick_builds,
        submit_s,
        status_s,
        summary_s,
        loop_s,
        hour_s,
        api_jobs,
        transcript,
        summary,
    }
}

/// Jobs neither completed nor still queued.
fn lost(s: &FleetSummary) -> u64 {
    s.submitted.saturating_sub(s.completed + s.queued as u64)
}

fn check_day(res: &mut RunResult, day: &Day, ticks: u64) {
    let s = &day.summary;
    res.check(s.completed + s.queued as u64 <= s.submitted, || {
        format!(
            "fleet-day: {} completed + {} queued exceed {} submitted",
            s.completed, s.queued, s.submitted
        )
    });
    res.check(s.ticks == ticks, || {
        format!("fleet-day: summary reports {} ticks, ran {ticks}", s.ticks)
    });
    let built: u64 = day.tick_builds.iter().sum();
    res.check(built == s.prep_batch_builds, || {
        format!(
            "fleet-day: builds read per tick sum to {built}, the summary counts {}",
            s.prep_batch_builds
        )
    });
    res.check(s.submitted >= day.api_jobs, || {
        format!(
            "fleet-day: summary counts {} jobs, the API alone submitted {}",
            s.submitted, day.api_jobs
        )
    });
}

/// Traps and ticks of the pinned run (seed [`PINNED_SEED`]).
const PINNED_SIZE: (usize, u64) = (64, 720);

/// The pinned run's summary: jobs submitted and completed, canaries,
/// trips, diagnoses, tests run, faults fixed.
const PINNED: [u64; 7] = [187427, 187381, 23040, 599, 599, 7522, 260];

fn check_pinned(res: &mut RunResult, workers: usize) {
    let (traps, ticks) = PINNED_SIZE;
    let config = FleetConfig { traps, workers, seed: PINNED_SEED, ..FleetConfig::default() };
    let mut host = HostSpeed::default();
    let s = drive(&mut Fleet::new(config.clone()), &stream(&config, ticks), &mut host).summary;
    let got =
        [s.submitted, s.completed, s.canaries, s.trips, s.diagnoses, s.tests_run, s.faults_fixed];
    report::check_pinned(res, "fleet-day", &got, &PINNED);
}

pub fn run(opts: &Opts) -> RunResult {
    let mut res = RunResult::default();
    let (config, ticks) = config(opts, 0);
    let (mut setup, mut new_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Cpu::Process.now();
        let fleet = Fleet::new(config.clone());
        new_s.push(Cpu::Process.since(start));
        let inputs = stream(&config, ticks);
        setup.push(Cpu::Process.since(start));
        built = Some((fleet, inputs));
    }
    let (mut fleet, inputs) = built.expect("at least one set-up");

    let mut host = HostSpeed::default();
    let day = drive(&mut fleet, &inputs, &mut host);
    drop(fleet);
    check_day(&mut res, &day, ticks);
    res.attempted = day.summary.submitted;
    res.failed = lost(&day.summary);
    let transcript = digest(&day.transcript);
    res.lines.push(format!(
        "day 0: {} traps x {ticks} ticks, workers {}, {} API jobs",
        config.traps, opts.workers, day.api_jobs
    ));
    res.lines.push(format!(
        "{} of {ticks} ticks built canary tables",
        day.tick_builds.iter().filter(|&&b| b > 0).count()
    ));
    res.lines.push(format!("transcript digest {transcript:016x}"));
    res.lines.extend(day.summary.to_string().lines().map(str::to_owned));

    if opts.traced {
        Counters::start();
        let start = Cpu::Process.now();
        let mut fleet = Fleet::new(config.clone());
        let new_traced = Cpu::Process.since(start);
        let traced = drive(&mut fleet, &inputs, &mut host);
        let counters = Counters::stop();
        drop(fleet);
        // A second untraced day after the traced one: the overhead
        // compares the traced day with the mean of the days around it.
        let again = drive(&mut Fleet::new(config.clone()), &inputs, &mut host);
        for d in [&traced, &again] {
            res.check(d.transcript == day.transcript, || {
                "fleet-day: traced transcript (status polls, summaries) differs from untraced"
                    .into()
            });
            check_day(&mut res, d, ticks);
            res.attempted += d.summary.submitted;
            res.failed += lost(&d.summary);
        }
        let l = &mut res.per_layer;
        counters.common_layers(l);
        let s = &traced.summary;
        let (mut steady, mut epoch) = (0.0, 0.0);
        // Ticks that built canary tables (the drift epochs and the first
        // tick) against the rest.
        for (&t, &built) in traced.tick_s.iter().zip(&traced.tick_builds) {
            if built > 0 {
                epoch += t;
            } else {
                steady += t;
            }
        }
        l.insert("protocol.tests_per_diagnosis", ratio(s.tests_run as f64, s.diagnoses as f64));
        l.insert("protocol.adaptive_rounds", counters.det("core.decoder.adaptive_rounds"));
        l.insert("fleet.tick_steady_s", steady);
        l.insert("fleet.tick_epoch_s", epoch);
        l.insert("fleet.submit_s", traced.submit_s);
        l.insert("fleet.status_s", traced.status_s);
        l.insert("fleet.summary_s", traced.summary_s);
        new_s.push(new_traced);
        l.insert("fleet.new_s", median(&new_s));
        l.insert("fleet.l2_hit_ratio", s.shared_cache.hit_rate());
        l.insert("fleet.l2_evictions", s.shared_cache.evictions as f64);
        l.insert("fleet.l1_hit_ratio", s.l1_cache.hit_rate());
        l.insert("fleet.batch_builds", s.prep_batch_builds as f64);
        l.insert("fleet.resident_bytes", s.shared_bytes as f64);
        let parts = steady + epoch + traced.submit_s + traced.status_s + traced.summary_s;
        l.insert("coverage", ratio(parts, traced.loop_s));
        l.insert("trace_overhead", 2.0 * traced.loop_s / (day.loop_s + again.loop_s) - 1.0);
    } else {
        // The run's further days, each on a fleet and inputs of its own,
        // built outside the loop's timer.
        let mut days = vec![day];
        for d in 1..report::batch_count(opts, NOMINAL_DAY_S) {
            let (config, _) = self::config(opts, d);
            let inputs = stream(&config, ticks);
            let day = drive(&mut Fleet::new(config), &inputs, &mut host);
            check_day(&mut res, &day, ticks);
            res.attempted += day.summary.submitted;
            res.failed += lost(&day.summary);
            days.push(day);
        }
        let latencies: Vec<f64> =
            days.iter().flat_map(|d| d.tick_s.iter().map(|s| s * 1e3)).collect();
        let n = latencies.len();
        let minutes = config.traps as f64 * SUMMARY_EVERY as f64;
        let rates: Vec<f64> =
            days.iter().flat_map(|d| d.hour_s.iter().map(|s| minutes / s)).collect();
        // Every trap runs its canary on the same minute, so single ticks
        // alternate heavy and light and their median falls between the
        // two modes; one canary cycle of ticks is the unit whose median
        // is stable.
        let cycles: Vec<f64> =
            latencies.chunks(config.canary_cadence_min as usize).map(|c| c.iter().sum()).collect();
        let scale = host.scale();
        res.lines.push(host.line());
        res.end_to_end = vec![
            EndToEnd {
                key: "setup_s",
                name: "setup_s",
                value: median(&setup) * scale,
                unit: "s",
                samples: setup.len(),
            },
            EndToEnd {
                key: "peak_rss_mb",
                name: "peak_rss_mb",
                value: report::peak_rss_mb(),
                unit: "MB",
                samples: 1,
            },
            EndToEnd {
                key: "work_per_s",
                name: "trap_minutes_per_s",
                value: median(&rates) / scale,
                unit: "1/s",
                samples: rates.len(),
            },
            EndToEnd {
                key: "latency_p50_ms",
                name: "cycle_p50_ms",
                value: median(&cycles) * scale,
                unit: "ms",
                samples: cycles.len(),
            },
            EndToEnd {
                key: "latency_p99_ms",
                name: "tick_p99_ms",
                value: percentile(&latencies, 0.99) * scale,
                unit: "ms",
                samples: n,
            },
            EndToEnd {
                key: "outcome_count",
                name: "jobs_per_machine_day",
                value: days.iter().map(|d| d.summary.jobs_per_machine_day()).sum::<f64>()
                    / days.len() as f64,
                unit: "count",
                samples: days.len(),
            },
        ];
    }
    if res.failed == 0 {
        check_pinned(&mut res, opts.workers);
    }
    res
}
