//! Metric records, summary statistics and the result line.

use std::collections::BTreeMap;

/// One end-to-end metric as measured by a workload. `key` is the name
/// the result line uses (shared by every workload, see `BENCHMARK.json`;
/// empty for a report-only metric); `name` is the workload-specific name
/// the human-readable report uses.
pub struct EndToEnd {
    pub key: &'static str,
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The end-to-end keys of the result line, in order, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("outcome_count", "count"),
];

/// The per-layer metrics of the traced run, in order, with their units.
/// Every workload prints every entry; a layer the workload does not
/// exercise (or does not time from outside) reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("protocol.self_s", "s"),
    ("protocol.tests_per_diagnosis", "tests"),
    ("protocol.adaptive_rounds", "count"),
    ("executor.exact_s", "s"),
    ("executor.calls", "count"),
    ("executor.walk_terms", "terms"),
    ("memo.hit_ratio", "ratio"),
    ("backend.prepare_s", "s"),
    ("backend.prepare_calls", "count"),
    ("backend.prep_cache_hit_ratio", "ratio"),
    ("backend.sample_joint_s", "s"),
    ("backend.sample_chain_s", "s"),
    ("backend.shots", "count"),
    ("backend.ns_per_shot", "ns"),
    ("backend.wht_butterflies", "count"),
    ("backend.component_cache_hit_ratio", "ratio"),
    ("backend.joint_components", "count"),
    ("backend.chain_components", "count"),
    ("score.s", "s"),
    ("par.busy_s", "s"),
    ("par.efficiency", "ratio"),
    ("fleet.tick_steady_s", "s"),
    ("fleet.tick_epoch_s", "s"),
    ("fleet.submit_s", "s"),
    ("fleet.status_s", "s"),
    ("fleet.summary_s", "s"),
    ("fleet.new_s", "s"),
    ("fleet.l2_hit_ratio", "ratio"),
    ("fleet.l2_evictions", "count"),
    ("fleet.l1_hit_ratio", "ratio"),
    ("fleet.batch_builds", "count"),
    ("fleet.resident_bytes", "bytes"),
    ("coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Per-layer metrics that are computed from other counts rather than
/// counted, labelled as such in the report.
const COMPUTED: [&str; 1] = ["executor.walk_terms"];

/// What one workload run produced.
#[derive(Default)]
pub struct RunResult {
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<EndToEnd>,
    /// Per-layer metrics (traced run), keyed by [`PER_LAYER`] names.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Correctness mismatches; any entry fails the run.
    pub mismatches: Vec<String>,
    /// Extra human-readable report lines.
    pub lines: Vec<String>,
}

impl RunResult {
    /// Counts operations: each `true` succeeded, each `false` failed.
    pub fn count(&mut self, ok: impl Iterator<Item = bool>) {
        for ok in ok {
            self.attempted += 1;
            self.failed += !ok as u64;
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Prints the report, then the result line; returns whether the run
    /// was correct.
    pub fn print(&self, workload: &str, traced: bool) -> bool {
        println!("workload {workload} ({})", if traced { "traced" } else { "untraced" });
        for line in &self.lines {
            println!("  {line}");
        }
        let fail_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!("  fail_rate = {fail_rate} ({} of {} failed)", self.failed, self.attempted);
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                let value = self.per_layer.get(name).copied().unwrap_or(0.0);
                let label = if COMPUTED.contains(&name) { " (computed)" } else { "" };
                println!("  {name} = {value} {unit}{label}");
                metrics.push((name, value, unit));
            }
        } else {
            for m in &self.end_to_end {
                println!("  {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
            }
            for (key, unit) in END_TO_END {
                let m = self.end_to_end.iter().find(|m| m.key == key).expect("every key measured");
                assert_eq!(m.unit, unit, "unit of {key}");
                metrics.push((key, m.value, unit));
            }
        }
        for m in &self.mismatches {
            eprintln!("perfbench: MISMATCH {m}");
        }
        let correct = self.mismatches.is_empty() && self.failed == 0;
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", finite(*value))
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        correct
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The CPU-time clocks every timing of the benchmark reads. On a host of
/// shared cores, wall time also counts the time the host ran other
/// tenants on this process's core (steal time, which moved a run's wall
/// time by more than half from one minute to the next); CPU time counts
/// only the time the program itself ran. The process clock counts another
/// running thread's time only up to that thread's last scheduler tick, so
/// it is read around whole batches and ticks, while worker threads wait.
#[derive(Clone, Copy)]
pub enum Cpu {
    /// Every thread of this process (`CLOCK_PROCESS_CPUTIME_ID`).
    Process = 2,
    /// The calling thread (`CLOCK_THREAD_CPUTIME_ID`).
    Thread = 3,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clocks assume 64-bit Linux");

impl Cpu {
    /// Seconds on this clock.
    pub fn now(self) -> f64 {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a writable `struct timespec` of 64-bit Linux and
        // the clock id is one of the two Linux CPU-time clocks.
        let rc = unsafe { clock_gettime(self as i32, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }

    /// Seconds on this clock since `start`, a reading of [`Cpu::now`].
    pub fn since(self, start: f64) -> f64 {
        self.now() - start
    }
}

/// Batches of fresh inputs in one run: `--seconds` worth at the nominal
/// batch time of the reference host (one in short mode). The work is
/// fixed by the arguments, so a faster program finishes sooner.
pub fn batch_count(opts: &crate::Opts, nominal_batch_s: f64) -> usize {
    if opts.short {
        1
    } else {
        ((opts.seconds / nominal_batch_s).round() as usize).max(1)
    }
}

/// CPU seconds one [`probe`] takes on the reference host (a 2-vCPU Intel
/// Xeon VM) in a quiet period.
pub const PROBE_REF_S: f64 = 0.0095;

/// The host-speed probe: a fixed computation that shares no code with the
/// program, only the kinds of work it does — Walsh–Hadamard butterflies
/// over a 1 MiB table, inverse-CDF draws by binary search, complex phase
/// rotations and small hash-map builds. Returns its CPU seconds on the
/// calling thread.
pub fn probe() -> f64 {
    const N: usize = 1 << 17;
    let start = Cpu::Thread.now();
    let mut table: Vec<f64> =
        (0..N).map(|i| (i.wrapping_mul(2_654_435_761) % 1000) as f64 * 1e-3).collect();
    for _ in 0..2 {
        let mut h = 1;
        while h < N {
            for block in table.chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                for (a, b) in lo.iter_mut().zip(hi) {
                    (*a, *b) = (*a + *b, (*a - *b) * 0.5);
                }
            }
            h *= 2;
        }
    }
    let cdf: Vec<f64> = table
        .iter()
        .scan(0.0, |acc, x| {
            *acc += x.abs() + 1e-9;
            Some(*acc)
        })
        .collect();
    let (total, mut x, mut drawn) = (cdf[N - 1], 0x9e37_79b9_7f4a_7c15_u64, 0);
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64 * total;
        drawn += cdf.partition_point(|&c| c < u);
    }
    let (mut re, mut im, mut keys) = (1.0f64, 0.0f64, 0);
    for k in 0..100_000u64 {
        let (s, c) = ((k % 97) as f64 * 0.01).sin_cos();
        (re, im) = (re * c - im * s, re * s + im * c);
        if k % 1000 == 0 {
            let map: std::collections::HashMap<u64, u64> = (0..100).map(|i| (i ^ x, k)).collect();
            keys += map.len();
        }
    }
    std::hint::black_box((&table, drawn, re, im, keys));
    Cpu::Thread.since(start)
}

/// Probe readings taken through a run, between its units of work and
/// outside every timer. A shared host's speed per CPU second moves with
/// what its other tenants run (by a factor of two within half an hour on
/// the reference host, in bursts shorter than a second); the end-to-end
/// timings are scaled by [`HostSpeed::scale`] so that they read as
/// reference-host seconds, and move with the program only. A single
/// reading is noisy, so a run takes one every few hundred milliseconds of
/// work and uses their mean.
#[derive(Default)]
pub struct HostSpeed {
    readings: Vec<f64>,
}

impl HostSpeed {
    /// Takes one probe reading.
    pub fn probe(&mut self) {
        self.readings.push(probe());
    }

    /// Reference-host seconds per CPU second of this run:
    /// [`PROBE_REF_S`] ÷ the mean probe reading.
    pub fn scale(&self) -> f64 {
        PROBE_REF_S / self.mean()
    }

    fn mean(&self) -> f64 {
        self.readings.iter().sum::<f64>() / self.readings.len() as f64
    }

    /// The report line on the probe readings.
    pub fn line(&self) -> String {
        format!(
            "host probe: mean {:.3} ms over {} readings (reference {:.3} ms); timings scaled by {:.4}",
            self.mean() * 1e3,
            self.readings.len(),
            PROBE_REF_S * 1e3,
            self.scale()
        )
    }
}

/// The traced pass of a trial workload beside the untraced passes around
/// it.
pub struct Passes {
    /// Process CPU seconds of the traced pass.
    pub cpu: f64,
    /// Mean process CPU seconds of the untraced passes.
    pub plain_cpu: f64,
    /// Wall seconds of the traced pass.
    pub wall: f64,
    pub threads: usize,
}

impl Passes {
    /// Trial-body CPU time `busy` ÷ (wall × threads): the share of the
    /// trial engine's threads kept busy. The one figure timed on the wall
    /// clock, since CPU time does not see an idle thread.
    pub fn efficiency(&self, busy: f64) -> f64 {
        ratio(busy, self.wall * self.threads as f64)
    }

    /// Traced CPU time ÷ untraced CPU time − 1.
    pub fn overhead(&self) -> f64 {
        self.cpu / self.plain_cpu - 1.0
    }
}

/// The end-to-end metrics of a trial workload (`diagnose`, `detect`):
/// throughput is the median of the per-batch rates, latency percentiles
/// pool every diagnosis of the run; every timing is in CPU seconds scaled
/// by `host`.
pub fn trial_metrics(
    host: &HostSpeed,
    setup: &[f64],
    rates: &[f64],
    latencies_ms: &[f64],
    identified: usize,
    diagnoses: usize,
) -> Vec<EndToEnd> {
    let n = latencies_ms.len();
    let scale = host.scale();
    eprintln!("perfbench: per-batch diagnoses per CPU second {rates:.1?}");
    vec![
        EndToEnd {
            key: "setup_s",
            name: "setup_s",
            value: median(setup) * scale,
            unit: "s",
            samples: setup.len(),
        },
        EndToEnd {
            key: "peak_rss_mb",
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
            samples: 1,
        },
        EndToEnd {
            key: "work_per_s",
            name: "diagnoses_per_s",
            value: median(rates) / scale,
            unit: "1/s",
            samples: rates.len(),
        },
        EndToEnd {
            key: "latency_p50_ms",
            name: "diagnose_p50_ms",
            value: percentile(latencies_ms, 0.5) * scale,
            unit: "ms",
            samples: n,
        },
        EndToEnd {
            key: "latency_p99_ms",
            name: "diagnose_p99_ms",
            value: percentile(latencies_ms, 0.99) * scale,
            unit: "ms",
            samples: n,
        },
        EndToEnd {
            key: "outcome_count",
            name: "identified",
            value: identified as f64,
            unit: "count",
            samples: diagnoses,
        },
        EndToEnd {
            key: "",
            name: "identify_rate",
            value: identified as f64 / diagnoses.max(1) as f64,
            unit: "ratio",
            samples: diagnoses,
        },
    ]
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` on a new thread and returns its result, so thread-local
/// caches (score memo, component distribution cache) start cold for
/// every timed unit, whether the trial engine runs serially on the
/// caller or on workers of its own. The thread's `itqc_obs` event shard
/// is folded into the global registry before it ends.
pub fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(|| {
            let out = f();
            itqc_obs::event::flush();
            out
        })
        .join()
        .expect("benchmark unit panicked")
    })
}

/// Seed of the batch every run re-checks against pinned outcomes,
/// whatever `--seed` it was given.
pub const PINNED_SEED: u64 = 1;

/// Fails the run when the outcome counts of a workload's pinned batch
/// (seed [`PINNED_SEED`]) differ from those recorded in its source. The
/// library estimators share the protocol code under test, so this is the
/// reference that a change to the protocol's decisions cannot move; a
/// change that means to alter outcomes must re-record the pins.
pub fn check_pinned(res: &mut RunResult, workload: &str, got: &[u64], want: &[u64]) {
    res.check(got == want, || {
        format!("{workload}: pinned batch (seed {PINNED_SEED}) gave {got:?}, recorded {want:?}")
    });
}

/// A 64-bit FNV-1a digest, for printing a long transcript compactly.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The `itqc_obs` counters the traced run reads, captured from the
/// global registry (deterministic and nondeterministic sections).
pub struct Counters {
    det: BTreeMap<String, u64>,
    nd: BTreeMap<String, u64>,
    nd_hists: BTreeMap<String, Vec<(u64, u64)>>,
}

impl Counters {
    /// Clears the global registry and turns the event layer on.
    pub fn start() {
        itqc_obs::global().reset();
        itqc_obs::set_enabled(true);
    }

    /// Turns the event layer off and reads the global registry (worker
    /// shards were folded at their barriers; this thread's is flushed
    /// here).
    pub fn stop() -> Counters {
        itqc_obs::event::flush();
        itqc_obs::set_enabled(false);
        let det = itqc_obs::global().deterministic_snapshot();
        let nd = itqc_obs::global().nondeterministic_snapshot();
        Counters { det: det.counters, nd: nd.counters, nd_hists: nd.histograms }
    }

    pub fn det(&self, name: &str) -> f64 {
        self.det.get(name).copied().unwrap_or(0) as f64
    }

    pub fn nd(&self, name: &str) -> f64 {
        self.nd.get(name).copied().unwrap_or(0) as f64
    }

    /// Σ 2^support over the Gray-walk histogram: the computed number of
    /// amplitude terms the inline exact path summed.
    pub fn walk_terms(&self) -> f64 {
        self.nd_hists
            .get("core.walk.support_qubits")
            .map_or(0.0, |h| h.iter().map(|&(q, w)| w as f64 * 2f64.powi(q as i32)).sum())
    }

    /// The counters every workload reports, whatever layer recorded them.
    pub fn common_layers(&self, out: &mut BTreeMap<&'static str, f64>) {
        out.insert(
            "memo.hit_ratio",
            ratio(self.nd("backend.memo.hits"), self.det("backend.memo.lookups")),
        );
        out.insert("executor.walk_terms", self.walk_terms());
        let prep = self.nd("backend.prep_cache.hits");
        out.insert(
            "backend.prep_cache_hit_ratio",
            ratio(prep, prep + self.nd("backend.prep_cache.misses")),
        );
        out.insert("backend.shots", self.det("backend.shots.drawn"));
        out.insert("backend.wht_butterflies", self.nd("backend.wht.butterflies"));
        let comp = self.nd("backend.component_cache.hits");
        out.insert(
            "backend.component_cache_hit_ratio",
            ratio(comp, comp + self.nd("backend.component_cache.misses")),
        );
        out.insert("backend.joint_components", self.det("backend.sampler.joint_components"));
        out.insert("backend.chain_components", self.det("backend.sampler.chain_components"));
    }
}
