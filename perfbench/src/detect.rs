//! `detect` — the Fig. 8 workload: threshold calibration, then
//! `SingleFaultProtocol::diagnose` (contrast verification, 300-shot
//! worst-qubit statistic) over string-sampled shots through the analytic
//! backend, on 16- and 32-qubit panels (joint Walsh–Hadamard tables) and
//! one 64-qubit panel (chain sampler). Every trial plants one fault and
//! sweeps its under-rotation over 0 %, 5 %, …, 50 %.
//!
//! Set-up is the threshold calibration of every panel. A run is a fixed
//! number of batches, each with fresh trials drawn from the same
//! per-trial streams as `fig8_curve`, which is the correctness reference
//! (checked on batch 0, on the dense backend where it fits), beside a
//! pinned batch.

use crate::report::{
    self, batch_count, median, on_fresh_thread, ratio, Counters, Cpu, HostSpeed, Passes, RunResult,
    PINNED_SEED,
};
use crate::Opts;
use itqc_backend::BackendChoice;
use itqc_bench::ambient::{ambient_executor_uniform_with, random_couplings};
use itqc_bench::detectability::{fig8_ambient_bound, fig8_sweep, FIG8_SCORE, FIG8_SHOTS};
use itqc_bench::par_trials::{par_trials, split_seed};
use itqc_bench::{fig8_curve, fig8_threshold, StringSampled};
use itqc_core::testplan::ScoreMode;
use itqc_core::{Diagnosis, ExactExecutor, SingleFaultProtocol, TestExecutor, TestSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Host seconds of one batch on the reference host (2 cores); a run
/// holds `--seconds` worth of batches, each with fresh trials.
const NOMINAL_BATCH_S: f64 = 2.2;

/// MS gates per coupling in every panel's tests.
const REPS: usize = 4;

const BACKEND: BackendChoice = BackendChoice::Analytic;

/// Panels with their planted-fault trials (each trial is one diagnosis
/// per sweep point) and calibration machines.
fn panels(short: bool) -> [(usize, usize, usize); 3] {
    if short {
        [(16, 1, 4), (32, 1, 4), (64, 1, 2)]
    } else {
        [(16, 4, 24), (32, 16, 24), (64, 4, 8)]
    }
}

struct Panel {
    n: usize,
    trials: usize,
    threshold: f64,
}

fn calibrate(seed: u64, short: bool, threads: usize) -> Vec<Panel> {
    on_fresh_thread(|| {
        panels(short)
            .iter()
            .enumerate()
            .map(|(i, &(n, trials, cal_trials))| {
                let cal_seed = split_seed(split_seed(seed, usize::MAX), i);
                let threshold = fig8_threshold(n, REPS, cal_trials, threads, BACKEND, cal_seed);
                Panel { n, trials, threshold }
            })
            .collect()
    })
}

/// What one diagnosis concluded.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    diagnosis: Diagnosis,
    tests: usize,
    adaptations: usize,
}

/// CPU times of one trial's layers (traced run only, except `diag_s`).
#[derive(Default)]
struct Times {
    diag_s: Vec<f64>,
    run_test_s: f64,
    prepare_s: f64,
    prepare_calls: u64,
    sample_s: f64,
    shots: u64,
    score_s: f64,
}

struct Trial {
    target: Option<itqc_circuit::Coupling>,
    /// One outcome per sweep point; `None` if the trial panicked.
    outcomes: Option<Vec<Outcome>>,
    busy_s: f64,
    times: Times,
}

/// String-sampling executor that times `ExactExecutor::prepare`,
/// `PreparedCircuit::sample_block` and scoring separately. It draws and
/// scores exactly as `StringSampled` does (the scoring step is the one
/// piece of that type the benchmark reproduces, to time it); the
/// traced-vs-untraced outcome check proves the two agree.
struct TimedStrings<'a> {
    exec: ExactExecutor,
    rng: SmallRng,
    times: &'a mut Times,
}

impl TestExecutor for TimedStrings<'_> {
    fn n_qubits(&self) -> usize {
        self.exec.n_qubits()
    }

    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64 {
        let start = Cpu::Thread.now();
        if shots == 0 {
            let score = self.exec.exact_score(spec);
            self.times.run_test_s += Cpu::Thread.since(start);
            return score;
        }
        let prepared = self.exec.prepare(spec);
        let prepared_at = Cpu::Thread.now();
        let strings = prepared.sample_block(&mut self.rng, shots);
        let sampled_at = Cpu::Thread.now();
        let hits = match spec.score {
            ScoreMode::ExactTarget => strings.iter().filter(|&&s| s == spec.target).count(),
            ScoreMode::WorstQubit => prepared
                .support()
                .iter()
                .map(|&q| {
                    let want = (spec.target >> q) & 1;
                    strings.iter().filter(|&&s| (s >> q) & 1 == want).count()
                })
                .min()
                .unwrap_or(shots),
        };
        let t = &mut *self.times;
        t.prepare_s += prepared_at - start;
        t.prepare_calls += 1;
        t.sample_s += sampled_at - prepared_at;
        t.shots += shots as u64;
        t.score_s += Cpu::Thread.since(sampled_at);
        t.run_test_s += Cpu::Thread.since(start);
        hits as f64 / shots as f64
    }

    fn note_adaptation(&mut self, couplings_compiled: usize) {
        self.exec.note_adaptation(couplings_compiled);
    }
}

fn trial(panel: &Panel, rng: &mut SmallRng, traced: bool) -> Trial {
    let start = Cpu::Thread.now();
    let mut times = Times::default();
    let mut target = None;
    let outcomes = catch_unwind(AssertUnwindSafe(|| {
        let n = panel.n;
        let planted = random_couplings(n, 1, rng)[0];
        target = Some(planted);
        let ambient = ambient_executor_uniform_with(n, fig8_ambient_bound(n), &[], BACKEND, rng);
        let shot_master: u64 = rng.gen();
        let protocol = SingleFaultProtocol::new(n, REPS, panel.threshold, FIG8_SHOTS)
            .with_score(FIG8_SCORE)
            .with_contrast_verification();
        fig8_sweep()
            .into_iter()
            .enumerate()
            .map(|(ui, u)| {
                let exec = ambient.clone().with_faults([(planted, u)]);
                let seed = split_seed(shot_master, ui);
                let began = Cpu::Thread.now();
                let report = if traced {
                    let mut timed = TimedStrings {
                        exec,
                        rng: SmallRng::seed_from_u64(seed),
                        times: &mut times,
                    };
                    protocol.diagnose(&mut timed)
                } else {
                    protocol.diagnose(&mut StringSampled::new(exec, seed))
                };
                times.diag_s.push(Cpu::Thread.since(began));
                let tests = report.tests_run();
                Outcome { diagnosis: report.diagnosis, tests, adaptations: report.adaptations }
            })
            .collect()
    }))
    .ok();
    Trial { target, outcomes, busy_s: Cpu::Thread.since(start), times }
}

/// One pass over every panel: trials per panel and the process CPU time
/// of the trial-engine call per panel. Takes a `host` probe reading
/// before each panel, outside its timer.
fn run_batch(
    panels: &[Panel],
    seeds: &[u64],
    threads: usize,
    traced: bool,
    mut host: Option<&mut HostSpeed>,
) -> (Vec<Vec<Trial>>, Vec<f64>) {
    on_fresh_thread(|| {
        panels
            .iter()
            .zip(seeds)
            .map(|(p, &seed)| {
                if let Some(host) = host.as_deref_mut() {
                    host.probe();
                }
                let start = Cpu::Process.now();
                let out = par_trials(
                    threads,
                    p.trials,
                    |t| split_seed(seed, t),
                    |_, rng| trial(p, rng, traced),
                );
                (out, Cpu::Process.since(start))
            })
            .unzip()
    })
}

/// The trial seeds of batch `b`, one per panel.
fn batch_seeds(seed: u64, b: usize) -> Vec<u64> {
    (0..panels(false).len()).map(|i| split_seed(split_seed(seed, b), i)).collect()
}

fn outcomes(batch: &[Vec<Trial>]) -> Vec<Vec<Option<Vec<Outcome>>>> {
    batch.iter().map(|p| p.iter().map(|t| t.outcomes.clone()).collect()).collect()
}

fn sweep_len() -> usize {
    fig8_sweep().len()
}

/// Per planned diagnosis of a batch, whether it completed (a trial that
/// panicked fails all of its sweep points).
fn diagnoses_ok(batch: &[Vec<Trial>]) -> impl Iterator<Item = bool> + '_ {
    batch.iter().flatten().flat_map(|t| std::iter::repeat_n(t.outcomes.is_some(), sweep_len()))
}

/// Identifications per sweep point, per panel.
fn hits(batch: &[Vec<Trial>]) -> Vec<Vec<usize>> {
    batch
        .iter()
        .map(|trials| {
            let mut per_u = vec![0; sweep_len()];
            for t in trials {
                if let (Some(target), Some(outs)) = (t.target, &t.outcomes) {
                    for (h, o) in per_u.iter_mut().zip(outs) {
                        *h += (o.diagnosis == Diagnosis::Fault(target)) as usize;
                    }
                }
            }
            per_u
        })
        .collect()
}

/// The backend each panel's reference curve is sampled on: the dense
/// state-vector path where it is cheap (the 16-qubit panel), which
/// shares no sampler with the analytic backend under test; above it the
/// library estimator on the analytic backend, and the pinned batch
/// (`check_pinned`) guards what that comparison cannot.
fn reference_backend(n: usize) -> BackendChoice {
    if n <= 16 {
        BackendChoice::Dense
    } else {
        BACKEND
    }
}

/// The correctness reference: each panel's identification probability
/// at every sweep point must equal `fig8_curve`'s on the same seed.
fn check_library(
    res: &mut RunResult,
    panels: &[Panel],
    seeds: &[u64],
    hits: &[Vec<usize>],
    threads: usize,
) {
    for ((p, per_u), &seed) in panels.iter().zip(hits).zip(seeds) {
        let backend = reference_backend(p.n);
        let curve = fig8_curve(p.n, REPS, p.threshold, p.trials, threads, backend, seed);
        for (point, &h) in curve.points.iter().zip(per_u) {
            let ours = h as f64 / p.trials as f64;
            res.check(ours == point.p_identify, || {
                format!(
                    "detect n={} u={}: p_identify {ours} vs fig8_curve ({backend}) {}",
                    p.n, point.under_rotation, point.p_identify
                )
            });
        }
    }
}

/// Batch 0 of seed [`PINNED_SEED`] at full size, after its own
/// calibration: identified trials per sweep point of each panel, then
/// the tests run over the batch.
const PINNED: [u64; 34] = [
    0, 0, 0, 0, 3, 4, 4, 4, 4, 3, 4, // n = 16
    0, 0, 0, 0, 0, 15, 15, 15, 15, 16, 15, // n = 32
    0, 0, 2, 2, 2, 2, 2, 2, 3, 2, 3, // n = 64
    3495,
];

fn check_pinned(res: &mut RunResult, threads: usize) {
    let panels = calibrate(PINNED_SEED, false, threads);
    let batch = run_batch(&panels, &batch_seeds(PINNED_SEED, 0), threads, false, None).0;
    let mut got: Vec<u64> = hits(&batch).concat().iter().map(|&h| h as u64).collect();
    let outcomes = batch.iter().flatten().filter_map(|t| t.outcomes.as_ref()).flatten();
    got.push(outcomes.map(|o| o.tests as u64).sum());
    report::check_pinned(res, "detect", &got, &PINNED);
}

pub fn run(opts: &Opts) -> RunResult {
    let mut res = RunResult::default();
    let mut setup = Vec::new();
    let mut panels = Vec::new();
    let mut host = HostSpeed::default();
    for _ in 0..SETUP_REPS {
        host.probe();
        let start = Cpu::Process.now();
        panels = calibrate(opts.seed, opts.short, opts.threads);
        setup.push(Cpu::Process.since(start));
    }
    for p in &panels {
        res.lines.push(format!("panel n={}: threshold {} from calibration", p.n, p.threshold));
    }
    let seeds = |b| batch_seeds(opts.seed, b);

    let reference = if opts.traced {
        // Untraced, traced, untraced: the overhead compares the traced
        // pass with the mean of the passes around it.
        let (plain, plain_cpus) = run_batch(&panels, &seeds(0), opts.threads, false, None);
        Counters::start();
        let began = Instant::now();
        let (traced, cpus) = run_batch(&panels, &seeds(0), opts.threads, true, None);
        let wall = began.elapsed().as_secs_f64();
        let counters = Counters::stop();
        let (again, again_cpus) = run_batch(&panels, &seeds(0), opts.threads, false, None);
        for b in [&plain, &again] {
            res.check(outcomes(b) == outcomes(&traced), || {
                "detect: traced outcomes differ from untraced".into()
            });
        }
        for b in [&plain, &traced, &again] {
            res.count(diagnoses_ok(b));
        }
        let cpu = cpus.iter().sum::<f64>();
        let plain_cpu = (plain_cpus.iter().sum::<f64>() + again_cpus.iter().sum::<f64>()) / 2.0;
        let passes = Passes { cpu, plain_cpu, wall, threads: opts.threads };
        layers(&mut res, &panels, &traced, &passes, &counters);
        traced
    } else {
        let mut batches: Vec<(Vec<Vec<Trial>>, f64)> = (0..batch_count(opts, NOMINAL_BATCH_S))
            .map(|b| {
                let (batch, cpus) =
                    run_batch(&panels, &seeds(b), opts.threads, false, Some(&mut host));
                (batch, cpus.iter().sum())
            })
            .collect();
        let mut latencies = Vec::new();
        let (mut rates, mut identified, mut diagnoses) = (Vec::new(), 0, 0);
        for (batch, cpu) in &batches {
            let before = latencies.len();
            latencies.extend(
                batch.iter().flatten().flat_map(|t| t.times.diag_s.iter().map(|s| s * 1e3)),
            );
            let n = panels.iter().map(|p| p.trials).sum::<usize>() * sweep_len();
            rates.push((latencies.len() - before) as f64 / cpu);
            identified += hits(batch).iter().flatten().sum::<usize>();
            diagnoses += n;
            res.count(diagnoses_ok(batch));
        }
        res.end_to_end =
            report::trial_metrics(&host, &setup, &rates, &latencies, identified, diagnoses);
        res.lines.push(host.line());
        batches.swap_remove(0).0
    };
    let hits = hits(&reference);
    for ((p, per_u), trials) in panels.iter().zip(&hits).zip(&reference) {
        let ms: Vec<f64> =
            trials.iter().flat_map(|t| t.times.diag_s.iter().map(|s| s * 1e3)).collect();
        res.lines.push(format!(
            "batch 0 panel n={}: identified per sweep point {per_u:?} of {}, median diagnosis {:.3} ms",
            p.n,
            p.trials,
            median(&ms)
        ));
    }
    if res.failed == 0 {
        check_library(&mut res, &panels, &seeds(0), &hits, opts.threads);
        check_pinned(&mut res, opts.threads);
    }
    res
}

fn layers(
    res: &mut RunResult,
    panels: &[Panel],
    batch: &[Vec<Trial>],
    passes: &Passes,
    counters: &Counters,
) {
    let sum = |f: &dyn Fn(&Times) -> f64| batch.iter().flatten().map(|t| f(&t.times)).sum::<f64>();
    let diag = sum(&|t| t.diag_s.iter().sum());
    let run_test = sum(&|t| t.run_test_s);
    let prepare = sum(&|t| t.prepare_s);
    let score = sum(&|t| t.score_s);
    let sample = sum(&|t| t.sample_s);
    let shots = sum(&|t| t.shots as f64);
    let (mut joint, mut chain) = (0.0, 0.0);
    for (p, trials) in panels.iter().zip(batch) {
        let s: f64 = trials.iter().map(|t| t.times.sample_s).sum();
        if p.n > 32 {
            chain += s;
        } else {
            joint += s;
        }
    }
    let busy: f64 = batch.iter().flatten().map(|t| t.busy_s).sum();
    let ok: Vec<&Outcome> =
        batch.iter().flatten().filter_map(|t| t.outcomes.as_ref()).flatten().collect();
    let l = &mut res.per_layer;
    counters.common_layers(l);
    l.insert("protocol.self_s", diag - run_test);
    l.insert(
        "protocol.tests_per_diagnosis",
        ratio(ok.iter().map(|o| o.tests).sum::<usize>() as f64, ok.len() as f64),
    );
    l.insert("protocol.adaptive_rounds", ok.iter().map(|o| o.adaptations).sum::<usize>() as f64);
    l.insert("backend.prepare_s", prepare);
    l.insert("backend.prepare_calls", sum(&|t| t.prepare_calls as f64));
    l.insert("backend.sample_joint_s", joint);
    l.insert("backend.sample_chain_s", chain);
    l.insert("backend.ns_per_shot", ratio(sample * 1e9, shots));
    l.insert("score.s", score);
    l.insert("par.busy_s", busy);
    l.insert("par.efficiency", passes.efficiency(busy));
    l.insert("coverage", ratio(diag - run_test + prepare + sample + score, busy));
    l.insert("trace_overhead", passes.overhead());
}
