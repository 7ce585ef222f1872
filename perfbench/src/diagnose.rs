//! `diagnose` — the Table II workload: `diagnose_all` with the ranked
//! decoder on the inline `ExactExecutor` oracle, `k ∈ {1,2,3}` planted
//! faults at 30 % under-rotation on `n ∈ {8,16,32}` qubits, trials on the
//! `par_trials` engine.
//!
//! A run is a fixed number of batches, each with its own inputs; set-up is
//! input generation: every trial's planted fault set, drawn from the same
//! per-trial streams as `table2_identification_rate`. Batch 0 is checked
//! against that estimator on a simulation backend (not the inline oracle
//! the workload measures), and a pinned batch guards the decoder.

use crate::report::{
    self, batch_count, median, on_fresh_thread, ratio, Counters, Cpu, HostSpeed, Passes, RunResult,
    PINNED_SEED,
};
use crate::Opts;
use itqc_backend::BackendChoice;
use itqc_bench::par_trials::{par_map, split_seed};
use itqc_bench::protocol_stats::{table2_config, TABLE2_FAULT_U};
use itqc_bench::{ambient::random_couplings, table2_identification_rate_backed};
use itqc_circuit::Coupling;
use itqc_core::{
    diagnose_all, DecoderPolicy, ExactExecutor, MultiFaultConfig, TestExecutor, TestSpec,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Host seconds of one batch on the reference host (2 cores); a run
/// holds `--seconds` worth of batches, each with fresh inputs.
const NOMINAL_BATCH_S: f64 = 1.25;

/// Trials per `(n, k)` cell at each machine size.
fn trials(n: usize, short: bool) -> usize {
    match (n, short) {
        (8, false) => 100,
        (16, false) => 50,
        (_, false) => 20,
        (32, true) => 1,
        (_, true) => 3,
    }
}

/// One Table II cell with its generated inputs.
struct Cell {
    n: usize,
    k: usize,
    seed: u64,
    config: MultiFaultConfig,
    faults: Vec<Vec<Coupling>>,
}

fn generate(seed: u64, short: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    for n in [8usize, 16, 32] {
        for k in 1..=3usize {
            let cell_seed = split_seed(seed, cells.len());
            let faults = (0..trials(n, short))
                .map(|t| {
                    let mut rng = SmallRng::seed_from_u64(split_seed(cell_seed, t));
                    let mut planted = random_couplings(n, k, &mut rng);
                    planted.sort();
                    planted
                })
                .collect();
            let config = table2_config(k, DecoderPolicy::Ranked);
            cells.push(Cell { n, k, seed: cell_seed, config, faults });
        }
    }
    cells
}

/// What a diagnosis concluded: the traced and untraced runs must agree.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    diagnosed: Vec<Coupling>,
    tests: usize,
    adaptations: usize,
}

/// One trial: its outcome (`None` if it panicked) and CPU times.
struct Trial {
    outcome: Option<Outcome>,
    /// Time inside `diagnose_all`.
    latency_s: f64,
    /// Time of the whole trial body.
    busy_s: f64,
    /// Time inside `run_test` (traced run only).
    exact_s: f64,
    calls: u64,
}

/// Pass-through executor that times every `run_test`.
struct TimedExact {
    inner: ExactExecutor,
    exact_s: f64,
    calls: u64,
}

impl TestExecutor for TimedExact {
    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64 {
        let start = Cpu::Thread.now();
        let score = self.inner.run_test(spec, shots);
        self.exact_s += Cpu::Thread.since(start);
        self.calls += 1;
        score
    }

    fn note_adaptation(&mut self, couplings_compiled: usize) {
        self.inner.note_adaptation(couplings_compiled);
    }
}

fn trial(cell: &Cell, t: usize, traced: bool) -> Trial {
    let start = Cpu::Thread.now();
    let mut times = (0.0, 0.0, 0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let exec = ExactExecutor::new(cell.n)
            .with_faults(cell.faults[t].iter().map(|&c| (c, TABLE2_FAULT_U)));
        let began = Cpu::Thread.now();
        let report = if traced {
            let mut timed = TimedExact { inner: exec, exact_s: 0.0, calls: 0 };
            let report = diagnose_all(&mut timed, cell.n, &cell.config);
            times = (Cpu::Thread.since(began), timed.exact_s, timed.calls);
            report
        } else {
            let mut exec = exec;
            let report = diagnose_all(&mut exec, cell.n, &cell.config);
            times.0 = Cpu::Thread.since(began);
            report
        };
        Outcome {
            diagnosed: report.couplings(),
            tests: report.tests_run,
            adaptations: report.adaptations,
        }
    }))
    .ok();
    Trial {
        outcome,
        latency_s: times.0,
        busy_s: Cpu::Thread.since(start),
        exact_s: times.1,
        calls: times.2,
    }
}

/// One pass over every cell; returns the trials per cell and the summed
/// process CPU time of the trial-engine calls. Takes a `host` probe
/// reading before each cell, outside its timer.
fn run_batch(
    cells: &[Cell],
    threads: usize,
    traced: bool,
    mut host: Option<&mut HostSpeed>,
) -> (Vec<Vec<Trial>>, f64) {
    on_fresh_thread(|| {
        let mut cpu = 0.0;
        let trials = cells
            .iter()
            .map(|cell| {
                if let Some(host) = host.as_deref_mut() {
                    host.probe();
                }
                let start = Cpu::Process.now();
                let out = par_map(threads, cell.faults.len(), |t| trial(cell, t, traced));
                cpu += Cpu::Process.since(start);
                out
            })
            .collect();
        (trials, cpu)
    })
}

fn outcomes(batch: &[Vec<Trial>]) -> Vec<Vec<Option<Outcome>>> {
    batch.iter().map(|cell| cell.iter().map(|t| t.outcome.clone()).collect()).collect()
}

fn identified(cells: &[Cell], batch: &[Vec<Trial>]) -> Vec<usize> {
    cells
        .iter()
        .zip(batch)
        .map(|(cell, trials)| {
            trials
                .iter()
                .zip(&cell.faults)
                .filter(|(t, planted)| t.outcome.as_ref().is_some_and(|o| &o.diagnosed == *planted))
                .count()
        })
        .collect()
}

/// The backend each cell's reference rate is computed on: the dense
/// state-vector path where it is cheap (n = 8), the analytic engine
/// above. Neither shares the inline Gray-walk oracle under test.
fn reference_backend(n: usize) -> BackendChoice {
    if n <= 8 {
        BackendChoice::Dense
    } else {
        BackendChoice::Analytic
    }
}

/// The correctness reference: each cell's rate must equal the library
/// estimator's on the same seed and size, with every exact score routed
/// through a simulation backend instead of the inline oracle.
fn check_library(res: &mut RunResult, cells: &[Cell], hits: &[usize], threads: usize) {
    for (cell, &hit) in cells.iter().zip(hits) {
        let trials = cell.faults.len();
        let ours = hit as f64 / trials as f64;
        let backend = reference_backend(cell.n);
        let lib = table2_identification_rate_backed(
            cell.n,
            cell.k,
            trials,
            threads,
            DecoderPolicy::Ranked,
            backend,
            cell.seed,
        );
        res.check(ours == lib, || {
            format!(
                "diagnose n={} k={}: rate {ours} vs table2_identification_rate_backed ({backend}) {lib}",
                cell.n, cell.k
            )
        });
    }
}

/// Batch 0 of seed [`PINNED_SEED`] at full size: identified trials per
/// cell, in `generate` order, then the tests run over the batch.
const PINNED: [u64; 10] = [100, 52, 32, 50, 20, 5, 20, 5, 0, 9782];

fn check_pinned(res: &mut RunResult, threads: usize) {
    let cells = generate(split_seed(PINNED_SEED, 0), false);
    let batch = run_batch(&cells, threads, false, None).0;
    let mut got: Vec<u64> = identified(&cells, &batch).iter().map(|&h| h as u64).collect();
    got.push(
        batch.iter().flatten().filter_map(|t| t.outcome.as_ref()).map(|o| o.tests as u64).sum(),
    );
    report::check_pinned(res, "diagnose", &got, &PINNED);
}

/// Generates one batch's inputs on a fresh thread (as the batches run:
/// on the main thread its time flipped between two levels from process
/// to process); returns them with the time it took.
fn set_up(opts: &Opts, batch: usize) -> (Vec<Cell>, f64) {
    on_fresh_thread(|| {
        let start = Cpu::Thread.now();
        let cells = generate(split_seed(opts.seed, batch), opts.short);
        (cells, Cpu::Thread.since(start))
    })
}

pub fn run(opts: &Opts) -> RunResult {
    let mut res = RunResult::default();
    let (cells, reference) = if opts.traced {
        let (cells, _) = set_up(opts, 0);
        // Untraced, traced, untraced: the overhead compares the traced
        // pass with the mean of the passes around it.
        let (plain, plain_cpu) = run_batch(&cells, opts.threads, false, None);
        Counters::start();
        let began = Instant::now();
        let (traced, cpu) = run_batch(&cells, opts.threads, true, None);
        let wall = began.elapsed().as_secs_f64();
        let counters = Counters::stop();
        let (again, again_cpu) = run_batch(&cells, opts.threads, false, None);
        for b in [&plain, &again] {
            res.check(outcomes(b) == outcomes(&traced), || {
                "diagnose: traced outcomes differ from untraced".into()
            });
        }
        let passes =
            Passes { cpu, plain_cpu: (plain_cpu + again_cpu) / 2.0, wall, threads: opts.threads };
        layers(&mut res, &traced, &passes, &counters);
        for b in [&plain, &traced, &again] {
            res.count(b.iter().flatten().map(|t| t.outcome.is_some()));
        }
        (cells, traced)
    } else {
        // Each batch's inputs are generated just before it, outside the
        // batch timer; `setup_s` is the median of those generations.
        let (mut setup, mut latencies, mut rates) = (Vec::new(), Vec::new(), Vec::new());
        let (mut hits, mut diagnoses) = (0, 0);
        let mut first = None;
        let mut host = HostSpeed::default();
        for b in 0..batch_count(opts, NOMINAL_BATCH_S) {
            let (cells, took) = set_up(opts, b);
            setup.push(took);
            let (batch, cpu) = run_batch(&cells, opts.threads, false, Some(&mut host));
            let trials: Vec<&Trial> = batch.iter().flatten().collect();
            latencies.extend(trials.iter().map(|t| t.latency_s * 1e3));
            rates.push(trials.len() as f64 / cpu);
            hits += identified(&cells, &batch).iter().sum::<usize>();
            diagnoses += trials.len();
            res.count(trials.iter().map(|t| t.outcome.is_some()));
            first.get_or_insert((cells, batch));
        }
        res.end_to_end = report::trial_metrics(&host, &setup, &rates, &latencies, hits, diagnoses);
        res.lines.push(host.line());
        first.expect("at least one batch")
    };
    let hits = identified(&cells, &reference);
    for ((cell, hit), trials) in cells.iter().zip(&hits).zip(&reference) {
        let ms: Vec<f64> = trials.iter().map(|t| t.latency_s * 1e3).collect();
        res.lines.push(format!(
            "batch 0 cell n={} k={}: identified {hit} of {}, median diagnosis {:.3} ms",
            cell.n,
            cell.k,
            cell.faults.len(),
            median(&ms)
        ));
    }
    if res.failed == 0 {
        check_library(&mut res, &cells, &hits, opts.threads);
        check_pinned(&mut res, opts.threads);
    }
    res
}

fn layers(res: &mut RunResult, batch: &[Vec<Trial>], passes: &Passes, counters: &Counters) {
    let trials: Vec<&Trial> = batch.iter().flatten().collect();
    let diag: f64 = trials.iter().map(|t| t.latency_s).sum();
    let exact: f64 = trials.iter().map(|t| t.exact_s).sum();
    let busy: f64 = trials.iter().map(|t| t.busy_s).sum();
    let ok: Vec<&Outcome> = trials.iter().filter_map(|t| t.outcome.as_ref()).collect();
    let tests: usize = ok.iter().map(|o| o.tests).sum();
    let rounds: usize = ok.iter().map(|o| o.adaptations).sum();
    let counted = counters.det("core.decoder.adaptive_rounds");
    res.check(counted == rounds as f64, || {
        format!("diagnose: core.decoder.adaptive_rounds {counted} vs reported {rounds}")
    });
    let l = &mut res.per_layer;
    counters.common_layers(l);
    l.insert("protocol.self_s", diag - exact);
    l.insert("protocol.tests_per_diagnosis", ratio(tests as f64, ok.len() as f64));
    l.insert("protocol.adaptive_rounds", counted);
    l.insert("executor.exact_s", exact);
    l.insert("executor.calls", trials.iter().map(|t| t.calls).sum::<u64>() as f64);
    l.insert("par.busy_s", busy);
    l.insert("par.efficiency", passes.efficiency(busy));
    l.insert("coverage", ratio(diag, busy));
    l.insert("trace_overhead", passes.overhead());
}
