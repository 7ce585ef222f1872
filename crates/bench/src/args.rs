//! Minimal CLI-argument parsing for the harness binaries.

use itqc_backend::BackendChoice;
use itqc_core::DecoderPolicy;

/// Where `--metrics[=PATH]` sends the end-of-run metrics document
/// (never stdout — every byte-identity gate diffs stdout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricsSink {
    /// Print the JSON document to stderr (bare `--metrics`).
    Stderr,
    /// Write the JSON document to a sidecar file (`--metrics=PATH`).
    File(String),
}

/// Common harness options:
/// `--trials=N  --seed=S  --threads=N|auto  --decoder=P  --backend=B  --csv  --fast  --metrics[=PATH]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Monte-Carlo trials per configuration.
    pub trials: usize,
    /// Master RNG seed.
    pub seed: u64,
    /// Worker threads for the parallel trial engine; `0` (or
    /// `--threads=auto`) = all available cores via
    /// `std::thread::available_parallelism`. Results are identical at
    /// any thread count, so this only changes wall-clock — note that on
    /// a 1-vCPU container `auto` resolves to a single worker and the
    /// parallel engine degrades gracefully to the sequential path.
    pub threads: usize,
    /// Multi-fault decoder policy override (`greedy|ranked|set-cover`);
    /// `None` keeps each binary's paper default (ranked).
    pub decoder: Option<DecoderPolicy>,
    /// Simulation backend for the scaling binaries
    /// (`dense|analytic|auto`; default `auto` — analytic for
    /// commuting-XX circuits, dense fallback otherwise).
    pub backend: BackendChoice,
    /// Emit CSV after the human-readable tables.
    pub csv: bool,
    /// Shrink workloads for smoke testing.
    pub fast: bool,
    /// Emit the end-of-run metrics document (`--metrics` → stderr,
    /// `--metrics=PATH` → sidecar file); also enables the `itqc_obs`
    /// event layer for the run.
    pub metrics: Option<MetricsSink>,
}

impl Args {
    /// Parses `std::env::args`, with the given default trial count.
    ///
    /// Unknown arguments are ignored (forward compatibility); malformed
    /// values fall back to the defaults.
    pub fn parse(default_trials: usize) -> Self {
        Self::parse_from(default_trials, std::env::args().skip(1))
    }

    /// [`Self::parse`] over an explicit argument list (testable core).
    pub fn parse_from(default_trials: usize, args: impl Iterator<Item = String>) -> Self {
        let mut out = Args {
            trials: default_trials,
            seed: 20220402,
            threads: 0,
            decoder: None,
            backend: BackendChoice::Auto,
            csv: false,
            fast: false,
            metrics: None,
        };
        for arg in args {
            if let Some(v) = arg.strip_prefix("--trials=") {
                if let Ok(n) = v.parse() {
                    out.trials = n;
                }
            } else if let Some(v) = arg.strip_prefix("--seed=") {
                if let Ok(s) = v.parse() {
                    out.seed = s;
                }
            } else if let Some(v) = arg.strip_prefix("--threads=") {
                if v == "auto" {
                    out.threads = 0;
                } else if let Ok(t) = v.parse() {
                    out.threads = t;
                }
            } else if let Some(v) = arg.strip_prefix("--decoder=") {
                if let Ok(p) = v.parse() {
                    out.decoder = Some(p);
                }
            } else if let Some(v) = arg.strip_prefix("--backend=") {
                if let Ok(b) = v.parse() {
                    out.backend = b;
                }
            } else if arg == "--csv" {
                out.csv = true;
            } else if arg == "--fast" {
                out.fast = true;
            } else if arg == "--metrics" {
                out.metrics = Some(MetricsSink::Stderr);
            } else if let Some(path) = arg.strip_prefix("--metrics=") {
                out.metrics = Some(MetricsSink::File(path.to_string()));
            }
        }
        if out.fast {
            out.trials = out.trials.div_ceil(10).max(2);
        }
        // Zero trials would make every Monte-Carlo mean 0/0 (NaN
        // tables); one trial is the smallest meaningful budget.
        out.trials = out.trials.max(1);
        out
    }

    /// The worker thread count with `0` resolved to the machine's
    /// available parallelism.
    pub fn threads(&self) -> usize {
        crate::par_trials::resolve_threads(self.threads)
    }

    /// The decoder policy, defaulting to the paper-reproduction default
    /// (the likelihood-ranked aliasing decoder) when `--decoder=` was
    /// not given.
    pub fn decoder(&self) -> DecoderPolicy {
        self.decoder.unwrap_or(DecoderPolicy::Ranked)
    }

    /// A deterministic per-configuration seed derived from the master
    /// seed, so adding configurations does not reshuffle earlier ones.
    pub fn seed_for(&self, tag: &str) -> u64 {
        // FNV-1a over the tag, mixed with the master seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in tag.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args() -> Args {
        Args {
            trials: 10,
            seed: 1,
            threads: 0,
            decoder: None,
            backend: BackendChoice::Auto,
            csv: false,
            fast: false,
            metrics: None,
        }
    }

    #[test]
    fn metrics_flag_parses_both_sinks() {
        let argv = |s: &str| [s.to_string()].into_iter();
        assert_eq!(args().metrics, None);
        assert_eq!(Args::parse_from(10, argv("--metrics")).metrics, Some(MetricsSink::Stderr));
        assert_eq!(
            Args::parse_from(10, argv("--metrics=/tmp/m.json")).metrics,
            Some(MetricsSink::File("/tmp/m.json".to_string()))
        );
    }

    #[test]
    fn backend_choice_parses() {
        assert_eq!("analytic".parse::<BackendChoice>(), Ok(BackendChoice::Analytic));
        assert_eq!(args().backend, BackendChoice::Auto);
    }

    #[test]
    fn per_config_seeds_differ() {
        let a = args();
        assert_ne!(a.seed_for("fig8/n=8"), a.seed_for("fig8/n=16"));
        assert_eq!(a.seed_for("x"), a.seed_for("x"));
    }

    #[test]
    fn threads_zero_resolves_to_at_least_one() {
        let a = args();
        assert!(a.threads() >= 1);
        let b = Args { threads: 8, ..a };
        assert_eq!(b.threads(), 8);
    }

    #[test]
    fn threads_auto_parses_like_zero() {
        let argv = |s: &str| [s.to_string()].into_iter();
        let auto = Args::parse_from(10, argv("--threads=auto"));
        assert_eq!(auto.threads, 0, "`auto` defers to available_parallelism");
        assert!(auto.threads() >= 1);
        let fixed = Args::parse_from(10, argv("--threads=3"));
        assert_eq!(fixed.threads, 3);
        let junk = Args::parse_from(10, argv("--threads=lots"));
        assert_eq!(junk.threads, 0, "malformed values keep the default");
    }

    #[test]
    fn decoder_defaults_to_ranked() {
        assert_eq!(args().decoder(), DecoderPolicy::Ranked);
        let b = Args { decoder: Some(DecoderPolicy::Greedy), ..args() };
        assert_eq!(b.decoder(), DecoderPolicy::Greedy);
        assert_eq!("set-cover".parse::<DecoderPolicy>(), Ok(DecoderPolicy::SetCoverFallback));
    }
}
