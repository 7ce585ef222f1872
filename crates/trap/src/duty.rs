//! Duty-cycle accounting (paper Fig. 2).
//!
//! A commercial ion trap splits its up-time between customer jobs and
//! testing/calibration (the paper measures roughly 53% / 47%). The
//! [`DutyLedger`] accumulates wall-clock per activity so experiments can
//! report how a diagnosis strategy changes the split.

use std::collections::BTreeMap;
use std::fmt;

/// What the machine is spending time on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Activity {
    /// Running customer/application circuits.
    Jobs,
    /// Running fault-detection test circuits.
    Testing,
    /// Recalibrating couplings (measure + correct).
    Calibration,
    /// Classical adaptation overhead (decide + compile + upload).
    Adaptation,
    /// Idle / other.
    Idle,
}

impl Activity {
    /// All activity categories in display order.
    pub const ALL: [Activity; 5] = [
        Activity::Jobs,
        Activity::Testing,
        Activity::Calibration,
        Activity::Adaptation,
        Activity::Idle,
    ];
}

impl fmt::Display for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Activity::Jobs => "jobs",
            Activity::Testing => "testing",
            Activity::Calibration => "calibration",
            Activity::Adaptation => "adaptation",
            Activity::Idle => "idle",
        };
        f.write_str(s)
    }
}

/// Accumulated seconds per activity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DutyLedger {
    seconds: BTreeMap<Activity, f64>,
}

impl DutyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `seconds` of `activity`.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or non-finite.
    pub fn record(&mut self, activity: Activity, seconds: f64) {
        assert!(seconds >= 0.0 && seconds.is_finite(), "bad duration {seconds}");
        *self.seconds.entry(activity).or_insert(0.0) += seconds;
    }

    /// Total seconds recorded for `activity`.
    pub fn seconds(&self, activity: Activity) -> f64 {
        self.seconds.get(&activity).copied().unwrap_or(0.0)
    }

    /// Total seconds across all activities.
    pub fn total(&self) -> f64 {
        self.seconds.values().sum()
    }

    /// Fraction of total time spent on `activity` (0 if nothing recorded).
    pub fn fraction(&self, activity: Activity) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            self.seconds(activity) / total
        }
    }

    /// Fraction of time producing value (jobs) — the paper's duty-cycle
    /// headline number (~53% for the machine of Fig. 2).
    pub fn uptime_fraction(&self) -> f64 {
        self.fraction(Activity::Jobs)
    }

    /// Maintenance overhead: testing + calibration + adaptation.
    pub fn overhead_fraction(&self) -> f64 {
        self.fraction(Activity::Testing)
            + self.fraction(Activity::Calibration)
            + self.fraction(Activity::Adaptation)
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &DutyLedger) {
        for (&k, &v) in &other.seconds {
            *self.seconds.entry(k).or_insert(0.0) += v;
        }
    }
}

impl fmt::Display for DutyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "duty cycle over {:.1} s:", self.total())?;
        for a in Activity::ALL {
            writeln!(
                f,
                "  {:<12} {:>10.2} s  ({:>5.1}%)",
                a.to_string(),
                self.seconds(a),
                100.0 * self.fraction(a)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let mut d = DutyLedger::new();
        d.record(Activity::Jobs, 53.0);
        d.record(Activity::Testing, 20.0);
        d.record(Activity::Calibration, 27.0);
        let s: f64 = Activity::ALL.iter().map(|&a| d.fraction(a)).sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!((d.uptime_fraction() - 0.53).abs() < 1e-12);
        assert!((d.overhead_fraction() - 0.47).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_is_zero() {
        let d = DutyLedger::new();
        assert_eq!(d.total(), 0.0);
        assert_eq!(d.uptime_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DutyLedger::new();
        a.record(Activity::Jobs, 10.0);
        let mut b = DutyLedger::new();
        b.record(Activity::Jobs, 5.0);
        b.record(Activity::Idle, 5.0);
        a.merge(&b);
        assert_eq!(a.seconds(Activity::Jobs), 15.0);
        assert_eq!(a.total(), 20.0);
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn negative_duration_panics() {
        DutyLedger::new().record(Activity::Idle, -1.0);
    }
}
