//! How many passes a run makes, and which of them are traced.

use crate::measure::median;
use std::time::Instant;

/// Repeats passes until `--seconds` have been spent measuring and a
/// minimum count is reached. An untraced run makes only untraced passes;
/// a traced run alternates untraced and traced passes, so the difference
/// between the two gives the tracing overhead.
pub struct Schedule {
    trace: bool,
    seconds: f64,
    min_per_mode: usize,
    start: Instant,
    done: usize,
    untraced_secs: Vec<f64>,
    traced_secs: Vec<f64>,
}

impl Schedule {
    /// Starts measuring now.
    pub fn new(trace: bool, seconds: f64, min_per_mode: usize) -> Self {
        Schedule {
            trace,
            seconds,
            min_per_mode: min_per_mode.max(1),
            start: Instant::now(),
            done: 0,
            untraced_secs: Vec::new(),
            traced_secs: Vec::new(),
        }
    }

    /// Whether to run another pass, and if so whether it is traced.
    pub fn next_pass(&mut self) -> Option<bool> {
        let modes = if self.trace { 2 } else { 1 };
        let finished = self.done >= self.min_per_mode * modes
            && self.done.is_multiple_of(modes)
            && self.start.elapsed().as_secs_f64() >= self.seconds;
        if finished {
            return None;
        }
        let traced = self.trace && self.done % 2 == 1;
        self.done += 1;
        Some(traced)
    }

    /// Records the wall clock of the pass just run.
    pub fn record(&mut self, traced: bool, secs: f64) {
        eprintln!(
            "pass {} ({}): {secs:.3} s",
            self.done,
            if traced { "traced" } else { "untraced" }
        );
        if traced {
            self.traced_secs.push(secs);
        } else {
            self.untraced_secs.push(secs);
        }
    }

    /// Median wall clock of the untraced passes.
    pub fn suite_secs(&self) -> f64 {
        median(&self.untraced_secs)
    }

    /// `(traced − untraced) / untraced` over the pass medians.
    pub fn trace_overhead(&self) -> f64 {
        let base = median(&self.untraced_secs);
        if base > 0.0 && !self.traced_secs.is_empty() {
            median(&self.traced_secs) / base - 1.0
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_run_meets_its_minimum() {
        let mut s = Schedule::new(false, 0.0, 2);
        assert_eq!(s.next_pass(), Some(false));
        assert_eq!(s.next_pass(), Some(false));
        assert_eq!(s.next_pass(), None);
    }

    #[test]
    fn traced_run_alternates_and_ends_on_a_pair() {
        let mut s = Schedule::new(true, 0.0, 1);
        assert_eq!(s.next_pass(), Some(false));
        assert_eq!(s.next_pass(), Some(true));
        assert_eq!(s.next_pass(), None);
        s.record(false, 2.0);
        s.record(true, 2.5);
        assert_eq!(s.trace_overhead(), 0.25);
    }
}
