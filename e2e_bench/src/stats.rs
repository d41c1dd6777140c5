//! The benchmark's own arithmetic: medians, the tail-percentile rule, span
//! self time, failure accounting and the target-miss rule. Pure functions,
//! unit-tested below, so a wrong figure cannot hide in the run loops.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// A tail reading: the nearest-rank value at `percentile`, and how many
/// samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at, in `(0, 100]`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the reading was taken from.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
///
/// Under the nearest-rank definition the `p`-th percentile of `n` samples
/// is the `ceil(p·n/100)`-th smallest, which leaves `n − ceil(p·n/100)`
/// samples beyond it; the highest `p` leaving ten is `100·(n − 10)/n`, read
/// at rank `n − 10`. With `n ≤ 10` no percentile has ten samples beyond
/// it: the maximum is reported at percentile 100, and the sample count
/// says how little it rests on.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n > TAIL_BEYOND {
        Tail {
            percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
            value: v[n - TAIL_BEYOND - 1],
            samples: n,
        }
    } else {
        Tail {
            percentile: 100.0,
            value: v[n - 1],
            samples: n,
        }
    })
}

/// One recorded span: a named interval in seconds since the trace origin,
/// with the index of the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `executor.train_batch`.
    pub name: &'static str,
    /// Start, seconds since the trace origin.
    pub start: f64,
    /// End, seconds since the trace origin.
    pub end: f64,
    /// Index of the parent span in the same trace, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Self time of `spans[idx]`: its duration minus the part of its interval
/// that its direct children cover. Overlapping children count once, and a
/// child sticking out of its parent counts only inside it.
pub fn self_time(spans: &[Span], idx: usize) -> f64 {
    let parent = &spans[idx];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    parent.duration() - covered
}

/// Output checks of one run: every check is attempted exactly once and
/// either passes or fails; none is skipped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Failed checks over attempted checks (`0` before any attempt).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Time to target of one episode, recorded through [`target_sample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetSample {
    /// Wall seconds from the first round to the first evaluation that met
    /// the target; for a miss, the whole round loop (a lower bound, which
    /// the failed check marks as such).
    pub wall_s: f64,
    /// The round that met the target; for a miss, one past the last round
    /// run.
    pub rounds: usize,
}

/// Apply the target rule to one episode. A miss fails a check and still
/// yields a positive, finite sample, so a run that misses can never report
/// a zero or blank time to target.
pub fn target_sample(
    checks: &mut Checks,
    hit: Option<(usize, f64)>,
    rounds_run: usize,
    loop_s: f64,
    target: f64,
) -> TargetSample {
    checks.check(hit.is_some(), || {
        format!("target accuracy {target} not reached in {rounds_run} rounds")
    });
    match hit {
        Some((rounds, wall_s)) => TargetSample {
            wall_s: wall_s.max(f64::MIN_POSITIVE),
            rounds,
        },
        None => TargetSample {
            wall_s: loop_s.max(f64::MIN_POSITIVE),
            rounds: rounds_run + 1,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1..=40: the 75th percentile is rank 30, with 31..=40 beyond it
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.samples, 40);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.value, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        // order of the input does not matter
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev), Some(t));
    }

    #[test]
    fn tail_of_few_samples_is_the_max_at_100() {
        let t = tail(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 9.0, 3));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(tail(&[]), None);
    }

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("round", 0.0, 10.0, None),
            span("engine.run_round", 0.0, 4.0, Some(0)),
            span("executor.train_batch", 5.0, 7.0, Some(0)),
            // overlaps the previous child: counted once
            span("engine.evaluate", 6.0, 8.0, Some(0)),
            // grandchild: covered by its own parent, not by the round
            span("inner", 0.5, 1.0, Some(1)),
            // sticks out of the round: only the inside counts
            span("late", 9.5, 12.0, Some(0)),
        ];
        assert!((self_time(&spans, 0) - (10.0 - 4.0 - 3.0 - 0.5)).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 3.5).abs() < 1e-12);
        assert_eq!(self_time(&spans, 4), 0.5);
    }

    #[test]
    fn failed_frac_counts_every_attempt() {
        let mut c = Checks::default();
        assert_eq!(c.failed_frac(), 0.0);
        c.check(true, || unreachable!());
        c.check(false, || "bad".into());
        c.check(true, || unreachable!());
        c.check(true, || unreachable!());
        assert_eq!((c.attempted, c.failed), (4, 1));
        assert_eq!(c.failed_frac(), 0.25);
        assert_eq!(c.failures, vec!["bad".to_string()]);
    }

    #[test]
    fn a_missed_target_fails_and_is_never_zero() {
        let mut c = Checks::default();
        let hit = target_sample(&mut c, Some((7, 1.25)), 12, 2.0, 0.6);
        assert_eq!(
            hit,
            TargetSample {
                wall_s: 1.25,
                rounds: 7
            }
        );
        assert_eq!(c.failed, 0);

        let miss = target_sample(&mut c, None, 12, 2.0, 0.6);
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(miss.rounds, 13);
        assert!(miss.wall_s > 0.0 && miss.wall_s.is_finite());

        // even an instantaneous loop yields a positive time
        let instant = target_sample(&mut c, None, 0, 0.0, 0.6);
        assert!(instant.wall_s > 0.0);
        assert_eq!(c.failed, 2);
    }
}
