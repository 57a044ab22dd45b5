//! Sample summaries: the median, the tail-percentile rule, and open-loop
//! latency accounting.

use std::time::{Duration, Instant};

/// Percentiles the tail rule may pick, in per-mille, highest first.
const TAIL_LADDER: [u32; 5] = [999, 990, 950, 900, 750];

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A summary of one timing: its median and its tail, with the sample
/// count the tail rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle samples for an even count).
    pub p50: f64,
    /// The tail value: see [`tail`].
    pub tail: f64,
    /// Which percentile `tail` is, in per-mille (1000 = the maximum).
    pub tail_pm: u32,
}

impl Dist {
    /// Summarizes `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Dist> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (tail_pm, tail) = tail(&s);
        Some(Dist {
            n: s.len(),
            p50: median_sorted(&s),
            tail,
            tail_pm,
        })
    }

    /// The tail percentile as a label, e.g. `p99`, `p99.9` or `max`.
    pub fn tail_label(&self) -> String {
        pm_label(self.tail_pm)
    }
}

/// A per-mille percentile as a label.
pub fn pm_label(pm: u32) -> String {
    match pm {
        1000 => "max".to_string(),
        pm if pm % 10 == 0 => format!("p{}", pm / 10),
        pm => format!("p{}.{}", pm / 10, pm % 10),
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The median of `samples` (any order); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    Dist::of(samples).map_or(0.0, |d| d.p50)
}

/// The 1-based nearest rank of per-mille percentile `pm` among `n`
/// samples: the smallest rank whose share of samples at or below it
/// reaches `pm`/1000. Integer arithmetic, so `p99` of 1,000 samples is
/// exactly rank 990.
pub fn nearest_rank(pm: u32, n: usize) -> usize {
    (pm as usize * n).div_ceil(1000).max(1)
}

/// The tail of an ascending sample: the highest percentile on the ladder
/// p99.9, p99, p95, p90, p75 that leaves at least [`MIN_BEYOND`] samples
/// beyond it, with its value. With too few samples for any of them the
/// maximum is reported (per-mille 1000).
pub fn tail(sorted: &[f64]) -> (u32, f64) {
    let n = sorted.len();
    for pm in TAIL_LADDER {
        let rank = nearest_rank(pm, n);
        if n - rank >= MIN_BEYOND {
            return (pm, sorted[rank - 1]);
        }
    }
    (1000, sorted[n - 1])
}

/// An open-loop schedule: operation `i` is due at `start + i * period`,
/// whether or not earlier operations have finished. Latency is counted
/// from the due time, so a stall also charges the wait it imposes on every
/// operation queued behind it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
}

/// One open-loop operation's timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// From the due time to completion, in milliseconds.
    pub latency_ms: f64,
    /// How late the generator sent it, in milliseconds (0 when on time).
    pub lag_ms: f64,
}

impl OpenLoop {
    /// A schedule whose first operation is due at `start`.
    pub fn new(start: Instant, period: Duration) -> OpenLoop {
        OpenLoop { start, period }
    }

    /// When operation `i` is due.
    pub fn due(&self, i: u32) -> Instant {
        self.start + self.period * i
    }

    /// Accounts operation `i`, sent at `sent` and completed at `done`.
    pub fn sample(&self, i: u32, sent: Instant, done: Instant) -> OpenLoopSample {
        let due = self.due(i);
        let ms = |later: Instant| later.saturating_duration_since(due).as_secs_f64() * 1e3;
        OpenLoopSample {
            latency_ms: ms(done),
            lag_ms: ms(sent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1,000 samples: p99 is rank 990, leaving exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)), (990, 990.0));
        // 999 samples: p99 would leave 9, so p95 (rank 950) it is.
        assert_eq!(tail(&ramp(999)), (950, 950.0));
        // 10,000 samples support p99.9 (rank 9,990).
        assert_eq!(tail(&ramp(10_000)), (999, 9990.0));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail(&ramp(100)), (900, 90.0));
        // 40 samples: p75 is rank 30, leaving 10.
        assert_eq!(tail(&ramp(40)), (750, 30.0));
        // Too few for any ladder percentile: the maximum.
        assert_eq!(tail(&ramp(39)), (1000, 39.0));
        assert_eq!(tail(&ramp(1)), (1000, 1.0));
    }

    #[test]
    fn dist_reports_median_tail_and_count() {
        let mut s = ramp(1000);
        s.reverse();
        let d = Dist::of(&s).unwrap();
        assert_eq!(d.n, 1000);
        assert_eq!(d.p50, 500.5);
        assert_eq!((d.tail_pm, d.tail), (990, 990.0));
        assert_eq!(d.tail_label(), "p99");
        let few = Dist::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(
            (few.n, few.p50, few.tail, few.tail_label().as_str()),
            (3, 2.0, 3.0, "max")
        );
        assert_eq!(pm_label(999), "p99.9");
        assert!(Dist::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn open_loop_counts_latency_from_the_due_time() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let sched = OpenLoop::new(t0, ms(200));
        assert_eq!(sched.due(3), t0 + ms(600));
        // On time: sent when due, done 5 ms later.
        let on_time = sched.sample(0, t0, t0 + ms(5));
        assert_eq!(
            on_time,
            OpenLoopSample {
                latency_ms: 5.0,
                lag_ms: 0.0
            }
        );
        // Operation 1 is held up behind a 450 ms stall: it goes out at
        // 450 ms, 250 ms after it was due, and its latency counts that wait.
        let queued = sched.sample(1, t0 + ms(450), t0 + ms(455));
        assert_eq!(
            queued,
            OpenLoopSample {
                latency_ms: 255.0,
                lag_ms: 250.0
            }
        );
        // A generator that runs early is not credited negative time.
        let early = sched.sample(2, t0 + ms(390), t0 + ms(410));
        assert_eq!(
            early,
            OpenLoopSample {
                latency_ms: 10.0,
                lag_ms: 0.0
            }
        );
    }
}
