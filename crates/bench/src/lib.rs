//! # cqcs-bench — workloads and the experiment harness
//!
//! Shared generators, measurement helpers and the gate recorder of the
//! deterministic table generator (`src/bin/experiments.rs`), which
//! regenerates every table in `EXPERIMENTS.md` and checks each table's
//! gates on the rows it has just computed.

use std::time::Instant;

/// Milliseconds elapsed running `f` once.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Median of `samples` (the upper middle one of an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median-of-`runs` timing (milliseconds) of `f`.
pub fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    median((0..runs).map(|_| time_ms(&mut f).1).collect())
}

/// Medians of `passes` passes each of `a` and `b`, which return the
/// milliseconds they timed. The two alternate, and the side that goes
/// first flips on every pass, so a host slowdown lands on both sides
/// alike instead of deciding their ratio.
pub fn alternating_medians_ms(
    passes: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::with_capacity(passes), Vec::with_capacity(passes));
    for pass in 0..passes {
        if pass % 2 == 0 {
            ta.push(a());
            tb.push(b());
        } else {
            tb.push(b());
            ta.push(a());
        }
    }
    (median(ta), median(tb))
}

/// The gates one run of the experiments binary checks on the rows it
/// computes: a parity or invariant cell, or a timing floor. Every
/// failure is kept, in the order checked, so one failing gate cannot
/// hide the ones after it.
#[derive(Debug, Default)]
pub struct Gates {
    failed: Vec<String>,
}

impl Gates {
    /// Records `failure` unless `ok` holds.
    pub fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failed.push(failure());
        }
    }

    /// Every failed gate, in the order checked.
    pub fn failed(&self) -> &[String] {
        &self.failed
    }

    /// Whether every gate checked so far held.
    pub fn passed(&self) -> bool {
        self.failed.is_empty()
    }
}

/// Fits the growth exponent `p` of `t = c·n^p` from `(n, t)` samples by
/// least squares on log–log scale (ignores non-positive samples).
pub fn growth_exponent(samples: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(n, t)| *n > 0.0 && *t > 0.0)
        .map(|(n, t)| (n.ln(), t.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Prints a Markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a Markdown table header (and separator).
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Random Boolean relation closed under an operation, for E1/E2
/// workloads.
pub fn closed_boolean_relation(
    arity: usize,
    seeds: usize,
    seed: u64,
    close: impl Fn(u64, u64, u64) -> u64,
) -> Vec<u64> {
    let mask = if arity == 64 {
        u64::MAX
    } else {
        (1u64 << arity) - 1
    };
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut tuples: Vec<u64> = (0..seeds)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x & mask
        })
        .collect();
    tuples.sort_unstable();
    tuples.dedup();
    loop {
        let mut added = false;
        let snapshot = tuples.clone();
        for &a in &snapshot {
            for &b in &snapshot {
                for &c in &snapshot {
                    let t = close(a, b, c);
                    if !tuples.contains(&t) {
                        tuples.push(t);
                        added = true;
                    }
                }
            }
        }
        if !added {
            break;
        }
    }
    tuples.sort_unstable();
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_exponent_recovers_powers() {
        let quad: Vec<(f64, f64)> = (1..=6)
            .map(|n| (n as f64, 3.0 * (n as f64).powi(2)))
            .collect();
        assert!((growth_exponent(&quad) - 2.0).abs() < 1e-9);
        let lin: Vec<(f64, f64)> = (1..=6).map(|n| (n as f64, 0.5 * n as f64)).collect();
        assert!((growth_exponent(&lin) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn closed_relation_is_closed() {
        let horn = closed_boolean_relation(5, 4, 42, |a, b, _| a & b);
        for &a in &horn {
            for &b in &horn {
                assert!(horn.binary_search(&(a & b)).is_ok());
            }
        }
    }

    #[test]
    fn median_is_positive() {
        let m = median_ms(3, || (0..1000).sum::<u64>());
        assert!(m >= 0.0);
    }

    #[test]
    fn alternating_medians_flip_the_first_side() {
        let order = std::cell::RefCell::new(String::new());
        let mut next = 0.0;
        let (a, b) = alternating_medians_ms(
            5,
            || {
                order.borrow_mut().push('a');
                next += 1.0;
                next
            },
            || {
                order.borrow_mut().push('b');
                10.0
            },
        );
        assert_eq!(order.into_inner(), "abbaabbaab");
        assert_eq!((a, b), (3.0, 10.0));
    }

    #[test]
    fn gates_keep_every_failure_in_order() {
        let mut gates = Gates::default();
        assert!(gates.passed());
        gates.check(true, || unreachable!("a held gate formats nothing"));
        assert!(gates.passed() && gates.failed().is_empty());
        gates.check(false, || "E17 first".into());
        gates.check(true, || "E18 held".into());
        gates.check(false, || "E19 second".into());
        assert!(!gates.passed());
        assert_eq!(gates.failed(), ["E17 first", "E19 second"]);
    }
}
