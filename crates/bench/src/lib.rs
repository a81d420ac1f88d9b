//! Benchmarks for the secure multi-GPU workspace, and the one timing
//! helper behind every bench line.
//!
//! Two bench targets live under `benches/`: `engine` (one rate per
//! simulator layer, plus the OTP and batching primitives) and `crypto`
//! (each crypto primitive on each backend, and the software-vs-hardware
//! ratios). Every line either is timed by [`layer_rate`] or, for a ratio
//! of two timed lines, is printed by [`layer_line`]. CI's bench-smoke step
//! reads those lines and fails when a labelled value falls more than 30 %
//! below its floor in `crates/bench/engine-floor.txt`; lines without a
//! floor print ungated.

use std::hint::black_box;
use std::time::Instant;

/// Timed runs per line. The line reports the fastest: the floors compare
/// against peak throughput, which is far steadier than any single
/// millisecond-scale run on a shared host.
const RUNS: usize = 5;

/// The line CI's bench-smoke step parses: `layer-rate <label> <value>
/// <unit>`, whitespace-separated, the value a plain decimal.
#[must_use]
pub fn layer_line(label: &str, value: f64, unit: &str) -> String {
    format!("layer-rate {label} {value:.2} {unit}")
}

/// Times `body` on a fresh `setup()` state five times, prints the best
/// rate as a [`layer_line`] in `unit`s per second and returns it.
///
/// `work` is what one call of `body` does, in `unit`s. Only `body` is
/// timed: building the state and dropping it and `body`'s result happen
/// outside the clock. The loop runs in this non-inlined function, so a
/// line's code placement does not depend on the bench around it (inlined
/// into a bench body, one binary's readings were bimodal from run to
/// run).
#[inline(never)]
pub fn layer_rate<S, R>(
    label: &str,
    unit: &str,
    work: u64,
    mut setup: impl FnMut() -> S,
    mut body: impl FnMut(&mut S) -> R,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..RUNS {
        let mut state = setup();
        let started = Instant::now();
        let out = black_box(body(black_box(&mut state)));
        let seconds = started.elapsed().as_secs_f64();
        drop(out);
        best = best.max(work as f64 / seconds.max(f64::EPSILON));
    }
    println!("{}", layer_line(label, best, &format!("{unit}/s")));
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_line_is_the_format_ci_parses() {
        assert_eq!(
            layer_line("timed-server-churn", 46_123_456.789, "serves/s"),
            "layer-rate timed-server-churn 46123456.79 serves/s"
        );
        assert_eq!(
            layer_line("clmul_ghash_speedup", 10.2, "x"),
            "layer-rate clmul_ghash_speedup 10.20 x"
        );
    }

    #[test]
    fn layer_rate_sets_up_every_run_and_returns_a_finite_rate() {
        let mut setups = 0;
        let rate = layer_rate("test", "ops", 1_000, || setups += 1, |()| black_box(7));
        assert_eq!(setups, RUNS);
        assert!(rate.is_finite() && rate > 0.0);
    }
}
