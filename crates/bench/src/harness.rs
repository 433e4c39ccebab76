//! A small deterministic micro-benchmark harness.
//!
//! Replaces the external `criterion` crate for this workspace's bench
//! targets. Each benchmark is calibrated once (picking a batch size
//! that makes one sample take a few milliseconds), warmed up for one
//! batch, then timed for a fixed number of samples; the harness reports
//! the median and p95 per-iteration cost and can emit every result as
//! a JSON document through `xoar-codec`.
//!
//! A benchmark's regression gate is declared where the benchmark is
//! registered: `bench_function` returns the entry's [`Gate`], and the
//! gate travels with the result into the JSON document, where the
//! `bench-gate` binary reads it.
//!
//! # Examples
//!
//! ```
//! use xoar_bench::harness::Harness;
//!
//! let mut h = Harness::new();
//! let mut g = h.group("int");
//! g.sample_size(10);
//! let mut acc = 0u64;
//! g.bench_function("wrapping_add", || {
//!     acc = acc.wrapping_add(1);
//! })
//! .hot();
//! assert_eq!(h.results().len(), 1);
//! assert!(h.to_json().contains(r#""name":"int/wrapping_add""#));
//! assert!(h.results()[0].gate.hot);
//! ```

use std::time::Instant;

/// Default number of timed samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 50;

/// Target wall-clock duration of one sample batch, in nanoseconds.
const TARGET_SAMPLE_NS: u128 = 2_000_000;

/// Hard cap on the calibrated batch size.
const MAX_BATCH: u64 = 1_000_000;

/// The regression gate declared on one bench entry, checked by the
/// `bench-gate` binary against a committed baseline and within the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gate {
    /// The median may regress against the baseline's by at most
    /// `bench-gate`'s fixed factor.
    pub hot: bool,
    /// The p95 must stay within `bench-gate`'s fixed factor of the
    /// entry's own median.
    pub tail: bool,
    /// Within-run orderings against other entries of the same run.
    pub within: Vec<Within>,
}

xoar_codec::impl_json_struct!(Gate {
    [default] hot,
    [default] tail,
    [default] within,
});

/// A within-run ordering: the gated entry's sample minimum must stay at
/// or below `ratio` times the `slower` entry's.
#[derive(Debug, Clone, PartialEq)]
pub struct Within {
    /// Full name of the entry compared against.
    pub slower: String,
    /// Allowed ratio of the gated entry to `slower`.
    pub ratio: f64,
}

xoar_codec::impl_json_struct!(Within { slower, ratio });

impl Gate {
    /// Gates the median against the committed baseline.
    pub fn hot(&mut self) -> &mut Self {
        self.hot = true;
        self
    }

    /// Gates the p95 tail against the entry's own median.
    pub fn tail(&mut self) -> &mut Self {
        self.tail = true;
        self
    }

    /// Gates this entry at or below `ratio` times entry `slower` within
    /// the same run.
    pub fn at_most(&mut self, ratio: f64, slower: &str) -> &mut Self {
        self.within.push(Within {
            slower: slower.to_string(),
            ratio,
        });
        self
    }

    /// Whether any rule is declared.
    pub fn is_gated(&self) -> bool {
        self.hot || self.tail || !self.within.is_empty()
    }
}

/// The measured outcome of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (group-prefixed where applicable).
    pub name: String,
    /// Iterations per timed sample (calibrated batch size).
    pub iterations: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Median per-iteration cost, nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration cost, nanoseconds.
    pub p95_ns: f64,
    /// Mean per-iteration cost, nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample's per-iteration cost, nanoseconds.
    pub min_ns: f64,
    /// Slowest sample's per-iteration cost, nanoseconds.
    pub max_ns: f64,
    /// The regression gate declared on this entry.
    pub gate: Gate,
}

xoar_codec::impl_json_struct!(BenchResult {
    name,
    iterations,
    samples,
    median_ns,
    p95_ns,
    mean_ns,
    min_ns,
    max_ns,
    [default] gate,
});

/// Runs benchmarks and accumulates their results.
#[derive(Debug, Default)]
pub struct Harness {
    results: Vec<BenchResult>,
}

impl Harness {
    /// A harness with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs one benchmark with default settings: calibrate, warm up,
    /// time, record, print. Returns the new entry's gate for the caller
    /// to declare rules on. Settings are overridden per [`Group`].
    pub fn bench_function(&mut self, name: &str, f: impl FnMut()) -> &mut Gate {
        let result = run_bench(name, DEFAULT_SAMPLES, 1, f);
        self.record(result)
    }

    fn record(&mut self, result: BenchResult) -> &mut Gate {
        println!(
            "bench  {:<44} median {:>12.1} ns/iter   p95 {:>12.1} ns/iter   ({} samples x {} iters)",
            result.name, result.median_ns, result.p95_ns, result.samples, result.iterations
        );
        self.results.push(result);
        &mut self.results.last_mut().expect("just pushed").gate
    }

    /// Starts a named group; benchmarks run through it get a
    /// `group/name` prefix and may override the sample count and the
    /// batch floor.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            prefix: name.to_string(),
            samples: None,
            min_iterations: None,
        }
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serialises every result as a JSON document (`{"results":[...]}`).
    pub fn to_json(&self) -> String {
        use xoar_codec::{Json, ToJson};
        let arr = Json::Arr(self.results.iter().map(|r| r.to_json()).collect());
        let doc = Json::Obj(vec![("results".to_string(), arr)]);
        xoar_codec::to_string(&doc)
    }

    /// Prints the JSON document on stdout (the machine-readable tail of
    /// a bench run).
    pub fn emit_json(&self) {
        println!("{}", self.to_json());
    }
}

/// A named benchmark group (criterion-style API shim).
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    prefix: String,
    samples: Option<usize>,
    min_iterations: Option<u64>,
}

impl Group<'_> {
    /// Overrides the sample count for this group only.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = Some(n.max(1));
        self
    }

    /// Floors the calibrated batch size for this group only.
    ///
    /// Calibration sizes the batch by wall-clock target, so an expensive
    /// benchmark can end up with a handful of iterations per sample —
    /// few enough that one scheduler hiccup lands in the p95. A floor
    /// trades runtime for stability on such entries.
    pub fn min_iterations(&mut self, n: u64) -> &mut Self {
        self.min_iterations = Some(n.max(1));
        self
    }

    /// Runs one benchmark under the group's prefix. Returns the new
    /// entry's gate, as [`Harness::bench_function`] does.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut()) -> &mut Gate {
        let (samples, min_iters) = self.settings();
        let full = format!("{}/{name}", self.prefix);
        let result = run_bench(&full, samples, min_iters, f);
        self.harness.record(result)
    }

    /// Sample count and batch floor in effect for this group.
    fn settings(&self) -> (usize, u64) {
        (
            self.samples.unwrap_or(DEFAULT_SAMPLES),
            self.min_iterations.unwrap_or(1),
        )
    }

    /// Runs one benchmark whose routine consumes a per-iteration input
    /// built by `setup` — only the routine is timed (criterion's
    /// `iter_batched`). For measuring a destructive operation over a
    /// prepared structure without charging the preparation: timer
    /// start/stop brackets each routine call, so keep the routine in
    /// the microsecond-or-slower range where the bracketing overhead
    /// (tens of nanoseconds) vanishes.
    pub fn bench_function_prepared<T>(
        &mut self,
        name: &str,
        setup: impl FnMut() -> T,
        routine: impl FnMut(T),
    ) -> &mut Gate {
        let (samples, min_iters) = self.settings();
        let full = format!("{}/{name}", self.prefix);
        let result = run_bench_prepared(&full, samples, min_iters, setup, routine);
        self.harness.record(result)
    }
}

fn run_bench(name: &str, samples: usize, min_iterations: u64, mut f: impl FnMut()) -> BenchResult {
    // Calibrate: size the batch so one sample takes ~TARGET_SAMPLE_NS
    // (the calibration call doubles as the first warm-up iteration).
    let once = {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos().max(1)
    };
    let iterations = batch_size(once, min_iterations);

    // Warm up for one full batch.
    for _ in 0..iterations {
        f();
    }

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iterations {
            f();
        }
        per_iter.push(t.elapsed().as_nanos() as f64 / iterations as f64);
    }
    summarize(name, iterations, per_iter)
}

fn run_bench_prepared<T>(
    name: &str,
    samples: usize,
    min_iterations: u64,
    mut setup: impl FnMut() -> T,
    mut routine: impl FnMut(T),
) -> BenchResult {
    // Calibrate the batch size on the full setup+routine wall clock —
    // that is what bounds a sample's real duration — even though only
    // the routine lands in the timed window.
    let once = {
        let t = Instant::now();
        routine(setup());
        t.elapsed().as_nanos().max(1)
    };
    let iterations = batch_size(once, min_iterations);

    // Warm up for one full batch.
    for _ in 0..iterations {
        routine(setup());
    }

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut timed: u128 = 0;
        for _ in 0..iterations {
            let input = setup();
            let t = Instant::now();
            routine(input);
            timed += t.elapsed().as_nanos();
        }
        per_iter.push(timed as f64 / iterations as f64);
    }
    summarize(name, iterations, per_iter)
}

/// Iterations per sample for a body that took `once_ns` once: enough
/// for one sample to take ~TARGET_SAMPLE_NS, floored and capped.
fn batch_size(once_ns: u128, min_iterations: u64) -> u64 {
    ((TARGET_SAMPLE_NS / once_ns).max(1) as u64)
        .max(min_iterations)
        .min(MAX_BATCH)
}

/// The result of one benchmark from its per-iteration sample costs.
fn summarize(name: &str, iterations: u64, mut per_iter: Vec<f64>) -> BenchResult {
    per_iter.sort_by(|a, b| a.total_cmp(b));
    BenchResult {
        name: name.to_string(),
        iterations,
        samples: per_iter.len(),
        median_ns: percentile(&per_iter, 50.0),
        p95_ns: percentile(&per_iter, 95.0),
        mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        min_ns: per_iter[0],
        max_ns: *per_iter.last().expect("samples >= 1"),
        gate: Gate::default(),
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn bench_records_and_serialises() {
        let mut h = Harness::new();
        let mut g = h.group("g");
        g.sample_size(5);
        let mut acc = 0u64;
        g.bench_function("noop_add", || {
            acc = acc.wrapping_add(1);
        });
        assert!(acc > 0, "the closure really ran");
        let r = &h.results()[0];
        assert_eq!(r.name, "g/noop_add");
        assert_eq!(r.samples, 5);
        assert!(r.iterations >= 1);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        let json = h.to_json();
        assert!(
            json.starts_with(r#"{"results":[{"name":"g/noop_add""#),
            "{json}"
        );
        // The document parses back through the codec.
        let parsed = xoar_codec::parse(&json).unwrap();
        assert!(parsed.get("results").is_some());
    }

    #[test]
    fn gate_declarations_round_trip_through_json() {
        use xoar_codec::FromJson;
        let mut h = Harness::new();
        h.bench_function("plain", || {});
        let mut g = h.group("g");
        g.sample_size(2);
        g.bench_function("fast", || {})
            .hot()
            .tail()
            .at_most(32.0 / 3.0, "plain");
        g.bench_function("ordered", || {}).at_most(1.05, "g/fast");

        let doc = xoar_codec::parse(&h.to_json()).unwrap();
        let decoded: Vec<BenchResult> = doc
            .get("results")
            .and_then(xoar_codec::Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| BenchResult::from_json(r).unwrap())
            .collect();
        let gates: Vec<(&str, &Gate)> =
            decoded.iter().map(|r| (r.name.as_str(), &r.gate)).collect();
        let declared: Vec<(&str, &Gate)> = h
            .results()
            .iter()
            .map(|r| (r.name.as_str(), &r.gate))
            .collect();
        assert_eq!(gates, declared);
        assert!(!decoded[0].gate.is_gated());
        let fast = &decoded[1].gate;
        assert!(fast.hot && fast.tail);
        assert_eq!(fast.within[0].slower, "plain");
        assert_eq!(fast.within[0].ratio, 32.0 / 3.0, "ratios survive exactly");
        assert_eq!(decoded[1].name, "g/fast");
        assert!(!decoded[2].gate.hot && decoded[2].gate.within[0].ratio == 1.05);
    }

    #[test]
    fn min_iterations_floors_the_calibrated_batch() {
        // A ~1 ms body calibrates to ~2 iterations; the floor overrides.
        let mut h = Harness::new();
        let mut g = h.group("g");
        g.sample_size(2).min_iterations(5);
        g.bench_function("slow_body", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(h.results()[0].iterations >= 5);
    }

    #[test]
    fn prepared_bench_excludes_setup_from_timing() {
        // Setup sleeps ~2 ms per iteration; the routine is near-free.
        // If setup leaked into the timed window the per-iteration
        // median would be ≥2,000,000 ns.
        let mut h = Harness::new();
        let mut g = h.group("mem");
        g.sample_size(3);
        let mut consumed = 0u64;
        g.bench_function_prepared(
            "prepared",
            || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                7u64
            },
            |v| {
                consumed = consumed.wrapping_add(std::hint::black_box(v));
            },
        );
        assert!(consumed > 0, "the routine really ran");
        let r = &h.results()[0];
        assert_eq!(r.name, "mem/prepared");
        assert!(
            r.median_ns < 1_000_000.0,
            "setup leaked into the timed window: {} ns/iter",
            r.median_ns
        );
    }

    #[test]
    fn groups_prefix_names_and_override_samples() {
        let mut h = Harness::new();
        let mut group = h.group("ablation");
        group.sample_size(3);
        group.bench_function("fast_path", || {});
        let r = &h.results()[0];
        assert_eq!(r.name, "ablation/fast_path");
        assert_eq!(r.samples, 3);
    }
}
