//! `bench-gate` — CI regression gate over the bench-harness JSON.
//!
//! Usage: `bench-gate <baseline.json> <fresh.json>`
//!
//! Every entry of a harness JSON document carries the gate declared
//! where its bench is registered ([`Gate`]); this binary enforces them:
//!
//! * **hot** — the fresh median may be at most [`MAX_RATIO`] times the
//!   baseline's. An entry absent from the baseline is reported and
//!   skipped, so adding a bench does not break CI on the run that
//!   introduces it.
//! * **tail** — the fresh p95 may be at most [`TAIL_RATIO`] times the
//!   fresh median. A long tail on a restart or switch path means some
//!   iteration allocated or rescanned, and a median-only gate cannot
//!   see it.
//! * **within** — the fresh sample minimum may be at most `ratio` times
//!   another fresh entry's.
//!
//! An entry gated in either run must appear in the fresh run: a
//! silently dropped bench is not a pass, and deleting a bench must not
//! delete its gate unnoticed — the committed baseline still declares it.

use std::process::ExitCode;

use xoar_bench::harness::BenchResult;
use xoar_codec::{parse, FromJson};

/// A fresh median above `baseline * MAX_RATIO` fails the gate. 2x keeps
/// headroom for shared-runner noise while still catching real
/// regressions (the batching work moved these entries by more than 2x
/// the other way).
const MAX_RATIO: f64 = 2.0;

/// A p95 above `median * TAIL_RATIO` fails the tail rule. The restart
/// paths sit near 1.2x in steady state; 6x absorbs small-sample jitter
/// (the ablation restart group runs 20 samples) while still catching
/// the per-iteration allocation spikes the plan work eliminated, which
/// showed up as >2x tails.
const TAIL_RATIO: f64 = 6.0;

/// Decodes a harness JSON document: the [`BenchResult`] records the
/// harness writes, gates included. The harness prints the document as
/// the last stdout line; accept either a bare document or a captured
/// multi-line log.
fn entries(text: &str) -> Result<Vec<BenchResult>, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty document")?;
    let doc = parse(line).map_err(|e| format!("parse: {e}"))?;
    let results = doc.get("results").ok_or("missing results array")?;
    Vec::<BenchResult>::from_json(results).map_err(|e| e.to_string())
}

fn load(path: &str) -> Result<Vec<BenchResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    entries(&text).map_err(|e| format!("{path}: {e}"))
}

fn find<'a>(set: &'a [BenchResult], name: &str) -> Option<&'a BenchResult> {
    set.iter().find(|e| e.name == name)
}

/// `a / b`, infinite when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::INFINITY
    }
}

/// Applies the median-regression and tail rules to every entry gated in
/// either run; returns whether any failed.
fn gate(baseline: &[BenchResult], fresh: &[BenchResult]) -> bool {
    let mut failed = false;
    let dropped = baseline
        .iter()
        .filter(|e| e.gate.is_gated() && find(fresh, &e.name).is_none());
    for old in dropped {
        eprintln!(
            "bench-gate: FAIL {}: gated in the baseline, missing from fresh run",
            old.name
        );
        failed = true;
    }
    for new in fresh {
        let name = &new.name;
        if new.gate.tail {
            let (p95, tail) = (new.p95_ns, ratio(new.p95_ns, new.median_ns));
            if tail > TAIL_RATIO {
                eprintln!(
                    "bench-gate: FAIL {name}: p95 {p95:.1} ns is {tail:.2}x its \
                     median {:.1} ns (> {TAIL_RATIO}x tail bound)",
                    new.median_ns
                );
                failed = true;
            }
        }
        if !new.gate.hot {
            continue;
        }
        let Some(old) = find(baseline, name) else {
            println!(
                "bench-gate: skip {name}: not in baseline yet ({:.1} ns)",
                new.median_ns
            );
            continue;
        };
        let ratio = ratio(new.median_ns, old.median_ns);
        if ratio > MAX_RATIO {
            eprintln!(
                "bench-gate: FAIL {name}: {:.1} ns -> {:.1} ns ({ratio:.2}x > {MAX_RATIO}x)",
                old.median_ns, new.median_ns
            );
            failed = true;
        } else {
            println!(
                "bench-gate: ok   {name}: {:.1} ns -> {:.1} ns ({ratio:.2}x)",
                old.median_ns, new.median_ns
            );
        }
    }
    failed
}

/// Applies the within-run ordering rules; returns whether any failed.
fn orderings(fresh: &[BenchResult]) -> bool {
    let mut failed = false;
    let rules = fresh
        .iter()
        .flat_map(|a| a.gate.within.iter().map(move |w| (a, w)));
    for (a, w) in rules {
        let (faster, slower, ratio) = (&a.name, &w.slower, w.ratio);
        let Some(b) = find(fresh, slower) else {
            eprintln!(
                "bench-gate: FAIL ordering {faster} <= {ratio} * {slower}: \
                 entry missing from fresh run"
            );
            failed = true;
            continue;
        };
        // Compare sample minima, the noise floor of a deterministic
        // loop: orderings pit near-identical loops against each other in
        // the same run, and the minimum strips the scheduler/alignment
        // jitter that makes a tight median-vs-median bound flaky.
        let (a_ns, b_ns) = (a.min_ns, b.min_ns);
        let bound = b_ns * ratio;
        if a_ns <= bound {
            println!(
                "bench-gate: ok   ordering {faster} ({a_ns:.1} ns) <= {ratio} * {slower} ({bound:.1} ns)"
            );
        } else {
            eprintln!(
                "bench-gate: FAIL ordering {faster} ({a_ns:.1} ns) > {ratio} * {slower} ({bound:.1} ns)"
            );
            failed = true;
        }
    }
    failed
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, fresh_path] = &args[..] else {
        eprintln!("usage: bench-gate <baseline.json> <fresh.json>");
        return ExitCode::from(2);
    };
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-gate: {e}");
            return ExitCode::from(2);
        }
    };
    let gate_failed = gate(&baseline, &fresh);
    let order_failed = orderings(&fresh);
    if gate_failed || order_failed {
        ExitCode::FAILURE
    } else {
        println!("bench-gate: no hot-path regression beyond {MAX_RATIO}x");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_bench::harness::{Gate, Harness};

    /// An entry whose sample minimum equals its median.
    fn entry(name: &str, median_ns: f64, p95_ns: f64) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            iterations: 1,
            samples: 1,
            median_ns,
            p95_ns,
            mean_ns: median_ns,
            min_ns: median_ns,
            max_ns: p95_ns,
            gate: Gate::default(),
        }
    }

    /// `e` with the gate `declare` builds, as a bench registration would.
    fn gated(mut e: BenchResult, declare: impl FnOnce(&mut Gate) -> &mut Gate) -> BenchResult {
        declare(&mut e.gate);
        e
    }

    #[test]
    fn entries_reads_declared_gates_from_harness_json() {
        let mut h = Harness::new();
        let mut g = h.group("g");
        g.sample_size(1);
        g.bench_function("a", || {})
            .hot()
            .tail()
            .at_most(1.05, "g/b");
        g.bench_function("b", || {});
        // A captured log whose last line is the document decodes too.
        let log = format!("bench  a ...\n{}\n\n", h.to_json());
        let m = entries(&log).unwrap();
        assert_eq!(m[0].name, "g/a");
        assert_eq!(m[0].median_ns, h.results()[0].median_ns);
        assert_eq!(m[0].gate, h.results()[0].gate);
        assert!(m[0].gate.hot && m[0].gate.tail);
        assert_eq!(m[0].gate.within[0].ratio, 1.05);
        assert!(!m[1].gate.is_gated());
    }

    #[test]
    fn entries_rejects_malformed() {
        assert!(entries("").is_err());
        assert!(entries("null").is_err());
        assert!(entries(r#"{"results":[{"name":"x"}]}"#).is_err());
    }

    #[test]
    fn integer_medians_and_absent_gates_accepted() {
        let doc = r#"{"results":[{"name":"x","iterations":1,"samples":1,"median_ns":40758716,"p95_ns":1,"mean_ns":1,"min_ns":1,"max_ns":1}]}"#;
        let m = entries(doc).unwrap();
        assert_eq!(m[0].median_ns, 40758716.0);
        assert!(!m[0].gate.is_gated(), "ungated when no gate is declared");
    }

    #[test]
    fn median_regression_fails_gate() {
        let name = "ablation/restart_paths/fast";
        let baseline = vec![entry(name, 100.0, 120.0)];
        let ok = vec![gated(entry(name, 150.0, 200.0), |g| g.hot().tail())];
        let bad = vec![gated(entry(name, 250.0, 300.0), |g| g.hot().tail())];
        assert!(!gate(&baseline, &ok));
        assert!(gate(&baseline, &bad));
        // The same regression on an ungated entry passes.
        assert!(!gate(&baseline, &[entry(name, 250.0, 300.0)]));
    }

    #[test]
    fn long_tail_fails_gate_even_with_good_median() {
        let name = "ablation/restart_paths/fast";
        let baseline = vec![entry(name, 100.0, 120.0)];
        // Median improved, but p95 is 10x the median: the per-iteration
        // spike the tail rule exists to catch.
        let spiky = vec![gated(entry(name, 90.0, 900.0), |g| g.hot().tail())];
        assert!(gate(&baseline, &spiky));
    }

    #[test]
    fn tail_rule_ignores_entries_without_a_tail_gate() {
        let name = "hypercall/sched_yield";
        let baseline = vec![entry(name, 100.0, 120.0)];
        let spiky = vec![gated(entry(name, 90.0, 900.0), Gate::hot)];
        assert!(!gate(&baseline, &spiky));
    }

    #[test]
    fn ordering_rule_compares_minima() {
        let (fast, slow) = ("hypercall/dispatch_spec_off", "hypercall/sched_yield");
        // Medians alone would fail (21.3 > 1.05 * 20.1) — exactly the
        // jitter observed on identical dispatch loops — but the minima
        // agree, so the ordering holds.
        let mut fast_entry = gated(entry(fast, 21.3, 30.0), |g| g.at_most(1.05, slow));
        fast_entry.min_ns = 19.0;
        let mut slow_entry = entry(slow, 20.1, 30.0);
        slow_entry.min_ns = 19.0;
        let jittery = vec![fast_entry, slow_entry];
        assert!(!orderings(&jittery));
        // A real regression shows up in the minimum too.
        let mut regressed = jittery;
        regressed[0].min_ns = 25.0;
        assert!(orderings(&regressed));
    }

    #[test]
    fn ordering_rule_catches_inversion() {
        let (fast, slow) = (
            "ablation/boot_plans/parallel_xoar",
            "ablation/boot_plans/serial_dom0",
        );
        let good = vec![
            gated(entry(fast, 900.0, 1000.0), |g| g.at_most(1.0, slow)),
            entry(slow, 1300.0, 1400.0),
        ];
        let inverted = vec![
            gated(entry(fast, 1300.0, 1400.0), |g| g.at_most(1.0, slow)),
            entry(slow, 900.0, 1000.0),
        ];
        assert!(!orderings(&good));
        assert!(orderings(&inverted));
    }

    #[test]
    fn scaled_ordering_rule_enforces_the_clone_speedup() {
        let (clone, create) = (
            "ablation/clone/clone_from_template",
            "ablation/platform_construction/guest_creation_xoar",
        );
        // 1.5 µs clone vs 220 µs create: two orders of magnitude, ok.
        let good = vec![
            gated(entry(clone, 1500.0, 3000.0), |g| g.at_most(0.01, create)),
            entry(create, 220_000.0, 1.0),
        ];
        // 3 µs clone vs 220 µs create: only 73x — the fast path decayed.
        let decayed = vec![
            gated(entry(clone, 3000.0, 6000.0), |g| g.at_most(0.01, create)),
            entry(create, 220_000.0, 1.0),
        ];
        assert!(!orderings(&good));
        assert!(orderings(&decayed));
    }

    #[test]
    fn fabric_ordering_rules_enforce_the_switch_cost_model() {
        let (lookup, grant) = ("fabric/flow_lookup", "grant/map_unmap");
        let (batch, single) = ("fabric/switch_batch32", "net/transmit_process");
        let run = |lookup_ns: f64, batch_ns: f64| {
            vec![
                gated(entry(lookup, lookup_ns, 30.0), |g| g.at_most(2.0, grant)),
                entry(grant, 70.0, 80.0),
                gated(entry(batch, batch_ns, 1000.0), |g| {
                    g.at_most(32.0 / 3.0, single)
                }),
                entry(single, 120.0, 130.0),
            ]
        };
        assert!(!orderings(&run(20.0, 900.0)));
        // The lookup drifting past 2x a grant pair fails the gate.
        assert!(orderings(&run(150.0, 900.0)));
        // Per-frame switching above 1/3 of a backend round trip fails:
        // 32 frames at 1600 ns total is 50 ns/frame > 120/3.
        assert!(orderings(&run(20.0, 1600.0)));
    }

    #[test]
    fn clone_tail_rule_catches_stamp_spikes() {
        // The clone_from_template tail this rule was added for: a
        // stamp-plan build (or table rehash) landing inside a timed
        // sample blows the p95 far past the median without moving it.
        let name = "ablation/clone/clone_from_template";
        let baseline = vec![entry(name, 1900.0, 2400.0)];
        let spiky = vec![gated(entry(name, 1900.0, 13_000.0), |g| g.hot().tail())];
        let tight = vec![gated(entry(name, 1900.0, 5_800.0), |g| g.hot().tail())];
        assert!(gate(&baseline, &spiky));
        assert!(!gate(&baseline, &tight));
    }

    #[test]
    fn page_write_ordering_enforces_lazy_hashing() {
        let (write, read) = ("mem/page_write", "mem/page_read_handle");
        // Lazy write: ~3x a read-handle lookup — well inside the bound.
        let lazy = vec![
            gated(entry(write, 50.0, 80.0), |g| g.at_most(15.0, read)),
            entry(read, 16.0, 20.0),
        ];
        // Eager hashing regrown: ~54x a read fails the ordering.
        let eager = vec![
            gated(entry(write, 865.0, 1000.0), |g| g.at_most(15.0, read)),
            entry(read, 16.0, 20.0),
        ];
        assert!(!orderings(&lazy));
        assert!(orderings(&eager));
    }

    #[test]
    fn ordering_rule_fails_on_missing_entries() {
        let (fast, slow) = (
            "ablation/boot_plans/parallel_xoar",
            "ablation/boot_plans/serial_dom0",
        );
        // The compared-against entry vanished from the run.
        assert!(orderings(&[
            gated(entry(fast, 1.0, 2.0), |g| g.at_most(1.0, slow))
        ]));
        // The ordered entry itself vanished: its gate lives on in the
        // baseline, so the baseline comparison fails.
        let baseline = vec![gated(entry(fast, 1.0, 2.0), |g| g.at_most(1.0, slow))];
        assert!(gate(&baseline, &[entry(slow, 1.0, 2.0)]));
    }

    #[test]
    fn missing_fresh_entry_fails_new_baseline_entry_skips() {
        let name = "restart/plan_execute";
        // Not yet in the baseline: skip (first run introducing it).
        assert!(!gate(
            &[],
            &[gated(entry(name, 50.0, 60.0), |g| g.hot().tail())]
        ));
        // Gated in the baseline, dropped from the fresh run: fail.
        assert!(gate(
            &[gated(entry(name, 50.0, 60.0), |g| g.hot().tail())],
            &[]
        ));
        // An ungated baseline entry may disappear.
        assert!(!gate(&[entry(name, 50.0, 60.0)], &[]));
    }

    #[test]
    fn baseline_gated_entry_missing_from_fresh_fails_even_if_fresh_declares_nothing() {
        // A deleted bench takes its declaration with it, so the fresh
        // run alone cannot notice; the baseline still names the gate.
        let baseline = vec![
            gated(entry("mem/page_write", 50.0, 60.0), Gate::hot),
            entry("mem/page_read_handle", 16.0, 20.0),
        ];
        let fresh = vec![entry("mem/page_read_handle", 16.0, 20.0)];
        assert!(gate(&baseline, &fresh));
    }
}
