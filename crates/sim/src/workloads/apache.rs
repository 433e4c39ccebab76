//! ApacheBench (Figure 6.5): many concurrent clients against a static
//! page, with and without NetBack restarts.
//!
//! The model is a worker-level discrete-event simulation of `ab`:
//! `CONCURRENCY` workers each loop over connect → request → response
//! (keep-alive off, as in the paper's runs), against a CPU-bound Apache
//! whose service rate is the calibrated bottleneck. NetBack restarts
//! appear as connectivity outages with the same downtimes as Figure 6.3:
//!
//! * a response in flight during an outage is retransmitted on the
//!   server's RTO (200 ms, doubling);
//! * a SYN sent into an outage is lost and retried after the classic 3 s
//!   initial SYN timeout — this is what stretches the longest requests to
//!   "3000 ms (at 5 and 10 seconds) to 7000 ms (at 1 second)" while the
//!   no-restart runs complete in 8–9 ms.

use xoar_core::platform::PlatformMode;
use xoar_core::restart::RestartPath;

use crate::tcp::SEC;

/// Concurrent `ab` workers.
pub const CONCURRENCY: usize = 50;

/// Requests per run (long enough that every restart interval sees
/// multiple outages).
pub const TOTAL_REQUESTS: u64 = 96_000;

/// Page size served (bytes, including headers).
pub const PAGE_BYTES: u64 = 14_200;

/// Apache service time per request on Dom0 (the CPU bottleneck,
/// calibrated to the figure's ~3230 req/s).
const SERVICE_NS_DOM0: u64 = 303_000;

/// Xoar's extra VM crossing on the response path (−1.5% throughput).
const SERVICE_NS_XOAR: u64 = 308_000;

/// LAN round-trip time.
const RTT_NS: u64 = 300_000;

/// Classic initial SYN retransmission timeout.
const SYN_TIMEOUT_NS: u64 = 3 * SEC;

/// Minimum data RTO.
const RTO_MIN_NS: u64 = 200_000_000;

/// One bar group of Figure 6.5.
#[derive(Debug, Clone, Copy)]
pub struct AbResult {
    /// Wall-clock time of the whole run (s).
    pub total_time_s: f64,
    /// Requests per second.
    pub throughput_rps: f64,
    /// Mean request latency (ms).
    pub mean_latency_ms: f64,
    /// Transfer rate (MB/s).
    pub transfer_mbps: f64,
    /// The longest single request (ms) — the paper's outlier note.
    pub longest_request_ms: f64,
}

/// A restart configuration for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbConfig {
    /// No restarts.
    Clean,
    /// NetBack restarted every `interval_s` seconds (slow path, as in the
    /// figure).
    Restarts {
        /// Restart interval, seconds.
        interval_s: u64,
    },
}

fn in_outage(t: u64, cfg: AbConfig) -> Option<u64> {
    // Returns the end of the outage covering `t`, if any.
    match cfg {
        AbConfig::Clean => None,
        AbConfig::Restarts { interval_s } => {
            // The restart timer re-arms after the restart completes, so
            // the effective period is interval + restart execution time —
            // real restarts drift rather than firing on exact second
            // boundaries.
            let downtime = RestartPath::Slow.downtime_ns();
            let period = interval_s * SEC + downtime + 137_000_000;
            let phase = t % period;
            if phase < downtime && t >= period {
                Some(t - phase + downtime)
            } else {
                None
            }
        }
    }
}

/// Runs one `ab` configuration against `mode`.
pub fn run(mode: PlatformMode, cfg: AbConfig) -> AbResult {
    let service_ns = match mode {
        PlatformMode::StockXen => SERVICE_NS_DOM0,
        PlatformMode::Xoar => SERVICE_NS_XOAR,
    };
    // Per-worker next-free time, the server's single queue, and stats.
    let mut worker_free = [0u64; CONCURRENCY];
    let mut server_free: u64 = 0;
    let mut issued: u64 = 0;
    let mut latency_sum: u64 = 0;
    let mut longest: u64 = 0;
    let mut end_time: u64 = 0;

    while issued < TOTAL_REQUESTS {
        // Pick the earliest-free worker.
        let (w, _) = worker_free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .expect("nonempty");
        let start = worker_free[w];
        let mut t = start;

        // 1. Connect: SYN + SYN/ACK round trip; a SYN into an outage is
        //    lost and retried after the 3 s initial timeout. A small
        //    worker-dependent jitter models timer slack and breaks the
        //    degenerate resonance between the 3 s timer and integer-second
        //    restart intervals.
        while in_outage(t, cfg).is_some() {
            // Timer slack: real SYN retransmissions carry tens of
            // milliseconds of scheduling jitter, which is what keeps
            // them from resonating with periodic outages.
            let jitter = (t ^ (w as u64)).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            t += SYN_TIMEOUT_NS + jitter % 60_000_000;
        }
        t += RTT_NS;

        // 2. Server processing: single CPU-bound queue.
        let proc_start = t.max(server_free);
        let proc_end = proc_start + service_ns;
        server_free = proc_end;
        t = proc_end;

        // 3. Response delivery; a response into an outage is
        //    retransmitted on a doubling RTO until the link is back.
        let mut rto = RTO_MIN_NS;
        while let Some(outage_end) = in_outage(t, cfg) {
            t += rto;
            rto = (rto * 2).min(8 * SEC);
            if t >= outage_end {
                break;
            }
        }
        // Half an RTT plus serialisation at 1 Gb/s (1 bit ≈ 1 ns).
        t += RTT_NS / 2 + PAGE_BYTES * 8;

        let latency = t - start;
        latency_sum += latency;
        longest = longest.max(latency);
        end_time = end_time.max(t);
        worker_free[w] = t;
        issued += 1;
    }

    let total_s = end_time as f64 / 1e9;
    AbResult {
        total_time_s: total_s,
        throughput_rps: TOTAL_REQUESTS as f64 / total_s,
        mean_latency_ms: latency_sum as f64 / TOTAL_REQUESTS as f64 / 1e6,
        transfer_mbps: TOTAL_REQUESTS as f64 * PAGE_BYTES as f64 / total_s / 1e6,
        longest_request_ms: longest as f64 / 1e6,
    }
}

/// The figure's five configurations: Dom0, Xoar, restarts @10/5/1 s.
pub fn figure_6_5_cases() -> Vec<(&'static str, PlatformMode, AbConfig)> {
    vec![
        ("Dom0", PlatformMode::StockXen, AbConfig::Clean),
        ("Xoar", PlatformMode::Xoar, AbConfig::Clean),
        (
            "Restarts (10s)",
            PlatformMode::Xoar,
            AbConfig::Restarts { interval_s: 10 },
        ),
        (
            "Restarts (5s)",
            PlatformMode::Xoar,
            AbConfig::Restarts { interval_s: 5 },
        ),
        (
            "Restarts (1s)",
            PlatformMode::Xoar,
            AbConfig::Restarts { interval_s: 1 },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_throughput_calibrated_to_figure() {
        let dom0 = run(PlatformMode::StockXen, AbConfig::Clean);
        // Figure 6.5: Dom0 ≈ 3230 req/s over ~10 s.
        assert!(
            (dom0.throughput_rps - 3230.0).abs() < 120.0,
            "Dom0 {:.0} req/s",
            dom0.throughput_rps
        );
        assert!(
            (dom0.total_time_s - 29.7).abs() < 1.5,
            "{:.2} s",
            dom0.total_time_s
        );
        // Transfer rate ≈ 45 MB/s.
        assert!(
            (dom0.transfer_mbps - 45.0).abs() < 3.0,
            "{:.1} MB/s",
            dom0.transfer_mbps
        );
    }

    #[test]
    fn xoar_within_a_few_percent_of_dom0() {
        let dom0 = run(PlatformMode::StockXen, AbConfig::Clean);
        let xoar = run(PlatformMode::Xoar, AbConfig::Clean);
        let delta = 1.0 - xoar.throughput_rps / dom0.throughput_rps;
        assert!(
            delta > 0.0 && delta < 0.03,
            "Xoar delta {delta:.3} (paper: ~1.5%)"
        );
    }

    #[test]
    fn clean_runs_have_millisecond_requests() {
        let dom0 = run(PlatformMode::StockXen, AbConfig::Clean);
        // Paper: "the longest packet took only 8-9ms" without restarts.
        assert!(
            dom0.longest_request_ms < 25.0,
            "{:.1} ms",
            dom0.longest_request_ms
        );
        assert!(dom0.mean_latency_ms > 10.0 && dom0.mean_latency_ms < 20.0);
    }

    #[test]
    fn restarts_degrade_non_uniformly() {
        let clean = run(PlatformMode::Xoar, AbConfig::Clean);
        let r10 = run(PlatformMode::Xoar, AbConfig::Restarts { interval_s: 10 });
        let r5 = run(PlatformMode::Xoar, AbConfig::Restarts { interval_s: 5 });
        let r1 = run(PlatformMode::Xoar, AbConfig::Restarts { interval_s: 1 });
        let drop = |r: &AbResult| 1.0 - r.throughput_rps / clean.throughput_rps;
        // Ordering.
        assert!(
            drop(&r10) < drop(&r5),
            "10s {:.2} vs 5s {:.2}",
            drop(&r10),
            drop(&r5)
        );
        assert!(
            drop(&r5) < drop(&r1),
            "5s {:.2} vs 1s {:.2}",
            drop(&r5),
            drop(&r1)
        );
        // Paper: "changing the interval from 5 seconds to 1 second
        // introduces a significant performance loss." (The paper also
        // reports the 5→10 s gain as barely measurable; our mechanistic
        // model yields degradation closer to proportional-in-frequency —
        // the discrepancy is recorded in EXPERIMENTS.md.)
        let gain_5_to_10 = r10.throughput_rps / r5.throughput_rps - 1.0;
        let loss_5_to_1 = 1.0 - r1.throughput_rps / r5.throughput_rps;
        assert!(
            loss_5_to_1 > gain_5_to_10,
            "5→1 loss {loss_5_to_1:.2} vs 5→10 gain {gain_5_to_10:.2}"
        );
        assert!(
            drop(&r1) > 0.45,
            "1s restarts are crippling: {:.2}",
            drop(&r1)
        );
    }

    #[test]
    fn restart_runs_have_multi_second_outliers() {
        // Paper: "with restarts, the values range from 3000ms (at 5 and 10
        // seconds) to 7000ms (at 1 second)".
        for i in [10u64, 5, 1] {
            let r = run(PlatformMode::Xoar, AbConfig::Restarts { interval_s: i });
            assert!(
                r.longest_request_ms >= 2_000.0 && r.longest_request_ms <= 9_000.0,
                "interval {i}s: longest {:.0} ms",
                r.longest_request_ms
            );
        }
    }

    #[test]
    fn outage_detection_geometry() {
        let cfg = AbConfig::Restarts { interval_s: 1 };
        let period = SEC + RestartPath::Slow.downtime_ns() + 137_000_000;
        // No outage before the first period elapses.
        assert!(in_outage(100, cfg).is_none());
        assert!(in_outage(period - 1, cfg).is_none());
        // Inside the first outage window.
        let t = period + 100_000_000;
        let end = in_outage(t, cfg).unwrap();
        assert_eq!(end, period + RestartPath::Slow.downtime_ns());
        // After it.
        assert!(in_outage(period + 300_000_000, cfg).is_none());
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    #[test]
    #[ignore]
    fn print_figure() {
        for (label, mode, cfg) in figure_6_5_cases() {
            let r = run(mode, cfg);
            eprintln!(
                "{label}: {:.2}s {:.0} req/s lat {:.1}ms xfer {:.1}MB/s longest {:.0}ms",
                r.total_time_s,
                r.throughput_rps,
                r.mean_latency_ms,
                r.transfer_mbps,
                r.longest_request_ms
            );
        }
    }
}
