//! Postmark (Figure 6.1): small-file mail-server workload.
//!
//! Postmark creates a pool of files, runs a transaction mix of
//! read/append/create/delete over them, then deletes the pool. The
//! figure's four configurations are reproduced verbatim:
//! `1K×50K`, `20K×50K`, `20K×100K`, and `20K×100K×100 subdirectories`.
//!
//! The workload drives *real* block requests through the platform's
//! BlkFront → ring → BlkBack → disk-model path. File-system behaviour is
//! modelled at the level that matters for the figure: most operations hit
//! the guest page cache (costing CPU only), cache misses and periodic
//! writeback issue block I/O, and the metadata overhead grows with pool
//! and directory size.

use xoar_core::platform::Platform;
use xoar_devices::blk::BlkOp;
use xoar_hypervisor::DomId;

use crate::rng::SimRng;

/// One of the figure's workload configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostmarkConfig {
    /// Number of files in the pool.
    pub files: u64,
    /// Number of transactions.
    pub transactions: u64,
    /// Number of subdirectories (0 = all files in one directory).
    pub subdirectories: u64,
}

impl PostmarkConfig {
    /// The four x-axis configurations of Figure 6.1.
    pub fn figure_6_1() -> Vec<(&'static str, PostmarkConfig)> {
        vec![
            (
                "1Kx50K",
                PostmarkConfig {
                    files: 1_000,
                    transactions: 50_000,
                    subdirectories: 0,
                },
            ),
            (
                "20Kx50K",
                PostmarkConfig {
                    files: 20_000,
                    transactions: 50_000,
                    subdirectories: 0,
                },
            ),
            (
                "20Kx100K",
                PostmarkConfig {
                    files: 20_000,
                    transactions: 100_000,
                    subdirectories: 0,
                },
            ),
            (
                "20Kx100Kx100",
                PostmarkConfig {
                    files: 20_000,
                    transactions: 100_000,
                    subdirectories: 100,
                },
            ),
        ]
    }
}

/// Result of one Postmark run.
#[derive(Debug, Clone, Copy)]
pub struct PostmarkResult {
    /// Transactions per second — the figure's y-axis.
    pub ops_per_sec: f64,
    /// Total block requests issued to the virtual disk.
    pub block_requests: u64,
    /// Total simulated wall time (ns).
    pub elapsed_ns: u64,
}

/// Postmark file sizes: 500 B – 9.77 KiB (the tool's defaults).
const MIN_FILE: u64 = 500;
const MAX_FILE: u64 = 10_000;

/// Guest CPU cost of one cache-hit transaction (syscall + page-cache
/// copy + journal bookkeeping).
const TXN_CPU_NS: u64 = 55_000;

/// Extra per-transaction dentry cost in large directories, per 1000
/// files scanned.
const DENTRY_NS_PER_1K: u64 = 3_000;

/// Writeback batching: one ring request flushes this many dirty
/// transactions' worth of data (ext3 commits in batches).
const WRITEBACK_BATCH: u64 = 48;

/// Runs Postmark in `guest` on `platform`.
///
/// Returns transactions/second computed from the accumulated simulated
/// time: guest CPU per transaction plus the disk service time of every
/// block request the mix generated.
pub fn run(
    platform: &mut Platform,
    guest: DomId,
    cfg: PostmarkConfig,
    seed: u64,
) -> PostmarkResult {
    let mut rng = SimRng::new(seed);
    let mut elapsed_ns: u64 = 0;
    let mut block_requests: u64 = 0;
    let mut dirty_txns: u64 = 0;
    let mut next_sector: u64 = 4096; // Past the superblock area.

    // Cache-miss probability grows with the pool's metadata footprint.
    let pool_bytes = cfg.files * (MIN_FILE + MAX_FILE) / 2;
    let cache_bytes: u64 = 512 * 1024 * 1024; // Guest page cache share.
    let miss_p = (pool_bytes as f64 / cache_bytes as f64 * 0.05).min(0.25);
    // Directory-scan overhead per transaction.
    let files_per_dir = cfg.files / cfg.subdirectories.max(1);
    let dentry_ns =
        files_per_dir / 1_000 * DENTRY_NS_PER_1K + if cfg.subdirectories > 0 { 2_000 } else { 0 };

    let flush = |platform: &mut Platform,
                 elapsed: &mut u64,
                 reqs: &mut u64,
                 sector: &mut u64,
                 sectors: u64,
                 op: BlkOp| {
        // Submit one batched request; if the ring is full, drain it first.
        loop {
            match platform.blk_submit(guest, op, *sector, sectors) {
                Ok(_) => break,
                Err(_) => {
                    let stats = platform.process_blkbacks();
                    *elapsed += stats.service_ns;
                    while platform.blk_poll(guest).is_some() {}
                }
            }
        }
        *sector += sectors;
        *reqs += 1;
    };

    // Phase 1: create the file pool (sequential writes, batched).
    let create_batches = cfg.files / WRITEBACK_BATCH + 1;
    for _ in 0..create_batches {
        flush(
            platform,
            &mut elapsed_ns,
            &mut block_requests,
            &mut next_sector,
            64,
            BlkOp::Write,
        );
        elapsed_ns += WRITEBACK_BATCH * TXN_CPU_NS;
    }

    // Phase 2: the transaction mix.
    for _ in 0..cfg.transactions {
        elapsed_ns += TXN_CPU_NS + dentry_ns;
        let read = rng.chance(0.5);
        if read {
            if rng.chance(miss_p) {
                // Cache miss: a synchronous random read.
                let file_sector = 4096 + rng.below(pool_bytes / 512);
                flush(
                    platform,
                    &mut elapsed_ns,
                    &mut block_requests,
                    &mut { file_sector },
                    rng.range(1, MAX_FILE / 512),
                    BlkOp::Read,
                );
            }
        } else {
            dirty_txns += 1;
            if dirty_txns.is_multiple_of(WRITEBACK_BATCH) {
                flush(
                    platform,
                    &mut elapsed_ns,
                    &mut block_requests,
                    &mut next_sector,
                    64,
                    BlkOp::Write,
                );
            }
        }
    }

    // Phase 3: delete the pool (metadata writes, batched).
    for _ in 0..(cfg.files / (WRITEBACK_BATCH * 4) + 1) {
        flush(
            platform,
            &mut elapsed_ns,
            &mut block_requests,
            &mut next_sector,
            16,
            BlkOp::Write,
        );
    }

    // Drain the backend and charge its service time.
    let stats = platform.process_blkbacks();
    elapsed_ns += stats.service_ns;
    while platform.blk_poll(guest).is_some() {}

    PostmarkResult {
        ops_per_sec: cfg.transactions as f64 / (elapsed_ns as f64 / 1e9),
        block_requests,
        elapsed_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xoar_core::platform::{GuestConfig, XoarConfig};

    fn guest_on(p: &mut Platform) -> DomId {
        let ts = p.services.toolstacks[0];
        p.create_guest(ts, GuestConfig::evaluation_guest("postmark"))
            .unwrap()
    }

    fn small() -> PostmarkConfig {
        PostmarkConfig {
            files: 1_000,
            transactions: 5_000,
            subdirectories: 0,
        }
    }

    #[test]
    fn runs_and_reports_throughput() {
        let mut p = Platform::xoar(XoarConfig::default());
        let g = guest_on(&mut p);
        let r = run(&mut p, g, small(), 1);
        assert!(r.ops_per_sec > 1_000.0, "ops/s {}", r.ops_per_sec);
        assert!(r.block_requests > 0);
        assert!(r.elapsed_ns > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut p1 = Platform::xoar(XoarConfig::default());
        let g1 = guest_on(&mut p1);
        let a = run(&mut p1, g1, small(), 7);
        let mut p2 = Platform::xoar(XoarConfig::default());
        let g2 = guest_on(&mut p2);
        let b = run(&mut p2, g2, small(), 7);
        assert_eq!(a.block_requests, b.block_requests);
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
    }

    #[test]
    fn figure_6_1_dom0_and_xoar_are_comparable() {
        // The paper: "disk throughput is more or less unchanged".
        let mut dom0 = Platform::stock_xen();
        let g0 = guest_on(&mut dom0);
        let mut xoar = Platform::xoar(XoarConfig::default());
        let g1 = guest_on(&mut xoar);
        let r0 = run(&mut dom0, g0, small(), 3);
        let r1 = run(&mut xoar, g1, small(), 3);
        let ratio = r1.ops_per_sec / r0.ops_per_sec;
        assert!((ratio - 1.0).abs() < 0.05, "Xoar/Dom0 ratio {ratio:.3}");
    }

    #[test]
    fn larger_pools_are_slower_per_transaction() {
        let mut p = Platform::xoar(XoarConfig::default());
        let g = guest_on(&mut p);
        let small_pool = run(
            &mut p,
            g,
            PostmarkConfig {
                files: 1_000,
                transactions: 5_000,
                subdirectories: 0,
            },
            5,
        );
        let big_pool = run(
            &mut p,
            g,
            PostmarkConfig {
                files: 20_000,
                transactions: 5_000,
                subdirectories: 0,
            },
            5,
        );
        assert!(
            big_pool.ops_per_sec < small_pool.ops_per_sec,
            "20K files {} !< 1K files {}",
            big_pool.ops_per_sec,
            small_pool.ops_per_sec
        );
    }

    #[test]
    fn subdirectories_reduce_dentry_cost() {
        // 20K files in one directory scan longer chains than 100 subdirs
        // of 200 files each.
        let mut p = Platform::xoar(XoarConfig::default());
        let g = guest_on(&mut p);
        let flat = run(
            &mut p,
            g,
            PostmarkConfig {
                files: 20_000,
                transactions: 5_000,
                subdirectories: 0,
            },
            9,
        );
        let subdirs = run(
            &mut p,
            g,
            PostmarkConfig {
                files: 20_000,
                transactions: 5_000,
                subdirectories: 100,
            },
            9,
        );
        assert!(subdirs.ops_per_sec > flat.ops_per_sec);
    }

    #[test]
    fn figure_configs_are_the_paper_ones() {
        let cfgs = PostmarkConfig::figure_6_1();
        assert_eq!(cfgs.len(), 4);
        assert_eq!(cfgs[0].1.files, 1_000);
        assert_eq!(cfgs[3].1.subdirectories, 100);
    }
}
