//! Executable isolation spec: lockstep memory-ownership model and
//! differential noninterference checker.
//!
//! The paper's security argument says Xoar's decomposition bounds what
//! a compromised shard can reach. The static rules ([`crate::rules`])
//! check that claim against a frozen snapshot; this module checks it
//! *while the hypervisor runs*. A tiny high-level model of machine
//! memory ([`model::SpecState`]: per-frame owner, declared-sharing
//! edges, privilege relation) is advanced in lockstep with the real
//! hypervisor on every hypercall, as an observer on the gate's one
//! observation seam ([`xoar_hypervisor::GateObserver`]) — one untaken
//! branch when nothing is attached, so bench and production paths are
//! unaffected.
//!
//! After each step the checker ([`checker::SpecCore`]) asserts the
//! refinement relation: every real grant entry, frame-ownership change,
//! CoW alias, and clone fall-through must be justified by the model,
//! and no frame may be cross-domain read-visible without a declared
//! edge. A divergence is recorded sticky with the op trace that
//! produced it; the drivers ([`drive`]) shrink failing sequences to a
//! minimal reproducing trace with the in-tree property harness and
//! render a copy-pasteable regression test.
//!
//! Three entry points:
//! * [`checker::SpecHandle::attach`] — wire the checker onto any live
//!   hypervisor (used by the noninterference integration tests);
//! * [`drive::exhaustive`] / [`drive::random_sweep`] — small-scope
//!   enumeration over grant/map/unmap/transfer/copy/snapshot/rollback/
//!   clone/microreboot sequences (the `--spec-exhaustive` CI gate);
//! * [`drive::selftest`] — injects known violations (revoked-grant
//!   resurrection, backdoor clone fall-through, raw alias) and proves
//!   each fires its rule (`--spec-selftest`).

pub mod checker;
pub mod drive;
pub mod model;

pub use checker::{Divergence, SpecChecker, SpecHandle};
pub use model::{GrantFact, SpecState};
