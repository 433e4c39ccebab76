//! XenStore-Logic: the stateless, restartable half of the split store.
//!
//! Logic implements the full XenStore semantics — hierarchy, permission
//! checks, transactions, watches, quotas — but holds no durable state of
//! its own: every mutation is pushed through the narrow key-value protocol
//! to [`crate::state::XenStoreState`] before being acknowledged. Watch
//! *registrations* are journaled into State under the reserved
//! `/@watch/...` namespace, so a fresh Logic instance can rebuild its
//! registry with [`XenStoreLogic::recover`]; in-flight transactions and
//! undelivered watch events are deliberately lost on restart (§3.3: guest
//! protocols are designed to renegotiate).
//!
//! Because Logic is a pure function of (request, State), Xoar restarts it
//! "on each request" (Figure 5.1) without any visible state loss — the
//! property the `logic_restart` integration tests and the
//! `ablation_xenstore_split` bench exercise.

use std::collections::{BTreeMap, BTreeSet};

use xoar_hypervisor::fasthash::FastMap;
use xoar_hypervisor::DomId;

use crate::error::{XsError, XsResult};
use crate::path::XsPath;
use crate::perm::NodePerms;
use crate::state::{KvReply, KvRequest, NodeRecord, XenStoreState};
use crate::watch::{WatchEvent, WatchRegistry};

/// Default per-domain node quota (the C xenstored ships 1000; the paper's
/// §4.4 cites DoS when "a single VM monopolizes these resources").
pub const DEFAULT_NODE_QUOTA: usize = 1000;

/// Default per-domain watch quota (xenstored ships 128).
pub const DEFAULT_WATCH_QUOTA: usize = 128;

/// Default per-domain concurrent-transaction quota (xenstored ships 10).
pub const DEFAULT_TXN_QUOTA: usize = 10;

/// Reserved State-key prefix for journaled watch registrations.
const WATCH_JOURNAL: &str = "/@watch";

/// An in-flight transaction.
#[derive(Debug, Clone)]
struct Txn {
    dom: DomId,
    base_generation: u64,
    /// Overlay writes: `None` means deleted within the transaction.
    writes: BTreeMap<String, Option<NodeRecord>>,
    /// Keys read (for conflict detection).
    reads: BTreeSet<String>,
}

/// Quota configuration.
#[derive(Debug, Clone, Copy)]
pub struct Quotas {
    /// Maximum nodes owned per domain.
    pub nodes: usize,
    /// Maximum watches per domain.
    pub watches: usize,
    /// Maximum concurrent transactions per domain.
    pub transactions: usize,
}

impl Default for Quotas {
    fn default() -> Self {
        Quotas {
            nodes: DEFAULT_NODE_QUOTA,
            watches: DEFAULT_WATCH_QUOTA,
            transactions: DEFAULT_TXN_QUOTA,
        }
    }
}

/// The Logic component.
#[derive(Debug)]
pub struct XenStoreLogic {
    watches: WatchRegistry,
    txns: FastMap<u32, Txn>,
    next_txn: u32,
    privileged: BTreeSet<DomId>,
    quotas: Quotas,
    node_counts: FastMap<DomId, usize>,
    /// Count of requests processed since the last restart.
    requests_this_epoch: u64,
    /// Number of times this Logic has been restarted.
    pub restarts: u64,
}

impl XenStoreLogic {
    /// Creates a fresh Logic with default quotas.
    pub fn new() -> Self {
        XenStoreLogic {
            watches: WatchRegistry::new(),
            txns: FastMap::default(),
            next_txn: 1,
            privileged: BTreeSet::new(),
            quotas: Quotas::default(),
            node_counts: FastMap::default(),
            requests_this_epoch: 0,
            restarts: 0,
        }
    }

    /// Creates a Logic with explicit quotas.
    pub fn with_quotas(quotas: Quotas) -> Self {
        XenStoreLogic {
            quotas,
            ..Self::new()
        }
    }

    /// Marks a domain's connection as privileged (bypasses ACLs).
    ///
    /// Stock Xen grants this to Dom0; Xoar to the Toolstack and Builder
    /// shards only.
    pub fn set_privileged(&mut self, dom: DomId, privileged: bool) {
        if privileged {
            self.privileged.insert(dom);
        } else {
            self.privileged.remove(&dom);
        }
    }

    /// Whether `dom` has a privileged connection.
    pub fn is_privileged(&self, dom: DomId) -> bool {
        self.privileged.contains(&dom)
    }

    /// All domains holding privileged connections, in ascending order
    /// (audit/analysis surface: these are the ACL-bypass principals).
    pub fn privileged_domains(&self) -> Vec<DomId> {
        self.privileged.iter().copied().collect()
    }

    /// Simulates a microreboot of Logic: all volatile state is discarded
    /// in place (keeping the map/registry allocations — this is the
    /// Figure 5.1 per-request fast path, so a restart must not pay a
    /// round of reallocation) and then recovered from State's
    /// incrementally-maintained indexes. Privileged-connection marks
    /// survive: they come from the boot configuration, not the store.
    pub fn restart(&mut self, state: &XenStoreState) {
        self.watches.clear();
        self.txns.clear();
        self.next_txn = 1;
        self.node_counts.clear();
        self.requests_this_epoch = 0;
        self.restarts += 1;
        self.recover(state);
    }

    /// Rebuilds watch registrations and quota accounting from State.
    ///
    /// Quota accounting is copied straight out of State's per-owner node
    /// index — O(owners), not O(store) — and journaled watches are read
    /// by reference from the `/@watch/...` range, so recovery performs no
    /// per-key protocol round trips and clones no record values.
    pub fn recover(&mut self, state: &XenStoreState) {
        for (&owner, &count) in state.owner_counts() {
            self.node_counts.insert(owner, count as usize);
        }
        // Registered without the synthetic initial fire — the watcher
        // already received it when it registered.
        for (_key, rec) in state.entries_under(WATCH_JOURNAL) {
            if let Ok(journal) = std::str::from_utf8(&rec.value) {
                if let Some((dom, path, token)) = parse_watch_journal(journal) {
                    if let Ok(p) = XsPath::parse(path) {
                        self.watches.register_recovered(dom, p, token.to_string());
                    }
                }
            }
        }
    }

    // ----- helpers -----

    fn get_record(state: &mut XenStoreState, key: &str) -> Option<NodeRecord> {
        match state.serve(KvRequest::Get(key.to_string())) {
            KvReply::Record(r) => r,
            _ => None,
        }
    }

    fn can_read(&self, dom: DomId, rec: &NodeRecord) -> bool {
        self.is_privileged(dom) || rec.perms.can_read(dom)
    }

    fn can_write(&self, dom: DomId, rec: &NodeRecord) -> bool {
        self.is_privileged(dom) || rec.perms.can_write(dom)
    }

    /// Resolves a read within an optional transaction overlay.
    fn txn_read(
        &mut self,
        state: &mut XenStoreState,
        txn: Option<u32>,
        key: &str,
    ) -> XsResult<Option<NodeRecord>> {
        if let Some(id) = txn {
            let t = self.txns.get_mut(&id).ok_or(XsError::BadTxn(id))?;
            t.reads.insert(key.to_string());
            if let Some(overlay) = t.writes.get(key) {
                return Ok(overlay.clone());
            }
        }
        Ok(Self::get_record(state, key))
    }

    /// Charges one node to `owner`'s quota.
    fn charge_node(&mut self, owner: DomId) -> XsResult<()> {
        let count = self.node_counts.entry(owner).or_insert(0);
        if self.privileged.contains(&owner) {
            *count += 1;
            return Ok(());
        }
        if *count >= self.quotas.nodes {
            return Err(XsError::Quota("nodes"));
        }
        *count += 1;
        Ok(())
    }

    fn uncharge_node(&mut self, owner: DomId) {
        if let Some(c) = self.node_counts.get_mut(&owner) {
            *c = c.saturating_sub(1);
        }
    }

    // ----- the wire operations -----

    /// Reads a node's value.
    pub fn read(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
    ) -> XsResult<Vec<u8>> {
        self.requests_this_epoch += 1;
        let rec = self
            .txn_read(state, txn, path.as_str())?
            .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
        if !self.can_read(dom, &rec) {
            return Err(XsError::Acc {
                caller: dom,
                path: path.to_string(),
            });
        }
        Ok(rec.value)
    }

    /// Writes a node, creating it (and missing ancestors) if necessary.
    ///
    /// Creating a node requires write permission on the nearest existing
    /// ancestor; modifying one requires write permission on the node.
    pub fn write(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
        value: &[u8],
    ) -> XsResult<()> {
        self.requests_this_epoch += 1;
        if path.as_str().starts_with(WATCH_JOURNAL) {
            return Err(XsError::Inval("reserved namespace".into()));
        }
        let existing = self.txn_read(state, txn, path.as_str())?;
        match existing {
            Some(mut rec) => {
                if !self.can_write(dom, &rec) {
                    return Err(XsError::Acc {
                        caller: dom,
                        path: path.to_string(),
                    });
                }
                rec.value = value.to_vec();
                self.apply_write(state, txn, path.as_str().to_string(), Some(rec))?;
            }
            None => {
                self.check_create(state, txn, dom, path)?;
                // Create missing ancestors; each new node is owned by the
                // writer.
                let mut to_create: Vec<XsPath> = Vec::new();
                for anc in path.ancestors() {
                    if anc.as_str() == "/" {
                        continue;
                    }
                    if self.txn_read(state, txn, anc.as_str())?.is_none() {
                        to_create.push(anc);
                    }
                }
                for anc in to_create {
                    self.charge_node(dom)?;
                    self.apply_write(
                        state,
                        txn,
                        anc.as_str().to_string(),
                        Some(NodeRecord {
                            value: Vec::new(),
                            perms: NodePerms::owner_only(dom),
                            generation: 0,
                        }),
                    )?;
                }
                self.charge_node(dom)?;
                self.apply_write(
                    state,
                    txn,
                    path.as_str().to_string(),
                    Some(NodeRecord {
                        value: value.to_vec(),
                        perms: NodePerms::owner_only(dom),
                        generation: 0,
                    }),
                )?;
            }
        }
        if txn.is_none() {
            self.watches.fire(path);
        }
        Ok(())
    }

    /// Permission check for creating `path`: write access to the nearest
    /// existing ancestor.
    fn check_create(
        &mut self,
        state: &mut XenStoreState,
        txn: Option<u32>,
        dom: DomId,
        path: &XsPath,
    ) -> XsResult<()> {
        if self.is_privileged(dom) {
            return Ok(());
        }
        let mut cur = path.parent();
        while let Some(p) = cur {
            if p.as_str() == "/" {
                // Root is writable only by privileged connections.
                return Err(XsError::Acc {
                    caller: dom,
                    path: path.to_string(),
                });
            }
            if let Some(rec) = self.txn_read(state, txn, p.as_str())? {
                return if rec.perms.can_write(dom) {
                    Ok(())
                } else {
                    Err(XsError::Acc {
                        caller: dom,
                        path: path.to_string(),
                    })
                };
            }
            cur = p.parent();
        }
        Err(XsError::Acc {
            caller: dom,
            path: path.to_string(),
        })
    }

    fn apply_write(
        &mut self,
        state: &mut XenStoreState,
        txn: Option<u32>,
        key: String,
        rec: Option<NodeRecord>,
    ) -> XsResult<()> {
        if let Some(id) = txn {
            let t = self.txns.get_mut(&id).ok_or(XsError::BadTxn(id))?;
            t.writes.insert(key, rec);
        } else {
            match rec {
                Some(r) => {
                    state.serve(KvRequest::Put(key, r));
                }
                None => {
                    state.serve(KvRequest::Delete(key));
                }
            }
        }
        Ok(())
    }

    /// Creates an empty node (like `write` with an empty value but failing
    /// with `EEXIST` semantics avoided: mkdir of an existing dir is a
    /// no-op, as in xenstored).
    pub fn mkdir(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
    ) -> XsResult<()> {
        if self.txn_read(state, txn, path.as_str())?.is_some() {
            return Ok(());
        }
        self.write(state, dom, txn, path, b"")
    }

    /// Removes a node and its whole subtree.
    pub fn rm(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
    ) -> XsResult<()> {
        self.requests_this_epoch += 1;
        let rec = self
            .txn_read(state, txn, path.as_str())?
            .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
        if !self.can_write(dom, &rec) {
            return Err(XsError::Acc {
                caller: dom,
                path: path.to_string(),
            });
        }
        // Collect subtree keys from State plus transaction overlay.
        let mut keys: BTreeSet<String> =
            match state.serve(KvRequest::ListSubtree(path.as_str().to_string())) {
                KvReply::Keys(k) => k.into_iter().collect(),
                _ => BTreeSet::new(),
            };
        if let Some(id) = txn {
            let t = self.txns.get(&id).ok_or(XsError::BadTxn(id))?;
            for (k, v) in &t.writes {
                let kp = XsPath::parse(k).map_err(|_| XsError::Inval(k.clone()))?;
                if kp.starts_with(path) {
                    if v.is_some() {
                        keys.insert(k.clone());
                    } else {
                        keys.remove(k);
                    }
                }
            }
        }
        for key in keys {
            if let Some(rec) = self.txn_read(state, txn, &key)? {
                self.uncharge_node(rec.perms.owner);
            }
            self.apply_write(state, txn, key, None)?;
        }
        if txn.is_none() {
            self.watches.fire(path);
        }
        Ok(())
    }

    /// Lists the immediate children of a node.
    pub fn directory(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        txn: Option<u32>,
        path: &XsPath,
    ) -> XsResult<Vec<String>> {
        self.requests_this_epoch += 1;
        if path.as_str() != "/" {
            let rec = self
                .txn_read(state, txn, path.as_str())?
                .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
            if !self.can_read(dom, &rec) {
                return Err(XsError::Acc {
                    caller: dom,
                    path: path.to_string(),
                });
            }
        }
        let mut keys: BTreeSet<String> =
            match state.serve(KvRequest::ListSubtree(path.as_str().to_string())) {
                KvReply::Keys(k) => k.into_iter().collect(),
                _ => BTreeSet::new(),
            };
        if let Some(id) = txn {
            let t = self.txns.get(&id).ok_or(XsError::BadTxn(id))?;
            for (k, v) in &t.writes {
                if v.is_some() {
                    keys.insert(k.clone());
                } else {
                    keys.remove(k);
                }
            }
        }
        let prefix = if path.as_str() == "/" {
            "/".to_string()
        } else {
            format!("{}/", path.as_str())
        };
        // An ordered set, not a sorted-then-deduped list: the keys sort
        // by full path, so a sibling like `device-setup` lands between
        // `device` and `device/...` and splits the repeats apart.
        let children: BTreeSet<&str> = keys
            .iter()
            .filter(|k| k.starts_with(&prefix) && **k != *path.as_str())
            .filter(|k| !k.starts_with(WATCH_JOURNAL))
            .filter_map(|k| k[prefix.len()..].split('/').next())
            .collect();
        Ok(children.into_iter().map(str::to_string).collect())
    }

    /// Reads a node's permissions.
    pub fn get_perms(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        path: &XsPath,
    ) -> XsResult<NodePerms> {
        let rec = Self::get_record(state, path.as_str())
            .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
        if !self.can_read(dom, &rec) {
            return Err(XsError::Acc {
                caller: dom,
                path: path.to_string(),
            });
        }
        Ok(rec.perms)
    }

    /// Replaces a node's permissions; only the owner or a privileged
    /// connection may do so.
    pub fn set_perms(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        path: &XsPath,
        perms: NodePerms,
    ) -> XsResult<()> {
        let mut rec = Self::get_record(state, path.as_str())
            .ok_or_else(|| XsError::NoEnt(path.to_string()))?;
        if rec.perms.owner != dom && !self.is_privileged(dom) {
            return Err(XsError::Acc {
                caller: dom,
                path: path.to_string(),
            });
        }
        let old_owner = rec.perms.owner;
        let new_owner = perms.owner;
        rec.perms = perms;
        state.serve(KvRequest::Put(path.as_str().to_string(), rec));
        if old_owner != new_owner {
            self.uncharge_node(old_owner);
            let _ = self.charge_node(new_owner);
        }
        self.watches.fire(path);
        Ok(())
    }

    // ----- watches -----

    /// Registers a watch and journals it into State so it survives Logic
    /// restarts. Fires the synthetic initial event.
    pub fn watch(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        path: &XsPath,
        token: &str,
    ) -> XsResult<()> {
        self.requests_this_epoch += 1;
        if !self.is_privileged(dom) && self.watches.count_for(dom) >= self.quotas.watches {
            return Err(XsError::Quota("watches"));
        }
        if !self.watches.register(dom, path.clone(), token.to_string()) {
            return Err(XsError::Exists(path.to_string()));
        }
        let key = format!("{WATCH_JOURNAL}/{}/{}", dom.0, sanitize_token(token));
        state.serve(KvRequest::Put(
            key,
            NodeRecord {
                value: format!("{}|{}|{}", dom.0, path.as_str(), token).into_bytes(),
                perms: NodePerms::owner_only(dom),
                generation: 0,
            },
        ));
        Ok(())
    }

    /// Unregisters a watch and removes its journal entry.
    pub fn unwatch(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        path: &XsPath,
        token: &str,
    ) -> XsResult<()> {
        if !self.watches.unregister(dom, path, token) {
            return Err(XsError::NoEnt(format!("watch {path}")));
        }
        let key = format!("{WATCH_JOURNAL}/{}/{}", dom.0, sanitize_token(token));
        state.serve(KvRequest::Delete(key));
        Ok(())
    }

    /// Dequeues the next watch event for `dom`.
    pub fn poll_watch(&mut self, dom: DomId) -> Option<WatchEvent> {
        self.watches.poll(dom)
    }

    // ----- transactions -----

    /// Starts a transaction.
    pub fn txn_start(&mut self, state: &mut XenStoreState, dom: DomId) -> XsResult<u32> {
        let open = self.txns.values().filter(|t| t.dom == dom).count();
        if !self.is_privileged(dom) && open >= self.quotas.transactions {
            return Err(XsError::Quota("transactions"));
        }
        let base = match state.serve(KvRequest::Generation) {
            KvReply::Generation(g) => g,
            _ => 0,
        };
        let id = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(
            id,
            Txn {
                dom,
                base_generation: base,
                writes: BTreeMap::new(),
                reads: BTreeSet::new(),
            },
        );
        Ok(id)
    }

    /// Ends a transaction. With `commit == false` the overlay is simply
    /// discarded; with `commit == true` the overlay is applied atomically
    /// unless any key read or written has changed since the transaction
    /// started, in which case [`XsError::Again`] is returned and the
    /// caller retries (the classic XenStore EAGAIN loop).
    pub fn txn_end(
        &mut self,
        state: &mut XenStoreState,
        dom: DomId,
        id: u32,
        commit: bool,
    ) -> XsResult<()> {
        let txn = self.txns.remove(&id).ok_or(XsError::BadTxn(id))?;
        if txn.dom != dom {
            self.txns.insert(id, txn);
            return Err(XsError::Acc {
                caller: dom,
                path: format!("transaction {id}"),
            });
        }
        if !commit {
            return Ok(());
        }
        // Conflict detection: any touched key mutated after base?
        let touched: BTreeSet<&String> = txn.reads.iter().chain(txn.writes.keys()).collect();
        for key in touched {
            if let Some(rec) = Self::get_record(state, key) {
                if rec.generation > txn.base_generation {
                    return Err(XsError::Again);
                }
            }
        }
        // Apply and fire.
        for (key, rec) in txn.writes {
            match rec {
                Some(r) => {
                    state.serve(KvRequest::Put(key.clone(), r));
                }
                None => {
                    state.serve(KvRequest::Delete(key.clone()));
                }
            }
            if let Ok(p) = XsPath::parse(&key) {
                self.watches.fire(&p);
            }
        }
        Ok(())
    }

    /// Number of open transactions.
    pub fn open_txns(&self) -> usize {
        self.txns.len()
    }

    /// Requests processed since the last restart.
    pub fn requests_this_epoch(&self) -> u64 {
        self.requests_this_epoch
    }

    /// Drops every watch, pending event, and quota record of a domain.
    pub fn remove_domain(&mut self, state: &mut XenStoreState, dom: DomId) {
        self.watches.remove_domain(dom);
        self.txns.retain(|_, t| t.dom != dom);
        self.node_counts.remove(&dom);
        if let KvReply::Keys(keys) =
            state.serve(KvRequest::ListSubtree(format!("{WATCH_JOURNAL}/{}", dom.0)))
        {
            for key in keys {
                state.serve(KvRequest::Delete(key));
            }
        }
    }

    /// Current node count charged to `dom`.
    pub fn node_count(&self, dom: DomId) -> usize {
        self.node_counts.get(&dom).copied().unwrap_or(0)
    }
}

impl Default for XenStoreLogic {
    fn default() -> Self {
        Self::new()
    }
}

fn sanitize_token(token: &str) -> String {
    token
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Splits a `dom|path|token` journal value into borrowed pieces (the
/// caller decides what it needs to own — restart-path clone burndown).
fn parse_watch_journal(s: &str) -> Option<(DomId, &str, &str)> {
    let mut it = s.splitn(3, '|');
    let dom: u32 = it.next()?.parse().ok()?;
    let path = it.next()?;
    let token = it.next()?;
    Some((DomId(dom), path, token))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    /// A Logic with dom0 privileged and a guest dom7, plus a State.
    fn setup() -> (XenStoreLogic, XenStoreState, DomId, DomId) {
        let mut logic = XenStoreLogic::new();
        let mut state = XenStoreState::new();
        let dom0 = DomId(0);
        let guest = DomId(7);
        logic.set_privileged(dom0, true);
        // Give the guest its home directory, as the toolstack does.
        logic
            .write(&mut state, dom0, None, &p("/local/domain/7"), b"")
            .unwrap();
        let mut perms = NodePerms::owner_only(guest);
        perms.owner = guest;
        logic
            .set_perms(&mut state, dom0, &p("/local/domain/7"), perms)
            .unwrap();
        (logic, state, dom0, guest)
    }

    #[test]
    fn read_write_with_permissions() {
        let (mut l, mut s, dom0, guest) = setup();
        l.write(
            &mut s,
            guest,
            None,
            &p("/local/domain/7/name"),
            b"web-frontend",
        )
        .unwrap();
        assert_eq!(
            l.read(&mut s, guest, None, &p("/local/domain/7/name"))
                .unwrap(),
            b"web-frontend"
        );
        // Privileged reads anything.
        assert_eq!(
            l.read(&mut s, dom0, None, &p("/local/domain/7/name"))
                .unwrap(),
            b"web-frontend"
        );
        // Another guest cannot.
        let other = DomId(9);
        assert!(matches!(
            l.read(&mut s, other, None, &p("/local/domain/7/name")),
            Err(XsError::Acc { .. })
        ));
    }

    #[test]
    fn guest_cannot_write_outside_its_home() {
        let (mut l, mut s, _dom0, guest) = setup();
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/tool/secret"), b"x"),
            Err(XsError::Acc { .. })
        ));
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/local/domain/8/evil"), b"x"),
            Err(XsError::Acc { .. })
        ));
    }

    #[test]
    fn missing_node_is_noent() {
        let (mut l, mut s, dom0, _) = setup();
        assert!(matches!(
            l.read(&mut s, dom0, None, &p("/nothing")),
            Err(XsError::NoEnt(_))
        ));
        assert!(matches!(
            l.rm(&mut s, dom0, None, &p("/nothing")),
            Err(XsError::NoEnt(_))
        ));
    }

    #[test]
    fn write_creates_ancestors_owned_by_writer() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.write(
            &mut s,
            guest,
            None,
            &p("/local/domain/7/device/vif/0/mac"),
            b"00:16:3e",
        )
        .unwrap();
        let perms = l
            .get_perms(&mut s, guest, &p("/local/domain/7/device/vif"))
            .unwrap();
        assert_eq!(perms.owner, guest);
        // 4 new nodes: device, vif, 0, mac.
        assert_eq!(l.node_count(guest), 1 + 4, "home dir + four created nodes");
    }

    #[test]
    fn rm_removes_subtree_and_uncharges() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.write(
            &mut s,
            guest,
            None,
            &p("/local/domain/7/device/vif/0/mac"),
            b"m",
        )
        .unwrap();
        let before = l.node_count(guest);
        l.rm(&mut s, guest, None, &p("/local/domain/7/device"))
            .unwrap();
        assert_eq!(l.node_count(guest), before - 4);
        assert!(matches!(
            l.read(&mut s, guest, None, &p("/local/domain/7/device/vif/0/mac")),
            Err(XsError::NoEnt(_))
        ));
    }

    #[test]
    fn directory_lists_immediate_children() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.write(&mut s, guest, None, &p("/local/domain/7/device/vif/0"), b"")
            .unwrap();
        l.write(&mut s, guest, None, &p("/local/domain/7/device/vbd/0"), b"")
            .unwrap();
        l.write(&mut s, guest, None, &p("/local/domain/7/name"), b"n")
            .unwrap();
        // `device-setup` sorts between `device` and `device/...` by full
        // path; `device` must still be listed once.
        l.write(&mut s, guest, None, &p("/local/domain/7/device-setup"), b"")
            .unwrap();
        let dir = l
            .directory(&mut s, guest, None, &p("/local/domain/7"))
            .unwrap();
        assert_eq!(dir, vec!["device", "device-setup", "name"]);
        let dir = l
            .directory(&mut s, guest, None, &p("/local/domain/7/device"))
            .unwrap();
        assert_eq!(dir, vec!["vbd", "vif"]);
    }

    #[test]
    fn node_quota_enforced() {
        let mut l = XenStoreLogic::with_quotas(Quotas {
            nodes: 5,
            ..Quotas::default()
        });
        let mut s = XenStoreState::new();
        let dom0 = DomId(0);
        let guest = DomId(7);
        l.set_privileged(dom0, true);
        l.write(&mut s, dom0, None, &p("/g"), b"").unwrap();
        let mut perms = NodePerms::owner_only(guest);
        perms.owner = guest;
        l.set_perms(&mut s, dom0, &p("/g"), perms).unwrap();
        for i in 0..4 {
            l.write(&mut s, guest, None, &p(&format!("/g/n{i}")), b"v")
                .unwrap();
        }
        assert!(matches!(
            l.write(&mut s, guest, None, &p("/g/n4"), b"v"),
            Err(XsError::Quota("nodes"))
        ));
        // Privileged connections are exempt (dom0 hosts the toolstack).
        l.write(&mut s, dom0, None, &p("/t/a/b/c/d/e/f"), b"v")
            .unwrap();
    }

    #[test]
    fn watch_fires_on_descendant_write() {
        let (mut l, mut s, dom0, guest) = setup();
        l.watch(&mut s, dom0, &p("/local/domain/7/device"), "backend-watch")
            .unwrap();
        let initial = l.poll_watch(dom0).unwrap();
        assert_eq!(initial.path, p("/local/domain/7/device"));
        l.write(
            &mut s,
            guest,
            None,
            &p("/local/domain/7/device/vif/0/state"),
            b"1",
        )
        .unwrap();
        let ev = l.poll_watch(dom0).unwrap();
        assert_eq!(ev.path, p("/local/domain/7/device/vif/0/state"));
        assert_eq!(ev.token, "backend-watch");
    }

    #[test]
    fn watch_quota_enforced() {
        let mut l = XenStoreLogic::with_quotas(Quotas {
            watches: 2,
            ..Quotas::default()
        });
        let mut s = XenStoreState::new();
        let g = DomId(7);
        l.watch(&mut s, g, &p("/a"), "1").unwrap();
        l.watch(&mut s, g, &p("/b"), "2").unwrap();
        assert!(matches!(
            l.watch(&mut s, g, &p("/c"), "3"),
            Err(XsError::Quota("watches"))
        ));
    }

    #[test]
    fn transaction_commit_applies_atomically() {
        let (mut l, mut s, dom0, _) = setup();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/a"), b"1").unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/b"), b"2").unwrap();
        // Not visible outside the transaction yet.
        assert!(matches!(
            l.read(&mut s, dom0, None, &p("/tool/a")),
            Err(XsError::NoEnt(_))
        ));
        // Visible inside.
        assert_eq!(l.read(&mut s, dom0, Some(t), &p("/tool/a")).unwrap(), b"1");
        l.txn_end(&mut s, dom0, t, true).unwrap();
        assert_eq!(l.read(&mut s, dom0, None, &p("/tool/a")).unwrap(), b"1");
        assert_eq!(l.read(&mut s, dom0, None, &p("/tool/b")).unwrap(), b"2");
    }

    #[test]
    fn transaction_abort_discards() {
        let (mut l, mut s, dom0, _) = setup();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/a"), b"1").unwrap();
        l.txn_end(&mut s, dom0, t, false).unwrap();
        assert!(matches!(
            l.read(&mut s, dom0, None, &p("/tool/a")),
            Err(XsError::NoEnt(_))
        ));
    }

    #[test]
    fn conflicting_transaction_gets_eagain() {
        let (mut l, mut s, dom0, _) = setup();
        l.write(&mut s, dom0, None, &p("/tool/counter"), b"0")
            .unwrap();
        let t = l.txn_start(&mut s, dom0).unwrap();
        let v = l.read(&mut s, dom0, Some(t), &p("/tool/counter")).unwrap();
        assert_eq!(v, b"0");
        // A concurrent non-transactional write lands first.
        l.write(&mut s, dom0, None, &p("/tool/counter"), b"9")
            .unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/counter"), b"1")
            .unwrap();
        assert!(matches!(
            l.txn_end(&mut s, dom0, t, true),
            Err(XsError::Again)
        ));
        // The concurrent write survives.
        assert_eq!(
            l.read(&mut s, dom0, None, &p("/tool/counter")).unwrap(),
            b"9"
        );
    }

    #[test]
    fn disjoint_transactions_do_not_conflict() {
        let (mut l, mut s, dom0, _) = setup();
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/a"), b"1").unwrap();
        // Unrelated write elsewhere.
        l.write(&mut s, dom0, None, &p("/other/key"), b"x").unwrap();
        assert!(l.txn_end(&mut s, dom0, t, true).is_ok());
    }

    #[test]
    fn txn_quota_enforced() {
        let mut l = XenStoreLogic::with_quotas(Quotas {
            transactions: 2,
            ..Quotas::default()
        });
        let mut s = XenStoreState::new();
        let g = DomId(7);
        let _t1 = l.txn_start(&mut s, g).unwrap();
        let _t2 = l.txn_start(&mut s, g).unwrap();
        assert!(matches!(l.txn_start(&mut s, g), Err(XsError::Quota(_))));
    }

    #[test]
    fn foreign_transaction_cannot_be_ended() {
        let (mut l, mut s, dom0, guest) = setup();
        let t = l.txn_start(&mut s, dom0).unwrap();
        assert!(matches!(
            l.txn_end(&mut s, guest, t, true),
            Err(XsError::Acc { .. })
        ));
        assert_eq!(l.open_txns(), 1, "transaction survives foreign end attempt");
    }

    #[test]
    fn restart_preserves_store_and_watches() {
        let (mut l, mut s, dom0, guest) = setup();
        l.write(&mut s, guest, None, &p("/local/domain/7/name"), b"v")
            .unwrap();
        l.watch(&mut s, dom0, &p("/local/domain/7"), "tok").unwrap();
        let _ = l.poll_watch(dom0);
        let t = l.txn_start(&mut s, dom0).unwrap();
        l.write(&mut s, dom0, Some(t), &p("/tool/pending"), b"x")
            .unwrap();

        // Microreboot Logic.
        l.restart(&mut s);

        // Durable data survives.
        assert_eq!(
            l.read(&mut s, guest, None, &p("/local/domain/7/name"))
                .unwrap(),
            b"v"
        );
        // Watches survive (journaled through State) and still fire.
        l.write(&mut s, guest, None, &p("/local/domain/7/state"), b"4")
            .unwrap();
        let ev = l.poll_watch(dom0).unwrap();
        assert_eq!(ev.token, "tok");
        // In-flight transactions are gone.
        assert!(matches!(
            l.txn_end(&mut s, dom0, t, true),
            Err(XsError::BadTxn(_))
        ));
        assert!(matches!(
            l.read(&mut s, dom0, None, &p("/tool/pending")),
            Err(XsError::NoEnt(_))
        ));
        // Quota accounting was rebuilt: home + name (pre-restart) + state
        // (written just above).
        assert_eq!(l.node_count(guest), 3);
        assert_eq!(l.restarts, 1);
    }

    #[test]
    fn remove_domain_cleans_everything() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.watch(&mut s, guest, &p("/local/domain/7"), "t").unwrap();
        l.remove_domain(&mut s, guest);
        assert_eq!(l.node_count(guest), 0);
        assert!(l.poll_watch(guest).is_none());
        // Journal cleaned: restart does not resurrect the watch.
        l.restart(&mut s);
        l.write(&mut s, DomId(0), None, &p("/local/domain/7/x"), b"v")
            .unwrap();
        assert!(l.poll_watch(guest).is_none());
    }

    #[test]
    fn reserved_namespace_not_writable() {
        let (mut l, mut s, dom0, _) = setup();
        assert!(matches!(
            l.write(&mut s, dom0, None, &p("/@watch/evil"), b"x"),
            Err(XsError::Inval(_))
        ));
    }

    #[test]
    fn set_perms_requires_ownership() {
        let (mut l, mut s, _dom0, guest) = setup();
        l.write(&mut s, guest, None, &p("/local/domain/7/key"), b"v")
            .unwrap();
        let other = DomId(9);
        assert!(matches!(
            l.set_perms(
                &mut s,
                other,
                &p("/local/domain/7/key"),
                NodePerms::owner_only(other)
            ),
            Err(XsError::Acc { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use xoar_sim::prop::Runner;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    /// Logic restart at any point between operations never loses
    /// committed writes.
    #[test]
    fn restart_never_loses_committed_data() {
        Runner::cases(64).run("restart never loses committed data", |g| {
            let ops = g.vec(1..40, |g| (g.u8(0..4), g.u32(0..8), g.u32(0..4)));
            let mut l = XenStoreLogic::new();
            let mut s = XenStoreState::new();
            let dom0 = DomId(0);
            l.set_privileged(dom0, true);
            let mut shadow: std::collections::BTreeMap<String, Vec<u8>> = Default::default();
            for (kind, key, val) in ops {
                let path = p(&format!("/k{key}"));
                match kind {
                    0 | 1 => {
                        let value = format!("v{val}").into_bytes();
                        l.write(&mut s, dom0, None, &path, &value).unwrap();
                        shadow.insert(path.as_str().to_string(), value);
                    }
                    2 => {
                        if shadow.remove(path.as_str()).is_some() {
                            l.rm(&mut s, dom0, None, &path).unwrap();
                        }
                    }
                    _ => {
                        l.restart(&mut s);
                    }
                }
            }
            l.restart(&mut s);
            for (key, value) in shadow {
                assert_eq!(l.read(&mut s, dom0, None, &p(&key)).unwrap(), value);
            }
        });
    }

    /// Quota accounting matches the real number of owned nodes after
    /// arbitrary writes and removals (no drift).
    #[test]
    fn quota_accounting_no_drift() {
        Runner::cases(64).run("quota accounting has no drift", |g| {
            let keys = g.vec(1..30, |g| g.u32(0..10));
            let mut l = XenStoreLogic::new();
            let mut s = XenStoreState::new();
            let dom0 = DomId(0);
            l.set_privileged(dom0, true);
            let mut present: std::collections::BTreeSet<u32> = Default::default();
            for k in keys {
                if present.contains(&k) {
                    l.rm(&mut s, dom0, None, &p(&format!("/n{k}"))).unwrap();
                    present.remove(&k);
                } else {
                    l.write(&mut s, dom0, None, &p(&format!("/n{k}")), b"v")
                        .unwrap();
                    present.insert(k);
                }
            }
            assert_eq!(l.node_count(dom0), present.len());
        });
    }
}
