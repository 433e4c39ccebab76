//! XenStore watches: the notification mechanism split drivers rely on.
//!
//! A connection registers a watch on a path with an opaque token; any
//! modification to that path *or any node beneath it* queues a watch event
//! `(fired_path, token)` for the connection. Registration also fires one
//! synthetic event immediately, which is how real guests avoid the race
//! between checking a key and watching it.

use std::collections::VecDeque;

use xoar_hypervisor::DomId;

use crate::path::XsPath;

/// One registered watch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Watch {
    /// Watching domain.
    pub dom: DomId,
    /// Watched path (fires for this path and descendants).
    pub path: XsPath,
    /// Opaque token returned with every event.
    pub token: String,
}

/// A queued watch event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchEvent {
    /// Domain to deliver to.
    pub dom: DomId,
    /// The path that changed (the *modified* path, not the watch root).
    pub path: XsPath,
    /// The registering token.
    pub token: String,
}

/// The watch registry and pending-event queue.
#[derive(Debug, Default)]
pub struct WatchRegistry {
    watches: Vec<Watch>,
    pending: VecDeque<WatchEvent>,
}

impl WatchRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a watch and queues the initial synthetic event.
    ///
    /// Duplicate `(dom, path, token)` triples are rejected, matching the
    /// C implementation's `EEXIST`.
    pub fn register(&mut self, dom: DomId, path: XsPath, token: String) -> bool {
        if self
            .watches
            .iter()
            .any(|w| w.dom == dom && w.path == path && w.token == token)
        {
            return false;
        }
        self.pending.push_back(WatchEvent {
            dom,
            path: path.clone(),
            token: token.clone(),
        });
        self.watches.push(Watch { dom, path, token });
        true
    }

    /// Re-registers a watch recovered from the State journal: no
    /// synthetic initial event is queued (the watcher already received
    /// one when it registered in a previous Logic epoch). Duplicates are
    /// still rejected.
    pub fn register_recovered(&mut self, dom: DomId, path: XsPath, token: String) -> bool {
        if self
            .watches
            .iter()
            .any(|w| w.dom == dom && w.path == path && w.token == token)
        {
            return false;
        }
        self.watches.push(Watch { dom, path, token });
        true
    }

    /// Drops every registration and pending event, keeping the allocations (Logic microreboot support: the registry
    /// is rebuilt from the State journal without reallocating).
    pub fn clear(&mut self) {
        self.watches.clear();
        self.pending.clear();
    }

    /// Removes a watch. Returns whether one was removed.
    pub fn unregister(&mut self, dom: DomId, path: &XsPath, token: &str) -> bool {
        let before = self.watches.len();
        self.watches
            .retain(|w| !(w.dom == dom && &w.path == path && w.token == token));
        self.watches.len() != before
    }

    /// Fires all watches covering `modified`, queueing one event per match.
    pub fn fire(&mut self, modified: &XsPath) -> usize {
        let mut n = 0;
        for w in &self.watches {
            if modified.starts_with(&w.path) {
                self.pending.push_back(WatchEvent {
                    dom: w.dom,
                    path: modified.clone(),
                    token: w.token.clone(),
                });
                n += 1;
            }
        }
        n
    }

    /// Dequeues the next pending event for `dom`.
    pub fn poll(&mut self, dom: DomId) -> Option<WatchEvent> {
        let idx = self.pending.iter().position(|e| e.dom == dom)?;
        self.pending.remove(idx)
    }

    /// Number of watches registered by `dom`.
    pub fn count_for(&self, dom: DomId) -> usize {
        self.watches.iter().filter(|w| w.dom == dom).count()
    }

    /// Drops all watches and pending events of `dom` (domain death).
    pub fn remove_domain(&mut self, dom: DomId) {
        self.watches.retain(|w| w.dom != dom);
        self.pending.retain(|e| e.dom != dom);
    }

    /// Total watches registered right now.
    pub fn len(&self) -> usize {
        self.watches.len()
    }

    /// Whether no watches are registered.
    pub fn is_empty(&self) -> bool {
        self.watches.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> XsPath {
        XsPath::parse(s).unwrap()
    }

    #[test]
    fn registration_fires_synthetic_event() {
        let mut r = WatchRegistry::new();
        assert!(r.register(DomId(1), p("/local"), "tok".into()));
        let e = r.poll(DomId(1)).unwrap();
        assert_eq!(e.path, p("/local"));
        assert_eq!(e.token, "tok");
        assert!(r.poll(DomId(1)).is_none());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = WatchRegistry::new();
        assert!(r.register(DomId(1), p("/a"), "t".into()));
        assert!(!r.register(DomId(1), p("/a"), "t".into()));
        // Same path, different token: fine.
        assert!(r.register(DomId(1), p("/a"), "t2".into()));
    }

    #[test]
    fn fire_covers_descendants() {
        let mut r = WatchRegistry::new();
        r.register(DomId(1), p("/local/domain/1/device"), "dev".into());
        let _ = r.poll(DomId(1)); // Drain synthetic.
        let n = r.fire(&p("/local/domain/1/device/vif/0/state"));
        assert_eq!(n, 1);
        let e = r.poll(DomId(1)).unwrap();
        assert_eq!(e.path, p("/local/domain/1/device/vif/0/state"));
        assert_eq!(e.token, "dev");
    }

    #[test]
    fn fire_does_not_cover_siblings_or_ancestors() {
        let mut r = WatchRegistry::new();
        r.register(DomId(1), p("/a/b"), "t".into());
        let _ = r.poll(DomId(1));
        assert_eq!(r.fire(&p("/a/c")), 0);
        assert_eq!(
            r.fire(&p("/a")),
            0,
            "ancestor change does not fire child watch"
        );
        assert_eq!(r.fire(&p("/a/bb")), 0, "component boundary respected");
    }

    #[test]
    fn multiple_watchers_all_fire() {
        let mut r = WatchRegistry::new();
        r.register(DomId(1), p("/a"), "t1".into());
        r.register(DomId(2), p("/a"), "t2".into());
        r.register(DomId(2), p("/"), "root".into());
        let _ = r.poll(DomId(1));
        let _ = r.poll(DomId(2));
        let _ = r.poll(DomId(2));
        assert_eq!(r.fire(&p("/a/x")), 3);
        assert!(r.poll(DomId(1)).is_some());
        assert_eq!(r.count_for(DomId(2)), 2);
    }

    #[test]
    fn unregister_stops_events() {
        let mut r = WatchRegistry::new();
        r.register(DomId(1), p("/a"), "t".into());
        let _ = r.poll(DomId(1));
        assert!(r.unregister(DomId(1), &p("/a"), "t"));
        assert!(!r.unregister(DomId(1), &p("/a"), "t"));
        assert_eq!(r.fire(&p("/a/x")), 0);
    }

    #[test]
    fn remove_domain_clears_watches_and_pending() {
        let mut r = WatchRegistry::new();
        r.register(DomId(1), p("/a"), "t".into());
        r.register(DomId(2), p("/a"), "t".into());
        r.remove_domain(DomId(1));
        assert!(r.poll(DomId(1)).is_none());
        assert_eq!(r.len(), 1);
        assert_eq!(r.fire(&p("/a/x")), 1);
    }

    #[test]
    fn poll_is_per_domain_fifo() {
        let mut r = WatchRegistry::new();
        r.register(DomId(1), p("/a"), "t".into());
        r.register(DomId(2), p("/a"), "u".into());
        let _ = r.poll(DomId(1));
        let _ = r.poll(DomId(2));
        r.fire(&p("/a/1"));
        r.fire(&p("/a/2"));
        let e1 = r.poll(DomId(1)).unwrap();
        let e2 = r.poll(DomId(1)).unwrap();
        assert_eq!(e1.path, p("/a/1"));
        assert_eq!(e2.path, p("/a/2"));
        assert_eq!(r.poll(DomId(2)).unwrap().path, p("/a/1"));
    }
}
