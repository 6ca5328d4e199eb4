//! Unified metrics: a component's counters are plain fields, and the
//! [`Registry`] is a walk over them.
//!
//! * **A group is declared once.** [`counters!`](crate::counters) turns one
//!   field list into a plain `*Stats` struct of `pub u64`s (the live state:
//!   the owner bumps `self.stats.rx_frames += 1`) and its `each`, which
//!   yields every field as `"<group>.<field>"`.
//! * **A snapshot is a walk.** A node implements [`Metrics`] by chaining
//!   the `each` of the groups it owns; a [`Registry`] borrows the nodes and
//!   runs their walks under a prefix (`mn0.board.rx_frames`). Nothing is
//!   registered ahead of time and no cell is shared, so a `clone()` of a
//!   component counts on its own.
//! * **Gauges are computed** by the walk from state the component already
//!   keeps, so they cannot drift from it.
//! * **A window is two snapshots**: counters only grow; subtract.

use std::collections::BTreeMap;

/// Declares one group of counters: a `Copy` struct of `pub u64` fields,
/// all zero by `Default`, plus `each`, which yields every field under the
/// name `"<group>.<field>"`. The field list here is the only place the
/// group's counters are enumerated.
///
/// ```
/// clio_trace::counters! {
///     /// Door statistics.
///     pub struct DoorStats: "door" {
///         /// Times opened.
///         opened,
///         /// Times slammed.
///         slammed,
///     }
/// }
/// let mut s = DoorStats::default();
/// s.opened += 2;
/// let mut seen = Vec::new();
/// s.each(&mut |name, v| seen.push((name, v)));
/// assert_eq!(seen, [("door.opened", 2), ("door.slammed", 0)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident : $group:literal {
            $( $(#[$fmeta:meta])* $field:ident ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $name {
            /// Calls `f` with every counter of the group, in declaration
            /// order, as `("<group>.<field>", value)`.
            pub fn each(&self, f: &mut $crate::metrics::Visit<'_>) {
                $( f(concat!($group, ".", stringify!($field)), self.$field); )*
            }
        }
    };
}

/// What a walk calls with each `("<group>.<name>", value)`.
pub type Visit<'a> = dyn FnMut(&'static str, u64) + 'a;

/// A node whose metrics can be walked: the groups it owns, and those of
/// the components inside it.
pub trait Metrics {
    /// Yields every counter (monotonic since the node was built).
    fn counters(&self, f: &mut Visit<'_>);

    /// Yields every gauge (a current level), computed from live state.
    /// A node without gauges keeps this default.
    fn gauges(&self, _f: &mut Visit<'_>) {}
}

/// A plain-data copy of every metric at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
}

/// A borrowing view over a set of nodes: every read walks the nodes as
/// they are now. Names are `<prefix>.<group>.<name>`
/// (`cn0.transport.retries`).
#[derive(Default)]
pub struct Registry<'a> {
    nodes: Vec<(String, &'a dyn Metrics)>,
}

impl<'a> Registry<'a> {
    /// Adds `node`, its metrics named under `prefix` (which holds no dot).
    pub fn add(&mut self, prefix: impl Into<String>, node: &'a dyn Metrics) {
        self.nodes.push((prefix.into(), node));
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (prefix, node) in &self.nodes {
            node.counters(&mut |name, v| {
                snap.counters.insert(format!("{prefix}.{name}"), v);
            });
            node.gauges(&mut |name, v| {
                snap.gauges.insert(format!("{prefix}.{name}"), v);
            });
        }
        snap
    }

    /// A counter's current value (`None` if no node yields `name`).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.find(name, |node, f| node.counters(f))
    }

    /// A gauge's current value (`None` if no node yields `name`).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.find(name, |node, f| node.gauges(f))
    }

    fn find(&self, name: &str, walk: impl Fn(&dyn Metrics, &mut Visit<'_>)) -> Option<u64> {
        let (prefix, rest) = name.split_once('.')?;
        let (_, node) = self.nodes.iter().find(|(p, _)| p == prefix)?;
        let mut found = None;
        walk(*node, &mut |n, v| {
            if n == rest {
                found = Some(v);
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counters! {
        /// A test group.
        struct LinkStats: "link" {
            /// Frames sent.
            tx,
            /// Frames received.
            rx,
        }
    }

    #[derive(Clone, Default)]
    struct Node {
        stats: LinkStats,
        queue: Vec<u8>,
    }

    impl Metrics for Node {
        fn counters(&self, f: &mut Visit<'_>) {
            self.stats.each(f);
        }
        fn gauges(&self, f: &mut Visit<'_>) {
            f("link.queued", self.queue.len() as u64);
        }
    }

    #[test]
    fn registry_walks_live_state_under_prefixes() {
        let mut a = Node::default();
        let mut b = a.clone();
        a.stats.tx += 3;
        a.queue.push(0);
        b.stats.rx += 1;
        let mut reg = Registry::default();
        reg.add("cn0", &a);
        reg.add("cn1", &b);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["cn0.link.rx", "cn0.link.tx", "cn1.link.rx", "cn1.link.tx"]);
        assert_eq!(snap.counters["cn0.link.tx"], 3);
        assert_eq!(snap.counters["cn1.link.tx"], 0, "a clone counts on its own");
        assert_eq!(snap.gauges["cn0.link.queued"], 1);
        assert_eq!(reg.counter("cn1.link.rx"), Some(1));
        assert_eq!(reg.gauge("cn1.link.queued"), Some(0));
        // Unknown node, unknown name, and a counter asked for as a gauge.
        assert_eq!(reg.counter("cn2.link.rx"), None);
        assert_eq!(reg.counter("cn0.link.nope"), None);
        assert_eq!(reg.gauge("cn0.link.tx"), None);
    }
}
