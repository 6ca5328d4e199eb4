//! MN→MN region migration (paper §4.7).
//!
//! Clio over-commits each MN; when a node runs low on physical memory it
//! proactively migrates a rarely-accessed region to a less-pressured node
//! (instead of swapping, which would disturb the data path). During
//! migration, client requests to the region are refused with
//! [`Status::Conflict`] (CLib retries); once the region has landed, the old
//! owner answers [`Status::Moved`] so CLib refreshes its routing via the
//! global controller.
//!
//! [`Status::Conflict`]: clio_proto::Status::Conflict
//! [`Status::Moved`]: clio_proto::Status::Moved

use bytes::Bytes;
use clio_net::Mac;
use clio_proto::{Perm, Pid};

/// Phase of a region on its (previous) owner node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionPhase {
    /// Data is streaming out; requests are paused (retried by CLib).
    Migrating,
    /// The region now lives on another node.
    Moved {
        /// The new owner's network address.
        to: Mac,
    },
}

/// One tracked region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Region {
    pid: Pid,
    start: u64,
    len: u64,
    phase: RegionPhase,
}

/// Region table consulted by the fast path before executing a request.
///
/// Sized by in-progress/completed migrations, not by clients — the lookup is
/// a short scan because concurrent migrations are rare (§4.7: migration
/// "happens rarely").
#[derive(Debug, Clone, Default)]
pub struct RegionTable {
    regions: Vec<Region>,
}

impl RegionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The phase of the region containing `(pid, va)`, if it is migrating
    /// or moved.
    pub fn phase_of(&self, pid: Pid, va: u64) -> Option<RegionPhase> {
        self.regions
            .iter()
            .find(|r| r.pid == pid && va >= r.start && va < r.start + r.len)
            .map(|r| r.phase)
    }

    /// Marks a region as migrating.
    pub fn begin(&mut self, pid: Pid, start: u64, len: u64) {
        self.regions.push(Region { pid, start, len, phase: RegionPhase::Migrating });
    }

    /// Marks a migrating region as moved to `to`.
    ///
    /// # Panics
    ///
    /// Panics if the region was not previously marked migrating.
    pub fn complete(&mut self, pid: Pid, start: u64, to: Mac) {
        let r = self
            .regions
            .iter_mut()
            .find(|r| r.pid == pid && r.start == start && r.phase == RegionPhase::Migrating)
            .expect("completing a migration that never began");
        r.phase = RegionPhase::Moved { to };
    }

    /// Aborts a migration (e.g. the destination refused the range).
    pub fn abort(&mut self, pid: Pid, start: u64) {
        self.regions
            .retain(|r| !(r.pid == pid && r.start == start && r.phase == RegionPhase::Migrating));
    }

    /// Number of tracked regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True if no regions are tracked.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

/// Control message instructing a board to migrate a region (sent by the
/// global controller as a management-plane actor message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateCommand {
    /// Owning process.
    pub pid: Pid,
    /// Region start (page aligned).
    pub start: u64,
    /// Region length.
    pub len: u64,
    /// Destination memory node.
    pub dst: Mac,
}

/// Data-plane messages exchanged between the source and destination boards
/// over the regular network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationMsg {
    /// Announces an incoming region so the destination reserves the VA
    /// range before data arrives.
    Offer {
        /// Owning process.
        pid: Pid,
        /// Region start.
        start: u64,
        /// Region length.
        len: u64,
        /// Permissions of the range.
        perm: Perm,
    },
    /// The destination accepted (or refused) the offer.
    OfferReply {
        /// Owning process.
        pid: Pid,
        /// Region start.
        start: u64,
        /// Whether the range was reserved.
        accepted: bool,
    },
    /// One page of region data.
    PageData {
        /// Owning process.
        pid: Pid,
        /// Virtual page number.
        vpn: u64,
        /// Permissions of the page.
        perm: Perm,
        /// Page contents.
        data: Bytes,
    },
    /// All pages sent; the destination should activate the region.
    Commit {
        /// Owning process.
        pid: Pid,
        /// Region start.
        start: u64,
        /// Region length.
        len: u64,
    },
    /// The destination activated the region; the source may free it.
    Done {
        /// Owning process.
        pid: Pid,
        /// Region start.
        start: u64,
    },
}

/// Report sent to the global controller when a board's physical memory
/// pressure crosses its threshold (management plane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureReport {
    /// The reporting board.
    pub mac: Mac,
    /// Its current physical-memory utilization in `[0, 1]`.
    pub utilization: f64,
}

/// Notification to the controller that a migration finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationComplete {
    /// Owning process.
    pub pid: Pid,
    /// Region start.
    pub start: u64,
    /// Region length.
    pub len: u64,
    /// New owner.
    pub dst: Mac,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_lifecycle() {
        let mut t = RegionTable::new();
        assert!(t.is_empty());
        t.begin(Pid(1), 0x1000, 0x2000);
        assert_eq!(t.phase_of(Pid(1), 0x1000), Some(RegionPhase::Migrating));
        assert_eq!(t.phase_of(Pid(1), 0x2fff), Some(RegionPhase::Migrating));
        assert_eq!(t.phase_of(Pid(1), 0x3000), None);
        assert_eq!(t.phase_of(Pid(2), 0x1000), None);
        t.complete(Pid(1), 0x1000, Mac(9));
        assert_eq!(t.phase_of(Pid(1), 0x1500), Some(RegionPhase::Moved { to: Mac(9) }));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn abort_clears_migrating_state() {
        let mut t = RegionTable::new();
        t.begin(Pid(1), 0, 4096);
        t.abort(Pid(1), 0);
        assert!(t.is_empty());
        assert_eq!(t.phase_of(Pid(1), 0), None);
    }

    #[test]
    #[should_panic(expected = "never began")]
    fn completing_unknown_region_panics() {
        let mut t = RegionTable::new();
        t.complete(Pid(1), 0, Mac(1));
    }
}
