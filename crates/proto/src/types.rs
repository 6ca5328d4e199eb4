//! Protocol-level identifiers, permissions and status codes.

use std::fmt;

/// A global process identifier — Clio's protection domain.
///
/// Clio assigns every application a cluster-unique PID when it starts
/// (paper §3.1); the PID names the process's **remote address space (RAS)**,
/// so page-table entries, permission checks and allocation trees are all
/// keyed by `(Pid, virtual page)`. Processes on different CNs that share a
/// RAS present the same PID, and extend-path offloads get their own PID
/// (§4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pid(pub u64);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// A request identifier, unique among a CN's outstanding requests.
///
/// Request ids tie responses back to requests (responses double as ACKs) and
/// key the MN-side dedup buffer. A retry gets a **fresh** id plus a
/// `retry_of` pointer to the id it replaces (§4.5 T4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Access permissions attached to an allocated virtual address range,
/// checked by the fast path on every access (requirement R5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perm(u8);

impl Perm {
    /// Read permission.
    pub const READ: Perm = Perm(1);
    /// Write permission.
    pub const WRITE: Perm = Perm(2);
    /// Read + write.
    pub const RW: Perm = Perm(3);

    /// True if all permissions in `other` are present in `self`.
    pub fn allows(self, other: Perm) -> bool {
        self.0 & other.0 == other.0
    }

    /// The raw bits (wire encoding).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs from wire bits, masking unknown flags.
    pub fn from_bits(bits: u8) -> Perm {
        Perm(bits & Self::RW.0)
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = if self.allows(Perm::READ) { "r" } else { "-" };
        let w = if self.allows(Perm::WRITE) { "w" } else { "-" };
        write!(f, "{r}{w}")
    }
}

/// Outcome of a memory request, carried in every response header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Status {
    /// Success.
    #[default]
    Ok,
    /// The address is not mapped in the requesting process's RAS.
    InvalidAddr,
    /// The mapping exists but does not grant the requested access.
    PermDenied,
    /// The MN could not allocate virtual addresses (hash overflow after
    /// retries, or address space exhausted).
    OutOfVirtualMemory,
    /// The MN has no free physical pages left.
    OutOfPhysicalMemory,
    /// The addressed region has been migrated to another MN; the CN should
    /// refresh its routing and retry (§4.7).
    Moved,
    /// The request conflicts with an in-flight metadata operation (e.g. an
    /// access racing an `rfree`) and must be retried by the caller.
    Conflict,
    /// The request type or offload id is not recognized by this MN.
    Unsupported,
}

impl Status {
    /// True for [`Status::Ok`].
    pub fn is_ok(self) -> bool {
        self == Status::Ok
    }

    /// Wire encoding.
    pub fn to_wire(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::InvalidAddr => 1,
            Status::PermDenied => 2,
            Status::OutOfVirtualMemory => 3,
            Status::OutOfPhysicalMemory => 4,
            Status::Moved => 5,
            Status::Conflict => 6,
            Status::Unsupported => 7,
        }
    }

    /// Wire decoding.
    ///
    /// # Errors
    ///
    /// Returns `None` for unknown codes.
    pub fn from_wire(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::InvalidAddr,
            2 => Status::PermDenied,
            3 => Status::OutOfVirtualMemory,
            4 => Status::OutOfPhysicalMemory,
            5 => Status::Moved,
            6 => Status::Conflict,
            7 => Status::Unsupported,
            _ => return None,
        })
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Ok => "ok",
            Status::InvalidAddr => "invalid address",
            Status::PermDenied => "permission denied",
            Status::OutOfVirtualMemory => "out of virtual memory",
            Status::OutOfPhysicalMemory => "out of physical memory",
            Status::Moved => "region moved",
            Status::Conflict => "conflicting metadata operation in flight",
            Status::Unsupported => "unsupported request",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perm_lattice() {
        assert!(Perm::RW.allows(Perm::READ));
        assert!(Perm::RW.allows(Perm::WRITE));
        assert!(Perm::RW.allows(Perm::RW));
        assert!(!Perm::READ.allows(Perm::WRITE));
        assert!(!Perm::default().allows(Perm::READ));
        assert!(Perm::default().allows(Perm::default()));
    }

    #[test]
    fn perm_wire_roundtrip_masks_unknown_bits() {
        assert_eq!(Perm::from_bits(Perm::RW.bits()), Perm::RW);
        assert_eq!(Perm::from_bits(0xFF), Perm::RW);
    }

    #[test]
    fn status_wire_roundtrip() {
        for s in [
            Status::Ok,
            Status::InvalidAddr,
            Status::PermDenied,
            Status::OutOfVirtualMemory,
            Status::OutOfPhysicalMemory,
            Status::Moved,
            Status::Conflict,
            Status::Unsupported,
        ] {
            assert_eq!(Status::from_wire(s.to_wire()), Some(s));
        }
        assert_eq!(Status::from_wire(200), None);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(Perm::READ.to_string(), "r-");
        assert_eq!(Perm::RW.to_string(), "rw");
        assert_eq!(Pid(4).to_string(), "pid4");
        assert_eq!(ReqId(9).to_string(), "req9");
        assert!(Status::PermDenied.to_string().contains("denied"));
    }
}
