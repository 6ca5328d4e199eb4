//! CLib error type.

use clio_net::Mac;
use clio_proto::Status;

/// Errors surfaced to applications by CLib.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClioError {
    /// The memory node reported a failure status.
    Remote(Status),
    /// The request (and all its retries) went unanswered (§4.5 T4: "we
    /// report the error to the application" when the dedup window is
    /// exhausted). Carries enough context to tell a slow board from a
    /// dead one: what kind of op, which MN, and how many attempts were
    /// made before giving up.
    TimedOut {
        /// Kind of the op that timed out ("read", "write", ...).
        op: &'static str,
        /// The memory node the op was addressed to.
        mn: Mac,
        /// Attempts made (first send plus retries) before giving up.
        attempts: u32,
    },
    /// The target MN was presumed dead and the op failed fast.
    /// **Unconstructed:** the circuit breaker that returned it is gone (the
    /// transport retries to exhaustion and reports `TimedOut`, as Clio's
    /// prototype does); the variant stays only until `benchmark/`, which
    /// reads it, can drop it in the same change.
    Unreachable {
        /// The memory node presumed dead.
        mn: Mac,
    },
    /// The op's deadline elapsed and it was cancelled before completing.
    DeadlineExceeded,
    /// The target region moved to another MN; the caller should refresh its
    /// routing (handled transparently by the cluster runtime).
    Moved,
    /// The access straddles two memory nodes: no single MN serves every
    /// byte of `[va, va + len)`, so the op is refused instead of silently
    /// routed to the start address's owner. Callers must split the access
    /// at the ownership boundary.
    SpansOwners {
        /// Start of the refused access.
        va: u64,
        /// Length of the refused access.
        len: u64,
    },
    /// An async handle was polled by a process that did not issue it (or
    /// after its issuing process released it). **Unconstructed:** the
    /// handle-based runtime that returned it is gone (ops are futures now);
    /// the variant stays only until `benchmark/`, which matches this enum
    /// exhaustively, can drop its arm in the same change.
    InvalidHandle,
}

impl std::fmt::Display for ClioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClioError::Remote(s) => write!(f, "remote error: {s}"),
            ClioError::TimedOut { op, mn, attempts } => {
                write!(f, "{op} to {mn} timed out after {attempts} attempts")
            }
            ClioError::Unreachable { mn } => {
                write!(f, "{mn} unreachable")
            }
            ClioError::DeadlineExceeded => write!(f, "deadline exceeded before completion"),
            ClioError::Moved => write!(f, "region moved to another memory node"),
            ClioError::SpansOwners { va, len } => {
                write!(f, "access {va:#x}+{len} spans multiple memory nodes; split it")
            }
            ClioError::InvalidHandle => {
                write!(f, "async handle does not belong to this process")
            }
        }
    }
}

impl std::error::Error for ClioError {}

impl From<Status> for ClioError {
    fn from(s: Status) -> Self {
        match s {
            Status::Moved => ClioError::Moved,
            other => ClioError::Remote(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_and_display() {
        assert_eq!(ClioError::from(Status::Moved), ClioError::Moved);
        assert_eq!(ClioError::from(Status::PermDenied), ClioError::Remote(Status::PermDenied));
        let timeout = ClioError::TimedOut { op: "read", mn: Mac(2), attempts: 4 };
        assert!(timeout.to_string().contains("timed out"));
        assert!(timeout.to_string().contains("read"), "op kind surfaced");
        assert!(timeout.to_string().contains("4 attempts"), "attempt count surfaced");
        assert!(ClioError::Unreachable { mn: Mac(2) }.to_string().contains("unreachable"));
        assert!(ClioError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(ClioError::Remote(Status::InvalidAddr).to_string().contains("invalid"));
        assert!(ClioError::InvalidHandle.to_string().contains("does not belong"));
        let spans = ClioError::SpansOwners { va: 0x1000, len: 8192 };
        assert!(spans.to_string().contains("spans multiple memory nodes"));
        assert!(spans.to_string().contains("0x1000"));
    }
}
