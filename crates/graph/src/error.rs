//! Error type shared by the graph substrate.

use std::fmt;

/// Errors produced while constructing or manipulating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex id outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The number of vertices in the graph.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied; the matching/vertex-cover model of
    /// the paper is defined on simple graphs.
    SelfLoop {
        /// The vertex with the self-loop.
        vertex: u32,
    },
    /// A bipartite edge referenced a left vertex outside `0..left_n`.
    LeftVertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The number of left vertices.
        left_n: usize,
    },
    /// A bipartite edge referenced a right vertex outside `0..right_n`.
    RightVertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The number of right vertices.
        right_n: usize,
    },
    /// The number of machines `k` must be at least one.
    InvalidMachineCount {
        /// The requested number of machines.
        k: usize,
    },
    /// A generator received parameters it cannot satisfy
    /// (for example a probability outside `[0, 1]`).
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// An I/O operation on an edge-arena file failed. The underlying
    /// `std::io::Error` is rendered into `context` so the variant stays
    /// `Clone + PartialEq + Eq` like the rest of the enum.
    ArenaIo {
        /// What was being done, plus the rendered I/O error.
        context: String,
    },
    /// An arena file did not start with the `RCARENA3` magic bytes — it is
    /// not an edge-arena file this build reads (or is empty/garbage).
    ArenaBadMagic {
        /// The first bytes actually found (zero-padded if the file was
        /// shorter than the magic).
        found: [u8; 8],
    },
    /// An arena file carries a format version this build does not understand.
    ArenaBadVersion {
        /// The version recorded in the file header.
        found: u32,
    },
    /// An arena file is shorter than its own header/segment table says it
    /// must be — the tail was truncated in transit or on disk.
    ArenaTruncated {
        /// The byte length the header implies.
        expected_bytes: u64,
        /// The byte length actually present.
        found_bytes: u64,
    },
    /// An arena file's segment table is internally inconsistent (offsets not
    /// starting at zero, segments not tiling the record section, totals
    /// disagreeing with the header), its header and tables do not hash to
    /// their recorded CRC32, or a decoded record violates the graph
    /// invariants the header promises.
    ArenaCorrupt {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// An arena segment's decoded bytes do not hash to the CRC32
    /// recorded in the file's checksum table — the segment was corrupted on
    /// disk or in transit. Without the checksum this would have been
    /// silently-wrong edges; with it, the error is typed and carries the
    /// segment (machine) index so the protocol layer can retry or degrade.
    ArenaChecksumMismatch {
        /// The segment (machine index) whose bytes failed verification.
        segment: usize,
        /// The CRC32 recorded in the file's checksum table.
        expected: u32,
        /// The CRC32 actually computed over the segment's record bytes.
        found: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} out of range for graph with {n} vertices"
                )
            }
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop on vertex {vertex} is not allowed")
            }
            GraphError::LeftVertexOutOfRange { vertex, left_n } => {
                write!(
                    f,
                    "left vertex {vertex} out of range (left side has {left_n} vertices)"
                )
            }
            GraphError::RightVertexOutOfRange { vertex, right_n } => {
                write!(
                    f,
                    "right vertex {vertex} out of range (right side has {right_n} vertices)"
                )
            }
            GraphError::InvalidMachineCount { k } => {
                write!(f, "number of machines k={k} must be at least 1")
            }
            GraphError::InvalidParameter { reason } => {
                write!(f, "invalid parameter: {reason}")
            }
            GraphError::ArenaIo { context } => {
                write!(f, "arena file I/O error: {context}")
            }
            GraphError::ArenaBadMagic { found } => {
                write!(f, "not an edge-arena file: bad magic {found:?}")
            }
            GraphError::ArenaBadVersion { found } => {
                write!(f, "unsupported arena format version {found}")
            }
            GraphError::ArenaTruncated {
                expected_bytes,
                found_bytes,
            } => {
                write!(
                    f,
                    "arena file truncated: header implies {expected_bytes} bytes, found {found_bytes}"
                )
            }
            GraphError::ArenaCorrupt { reason } => {
                write!(f, "corrupt arena file: {reason}")
            }
            GraphError::ArenaChecksumMismatch {
                segment,
                expected,
                found,
            } => {
                write!(
                    f,
                    "arena segment {segment} failed checksum verification: \
                     recorded crc32 {expected:#010x}, computed {found:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_quantities() {
        let e = GraphError::VertexOutOfRange { vertex: 7, n: 5 };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('5'));

        let e = GraphError::SelfLoop { vertex: 3 };
        assert!(e.to_string().contains('3'));

        let e = GraphError::InvalidMachineCount { k: 0 };
        assert!(e.to_string().contains("k=0"));

        let e = GraphError::InvalidParameter {
            reason: "p must be in [0,1]".into(),
        };
        assert!(e.to_string().contains("p must be in [0,1]"));

        let e = GraphError::ArenaIo {
            context: "opening /tmp/x: not found".into(),
        };
        assert!(e.to_string().contains("opening /tmp/x"));

        let e = GraphError::ArenaBadMagic {
            found: *b"NOTARENA",
        };
        assert!(e.to_string().contains("bad magic"));

        let e = GraphError::ArenaBadVersion { found: 9 };
        assert!(e.to_string().contains('9'));

        let e = GraphError::ArenaTruncated {
            expected_bytes: 100,
            found_bytes: 60,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("60"));

        let e = GraphError::ArenaCorrupt {
            reason: "segment 2 overlaps segment 3".into(),
        };
        assert!(e.to_string().contains("segment 2 overlaps"));

        let e = GraphError::ArenaChecksumMismatch {
            segment: 4,
            expected: 0xDEAD_BEEF,
            found: 0x0BAD_F00D,
        };
        assert!(e.to_string().contains("segment 4"));
        assert!(e.to_string().contains("0xdeadbeef"));
        assert!(e.to_string().contains("0x0badf00d"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            GraphError::SelfLoop { vertex: 1 },
            GraphError::SelfLoop { vertex: 1 }
        );
        assert_ne!(
            GraphError::SelfLoop { vertex: 1 },
            GraphError::SelfLoop { vertex: 2 }
        );
    }
}
