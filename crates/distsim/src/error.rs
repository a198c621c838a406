//! Typed protocol-level errors.
//!
//! The fault-tolerant runtime distinguishes *where* a failure happened, not
//! just *that* it happened: an arena segment that fails its checksum is
//! attributed to the machine whose piece it holds, a corrupt checkpoint is
//! reported separately from a corrupt arena, and "every machine died" is its
//! own terminal outcome. Experiment binaries and tests match on these
//! variants instead of parsing strings.

use graph::GraphError;

/// Error of one protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A graph-layer failure outside any per-machine context (partitioning,
    /// arena header validation, parameter checks).
    Graph(GraphError),
    /// Loading a machine's arena segment failed even after the retry budget;
    /// `machine` is both the machine index and the arena segment index (the
    /// arena stores one segment per machine).
    Segment {
        /// The machine (= arena segment) whose data could not be read.
        machine: usize,
        /// The underlying graph-layer failure (I/O or checksum mismatch).
        source: GraphError,
    },
    /// Reading or writing a resume checkpoint failed. Corrupt checkpoints are
    /// *not* reported here — they are silently discarded and the run starts
    /// fresh; this variant is for I/O failures while persisting a new one.
    Checkpoint {
        /// Human-readable description of the failed checkpoint operation.
        context: String,
    },
    /// The run stopped deliberately after persisting a checkpoint
    /// (`FaultRunOptions::kill_after_leaves`); rerunning with the same
    /// checkpoint path resumes where it left off. Only the crash-recovery
    /// tests request this.
    Interrupted {
        /// Number of leaves fully processed (and checkpointed) before the
        /// simulated kill.
        pushed: usize,
    },
    /// Tree composition was configured with a fan-in below 2 (a 1-ary merge
    /// never shrinks the tree).
    InvalidFanIn {
        /// The rejected fan-in.
        fan_in: usize,
    },
    /// Every machine was permanently lost; there is nothing to compose.
    NoSurvivors,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Graph(e) => write!(f, "graph error: {e}"),
            ProtocolError::Segment { machine, source } => write!(
                f,
                "machine {machine}: arena segment {machine} unavailable: {source}"
            ),
            ProtocolError::Checkpoint { context } => {
                write!(f, "checkpoint error: {context}")
            }
            ProtocolError::Interrupted { pushed } => write!(
                f,
                "run interrupted after checkpointing {pushed} completed leaves"
            ),
            ProtocolError::InvalidFanIn { fan_in } => write!(
                f,
                "tree composition needs a fan-in of at least 2, got {fan_in}"
            ),
            ProtocolError::NoSurvivors => {
                write!(f, "all machines permanently lost; nothing to compose")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Graph(e) | ProtocolError::Segment { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ProtocolError {
    fn from(e: GraphError) -> Self {
        ProtocolError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_machine_and_segment_context() {
        let e = ProtocolError::Segment {
            machine: 3,
            source: GraphError::ArenaChecksumMismatch {
                segment: 3,
                expected: 0xDEAD_BEEF,
                found: 0x0BAD_F00D,
            },
        };
        let s = e.to_string();
        assert!(s.contains("machine 3"), "{s}");
        assert!(s.contains("segment 3"), "{s}");
        assert!(s.contains("checksum"), "{s}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn graph_errors_convert() {
        let e: ProtocolError = GraphError::InvalidParameter {
            reason: "k = 0".into(),
        }
        .into();
        assert!(matches!(e, ProtocolError::Graph(_)));
        assert!(e.to_string().contains("k = 0"));
    }

    #[test]
    fn terminal_outcomes_render() {
        assert!(ProtocolError::NoSurvivors.to_string().contains("nothing"));
        assert!(ProtocolError::Interrupted { pushed: 5 }
            .to_string()
            .contains('5'));
        assert!(ProtocolError::InvalidFanIn { fan_in: 1 }
            .to_string()
            .contains("got 1"));
    }
}
