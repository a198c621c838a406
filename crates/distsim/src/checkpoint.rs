//! Checkpoint/resume for out-of-core protocol runs.
//!
//! After every completed leaf, [`crate::coordinator::ArenaProtocol`] can
//! persist the streaming composition's full pending state — which leaves are
//! done, the live coresets of every tree level, the communication recorded so
//! far, and the fault counters — so a killed run resumes exactly where it
//! stopped and produces the **bit-identical** final answer (pinned by the
//! kill-at-every-node test in `tests/faults.rs`).
//!
//! Format (`RCCKPT04`, all integers little-endian):
//!
//! | field                         | bytes                                  |
//! |-------------------------------|----------------------------------------|
//! | magic `RCCKPT04`              | 8                                      |
//! | problem tag (0 = matching, 1 = vertex cover) | 1                       |
//! | n, k, m, seed, fan_in, fault_seed, plan digest | 7 × 8                 |
//! | pushed, injected, retried, recovered, ticks | 5 × 8                    |
//! | lost machines                 | 8 (count) + 8 each                     |
//! | per-message words             | 8 (count) + 8 each                     |
//! | per-message bits              | 8 (count) + 8 each                     |
//! | pending levels                | 8 (count), then per level: 8 (count) + items |
//! | CRC-32 of everything above    | 4                                      |
//!
//! The plan digest folds the whole [`FaultPlan`] and the effective
//! [`RetryPolicy`] into one word: they decide which leaves are lost, and a
//! lost leaf is stored as a placeholder in the pending levels, so a
//! checkpoint may only resume a run that injects and retries the same
//! faults. A file with any other magic starts the run fresh. `RCCKPT01`
//! lacked the digest; `RCCKPT02` files hold matching merges from before they
//! became the warm-started alternating-path walk, and resuming one would mix
//! old and new merges in one tree; an `RCCKPT03` digest covers a plan with
//! other fields, so the magic rejects it rather than a digest comparison.
//!
//! Writes are atomic (`<path>.tmp` then rename), so a crash mid-write leaves
//! the previous checkpoint intact. Loads are *lenient by design*: a missing,
//! truncated, checksum-corrupt, or parameter-mismatched file yields `None`
//! and the run simply starts fresh — a bad checkpoint must never be able to
//! wedge a protocol. That includes a well-formed file whose *shape* the run
//! cannot resume from: `pushed` must be at most `k`, and the pending levels
//! must have exactly the lengths
//! [`TreePlan::state_after`]`(pushed)` expects of the run's tree, so
//! [`coresets::TreeFolder::resume`] never sees a snapshot it would reject.

use crate::comm::CommunicationCost;
use crate::error::ProtocolError;
use crate::faults::{FaultPlan, FaultReport, RetryPolicy};
use coresets::vc_coreset::VcCoresetOutput;
use coresets::TreePlan;
use graph::arena_file::crc32;
use graph::{mix64, ArenaFile, Edge, Graph};

/// File magic of the checkpoint format.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"RCCKPT04";

/// Identity of the run a checkpoint belongs to. A checkpoint is only resumed
/// when every field matches — a checkpoint from a different graph, seed,
/// fan-in, fault plan or retry policy is silently discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointKey {
    /// Problem tag ([`CheckpointItem::PROBLEM`]).
    pub problem: u8,
    /// Vertices of the arena graph.
    pub n: u64,
    /// Machines (arena segments).
    pub k: u64,
    /// Edges of the arena graph.
    pub m: u64,
    /// Protocol seed.
    pub seed: u64,
    /// Composition fan-in.
    pub fan_in: u64,
    /// Fault-universe seed.
    pub fault_seed: u64,
    /// Digest of the whole fault plan and the effective retry policy.
    pub plan_digest: u64,
}

impl CheckpointKey {
    /// The key of an arena run of the problem whose summaries are `S`.
    pub(crate) fn of_run<S: CheckpointItem>(
        arena: &ArenaFile,
        seed: u64,
        fan_in: usize,
        plan: &FaultPlan,
        retry: &RetryPolicy,
    ) -> Self {
        CheckpointKey {
            problem: S::PROBLEM,
            n: arena.n() as u64,
            k: arena.k() as u64,
            m: arena.m() as u64,
            seed,
            fan_in: fan_in as u64,
            fault_seed: plan.fault_seed,
            plan_digest: plan_digest(plan, retry),
        }
    }
}

/// A `mix64` fold over every field of `plan` (the probability by its bits,
/// the forced losses in order after their count) and the retry policy as the
/// attempt loop applies it.
fn plan_digest(plan: &FaultPlan, retry: &RetryPolicy) -> u64 {
    // Destructured so a new plan field cannot be left out of the digest.
    let FaultPlan {
        fault_seed,
        failure_prob,
        lose_machines,
    } = plan;
    let fields = [
        *fault_seed,
        failure_prob.to_bits(),
        u64::from(retry.max_attempts.max(1)),
        retry.backoff_ticks,
        lose_machines.len() as u64,
    ];
    let losses = lose_machines.iter().map(|&m| m as u64);
    fields
        .into_iter()
        .chain(losses)
        .fold(0, |h, x| mix64(h ^ x))
}

/// Snapshot of an in-flight arena run: everything needed to resume the
/// streaming composition after the last fully processed leaf.
#[derive(Debug, Clone)]
pub struct ArenaCheckpoint<T> {
    /// Leaves fully processed (loaded, summarized, pushed, checkpointed).
    pub pushed: usize,
    /// Live (pending) coresets of every composition-tree level.
    pub pending: Vec<Vec<T>>,
    /// Communication recorded for the processed leaves.
    pub communication: CommunicationCost,
    /// Fault accounting of the processed leaves (its injected, retried,
    /// recovered, ticks and lost-machine fields are persisted).
    pub faults: FaultReport,
}

/// Sequential little-endian reader over a checkpoint body; every take
/// returns `None` past the end, which the loader treats as corruption.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let end = self.pos.checked_add(N)?;
        let chunk = self.bytes.get(self.pos..end)?.try_into().ok()?;
        self.pos = end;
        Some(chunk)
    }

    fn take_u8(&mut self) -> Option<u8> {
        self.take().map(u8::from_le_bytes)
    }

    fn take_u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    fn take_u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    /// A length prefix, bounded by the bytes actually remaining so corrupt
    /// counts cannot trigger huge allocations.
    fn take_count(&mut self, min_item_bytes: usize) -> Option<usize> {
        let count = usize::try_from(self.take_u64()?).ok()?;
        let remaining = self.bytes.len() - self.pos;
        if count.checked_mul(min_item_bytes.max(1))? > remaining {
            return None;
        }
        Some(count)
    }

    fn take_u64_vec(&mut self) -> Option<Vec<u64>> {
        let count = self.take_count(8)?;
        (0..count).map(|_| self.take_u64()).collect()
    }

    fn fully_consumed(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64_slice(out: &mut Vec<u8>, xs: &[u64]) {
    put_u64(out, xs.len() as u64);
    for &x in xs {
        put_u64(out, x);
    }
}

fn encode_graph(g: &Graph, out: &mut Vec<u8>) {
    put_u64(out, g.n() as u64);
    put_u64(out, g.m() as u64);
    for e in g.edges() {
        out.extend_from_slice(&e.u.to_le_bytes());
        out.extend_from_slice(&e.v.to_le_bytes());
    }
}

fn decode_graph(r: &mut ByteReader<'_>) -> Option<Graph> {
    let n = usize::try_from(r.take_u64()?).ok()?;
    let m = {
        let m = usize::try_from(r.take_u64()?).ok()?;
        let remaining = r.bytes.len() - r.pos;
        if m.checked_mul(8)? > remaining {
            return None;
        }
        m
    };
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = r.take_u32()?;
        let v = r.take_u32()?;
        if u >= v || v as usize >= n {
            return None;
        }
        edges.push(Edge { u, v });
    }
    // Bounds and canonical order were just validated; edge order must be
    // preserved exactly for bit-identical resumption, so skip the
    // deduplicating constructor.
    Some(Graph::from_edges_unchecked(n, edges))
}

/// A coreset type that can live inside a checkpoint.
pub trait CheckpointItem: Sized {
    /// Problem tag stored in the header (0 = matching, 1 = vertex cover), so
    /// a matching checkpoint can never resume a vertex-cover run.
    const PROBLEM: u8;

    /// Appends this item's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one item; `None` marks the checkpoint corrupt.
    fn decode(r: &mut ByteReader<'_>) -> Option<Self>;
}

impl CheckpointItem for Graph {
    const PROBLEM: u8 = 0;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_graph(self, out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        decode_graph(r)
    }
}

impl CheckpointItem for VcCoresetOutput {
    const PROBLEM: u8 = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.fixed_vertices.len() as u64);
        for &v in &self.fixed_vertices {
            out.extend_from_slice(&v.to_le_bytes());
        }
        encode_graph(&self.residual, out);
    }

    fn decode(r: &mut ByteReader<'_>) -> Option<Self> {
        let count = r.take_count(4)?;
        let fixed_vertices = (0..count)
            .map(|_| r.take_u32())
            .collect::<Option<Vec<_>>>()?;
        let residual = decode_graph(r)?;
        Some(VcCoresetOutput {
            fixed_vertices,
            residual,
        })
    }
}

fn encode_checkpoint<T: CheckpointItem>(key: &CheckpointKey, ck: &ArenaCheckpoint<T>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.push(key.problem);
    for x in [
        key.n,
        key.k,
        key.m,
        key.seed,
        key.fan_in,
        key.fault_seed,
        key.plan_digest,
    ] {
        put_u64(&mut out, x);
    }
    let f = &ck.faults;
    for x in [
        ck.pushed as u64,
        f.injected,
        f.retried,
        f.recovered,
        f.ticks,
    ] {
        put_u64(&mut out, x);
    }
    let lost: Vec<u64> = f.lost_machines.iter().map(|&m| m as u64).collect();
    put_u64_slice(&mut out, &lost);
    put_u64_slice(&mut out, &ck.communication.per_machine_words);
    put_u64_slice(&mut out, &ck.communication.per_machine_bits);
    put_u64(&mut out, ck.pending.len() as u64);
    for level in &ck.pending {
        put_u64(&mut out, level.len() as u64);
        for item in level {
            item.encode(&mut out);
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn decode_checkpoint<T: CheckpointItem>(
    key: &CheckpointKey,
    bytes: &[u8],
) -> Option<ArenaCheckpoint<T>> {
    if bytes.len() < CHECKPOINT_MAGIC.len() + 4 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().ok()?);
    if crc32(body) != stored {
        return None;
    }
    let mut r = ByteReader::new(body);
    let mut magic = [0u8; 8];
    for b in &mut magic {
        *b = r.take_u8()?;
    }
    if magic != CHECKPOINT_MAGIC {
        return None;
    }
    let found = CheckpointKey {
        problem: r.take_u8()?,
        n: r.take_u64()?,
        k: r.take_u64()?,
        m: r.take_u64()?,
        seed: r.take_u64()?,
        fan_in: r.take_u64()?,
        fault_seed: r.take_u64()?,
        plan_digest: r.take_u64()?,
    };
    if found != *key {
        return None;
    }
    let pushed = usize::try_from(r.take_u64()?).ok()?;
    if pushed as u64 > key.k {
        return None;
    }
    let mut faults = FaultReport::new(key.fault_seed);
    faults.injected = r.take_u64()?;
    faults.retried = r.take_u64()?;
    faults.recovered = r.take_u64()?;
    faults.ticks = r.take_u64()?;
    faults.lost_machines = r
        .take_u64_vec()?
        .into_iter()
        .map(|m| usize::try_from(m).ok())
        .collect::<Option<Vec<_>>>()?;
    faults.degraded = !faults.lost_machines.is_empty();
    let communication = CommunicationCost {
        per_machine_words: r.take_u64_vec()?,
        per_machine_bits: r.take_u64_vec()?,
    };
    let fan_in = usize::try_from(key.fan_in).ok().filter(|&f| f >= 2)?;
    let plan = TreePlan::new(usize::try_from(key.k).ok()?, fan_in);
    let (lens, _) = plan.state_after(pushed);
    if r.take_count(8)? != lens.len() {
        return None;
    }
    let mut pending = Vec::with_capacity(lens.len());
    for want in lens {
        let items = r.take_count(1)?;
        if items != want {
            return None;
        }
        let level = (0..items)
            .map(|_| T::decode(&mut r))
            .collect::<Option<Vec<_>>>()?;
        pending.push(level);
    }
    if !r.fully_consumed() {
        return None;
    }
    Some(ArenaCheckpoint {
        pushed,
        pending,
        communication,
        faults,
    })
}

/// Atomically persists a checkpoint: the bytes land in `<path>.tmp` first and
/// are renamed over `path`, so a crash mid-write never destroys the previous
/// resume point.
pub fn save_checkpoint<T: CheckpointItem>(
    path: &std::path::Path,
    key: &CheckpointKey,
    ck: &ArenaCheckpoint<T>,
) -> Result<(), ProtocolError> {
    let bytes = encode_checkpoint(key, ck);
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    std::fs::write(&tmp, &bytes).map_err(|e| ProtocolError::Checkpoint {
        context: format!("write {}: {e}", tmp.display()),
    })?;
    std::fs::rename(&tmp, path).map_err(|e| ProtocolError::Checkpoint {
        context: format!("rename {} over {}: {e}", tmp.display(), path.display()),
    })
}

/// Loads the checkpoint at `path` if it exists, verifies, and belongs to the
/// run identified by `key`. Any defect — missing file, bad magic, failed
/// CRC, truncation, parameter mismatch — yields `None`: the caller starts
/// fresh instead of trusting damaged state.
pub fn load_checkpoint<T: CheckpointItem>(
    path: &std::path::Path,
    key: &CheckpointKey,
) -> Option<ArenaCheckpoint<T>> {
    let bytes = std::fs::read(path).ok()?;
    decode_checkpoint(key, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_key() -> CheckpointKey {
        CheckpointKey {
            problem: Graph::PROBLEM,
            n: 100,
            k: 8,
            m: 407,
            seed: 42,
            fan_in: 2,
            fault_seed: 7,
            plan_digest: plan_digest(&FaultPlan::new(7), &RetryPolicy::default()),
        }
    }

    fn demo_checkpoint() -> ArenaCheckpoint<Graph> {
        let g1 = Graph::from_pairs(100, vec![(0, 1), (2, 3), (5, 9)]).unwrap();
        let g2 = Graph::from_pairs(100, vec![(10, 20)]).unwrap();
        let mut communication = CommunicationCost::default();
        communication.record_message(&crate::comm::CostModel::for_n(100), 3, 0);
        communication.record_message(&crate::comm::CostModel::for_n(100), 1, 0);
        communication.record_message(&crate::comm::CostModel::for_n(100), 0, 0);
        // Three leaves pushed into an 8-leaf binary tree: leaves 0 and 1
        // merged into `g1` on level 1, leaf 2 (`g2`) still pending.
        ArenaCheckpoint {
            pushed: 3,
            pending: vec![vec![g2], vec![g1], vec![]],
            communication,
            faults: FaultReport {
                injected: 3,
                retried: 2,
                recovered: 1,
                ticks: 12,
                lost_machines: vec![4],
                degraded: true,
                ..FaultReport::new(7)
            },
        }
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rc_ckpt_{}_{tag}.bin", std::process::id()))
    }

    #[test]
    fn round_trips_exactly() {
        let path = tmp_path("round_trip");
        let key = demo_key();
        let ck = demo_checkpoint();
        save_checkpoint(&path, &key, &ck).unwrap();
        let back: ArenaCheckpoint<Graph> = load_checkpoint(&path, &key).expect("loads");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.pushed, ck.pushed);
        assert_eq!(back.pending.len(), ck.pending.len());
        for (a, b) in back.pending.iter().zip(&ck.pending) {
            assert_eq!(a.len(), b.len());
            for (ga, gb) in a.iter().zip(b) {
                assert_eq!(ga.n(), gb.n());
                assert_eq!(ga.edges(), gb.edges(), "edge order must survive");
            }
        }
        assert_eq!(back.communication, ck.communication);
        assert_eq!(back.faults, ck.faults);
    }

    #[test]
    fn vc_items_round_trip() {
        let path = tmp_path("vc_round_trip");
        let key = CheckpointKey {
            problem: VcCoresetOutput::PROBLEM,
            ..demo_key()
        };
        let ck = ArenaCheckpoint {
            pushed: 1,
            pending: vec![
                vec![VcCoresetOutput {
                    fixed_vertices: vec![7, 3, 99],
                    residual: Graph::from_pairs(100, vec![(1, 2)]).unwrap(),
                }],
                vec![],
                vec![],
            ],
            communication: CommunicationCost::default(),
            faults: FaultReport::new(7),
        };
        save_checkpoint(&path, &key, &ck).unwrap();
        let back: ArenaCheckpoint<VcCoresetOutput> = load_checkpoint(&path, &key).expect("loads");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.pending[0][0].fixed_vertices, vec![7, 3, 99]);
        assert_eq!(back.pending[0][0].residual.m(), 1);
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let path = tmp_path("missing_never_created");
        assert!(load_checkpoint::<Graph>(&path, &demo_key()).is_none());
    }

    #[test]
    fn every_single_byte_corruption_is_rejected_or_equal() {
        let path = tmp_path("bitflip");
        let key = demo_key();
        save_checkpoint(&path, &key, &demo_checkpoint()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_checkpoint::<Graph>(&key, &bad).is_none(),
                "flip at byte {i} must be caught by the CRC"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let key = demo_key();
        let full = encode_checkpoint(&key, &demo_checkpoint());
        for cut in 0..full.len() {
            assert!(
                decode_checkpoint::<Graph>(&key, &full[..cut]).is_none(),
                "truncation to {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn checkpoints_of_an_older_format_are_discarded() {
        let key = demo_key();
        let current = encode_checkpoint(&key, &demo_checkpoint());
        assert!(decode_checkpoint::<Graph>(&key, &current).is_some());
        // The same checkpoint as an older build wrote it: its magic, with a
        // CRC that matches, so only the magic tells it apart.
        for old in [*b"RCCKPT01", *b"RCCKPT02", *b"RCCKPT03"] {
            let mut body = current[..current.len() - 4].to_vec();
            body[..CHECKPOINT_MAGIC.len()].copy_from_slice(&old);
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            assert!(
                decode_checkpoint::<Graph>(&key, &body).is_none(),
                "{} must start fresh",
                String::from_utf8_lossy(&old)
            );
        }
    }

    #[test]
    fn mismatched_run_parameters_are_discarded() {
        let path = tmp_path("mismatch");
        let key = demo_key();
        save_checkpoint(&path, &key, &demo_checkpoint()).unwrap();
        for bad in [
            CheckpointKey { seed: 43, ..key },
            CheckpointKey { k: 9, ..key },
            CheckpointKey { fan_in: 3, ..key },
            CheckpointKey {
                fault_seed: 8,
                ..key
            },
            CheckpointKey {
                problem: VcCoresetOutput::PROBLEM,
                ..key
            },
            CheckpointKey {
                plan_digest: key.plan_digest ^ 1,
                ..key
            },
        ] {
            assert!(
                load_checkpoint::<Graph>(&path, &bad).is_none(),
                "{bad:?} must not resume {key:?}"
            );
        }
        assert!(load_checkpoint::<Graph>(&path, &key).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn plan_digest_tells_apart_every_plan_field_and_the_retry_policy() {
        let (base, retry) = (FaultPlan::new(7), RetryPolicy::default());
        let mut variants = vec![(base.clone(), retry)];
        let mut vary = |edit: fn(&mut FaultPlan)| {
            let mut plan = base.clone();
            edit(&mut plan);
            variants.push((plan, retry));
        };
        vary(|p| p.fault_seed = 8);
        vary(|p| p.failure_prob = 0.25);
        vary(|p| p.failure_prob = 0.5);
        vary(|p| p.lose_machines = vec![1]);
        vary(|p| p.lose_machines = vec![1, 2]);
        vary(|p| p.lose_machines = vec![2, 1]);
        variants.push((base.clone(), RetryPolicy::attempts(3)));
        variants.push((
            base.clone(),
            RetryPolicy {
                backoff_ticks: 5,
                ..retry
            },
        ));
        let mut digests: Vec<u64> = variants.iter().map(|(p, r)| plan_digest(p, r)).collect();
        let count = digests.len();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), count, "two different runs share a digest");
        // Zero attempts run as one, so they share its digest.
        let zero = RetryPolicy {
            max_attempts: 0,
            ..retry
        };
        assert_eq!(plan_digest(&base, &zero), plan_digest(&base, &retry));
    }

    #[test]
    fn save_is_atomic_over_an_existing_checkpoint() {
        let path = tmp_path("atomic");
        let key = demo_key();
        save_checkpoint(&path, &key, &demo_checkpoint()).unwrap();
        // Five leaves: two level-1 merges merged again on level 2, leaf 4
        // pending.
        let mut later = demo_checkpoint();
        later.pushed = 5;
        later.pending.swap(1, 2);
        save_checkpoint(&path, &key, &later).unwrap();
        let back: ArenaCheckpoint<Graph> = load_checkpoint(&path, &key).expect("loads");
        assert_eq!(back.pushed, 5);
        let mut tmp_name = path.as_os_str().to_owned();
        tmp_name.push(".tmp");
        assert!(
            !std::path::PathBuf::from(tmp_name).exists(),
            "tmp file must be renamed away"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoints_the_tree_cannot_resume_are_discarded() {
        let key = demo_key();
        let decodes = |ck: &ArenaCheckpoint<Graph>| {
            decode_checkpoint::<Graph>(&key, &encode_checkpoint(&key, ck)).is_some()
        };
        assert!(decodes(&demo_checkpoint()));
        // More leaves pushed than the run has machines.
        let mut too_many = demo_checkpoint();
        too_many.pushed = key.k as usize + 3;
        assert!(!decodes(&too_many));
        // A level missing, and a level too many.
        let mut short = demo_checkpoint();
        short.pending.pop();
        assert!(!decodes(&short));
        let mut long = demo_checkpoint();
        long.pending.push(Vec::new());
        assert!(!decodes(&long));
        // Right level count, wrong length on one level.
        let mut wrong_len = demo_checkpoint();
        let leaf = wrong_len.pending[0][0].clone();
        wrong_len.pending[0].push(leaf);
        assert!(!decodes(&wrong_len));
        // The demo's levels under another `pushed`.
        let mut stale = demo_checkpoint();
        stale.pushed = 4;
        assert!(!decodes(&stale));
    }
}
