//! Known-bad fixture: sized and queue constructors inside a watched hot-path
//! function. The self-test lints this under `crates/matching/src/hopcroft_karp.rs`
//! with a config watching `bfs_csr`; expects `hot-path-alloc` at lines 8-10 only.

use std::collections::VecDeque;

fn bfs_csr(n: usize) {
    let _a: Vec<u32> = Vec::with_capacity(n);
    let _b: VecDeque<u32> = VecDeque::new();
    let _c: VecDeque<u32> = VecDeque::with_capacity(n);
    // xtask: allow(hot-path-alloc)
    let _output: Vec<u32> = Vec::with_capacity(n);
}

fn cold_path(n: usize) {
    let _fine: VecDeque<u32> = VecDeque::with_capacity(n);
}
