//! Property tests for the bounded KV [`BlockPool`]: for *arbitrary*
//! sequences of allocate / release / free / evict operations, the pool's
//! three safety invariants hold after every single step —
//!
//! 1. pinned (leased) blocks are never evicted: every active lease's full
//!    path stays resident;
//! 2. `live_blocks() <= capacity()` at all times;
//! 3. the counters reconcile exactly:
//!    `inserted − evicted − freed == live`;
//! 4. the pinned count is exactly the union of the active leases' paths:
//!    same-family leases share a prefix, so it is the sum over families
//!    of the family's longest active lease.
//!
//! On failure proptest shrinks to a minimal counterexample op sequence.

use std::collections::HashMap;

use proptest::prelude::*;
use spear_llm::BlockPool;

const FAMILIES: u64 = 4;
const MAX_SEQS: u64 = 6;

/// Block hash `i` of family `fam` — sequences of the same family share a
/// physical prefix, which is what makes ref-counting interesting.
fn family_chain(fam: u64, len: usize) -> Vec<u64> {
    (0..len as u64)
        .map(|i| (fam + 1) * 10_000 + i + 1)
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate (or extend) sequence `seq`'s lease to `len` blocks of
    /// family `fam` (the family is fixed by the sequence's first
    /// allocation; later ones only ever extend the same chain).
    Allocate { seq: u64, fam: u64, len: usize },
    /// Unpin, keeping blocks resident.
    Release { seq: u64 },
    /// Unpin and drop private blocks (preemption).
    Free { seq: u64 },
    /// Background reclamation of up to `n` unpinned blocks.
    EvictIdle { n: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..MAX_SEQS, 0..FAMILIES, 0..10usize)
            .prop_map(|(seq, fam, len)| Op::Allocate { seq, fam, len }),
        2 => (0..MAX_SEQS).prop_map(|seq| Op::Release { seq }),
        2 => (0..MAX_SEQS).prop_map(|seq| Op::Free { seq }),
        1 => (1..6usize).prop_map(|n| Op::EvictIdle { n }),
    ]
}

/// The reference model: which chain each active lease pins.
#[derive(Default)]
struct Model {
    /// `seq -> (family, leased chain length)`.
    leases: HashMap<u64, (u64, usize)>,
}

fn check_invariants(pool: &BlockPool, model: &Model, step: usize, op: &Op) {
    let live = pool.live_blocks();
    assert!(
        live <= pool.capacity(),
        "step {step} ({op:?}): live {live} exceeds capacity {}",
        pool.capacity()
    );
    let s = pool.stats();
    assert_eq!(
        s.inserted_blocks - s.evicted_blocks - s.freed_blocks,
        live as u64,
        "step {step} ({op:?}): counters do not reconcile: {s:?}"
    );
    let mut longest: HashMap<u64, usize> = HashMap::new();
    for &(fam, len) in model.leases.values() {
        let entry = longest.entry(fam).or_default();
        *entry = (*entry).max(len);
    }
    assert_eq!(
        pool.pinned_blocks(),
        longest.values().sum::<usize>(),
        "step {step} ({op:?}): pinned count drifted from the leases"
    );
    for (&seq, &(fam, len)) in &model.leases {
        let chain = family_chain(fam, len);
        assert_eq!(
            pool.lease_blocks(seq),
            Some(len),
            "step {step} ({op:?}): lease length drifted for seq {seq}"
        );
        assert_eq!(
            pool.peek(&chain),
            len,
            "step {step} ({op:?}): pinned path of seq {seq} partially evicted"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pool_invariants_hold_for_arbitrary_op_sequences(
        capacity in 2..16usize,
        stripes in 1..3usize,
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let pool = BlockPool::new(capacity, stripes);
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Allocate { seq, fam, len } => {
                    // A sequence's chain is fixed at first allocation;
                    // later allocations extend it (the pool contract).
                    let (fam, len) = match model.leases.get(&seq) {
                        Some(&(held_fam, held_len)) => (held_fam, held_len.max(len)),
                        None => (fam, len),
                    };
                    let chain = family_chain(fam, len);
                    let before_live = pool.live_blocks();
                    let before_stats = pool.stats();
                    match pool.allocate(seq, &chain) {
                        Ok(grant) => {
                            prop_assert_eq!(grant.lease_blocks, len);
                            if len > 0 {
                                model.leases.insert(seq, (fam, len));
                            }
                        }
                        Err(_) => {
                            // Failure must not mutate residency or
                            // pin state (only the failure counters).
                            prop_assert_eq!(pool.live_blocks(), before_live);
                            let after = pool.stats();
                            prop_assert_eq!(
                                after.inserted_blocks,
                                before_stats.inserted_blocks
                            );
                            prop_assert_eq!(
                                after.evicted_blocks,
                                before_stats.evicted_blocks
                            );
                            prop_assert_eq!(
                                after.alloc_failures,
                                before_stats.alloc_failures + 1
                            );
                        }
                    }
                }
                Op::Release { seq } => {
                    pool.release(seq);
                    model.leases.remove(&seq);
                }
                Op::Free { seq } => {
                    pool.free(seq);
                    model.leases.remove(&seq);
                }
                Op::EvictIdle { n } => {
                    pool.evict_idle(n);
                }
            }
            check_invariants(&pool, &model, step, op);
        }
        // Drain every lease: with nothing pinned, evict_idle can take the
        // pool to empty and the counters still reconcile to zero.
        let seqs: Vec<u64> = model.leases.keys().copied().collect();
        for seq in seqs {
            pool.release(seq);
        }
        model.leases.clear();
        pool.evict_idle(usize::MAX);
        prop_assert_eq!(pool.live_blocks(), 0);
        prop_assert_eq!(pool.pinned_blocks(), 0);
        let s = pool.stats();
        prop_assert_eq!(s.inserted_blocks, s.evicted_blocks + s.freed_blocks);
    }
}
