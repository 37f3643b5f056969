//! The one allocator invariant over *global* figures that must hold
//! exactly: the per-scope live counts sum to the global live count.
//!
//! The counters are separate relaxed atomics, so a snapshot taken while
//! another thread is inside the allocator can see that thread's bytes in the
//! global count but not yet in its scope bucket.  This test therefore has a
//! binary of its own: it is the only test here, so no other test thread
//! allocates while it compares the figures (the suites in `mem.rs` hammer the
//! allocator from many threads).

use velv_obs::mem;

#[global_allocator]
static ALLOC: velv_obs::CountingAlloc = velv_obs::CountingAlloc;

/// The per-scope live counts sum exactly to the global live count: every
/// allocation and free lands in exactly one scope bucket.
#[test]
fn scope_live_sums_to_global_live() {
    // Hold some scoped memory so the sum is exercised with non-trivial
    // scope buckets, then compare sums across a few snapshots.
    let _scope = mem::MemScope::enter("eufm");
    let _held = vec![5u8; 256 * 1024];
    for _ in 0..50 {
        let snap = mem::snapshot();
        let sum: i64 = snap.scopes.iter().map(|s| s.live_bytes).sum();
        // Only the idle harness thread shares the process, but keep the
        // small allowance for it: the figures must agree to well under a
        // percent of live.
        let skew = (sum - snap.live_bytes).abs();
        assert!(
            skew <= snap.live_bytes / 128 + 4096,
            "scope sum {sum} vs live {} (skew {skew})",
            snap.live_bytes
        );
    }
}
