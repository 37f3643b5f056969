//! The peak watermark over *global* figures: after a reset, the peak covers
//! a fresh 1 MiB block on top of the bytes live before it.
//!
//! `live_bytes` and `peak_bytes` count the whole process, so a free from
//! another test thread between the `live_bytes` read and the allocation can
//! lower the reading the assertion adds to.  This test therefore has a
//! binary of its own: it is the only test here, so no other test thread
//! allocates or frees while it compares the figures (the suites in `mem.rs`
//! hammer the allocator from many threads).

use velv_obs::mem;

#[global_allocator]
static ALLOC: velv_obs::CountingAlloc = velv_obs::CountingAlloc;

/// Watermarks: after a reset, peak tracks the high-water mark of live bytes
/// and never reads below it; the snapshot clamps racing readings.
#[test]
fn peak_tracks_high_water() {
    mem::reset_peaks();
    let live_before = mem::live_bytes();
    let block = vec![7u8; 1 << 20];
    assert!(mem::peak_bytes() >= live_before + (1 << 20));
    assert!(mem::peak_bytes() >= mem::live_bytes());
    drop(block);
    // Freeing lowers live but not the recorded peak.
    assert!(mem::peak_bytes() >= live_before + (1 << 20));
    let snap = mem::snapshot();
    assert!(snap.peak_bytes >= snap.live_bytes);
    assert!(snap.allocations > snap.frees, "live allocations exist");
}
