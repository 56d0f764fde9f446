//! Asserts the allocation contract of the service's packet path: once a
//! shard is warm (channels bound, packet buffers pooled, tables grown), a
//! round of submits and one pump allocates only what the caller keeps —
//! each delivery's body and the returned `Vec<Delivery>`. IVs and tags
//! ride inline, the `aad ‖ payload` buffer is recycled, and in-flight
//! bookkeeping is an indexed table. Rekeys reuse retired key storage.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! per thread, so allocations made by other threads of the test process
//! (the harness, parallel tests) never reach this test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so counting never
    // allocates and the slot needs no lazy registration.
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread. `try_with` skips the count
/// instead of panicking if the slot is already gone during thread teardown.
fn count_alloc() {
    let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
}

/// This thread's allocation count so far.
fn alloc_calls() -> usize {
    ALLOC_CALLS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use mccp_core::FunctionalBackend;
use mccp_sdr::{MccpService, ServiceConfig, Standard};

#[test]
fn warm_service_allocates_only_what_the_caller_keeps() {
    let mut svc = MccpService::new(
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
        |_| FunctionalBackend::new(),
    );
    // GCM, CCM-128, CTR and CCM-256 channels, two of each.
    let ids: Vec<_> = [
        (Standard::Wimax, 16),
        (Standard::Wifi, 16),
        (Standard::Umts, 16),
        (Standard::SecureVoice, 32),
    ]
    .iter()
    .cycle()
    .take(8)
    .enumerate()
    .map(|(i, &(standard, key_len))| svc.open(standard, &vec![i as u8; key_len]).unwrap())
    .collect();
    let (aad, payload) = ([0xA5u8; 16], [0x3Cu8; 300]);
    let round = |svc: &mut MccpService<FunctionalBackend>| {
        for (i, id) in ids.iter().cycle().take(32).enumerate() {
            svc.submit(*id, &aad, &payload, i as u64).unwrap();
        }
        svc.pump()
    };
    // Warm-up: binds every channel, fills the buffer pool and grows the
    // in-flight table and the engine's completion queue.
    for _ in 0..4 {
        assert_eq!(round(&mut svc).len(), 32);
    }

    const ROUNDS: usize = 1_000;
    let before = alloc_calls();
    let mut delivered = 0;
    for _ in 0..ROUNDS {
        delivered += round(&mut svc).len();
    }
    let allocs = alloc_calls() - before;
    assert_eq!(delivered, 32 * ROUNDS);
    assert!(
        allocs <= delivered + ROUNDS,
        "{allocs} allocations for {delivered} deliveries over {ROUNDS} pumps \
         (expected at most one per delivery plus one per pump)"
    );
}

/// A rekey writes the new key into the storage of a key an earlier
/// rotation retired (wiped when its marker drained), so once warm, rekey
/// calls allocate nothing.
#[test]
fn warm_rekeys_reuse_retired_key_storage() {
    let mut svc = MccpService::new(
        ServiceConfig {
            shards: 1,
            ..ServiceConfig::default()
        },
        |_| FunctionalBackend::new(),
    );
    let id = svc.open(Standard::SecureVoice, &[1u8; 32]).unwrap();
    svc.submit(id, b"hdr", &[0u8; 64], 0).unwrap();
    assert_eq!(svc.quiesce(16).len(), 1);
    let mut rekey_allocs = 0;
    for round in 0..1_000u32 {
        let before = alloc_calls();
        svc.rekey(id, &[round as u8; 32]).unwrap();
        if round > 0 {
            rekey_allocs += alloc_calls() - before;
        }
        svc.pump();
    }
    assert_eq!(rekey_allocs, 0, "warm rekeys allocated");
    assert_eq!(svc.counters().rekeys, 1_000);
}
