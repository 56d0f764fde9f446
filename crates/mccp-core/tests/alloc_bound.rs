//! Asserts the arena contract of the functional packet path: in the steady
//! state (channel open, key context warm) a GCM packet through
//! [`FunctionalBackend`] performs only the handful of allocations that own
//! the output (`Completion.body` / `Completion.tag`) — no per-packet key
//! schedule, no GHASH key-power build (eight elements or, on hosts without
//! PCLMULQDQ, eight Shoup tables), no channel clone, no formatting scratch.
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

use mccp_core::backend::ChannelBackend;
use mccp_core::format::Direction;
use mccp_core::functional::FunctionalBackend;
use mccp_core::protocol::{Algorithm, MccpError};
use mccp_core::{Mccp, MccpConfig};
use mccp_gf128::{Gf128, GhashPowers};

#[test]
fn steady_state_packet_allocs_are_bounded() {
    let mut be = FunctionalBackend::new();
    let ch = be
        .open_channel(Algorithm::AesGcm128, &[0x41u8; 16], 16)
        .unwrap();
    let iv = [5u8; 12];
    let aad = [1u8; 16];
    let body = [0xC3u8; 512];

    // Warm-up: the first packet grows the completion queue (the key
    // schedule and GHASH powers were built at open).
    be.submit_packet(ch, Direction::Encrypt, &iv, &aad, &body, None)
        .unwrap();
    be.poll_completion().unwrap();

    const PACKETS: usize = 100;
    let before = alloc_calls();
    for _ in 0..PACKETS {
        be.submit_packet(ch, Direction::Encrypt, &iv, &aad, &body, None)
            .unwrap();
        be.poll_completion().unwrap();
    }
    let per_packet = (alloc_calls() - before) as f64 / PACKETS as f64;

    // Output ownership costs: the sealed buffer, the split-off tag, and
    // amortized queue churn. Anything above this bound means per-packet
    // key-schedule / GHASH-power / clone work crept back in.
    assert!(
        per_packet <= 4.0,
        "functional path allocates {per_packet} times per packet (expected <= 4)"
    );
}

/// Close → open → first packet: what a service pays when a cold channel
/// takes a warm one's engine binding: the channel's boxed key context,
/// the sealed output and its split-off tag — plus, for GCM on hosts
/// without PCLMULQDQ, the `Vec` of eight Shoup tables.
#[test]
fn rebind_allocs_are_bounded() {
    let table_arm = GhashPowers::new(Gf128::ONE).arm() == "table";
    for (alg, key_len, iv_len, bound) in [
        (Algorithm::AesGcm128, 16, 12, 3 + usize::from(table_arm)),
        (Algorithm::AesCcm256, 32, 13, 3),
    ] {
        let (key, iv) = (vec![0x41u8; key_len], vec![5u8; iv_len]);
        let packet = |be: &mut FunctionalBackend, ch| {
            be.submit_packet(
                ch,
                Direction::Encrypt,
                &iv,
                &[1u8; 16],
                &[0xC3u8; 160],
                None,
            )
            .unwrap();
            be.poll_completion().unwrap();
        };
        let mut be = FunctionalBackend::new();
        // A second open channel keeps the channel table from emptying.
        be.open_channel(alg, &key, 8).unwrap();
        let mut ch = be.open_channel(alg, &key, 8).unwrap();
        packet(&mut be, ch); // warm-up: grows the completion queue

        const REBINDS: usize = 100;
        let before = alloc_calls();
        for _ in 0..REBINDS {
            be.close_channel(ch).unwrap();
            ch = be.open_channel(alg, &key, 8).unwrap();
            packet(&mut be, ch);
        }
        let allocs = alloc_calls() - before;
        assert!(
            allocs <= bound * REBINDS,
            "{alg:?}: {allocs} allocations over {REBINDS} rebinds (expected <= {bound} each)"
        );
    }
}

/// A cycle engine with every core holding a GCM packet, and a CCM channel
/// whose submissions it must refuse.
fn saturated_engine() -> (Mccp, mccp_core::ChannelId) {
    let mut m = Mccp::new(MccpConfig::default());
    let gcm = m
        .open_channel(Algorithm::AesGcm128, &[0x41u8; 16], 16)
        .unwrap();
    for i in 0..4u8 {
        m.submit_packet(gcm, Direction::Encrypt, &[i; 12], b"", &[0u8; 512], None)
            .unwrap();
    }
    let ccm = m
        .open_channel(Algorithm::AesCcm128, &[0x42u8; 16], 8)
        .unwrap();
    (m, ccm)
}

/// The Task Scheduler refuses a packet before it touches the packet's
/// data: a refused submission formats nothing and allocates nothing.
#[test]
fn refused_submission_allocates_nothing() {
    let (mut m, ccm) = saturated_engine();
    let body = [0xC3u8; 1024];
    let before = alloc_calls();
    for _ in 0..100 {
        let refused = m.submit_packet(ccm, Direction::Encrypt, &[7u8; 13], b"hdr", &body, None);
        assert_eq!(refused, Err(MccpError::NoResource));
    }
    assert_eq!(alloc_calls() - before, 0, "a refused submission allocated");
}

/// A malformed packet on a busy engine gets `NoResource` first (the
/// engine never looked at it), and its typed error once a core frees.
#[test]
fn malformed_packet_is_refused_before_it_is_validated() {
    let (mut m, ccm) = saturated_engine();
    let bad_nonce = [7u8; 3]; // CCM nonces are 7..=13 bytes
    let submit =
        |m: &mut Mccp| m.submit_packet(ccm, Direction::Encrypt, &bad_nonce, b"", &[1u8; 64], None);
    assert_eq!(submit(&mut m), Err(MccpError::NoResource));
    while m.poll_completion().is_none() {
        m.step(4096);
    }
    let typed = submit(&mut m).unwrap_err();
    assert_ne!(typed, MccpError::NoResource);
    assert!(!typed.is_retryable(), "{typed:?}");
}
