//! Asserts the arena contract of the `_into` kernels: with a warm output
//! buffer and a prebuilt per-key context, sealing and opening a packet
//! performs **zero heap allocations**.
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

fn allocs_during(f: impl FnOnce()) -> usize {
    let before = alloc_calls();
    f();
    alloc_calls() - before
}

#[test]
fn warm_into_kernels_do_not_allocate() {
    use mccp_aes::modes::{ccm_open_detached_into, ccm_seal_into, CcmParams, GcmContext};
    use mccp_aes::Aes;

    let aes = Aes::new_128(&[0x5Cu8; 16]);
    let ctx = GcmContext::new(&aes);
    let iv = [3u8; 12];
    let aad = [9u8; 20];
    let payload = [0xA7u8; 512];

    // --- GCM seal: warm the buffer once, then the steady state is 0. ---
    let mut sealed = Vec::new();
    ctx.seal_into(&iv, &aad, &payload, 16, &mut sealed).unwrap();
    let expect = sealed.clone();
    let n = allocs_during(|| {
        ctx.seal_into(&iv, &aad, &payload, 16, &mut sealed).unwrap();
    });
    assert_eq!(n, 0, "warm GcmContext::seal_into allocated {n} times");
    assert_eq!(sealed, expect);

    // --- GCM open (detached). ---
    let (ct, tag) = expect.split_at(expect.len() - 16);
    let mut opened = Vec::new();
    ctx.open_detached_into(&iv, &aad, ct, tag, &mut opened)
        .unwrap();
    let n = allocs_during(|| {
        ctx.open_detached_into(&iv, &aad, ct, tag, &mut opened)
            .unwrap();
    });
    assert_eq!(
        n, 0,
        "warm GcmContext::open_detached_into allocated {n} times"
    );
    assert_eq!(opened, payload);

    // --- CCM seal/open: streaming CBC-MAC, no formatted-input buffer. ---
    let params = CcmParams {
        nonce_len: 13,
        tag_len: 8,
    };
    let nonce = [7u8; 13];
    let mut sealed = Vec::new();
    ccm_seal_into(&aes, &params, &nonce, &aad, &payload, &mut sealed).unwrap();
    let n = allocs_during(|| {
        ccm_seal_into(&aes, &params, &nonce, &aad, &payload, &mut sealed).unwrap();
    });
    assert_eq!(n, 0, "warm ccm_seal_into allocated {n} times");

    let (ct, tag) = sealed.split_at(sealed.len() - params.tag_len);
    let (ct, tag) = (ct.to_vec(), tag.to_vec());
    let mut opened = Vec::new();
    ccm_open_detached_into(&aes, &params, &nonce, &aad, &ct, &tag, &mut opened).unwrap();
    let n = allocs_during(|| {
        ccm_open_detached_into(&aes, &params, &nonce, &aad, &ct, &tag, &mut opened).unwrap();
    });
    assert_eq!(n, 0, "warm ccm_open_detached_into allocated {n} times");
    assert_eq!(opened, payload);
}
