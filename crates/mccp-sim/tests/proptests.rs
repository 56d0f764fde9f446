//! Property tests for the hardware substrate: the FIFO against a
//! reference queue model, and resource-accounting arithmetic.

use mccp_sim::resources::{ResourceReport, Resources};
use mccp_sim::HwFifo;
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Clone, Debug)]
enum FifoOp {
    Push(u32),
    Pop,
    Wipe,
}

fn fifo_ops() -> impl Strategy<Value = Vec<FifoOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => any::<u32>().prop_map(FifoOp::Push),
            3 => Just(FifoOp::Pop),
            1 => Just(FifoOp::Wipe),
        ],
        0..200,
    )
}

proptest! {
    #[test]
    fn fifo_matches_reference_queue(depth in 1usize..64, ops in fifo_ops()) {
        let mut hw = HwFifo::new(depth);
        let mut model: VecDeque<u32> = VecDeque::new();
        for op in ops {
            match op {
                FifoOp::Push(w) => {
                    let accepted = hw.push(w);
                    prop_assert_eq!(accepted, model.len() < depth);
                    if accepted {
                        model.push_back(w);
                    }
                }
                FifoOp::Pop => {
                    prop_assert_eq!(hw.pop(), model.pop_front());
                }
                FifoOp::Wipe => {
                    hw.wipe();
                    model.clear();
                }
            }
            prop_assert_eq!(hw.len(), model.len());
            prop_assert_eq!(hw.is_empty(), model.is_empty());
            prop_assert_eq!(hw.is_full(), model.len() == depth);
            prop_assert_eq!(hw.peek(), model.front().copied());
        }
    }

    #[test]
    fn fifo_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut f = HwFifo::new(128);
        prop_assert!(f.push_bytes(&data));
        prop_assert_eq!(f.pop_bytes(data.len()).unwrap(), data);
        prop_assert!(f.is_empty());
    }

    #[test]
    fn resource_arithmetic_is_linear(
        s1 in 0u32..10_000, b1 in 0u32..100,
        s2 in 0u32..10_000, b2 in 0u32..100,
        n in 0u32..16,
    ) {
        let a = Resources::new(s1, b1);
        let b = Resources::new(s2, b2);
        prop_assert_eq!(a.plus(b), b.plus(a));
        prop_assert_eq!(a.times(n).slices, s1 * n);
        prop_assert_eq!(a.plus(b).times(n), a.times(n).plus(b.times(n)));
    }

    #[test]
    fn mccp_inventory_scales_monotonically(n in 1u32..12) {
        let smaller = ResourceReport::mccp(n).total();
        let larger = ResourceReport::mccp(n + 1).total();
        prop_assert!(larger.slices > smaller.slices);
        prop_assert!(larger.brams >= smaller.brams);
    }
}
