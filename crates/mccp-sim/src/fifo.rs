//! The Cryptographic Core packet FIFOs.
//!
//! Paper §IV.A: each core has two 512 × 32-bit FIFOs (input and output);
//! §IV.C: "Each FIFO can store a packet of 2048 bytes of data which is
//! sufficient for most of communication protocols", and "output FIFO is
//! reinitialized if plaintext data does not match the authentication tag"
//! — the wipe that protects the master processor from splicing attacks.

use std::collections::VecDeque;

/// Default FIFO depth in 32-bit words (512 × 32 bits = 2048 bytes).
pub const DEFAULT_DEPTH: usize = 512;

/// A bounded hardware FIFO of 32-bit words.
#[derive(Clone, Debug)]
pub struct HwFifo {
    words: VecDeque<u32>,
    depth: usize,
    /// Statistics: total words ever pushed (for occupancy studies).
    pushed: u64,
    /// High-water mark of occupancy.
    high_water: usize,
    /// Sticky per-word parity-error flag: set when a queued word is
    /// corrupted (fault injection models an SEU here), cleared only by
    /// [`wipe`](Self::wipe). The hardware analogue is a parity bit stored
    /// alongside each word and checked on read-out.
    parity_error: bool,
}

impl Default for HwFifo {
    fn default() -> Self {
        Self::new(DEFAULT_DEPTH)
    }
}

impl HwFifo {
    /// Creates a FIFO holding up to `depth` 32-bit words.
    ///
    /// # Panics
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "FIFO depth must be positive");
        HwFifo {
            words: VecDeque::with_capacity(depth),
            depth,
            pushed: 0,
            high_water: 0,
            parity_error: false,
        }
    }

    /// Capacity in 32-bit words.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Current occupancy in words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if no words are queued.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// True if another push would be refused.
    pub fn is_full(&self) -> bool {
        self.words.len() == self.depth
    }

    /// Free space in words.
    pub fn free(&self) -> usize {
        self.depth - self.words.len()
    }

    /// Pushes one word; returns `false` (word dropped) when full, as the
    /// hardware's `full` flag would gate the write strobe.
    pub fn push(&mut self, word: u32) -> bool {
        if self.is_full() {
            return false;
        }
        self.words.push_back(word);
        self.pushed += 1;
        self.high_water = self.high_water.max(self.words.len());
        true
    }

    /// Pops one word, or `None` when empty.
    pub fn pop(&mut self) -> Option<u32> {
        self.words.pop_front()
    }

    /// Peeks at the next word without consuming it.
    pub fn peek(&self) -> Option<u32> {
        self.words.front().copied()
    }

    /// Reinitializes the FIFO, discarding all contents — the paper's
    /// defense on authentication failure. Also clears the sticky parity
    /// flag: wiped words take their bad parity bits with them.
    pub fn wipe(&mut self) {
        self.words.clear();
        self.parity_error = false;
    }

    /// Flips one bit of the `idx`-th queued word (fault injection: a
    /// single-event upset in the FIFO RAM) and latches the sticky parity
    /// flag. Returns `false` (no change) when the FIFO holds no word at
    /// `idx`.
    pub fn corrupt_word(&mut self, idx: usize, bit: u8) -> bool {
        match self.words.get_mut(idx) {
            Some(w) => {
                *w ^= 1u32 << (bit % 32);
                self.parity_error = true;
                true
            }
            None => false,
        }
    }

    /// True if any word queued since the last [`wipe`](Self::wipe) failed
    /// its parity check.
    pub fn parity_error(&self) -> bool {
        self.parity_error
    }

    /// Pushes a byte slice as big-endian 32-bit words, zero-padding the
    /// final word. Returns `false` (and pushes nothing) if it doesn't fit.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> bool {
        let words_needed = bytes.len().div_ceil(4);
        if words_needed > self.free() {
            return false;
        }
        for chunk in bytes.chunks(4) {
            let mut w = [0u8; 4];
            w[..chunk.len()].copy_from_slice(chunk);
            let ok = self.push(u32::from_be_bytes(w));
            debug_assert!(ok);
        }
        true
    }

    /// Pops `n` bytes (rounded up to whole words internally), big-endian.
    /// Returns `None` if fewer than `ceil(n/4)` words are queued.
    pub fn pop_bytes(&mut self, n: usize) -> Option<Vec<u8>> {
        let words_needed = n.div_ceil(4);
        if self.words.len() < words_needed {
            return None;
        }
        let mut out = Vec::with_capacity(words_needed * 4);
        for _ in 0..words_needed {
            out.extend_from_slice(&self.pop().expect("checked length").to_be_bytes());
        }
        out.truncate(n);
        Some(out)
    }

    /// Lifetime count of pushed words.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Deepest occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Restarts the high-water mark from the current occupancy.
    pub fn reset_high_water(&mut self) {
        self.high_water = self.words.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_paper() {
        let f = HwFifo::default();
        assert_eq!(f.depth(), 512);
        // 512 words x 4 bytes = one 2048-byte packet.
        assert_eq!(f.depth() * 4, 2048);
    }

    #[test]
    fn fifo_order() {
        let mut f = HwFifo::new(4);
        assert!(f.push(1));
        assert!(f.push(2));
        assert!(f.push(3));
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.peek(), Some(2));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn full_refuses_push() {
        let mut f = HwFifo::new(2);
        assert!(f.push(1));
        assert!(f.push(2));
        assert!(f.is_full());
        assert!(!f.push(3));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn wipe_clears_contents() {
        let mut f = HwFifo::new(8);
        f.push_bytes(b"secret!!");
        assert!(!f.is_empty());
        f.wipe();
        assert!(f.is_empty());
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn bytes_roundtrip_with_padding() {
        let mut f = HwFifo::new(8);
        assert!(f.push_bytes(b"hello"));
        // 5 bytes -> 2 words.
        assert_eq!(f.len(), 2);
        assert_eq!(f.pop_bytes(5).unwrap(), b"hello");
        assert!(f.is_empty());
    }

    #[test]
    fn push_bytes_is_all_or_nothing() {
        let mut f = HwFifo::new(2);
        assert!(!f.push_bytes(&[0u8; 12])); // needs 3 words
        assert!(f.is_empty());
        assert!(f.push_bytes(&[0u8; 8]));
        assert!(f.is_full());
    }

    #[test]
    fn pop_bytes_insufficient_returns_none() {
        let mut f = HwFifo::new(8);
        f.push_bytes(&[1, 2, 3, 4]);
        assert!(f.pop_bytes(8).is_none());
        assert_eq!(f.pop_bytes(4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn statistics() {
        let mut f = HwFifo::new(4);
        f.push(1);
        f.push(2);
        f.pop();
        f.push(3);
        assert_eq!(f.total_pushed(), 3);
        assert_eq!(f.high_water(), 2);
    }

    #[test]
    #[should_panic(expected = "FIFO depth must be positive")]
    fn zero_depth_panics() {
        let _ = HwFifo::new(0);
    }
}
