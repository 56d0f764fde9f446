//! Short byte strings held inline: packet IVs and authentication tags.
//!
//! An IV is at most 16 bytes (a CTR counter block) and a tag at most 64
//! (an HMAC-Whirlpool pipeline stage; the AES modes stop at 16), so both
//! fit in a fixed array beside their length. Being `Copy`, they ride a
//! packet from admission to delivery without an allocation, and they
//! deref to `[u8]` wherever a slice is wanted.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Up to `N` bytes (`N` ≤ 255) stored inline with their length.
#[derive(Clone, Copy)]
pub struct InlineBytes<const N: usize> {
    len: u8,
    bytes: [u8; N],
}

/// A packet IV or nonce (GCM 12, CCM 7–13, CTR 16, CBC-MAC 0 bytes).
pub type Iv = InlineBytes<16>;

/// An authentication tag or MAC (up to 64 bytes).
pub type Tag = InlineBytes<64>;

impl<const N: usize> InlineBytes<N> {
    /// No bytes.
    pub const EMPTY: Self = InlineBytes {
        len: 0,
        bytes: [0; N],
    };

    /// Copies `bytes`.
    ///
    /// # Panics
    /// Panics if `bytes` is longer than `N`.
    pub fn from_slice(bytes: &[u8]) -> Self {
        assert!(
            bytes.len() <= N && N <= usize::from(u8::MAX),
            "{} bytes do not fit inline in {N}",
            bytes.len()
        );
        let mut out = Self::EMPTY;
        out.bytes[..bytes.len()].copy_from_slice(bytes);
        out.len = bytes.len() as u8;
        out
    }
}

impl<const N: usize> Default for InlineBytes<N> {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl<const N: usize> Deref for InlineBytes<N> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl<const N: usize> fmt::Debug for InlineBytes<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// Equality and hashing see only the live bytes, exactly as a `Vec<u8>`
// holding them would.
impl<const N: usize> PartialEq for InlineBytes<N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize> Eq for InlineBytes<N> {}

impl<const N: usize> Hash for InlineBytes<N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<const N: usize> PartialEq<[u8]> for InlineBytes<N> {
    fn eq(&self, other: &[u8]) -> bool {
        **self == *other
    }
}

impl<const N: usize> PartialEq<Vec<u8>> for InlineBytes<N> {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<InlineBytes<N>> for Vec<u8> {
    fn eq(&self, other: &InlineBytes<N>) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn behaves_like_the_vec_it_replaces() {
        let v = vec![1u8, 2, 3];
        let iv = Iv::from_slice(&v);
        assert_eq!(iv.len(), 3);
        assert_eq!(&iv[..], &v[..]);
        assert_eq!(iv, v);
        assert_eq!(v, iv);
        assert_eq!(format!("{iv:?}"), format!("{v:?}"));
        assert_eq!(hash_of(&iv), hash_of(&v));
        assert_eq!(Iv::default(), Iv::from_slice(&[]));
        assert!(Iv::EMPTY.is_empty());
        // Only the live bytes count: equal prefixes of different lengths
        // differ.
        assert_ne!(Iv::from_slice(&[0, 0]), Iv::from_slice(&[0]));
        assert_eq!(Tag::from_slice(&[7; 64]).len(), 64);
    }

    #[test]
    #[should_panic(expected = "17 bytes do not fit inline in 16")]
    fn overlong_input_is_refused() {
        Iv::from_slice(&[0; 17]);
    }
}
