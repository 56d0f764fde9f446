//! Key Memory and Key Scheduler (paper §III.A).
//!
//! Security architecture: session keys are generated by the platform's
//! main controller and written into the **Key Memory**, which "cannot be
//! accessed in write mode by the MCCP"; the **Key Scheduler** expands a key
//! into round keys and pushes them into a core's **Key Cache**. "There is
//! no way to get the secret session key directly from the MCCP data port"
//! — mirrored here by the absence of any raw-key read API: the only
//! consumer of key material is the round-key expansion, and round keys are
//! only consumable by the AES datapath.

use crate::protocol::{CipherSel, KeyId, MccpError};
use mccp_aes::key_schedule::{KeySize, RoundKeys};
use mccp_aes::twofish::Twofish;
use mccp_cryptounit::CipherEngine;
use std::collections::HashMap;
use std::fmt;

/// Raw session-key bytes, 1 to 64 of them: the one type that holds them,
/// from the service slab and the rekey marker to pipeline stages and the
/// Key Memory. Dropping it zeroizes the bytes with volatile stores
/// ([`mccp_gf128::wipe`]), `{:?}` prints only the length, and it has no
/// `Clone`, so every copy of a key is spelled out in the code.
pub struct SessionKey(Box<[u8]>);

impl SessionKey {
    /// Copies 1 to 64 key bytes (64 fills one HMAC-Whirlpool block). Any
    /// other length is [`MccpError::BadKey`], refused before allocating.
    #[inline]
    pub fn new(bytes: &[u8]) -> Result<Self, MccpError> {
        if !(1..=64).contains(&bytes.len()) {
            return Err(MccpError::BadKey);
        }
        Ok(SessionKey(bytes.into()))
    }

    /// The key bytes, for handing to a key schedule or an engine.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Replaces the key bytes in place, reusing the key's storage.
    ///
    /// # Panics
    /// Panics if `bytes` is not as long as the key.
    pub fn overwrite(&mut self, bytes: &[u8]) {
        self.0.copy_from_slice(bytes);
    }

    /// Zeroizes the bytes with volatile stores, as dropping the key does;
    /// the key keeps its length and storage.
    pub fn wipe(&mut self) {
        mccp_gf128::wipe(&mut self.0);
    }
}

impl Drop for SessionKey {
    fn drop(&mut self) {
        self.wipe();
    }
}

/// Prints the key's length, never its bytes.
impl fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SessionKey {{ len: {} }}", self.0.len())
    }
}

/// The write-protected session-key store.
pub struct KeyMemory {
    keys: HashMap<KeyId, SessionKey>,
}

impl Default for KeyMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyMemory {
    /// An empty key memory.
    pub fn new() -> Self {
        KeyMemory {
            keys: HashMap::new(),
        }
    }

    /// Stores a session key. This models the *main controller's* write
    /// port; nothing inside the MCCP calls it.
    ///
    /// # Panics
    /// Panics if the key length is not 16, 24 or 32 bytes.
    pub fn store(&mut self, id: KeyId, key: &[u8]) {
        assert!(
            KeySize::from_key_len(key.len()).is_some(),
            "invalid AES key length: {} bytes",
            key.len()
        );
        self.keys
            .insert(id, SessionKey::new(key).expect("AES key sizes fit"));
    }

    /// Erases a session key (the dropped [`SessionKey`] zeroizes itself).
    pub fn erase(&mut self, id: KeyId) {
        self.keys.remove(&id);
    }

    /// Whether a key is present — the only metadata the MCCP side may ask.
    pub fn contains(&self, id: KeyId) -> bool {
        self.keys.contains_key(&id)
    }

    /// Key size of a stored key, if present.
    pub fn key_size(&self, id: KeyId) -> Option<KeySize> {
        self.keys
            .get(&id)
            .and_then(|k| KeySize::from_key_len(k.as_bytes().len()))
    }

    /// Internal read path for the Key Scheduler only.
    pub(crate) fn raw(&self, id: KeyId) -> Option<&[u8]> {
        self.keys.get(&id).map(SessionKey::as_bytes)
    }
}

/// The Key Scheduler: expands session keys to round keys with a modeled
/// hardware latency.
///
/// The expansion datapath produces one 32-bit round-key word per cycle
/// plus a fixed setup overhead — `4·(Nr+1) + 8` cycles: 52 / 60 / 68 for
/// AES-128/192/256. (The paper does not quantify this; the estimate matches
/// a word-serial expansion engine and is small against packet times.)
pub struct KeyScheduler {
    /// Cycles remaining on the current expansion job.
    busy: u32,
    expansions: u64,
}

impl Default for KeyScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyScheduler {
    pub fn new() -> Self {
        KeyScheduler {
            busy: 0,
            expansions: 0,
        }
    }

    /// Modeled expansion latency for a key size.
    pub fn expansion_cycles(size: KeySize) -> u32 {
        4 * (size.rounds() as u32 + 1) + 8
    }

    /// Starts an expansion, returning the round keys and charging the
    /// scheduler busy time. Returns `None` if the key is absent.
    pub fn expand(&mut self, memory: &KeyMemory, id: KeyId) -> Option<RoundKeys> {
        let raw = memory.raw(id)?;
        let rk = RoundKeys::expand(raw);
        self.busy += Self::expansion_cycles(rk.key_size());
        self.expansions += 1;
        Some(rk)
    }

    /// Modeled Twofish key-setup latency: the `h`-function evaluations for
    /// 40 subkeys plus the RS-derived S-box keys — substantially heavier
    /// than the AES expansion (an estimate; the paper never built one).
    pub const TWOFISH_SETUP_CYCLES: u32 = 160;

    /// Expands a key into a cipher engine for the selected cipher,
    /// charging the appropriate setup latency.
    pub fn expand_engine(
        &mut self,
        memory: &KeyMemory,
        id: KeyId,
        cipher: CipherSel,
    ) -> Option<CipherEngine> {
        match cipher {
            CipherSel::Aes => self
                .expand(memory, id)
                .map(|rk| CipherEngine::Aes(Box::new(rk))),
            CipherSel::Twofish => {
                let raw = memory.raw(id)?;
                let tf = Twofish::new(raw);
                self.busy += Self::TWOFISH_SETUP_CYCLES;
                self.expansions += 1;
                Some(CipherEngine::Twofish(Box::new(tf)))
            }
        }
    }

    /// True while an expansion is modeled as in flight.
    pub fn is_busy(&self) -> bool {
        self.busy > 0
    }

    /// Cycles left on the current expansion.
    pub fn busy_cycles(&self) -> u32 {
        self.busy
    }

    /// Advances one clock cycle.
    pub fn tick(&mut self) {
        self.busy = self.busy.saturating_sub(1);
    }

    /// Advances `n` cycles at once. The busy countdown saturates at zero,
    /// so — unlike the engines in the Cryptographic Unit — the scheduler
    /// has no observable zero-crossing and any span may be skipped.
    pub fn skip(&mut self, n: u64) {
        self.busy = self.busy.saturating_sub(n.min(u32::MAX as u64) as u32);
    }

    /// Total expansions performed.
    pub fn expansions(&self) -> u64 {
        self.expansions
    }
}

/// A core's Key Cache: the expanded cipher engine currently loaded,
/// tagged by key ID and cipher so the Task Scheduler can skip redundant
/// expansions.
#[derive(Default)]
pub struct KeyCache {
    entry: Option<(KeyId, CipherSel, CipherEngine)>,
    /// Sticky integrity-failure flag: set by fault injection to model a
    /// corrupted round-key RAM. The dispatch-time integrity check refuses
    /// to use a corrupt cache; [`wipe`](Self::wipe) clears it so the next
    /// expansion from the write-protected Key Memory restores health.
    corrupt: bool,
}

impl KeyCache {
    /// The key ID currently cached, if any.
    pub fn cached_id(&self) -> Option<KeyId> {
        self.entry.as_ref().map(|(id, _, _)| *id)
    }

    /// Installs a freshly expanded engine.
    pub fn install(&mut self, id: KeyId, cipher: CipherSel, engine: CipherEngine) {
        self.entry = Some((id, cipher, engine));
    }

    /// The cached engine for `(id, cipher)`, if present.
    pub fn get(&self, id: KeyId, cipher: CipherSel) -> Option<&CipherEngine> {
        match &self.entry {
            Some((cid, csel, engine)) if *cid == id && *csel == cipher => Some(engine),
            _ => None,
        }
    }

    /// Wipes the cache (channel close / reconfiguration / integrity
    /// failure). Clears the corruption flag along with the entry.
    pub fn wipe(&mut self) {
        self.entry = None;
        self.corrupt = false;
    }

    /// Marks the cached round keys corrupt (fault injection). A cache with
    /// nothing loaded cannot be corrupted; returns whether the flag latched.
    pub fn corrupt(&mut self) -> bool {
        if self.entry.is_some() {
            self.corrupt = true;
        }
        self.corrupt
    }

    /// True if the cached round keys failed their integrity check.
    pub fn is_corrupt(&self) -> bool {
        self.corrupt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_expand() {
        let mut mem = KeyMemory::new();
        mem.store(KeyId(1), &[7u8; 16]);
        assert!(mem.contains(KeyId(1)));
        assert_eq!(mem.key_size(KeyId(1)), Some(KeySize::Aes128));

        let mut ks = KeyScheduler::new();
        let rk = ks.expand(&mem, KeyId(1)).unwrap();
        assert_eq!(rk.rounds(), 10);
        assert!(ks.is_busy());
        assert_eq!(ks.busy_cycles(), 52);
        for _ in 0..52 {
            ks.tick();
        }
        assert!(!ks.is_busy());
        assert_eq!(ks.expansions(), 1);
    }

    #[test]
    fn wipe_and_overwrite_reuse_the_storage() {
        let mut key = SessionKey::new(&[7u8; 16]).unwrap();
        let storage = key.as_bytes().as_ptr();
        key.wipe();
        assert_eq!(key.as_bytes(), [0u8; 16]);
        key.overwrite(&[9u8; 16]);
        assert_eq!(
            (key.as_bytes(), key.as_bytes().as_ptr()),
            (&[9u8; 16][..], storage)
        );
    }

    #[test]
    #[should_panic]
    fn overwrite_refuses_another_length() {
        SessionKey::new(&[7u8; 16]).unwrap().overwrite(&[9u8; 32]);
    }

    #[test]
    fn missing_key_expands_to_none() {
        let mem = KeyMemory::new();
        let mut ks = KeyScheduler::new();
        assert!(ks.expand(&mem, KeyId(9)).is_none());
        assert!(!ks.is_busy());
    }

    #[test]
    fn expansion_cycles_by_size() {
        assert_eq!(KeyScheduler::expansion_cycles(KeySize::Aes128), 52);
        assert_eq!(KeyScheduler::expansion_cycles(KeySize::Aes192), 60);
        assert_eq!(KeyScheduler::expansion_cycles(KeySize::Aes256), 68);
    }

    #[test]
    fn session_keys_hold_1_to_64_bytes_and_print_only_their_length() {
        assert_eq!(SessionKey::new(&[]).unwrap_err(), MccpError::BadKey);
        assert_eq!(SessionKey::new(&[7; 65]).unwrap_err(), MccpError::BadKey);
        assert_eq!(SessionKey::new(&[7; 64]).unwrap().as_bytes().len(), 64);
        let key = SessionKey::new(&[0xA5; 16]).unwrap();
        assert_eq!(key.as_bytes(), &[0xA5u8; 16]);
        assert_eq!(format!("{key:?}"), "SessionKey { len: 16 }");
    }

    #[test]
    fn erase_removes() {
        let mut mem = KeyMemory::new();
        mem.store(KeyId(2), &[1u8; 32]);
        mem.erase(KeyId(2));
        assert!(!mem.contains(KeyId(2)));
    }

    #[test]
    fn key_cache_hit_and_miss() {
        let mut cache = KeyCache::default();
        assert!(cache.get(KeyId(1), CipherSel::Aes).is_none());
        cache.install(
            KeyId(1),
            CipherSel::Aes,
            CipherEngine::Aes(Box::new(RoundKeys::expand(&[1u8; 16]))),
        );
        assert!(cache.get(KeyId(1), CipherSel::Aes).is_some());
        assert!(cache.get(KeyId(2), CipherSel::Aes).is_none());
        // A cipher mismatch is a miss even under the same key id.
        assert!(cache.get(KeyId(1), CipherSel::Twofish).is_none());
        assert_eq!(cache.cached_id(), Some(KeyId(1)));
        cache.wipe();
        assert!(cache.get(KeyId(1), CipherSel::Aes).is_none());
    }

    #[test]
    fn twofish_engine_expansion() {
        let mut mem = KeyMemory::new();
        mem.store(KeyId(4), &[9u8; 16]);
        let mut ks = KeyScheduler::new();
        let engine = ks
            .expand_engine(&mem, KeyId(4), CipherSel::Twofish)
            .unwrap();
        assert_eq!(engine.name(), "Twofish");
        assert_eq!(ks.busy_cycles(), KeyScheduler::TWOFISH_SETUP_CYCLES);
    }

    #[test]
    #[should_panic(expected = "invalid AES key length")]
    fn bad_key_length_rejected() {
        let mut mem = KeyMemory::new();
        mem.store(KeyId(0), &[0u8; 17]);
    }
}
