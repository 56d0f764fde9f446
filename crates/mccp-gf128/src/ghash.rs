//! GHASH — the universal hash of GCM (NIST SP 800-38D §6.4).
//!
//! [`GhashKey`] precomputes Shoup's 8-bit multiplication table for a fixed
//! hash subkey `H`, making per-block multiplication 16 table lookups plus 16
//! single-lookup `x^8` reductions instead of 128 shift/XOR steps. [`Ghash`]
//! is the incremental hasher built on top, and [`ghash`] is the one-shot
//! convenience over an AAD / ciphertext pair.
//!
//! [`GhashPowers`] layers block batching on top: with `H^1..H^8`
//! precomputed, eight blocks fold in one step as
//! `(Y + X_1)·H^8 + X_2·H^7 + … + X_8·H^1` — the same value the serial
//! Horner recurrence produces, but as eight *independent* multiplications
//! a superscalar host can overlap, instead of a serial chain where each
//! multiply waits on the previous one. The multiplications run on
//! PCLMULQDQ ([`crate::clmul`]) when the CPU has it, and on one Shoup
//! table per power otherwise. [`GhashBatched`] is the incremental hasher
//! over that kernel.

use crate::element::Gf128;

/// A GHASH subkey with its precomputed 8-bit (256-entry) multiple table.
///
/// Entry `M[n]` holds `E(n) * H`, where `E(n)` places the 8 bits of `n` at
/// the top of the block (powers `x^0..x^7`). A full product is then a Horner
/// evaluation over the 16 bytes of the other operand.
///
/// Construction needs only 16 bitwise multiplies: a 4-bit table is built
/// first, and each byte entry is composed from its two nibble entries —
/// `E(hi || lo) * H = E(hi)*H + (E(lo)*H) * x^4`.
#[derive(Clone)]
pub struct GhashKey {
    h: Gf128,
    table: [Gf128; 256],
}

impl GhashKey {
    /// Precomputes the table for hash subkey `h`.
    pub fn new(h: Gf128) -> Self {
        let mut nibble = [Gf128::ZERO; 16];
        for (n, entry) in nibble.iter_mut().enumerate() {
            *entry = Gf128((n as u128) << 124).mul_bitwise(h);
        }
        let mut table = [Gf128::ZERO; 256];
        for (n, entry) in table.iter_mut().enumerate() {
            *entry = nibble[n >> 4] + nibble[n & 0xF].mul_x4();
        }
        GhashKey { h, table }
    }

    /// The raw hash subkey.
    pub fn h(&self) -> Gf128 {
        self.h
    }

    /// Multiplies `x` by the subkey using the 8-bit table (Shoup's method).
    pub fn mul_h(&self, x: Gf128) -> Gf128 {
        let mut z = Gf128::ZERO;
        // Byte k covers powers x^{8k}..x^{8k+7}, stored at u128 bits
        // (120-8k)..(127-8k). Horner from the highest power group down.
        for k in (0..16).rev() {
            z = z.mul_x8();
            let byte = ((x.0 >> (120 - 8 * k)) & 0xFF) as usize;
            z += self.table[byte];
        }
        z
    }
}

/// Incremental GHASH state.
///
/// Feed AAD first, then ciphertext, then call [`Ghash::finalize`]; the
/// length block is appended automatically. Partial final blocks of either
/// section are zero-padded, per the specification.
///
/// Borrows its key: the 4 KiB Shoup table is never copied per hash, so
/// starting a `Ghash` is free and packet paths can share one cached key.
#[derive(Clone)]
pub struct Ghash<'k> {
    key: &'k GhashKey,
    y: Gf128,
    aad_bits: u64,
    ct_bits: u64,
    /// Buffered partial block for the section currently being absorbed.
    buf: [u8; 16],
    buf_len: usize,
    in_ciphertext: bool,
}

impl<'k> Ghash<'k> {
    /// Starts a fresh GHASH computation under `key`.
    pub fn new(key: &'k GhashKey) -> Self {
        Ghash {
            key,
            y: Gf128::ZERO,
            aad_bits: 0,
            ct_bits: 0,
            buf: [0u8; 16],
            buf_len: 0,
            in_ciphertext: false,
        }
    }

    fn absorb_block(&mut self, block: &[u8; 16]) {
        self.y = self.key.mul_h(self.y + Gf128::from_bytes(block));
    }

    fn flush_partial(&mut self) {
        if self.buf_len > 0 {
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            self.absorb_block(&block);
            self.buf_len = 0;
        }
    }

    fn absorb(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.absorb_block(&block);
                self.buf_len = 0;
            }
        }
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            let block: &[u8; 16] = chunk.try_into().expect("exact chunk");
            self.absorb_block(block);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            self.buf[..rem.len()].copy_from_slice(rem);
            self.buf_len = rem.len();
        }
    }

    /// Absorbs additional authenticated data. Must precede all ciphertext.
    ///
    /// # Panics
    /// Panics if ciphertext has already been absorbed.
    pub fn update_aad(&mut self, aad: &[u8]) {
        assert!(
            !self.in_ciphertext,
            "AAD must be absorbed before ciphertext"
        );
        self.aad_bits += (aad.len() as u64) * 8;
        self.absorb(aad);
    }

    /// Absorbs ciphertext. The first call zero-pads and closes the AAD
    /// section.
    pub fn update_ciphertext(&mut self, ct: &[u8]) {
        if !self.in_ciphertext {
            self.flush_partial();
            self.in_ciphertext = true;
        }
        self.ct_bits += (ct.len() as u64) * 8;
        self.absorb(ct);
    }

    /// Pads the final section, absorbs the 128-bit length block
    /// `len(AAD) || len(C)` and returns the hash value.
    pub fn finalize(mut self) -> Gf128 {
        self.flush_partial();
        let len_block = ((self.aad_bits as u128) << 64) | self.ct_bits as u128;
        self.y = self.key.mul_h(self.y + Gf128(len_block));
        self.y
    }
}

/// One-shot GHASH over an (AAD, ciphertext) pair.
pub fn ghash(key: &GhashKey, aad: &[u8], ciphertext: &[u8]) -> Gf128 {
    let mut g = Ghash::new(key);
    g.update_aad(aad);
    g.update_ciphertext(ciphertext);
    g.finalize()
}

/// How many blocks [`GhashPowers::fold`] aggregates per step.
pub const GHASH_BATCH_BLOCKS: usize = 8;

/// The batch width in bytes (eight 16-byte blocks).
pub const GHASH_BATCH_BYTES: usize = GHASH_BATCH_BLOCKS * 16;

/// Precomputed powers `H^1..H^8` of a GHASH subkey, in one of two arms
/// chosen once per key by the CPU:
///
/// * **carry-less multiply** — on x86-64 hosts with PCLMULQDQ
///   ([`crate::clmul`]), the powers are eight plain [`Gf128`] values
///   (128 B, seven field multiplies to build) and a batch costs 32
///   carry-less multiplies plus one reduction;
/// * **Shoup tables** — everywhere else, each power gets its own 8-bit
///   [`GhashKey`] table (8 × 4 KiB, heap-allocated).
///
/// The serial recurrence `Y_i = (Y_{i-1} + X_i)·H` unrolled eight times is
///
/// ```text
/// Y_8 = (Y_0 + X_1)·H^8 + X_2·H^7 + … + X_8·H^1
/// ```
///
/// — eight multiplications that no longer depend on each other. GF(2^128)
/// arithmetic is exact, so the folded value is bit-identical to eight
/// Horner steps in either arm; the equivalence is property-tested.
///
/// Dropping the powers wipes them (and every table), so a closed or
/// rekeyed channel leaves no hash key in freed memory.
pub struct GhashPowers {
    arm: PowersArm,
}

impl Drop for GhashPowers {
    fn drop(&mut self) {
        match &mut self.arm {
            #[cfg(target_arch = "x86_64")]
            PowersArm::Clmul(powers) => crate::wipe(powers),
            PowersArm::Table(tables) => {
                for t in tables {
                    crate::wipe(std::slice::from_mut(&mut t.h));
                    crate::wipe(&mut t.table);
                }
            }
        }
    }
}

/// The per-key state of one batched-GHASH arm; `[i]` holds `H^(i+1)`.
enum PowersArm {
    /// Only built after `clmul::supported()` returned true.
    #[cfg(target_arch = "x86_64")]
    Clmul([Gf128; GHASH_BATCH_BLOCKS]),
    Table(Vec<GhashKey>),
}

impl GhashPowers {
    /// Precomputes `H^1..H^8` for hash subkey `h`, as field elements when
    /// the host has PCLMULQDQ and as Shoup tables otherwise.
    pub fn new(h: Gf128) -> Self {
        #[cfg(target_arch = "x86_64")]
        if crate::clmul::supported() {
            let mut powers = [h; GHASH_BATCH_BLOCKS];
            for i in 1..GHASH_BATCH_BLOCKS {
                // SAFETY: `clmul::supported()` just returned true.
                powers[i] = unsafe { crate::clmul::mul(powers[i - 1], h) };
            }
            return GhashPowers {
                arm: PowersArm::Clmul(powers),
            };
        }
        Self::with_tables(h)
    }

    /// The Shoup-table arm, whatever the CPU: the only batched arm on hosts
    /// without PCLMULQDQ, and reachable here so tests cover it on hosts
    /// that have it.
    fn with_tables(h: Gf128) -> Self {
        let mut powers = Vec::with_capacity(GHASH_BATCH_BLOCKS);
        let mut hp = h;
        for _ in 0..GHASH_BATCH_BLOCKS {
            powers.push(GhashKey::new(hp));
            hp = hp.mul_bitwise(h);
        }
        GhashPowers {
            arm: PowersArm::Table(powers),
        }
    }

    /// The arm this key runs on: `"clmul"` or `"table"`.
    pub fn arm(&self) -> &'static str {
        match self.arm {
            #[cfg(target_arch = "x86_64")]
            PowersArm::Clmul(_) => "clmul",
            PowersArm::Table(_) => "table",
        }
    }

    /// `H^1..H^8` as field elements when the key is on the carry-less
    /// multiply arm (so the host has PCLMULQDQ), else `None`. Kernels that
    /// run their own CLMUL GHASH, like `mccp_aes`'s stitched GCM pass, read
    /// the powers here.
    pub fn clmul_powers(&self) -> Option<&[Gf128; GHASH_BATCH_BLOCKS]> {
        match &self.arm {
            #[cfg(target_arch = "x86_64")]
            PowersArm::Clmul(powers) => Some(powers),
            PowersArm::Table(_) => None,
        }
    }

    /// The raw hash subkey `H`.
    pub fn h(&self) -> Gf128 {
        match &self.arm {
            #[cfg(target_arch = "x86_64")]
            PowersArm::Clmul(powers) => powers[0],
            PowersArm::Table(tables) => tables[0].h(),
        }
    }

    /// Multiplies `x` by `H` — one serial Horner step.
    fn mul_h(&self, x: Gf128) -> Gf128 {
        match &self.arm {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the `Clmul` arm is only built after
            // `clmul::supported()` returned true.
            PowersArm::Clmul(powers) => unsafe { crate::clmul::mul(x, powers[0]) },
            PowersArm::Table(tables) => tables[0].mul_h(x),
        }
    }

    /// Folds one batch of eight 16-byte blocks into the running hash.
    ///
    /// # Panics
    /// Panics if `blocks.len() != 128`.
    #[inline]
    pub fn fold(&self, y: Gf128, blocks: &[u8]) -> Gf128 {
        let blocks: &[u8; GHASH_BATCH_BYTES] = blocks.try_into().expect("fold takes 8 blocks");
        match &self.arm {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the `Clmul` arm is only built after
            // `clmul::supported()` returned true.
            PowersArm::Clmul(powers) => unsafe { crate::clmul::fold(powers, y, blocks) },
            PowersArm::Table(tables) => fold_tables(tables, y, blocks),
        }
    }
}

/// The table arm's fold: eight independent Shoup-table multiplications,
/// one per power.
fn fold_tables(tables: &[GhashKey], y: Gf128, blocks: &[u8; GHASH_BATCH_BYTES]) -> Gf128 {
    let x = |i: usize| {
        let b: &[u8; 16] = blocks[16 * i..16 * i + 16].try_into().expect("16");
        Gf128::from_bytes(b)
    };
    let mut acc = tables[7].mul_h(y + x(0));
    acc += tables[6].mul_h(x(1));
    acc += tables[5].mul_h(x(2));
    acc += tables[4].mul_h(x(3));
    acc += tables[3].mul_h(x(4));
    acc += tables[2].mul_h(x(5));
    acc += tables[1].mul_h(x(6));
    acc += tables[0].mul_h(x(7));
    acc
}

/// Incremental GHASH over the batched kernel: byte-identical results to
/// [`Ghash`], but whole blocks are absorbed eight at a time through
/// [`GhashPowers::fold`].
///
/// The GHASH input stream is uniform once each section is zero-padded —
/// `pad(AAD) || pad(C) || len` — so one 128-byte staging buffer carries
/// batches across the AAD/ciphertext boundary; the tail that doesn't fill
/// a batch at finalization falls back to serial Horner steps with `H^1`.
pub struct GhashBatched<'k> {
    powers: &'k GhashPowers,
    y: Gf128,
    aad_bits: u64,
    ct_bits: u64,
    /// Staging for up to one batch of padded blocks.
    buf: [u8; GHASH_BATCH_BYTES],
    buf_len: usize,
    in_ciphertext: bool,
}

impl<'k> GhashBatched<'k> {
    /// Starts a fresh batched GHASH computation under `powers`.
    pub fn new(powers: &'k GhashPowers) -> Self {
        GhashBatched {
            powers,
            y: Gf128::ZERO,
            aad_bits: 0,
            ct_bits: 0,
            buf: [0u8; GHASH_BATCH_BYTES],
            buf_len: 0,
            in_ciphertext: false,
        }
    }

    /// Absorbs raw padded-stream bytes, folding full batches as they fill.
    fn absorb(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (GHASH_BATCH_BYTES - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == GHASH_BATCH_BYTES {
                self.y = self.powers.fold(self.y, &self.buf);
                self.buf_len = 0;
            }
        }
        let mut chunks = data.chunks_exact(GHASH_BATCH_BYTES);
        for chunk in &mut chunks {
            self.y = self.powers.fold(self.y, chunk);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            self.buf[..rem.len()].copy_from_slice(rem);
            self.buf_len = rem.len();
        }
    }

    /// Zero-pads the staging buffer to the next 16-byte block boundary
    /// (closing the current section per the specification).
    fn pad_to_block(&mut self) {
        let rem = self.buf_len % 16;
        if rem != 0 {
            let pad = 16 - rem;
            self.buf[self.buf_len..self.buf_len + pad].fill(0);
            self.buf_len += pad;
            if self.buf_len == GHASH_BATCH_BYTES {
                self.y = self.powers.fold(self.y, &self.buf);
                self.buf_len = 0;
            }
        }
    }

    /// Absorbs additional authenticated data. Must precede all ciphertext.
    ///
    /// # Panics
    /// Panics if ciphertext has already been absorbed.
    pub fn update_aad(&mut self, aad: &[u8]) {
        assert!(
            !self.in_ciphertext,
            "AAD must be absorbed before ciphertext"
        );
        self.aad_bits += (aad.len() as u64) * 8;
        self.absorb(aad);
    }

    /// Absorbs ciphertext. The first call zero-pads and closes the AAD
    /// section.
    pub fn update_ciphertext(&mut self, ct: &[u8]) {
        if !self.in_ciphertext {
            self.pad_to_block();
            self.in_ciphertext = true;
        }
        self.ct_bits += (ct.len() as u64) * 8;
        self.absorb(ct);
    }

    /// Pads the final section, absorbs the 128-bit length block and
    /// returns the hash value. Whatever whole blocks remain staged fold
    /// serially with `H^1`.
    pub fn finalize(mut self) -> Gf128 {
        self.pad_to_block();
        let len_block = ((self.aad_bits as u128) << 64) | self.ct_bits as u128;
        let len_bytes = len_block.to_be_bytes();
        self.buf[self.buf_len..self.buf_len + 16].copy_from_slice(&len_bytes);
        self.buf_len += 16;
        if self.buf_len == GHASH_BATCH_BYTES {
            self.y = self.powers.fold(self.y, &self.buf);
            self.buf_len = 0;
        }
        for block in self.buf[..self.buf_len].chunks_exact(16) {
            let b: &[u8; 16] = block.try_into().expect("16");
            self.y = self.powers.mul_h(self.y + Gf128::from_bytes(b));
        }
        self.y
    }
}

/// One-shot batched GHASH over an (AAD, ciphertext) pair.
pub fn ghash_batched(powers: &GhashPowers, aad: &[u8], ciphertext: &[u8]) -> Gf128 {
    let mut g = GhashBatched::new(powers);
    g.update_aad(aad);
    g.update_ciphertext(ciphertext);
    g.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h_case2() -> Gf128 {
        Gf128::from_bytes(&[
            0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34,
            0x2b, 0x2e,
        ])
    }

    #[test]
    fn table_mul_matches_bitwise() {
        let key = GhashKey::new(h_case2());
        let xs = [
            Gf128::ZERO,
            Gf128::ONE,
            Gf128(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
            Gf128(u128::MAX),
            Gf128(1),
        ];
        for x in xs {
            assert_eq!(key.mul_h(x), x.mul_bitwise(h_case2()), "x = {x:?}");
        }
    }

    #[test]
    fn byte_table_entries_match_definition() {
        let key = GhashKey::new(h_case2());
        for n in 0..256usize {
            let direct = Gf128((n as u128) << 120).mul_bitwise(h_case2());
            assert_eq!(key.table[n], direct, "entry {n}");
        }
    }

    #[test]
    fn table_mul_matches_digit_serial_model() {
        let key = GhashKey::new(h_case2());
        let multiplier = crate::digit_serial::DigitSerialMultiplier::new(h_case2());
        let xs = [
            Gf128::ZERO,
            Gf128::ONE,
            Gf128(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
            Gf128(u128::MAX),
            Gf128(0xdead_beef),
        ];
        for x in xs {
            assert_eq!(key.mul_h(x), multiplier.mul(x).product, "x = {x:?}");
        }
    }

    #[test]
    fn ghash_gcm_test_case_2() {
        // GCM spec test case 2: zero key, single zero plaintext block.
        let key = GhashKey::new(h_case2());
        let ct = [
            0x03, 0x88, 0xda, 0xce, 0x60, 0xb6, 0xa3, 0x92, 0xf3, 0x28, 0xc2, 0xb9, 0x71, 0xb2,
            0xfe, 0x78,
        ];
        let out = ghash(&key, &[], &ct);
        let expect = Gf128::from_bytes(&[
            0xf3, 0x8c, 0xbb, 0x1a, 0xd6, 0x92, 0x23, 0xdc, 0xc3, 0x45, 0x7a, 0xe5, 0xb6, 0xb0,
            0xf8, 0x85,
        ]);
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_input_hashes_length_block_only() {
        let key = GhashKey::new(h_case2());
        let out = ghash(&key, &[], &[]);
        // GHASH of nothing = 0 + len-block(0) multiplied by H = 0.
        assert_eq!(out, Gf128::ZERO);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = GhashKey::new(h_case2());
        let aad: Vec<u8> = (0u8..37).collect();
        let ct: Vec<u8> = (0u8..100).map(|i| i.wrapping_mul(7)).collect();
        let oneshot = ghash(&key, &aad, &ct);

        let mut inc = Ghash::new(&key);
        inc.update_aad(&aad[..10]);
        inc.update_aad(&aad[10..]);
        inc.update_ciphertext(&ct[..1]);
        inc.update_ciphertext(&ct[1..50]);
        inc.update_ciphertext(&ct[50..]);
        assert_eq!(inc.finalize(), oneshot);
    }

    /// The arm `new` picks on this host, then the table arm explicitly.
    fn both_arms(h: Gf128) -> [GhashPowers; 2] {
        [GhashPowers::new(h), GhashPowers::with_tables(h)]
    }

    #[test]
    fn new_picks_clmul_arm_when_supported() {
        let powers = GhashPowers::new(h_case2());
        #[cfg(target_arch = "x86_64")]
        if crate::clmul::supported() {
            assert_eq!(powers.arm(), "clmul");
            return;
        }
        assert_eq!(powers.arm(), "table");
    }

    #[test]
    fn fold_matches_eight_horner_steps() {
        use rand::{RngCore, SeedableRng};

        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0F01D);
        let element = |rng: &mut rand::rngs::StdRng| {
            let mut bytes = [0u8; 16];
            rng.fill_bytes(&mut bytes);
            Gf128::from_bytes(&bytes)
        };
        let mut cases = vec![(
            h_case2(),
            Gf128(0xfeed_0000_dead_0000_beef_0000_cafe_0000),
            (0..128u8).map(|i| i.wrapping_mul(13)).collect::<Vec<u8>>(),
        )];
        for _ in 0..64 {
            let (h, y0) = (element(&mut rng), element(&mut rng));
            let mut blocks = vec![0u8; GHASH_BATCH_BYTES];
            rng.fill_bytes(&mut blocks);
            cases.push((h, y0, blocks));
        }
        for (h, y0, blocks) in cases {
            let key = GhashKey::new(h);
            let mut y = y0;
            for block in blocks.chunks_exact(16) {
                let b: &[u8; 16] = block.try_into().unwrap();
                y = key.mul_h(y + Gf128::from_bytes(b));
            }
            for powers in both_arms(h) {
                assert_eq!(powers.fold(y0, &blocks), y, "{} arm, h {h:?}", powers.arm());
            }
        }
    }

    #[test]
    fn batched_matches_scalar_all_lengths() {
        let key = GhashKey::new(h_case2());
        // Every (aad, ct) length split around the batch and block
        // boundaries, including AAD-only and empty inputs.
        let data: Vec<u8> = (0..1200u32).map(|i| (i * 31 % 251) as u8).collect();
        for powers in both_arms(h_case2()) {
            for aad_len in [0usize, 1, 15, 16, 17, 127, 128, 129, 300] {
                for ct_len in [0usize, 1, 15, 16, 17, 64, 127, 128, 129, 512, 800] {
                    let aad = &data[..aad_len];
                    let ct = &data[aad_len..aad_len + ct_len];
                    assert_eq!(
                        ghash_batched(&powers, aad, ct),
                        ghash(&key, aad, ct),
                        "{} arm, aad {aad_len} ct {ct_len}",
                        powers.arm()
                    );
                }
            }
        }
    }

    #[test]
    fn batched_incremental_split_points_agree() {
        let powers = GhashPowers::new(h_case2());
        let aad: Vec<u8> = (0u8..37).collect();
        let ct: Vec<u8> = (0..300u32).map(|i| (i * 7 % 256) as u8).collect();
        let oneshot = ghash_batched(&powers, &aad, &ct);
        for split in [0usize, 1, 16, 128, 129, 200, 300] {
            let mut inc = GhashBatched::new(&powers);
            inc.update_aad(&aad);
            inc.update_ciphertext(&ct[..split]);
            inc.update_ciphertext(&ct[split..]);
            assert_eq!(inc.finalize(), oneshot, "split {split}");
        }
    }

    #[test]
    fn powers_h_is_h1() {
        for powers in both_arms(h_case2()) {
            assert_eq!(powers.h(), h_case2(), "{} arm", powers.arm());
        }
    }

    #[test]
    fn partial_blocks_are_zero_padded() {
        let key = GhashKey::new(h_case2());
        // 3-byte AAD should hash identically to itself padded into a block
        // computed by hand.
        let aad = [0xAA, 0xBB, 0xCC];
        let mut block = [0u8; 16];
        block[..3].copy_from_slice(&aad);
        let manual = {
            let y1 = key.mul_h(Gf128::from_bytes(&block));
            let len_block = Gf128((24u128) << 64);
            key.mul_h(y1 + len_block)
        };
        assert_eq!(ghash(&key, &aad, &[]), manual);
    }

    #[test]
    #[should_panic(expected = "AAD must be absorbed before ciphertext")]
    fn aad_after_ciphertext_panics() {
        let key = GhashKey::new(h_case2());
        let mut g = Ghash::new(&key);
        g.update_ciphertext(&[1, 2, 3]);
        g.update_aad(&[4]);
    }
}
