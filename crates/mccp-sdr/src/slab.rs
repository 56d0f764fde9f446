//! The sharded channel slab: generational, O(1), million-channel scale.
//!
//! The engines' raw [`ChannelId`](mccp_core::protocol::ChannelId) is a
//! `u8` — 256 live hardware channels, recycled on close. An always-on
//! service holds orders of magnitude more *sessions* than that, almost
//! all idle at any instant, and must survive open/close churn without a
//! stale handle ever addressing a recycled slot. The slab provides the
//! session layer: each channel is a slot in a per-shard vector, addressed
//! by a [`ServiceChannelId`] that packs `generation ‖ shard ‖ slot`. A
//! freed slot goes on an intrusive free list and its generation bumps, so
//! every id ever handed out for that slot before the close fails lookup
//! afterwards — aliasing is impossible by construction, not by discipline.
//!
//! The slab deliberately holds only the *cheap* per-channel state (key
//! bytes, profile, IV counter, class, accounting) plus, for a hot channel,
//! its engine handle (`chan.handle`). Everything expensive — expanded key
//! schedules, engine channels — lives in the engine, behind at most
//! `warm_set_capacity` bindings per shard, so a million idle channels cost
//! a million slab entries and nothing else.

use crate::channel::SecureChannel;
use crate::qos::QosClass;
use crate::standards::Standard;

/// A service-layer channel handle: `[generation:32][shard:8][slot:24]`.
///
/// The packed form is a plain `u64` so callers can store and copy it like
/// the hardware handle, but lookups validate the generation — a handle
/// that survived its channel's close (or the slot's reuse) is *stale* and
/// every operation on it fails with a typed error rather than touching
/// the new occupant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceChannelId(pub u64);

impl ServiceChannelId {
    const SLOT_BITS: u32 = 24;
    const SHARD_BITS: u32 = 8;
    /// Maximum slots per shard (2^24 ≈ 16.7M channels per shard).
    pub const MAX_SLOTS: usize = 1 << Self::SLOT_BITS;
    /// Maximum shards addressable (256).
    pub const MAX_SHARDS: usize = 1 << Self::SHARD_BITS;

    /// Packs the three fields.
    pub fn new(generation: u32, shard: usize, slot: usize) -> Self {
        debug_assert!(shard < Self::MAX_SHARDS);
        debug_assert!(slot < Self::MAX_SLOTS);
        ServiceChannelId(
            (u64::from(generation) << (Self::SLOT_BITS + Self::SHARD_BITS))
                | ((shard as u64) << Self::SLOT_BITS)
                | slot as u64,
        )
    }

    /// The slot's reuse generation at the time this id was issued.
    pub fn generation(self) -> u32 {
        (self.0 >> (Self::SLOT_BITS + Self::SHARD_BITS)) as u32
    }

    /// The owning shard index.
    pub fn shard(self) -> usize {
        ((self.0 >> Self::SLOT_BITS) & ((1 << Self::SHARD_BITS) - 1)) as usize
    }

    /// The slot index within the shard.
    pub fn slot(self) -> usize {
        (self.0 & ((1 << Self::SLOT_BITS) - 1)) as usize
    }
}

/// Why a slab operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlabError {
    /// The id's generation does not match the slot (channel closed, or
    /// slot recycled), or the slot index is out of range.
    Stale,
    /// The shard is at [`ServiceChannelId::MAX_SLOTS`] live channels.
    Full,
}

/// Per-channel lifetime accounting kept in the slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Packets admitted on this channel.
    pub admitted: u64,
    /// Packets delivered back to the caller.
    pub delivered: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
}

/// The live state of one open service channel.
#[derive(Clone, Debug)]
pub struct LiveChannel {
    /// Radio standard the channel runs (profile + QoS class derive from
    /// it).
    pub standard: Standard,
    /// IV discipline state (salt ‖ counter) — salt is unique per *open*,
    /// so a recycled slot can never re-issue an IV even under the same
    /// key — and, while the channel is warm, its engine `handle`.
    pub chan: SecureChannel,
    /// Session key bytes (the slab is the key's resident home; the engine
    /// holds the expanded schedule only while the channel is bound).
    pub key: Vec<u8>,
    /// Admission class.
    pub class: QosClass,
    /// Key epoch: bumps once per completed rekey. Deliveries are tagged
    /// with the epoch their ciphertext was actually produced under, so a
    /// caller can verify each packet against the right key even across a
    /// live rotation.
    pub epoch: u32,
    /// False while the channel's modeled handshake (ECC scalar
    /// multiplication on the asymmetric unit) has not yet been started on
    /// the engine; the engine gates submissions until it completes.
    pub established: bool,
    /// Packets submitted to an engine and not yet completed.
    pub in_flight: u32,
    /// Packets admitted but still waiting in the shard queue.
    pub queued: u32,
    /// True once close was requested: no new admissions, slot frees when
    /// `in_flight == 0 && queued == 0`.
    pub draining: bool,
    /// Lifetime accounting.
    pub stats: ChannelStats,
}

impl LiveChannel {
    /// True when nothing queued or in flight references the channel.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0 && self.queued == 0
    }
}

enum Slot {
    /// Free-list node: the index of the next free slot, or `usize::MAX`.
    Free {
        next: usize,
    },
    Live(Box<LiveChannel>),
}

/// One shard's slot vector with an intrusive free list and per-slot
/// generations.
pub struct ChannelSlab {
    shard: usize,
    slots: Vec<Slot>,
    generations: Vec<u32>,
    free_head: usize,
    live: usize,
}

impl ChannelSlab {
    /// An empty slab for shard `shard`.
    pub fn new(shard: usize) -> Self {
        assert!(shard < ServiceChannelId::MAX_SHARDS);
        ChannelSlab {
            shard,
            slots: Vec::new(),
            generations: Vec::new(),
            free_head: usize::MAX,
            live: 0,
        }
    }

    /// Live channels resident in this shard.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no channel is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + free-listed) — the slab's
    /// high-water footprint.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Inserts a channel, reusing a freed slot when one exists. The
    /// returned id embeds the slot's *current* generation, which freeing
    /// has already bumped past every previously issued id.
    pub fn insert(&mut self, channel: LiveChannel) -> Result<ServiceChannelId, SlabError> {
        let slot = if self.free_head != usize::MAX {
            let slot = self.free_head;
            let Slot::Free { next } = self.slots[slot] else {
                unreachable!("free list points at a live slot");
            };
            self.free_head = next;
            self.slots[slot] = Slot::Live(Box::new(channel));
            slot
        } else {
            if self.slots.len() >= ServiceChannelId::MAX_SLOTS {
                return Err(SlabError::Full);
            }
            self.slots.push(Slot::Live(Box::new(channel)));
            self.generations.push(0);
            self.slots.len() - 1
        };
        self.live += 1;
        Ok(ServiceChannelId::new(
            self.generations[slot],
            self.shard,
            slot,
        ))
    }

    fn validate(&self, id: ServiceChannelId) -> Result<usize, SlabError> {
        let slot = id.slot();
        if id.shard() != self.shard
            || slot >= self.slots.len()
            || self.generations[slot] != id.generation()
        {
            return Err(SlabError::Stale);
        }
        match self.slots[slot] {
            Slot::Live(_) => Ok(slot),
            Slot::Free { .. } => Err(SlabError::Stale),
        }
    }

    /// Generation-checked lookup.
    pub fn get(&self, id: ServiceChannelId) -> Result<&LiveChannel, SlabError> {
        let slot = self.validate(id)?;
        match &self.slots[slot] {
            Slot::Live(c) => Ok(c),
            Slot::Free { .. } => unreachable!("validated live"),
        }
    }

    /// Generation-checked mutable lookup.
    pub fn get_mut(&mut self, id: ServiceChannelId) -> Result<&mut LiveChannel, SlabError> {
        let slot = self.validate(id)?;
        match &mut self.slots[slot] {
            Slot::Live(c) => Ok(c),
            Slot::Free { .. } => unreachable!("validated live"),
        }
    }

    /// Frees a slot: bumps the generation (invalidating every id issued
    /// for this occupancy), pushes the slot on the free list, and returns
    /// the evicted state (whose key bytes the caller may zeroize).
    pub fn free(&mut self, id: ServiceChannelId) -> Result<LiveChannel, SlabError> {
        let slot = self.validate(id)?;
        let old = std::mem::replace(
            &mut self.slots[slot],
            Slot::Free {
                next: self.free_head,
            },
        );
        self.free_head = slot;
        self.generations[slot] = self.generations[slot].wrapping_add(1);
        self.live -= 1;
        match old {
            Slot::Live(c) => Ok(*c),
            Slot::Free { .. } => unreachable!("validated live"),
        }
    }

    /// Iterates the live channels with their ids (slot order).
    pub fn iter(&self) -> impl Iterator<Item = (ServiceChannelId, &LiveChannel)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(slot, s)| match s {
                Slot::Live(c) => Some((
                    ServiceChannelId::new(self.generations[slot], self.shard, slot),
                    c.as_ref(),
                )),
                Slot::Free { .. } => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccp_core::protocol::KeyId;

    fn live(standard: Standard) -> LiveChannel {
        LiveChannel {
            standard,
            chan: SecureChannel::new(standard.profile(), KeyId(1), 7),
            key: vec![0u8; 16],
            class: crate::qos::qos_class(standard),
            epoch: 0,
            established: true,
            in_flight: 0,
            queued: 0,
            draining: false,
            stats: ChannelStats::default(),
        }
    }

    #[test]
    fn id_packing_round_trips() {
        let id = ServiceChannelId::new(0xDEADBEEF, 200, 0x00FF_FFFF);
        assert_eq!(id.generation(), 0xDEADBEEF);
        assert_eq!(id.shard(), 200);
        assert_eq!(id.slot(), 0x00FF_FFFF);
    }

    #[test]
    fn insert_get_free() {
        let mut slab = ChannelSlab::new(3);
        let id = slab.insert(live(Standard::Wifi)).unwrap();
        assert_eq!(id.shard(), 3);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(id).unwrap().standard, Standard::Wifi);
        let evicted = slab.free(id).unwrap();
        assert_eq!(evicted.standard, Standard::Wifi);
        assert!(slab.is_empty());
        assert_eq!(slab.get(id).err(), Some(SlabError::Stale));
    }

    #[test]
    fn recycled_slot_invalidates_old_id() {
        let mut slab = ChannelSlab::new(0);
        let a = slab.insert(live(Standard::Wifi)).unwrap();
        slab.free(a).unwrap();
        let b = slab.insert(live(Standard::Umts)).unwrap();
        // Same slot, new generation: the stale id must not see the new
        // occupant.
        assert_eq!(a.slot(), b.slot());
        assert_ne!(a.generation(), b.generation());
        assert_eq!(slab.get(a).err(), Some(SlabError::Stale));
        assert_eq!(slab.get(b).unwrap().standard, Standard::Umts);
        assert_eq!(slab.free(a).err(), Some(SlabError::Stale));
        assert_eq!(slab.capacity(), 1, "slot was reused, not grown");
    }

    #[test]
    fn free_list_is_lifo_and_occupancy_tracks() {
        let mut slab = ChannelSlab::new(0);
        let ids: Vec<_> = (0..8)
            .map(|_| slab.insert(live(Standard::Wimax)).unwrap())
            .collect();
        assert_eq!(slab.len(), 8);
        slab.free(ids[2]).unwrap();
        slab.free(ids[5]).unwrap();
        assert_eq!(slab.len(), 6);
        // LIFO reuse: slot 5 first, then slot 2.
        let x = slab.insert(live(Standard::Wimax)).unwrap();
        assert_eq!(x.slot(), 5);
        let y = slab.insert(live(Standard::Wimax)).unwrap();
        assert_eq!(y.slot(), 2);
        assert_eq!(slab.len(), 8);
        assert_eq!(slab.capacity(), 8);
        assert_eq!(slab.iter().count(), 8);
    }

    #[test]
    fn wrong_shard_is_stale() {
        let mut a = ChannelSlab::new(0);
        let id = a.insert(live(Standard::Wifi)).unwrap();
        let b = ChannelSlab::new(1);
        assert_eq!(b.get(id).err(), Some(SlabError::Stale));
    }

    #[test]
    fn million_idle_channels_fit() {
        let mut slab = ChannelSlab::new(0);
        for _ in 0..1_000_000 {
            slab.insert(live(Standard::SecureVoice)).unwrap();
        }
        assert_eq!(slab.len(), 1_000_000);
    }
}
