//! eBPF maps: the only memory that persists across program executions.
//!
//! Five map kinds cover the evaluation programs: `Array` (statistics),
//! `Hash` (flow/session tables), `PerCpuArray` (modelled as a plain array —
//! the hardware pipeline has a single execution domain), `LruHash`
//! (connection tables with eviction) and `LpmTrie` (IPv4 routing tables).
//!
//! A map is stored in the shape the hardware gives it (§4.1: maps are
//! created once, at load time, with fixed key and value widths): one
//! contiguous key array (slot × key width; an array map stores its 4-byte
//! index), one contiguous value array (slot × `value_size`) and, for
//! hash-like kinds, one last-use word per slot (0 while the slot is free;
//! every array slot is live). Slot numbers are stable, so a "pointer to
//! map value" (what `bpf_map_lookup_elem` returns) is a compact virtual
//! address in the VM and a `(map, slot)` port address in the hardware
//! simulator.
//!
//! Hash-like kinds find a key's slot through an open-addressed index of
//! `u32` slot numbers: a fixed hash picks the home position, triangular
//! probing walks on, and each candidate is compared in place against the
//! key array. A delete leaves a tombstone. The index keeps at least two
//! positions per slot ever used, so live keys fill at most half of it;
//! when live keys plus tombstones would pass 7/8 it is rebuilt in place
//! from the key array, which drops the tombstones without allocating. The
//! hash is fixed, like a hardware hash unit's, not seeded per map: for
//! keys that do not target it, the load factor and the tombstone rebuilds
//! bound the expected probe length; keys chosen by someone who knows it
//! can collide on purpose and lengthen probes up to a scan of the index
//! (never further: it always keeps an empty position).
//!
//! Only array maps are preallocated. A hash-like map starts empty and its
//! storage grows to the high-water mark of its occupancy (never past
//! `max_entries`), so creating, cloning, iterating and evicting cost the
//! entries that were ever live, not `max_entries`. A new key takes the
//! most recently freed slot, else the next never-used slot, else (at
//! capacity) evicts or fails — the slot sequence a free stack preloaded
//! with `max_entries-1 ..= 0` would hand out, so value addresses,
//! iteration order and eviction victims are those of a preallocated table.
//! Only a never-used slot can cost a heap call (storage grows by doubling);
//! reusing a freed slot, evicting and deleting make none.

use std::fmt;
use std::ops::Range;

/// Map flavour, mirroring `enum bpf_map_type`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// `BPF_MAP_TYPE_ARRAY`: u32 key, preallocated.
    Array,
    /// `BPF_MAP_TYPE_PERCPU_ARRAY`: modelled as a plain array.
    PerCpuArray,
    /// `BPF_MAP_TYPE_HASH`.
    Hash,
    /// `BPF_MAP_TYPE_LRU_HASH`: evicts the least recently used entry.
    LruHash,
    /// `BPF_MAP_TYPE_LPM_TRIE`: longest-prefix-match keys.
    LpmTrie,
}

impl crate::put::Piece for MapKind {
    fn put(self, o: &mut String) {
        o.push_str(match self {
            MapKind::Array => "array",
            MapKind::PerCpuArray => "percpu_array",
            MapKind::Hash => "hash",
            MapKind::LruHash => "lru_hash",
            MapKind::LpmTrie => "lpm_trie",
        });
    }
}

impl fmt::Display for MapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::put::fmt(*self, f)
    }
}

/// Static map parameters, fixed at program load time (§4.1: "maps are
/// statically created when the eBPF program is first loaded").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapDef {
    /// Identifier referenced by `ld_map_fd` pseudo instructions.
    pub id: u32,
    /// Human-readable name (section name in ELF terms).
    pub name: String,
    /// Map flavour.
    pub kind: MapKind,
    /// Key size in bytes.
    pub key_size: u32,
    /// Value size in bytes.
    pub value_size: u32,
    /// Capacity.
    pub max_entries: u32,
}

impl MapDef {
    /// Convenience constructor.
    pub fn new(
        id: u32,
        name: &str,
        kind: MapKind,
        key_size: u32,
        value_size: u32,
        max_entries: u32,
    ) -> MapDef {
        MapDef { id, name: name.to_string(), kind, key_size, value_size, max_entries }
    }

    /// Slot stride used for virtual addressing of values (power of two, ≥ 8).
    pub fn value_stride(&self) -> u32 {
        self.value_size.next_power_of_two().max(8)
    }

    /// Total value memory in bytes, as provisioned in hardware BRAM.
    pub fn value_memory_bytes(&self) -> u64 {
        u64::from(self.max_entries) * u64::from(self.value_size)
    }

    /// Total key memory in bytes (zero for array maps whose key is the index).
    pub fn key_memory_bytes(&self) -> u64 {
        match self.kind {
            MapKind::Array | MapKind::PerCpuArray => 0,
            _ => u64::from(self.max_entries) * u64::from(self.key_size),
        }
    }

    /// The most host memory a [`Map`] of this definition holds: its key
    /// and value arrays at `max_entries` slots and, for hash-like kinds, a
    /// last-use word and a free-stack entry per slot plus the index. The
    /// ELF loader charges this against its budget.
    pub fn storage_bytes(&self) -> u64 {
        let n = u64::from(self.max_entries);
        let value = u64::from(self.value_size);
        match self.kind {
            MapKind::Array | MapKind::PerCpuArray => n.saturating_mul(4 + value),
            _ => n
                .saturating_mul(u64::from(self.key_size) + value + 8 + 4)
                .saturating_add(4 * index_positions(n)),
        }
    }

    /// The map's key/value shape, the unit of migration compatibility for
    /// a drain-and-swap program reload.
    pub fn keyspec(&self) -> KeySpec {
        KeySpec { kind: self.kind, key_size: self.key_size, value_size: self.value_size }
    }

    /// Can live state migrate from `self` into a map declared as `other`
    /// across a program reload? Requires the same name (the stable
    /// identity across program versions) and the same [`KeySpec`];
    /// capacities may differ — entries beyond the new capacity are
    /// dropped (and counted) by the migrator.
    pub fn compatible_with(&self, other: &MapDef) -> bool {
        self.name == other.name && self.keyspec() == other.keyspec()
    }
}

/// The shape of a map's keys and values: everything that must agree for
/// entries serialized out of one map to be valid in another. Capacity is
/// deliberately excluded — growing or shrinking a map across a reload is
/// legal; a kind/width change is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeySpec {
    /// Map flavour (hash entries cannot migrate into an LPM trie even at
    /// equal widths: the key semantics differ).
    pub kind: MapKind,
    /// Key size in bytes.
    pub key_size: u32,
    /// Value size in bytes.
    pub value_size: u32,
}

/// Update flags mirroring `BPF_ANY` / `BPF_NOEXIST` / `BPF_EXIST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateFlags {
    /// Create or overwrite.
    #[default]
    Any,
    /// Only create; fail if the key exists.
    NoExist,
    /// Only overwrite; fail if the key does not exist.
    Exist,
}

impl UpdateFlags {
    /// Decode from the raw `flags` argument of `bpf_map_update_elem`.
    pub fn from_raw(raw: u64) -> Option<UpdateFlags> {
        match raw {
            0 => Some(UpdateFlags::Any),
            1 => Some(UpdateFlags::NoExist),
            2 => Some(UpdateFlags::Exist),
            _ => None,
        }
    }
}

/// Errors returned by map operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// Key length does not match the definition.
    BadKeySize {
        /// Expected length.
        expected: u32,
        /// Provided length.
        got: usize,
    },
    /// Value length does not match the definition.
    BadValueSize {
        /// Expected length.
        expected: u32,
        /// Provided length.
        got: usize,
    },
    /// Array index out of range.
    IndexOutOfBounds {
        /// Offending index.
        index: u32,
        /// Capacity.
        max: u32,
    },
    /// Map is full (non-LRU hash).
    Full,
    /// `Exist`/`NoExist` constraint violated or key missing on delete.
    NoSuchKey,
    /// Key already present under `NoExist`.
    KeyExists,
    /// Operation not supported for this map kind (e.g. delete on array).
    Unsupported,
    /// LPM key prefix length exceeds the key width.
    BadPrefixLen {
        /// Offending prefix length.
        prefix: u32,
        /// Maximum allowed.
        max: u32,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::BadKeySize { expected, got } => {
                write!(f, "key size mismatch: expected {expected} bytes, got {got}")
            }
            MapError::BadValueSize { expected, got } => {
                write!(f, "value size mismatch: expected {expected} bytes, got {got}")
            }
            MapError::IndexOutOfBounds { index, max } => {
                write!(f, "array index {index} out of bounds (max_entries {max})")
            }
            MapError::Full => write!(f, "map is full"),
            MapError::NoSuchKey => write!(f, "no such key"),
            MapError::KeyExists => write!(f, "key already exists"),
            MapError::Unsupported => write!(f, "operation unsupported for this map kind"),
            MapError::BadPrefixLen { prefix, max } => {
                write!(f, "lpm prefix length {prefix} exceeds {max}")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// Index word of a position no key has taken since the last rebuild. (No
/// slot number reaches either marker: that would take 2^32 − 2 slots,
/// far past what the ELF loader's budget admits.)
const EMPTY: u32 = u32::MAX;
/// Index word of a position whose key was deleted or evicted.
const TOMBSTONE: u32 = u32::MAX - 1;

/// Index positions for `slots` slots ever used: a power of two, at least
/// eight and at least twice the slot count, so live keys fill at most
/// half the index.
fn index_positions(slots: u64) -> u64 {
    (2 * slots).next_power_of_two().max(8)
}

/// The index hash: FxHash's multiply-rotate round over little-endian
/// 8-byte words, the last one zero-padded. Fixed, as a hardware hash unit
/// is (the module docs weigh the trade-off); the index takes the top bits
/// of the product, which every key bit reaches.
#[inline]
fn hash(key: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let round = |h: u64, word: &[u8]| {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(K)
    };
    let mut words = key.chunks_exact(8);
    let h = (&mut words).fold(0, round);
    match words.remainder() {
        [] => h,
        tail => round(h, tail),
    }
}

/// A runtime map instance.
///
/// ```
/// use ehdl_ebpf::maps::{Map, MapDef, MapKind, UpdateFlags};
///
/// let mut m = Map::new(MapDef::new(0, "flows", MapKind::Hash, 4, 8, 16));
/// m.update(&7u32.to_le_bytes(), &1u64.to_le_bytes(), UpdateFlags::Any)?;
/// let slot = m.lookup(&7u32.to_le_bytes())?.expect("present");
/// assert_eq!(m.value(slot), 1u64.to_le_bytes());
/// # Ok::<(), ehdl_ebpf::maps::MapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Map {
    def: MapDef,
    /// Bytes per stored key: `key_size`, or 4 for arrays (the index).
    key_width: usize,
    /// Slots with storage: `max_entries` for arrays, the high-water mark
    /// of occupancy for hash-like kinds.
    slots: usize,
    /// Slot `s`'s key is `keys[s * key_width..][..key_width]`.
    keys: Vec<u8>,
    /// Slot `s`'s value is `values[s * value_size..][..value_size]`.
    values: Vec<u8>,
    /// Hash-like kinds: `tick` at each slot's last use, 0 while it is free.
    last_use: Vec<u64>,
    /// Hash-like kinds: open-addressed positions, each a live slot number,
    /// [`EMPTY`] or [`TOMBSTONE`]; empty until the first insert.
    index: Vec<u32>,
    /// Live entries.
    len: usize,
    /// [`TOMBSTONE`] words in `index`.
    tombstones: usize,
    /// Freed slots, most recently freed last.
    free: Vec<u32>,
    /// Monotonic use counter for LRU eviction.
    tick: u64,
}

impl Map {
    /// Instantiate a map from its definition. Array maps are preallocated
    /// and zero-filled, exactly like the kernel's; hash-like maps start
    /// empty and grow with use (see the module docs).
    pub fn new(def: MapDef) -> Map {
        let (key_width, slots, keys, values) = match def.kind {
            MapKind::Array | MapKind::PerCpuArray => {
                let n = def.max_entries as usize;
                let mut keys = Vec::with_capacity(4 * n);
                for i in 0..def.max_entries {
                    keys.extend_from_slice(&i.to_le_bytes());
                }
                (4, n, keys, vec![0; n * def.value_size as usize])
            }
            MapKind::Hash | MapKind::LruHash | MapKind::LpmTrie => {
                (def.key_size as usize, 0, Vec::new(), Vec::new())
            }
        };
        Map {
            def,
            key_width,
            slots,
            keys,
            values,
            last_use: Vec::new(),
            index: Vec::new(),
            len: slots,
            tombstones: 0,
            free: Vec::new(),
            tick: 0,
        }
    }

    /// The static definition.
    pub fn def(&self) -> &MapDef {
        &self.def
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are live (never true for array maps).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per key as [`Map::iter`] yields them: the key size, or 4 for
    /// arrays (the index).
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    fn check_key(&self, key: &[u8]) -> Result<(), MapError> {
        if key.len() != self.def.key_size as usize {
            return Err(MapError::BadKeySize { expected: self.def.key_size, got: key.len() });
        }
        Ok(())
    }

    /// The leading `u32` of a key (array index / LPM prefix length).
    /// Array and LPM definitions narrower than 4 bytes can be built in
    /// code (the ELF loader refuses them), so a short key is an error,
    /// not a panic.
    fn key_head(&self, key: &[u8]) -> Result<u32, MapError> {
        match key.get(..4) {
            Some(s) => Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]])),
            None => Err(MapError::BadKeySize { expected: 4, got: key.len() }),
        }
    }

    /// An array key's slot: its leading `u32`, bounds-checked.
    fn array_slot(&self, key: &[u8]) -> Result<usize, MapError> {
        let index = self.key_head(key)?;
        if index >= self.def.max_entries {
            return Err(MapError::IndexOutOfBounds { index, max: self.def.max_entries });
        }
        Ok(index as usize)
    }

    // The slot accessors are `#[inline]`: the pipeline simulator calls
    // them from another crate on every map access (+3 % host items/s on
    // `router_caida_sparse`, 7 of 8 alternated pairs, against the same
    // code without the attributes).
    #[inline]
    fn is_live(&self, slot: usize) -> bool {
        match self.def.kind {
            MapKind::Array | MapKind::PerCpuArray => slot < self.slots,
            MapKind::Hash | MapKind::LruHash | MapKind::LpmTrie => {
                self.last_use.get(slot).is_some_and(|&t| t != 0)
            }
        }
    }

    #[inline]
    fn key_range(&self, slot: usize) -> Range<usize> {
        slot * self.key_width..(slot + 1) * self.key_width
    }

    #[inline]
    fn value_range(&self, slot: usize) -> Range<usize> {
        let width = self.def.value_size as usize;
        slot * width..(slot + 1) * width
    }

    #[inline]
    fn key_at(&self, slot: usize) -> &[u8] {
        &self.keys[self.key_range(slot)]
    }

    /// The index's home position for hash `h`: its top log2(positions)
    /// bits. Needs a non-empty index.
    fn home(&self, h: u64) -> usize {
        (h >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// The index position and slot of live `key` (whose hash is `h`).
    fn find(&self, h: u64, key: &[u8]) -> Option<(usize, usize)> {
        let mask = self.index.len().checked_sub(1)?;
        let mut pos = self.home(h);
        let mut step = 0;
        loop {
            match self.index[pos] {
                EMPTY => return None,
                TOMBSTONE => {}
                slot if self.key_at(slot as usize) == key => return Some((pos, slot as usize)),
                _ => {}
            }
            step += 1;
            pos = (pos + step) & mask;
        }
    }

    /// Enter live `slot`, whose key hashes to `h`, at the first position
    /// of its probe sequence that holds no slot.
    fn place(&mut self, h: u64, slot: usize) {
        let mask = self.index.len() - 1;
        let mut pos = self.home(h);
        let mut step = 0;
        while self.index[pos] < TOMBSTONE {
            step += 1;
            pos = (pos + step) & mask;
        }
        if self.index[pos] == TOMBSTONE {
            self.tombstones -= 1;
        }
        self.index[pos] = slot as u32;
    }

    /// Re-enter every live slot into `positions` empty positions, from
    /// the key array. In place (no heap call) when the size is unchanged.
    fn rebuild_index(&mut self, positions: usize) {
        if positions == self.index.len() {
            self.index.fill(EMPTY);
        } else {
            self.index = vec![EMPTY; positions];
        }
        self.tombstones = 0;
        for slot in 0..self.slots {
            if self.last_use[slot] != 0 {
                let h = hash(self.key_at(slot));
                self.place(h, slot);
            }
        }
    }

    /// Take the next never-used slot, still free. Storage doubles when it
    /// is full, never past `max_entries` (the loader charges that much),
    /// and reserves free-stack room for every slot, so deleting never
    /// allocates.
    fn new_slot(&mut self) -> usize {
        let slot = self.slots;
        if slot == self.last_use.capacity() {
            let more = slot.max(4).min(self.def.max_entries as usize - slot);
            self.keys.reserve_exact(more * self.key_width);
            self.values.reserve_exact(more * self.def.value_size as usize);
            self.last_use.reserve_exact(more);
            self.free.reserve_exact(slot + more - self.free.len());
        }
        self.slots += 1;
        self.keys.resize(self.slots * self.key_width, 0);
        self.values.resize(self.slots * self.def.value_size as usize, 0);
        self.last_use.push(0);
        if 2 * self.slots > self.index.len() {
            self.rebuild_index(index_positions(self.slots as u64) as usize);
        }
        slot
    }

    /// Tombstone live `slot`, found at index position `pos`, and mark it
    /// free.
    fn unlink(&mut self, pos: usize, slot: usize) {
        self.index[pos] = TOMBSTONE;
        self.tombstones += 1;
        self.last_use[slot] = 0;
        self.len -= 1;
    }

    /// Look up `key`, returning the stable slot index of its value.
    ///
    /// For `LpmTrie`, `key` is `{ prefix_len: u32 LE, data: [u8] }` and the
    /// entry with the longest matching stored prefix wins.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::BadKeySize`] for malformed keys and
    /// [`MapError::IndexOutOfBounds`] for out-of-range array indices.
    pub fn lookup(&mut self, key: &[u8]) -> Result<Option<usize>, MapError> {
        self.check_key(key)?;
        match self.def.kind {
            MapKind::Array | MapKind::PerCpuArray => self.array_slot(key).map(Some),
            MapKind::Hash => Ok(self.find(hash(key), key).map(|(_, slot)| slot)),
            MapKind::LruHash => Ok(self.find(hash(key), key).map(|(_, slot)| {
                self.touch(slot);
                slot
            })),
            MapKind::LpmTrie => Ok(self.lpm_lookup(key)),
        }
    }

    fn lpm_lookup(&self, key: &[u8]) -> Option<usize> {
        let data = key.get(4..)?;
        let mut best: Option<(u32, usize)> = None;
        for slot in (0..self.slots).filter(|&s| self.last_use[s] != 0) {
            let stored = self.key_at(slot);
            let (head, edata) = match (stored.get(..4), stored.get(4..)) {
                (Some(h), Some(d)) => (h, d),
                _ => continue,
            };
            let plen = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            if prefix_matches(edata, data, plen) {
                match best {
                    Some((b, _)) if b >= plen => {}
                    _ => best = Some((plen, slot)),
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// Read access to a slot's value bytes.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    #[inline]
    pub fn value(&self, slot: usize) -> &[u8] {
        self.try_value(slot).expect("value of free slot")
    }

    /// Non-panicking [`Map::value`]: `None` for out-of-range or free
    /// slots. For slot numbers derived from untrusted input (e.g. a
    /// fabricated map-value address in unverified bytecode).
    #[inline]
    pub fn try_value(&self, slot: usize) -> Option<&[u8]> {
        self.is_live(slot).then(|| &self.values[self.value_range(slot)])
    }

    /// Non-panicking [`Map::value_mut`]; see [`Map::try_value`].
    #[inline]
    pub fn try_value_mut(&mut self, slot: usize) -> Option<&mut [u8]> {
        if !self.is_live(slot) {
            return None;
        }
        let range = self.value_range(slot);
        Some(&mut self.values[range])
    }

    /// Mutable access to a slot's value bytes.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    #[inline]
    pub fn value_mut(&mut self, slot: usize) -> &mut [u8] {
        self.try_value_mut(slot).expect("value of free slot")
    }

    /// The key stored at a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    #[inline]
    pub fn key_of(&self, slot: usize) -> &[u8] {
        assert!(self.is_live(slot), "key of free slot");
        self.key_at(slot)
    }

    /// Insert or overwrite `key` → `value`, returning the slot used.
    ///
    /// # Errors
    ///
    /// Returns size-mismatch errors, [`MapError::Full`] when a non-LRU hash
    /// is at capacity, and flag-constraint violations.
    pub fn update(
        &mut self,
        key: &[u8],
        value: &[u8],
        flags: UpdateFlags,
    ) -> Result<usize, MapError> {
        self.check_key(key)?;
        if value.len() != self.def.value_size as usize {
            return Err(MapError::BadValueSize { expected: self.def.value_size, got: value.len() });
        }
        match self.def.kind {
            MapKind::Array | MapKind::PerCpuArray => {
                let slot = self.array_slot(key)?;
                if flags == UpdateFlags::NoExist {
                    return Err(MapError::KeyExists);
                }
                let range = self.value_range(slot);
                self.values[range].copy_from_slice(value);
                Ok(slot)
            }
            MapKind::Hash | MapKind::LruHash | MapKind::LpmTrie => {
                if self.def.kind == MapKind::LpmTrie {
                    let plen = self.key_head(key)?;
                    let max = self.def.key_size.saturating_sub(4) * 8;
                    if plen > max {
                        return Err(MapError::BadPrefixLen { prefix: plen, max });
                    }
                }
                let h = hash(key);
                if let Some((_, slot)) = self.find(h, key) {
                    if flags == UpdateFlags::NoExist {
                        return Err(MapError::KeyExists);
                    }
                    self.touch(slot);
                    let range = self.value_range(slot);
                    self.values[range].copy_from_slice(value);
                    return Ok(slot);
                }
                if flags == UpdateFlags::Exist {
                    return Err(MapError::NoSuchKey);
                }
                let slot = match self.free.pop() {
                    Some(s) => s as usize,
                    None if self.slots < self.def.max_entries as usize => self.new_slot(),
                    None if self.def.kind == MapKind::LruHash => {
                        self.evict_lru().ok_or(MapError::Full)?
                    }
                    None => return Err(MapError::Full),
                };
                // `slot` is still free here, so a rebuild leaves it out.
                if 8 * (self.len + self.tombstones + 1) > 7 * self.index.len() {
                    self.rebuild_index(self.index.len());
                }
                self.touch(slot);
                let (krange, vrange) = (self.key_range(slot), self.value_range(slot));
                self.keys[krange].copy_from_slice(key);
                self.values[vrange].copy_from_slice(value);
                self.place(h, slot);
                self.len += 1;
                Ok(slot)
            }
        }
    }

    /// Mark the entry at `slot` as just used.
    fn touch(&mut self, slot: usize) {
        self.tick += 1;
        self.last_use[slot] = self.tick;
    }

    /// Unlink the least recently used entry and return its slot; `None`
    /// when nothing is live (a zero-capacity map).
    fn evict_lru(&mut self) -> Option<usize> {
        let (slot, _) =
            self.last_use.iter().enumerate().filter(|&(_, &t)| t != 0).min_by_key(|&(_, &t)| t)?;
        let key = self.key_at(slot);
        let (pos, _) = self.find(hash(key), key).expect("a live slot is indexed");
        self.unlink(pos, slot);
        Some(slot)
    }

    /// Delete `key`.
    ///
    /// # Errors
    ///
    /// [`MapError::Unsupported`] for array maps, [`MapError::NoSuchKey`] if
    /// absent.
    pub fn delete(&mut self, key: &[u8]) -> Result<(), MapError> {
        self.check_key(key)?;
        match self.def.kind {
            MapKind::Array | MapKind::PerCpuArray => Err(MapError::Unsupported),
            MapKind::Hash | MapKind::LruHash | MapKind::LpmTrie => {
                let (pos, slot) = self.find(hash(key), key).ok_or(MapError::NoSuchKey)?;
                self.unlink(pos, slot);
                self.free.push(slot as u32);
                Ok(())
            }
        }
    }

    /// Iterate live `(slot, key, value)` triples — the "host reads the map"
    /// interface (§6: monitoring applications fetch statistics).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8], &[u8])> {
        (0..self.slots)
            .filter(|&s| self.is_live(s))
            .map(|s| (s, self.key_at(s), &self.values[self.value_range(s)]))
    }
}

fn prefix_matches(stored: &[u8], probe: &[u8], plen: u32) -> bool {
    if probe.len() < stored.len() {
        return false;
    }
    let full = (plen / 8) as usize;
    if stored[..full] != probe[..full] {
        return false;
    }
    let rem = plen % 8;
    if rem == 0 {
        return true;
    }
    let mask = !0u8 << (8 - rem);
    (stored[full] & mask) == (probe[full] & mask)
}

/// All maps of a loaded program, addressed by id.
#[derive(Debug, Clone, Default)]
pub struct MapStore {
    maps: Vec<Map>,
}

impl MapStore {
    /// Instantiate from definitions; ids must be dense starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if ids are not `0..n` in order.
    pub fn new(defs: &[MapDef]) -> MapStore {
        for (i, d) in defs.iter().enumerate() {
            assert_eq!(d.id as usize, i, "map ids must be dense and ordered");
        }
        MapStore { maps: defs.iter().cloned().map(Map::new).collect() }
    }

    /// Shared access by id.
    pub fn get(&self, id: u32) -> Option<&Map> {
        self.maps.get(id as usize)
    }

    /// Mutable access by id.
    pub fn get_mut(&mut self, id: u32) -> Option<&mut Map> {
        self.maps.get_mut(id as usize)
    }

    /// Number of maps.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// True when the program declares no maps.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// Iterate over all maps.
    pub fn iter(&self) -> impl Iterator<Item = &Map> {
        self.maps.iter()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn array(n: u32) -> Map {
        Map::new(MapDef::new(0, "stats", MapKind::Array, 4, 8, n))
    }

    fn hash(n: u32) -> Map {
        Map::new(MapDef::new(0, "flows", MapKind::Hash, 8, 8, n))
    }

    #[test]
    fn array_prealloc_and_bounds() {
        let mut m = array(4);
        assert_eq!(m.len(), 4);
        let slot = m.lookup(&2u32.to_le_bytes()).unwrap().unwrap();
        assert_eq!(m.value(slot), &[0; 8]);
        assert_eq!(
            m.lookup(&9u32.to_le_bytes()),
            Err(MapError::IndexOutOfBounds { index: 9, max: 4 })
        );
    }

    #[test]
    fn array_delete_unsupported() {
        let mut m = array(1);
        assert_eq!(m.delete(&0u32.to_le_bytes()), Err(MapError::Unsupported));
    }

    #[test]
    fn hash_update_lookup_delete() {
        let mut m = hash(8);
        assert_eq!(m.lookup(&7u64.to_le_bytes()).unwrap(), None);
        let slot = m.update(&7u64.to_le_bytes(), &1u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        assert_eq!(m.lookup(&7u64.to_le_bytes()).unwrap(), Some(slot));
        assert_eq!(m.value(slot), &1u64.to_le_bytes());
        m.delete(&7u64.to_le_bytes()).unwrap();
        assert_eq!(m.lookup(&7u64.to_le_bytes()).unwrap(), None);
        assert_eq!(m.delete(&7u64.to_le_bytes()), Err(MapError::NoSuchKey));
    }

    #[test]
    fn hash_full_and_flags() {
        let mut m = hash(2);
        m.update(&1u64.to_le_bytes(), &0u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        m.update(&2u64.to_le_bytes(), &0u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        assert_eq!(
            m.update(&3u64.to_le_bytes(), &0u64.to_le_bytes(), UpdateFlags::Any),
            Err(MapError::Full)
        );
        assert_eq!(
            m.update(&1u64.to_le_bytes(), &0u64.to_le_bytes(), UpdateFlags::NoExist),
            Err(MapError::KeyExists)
        );
        assert_eq!(
            m.update(&9u64.to_le_bytes(), &0u64.to_le_bytes(), UpdateFlags::Exist),
            Err(MapError::NoSuchKey)
        );
    }

    #[test]
    fn slots_stable_across_unrelated_updates() {
        let mut m = hash(8);
        let s1 = m.update(&1u64.to_le_bytes(), &10u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        let _ = m.update(&2u64.to_le_bytes(), &20u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        m.delete(&2u64.to_le_bytes()).unwrap();
        let _ = m.update(&3u64.to_le_bytes(), &30u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        assert_eq!(m.lookup(&1u64.to_le_bytes()).unwrap(), Some(s1));
        assert_eq!(m.value(s1), &10u64.to_le_bytes());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut m = Map::new(MapDef::new(0, "conn", MapKind::LruHash, 8, 8, 2));
        m.update(&1u64.to_le_bytes(), &0u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        m.update(&2u64.to_le_bytes(), &0u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        // Touch key 1 so key 2 becomes LRU.
        m.lookup(&1u64.to_le_bytes()).unwrap().unwrap();
        m.update(&3u64.to_le_bytes(), &0u64.to_le_bytes(), UpdateFlags::Any).unwrap();
        assert!(m.lookup(&1u64.to_le_bytes()).unwrap().is_some());
        assert!(m.lookup(&2u64.to_le_bytes()).unwrap().is_none());
        assert!(m.lookup(&3u64.to_le_bytes()).unwrap().is_some());
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        // key = 4B prefix_len + 4B IPv4.
        let mut m = Map::new(MapDef::new(0, "routes", MapKind::LpmTrie, 8, 4, 16));
        let key = |plen: u32, ip: [u8; 4]| {
            let mut k = plen.to_le_bytes().to_vec();
            k.extend_from_slice(&ip);
            k
        };
        m.update(&key(8, [10, 0, 0, 0]), &1u32.to_le_bytes(), UpdateFlags::Any).unwrap();
        m.update(&key(24, [10, 1, 2, 0]), &2u32.to_le_bytes(), UpdateFlags::Any).unwrap();
        m.update(&key(0, [0, 0, 0, 0]), &3u32.to_le_bytes(), UpdateFlags::Any).unwrap();

        let probe = |ip: [u8; 4]| key(32, ip);
        let s = m.lookup(&probe([10, 1, 2, 77])).unwrap().unwrap();
        assert_eq!(m.value(s), &2u32.to_le_bytes());
        let s = m.lookup(&probe([10, 9, 9, 9])).unwrap().unwrap();
        assert_eq!(m.value(s), &1u32.to_le_bytes());
        let s = m.lookup(&probe([192, 168, 0, 1])).unwrap().unwrap();
        assert_eq!(m.value(s), &3u32.to_le_bytes());
    }

    #[test]
    fn lpm_bad_prefix_rejected() {
        let mut m = Map::new(MapDef::new(0, "routes", MapKind::LpmTrie, 8, 4, 4));
        let mut k = 33u32.to_le_bytes().to_vec();
        k.extend_from_slice(&[0; 4]);
        assert_eq!(
            m.update(&k, &0u32.to_le_bytes(), UpdateFlags::Any),
            Err(MapError::BadPrefixLen { prefix: 33, max: 32 })
        );
    }

    /// Delete/reinsert churn at a steady population tombstones the index
    /// and rebuilds it in place: the index keeps the size the high-water
    /// mark asked for, live keys plus tombstones never pass 7/8 of it, and
    /// every key stays findable across the rebuilds.
    #[test]
    fn churn_rebuilds_the_index_in_place() {
        let key = |i: u64| {
            let mut k = [0xa5u8; 13];
            k[..8].copy_from_slice(&i.to_le_bytes());
            k
        };
        let mut m = Map::new(MapDef::new(0, "h", MapKind::Hash, 13, 8, 100));
        for i in 0..100 {
            m.update(&key(i), &i.to_le_bytes(), UpdateFlags::Any).unwrap();
        }
        let positions = m.index.len();
        assert_eq!(positions, 256);
        let mut rebuilds = 0;
        for i in 100..10_000u64 {
            m.delete(&key(i - 100)).unwrap();
            let tombstones = m.tombstones;
            m.update(&key(i), &i.to_le_bytes(), UpdateFlags::Any).unwrap();
            // Taking a tombstone's place removes one; only a rebuild clears many.
            rebuilds += u32::from(tombstones > 1 && m.tombstones == 0);
            assert_eq!(m.index.len(), positions, "churn never grows the index");
            assert!(8 * (m.len + m.tombstones) <= 7 * positions);
        }
        assert!(rebuilds >= 10, "{rebuilds} rebuilds");
        for i in 9_900..10_000u64 {
            let slot = m.lookup(&key(i)).unwrap().expect("live");
            assert_eq!(m.value(slot), i.to_le_bytes());
        }
        assert_eq!((m.len(), m.slots), (100, 100));
    }

    #[test]
    fn update_flags_decode() {
        assert_eq!(UpdateFlags::from_raw(0), Some(UpdateFlags::Any));
        assert_eq!(UpdateFlags::from_raw(1), Some(UpdateFlags::NoExist));
        assert_eq!(UpdateFlags::from_raw(2), Some(UpdateFlags::Exist));
        assert_eq!(UpdateFlags::from_raw(7), None);
    }

    #[test]
    fn keyspec_compatibility_gates_migration() {
        let a = MapDef::new(0, "flows", MapKind::Hash, 8, 16, 1024);
        // Same shape, bigger capacity, different id: compatible.
        let grown = MapDef::new(3, "flows", MapKind::Hash, 8, 16, 4096);
        assert!(a.compatible_with(&grown));
        assert_eq!(a.keyspec(), grown.keyspec());
        // Renamed: the stable identity is gone.
        let renamed = MapDef::new(0, "conns", MapKind::Hash, 8, 16, 1024);
        assert!(!a.compatible_with(&renamed));
        // Width change: entries would not parse.
        let widened = MapDef::new(0, "flows", MapKind::Hash, 8, 32, 1024);
        assert!(!a.compatible_with(&widened));
        // Kind change at equal widths: key semantics differ.
        let lpm = MapDef::new(0, "flows", MapKind::LpmTrie, 8, 16, 1024);
        assert!(!a.compatible_with(&lpm));
        assert_ne!(a.keyspec(), lpm.keyspec());
    }
}
