//! eBPF maps: the only memory that persists across program executions.
//!
//! Five map kinds cover the evaluation programs: `Array` (statistics),
//! `Hash` (flow/session tables), `PerCpuArray` (modelled as a plain array —
//! the hardware pipeline has a single execution domain), `LruHash`
//! (connection tables with eviction) and `LpmTrie` (IPv4 routing tables).
//!
//! Values live in a slab with stable slot indices so that a "pointer to map
//! value" (what `bpf_map_lookup_elem` returns) can be represented as a
//! compact virtual address by the VM and as a `(map, slot)` port address by
//! the hardware simulator.
//!
//! Only array maps are preallocated. A hash-like map starts empty and its
//! slab grows to the high-water mark of its occupancy, so creating, cloning,
//! iterating and evicting cost the entries that were ever live, not
//! `max_entries`. A new key takes the most recently freed slot, else the
//! next never-used slot, else (at capacity) evicts or fails — the slot
//! sequence a free stack preloaded with `max_entries-1 ..= 0` would hand
//! out, so value addresses, iteration order and eviction victims are those
//! of a preallocated table.

use std::collections::HashMap;
use std::fmt;

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

impl fmt::Display for MapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MapKind::Array => "array",
            MapKind::PerCpuArray => "percpu_array",
            MapKind::Hash => "hash",
            MapKind::LruHash => "lru_hash",
            MapKind::LpmTrie => "lpm_trie",
        };
        f.write_str(s)
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

#[derive(Debug, Clone)]
struct Entry {
    key: Vec<u8>,
    value: Vec<u8>,
    /// `Map::tick` at the entry's last use, for LRU eviction.
    last_use: u64,
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
    /// Stable-slot storage; `None` slots are free. Arrays hold all
    /// `max_entries` slots; hash-like kinds hold the slots ever used.
    slab: Vec<Option<Entry>>,
    /// Hash index: key bytes → slot (hash-like kinds only).
    index: HashMap<Vec<u8>, usize>,
    /// Freed slots of `slab`, most recently freed last.
    free: Vec<usize>,
    /// Monotonic use counter for LRU eviction.
    tick: u64,
}

impl Map {
    /// Instantiate a map from its definition. Array maps are preallocated
    /// and zero-filled, exactly like the kernel's; hash-like maps start
    /// empty and grow with use (see the module docs).
    pub fn new(def: MapDef) -> Map {
        let slab = match def.kind {
            MapKind::Array | MapKind::PerCpuArray => (0..def.max_entries)
                .map(|i| {
                    Some(Entry {
                        key: i.to_le_bytes().to_vec(),
                        value: vec![0; def.value_size as usize],
                        last_use: 0,
                    })
                })
                .collect(),
            MapKind::Hash | MapKind::LruHash | MapKind::LpmTrie => Vec::new(),
        };
        Map { def, slab, index: HashMap::new(), free: Vec::new(), tick: 0 }
    }

    /// The static definition.
    pub fn def(&self) -> &MapDef {
        &self.def
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        match self.def.kind {
            MapKind::Array | MapKind::PerCpuArray => self.slab.len(),
            MapKind::Hash | MapKind::LruHash | MapKind::LpmTrie => self.index.len(),
        }
    }

    /// True if no entries are live (never true for array maps).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn check_key(&self, key: &[u8]) -> Result<(), MapError> {
        if key.len() != self.def.key_size as usize {
            return Err(MapError::BadKeySize { expected: self.def.key_size, got: key.len() });
        }
        Ok(())
    }

    /// The leading `u32` of a key (array index / LPM prefix length).
    /// Array and LPM definitions narrower than 4 bytes can reach us from
    /// loaded ELF objects, so a short key is an error, not a panic.
    fn key_head(&self, key: &[u8]) -> Result<u32, MapError> {
        match key.get(..4) {
            Some(s) => Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]])),
            None => Err(MapError::BadKeySize { expected: 4, got: key.len() }),
        }
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
            MapKind::Array | MapKind::PerCpuArray => {
                let idx = self.key_head(key)?;
                if idx >= self.def.max_entries {
                    return Err(MapError::IndexOutOfBounds {
                        index: idx,
                        max: self.def.max_entries,
                    });
                }
                Ok(Some(idx as usize))
            }
            MapKind::Hash => Ok(self.index.get(key).copied()),
            MapKind::LruHash => {
                if let Some(&slot) = self.index.get(key) {
                    self.touch(slot);
                    Ok(Some(slot))
                } else {
                    Ok(None)
                }
            }
            MapKind::LpmTrie => Ok(self.lpm_lookup(key)),
        }
    }

    fn lpm_lookup(&self, key: &[u8]) -> Option<usize> {
        let data = key.get(4..)?;
        let mut best: Option<(u32, usize)> = None;
        for (slot, entry) in self.slab.iter().enumerate() {
            let Some(e) = entry else { continue };
            let (head, edata) = match (e.key.get(..4), e.key.get(4..)) {
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
    pub fn value(&self, slot: usize) -> &[u8] {
        &self.slab[slot].as_ref().expect("value of free slot").value
    }

    /// Non-panicking [`Map::value`]: `None` for out-of-range or free
    /// slots. For slot numbers derived from untrusted input (e.g. a
    /// fabricated map-value address in unverified bytecode).
    pub fn try_value(&self, slot: usize) -> Option<&[u8]> {
        Some(&self.slab.get(slot)?.as_ref()?.value)
    }

    /// Non-panicking [`Map::value_mut`]; see [`Map::try_value`].
    pub fn try_value_mut(&mut self, slot: usize) -> Option<&mut [u8]> {
        Some(&mut self.slab.get_mut(slot)?.as_mut()?.value)
    }

    /// Mutable access to a slot's value bytes.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn value_mut(&mut self, slot: usize) -> &mut [u8] {
        &mut self.slab[slot].as_mut().expect("value of free slot").value
    }

    /// The key stored at a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn key_of(&self, slot: usize) -> &[u8] {
        &self.slab[slot].as_ref().expect("key of free slot").key
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
                let idx = self.key_head(key)?;
                if idx >= self.def.max_entries {
                    return Err(MapError::IndexOutOfBounds {
                        index: idx,
                        max: self.def.max_entries,
                    });
                }
                if flags == UpdateFlags::NoExist {
                    return Err(MapError::KeyExists);
                }
                self.slab[idx as usize]
                    .as_mut()
                    .expect("array slots are preallocated")
                    .value
                    .copy_from_slice(value);
                Ok(idx as usize)
            }
            MapKind::Hash | MapKind::LruHash | MapKind::LpmTrie => {
                if self.def.kind == MapKind::LpmTrie {
                    let plen = self.key_head(key)?;
                    let max = self.def.key_size.saturating_sub(4) * 8;
                    if plen > max {
                        return Err(MapError::BadPrefixLen { prefix: plen, max });
                    }
                }
                if let Some(&slot) = self.index.get(key) {
                    if flags == UpdateFlags::NoExist {
                        return Err(MapError::KeyExists);
                    }
                    self.touch(slot).value.copy_from_slice(value);
                    return Ok(slot);
                }
                if flags == UpdateFlags::Exist {
                    return Err(MapError::NoSuchKey);
                }
                let slot = match self.free.pop() {
                    Some(s) => s,
                    None if self.slab.len() < self.def.max_entries as usize => {
                        self.slab.push(None);
                        self.slab.len() - 1
                    }
                    None if self.def.kind == MapKind::LruHash => self.evict_lru(),
                    None => return Err(MapError::Full),
                };
                self.tick += 1;
                self.slab[slot] =
                    Some(Entry { key: key.to_vec(), value: value.to_vec(), last_use: self.tick });
                self.index.insert(key.to_vec(), slot);
                Ok(slot)
            }
        }
    }

    /// Mark the live entry at `slot` as just used.
    fn touch(&mut self, slot: usize) -> &mut Entry {
        self.tick += 1;
        let e = self.slab[slot].as_mut().expect("indexed slot is live");
        e.last_use = self.tick;
        e
    }

    fn evict_lru(&mut self) -> usize {
        let slot = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i, e.last_use)))
            .min_by_key(|&(_, last_use)| last_use)
            .map(|(i, _)| i)
            .expect("lru map at capacity has live entries");
        let old = self.slab[slot].take().expect("evicted slot was live");
        self.index.remove(&old.key);
        slot
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
            _ => match self.index.remove(key) {
                Some(slot) => {
                    self.slab[slot] = None;
                    self.free.push(slot);
                    Ok(())
                }
                None => Err(MapError::NoSuchKey),
            },
        }
    }

    /// Iterate live `(slot, key, value)` triples — the "host reads the map"
    /// interface (§6: monitoring applications fetch statistics).
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[u8], &[u8])> {
        self.slab
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i, e.key.as_slice(), e.value.as_slice())))
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

    /// The reference layout the grown slab's slot sequence is pinned
    /// against: a preallocated table, every slot present and free, the
    /// free stack handing out `0, 1, 2, …`.
    fn eager(def: MapDef) -> Map {
        let n = def.max_entries as usize;
        let mut m = Map::new(def);
        m.slab.resize_with(n, || None);
        m.free.extend((0..n).rev());
        m
    }

    #[test]
    fn grown_slab_hands_out_the_preallocated_slot_sequence() {
        type Entries = Vec<(usize, Vec<u8>, Vec<u8>)>;
        fn entries(m: &Map) -> Entries {
            m.iter().map(|(s, k, v)| (s, k.to_vec(), v.to_vec())).collect()
        }
        // LPM keys carry a valid prefix length in front of the key byte.
        let defs = [
            MapDef::new(0, "h", MapKind::Hash, 1, 2, 12),
            MapDef::new(0, "lru", MapKind::LruHash, 1, 2, 12),
            MapDef::new(0, "lpm", MapKind::LpmTrie, 5, 2, 12),
        ];
        for def in defs {
            let lpm = def.kind == MapKind::LpmTrie;
            let mut rng = ehdl_rng::Rng::seed_from_u64(0x5107 + u64::from(def.key_size));
            let (mut lazy, mut reference) = (Map::new(def.clone()), eager(def.clone()));
            assert_eq!(lazy.try_value(0), None, "nothing is allocated before the first insert");
            let (mut full, mut missing, mut evictions) = (0u32, 0u32, 0u32);
            for step in 0..10_000 {
                // 24 keys over 12 slots: the table sits at capacity, so
                // `Full` (hash, LPM) and eviction (LRU) both fire.
                let byte = rng.gen_index(24) as u8;
                let key: Vec<u8> = if lpm {
                    let mut k = (rng.gen_index(9) as u32).to_le_bytes().to_vec();
                    k.push(byte);
                    k
                } else {
                    vec![byte]
                };
                let value = rng.gen_u16().to_le_bytes();
                let flags =
                    [UpdateFlags::Any, UpdateFlags::NoExist, UpdateFlags::Exist][rng.gen_index(3)];
                let before = entries(&reference);
                match rng.gen_index(4) {
                    0 | 1 => {
                        let want = reference.update(&key, &value, flags);
                        assert_eq!(lazy.update(&key, &value, flags), want, "step {step}");
                        full += u32::from(want == Err(MapError::Full));
                        // An insert into a full LRU map replaces its victim.
                        let evicted = want.is_ok()
                            && before.len() == 12
                            && !before.iter().any(|(_, k, _)| *k == key);
                        evictions += u32::from(evicted);
                    }
                    2 => {
                        let want = reference.delete(&key);
                        assert_eq!(lazy.delete(&key), want, "step {step}");
                        missing += u32::from(want == Err(MapError::NoSuchKey));
                    }
                    _ => assert_eq!(lazy.lookup(&key), reference.lookup(&key), "step {step}"),
                }
                assert_eq!(entries(&lazy), entries(&reference), "step {step}");
                assert_eq!(lazy.len(), reference.len(), "step {step}");
                assert_eq!(lazy.len(), entries(&lazy).len(), "step {step}");
            }
            assert!(missing > 0, "{}: no delete missed", def.name);
            if def.kind == MapKind::LruHash {
                assert!(full == 0 && evictions > 0, "lru: {full} full, {evictions} evictions");
            } else {
                assert!(full > 0 && evictions == 0, "{}: {full} full", def.name);
            }
            // Slots past the high-water mark stay unallocated, not free-and-present.
            assert_eq!(lazy.try_value(12), None);
            assert!(lazy.slab.len() <= 12);
        }
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
