//! Randomized tests: map semantics against a reference model, and
//! instruction encode/decode roundtrips.
//!
//! Formerly proptest-based; rewritten as deterministic seeded campaigns so
//! the workspace builds without crates.io access. Each campaign draws its
//! cases from a fixed seed, so failures reproduce exactly.

use ehdl_ebpf::asm::Asm;
use ehdl_ebpf::insn::{decode, Insn};
use ehdl_ebpf::maps::{Map, MapDef, MapError, MapKind, UpdateFlags};
use ehdl_ebpf::opcode::{AluOp, JmpOp, MemSize};
use ehdl_rng::Rng;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// What a [`Map`] must do, written as plainly as possible: a preallocated
/// table of `max_entries` slots searched by linear scan, a free stack
/// preloaded with `max_entries-1 ..= 0`, and LRU order as a list of
/// slots, least recently used first.
struct Model {
    def: MapDef,
    slots: Vec<Option<(Vec<u8>, Vec<u8>)>>,
    free: Vec<usize>,
    recency: Vec<usize>,
}

impl Model {
    fn new(def: &MapDef) -> Model {
        let n = def.max_entries as usize;
        let array = is_array(def.kind);
        let slots = (0..n)
            .map(|i| {
                array.then(|| ((i as u32).to_le_bytes().to_vec(), vec![0; def.value_size as usize]))
            })
            .collect();
        let free = if array { Vec::new() } else { (0..n).rev().collect() };
        Model { def: def.clone(), slots, free, recency: Vec::new() }
    }

    fn check_key(&self, key: &[u8]) -> Result<(), MapError> {
        if key.len() != self.def.key_size as usize {
            return Err(MapError::BadKeySize { expected: self.def.key_size, got: key.len() });
        }
        Ok(())
    }

    fn head(key: &[u8]) -> u32 {
        u32::from_le_bytes(key[..4].try_into().unwrap())
    }

    fn array_slot(&self, key: &[u8]) -> Result<usize, MapError> {
        let index = Self::head(key);
        let max = self.def.max_entries;
        if index >= max {
            return Err(MapError::IndexOutOfBounds { index, max });
        }
        Ok(index as usize)
    }

    fn find(&self, key: &[u8]) -> Option<usize> {
        self.slots.iter().position(|e| e.as_ref().is_some_and(|(k, _)| k == key))
    }

    fn used(&mut self, slot: usize) {
        self.recency.retain(|&s| s != slot);
        self.recency.push(slot);
    }

    fn lookup(&mut self, key: &[u8]) -> Result<Option<usize>, MapError> {
        self.check_key(key)?;
        match self.def.kind {
            MapKind::Array | MapKind::PerCpuArray => self.array_slot(key).map(Some),
            MapKind::Hash => Ok(self.find(key)),
            MapKind::LruHash => {
                let slot = self.find(key);
                slot.inspect(|&s| self.used(s));
                Ok(slot)
            }
            MapKind::LpmTrie => {
                let best =
                    self.lpm_matches(key).into_iter().max_by_key(|&(plen, s)| (plen, Reverse(s)));
                Ok(best.map(|(_, slot)| slot))
            }
        }
    }

    /// Every stored LPM entry whose first prefix-length bits all equal
    /// the probe's, as `(prefix length, slot)`.
    fn lpm_matches(&self, key: &[u8]) -> Vec<(u32, usize)> {
        let bit = |bytes: &[u8], i: u32| bytes[i as usize / 8] >> (7 - i % 8) & 1;
        let stored = self.slots.iter().enumerate();
        stored
            .filter_map(|(slot, e)| {
                let (k, _) = e.as_ref()?;
                let plen = Self::head(k);
                (0..plen).all(|i| bit(&k[4..], i) == bit(&key[4..], i)).then_some((plen, slot))
            })
            .collect()
    }

    fn update(&mut self, key: &[u8], value: &[u8], flags: UpdateFlags) -> Result<usize, MapError> {
        self.check_key(key)?;
        if value.len() != self.def.value_size as usize {
            return Err(MapError::BadValueSize { expected: self.def.value_size, got: value.len() });
        }
        if is_array(self.def.kind) {
            let slot = self.array_slot(key)?;
            if flags == UpdateFlags::NoExist {
                return Err(MapError::KeyExists);
            }
            self.slots[slot] = Some((key[..4].to_vec(), value.to_vec()));
            return Ok(slot);
        }
        if self.def.kind == MapKind::LpmTrie {
            let (prefix, max) = (Self::head(key), (self.def.key_size - 4) * 8);
            if prefix > max {
                return Err(MapError::BadPrefixLen { prefix, max });
            }
        }
        if let Some(slot) = self.find(key) {
            if flags == UpdateFlags::NoExist {
                return Err(MapError::KeyExists);
            }
            self.slots[slot] = Some((key.to_vec(), value.to_vec()));
            self.used(slot);
            return Ok(slot);
        }
        if flags == UpdateFlags::Exist {
            return Err(MapError::NoSuchKey);
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None if self.def.kind == MapKind::LruHash && !self.recency.is_empty() => {
                self.recency.remove(0)
            }
            None => return Err(MapError::Full),
        };
        self.slots[slot] = Some((key.to_vec(), value.to_vec()));
        self.used(slot);
        Ok(slot)
    }

    fn delete(&mut self, key: &[u8]) -> Result<(), MapError> {
        self.check_key(key)?;
        if is_array(self.def.kind) {
            return Err(MapError::Unsupported);
        }
        let slot = self.find(key).ok_or(MapError::NoSuchKey)?;
        self.slots[slot] = None;
        self.recency.retain(|&s| s != slot);
        self.free.push(slot);
        Ok(())
    }

    fn len(&self) -> usize {
        self.slots.iter().filter(|e| e.is_some()).count()
    }

    fn entries(&self) -> Vec<(usize, Vec<u8>, Vec<u8>)> {
        let live = self.slots.iter().enumerate();
        live.filter_map(|(s, e)| e.as_ref().map(|(k, v)| (s, k.clone(), v.clone()))).collect()
    }
}

fn is_array(kind: MapKind) -> bool {
    matches!(kind, MapKind::Array | MapKind::PerCpuArray)
}

fn entries(map: &Map) -> Vec<(usize, Vec<u8>, Vec<u8>)> {
    map.iter().map(|(s, k, v)| (s, k.to_vec(), v.to_vec())).collect()
}

/// Outcomes a campaign must have reached for its verdict to mean anything.
#[derive(Default)]
struct Seen {
    results: BTreeSet<String>,
    evictions: u32,
    nested_lpm_hits: u32,
}

/// Random keys for `def`: drawn from a pool twice the capacity (so hits,
/// misses, `Full` and evictions all happen), LPM keys as a prefix length
/// over one of four base addresses with at most one bit flipped (so
/// stored prefixes nest), array keys a little past the end.
struct Keys {
    def: MapDef,
    pool: Vec<Vec<u8>>,
}

impl Keys {
    fn new(rng: &mut Rng, def: &MapDef) -> Keys {
        let width = def.key_size as usize - if def.kind == MapKind::LpmTrie { 4 } else { 0 };
        let count = if def.kind == MapKind::LpmTrie { 4 } else { 2 * def.max_entries as usize + 2 };
        let pool = (0..count)
            .map(|_| {
                let mut k = vec![0u8; width];
                rng.fill_bytes(&mut k);
                k
            })
            .collect();
        Keys { def: def.clone(), pool }
    }

    fn draw(&self, rng: &mut Rng) -> Vec<u8> {
        let mut key = match self.def.kind {
            MapKind::Array | MapKind::PerCpuArray => {
                (rng.gen_index(self.def.max_entries as usize + 3) as u32).to_le_bytes().to_vec()
            }
            MapKind::Hash | MapKind::LruHash => self.pool[rng.gen_index(self.pool.len())].clone(),
            MapKind::LpmTrie => {
                let mut data = self.pool[rng.gen_index(self.pool.len())].clone();
                if rng.gen_bool() {
                    let bit = rng.gen_index(8 * data.len());
                    data[bit / 8] ^= 0x80 >> (bit % 8);
                }
                // Often a quarter or half of the bits, so equal-length
                // prefixes tie; otherwise anything, now and then too long.
                let bits = 8 * data.len();
                let plen = [bits / 4, bits / 2, bits, rng.gen_index(bits + 2)][rng.gen_index(4)];
                let plen = plen as u32;
                let mut key = plen.to_le_bytes().to_vec();
                key.extend_from_slice(&data);
                key
            }
        };
        // Now and then a key of the wrong width.
        match rng.gen_index(40) {
            0 => key.push(0),
            1 => {
                key.pop();
            }
            _ => {}
        }
        key
    }

    /// The `n`th of a run of well-formed keys, distinct over any span
    /// the key's data bytes can count (256 for a 1-byte key).
    fn fresh(&self, n: u64) -> Vec<u8> {
        let mut key = vec![0u8; self.def.key_size as usize];
        let data = if self.def.kind == MapKind::LpmTrie {
            key[..4].copy_from_slice(&(8 * (self.def.key_size - 4)).to_le_bytes());
            &mut key[4..]
        } else {
            &mut key[..]
        };
        for (b, n) in data.iter_mut().zip(n.to_le_bytes()) {
            *b = n ^ 0x5a;
        }
        key
    }
}

/// Run one map and its model through `ops` random operations, then a
/// delete/reinsert churn of `churn_rounds` × capacity (tombstones and
/// index rebuilds), comparing every result — slot numbers and errors
/// included — `iter()` order, `len()` and `try_value` after every step.
fn check_against_model(
    rng: &mut Rng,
    def: &MapDef,
    ops: usize,
    churn_rounds: u64,
    seen: &mut Seen,
) {
    let (mut map, mut model) = (Map::new(def.clone()), Model::new(def));
    let keys = Keys::new(rng, def);
    let value_size = def.value_size as usize;
    let agree = |map: &Map, model: &Model, step: &str| {
        let want = model.entries();
        assert_eq!(map.len(), want.len(), "{def:?} {step}");
        assert_eq!(entries(map), want, "{def:?} {step}");
    };
    for step in 0..ops {
        let key = keys.draw(rng);
        let mut value = vec![0u8; value_size];
        rng.fill_bytes(&mut value);
        if rng.gen_index(40) == 0 {
            value.push(1);
        }
        let flags = [UpdateFlags::Any, UpdateFlags::NoExist, UpdateFlags::Exist][rng.gen_index(3)];
        let evicts = def.kind == MapKind::LruHash
            && model.find(&key).is_none()
            && model.len() == def.max_entries as usize;
        let result = match rng.gen_index(20) {
            0..=8 => {
                let want = model.update(&key, &value, flags);
                assert_eq!(map.update(&key, &value, flags), want, "{def:?} step {step}");
                seen.evictions += u32::from(evicts && want.is_ok());
                format!("update {:?}", want.map(|_| ()))
            }
            9..=12 => {
                let want = model.delete(&key);
                assert_eq!(map.delete(&key), want, "{def:?} step {step}");
                format!("delete {want:?}")
            }
            _ => {
                let want = model.lookup(&key);
                assert_eq!(map.lookup(&key), want, "{def:?} step {step}");
                if def.kind == MapKind::LpmTrie && matches!(want, Ok(Some(_))) {
                    // The longest of several matching prefixes won.
                    seen.nested_lpm_hits += u32::from(model.lpm_matches(&key).len() > 1);
                }
                format!("lookup {:?}", want.map(|s| s.is_some()))
            }
        };
        seen.results.insert(format!("{}: {result}", def.kind));
        let probe = rng.gen_index(def.max_entries as usize + 2);
        let want = model.slots.get(probe).and_then(|e| e.as_ref().map(|(_, v)| v.as_slice()));
        assert_eq!(map.try_value(probe), want, "{def:?} step {step}");
        agree(&map, &model, &format!("step {step}"));
    }
    if is_array(def.kind) {
        return;
    }
    // Churn: fill up with fresh keys, then retire the oldest and insert a
    // new one, over and over, so deletes tombstone the index and inserts
    // reuse freed slots.
    let live: Vec<Vec<u8>> = model.entries().into_iter().map(|(_, k, _)| k).collect();
    for key in &live {
        assert_eq!(map.delete(key), model.delete(key));
    }
    let capacity = u64::from(def.max_entries);
    let value = vec![7u8; value_size];
    for n in 0..capacity * (churn_rounds + 1) {
        if n >= capacity {
            let old = keys.fresh(n - capacity);
            assert_eq!(map.delete(&old), model.delete(&old), "{def:?} churn {n}");
        }
        let new = keys.fresh(n);
        let want = model.update(&new, &value, UpdateFlags::NoExist);
        assert_eq!(map.update(&new, &value, UpdateFlags::NoExist), want, "{def:?} churn {n}");
        assert_eq!(map.len(), model.len(), "{def:?} churn {n}");
        if n % capacity == 0 {
            agree(&map, &model, &format!("churn {n}"));
        }
    }
    agree(&map, &model, "after churn");
}

/// Every map kind, key widths 1/4/13/16/20 (LPM 5/8/20), capacities from
/// 1 up, `cases` random definitions of each shape.
fn model_campaign(seed: u64, cases: usize, ops: usize, churn_rounds: u64, capacities: &[u32]) {
    let mut rng = Rng::seed_from_u64(seed);
    let shapes: &[(MapKind, &[u32])] = &[
        (MapKind::Array, &[4]),
        (MapKind::PerCpuArray, &[4]),
        (MapKind::Hash, &[1, 4, 13, 16, 20]),
        (MapKind::LruHash, &[1, 4, 13, 16, 20]),
        (MapKind::LpmTrie, &[5, 8, 20]),
    ];
    let mut seen = Seen::default();
    for _ in 0..cases {
        for &(kind, widths) in shapes {
            let key_size = widths[rng.gen_index(widths.len())];
            let value_size = [1, 4, 8, 16][rng.gen_index(4)];
            let capacity = capacities[rng.gen_index(capacities.len())];
            let def = MapDef::new(0, "m", kind, key_size, value_size, capacity);
            check_against_model(&mut rng, &def, ops, churn_rounds, &mut seen);
        }
    }
    // Each outcome class happened somewhere, so agreeing on it meant something.
    for want in [
        "array: update Err(KeyExists)",
        "array: update Err(IndexOutOfBounds { index",
        "array: delete Err(Unsupported)",
        "hash: update Err(Full)",
        "hash: update Err(NoSuchKey)",
        "hash: update Err(KeyExists)",
        "hash: update Err(BadKeySize",
        "hash: update Err(BadValueSize",
        "hash: delete Ok(())",
        "hash: delete Err(NoSuchKey)",
        "hash: lookup Ok(true)",
        "hash: lookup Ok(false)",
        "lru_hash: update Ok(())",
        "lru_hash: lookup Ok(true)",
        "lpm_trie: update Err(BadPrefixLen",
        "lpm_trie: update Err(Full)",
        "lpm_trie: lookup Ok(true)",
        "lpm_trie: lookup Ok(false)",
    ] {
        assert!(seen.results.iter().any(|r| r.starts_with(want)), "never saw {want}");
    }
    assert!(seen.evictions > 0, "no LRU eviction");
    assert!(seen.nested_lpm_hits > 0, "no lookup chose between nested prefixes");
}

/// `Map` agrees with [`Model`] on every kind and shape. Tier-1 size; the
/// long form below runs 5x the cases, 10x the ops and larger maps.
#[test]
fn map_matches_linear_scan_model() {
    model_campaign(0x3a95, 4, 300, 10, &[1, 2, 7, 12, 33, 100]);
}

#[test]
#[ignore = "long form of map_matches_linear_scan_model (release: cargo test --release -p ehdl-ebpf -- --ignored)"]
fn map_matches_linear_scan_model_long() {
    model_campaign(0x3a96, 20, 3_000, 20, &[1, 2, 3, 7, 12, 33, 100, 257, 1000]);
}

/// Raw instruction words roundtrip through the wire format.
#[test]
fn insn_bytes_roundtrip() {
    let mut rng = Rng::seed_from_u64(0x1c5b);
    for _ in 0..256 {
        let i = Insn {
            opcode: rng.gen_u8(),
            dst: rng.gen_index(16) as u8,
            src: rng.gen_index(16) as u8,
            off: rng.gen_u16() as i16,
            imm: rng.gen_i32(),
        };
        assert_eq!(Insn::from_bytes(i.to_bytes()), i);
    }
}

/// Assembled ALU/branch streams always decode, and every decoded
/// instruction covers exactly its slots.
#[test]
fn assembled_streams_decode() {
    let mut rng = Rng::seed_from_u64(0xa55e);
    for _ in 0..256 {
        let nops = rng.gen_range_u64(1, 39) as usize;
        let mut a = Asm::new();
        let end = a.new_label();
        for _ in 0..nops {
            let kind = rng.gen_index(5) as u8;
            let reg = rng.gen_index(6) as u8;
            let imm = rng.gen_i32();
            match kind {
                0 => {
                    a.mov64_imm(reg, imm);
                }
                1 => {
                    a.alu64_imm(AluOp::Add, reg, imm);
                }
                2 => {
                    a.alu64_imm(AluOp::Xor, reg, imm);
                }
                3 => {
                    a.jmp_imm(JmpOp::Jeq, reg, imm, end);
                }
                _ => {
                    a.ld_imm64(reg, imm as u64);
                }
            }
        }
        a.bind(end);
        a.mov64_imm(0, 2);
        a.exit();
        let insns = a.into_insns();
        let decoded = decode(&insns).unwrap();
        let covered: usize = decoded.iter().map(|d| d.slots).sum();
        assert_eq!(covered, insns.len());
    }
}

/// Store/load roundtrip through stack memory in the VM for every size.
#[test]
fn vm_stack_roundtrip() {
    use ehdl_ebpf::vm::Vm;
    use ehdl_ebpf::Program;
    let mut rng = Rng::seed_from_u64(0x57ac);
    for _ in 0..256 {
        let v = rng.next_u64();
        let size = [MemSize::B, MemSize::H, MemSize::W, MemSize::Dw][rng.gen_index(4)];
        let mut a = Asm::new();
        a.ld_imm64(2, v);
        a.store_reg(size, 10, -16, 2);
        a.load(size, 0, 10, -16);
        a.exit();
        let p = Program::from_insns(a.into_insns());
        let out = Vm::new(&p).run(&mut vec![0; 64], 0).unwrap();
        let mask = match size {
            MemSize::B => 0xff,
            MemSize::H => 0xffff,
            MemSize::W => 0xffff_ffff,
            MemSize::Dw => u64::MAX,
        };
        assert_eq!(out.r0, v & mask);
    }
}

/// The text parser never panics on arbitrary input.
#[test]
fn text_parser_never_panics() {
    let mut rng = Rng::seed_from_u64(0x7e87);
    for _ in 0..512 {
        let len = rng.gen_index(121);
        let input: String = (0..len)
            .map(|_| {
                // Mostly printable ASCII with occasional arbitrary chars.
                if rng.gen_index(8) == 0 {
                    char::from_u32(rng.next_u32() % 0xD800).unwrap_or('\u{fffd}')
                } else {
                    (0x20 + rng.gen_index(0x5f) as u8) as char
                }
            })
            .collect();
        let _ = ehdl_ebpf::text::parse_program(&input);
    }
}

/// ... and on near-miss statement-shaped strings.
#[test]
fn text_parser_survives_statement_soup() {
    const PARTS: [&str; 13] = [
        "r1", "w3", "=", "+=", "*(u32 *)", "(r1 +4)", "goto", "+2", "if", "lock", "ll", "-17",
        "exit",
    ];
    let mut rng = Rng::seed_from_u64(0x50f7);
    for _ in 0..512 {
        let n = rng.gen_index(8);
        let line = (0..n).map(|_| PARTS[rng.gen_index(PARTS.len())]).collect::<Vec<_>>().join(" ");
        let _ = ehdl_ebpf::text::parse_program(&line);
    }
}

/// `decode(encode(i))` is the identity on every decodable stream the
/// assembler can produce.
#[test]
fn encode_decode_roundtrip() {
    use ehdl_ebpf::insn::encode_all;
    let mut rng = Rng::seed_from_u64(0xe2cd);
    for _ in 0..512 {
        let nops = rng.gen_range_u64(1, 29) as usize;
        let mut a = Asm::new();
        let end = a.new_label();
        for _ in 0..nops {
            let kind = rng.gen_index(6) as u8;
            let reg = rng.gen_index(10) as u8;
            let off = rng.gen_u16() as i16;
            let imm = rng.gen_i32();
            match kind {
                0 => {
                    a.mov64_imm(reg, imm);
                }
                1 => {
                    a.alu64_reg(AluOp::Add, reg, (reg + 1) % 10);
                }
                2 => {
                    a.load(MemSize::W, reg, (reg + 1) % 10, off);
                }
                3 => {
                    a.store_reg(MemSize::H, (reg + 1) % 10, off, reg);
                }
                4 => {
                    a.jmp_imm(JmpOp::Jlt, reg, imm, end);
                }
                _ => {
                    a.ld_imm64(reg, imm as u64);
                }
            }
        }
        a.bind(end);
        a.mov64_imm(0, 2);
        a.exit();
        let insns = a.into_insns();
        let decoded = decode(&insns).unwrap();
        assert_eq!(encode_all(&decoded).unwrap(), insns);
    }
}

/// 32-bit ALU semantics match plain `u32` arithmetic (zero-extended).
#[test]
fn alu32_matches_u32_arithmetic() {
    use ehdl_ebpf::opcode::Width;
    use ehdl_ebpf::vm::alu_eval;
    let ops = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Lsh,
        AluOp::Rsh,
    ];
    let mut rng = Rng::seed_from_u64(0xa132);
    for _ in 0..512 {
        let d = rng.next_u64();
        let s = rng.next_u64();
        let op = ops[rng.gen_index(ops.len())];
        let got = alu_eval(op, Width::W32, d, s);
        let d32 = d as u32;
        let s32 = s as u32;
        let want = match op {
            AluOp::Add => d32.wrapping_add(s32),
            AluOp::Sub => d32.wrapping_sub(s32),
            AluOp::Mul => d32.wrapping_mul(s32),
            AluOp::And => d32 & s32,
            AluOp::Or => d32 | s32,
            AluOp::Xor => d32 ^ s32,
            AluOp::Lsh => d32.wrapping_shl(s32 & 31),
            AluOp::Rsh => d32.wrapping_shr(s32 & 31),
            _ => unreachable!(),
        };
        assert_eq!(got, u64::from(want), "no sign/garbage in the high half");
    }
}
