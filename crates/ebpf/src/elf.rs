//! Minimal BPF ELF object support.
//!
//! Real XDP programs reach eHDL as relocatable ELF objects produced by
//! clang (`clang -target bpf -c prog.c`): the bytecode lives in a program
//! section, map definitions in a `maps` section, and every `ld_imm64` that
//! references a map carries a `R_BPF_64_64` relocation against the map's
//! symbol. This module implements exactly that subset — enough to write
//! our programs out as `.o` files and load them back, byte-compatible with
//! the classic libbpf "legacy maps" convention:
//!
//! ```c
//! struct bpf_map_def {
//!     unsigned int type, key_size, value_size, max_entries, map_flags;
//! };
//! ```
//!
//! ```
//! use ehdl_ebpf::elf;
//! use ehdl_ebpf::asm::Asm;
//! use ehdl_ebpf::Program;
//!
//! let mut a = Asm::new();
//! a.mov64_imm(0, 2);
//! a.exit();
//! let program = Program::new("xdp_prog", a.into_insns(), vec![]);
//! let object = elf::write(&program);
//! let loaded = elf::load(&object)?;
//! assert_eq!(loaded.insns, program.insns);
//! # Ok::<(), ehdl_ebpf::elf::ElfError>(())
//! ```

use crate::maps::{MapDef, MapKind};
use crate::program::Program;
use std::fmt;

/// ELF machine number for BPF.
pub const EM_BPF: u16 = 247;
/// Relocation type: 64-bit map pointer into a `ld_imm64` pair.
pub const R_BPF_64_64: u32 = 1;
/// Size of the legacy `struct bpf_map_def`.
const MAP_DEF_SIZE: usize = 20;
/// Most backing-store bytes one loaded object's maps may ask for together
/// (64 MiB — generous for any NIC-resident tables, far below an OOM).
const MAP_BUDGET_BYTES: u64 = 64 << 20;
/// The program section name used by our writer.
const PROG_SECTION: &str = "xdp";

/// Map kind ↔ `enum bpf_map_type` numbers (the kernel's ABI values).
fn map_type_code(kind: MapKind) -> u32 {
    match kind {
        MapKind::Hash => 1,
        MapKind::Array => 2,
        MapKind::PerCpuArray => 6,
        MapKind::LruHash => 9,
        MapKind::LpmTrie => 11,
    }
}

/// Why no map of `kind` can have these widths, if none can: every key and
/// value has at least one byte, an array's key is its `u32` index, and an
/// LPM key is a `u32` prefix length followed by at least one data byte.
fn map_shape_error(kind: MapKind, key_size: u32, value_size: u32) -> Option<&'static str> {
    match kind {
        _ if key_size == 0 => Some("key_size is 0"),
        _ if value_size == 0 => Some("value_size is 0"),
        MapKind::Array | MapKind::PerCpuArray if key_size != 4 => Some("array key_size is not 4"),
        MapKind::LpmTrie if key_size < 5 => Some("lpm_trie key_size is under 5"),
        _ => None,
    }
}

fn map_kind_of(code: u32) -> Option<MapKind> {
    Some(match code {
        1 => MapKind::Hash,
        2 => MapKind::Array,
        6 => MapKind::PerCpuArray,
        9 => MapKind::LruHash,
        11 => MapKind::LpmTrie,
        _ => return None,
    })
}

/// Loading failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElfError {
    /// Not an ELF64 little-endian BPF object.
    NotBpfElf(&'static str),
    /// A structural field is out of bounds.
    Malformed(&'static str),
    /// No program section was found.
    NoProgram,
    /// A relocation references something that is not a known map symbol.
    BadRelocation {
        /// Byte offset of the relocation within the program section.
        offset: u64,
    },
    /// A map definition has an unknown `bpf_map_type`.
    UnknownMapType {
        /// The raw type code.
        code: u32,
    },
    /// The object's maps together would exceed the loader's memory budget
    /// (the kernel's memlock charge, approximated).
    MapTooLarge {
        /// Index in the maps section of the map that crosses the budget.
        map: u32,
        /// Backing-store bytes of the maps up to and including it.
        bytes: u64,
    },
    /// A map definition no map of its kind can have.
    BadMapShape {
        /// Index of the offending map in the maps section.
        map: u32,
        /// What is wrong with it.
        why: &'static str,
    },
}

impl fmt::Display for ElfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElfError::NotBpfElf(why) => write!(f, "not a BPF ELF object: {why}"),
            ElfError::Malformed(what) => write!(f, "malformed ELF: {what}"),
            ElfError::NoProgram => write!(f, "no program section found"),
            ElfError::BadRelocation { offset } => {
                write!(f, "relocation at {offset:#x} does not target a map symbol")
            }
            ElfError::UnknownMapType { code } => write!(f, "unknown bpf_map_type {code}"),
            ElfError::MapTooLarge { map, bytes } => {
                write!(f, "maps 0..={map} ask for {bytes} bytes of storage, over the loader budget")
            }
            ElfError::BadMapShape { map, why } => write!(f, "map {map}: {why}"),
        }
    }
}

impl std::error::Error for ElfError {}

// ---------------------------------------------------------------- writer

struct Section {
    name: String,
    sh_type: u32,
    data: Vec<u8>,
    link: u32,
    info: u32,
    entsize: u64,
}

/// Serialize `program` as a relocatable BPF ELF object.
pub fn write(program: &Program) -> Vec<u8> {
    // Section string table and symbol string table share one strtab.
    let mut strtab: Vec<u8> = vec![0];
    let intern = |s: &str, strtab: &mut Vec<u8>| -> u32 {
        let off = strtab.len() as u32;
        strtab.extend_from_slice(s.as_bytes());
        strtab.push(0);
        off
    };

    // maps section: packed legacy bpf_map_def entries in id order.
    let mut maps_data = Vec::with_capacity(program.maps.len() * MAP_DEF_SIZE);
    for m in &program.maps {
        maps_data.extend_from_slice(&map_type_code(m.kind).to_le_bytes());
        maps_data.extend_from_slice(&m.key_size.to_le_bytes());
        maps_data.extend_from_slice(&m.value_size.to_le_bytes());
        maps_data.extend_from_slice(&m.max_entries.to_le_bytes());
        maps_data.extend_from_slice(&0u32.to_le_bytes()); // map_flags
    }

    // Program section: bytecode with map ids blanked out of ld_imm64
    // (the loader restores them through relocations, like clang output).
    let mut prog_data = Vec::with_capacity(program.insns.len() * 8);
    let mut relocs: Vec<(u64, u32)> = Vec::new(); // (insn byte offset, map id)
    for (slot, insn) in program.insns.iter().enumerate() {
        let mut raw = *insn;
        if raw.is_ld_imm64() && raw.src == crate::opcode::PSEUDO_MAP_FD {
            relocs.push((slot as u64 * 8, raw.imm as u32));
            raw.src = 0;
            raw.imm = 0;
        }
        prog_data.extend_from_slice(&raw.to_bytes());
    }

    // Symbol table: NULL symbol, one object symbol per map (value = byte
    // offset of its bpf_map_def inside the maps section), one for the
    // program entry.
    const MAPS_SHNDX: u16 = 3; // see section order below
    const PROG_SHNDX: u16 = 2;
    let mut symtab: Vec<u8> = vec![0; 24]; // null symbol
    let mut map_sym_index = Vec::new();
    for (i, m) in program.maps.iter().enumerate() {
        map_sym_index.push((symtab.len() / 24) as u32);
        let name_off = intern(&m.name, &mut strtab);
        symtab.extend_from_slice(&name_off.to_le_bytes());
        symtab.push(0x11); // GLOBAL | OBJECT
        symtab.push(0); // default visibility
        symtab.extend_from_slice(&MAPS_SHNDX.to_le_bytes());
        symtab.extend_from_slice(&((i * MAP_DEF_SIZE) as u64).to_le_bytes());
        symtab.extend_from_slice(&(MAP_DEF_SIZE as u64).to_le_bytes());
    }
    {
        let name_off = intern(&program.name, &mut strtab);
        symtab.extend_from_slice(&name_off.to_le_bytes());
        symtab.push(0x12); // GLOBAL | FUNC
        symtab.push(0);
        symtab.extend_from_slice(&PROG_SHNDX.to_le_bytes());
        symtab.extend_from_slice(&0u64.to_le_bytes());
        symtab.extend_from_slice(&(prog_data.len() as u64).to_le_bytes());
    }

    // Relocation section for the program.
    let mut rel_data = Vec::new();
    for (off, map_id) in &relocs {
        let sym = map_sym_index[*map_id as usize];
        rel_data.extend_from_slice(&off.to_le_bytes());
        let r_info = (u64::from(sym) << 32) | u64::from(R_BPF_64_64);
        rel_data.extend_from_slice(&r_info.to_le_bytes());
    }

    // Section layout (indices matter for sh_link/sh_info and symbols):
    // 0 NULL, 1 .strtab, 2 xdp, 3 maps, 4 .symtab, 5 .relxdp
    let sections = vec![
        Section { name: String::new(), sh_type: 0, data: vec![], link: 0, info: 0, entsize: 0 },
        Section {
            name: ".strtab".into(),
            sh_type: 3,
            data: Vec::new(), // filled after all names are interned
            link: 0,
            info: 0,
            entsize: 0,
        },
        Section {
            name: PROG_SECTION.into(),
            sh_type: 1,
            data: prog_data,
            link: 0,
            info: 0,
            entsize: 8,
        },
        Section {
            name: "maps".into(),
            sh_type: 1,
            data: maps_data,
            link: 0,
            info: 0,
            entsize: MAP_DEF_SIZE as u64,
        },
        Section { name: ".symtab".into(), sh_type: 2, data: symtab, link: 1, info: 1, entsize: 24 },
        Section {
            name: format!(".rel{PROG_SECTION}"),
            sh_type: 9,
            data: rel_data,
            link: 4,
            info: 2,
            entsize: 16,
        },
    ];

    // Intern section names last so the strtab data is complete.
    let name_offsets: Vec<u32> = sections
        .iter()
        .map(|s| if s.name.is_empty() { 0 } else { intern(&s.name, &mut strtab) })
        .collect();
    let mut sections = sections;
    sections[1].data = strtab;

    // Assemble: ELF header, section data, section header table.
    let ehsize = 64usize;
    let mut data_offsets = Vec::with_capacity(sections.len());
    let mut cursor = ehsize;
    for s in &sections {
        data_offsets.push(cursor as u64);
        cursor += s.data.len();
        cursor = (cursor + 7) & !7;
    }
    let shoff = cursor as u64;

    let mut out = Vec::with_capacity(cursor + sections.len() * 64);
    // e_ident
    out.extend_from_slice(&[0x7f, b'E', b'L', b'F', 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    out.extend_from_slice(&1u16.to_le_bytes()); // ET_REL
    out.extend_from_slice(&EM_BPF.to_le_bytes());
    out.extend_from_slice(&1u32.to_le_bytes()); // version
    out.extend_from_slice(&0u64.to_le_bytes()); // entry
    out.extend_from_slice(&0u64.to_le_bytes()); // phoff
    out.extend_from_slice(&shoff.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes()); // flags
    out.extend_from_slice(&(ehsize as u16).to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // phentsize
    out.extend_from_slice(&0u16.to_le_bytes()); // phnum
    out.extend_from_slice(&64u16.to_le_bytes()); // shentsize
    out.extend_from_slice(&(sections.len() as u16).to_le_bytes());
    out.extend_from_slice(&1u16.to_le_bytes()); // shstrndx = .strtab

    for (s, off) in sections.iter().zip(&data_offsets) {
        while out.len() < *off as usize {
            out.push(0);
        }
        out.extend_from_slice(&s.data);
    }
    while out.len() < shoff as usize {
        out.push(0);
    }
    for (i, s) in sections.iter().enumerate() {
        out.extend_from_slice(&name_offsets[i].to_le_bytes());
        out.extend_from_slice(&s.sh_type.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // flags
        out.extend_from_slice(&0u64.to_le_bytes()); // addr
        out.extend_from_slice(&data_offsets[i].to_le_bytes());
        out.extend_from_slice(&(s.data.len() as u64).to_le_bytes());
        out.extend_from_slice(&s.link.to_le_bytes());
        out.extend_from_slice(&s.info.to_le_bytes());
        out.extend_from_slice(&8u64.to_le_bytes()); // addralign
        out.extend_from_slice(&s.entsize.to_le_bytes());
    }
    out
}

// ---------------------------------------------------------------- loader

struct RawSection<'a> {
    name: String,
    sh_type: u32,
    data: &'a [u8],
    link: u32,
    info: u32,
}

/// Bounds-and-overflow-checked slice: `b[off..off + len]`, or a
/// `Malformed` error when the range leaves the buffer (or wraps).
fn field<'a>(
    b: &'a [u8],
    off: usize,
    len: usize,
    what: &'static str,
) -> Result<&'a [u8], ElfError> {
    off.checked_add(len).and_then(|end| b.get(off..end)).ok_or(ElfError::Malformed(what))
}

fn u16le(b: &[u8], off: usize) -> Result<u16, ElfError> {
    field(b, off, 2, "truncated u16").map(|s| u16::from_le_bytes([s[0], s[1]]))
}

fn u32le(b: &[u8], off: usize) -> Result<u32, ElfError> {
    field(b, off, 4, "truncated u32").map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

fn u64le(b: &[u8], off: usize) -> Result<u64, ElfError> {
    field(b, off, 8, "truncated u64")
        .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
}

/// Load a BPF ELF object produced by [`write()`](fn@write) (or a compatible
/// toolchain
/// using legacy map definitions and a single program section).
///
/// # Errors
///
/// Returns [`ElfError`] for anything that is not a well-formed object of
/// that shape.
pub fn load(bytes: &[u8]) -> Result<Program, ElfError> {
    if bytes.len() < 64 || bytes[..4] != [0x7f, b'E', b'L', b'F'] {
        return Err(ElfError::NotBpfElf("bad magic"));
    }
    if bytes[4] != 2 || bytes[5] != 1 {
        return Err(ElfError::NotBpfElf("not ELF64 little-endian"));
    }
    if u16le(bytes, 18)? != EM_BPF {
        return Err(ElfError::NotBpfElf("machine is not BPF"));
    }
    let shoff = u64le(bytes, 40)? as usize;
    let shnum = u16le(bytes, 60)? as usize;
    let shstrndx = u16le(bytes, 62)? as usize;

    // Parse section headers.
    let mut headers = Vec::with_capacity(shnum.min(4096));
    for i in 0..shnum {
        let h = i
            .checked_mul(64)
            .and_then(|o| o.checked_add(shoff))
            .ok_or(ElfError::Malformed("section header offset overflows"))?;
        headers.push((
            u32le(bytes, h)?,               // name offset
            u32le(bytes, h + 4)?,           // type
            u64le(bytes, h + 24)? as usize, // data offset
            u64le(bytes, h + 32)? as usize, // size
            u32le(bytes, h + 40)?,          // link
            u32le(bytes, h + 44)?,          // info
        ));
    }
    let (_, _, stroff, strsize, _, _) =
        *headers.get(shstrndx).ok_or(ElfError::Malformed("shstrndx out of range"))?;
    let strtab = field(bytes, stroff, strsize, "strtab bounds")?;
    let name_at = |off: u32| -> String {
        let start = (off as usize).min(strtab.len());
        let end = strtab[start..].iter().position(|&c| c == 0).map_or(strtab.len(), |p| start + p);
        String::from_utf8_lossy(&strtab[start..end]).into_owned()
    };

    let mut sections = Vec::with_capacity(shnum.min(4096));
    for &(name, sh_type, off, size, link, info) in &headers {
        let data = field(bytes, off, size, "section bounds")?;
        sections.push(RawSection { name: name_at(name), sh_type, data, link, info });
    }

    // Locate program, maps, symtab and relocations.
    let prog_idx = sections
        .iter()
        .position(|s| s.sh_type == 1 && (s.name == PROG_SECTION || s.name.starts_with("xdp")))
        .ok_or(ElfError::NoProgram)?;
    let maps_idx = sections.iter().position(|s| s.name == "maps");
    let symtab_idx = sections.iter().position(|s| s.sh_type == 2);

    // Maps: parse legacy bpf_map_def entries; names come from symbols.
    let mut maps = Vec::new();
    if let Some(mi) = maps_idx {
        let data = sections[mi].data;
        if data.len() % MAP_DEF_SIZE != 0 {
            return Err(ElfError::Malformed("maps section size"));
        }
        // Bytes charged so far: the maps' storage at capacity, summed.
        let mut charged = 0u64;
        for (i, def) in data.chunks_exact(MAP_DEF_SIZE).enumerate() {
            let map = i as u32;
            let code = u32::from_le_bytes(def[0..4].try_into().expect("4 bytes"));
            let kind = map_kind_of(code).ok_or(ElfError::UnknownMapType { code })?;
            let key_size = u32::from_le_bytes(def[4..8].try_into().expect("4 bytes"));
            let value_size = u32::from_le_bytes(def[8..12].try_into().expect("4 bytes"));
            let max_entries = u32::from_le_bytes(def[12..16].try_into().expect("4 bytes"));
            if let Some(why) = map_shape_error(kind, key_size, value_size) {
                return Err(ElfError::BadMapShape { map, why });
            }
            let def = MapDef::new(map, &format!("map{i}"), kind, key_size, value_size, max_entries);
            // Charge the maps against one memory budget before any store
            // is instantiated, as the kernel charges memlock — a hostile
            // object must not be able to trigger a huge (or failing)
            // allocation just by being loaded.
            charged = charged.saturating_add(def.storage_bytes());
            if charged > MAP_BUDGET_BYTES {
                return Err(ElfError::MapTooLarge { map, bytes: charged });
            }
            maps.push(def);
        }
    }

    // Symbols: map symbol index -> map id (by value offset), plus program
    // name; also recover map names.
    let mut sym_to_map: std::collections::BTreeMap<u32, u32> = Default::default();
    let mut prog_name = String::from("xdp_prog");
    if let Some(si) = symtab_idx {
        let symtab_sec = &sections[si];
        let sym_strtab =
            sections.get(symtab_sec.link as usize).ok_or(ElfError::Malformed("symtab link"))?.data;
        let sym_name = |off: u32| -> String {
            let start = off as usize;
            let end = sym_strtab[start.min(sym_strtab.len())..]
                .iter()
                .position(|&c| c == 0)
                .map_or(sym_strtab.len(), |p| start + p);
            String::from_utf8_lossy(&sym_strtab[start.min(end)..end]).into_owned()
        };
        for (idx, sym) in symtab_sec.data.chunks_exact(24).enumerate() {
            let name_off = u32::from_le_bytes(sym[0..4].try_into().expect("4 bytes"));
            let info = sym[4];
            let shndx = u16::from_le_bytes(sym[6..8].try_into().expect("2 bytes")) as usize;
            let value = u64::from_le_bytes(sym[8..16].try_into().expect("8 bytes"));
            if Some(shndx) == maps_idx && info & 0x0f == 1 {
                let map_id = (value as usize / MAP_DEF_SIZE) as u32;
                sym_to_map.insert(idx as u32, map_id);
                if let Some(def) = maps.get_mut(map_id as usize) {
                    def.name = sym_name(name_off);
                }
            }
            if shndx == prog_idx && info & 0x0f == 2 {
                prog_name = sym_name(name_off);
            }
        }
    }

    // Bytecode with relocations applied.
    let prog_data = sections[prog_idx].data;
    if prog_data.len() % 8 != 0 {
        return Err(ElfError::Malformed("program section size"));
    }
    let mut insns: Vec<crate::Insn> = prog_data
        .chunks_exact(8)
        .map(|c| crate::Insn::from_bytes(c.try_into().expect("8 bytes")))
        .collect();
    for rel_sec in sections.iter().filter(|s| s.sh_type == 9 && s.info as usize == prog_idx) {
        for rel in rel_sec.data.chunks_exact(16) {
            let offset = u64::from_le_bytes(rel[0..8].try_into().expect("8 bytes"));
            let r_info = u64::from_le_bytes(rel[8..16].try_into().expect("8 bytes"));
            let sym = (r_info >> 32) as u32;
            let rtype = (r_info & 0xffff_ffff) as u32;
            if rtype != R_BPF_64_64 {
                continue;
            }
            let slot = (offset / 8) as usize;
            let map_id = *sym_to_map.get(&sym).ok_or(ElfError::BadRelocation { offset })?;
            let insn = insns.get_mut(slot).ok_or(ElfError::BadRelocation { offset })?;
            if !insn.is_ld_imm64() {
                return Err(ElfError::BadRelocation { offset });
            }
            insn.src = crate::opcode::PSEUDO_MAP_FD;
            insn.imm = map_id as i32;
        }
    }

    Ok(Program::new(&prog_name, insns, maps))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::opcode::AluOp;

    fn sample() -> Program {
        let mut a = Asm::new();
        let miss = a.new_label();
        a.mov64_imm(2, 0);
        a.store_reg(crate::opcode::MemSize::W, 10, -4, 2);
        a.ld_map_fd(1, 0);
        a.mov64_reg(2, 10);
        a.alu64_imm(AluOp::Add, 2, -4);
        a.call(1);
        a.jmp_imm(crate::opcode::JmpOp::Jeq, 0, 0, miss);
        a.mov64_imm(2, 1);
        a.atomic_add64(0, 0, 2);
        a.bind(miss);
        a.ld_map_fd(3, 1);
        a.mov64_imm(0, 2);
        a.exit();
        Program::new(
            "xdp_sample",
            a.into_insns(),
            vec![
                MapDef::new(0, "stats", MapKind::Array, 4, 8, 16),
                MapDef::new(1, "flows", MapKind::Hash, 13, 8, 1024),
            ],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample();
        let object = write(&p);
        let q = load(&object).unwrap();
        assert_eq!(q.insns, p.insns);
        assert_eq!(q.name, p.name);
        assert_eq!(q.maps.len(), 2);
        assert_eq!(q.maps[0].name, "stats");
        assert_eq!(q.maps[0].kind, MapKind::Array);
        assert_eq!(q.maps[1].name, "flows");
        assert_eq!(q.maps[1].kind, MapKind::Hash);
        assert_eq!(q.maps[1].key_size, 13);
        assert_eq!(q.maps[1].max_entries, 1024);
    }

    #[test]
    fn object_is_well_formed_elf() {
        let object = write(&sample());
        assert_eq!(&object[..4], &[0x7f, b'E', b'L', b'F']);
        assert_eq!(u16le(&object, 18).unwrap(), EM_BPF);
        // The on-disk bytecode has map ids blanked (restored only via
        // relocations) — like real clang output.
        let loaded_without_relocs = {
            let mut bytes = object.clone();
            // Zero the relocation section size in its header: find .relxdp
            // header (section 5) and clear sh_size.
            let shoff = u64le(&bytes, 40).unwrap() as usize;
            let rel_hdr = shoff + 5 * 64;
            bytes[rel_hdr + 32..rel_hdr + 40].copy_from_slice(&0u64.to_le_bytes());
            load(&bytes).unwrap()
        };
        let d = loaded_without_relocs.decode().unwrap();
        let unresolved = d
            .iter()
            .filter(|x| {
                matches!(x.insn, crate::insn::Instruction::LoadImm64 { map: None, imm: 0, .. })
            })
            .count();
        assert_eq!(unresolved, 2, "map refs are relocations, not immediates");
    }

    #[test]
    fn loader_rejects_garbage() {
        assert!(matches!(load(b"hello"), Err(ElfError::NotBpfElf(_))));
        let mut object = write(&sample());
        object[18] = 0x3e; // EM_X86_64
        assert!(matches!(load(&object), Err(ElfError::NotBpfElf(_))));
    }

    /// An object declaring `defs` beside a program that uses none of them.
    fn object_with(defs: Vec<MapDef>) -> Vec<u8> {
        let mut a = Asm::new();
        a.mov64_imm(0, 2);
        a.exit();
        write(&Program::new("xdp_maps", a.into_insns(), defs))
    }

    #[test]
    fn map_definitions_are_charged_what_they_cost() {
        let array = |id, n| MapDef::new(id, "a", MapKind::Array, 4, 4, n);
        // 4M 4-byte slots and values: 32 MiB charged, 32 MiB held.
        let one = load(&object_with(vec![array(0, 4 << 20)])).unwrap();
        assert_eq!(one.maps[0].storage_bytes(), 32 << 20);
        assert_eq!(crate::vm::Vm::new(&one).maps().get(0).unwrap().len(), 4 << 20);
        // The budget covers the object, not each map: the third crosses it.
        let three = object_with(vec![array(0, 4 << 20), array(1, 4 << 20), array(2, 4 << 20)]);
        assert_eq!(load(&three).err(), Some(ElfError::MapTooLarge { map: 2, bytes: 96 << 20 }));
        let huge = MapDef::new(0, "h", MapKind::Hash, 13, 16, 4_000_000_000);
        assert!(matches!(
            load(&object_with(vec![huge])),
            Err(ElfError::MapTooLarge { map: 0, .. })
        ));
    }

    #[test]
    fn ill_shaped_map_definitions_are_refused() {
        let ok = MapDef::new(0, "ok", MapKind::Array, 4, 8, 4);
        let refused = |map: MapDef| load(&object_with(vec![ok.clone(), map])).err();
        // Once charged as 0 bytes, then asked `MapStore::new` for 224 GB.
        let empty = MapDef::new(1, "z", MapKind::Array, 0, 0, 4_000_000_000);
        assert_eq!(refused(empty), Some(ElfError::BadMapShape { map: 1, why: "key_size is 0" }));
        for (kind, key_size, value_size, why) in [
            (MapKind::Hash, 0, 8, "key_size is 0"),
            (MapKind::LruHash, 8, 0, "value_size is 0"),
            (MapKind::Array, 8, 8, "array key_size is not 4"),
            (MapKind::PerCpuArray, 2, 8, "array key_size is not 4"),
            (MapKind::LpmTrie, 4, 8, "lpm_trie key_size is under 5"),
        ] {
            let map = MapDef::new(1, "bad", kind, key_size, value_size, 16);
            assert_eq!(refused(map), Some(ElfError::BadMapShape { map: 1, why }));
        }
        let lpm = MapDef::new(1, "lpm", MapKind::LpmTrie, 5, 8, 16);
        assert_eq!(refused(lpm), None);
    }

    #[test]
    fn loaded_program_verifies_and_runs() {
        use crate::vm::{Vm, XdpAction};
        let object = write(&sample());
        let program = load(&object).unwrap();
        crate::verifier::verify(&program).unwrap();
        let out = Vm::new(&program).run(&mut vec![0; 64], 0).unwrap();
        assert_eq!(out.action, XdpAction::Pass);
    }
}
