//! eBPF helper functions: identifiers and per-helper metadata.
//!
//! Helpers are "a fixed set of pre-specified functions with a fixed interface"
//! (§2.2). eHDL implements each relevant helper as a dedicated hardware block
//! (§3.4.2); the metadata here records how the compiler must treat each one —
//! whether it touches a map, reads the stack, writes the packet, how many
//! pipeline stages its hardware block needs, and whether it is a CPU-only
//! helper that gets a stub.

use std::fmt;

/// `bpf_map_lookup_elem(map, key) -> value_ptr|NULL`.
pub const BPF_MAP_LOOKUP_ELEM: u32 = 1;
/// `bpf_map_update_elem(map, key, value, flags) -> 0|err`.
pub const BPF_MAP_UPDATE_ELEM: u32 = 2;
/// `bpf_map_delete_elem(map, key) -> 0|err`.
pub const BPF_MAP_DELETE_ELEM: u32 = 3;
/// `bpf_ktime_get_ns() -> u64`.
pub const BPF_KTIME_GET_NS: u32 = 5;
/// `bpf_get_prandom_u32() -> u32`.
pub const BPF_GET_PRANDOM_U32: u32 = 7;
/// `bpf_get_smp_processor_id() -> u32` (stubbed in hardware, §3.4.2 fn. 2).
pub const BPF_GET_SMP_PROCESSOR_ID: u32 = 8;
/// `bpf_csum_diff(from, from_size, to, to_size, seed) -> csum`.
pub const BPF_CSUM_DIFF: u32 = 28;
/// `bpf_redirect(ifindex, flags) -> XDP_REDIRECT`.
pub const BPF_REDIRECT: u32 = 23;
/// `bpf_xdp_adjust_head(ctx, delta) -> 0|err`.
pub const BPF_XDP_ADJUST_HEAD: u32 = 44;
/// `bpf_xdp_adjust_tail(ctx, delta) -> 0|err` (shrink/grow the packet end).
pub const BPF_XDP_ADJUST_TAIL: u32 = 65;
/// `bpf_fib_lookup(ctx, params, plen, flags) -> result` (not supported in HW).
pub const BPF_FIB_LOOKUP: u32 = 69;

/// How a helper interacts with program state; drives hardware block wiring
/// (Figure 5) and hazard analysis (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelperInfo {
    /// Helper identifier.
    pub id: u32,
    /// C-level name.
    pub name: &'static str,
    /// Reads a map (the block is an `eHDLmap` read port).
    pub reads_map: bool,
    /// Writes a map (an `eHDLmap` write port; RAW/WAR relevant).
    pub writes_map: bool,
    /// Reads memory through pointer arguments: a map helper's key (and
    /// value), `csum_diff`'s buffers. Usually stack bytes.
    pub reads_stack: bool,
    /// May rewrite the packet buffer (e.g. `xdp_adjust_head`).
    pub writes_packet: bool,
    /// Pipeline stages occupied by the generated hardware block.
    pub hw_stages: usize,
    /// CPU-only helper: hardware gets a constant stub (§3.4.2, footnote 2).
    pub hw_stub: bool,
    /// Approximate software cost in CPU cycles (used by baselines).
    pub sw_cycles: u64,
}

/// The registry of helpers this implementation knows about.
pub const HELPERS: &[HelperInfo] = &[
    HelperInfo {
        id: BPF_MAP_LOOKUP_ELEM,
        name: "bpf_map_lookup_elem",
        reads_map: true,
        writes_map: false,
        reads_stack: true,
        writes_packet: false,
        hw_stages: 1,
        hw_stub: false,
        sw_cycles: 35,
    },
    HelperInfo {
        id: BPF_MAP_UPDATE_ELEM,
        name: "bpf_map_update_elem",
        reads_map: true,
        writes_map: true,
        reads_stack: true,
        writes_packet: false,
        hw_stages: 1,
        hw_stub: false,
        sw_cycles: 60,
    },
    HelperInfo {
        id: BPF_MAP_DELETE_ELEM,
        name: "bpf_map_delete_elem",
        reads_map: true,
        writes_map: true,
        reads_stack: true,
        writes_packet: false,
        hw_stages: 1,
        hw_stub: false,
        sw_cycles: 55,
    },
    HelperInfo {
        id: BPF_KTIME_GET_NS,
        name: "bpf_ktime_get_ns",
        reads_map: false,
        writes_map: false,
        reads_stack: false,
        writes_packet: false,
        hw_stages: 1,
        hw_stub: false,
        sw_cycles: 20,
    },
    HelperInfo {
        id: BPF_GET_PRANDOM_U32,
        name: "bpf_get_prandom_u32",
        reads_map: false,
        writes_map: false,
        reads_stack: false,
        writes_packet: false,
        hw_stages: 1,
        hw_stub: false,
        sw_cycles: 15,
    },
    HelperInfo {
        id: BPF_GET_SMP_PROCESSOR_ID,
        name: "bpf_get_smp_processor_id",
        reads_map: false,
        writes_map: false,
        reads_stack: false,
        writes_packet: false,
        hw_stages: 1,
        hw_stub: true,
        sw_cycles: 5,
    },
    HelperInfo {
        id: BPF_CSUM_DIFF,
        name: "bpf_csum_diff",
        reads_map: false,
        writes_map: false,
        reads_stack: true,
        writes_packet: false,
        hw_stages: 2,
        hw_stub: false,
        sw_cycles: 40,
    },
    HelperInfo {
        id: BPF_REDIRECT,
        name: "bpf_redirect",
        reads_map: false,
        writes_map: false,
        reads_stack: false,
        writes_packet: false,
        hw_stages: 1,
        hw_stub: false,
        sw_cycles: 25,
    },
    HelperInfo {
        id: BPF_XDP_ADJUST_HEAD,
        name: "bpf_xdp_adjust_head",
        reads_map: false,
        writes_map: false,
        reads_stack: false,
        writes_packet: true,
        hw_stages: 2,
        hw_stub: false,
        sw_cycles: 30,
    },
    HelperInfo {
        id: BPF_XDP_ADJUST_TAIL,
        name: "bpf_xdp_adjust_tail",
        reads_map: false,
        writes_map: false,
        reads_stack: false,
        writes_packet: true,
        hw_stages: 1,
        hw_stub: false,
        sw_cycles: 25,
    },
];

/// Look up helper metadata by id.
pub fn helper_info(id: u32) -> Option<&'static HelperInfo> {
    HELPERS.iter().find(|h| h.id == id)
}

/// Printable helper name (`call 1` → `bpf_map_lookup_elem`).
pub fn helper_name(id: u32) -> HelperName {
    HelperName(id)
}

/// Display adapter returned by [`helper_name`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelperName(u32);

impl crate::put::Piece for HelperName {
    fn put(self, o: &mut String) {
        match helper_info(self.0) {
            Some(h) => o.push_str(h.name),
            None => crate::put!(o, "helper_", self.0),
        }
    }
}

impl fmt::Display for HelperName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::put::fmt(*self, f)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        for (i, a) in HELPERS.iter().enumerate() {
            for b in &HELPERS[i + 1..] {
                assert_ne!(a.id, b.id, "duplicate helper id {}", a.id);
            }
        }
    }

    #[test]
    fn map_helpers_touch_maps() {
        assert!(helper_info(BPF_MAP_LOOKUP_ELEM).unwrap().reads_map);
        assert!(helper_info(BPF_MAP_UPDATE_ELEM).unwrap().writes_map);
        assert!(!helper_info(BPF_KTIME_GET_NS).unwrap().reads_map);
    }

    #[test]
    fn cpu_only_helpers_are_stubbed() {
        assert!(helper_info(BPF_GET_SMP_PROCESSOR_ID).unwrap().hw_stub);
    }

    #[test]
    fn names_render() {
        assert_eq!(helper_name(1).to_string(), "bpf_map_lookup_elem");
        assert_eq!(helper_name(999).to_string(), "helper_999");
    }
}
