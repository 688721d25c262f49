//! The NAT invariant, checked wherever DNAT runs on the pipeline.
//!
//! A flush discards a first attempt's fetch-and-add on the port allocator
//! without replaying it, and replicas race for the allocator, so absolute
//! port numbers legitimately differ from the sequential VM's. What must
//! hold: a flow keeps one port, no port serves two flows, the port is in
//! the dynamic range, the source address is the NAT address, the IPv4
//! checksum is valid, and every other byte is untouched.

use ehdl_ebpf::vm::XdpAction;
use ehdl_hwsim::SimOutcome;
use ehdl_programs::dnat;
use std::collections::HashMap;

/// Byte range of the UDP source port, the one field whose value the
/// pipeline may choose differently from the VM.
pub const SPORT: std::ops::Range<usize> = 34..36;

/// Flow-to-port bindings seen so far.
#[derive(Debug, Default)]
pub struct NatInvariant {
    port_of: HashMap<[u8; 13], u16>,
    flow_of: HashMap<u16, [u8; 13]>,
}

/// Ones-complement sum of the IPv4 header (valid headers sum to 0xffff).
fn ipv4_header_sum(pkt: &[u8]) -> u32 {
    let mut sum: u32 =
        pkt[14..34].chunks_exact(2).map(|w| u32::from(u16::from_be_bytes([w[0], w[1]]))).sum();
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum
}

impl NatInvariant {
    /// Check the translation of `sent` (a 64-byte UDP packet) into `out`.
    ///
    /// # Errors
    ///
    /// Which part of the invariant the translation breaks.
    pub fn admit(&mut self, sent: &[u8], out: &SimOutcome) -> Result<(), String> {
        let got = &out.packet;
        if out.action != XdpAction::Tx || got.len() != sent.len() || got.len() < 42 {
            return Err(format!(
                "verdict {} with {} bytes for {} sent",
                out.action,
                got.len(),
                sent.len()
            ));
        }
        let intact = got[..24] == sent[..24]
            && got[30..34] == sent[30..34]
            && got[36..40] == sent[36..40]
            && got[42..] == sent[42..];
        let port = u16::from_be_bytes([got[34], got[35]]);
        let range =
            u32::from(dnat::PORT_BASE)..u32::from(dnat::PORT_BASE) + u32::from(dnat::PORT_RANGE);
        let translated = got[26..30] == dnat::NAT_ADDR
            && range.contains(&u32::from(port))
            && got[40..42] == [0, 0]
            && ipv4_header_sum(got) == 0xffff;
        // The 13 bytes the program keys on: addresses, ports, protocol.
        let mut flow = [0u8; 13];
        flow[..12].copy_from_slice(&sent[26..38]);
        flow[12] = sent[23];
        let stable = *self.port_of.entry(flow).or_insert(port) == port;
        let exclusive = *self.flow_of.entry(port).or_insert(flow) == flow;
        if intact && translated && stable && exclusive {
            Ok(())
        } else {
            Err(format!(
                "port {port}: other bytes intact {intact}, translated {translated}, stable per flow {stable}, exclusive {exclusive}"
            ))
        }
    }
}
