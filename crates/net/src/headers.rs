//! Typed protocol headers with byte-level encode/decode.

use crate::{ETH_HLEN, IPV4_HLEN, TCP_HLEN, UDP_HLEN};

/// Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EthHeader {
    /// Destination MAC.
    pub dst: [u8; 6],
    /// Source MAC.
    pub src: [u8; 6],
    /// EtherType (host order; encoded big-endian).
    pub ethertype: u16,
}

impl EthHeader {
    /// Serialize to wire format.
    pub fn to_bytes(&self) -> [u8; ETH_HLEN] {
        let mut b = [0u8; ETH_HLEN];
        b[..6].copy_from_slice(&self.dst);
        b[6..12].copy_from_slice(&self.src);
        b[12..14].copy_from_slice(&self.ethertype.to_be_bytes());
        b
    }

    /// Parse from the start of `bytes`, if long enough.
    pub fn parse(bytes: &[u8]) -> Option<EthHeader> {
        if bytes.len() < ETH_HLEN {
            return None;
        }
        Some(EthHeader {
            dst: bytes[..6].try_into().expect("6 bytes"),
            src: bytes[6..12].try_into().expect("6 bytes"),
            ethertype: u16::from_be_bytes([bytes[12], bytes[13]]),
        })
    }
}

/// IPv4 header (options unsupported; IHL is always 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Ipv4Header {
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
    /// L4 protocol.
    pub proto: u8,
    /// Time to live.
    pub ttl: u8,
    /// Total length including header.
    pub tot_len: u16,
    /// Header checksum (filled by the builder).
    pub checksum: u16,
}

impl Ipv4Header {
    /// Serialize to wire format (checksum field as stored).
    pub fn to_bytes(&self) -> [u8; IPV4_HLEN] {
        let mut b = [0u8; IPV4_HLEN];
        b[0] = 0x45;
        b[2..4].copy_from_slice(&self.tot_len.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.proto;
        b[10..12].copy_from_slice(&self.checksum.to_be_bytes());
        b[12..16].copy_from_slice(&self.src);
        b[16..20].copy_from_slice(&self.dst);
        b
    }

    /// Parse from the start of `bytes`, if long enough and version 4.
    pub fn parse(bytes: &[u8]) -> Option<Ipv4Header> {
        if bytes.len() < IPV4_HLEN || bytes[0] >> 4 != 4 {
            return None;
        }
        Some(Ipv4Header {
            src: bytes[12..16].try_into().expect("4 bytes"),
            dst: bytes[16..20].try_into().expect("4 bytes"),
            proto: bytes[9],
            ttl: bytes[8],
            tot_len: u16::from_be_bytes([bytes[2], bytes[3]]),
            checksum: u16::from_be_bytes([bytes[10], bytes[11]]),
        })
    }
}

/// UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UdpHeader {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Length including header.
    pub len: u16,
    /// Checksum (0 = unset; legal for IPv4).
    pub checksum: u16,
}

impl UdpHeader {
    /// Serialize to wire format.
    pub fn to_bytes(&self) -> [u8; UDP_HLEN] {
        let mut b = [0u8; UDP_HLEN];
        b[0..2].copy_from_slice(&self.sport.to_be_bytes());
        b[2..4].copy_from_slice(&self.dport.to_be_bytes());
        b[4..6].copy_from_slice(&self.len.to_be_bytes());
        b[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        b
    }

    /// Parse from the start of `bytes`, if long enough.
    pub fn parse(bytes: &[u8]) -> Option<UdpHeader> {
        if bytes.len() < UDP_HLEN {
            return None;
        }
        Some(UdpHeader {
            sport: u16::from_be_bytes([bytes[0], bytes[1]]),
            dport: u16::from_be_bytes([bytes[2], bytes[3]]),
            len: u16::from_be_bytes([bytes[4], bytes[5]]),
            checksum: u16::from_be_bytes([bytes[6], bytes[7]]),
        })
    }
}

/// TCP header (no options; data offset always 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpHeader {
    /// Source port.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags byte (`SYN` = 0x02, `ACK` = 0x10, `FIN` = 0x01, `RST` = 0x04).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
}

/// TCP `SYN` flag.
pub const TCP_SYN: u8 = 0x02;
/// TCP `ACK` flag.
pub const TCP_ACK: u8 = 0x10;
/// TCP `FIN` flag.
pub const TCP_FIN: u8 = 0x01;
/// TCP `RST` flag.
pub const TCP_RST: u8 = 0x04;

impl TcpHeader {
    /// Serialize to wire format.
    pub fn to_bytes(&self) -> [u8; TCP_HLEN] {
        let mut b = [0u8; TCP_HLEN];
        b[0..2].copy_from_slice(&self.sport.to_be_bytes());
        b[2..4].copy_from_slice(&self.dport.to_be_bytes());
        b[4..8].copy_from_slice(&self.seq.to_be_bytes());
        b[8..12].copy_from_slice(&self.ack.to_be_bytes());
        b[12] = 5 << 4;
        b[13] = self.flags;
        b[14..16].copy_from_slice(&self.window.to_be_bytes());
        b
    }

    /// Parse from the start of `bytes`, if long enough.
    pub fn parse(bytes: &[u8]) -> Option<TcpHeader> {
        if bytes.len() < TCP_HLEN {
            return None;
        }
        Some(TcpHeader {
            sport: u16::from_be_bytes([bytes[0], bytes[1]]),
            dport: u16::from_be_bytes([bytes[2], bytes[3]]),
            seq: u32::from_be_bytes(bytes[4..8].try_into().expect("4 bytes")),
            ack: u32::from_be_bytes(bytes[8..12].try_into().expect("4 bytes")),
            flags: bytes[13],
            window: u16::from_be_bytes([bytes[14], bytes[15]]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eth_roundtrip() {
        let h = EthHeader { dst: [1; 6], src: [2; 6], ethertype: 0x0800 };
        assert_eq!(EthHeader::parse(&h.to_bytes()), Some(h));
        assert_eq!(EthHeader::parse(&[0; 5]), None);
    }

    #[test]
    fn ipv4_roundtrip() {
        let h = Ipv4Header {
            src: [10, 0, 0, 1],
            dst: [10, 0, 0, 2],
            proto: 17,
            ttl: 63,
            tot_len: 100,
            checksum: 0xabcd,
        };
        assert_eq!(Ipv4Header::parse(&h.to_bytes()), Some(h));
    }

    #[test]
    fn ipv4_rejects_v6() {
        let mut b = [0u8; 20];
        b[0] = 0x60;
        assert_eq!(Ipv4Header::parse(&b), None);
    }

    #[test]
    fn udp_roundtrip() {
        let h = UdpHeader { sport: 53, dport: 5353, len: 20, checksum: 1 };
        assert_eq!(UdpHeader::parse(&h.to_bytes()), Some(h));
    }

    #[test]
    fn tcp_roundtrip() {
        let h = TcpHeader {
            sport: 80,
            dport: 4000,
            seq: 7,
            ack: 9,
            flags: TCP_SYN | TCP_ACK,
            window: 512,
        };
        assert_eq!(TcpHeader::parse(&h.to_bytes()), Some(h));
    }
}
