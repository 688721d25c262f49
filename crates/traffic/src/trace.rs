//! Synthetic trace generation calibrated to the paper's real traces.
//!
//! §5.3 replays two captures at 100 Gbps against a Leaky Bucket pipeline:
//!
//! * CAIDA `caida_20190117-134900`: average packet size 411 B, 184 305 flows;
//! * MAWI  `mawi_202103221400`:     average packet size 573 B, 163 697 flows.
//!
//! Neither capture is redistributable, so [`caida_like`] and [`mawi_like`]
//! synthesize traces matching those published statistics: same flow count,
//! same mean packet size, heavy-tailed (Zipf α = 1) flow popularity — the
//! properties Table 2's flush behaviour depends on.

use crate::{build_flow_packet, FlowSampler, FlowSet, Popularity};
use ehdl_net::FiveTuple;
use ehdl_rng::Rng;

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of packets.
    pub packets: usize,
    /// Number of distinct 5-tuple flows observed.
    pub flows: usize,
    /// Mean packet size in bytes.
    pub avg_size: f64,
}

/// A replayable packet trace (sizes + flows; bytes built lazily).
#[derive(Debug, Clone)]
pub struct Trace {
    /// Human-readable name.
    pub name: String,
    entries: Vec<(u32, u16)>, // (flow index, size)
    flows: FlowSet,
}

impl Trace {
    /// Number of packets in the trace.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the trace contains no packets.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The flow population.
    pub fn flow_set(&self) -> &FlowSet {
        &self.flows
    }

    /// Iterate `(flow, size)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FiveTuple, usize)> + '_ {
        self.entries.iter().map(|&(fi, sz)| (self.flows.flows()[fi as usize], sz as usize))
    }

    /// Materialize packet `i`'s bytes.
    pub fn packet(&self, i: usize) -> Vec<u8> {
        let (fi, sz) = self.entries[i];
        build_flow_packet(
            &self.flows.flows()[fi as usize],
            [0x02, 0, 0, 0, 0, 0x01],
            [0x02, 0, 0, 0, 0, 0x02],
            sz as usize,
        )
    }

    /// Compute summary statistics.
    pub fn stats(&self) -> TraceStats {
        let mut seen = vec![false; self.flows.len()];
        let mut total = 0u64;
        for &(fi, sz) in &self.entries {
            seen[fi as usize] = true;
            total += u64::from(sz);
        }
        TraceStats {
            packets: self.entries.len(),
            flows: seen.iter().filter(|s| **s).count(),
            avg_size: total as f64 / self.entries.len().max(1) as f64,
        }
    }
}

/// Parameters for synthesizing a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Distinct flows in the population.
    pub flows: usize,
    /// Packets to generate.
    pub packets: usize,
    /// Target mean packet size in bytes.
    pub avg_size: f64,
    /// Flow popularity skew.
    pub alpha: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Synthesize a trace matching `spec`.
///
/// Packet sizes follow the classic bimodal internet mix — a cluster of
/// small (64–128 B) packets and a cluster of MTU-sized packets — with the
/// mixture weight solved to hit `avg_size` exactly in expectation.
pub fn synthesize(name: &str, spec: TraceSpec) -> Trace {
    let flows = FlowSet::udp(spec.flows, spec.seed);
    let mut sampler =
        FlowSampler::new(spec.flows, Popularity::Zipf { alpha: spec.alpha }, spec.seed ^ 0x5eed);
    let mut rng = Rng::seed_from_u64(spec.seed ^ 0x7ace);

    // Small packets uniform in [64,128] (mean 96), large uniform in
    // [1200,1500] (mean 1350). Solve p·96 + (1-p)·1350 = avg.
    let p_small = ((1350.0 - spec.avg_size) / (1350.0 - 96.0)).clamp(0.0, 1.0);

    let entries = (0..spec.packets)
        .map(|_| {
            let fi = sampler.sample() as u32;
            let sz = if rng.gen_f64() < p_small {
                rng.gen_range_u64(64, 128)
            } else {
                rng.gen_range_u64(1200, 1500)
            };
            (fi, sz as u16)
        })
        .collect();
    Trace { name: name.to_string(), entries, flows }
}

/// A CAIDA-like trace (411 B average, 184 305 flows), scaled to `packets`.
pub fn caida_like(packets: usize, seed: u64) -> Trace {
    synthesize(
        "caida_20190117-134900 (synthetic)",
        TraceSpec { flows: 184_305, packets, avg_size: 411.0, alpha: 1.0, seed },
    )
}

/// A MAWI-like trace (573 B average, 163 697 flows), scaled to `packets`.
pub fn mawi_like(packets: usize, seed: u64) -> Trace {
    synthesize(
        "mawi_202103221400 (synthetic)",
        TraceSpec { flows: 163_697, packets, avg_size: 573.0, alpha: 1.0, seed },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_stats_match_spec() {
        let t = synthesize(
            "t",
            TraceSpec { flows: 5000, packets: 50_000, avg_size: 411.0, alpha: 1.0, seed: 9 },
        );
        let s = t.stats();
        assert_eq!(s.packets, 50_000);
        assert!((s.avg_size - 411.0).abs() < 30.0, "avg size {} far from 411", s.avg_size);
        // Zipf over 5000 flows with 50k packets touches most of the head.
        assert!(s.flows > 2000);
    }

    #[test]
    fn trace_packets_materialize() {
        let t = synthesize(
            "t",
            TraceSpec { flows: 100, packets: 200, avg_size: 300.0, alpha: 1.0, seed: 4 },
        );
        for i in 0..10 {
            let p = t.packet(i);
            assert!(p.len() >= 64);
            assert!(FiveTuple::parse(&p).is_some());
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = synthesize(
            "a",
            TraceSpec { flows: 50, packets: 100, avg_size: 500.0, alpha: 1.0, seed: 2 },
        );
        let b = synthesize(
            "b",
            TraceSpec { flows: 50, packets: 100, avg_size: 500.0, alpha: 1.0, seed: 2 },
        );
        assert_eq!(a.entries, b.entries);
    }

    #[test]
    fn iter_matches_entries() {
        let t = synthesize(
            "t",
            TraceSpec { flows: 10, packets: 20, avg_size: 200.0, alpha: 1.0, seed: 3 },
        );
        assert_eq!(t.iter().count(), 20);
        for (ft, sz) in t.iter() {
            assert!(sz >= 64);
            assert_eq!(ft.proto, ehdl_net::IPPROTO_UDP);
        }
    }
}

/// Binary serialization of traces (a tiny self-describing format, so
/// synthesized workloads can be persisted and replayed across runs without
/// pulling in a serialization framework).
///
/// Layout: magic `EHDLTRC1`, name (u16 length + UTF-8), flow table
/// (u32 count × 13-byte 5-tuples), entries (u32 count × (u32 flow index,
/// u16 size)).
impl Trace {
    /// Serialize to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.flows.len() * 13 + self.entries.len() * 6);
        out.extend_from_slice(b"EHDLTRC1");
        let name = self.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(self.flows.len() as u32).to_le_bytes());
        for f in self.flows.flows() {
            out.extend_from_slice(&f.to_key());
        }
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for &(fi, sz) in &self.entries {
            out.extend_from_slice(&fi.to_le_bytes());
            out.extend_from_slice(&sz.to_le_bytes());
        }
        out
    }

    /// Deserialize from bytes produced by [`Trace::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, String> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            let s = bytes.get(*pos..*pos + n).ok_or("truncated trace file")?;
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 8)? != b"EHDLTRC1" {
            return Err("bad magic".into());
        }
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| "name is not UTF-8".to_string())?;
        let n_flows = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let mut flows = Vec::with_capacity(n_flows);
        for _ in 0..n_flows {
            let k = take(&mut pos, 13)?;
            flows.push(FiveTuple {
                saddr: k[0..4].try_into().expect("4 bytes"),
                daddr: k[4..8].try_into().expect("4 bytes"),
                sport: u16::from_be_bytes([k[8], k[9]]),
                dport: u16::from_be_bytes([k[10], k[11]]),
                proto: k[12],
            });
        }
        let n_entries =
            u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let e = take(&mut pos, 6)?;
            let fi = u32::from_le_bytes(e[0..4].try_into().expect("4 bytes"));
            let sz = u16::from_le_bytes([e[4], e[5]]);
            if fi as usize >= n_flows {
                return Err(format!("entry references flow {fi} of {n_flows}"));
            }
            entries.push((fi, sz));
        }
        if pos != bytes.len() {
            return Err("trailing bytes after trace".into());
        }
        Ok(Trace { name, entries, flows: FlowSet::from_flows(flows) })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod serde_tests {
    use super::*;

    #[test]
    fn trace_roundtrips_through_bytes() {
        let t = synthesize(
            "roundtrip",
            TraceSpec { flows: 200, packets: 500, avg_size: 411.0, alpha: 1.0, seed: 12 },
        );
        let bytes = t.to_bytes();
        let u = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(u.name, "roundtrip");
        assert_eq!(u.len(), t.len());
        assert_eq!(u.stats(), t.stats());
        for (a, b) in t.iter().zip(u.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn malformed_traces_rejected() {
        assert!(Trace::from_bytes(b"NOPE").is_err());
        let t = synthesize(
            "x",
            TraceSpec { flows: 10, packets: 10, avg_size: 200.0, alpha: 1.0, seed: 1 },
        );
        let mut bytes = t.to_bytes();
        bytes.truncate(bytes.len() - 3);
        assert!(Trace::from_bytes(&bytes).is_err());
        let mut bytes = t.to_bytes();
        bytes.push(0);
        assert_eq!(Trace::from_bytes(&bytes).err(), Some("trailing bytes after trace".to_string()));
    }
}
