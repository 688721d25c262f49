//! Malformed-frame hardening: runts, truncated headers, oversized frames
//! and deterministic garbage must never panic either engine, and the
//! pipeline must keep matching the reference VM on every frame the
//! ingress accepts.

#![allow(clippy::unwrap_used)]

use ehdl_core::Compiler;
use ehdl_ebpf::Program;
use ehdl_hwsim::diff::{check, Scenario};
use ehdl_hwsim::{PipelineSim, SimError, SimOptions};
use ehdl_net::{PacketBuilder, IPPROTO_TCP, IPPROTO_UDP, MAX_FRAME};
use ehdl_programs::{router, simple_firewall, suricata};
use ehdl_rng::Rng;

/// A deterministic zoo of hostile frames, all within the datapath's
/// maximum length: runts down to the empty frame, truncated L3/L4,
/// lying length fields, wrong ethertypes and seeded garbage.
fn adversarial_frames() -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = Vec::new();

    // Runts: every length shorter than an Ethernet header, plus the
    // empty frame, plus each length cutting through the IPv4 header.
    for len in 0..=(14 + 20) {
        frames.push(
            PacketBuilder::new()
                .eth([2; 6], [3; 6])
                .ipv4([10, 0, 0, 1], [10, 0, 0, 2], IPPROTO_UDP)
                .udp(4000, 53)
                .exact_len(len)
                .build(),
        );
    }
    // Truncated L4: Ethernet + IPv4 intact, TCP/UDP header cut short.
    for cut in [35, 38, 41, 47, 53] {
        frames.push(
            PacketBuilder::new()
                .eth([2; 6], [3; 6])
                .ipv4([192, 168, 0, 1], [192, 168, 0, 2], IPPROTO_TCP)
                .tcp(1234, 80, 0x02)
                .exact_len(cut)
                .build(),
        );
    }
    // Lying IPv4 total-length: claims far more payload than the frame
    // carries (and, next, far less).
    for tot_len in [0u16, 9, 1500, 0xffff] {
        let mut p = PacketBuilder::new()
            .eth([2; 6], [3; 6])
            .ipv4([10, 1, 0, 1], [10, 1, 0, 2], IPPROTO_UDP)
            .udp(1, 2)
            .build();
        p[16..18].copy_from_slice(&tot_len.to_be_bytes());
        frames.push(p);
    }
    // Non-IP and half-parsed ethertypes.
    frames.push(PacketBuilder::new().eth([2; 6], [3; 6]).ipv6([1; 16], [2; 16], 17).build());
    let mut arp = vec![0u8; 60];
    arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
    frames.push(arp);
    // Largest accepted frame, exactly at the limit.
    frames.push(
        PacketBuilder::new()
            .eth([2; 6], [3; 6])
            .ipv4([10, 2, 0, 1], [10, 2, 0, 2], IPPROTO_UDP)
            .udp(9, 9)
            .exact_len(MAX_FRAME)
            .build(),
    );
    // Seeded garbage at assorted lengths — bytes with no protocol
    // structure at all.
    let mut rng = Rng::seed_from_u64(0xadff_5a71);
    for len in [1usize, 13, 14, 15, 33, 64, 65, 200, 512, 1514] {
        let mut p = vec![0u8; len];
        rng.fill_bytes(&mut p);
        frames.push(p);
    }
    frames
}

fn check_program(program: &Program) {
    let design = Compiler::new().compile(program).unwrap();
    let frames = adversarial_frames();
    check(&Scenario::new(program, &design, &frames)).assert_clean();
}

#[test]
fn firewall_survives_adversarial_frames() {
    check_program(&simple_firewall::program());
}

#[test]
fn suricata_survives_adversarial_frames() {
    check_program(&suricata::program());
}

#[test]
fn router_survives_adversarial_frames() {
    check_program(&router::program());
}

#[test]
fn oversized_frames_dropped_at_ingress() {
    let design = Compiler::new().compile(&simple_firewall::program()).unwrap();
    let mut sim = PipelineSim::with_options(&design, SimOptions::default());
    let max = design.framing.max_packet_len;

    // One byte over the datapath maximum: refused with a typed error,
    // counted as an RX drop, and never assigned a sequence number.
    let oversized = vec![0u8; max + 1];
    assert_eq!(
        sim.try_enqueue(oversized.clone()),
        Err(SimError::FrameTooLarge { len: max + 1, max })
    );
    assert!(!sim.enqueue(vec![0u8; max * 2]));
    assert_eq!(sim.counters().rx_dropped, 2);

    // A frame exactly at the limit still flows through normally.
    assert_eq!(sim.try_enqueue(vec![0u8; max]), Ok(()));
    sim.settle(1_000_000);
    let outs = sim.drain();
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].seq, 0, "dropped frames must not consume sequence numbers");
}

#[test]
fn queue_overflow_reports_typed_error() {
    let design = Compiler::new().compile(&simple_firewall::program()).unwrap();
    let mut sim =
        PipelineSim::with_options(&design, SimOptions { rx_queue_depth: 2, ..Default::default() });
    assert_eq!(sim.try_enqueue(vec![0u8; 64]), Ok(()));
    assert_eq!(sim.try_enqueue(vec![0u8; 64]), Ok(()));
    assert_eq!(sim.try_enqueue(vec![0u8; 64]), Err(SimError::QueueFull { depth: 2 }));
    assert_eq!(sim.counters().rx_dropped, 1);
}
