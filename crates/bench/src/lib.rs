//! The evaluation's measurements, each one a recording.
//!
//! [`paper`] measures the paper's own §5 figures and tables; the other
//! eight modules are campaigns beyond the paper. Each is rendered as a
//! `BENCH_*.json` at the repository root and checked for equality by one
//! test in `tests/recorded.rs` (see [`record`]). The helpers here — app
//! traffic, map setup, differential exemptions and the per-app thread
//! fan-out — are shared by those modules and the integration tests.

#![deny(clippy::unwrap_used)]

pub mod absint;
pub mod chaos;
pub mod fault_campaign;
pub mod flush_opt;
pub mod paper;
pub mod record;
pub mod runtime_ops;
pub mod scale_out;
pub mod shardcheck;
pub mod slo;

use ehdl_core::{Compiler, PipelineDesign};
use ehdl_hwsim::diff::AllocatedField;
use ehdl_net::{FiveTuple, IPPROTO_UDP};
use ehdl_programs::{dnat, App};
use ehdl_traffic::{FlowSet, Popularity, Workload};

/// Flows offered in the §5.1 end-to-end tests.
pub const EVAL_FLOWS: usize = 10_000;

/// Map `f` over `items` with one scoped thread per item.
///
/// The evaluation fan-out: apps (or traces) are fully independent — each
/// owns its compiler, simulator and map state — so every row of a figure
/// regenerates concurrently. Results come back in item order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items.iter().map(|it| scope.spawn(move || f(it))).collect();
        handles.into_iter().map(|h| h.join().expect("evaluation worker panicked")).collect()
    })
}

/// Compile one application with default options.
pub fn design_of(app: App) -> PipelineDesign {
    Compiler::new().compile(&app.program()).expect("evaluation app compiles")
}

/// Build the §5.1 traffic sample for an app: 10k flows, 64 B packets.
pub fn eval_packets(app: App, n: usize) -> Vec<Vec<u8>> {
    let flows = match app {
        App::Suricata => FlowSet::tcp(EVAL_FLOWS, 42),
        _ => FlowSet::udp(EVAL_FLOWS, 42),
    };
    let mut wl = Workload::new(flows, Popularity::Uniform, 64, 43);
    wl.packets(n)
}

/// Host-side map setup per app (routes, endpoints, ACLs).
pub fn setup_app(app: App, maps: &mut ehdl_ebpf::maps::MapStore) {
    match app {
        App::Router => {
            ehdl_programs::router::install_route(maps, [0, 0, 0, 0], 0, 1, [0xaa; 6], [0x02; 6]);
            ehdl_programs::router::install_route(
                maps,
                [192, 168, 0, 0],
                16,
                2,
                [0xbb; 6],
                [0x02; 6],
            );
        }
        App::Tunnel => {
            for i in 0..32u8 {
                ehdl_programs::tunnel::install_endpoint(
                    maps,
                    [192, 168, i, i],
                    [172, 16, 0, 1],
                    [172, 16, 0, 2],
                    [0xaa; 6],
                    [0xbb; 6],
                );
            }
        }
        App::Suricata => {
            let flows = FlowSet::tcp(EVAL_FLOWS, 42);
            for f in flows.flows().iter().take(64) {
                ehdl_programs::suricata::install_rule(maps, f);
            }
        }
        App::Firewall | App::Dnat => {}
    }
}

/// What an app's differential check exempts from exact comparison: the
/// maps whose final contents may legitimately drift, and the allocated
/// output field checked by its invariant instead. For DNAT a flush skips a
/// port the sequential reference hands out, so the allocator runs ahead
/// and the bindings store other ports; the translated source port must
/// instead be in range, stable per flow and distinct across flows.
pub fn exemptions(app: App) -> (Vec<u32>, Option<AllocatedField>) {
    if app != App::Dnat {
        return (Vec::new(), None);
    }
    let port = AllocatedField {
        bytes: 34..36,
        values: u64::from(dnat::PORT_BASE)..u64::from(dnat::PORT_BASE + dnat::PORT_RANGE),
        flow: |p| {
            let f = FiveTuple::parse(p).filter(|f| f.proto == IPPROTO_UDP)?;
            Some(f.to_key().to_vec())
        },
    };
    (vec![dnat::CONN_MAP, dnat::PORT_ALLOC_MAP], Some(port))
}
