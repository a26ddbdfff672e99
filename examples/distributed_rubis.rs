//! The paper's §7 distributed future work, end to end: deploy the
//! three-tier RUBiS service either consolidated on one 4-core machine or
//! distributed across a three-machine cluster (web / application /
//! database tiers on dedicated boxes over a modeled LAN), and decompose
//! each request's behavior per tier — the "local and inter-machine
//! variations" the paper anticipates.
//!
//! ```text
//! cargo run --release --example distributed_rubis
//! ```

use rbv_cluster::{run_cluster, ClusterReport, ClusterSpec, ClusterTopology};
use request_behavior_variations::par::Pool;
use request_behavior_variations::telemetry::QuantileSketch;
use request_behavior_variations::workloads::AppId;

fn report(label: &str, r: &ClusterReport) {
    let q = |s: &QuantileSketch, p: f64| s.quantile(p).unwrap_or(f64::NAN);
    let s = &r.summary;
    println!(
        "{label:24} requests {:4} | latency p50 {:.0} µs, p99 {:.0} µs | {} network hops",
        s.completed,
        q(&s.client_visible_us, 0.5),
        q(&s.client_visible_us, 0.99),
        s.hops,
    );
    for tier in &s.tiers {
        println!(
            "  {:12} {:5} legs | leg p50 {:7.0} µs, p99 {:7.0} µs | CPI p50 {:.2}, p99 {:.2}",
            tier.tier,
            tier.legs,
            q(&tier.leg_us, 0.5),
            q(&tier.leg_us, 0.99),
            q(&tier.cpi, 0.5),
            q(&tier.cpi, 0.99),
        );
    }
}

fn main() {
    let pool = Pool::serial();
    let mut spec = ClusterSpec::three_tier(AppId::Rubis);
    spec.seed = 7;

    // --- Consolidated: all three tiers share one 4-core box.
    spec.topology = ClusterTopology::Single;
    let consolidated = run_cluster(&spec, &pool).expect("valid spec");
    report("consolidated (1 box)", &consolidated);
    println!();

    // --- Distributed: one machine per tier, LAN hops between them.
    spec.topology = ClusterTopology::ThreeTier;
    let distributed = run_cluster(&spec, &pool).expect("valid spec");
    report("distributed (3 boxes)", &distributed);

    println!();
    println!("one box reports a single tier whose CPI mixes every component; the");
    println!("cluster splits the same offered load over three boxes, separates the");
    println!("tiers' CPI, and pays network hops per request for it — the");
    println!("component-placement tradeoff the paper's future-work section points at.");
}
