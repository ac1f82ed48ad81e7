//! Ablation: does Fig. 4's logarithmic coverage curve require
//! *heterogeneous* peer visibility?
//!
//! DESIGN.md §3 claims the concave cumulative-coverage curve comes from
//! peers having wildly different exposure (Gamma-distributed `w`). This
//! ablation compares the measured curve against a homogeneous
//! counterfactual where every peer gets the population-mean visibility:
//! the homogeneous curve saturates almost immediately, confirming the
//! design choice.

use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::{Fleet, Vantage, VantageMode};

fn main() {
    let mut report = i2p_bench::report("ablation_visibility");
    let world = i2p_bench::world(6);
    report.emit("Ablation: visibility heterogeneity", || {
        let fleet = Fleet::alternating(40);
        // Measured heterogeneous curve: one engine fill on day 3, then
        // every prefix falls out of a single cumulative-OR pass.
        let engine = HarvestEngine::build(&world, &fleet, 3..4);
        let curve = engine.coverage_curve(3);
        let mut out = String::from(
            "Ablation: heterogeneous vs homogeneous peer visibility\n\
             -------------------------------------------------------\n\
             routers   heterogeneous   homogeneous (counterfactual)\n",
        );
        // Homogeneous counterfactual: every peer is seen i.i.d. with the
        // empirical single-vantage coverage rate p1.
        let online = world.online_count(3) as f64;
        let v = Vantage::monitoring(VantageMode::NonFloodfill, 0x7_001);
        let single = Fleet { vantages: vec![v] };
        let p1 = HarvestEngine::build(&world, &single, 3..4).count_one(0, 3) as f64 / online;
        for k in [1usize, 2, 5, 10, 20, 40] {
            let het = curve[k - 1] as f64 / online;
            let hom = 1.0 - (1.0 - p1).powi(k as i32);
            out.push_str(&format!(
                "{k:>7}   {:>12.1}%   {:>12.1}%\n",
                100.0 * het,
                100.0 * hom
            ));
        }
        out.push_str(
            "\n(homogeneous visibility would make 5 routers see ~97% — the paper's\n\
             20-routers-for-95.5% curve requires heterogeneous exposure)\n",
        );
        out
    });
    report.write();
}
