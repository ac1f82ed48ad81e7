//! Figure 14: percentage of timed-out requests and page-load latency in
//! the presence of blockage (§6.2.3).
//!
//! Runs the protocol-level TestNet through the scenario lab: the
//! substrate (bootstrap + publication + 30 s settle) is warmed **once**
//! and forked per `(rate, replicate)` scenario instead of being rebuilt
//! 18 times; scenarios run across the sweep threads. Paper anchors:
//! ≈3.4 s unblocked; >20 s and 40 % timeouts at 65 %; >40 s and >60 %
//! timeouts through 70–90 %; 95–100 % timeouts beyond 90 %.
//!
//! A thinned sweep under the fail-fast **active-reset** censor follows:
//! an RST-injecting chokepoint resolves blocked connection attempts in
//! one round trip instead of a silent 10 s timeout, flattening the
//! latency curve while blocking just as hard.
//!
//! Knobs: `I2PSCOPE_SCALE` shrinks relays/fetches for smoke runs,
//! `I2PSCOPE_REPLICATES` adds independent replicates per rate (wider
//! confidence intervals sample), `I2PSCOPE_THREADS` caps sweep threads.

use i2p_measure::report::render_fig14;
use i2p_measure::usability::{evaluate_on, warm_substrate, UsabilityConfig};
use i2p_transport::CensorMode;
use std::time::Instant;

fn main() {
    let mut report = i2p_bench::report("fig14_usability");
    let cfg = UsabilityConfig {
        replicates: i2p_bench::replicates(),
        threads: i2p_bench::threads(),
        seed: i2p_bench::seed(),
        ..UsabilityConfig::scaled(i2p_bench::scale())
    };
    report.emit("Figure 14", || {
        let t = Instant::now();
        let sub = warm_substrate(&cfg);
        eprintln!(
            "[i2p-bench] fig14 substrate: {} relays warmed once in {:.2?} (forked per scenario)",
            cfg.relays,
            t.elapsed()
        );
        let mut out = render_fig14(&evaluate_on(&sub, &cfg));
        eprintln!(
            "[i2p-bench] fig14 null-route sweep ({} rates × {} replicates) done at {:.2?}",
            cfg.blocking_rates.len(),
            cfg.replicates,
            t.elapsed()
        );
        // The new censor mode, on the same substrate, over a thinned
        // rate grid.
        let reset_cfg = UsabilityConfig {
            censor_mode: CensorMode::ActiveReset,
            blocking_rates: cfg.blocking_rates.iter().copied().step_by(3).collect(),
            ..cfg.clone()
        };
        out.push_str("\nSame substrate under an active-reset (TCP-RST) censor — fail-fast\nconnection refusals instead of silent null routes:\n\n");
        out.push_str(&render_fig14(&evaluate_on(&sub, &reset_cfg)));
        out
    });
    report.write();
}
