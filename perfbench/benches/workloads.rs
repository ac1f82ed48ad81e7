//! The three workloads: what each builds in set-up, what one timed pass
//! calls, and how its output is checked.
//!
//! * `census` — the paper's main pipeline (§5, Figs. 4–12, Table 1) on
//!   a scale-1, 89-day world: engine fill plus the full figure suite.
//!   No store or TestNet work.
//! * `replay` — the same figure suite re-computed from an `.i2ps`
//!   archive (scale 0.25, 89 days): the store's write path in set-up,
//!   its lazy read path in every pass. Scale 1 would take ≈22 s and
//!   2.7 GB per archive.
//! * `censorship` — the §6 experiments on a scale-1, 40-day world: the
//!   Fig. 13 blocking matrix (censor blacklist unions) and the Fig. 14
//!   usability sweep on the protocol TestNet. No figures, no store.

use crate::trace::Tracer;
use i2pscope::cli::{self, FigId, Format, Knobs, Model};
use i2pscope::faults::{FaultPlane, FaultSpec};
use i2pscope::measure::censor::{self, BlockingSeries};
use i2pscope::measure::engine::HarvestEngine;
use i2pscope::measure::fleet::Fleet;
use i2pscope::measure::report;
use i2pscope::measure::source::SnapshotSource;
use i2pscope::measure::usability::{self, UsabilityConfig};
use i2pscope::sim::world::World;
use i2pscope::store::{LazySnapshot, Snapshot};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fill and sweep workers. Pinned so a run does the same work on any
/// host; the benchmark host has 2 cores.
pub const WORKERS: usize = 2;

/// Workload names, in the order `--workload` lists them.
pub const NAMES: [&str; 3] = ["census", "replay", "censorship"];

/// The figure suite split into the calls that share an analysis, each
/// timed as its own span in the traced run. `FigId::ALL` order is
/// Fig. 4–12 then Table 1, so Fig. 12 sits apart from Fig. 8 there.
pub const FAMILIES: [(&str, &[FigId]); 8] = [
    ("population.fig4", &[FigId::Fig4]),
    ("population.fig5_6", &[FigId::Fig5, FigId::Fig6]),
    ("churn.fig7", &[FigId::Fig7]),
    ("ipchurn.fig8_12", &[FigId::Fig8, FigId::Fig12]),
    ("capacity.fig9", &[FigId::Fig9]),
    ("geo.fig10", &[FigId::Fig10]),
    ("geo.fig11", &[FigId::Fig11]),
    ("capacity.table1", &[FigId::Table1]),
];

/// Fig. 13's grid (the `fig13_blocking_rate` bench's set-up).
const CENSOR_ROUTERS: std::ops::RangeInclusive<usize> = 1..=20;
const CENSOR_WINDOWS: [u64; 5] = [1, 5, 10, 20, 30];
const CENSOR_EVAL_DAY: u64 = 35;
/// Fig. 14 replicates per blocking rate.
const SWEEP_REPLICATES: usize = 32;

/// What a pass produced: the whole output, or (traced figure passes)
/// one block per [`FAMILIES`] entry.
pub enum Output {
    Whole(String),
    Families(Vec<String>),
}

/// One workload's inputs and calls.
pub trait Workload {
    /// The knobs the workload runs with, echoed into the result file.
    fn knobs(&self) -> Vec<(&'static str, String)>;
    /// How often set-up runs; `setup_s` is the median.
    fn setup_reps(&self) -> usize;
    /// Builds the inputs of the timed passes, replacing those of any
    /// earlier repetition, and returns the seconds the timed part took.
    fn setup(&mut self, tr: &mut Tracer) -> Result<f64, String>;
    /// Output every pass must reproduce, when set-up already knows it.
    fn expected(&self) -> Option<&str> {
        None
    }
    /// One timed pass.
    fn pass(&self, tr: &mut Tracer) -> Result<Output, String>;
    /// Study days the passes cover (the base of `store.loads_per_day`).
    fn days(&self) -> u64;
    /// Size facts of the inputs, as per-layer metrics.
    fn facts(&self) -> Vec<(&'static str, f64)>;
}

/// The workload named `name` at `seed`; archives go under `scratch`.
pub fn build(name: &str, seed: u64, scratch: &Path) -> Result<Box<dyn Workload>, String> {
    match name {
        "census" => Ok(Box::new(Census {
            knobs: knobs(seed, 1.0, 89, 20),
            world: None,
        })),
        "replay" => Ok(Box::new(Replay {
            knobs: knobs(seed, 0.25, 89, 20),
            archive: scratch.join("replay.i2ps"),
            peers: 0,
            archive_bytes: 0,
            live: None,
        })),
        "censorship" => Ok(Box::new(Censorship {
            knobs: knobs(seed, 1.0, 40, 20),
            world: None,
        })),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

fn knobs(seed: u64, scale: f64, days: u64, fleet: usize) -> Knobs {
    Knobs {
        scale,
        seed,
        days,
        fleet,
        replicates: SWEEP_REPLICATES,
        threads: WORKERS,
        model: Model::Uniform,
        faults: FaultSpec::default(),
    }
}

fn knob_echo(k: &Knobs, fleet: &str) -> Vec<(&'static str, String)> {
    vec![
        ("seed", k.seed.to_string()),
        ("scale", k.scale.to_string()),
        ("days", k.days.to_string()),
        ("fleet", fleet.to_string()),
        ("model", k.model.name().to_string()),
        ("faults", k.faults.to_string()),
    ]
}

fn generate(tr: &mut Tracer, knobs: &Knobs) -> World {
    tr.span("sim.world", |_| knobs.world())
}

/// Replaces `world` with a fresh one (dropping the old one first) and
/// returns the seconds generation took.
fn regenerate(tr: &mut Tracer, knobs: &Knobs, world: &mut Option<World>) -> f64 {
    *world = None;
    let t = Instant::now();
    *world = Some(generate(tr, knobs));
    t.elapsed().as_secs_f64()
}

fn fill<'w>(tr: &mut Tracer, knobs: &Knobs, world: &'w World) -> HarvestEngine<'w> {
    tr.span("engine.fill", |_| {
        HarvestEngine::build_faulted(
            world,
            &knobs.fleet(),
            0..knobs.days,
            &knobs.model.visibility(),
            &knobs.plane(),
        )
    })
}

/// The figure suite: one `render_figures` call untraced, one span per
/// family traced.
fn figures(tr: &mut Tracer, src: &dyn SnapshotSource) -> Output {
    if !tr.enabled() {
        return Output::Whole(cli::render_figures(src, Format::Text, &FigId::ALL));
    }
    Output::Families(
        FAMILIES
            .iter()
            .map(|(span, figs)| tr.span(span, |_| cli::render_figures(src, Format::Text, figs)))
            .collect(),
    )
}

/// Checks a figure render names every figure of the suite.
fn check_suite(text: &str) -> Result<(), String> {
    let titles = [
        "Figure 4:",
        "Figure 5:",
        "Figure 6:",
        "Figure 7:",
        "Figure 8:",
        "Figure 9:",
        "Figure 10:",
        "Figure 11:",
        "Figure 12:",
        "Table 1:",
    ];
    match titles.iter().find(|t| !text.contains(*t)) {
        Some(missing) => Err(format!("figure suite lacks {missing:?}")),
        None => Ok(()),
    }
}

/// Whether `blocks` reproduces `expected`. Family blocks come in
/// [`FAMILIES`] order; in `FigId::ALL` order the Fig. 8+12 block is
/// split around Fig. 9–11, so `expected` must read
/// `f4 f5_6 f7 | X | f9 f10 f11 | Y | t1` with `X + Y == f8_12`.
pub fn reproduces(expected: &str, blocks: &Output) -> bool {
    let fams = match blocks {
        Output::Whole(text) => return text == expected,
        Output::Families(fams) => fams,
    };
    let [f4, f56, f7, f812, f9, f10, f11, t1] = fams.as_slice() else {
        return false;
    };
    let head = format!("{f4}{f56}{f7}");
    let mid = format!("{f9}{f10}{f11}");
    let Some(body) = expected
        .strip_prefix(head.as_str())
        .and_then(|r| r.strip_suffix(t1.as_str()))
    else {
        return false;
    };
    if body.len() != f812.len() + mid.len() {
        return false;
    }
    // The split point is where Fig. 8's block ends: inside the family
    // block, and no further than the two strings agree.
    let agree = body
        .bytes()
        .zip(f812.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    (1..=agree.min(f812.len().saturating_sub(1))).any(|i| {
        body.get(i..i + mid.len()) == Some(mid.as_str())
            && body.get(i + mid.len()..) == f812.get(i..)
    })
}

// ------------------------------------------------------------------ census

struct Census {
    knobs: Knobs,
    world: Option<World>,
}

impl Workload for Census {
    fn knobs(&self) -> Vec<(&'static str, String)> {
        knob_echo(&self.knobs, "paper_main")
    }

    fn setup_reps(&self) -> usize {
        7
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        Ok(regenerate(tr, &self.knobs, &mut self.world))
    }

    fn pass(&self, tr: &mut Tracer) -> Result<Output, String> {
        let world = self.world.as_ref().ok_or("census pass before set-up")?;
        let engine = fill(tr, &self.knobs, world);
        let out = figures(tr, &engine);
        if let Output::Whole(text) = &out {
            check_suite(text)?;
        }
        Ok(out)
    }

    fn days(&self) -> u64 {
        self.knobs.days
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        let peers = self.world.as_ref().map_or(0, World::total_peers);
        vec![("sim.world.peers", peers as f64)]
    }
}

// ------------------------------------------------------------------ replay

struct Replay {
    knobs: Knobs,
    archive: PathBuf,
    peers: usize,
    archive_bytes: u64,
    /// The live engine's render, made once in set-up and not timed.
    live: Option<String>,
}

impl Workload for Replay {
    fn knobs(&self) -> Vec<(&'static str, String)> {
        knob_echo(&self.knobs, "paper_main")
    }

    fn setup_reps(&self) -> usize {
        3
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let t = Instant::now();
        let world = generate(tr, &self.knobs);
        let engine = fill(tr, &self.knobs, &world);
        let snapshot = tr.span("store.capture", |_| Snapshot::capture(&engine));
        tr.span("store.write", |_| snapshot.write_to(&self.archive))
            .map_err(|e| format!("writing {}: {e}", self.archive.display()))?;
        let secs = t.elapsed().as_secs_f64();
        drop(snapshot);
        self.peers = world.total_peers();
        self.archive_bytes = std::fs::metadata(&self.archive)
            .map_err(|e| format!("reading {}: {e}", self.archive.display()))?
            .len();
        if self.live.is_none() {
            let live = cli::render_figures(&engine, Format::Text, &FigId::ALL);
            check_suite(&live)?;
            self.live = Some(live);
        }
        Ok(secs)
    }

    fn expected(&self) -> Option<&str> {
        self.live.as_deref()
    }

    fn pass(&self, tr: &mut Tracer) -> Result<Output, String> {
        let lazy = tr
            .span("store.open", |_| LazySnapshot::open(&self.archive))
            .map_err(|e| format!("opening {}: {e}", self.archive.display()))?;
        Ok(figures(tr, &lazy))
    }

    fn days(&self) -> u64 {
        self.knobs.days
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim.world.peers", self.peers as f64),
            (
                "store.archive_mb",
                self.archive_bytes as f64 / (1024.0 * 1024.0),
            ),
        ]
    }
}

// -------------------------------------------------------------- censorship

struct Censorship {
    knobs: Knobs,
    world: Option<World>,
}

impl Censorship {
    /// `cli::sweep`'s scale-1 configuration at the pinned workers.
    fn sweep_config(&self) -> UsabilityConfig {
        UsabilityConfig {
            relays: 64,
            floodfills: 12,
            fetches_per_rate: 10,
            replicates: self.knobs.replicates,
            threads: WORKERS,
            seed: self.knobs.seed,
            faults: FaultPlane::zero(),
            ..Default::default()
        }
    }
}

/// Blocking rates are percentages and never fall as censor routers are
/// added (§6.2.2; pinned by the censor module's own tests).
fn check_matrix(series: &[BlockingSeries]) -> Result<(), String> {
    if series.len() != CENSOR_WINDOWS.len() {
        return Err(format!("blocking matrix has {} windows", series.len()));
    }
    for s in series {
        if s.points.len() != CENSOR_ROUTERS.count() {
            return Err(format!(
                "{}-day series has {} points",
                s.window_days,
                s.points.len()
            ));
        }
        if s.points.iter().any(|&(_, r)| !(0.0..=100.0).contains(&r)) {
            return Err(format!("{}-day series leaves [0, 100] %", s.window_days));
        }
        if s.points.windows(2).any(|w| w[1].1 < w[0].1 - 1e-9) {
            return Err(format!(
                "{}-day blocking rate falls as routers are added",
                s.window_days
            ));
        }
    }
    Ok(())
}

impl Workload for Censorship {
    fn knobs(&self) -> Vec<(&'static str, String)> {
        let mut k = knob_echo(&self.knobs, "alternating(20)");
        k.push(("censor_routers", "1..=20".into()));
        k.push(("censor_windows_days", "1,5,10,20,30".into()));
        k.push(("censor_eval_day", CENSOR_EVAL_DAY.to_string()));
        k.push((
            "sweep",
            "relays=64 floodfills=12 fetches=10 rates=18".into(),
        ));
        k.push(("sweep_replicates", self.knobs.replicates.to_string()));
        k
    }

    fn setup_reps(&self) -> usize {
        7
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        Ok(regenerate(tr, &self.knobs, &mut self.world))
    }

    fn pass(&self, tr: &mut Tracer) -> Result<Output, String> {
        let world = self.world.as_ref().ok_or("censorship pass before set-up")?;
        let fleet = Fleet::alternating(self.knobs.fleet);
        let routers: Vec<usize> = CENSOR_ROUTERS.collect();
        let series = tr.span("censor.matrix", |_| {
            censor::blocking_matrix_swept(
                world,
                &fleet,
                CENSOR_EVAL_DAY,
                &routers,
                &CENSOR_WINDOWS,
                WORKERS,
            )
        });
        check_matrix(&series)?;
        let cfg = self.sweep_config();
        let substrate = tr.span("lab.warm", |_| usability::warm_substrate(&cfg));
        let points = tr.span("lab.sweep", |_| usability::evaluate_on(&substrate, &cfg));
        if points.len() != cfg.blocking_rates.len() {
            return Err(format!("usability sweep returned {} points", points.len()));
        }
        Ok(Output::Whole(
            report::render_fig13(&series) + &report::render_fig14(&points),
        ))
    }

    fn days(&self) -> u64 {
        self.knobs.days
    }

    fn facts(&self) -> Vec<(&'static str, f64)> {
        let peers = self.world.as_ref().map_or(0, World::total_peers);
        vec![("sim.world.peers", peers as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fams(parts: [&str; 8]) -> Output {
        Output::Families(parts.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn families_reassemble_into_paper_order() {
        let blocks = fams([
            "4\n", "5\n6\n", "7\n", "8\n12\n", "9\n", "10\n", "11\n", "T\n",
        ]);
        assert!(reproduces("4\n5\n6\n7\n8\n9\n10\n11\n12\nT\n", &blocks));
        assert!(!reproduces("4\n5\n6\n7\n8\n12\n9\n10\n11\nT\n", &blocks));
        assert!(!reproduces("4\n5\n6\n7\n8\n9\n10\n11\n13\nT\n", &blocks));
    }

    #[test]
    fn whole_output_must_match_exactly() {
        assert!(reproduces("abc", &Output::Whole("abc".into())));
        assert!(!reproduces("abc", &Output::Whole("abd".into())));
    }
}
