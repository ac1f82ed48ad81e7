//! The figure suite's day-major pass (DESIGN.md §14).
//!
//! `cli::render_figures` computes every selected figure in one walk
//! over the source's days. Two contracts of that walk are pinned here,
//! at the golden knobs of `tests/golden_figures.rs`:
//!
//! * **One decode per day** — a lazy replay loads every day segment
//!   exactly once, whichever figures are selected.
//! * **Selection independence** — rendering the figures one at a time
//!   and concatenating the blocks gives the bytes of rendering them all
//!   at once, on a live engine and on a lazy replay: no figure's
//!   accumulator depends on which other figures share the pass.
//!
//! Both tests move the process-wide counters, so both run under
//! `counters::exclusive`.

use i2pscope::cli::{self, FigId, Format, Knobs, Model};
use i2pscope::faults::FaultSpec;
use i2pscope::measure::source::SnapshotSource;
use i2pscope::measure::HarvestEngine;
use i2pscope::store::LazySnapshot;
use i2pscope::telemetry::counters::{self, Counter};
use std::path::PathBuf;

const SCALE: f64 = 0.02;
const SEED: u64 = 20_180_201;
const DAYS: u64 = 12;

fn knobs() -> Knobs {
    Knobs {
        scale: SCALE,
        seed: SEED,
        days: DAYS,
        fleet: 6,
        replicates: 1,
        threads: 1,
        model: Model::Uniform,
        faults: FaultSpec::default(),
    }
}

/// A harvested archive under the system temp dir, removed on drop.
struct Archive(PathBuf);

impl Archive {
    fn harvest(tag: &str) -> Archive {
        let path = std::env::temp_dir()
            .join(format!("i2pscope-figure-pass-{}-{tag}.i2ps", std::process::id()));
        cli::harvest(&knobs(), &path, false).expect("harvest");
        Archive(path)
    }

    fn open(&self) -> LazySnapshot {
        LazySnapshot::open(&self.0).expect("lazy open")
    }
}

impl Drop for Archive {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn a_lazy_replay_decodes_each_day_once_for_any_selection() {
    let archive = Archive::harvest("decode-once");
    let mut selections = vec![FigId::ALL.to_vec()];
    selections.extend(FigId::ALL.iter().map(|&fig| vec![fig]));
    counters::exclusive(|| {
        for format in [Format::Text, Format::Csv] {
            for figs in &selections {
                let lazy = archive.open();
                let base = counters::snapshot();
                let out = cli::render_figures(&lazy, format, figs);
                let loads = counters::snapshot().delta_since(&base).get(Counter::SegmentsLazyLoaded);
                assert!(!out.is_empty());
                assert_eq!(loads, DAYS, "{figs:?} ({format:?}) decoded {loads} segments for {DAYS} days");
            }
        }
    });
}

#[test]
fn figures_render_the_same_bytes_whatever_else_is_selected() {
    let k = knobs();
    let world = k.world();
    let engine = HarvestEngine::build_faulted(
        &world,
        &k.fleet(),
        0..k.days,
        &k.model.visibility(),
        &k.plane(),
    );
    let archive = Archive::harvest("selection");
    counters::exclusive(|| {
        let lazy = archive.open();
        // A full harvest: no degraded-mode annotation, which a render
        // would repeat once per call.
        for (name, src) in [("live", &engine as &dyn SnapshotSource), ("lazy", &lazy)] {
            for format in [Format::Text, Format::Csv] {
                let one_by_one: String = FigId::ALL
                    .iter()
                    .map(|&fig| cli::render_figures(src, format, &[fig]))
                    .collect();
                assert_eq!(
                    one_by_one,
                    cli::render_figures(src, format, &FigId::ALL),
                    "{name} ({format:?}): a figure's bytes depend on the selection"
                );
            }
        }
    });
}
