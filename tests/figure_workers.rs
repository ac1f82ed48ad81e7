//! The figure pass at any worker count (DESIGN.md §14).
//!
//! `cli::render_figures` splits each day of its pass by id shard across
//! the workers of the thread knob. `FigId::ALL` must come out the same —
//! text, CSV and the counter deltas of the render — at 1, 2, 3, 5 and 7
//! workers, on a live engine and on a lazy replay, in a world of
//! several id shards. Every test here moves the process-wide counters
//! and reads exact deltas, so each runs under `counters::exclusive`.

use i2pscope::cli::{self, FigId, Format, Knobs, Model};
use i2pscope::faults::FaultSpec;
use i2pscope::measure::source::SnapshotSource;
use i2pscope::measure::HarvestEngine;
use i2pscope::store::LazySnapshot;
use i2pscope::telemetry::counters;
use std::path::PathBuf;

const WORKERS: [usize; 5] = [1, 2, 3, 5, 7];

fn knobs() -> Knobs {
    Knobs {
        scale: 0.05,
        seed: 20_180_201,
        days: 12,
        fleet: 8,
        replicates: 1,
        threads: 1,
        model: Model::Uniform,
        faults: FaultSpec::default(),
    }
}

/// A harvested archive under the system temp dir, removed on drop.
struct Archive(PathBuf);

impl Drop for Archive {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The render of `FigId::ALL` in `format` at `workers` workers, with the
/// counter deltas it moved, as `name=value` lines.
fn render(src: &dyn SnapshotSource, format: Format, workers: usize) -> (String, String) {
    let (delta, out) =
        counters::exclusive(|| cli::render_figures_on(src, format, &FigId::ALL, workers));
    let deltas = delta.entries().map(|(name, value)| format!("{name}={value}\n")).collect();
    (out, deltas)
}

#[test]
fn every_worker_count_renders_the_same_bytes_and_counters() {
    let k = knobs();
    let world = k.world();
    assert!(world.index.shard_count() > 2, "the world spans several id shards");
    let engine = HarvestEngine::build(&world, &k.fleet(), 0..k.days);
    let archive = Archive(std::env::temp_dir().join(format!(
        "i2pscope-figure-workers-{}.i2ps",
        std::process::id()
    )));
    cli::harvest(&k, &archive.0, false).expect("harvest");
    for format in [Format::Text, Format::Csv] {
        let live = render(&engine, format, 1);
        // A fresh reader each time: the counters include its loads.
        let lazy = || LazySnapshot::open(&archive.0).expect("lazy open");
        let replayed = render(&lazy(), format, 1);
        assert_eq!(live.0, replayed.0, "live and lazy renders differ ({format:?})");
        for workers in WORKERS {
            let got = render(&engine, format, workers);
            assert!(got.0 == live.0, "live bytes move at {workers} workers ({format:?})");
            assert_eq!(got.1, live.1, "live counters move at {workers} workers ({format:?})");
            let got = render(&lazy(), format, workers);
            assert!(got.0 == replayed.0, "lazy bytes move at {workers} workers ({format:?})");
            assert_eq!(got.1, replayed.1, "lazy counters move at {workers} workers ({format:?})");
        }
    }
}
