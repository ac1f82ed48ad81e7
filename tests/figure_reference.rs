//! The figure pass against the standalone folds.
//!
//! `cli::render_figures` splits each day of its pass by id shard across
//! workers and merges the shard states afterwards (DESIGN.md §14).
//! Worker-count parity cannot catch a wrong merge: a merge that adds
//! finished figures, or counts an address two shards share twice, gives
//! the same wrong bytes at 1 worker and at 7. So this suite assembles
//! the whole figure suite, text and CSV, from the serial `*_from`
//! analyses — one slot index, no shards, no merge — and holds the pass
//! to it:
//!
//! * on a grid of small worlds: uniform and keyspace visibility, fleets
//!   of 20 and 8, one at `outage=0.3`, live and replayed lazily;
//! * at the census size (scale 1, 89 days; release only), where peers
//!   of different shards publish one address on the same census day.

use i2pscope::cli::{self, FigId, Format};
use i2pscope::faults::{FaultPlane, FaultSpec};
use i2pscope::measure::source::SnapshotSource;
use i2pscope::measure::{
    capacity, churn, geo, ipchurn, population, report, Fleet, HarvestEngine, KeyspaceConfig,
    VisibilityModel,
};
use i2pscope::sim::world::{DayIndex, World, WorldConfig};
use i2pscope::store::{LazySnapshot, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 20_180_201;

/// `FigId::ALL` in text and in CSV, assembled from the standalone
/// analyses the way `render_figures` lays the blocks out.
fn reference_suite(src: &dyn SnapshotSource) -> [(Format, String); 2] {
    let span = src.days();
    let n_days = span.clone().count() as u64;
    let step = (n_days / 10).max(1);
    let mid_day = span.start + n_days / 2;
    let horizon = n_days.saturating_sub(1).min(30) as usize;
    let census: Vec<_> = span
        .clone()
        .step_by(step as usize)
        .map(|day| (day, population::daily_census_from(src, day)))
        .collect();
    let table = ipchurn::ip_table_from(src, span.clone());
    let ip_report = ipchurn::IpChurnReport::from_table(&table);
    let countries = geo::GeoReport::from_table(&table, src.geo());
    let ases = geo::AsReport::from_table(&table);
    let curve = population::cumulative_by_router_count_from(src, span.clone());
    let overlap = population::firewalled_hidden_overlap_from(src, span.clone());
    let curves = churn::churn_curves_from(src, horizon);
    let churn_days: Vec<usize> =
        [1, 2, 3, 5, 7, 10, 14, 21, 30].into_iter().filter(|&d| d <= horizon).collect();
    let letters = capacity::capacity_histogram_from(src, span.clone());
    let bandwidth = capacity::bandwidth_table_from(src, mid_day);
    let estimate = capacity::floodfill_estimate_from(src, mid_day);
    let blocks: Vec<(&str, String, String)> = vec![
        ("Figure 4", report::render_fig4(&curve), report::csv_fig4(&curve)),
        ("Figure 5", report::render_fig5(&census), report::csv_fig5(&census)),
        ("Figure 6", report::render_fig6(&census, overlap), report::csv_fig6(&census, overlap)),
        (
            "Figure 7",
            report::render_fig7(&curves, &churn_days),
            report::csv_fig7(&curves, &churn_days),
        ),
        ("Figure 8", report::render_fig8(&ip_report), report::csv_fig8(&ip_report)),
        ("Figure 9", report::render_fig9(&letters), report::csv_fig9(&letters)),
        ("Figure 10", report::render_fig10(&countries, 20), report::csv_fig10(&countries, 20)),
        ("Figure 11", report::render_fig11(&ases, 20), report::csv_fig11(&ases, 20)),
        ("Figure 12", report::render_fig12(&ip_report), report::csv_fig12(&ip_report)),
        (
            "Table 1",
            report::render_table1(&bandwidth, &estimate),
            report::csv_table1(&bandwidth, &estimate),
        ),
    ];
    let coverage = src.coverage();
    let (mut text, mut csv) = (String::new(), String::new());
    if coverage.is_degraded() {
        text = format!("{}\n\n", coverage.annotation());
        csv = format!("# {}\n", coverage.annotation());
    }
    for (title, text_block, csv_block) in blocks {
        text.push_str(&text_block);
        text.push('\n');
        write!(csv, "# {title}\n{csv_block}\n").expect("write to a String");
    }
    [(Format::Text, text), (Format::Csv, csv)]
}

/// Holds the split pass to the reference suite in both formats, at 1
/// and 3 workers.
fn assert_pass_matches_reference(name: &str, src: &dyn SnapshotSource) {
    for (format, reference) in reference_suite(src) {
        for workers in [1, 3] {
            assert!(
                cli::render_figures_on(src, format, &FigId::ALL, workers) == reference,
                "{name}: the pass at {workers} workers differs from the standalone folds \
                 ({format:?})"
            );
        }
    }
}

/// An archive of `engine` under the system temp dir, removed on drop.
struct Archive(PathBuf);

impl Archive {
    fn of(engine: &HarvestEngine<'_>, tag: &str) -> Archive {
        let path = std::env::temp_dir()
            .join(format!("i2pscope-figure-reference-{}-{tag}.i2ps", std::process::id()));
        Snapshot::capture(engine).write_to(&path).expect("write archive");
        Archive(path)
    }
}

impl Drop for Archive {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn the_pass_matches_the_standalone_folds_on_a_grid_of_worlds() {
    let days = 40;
    let world = World::generate(WorldConfig { days, scale: 0.03, seed: SEED });
    assert!(world.index.shard_count() > 1, "the grid's world spans several id shards");
    let keyspace = VisibilityModel::Keyspace(KeyspaceConfig::paper());
    let outage = FaultPlane::new(FaultSpec::parse("outage=0.3").expect("spec"), 0x07A6E);
    let grid = [
        ("uniform/20", Fleet::paper_main(), VisibilityModel::Uniform, FaultPlane::zero()),
        ("uniform/8", Fleet::alternating(8), VisibilityModel::Uniform, FaultPlane::zero()),
        ("keyspace/20", Fleet::paper_main(), keyspace.clone(), FaultPlane::zero()),
        ("keyspace/8", Fleet::alternating(8), keyspace, FaultPlane::zero()),
        ("outage/20", Fleet::paper_main(), VisibilityModel::Uniform, outage),
    ];
    for (name, fleet, model, plane) in &grid {
        let engine = HarvestEngine::build_faulted(&world, fleet, 0..days, model, plane);
        assert_pass_matches_reference(&format!("{name} live"), &engine);
        let archive = Archive::of(&engine, &name.replace('/', "-"));
        let lazy = LazySnapshot::open(&archive.0).expect("lazy open");
        assert_pass_matches_reference(&format!("{name} lazy"), &lazy);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a scale-1, 89-day world is minutes unoptimised; CI runs this in release"
)]
fn the_pass_matches_the_standalone_folds_at_census_size() {
    let days = 89;
    let world = World::generate(WorldConfig { days, scale: 1.0, seed: SEED });
    let engine = HarvestEngine::build(&world, &Fleet::paper_main(), 0..days);
    // The case the census merge exists for: on some sampled day two
    // peers of different shards publish one address, which per-shard
    // census sizes would count twice.
    let k = engine.vantage_count();
    let step = (days / 10).max(1);
    let shared = (0..days).step_by(step as usize).any(|day| {
        let mut shards_of = BTreeMap::new();
        engine.for_each_observation_ref(day, k, &mut |rec| {
            for ip in rec.ips() {
                let shard = rec.peer_id / DayIndex::SHARD_WIDTH;
                shards_of.entry(ip).or_insert_with(Vec::new).push(shard);
            }
        });
        shards_of.values().any(|shards| shards.iter().any(|&s| s != shards[0]))
    });
    assert!(shared, "no census day has an address shared across shards");
    assert_pass_matches_reference("scale 1, 89 days", &engine);
}
