//! Library entrypoints behind the `i2pscope` binary.
//!
//! Everything the CLI does is a plain function here, so examples and
//! tests share one code path with the binary (the `network_census`
//! example is a thin wrapper over [`census`]). The pipeline mirrors the
//! paper's workflow: `census` runs the measurements live, `harvest`
//! archives the dataset into an `i2p-store` snapshot, `figures` renders
//! the paper's figures from either a live world (`--live`) or an
//! archived snapshot (`--from`) — **byte-identically** — `sweep` runs
//! the Fig. 14 usability experiment on the protocol-level TestNet, and
//! `sybil` runs the eclipse/Sybil sweep against the keyspace-routed
//! harvest (`--model keyspace` switches the other commands onto the
//! same placement model; uniform stays the oracle).

use i2p_faults::{FaultPlane, FaultSpec};
use i2p_geoip::GeoDb;
use i2p_measure::adversary::{self, AdversaryLab};
use i2p_measure::engine::{self, HarvestEngine};
use i2p_measure::fleet::Fleet;
use i2p_measure::keyspace::{KeyspaceConfig, VisibilityModel};
use i2p_measure::source::SnapshotSource;
use i2p_measure::usability::{evaluate, UsabilityConfig};
use i2p_measure::report::{self, Table};
use i2p_measure::{geo, ipchurn, pass, sybil};
use i2p_sim::world::{World, WorldConfig};
use i2p_store::{LazySnapshot, Snapshot, StoreError};
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;

/// Salt mixed into the fault plane's seed so fault draws never reuse
/// the world's own seeded streams.
const FAULT_SALT: u64 = 0xFA17_5EED_0000_0001;

/// Scale/seed/size knobs, resolved from the `I2PSCOPE_*` environment
/// (same variables and panic-on-malformed semantics as the bench
/// helpers in `crates/bench`) and overridable by CLI flags.
#[derive(Clone, Copy, Debug)]
pub struct Knobs {
    /// Population scale (`I2PSCOPE_SCALE`, default 1.0 ≈ 32 K daily).
    pub scale: f64,
    /// Master seed (`I2PSCOPE_SEED`).
    pub seed: u64,
    /// Harvested study days (`I2PSCOPE_DAYS`).
    pub days: u64,
    /// Monitoring routers (`I2PSCOPE_FLEET`; 20 = the paper's main
    /// 10 ff + 10 non-ff fleet, anything else alternates modes).
    pub fleet: usize,
    /// Fig. 14 replicates per sweep point (`I2PSCOPE_REPLICATES`).
    pub replicates: usize,
    /// Worker threads (`I2PSCOPE_THREADS`, 0 = one per core). Sweeps
    /// take this value; engine fills read `I2PSCOPE_THREADS` itself,
    /// which the binary sets from this knob, so `--threads` governs both.
    pub threads: usize,
    /// Harvest visibility model (`I2PSCOPE_MODEL`: uniform|keyspace).
    pub model: Model,
    /// Fault-injection spec (`I2PSCOPE_FAULTS` / `--faults`; empty =
    /// no faults, bit-identical to a build without the fault plane).
    pub faults: FaultSpec,
}

/// Which visibility model the harvest runs under — the CLI-facing
/// selector for [`VisibilityModel`] (uniform stays the oracle mode).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Model {
    /// The calibrated uniform-exposure model (DESIGN.md §3).
    #[default]
    Uniform,
    /// Keyspace-routed floodfill placement (DESIGN.md §8).
    Keyspace,
}

impl Model {
    /// The engine-level model this selector stands for.
    pub fn visibility(self) -> VisibilityModel {
        match self {
            Model::Uniform => VisibilityModel::Uniform,
            Model::Keyspace => VisibilityModel::Keyspace(KeyspaceConfig::paper()),
        }
    }

    /// The CLI spelling, echoed by audit lines.
    pub fn name(self) -> &'static str {
        match self {
            Model::Uniform => "uniform",
            Model::Keyspace => "keyspace",
        }
    }
}

impl std::str::FromStr for Model {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "uniform" => Ok(Model::Uniform),
            "keyspace" => Ok(Model::Keyspace),
            other => Err(format!("unknown model {other:?} (expected uniform|keyspace)")),
        }
    }
}

/// Parses env var `name` as `T`, defaulting when unset; malformed
/// values panic with the variable name rather than silently launching
/// a full-scale run. The single definition of the `I2PSCOPE_*` knob
/// semantics — the bench helpers in `crates/bench` reuse it.
pub fn env_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            panic!("{name}={v:?} is not a valid {}", std::any::type_name::<T>()) // i2plint: allow(panic-audit) -- malformed env knobs abort the run loudly (documented knob contract)
        }),
        Err(_) => default,
    }
}

impl Knobs {
    /// Resolves every knob from the environment.
    pub fn from_env() -> Self {
        Knobs {
            scale: env_parse("I2PSCOPE_SCALE", 1.0),
            seed: env_parse("I2PSCOPE_SEED", 20_180_201),
            days: env_parse("I2PSCOPE_DAYS", 89),
            fleet: env_parse("I2PSCOPE_FLEET", 20),
            replicates: env_parse("I2PSCOPE_REPLICATES", 1),
            threads: env_parse("I2PSCOPE_THREADS", 0),
            model: env_parse("I2PSCOPE_MODEL", Model::Uniform),
            faults: match std::env::var("I2PSCOPE_FAULTS") {
                Ok(v) => FaultSpec::resolve_or_panic(&v),
                Err(_) => FaultSpec::default(),
            },
        }
    }

    /// The seeded fault plane these knobs configure; zero spec ⇒ a
    /// plane that injects nothing (and short-circuits every draw).
    pub fn plane(&self) -> FaultPlane {
        FaultPlane::new(self.faults, self.seed ^ FAULT_SALT)
    }

    /// The configured world.
    pub fn world(&self) -> World {
        World::generate(WorldConfig { days: self.days, scale: self.scale, seed: self.seed })
    }

    /// The configured fleet.
    pub fn fleet(&self) -> Fleet {
        if self.fleet == 20 {
            Fleet::paper_main()
        } else {
            Fleet::alternating(self.fleet)
        }
    }

    /// The live harvest of `world` over `days`: the configured fleet,
    /// visibility model and fault plane.
    pub fn engine<'w>(&self, world: &'w World, days: Range<u64>) -> HarvestEngine<'w> {
        let model = self.model.visibility();
        HarvestEngine::build_faulted(world, &self.fleet(), days, &model, &self.plane())
    }
}

/// Output format of the figure tables.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Format {
    /// The paper's layout.
    Text,
    /// Machine-readable CSV.
    Csv,
}

impl Format {
    /// One table in this format: the paper layout, or the CSV under a
    /// `# <name>` comment line.
    fn table(self, name: &str, table: &Table) -> String {
        match self {
            Format::Text => table.text(),
            Format::Csv => format!("# {name}\n{}", table.csv()),
        }
    }

    /// What opens a status line printed after a table: nothing in text,
    /// and `# ` in CSV, where the line is a comment.
    fn comment(self) -> &'static str {
        match self {
            Format::Text => "",
            Format::Csv => "# ",
        }
    }
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "text" => Ok(Format::Text),
            "csv" => Ok(Format::Csv),
            other => Err(format!("unknown format {other:?} (expected text|csv)")),
        }
    }
}

/// A figure/table the CLI can render from a [`SnapshotSource`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FigId {
    /// Fig. 4 — cumulative coverage vs router count.
    Fig4,
    /// Fig. 5 — daily population census.
    Fig5,
    /// Fig. 6 — unknown-IP decomposition.
    Fig6,
    /// Fig. 7 — churn survival curves.
    Fig7,
    /// Fig. 8 — distinct IPs per peer.
    Fig8,
    /// Fig. 9 — capacity-flag census.
    Fig9,
    /// Fig. 10 — country distribution.
    Fig10,
    /// Fig. 11 — AS distribution.
    Fig11,
    /// Fig. 12 — distinct ASes per multi-IP peer.
    Fig12,
    /// Table 1 — bandwidth × reachability groups + the §5.3.1 estimate.
    Table1,
}

impl FigId {
    /// Every renderable figure, in paper order.
    pub const ALL: [FigId; 10] = [
        FigId::Fig4,
        FigId::Fig5,
        FigId::Fig6,
        FigId::Fig7,
        FigId::Fig8,
        FigId::Fig9,
        FigId::Fig10,
        FigId::Fig11,
        FigId::Fig12,
        FigId::Table1,
    ];

    /// The figure's span label in the telemetry timing plane.
    fn span_name(self) -> &'static str {
        match self {
            FigId::Fig4 => "measure.render_fig4",
            FigId::Fig5 => "measure.render_fig5",
            FigId::Fig6 => "measure.render_fig6",
            FigId::Fig7 => "measure.render_fig7",
            FigId::Fig8 => "measure.render_fig8",
            FigId::Fig9 => "measure.render_fig9",
            FigId::Fig10 => "measure.render_fig10",
            FigId::Fig11 => "measure.render_fig11",
            FigId::Fig12 => "measure.render_fig12",
            FigId::Table1 => "measure.render_table1",
        }
    }

    /// Parses a `--fig` selector entry (`"5"`, `"fig5"`, `"table1"`).
    pub fn parse(s: &str) -> Result<FigId, String> {
        let key = s.trim().to_ascii_lowercase();
        let key = key.strip_prefix("fig").unwrap_or(&key);
        match key {
            "4" => Ok(FigId::Fig4),
            "5" => Ok(FigId::Fig5),
            "6" => Ok(FigId::Fig6),
            "7" => Ok(FigId::Fig7),
            "8" => Ok(FigId::Fig8),
            "9" => Ok(FigId::Fig9),
            "10" => Ok(FigId::Fig10),
            "11" => Ok(FigId::Fig11),
            "12" => Ok(FigId::Fig12),
            "table1" => Ok(FigId::Table1),
            other => Err(format!("unknown figure {other:?} (expected 4..12 or table1)")),
        }
    }
}

/// Renders the selected figures from any source — a live engine or a
/// loaded snapshot — deterministically: identical sources give
/// byte-identical output (the CI smoke and `tests/store_replay.rs`
/// hold live vs replayed renders to `==`).
///
/// Every figure is a fold over the same per-day observation stream, so
/// the selected figures share one day-major pass over the source
/// (DESIGN.md §14) and render from its accumulators. The pass splits
/// each day by id shard over the fill's worker count
/// (`I2PSCOPE_THREADS`, which `--threads` sets); the bytes are the same
/// at any count.
pub fn render_figures(src: &dyn SnapshotSource, format: Format, figs: &[FigId]) -> String {
    render_figures_on(src, format, figs, engine::fill_threads())
}

/// [`render_figures`] on an explicit pass worker count, bypassing the
/// `I2PSCOPE_THREADS` lookup — the parity tests use this to pin the
/// bytes across worker counts without mutating the process
/// environment.
pub fn render_figures_on(
    src: &dyn SnapshotSource,
    format: Format,
    figs: &[FigId],
    workers: usize,
) -> String {
    let pass = FigurePass::run(src, figs, workers);
    let mut out = String::new();
    // Degraded-mode annotation: a partial harvest (vantage outages,
    // recovered snapshot prefix, …) says so up front, in both formats.
    // Full datasets render byte-identically to a build without this
    // check — the annotation only exists when a cell is dark.
    if pass.folds.coverage.is_degraded() {
        match format {
            Format::Text => {
                let _ = writeln!(out, "{}\n", pass.folds.coverage.annotation());
            }
            Format::Csv => {
                let _ = writeln!(out, "# {}", pass.folds.coverage.annotation());
            }
        }
    }
    for fig in figs {
        // Telemetry is observation only: the span times the render and
        // the counter tallies it; neither can touch the block, which is
        // what keeps `--telemetry` renders byte-identical to plain ones
        // (pinned by tests/telemetry.rs).
        let _span = i2p_telemetry::span(fig.span_name());
        i2p_telemetry::count_one(i2p_telemetry::Counter::FigureRenders);
        let (name, table) = pass.table(*fig);
        out.push_str(&format.table(name, &table));
        out.push('\n');
    }
    out
}

/// The figure suite's accumulators after one walk over a source's days
/// ([`pass::figure_pass`]). Folds of figures that are not selected stay
/// empty and are never fed, so no figure's bytes depend on which other
/// figures were selected.
struct FigurePass<'s> {
    geo: &'s GeoDb,
    folds: pass::Folds,
}

impl<'s> FigurePass<'s> {
    /// Runs the pass for the folds `figs` read, on `workers` workers.
    fn run(src: &'s dyn SnapshotSource, figs: &[FigId], workers: usize) -> FigurePass<'s> {
        let wants = |any: &[FigId]| figs.iter().any(|f| any.contains(f));
        let wants = pass::Wants {
            curve: wants(&[FigId::Fig4]),
            census: wants(&[FigId::Fig5, FigId::Fig6]),
            overlap: wants(&[FigId::Fig6]),
            churn: wants(&[FigId::Fig7]),
            ips: wants(&[FigId::Fig8, FigId::Fig10, FigId::Fig11, FigId::Fig12]),
            capacity: wants(&[FigId::Fig9]),
            table1: wants(&[FigId::Table1]),
        };
        FigurePass { geo: src.geo(), folds: pass::figure_pass(src, wants, workers) }
    }

    /// Finishes one figure's table, under its name.
    fn table(&self, fig: FigId) -> (&'static str, Table) {
        let folds = &self.folds;
        match fig {
            FigId::Fig4 => ("Figure 4", report::fig4(&folds.curve.finish())),
            FigId::Fig5 => ("Figure 5", report::fig5(&folds.census)),
            FigId::Fig6 => ("Figure 6", report::fig6(&folds.census, folds.overlap.finish())),
            FigId::Fig7 => {
                let churn_days: Vec<usize> = [1, 2, 3, 5, 7, 10, 14, 21, 30]
                    .into_iter()
                    .filter(|&d| d <= folds.horizon)
                    .collect();
                ("Figure 7", report::fig7(&folds.survival.finish(), &churn_days))
            }
            FigId::Fig8 => {
                ("Figure 8", report::fig8(&ipchurn::IpChurnReport::from_table(&folds.ips)))
            }
            FigId::Fig9 => ("Figure 9", report::fig9(&folds.letters.finish())),
            FigId::Fig10 => {
                ("Figure 10", report::fig10(&geo::GeoReport::from_table(&folds.ips, self.geo), 20))
            }
            FigId::Fig11 => {
                ("Figure 11", report::fig11(&geo::AsReport::from_table(&folds.ips), 20))
            }
            FigId::Fig12 => {
                ("Figure 12", report::fig12(&ipchurn::IpChurnReport::from_table(&folds.ips)))
            }
            FigId::Table1 => {
                ("Table 1", report::table1(&folds.bandwidth.finish(), &folds.floodfill.finish()))
            }
        }
    }
}

/// The deterministic audit line every dataset-producing command prints:
/// the full parameter tuple plus data-derived coverage and row totals.
/// Same seed + spec ⇒ byte-identical line, across runs and thread
/// counts (nothing here may echo a thread count or wall clock).
pub fn audit_line(knobs: &Knobs, src: &dyn SnapshotSource) -> String {
    let cov = src.coverage();
    let k = src.vantage_count();
    let rows: u64 = src
        .days()
        .map(|d| src.count_union_prefix(d, k) as u64)
        .sum();
    format!(
        "audit: seed={} scale={} days={} fleet={} model={} faults={} \
         days_observed={}/{} cells={}/{} rows={rows}",
        knobs.seed,
        knobs.scale,
        knobs.days,
        knobs.fleet,
        knobs.model.name(),
        knobs.faults,
        cov.days_full + cov.days_partial,
        cov.days_expected,
        cov.cells_observed,
        cov.cells_expected,
    )
}

/// `i2pscope census`: generate the configured world, harvest it live,
/// and print the full measurement report (the `network_census` example
/// is this function at example scale).
pub fn census(knobs: &Knobs, format: Format, figs: &[FigId]) -> String {
    let world = knobs.world();
    let engine = knobs.engine(&world, 0..knobs.days);
    let mut out = format!(
        "world: {} peers over {} days, ~{} online daily; fleet: {} monitoring routers\n\n",
        world.total_peers(),
        knobs.days,
        world.online_count(knobs.days / 2),
        engine.vantages().len()
    );
    out.push_str(&render_figures(&engine, format, figs));
    out
}

/// `i2pscope harvest --out FILE [--resume]`: generate, harvest, and
/// archive the dataset as an `i2p-store` snapshot (written atomically —
/// a crash mid-write never tears an existing archive). With `resume`,
/// an existing — possibly damaged — snapshot at `out_path` is loaded
/// through quarantine-and-recover, its valid contiguous-day prefix is
/// kept, and only the missing days are harvested and appended; archive
/// identities are deterministic, so the result is byte-identical to a
/// one-shot harvest. Returns a human summary ending in the audit line.
pub fn harvest(knobs: &Knobs, out_path: &Path, resume: bool) -> Result<String, StoreError> {
    let plane = knobs.plane();
    let world = knobs.world();
    let fleet = knobs.fleet();
    let mut out = String::new();
    let snapshot = if resume {
        let (mut head, report) = Snapshot::read_recover(out_path)?;
        let m = head.meta();
        if m.world_seed != knobs.seed
            || m.world_scale.to_bits() != knobs.scale.to_bits()
            || m.world_days != knobs.days
            || m.day_start != 0
            || m.vantages != fleet.vantages
        {
            return Err(StoreError::Corrupt { what: "resume: snapshot does not match the knobs" });
        }
        let done = m.n_days as u64;
        let _ = writeln!(out, "resume: existing snapshot {report}");
        if done < knobs.days {
            let engine = knobs.engine(&world, done..knobs.days);
            head.extend(Snapshot::capture(&engine))?;
            let _ = writeln!(out, "resume: harvested days {done}..{}", knobs.days);
        } else {
            let _ = writeln!(out, "resume: nothing to do ({done} days already archived)");
        }
        head
    } else {
        Snapshot::capture(&knobs.engine(&world, 0..knobs.days))
    };
    snapshot.write_to_with(out_path, &plane)?;
    // The size of the file just written: encoding again only to measure
    // it would hold a second archive-sized buffer.
    let bytes = std::fs::metadata(out_path)?.len();
    let _ = writeln!(
        out,
        "archived {} observation rows over {} days ({} vantages) to {}",
        snapshot.total_rows(),
        knobs.days,
        fleet.vantages.len(),
        out_path.display()
    );
    let _ = writeln!(
        out,
        "snapshot: {} bytes ({:.1} B/row), world seed {} scale {}",
        bytes,
        bytes as f64 / snapshot.total_rows().max(1) as f64,
        knobs.seed,
        knobs.scale
    );
    let _ = writeln!(out, "{}", audit_line(knobs, &snapshot));
    Ok(out)
}

/// `i2pscope figures --live`: render figures from a freshly generated
/// world and live harvest.
pub fn figures_live(knobs: &Knobs, format: Format, figs: &[FigId]) -> String {
    let world = knobs.world();
    render_figures(&knobs.engine(&world, 0..knobs.days), format, figs)
}

/// [`figures_live`] plus the trailing audit line (a `#` comment in CSV
/// mode) — the form the chaos goldens pin.
pub fn figures_live_audited(knobs: &Knobs, format: Format, figs: &[FigId]) -> String {
    let world = knobs.world();
    let engine = knobs.engine(&world, 0..knobs.days);
    let mut out = render_figures(&engine, format, figs);
    let _ = writeln!(out, "{}{}", format.comment(), audit_line(knobs, &engine));
    out
}

/// `i2pscope figures --from FILE`: load a snapshot (always checksum-
/// validated; `verify` additionally decodes and signature-verifies
/// every archived RouterInfo record) and replay the figures off it.
pub fn figures_from(
    path: &Path,
    format: Format,
    figs: &[FigId],
    verify: bool,
) -> Result<String, StoreError> {
    // Lazy replay: the prelude decodes (and the whole file checksums,
    // streamed) at open, but day segments are mapped on demand — peak
    // memory is O(largest day), and the rendered bytes are pinned
    // identical to the eager loader by tests/scale_parity.rs.
    let snapshot = LazySnapshot::open(path)?;
    if verify {
        snapshot.verify_router_infos(engine::fill_threads())?;
    }
    Ok(render_figures(&snapshot, format, figs))
}

/// `i2pscope sweep`: the Fig. 14 usability sweep on the protocol-level
/// TestNet through the scenario lab, sized by [`UsabilityConfig::scaled`]
/// like the `fig14_usability` bench.
pub fn sweep(knobs: &Knobs, format: Format) -> String {
    let cfg = UsabilityConfig {
        replicates: knobs.replicates,
        threads: knobs.threads,
        seed: knobs.seed,
        faults: knobs.plane(),
        ..UsabilityConfig::scaled(knobs.scale)
    };
    format.table("Figure 14", &report::fig14(&evaluate(&cfg)))
}

/// `i2pscope sybil`: the eclipse/Sybil sweep on the keyspace-routed
/// harvest. `counts` overrides the default Sybil-count grid;
/// `I2PSCOPE_GRIND` sets the per-Sybil grinding budget (the attacker
/// needs roughly one winning candidate per online floodfill, so scale
/// it with the floodfill population). With `capture`, the attacked
/// harvest at the grid's largest count is archived as an `.i2ps`
/// snapshot for replay (`i2pscope figures --from`).
pub fn sybil(
    knobs: &Knobs,
    format: Format,
    counts: Option<Vec<usize>>,
    capture: Option<&Path>,
) -> Result<String, StoreError> {
    let world = knobs.world();
    let fleet = knobs.fleet();
    let mut cfg = sybil::SybilConfig::paper(0..knobs.days);
    cfg.threads = knobs.threads;
    cfg.grind_per_sybil = env_parse("I2PSCOPE_GRIND", cfg.grind_per_sybil);
    if let Some(counts) = counts {
        cfg.counts = counts;
    }
    let sweep = sybil::run(&world, &fleet, &cfg);
    let mut out = format.table("Sybil sweep", &report::sybil_sweep(&sweep));
    if let Some(path) = capture {
        let max = *cfg.counts.iter().max().expect("validated non-empty grid"); // i2plint: allow(panic-audit) -- SybilConfig validation rejects an empty counts grid
        let engine = sybil::attacked_engine(&world, &fleet, &cfg, sweep.target_id, max);
        let snapshot = Snapshot::capture(&engine);
        snapshot.write_to(path)?;
        let _ = writeln!(
            out,
            "{}captured attacked harvest ({max} Sybils/day, target {}) to {}",
            format.comment(),
            sweep.target_id,
            path.display()
        );
    }
    Ok(out)
}

/// The `I2PSCOPE_ADVERSARY` environment knob: the default spec for
/// `i2pscope adversary` when neither a positional name nor
/// `--adversary` is given. Validated eagerly with the same
/// panic-on-malformed semantics as every other `I2PSCOPE_*` knob, so a
/// typo fails before a full-scale run, naming the registered
/// adversaries.
pub fn adversary_from_env() -> Option<String> {
    std::env::var("I2PSCOPE_ADVERSARY").ok().map(|spec| {
        // Panics on unknown names / malformed chains (env-knob path).
        let _ = adversary::resolve_or_panic(&spec);
        spec
    })
}

/// The registered adversary names, for the binary's error messages.
pub fn adversary_names() -> Vec<&'static str> {
    adversary::names()
}

/// The catalog listing behind `i2pscope adversary --list`.
pub fn adversary_catalog() -> String {
    adversary::catalog()
}

/// Runs a registered adversary (or an ad-hoc `+`-chain) through the
/// unified scenario engine: resolve the spec, build the lab from the
/// knobs, run the sweep, print the figure plus the audit line, and
/// optionally archive the adversary's harvest as an `.i2ps` capture.
/// Everything printed (and captured) is byte-identical across thread
/// counts.
pub fn adversary(
    knobs: &Knobs,
    spec: &str,
    format: Format,
    capture: Option<&Path>,
) -> Result<String, String> {
    let adv = adversary::parse_spec(spec)?;
    let world = knobs.world();
    let fleet = knobs.fleet();
    let lab = AdversaryLab::new(&world, &fleet, 0..knobs.days, knobs.threads);
    let outcome = adv.run(&lab);
    let mut out = match format {
        Format::Text => outcome.figure.clone(),
        Format::Csv => format!("# Adversary {}\n{}", outcome.name, outcome.csv),
    };
    // The audit line rides along in both formats (as a comment in CSV),
    // like the other scalar footers.
    let prefix = format.comment();
    let _ = writeln!(out, "{prefix}{}", outcome.audit_line());
    if let Some(path) = capture {
        let engine = adv.capture(&lab);
        let snapshot = Snapshot::capture(&engine);
        snapshot.write_to(path).map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "{prefix}captured adversary harvest ({} rows) to {}",
            snapshot.total_rows(),
            path.display()
        );
    }
    Ok(out)
}

// ------------------------------------------------------------- telemetry

/// Where a run's telemetry goes, resolved from the `--telemetry` /
/// `--trace` flags or the `I2PSCOPE_TELEMETRY` / `I2PSCOPE_TRACE`
/// environment knobs (flags win). Both outputs sit entirely outside
/// the deterministic plane: stdout, figures, CSVs and `.i2ps` archives
/// stay byte-identical whether telemetry is on or off.
#[derive(Clone, Debug, Default)]
pub struct TelemetryConfig {
    /// Run-manifest destination (`--telemetry FILE`).
    pub manifest: Option<std::path::PathBuf>,
    /// Chrome trace-event destination (`--trace FILE`).
    pub trace: Option<std::path::PathBuf>,
}

impl TelemetryConfig {
    /// Resolves both destinations from the environment.
    pub fn from_env() -> Self {
        TelemetryConfig {
            manifest: std::env::var("I2PSCOPE_TELEMETRY").ok().map(std::path::PathBuf::from),
            trace: std::env::var("I2PSCOPE_TRACE").ok().map(std::path::PathBuf::from),
        }
    }

    /// True when any telemetry output was requested.
    fn requested(&self) -> bool {
        self.manifest.is_some() || self.trace.is_some()
    }

    /// Arms the timing plane if any output was requested; must run
    /// before the command so spans cover it end to end. Counters are
    /// always on (they are deterministic), so this only gates clocks.
    pub fn arm(&self) {
        if self.requested() {
            i2p_telemetry::enable();
        }
    }

    /// Runs the calibration probe, then writes the requested files.
    /// Returns one notice line per file written — the binary prints
    /// them to **stderr**, keeping stdout identical to an untraced run.
    pub fn finish(&self, command: &str, knobs: &Knobs) -> Result<Vec<String>, String> {
        if !self.requested() {
            return Ok(Vec::new());
        }
        // The manifest's counters are the command's own work, so they
        // are read before the probe runs; its spans still join the tree.
        let counters = i2p_telemetry::counters::snapshot();
        crate::probe::calibrate();
        let mut notes = Vec::new();
        if let Some(path) = &self.manifest {
            std::fs::write(path, telemetry_manifest(command, knobs, &counters))
                .map_err(|e| format!("writing telemetry manifest {}: {e}", path.display()))?;
            notes.push(format!("telemetry: run manifest written to {}", path.display()));
        }
        if let Some(path) = &self.trace {
            std::fs::write(path, telemetry_trace())
                .map_err(|e| format!("writing chrome trace {}: {e}", path.display()))?;
            notes.push(format!("telemetry: chrome trace written to {}", path.display()));
        }
        Ok(notes)
    }
}

/// The knob echo archived in every run manifest — the same facts the
/// audit line prints, as explicit string pairs.
fn knob_pairs(knobs: &Knobs) -> Vec<(String, String)> {
    vec![
        ("seed".to_string(), knobs.seed.to_string()),
        ("scale".to_string(), knobs.scale.to_string()),
        ("days".to_string(), knobs.days.to_string()),
        ("fleet".to_string(), knobs.fleet.to_string()),
        ("replicates".to_string(), knobs.replicates.to_string()),
        ("threads".to_string(), knobs.threads.to_string()),
        ("model".to_string(), knobs.model.name().to_string()),
        ("faults".to_string(), knobs.faults.to_string()),
    ]
}

/// The versioned run manifest: the `counters` totals (including every
/// fault-plane lane, so a `harvest --resume` recovery or a degraded
/// render carries its injected-fault tallies), then, for the current
/// process state, the span tree, hot-path tallies, and peak RSS.
pub fn telemetry_manifest(
    command: &str,
    knobs: &Knobs,
    counters: &i2p_telemetry::counters::Snapshot,
) -> String {
    let run = i2p_telemetry::manifest::RunInfo {
        command: command.to_string(),
        knobs: knob_pairs(knobs),
    };
    i2p_telemetry::manifest::manifest_json(
        &run,
        counters,
        &i2p_telemetry::timing::report(),
        i2p_telemetry::rss::peak_rss_kb(),
    )
}

/// The Chrome trace-event export (`chrome://tracing` / Perfetto) of
/// the same timing plane the manifest archives.
pub fn telemetry_trace() -> String {
    i2p_telemetry::manifest::chrome_trace_json(&i2p_telemetry::timing::report())
}
