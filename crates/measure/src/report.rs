//! Figure tables: every figure and table of the paper as one typed
//! [`Table`], printed in the paper's layout ([`Table::text`]) or as CSV
//! ([`Table::csv`]) from the same rows.
//!
//! A row holds typed cells (a count, a real or a label); a column
//! carries its CSV name and its text layout, and either may be absent,
//! for a quantity one format prints and the other does not (Fig. 3's
//! bandwidth label is text-only, its raw kbps CSV-only). Reals print at
//! fixed decimals, so identical inputs give identical bytes, or in full
//! where a CSV column keeps the raw value. Scalars outside the rows are
//! free lines: text notes between the title and the header, text
//! footers after the rows, and CSV footers, which are `#` comments to
//! CSV consumers.
//!
//! Fig. 13 keeps its own pair of printers ([`render_fig13`],
//! [`csv_fig13`]): its text turns the blacklist windows into columns,
//! while its CSV has one row per matrix cell.

use crate::capacity::{BandwidthTable, CapacityHistogram, FloodfillEstimate};
use crate::censor::BlockingSeries;
use crate::churn::ChurnCurves;
use crate::geo::{AsReport, GeoReport, RankedRow};
use crate::ipchurn::IpChurnReport;
use crate::population::{BandwidthSweepRow, DailyCensus, SingleRouterSeries};
use crate::sybil::SybilSweep;
use crate::usability::UsabilityPoint;
use std::fmt::Write as _;

/// One typed cell of a table row.
#[derive(Clone, Debug)]
pub(crate) enum Cell {
    /// A count, printed as an integer.
    Count(u64),
    /// A real, printed at its column's decimals.
    Real(f64),
    /// A label, printed as it is.
    Label(String),
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Count(n)
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Count(n as u64)
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Cell {
        Cell::Real(x)
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Label(s)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Label(s.to_string())
    }
}

impl Cell {
    /// The cell's bytes; a real at `decimals`, or in full for `None`.
    fn print(&self, decimals: Option<usize>) -> String {
        match (self, decimals) {
            (Cell::Count(n), _) => n.to_string(),
            (Cell::Real(x), Some(p)) => format!("{x:.p$}"),
            (Cell::Real(x), None) => x.to_string(),
            (Cell::Label(s), _) => s.clone(),
        }
    }
}

/// How a column prints in the text layout.
#[derive(Clone, Debug)]
struct Layout {
    /// Printed before the cell: the gap after the previous column.
    sep: &'static str,
    /// Minimum width in characters.
    width: usize,
    /// Pad on the right instead of the left.
    left: bool,
    /// Decimals of a real.
    decimals: usize,
    /// Printed after the padded cell.
    suffix: &'static str,
}

/// One table column: its CSV name and its text layout.
#[derive(Clone, Debug)]
pub(crate) struct Column {
    /// CSV header name; `None` for a text-only column.
    csv: Option<String>,
    /// Text layout; `None` for a CSV-only column.
    text: Option<Layout>,
    /// Decimals of a real in CSV; `None` prints it in full.
    csv_decimals: Option<usize>,
}

impl Column {
    /// A column both formats print: named `csv` in CSV; in text after
    /// `sep`, right-aligned to `width`.
    pub(crate) fn new(csv: &str, sep: &'static str, width: usize) -> Column {
        Column { csv: Some(csv.to_string()), ..Column::text_only(sep, width) }
    }

    /// A column only the text layout prints.
    pub(crate) fn text_only(sep: &'static str, width: usize) -> Column {
        let layout = Layout { sep, width, left: false, decimals: 0, suffix: "" };
        Column { csv: None, text: Some(layout), csv_decimals: None }
    }

    /// A column only the CSV prints.
    pub(crate) fn csv_only(csv: &str) -> Column {
        Column { csv: Some(csv.to_string()), text: None, csv_decimals: None }
    }

    /// Left-aligns the column in text.
    pub(crate) fn left(self) -> Column {
        self.layout(|l| l.left = true)
    }

    /// Prints `suffix` after each text cell.
    pub(crate) fn suffix(self, suffix: &'static str) -> Column {
        self.layout(|l| l.suffix = suffix)
    }

    /// Reals print at `text` decimals in text, and at `csv` decimals in
    /// CSV (`None`: in full).
    pub(crate) fn decimals(mut self, text: usize, csv: Option<usize>) -> Column {
        self.csv_decimals = csv;
        self.layout(|l| l.decimals = text)
    }

    fn layout(mut self, set: impl FnOnce(&mut Layout)) -> Column {
        if let Some(layout) = &mut self.text {
            set(layout);
        }
        self
    }
}

/// A figure or table: typed rows under named columns, plus the free
/// lines each format prints around them.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    /// Dashes under the title.
    underline: usize,
    /// Text lines between the underline and the header.
    notes: Vec<String>,
    /// The text header line.
    header: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
    /// Text lines after the rows.
    footer: Vec<String>,
    /// CSV comment lines after the rows, without their `# `.
    csv_footer: Vec<String>,
}

impl Table {
    /// An empty table; the title is underlined by its byte length.
    pub(crate) fn new(title: &str, header: &str, columns: Vec<Column>) -> Table {
        Table {
            title: title.to_string(),
            underline: title.len(),
            notes: Vec::new(),
            header: header.to_string(),
            columns,
            rows: Vec::new(),
            footer: Vec::new(),
            csv_footer: Vec::new(),
        }
    }

    /// Underlines the title by its character count instead.
    pub(crate) fn underline_chars(mut self) -> Table {
        self.underline = self.title.chars().count();
        self
    }

    /// Adds a text line above the header.
    pub(crate) fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds a text line below the rows.
    pub(crate) fn footer(&mut self, line: String) {
        self.footer.push(line);
    }

    /// Adds a `#` comment line below the CSV rows.
    pub(crate) fn csv_note(&mut self, line: String) {
        self.csv_footer.push(line);
    }

    /// Appends a row, one cell per column.
    pub(crate) fn row(&mut self, cells: Vec<Cell>) {
        debug_assert_eq!(cells.len(), self.columns.len(), "{}: row width", self.title);
        self.rows.push(cells);
    }

    /// The paper layout: title, underline, notes, header, rows, footer.
    pub fn text(&self) -> String {
        let mut out = format!("{}\n{}\n", self.title, "-".repeat(self.underline));
        for line in self.notes.iter().chain([&self.header]) {
            let _ = writeln!(out, "{line}");
        }
        for row in &self.rows {
            for (column, cell) in self.columns.iter().zip(row) {
                let Some(l) = &column.text else { continue };
                let (cell, w) = (cell.print(Some(l.decimals)), l.width);
                out.push_str(l.sep);
                let _ = if l.left { write!(out, "{cell:<w$}") } else { write!(out, "{cell:>w$}") };
                out.push_str(l.suffix);
            }
            out.push('\n');
        }
        for line in &self.footer {
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// The CSV: a header of column names, one line per row, then the
    /// `#` comment lines.
    pub fn csv(&self) -> String {
        let names: Vec<&str> = self.columns.iter().filter_map(|c| c.csv.as_deref()).collect();
        let mut out = names.join(",");
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = self
                .columns
                .iter()
                .zip(row)
                .filter(|(column, _)| column.csv.is_some())
                .map(|(column, cell)| cell.print(column.csv_decimals))
                .collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        for line in &self.csv_footer {
            let _ = writeln!(out, "# {line}");
        }
        out
    }
}

/// `part` as a percentage of `whole` (an empty whole counts as 1).
fn pct(part: usize, whole: usize) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}

/// The capacity classes of Fig. 9 and Table 1, in paper order.
const CLASSES: [&str; 7] = ["K", "L", "M", "N", "O", "P", "X"];

/// Fig. 2: peers one 8 MB/s router observes per day, in each mode.
pub fn fig2(s: &SingleRouterSeries) -> Table {
    let mut t = Table::new(
        "Figure 2: peers observed by one 8 MB/s router (5 d per mode)",
        "day   mode           observed peers",
        vec![
            Column::new("day", "", 3),
            Column::new("mode", "   ", 13).left(),
            Column::new("observed_peers", "  ", 8),
        ],
    );
    for (mode, series) in [("floodfill", &s.floodfill), ("non-floodfill", &s.non_floodfill)] {
        for &(d, n) in series {
            t.row(vec![d.into(), mode.into(), n.into()]);
        }
    }
    t
}

/// Fig. 3: observed peers against shared bandwidth. Text labels the
/// bandwidth in MB/s or KB/s; CSV prints the raw kbps.
pub fn fig3(rows: &[BandwidthSweepRow]) -> Table {
    let mut t = Table::new(
        "Figure 3: observed peers vs shared bandwidth (7 ff + 7 non-ff)",
        "bandwidth   floodfill   non-floodfill     both",
        vec![
            Column::text_only("", 9),
            Column::csv_only("bandwidth_kbps"),
            Column::new("floodfill", "   ", 9),
            Column::new("non_floodfill", "   ", 13),
            Column::new("both", "   ", 6),
        ],
    );
    for r in rows {
        let bw = if r.shared_kbps >= 1024 {
            format!("{} MB/s", r.shared_kbps / 1024)
        } else {
            format!("{} KB/s", r.shared_kbps)
        };
        let (kbps, ff, nf) = (u64::from(r.shared_kbps), r.floodfill, r.non_floodfill);
        t.row(vec![bw.into(), kbps.into(), ff.into(), nf.into(), r.both.into()]);
    }
    t
}

/// Fig. 4: cumulative peers observed by the first 1..n routers.
pub fn fig4(curve: &[(usize, usize)]) -> Table {
    let mut t = Table::new(
        "Figure 4: cumulative peers observed by 1..n routers",
        "routers   observed peers   % of max",
        vec![
            Column::new("routers", "", 7),
            Column::new("observed_peers", "   ", 14),
            Column::new("pct_of_max", "   ", 7).decimals(1, Some(1)).suffix("%"),
        ],
    );
    let max = curve.last().map_or(1, |&(_, n)| n);
    for &(k, n) in curve {
        t.row(vec![k.into(), n.into(), pct(n, max).into()]);
    }
    t
}

/// Fig. 5: unique peers and IP addresses per sampled day.
pub fn fig5(series: &[(u64, DailyCensus)]) -> Table {
    let mut t = Table::new(
        "Figure 5: unique peers and IP addresses per day",
        "day   peers    all-IPs   IPv4     IPv6",
        vec![
            Column::new("day", "", 3),
            Column::new("peers", "   ", 6),
            Column::new("all_ips", "   ", 7),
            Column::new("ipv4", "   ", 6),
            Column::new("ipv6", "   ", 5),
        ],
    );
    for (d, c) in series {
        t.row(vec![(*d).into(), c.peers.into(), c.all_ips.into(), c.ipv4.into(), c.ipv6.into()]);
    }
    t
}

/// Fig. 6: unknown-IP peers, firewalled and hidden, plus the peers seen
/// in both groups over the window.
pub fn fig6(series: &[(u64, DailyCensus)], overlap: usize) -> Table {
    let mut t = Table::new(
        "Figure 6: peers with unknown IP addresses",
        "day   unknown-IP   firewalled   hidden",
        vec![
            Column::new("day", "", 3),
            Column::new("unknown_ip", "   ", 10),
            Column::new("firewalled", "   ", 10),
            Column::new("hidden", "   ", 6),
        ],
    );
    for (d, c) in series {
        t.row(vec![(*d).into(), c.unknown_ip.into(), c.firewalled.into(), c.hidden.into()]);
    }
    t.footer(format!("window overlap (fw ∩ hidden over time): {overlap}"));
    t.csv_note(format!("window-overlap,{overlap}"));
    t
}

/// Fig. 7: the share of a cohort staying `days` days, continuously and
/// intermittently.
pub fn fig7(c: &ChurnCurves, days: &[usize]) -> Table {
    let mut t = Table::new(
        "Figure 7: % of peers staying in the network for n days",
        "days   continuous   intermittent",
        vec![
            Column::new("days", "", 4),
            Column::new("continuous_pct", "   ", 9).decimals(2, Some(2)).suffix("%"),
            Column::new("intermittent_pct", "   ", 11).decimals(2, Some(2)).suffix("%"),
        ],
    );
    t.note(format!("cohort size: {}", c.cohort));
    for &n in days {
        t.row(vec![n.into(), c.continuous_at(n).into(), c.intermittent_at(n).into()]);
    }
    t.csv_note(format!("cohort,{}", c.cohort));
    t
}

/// The rows of a Figs. 8/12 histogram: bucket `k` (the last one
/// open-ended, `k+`), its peers, and their share of `whole`.
fn bucket_rows(t: &mut Table, hist: &[usize], whole: usize) {
    for (k, &n) in hist.iter().enumerate().skip(1) {
        let label = if k == hist.len() - 1 { format!("{k}+") } else { k.to_string() };
        t.row(vec![label.into(), n.into(), pct(n, whole).into()]);
    }
}

/// Fig. 8: how many IP addresses each known-IP peer used.
pub fn fig8(r: &IpChurnReport) -> Table {
    let mut t = Table::new(
        "Figure 8: number of IP addresses I2P peers are associated with",
        "IPs    peers      % of known-IP peers",
        vec![
            Column::new("ips", "", 4),
            Column::new("peers", "   ", 7),
            Column::new("pct_of_known_ip", "    ", 6).decimals(2, Some(2)).suffix("%"),
        ],
    );
    bucket_rows(&mut t, &r.ip_hist, r.known_ip_peers);
    t.footer(format!("known-IP peers: {}", r.known_ip_peers));
    t.footer(format!(
        "single-IP: {:.1}%   multi-IP: {:.1}%   >100 IPs: {} peers ({:.2}%)",
        pct(r.ip_hist[1], r.known_ip_peers), // i2plint: allow(index-literal) -- ip_hist always has IP_BUCKETS + 1 >= 2 slots
        pct(r.multi_ip_peers, r.known_ip_peers),
        r.over_100_ips,
        pct(r.over_100_ips, r.known_ip_peers),
    ));
    t.csv_note(format!("known-ip-peers,{}", r.known_ip_peers));
    t
}

/// Fig. 9: observed peers per capacity class (daily average).
pub fn fig9(h: &CapacityHistogram) -> Table {
    let mut t = Table::new(
        "Figure 9: capacity distribution of I2P peers (daily average)",
        "class   observed peers",
        vec![Column::new("class", "", 5), Column::new("observed_peers", "   ", 12)],
    );
    for (class, &n) in CLASSES.iter().zip(&h.counts) {
        t.row(vec![(*class).into(), n.into()]);
    }
    t
}

/// Table 1: the share of each bandwidth class in each router group,
/// plus the group sizes and the §5.3.1 population estimate.
pub fn table1(t1: &BandwidthTable, est: &FloodfillEstimate) -> Table {
    let share = |csv, sep, width| Column::new(csv, sep, width).decimals(2, Some(2)).suffix("%");
    let mut t = Table::new(
        "Table 1: % of routers per bandwidth class and group",
        "class   floodfill   reachable   unreachable     total",
        vec![
            Column::new("class", "", 5),
            share("floodfill_pct", "   ", 8),
            share("reachable_pct", "   ", 8),
            share("unreachable_pct", "   ", 10),
            share("total_pct", "   ", 6),
        ],
    );
    for (i, class) in CLASSES.iter().enumerate() {
        let shares = [t1.floodfill[i], t1.reachable[i], t1.unreachable[i], t1.total[i]];
        t.row([Cell::from(*class)].into_iter().chain(shares.map(Cell::from)).collect());
    }
    let [ff_n, reach_n, unreach_n, total_n] = t1.group_sizes;
    t.footer(format!(
        "groups: floodfill {ff_n} / reachable {reach_n} / unreachable {unreach_n} / total {total_n}"
    ));
    t.footer(format!(
        "qualified floodfills: {} of {} ({:.0}%)  →  population ≈ {:.0} (÷0.06)",
        est.qualified_floodfills,
        est.observed_floodfills,
        est.qualified_share * 100.0,
        est.estimated_population
    ));
    t.csv_note(format!("group-sizes,{ff_n},{reach_n},{unreach_n},{total_n}"));
    t.csv_note(format!(
        "floodfill-estimate,{},{},{:.4},{:.0}",
        est.qualified_floodfills,
        est.observed_floodfills,
        est.qualified_share,
        est.estimated_population
    ));
    t
}

/// The top `top` rows of a Figs. 10/11 ranking: rank, label, peers and
/// the cumulative share.
fn ranked_rows(t: &mut Table, rows: &[RankedRow], top: usize) {
    for (i, row) in rows.iter().take(top).enumerate() {
        let (label, peers) = (row.label.as_str(), row.peers);
        t.row(vec![(i + 1).into(), label.into(), peers.into(), row.cumulative_pct.into()]);
    }
}

/// Fig. 10: the top `top` countries, plus the censored-country totals.
pub fn fig10(rep: &GeoReport, top: usize) -> Table {
    let mut t = Table::new(
        "Figure 10: top countries where I2P peers reside",
        "rank   country              peers    cumulative",
        vec![
            Column::new("rank", "", 4),
            Column::new("country", "   ", 18).left(),
            Column::new("peers", "   ", 6),
            Column::new("cumulative_pct", "    ", 8).decimals(1, Some(1)).suffix("%"),
        ],
    );
    ranked_rows(&mut t, &rep.rows, top);
    t.footer(format!(
        "censored countries (press freedom > 50): {} with {} peers; countries observed: {}; unresolved addresses: {}",
        rep.censored_countries, rep.censored_peers, rep.countries_observed, rep.unresolved_addresses
    ));
    t.csv_note(format!(
        "censored,{},{} # observed,{} # unresolved,{}",
        rep.censored_countries, rep.censored_peers, rep.countries_observed, rep.unresolved_addresses
    ));
    t
}

/// Fig. 11: the top `top` autonomous systems.
pub fn fig11(rep: &AsReport, top: usize) -> Table {
    let mut t = Table::new(
        "Figure 11: top autonomous systems where I2P peers reside",
        "rank   ASN        peers    cumulative",
        vec![
            Column::new("rank", "", 4),
            Column::new("asn", "   AS", 7).left(),
            Column::new("peers", "  ", 6),
            Column::new("cumulative_pct", "    ", 8).decimals(1, Some(1)).suffix("%"),
        ],
    );
    ranked_rows(&mut t, &rep.rows, top);
    t
}

/// Fig. 12: how many ASes each multi-IP peer spans.
pub fn fig12(r: &IpChurnReport) -> Table {
    let mut t = Table::new(
        "Figure 12: number of ASes in which multi-IP peers reside",
        "ASes   peers      % of multi-IP peers",
        vec![
            Column::new("ases", "", 4),
            Column::new("peers", "   ", 7),
            Column::new("pct_of_multi_ip", "    ", 6).decimals(2, Some(2)).suffix("%"),
        ],
    );
    bucket_rows(&mut t, &r.as_hist, r.multi_ip_peers);
    t.footer(format!("max ASes for one peer: {}   max countries: {}", r.max_ases, r.max_countries));
    t.csv_note(format!("max-ases,{} # max-countries,{}", r.max_ases, r.max_countries));
    t
}

/// Fig. 13 renderer.
pub fn render_fig13(series: &[BlockingSeries]) -> String {
    let title = "Figure 13: blocking rates under different blacklist time windows";
    let mut out = format!("{title}\n{}\n", "-".repeat(title.len()));
    out.push_str("routers");
    for s in series {
        let _ = write!(out, "   {:>2}-day", s.window_days);
    }
    out.push('\n');
    if let Some(first) = series.first() {
        for i in 0..first.points.len() {
            let _ = write!(out, "{:>7}", first.points[i].0);
            for s in series {
                let _ = write!(out, "   {:>5.1}%", s.points[i].1);
            }
            out.push('\n');
        }
    }
    out
}

/// Fig. 13 CSV: `window_days,routers,blocking_pct`, one row per matrix
/// cell.
pub fn csv_fig13(series: &[BlockingSeries]) -> String {
    let mut out = String::from("window_days,routers,blocking_pct\n");
    for s in series {
        for &(routers, pct) in &s.points {
            let _ = writeln!(out, "{},{routers},{pct:.1}", s.window_days);
        }
    }
    out
}

/// Fig. 14: timeouts and page-load time per blocking rate. The ±
/// columns are 95 % confidence half-widths pooled over the point's
/// fetches and replicates; CSV adds both counts per row.
pub fn fig14(points: &[UsabilityPoint]) -> Table {
    let mut t = Table::new(
        "Figure 14: timeouts and page-load latency under blockage",
        "blocking   timed-out requests   page load time",
        vec![
            Column::new("blocking_pct", "", 7).decimals(0, Some(0)).suffix("%"),
            Column::new("timeout_pct", "   ", 11).decimals(0, Some(1)).suffix("%"),
            Column::new("timeout_ci95", " ±", 4).decimals(1, Some(2)),
            Column::new("load_s", "   ", 7).decimals(1, Some(2)),
            Column::new("load_ci95", " ±", 4).decimals(1, Some(2)).suffix(" s"),
            Column::csv_only("replicates"),
            Column::csv_only("fetches"),
        ],
    );
    let reps = points.first().map_or(1, |p| p.replicates);
    let fetches = points.first().map_or(0, |p| p.fetches.len());
    t.note(format!("({fetches} fetches per rate across {reps} replicate(s))"));
    for p in points {
        t.row(vec![
            p.blocking_rate_pct.into(),
            p.timeout_pct.into(),
            p.timeout_ci95_pct.into(),
            p.avg_load_time_s.into(),
            p.load_ci95_s.into(),
            p.replicates.into(),
            p.fetches.len().into(),
        ]);
    }
    t
}

/// Fig. 14 in the paper's layout.
pub fn render_fig14(points: &[UsabilityPoint]) -> String {
    fig14(points).text()
}

/// The Sybil sweep (the `i2pscope sybil` report): eclipse and census
/// damage per Sybil count.
pub fn sybil_sweep(s: &SybilSweep) -> Table {
    let share = |csv, width| Column::new(csv, "   ", width).decimals(1, Some(2)).suffix("%");
    let mut t = Table::new(
        "Sybil sweep: eclipse and census damage vs Sybil count",
        "sybils   ground/day   eclipse   lookup-fail   queries   coverage   target-seen",
        vec![
            Column::new("sybils", "", 6),
            Column::new("ground_per_day", "   ", 10),
            share("eclipse_pct", 6),
            share("lookup_fail_pct", 10),
            Column::new("mean_queries", "   ", 7).decimals(1, Some(2)),
            share("coverage_pct", 7),
            Column::new("target_seen_days", "   ", 6),
            Column::new("days", "/", 0),
        ],
    );
    t.note(format!(
        "target peer {} vs ~{:.0} honest floodfills; clean keyspace coverage {:.1}%",
        s.target_id,
        s.mean_floodfills,
        100.0 * s.baseline_coverage
    ));
    for p in &s.points {
        t.row(vec![
            p.sybils.into(),
            p.ground_per_day.into(),
            (100.0 * p.eclipse_prob()).into(),
            (100.0 * p.lookup_failure_rate()).into(),
            p.mean_queries.into(),
            (100.0 * p.coverage).into(),
            p.target_seen_days.into(),
            p.days.into(),
        ]);
    }
    t.csv_note(format!(
        "target,{} # mean_floodfills,{:.1} # baseline_coverage_pct,{:.2}",
        s.target_id,
        s.mean_floodfills,
        100.0 * s.baseline_coverage
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data rows of a CSV blob: everything after the header line that
    /// is not a `#` comment.
    fn csv_rows(csv: &str) -> Vec<&str> {
        csv.lines().skip(1).filter(|l| !l.starts_with('#')).collect()
    }

    #[test]
    fn printers_lay_out_every_kind_of_column() {
        // "Tâble §": 7 characters, 9 bytes.
        let mut t = Table::new(
            "Tâble §",
            "name   tag    share   raw",
            vec![
                Column::new("name", "", 6).left(),
                Column::text_only(" ", 3),
                Column::new("share", "  ", 6).decimals(1, Some(2)).suffix("%"),
                Column::new("raw", "  ", 4),
                Column::csv_only("n"),
            ],
        );
        t.note("a note".to_string());
        t.row(vec!["ab".into(), "x".into(), 12.3125.into(), 0.125.into(), 7usize.into()]);
        t.row(vec!["abcdefg".into(), "yz".into(), 5.0.into(), 2.75.into(), 11u64.into()]);
        t.footer("a footer".to_string());
        t.csv_note("k,1".to_string());
        assert_eq!(
            t.text(),
            "Tâble §\n\
             ---------\n\
             a note\n\
             name   tag    share   raw\n\
             ab       x    12.3%     0\n\
             abcdefg  yz     5.0%     3\n\
             a footer\n"
        );
        assert_eq!(t.csv(), "name,share,raw,n\nab,12.31,0.125,7\nabcdefg,5.00,2.75,11\n# k,1\n");
        let t = Table::new("A → B", "h", vec![]).underline_chars();
        assert_eq!(t.text(), "A → B\n-----\nh\n");
    }

    #[test]
    fn tables_print_their_rows() {
        let fig4 = fig4(&[(1, 100), (2, 150), (3, 170)]).text();
        assert!(fig4.contains("Figure 4"));
        assert!(fig4.lines().count() >= 6);
        assert!(fig4.contains("100.0%"), "last row is max: {fig4}");

        let churn = ChurnCurves {
            continuous: vec![100.0, 80.0, 60.0],
            intermittent: vec![100.0, 90.0, 70.0],
            cohort: 42,
        };
        let fig7 = fig7(&churn, &[1, 2]).text();
        assert!(fig7.contains("cohort size: 42"));
        assert!(fig7.contains("80.00%"));

        let fig13 = render_fig13(&[BlockingSeries {
            window_days: 1,
            points: vec![(2, 65.0), (20, 95.5)],
        }]);
        assert!(fig13.contains("95.5%"));

        let fig14 = render_fig14(&[UsabilityPoint {
            blocking_rate_pct: 65.0,
            avg_load_time_s: 21.5,
            timeout_pct: 40.0,
            load_ci95_s: 3.2,
            timeout_ci95_pct: 9.8,
            replicates: 3,
            fetches: vec![],
        }]);
        assert!(fig14.contains("21.5 ± 3.2 s"));
        assert!(fig14.contains("40% ± 9.8"));
        assert!(fig14.contains("3 replicate"));
    }

    #[test]
    fn csv_parses_back_and_matches_the_text_row_counts() {
        // Fig. 2: 5 + 5 data rows, same count as the text layout's.
        let series = SingleRouterSeries {
            floodfill: (1..=5).map(|d| (d, 100 + d as usize)).collect(),
            non_floodfill: (6..=10).map(|d| (d, 90 + d as usize)).collect(),
        };
        let table = fig2(&series);
        // Text data rows are exactly the lines naming a mode.
        let text_rows = table.text().lines().filter(|l| l.contains("floodfill")).count();
        let csv = table.csv();
        let rows = csv_rows(&csv);
        assert_eq!(rows.len(), 10);
        assert_eq!(rows.len(), text_rows);
        for row in &rows {
            let cols: Vec<&str> = row.split(',').collect();
            assert_eq!(cols.len(), 3);
            cols[0].parse::<u64>().unwrap();
            assert!(cols[1] == "floodfill" || cols[1] == "non-floodfill");
            cols[2].parse::<usize>().unwrap();
        }

        // Fig. 4: one row per curve point; percentages parse as f64 and
        // the last row is 100.0 % of max.
        let curve = vec![(1, 100), (2, 150), (3, 170)];
        let table = fig4(&curve);
        let csv = table.csv();
        let rows = csv_rows(&csv);
        assert_eq!(rows.len(), curve.len());
        let text_rows = table
            .text()
            .lines()
            .filter(|l| l.trim_start().chars().next().is_some_and(|c| c.is_ascii_digit()))
            .count();
        assert_eq!(rows.len(), text_rows);
        let last: Vec<&str> = rows.last().unwrap().split(',').collect();
        assert_eq!(last[2].parse::<f64>().unwrap(), 100.0);

        // Fig. 14: all seven columns parse; row count matches text.
        let point = |blocking_rate_pct, avg_load_time_s, timeout_pct| UsabilityPoint {
            blocking_rate_pct,
            avg_load_time_s,
            timeout_pct,
            load_ci95_s: 0.2,
            timeout_ci95_pct: 0.0,
            replicates: 2,
            fetches: vec![],
        };
        let points = vec![point(0.0, 3.4, 0.0), point(65.0, 21.5, 40.0)];
        let table = fig14(&points);
        let csv = table.csv();
        let rows = csv_rows(&csv);
        assert_eq!(rows.len(), points.len());
        let text_rows = table
            .text()
            .lines()
            .filter(|l| l.trim_start().chars().next().is_some_and(|c| c.is_ascii_digit())
                && l.contains('%'))
            .count();
        assert_eq!(rows.len(), text_rows);
        for row in &rows {
            let cols: Vec<&str> = row.split(',').collect();
            assert_eq!(cols.len(), 7);
            for c in &cols[..5] {
                c.parse::<f64>().unwrap();
            }
            assert_eq!(cols[5].parse::<usize>().unwrap(), 2);
        }

        // The remaining tables: header column count equals every data
        // row's column count, and numeric columns parse.
        let churn = ChurnCurves {
            continuous: vec![100.0, 80.0, 60.0],
            intermittent: vec![100.0, 90.0, 70.0],
            cohort: 42,
        };
        let census = vec![
            (0u64, DailyCensus { peers: 10, all_ips: 8, ipv4: 6, ipv6: 2, unknown_ip: 4, firewalled: 3, hidden: 1 }),
            (3u64, DailyCensus { peers: 12, all_ips: 9, ipv4: 7, ipv6: 2, unknown_ip: 5, firewalled: 4, hidden: 1 }),
        ];
        let ipchurn = IpChurnReport {
            ip_hist: vec![0, 5, 3, 1],
            as_hist: vec![0, 3, 1],
            known_ip_peers: 9,
            multi_ip_peers: 4,
            over_100_ips: 0,
            max_ases: 3,
            max_countries: 2,
        };
        for table in [
            fig5(&census),
            fig6(&census, 7),
            fig7(&churn, &[1, 2]),
            fig8(&ipchurn),
            fig12(&ipchurn),
        ] {
            let csv = table.csv();
            let header_cols = csv.lines().next().unwrap().split(',').count();
            let rows = csv_rows(&csv);
            assert!(!rows.is_empty());
            for row in rows {
                assert_eq!(row.split(',').count(), header_cols, "row {row:?} in {csv}");
            }
        }
    }
}
