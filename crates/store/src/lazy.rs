//! Lazy, file-backed snapshot replay.
//!
//! [`Snapshot::read_from`](crate::Snapshot::read_from) materializes the
//! whole archive — every observation row, RouterInfo wire record and
//! sighting lane of every day — before the first figure is computed. At
//! million-router scale that is the dominant peak allocation of the
//! replay pipeline, and almost all of it is dead weight: a figure query
//! touches one day at a time.
//!
//! [`LazySnapshot`] keeps the file open instead. At `open` it decodes
//! the checksummed prelude (magic, version, header) eagerly, walks the
//! segment stream recording only each day's byte extent (validating tag
//! structure and day sequence as it goes), and verifies the whole-file
//! trailer checksum through the streaming [`format::Hasher`] in
//! O(chunk) memory. Day segments are then seeked, checksummed and
//! decoded on demand behind [`SnapshotSource`], with a tiny
//! deterministic most-recently-used cache — so peak memory is
//! O(largest day), not O(archive), and replayed figures remain
//! byte-identical to the eager loader's (pinned by
//! `tests/scale_parity.rs`). Every cache miss is ledgered by the
//! `segments_lazy_loaded` counter.

use crate::format::{checksum, Hasher, CHECKSUM_LEN, MAGIC, SEGMENT_TAG, TRAILER_TAG};
use crate::snapshot::{verify_segment_router_infos, DaySegment};
use crate::{SnapshotMeta, StoreError};
use i2p_data::codec::Reader;
use i2p_geoip::GeoDb;
use i2p_measure::source::{DayUnion, SnapshotSource};
use std::cell::RefCell;
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::ops::Range;
use std::path::Path;
use std::rc::Rc;

/// Decoded segments kept hot. The figure pass (`render_figures` in the
/// `i2pscope` CLI) is day-major: it makes every query for a day —
/// coverage ledger, Fig. 4 curve, one observation or union walk — back
/// to back and never revisits the day, so one slot already gives it one
/// decode per day. The second slot lets other callers alternate between
/// two days (a day-pair comparison, a re-query of the previous day)
/// without reloading either, for one more decoded day in the replay's
/// peak. The size is fixed so the load sequence — and therefore the
/// lazy-load counter — stays a pure function of the query sequence.
const CACHE_SEGMENTS: usize = 2;

/// Chunk size of the streaming trailer verification at open.
const VERIFY_CHUNK: usize = 1 << 16;

/// Fixed prelude prefix: magic, version, header length field.
const PRELUDE_FIXED: usize = MAGIC.len() + 2 + 4;

/// Byte extent of one day segment's body within the file (its checksum
/// follows immediately after).
struct SegmentLoc {
    body_offset: u64,
    body_len: usize,
}

/// A snapshot replayed straight off its file, one day segment at a
/// time. See the module docs for the loading contract.
pub struct LazySnapshot {
    meta: SnapshotMeta,
    geo: GeoDb,
    file: RefCell<File>,
    segments: Vec<SegmentLoc>,
    /// MRU-front decoded-segment cache: `(day index, segment)`.
    cache: RefCell<Vec<(usize, Rc<DaySegment>)>>,
}

impl LazySnapshot {
    /// Opens an archive lazily: eager prelude decode, a structural walk
    /// of the segment stream (tags, lengths, day sequence), and a
    /// streaming whole-file trailer check — but no segment bodies are
    /// decoded, so open-time memory is O(header + chunk).
    pub fn open(path: impl AsRef<Path>) -> Result<LazySnapshot, StoreError> {
        let _span = i2p_telemetry::span("store.lazy_open");
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();

        // Prelude, strictly: read the fixed prefix for the header
        // length, bound it by the file size (a hostile length field
        // must not force an allocation the file cannot back), then let
        // the wire decoder validate the whole prelude.
        let mut pre = vec![0u8; PRELUDE_FIXED];
        file.read_exact(&mut pre)?;
        let header_len = {
            let mut r = Reader::new(&pre);
            r.bytes(MAGIC.len(), "snapshot.magic")?;
            r.u16("snapshot.version")?;
            r.u32("snapshot.header-len")? as usize
        };
        if (PRELUDE_FIXED + header_len + CHECKSUM_LEN) as u64 > file_len {
            return Err(StoreError::Corrupt { what: "header length" });
        }
        pre.resize(PRELUDE_FIXED + header_len + CHECKSUM_LEN, 0);
        file.read_exact(&mut pre[PRELUDE_FIXED..])?;
        let meta = crate::wire::decode_prelude(&mut Reader::new(&pre))?;

        // Structural walk: record each segment's extent and check the
        // day sequence (each body leads with its absolute day), seeking
        // over the bodies instead of reading them.
        let mut segments = Vec::new();
        let mut pos = pre.len() as u64;
        loop {
            let mut tag = 0u8;
            file.read_exact(std::slice::from_mut(&mut tag))?;
            pos += 1;
            match tag {
                SEGMENT_TAG => {
                    let mut len4 = [0u8; 4];
                    file.read_exact(&mut len4)?;
                    pos += 4;
                    let body_len =
                        Reader::new(&len4).u32("snapshot.segment-len")? as usize;
                    if pos + (body_len + CHECKSUM_LEN) as u64 > file_len || body_len < 8 {
                        return Err(StoreError::Corrupt { what: "segment length" });
                    }
                    let mut day8 = [0u8; 8];
                    file.read_exact(&mut day8)?;
                    let day = Reader::new(&day8).u64("segment.day")?;
                    if day != meta.day_start + segments.len() as u64 {
                        return Err(StoreError::Corrupt { what: "day sequence" });
                    }
                    segments.push(SegmentLoc { body_offset: pos, body_len });
                    pos += (body_len + CHECKSUM_LEN) as u64;
                    file.seek(SeekFrom::Start(pos))?;
                }
                TRAILER_TAG => {
                    let covered = pos - 1;
                    let mut sum = [0u8; CHECKSUM_LEN];
                    file.read_exact(&mut sum)?;
                    pos += CHECKSUM_LEN as u64;
                    if pos != file_len {
                        return Err(StoreError::Corrupt { what: "trailing bytes" });
                    }
                    // Whole-file integrity in O(chunk) memory: the
                    // streaming hasher needs the covered length up
                    // front, which file metadata already gave us.
                    file.seek(SeekFrom::Start(0))?;
                    let mut hasher = Hasher::new(covered as usize);
                    let mut buf = vec![0u8; VERIFY_CHUNK];
                    let mut remaining = covered as usize;
                    while remaining > 0 {
                        let take = VERIFY_CHUNK.min(remaining);
                        file.read_exact(&mut buf[..take])?;
                        hasher.update(&buf[..take]);
                        remaining -= take;
                    }
                    if hasher.finish() != sum {
                        return Err(StoreError::Corrupt { what: "file checksum" });
                    }
                    break;
                }
                _ => return Err(StoreError::Corrupt { what: "unknown tag" }),
            }
        }
        if segments.len() != meta.n_days as usize {
            return Err(StoreError::Corrupt { what: "day count" });
        }
        i2p_telemetry::count(i2p_telemetry::Counter::StoreBytesRead, file_len);
        Ok(LazySnapshot {
            meta,
            geo: GeoDb::new(),
            file: RefCell::new(file),
            segments,
            cache: RefCell::new(Vec::with_capacity(CACHE_SEGMENTS)),
        })
    }

    /// The snapshot's metadata (decoded eagerly at open).
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Seeks, checksums and decodes one day segment, or returns it from
    /// the MRU cache. Each miss is a `segments_lazy_loaded` event.
    fn load_segment(&self, di: usize) -> Result<Rc<DaySegment>, StoreError> {
        {
            let mut cache = self.cache.borrow_mut();
            if let Some(hit) = cache.iter().position(|(d, _)| *d == di) {
                let entry = cache.remove(hit);
                let seg = Rc::clone(&entry.1);
                cache.insert(0, entry);
                return Ok(seg);
            }
        }
        let loc = &self.segments[di];
        let mut buf = vec![0u8; loc.body_len + CHECKSUM_LEN];
        {
            let mut file = self.file.borrow_mut();
            file.seek(SeekFrom::Start(loc.body_offset))?;
            file.read_exact(&mut buf)?;
        }
        let (body, sum) = buf.split_at(loc.body_len);
        if checksum(body) != sum {
            return Err(StoreError::Corrupt { what: "segment checksum" });
        }
        buf.truncate(loc.body_len);
        let seg = Rc::new(crate::wire::decode_segment(buf, self.meta.vantages.len())?);
        i2p_telemetry::count_one(i2p_telemetry::Counter::SegmentsLazyLoaded);
        i2p_telemetry::count_one(i2p_telemetry::Counter::SegmentsDecoded);
        let mut cache = self.cache.borrow_mut();
        cache.insert(0, (di, Rc::clone(&seg)));
        cache.truncate(CACHE_SEGMENTS);
        Ok(seg)
    }

    /// [`load_segment`](Self::load_segment) of `day`, for replay
    /// queries, which have no error channel: the archive was fully
    /// checksummed at open, so a failure here means the file was
    /// truncated or rewritten underneath the replay — abort loudly
    /// rather than return figures off a file that is no longer the one
    /// that was opened.
    fn segment(&self, day: u64) -> Rc<DaySegment> {
        let di = self.meta.day_index(day);
        self.load_segment(di).unwrap_or_else(|e| {
            panic!("lazy snapshot: day segment {di} unreadable after a verified open: {e}") // i2plint: allow(panic-audit) -- the file verified at open; losing it mid-replay is unrecoverable external interference
        })
    }

    /// Streaming [`crate::Snapshot::verify_router_infos`]: decodes and
    /// signature-verifies every archived RouterInfo one day segment at
    /// a time, so verification of a huge archive never holds more than
    /// the cache's worth of segments.
    pub fn verify_router_infos(&self) -> Result<usize, StoreError> {
        let _span = i2p_telemetry::span("store.verify");
        let mut verified = 0usize;
        for di in 0..self.segments.len() {
            let seg = self.load_segment(di)?;
            verified += verify_segment_router_infos(&seg)?;
        }
        i2p_telemetry::count(i2p_telemetry::Counter::RecordsVerified, verified as u64);
        Ok(verified)
    }
}

impl SnapshotSource for LazySnapshot {
    fn days(&self) -> Range<u64> {
        self.meta.days()
    }

    fn vantage_count(&self) -> usize {
        self.meta.vantages.len()
    }

    fn geo(&self) -> &GeoDb {
        &self.geo
    }

    fn count_one(&self, vantage: usize, day: u64) -> usize {
        self.segment(day).count_one(vantage)
    }

    fn count_union_prefix(&self, day: u64, k: usize) -> usize {
        self.segment(day).count_union_prefix(k)
    }

    fn coverage_curve(&self, day: u64) -> Vec<usize> {
        self.segment(day).coverage_curve()
    }

    fn with_day_union(&self, day: u64, k: usize, f: &mut dyn FnMut(&DayUnion<'_>)) {
        f(&self.segment(day).union(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
    use i2p_measure::engine::HarvestEngine;
    use i2p_measure::fleet::Fleet;
    use i2p_measure::{churn, ipchurn, pass, population};
    use i2p_sim::world::{World, WorldConfig};

    /// A scratch path in the system temp dir, cleaned up on drop.
    struct Scratch(std::path::PathBuf);
    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let p = std::env::temp_dir()
                .join(format!("i2ps-lazy-{}-{tag}.i2ps", std::process::id()));
            let _ = std::fs::remove_file(&p);
            Scratch(p)
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Archives a small world under a path of its own: tests run in
    /// parallel, and two writers of one path race on its rename.
    fn archived(tag: &str) -> (Snapshot, Scratch) {
        let world = World::generate(WorldConfig { days: 4, scale: 0.01, seed: 99 });
        let fleet = Fleet::alternating(4);
        let engine = HarvestEngine::build(&world, &fleet, 0..4);
        let snap = Snapshot::capture(&engine);
        let scratch = Scratch::new(tag);
        snap.write_to(&scratch.0).expect("write archive");
        (snap, scratch)
    }

    #[test]
    fn lazy_replay_matches_the_eager_loader_query_for_query() {
        // Segment loads move the process-wide counters, which the
        // exact-delta test beside this one reads: hold the counter lock.
        i2p_telemetry::counters::exclusive(|| {
            let (eager, scratch) = archived("query-parity");
            let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
            assert_eq!(lazy.meta(), eager.meta());
            assert_eq!(SnapshotSource::days(&lazy), SnapshotSource::days(&eager));
            assert_eq!(lazy.vantage_count(), eager.vantage_count());
            for day in 0..4 {
                assert_eq!(lazy.coverage_curve(day), eager.coverage_curve(day), "day {day}");
                for k in 1..=4 {
                    assert_eq!(
                        SnapshotSource::count_union_prefix(&lazy, day, k),
                        SnapshotSource::count_union_prefix(&eager, day, k)
                    );
                }
                for v in 0..4 {
                    assert_eq!(
                        SnapshotSource::count_one(&lazy, v, day),
                        SnapshotSource::count_one(&eager, v, day)
                    );
                }
                let (mut a, mut b) = (Vec::new(), Vec::new());
                lazy.for_each_union_id(day, 4, &mut |id| a.push(id));
                eager.for_each_union_id(day, 4, &mut |id| b.push(id));
                assert_eq!(a, b, "day {day} union ids");
                let (mut a, mut b) = (Vec::new(), Vec::new());
                lazy.for_each_observation_ref(day, 4, &mut |r| a.push(r.clone()));
                eager.for_each_observation_ref(day, 4, &mut |r| b.push(r.clone()));
                assert_eq!(a, b, "day {day} observations");
            }
            assert_eq!(
                lazy.verify_router_infos().expect("streaming verify"),
                eager.verify_router_infos().expect("eager verify")
            );
        });
    }

    #[test]
    fn cache_misses_are_ledgered_and_bounded_by_the_mru() {
        // Exact deltas: no other test may load segments meanwhile.
        i2p_telemetry::counters::exclusive(|| {
            let (_eager, scratch) = archived("mru");
            let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
            let miss = i2p_telemetry::Counter::SegmentsLazyLoaded;
            let before = i2p_telemetry::counters::snapshot();
            // First touch of each day misses; re-touching the two hottest
            // days hits the MRU and loads nothing.
            for day in 0..4 {
                lazy.coverage_curve(day);
            }
            let after_walk = i2p_telemetry::counters::snapshot();
            assert_eq!(after_walk.delta_since(&before).get(miss), 4, "one miss per day");
            lazy.coverage_curve(3);
            lazy.coverage_curve(2);
            lazy.coverage_curve(3);
            let after_rehit = i2p_telemetry::counters::snapshot();
            assert_eq!(after_rehit.delta_since(&after_walk).get(miss), 0, "MRU re-hits load nothing");
            // A colder day evicts and must reload.
            lazy.coverage_curve(0);
            let after_cold = i2p_telemetry::counters::snapshot();
            assert_eq!(after_cold.delta_since(&after_rehit).get(miss), 1, "evicted day reloads");
        });
    }

    #[test]
    fn lazy_open_rejects_corruption_everywhere() {
        let (_eager, scratch) = archived("corruption");
        let bytes = std::fs::read(&scratch.0).expect("read archive");
        let bad_path = Scratch::new("corrupt");
        // Structural and checksum damage at a stride through the file,
        // plus truncations: open must refuse them all (the walk catches
        // structure, the streaming trailer check catches everything
        // else before any query runs).
        let stride = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(stride) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            std::fs::write(&bad_path.0, &bad).expect("plant corrupt");
            assert!(LazySnapshot::open(&bad_path.0).is_err(), "flip at {pos} undetected");
        }
        for cut in [0, PRELUDE_FIXED, bytes.len() / 2, bytes.len() - 1] {
            std::fs::write(&bad_path.0, &bytes[..cut]).expect("plant truncated");
            assert!(LazySnapshot::open(&bad_path.0).is_err(), "cut {cut} undetected");
        }
    }

    #[test]
    fn forged_peer_ids_cannot_size_the_figure_state() {
        // Segment decoding accepts any row id up to u32::MAX, so the
        // per-peer figure state must not be sized by one. The archive's
        // highest id ends every day it appears on; raised to
        // u32::MAX - 1 wherever it appears, the rows stay ascending and
        // the relabelling is one-to-one, so the figures that ignore id
        // values must not move.
        let world = World::generate(WorldConfig { days: 6, scale: 0.01, seed: 99 });
        let engine = HarvestEngine::build(&world, &Fleet::alternating(4), 0..6);
        let clean = Snapshot::capture(&engine);
        let mut forged = Snapshot::capture(&engine);
        let top = clean
            .days
            .iter()
            .filter_map(|seg| seg.observations.last())
            .map(|rec| rec.peer_id)
            .max()
            .expect("a non-empty archive");
        assert!(top < u32::MAX - 1);
        let mut raised = 0;
        for seg in &mut forged.days {
            if let Some(rec) = seg.observations.last_mut().filter(|rec| rec.peer_id == top) {
                rec.peer_id = u32::MAX - 1;
                raised += 1;
            }
        }
        assert!(raised > 0);
        let (clean_path, forged_path) = (Scratch::new("ids-clean"), Scratch::new("ids-forged"));
        clean.write_to(&clean_path.0).expect("write clean archive");
        // `to_bytes` recomputes every checksum over the forged rows.
        std::fs::write(&forged_path.0, forged.to_bytes().expect("encode")).expect("write forged");
        let clean = LazySnapshot::open(&clean_path.0).expect("open clean");
        let forged = LazySnapshot::open(&forged_path.0).expect("open forged");
        let mut highest = 0;
        for day in SnapshotSource::days(&forged) {
            forged.for_each_union_id(day, 4, &mut |id| highest = highest.max(id));
        }
        assert_eq!(highest, u32::MAX - 1, "the forged id survives decoding");
        let fig7 = |src: &LazySnapshot| format!("{:?}", churn::churn_curves_from(src, 3));
        let fig8_12 = |src: &LazySnapshot| {
            let table = ipchurn::ip_table_from(src, 0..6);
            format!("{:?}", ipchurn::IpChurnReport::from_table(&table))
        };
        let fig6 = |src: &LazySnapshot| population::firewalled_hidden_overlap_from(src, 0..6);
        assert_eq!(fig7(&forged), fig7(&clean), "Fig. 7");
        assert_eq!(fig8_12(&forged), fig8_12(&clean), "Figs. 8/12");
        assert_eq!(fig6(&forged), fig6(&clean), "Fig. 6 overlap");
        // The figure pass keys its per-shard state by the shards that
        // occur: the forged id adds one shard near 2^20, not a table up
        // to it, and the split pass finishes with the unforged numbers.
        let split = |src: &LazySnapshot| {
            let folds = pass::figure_pass(src, pass::Wants::ALL, 2);
            format!(
                "{:?} {:?} {} {:?} {:?} {:?} {:?} {:?}",
                folds.curve.finish(),
                folds.census,
                folds.overlap.finish(),
                folds.survival.finish(),
                ipchurn::IpChurnReport::from_table(&folds.ips),
                folds.letters.finish(),
                folds.bandwidth.finish(),
                folds.floodfill.finish(),
            )
        };
        assert_eq!(split(&forged), split(&clean), "the split figure pass");
    }
}
