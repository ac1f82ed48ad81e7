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
//! O(chunk) memory. Day segments are then read, checksummed and
//! decoded on demand behind [`SnapshotSource`], with a tiny
//! deterministic most-recently-used cache — so peak memory is
//! O(largest day), not O(archive), and replayed figures remain
//! byte-identical to the eager loader's (pinned by
//! `tests/scale_parity.rs`).
//!
//! Loads run where the caller asks. A query that misses the cache loads
//! its day on the calling thread. The figure pass announces each batch
//! of two days first ([`SnapshotSource::read_ahead`]), and when it has
//! two workers or more, the batch's missing days are then loaded on the
//! pass's claim-loop workers, one day a worker, the calling thread
//! among them. Either way a load does the same positional read,
//! segment checksum and decode, inside one `store.segment_load` span on
//! the thread that runs it, and every load is ledgered by the
//! `segments_lazy_loaded` counter. A read-ahead load that fails is
//! dropped; the query for its day then misses and reports the failure
//! as any on-demand load does. The reader is `Sync`: loads read the
//! file at explicit offsets, the cache sits behind a lock, and decoded
//! segments are shared behind `Arc`.

use crate::format::{checksum, Hasher, CHECKSUM_LEN, MAGIC, SEGMENT_TAG, TRAILER_TAG};
use crate::snapshot::{verify_segment_router_infos, DaySegment};
use crate::{SnapshotMeta, StoreError};
use i2p_data::codec::Reader;
use i2p_geoip::GeoDb;
use i2p_measure::source::{DayUnion, SnapshotSource};
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Decoded segments kept hot. The figure pass (`i2p_measure::pass`) is
/// day-major: it makes every query for a day — coverage ledger, Fig. 4
/// curve, one union listing — back to back and never revisits the day.
/// It reads ahead two days at a time
/// (`i2p_measure::pass::READ_AHEAD_DAYS`), so both slots hold the batch
/// its workers decoded, and each day is still decoded once. Outside the
/// pass the second slot lets callers alternate between two days (a
/// day-pair comparison, a re-query of the previous day) without
/// reloading either. The size is fixed so the load sequence — and
/// therefore the lazy-load counter — stays a pure function of the
/// query and read-ahead sequence, whatever thread runs each load.
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
    /// The open archive. Loads read it at explicit offsets
    /// ([`read_exact_at`]), never through its cursor.
    file: File,
    segments: Vec<SegmentLoc>,
    /// MRU-front decoded-segment cache: `(day index, segment)`. Never
    /// locked while a segment loads.
    cache: Mutex<Vec<(usize, Arc<DaySegment>)>>,
}

/// Locks `m`, recovering the guard from a poisoned lock: every cache
/// update leaves a valid cache (at worst one entry short).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fills `buf` from `file` at `offset` with a positional read, which
/// moves no shared cursor, so workers load different days at once.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// [`read_exact_at`] where the standard library has no positional read:
/// one lock keeps each seek with its read.
#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    static CURSOR: Mutex<()> = Mutex::new(());
    let _cursor = lock(&CURSOR);
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
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
            file,
            segments,
            cache: Mutex::new(Vec::with_capacity(CACHE_SEGMENTS)),
        })
    }

    /// The snapshot's metadata (decoded eagerly at open).
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Reads, checksums and decodes day segment `di`, bypassing
    /// the cache, on the thread that calls it: one `store.segment_load`
    /// span and, if it succeeds, one `segments_lazy_loaded` event.
    fn read_segment(&self, di: usize) -> Result<DaySegment, StoreError> {
        let _span = i2p_telemetry::span("store.segment_load");
        let loc = &self.segments[di];
        let mut buf = vec![0u8; loc.body_len + CHECKSUM_LEN];
        read_exact_at(&self.file, &mut buf, loc.body_offset)?;
        let (body, sum) = buf.split_at(loc.body_len);
        if checksum(body) != sum {
            return Err(StoreError::Corrupt { what: "segment checksum" });
        }
        buf.truncate(loc.body_len);
        let seg = crate::wire::decode_segment(buf, self.meta.vantages.len())?;
        i2p_telemetry::count_one(i2p_telemetry::Counter::SegmentsLazyLoaded);
        i2p_telemetry::count_one(i2p_telemetry::Counter::SegmentsDecoded);
        Ok(seg)
    }

    /// Day segment `di` from the MRU cache, or [read](Self::read_segment)
    /// on the calling thread and cached.
    fn load_segment(&self, di: usize) -> Result<Arc<DaySegment>, StoreError> {
        {
            let mut cache = lock(&self.cache);
            if let Some(hit) = cache.iter().position(|(d, _)| *d == di) {
                let entry = cache.remove(hit);
                let seg = Arc::clone(&entry.1);
                cache.insert(0, entry);
                return Ok(seg);
            }
        }
        let seg = Arc::new(self.read_segment(di)?);
        let mut cache = lock(&self.cache);
        cache.insert(0, (di, Arc::clone(&seg)));
        cache.truncate(CACHE_SEGMENTS);
        Ok(seg)
    }

    /// [`load_segment`](Self::load_segment) of `day`, for replay
    /// queries, which have no error channel: the archive was fully
    /// checksummed at open, so a failure here means the file was
    /// truncated or rewritten underneath the replay — abort loudly
    /// rather than return figures off a file that is no longer the one
    /// that was opened.
    fn segment(&self, day: u64) -> Arc<DaySegment> {
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

    /// Takes the first [`CACHE_SEGMENTS`] days of `days` in the archive
    /// as the batch, loads those the cache lacks, one a worker, through
    /// `i2p_measure::lab::claim`, and leaves the batch at the front of
    /// the cache in day order. Older days are evicted before the loads
    /// start, so the cache never holds more than [`CACHE_SEGMENTS`]
    /// decoded days. A failed load leaves its day uncached and
    /// unreported: the query for the day loads it again, on the calling
    /// thread, and reports the failure.
    ///
    /// Does nothing unless two loads can run at once. One load at a time
    /// is what the queries do anyway, and ahead of them it only decodes
    /// a day before the previous one is folded, which made the
    /// one-worker pass slower.
    fn read_ahead(&self, days: Range<u64>, workers: usize) {
        let span = self.meta.days();
        let batch: Vec<usize> = (days.start.max(span.start)..days.end.min(span.end))
            .take(CACHE_SEGMENTS)
            .map(|day| self.meta.day_index(day))
            .collect();
        let mut cache = lock(&self.cache);
        let missing: Vec<usize> =
            batch.iter().copied().filter(|di| cache.iter().all(|(d, _)| d != di)).collect();
        if workers.min(missing.len()) < 2 {
            return;
        }
        let mut others = 0;
        cache.retain(|(d, _)| {
            batch.contains(d) || {
                others += 1;
                others + batch.len() <= CACHE_SEGMENTS
            }
        });
        drop(cache);
        let loaded = i2p_measure::lab::claim(missing.len(), workers, Vec::new, |out, i| {
            if let Ok(seg) = self.read_segment(missing[i]) {
                out.push((missing[i], Arc::new(seg)));
            }
        });
        let mut cache = lock(&self.cache);
        cache.extend(loaded.into_iter().flatten());
        // Stable: the batch in day order, then the older days as they were.
        cache.sort_by_key(|(d, _)| batch.iter().position(|b| b == d).unwrap_or(batch.len()));
        cache.truncate(CACHE_SEGMENTS);
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
        // Segment loads move the counters that the exact-delta tests
        // beside this one read: hold the counter lock while replaying.
        i2p_telemetry::counters::exclusive(|| {
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
            assert_eq!(pass_digest(&forged, 2), pass_digest(&clean, 2), "the split figure pass");
        });
    }

    /// Every finished fold of a full figure pass over `src` at `workers`
    /// workers, printed.
    fn pass_digest(src: &dyn SnapshotSource, workers: usize) -> String {
        let folds = pass::figure_pass(src, pass::Wants::ALL, workers);
        format!(
            "{:?} {:?} {:?} {} {:?} {:?} {:?} {:?} {:?}",
            folds.coverage,
            folds.curve.finish(),
            folds.census,
            folds.overlap.finish(),
            folds.survival.finish(),
            ipchurn::IpChurnReport::from_table(&folds.ips),
            folds.letters.finish(),
            folds.bandwidth.finish(),
            folds.floodfill.finish(),
        )
    }

    #[test]
    fn a_pass_decodes_each_day_once_at_any_worker_count() {
        let (eager, scratch) = archived("pass-once");
        let expected = pass_digest(&eager, 1);
        for workers in [1, 2, 3] {
            let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
            // Exact deltas: no other test may load segments meanwhile.
            let (delta, got) = i2p_telemetry::counters::exclusive(|| pass_digest(&lazy, workers));
            for counter in [
                i2p_telemetry::Counter::SegmentsLazyLoaded,
                i2p_telemetry::Counter::SegmentsDecoded,
            ] {
                assert_eq!(delta.get(counter), 4, "{counter:?} at {workers} workers");
            }
            assert_eq!(got, expected, "the pass differs from the eager one at {workers} workers");
        }
    }

    #[test]
    fn a_segment_damaged_after_open_still_fails_loudly() {
        use std::io::Write as _;
        let (_eager, scratch) = archived("damaged");
        for workers in [1, 2] {
            // Day 2 loads in the pass's second read-ahead batch, beside
            // day 3, on a worker that may not be the calling thread.
            let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
            let loc = &lazy.segments[2];
            let at = loc.body_offset + loc.body_len as u64 / 2;
            let flip = |file: &mut File| {
                let mut byte = [0u8];
                file.seek(SeekFrom::Start(at))?;
                file.read_exact(&mut byte)?;
                file.seek(SeekFrom::Start(at))?;
                file.write_all(&[byte[0] ^ 0x01])
            };
            let mut file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&scratch.0)
                .expect("open for damage");
            flip(&mut file).expect("flip a body byte");
            // The loads before the damaged day move the counters, which
            // the exact-delta tests beside this one read.
            let (_, caught) = i2p_telemetry::counters::exclusive(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pass::figure_pass(&lazy, pass::Wants::ALL, workers)
                }))
            });
            flip(&mut file).expect("restore the byte");
            let panic = caught.err().expect("a damaged segment must abort the pass");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.starts_with(
                    "lazy snapshot: day segment 2 unreadable after a verified open: "
                ),
                "at {workers} workers: {message}"
            );
        }
    }
}
