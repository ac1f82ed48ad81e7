//! Lazy, file-backed snapshot replay.
//!
//! An eager load ([`Snapshot::from_bytes`](crate::Snapshot::from_bytes))
//! decodes every observation row, RouterInfo wire record and sighting
//! lane of every day before the first figure is computed. At
//! million-router scale that is the dominant peak allocation of the
//! replay pipeline, and almost all of it is dead weight: a figure query
//! touches one day at a time.
//!
//! [`LazySnapshot`] keeps the file open instead. Its `open` is the walk
//! every load shares (`wire::walk`) with a step that only keeps each
//! day's extent: it checks the prelude, the tag structure, each body's
//! day stamp and the whole-file trailer checksum, streamed in O(chunk)
//! memory, and decodes no body. Day segments are then read, checksummed
//! and decoded on demand, by the eager loads' own step, behind
//! [`SnapshotSource`], with a tiny deterministic most-recently-used
//! cache, so peak memory is O(largest day), not O(archive), and
//! replayed figures remain byte-identical to the eager loader's (pinned
//! by `tests/scale_parity.rs`).
//!
//! Loads run where the caller asks. A query that misses the cache loads
//! its day on the calling thread. The figure pass announces each batch
//! of two days first ([`SnapshotSource::read_ahead`]), and when it has
//! two workers or more, the batch's missing days are then loaded on the
//! pass's claim-loop workers, one day a worker, the calling thread
//! among them; [`LazySnapshot::verify_router_infos`] loads every day on
//! the workers it is given. Each load is one `store.segment_load` span
//! on the thread that runs it and one `segments_lazy_loaded` event. A
//! read-ahead load that fails is dropped; the query for its day then
//! misses and reports the failure as any on-demand load does. The
//! reader is `Sync`: loads read the file at explicit offsets, the cache
//! sits behind a lock, and decoded segments are shared behind `Arc`.

use crate::snapshot::{verify_segment_router_infos, DaySegment};
use crate::wire::{self, SegmentLoc, Source};
use crate::{SnapshotMeta, StoreError};
use i2p_geoip::GeoDb;
use i2p_measure::source::{DayUnion, SnapshotSource};
use std::fs::File;
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

/// A snapshot replayed straight off its file, one day segment at a
/// time. See the module docs for the loading contract.
pub struct LazySnapshot {
    meta: SnapshotMeta,
    geo: GeoDb,
    /// The open archive, read at explicit offsets ([`Source::File`]).
    file: File,
    /// The archive's length at open.
    len: u64,
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

impl LazySnapshot {
    /// Opens an archive lazily: it reads the prelude, each segment's
    /// tag, length and day stamp, and the streamed trailer checksum,
    /// and decodes no segment body, so open-time memory is
    /// O(header + chunk).
    pub fn open(path: impl AsRef<Path>) -> Result<LazySnapshot, StoreError> {
        let _span = i2p_telemetry::span("store.lazy_open");
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let (meta, segments) =
            wire::walk(Source::File(&file, len), |_, _, loc| Ok(loc))?.intact()?;
        i2p_telemetry::count(i2p_telemetry::Counter::StoreBytesRead, len);
        Ok(LazySnapshot {
            meta,
            geo: GeoDb::new(),
            file,
            len,
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
        let src = Source::File(&self.file, self.len);
        let seg = wire::load_segment(src, &self.meta, self.segments[di])?;
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

    /// Streaming [`crate::Snapshot::verify_router_infos`]: loads and
    /// verifies one day at a time on each of up to `workers` workers
    /// (`i2p_measure::lab::claim`), bypassing the cache. The error is
    /// the lowest failing day's, so it is the same at any worker count.
    pub fn verify_router_infos(&self, workers: usize) -> Result<usize, StoreError> {
        let _span = i2p_telemetry::span("store.verify");
        let mut days: Vec<(usize, Result<usize, StoreError>)> =
            i2p_measure::lab::claim(self.segments.len(), workers, Vec::new, |out, di| {
                let seg = self.read_segment(di);
                out.push((di, seg.and_then(|seg| verify_segment_router_infos(&seg))));
            })
            .into_iter()
            .flatten()
            .collect();
        days.sort_unstable_by_key(|(di, _)| *di);
        let verified = days.into_iter().map(|(_, day)| day).sum::<Result<usize, _>>()?;
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
                lazy.verify_router_infos(2).expect("streaming verify"),
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
        for cut in [0, crate::format::MAGIC.len() + 6, bytes.len() / 2, bytes.len() - 1] {
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
        use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
        let (_eager, scratch) = archived("damaged");
        for workers in [1, 2] {
            // Day 2 loads in the pass's second read-ahead batch, beside
            // day 3, on a worker that may not be the calling thread.
            let lazy = LazySnapshot::open(&scratch.0).expect("lazy open");
            let loc = &lazy.segments[2];
            let at = loc.offset + loc.len as u64 / 2;
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
