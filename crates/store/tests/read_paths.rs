//! What each read path of an `.i2ps` archive costs, in counters, and
//! how the streaming verify reports damage. Every counter assertion is
//! an exact delta under `counters::exclusive`, and every test in this
//! binary takes that lock, so no sibling test moves the counters.

use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::Fleet;
use i2p_measure::source::SnapshotSource;
use i2p_sim::world::{World, WorldConfig};
use i2p_store::format::{CHECKSUM_LEN, MAGIC, SEGMENT_TAG};
use i2p_store::{LazySnapshot, Snapshot};
use i2p_telemetry::counters::{self, Snapshot as Counts};
use i2p_telemetry::Counter;

/// The read counters and `want`'s values for them.
fn assert_counts(delta: &Counts, want: [u64; 4], path: &str) {
    let got = [
        Counter::SegmentsDecoded,
        Counter::StoreBytesRead,
        Counter::SegmentsLazyLoaded,
        Counter::SnapshotsRecovered,
    ]
    .map(|c| delta.get(c));
    assert_eq!(got, want, "{path}: decoded, bytes read, lazy loads, recoveries");
}

/// A 4-day, 4-vantage archive at scale 0.01, encoded.
fn archive() -> Vec<u8> {
    let world = World::generate(WorldConfig { days: 4, scale: 0.01, seed: 99 });
    let engine = HarvestEngine::build(&world, &Fleet::alternating(4), 0..4);
    Snapshot::capture(&engine).to_bytes().expect("encode")
}

/// Each day segment's body extent `(start, end)` in `bytes`.
fn segment_bodies(bytes: &[u8]) -> Vec<(usize, usize)> {
    let be32 = |at: usize| u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut pos = MAGIC.len() + 6 + be32(MAGIC.len() + 2) + CHECKSUM_LEN;
    let mut bodies = Vec::new();
    while bytes[pos] == SEGMENT_TAG {
        let start = pos + 5;
        bodies.push((start, start + be32(pos + 1)));
        pos = start + be32(pos + 1) + CHECKSUM_LEN;
    }
    bodies
}

/// A scratch file in the system temp dir, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn with(tag: &str, bytes: &[u8]) -> Scratch {
        let path = std::env::temp_dir()
            .join(format!("i2ps-read-paths-{}-{tag}.i2ps", std::process::id()));
        std::fs::write(&path, bytes).expect("write archive");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn eager_loads_count_their_days_and_bytes() {
    let bytes = archive();
    let len = bytes.len() as u64;
    let (delta, _) = counters::exclusive(|| Snapshot::from_bytes(&bytes).expect("strict load"));
    assert_counts(&delta, [4, len, 0, 0], "from_bytes");
    let (delta, (_, report)) =
        counters::exclusive(|| Snapshot::from_bytes_recover(&bytes).expect("intact recovery"));
    assert!(report.is_intact());
    assert_counts(&delta, [4, len, 0, 1], "from_bytes_recover, intact");
    // Cut inside day 2: days 0 and 1 are recovered and counted.
    let cut = &bytes[..segment_bodies(&bytes)[2].0 + 100];
    let (delta, (_, report)) =
        counters::exclusive(|| Snapshot::from_bytes_recover(cut).expect("recovery"));
    assert_eq!((report.recovered_days, report.damage), (2, Some("truncated element")));
    assert_counts(&delta, [2, cut.len() as u64, 0, 1], "from_bytes_recover, cut");
    // A refused load counts nothing.
    let (delta, refused) = counters::exclusive(|| Snapshot::from_bytes(cut).is_err());
    assert!(refused);
    assert_counts(&delta, [0, 0, 0, 0], "from_bytes, refused");
}

#[test]
fn a_lazy_open_reads_the_file_and_decodes_nothing_until_a_query() {
    let bytes = archive();
    let file = Scratch::with("lazy", &bytes);
    let (delta, lazy) = counters::exclusive(|| LazySnapshot::open(&file.0).expect("lazy open"));
    assert_counts(&delta, [0, bytes.len() as u64, 0, 0], "LazySnapshot::open");
    let (delta, _) = counters::exclusive(|| lazy.coverage_curve(1));
    assert_counts(&delta, [1, 0, 1, 0], "the first query");
}

#[test]
fn a_streaming_verify_reports_the_lowest_failing_day_at_any_worker_count() {
    let bytes = archive();
    let (_, eager) = counters::exclusive(|| Snapshot::from_bytes(&bytes).expect("strict load"));
    let file = Scratch::with("verify", &bytes);
    let open = || counters::exclusive(|| LazySnapshot::open(&file.0).expect("lazy open")).1;
    for workers in [1, 2, 3, 4] {
        let lazy = open();
        let (delta, verified) = counters::exclusive(|| lazy.verify_router_infos(workers));
        assert_eq!(verified.expect("an intact archive verifies"), eager.total_rows());
        assert_eq!(delta.get(Counter::RecordsVerified), eager.total_rows() as u64);
        assert_counts(&delta, [4, 0, 4, 0], "verify");
    }
    // Damage two days after open, differently: day 1's body fails its
    // checksum, and day 3 is cut short, so its read fails instead.
    let bodies = segment_bodies(&bytes);
    let lazy = open();
    let mut damaged = bytes[..bodies[3].0 + 10].to_vec();
    damaged[bodies[1].0 + 50] ^= 0x01;
    std::fs::write(&file.0, &damaged).expect("damage the archive");
    for workers in [1, 2, 3, 4] {
        let (_, verified) = counters::exclusive(|| lazy.verify_router_infos(workers));
        let err = verified.expect_err("a damaged archive fails to verify").to_string();
        assert_eq!(err, "corrupt snapshot: segment checksum", "at {workers} workers");
    }
}
