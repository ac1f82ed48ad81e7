//! The in-memory snapshot model: capture from a live engine, replay
//! through [`SnapshotSource`].

use crate::wire::{self, Source};
use crate::{RecoveryReport, StoreError};
use i2p_crypto::{DetRng, HmacKey};
use i2p_faults::FaultPlane;
use i2p_data::addr::{Introducer, RouterAddress, TransportStyle};
use i2p_data::{Caps, FxHashMap, Hash256, PeerIp, RouterIdentity, RouterInfo, SimTime};
use i2p_geoip::GeoDb;
use i2p_measure::engine::HarvestEngine;
use i2p_measure::fleet::{Vantage, VantageMode};
use i2p_measure::observed::ObservedRouterInfo;
use i2p_measure::source::{DayUnion, SnapshotSource};
use std::io::Read;
use std::ops::Range;
use std::path::Path;

/// Salt for the deterministic per-peer archive identity stream.
const IDENT_SALT: u64 = 0x5704_E51D_0A7C_11E5;

/// Router software version stamped into archived RouterInfo records.
const ARCHIVE_VERSION: &str = "0.9.34";

/// Bytes per read when the atomic writer checks its temp file against
/// the encoded archive.
const READBACK_CHUNK: usize = 1 << 20;

/// Snapshot-level metadata: enough to regenerate the producing world
/// and fleet, and to label the archive.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotMeta {
    /// Study days of the producing world.
    pub world_days: u64,
    /// Population scale of the producing world.
    pub world_scale: f64,
    /// Master seed of the producing world.
    pub world_seed: u64,
    /// Total peers the world ever generated.
    pub total_peers: u64,
    /// The harvesting vantages, in prefix order.
    pub vantages: Vec<Vantage>,
    /// First harvested day.
    pub day_start: u64,
    /// Number of harvested days.
    pub n_days: u32,
}

impl SnapshotMeta {
    /// The harvested days.
    pub(crate) fn days(&self) -> Range<u64> {
        self.day_start..self.day_start + self.n_days as u64
    }

    /// The position of `day` among the harvested days. A day outside
    /// them is a caller bug, as for every [`SnapshotSource`] query.
    pub(crate) fn day_index(&self, day: u64) -> usize {
        let span = self.days();
        assert!(span.contains(&day), "day {day} outside the snapshot's range {span:?}");
        (day - span.start) as usize
    }
}

/// One archived day: the observed-router table (rows ascending by peer
/// id — the union of every vantage's sightings) plus per-vantage
/// sighting bitsets over the row positions.
pub(crate) struct DaySegment {
    /// Absolute study day.
    pub day: u64,
    /// One observation per union row.
    pub observations: Vec<ObservedRouterInfo>,
    /// The matching `RouterInfo::encode` wire records.
    pub router_infos: WireRecords,
    /// Per-vantage bitsets: bit `i` set iff the vantage saw row `i`.
    pub lanes: Vec<Vec<u64>>,
    /// Words per lane (`rows / 64`, rounded up).
    pub words: usize,
}

/// A day's `RouterInfo::encode` wire records: record `i` is
/// `bytes[spans[i].0..spans[i].1]`. A decoded segment keeps its whole
/// body as `bytes` and points into it, so loading a day copies no
/// record; a capture packs its encodings back to back. Either way a day
/// is a few allocations, not one per row: a lazy replay decodes one day
/// at a time while the figure pass's accumulators grow across all days,
/// and per-row buffers freed in between fragmented the heap, so
/// resident memory crept up pass after pass (DESIGN.md §14).
#[derive(Clone, Debug, Default)]
pub(crate) struct WireRecords {
    bytes: Vec<u8>,
    spans: Vec<(usize, usize)>,
}

impl WireRecords {
    /// Records at `spans` inside a decoded segment `body`.
    pub fn in_body(body: Vec<u8>, spans: Vec<(usize, usize)>) -> WireRecords {
        WireRecords { bytes: body, spans }
    }

    /// Appends the one record `write` appends to the buffer.
    pub fn push_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        write(&mut self.bytes);
        self.spans.push((start, self.bytes.len()));
    }

    /// The records in row order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.spans.iter().map(|&(start, end)| &self.bytes[start..end])
    }
}

/// Equal when the record sequences are: a decoded day and the capture
/// it was encoded from hold the same records in differently laid out
/// buffers.
impl PartialEq for WireRecords {
    fn eq(&self, other: &WireRecords) -> bool {
        self.iter().eq(other.iter())
    }
}

/// A loaded or freshly captured harvest snapshot.
///
/// Implements [`SnapshotSource`], so every `*_from` figure pipeline in
/// `i2p-measure` runs off it exactly as it runs off a live engine.
pub struct Snapshot {
    meta: SnapshotMeta,
    pub(crate) days: Vec<DaySegment>,
    /// The (deterministic, parameter-free) geo database observations
    /// resolve against during replay.
    geo: GeoDb,
}

impl Snapshot {
    /// Archives a filled engine: every (vantage, day) sighting set and
    /// every observation record in its day range, plus a signed
    /// RouterInfo wire record per sighting row.
    ///
    /// The engine is walked once per day. Each distinct peer gets one
    /// [`ArchiveIdentity`], built when the walk first meets it; the
    /// days' records are then signed on the fill's workers
    /// ([`HarvestEngine::workers`]). Every record is a pure function of
    /// its row and its peer's identity, so the archive is byte-identical
    /// at any worker count.
    pub fn capture(engine: &HarvestEngine<'_>) -> Snapshot {
        let _span = i2p_telemetry::span("store.capture");
        let world = engine.world();
        let vantages = engine.vantages().to_vec();
        let span = engine.days();
        let meta = SnapshotMeta {
            world_days: world.config.days,
            world_scale: world.config.scale,
            world_seed: world.config.seed,
            total_peers: world.total_peers() as u64,
            vantages: vantages.clone(),
            day_start: span.start,
            n_days: span.clone().count() as u32,
        };
        let mut idents: FxHashMap<u32, ArchiveIdentity> = FxHashMap::default();
        let mut days = Vec::with_capacity(meta.n_days as usize);
        for day in span {
            let mut observations = Vec::new();
            engine.for_each_observation(day, vantages.len(), |rec| {
                idents.entry(rec.peer_id).or_insert_with(|| ArchiveIdentity::new(&rec));
                observations.push(rec);
            });
            let words = observations.len().div_ceil(64);
            let lanes: Vec<Vec<u64>> = (0..vantages.len())
                .map(|v| {
                    let mut lane = vec![0u64; words];
                    // Vantage sightings are a sorted subset of the union
                    // rows; a two-pointer walk maps ids to positions.
                    let mut row = 0usize;
                    for id in engine.vantage_ids(v, day) {
                        while observations[row].peer_id != id {
                            row += 1;
                        }
                        lane[row / 64] |= 1u64 << (row % 64);
                    }
                    lane
                })
                .collect();
            let router_infos = WireRecords::default();
            days.push(DaySegment { day, observations, router_infos, lanes, words });
        }
        let signed = i2p_measure::lab::sweep(&idents, &days, engine.workers(), |idents, seg, _| {
            let mut records = WireRecords::default();
            for obs in &seg.observations {
                records.push_with(|out| idents[&obs.peer_id].sign(obs, out));
            }
            records
        });
        for (seg, router_infos) in days.iter_mut().zip(signed) {
            seg.router_infos = router_infos;
        }
        Snapshot { meta, days, geo: GeoDb::new() }
    }

    /// Rebuilds a snapshot from decoded parts (the wire reader).
    pub(crate) fn from_parts(meta: SnapshotMeta, days: Vec<DaySegment>) -> Snapshot {
        Snapshot { meta, days, geo: GeoDb::new() }
    }

    /// The snapshot's metadata.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Total observation rows across all days.
    pub fn total_rows(&self) -> usize {
        self.days.iter().map(|d| d.observations.len()).sum()
    }

    /// Serializes to the versioned, checksummed wire format. Fails with
    /// [`StoreError::TooLarge`] if any region outgrows its length field
    /// (e.g. a vantage fleet beyond `u16`) — never by silently
    /// truncating a length.
    pub fn to_bytes(&self) -> Result<Vec<u8>, StoreError> {
        let _span = i2p_telemetry::span("store.encode");
        let bytes = wire::encode(self)?;
        i2p_telemetry::count(i2p_telemetry::Counter::SegmentsEncoded, self.days.len() as u64);
        i2p_telemetry::count(i2p_telemetry::Counter::StoreBytesWritten, bytes.len() as u64);
        Ok(bytes)
    }

    /// Parses and validates a snapshot (magic, version, every segment
    /// checksum, the trailer checksum, and table consistency).
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, StoreError> {
        let _span = i2p_telemetry::span("store.decode");
        let (meta, days) = wire::walk(Source::Bytes(bytes), wire::load_segment)?.intact()?;
        i2p_telemetry::count(i2p_telemetry::Counter::SegmentsDecoded, days.len() as u64);
        i2p_telemetry::count(i2p_telemetry::Counter::StoreBytesRead, bytes.len() as u64);
        Ok(Snapshot::from_parts(meta, days))
    }

    /// Writes the snapshot to `path` atomically: the destination either
    /// keeps its previous content or holds the complete new snapshot,
    /// never a torn intermediate — even if the writer dies mid-write.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        self.write_to_with(path, &FaultPlane::zero())
    }

    /// [`Snapshot::write_to`] with injectable IO crash-points
    /// (`io_crash=N` in a fault spec). The write sequence and its
    /// crash-points:
    ///
    /// 1. temp file created (crash leaves an empty `.tmp` sibling);
    /// 2. half the bytes written;
    /// 3. all bytes written, before fsync;
    /// 4. after fsync and read-back verification, before the rename;
    /// 5. after the rename (publication already durable).
    ///
    /// At points 1–4 the destination is untouched; the only debris is
    /// the `.tmp` sibling, which the next successful write overwrites.
    /// The read-back before the rename is the checksum-before-publish
    /// gate: a temp file that does not verify is never renamed in.
    pub fn write_to_with(
        &self,
        path: impl AsRef<Path>,
        faults: &FaultPlane,
    ) -> Result<(), StoreError> {
        use std::io::Write as _;
        let _span = i2p_telemetry::span("store.write");
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        let tmp = tmp_path(path);
        let crash = |point: u32| -> Result<(), StoreError> {
            if faults.io_crash_at(point) {
                Err(StoreError::InjectedCrash { point })
            } else {
                Ok(())
            }
        };
        let mut f = std::fs::File::create(&tmp)?;
        crash(1)?;
        let half = bytes.len() / 2;
        f.write_all(&bytes[..half])?;
        crash(2)?;
        f.write_all(&bytes[half..])?;
        crash(3)?;
        f.sync_all()?;
        drop(f);
        if !reads_back(std::fs::File::open(&tmp)?, &bytes, READBACK_CHUNK)? {
            return Err(StoreError::Corrupt { what: "temp file readback" });
        }
        crash(4)?;
        std::fs::rename(&tmp, path)?;
        crash(5)?;
        // Make the rename itself durable (best effort — not every
        // platform lets a directory be opened and synced).
        if let Some(parent) = path.parent() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and validates a snapshot from `path`.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        let _span = i2p_telemetry::span("store.read");
        Snapshot::from_bytes(&std::fs::read(path)?)
    }

    /// The recovering load: keeps the valid contiguous-day prefix of a
    /// damaged file and quarantines everything after the first corrupt
    /// or truncated element. Intact files load exactly as
    /// [`Snapshot::from_bytes`] would. Only prelude damage (magic,
    /// version, header) is unrecoverable.
    pub fn from_bytes_recover(bytes: &[u8]) -> Result<(Snapshot, RecoveryReport), StoreError> {
        let _span = i2p_telemetry::span("store.recover");
        let (meta, days, report) =
            wire::walk(Source::Bytes(bytes), wire::load_segment)?.recovered(bytes.len() as u64);
        i2p_telemetry::count(i2p_telemetry::Counter::SegmentsDecoded, days.len() as u64);
        i2p_telemetry::count(i2p_telemetry::Counter::StoreBytesRead, bytes.len() as u64);
        i2p_telemetry::count_one(i2p_telemetry::Counter::SnapshotsRecovered);
        Ok((Snapshot::from_parts(meta, days), report))
    }

    /// [`Snapshot::from_bytes_recover`] from a file.
    pub fn read_recover(path: impl AsRef<Path>) -> Result<(Snapshot, RecoveryReport), StoreError> {
        Snapshot::from_bytes_recover(&std::fs::read(path)?)
    }

    /// Appends `tail`'s days to this snapshot — the resume path's merge
    /// step. The tail must come from the identical world and fleet and
    /// start exactly where this snapshot ends.
    pub fn extend(&mut self, tail: Snapshot) -> Result<(), StoreError> {
        let m = &self.meta;
        let t = &tail.meta;
        if m.world_days != t.world_days
            || m.world_scale.to_bits() != t.world_scale.to_bits()
            || m.world_seed != t.world_seed
            || m.total_peers != t.total_peers
            || m.vantages != t.vantages
        {
            return Err(StoreError::Corrupt { what: "extend: mismatched worlds" });
        }
        if t.day_start != m.day_start + m.n_days as u64 {
            return Err(StoreError::Corrupt { what: "extend: day gap" });
        }
        self.meta.n_days += t.n_days;
        self.days.extend(tail.days);
        Ok(())
    }

    /// Decodes and signature-verifies **every** archived RouterInfo wire
    /// record, cross-checking it against its observation row (addresses,
    /// introducers, publication day, canonical caps). Returns the number
    /// of verified records.
    pub fn verify_router_infos(&self) -> Result<usize, StoreError> {
        let _span = i2p_telemetry::span("store.verify");
        let mut verified = 0usize;
        for seg in &self.days {
            verified += verify_segment_router_infos(seg)?;
        }
        i2p_telemetry::count(i2p_telemetry::Counter::RecordsVerified, verified as u64);
        Ok(verified)
    }

    /// The archived segment of `day`.
    fn segment(&self, day: u64) -> &DaySegment {
        &self.days[self.meta.day_index(day)]
    }
}

impl SnapshotSource for Snapshot {
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

/// Decodes and signature-verifies every archived RouterInfo of one day
/// segment against its observation rows — the per-segment unit both
/// [`Snapshot::verify_router_infos`] and the streaming
/// [`crate::LazySnapshot::verify_router_infos`] are built from.
pub(crate) fn verify_segment_router_infos(seg: &DaySegment) -> Result<usize, StoreError> {
    let mut verified = 0usize;
    for (obs, bytes) in seg.observations.iter().zip(seg.router_infos.iter()) {
        let ri = RouterInfo::decode(bytes)?;
        if !ri.verify() {
            return Err(StoreError::Corrupt { what: "routerinfo signature" });
        }
        if ri.published != SimTime::from_day_ms(seg.day, 0) {
            return Err(StoreError::Corrupt { what: "routerinfo publication day" });
        }
        let ips = ri.published_ips();
        let v4 = ips.iter().copied().find(PeerIp::is_v4);
        if v4 != obs.ipv4 {
            return Err(StoreError::Corrupt { what: "routerinfo ipv4" });
        }
        let v6 = ips.iter().copied().find(|ip| !ip.is_v4());
        if v6 != obs.ipv6 {
            return Err(StoreError::Corrupt { what: "routerinfo ipv6" });
        }
        let has_intro = ri.addresses.iter().any(|a| !a.introducers.is_empty());
        if has_intro != obs.has_introducers {
            return Err(StoreError::Corrupt { what: "routerinfo introducers" });
        }
        let caps = Caps::parse(&obs.caps)
            .map_err(|_| StoreError::Corrupt { what: "observation caps" })?;
        if ri.caps != caps {
            return Err(StoreError::Corrupt { what: "routerinfo caps" });
        }
        verified += 1;
    }
    Ok(verified)
}

/// The [`SnapshotSource`] queries of one day, answered from its lanes
/// and rows; the eager [`Snapshot`] and the lazy
/// [`crate::LazySnapshot`] differ only in how they reach the segment.
impl DaySegment {
    /// Rows vantage `vantage` saw.
    pub(crate) fn count_one(&self, vantage: usize) -> usize {
        self.lanes[vantage].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Rows in the union of the first `k` lanes.
    pub(crate) fn count_union_prefix(&self, k: usize) -> usize {
        let k = k.min(self.lanes.len());
        let mut count = 0usize;
        for j in 0..self.words {
            let mut acc = 0u64;
            for lane in &self.lanes[..k] {
                acc |= lane[j];
            }
            count += acc.count_ones() as usize;
        }
        count
    }

    /// Rows in the union of the first `n` lanes, for each `n` from 1 to
    /// the lane count.
    pub(crate) fn coverage_curve(&self) -> Vec<usize> {
        let mut acc = vec![0u64; self.words];
        let mut curve = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let mut count = 0usize;
            for (a, w) in acc.iter_mut().zip(lane) {
                *a |= w;
                count += a.count_ones() as usize;
            }
            curve.push(count);
        }
        curve
    }

    /// The union of the first `k` lanes: its rows' records, ascending
    /// by peer id.
    pub(crate) fn union(&self, k: usize) -> DayUnion<'_> {
        let mut rows = Vec::new();
        self.for_each_union_row(k, &mut |row| rows.push(row));
        DayUnion::archived(self.day, &self.observations, rows)
    }

    /// Visits every row position set in the OR of the first `k` lanes,
    /// ascending (= ascending peer id, since rows are id-sorted).
    fn for_each_union_row(&self, k: usize, f: &mut dyn FnMut(usize)) {
        let k = k.min(self.lanes.len());
        for j in 0..self.words {
            let mut acc = 0u64;
            for lane in &self.lanes[..k] {
                acc |= lane[j];
            }
            while acc != 0 {
                let bit = acc.trailing_zeros() as usize;
                f(j * 64 + bit);
                acc &= acc - 1;
            }
        }
    }
}

/// One peer's archive identity: a deterministic identity seeded from
/// the peer hash, its signing key with the HMAC pads absorbed, and the
/// introducer hash its firewalled rows publish. The identity hash is
/// the *archive* identity, not the world peer hash (worlds don't carry
/// full key material); the row's `hash` column keeps the peer's real
/// hash.
struct ArchiveIdentity {
    ident: RouterIdentity,
    key: HmacKey,
    introducer: Hash256,
}

impl ArchiveIdentity {
    fn new(obs: &ObservedRouterInfo) -> ArchiveIdentity {
        let mut rng = DetRng::new(obs.hash.prefix_u64() ^ IDENT_SALT); // i2plint: allow(rng-containment) -- keyed identity lane: router hash and IDENT_SALT determine the identity
        let (ident, secrets) = RouterIdentity::generate(&mut rng);
        ArchiveIdentity {
            ident,
            key: secrets.signing_key(),
            introducer: Hash256::digest(&obs.hash.0),
        }
    }

    /// Appends the archived RouterInfo for one of this peer's rows to
    /// `out`: the row's addresses and introducer posture, its canonical
    /// caps, and the row's day as publication time — signed, so the
    /// archive carries verifiable paper-shaped netDb records.
    fn sign(&self, obs: &ObservedRouterInfo, out: &mut Vec<u8>) {
        let port = 9000 + (obs.hash.prefix_u64() % 22_001) as u16;
        let mut addresses = Vec::new();
        if let Some(ip) = obs.ipv4 {
            addresses.push(RouterAddress::published(TransportStyle::Ntcp, ip, port));
        }
        if let Some(ip) = obs.ipv6 {
            addresses.push(RouterAddress::published(TransportStyle::Ssu, ip, port));
        }
        if obs.has_introducers {
            addresses.push(RouterAddress::firewalled(vec![Introducer {
                router: self.introducer,
                ip: PeerIp::V4(obs.hash.prefix_u64() as u32),
                tag: obs.peer_id,
            }]));
        }
        RouterInfo::encode_signed(
            &self.ident,
            &self.key,
            SimTime::from_day_ms(obs.day, 0),
            &addresses,
            obs.parsed_caps(),
            ARCHIVE_VERSION,
            out,
        );
    }
}

/// Whether `file` holds exactly `expected`, read `chunk` bytes at a
/// time so the check never holds a second copy of the archive.
fn reads_back(mut file: impl Read, expected: &[u8], chunk: usize) -> std::io::Result<bool> {
    let mut buf = vec![0u8; chunk];
    let mut rest = expected;
    loop {
        let n = match file.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(rest.is_empty());
        }
        match rest.strip_prefix(&buf[..n]) {
            Some(tail) => rest = tail,
            None => return Ok(false),
        }
    }
}

/// The sibling temp path the atomic writer stages into.
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Encodes a vantage mode as a wire byte.
pub(crate) fn mode_tag(mode: VantageMode) -> u8 {
    match mode {
        VantageMode::Floodfill => 0,
        VantageMode::NonFloodfill => 1,
    }
}

/// Decodes a vantage mode from a wire byte.
pub(crate) fn mode_from_tag(tag: u8) -> Result<VantageMode, StoreError> {
    match tag {
        0 => Ok(VantageMode::Floodfill),
        1 => Ok(VantageMode::NonFloodfill),
        _ => Err(StoreError::Corrupt { what: "vantage mode" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_measure::fleet::Fleet;
    use i2p_sim::world::{World, WorldConfig};

    fn tiny() -> (World, Fleet) {
        (
            World::generate(WorldConfig { days: 4, scale: 0.01, seed: 99 }),
            Fleet::alternating(4),
        )
    }

    #[test]
    fn keyspace_and_sybil_captures_roundtrip_bit_identically() {
        // The snapshot format archives whatever sighting sets the
        // engine holds — a keyspace-routed (and even Sybil-attacked)
        // harvest must survive the byte roundtrip exactly like the
        // uniform one, so attacked censuses can be replayed and diffed.
        use i2p_measure::keyspace::{KeyspaceConfig, VisibilityModel};
        use i2p_measure::sybil;
        let (world, fleet) = tiny();
        let keyed = HarvestEngine::build_faulted(
            &world,
            &fleet,
            0..4,
            &VisibilityModel::Keyspace(KeyspaceConfig::paper()),
            &FaultPlane::zero(),
        );
        let cfg = sybil::SybilConfig { threads: 1, ..sybil::SybilConfig::paper(0..4) };
        let target = sybil::pick_target(&world, 0..4);
        let attacked = sybil::attacked_engine(&world, &fleet, &cfg, target, 8);
        for engine in [&keyed, &attacked] {
            let bytes = Snapshot::capture(engine).to_bytes().expect("encode");
            let replay = Snapshot::from_bytes(&bytes).expect("roundtrip");
            for day in 0..4 {
                assert_eq!(replay.coverage_curve(day), engine.coverage_curve(day));
                let mut ids = Vec::new();
                replay.for_each_union_id(day, 4, &mut |id| ids.push(id));
                assert_eq!(ids, engine.union_prefix_ids(day, 4), "day {day}");
            }
        }
        // Sybils only ever absorb stores, so the attacked census can
        // never exceed the clean keyspace one.
        for day in 0..4 {
            assert!(attacked.count_union(day) <= keyed.count_union(day), "day {day}");
        }
        // And the attack must actually bite at the placement level: 8
        // Sybils ground 48-deep against ~30 honest floodfills eclipse
        // the target.
        use i2p_measure::keyspace::{day_population, eclipsed};
        use i2p_netdb::RoutingKey;
        let ecl = (0..4).filter(|&day| {
            let ids = world.online_ids(day).expect("study window");
            let mut ks = KeyspaceConfig::paper();
            ks.sybils.insert(
                day,
                sybil::grind_sybils(
                    &world.peers[target as usize].hash,
                    day,
                    8,
                    cfg.grind_per_sybil,
                    cfg.attacker_seed,
                ),
            );
            let pop = day_population(&world, &fleet.vantages, ids, day, &ks);
            let rkey = RoutingKey::for_day(&world.peers[target as usize].hash, day);
            eclipsed(&pop, &rkey, ks.replication)
        });
        assert!(ecl.count() > 0, "8 Sybils at scale 0.01 must eclipse the target");
    }

    #[test]
    fn capture_matches_engine_queries() {
        let (world, fleet) = tiny();
        let engine = HarvestEngine::build(&world, &fleet, 0..4);
        let snap = Snapshot::capture(&engine);
        assert_eq!(SnapshotSource::days(&snap), 0..4);
        assert_eq!(snap.vantage_count(), 4);
        for day in 0..4 {
            assert_eq!(snap.coverage_curve(day), engine.coverage_curve(day), "day {day}");
            for k in 1..=4 {
                assert_eq!(
                    SnapshotSource::count_union_prefix(&snap, day, k),
                    engine.count_union_prefix(day, k)
                );
            }
            for v in 0..4 {
                assert_eq!(
                    SnapshotSource::count_one(&snap, v, day),
                    engine.count_one(v, day)
                );
            }
            let mut live = Vec::new();
            engine.for_each_observation(day, 4, |rec| live.push(rec));
            let mut replay = Vec::new();
            snap.for_each_observation_ref(day, 4, &mut |rec| replay.push(rec.clone()));
            assert_eq!(live, replay, "day {day} observations");
        }
    }

    #[test]
    fn wire_roundtrip_is_lossless() {
        let (world, fleet) = tiny();
        let engine = HarvestEngine::build(&world, &fleet, 1..3);
        let snap = Snapshot::capture(&engine);
        let bytes = snap.to_bytes().expect("encode");
        let back = Snapshot::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.meta(), snap.meta());
        assert_eq!(back.total_rows(), snap.total_rows());
        for (a, b) in snap.days.iter().zip(&back.days) {
            assert_eq!(a.day, b.day);
            assert_eq!(a.observations, b.observations);
            assert_eq!(a.router_infos, b.router_infos);
            assert_eq!(a.lanes, b.lanes);
        }
        // Serialization is deterministic.
        assert_eq!(bytes, back.to_bytes().expect("encode"));
    }

    /// An archived record built the way capture once built every one: a
    /// fresh identity and a whole signed `RouterInfo` per row, encoded.
    fn reference_record(obs: &ObservedRouterInfo) -> Vec<u8> {
        let mut rng = DetRng::new(obs.hash.prefix_u64() ^ IDENT_SALT);
        let (ident, secrets) = RouterIdentity::generate(&mut rng);
        let port = 9000 + (obs.hash.prefix_u64() % 22_001) as u16;
        let mut addresses = Vec::new();
        if let Some(ip) = obs.ipv4 {
            addresses.push(RouterAddress::published(TransportStyle::Ntcp, ip, port));
        }
        if let Some(ip) = obs.ipv6 {
            addresses.push(RouterAddress::published(TransportStyle::Ssu, ip, port));
        }
        if obs.has_introducers {
            addresses.push(RouterAddress::firewalled(vec![Introducer {
                router: Hash256::digest(&obs.hash.0),
                ip: PeerIp::V4(obs.hash.prefix_u64() as u32),
                tag: obs.peer_id,
            }]));
        }
        let caps = Caps::parse(&obs.caps).unwrap();
        let published = SimTime::from_day_ms(obs.day, 0);
        RouterInfo::new_signed(ident, &secrets, published, addresses, caps, ARCHIVE_VERSION)
            .encode()
    }

    #[test]
    fn capture_is_byte_identical_at_any_worker_count() {
        // Capture signs on the fill's workers; the archive must not
        // depend on how many there were — under both visibility models
        // and with vantage outages — and every record must be the one
        // the per-row `new_signed(..).encode()` path built.
        use i2p_faults::FaultSpec;
        use i2p_measure::keyspace::{KeyspaceConfig, VisibilityModel};
        let world = World::generate(WorldConfig { days: 4, scale: 0.01, seed: 99 });
        let fleet = Fleet::alternating(8);
        let outages = FaultPlane::new(FaultSpec::parse("outage=0.3").unwrap(), 5);
        for model in [VisibilityModel::Uniform, VisibilityModel::Keyspace(KeyspaceConfig::paper())] {
            let mut clean = Vec::new();
            for faulted in [false, true] {
                let mut first: Option<Vec<u8>> = None;
                let plane = if faulted { outages } else { FaultPlane::zero() };
                for threads in [1usize, 2, 3, 7] {
                    let engine =
                        HarvestEngine::build_on(&world, &fleet, 0..4, &model, &plane, threads);
                    assert_eq!(engine.workers(), threads);
                    let snap = Snapshot::capture(&engine);
                    let bytes = snap.to_bytes().expect("encode");
                    let Some(first) = &first else {
                        for seg in &snap.days {
                            for (obs, record) in seg.observations.iter().zip(seg.router_infos.iter())
                            {
                                assert_eq!(record, reference_record(obs), "peer {}", obs.peer_id);
                            }
                        }
                        first = Some(bytes);
                        continue;
                    };
                    assert_eq!(&bytes, first, "{model:?} faulted={faulted} threads {threads}");
                }
                let first = first.expect("captured");
                if faulted {
                    assert_ne!(first, clean, "the outages must darken some cells");
                } else {
                    clean = first;
                }
            }
        }
    }

    #[test]
    fn readback_compares_every_byte_across_chunks() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut flipped = bytes.clone();
        flipped[613] ^= 0x10;
        let mut long = bytes.clone();
        long.push(0);
        for chunk in [1, 7, 64, 999, 1000, 4096] {
            assert!(reads_back(&bytes[..], &bytes, chunk).unwrap(), "chunk {chunk}");
            assert!(!reads_back(&flipped[..], &bytes, chunk).unwrap(), "chunk {chunk}");
            assert!(!reads_back(&bytes[..999], &bytes, chunk).unwrap(), "chunk {chunk}");
            assert!(!reads_back(&long[..], &bytes, chunk).unwrap(), "chunk {chunk}");
        }
        assert!(reads_back(&[][..], &[], 16).unwrap());
    }

    #[test]
    fn archived_router_infos_verify() {
        let (world, fleet) = tiny();
        let engine = HarvestEngine::build(&world, &fleet, 0..2);
        let snap = Snapshot::capture(&engine);
        let n = snap.verify_router_infos().expect("verification");
        assert_eq!(n, snap.total_rows());
        assert!(n > 0);
    }

    /// A scratch path in the system temp dir, cleaned up on drop.
    struct Scratch(std::path::PathBuf);
    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let p = std::env::temp_dir()
                .join(format!("i2ps-test-{}-{tag}.i2ps", std::process::id()));
            let _ = std::fs::remove_file(&p);
            let _ = std::fs::remove_file(tmp_path(&p));
            Scratch(p)
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(tmp_path(&self.0));
        }
    }

    #[test]
    fn writer_killed_at_each_crash_point_never_tears_the_destination() {
        use i2p_faults::FaultSpec;
        let (world, fleet) = tiny();
        let old = Snapshot::capture(&HarvestEngine::build(&world, &fleet, 0..2));
        let new = Snapshot::capture(&HarvestEngine::build(&world, &fleet, 0..4));
        let scratch = Scratch::new("crash-points");
        let path = &scratch.0;
        old.write_to(path).expect("seed write");
        let old_bytes = std::fs::read(path).expect("previous content");
        for point in 1..=4u32 {
            let spec = FaultSpec::parse(&format!("io_crash={point}")).unwrap();
            let plane = FaultPlane::new(spec, 1);
            match new.write_to_with(path, &plane) {
                Err(StoreError::InjectedCrash { point: p }) => assert_eq!(p, point),
                other => panic!("crash point {point} did not fire: {other:?}"),
            }
            // The destination still holds the previous snapshot, byte
            // for byte — a crashed writer never tears it.
            assert_eq!(
                std::fs::read(path).expect("destination"),
                old_bytes,
                "crash at point {point} damaged the destination"
            );
            Snapshot::read_from(path).expect("destination still loads");
        }
        // Point 5 crashes *after* the rename: the new content is
        // already published and intact.
        let plane = FaultPlane::new(FaultSpec::parse("io_crash=5").unwrap(), 1);
        match new.write_to_with(path, &plane) {
            Err(StoreError::InjectedCrash { point: 5 }) => {}
            other => panic!("crash point 5 did not fire: {other:?}"),
        }
        assert_eq!(std::fs::read(path).expect("destination"), new.to_bytes().expect("encode"));
        // And a clean retry after any crash completes normally.
        new.write_to(path).expect("retry succeeds");
        assert_eq!(Snapshot::read_from(path).expect("reload").total_rows(), new.total_rows());
    }

    #[test]
    fn recovery_keeps_the_valid_prefix_and_quarantines_the_rest() {
        let (world, fleet) = tiny();
        let engine = HarvestEngine::build(&world, &fleet, 0..4);
        let snap = Snapshot::capture(&engine);
        let bytes = snap.to_bytes().expect("encode");

        // Intact bytes load with an intact report and full day count.
        let (whole, report) = Snapshot::from_bytes_recover(&bytes).expect("intact");
        assert!(report.is_intact());
        assert_eq!(report.recovered_days, 4);
        assert_eq!(report.quarantined_bytes, 0);
        assert_eq!(whole.to_bytes().expect("encode"), bytes, "intact recovery is lossless");

        // Truncations anywhere past the header recover a (possibly
        // empty) contiguous prefix; the strict loader refuses them all.
        for cut in [bytes.len() - 1, bytes.len() - 10, bytes.len() / 2, bytes.len() / 4] {
            let cut_bytes = &bytes[..cut];
            assert!(Snapshot::from_bytes(cut_bytes).is_err(), "strict must refuse cut {cut}");
            let (part, report) = Snapshot::from_bytes_recover(cut_bytes)
                .unwrap_or_else(|e| panic!("cut {cut} unrecoverable: {e}"));
            assert!(!report.is_intact());
            // Cutting only the trailer loses no day; cutting into the
            // segment stream loses the damaged tail.
            if cut < bytes.len() - 9 {
                assert!(report.recovered_days < 4, "cut {cut}");
            } else {
                assert_eq!(report.recovered_days, 4, "cut {cut}");
            }
            assert_eq!(part.meta().n_days, report.recovered_days);
            // The recovered prefix replays identically to the original.
            for day in 0..report.recovered_days as u64 {
                assert_eq!(part.coverage_curve(day), snap.coverage_curve(day), "cut {cut}");
            }
            part.verify_router_infos().expect("recovered records verify");
        }

        // A flipped byte in the last quarter corrupts a late segment:
        // the early days survive, the tail is quarantined.
        let mut bad = bytes.clone();
        let pos = bytes.len() - bytes.len() / 8;
        bad[pos] ^= 0x01;
        assert!(Snapshot::from_bytes(&bad).is_err());
        let (_part, report) = Snapshot::from_bytes_recover(&bad).expect("recoverable");
        assert!(!report.is_intact());
        assert!(report.quarantined_bytes > 0);
        assert!(report.recovered_days < 4);

        // Prelude damage is unrecoverable by design.
        let mut no_magic = bytes.clone();
        no_magic[0] ^= 0xFF;
        assert!(Snapshot::from_bytes_recover(&no_magic).is_err());
    }

    #[test]
    fn extend_merges_a_contiguous_tail_and_refuses_everything_else() {
        let (world, fleet) = tiny();
        let whole = Snapshot::capture(&HarvestEngine::build(&world, &fleet, 0..4));
        let head_engine = HarvestEngine::build(&world, &fleet, 0..2);
        let tail_engine = HarvestEngine::build(&world, &fleet, 2..4);
        let mut head = Snapshot::capture(&head_engine);
        let tail = Snapshot::capture(&tail_engine);
        head.extend(tail).expect("contiguous tail merges");
        // Per-peer archive identities are deterministic, so the merged
        // snapshot is byte-identical to a one-shot capture.
        assert_eq!(head.to_bytes().expect("encode"), whole.to_bytes().expect("encode"));

        // A gapped tail is refused.
        let mut head2 = Snapshot::capture(&head_engine);
        let gapped = Snapshot::capture(&HarvestEngine::build(&world, &fleet, 3..4));
        assert!(matches!(
            head2.extend(gapped),
            Err(StoreError::Corrupt { what: "extend: day gap" })
        ));
        // A tail from a different world is refused.
        let other = World::generate(WorldConfig { days: 4, scale: 0.01, seed: 100 });
        let alien = Snapshot::capture(&HarvestEngine::build(&other, &fleet, 2..4));
        assert!(matches!(
            head2.extend(alien),
            Err(StoreError::Corrupt { what: "extend: mismatched worlds" })
        ));
    }

    #[test]
    fn oversized_regions_error_cleanly_instead_of_truncating() {
        // A vantage fleet beyond the header's u16 count field used to
        // wrap silently through `as u16` — the archive would checksum
        // cleanly and decode to a 4_464-vantage fleet. The encoder must
        // refuse with the region and the offending length instead.
        let fleet: Vec<Vantage> = (0..70_000u64)
            .map(|salt| Vantage { mode: VantageMode::Floodfill, shared_kbps: 64, salt })
            .collect();
        let meta = SnapshotMeta {
            world_days: 1,
            world_scale: 0.01,
            world_seed: 7,
            total_peers: 0,
            vantages: fleet,
            day_start: 0,
            n_days: 0,
        };
        let snap = Snapshot::from_parts(meta, Vec::new());
        match snap.to_bytes() {
            Err(StoreError::TooLarge { region, len }) => {
                assert_eq!(region, "header.n-vantages");
                assert_eq!(len, 70_000);
            }
            other => panic!("oversized fleet must refuse to encode: {other:?}"),
        }
        // Right at the boundary the fleet still encodes and decodes
        // losslessly — the check is exact, not conservative.
        let fleet: Vec<Vantage> = (0..u16::MAX as u64)
            .map(|salt| Vantage { mode: VantageMode::NonFloodfill, shared_kbps: 1, salt })
            .collect();
        let meta = SnapshotMeta {
            world_days: 1,
            world_scale: 0.01,
            world_seed: 7,
            total_peers: 0,
            vantages: fleet.clone(),
            day_start: 0,
            n_days: 0,
        };
        let bytes =
            Snapshot::from_parts(meta, Vec::new()).to_bytes().expect("boundary fleet encodes");
        let back = Snapshot::from_bytes(&bytes).expect("boundary fleet decodes");
        assert_eq!(back.meta().vantages, fleet, "u16::MAX vantages roundtrip losslessly");
    }

    #[test]
    fn every_corruption_detected() {
        // Every single-byte flip anywhere in the file must surface as a
        // load error: each region sits under a checksum (or is the
        // checksum, magic, tag or length whose damage breaks parsing).
        let (world, fleet) = tiny();
        let engine = HarvestEngine::build(&world, &fleet, 0..1);
        let bytes = Snapshot::capture(&engine).to_bytes().expect("encode");
        // Exhaustive flipping is O(len²) in hashing; a fixed stride that
        // lands in every region (magic, header, both checksums, row
        // table, lanes, trailer) plus the boundary bytes keeps the test
        // subsecond while still proving coverage of each region.
        let stride = (bytes.len() / 211).max(1);
        let positions = (0..bytes.len())
            .step_by(stride)
            .chain([0, 7, 8, 9, bytes.len() - 9, bytes.len() - 1]);
        for pos in positions {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "flip at byte {pos}/{} went undetected",
                bytes.len()
            );
        }
        // Truncations too.
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
