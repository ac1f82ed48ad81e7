//! Snapshot wire encode/decode (layout in `format.rs` / DESIGN.md §7).
//!
//! One writer, [`encode`], and one reader, [`walk`], which every load
//! shares: the strict and recovering loads step into each day segment
//! with [`load_segment`] (checksum and decode), the lazy open keeps the
//! segment's extent and loads it with [`load_segment`] later. The walk
//! records the first damaged element rather than returning it, and each
//! load makes its own verdict from that record.

use crate::format::{
    checksum, Hasher, CHECKSUM_LEN, FLAG_INTRODUCERS, FLAG_IPV4, FLAG_IPV6, FLAG_MASK, MAGIC,
    SEGMENT_TAG, TRAILER_TAG, VERSION,
};
use crate::snapshot::{mode_from_tag, mode_tag, DaySegment, Snapshot, SnapshotMeta, WireRecords};
use crate::StoreError;
use i2p_data::codec::{DecodeError, Reader, Writer};
use i2p_data::{Caps, CapsString, Hash256, PeerIp};
use i2p_measure::fleet::Vantage;
use i2p_measure::observed::ObservedRouterInfo;
use std::fs::File;

/// Checked `usize → u32` length narrowing: the wire format's length
/// fields must never wrap silently — a truncated length would still
/// checksum cleanly and corrupt the archive undetectably.
fn len_u32(len: usize, region: &'static str) -> Result<u32, StoreError> {
    u32::try_from(len).map_err(|_| StoreError::TooLarge { region, len })
}

/// Checked `usize → u16` count narrowing (see [`len_u32`]).
fn len_u16(len: usize, region: &'static str) -> Result<u16, StoreError> {
    u16::try_from(len).map_err(|_| StoreError::TooLarge { region, len })
}

pub(crate) fn encode(snap: &Snapshot) -> Result<Vec<u8>, StoreError> {
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.u16(VERSION);

    // Header: world + fleet metadata, independently checksummed.
    let header = encode_header(snap.meta())?;
    w.u32(len_u32(header.len(), "snapshot.header-len")?);
    w.bytes(&header);
    w.bytes(&checksum(&header));

    // One segment per harvested day.
    for seg in &snap.days {
        let body = encode_segment(seg);
        w.u8(SEGMENT_TAG);
        w.u32(len_u32(body.len(), "snapshot.segment-len")?);
        w.bytes(&body);
        w.bytes(&checksum(&body));
    }

    // Trailer: whole-file checksum over everything before the tag.
    let mut out = w.into_bytes();
    let file_sum = checksum(&out);
    out.push(TRAILER_TAG);
    out.extend_from_slice(&file_sum);
    Ok(out)
}

fn encode_header(meta: &SnapshotMeta) -> Result<Vec<u8>, StoreError> {
    let mut w = Writer::new();
    w.u64(meta.world_days);
    w.u64(meta.world_scale.to_bits());
    w.u64(meta.world_seed);
    w.u64(meta.total_peers);
    w.u64(meta.day_start);
    w.u32(meta.n_days);
    w.u16(len_u16(meta.vantages.len(), "header.n-vantages")?);
    for v in &meta.vantages {
        w.u8(mode_tag(v.mode));
        w.u32(v.shared_kbps);
        w.u64(v.salt);
    }
    Ok(w.into_bytes())
}

fn encode_segment(seg: &DaySegment) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(seg.day);
    // The observed-router table, ascending by peer id: delta-varint ids,
    // the peer hash, the exact observed caps letters, address fields,
    // and the full RouterInfo wire record.
    w.varint(seg.observations.len() as u64);
    let mut prev_id = 0u32;
    for (i, (obs, ri)) in seg.observations.iter().zip(seg.router_infos.iter()).enumerate() {
        let delta = if i == 0 { obs.peer_id as u64 } else { (obs.peer_id - prev_id) as u64 };
        w.varint(delta);
        prev_id = obs.peer_id;
        w.bytes(&obs.hash.0);
        w.string(&obs.caps);
        let mut flags = 0u8;
        if obs.ipv4.is_some() {
            flags |= FLAG_IPV4;
        }
        if obs.ipv6.is_some() {
            flags |= FLAG_IPV6;
        }
        if obs.has_introducers {
            flags |= FLAG_INTRODUCERS;
        }
        w.u8(flags);
        if let Some(ip) = obs.ipv4 {
            encode_ip(&mut w, ip);
        }
        if let Some(ip) = obs.ipv6 {
            encode_ip(&mut w, ip);
        }
        w.varint(ri.len() as u64);
        w.bytes(ri);
    }
    // Per-vantage sighting sets as strictly-ascending position runs.
    for lane in &seg.lanes {
        let mut positions = Vec::new();
        for (j, &word) in lane.iter().enumerate() {
            let mut wrd = word;
            while wrd != 0 {
                positions.push((j * 64 + wrd.trailing_zeros() as usize) as u32);
                wrd &= wrd - 1;
            }
        }
        w.id_run(&positions);
    }
    w.into_bytes()
}

fn encode_ip(w: &mut Writer, ip: PeerIp) {
    match ip {
        PeerIp::V4(v) => {
            w.u8(4);
            w.u32(v);
        }
        PeerIp::V6(v) => {
            w.u8(6);
            w.u64((v >> 64) as u64);
            w.u64(v as u64);
        }
    }
}

/// What happened while loading a damaged snapshot through the
/// recovering decoder ([`crate::Snapshot::from_bytes_recover`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Days the header promised.
    pub expected_days: u32,
    /// Days actually recovered (a contiguous prefix).
    pub recovered_days: u32,
    /// Bytes quarantined after the first damaged element.
    pub quarantined_bytes: usize,
    /// What stopped the strict walk, or `None` for an intact file.
    pub damage: Option<&'static str>,
}

impl RecoveryReport {
    /// Whether the file loaded with no damage at all.
    pub fn is_intact(&self) -> bool {
        self.damage.is_none()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.damage {
            None => write!(f, "intact ({} days)", self.recovered_days),
            Some(what) => write!(
                f,
                "recovered {}/{} days, quarantined {} bytes ({what})",
                self.recovered_days, self.expected_days, self.quarantined_bytes
            ),
        }
    }
}

/// Bytes read per step of the streamed whole-file checksum.
const HASH_CHUNK: usize = 1 << 16;

/// An archive's bytes: in memory, or an open file and its length at
/// open. A file is read at explicit offsets, never through its cursor,
/// so a lazy reader's workers load different days at once.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    Bytes(&'a [u8]),
    File(&'a File, u64),
}

impl Source<'_> {
    fn len(self) -> u64 {
        match self {
            Source::Bytes(bytes) => bytes.len() as u64,
            Source::File(_, len) => len,
        }
    }

    /// A truncation of `what` unless `len` bytes from `offset` lie in
    /// the archive, so a damaged length field never sizes a buffer.
    fn check(self, offset: u64, len: usize, what: &'static str) -> Result<(), StoreError> {
        if offset.saturating_add(len as u64) > self.len() {
            return Err(DecodeError::Truncated { what }.into());
        }
        Ok(())
    }

    fn fill(self, offset: u64, buf: &mut [u8], what: &'static str) -> Result<(), StoreError> {
        self.check(offset, buf.len(), what)?;
        match self {
            Source::Bytes(bytes) => buf.copy_from_slice(&bytes[offset as usize..][..buf.len()]),
            Source::File(file, _) => read_exact_at(file, buf, offset)?,
        }
        Ok(())
    }

    fn array<const N: usize>(self, offset: u64, what: &'static str) -> Result<[u8; N], StoreError> {
        let mut buf = [0u8; N];
        self.fill(offset, &mut buf, what)?;
        Ok(buf)
    }

    fn read(self, offset: u64, len: usize, what: &'static str) -> Result<Vec<u8>, StoreError> {
        self.check(offset, len, what)?;
        let mut buf = vec![0u8; len];
        self.fill(offset, &mut buf, what)?;
        Ok(buf)
    }

    /// The [`checksum`] of the first `len` bytes, streamed through a
    /// [`Hasher`] a chunk at a time, so a file is hashed in O(chunk)
    /// memory.
    fn checksum_prefix(self, len: u64) -> Result<[u8; CHECKSUM_LEN], StoreError> {
        let mut hasher = Hasher::new(len as usize);
        let mut chunk = vec![0u8; HASH_CHUNK.min(len as usize)];
        let mut at = 0;
        while at < len {
            let take = HASH_CHUNK.min((len - at) as usize);
            self.fill(at, &mut chunk[..take], "snapshot")?;
            hasher.update(&chunk[..take]);
            at += take as u64;
        }
        Ok(hasher.finish())
    }
}

/// Fills `buf` from `file` at `offset` with a positional read, which
/// moves no shared cursor.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// [`read_exact_at`] where the standard library has no positional read:
/// one lock keeps each seek with its read.
#[cfg(not(unix))]
fn read_exact_at(mut file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::io::{Read as _, Seek as _};
    static CURSOR: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _cursor = CURSOR.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    file.seek(std::io::SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Where a day segment's body lies in the archive; its checksum
/// follows it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SegmentLoc {
    pub offset: u64,
    pub len: usize,
}

/// What a [`walk`] read: the header, the step's result for each day
/// before the first damaged element, and that element's offset and
/// error (`None` for an intact archive).
pub(crate) struct Walk<T> {
    meta: SnapshotMeta,
    days: Vec<T>,
    damage: Option<(u64, StoreError)>,
}

impl<T> Walk<T> {
    /// The strict verdict: every day of an intact archive, or the
    /// damage as the error.
    pub(crate) fn intact(self) -> Result<(SnapshotMeta, Vec<T>), StoreError> {
        match self.damage {
            None => Ok((self.meta, self.days)),
            Some((_, e)) => Err(e),
        }
    }

    /// The recovering verdict on an archive of `len` bytes: the days
    /// before the damage, under a header that counts only them, and the
    /// bytes quarantined from the damaged element on.
    pub(crate) fn recovered(mut self, len: u64) -> (SnapshotMeta, Vec<T>, RecoveryReport) {
        let report = RecoveryReport {
            expected_days: self.meta.n_days,
            recovered_days: self.days.len() as u32,
            quarantined_bytes: self.damage.as_ref().map_or(0, |(at, _)| (len - at) as usize),
            damage: self.damage.map(|(_, e)| match e {
                StoreError::Corrupt { what } => what,
                StoreError::Decode(_) => "truncated element",
                _ => "damaged element",
            }),
        };
        self.meta.n_days = report.recovered_days;
        (self.meta, self.days, report)
    }
}

/// The archive's one reader. The prelude (magic, version, checksummed
/// header) must be intact: without the header there is no world or
/// fleet to recover days against. Then each element's tag and length
/// are read at explicit offsets. A day segment that fits in the archive
/// goes through `step`, then its leading day stamp must continue the
/// header's day sequence within its day count. The trailer's whole-file
/// checksum is streamed, and the trailer must end the archive after
/// every promised day. The first damaged element ends the walk.
pub(crate) fn walk<T>(
    src: Source<'_>,
    mut step: impl FnMut(Source<'_>, &SnapshotMeta, SegmentLoc) -> Result<T, StoreError>,
) -> Result<Walk<T>, StoreError> {
    if src.array::<{ MAGIC.len() }>(0, "snapshot.magic")? != MAGIC {
        return Err(StoreError::Corrupt { what: "magic" });
    }
    let at = MAGIC.len() as u64;
    let version = u16::from_be_bytes(src.array(at, "snapshot.version")?);
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    let header_len = u32::from_be_bytes(src.array(at + 2, "snapshot.header-len")?) as usize;
    let header = src.read(at + 6, header_len, "snapshot.header")?;
    let mut pos = at + 6 + header_len as u64;
    if src.array(pos, "snapshot.header-checksum")? != checksum(&header) {
        return Err(StoreError::Corrupt { what: "header checksum" });
    }
    pos += CHECKSUM_LEN as u64;
    let meta = decode_header(&header)?;
    let mut days = Vec::new();
    let damage = loop {
        match element(src, pos, &meta, &mut days, &mut step) {
            Ok(Some(next)) => pos = next,
            Ok(None) if days.len() == meta.n_days as usize => break None,
            // Every byte checked out, but days are missing: nothing to
            // quarantine.
            Ok(None) => break Some((src.len(), StoreError::Corrupt { what: "day count" })),
            Err(e) => break Some((pos, e)),
        }
    };
    Ok(Walk { meta, days, damage })
}

/// [`walk`]'s element at `pos`: a day segment joins `days` and gives the
/// next element's offset; the trailer gives `None`.
fn element<T>(
    src: Source<'_>,
    pos: u64,
    meta: &SnapshotMeta,
    days: &mut Vec<T>,
    step: &mut impl FnMut(Source<'_>, &SnapshotMeta, SegmentLoc) -> Result<T, StoreError>,
) -> Result<Option<u64>, StoreError> {
    let corrupt = |what| Err(StoreError::Corrupt { what });
    match src.array(pos, "snapshot.tag")? {
        [SEGMENT_TAG] => {
            let len = u32::from_be_bytes(src.array(pos + 1, "snapshot.segment-len")?) as usize;
            let loc = SegmentLoc { offset: pos + 5, len };
            src.check(loc.offset, len + CHECKSUM_LEN, "snapshot.segment")?;
            // The step runs first, so a body the eager loads cannot
            // decode fails with the decoder's own error.
            let value = step(src, meta, loc)?;
            if len < 8 {
                return corrupt("segment length");
            }
            let day = u64::from_be_bytes(src.array(loc.offset, "segment.day")?);
            if day.checked_sub(meta.day_start) != Some(days.len() as u64) {
                return corrupt("day sequence");
            }
            if days.len() == meta.n_days as usize {
                return corrupt("day count");
            }
            days.push(value);
            Ok(Some(loc.offset + (len + CHECKSUM_LEN) as u64))
        }
        [TRAILER_TAG] => {
            let sum: [u8; CHECKSUM_LEN] = src.array(pos + 1, "snapshot.trailer-checksum")?;
            if src.checksum_prefix(pos)? != sum {
                return corrupt("file checksum");
            }
            if pos + 1 + CHECKSUM_LEN as u64 != src.len() {
                return corrupt("trailing bytes");
            }
            Ok(None)
        }
        _ => corrupt("unknown tag"),
    }
}

/// The eager loads' walk step and a lazy reader's day load: reads the
/// segment body at `loc`, checks its checksum and decodes it.
pub(crate) fn load_segment(
    src: Source<'_>,
    meta: &SnapshotMeta,
    loc: SegmentLoc,
) -> Result<DaySegment, StoreError> {
    let body = src.read(loc.offset, loc.len, "snapshot.segment")?;
    if src.array(loc.offset + loc.len as u64, "snapshot.segment-checksum")? != checksum(&body) {
        return Err(StoreError::Corrupt { what: "segment checksum" });
    }
    decode_segment(body, meta.vantages.len())
}

fn decode_header(bytes: &[u8]) -> Result<SnapshotMeta, StoreError> {
    let mut r = Reader::new(bytes);
    let world_days = r.u64("header.world-days")?;
    let world_scale = f64::from_bits(r.u64("header.world-scale")?);
    let world_seed = r.u64("header.world-seed")?;
    let total_peers = r.u64("header.total-peers")?;
    let day_start = r.u64("header.day-start")?;
    let n_days = r.u32("header.n-days")?;
    let n_vantages = r.u16("header.n-vantages")? as usize;
    let mut vantages = Vec::with_capacity(n_vantages);
    for _ in 0..n_vantages {
        let mode = mode_from_tag(r.u8("header.vantage-mode")?)?;
        let shared_kbps = r.u32("header.vantage-bandwidth")?;
        let salt = r.u64("header.vantage-salt")?;
        vantages.push(Vantage { mode, shared_kbps, salt });
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt { what: "header trailing bytes" });
    }
    Ok(SnapshotMeta {
        world_days,
        world_scale,
        world_seed,
        total_peers,
        vantages,
        day_start,
        n_days,
    })
}

/// Decodes one checksummed segment body. The segment keeps `body`: its
/// RouterInfo records are located in it, not copied out.
fn decode_segment(body: Vec<u8>, n_vantages: usize) -> Result<DaySegment, StoreError> {
    let mut r = Reader::new(&body);
    let day = r.u64("segment.day")?;
    let n_rows = r.varint("segment.row-count")? as usize;
    if n_rows > r.remaining() {
        // Every row costs well over one byte; bail before allocating.
        return Err(StoreError::Corrupt { what: "row count" });
    }
    let mut observations = Vec::with_capacity(n_rows);
    let mut spans = Vec::with_capacity(n_rows);
    let mut prev_id = 0u64;
    for i in 0..n_rows {
        let delta = r.varint("row.id-delta")?;
        if (i > 0 && delta == 0) || delta > u32::MAX as u64 {
            return Err(StoreError::Corrupt { what: "row id order" });
        }
        let peer_id = if i == 0 { delta } else { prev_id + delta };
        if peer_id > u32::MAX as u64 {
            return Err(StoreError::Corrupt { what: "row id range" });
        }
        prev_id = peer_id;
        let hash = Hash256(r.array32("row.hash")?);
        // Borrowed, not copied into a `String`: the letters go straight
        // into the row's inline `CapsString`.
        let caps_len = r.u8("row.caps")? as usize;
        let caps = std::str::from_utf8(r.bytes(caps_len, "row.caps")?)
            .map_err(|_| DecodeError::Invalid { what: "row.caps" })?;
        if caps.len() > CapsString::CAPACITY || !caps.is_ascii() {
            return Err(StoreError::Corrupt { what: "row caps length" });
        }
        if Caps::parse(caps).is_err() {
            return Err(StoreError::Corrupt { what: "row caps letters" });
        }
        let flags = r.u8("row.flags")?;
        if flags & !FLAG_MASK != 0 {
            return Err(StoreError::Corrupt { what: "row flags" });
        }
        let ipv4 =
            if flags & FLAG_IPV4 != 0 { Some(decode_ip(&mut r, "row.ipv4")?) } else { None };
        let ipv6 =
            if flags & FLAG_IPV6 != 0 { Some(decode_ip(&mut r, "row.ipv6")?) } else { None };
        let ri_len = r.varint("row.routerinfo-len")? as usize;
        let ri_start = body.len() - r.remaining();
        r.bytes(ri_len, "row.routerinfo")?;
        observations.push(ObservedRouterInfo {
            hash,
            peer_id: peer_id as u32,
            caps: CapsString::from(caps),
            ipv4,
            ipv6,
            has_introducers: flags & FLAG_INTRODUCERS != 0,
            day,
        });
        spans.push((ri_start, ri_start + ri_len));
    }
    let words = n_rows.div_ceil(64);
    let mut lanes = Vec::with_capacity(n_vantages);
    for _ in 0..n_vantages {
        let positions = r.id_run("segment.lane")?;
        let mut lane = vec![0u64; words];
        for pos in positions {
            let pos = pos as usize;
            if pos >= n_rows {
                return Err(StoreError::Corrupt { what: "lane position" });
            }
            lane[pos / 64] |= 1u64 << (pos % 64);
        }
        lanes.push(lane);
    }
    if !r.is_empty() {
        return Err(StoreError::Corrupt { what: "segment trailing bytes" });
    }
    let router_infos = WireRecords::in_body(body, spans);
    Ok(DaySegment { day, observations, router_infos, lanes, words })
}

fn decode_ip(r: &mut Reader<'_>, what: &'static str) -> Result<PeerIp, StoreError> {
    match r.u8(what)? {
        4 => Ok(PeerIp::V4(r.u32(what)?)),
        6 => {
            let hi = r.u64(what)? as u128;
            let lo = r.u64(what)? as u128;
            Ok(PeerIp::V6(hi << 64 | lo))
        }
        _ => Err(StoreError::Corrupt { what: "ip kind" }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use i2p_measure::engine::HarvestEngine;
    use i2p_measure::fleet::Fleet;
    use i2p_sim::world::{World, WorldConfig};

    #[test]
    fn row_caps_fields_are_checked_in_place() {
        // One day's segment body, and a copy of it per caps field: the
        // first row's caps follow its id delta and 32-byte hash.
        let world = World::generate(WorldConfig { days: 1, scale: 0.01, seed: 99 });
        let engine = HarvestEngine::build(&world, &Fleet::alternating(2), 0..1);
        let seg = &Snapshot::capture(&engine).days[0];
        let body = encode_segment(seg);
        let mut r = Reader::new(&body);
        r.u64("day").expect("day");
        r.varint("rows").expect("row count");
        r.varint("delta").expect("id delta");
        r.array32("hash").expect("hash");
        let at = body.len() - r.remaining();
        let tail = at + 1 + seg.observations[0].caps.len();
        let with_caps = |field: &[u8]| {
            decode_segment([&body[..at], field, &body[tail..]].concat(), 2)
        };
        let caps = seg.observations[0].caps;
        let field = [&[caps.len() as u8][..], caps.as_bytes()].concat();
        let back = with_caps(&field).expect("the encoded caps decode");
        assert_eq!(back.observations, seg.observations);
        let err = |field: &[u8]| with_caps(field).err().map(|e| e.to_string());
        let decode = |e: DecodeError| Some(StoreError::Decode(e).to_string());
        let corrupt = |what| Some(StoreError::Corrupt { what }.to_string());
        assert_eq!(err(&[2, 0xC3, 0x28]), decode(DecodeError::Invalid { what: "row.caps" }));
        assert_eq!(err(b"\x07OfRUHPX"), corrupt("row caps length"));
        assert_eq!(err("\u{2}é".as_bytes()), corrupt("row caps length"));
        assert_eq!(err(b"\x02fZ"), corrupt("row caps letters"));
        // A one-row body that ends inside the caps letters.
        let mut w = Writer::new();
        w.u64(0);
        w.varint(1);
        w.varint(5);
        w.bytes(&[0; 32]);
        w.bytes(b"\x04OR");
        let cut = decode_segment(w.into_bytes(), 2).err().map(|e| e.to_string());
        assert_eq!(cut, decode(DecodeError::Truncated { what: "row.caps" }));
    }
}
